"""Schmidt decomposition and Renyi entropy unit tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entspec import (
    Cut,
    EntspecError,
    PureState,
    renyi_entropy,
    schmidt_decompose,
)
from entspec.spectra import CLAMP_REL, SchmidtSpectrum, renyi_entropies

from helpers import random_state


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(dims=(1, 2), amps=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        PureState(dims=(2, 2), amps=np.array([1.0, 0.0]))


def test_cut_validation():
    cut = Cut.of([0, 1], 3)
    assert (cut.k, cut.n) == (2, 3)
    for left in ([0, 2], [1], [], [0, 1, 2]):
        with pytest.raises(EntspecError, match="are not 0..k-1|is no bond of a 3-site chain: "
                                               "it must lie in 1..2"):
            Cut.of(left, 3)
    state = PureState(dims=(2, 2, 2, 2), amps=np.ones(16))
    with pytest.raises(EntspecError, match="cut of 3 sites on a 4-site state"):
        schmidt_decompose(state, cut)


def test_bell_state_spectrum():
    amps = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    spec = schmidt_decompose(PureState(dims=(2, 2), amps=amps), Cut.of([0], 2))
    assert np.allclose(spec.coeffs, [1.0 / math.sqrt(2.0)] * 2)
    assert spec.rank == 2
    assert renyi_entropy(spec, 1.0) == pytest.approx(math.log(2.0))


def test_product_state_is_rank_one(rng):
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    amps = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
    spec = schmidt_decompose(PureState(dims=(3, 4), amps=amps), Cut.of([0], 2))
    assert spec.rank == 1
    assert renyi_entropy(spec, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_zero_state_rejected():
    with pytest.raises(EntspecError, match="zero state"):
        schmidt_decompose(
            PureState(dims=(2, 2), amps=np.zeros(4)), Cut.of([0], 2)
        )


def test_coefficients_are_the_svd_of_the_reshaped_amplitudes(rng):
    """The decomposition is the SVD of the amplitudes with the first k sites
    as rows, bit for bit."""
    state = random_state(rng, (2, 3, 2, 2))
    for k in (1, 2, 3):
        spec = schmidt_decompose(state, Cut.of(range(k), 4))
        rows = math.prod(state.dims[:k])
        want = np.linalg.svd(state.amps.reshape(rows, -1), compute_uv=False)
        assert np.array_equal(spec.coeffs, want)


def test_renyi_known_values():
    spec = SchmidtSpectrum(np.sqrt([0.9, 0.1]), 1.0)
    # independently computed: 2 ln(sqrt(.9) + sqrt(.1))
    assert renyi_entropy(spec, 0.5) == pytest.approx(0.470003629245736, abs=1e-12)
    assert renyi_entropy(spec, 1.0) == pytest.approx(
        -(0.9 * math.log(0.9) + 0.1 * math.log(0.1)), abs=1e-12
    )
    assert renyi_entropy(spec, math.inf) == pytest.approx(-math.log(0.9), abs=1e-12)


def test_renyi_uniform_spectrum_is_log_rank():
    spec = SchmidtSpectrum(np.full(8, math.sqrt(1.0 / 8.0)), 1.0)
    for alpha in (0.3, 0.5, 1.0, 2.0, math.inf):
        assert renyi_entropy(spec, alpha) == pytest.approx(math.log(8.0), abs=1e-12)


def test_renyi_rejects_bad_inputs():
    spec = SchmidtSpectrum(np.array([1.0, 0.5]), math.sqrt(1.25))
    with pytest.raises(EntspecError, match="spectrum not normalized"):
        renyi_entropy(spec, 1.0)
    unit = SchmidtSpectrum(np.array([1.0]), 1.0)
    with pytest.raises(EntspecError, match="Renyi order alpha = 0.0, not > 0"):
        renyi_entropy(unit, 0.0)
    with pytest.raises(EntspecError, match="Renyi order alpha = -1.0, not > 0"):
        renyi_entropy(unit, -1.0)


def test_empty_and_zero_spectra_have_rank_zero():
    empty = SchmidtSpectrum(np.array([]), 0.0)
    assert empty.rank == 0
    assert SchmidtSpectrum(np.zeros(3), 0.0).rank == 0
    with pytest.raises(EntspecError, match=r"spectrum not normalized: sum lambda\^2 = 0.0"):
        renyi_entropy(empty, 1.0)


def _renyi_per_order(spec, alpha):
    """The order-by-order formula, written out, that renyi_entropies must
    reproduce bit for bit."""
    c = np.asarray(spec.coeffs, dtype=float)
    lam = np.where(c > CLAMP_REL * c[0], c, 0.0)
    lam = lam[lam > 0]
    p = lam**2
    if alpha == np.inf:
        return float(-np.log(np.max(p)))
    if abs(1.0 - alpha) < 1e-9:
        return float(-np.sum(p * np.log(p)))
    return float(np.log(np.sum(lam ** (2.0 * alpha))) / (1.0 - alpha))


def test_renyi_orders_in_one_pass_are_bit_identical(rng):
    alphas = [0.5, 0.75, 1.0, 2.0, math.inf]
    for k in range(40):
        p = np.sort(rng.random(1 + k % 12))[::-1]
        if k % 3 == 0:  # a tail the clamp zeroes
            p = np.concatenate([p, p[0] * (CLAMP_REL * rng.random(3)) ** 2])
        c = np.sqrt(p / p.sum())
        spec = SchmidtSpectrum(c, float(np.sqrt(np.sum(c**2))))
        expected = [_renyi_per_order(spec, a) for a in alphas]
        assert renyi_entropies(spec, alphas) == expected
        assert [renyi_entropy(spec, a) for a in alphas] == expected
    bad = SchmidtSpectrum(np.array([1.0, 0.5]), math.sqrt(1.25))
    with pytest.raises(EntspecError, match="spectrum not normalized"):
        renyi_entropies(bad, alphas)
    unit = SchmidtSpectrum(np.array([1.0]), 1.0)
    with pytest.raises(EntspecError, match="Renyi order alpha = 0.0, not > 0"):
        renyi_entropies(unit, [1.0, 0.0])


def test_spectrum_ordering_enforced():
    with pytest.raises(ValueError):
        SchmidtSpectrum(np.array([0.5, 1.0]), math.sqrt(1.25))
    with pytest.raises(ValueError):
        SchmidtSpectrum(np.array([1.0]), 2.0)


@given(
    probs=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=12),
    alpha_pair=st.tuples(st.floats(0.1, 4.0), st.floats(0.1, 4.0)),
)
@settings(max_examples=60, deadline=None)
def test_renyi_nonincreasing_in_alpha(probs, alpha_pair):
    p = np.sort(np.asarray(probs))[::-1]
    p = p / p.sum()
    spec = SchmidtSpectrum(np.sqrt(p), 1.0)
    lo, hi = min(alpha_pair), max(alpha_pair)
    assert renyi_entropy(spec, lo) >= renyi_entropy(spec, hi) - 1e-9
