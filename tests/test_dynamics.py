"""Rate constants, dense propagation, rate profiles, adiabatic following."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from entspec import (
    BipartiteOperator,
    Cut,
    DensePropagator,
    EntspecError,
    ToyTwoQubit,
    adiabatic_error_bound,
    adiabatic_evolve,
    basis_product_state,
    build_nearest_neighbor_chain,
    c_alpha,
    check_unitary_se_growth,
    evolve_dense,
    measure_rate_profile,
    random_dense_instance,
)
from entspec.dynamics import c_alpha_table, rate_bound_check, toy_rate_experiment
from entspec.models import DENSE_DIM_CAP

from helpers import random_hermitian, random_state

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Y = np.array([[0.0, -1j], [1j, 0.0]])


def _toy_v_ab():
    """The toy Hamiltonian |00><11| + |11><00| = (XX - YY)/2, whose best
    proved upper bound is exactly 1."""
    v = BipartiteOperator.from_terms((2,), (2,), ((0.5, X, X), (-0.5, Y, Y)))
    assert np.array_equal(v.matrix, ToyTwoQubit().hamiltonian)
    return v


def test_rate_constant_anchors():
    assert all(c.ok for c in c_alpha_table([0.5, 0.75, 1.0, "inf"])["checks"].values())
    # u^(u/(2-2a)) route, evaluated independently at order 2
    assert c_alpha(2.0) == pytest.approx(1.539600717839002, abs=1e-12)
    with pytest.raises(EntspecError, match="no finite rate constant at alpha = 0.49"):
        c_alpha(0.49)
    with pytest.raises(EntspecError, match="no finite rate constant at alpha = 0.25"):
        c_alpha(0.25)


def test_rate_constant_continuity_at_branch_points():
    assert c_alpha(1.0 + 1e-10) == pytest.approx(4.0 / math.e, abs=1e-6)
    assert c_alpha(1.0 - 1e-10) == pytest.approx(4.0 / math.e, abs=1e-6)
    assert c_alpha(0.5 + 1e-10) == pytest.approx(2.0, abs=1e-6)
    assert c_alpha(1e7) == pytest.approx(2.0, abs=1e-5)


def test_rate_constant_shape():
    """Dips below 2 in the middle, approaching 2 at both ends."""
    grid = np.linspace(0.6, 20.0, 50)
    vals = [c_alpha(a) for a in grid]
    assert all(v < 2.0 for v in vals)
    assert min(vals) > 1.4


def test_dense_propagator_matches_expm(rng):
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = (m + m.conj().T) / 2
    prop = DensePropagator(h)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for t, out in zip((0.3, 1.7), prop.evolve(v, (0.3, 1.7))):
        assert np.linalg.norm(out - expm(-1j * h * t) @ v) < 1e-10
    with pytest.raises(ValueError):
        DensePropagator(m)


def test_propagator_times_share_one_basis_change_bit_for_bit(rng):
    h = random_hermitian(rng, 12)
    prop = DensePropagator(h)
    v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    times = [0.0, 0.05, -0.3, 1.7]
    for t, out in zip(times, prop.evolve(v, times)):
        expected = prop.u @ (np.exp(-1j * prop.w * t) * (prop.u.conj().T @ v))
        assert np.array_equal(out, expected)
    vals = np.exp(-1j * prop.w * 0.7)
    assert np.array_equal(prop.matrix(vals), prop.u @ (vals[:, None] * prop.u.conj().T))


def test_evolve_dense_on_chain(rng):
    chain = build_nearest_neighbor_chain(3, d=2, j=0.8, hx=0.3)
    state = random_state(rng, (2, 2, 2))
    out = evolve_dense(chain, state, 0.9)
    direct = expm(-1j * chain.dense() * 0.9) @ state.amps
    assert np.linalg.norm(out.amps - direct) < 1e-10
    assert out.norm == pytest.approx(1.0, abs=1e-12)


def test_evolve_dense_refuses_chains_above_dense_cap(rng):
    """13 qubits make an 8192-dim chain, over DENSE_DIM_CAP: refused before
    any chain matrix is allocated."""
    chain = build_nearest_neighbor_chain(13, d=2, j=1.0, hx=0.3)
    with pytest.raises(EntspecError, match="dense chain total dim 8192 > cap"):
        evolve_dense(chain, random_state(rng, (2,) * 13), 0.1)
    # a read-only zero view, refused before any dense copy is made
    with pytest.raises(EntspecError, match=f"propagator dim {DENSE_DIM_CAP + 1} > cap"):
        DensePropagator(np.broadcast_to(np.complex128(0), (DENSE_DIM_CAP + 1,) * 2))


def test_rate_profile_matches_toy_closed_form():
    toy = ToyTwoQubit()
    state0 = basis_product_state((2, 2), (0, 0))
    samples = measure_rate_profile(
        toy.hamiltonian, state0, Cut.of([0], 2),
        alphas=[0.75, 1.0], times=[0.3, 0.6], v_ab=_toy_v_ab(),
    )
    for s in samples:
        assert not s.kink
        assert s.rate == pytest.approx(toy.rate(s.alpha, s.t), abs=1e-5)
        assert s.bound == pytest.approx(c_alpha(s.alpha), abs=1e-12)
        assert s.margin == pytest.approx(s.bound - abs(s.rate), abs=1e-12)


def test_rate_profile_flags_kink_at_max_order():
    toy = ToyTwoQubit()
    state0 = basis_product_state((2, 2), (0, 0))
    samples = measure_rate_profile(
        toy.hamiltonian, state0, Cut.of([0], 2),
        alphas=[math.inf], times=[math.pi / 4],
        v_ab=_toy_v_ab(),
    )
    assert samples[0].kink
    # one-sided slopes are +-2 at the crossing; the larger magnitude is kept
    assert abs(samples[0].rate) == pytest.approx(2.0, abs=1e-2)


def test_rate_profile_below_threshold_has_no_bound():
    toy = ToyTwoQubit()
    state0 = basis_product_state((2, 2), (0, 0))
    samples = measure_rate_profile(
        toy.hamiltonian, state0, Cut.of([0], 2),
        alphas=[0.3], times=[0.4], v_ab=_toy_v_ab(),
    )
    assert samples[0].bound is None
    assert samples[0].margin is None


def test_toy_bound_exists_where_c_alpha_does():
    # c_alpha reads orders within 1e-12 below 1/2 as 1/2; order 0.3 has no constant
    rows = toy_rate_experiment([0.4], [0.5 - 1e-13, 0.3])["rows"]
    assert [r["bound"] for r in rows] == [2.0, None]


def test_rate_profile_respects_bound_on_random_instances(rng):
    for _ in range(6):
        h, v, state = random_dense_instance(rng, max_local=6)
        samples = measure_rate_profile(
            h, state, Cut.of([0], 2),
            alphas=[0.5, 1.0, 2.0, math.inf],
            times=[float(rng.uniform(0.05, 1.0))],
            v_ab=v,
        )
        assert rate_bound_check(samples).ok


def test_unitary_growth_stays_under_exponential_cap():
    toy = ToyTwoQubit()
    rows = check_unitary_se_growth(
        toy.hamiltonian, (2,), (2,), [0.2, 0.5, 1.0], se_upper_v=1.0, seeds=4,
    )
    assert all(r["ok"] for r in rows)


def test_adiabatic_follows_gapped_ground_state():
    """Slow ramp between two non-commuting 2-level Hamiltonians."""
    hx = np.array([[0.0, 1.0], [1.0, 0.0]])
    hz = np.array([[1.0, 0.0], [0.0, -1.0]])

    def h_of_nu(nu):
        return -(1.0 - nu) * hz - nu * hx

    res = adiabatic_evolve(h_of_nu, epsilon=0.01)
    w, u = np.linalg.eigh(h_of_nu(1.0))
    overlap = abs(np.vdot(u[:, 0], res.psi))
    assert overlap > 0.999
    assert res.delta_min == pytest.approx(math.sqrt(2.0), abs=1e-3)
    assert res.converged_check.ok


def test_adiabatic_rejects_closed_gap():
    hz = np.array([[1.0, 0.0], [0.0, -1.0]])

    def h_of_nu(nu):
        # levels cross at nu = 1/2
        return (1.0 - 2.0 * nu) * hz

    with pytest.raises(EntspecError, match="minimum path gap"):
        adiabatic_evolve(h_of_nu, epsilon=0.1)


@pytest.mark.parametrize("epsilon", [0.0, -0.1, math.nan, math.inf])
def test_adiabatic_rejects_bad_ramp_rate(epsilon):
    calls = []

    def h_of_nu(nu):
        calls.append(nu)
        return np.diag([0.0, 1.0])

    with pytest.raises(ValueError, match="epsilon"):
        adiabatic_evolve(h_of_nu, epsilon)
    assert calls == []


def test_adiabatic_error_bound_formula():
    got = adiabatic_error_bound(1.5, 2.0, 0.01, 0.5)
    want = (1.5 * 2.0 * 0.01 / 0.25) * (2.0 + 7.0 * 1.5 * 2.0 / 0.5)
    assert got == pytest.approx(want, abs=1e-12)
