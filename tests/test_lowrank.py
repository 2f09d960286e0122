"""Width bounds, identity fits, no-go targets, and the merge expansion."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entspec import (
    EntspecError,
    build_long_range_ising,
    build_merge_series,
    kolmogorov_bounds,
    long_range_decomposition_check,
    merge_error_bound,
    no_go_experiment,
    no_go_lower_bound,
    rank_constrained_identity_fit,
    simplex_moment,
    truncation_error_params,
)
from entspec.lowrank import (
    IDENTITY_FIT_DIM_CAP,
    WidthResult,
    _max_abs,
    merge_bin_count,
    merge_q0,
    merge_z_window,
    width_range_check,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_kolmogorov_bounds_frozen_values():
    lo, hi = kolmogorov_bounds(16, 4)
    assert lo == pytest.approx(0.060943894953987, abs=1e-12)
    assert hi == pytest.approx(1.665109222315396, abs=1e-12)
    assert kolmogorov_bounds(16, 1)[0] == pytest.approx(0.385394617761870, abs=1e-12)
    assert kolmogorov_bounds(8, 1)[0] == pytest.approx(0.314585098788908, abs=1e-12)
    assert kolmogorov_bounds(2, 1)[0] == pytest.approx(0.172966060842986, abs=1e-12)
    with pytest.raises(ValueError):
        kolmogorov_bounds(4, 0)
    with pytest.raises(ValueError):
        kolmogorov_bounds(4, 5)


def test_width_result_validation():
    # the range is a reported check, not a constructor raise; the all-halves
    # witness caps every fit at 1/2, below the upper bound here
    for value in (0.01, 0.6):
        fit = WidthResult(n=4, d=1, value=value, lower=0.2, upper=1.0)
        assert width_range_check([fit]).margin < 0.0


def test_identity_fit_two_by_one_is_half():
    res = rank_constrained_identity_fit(2, 1)
    assert res.value == pytest.approx(0.5, abs=1e-6)
    assert res.lower <= res.value


def test_identity_fit_refuses_n_above_its_cap():
    with pytest.raises(EntspecError, match=f"identity fit N = {IDENTITY_FIT_DIM_CAP + 1} > "):
        rank_constrained_identity_fit(IDENTITY_FIT_DIM_CAP + 1, 1)


def test_identity_fit_full_rank_is_zero():
    res = rank_constrained_identity_fit(5, 5)
    assert res.value == 0.0


def test_all_halves_witness_is_exactly_half():
    """The constant rank-1 witness leaves every entry of I - AB at +-1/2."""
    for n in (2, 3, 8, 16):
        a = np.ones((n, 1))
        b = np.full((1, n), 0.5)
        assert _max_abs(np.eye(n) - a @ b) == 0.5
        res = rank_constrained_identity_fit(n, 1, seeds=8)
        assert res.value <= 0.5 + 1e-12


@given(st.integers(2, 12), st.data())
@settings(max_examples=15, deadline=None)
def test_identity_fit_stays_in_proved_window(n, data):
    d = data.draw(st.integers(1, n - 1))
    res = rank_constrained_identity_fit(n, d, seeds=4, polish_iters=60)
    assert width_range_check([res]).ok


def test_no_go_lower_bound_values():
    assert no_go_lower_bound(0.2) == pytest.approx(1.3 - math.exp(0.2), abs=1e-12)
    assert no_go_lower_bound(0.3) == pytest.approx(0.100141192254892, abs=1e-9)
    # window closes for large t
    assert no_go_lower_bound(2.0) < 0.0


def test_no_go_experiment_structure():
    [out] = no_go_experiment(16, 1, [0.3], seeds=4, polish_iters=100)
    assert out["measured"] >= out["no_go_lb"] - 1e-9
    assert out["measured"] <= out["bisector_witness"] + 1e-9
    assert out["bisector_witness"] == pytest.approx(math.sin(0.15), abs=1e-12)
    assert out["chain_ok"]


def test_simplex_moment_exact_values():
    assert simplex_moment((1, 0)) == Fraction(1, 3)
    assert simplex_moment((0, 1)) == Fraction(1, 6)
    assert simplex_moment((2,)) == Fraction(1, 3)
    assert simplex_moment((0,)) == Fraction(1, 1)
    assert simplex_moment(()) == Fraction(1, 1)


def test_simplex_moment_matches_cubature():
    """Gauss-Legendre cubature over the ordered simplex 1 >= x_1 >= ... >= x_s.

    With x_1 = u_1 and x_j = x_(j-1) u_j on the unit cube, the Jacobian is
    prod_j u_j^(s-j) and the integrand is a polynomial of degree at most
    sum(q) + s - 1 <= 11 in each u_j, which 8 nodes per axis integrate exactly.
    """
    nodes, weights = np.polynomial.legendre.leggauss(8)
    nodes, weights = (nodes + 1.0) / 2.0, weights / 2.0
    cases = [
        qs
        for s in range(1, 5)
        for qs in itertools.product(range(5), repeat=s)
        if sum(qs) <= 8
    ]
    for qs in cases:
        s = len(qs)
        u = np.meshgrid(*[nodes] * s, indexing="ij")
        w = np.prod(np.meshgrid(*[weights] * s, indexing="ij"), axis=0)
        x = np.cumprod(u, axis=0)
        f = np.prod([x[j] ** qs[j] * u[j] ** (s - 1 - j) for j in range(s)], axis=0)
        exact = float(simplex_moment(qs))
        assert abs(float(np.sum(w * f)) - exact) <= 1e-12 * exact, qs


def test_merge_error_bound_values():
    assert merge_error_bound(4, 4, 4) == pytest.approx(0.119918774687711, abs=1e-12)
    assert merge_error_bound(2, 2, 2) == pytest.approx(0.479675098750845, abs=1e-12)
    # monotone nonincreasing in every order
    for s0 in (2, 3):
        for m in (2, 3):
            for q in (2, 3):
                assert merge_error_bound(s0 + 1, m, q) <= merge_error_bound(s0, m, q)
                assert merge_error_bound(s0, m + 1, q) <= merge_error_bound(s0, m, q)
                assert merge_error_bound(s0, m, q + 1) <= merge_error_bound(s0, m, q)


def _tiny_merge(z=0.1j, s0=3, m_order=3, q_order=3):
    h0_a = np.diag([0.0, 1.0]).astype(complex)
    h0_b = np.diag([0.0, 0.7]).astype(complex)
    v_terms = [0.5 * np.kron(X, X)]
    return build_merge_series(
        h0_a, h0_b, v_terms, z, s0, m_order, q_order,
        kappa=1.0, d0=2, c0=1.0, q_param=2.0,
    )


def test_merge_series_error_within_budget():
    ms = _tiny_merge()
    assert ms.error_measured <= ms.error_bound + 1e-12
    assert ms.q0 == pytest.approx(8.0, abs=1e-12)
    assert ms.n_bins >= 1
    assert ms.g_tilde == pytest.approx(0.5, abs=1e-12)


def test_merge_series_reports_each_bin_against_its_cap():
    ms = _tiny_merge()
    # one term of norm 1/2 in bin 0, whose cap is c0 g_tilde = 1/2 with 1e-9 slack
    assert ms.bin_caps[0] == pytest.approx((0.5, 0.5 * (1 + 1e-9)), abs=1e-15)
    assert ms.bins_check.ok
    h0 = np.diag([0.0, 1.0]).astype(complex)
    # at c0 1/2 the same bin is twice its cap; the series is still built
    low = build_merge_series(h0, h0, [0.5 * np.kron(X, X)], 0.1j, 2, 2, 2,
                             kappa=1.0, d0=2, c0=0.5, q_param=2.0)
    assert low.bins_check.margin == pytest.approx(0.25 * (1 + 1e-9) - 0.5, abs=1e-15)
    assert low.error_check.ok


def test_merge_series_zero_coupling_is_exact_identity():
    h0_a = np.diag([0.0, 1.0]).astype(complex)
    h0_b = np.diag([0.0, 0.7]).astype(complex)
    ms = build_merge_series(
        h0_a, h0_b, [np.zeros((4, 4))], 0.1j, 2, 2, 2,
        kappa=1.0, d0=2, c0=1.0, q_param=2.0,
    )
    assert np.allclose(ms.exact, np.eye(4), atol=1e-12)
    assert ms.error_measured <= 1e-12


def test_merge_series_window_enforced():
    with pytest.raises(EntspecError, match="z outside the merge window"):
        _tiny_merge(z=0.2)
    with pytest.raises(EntspecError, match="merge total dim 4096 > "):
        build_merge_series(
            np.eye(64), np.eye(64), [np.zeros((4096, 4096))], 0.01,
            2, 2, 2, kappa=1.0, d0=2, c0=1.0, q_param=2.0,
        )


@pytest.mark.parametrize("q_param, c0, g_tilde", [
    (2.0, 1.0, 0.0),  # c0 g_tilde = 0: the window is 1/(4 q_param)
    (2.0, 1.0, 0.5),
    (0.3, 1.7, 2.9),  # the coupling term sets the window
    (1.1, 0.7, 0.13),
])
def test_merge_z_window_edge_is_the_min_of_reciprocals(q_param, c0, g_tilde):
    # the window as a min of reciprocals, the second left out at c0 g_tilde = 0
    zcap = 1.0 / (4.0 * q_param)
    if c0 * g_tilde > 0:
        zcap = min(zcap, 1.0 / (4.0 * math.e * c0 * g_tilde))
    assert 1.0 / merge_q0(q_param, c0, g_tilde) == zcap
    edge = zcap + 1e-12
    accepted = []
    for z_abs in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
        try:
            merge_z_window(complex(0.0, z_abs), merge_q0(q_param, c0, g_tilde))
            accepted.append(True)
        except EntspecError:
            accepted.append(False)
    assert accepted == [True, True, False]


def test_merge_q0_reciprocal_is_the_min_of_reciprocals_bit_for_bit(rng):
    for q_param, c0, g_tilde in rng.uniform(1e-3, 1e3, size=(2000, 3)):
        assert 1.0 / merge_q0(q_param, c0, g_tilde) == min(
            1.0 / (4.0 * q_param), 1.0 / (4.0 * math.e * c0 * g_tilde))


def _bins_by_walking(n_terms, kappa):
    """The bin count by walking the edges 4^(m/kappa) up past n_terms."""
    m = 0
    while 4.0 ** (m / kappa) <= n_terms:
        m += 1
    return m


def test_merge_bin_count_is_the_first_edge_past_the_terms():
    for n_terms in range(1, 41):
        for kappa in (0.3, 0.5, 1.0, 1.7, 3.0, 10.0):
            assert merge_bin_count(n_terms, kappa, 4) == _bins_by_walking(n_terms, kappa)
    # the merge-series defaults: two couplings in one bin
    assert merge_bin_count(2, 1.0, 16) == 1


@pytest.mark.parametrize("n_terms, kappa, dim", [
    (2, 1e6, 16),  # 500,001 bins of 16 x 16, about 2 GB
    (2, 1e300, 16),  # every edge rounds to 1: no bin ever starts past 2
    (2, 0.001, 16),  # bin 0 ends at 4^1000, past float range
    (40, 1.0, 1024),  # 41 matrices of 16 MiB
])
def test_merge_bin_count_refuses_bins_past_its_memory_cap(n_terms, kappa, dim):
    with pytest.raises(EntspecError, match="bytes > |past float range"):
        merge_bin_count(n_terms, kappa, dim)


def test_merge_series_random_instances_stay_bounded(rng):
    """20 random diagonal-block instances with scaled couplings."""
    for _ in range(20):
        da = int(rng.integers(2, 4))
        db = int(rng.integers(2, 4))
        h0_a = np.diag(rng.uniform(0.0, 1.0, da)).astype(complex)
        h0_b = np.diag(rng.uniform(0.0, 1.0, db)).astype(complex)
        m = rng.standard_normal((da * db, da * db))
        m = (m + m.T) / 2
        m *= 0.4 / np.linalg.norm(m, 2)
        s0, mo, qo = (int(rng.integers(2, 5)) for _ in range(3))
        ms = build_merge_series(
            h0_a, h0_b, [m], 0.05j, s0, mo, qo,
            kappa=1.0, d0=2, c0=1.0, q_param=2.0,
        )
        assert ms.error_measured <= ms.error_bound + 1e-12


def test_truncation_params():
    p = truncation_error_params(1.0, 2.0, 1.0, 0.5, 1.0, 2, eps0=1.0)
    assert p["q0"] == pytest.approx(max(8.0, 4.0 * math.e * 0.5), abs=1e-12)
    assert p["segments"] == math.ceil(p["q0"])
    base = 6.0 + 4.0 / 1.0 + math.log2(2)
    assert p["log2_sr_real"] == pytest.approx(
        base * p["segments"] * math.log2(8.0 * p["segments"]), abs=1e-9
    )
    assert p["log2_sr_imag"] == pytest.approx(
        2.0 * base * p["segments"] * math.log2(48.0 * p["segments"]), abs=1e-9
    )
    zero = truncation_error_params(0.0, 2.0, 1.0, 0.5, 1.0, 2)
    assert zero["segments"] == 0
    assert zero["log2_sr_real"] == 0.0 and zero["log2_sr_imag"] == 0.0


def test_long_range_decomposition_check():
    chain = build_long_range_ising(8, d=2, j0=1.0, eta=3.0, hx=0.4, hz=0.2)
    out = long_range_decomposition_check(chain, 4)
    # one (tail, cap) pair per crossing term; the first tail is every norm
    assert len(out.tails) == len(out.v_norms)
    assert out.tails[0][0] == pytest.approx(sum(out.v_norms), abs=1e-12)
    assert out.kappa == pytest.approx((3.0 - 2.0) / (2.0 + 1.0), abs=1e-12)
    assert out.tails_check.ok
    # canonical ordering: diameters nondecreasing
    chains = build_long_range_ising(8, d=2, j0=1.0, eta=3.0)
    crossing = [
        t for t in chains.terms if t.support[0] < 4 <= t.support[-1]
    ]
    crossing.sort(key=lambda t: (t.diameter, -t.norm, t.support))
    diam = [t.diameter for t in crossing]
    assert diam == sorted(diam)
    with pytest.raises(ValueError):
        from entspec import build_nearest_neighbor_chain

        long_range_decomposition_check(
            build_nearest_neighbor_chain(6, d=2, j=1.0), 3
        )


@pytest.mark.parametrize("cut", [1, 5, 11])
def test_decomposition_of_the_crossing_pairs_is_that_of_the_whole_chain(cut):
    # the decomposition reads only the pairs across the cut, so a chain of
    # those pairs alone gives the same norms and constants, bit for bit
    whole = long_range_decomposition_check(build_long_range_ising(12, d=2, j0=1.0, eta=3.5), cut)
    part = long_range_decomposition_check(
        build_long_range_ising(12, d=2, j0=1.0, eta=3.5, cut=cut), cut)
    assert len(part.v_norms) == cut * (12 - cut)
    assert np.array(part.v_norms).tobytes() == np.array(whole.v_norms).tobytes()
    assert repr((part.kappa, part.c0, part.g_tilde, part.d0, part.tails)) == repr(
        (whole.kappa, whole.c0, whole.g_tilde, whole.d0, whole.tails))


@pytest.mark.parametrize("cut", [-1, 0, 12])
def test_crossing_pairs_need_a_cut_inside_the_chain(cut):
    with pytest.raises(ValueError, match="not in 1..n-1"):
        build_long_range_ising(12, d=2, j0=1.0, eta=3.5, cut=cut)
