"""Spectral filters, ground-state tails, and the boundary area-law chain."""

import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from entspec import (
    EntspecError,
    agsp_arealaw,
    area_law_constants,
    boundary_adiabatic_experiment,
    build_agsp,
    build_long_range_ising,
    build_nearest_neighbor_chain,
    dynamics,
    ground_tail_experiment,
    random_gapped_instance,
    se_lower_search,
)
from entspec.agsp_arealaw import (
    _filter_values,
    _legendre,
    agsp_checks,
    c_kappa_1,
    c_kappa_2,
)
from entspec.se_strength import (
    BipartiteOperator,
    _opnorm,
    best_upper,
    se_upper_from_decomposition,
)

from helpers import random_hermitian


def test_agsp_two_level_defects():
    """On diag(0, 1) the filtered ground weight is the erf of the window
    half-width in Gaussian units."""
    h = np.diag([0.0, 1.0]).astype(complex)
    beta = 4.0
    k = build_agsp(h, beta)
    from scipy.special import erf

    assert k.delta == pytest.approx(1.0, abs=1e-12)
    assert k.defect_ground == pytest.approx(1.0 - erf(2.0), abs=1e-9)
    assert k.defect_ground == pytest.approx(0.004677734981047266, abs=1e-9)
    assert all(c.ok for c in agsp_checks([k]).values())
    # the stop value is the exact spectral norm of the last change in K
    _, u = np.linalg.eigh(h)
    f_last, f_prev = (
        _filter_values(k.eigvals, beta, 2.0 * beta * k.delta, nodes)
        for nodes in (k.nodes_used, k.nodes_used // 2)
    )
    k_change = u @ np.diag(f_last - f_prev) @ u.conj().T
    assert abs(k.quad_diff - np.linalg.norm(k_change, 2)) <= 1e-14
    assert k.strength_cap(0.5) == pytest.approx(math.exp(2.0 * beta * 0.5), rel=1e-12)


def test_agsp_filter_matches_direct_quadrature(rng):
    """Cosine-window values against an independent adaptive integration."""
    h = random_hermitian(rng, 5)
    beta = 2.0
    k = build_agsp(h, beta)
    for lam, got in zip(k.eigvals[:3], k.filter_vals[:3]):
        ref, _ = quad(
            lambda t: math.cos(lam * t) * math.exp(-(t ** 2) / (4.0 * beta)),
            -2.0 * beta * k.delta,
            2.0 * beta * k.delta,
            epsabs=1e-13,
        )
        ref /= math.sqrt(4.0 * math.pi * beta)
        assert got == pytest.approx(ref, abs=1e-9)


def test_legendre_nodes_are_computed_once_and_read_only():
    from scipy.special import roots_legendre

    x, w = _legendre(128)
    assert _legendre(128)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    want_x, want_w = roots_legendre(128)
    assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes()


def test_agsp_rejects_degenerate_ground():
    with pytest.raises(EntspecError, match="spectral gap 0.0 below 1e-9"):
        build_agsp(np.diag([0.0, 0.0, 1.0]).astype(complex), 2.0)


def test_agsp_rejects_non_hermitian_matrix():
    with pytest.raises(ValueError, match="not Hermitian"):
        build_agsp(np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex), 2.0)


def test_agsp_defect_shrinks_with_beta(rng):
    h = random_hermitian(rng, 6)
    defects = [build_agsp(h, b).defect_ground for b in (0.5, 2.0, 8.0)]
    assert defects[0] > defects[1] > defects[2]


def test_random_gapped_instances_protect_gap(rng):
    for _ in range(10):
        h, v, (da, db) = random_gapped_instance(rng)
        w = np.linalg.eigvalsh(h)
        assert w[1] - w[0] >= 0.3
        assert best_upper(v) <= 0.6 + 1e-9


def test_agsp_strength_inequality_on_random_instances(rng):
    """Filtered-propagator cut strength never beats exp(2 beta gap J)."""
    beta = 1.5
    for _ in range(5):
        h, v, (da, db) = random_gapped_instance(rng)
        k = build_agsp(h, beta)
        op = BipartiteOperator((da,), (db,), k.matrix)
        est = se_lower_search(op, seeds=3, iterations=60)
        cap = k.strength_cap(best_upper(v))
        assert est.lower <= cap + 1e-8


def test_ground_tail_experiment_reports_decay():
    chain = build_long_range_ising(6, d=2, j0=1.0, eta=3.0, hx=0.6, hz=0.2)
    out = ground_tail_experiment(chain, 3, [1, 2, 4, 8])
    assert out["gap"] > 0
    assert out["j_tilde"] == pytest.approx(3.0, abs=1e-12)
    assert out["checks"]["tails_below_cap"].ok
    tails = [r["tail2"] for r in out["rows"]]
    assert all(a >= b - 1e-15 for a, b in zip(tails, tails[1:]))


def test_ground_tail_sparse_path_is_deterministic():
    # n = 12 is past the dense cutoff, so the ground state comes from eigsh
    chain = build_long_range_ising(12, d=2, j0=1.0, eta=3.0, hx=0.6, hz=0.2)
    first = ground_tail_experiment(chain, 6, [1, 2, 4, 8, 16])
    second = ground_tail_experiment(chain, 6, [1, 2, 4, 8, 16])
    assert first["rows"] == second["rows"]
    assert first["gap"] == second["gap"]


def test_area_law_constant_values():
    # hand-evaluated at kappa = 1/6
    assert c_kappa_1(1.0 / 6.0) == pytest.approx(35.0839326111784, abs=1e-6)
    assert c_kappa_2(1.0 / 6.0) == pytest.approx(103.148179153628, abs=1e-6)
    consts = area_law_constants(g_tilde=1.0, delta=1.0, s0=2.0, c0_tilde=1.0)
    assert consts.kappa == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert consts.entropy_bound == pytest.approx(
        consts.ck1 * consts.log_c + consts.ck2, abs=1e-12
    )
    # log-space tail cap agrees with the direct expression when it fits
    small = area_law_constants(g_tilde=0.2, delta=2.0, s0=1.0, c0_tilde=0.1)
    d = 64
    assert small.tail_cap(d) == pytest.approx(
        math.exp(small.log_c) * d ** (-small.kappa), rel=1e-9
    )


def test_area_law_constants_survive_huge_exponents():
    consts = area_law_constants(g_tilde=50.0, delta=0.1, s0=8.0, c0_tilde=3.0)
    # C = exp(log_c) itself overflows a float
    assert consts.log_c > math.log(sys.float_info.max)
    assert consts.tail_cap(2) == math.inf
    assert math.isfinite(consts.entropy_bound)


def test_boundary_adiabatic_chain_holds_together():
    out = boundary_adiabatic_experiment(1.0, 0.3, epsilon=0.1, beta=3.0, d_grid=[1, 2])
    assert all(c.ok for c in out["checks"].values())
    assert out["agsp_defect_ground"] <= out["agsp_defect_bound"] + 1e-9
    # full rank reproduces the target state up to discretization error
    assert out["rows"][-1]["err"] < 1e-3


def test_boundary_adiabatic_rejects_closed_gap():
    with pytest.raises(EntspecError, match="minimum path gap 1e-09 < "):
        boundary_adiabatic_experiment(1e-9, 0.0, epsilon=0.1, beta=2.0, d_grid=[1])


X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class _Captured(Exception):
    pass


@pytest.mark.parametrize("coupling", [0.3, -0.3, 0.0])
def test_boundary_family_repeats_the_closure_ramp_bytes(monkeypatch, coupling):
    """The H(nu) handed to the adiabatic ramp equals, byte for byte, the
    per-call formula h_a (x) 1 + 1 (x) h_b + nu * coupling * X (x) X, on the
    gap grid and the first refinement's midpoints."""
    captured = []

    def capture(h, epsilon):
        captured.append(h)
        raise _Captured

    monkeypatch.setattr(agsp_arealaw, "adiabatic_evolve", capture)
    with pytest.raises(_Captured):
        boundary_adiabatic_experiment(1.0, coupling, epsilon=0.1, beta=3.0, d_grid=[1])
    (h,) = captured
    h_loc = np.diag([0.0, 1.0]).astype(complex)
    h0 = np.kron(h_loc, np.eye(2)) + np.kron(np.eye(2), h_loc)
    nus = list(np.linspace(0.0, 1.0, dynamics.GAP_GRID)) + [(i + 0.5) / 256 for i in range(256)]
    for nu in nus:
        assert h(nu).tobytes() == (h0 + nu * coupling * np.kron(X, X)).tobytes()


@pytest.mark.parametrize("coupling", [0.3, -0.3, 0.7, 1e-3, -2.5])
def test_boundary_strength_is_the_old_nu_scan(monkeypatch, coupling):
    """g_tilde = |coupling|, X (x) X being one unit-norm product term,
    equals, bit for bit, the 65-point scan over nu that it replaced."""
    scan = 0.0
    for nu in np.linspace(0.0, 1.0, 65):
        # V(nu) = s X (x) X with its one-term decomposition, none at s = 0
        s = nu * coupling
        scan = max(scan, se_upper_from_decomposition(
            BipartiteOperator.from_terms((2,), (2,), ((s, X, X),))) if s != 0
            else _opnorm(s * np.kron(X, X)))
    monkeypatch.setattr(dynamics, "MAX_STEPS", 512)
    out = boundary_adiabatic_experiment(1.0, coupling, epsilon=0.5, beta=2.0, d_grid=[1])
    assert out["g_tilde"] == scan


def test_boundary_adiabatic_operator_count_is_independent_of_steps(monkeypatch):
    """The ramp builds no coupling operator per adiabatic step: X (x) X is
    one matrix, built once."""
    built = []
    validate = BipartiteOperator.__post_init__

    def counting(self):
        built.append(1)
        validate(self)

    monkeypatch.setattr(BipartiteOperator, "__post_init__", counting)
    counts, steps = [], []
    for max_steps in (dynamics.MAX_STEPS, 512):
        monkeypatch.setattr(dynamics, "MAX_STEPS", max_steps)
        built.clear()
        out = boundary_adiabatic_experiment(1.0, 0.3, epsilon=0.1, beta=3.0, d_grid=[1, 2])
        counts.append(len(built))
        steps.append(out["steps"])
    assert steps[0] != steps[1]
    assert counts == [0, 0]
