"""Certified truncated time stepping and the related existence checks."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from entspec import (
    ChainHamiltonian,
    EntspecError,
    LocalTerm,
    TdmrgConfig,
    basis_product_state,
    build_long_range_ising,
    build_nearest_neighbor_chain,
    certificate_theory_bound,
    default_step_count,
    gibbs_tail_experiment,
    naive_error_bound,
    normalized_final_error_bound,
    product_mps,
    state_mps_existence_check,
    tdmrg_run,
    to_dense,
)
from entspec import mps, tdmrg
from entspec.lowrank import long_range_constants, merge_q0, rank_exponent_base
from entspec.tdmrg import certificate_checks


def _plus_mps(n):
    v = np.array([1.0, 1.0]) / math.sqrt(2.0)
    return product_mps(n, d=2, local_vectors=[v] * n)


def test_default_step_count():
    assert default_step_count(0.0, 4, 1.0) == 1
    assert default_step_count(1.0, 4, 0.5) == math.ceil(2.0 * (2.0 / 0.1))
    assert default_step_count(1.0, 4, 0.5, eps_target=1.0) == math.ceil(2.0 * 2.0)


@pytest.mark.parametrize("eps_target", [0.0, -0.1, math.nan])
def test_default_step_count_needs_a_positive_eps_target(eps_target):
    # 0 divided by zero, and a NaN gave g*n*t steps, as max(1.0, nan) is 1.0
    with pytest.raises(ValueError, match="eps_target = .*, not > 0"):
        default_step_count(1.0, 4, 1.0, eps_target)


@pytest.mark.parametrize("g, eps_target", [
    (math.inf, 0.1), (math.nan, 0.1), (1e308, 0.1), (1.0, 1e-320)])
def test_default_step_count_past_float_range(g, eps_target):
    with pytest.raises(EntspecError, match=r"no finite step count for g\*n\*t = .* at eps_target = "):
        default_step_count(g, 4, 1.0, eps_target)


def test_config_validation():
    chain = build_nearest_neighbor_chain(4, d=2, j=1.0, hx=0.3)
    good = TdmrgConfig(chain=chain, t=0.5, n_steps=64, d_cap=8, initial=_plus_mps(4))
    assert good.dt == pytest.approx(0.5 / 64)
    with pytest.raises(EntspecError, match=r"step too coarse: g\*n\*dt = .* > 1; increase n_steps"):
        TdmrgConfig(chain=chain, t=0.5, n_steps=1, d_cap=8, initial=_plus_mps(4))
    with pytest.raises(ValueError):
        TdmrgConfig(chain=chain, t=0.5, n_steps=0, d_cap=8, initial=_plus_mps(4))
    with pytest.raises(ValueError, match="d_cap must be >= 1"):
        TdmrgConfig(chain=chain, t=0.5, n_steps=64, d_cap=0, initial=_plus_mps(4))
    with pytest.raises(ValueError):
        TdmrgConfig(chain=chain, t=0.5, n_steps=64, d_cap=8, initial=_plus_mps(5))
    bad = product_mps(4, d=2, local_vectors=[np.array([1.0, 1.0])] * 4)
    with pytest.raises(ValueError):
        TdmrgConfig(chain=chain, t=0.5, n_steps=64, d_cap=8, initial=bad)


def test_run_certificate_against_dense_reference():
    """The certified bound dominates the true error of the truncated run."""
    chain = build_nearest_neighbor_chain(4, d=2, j=1.0, hx=0.4, hz=0.2)
    t = 0.4
    n_steps = default_step_count(chain.g, 4, t, eps_target=1.0)
    cfg = TdmrgConfig(chain=chain, t=t, n_steps=n_steps, d_cap=2, initial=_plus_mps(4))
    out, cert = tdmrg_run(cfg)
    psi0 = to_dense(cfg.initial).amps
    exact = expm(-1j * chain.dense() * t) @ psi0
    err = float(np.linalg.norm(to_dense(out).amps - exact))
    assert all(c.ok for c in certificate_checks(cert, err).values())
    gnt = chain.g * 4 * t
    want = gnt ** 2 / n_steps + math.sqrt(8.0) * sum(s.delta_bar for s in cert.steps)
    assert cert.final_bound == pytest.approx(want, rel=1e-12)
    assert all(s.delta_bar <= s.delta_cap + 1e-9 for s in cert.steps)


def test_run_is_deterministic():
    chain = build_nearest_neighbor_chain(4, d=2, j=0.8, hx=0.3)
    cfg = TdmrgConfig(chain=chain, t=0.3, n_steps=32, d_cap=2, initial=_plus_mps(4))
    out1, cert1 = tdmrg_run(cfg)
    out2, cert2 = tdmrg_run(cfg)
    assert np.array_equal(to_dense(out1).amps, to_dense(out2).amps)
    assert cert1.final_bound == cert2.final_bound


def test_run_with_no_terms_is_identity():
    chain = ChainHamiltonian(n=3, d=2, terms=())
    cfg = TdmrgConfig(chain=chain, t=1.0, n_steps=4, d_cap=2, initial=_plus_mps(3))
    out, cert = tdmrg_run(cfg)
    assert cert.final_bound == 0.0
    assert np.allclose(to_dense(out).amps, to_dense(cfg.initial).amps)


def test_run_rejects_three_site_terms():
    # a chain holds one- and two-site terms only, so none reaches a run
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="more than two sites"):
        LocalTerm(support=(0, 1, 2), matrix=0.1 * np.kron(np.kron(x, x), x))


def test_staged_compression_cap(monkeypatch):
    """A tiny memory cap forces the intermediate-size guard to fire."""
    chain = build_long_range_ising(6, d=2, j0=1.0, eta=3.0, hx=0.4)
    n_steps = default_step_count(chain.g, 6, 0.2, eps_target=1.0)
    cfg = TdmrgConfig(
        chain=chain, t=0.2, n_steps=n_steps, d_cap=4, initial=_plus_mps(6)
    )
    with monkeypatch.context() as m:
        m.setattr(tdmrg, "STAGE_CAP_FACTOR", 1000)
        m.setattr(tdmrg, "BOND_MEMORY_CAP", 6)
        with pytest.raises(EntspecError, match="predicted bond .* > memory cap 6 at step "):
            tdmrg_run(cfg)
    # staged path: a small factor keeps intermediates tight and still sound
    monkeypatch.setattr(tdmrg, "STAGE_CAP_FACTOR", 2)
    out, cert = tdmrg_run(cfg)
    psi0 = to_dense(cfg.initial).amps
    exact = expm(-1j * chain.dense() * 0.2) @ psi0
    err = float(np.linalg.norm(to_dense(out).amps - exact))
    assert err <= cert.final_bound + 1e-12


def test_run_compresses_without_building_the_sum(monkeypatch):
    """The step compresses its direct sum block by block and never calls add.
    Its pieces stay site tensors: the only states built are the outputs of
    the compressions."""

    def refuse(*args, **kwargs):
        raise AssertionError("mps.add called")

    monkeypatch.setattr(mps, "add", refuse)
    monkeypatch.setattr(tdmrg, "add", refuse, raising=False)  # a name imported from mps
    chain = build_long_range_ising(6, d=2, j0=1.0, eta=3.0, hx=0.4)
    n_steps = default_step_count(chain.g, 6, 0.2, eps_target=1.0)
    cfg = TdmrgConfig(chain=chain, t=0.2, n_steps=n_steps, d_cap=2, initial=_plus_mps(6))
    counts = {"states": 0, "compressions": 0}
    post_init, compress_blocks = mps.MatrixProductState.__post_init__, tdmrg._compress_blocks

    def counted_post_init(self):
        counts["states"] += 1
        post_init(self)

    def counted_compress(*args):
        counts["compressions"] += 1
        return compress_blocks(*args)

    monkeypatch.setattr(mps.MatrixProductState, "__post_init__", counted_post_init)
    monkeypatch.setattr(tdmrg, "_compress_blocks", counted_compress)
    out, cert = tdmrg_run(cfg)
    assert counts["compressions"] >= n_steps
    assert counts["states"] <= counts["compressions"] + 1
    assert sum(s.delta_bar for s in cert.steps) > 0.0
    exact = expm(-1j * chain.dense() * 0.2) @ to_dense(cfg.initial).amps
    err = float(np.linalg.norm(to_dense(out).amps - exact))
    assert err <= cert.final_bound + 1e-12


def test_run_certificate_on_a_qutrit_long_range_chain():
    """At d = 3 each pair term splits into two factor pairs, and most pair
    supports are not adjacent, so pieces grow bonds through middle sites;
    with a cap that truncates, every certificate check holds against the
    dense reference."""
    n, t = 5, 0.3
    chain = build_long_range_ising(n, d=3, j0=1.0, eta=3.0, hx=0.4, hz=0.2)
    pairs = [term for term in chain.terms if len(term.support) == 2]
    assert all(len(mps._term_factors(term, n, 3)) == 2 for term in pairs)
    assert any(term.support[1] - term.support[0] > 1 for term in pairs)
    v = np.ones(3) / math.sqrt(3.0)
    initial = product_mps(n, d=3, local_vectors=[v] * n)
    n_steps = default_step_count(chain.g, n, t, eps_target=1.0)
    cfg = TdmrgConfig(chain=chain, t=t, n_steps=n_steps, d_cap=4, initial=initial)
    out, cert = tdmrg_run(cfg)
    assert out.max_bond == 4
    assert sum(s.delta_bar for s in cert.steps) > 0.0
    exact = expm(-1j * chain.dense() * t) @ to_dense(initial).amps
    err = float(np.linalg.norm(to_dense(out).amps - exact))
    checks = certificate_checks(cert, err)
    assert "certificate_covers_error" in checks
    assert all(c.ok for c in checks.values())


def test_theory_bound_value():
    got = certificate_theory_bound(1.0, 8, 0.5, 32, 2048, 3.0)
    assert got == pytest.approx(21.399406696486692, rel=1e-12)
    assert certificate_theory_bound(1.0, 8, 0.0, 32, 2048, 3.0) == 0.0
    with pytest.raises(EntspecError, match=r"step too coarse: g\*n\*dt = 8.0 > 1"):
        certificate_theory_bound(1.0, 8, 2.0, 2, 64, 3.0)


def test_normalized_bound():
    assert normalized_final_error_bound(0.1) == pytest.approx(19.0 / 90.0, abs=1e-15)
    assert normalized_final_error_bound(0.5) == pytest.approx(1.5, abs=1e-15)
    # a raw bound of 1 or more says nothing about the normalized state
    assert normalized_final_error_bound(1.0) == math.inf
    assert normalized_final_error_bound(2.0) == math.inf


def test_naive_bound_dwarfs_certificate():
    naive = naive_error_bound(1.0, 8, 0.5, 125, 128, 3.0)
    cert = certificate_theory_bound(1.0, 8, 0.5, 125, 128, 3.0)
    assert naive > 1e50 * cert
    assert naive_error_bound(1.0, 8, 0.5, 10 ** 6, 128, 3.0) == math.inf


def test_existence_check_laws():
    chain = build_long_range_ising(6, d=2, j0=1.0, eta=3.0, hx=0.4, hz=0.2)
    init = basis_product_state((2,) * 6, (0,) * 6)
    out = state_mps_existence_check(chain, init, 0.3, [2, 8, 32])
    assert out["checks"]["coefficient_law"].margin > 0.0
    assert out["checks"]["truncation_errors_bounded"].ok
    errs = [r["err2"] for r in out["rows"]]
    assert errs[0] >= errs[1] >= errs[2] - 1e-18


@pytest.mark.parametrize("eta", [2.5, 3.0, 4.0])
@pytest.mark.parametrize("d", [2, 3])
def test_gibbs_constants_are_the_lowrank_ones(eta, d):
    chain = build_long_range_ising(2, d=d, j0=1.0, eta=eta, hx=0.5)
    out = gibbs_tail_experiment(chain, betas=[1.5], d_grid=[1])
    kappa, c0, g_tilde, d0 = long_range_constants(chain)
    q0 = merge_q0(2.0 * chain.g * chain.k, c0, g_tilde)
    m_beta = math.ceil(1.5 * q0 / 4.0 - 1e-12)
    assert out["q0"] == q0
    assert {r["kappa_beta"] for r in out["rows"]} == {4.0 * rank_exponent_base(kappa, d0) * m_beta}
    # the constants written out in eta, k and d
    k = chain.k
    assert q0 == pytest.approx(max(8.0 * chain.g * k, 16.0 * math.e * (eta - 1.0) ** 2
                                   * 2.0 ** (eta - 2.0) / (eta - 2.0)), rel=1e-14)
    assert rank_exponent_base(kappa, d0) == pytest.approx(
        6.0 + 4.0 * (k + 1.0) / (eta - 2.0) + 2.0 * k * math.log2(d), rel=1e-14)


def test_gibbs_tails_shrink_with_rank():
    chain = build_long_range_ising(4, d=2, j0=1.0, eta=3.0, hx=0.5)
    out = gibbs_tail_experiment(chain, betas=[0.0, 1.0, 2.0], d_grid=[1, 2, 4])
    rows = out["rows"]
    assert out["q0"] > 0
    assert out["checks"]["tails_below_cap"].ok
    # beta = 0 purification is an exact product across pair blocks
    for r in rows:
        if r["beta"] == 0.0:
            assert r["cap"] is None
            assert r["tail2"] < 1e-20
    # fixed cut: tails shrink with D
    def tail(beta, cut, dd):
        return next(
            r["tail2"] for r in rows
            if r["beta"] == beta and r["cut"] == cut and r["D"] == dd
        )

    assert tail(1.0, 2, 1) >= tail(1.0, 2, 2) >= tail(1.0, 2, 4)


def test_gibbs_experiment_validation():
    # 2**13 rows pass the dense-matrix limit
    big = build_long_range_ising(13, d=2, j0=1.0, eta=3.0)
    with pytest.raises(EntspecError, match="dense chain total dim 8192 > cap"):
        gibbs_tail_experiment(big, [0.5], [2])
    near = build_nearest_neighbor_chain(4, d=2, j=1.0)
    with pytest.raises(ValueError):
        gibbs_tail_experiment(near, [0.5], [2])
