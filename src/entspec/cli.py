"""Command-line front end: named experiments driven by a JSON config, with
CSV/JSON artifacts and strict exit codes.

Exit codes: 0 success, 1 a numeric check failed, 2 the config was rejected.
"""

import argparse
import dataclasses
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .agsp_arealaw import (
    SPARSE_DIM_CAP,
    agsp_checks,
    boundary_adiabatic_experiment,
    build_agsp,
    ground_tail_experiment,
    random_gapped_instance,
)
from .dynamics import (
    GROWTH_ITERATIONS,
    c_alpha_table,
    check_unitary_se_growth,
    evolve_dense,
    measure_rate_profile,
    rate_bound_check,
    toy_rate_experiment,
    unbounded_experiment,
    unitary_growth_check,
)
from .errors import EntspecError
from .ioutil import config_hash, write_csv, write_json
from .lowrank import (
    IDENTITY_FIT_DIM_CAP,
    budget_monotone_check,
    build_merge_series,
    long_range_decomposition_check,
    merge_bin_count,
    merge_q0,
    merge_z_window,
    no_go_chain_check,
    no_go_experiment,
    rank_constrained_identity_fit,
    truncation_error_params,
    width_range_check,
)
from .models import (
    DENSE_DIM_CAP,
    INSTANCE_SIDE_CAP,
    _random_unit_hermitian,
    build_ising_projector_interaction,
    build_long_range_ising,
    build_nearest_neighbor_chain,
    build_saturation_dynamics,
    build_swap_interaction,
    build_unbounded_dynamics,
    named_strength_checks,
    named_strengths,
    random_dense_instance,
    random_product_state,
)
from .mps import mps_norm, product_mps, to_dense
from .se_strength import best_upper, bracket_check, se_lower_search
from .spectra import Check, Cut, PureState, SchmidtSpectrum
from .tdmrg import (
    TdmrgConfig,
    certificate_checks,
    default_step_count,
    gibbs_tail_experiment,
    state_mps_existence_check,
    tdmrg_run,
)


def _rng(seed):
    """Counter-based generator so every run is a pure function of the seed."""
    return np.random.Generator(np.random.Philox(seed))


def _long_range_chain(p):
    return build_long_range_ising(n=p["n"], d=p["d"], j0=p["j0"], eta=p["eta"],
                                  hx=p["hx"], hz=p["hz"])


def _nearest_chain(p, n):
    return build_nearest_neighbor_chain(n=n, d=p["d"], j=p["j0"], hx=p["hx"], hz=p["hz"])


def exp_se_search(p, seed):
    """Bracket the entangling strength on random and named interactions."""

    def row(target, instance, op, est, expected):
        return {"target": target, "instance": instance, "dim_a": op.dim_a, "dim_b": op.dim_b,
                "lower": est.lower, "upper": est.upper, "gap": est.upper - est.lower,
                "expected": expected}

    rng = _rng(seed)
    rows = []
    found = []
    for i in range(p["instances"]):
        _, v, _ = random_dense_instance(rng, dim_cap=p["dim_cap"], n_terms=p["terms"])
        found.append(se_lower_search(v, seeds=p["seeds"], iterations=p["iterations"],
                                     seed=seed + i))
        rows.append(row("random", i, v, found[-1], None))
    # named targets with known strengths; budgets fixed so reduced sweeps stay sharp
    pump = build_saturation_dynamics(4, 1.0, 1)
    proj = build_ising_projector_interaction(3)
    swap = build_swap_interaction()
    named = (
        ("pump", pump.v, se_lower_search(pump.v, seeds=4, iterations=250, seed=seed)),
        ("projector", proj, se_lower_search(proj, seeds=4, iterations=150, seed=seed)),
        ("swap", swap, se_lower_search(swap, seeds=6, iterations=200, seed=seed)),
    )
    want = named_strengths(pump)
    rows += [row(name, None, op, est, want[name]) for name, op, est in named]
    found_named = [est for _, _, est in named]
    return {
        "rows": rows,
        "pump_exact": pump.se_strength_exact,
        # ascent starts that stopped at their iteration budget, not on tolerance
        "unconverged_starts": sum(est.unconverged for est in found + found_named),
        "checks": {"lower_below_upper": bracket_check(found + found_named),
                   **named_strength_checks(pump, *(est.lower for est in found_named))},
    }


def exp_saturation(p, seed):
    dyn = build_saturation_dynamics(p["m_levels"], p["j"], p["n_pairs"])
    rows = [{"t": t, "entropy_half": dyn.protocol_entropy_half(t), "avg_rate": dyn.average_rate(t),
             "rate_floor": dyn.rate_lower_bound(t), "in_window": dyn.in_window(t)}
            for t in p["times"]]
    est = se_lower_search(dyn.v, seeds=4, iterations=200, seed=seed)
    bracket_check([est]).require("saturate's strength search beats its proved bound")
    return {
        "rows": rows,
        "strength_exact": dyn.se_strength_exact,
        "strength_found": est.lower,
        "checks": {"rate_floor_in_window": dyn.rate_floor_check(p["times"]),
                   **dyn.strength_checks(est.lower)},
    }


def exp_unbounded(p, seed):
    dyn = build_unbounded_dynamics(p["d0"], p["j"], p["t"])
    return unbounded_experiment(dyn, p["alphas"])


def exp_toy_rate(p, seed):
    return toy_rate_experiment(p["times"], p["alphas"])


def exp_c_alpha_table(p, seed):
    """Tabulate the rate constant over an order grid and verify its anchors."""
    return c_alpha_table(p["alphas"])


def exp_rate_profile(p, seed):
    rng = _rng(seed)
    rows = []
    samples = []
    for i in range(p["instances"]):
        h_full, v, state = random_dense_instance(rng, dim_cap=p["dim_cap"], n_terms=p["terms"])
        inst = measure_rate_profile(h_full, state, Cut.of([0], 2), p["alphas"], p["times"], v_ab=v)
        samples += inst
        rows += [{"instance": i, **dataclasses.asdict(s), "margin": s.margin} for s in inst]
    return {"rows": rows, "checks": {"all_margins_ok": rate_bound_check(samples)}}


def exp_unitary_growth(p, seed):
    rng = _rng(seed)
    h_full, v, _ = random_dense_instance(rng, dim_cap=p["dim_cap"], n_terms=p["terms"])
    v_upper = best_upper(v)
    rows = check_unitary_se_growth(
        h_full, (v.dim_a,), (v.dim_b,), p["times"], v_upper, seeds=p["seeds"], seed=seed
    )
    return {"rows": rows, "v_upper": v_upper, "checks": {"below_cap": unitary_growth_check(rows)}}


def exp_agsp(p, seed):
    rng = _rng(seed)
    rows = []
    ops = []
    for i in range(p["instances"]):
        h, v, _ = random_gapped_instance(rng)
        v_upper = best_upper(v)
        for beta in p["betas"]:
            a = build_agsp(h, beta)
            ops.append(a)
            rows.append({
                "instance": i,
                "beta": beta,
                "delta": a.delta,
                "defect_ground": a.defect_ground,
                "defect_excited": a.defect_excited,
                "gauss_defect": a.gauss_defect,
                "defect_bound": a.defect_bound,
                "strength_cap": a.strength_cap(v_upper),
            })
    return {"rows": rows, "checks": agsp_checks(ops)}


def exp_ground_tail(p, seed):
    chain = _long_range_chain(p) if p["chain"] == "longrange" else _nearest_chain(p, p["n"])
    return ground_tail_experiment(chain, p["cut"], p["d_grid"])


def exp_area_law(p, seed):
    return boundary_adiabatic_experiment(p["delta"], p["coupling"], p["epsilon"], p["beta"],
                                         p["d_grid"])


def exp_kolmogorov(p, seed):
    fits = [rank_constrained_identity_fit(n, d, seeds=p["seeds"], polish_iters=p["polish"],
                                          seed=seed) for n, d in p["pairs"]]
    rows = [{"n": f.n, "d": f.d, "lower": f.lower, "upper": f.upper, "estimate": f.value}
            for f in fits]
    return {"rows": rows, "checks": {"estimates_in_range": width_range_check(fits)}}


def exp_no_go(p, seed):
    rows = no_go_experiment(p["n"], p["d"], p["times"], seeds=p["seeds"],
                            polish_iters=p["polish"], seed=seed)
    return {"rows": rows, "checks": {"chain_holds": no_go_chain_check(rows)}}


def exp_merge(p, seed):
    rng = _rng(seed)
    da, db = p["da"], p["db"]
    h0_a = np.diag(rng.uniform(-1.0, 1.0, da)).astype(complex)
    h0_b = np.diag(rng.uniform(-1.0, 1.0, db)).astype(complex)
    v_terms = [p["v_scale"] * np.kron(_random_unit_hermitian(rng, da), _random_unit_hermitian(rng, db))
               for _ in range(p["n_terms"])]
    series = build_merge_series(
        h0_a, h0_b, v_terms, complex(p["z_re"], p["z_im"]),
        s0=p["s0"], m_order=p["m"], q_order=p["q"],
        kappa=p["kappa"], d0=p["d0"], c0=p["c0"], q_param=p["q_param"],
    )
    row = {"z": str(series.z), "error_measured": series.error_measured,
           "error_bound": series.error_bound, "log2_sr_bound": series.log2_sr_bound,
           "n_bins": series.n_bins}
    return {
        "rows": [row],
        "q0": series.q0,
        "g_tilde": series.g_tilde,
        "checks": {"error_below_bound": series.error_check, "bins_below_cap": series.bins_check},
    }


def exp_truncation_params(p, seed):
    rows = [truncation_error_params(duration, p["q_param"], p["c0"], p["g_tilde"], p["kappa"],
                                    p["d0"], eps0=p["eps0"]) for duration in p["durations"]]
    return {"rows": rows, "checks": {"real_cost_monotone": budget_monotone_check(rows)}}


def exp_decomposition(p, seed):
    # the check reads only the terms across the cut, and a one-site field
    # term crosses none, so the chain holds only the crossing pairs
    chain = build_long_range_ising(n=p["n"], d=p["d"], j0=p["j0"], eta=p["eta"], cut=p["cut"])
    rep = long_range_decomposition_check(chain, p["cut"])
    row = {"kappa": rep.kappa, "c0": rep.c0, "g_tilde": rep.g_tilde, "d0": rep.d0,
           "n_terms": len(rep.v_norms), "worst_margin": rep.tails_check.margin}
    return {"rows": [row], "checks": {"tails_decay": rep.tails_check}}


def _tdmrg_from_params(p):
    """The certified evolution of a product start: the config and its run."""
    chain = _nearest_chain(p, p["n"])
    n_steps = default_step_count(chain.g, chain.n, p["t"], p["eps_target"])
    mps0 = product_mps(chain.n, chain.d)
    cfg = TdmrgConfig(chain=chain, t=p["t"], n_steps=n_steps, d_cap=p["d_cap"], initial=mps0)
    return (cfg, *tdmrg_run(cfg))


def _dense_errors(cfg, final):
    """Distances of the raw and of the normalized final MPS to the exact state."""
    psi0 = PureState(dims=(cfg.chain.d,) * cfg.chain.n, amps=to_dense(cfg.initial).amps)
    exact = evolve_dense(cfg.chain, psi0, cfg.t).amps
    approx = to_dense(final).amps
    return (float(np.linalg.norm(exact - approx)),
            float(np.linalg.norm(exact - approx / mps_norm(final))))


def exp_tdmrg(p, seed):
    cfg, final, cert = _tdmrg_from_params(p)
    rows = [dataclasses.asdict(s) for s in cert.steps]
    derived = {
        "n_steps": cfg.n_steps,
        "final_bound": cert.final_bound,
        "normalized_bound": cert.normalized_bound,
        "naive_bound": cert.naive_bound,
        "j_tilde": cert.j_tilde,
        "max_bond": final.max_bond,
    }
    if p["compare_dense"]:
        derived["dense_error_raw"], derived["dense_error_normalized"] = _dense_errors(cfg, final)
    return {"rows": rows, **derived,
            "checks": certificate_checks(cert, derived.get("dense_error_raw"))}


def exp_mps_existence(p, seed):
    chain = _nearest_chain(p, p["n"])
    rng = _rng(seed)
    state = random_product_state((chain.d,) * chain.n, rng)
    return state_mps_existence_check(chain, state, p["t"], p["d_grid"])


def exp_gibbs_tail(p, seed):
    return gibbs_tail_experiment(_long_range_chain(p), p["betas"], p["d_grid"])


class ConfigError(Exception):
    pass


# artifact directory of a run without --out
DEFAULT_OUT = "entspec_out"


# JSON types a param may take, keyed by the Python type of its default; an
# integer param is a count, so it also takes no negative value
_ACCEPTED_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,), list: (list,)}


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One experiment's whole config contract, which validate_config reads
    without naming the experiment. `rules` are the value rules on its own
    params, checked after _RULES. `budgets` are the budgets of a CLI run,
    each a row (what, estimate, cap): validate_config refuses a merged run
    point p with estimate(p) > cap. `limits(p)` calls the library code that
    allocates, whose own EntspecError refuses a point past a limit of the
    library; it is None where the library holds no such limit. An estimate
    may raise that error too. `selftest_params` reduce the defaults for
    `entspec selftest`."""

    run: Callable
    defaults: dict
    rules: tuple = ()
    budgets: tuple = ()
    limits: Optional[Callable] = None
    selftest_params: dict = dataclasses.field(default_factory=dict)


def _above_zero(*params):
    return (params, lambda v: v > 0, "> 0")


_FIT_LIMIT = (f"the identity-fit limit: a fit holds a few N x N float matrices, "
              f"{8 * IDENTITY_FIT_DIM_CAP ** 2 >> 20} MiB each at N = {IDENTITY_FIT_DIM_CAP}")


# Every rule on a single value is (params, test, what the value must be). A
# list param's test applies to each entry, and each value the config gives is
# checked, in params and in every grid entry. These rules hold for every
# experiment; the ones below them are shared by the records that name them.
_RULES = (
    (("n", "d", "d0", "d_cap", "m_levels", "n_pairs", "da", "db", "d_grid", "n_terms",
      "instances", "terms"), lambda v: v >= 1, ">= 1"),
    (("chain",), lambda v: v in ("longrange", "nearest"), "\"longrange\" or \"nearest\""),
    (("eta",), lambda v: v > 2, "> 2"),
)
_CHAIN_D = (("d",), lambda v: 2 <= v and v * v <= DENSE_DIM_CAP,
            f"in 2..{math.isqrt(DENSE_DIM_CAP)}: a chain site holds at least two levels, and a "
            f"two-site term is a dense d**2 x d**2 matrix, within the dense-matrix limit")
_ELAPSED = (("t", "times", "durations"), lambda v: v >= 0,
            ">= 0: the bounds grow with elapsed time")
_INSTANCE_DIM_CAP = (("dim_cap",), lambda v: v >= 4, ">= 4, the least instance being 2 x 2")
_MERGE_CONSTANTS = _above_zero("kappa", "c0", "q_param")
_POSITIVE_ALPHAS = _above_zero("alphas")


def _shown(estimate):
    """An estimate in a message: exact below 10**15, else to three digits."""
    if estimate < 10 ** 15:
        return str(estimate)
    return f"{estimate:.3g}" if estimate < 1e300 else "past 1e300"


# the most work a run on instances of random_dense_instance may take, by the
# estimate of _instance_work, the least power of two that admits the
# se-search defaults (3.68e9). At one OpenBLAS thread on a 2-core x86 box a
# unit took about 20 ns, and at the cap the slowest of seeds 0-9 took, in
# se-search, 51 s at a 51 MB peak (1,920 instances of 256 levels, one term,
# no search), 58 s at 63 MB (34,893 instances, an edge now at 34,891) and
# 47 s at 46 MB (58,253 terms on one 14 x 14 draw, now at 58,224); in
# sie-rate, 54 s at 69 MB (40,320 instances), 46 s at 46 MB (58,224
# terms), 36 s at 206 MB (131,069 time points) and 11 s at 235 MB (262,138
# orders); in unitary-growth, 70 s at 40 MB (477,967 terms), 35 s at 40 MB
# (159 time points) and 40 s at 50 MB (dim_cap 228, one time point, no seeds)
_INSTANCE_WORK_CAP = 2 ** 32


def _instance_work(p, instances, searched, per_instance=0):
    """The work estimate of a run on instances of random_dense_instance:
    instances * (2**16 + terms * (s**2 + 2**13) + s**3 // 8 + per_instance)
    + searched * (s**3 + 2**14), s = min(dim_cap, 256). An instance holds
    da * db <= s levels, a side holding at most INSTANCE_SIDE_CAP (16). A
    term's Kronecker product holds s**2 entries. The dense work of an
    instance, s**3 // 8, is best_upper's operator-Schmidt SVD and the SVD
    of each search start, or sie-rate's eigendecomposition. An ascent
    iteration with ancillas of min(da, db) levels contracts (da * db)**2 *
    min(da, db)**2 <= s**3; `searched` counts the iterations of the starts
    with ancillas, each with its start without. The powers of two are the
    overheads of an instance, a term and an iteration of both searches at
    the least instance."""
    s = min(p["dim_cap"], INSTANCE_SIDE_CAP ** 2)
    return (instances * (2 ** 16 + p["terms"] * (s * s + 2 ** 13) + s ** 3 // 8 + per_instance)
            + searched * (s ** 3 + 2 ** 14))


_PER_INSTANCE = "2**16 + terms * (s**2 + 2**13) + s**3 // 8"


def _instance_budget(shape, estimate):
    """The budget row of a run on instances, its _instance_work worded by `shape`."""
    return (f"the work estimate {shape}, s = min(dim_cap, {INSTANCE_SIDE_CAP ** 2}),", estimate,
            _INSTANCE_WORK_CAP)


# the most levels m a side of saturate's pump: its strength search on two
# (m + 1)-level systems takes about (m + 1)**6; at one OpenBLAS thread on a
# 2-core x86 box a run at the cap took 10.5-11.3 s over seeds 0-3, at a 55 MB peak
_SATURATE_LEVELS_CAP = 16


# the most filters an agsp run builds, instances * len(betas), each kept for
# agsp_checks; at one OpenBLAS thread on a 2-core x86 box a run at the cap
# took 2.4-2.8 s at the default betas and 11-12 s at betas [100, 100], at a 95-99 MB peak
_AGSP_FILTER_CAP = 2 ** 11


def _chain_dim(p):
    """d**n, the rows of the chain matrix. At d >= 2 the power at n = 1024
    is past float range, so no larger one is formed."""
    return p["d"] ** min(p["n"], 1024)


_DENSE_CHAIN = ("the chain dimension d**n", _chain_dim, DENSE_DIM_CAP)


# the most work a tdmrg run may take, by the estimate of _tdmrg_work; at one
# OpenBLAS thread a unit took 520-590 ns on a 2-core x86 box, so a run at
# the cap takes 70-80 s there
_TDMRG_WORK_CAP = 2 ** 27


def _bond_squares(n, d, d_cap):
    """The sum of D**2 over the n - 1 bonds of an n-site chain, D =
    min(d_cap, d**k) at a bond k sites from the nearer end: the most each
    bond can hold."""
    full = d_cap.bit_length()  # d**k >= 2**k > d_cap from k = full on
    if n <= 2 * full:
        return sum(min(d_cap, d ** min(i, n - i)) ** 2 for i in range(1, n))
    ends = sum(min(d_cap, d ** k) ** 2 for k in range(1, full))
    return 2 * ends + (n + 1 - 2 * full) * d_cap ** 2


def _tdmrg_work(p):
    """An estimate of the work of a tdmrg run, n * d**6 // 512 + steps *
    (terms + 1) * d * sum D**2. Building the chain and splitting its terms
    takes about d**6 flops a site, as the coupling is a d**2 x d**2 matrix
    split by one SVD, and such a flop took about 1/512 of a unit (1.1 ns at
    n 3 and d 32). Each step sums terms + 1 pieces, the state and each term
    applied to it, and a piece holds about d * D**2 entries at a bond of D,
    the most that bond can hold (_bond_squares). When the chain and one
    step are already past the cap, that lower bound is returned and no
    chain is built. The nearest chain is translation invariant, so the
    run's g, and with it its step count, is the g of min(n, 3) sites."""
    n, d = p["n"], p["d"]
    terms = n - 1 + (n if p["hx"] or p["hz"] else 0)
    setup = n * d ** 6 // 512
    per_step = (terms + 1) * d * _bond_squares(n, d, p["d_cap"])
    if setup + per_step > _TDMRG_WORK_CAP:
        return setup + per_step
    with np.errstate(over="ignore"):  # a g past float range is inf
        g = _nearest_chain(p, min(n, 3)).g
    return setup + default_step_count(g, n, p["t"], p["eps_target"]) * per_step


# the most entries the cut * (n - cut) pair terms that cross the cut, all a
# decomposition run builds, may hold, d**4 each: 65,536 pairs at d 2. At one
# OpenBLAS thread on a 2-core x86 box, n 65537 at cut 1 ran in 2.5-4.0 s and
# n 512 at cut 256 in 2.4-3.8 s, both at a 93 MB peak
_DECOMPOSITION_ENTRY_CAP = 2 ** 20


def _merge_limits(p):
    """The product space and the weight bins within merge_bin_count's
    limits, and z within the series' window, as build_merge_series checks them."""
    merge_bin_count(p["n_terms"], p["kappa"], p["da"] * p["db"])
    # each coupling has norm |v_scale|, so g_tilde is n_terms |v_scale|
    g_tilde = abs(p["v_scale"]) * min(p["n_terms"], sys.float_info.max)
    merge_z_window(complex(p["z_re"], p["z_im"]), merge_q0(p["q_param"], p["c0"], g_tilde))


REGISTRY = {
    "sie-rate": Experiment(
        exp_rate_profile,
        {"instances": 2, "dim_cap": 36, "terms": 3, "times": [0.3, 0.7], "alphas": [0.5, 1.0, 2.0]},
        rules=(_INSTANCE_DIM_CAP, _POSITIVE_ALPHAS),
        # an instance searches nothing; it adds 2**14 for each time point and
        # each of its len(alphas) rows: the five evolved states, their Schmidt
        # spectra and the entropies at every order, and under a kilobyte a row
        # kept for results.csv
        budgets=(_instance_budget(
            f"instances * ({_PER_INSTANCE} + len(times) * (1 + len(alphas)) * 2**14)",
            lambda p: _instance_work(p, p["instances"], 0,
                                     len(p["times"]) * (1 + len(p["alphas"])) * 2 ** 14)),),
        selftest_params={"instances": 1, "dim_cap": 16, "times": [0.4]}),
    "c-alpha-table": Experiment(
        exp_c_alpha_table, {"alphas": [0.5, 0.6, 0.75, 1.0, 1.5, 2.0, 4.0, 8.0, "inf"]},
        rules=((("alphas",), lambda v: v == "inf" or v >= 0.5, ">= 0.5 or \"inf\""),)),
    "saturate": Experiment(
        exp_saturation, {"m_levels": 4, "j": 1.0, "n_pairs": 10, "times": [0.25, 0.5, 1.0]},
        rules=(_above_zero("times", "j"),),
        budgets=(("m_levels", lambda p: p["m_levels"], _SATURATE_LEVELS_CAP),),
        selftest_params={"times": [0.5]}),
    "unbounded": Experiment(
        exp_unbounded, {"d0": 16, "j": 1.0, "t": 1.0, "alphas": [0.25, 0.4, 0.5, 1.0]},
        rules=(_POSITIVE_ALPHAS, _above_zero("j", "t"), (("d0",), lambda v: v >= 2, ">= 2")),
        limits=lambda p: build_unbounded_dynamics(p["d0"], p["j"], p["t"])),
    "toy": Experiment(
        exp_toy_rate, {"times": [0.2, 0.5, 0.9, 1.2], "alphas": [0.3, 0.5, 0.75, 1.0, 2.0, "inf"]},
        rules=((("times",), lambda v: 0 < v < math.pi / 2,
                "in (0, pi/2), where the closed form holds"),)),
    "se-search": Experiment(
        exp_se_search, {"instances": 4, "dim_cap": 64, "terms": 3, "seeds": 8, "iterations": 300},
        rules=(_INSTANCE_DIM_CAP,),
        # each instance's search runs seeds + 3 starts with ancillas and
        # seeds + 2 without, for at most `iterations` each
        budgets=(_instance_budget(
            f"instances * ({_PER_INSTANCE} + (seeds + 3) * iterations * (s**3 + 2**14))",
            lambda p: _instance_work(p, p["instances"],
                                     p["instances"] * (p["seeds"] + 3) * p["iterations"])),),
        selftest_params={"instances": 1, "dim_cap": 16, "seeds": 3, "iterations": 100}),
    "agsp": Experiment(
        exp_agsp, {"instances": 3, "betas": [1.0, 4.0]}, rules=(_above_zero("betas"),),
        budgets=(("the filters instances * len(betas)", lambda p: p["instances"] * len(p["betas"]),
                  _AGSP_FILTER_CAP),),
        selftest_params={"instances": 1, "betas": [2.0]}),
    "ground-tail": Experiment(
        exp_ground_tail,
        {"chain": "longrange", "n": 8, "d": 2, "j0": 1.0, "eta": 3.0, "hx": 0.6,
         "hz": 0.2, "cut": 4, "d_grid": [1, 2, 4, 8, 16]},
        rules=(_CHAIN_D,), budgets=(("the chain dimension d**n", _chain_dim, SPARSE_DIM_CAP),),
        selftest_params={"n": 6, "cut": 3, "d_grid": [1, 4, 8]}),
    "area-law": Experiment(
        exp_area_law,
        {"delta": 1.0, "coupling": 0.3, "epsilon": 0.05, "beta": 4.0, "d_grid": [1, 2, 4]},
        rules=(_above_zero("epsilon", "beta"),
               (("coupling",), lambda v: v != 0, "nonzero: the constants divide by it")),
        selftest_params={"epsilon": 0.1, "d_grid": [1, 2]}),
    "tdmrg": Experiment(
        exp_tdmrg,
        {"n": 8, "d": 2, "j0": 1.0, "hx": 0.4, "hz": 0.3,
         "t": 0.3, "eps_target": 0.2, "d_cap": 16, "compare_dense": True},
        rules=(_CHAIN_D, _ELAPSED, _above_zero("eps_target")),
        budgets=(("the chain dimension d**n, with compare_dense true,",
                  lambda p: _chain_dim(p) if p["compare_dense"] else 0, DENSE_DIM_CAP),
                 ("the work estimate n * d**6 // 512 + steps * (terms + 1) * d * sum over bonds "
                  "of min(d_cap, d**k)**2, k sites to the nearer end,", _tdmrg_work,
                  _TDMRG_WORK_CAP)),
        selftest_params={"n": 4, "t": 0.2, "d_cap": 8, "eps_target": 0.5}),
    "mps-exist": Experiment(
        exp_mps_existence,
        {"n": 8, "d": 2, "j0": 1.0, "hx": 0.5, "hz": 0.0, "t": 0.4, "d_grid": [2, 4, 8, 16]},
        rules=(_CHAIN_D, _ELAPSED), budgets=(_DENSE_CHAIN,),
        selftest_params={"n": 6, "t": 0.3, "d_grid": [2, 8]}),
    "gibbs-tail": Experiment(
        exp_gibbs_tail,
        {"n": 4, "d": 2, "j0": 1.0, "eta": 3.0, "hx": 0.5, "hz": 0.0,
         "betas": [0.0, 1.0, 2.0], "d_grid": [1, 2, 4, 8]},
        rules=(_CHAIN_D,
               (("betas",), lambda v: v >= 0, ">= 0: the caps are stated for beta >= 0")),
        budgets=(_DENSE_CHAIN,),
        selftest_params={"n": 3, "betas": [0.0, 1.0], "d_grid": [1, 2, 4]}),
    "kolmogorov": Experiment(
        exp_kolmogorov, {"pairs": [[8, 1], [16, 1], [16, 4]], "seeds": 8, "polish": 200},
        rules=((("pairs",), lambda q: len(q) == 2 and all(map(_is_int, q))
                and 1 <= q[1] <= q[0] <= IDENTITY_FIT_DIM_CAP,
                f"[N, D] pairs with 1 <= D <= N <= {IDENTITY_FIT_DIM_CAP}, {_FIT_LIMIT}"),),
        selftest_params={"pairs": [[8, 1]], "seeds": 4, "polish": 80}),
    "no-go": Experiment(
        exp_no_go, {"n": 16, "d": 1, "times": [0.2, 0.3, 0.4], "seeds": 6, "polish": 300},
        rules=((("n",), lambda v: v <= IDENTITY_FIT_DIM_CAP,
                f"<= {IDENTITY_FIT_DIM_CAP}, {_FIT_LIMIT} with N = n"), _ELAPSED),
        selftest_params={"times": [0.3], "seeds": 3, "polish": 120}),
    "merge-series": Experiment(
        exp_merge,
        {"da": 4, "db": 4, "n_terms": 2, "v_scale": 0.25, "z_re": 0.0, "z_im": 0.05,
         "s0": 4, "m": 4, "q": 4, "kappa": 1.0, "d0": 4, "c0": 1.0, "q_param": 2.0},
        rules=(_MERGE_CONSTANTS,), limits=_merge_limits),
    "truncation-params": Experiment(
        exp_truncation_params,
        {"durations": [0.5, 1.0, 2.0], "q_param": 2.0, "c0": 1.0,
         "g_tilde": 0.5, "kappa": 1.0, "d0": 4, "eps0": 0.01},
        rules=(_ELAPSED, _MERGE_CONSTANTS, _above_zero("eps0"))),
    "decomposition": Experiment(
        exp_decomposition, {"n": 10, "d": 2, "j0": 1.0, "eta": 3.5, "cut": 5},
        rules=(_CHAIN_D,),
        budgets=(("the entries cut * (n - cut) * d**4 of the crossing pair terms",
                  lambda p: p["cut"] * (p["n"] - p["cut"]) * p["d"] ** 4,
                  _DECOMPOSITION_ENTRY_CAP),)),
    "unitary-growth": Experiment(
        exp_unitary_growth, {"dim_cap": 25, "terms": 2, "times": [0.1, 0.3, 0.6], "seeds": 4},
        rules=(_INSTANCE_DIM_CAP, _ELAPSED),
        # one instance, whose propagator at each time point is searched with
        # seeds + 3 starts for at most GROWTH_ITERATIONS each
        budgets=(_instance_budget(
            f"{_PER_INSTANCE} + len(times) * (seeds + 3) * {GROWTH_ITERATIONS} * (s**3 + 2**14)",
            lambda p: _instance_work(p, 1,
                                     len(p["times"]) * (p["seeds"] + 3) * GROWTH_ITERATIONS)),),
        selftest_params={"times": [0.2], "dim_cap": 16}),
}


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _has_type_of(value, default):
    accepted = _ACCEPTED_TYPES[type(default)]
    if not isinstance(value, accepted) or (isinstance(value, bool) and bool not in accepted):
        return False
    if type(default) is int:
        return value >= 0
    # a float param takes a finite number: no NaN, Infinity or integer beyond float range
    return not isinstance(default, float) or -sys.float_info.max <= value <= sys.float_info.max


def _entry_ok(entry, default_entries):
    """A list entry takes the JSON type of the default's entries; the one
    string allowed is "inf", and only where the default list holds it."""
    if isinstance(entry, str):
        return entry == "inf" and "inf" in default_entries
    return any(_has_type_of(entry, d) for d in default_entries if not isinstance(d, str))


def _check_params(name, values, experiment):
    defaults = experiment.defaults
    for key, value in values.items():
        if not _has_type_of(value, defaults[key]):
            want = " or ".join(t.__name__ for t in _ACCEPTED_TYPES[type(defaults[key])])
            want += " >= 0" if type(defaults[key]) is int else ""
            raise ConfigError(f"param {key!r} of {name} must be {want}, got {value!r}")
        if isinstance(value, list):
            if not value:
                raise ConfigError(f"param {key!r} of {name} must hold at least one entry")
            bad = [v for v in value if not _entry_ok(v, defaults[key])]
            if bad:
                raise ConfigError(f"param {key!r} of {name} holds entries unlike its "
                                  f"default {defaults[key]!r}: {bad!r}")
        entries = value if isinstance(value, list) else [value]
        for keys, test, want in _RULES + experiment.rules:
            if key in keys and not all(map(test, entries)):
                raise ConfigError(f"param {key!r} of {name} must be {want}, got {value!r}")


def validate_config(cfg):
    """Check a config and return (experiment, merged run points, seed):
    each point is the defaults, then `params`, then one grid entry."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    extra = set(cfg) - {"experiment", "params", "grid", "seed"}
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    name = cfg.get("experiment")
    if not isinstance(name, str) or name not in REGISTRY:
        raise ConfigError(f"unknown experiment {name!r}; choose from {sorted(REGISTRY)}")
    experiment = REGISTRY[name]
    defaults = experiment.defaults
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object")
    grid = cfg.get("grid", [])
    if not isinstance(grid, list) or any(not isinstance(g, dict) for g in grid):
        raise ConfigError("grid must be a list of objects")
    for where, values in [("params", params)] + [("grid params", g) for g in grid]:
        bad = set(values) - set(defaults)
        if bad:
            raise ConfigError(f"unknown {where} for {name}: {sorted(bad)}")
        _check_params(name, values, experiment)
    # the rules that span params
    points = [{**defaults, **params, **g} for g in grid or [{}]]
    for p in points:
        if "cut" in p and not 1 <= p["cut"] <= p["n"] - 1:
            raise ConfigError(f"param 'cut' of {name} must lie in 1..n-1 for n = "
                              f"{p['n']}, got {p['cut']}")
        try:
            if experiment.limits:
                experiment.limits(p)
            for what, estimate, cap in experiment.budgets:
                got = estimate(p)
                if got > cap:
                    raise ConfigError(f"run point of {name}: params must keep {what} <= {cap}, "
                                      f"got {_shown(got)}")
        except EntspecError as exc:
            raise ConfigError(f"run point of {name}: {exc}") from None
    return name, points, _checked_seed(cfg.get("seed", 0))


def _checked_seed(seed):
    """The seed of a config or of --seed: the generators take a non-negative integer."""
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


# a run that fails on a number, which main and selftest report in one line: numpy's
# LinAlgError is a ValueError, its FloatingPointError an ArithmeticError
NUMERIC_FAILURE = (EntspecError, ValueError, ArithmeticError)


def _run_config(cfg, out_dir, threads, seed_override=None):
    """Run every point of a config, write its artifacts to `out_dir` and
    return the summary. At `threads` 1 the points run on the calling
    thread, so Ctrl-C stops a run at once. As in the tests, a numpy
    overflow, invalid value or division by zero raises; underflow passes."""
    name, points, seed = validate_config(cfg)

    def fn(p, point_seed):  # numpy's error state is per thread, so each point sets it
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return REGISTRY[name].run(p, point_seed)

    if seed_override is not None:
        seed = _checked_seed(seed_override)
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")
    started = time.time()
    seeds = range(seed, seed + len(points))
    if threads > 1 and len(points) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(fn, points, seeds))
    else:
        results = list(map(fn, points, seeds))
    rows = []
    checks = {}
    margins = {}
    derived = []
    for i, res in enumerate(results):
        for r in res["rows"]:
            rows.append({"grid_point": i, **r})
        derived.append({k: v for k, v in res.items() if k not in ("rows", "checks")})
        for k, c in res["checks"].items():
            if not isinstance(c, Check):
                raise TypeError(f"check {k!r} of {name} is {c!r}, not a Check")
            key = k if len(points) == 1 else f"{k}[{i}]"
            margins[key] = c.margin
            checks[key] = c.ok
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "results.csv", rows)
    summary = {
        "experiment": name,
        "config_sha256": config_hash(cfg),
        "seed": seed,
        "grid_points": len(points),
        "derived": derived if len(points) > 1 else derived[0],
        "checks": checks,
        "margins": margins,
        "all_checks_pass": all(checks.values()),
        "wall_time_s": time.time() - started,
        "rows_file": "results.csv",
    }
    write_json(out_dir / "summary.json", summary)
    return summary


def _spectrum_rejected(coeffs, source_norm):
    try:
        SchmidtSpectrum(np.array(coeffs), source_norm)
    except ValueError:
        return True
    return False


def _shrunk_certificate_fails():
    tdmrg = REGISTRY["tdmrg"]
    cfg, final, cert = _tdmrg_from_params({**tdmrg.defaults, **tdmrg.selftest_params})
    shrunk = dataclasses.replace(cert, final_bound=cert.final_bound * 1e-6)
    covers = certificate_checks(shrunk, _dense_errors(cfg, final)[0])["certificate_covers_error"]
    return covers.margin < 0.0


def _corruption_probes():
    """Deliberately corrupted data, each with a test that says whether the
    library caught it: malformed Schmidt data must be rejected, and a
    certificate shrunk 1e6-fold must fail to cover the true error."""
    return [
        # ascending coefficients violate the descending contract
        ("corrupted coefficient ordering",
         lambda: _spectrum_rejected([0.3, 0.8, np.sqrt(1.0 - 0.09 - 0.64)], 1.0)),
        ("corrupted source norm", lambda: _spectrum_rejected([0.8, 0.6], 2.0)),
        ("shrunk certificate bound", _shrunk_certificate_fails),
    ]


def selftest(out_root):
    print("selftest: reduced sweep over every experiment")
    failures = []
    for name, experiment in REGISTRY.items():
        cfg = {"experiment": name, "params": experiment.selftest_params, "seed": 7}
        try:
            summary = _run_config(cfg, out_root / name, 1)
            status = "pass" if summary["all_checks_pass"] else "FAIL"
        except NUMERIC_FAILURE as exc:
            status = f"FAIL ({exc})"
        if status != "pass":
            failures.append(name)
        print(f"  {name:<20} {status}")
    for bad in (
        {"experiment": "not_a_thing"},
        {"experiment": "saturate", "params": {"bogus": 1}},
        {"experiment": "saturate", "rogue_key": 1},
        {"experiment": "saturate", "seed": "zero"},
    ):
        try:
            validate_config(bad)
        except ConfigError:
            print(f"  reject {str(bad)[:48]:<48} pass")
        else:
            failures.append(f"validator accepted {bad}")
            print(f"  reject {str(bad)[:48]:<48} FAIL")
    for label, detected in _corruption_probes():
        caught = detected()
        if not caught:
            failures.append(f"corruption undetected: {label}")
        print(f"  inject {label:<48} {'pass' if caught else 'FAIL'}")
    if failures:
        print(f"selftest FAILED: {failures}")
        return 1
    print("selftest passed")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="entspec", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment from a JSON config")
    run.add_argument("config", help="path to the config JSON")
    run.add_argument("--out", default=DEFAULT_OUT, help="artifact directory")
    run.add_argument("--threads", type=int, default=1)
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    st = sub.add_parser("selftest", help="reduced sweep of every experiment")
    st.add_argument("--out", default="entspec_selftest", help="artifact directory")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "selftest":
        return selftest(Path(args.out))
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    try:
        summary = _run_config(cfg, out_dir, args.threads, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NUMERIC_FAILURE as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1
    for k, ok in summary["checks"].items():
        margin = summary["margins"][k]
        shown = "none" if margin is None else f"{margin:.3e}"
        print(f"  {k}: {'pass' if ok else 'FAIL'} (margin {shown})")
    print(f"artifacts in {out_dir} (config {summary['config_sha256'][:12]})")
    return 0 if summary["all_checks_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
