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
    MERGE_DIM_CAP,
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


# artifact directory when neither --out nor the config's "out" names one
DEFAULT_OUT = "entspec_out"


# JSON types a param may take, keyed by the Python type of its default; an
# integer param is a count, so it also takes no negative value
_ACCEPTED_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,), list: (list,)}


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One experiment's whole config contract, which validate_config reads
    without naming the experiment. `rules` are the value rules on its own
    params, checked after _RULES. `cost(p, name)` raises ConfigError when a
    merged run point passes one of its caps; it is None where the value
    rules alone bound the run. `selftest_params` reduce the defaults for
    `entspec selftest`."""

    run: Callable
    defaults: dict
    rules: tuple = ()
    cost: Optional[Callable] = None
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


# the most levels of an unbounded spectrum, a list of d0 + 1 floats: at one
# OpenBLAS thread on a 2-core x86 box a run at the cap took 1.3-1.5 s at a 260 MB peak
_UNBOUNDED_D0_CAP = 2 ** 22


def _unbounded_cost(p, name):
    if p["d0"] > _UNBOUNDED_D0_CAP:
        raise ConfigError(f"param 'd0' of {name} must be <= {_UNBOUNDED_D0_CAP}, the length "
                          f"limit of its spectrum, got {p['d0']}")
    try:
        build_unbounded_dynamics(p["d0"], p["j"], p["t"])
    except (EntspecError, ValueError) as exc:
        raise ConfigError(f"params 'd0', 'j' and 't' of {name}: {exc}") from None


def _chain_matrix_cost(cap, limit):
    """The cost rule of an experiment that forms the chain matrix, d**n rows:
    d**n <= cap. With d >= 2 the power passes the cap by the exponent
    cap.bit_length(), so no larger one is formed."""

    def cost(p, name):
        if p["d"] ** min(p["n"], cap.bit_length()) > cap:
            raise ConfigError(f"params 'd' and 'n' of {name} must have d**n <= {cap}, "
                              f"{limit}, got d**n = {p['d']}**{p['n']}")
    return cost


_DENSE_CHAIN_COST = _chain_matrix_cost(DENSE_DIM_CAP, "the dense-matrix limit")


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
    try:
        return setup + default_step_count(g, n, p["t"], p["eps_target"]) * per_step
    except EntspecError:  # g*n*t or g*n*t/eps_target is inf, or g*n*t NaN
        return math.inf


def _tdmrg_cost(p, name):
    if p["compare_dense"]:
        _chain_matrix_cost(DENSE_DIM_CAP, "the dense-matrix limit of compare_dense "
                           "(set it to false)")(p, name)
    work = _tdmrg_work(p)
    if work > _TDMRG_WORK_CAP:
        shown = f"{work:.3g}" if work < 1e300 else "past 1e300"
        raise ConfigError(f"params of {name} must keep the work estimate n * d**6 // 512 + "
                          f"steps * (terms + 1) * d * sum over bonds of "
                          f"min(d_cap, d**k)**2, k sites to the nearer end, "
                          f"<= {_TDMRG_WORK_CAP}, got {shown}")


# the most entries the cut * (n - cut) pair terms that cross the cut, all a
# decomposition run builds, may hold, d**4 each: 65,536 pairs at d 2. At one
# OpenBLAS thread on a 2-core x86 box, n 65537 at cut 1 ran in 2.5-4.0 s and
# n 512 at cut 256 in 2.4-3.8 s, both at a 93 MB peak
_DECOMPOSITION_ENTRY_CAP = 2 ** 20


def _decomposition_cost(p, name):
    entries = p["cut"] * (p["n"] - p["cut"]) * p["d"] ** 4
    if entries > _DECOMPOSITION_ENTRY_CAP:
        raise ConfigError(f"params 'n', 'cut' and 'd' of {name} must keep the cut * (n - cut) "
                          f"crossing pair terms of d**4 entries each at <= "
                          f"{_DECOMPOSITION_ENTRY_CAP} entries, got {entries}")


def _merge_cost(p, name):
    """The product space within MERGE_DIM_CAP, z within the series' window,
    and the weight bins within merge_bin_count's limits."""
    if p["da"] * p["db"] > MERGE_DIM_CAP:
        raise ConfigError(f"params 'da' and 'db' of {name} must have da*db <= "
                          f"{MERGE_DIM_CAP}, got {p['da']}*{p['db']}")
    # each coupling has norm |v_scale|, so g_tilde is n_terms |v_scale|
    g_tilde = abs(p["v_scale"]) * min(p["n_terms"], sys.float_info.max)
    try:
        merge_z_window(complex(p["z_re"], p["z_im"]), merge_q0(p["q_param"], p["c0"], g_tilde))
    except EntspecError as exc:
        raise ConfigError(f"params 'z_re' and 'z_im' of {name}: {exc}") from None
    try:
        merge_bin_count(p["n_terms"], p["kappa"], p["da"] * p["db"])
    except EntspecError as exc:
        raise ConfigError(f"params 'n_terms' and 'kappa' of {name}: {exc}") from None


REGISTRY = {
    "sie-rate": Experiment(
        exp_rate_profile,
        {"instances": 2, "dim_cap": 36, "terms": 3, "times": [0.3, 0.7], "alphas": [0.5, 1.0, 2.0]},
        rules=(_INSTANCE_DIM_CAP, _POSITIVE_ALPHAS),
        selftest_params={"instances": 1, "dim_cap": 16, "times": [0.4]}),
    "c-alpha-table": Experiment(
        exp_c_alpha_table, {"alphas": [0.5, 0.6, 0.75, 1.0, 1.5, 2.0, 4.0, 8.0, "inf"]},
        rules=((("alphas",), lambda v: v == "inf" or v >= 0.5, ">= 0.5 or \"inf\""),)),
    "saturate": Experiment(
        exp_saturation, {"m_levels": 4, "j": 1.0, "n_pairs": 10, "times": [0.25, 0.5, 1.0]},
        rules=(_above_zero("times", "j"),), selftest_params={"times": [0.5]}),
    "unbounded": Experiment(
        exp_unbounded, {"d0": 16, "j": 1.0, "t": 1.0, "alphas": [0.25, 0.4, 0.5, 1.0]},
        rules=(_POSITIVE_ALPHAS, _above_zero("j", "t")), cost=_unbounded_cost),
    "toy": Experiment(
        exp_toy_rate, {"times": [0.2, 0.5, 0.9, 1.2], "alphas": [0.3, 0.5, 0.75, 1.0, 2.0, "inf"]},
        rules=((("times",), lambda v: 0 < v < math.pi / 2,
                "in (0, pi/2), where the closed form holds"),)),
    "se-search": Experiment(
        exp_se_search, {"instances": 4, "dim_cap": 64, "terms": 3, "seeds": 8, "iterations": 300},
        rules=(_INSTANCE_DIM_CAP,),
        selftest_params={"instances": 1, "dim_cap": 16, "seeds": 3, "iterations": 100}),
    "agsp": Experiment(
        exp_agsp, {"instances": 3, "betas": [1.0, 4.0]}, rules=(_above_zero("betas"),),
        selftest_params={"instances": 1, "betas": [2.0]}),
    "ground-tail": Experiment(
        exp_ground_tail,
        {"chain": "longrange", "n": 8, "d": 2, "j0": 1.0, "eta": 3.0, "hx": 0.6,
         "hz": 0.2, "cut": 4, "d_grid": [1, 2, 4, 8, 16]},
        rules=(_CHAIN_D,), cost=_chain_matrix_cost(SPARSE_DIM_CAP, "the sparse-eigensolver limit"),
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
        rules=(_CHAIN_D, _ELAPSED, _above_zero("eps_target")), cost=_tdmrg_cost,
        selftest_params={"n": 4, "t": 0.2, "d_cap": 8, "eps_target": 0.5}),
    "mps-exist": Experiment(
        exp_mps_existence,
        {"n": 8, "d": 2, "j0": 1.0, "hx": 0.5, "hz": 0.0, "t": 0.4, "d_grid": [2, 4, 8, 16]},
        rules=(_CHAIN_D, _ELAPSED), cost=_DENSE_CHAIN_COST,
        selftest_params={"n": 6, "t": 0.3, "d_grid": [2, 8]}),
    "gibbs-tail": Experiment(
        exp_gibbs_tail,
        {"n": 4, "d": 2, "j0": 1.0, "eta": 3.0, "hx": 0.5, "hz": 0.0,
         "betas": [0.0, 1.0, 2.0], "d_grid": [1, 2, 4, 8]},
        rules=(_CHAIN_D,
               (("betas",), lambda v: v >= 0, ">= 0: the caps are stated for beta >= 0")),
        cost=_DENSE_CHAIN_COST, selftest_params={"n": 3, "betas": [0.0, 1.0], "d_grid": [1, 2, 4]}),
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
        rules=(_MERGE_CONSTANTS,), cost=_merge_cost),
    "truncation-params": Experiment(
        exp_truncation_params,
        {"durations": [0.5, 1.0, 2.0], "q_param": 2.0, "c0": 1.0,
         "g_tilde": 0.5, "kappa": 1.0, "d0": 4, "eps0": 0.01},
        rules=(_ELAPSED, _MERGE_CONSTANTS, _above_zero("eps0"))),
    "decomposition": Experiment(
        exp_decomposition, {"n": 10, "d": 2, "j0": 1.0, "eta": 3.5, "cut": 5},
        rules=(_CHAIN_D,), cost=_decomposition_cost),
    "unitary-growth": Experiment(
        exp_unitary_growth, {"dim_cap": 25, "terms": 2, "times": [0.1, 0.3, 0.6], "seeds": 4},
        rules=(_INSTANCE_DIM_CAP, _ELAPSED), selftest_params={"times": [0.2], "dim_cap": 16}),
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
    """Check a config and return (experiment, merged run points, seed, out):
    each point is the defaults, then `params`, then one grid entry."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    allowed = {"experiment", "params", "grid", "seed", "out"}
    extra = set(cfg) - allowed
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    out = cfg.get("out", None)
    if out is not None and not isinstance(out, str):
        raise ConfigError("out must be a string path")
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
        if experiment.cost:
            experiment.cost(p, name)
    return name, points, _checked_seed(cfg.get("seed", 0)), out


def _checked_seed(seed):
    """The seed of a config or of --seed: the generators take a non-negative integer."""
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


# a run that fails on a number, which main and selftest report in one line: numpy's
# LinAlgError is a ValueError, its FloatingPointError an ArithmeticError
NUMERIC_FAILURE = (EntspecError, ValueError, ArithmeticError)


def _run_config(cfg, out_dir, threads, seed_override=None):
    """Run every point of a config and write its artifacts; return the
    summary and the directory written to. At `threads` 1 the points run on
    the calling thread, so Ctrl-C stops a run at once. As in the tests, a
    numpy overflow, invalid value or division by zero raises; underflow passes."""
    name, points, seed, cfg_out = validate_config(cfg)

    def fn(p, point_seed):  # numpy's error state is per thread, so each point sets it
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return REGISTRY[name].run(p, point_seed)

    if seed_override is not None:
        seed = _checked_seed(seed_override)
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")
    out_dir = out_dir or Path(cfg_out or DEFAULT_OUT)
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
    return summary, out_dir


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
            summary, _ = _run_config(cfg, out_root / name, 1)
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
    run.add_argument("--out", default=None,
                     help="artifact directory (overrides the config's own)")
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
    try:
        out_arg = Path(args.out) if args.out is not None else None
        summary, out_dir = _run_config(cfg, out_arg, args.threads, args.seed)
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
