"""Top-level acceptance run: one test and one report line per criterion.

Each test measures its own wall time against the stated budget, prints a
single PASS/FAIL line, and appends that line to acceptance_report.txt via
the session fixture. Assertions come after recording so a failure still
leaves an honest report behind.
"""

import math
import time
from itertools import product

import numpy as np
from scipy.linalg import expm

from entspec import (
    BipartiteOperator,
    Cut,
    TdmrgConfig,
    basis_product_state,
    best_upper,
    boundary_adiabatic_experiment,
    build_agsp,
    build_ising_projector_interaction,
    build_long_range_ising,
    build_merge_series,
    build_saturation_dynamics,
    build_swap_interaction,
    build_unbounded_dynamics,
    default_step_count,
    gibbs_tail_experiment,
    ground_tail_experiment,
    measure_rate_profile,
    no_go_experiment,
    product_mps,
    random_dense_instance,
    random_gapped_instance,
    rank_constrained_identity_fit,
    se_lower_search,
    state_mps_existence_check,
    tdmrg_run,
    to_dense,
)
from entspec.agsp_arealaw import agsp_checks
from entspec.dynamics import c_alpha_table, rate_bound_check, unbounded_experiment
from entspec.lowrank import _max_abs, width_range_check
from entspec.models import named_strength_checks
from entspec.tdmrg import certificate_checks


def record(lines, num, ok, elapsed, budget, detail):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {status} [{elapsed:6.1f}s / {budget:.0f}s] {detail}"
    lines.append(line)
    print(line)


def margins(checks):
    return ", ".join(f"{name} {c.margin:.2e}" for name, c in checks.items())


def test_criterion_01_rate_constant_anchors(acceptance_lines):
    budget = 1.0
    t0 = time.perf_counter()
    checks = c_alpha_table([0.5, 0.6, 0.75, 1.0, 1.5, 2.0, 4.0, 8.0, "inf"])["checks"]
    elapsed = time.perf_counter() - t0
    ok = all(c.ok for c in checks.values()) and elapsed < budget
    record(acceptance_lines, 1, ok, elapsed, budget, f"margins: {margins(checks)}")
    assert ok


def test_criterion_02_rate_bound_soundness_sweep(acceptance_lines):
    budget = 300.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    samples = []
    n_inst = 200
    alphas = [0.5, 0.75, 1.0, 2.0, math.inf]
    for _ in range(n_inst):
        h, v, state = random_dense_instance(rng, dim_cap=256, max_local=16)
        t = float(rng.uniform(0.05, 1.2))
        samples += measure_rate_profile(h, state, Cut.of([0], 2), alphas, [t], v_ab=v)
    rates = rate_bound_check(samples)
    elapsed = time.perf_counter() - t0
    ok = rates.ok and elapsed < budget
    record(acceptance_lines, 2, ok, elapsed, budget,
           f"{n_inst} instances x {len(alphas)} orders, least margin {rates.margin:.3e} "
           f"at slack 1e-4, {sum(s.kink for s in samples)} kink points included")
    assert ok


def test_criterion_03_saturation_protocol(acceptance_lines):
    budget = 10.0
    t0 = time.perf_counter()
    dyn = build_saturation_dynamics(4, 1.0, 10)
    e_half = dyn.protocol_entropy_half(1.0)
    floor = dyn.rate_floor_check([1.0])
    big = build_saturation_dynamics(4, 1.0, 1000)
    ratio = big.average_rate(1.0) / (2.0 * 4.0)
    elapsed = time.perf_counter() - t0
    ok = (abs(e_half - 6.40402) <= 1e-4 and dyn.in_window(1.0) and floor.ok
          and abs(ratio - 1.0) <= 0.02 and elapsed < budget)
    record(acceptance_lines, 3, ok, elapsed, budget,
           f"E_half={e_half:.6f}, avg rate={dyn.average_rate(1.0):.4f}, "
           f"floor margin {floor.margin:.4f}, n=1000 rate ratio={ratio:.6f}")
    assert ok


def test_criterion_04_below_threshold_growth(acceptance_lines):
    budget = 10.0
    t0 = time.perf_counter()
    d_grid = [16, 64, 256, 1024]
    reps = [unbounded_experiment(build_unbounded_dynamics(d0, 1.0, 1.0), [0.25])
            for d0 in d_grid]
    entropies = [rep["rows"][0]["entropy"] for rep in reps]
    caps = [rep["checks"]["half_order_below_cap"] for rep in reps]
    slope = float(np.polyfit(np.log(d_grid), entropies, 1)[0])
    elapsed = time.perf_counter() - t0
    ok = 0.60 <= slope <= 1.0 and all(c.ok for c in caps) and elapsed < budget
    record(acceptance_lines, 4, ok, elapsed, budget,
           f"slope={slope:.5f} in [0.60, 1.00] (theory 2/3), "
           f"order-1/2 cap least margin {min(c.margin for c in caps):.3e}")
    assert ok


def test_criterion_05_strength_search_targets(acceptance_lines):
    budget = 60.0
    t0 = time.perf_counter()
    pump = build_saturation_dynamics(4, 1.0, 1)
    pump_est = se_lower_search(pump.v, seeds=6, iterations=400, seed=0)
    proj_est = se_lower_search(build_ising_projector_interaction(3),
                               seeds=4, iterations=200, seed=0)
    swap_est = se_lower_search(build_swap_interaction(), seeds=6, iterations=300, seed=0)
    checks = named_strength_checks(pump, pump_est.lower, proj_est.lower, swap_est.lower)
    elapsed = time.perf_counter() - t0
    ok = all(c.ok for c in checks.values()) and elapsed < budget
    record(acceptance_lines, 5, ok, elapsed, budget,
           f"margins: {margins(checks)}, swap lower={swap_est.lower:.8f}")
    assert ok


def test_criterion_06_filter_inequalities_sweep(acceptance_lines):
    budget = 300.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    ops = []
    worst_strength = math.inf
    n_inst = 100
    for i in range(n_inst):
        h, v, (da, db) = random_gapped_instance(rng)
        beta = float(rng.uniform(0.5, 2.5))
        k = build_agsp(h, beta)
        ops.append(k)
        op = BipartiteOperator((da,), (db,), k.matrix)
        est = se_lower_search(op, seeds=3, iterations=80, seed=i)
        worst_strength = min(worst_strength, k.strength_cap(best_upper(v)) - est.lower)
    checks = agsp_checks(ops)
    elapsed = time.perf_counter() - t0
    ok = all(c.ok for c in checks.values()) and worst_strength >= -1e-8 and elapsed < budget
    record(acceptance_lines, 6, ok, elapsed, budget,
           f"{n_inst} instances, least margins: {margins(checks)}, strength {worst_strength:.2e}")
    assert ok


def test_criterion_07_evolution_certificate_soundness(acceptance_lines):
    budget = 600.0
    t0 = time.perf_counter()
    chain = build_long_range_ising(8, d=2, j0=1.0, eta=3.0, hx=0.4, hz=0.2)
    t = 0.5
    n_steps = default_step_count(chain.g, 8, t, eps_target=1.0)
    v = np.array([1.0, 1.0]) / math.sqrt(2.0)
    init = product_mps(8, d=2, local_vectors=[v] * 8)
    exact = expm(-1j * chain.dense() * t) @ to_dense(init).amps
    gnt = chain.g * 8 * t
    zeta_cap_want = math.exp(chain.boundary_strength_cap() * t + gnt ** 2 / n_steps)
    runs = []
    for d_cap in (32, 64, 128):
        out, cert = tdmrg_run(
            TdmrgConfig(chain=chain, t=t, n_steps=n_steps, d_cap=d_cap, initial=init)
        )
        err = float(np.linalg.norm(to_dense(out).amps - exact))
        runs.append((d_cap, err, cert, certificate_checks(cert, err)))
    elapsed = time.perf_counter() - t0
    least = {name: min(checks[name].margin for *_, checks in runs) for name in runs[0][3]}
    ok = (all(c.ok for *_, checks in runs for c in checks.values())
          and all(abs(cert.zeta_cap - zeta_cap_want) <= 1e-9 * zeta_cap_want
                  for _, _, cert, _ in runs)
          and elapsed < budget)
    record(acceptance_lines, 7, ok, elapsed, budget,
           "; ".join(f"D={d_cap}: err {err:.3e} <= bound {cert.final_bound:.3e}"
                     for d_cap, err, cert, _ in runs)
           + f"; zeta cap {zeta_cap_want:.4f}; least margins "
           + ", ".join(f"{name} {m:.3g}" for name, m in least.items()))
    assert ok


def test_criterion_08_compressibility_of_evolved_state(acceptance_lines):
    budget = 120.0
    t0 = time.perf_counter()
    chain = build_long_range_ising(8, d=2, j0=1.0, eta=3.0, hx=0.4, hz=0.2)
    init = basis_product_state((2,) * 8, (0,) * 8)
    out = state_mps_existence_check(chain, init, 0.5, [4, 16, 64])
    elapsed = time.perf_counter() - t0
    checks = out["checks"]
    ok = all(c.ok for c in checks.values()) and elapsed < budget
    errs = ", ".join(f"D={r['D']}: {r['err2']:.2e}<={r['bound']:.2e}" for r in out["rows"])
    record(acceptance_lines, 8, ok, elapsed, budget,
           f"{errs}; coefficient law margin {checks['coefficient_law'].margin:.3e}")
    assert ok


def test_criterion_09_width_floor_and_no_go(acceptance_lines):
    budget = 180.0
    t0 = time.perf_counter()
    fit = rank_constrained_identity_fit(2, 1)
    fit_err = abs(fit.value - 0.5)
    in_range = width_range_check([fit])
    halves_ok = True
    for n in (2, 3, 8, 16):
        a = np.ones((n, 1))
        b = np.full((1, n), 0.5)
        halves_ok = halves_ok and _max_abs(np.eye(n) - a @ b) == 0.5
    [out] = no_go_experiment(16, 1, [0.3], seeds=6, polish_iters=300)
    elapsed = time.perf_counter() - t0
    ok = (fit_err <= 1e-6 and in_range.ok and halves_ok and out["measured"] >= 0.095
          and elapsed < budget)
    record(acceptance_lines, 9, ok, elapsed, budget,
           f"identity fit(2,1) err={fit_err:.2e}, in-range margin {in_range.margin:.2e}, "
           f"all-halves witness exact={halves_ok}, "
           f"no-go measured={out['measured']:.6f} >= 0.095")
    assert ok


def test_criterion_10_merge_series_truncation(acceptance_lines):
    budget = 120.0
    t0 = time.perf_counter()
    h0_a = np.diag([0.0, 1.0]).astype(complex)
    h0_b = np.diag([0.0, 0.7]).astype(complex)
    v_terms = [0.5 * np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]),
                             np.array([[0.0, 1.0], [1.0, 0.0]]))]
    orders = (2, 3, 4)
    bound = {}
    sound = True
    window_ok = True
    for s0, m, q in product(orders, repeat=3):
        ms = build_merge_series(h0_a, h0_b, v_terms, 0.1j, s0, m, q,
                                kappa=1.0, d0=2, c0=1.0, q_param=2.0)
        window_ok = window_ok and abs(0.1j) <= 1.0 / ms.q0
        sound = sound and ms.error_check.ok
        bound[(s0, m, q)] = ms.error_bound
    monotone = True
    for s0, m, q in product(orders, repeat=3):
        for axis in range(3):
            nxt = [s0, m, q]
            nxt[axis] += 1
            if tuple(nxt) in bound:
                monotone = monotone and bound[tuple(nxt)] <= bound[(s0, m, q)] + 1e-15
    elapsed = time.perf_counter() - t0
    ok = sound and monotone and window_ok and elapsed < budget
    record(acceptance_lines, 10, ok, elapsed, budget,
           f"27 order combinations: measured<=bound={sound}, "
           f"bound monotone per order={monotone}, z inside window={window_ok}")
    assert ok


def test_criterion_11_desk_scale_property_checks(acceptance_lines):
    budget = 600.0
    t0 = time.perf_counter()
    chain = build_long_range_ising(8, d=2, j0=1.0, eta=3.0, hx=0.6, hz=0.2)
    ground = ground_tail_experiment(chain, 4, [1, 2, 4, 8, 16])
    tails = [r["tail2"] for r in ground["rows"]]
    ground_ok = (ground["checks"]["tails_below_cap"].ok
                 and all(a >= b - 1e-15 for a, b in zip(tails, tails[1:])))

    adiabatic = boundary_adiabatic_experiment(1.0, 0.3, epsilon=0.05, beta=4.0,
                                              d_grid=[1, 2, 4])
    adiabatic_ok = all(c.ok for c in adiabatic["checks"].values())

    thermal = gibbs_tail_experiment(
        build_long_range_ising(4, d=2, j0=1.0, eta=3.0, hx=0.5),
        betas=[0.0, 1.0, 2.0], d_grid=[1, 2, 4, 8],
    )
    # rows run over D (ascending) within each beta and cut
    rows = thermal["rows"]
    thermal_ok = thermal["checks"]["tails_below_cap"].ok and all(
        a["tail2"] >= b["tail2"] - 1e-18 for a, b in zip(rows, rows[1:])
        if (a["beta"], a["cut"]) == (b["beta"], b["cut"]))

    elapsed = time.perf_counter() - t0
    ok = ground_ok and adiabatic_ok and thermal_ok and elapsed < budget
    record(acceptance_lines, 11, ok, elapsed, budget,
           f"ground tails monotone+bounded={ground_ok}, "
           f"boundary path entropy capped={adiabatic_ok}, "
           f"thermal tails monotone in D={thermal_ok}, worst step in beta "
           f"{thermal['tail_growth_worst_step']:.2e} (reported, not checked)")
    assert ok


def test_criterion_12_selftest_passes(acceptance_lines, tmp_path):
    budget = 900.0
    from entspec.cli import selftest

    t0 = time.perf_counter()
    code = selftest(tmp_path / "selftest")
    elapsed = time.perf_counter() - t0
    ok = code == 0 and elapsed < budget
    record(acceptance_lines, 12, ok, elapsed, budget, f"exit code {code}")
    assert ok


def test_criterion_13_certified_evolution_that_truncates(acceptance_lines):
    # criterion 07's chain and start at caps below the exact bond of 16, so
    # the discard half sqrt(2n) * sum(delta) of the bound is exercised
    budget = 10.0
    t0 = time.perf_counter()
    chain = build_long_range_ising(8, d=2, j0=1.0, eta=3.0, hx=0.4, hz=0.2)
    t = 0.25
    n_steps = default_step_count(chain.g, 8, t, eps_target=0.5)
    v = np.array([1.0, 1.0]) / math.sqrt(2.0)
    init = product_mps(8, d=2, local_vectors=[v] * 8)
    exact = expm(-1j * chain.dense() * t) @ to_dense(init).amps
    runs = []
    for d_cap in (2, 4):
        out, cert = tdmrg_run(
            TdmrgConfig(chain=chain, t=t, n_steps=n_steps, d_cap=d_cap, initial=init)
        )
        err = float(np.linalg.norm(to_dense(out).amps - exact))
        discarded = sum(s.delta_bar for s in cert.steps)
        runs.append((d_cap, err, cert, discarded, certificate_checks(cert, err)))
    elapsed = time.perf_counter() - t0
    ok = (all(c.ok for *_, checks in runs for c in checks.values())
          and all(discarded > 1e-8 for *_, discarded, _ in runs)
          and elapsed < budget)
    record(acceptance_lines, 13, ok, elapsed, budget,
           f"{n_steps} steps; "
           + "; ".join(f"D={d_cap}: err {err:.3e} <= bound {cert.final_bound:.3e}, "
                       f"sum delta {discarded:.2e}, discard share "
                       f"{math.sqrt(2 * 8) * discarded / cert.final_bound:.1%}, least margin "
                       f"{min(c.margin for c in checks.values()):.3g}"
                       for d_cap, err, cert, discarded, checks in runs))
    assert ok
