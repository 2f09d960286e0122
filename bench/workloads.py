"""The benchmark's four workloads.

Each workload turns a seed into inputs (``setup``), runs one unit of work on
them (``run``), reduces the raw output to a JSON record outside the timed
region (``record``), and checks that record (``check``): invariants always,
and the stored reference of the default seed when there is one. The library
only ever sees the generated inputs.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from entspec import (
    BipartiteOperator,
    Cut,
    TdmrgConfig,
    best_upper,
    build_agsp,
    build_long_range_ising,
    default_step_count,
    measure_rate_profile,
    product_mps,
    random_dense_instance,
    random_gapped_instance,
    se_lower_search,
    tdmrg_run,
    to_dense,
)
from entspec import cli

BENCH_DIR = Path(__file__).resolve().parent
REF_DIR = BENCH_DIR / "refs"
WORK_DIR = Path("bench") / ".work"
DEFAULT_SEED = 7


class Workload:
    """What every workload shares. Each one also names its `item`, whether
    per-item `latency` is reported, the comparison `tol`, the layer-name
    `targets` its traced time should go to, the `reference_fields` kept in
    its stored reference, and the `sensitivity` of its time to machine speed
    that calibrates it (see `calibration.py`).

    The sensitivities are slopes of the log of a workload's time on the log
    of the calibration kernel's, rounded to a quarter. On a 2-core Xeon, over
    5-second windows (single units for evolve) of 100-150 s runs they were
    0.9 (sweep), 0.8 (registry), 0.7 (rates) and 0.5 (evolve). The kernel is
    small and core-bound; evolve spends a fifth of its time in page faults,
    at cap 128, on arrays larger than the core's cache, and a faster core
    speeds it up less.
    """

    seed_sets_inputs = True


@dataclass
class Unit:
    key: str
    items: int
    payload: object


def close(a, b, tol):
    """Recursive comparison: numbers within tol (relative above 1), all else equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k], tol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= tol * max(1.0, abs(b))
    return a == b


def compare_reference(record, ref, tol):
    """Problems where `record` departs from the stored reference `ref`."""
    return [f"{k}: {record.get(k)!r} != reference {v!r}"
            for k, v in ref.items() if not close(record.get(k), v, tol)]


class Gate:
    """Output-correctness gate: invariants, the stored reference of the
    default seed, and exact repetition of a unit run twice in one process
    (within the workload's tolerance)."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.first = {}

    def problems(self, unit, rec):
        wl = self.workload
        found = wl.check(rec)
        if self.reference is not None:
            found += compare_reference(rec, self.reference[unit.key], wl.tol)
        if unit.key not in self.first:
            self.first[unit.key] = rec
        elif not close(rec, self.first[unit.key], wl.tol):
            found.append("differs from the first run of the same input")
        return found


def stratified_pool(draw, stratum, quotas, max_draws):
    """Draw from the generator until every stratum holds its quota, then
    interleave so that every prefix keeps the strata in proportion.

    Fixing how many inputs fall in each size class keeps the amount of work
    per input steady from seed to seed; the seed still sets every matrix.
    """
    held = {k: [] for k in quotas}
    draws = 0
    while any(len(held[k]) < q for k, q in quotas.items()):
        if draws == max_draws:
            raise RuntimeError(f"strata not filled after {max_draws} draws")
        draws += 1
        inst = draw()
        k = stratum(inst)
        if len(held[k]) < quotas[k]:
            held[k].append(inst)
    order = [((j + 0.5) / quotas[k], i, k, j)
             for i, k in enumerate(sorted(quotas)) for j in range(quotas[k])]
    return [held[k][j] for _, _, k, j in sorted(order)]


class Evolve(Workload):
    """Certified truncated evolution on the criterion-07 chain at two caps."""

    name = "evolve"
    item = "evolution steps"
    latency = False
    sensitivity = 0.5
    tol = 1e-10
    targets = ("mps.", "tdmrg.")
    reference_fields = ("final_bound", "zeta_cap", "naive_bound", "dense_error", "final_norm")
    caps = (8, 128)
    t = 0.5

    def setup(self, seed):
        chain = build_long_range_ising(8, d=2, j0=1.0, eta=3.0, hx=0.4, hz=0.2)
        n_steps = default_step_count(chain.g, 8, self.t, eps_target=1.0)
        rng = np.random.default_rng(seed)
        vecs = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        init = product_mps(8, d=2, local_vectors=list(vecs))
        exact = expm(-1j * chain.dense() * self.t) @ to_dense(init).amps
        return [
            Unit(f"d_cap={cap}", n_steps,
                 (TdmrgConfig(chain=chain, t=self.t, n_steps=n_steps, d_cap=cap,
                              initial=init), exact))
            for cap in self.caps
        ]

    def run(self, unit):
        return tdmrg_run(unit.payload[0])

    def record(self, unit, raw):
        out, cert = raw
        amps = to_dense(out).amps
        return {
            "final_bound": cert.final_bound,
            "zeta_cap": cert.zeta_cap,
            "naive_bound": cert.naive_bound,
            "dense_error": float(np.linalg.norm(amps - unit.payload[1])),
            "final_norm": float(np.linalg.norm(amps)),
            "zeta_max": max(s.zeta for s in cert.steps),
        }

    def check(self, rec):
        problems = []
        if rec["dense_error"] > rec["final_bound"] + 1e-12:
            problems.append(f"dense error {rec['dense_error']} above certificate {rec['final_bound']}")
        if rec["zeta_max"] > rec["zeta_cap"] + 1e-9:
            problems.append(f"zeta {rec['zeta_max']} above zeta_cap {rec['zeta_cap']}")
        return problems


class Sweep(Workload):
    """Criterion-06 instances: filtered projector, strength search, upper bound."""

    name = "sweep"
    item = "instances"
    latency = True
    sensitivity = 1.0
    tol = 1e-7
    targets = ("se_strength.", "agsp_arealaw.")
    reference_fields = ("lower", "upper", "defect_ground", "defect_excited", "defect_bound",
                        "strength_cap", "nodes_used")
    per_shape = 4
    shapes = [(da, db) for da in range(2, 9) for db in range(2, 9)]

    def setup(self, seed):
        rng = np.random.default_rng(seed)

        def draw():
            h, v, (da, db) = random_gapped_instance(rng)
            return h, v, da, db

        pool = stratified_pool(draw, lambda inst: (inst[2], inst[3]),
                               {s: self.per_shape for s in self.shapes}, 20000)
        betas = rng.uniform(0.5, 2.5, len(pool))
        return [Unit(f"instance={i}", 1, (*inst, float(b), i))
                for i, (inst, b) in enumerate(zip(pool, betas))]

    def run(self, unit):
        h, v, da, db, beta, seed = unit.payload
        k = build_agsp(h, beta)
        op = BipartiteOperator((da,), (db,), k.matrix)
        est = se_lower_search(op, seeds=3, iterations=80, seed=seed)
        return k, est, best_upper(v)

    def record(self, unit, raw):
        k, est, v_upper = raw
        return {
            "lower": est.lower,
            "upper": est.upper,
            "defect_ground": k.defect_ground,
            "defect_excited": k.defect_excited,
            "defect_bound": k.defect_bound,
            "strength_cap": k.strength_cap(v_upper),
            "nodes_used": k.nodes_used,
        }

    def check(self, rec):
        problems = []
        if rec["lower"] > rec["upper"] + 1e-9:
            problems.append(f"lower {rec['lower']} above upper {rec['upper']}")
        if rec["defect_ground"] > rec["defect_bound"] + 1e-8:
            problems.append(f"ground defect {rec['defect_ground']} above {rec['defect_bound']}")
        if rec["defect_excited"] > 2.0 * rec["defect_bound"] + 1e-8:
            problems.append(f"excited defect {rec['defect_excited']} above 2x{rec['defect_bound']}")
        if rec["lower"] > rec["strength_cap"] + 1e-8:
            problems.append(f"lower {rec['lower']} above strength cap {rec['strength_cap']}")
        return problems


class Rates(Workload):
    """Criterion-02 instances: entropy-rate profiles at five orders."""

    name = "rates"
    item = "instances"
    latency = True
    sensitivity = 0.75
    tol = 1e-7
    targets = ("dynamics.", "spectra.", "se_strength.best_upper")
    reference_fields = ("samples",)
    pool_size = 200
    n_bins = 16
    alphas = (0.5, 0.75, 1.0, 2.0, math.inf)

    def _bins(self):
        """Equal-probability bins of da * db under the generator's uniform
        choice of da, db in [2, 16], with proportional quotas."""
        sizes = sorted(da * db for da in range(2, 17) for db in range(2, 17))
        edges = [sizes[len(sizes) * k // self.n_bins] for k in range(1, self.n_bins)]
        counts = [0] * self.n_bins
        for n in sizes:
            counts[bisect_right(edges, n)] += 1
        shares = [self.pool_size * c / len(sizes) for c in counts]
        quotas = [math.floor(x) for x in shares]
        by_remainder = sorted(range(self.n_bins), key=lambda b: quotas[b] - shares[b])
        for b in by_remainder[:self.pool_size - sum(quotas)]:
            quotas[b] += 1
        return edges, {b: q for b, q in enumerate(quotas) if q}

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        edges, quotas = self._bins()
        pool = stratified_pool(lambda: random_dense_instance(rng, dim_cap=256, max_local=16),
                               lambda inst: bisect_right(edges, inst[1].dim_a * inst[1].dim_b),
                               quotas, 20000)
        times = rng.uniform(0.05, 1.2, len(pool))
        return [Unit(f"instance={i}", 1, (*inst, float(t)))
                for i, (inst, t) in enumerate(zip(pool, times))]

    def run(self, unit):
        h, v, state, t = unit.payload
        return measure_rate_profile(h, state, Cut.of([0], 2), self.alphas, [t], v_ab=v)

    def record(self, unit, raw):
        return {"samples": [[s.rate, s.bound, s.kink] for s in raw]}

    def check(self, rec):
        return [f"margin {bound - abs(rate)} below -1e-4 at order index {i}"
                for i, (rate, bound, kink) in enumerate(rec["samples"])
                if not kink and bound - abs(rate) < -1e-4]


class Registry(Workload):
    """All REGISTRY experiments at their defaults through the CLI entry point.

    Every run uses the defaults at experiment seed 7: the cost of some
    experiments (se-search draws its instance sizes) moves fourfold with
    their seed, which would drown any change in the code. The benchmark seed
    sets the order of the experiments in a pass instead, so no result may
    depend on what ran before it.
    """

    name = "registry"
    item = "experiments"
    latency = False
    sensitivity = 0.75
    tol = 0.0
    targets = ("",)
    reference_fields = ("exit_code", "all_checks_pass", "results_sha256")
    experiment_seed = DEFAULT_SEED
    seed_sets_inputs = False

    def setup(self, seed):
        names = list(cli.REGISTRY)
        random.Random(seed).shuffle(names)
        units = []
        for name in names:
            cfg = WORK_DIR / "registry" / "config" / f"{name}.json"
            out = WORK_DIR / "registry" / "out" / name
            cfg.parent.mkdir(parents=True, exist_ok=True)
            cfg.write_text(json.dumps({"experiment": name, "seed": self.experiment_seed}))
            units.append(Unit(name, 1, (cfg, out)))
        return units

    def run(self, unit):
        cfg, out = unit.payload
        for stale in ("results.csv", "summary.json"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(out / stale)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["run", str(cfg), "--out", str(out), "--threads", "1"])

    def record(self, unit, raw):
        _, out = unit.payload
        summary = json.loads((out / "summary.json").read_text())
        # wall_time_s is the one field that differs between reruns (an open
        # defect of the CLI); the rest of the summary must repeat exactly.
        summary.pop("wall_time_s")
        return {
            "exit_code": raw,
            "all_checks_pass": summary["all_checks_pass"],
            "results_sha256": hashlib.sha256((out / "results.csv").read_bytes()).hexdigest(),
            "summary_sha256": hashlib.sha256(
                json.dumps(summary, sort_keys=True).encode()).hexdigest(),
        }

    def check(self, rec):
        problems = []
        if rec["exit_code"] != 0:
            problems.append(f"exit code {rec['exit_code']}")
        if not rec["all_checks_pass"]:
            problems.append("all_checks_pass is false")
        return problems


WORKLOADS = {w.name: w for w in (Evolve(), Sweep(), Rates(), Registry())}


def load_reference(workload, seed):
    """Stored records for the default seed's inputs; None for inputs
    without one."""
    if seed != DEFAULT_SEED and WORKLOADS[workload].seed_sets_inputs:
        return None
    return json.loads((REF_DIR / f"{workload}.json").read_text())["records"]
