"""Benchmark runner for entspec.

    python3 bench/run.py --workload {evolve,sweep,rates,registry} --seed N
                         --seconds S --trace {0,1}

Run it from the repository root. With ``--trace 0`` it measures the
end-to-end metrics with tracing off, with times calibrated to a reference
machine speed (see ``calibration.py``); with ``--trace 1`` it runs one pass
untraced and one pass traced and reports the per-layer metrics. Every output
is checked (see ``workloads.py``). The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the machine block, latency percentiles and any failed checks go
to the lines before it and to ``bench/results/``.
"""

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORKLOAD_NAMES = ("evolve", "sweep", "rates", "registry")
# BLAS and OpenMP read these when they load, so they are set before numpy is
# imported. One thread: the instances are small and the machine is shared.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 3  # this process plus two fresh probe processes
PROBE_TIMEOUT_S = 120

END_TO_END = {"items_per_s": "items/s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name):
    for suffix, unit in ((".calls", "count"), (".self_s", "s"), ("_ratio", "ratio"),
                         ("_share", "ratio"), (".max_bond_in", "bond"),
                         (".discarded_weight", "weight"), (".nodes_used", "nodes/call"),
                         (".bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


@dataclass
class Measurement:
    items: int = 0
    timed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    runs: list = field(default_factory=list)  # completed: (key, items, t0, t1, seconds)
    calibration: object = None

    def by_unit(self, calibrated):
        """Unit key -> (items, [seconds of each run]); calibrated times are
        scaled to the reference machine speed at the time they ran."""
        out = {}
        for key, items, t0, t1, dt in self.runs:
            if calibrated:
                dt *= self.calibration.factor(t0, t1)
            out.setdefault(key, (items, []))[1].append(dt)
        return out

    def items_per_s(self, calibrated=False):
        """Items per second of one pass over the distinct inputs run, each
        input timed as the median of its repeats: a burst of load from
        elsewhere on the machine moves a median less than a sum."""
        by_unit = self.by_unit(calibrated)
        items = sum(n for n, _ in by_unit.values())
        return items / sum(statistics.median(ts) for _, ts in by_unit.values())


def measure(workload, units, gate, seconds=None, calibration=None):
    """Run the units in order, cycling.

    With `seconds` None, run exactly one pass. Otherwise run at least one
    pass, then go on while the next unit, at the time its last run took,
    still ends within `seconds`. Only the library calls are timed; checks
    run between them. With a `Calibration`, its kernel runs a few times a
    second throughout, and its time is taken out of the units' times.
    """
    m = Measurement(calibration=calibration)
    with calibration or contextlib.nullcontext():
        _cycle(m, workload, units, gate, seconds, calibration)
    return m


def _cycle(m, workload, units, gate, seconds, calibration):
    n = len(units)
    last = {}
    for i in itertools.count():
        unit = units[i % n]
        if i >= n and (seconds is None or m.timed_s + last[unit.key] > seconds):
            break
        spent = calibration.spent if calibration else 0.0
        t0 = time.perf_counter()
        try:
            raw = workload.run(unit)
            completed = True
        except Exception:
            completed = False
            problems = [traceback.format_exc(limit=3)]
        t1 = time.perf_counter()
        dt = t1 - t0
        if calibration:
            dt -= calibration.spent - spent
        last[unit.key] = dt
        m.timed_s += dt
        m.latencies.append(dt)
        m.attempted += unit.items
        if completed:
            m.items += unit.items
            m.runs.append((unit.key, unit.items, t0, t1, dt))
            try:
                problems = gate.problems(unit, workload.record(unit, raw))
            except Exception:
                problems = [traceback.format_exc(limit=3)]
        if problems:
            m.failed += unit.items
            m.problems.append({"unit": unit.key, "problems": problems})


def latency_summary(latencies):
    """Median and the highest whole percentile with at least ten samples
    beyond it (p90 from 100 samples on), with the sample count."""
    xs = sorted(latencies)
    n = len(xs)
    out = {"samples": n, "item_p50_s": statistics.median(xs)}
    level = min(90, math.floor(100 - 1000 / n))
    if level > 50:
        out[f"item_p{level}_s"] = xs[math.ceil(level * n / 100) - 1]
    return out


def machine_block():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        git_sha = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        git_sha = "unknown (git not available)"
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "entspec").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if k in blas},
        "blas_threads": 1,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
    }


def setup_probe(workload, seed):
    """Set-up time of a fresh process: interpreter import through inputs."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def parse_args(argv):
    ap = argparse.ArgumentParser(description="entspec benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "entspec" / "__init__.py").is_file():
        print(f"error: entspec sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.chdir(ROOT)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    t0 = time.perf_counter()
    import calibration
    import entspec
    import tracer as tracing
    import workloads

    if Path(entspec.__file__).resolve().parent != SRC / "entspec":
        print(f"error: imported entspec from {entspec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    trace = tracing.Tracer()
    if args.trace:
        with trace:
            units = wl.setup(args.seed)
    else:
        units = wl.setup(args.seed)
    gate = workloads.Gate(wl, workloads.load_reference(wl.name, args.seed))
    own_setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0

    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "item": wl.item, "machine": machine_block()}
    if args.trace:
        plain = measure(wl, units, gate)
        first = len(trace.spans)
        with trace:
            traced = measure(wl, units, gate)
        values = tracing.layer_metrics(trace)
        values["trace.overhead_ratio"] = traced.items_per_s() / plain.items_per_s()
        values["trace.target_share"] = tracing.target_share(trace, first, wl.targets,
                                                            traced.timed_s)
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
        runs = [plain, traced]
    else:
        samples = [own_setup_s] + [setup_probe(wl.name, args.seed)
                                   for _ in range(SETUP_SAMPLES - 1)]
        m = measure(wl, units, gate, args.seconds, calibration.Calibration(wl.sensitivity))
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Set-up ran just before the timed phase, so the machine speed of the
        # whole timed phase calibrates it; a few kernel runs beside each
        # sample track it less well than the hundred of the timed phase.
        factor = m.calibration.factor()
        values = {"items_per_s": m.items_per_s(calibrated=True),
                  "setup_s": statistics.median(samples) * factor,
                  "peak_rss_mb": peak_kb / 1024.0}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        report["setup_samples_s"] = samples
        report["uncalibrated_items_per_s"] = m.items_per_s()
        report["speed_factor"] = factor
        report["sensitivity"] = wl.sensitivity
        report["unit_runs"] = [[key, dt, m.calibration.speed(t0, t1)]
                               for key, _, t0, t1, dt in m.runs]
        report["timed_s"] = m.timed_s
        report["items"] = m.items
        if wl.latency:
            report["latency"] = latency_summary(m.latencies)
        runs = [m]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    report["fail_ratio"] = failed / attempted
    report["problems"] = [p for r in runs for p in r.problems][:50]
    report["metrics"] = metrics

    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if args.trace:
        trace.write(RESULTS_DIR / f"{stem}-spans.jsonl")

    print(f"workload {wl.name} seed {args.seed} trace {args.trace} (items: {wl.item})")
    print("machine " + json.dumps(report["machine"]))
    if "latency" in report:
        print("latency " + json.dumps(report["latency"]))
    for p in report["problems"][:5]:
        print(f"FAILED {p['unit']}: {p['problems']}")
    print(f"fail_ratio {report['fail_ratio']} ({failed}/{attempted})")
    if "speed_factor" in report:
        print(f"uncalibrated items_per_s {report['uncalibrated_items_per_s']} items/s, "
              f"speed factor {report['speed_factor']}")
    for k, v in metrics.items():
        print(f"{k} {v['value']} {v['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
