"""Tests of the benchmark itself: the output gate bites, and the runner
prints exactly the metrics that BENCHMARK.json declares.

    python3 -m pytest bench/tests
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

SEED = workloads.DEFAULT_SEED


@pytest.fixture(scope="module")
def sweep():
    """The sweep workload and the first three inputs of its default seed."""
    wl = workloads.WORKLOADS["sweep"]
    return wl, wl.setup(SEED)[:3]


def fail_ratio(m):
    return m.failed / m.attempted


def test_stored_reference_passes(sweep):
    wl, units = sweep
    m = run.measure(wl, units, workloads.Gate(wl, workloads.load_reference("sweep", SEED)))
    assert m.attempted == 3
    assert fail_ratio(m) == 0, m.problems


def test_perturbed_reference_value_is_a_failure(sweep):
    wl, units = sweep
    ref = copy.deepcopy(workloads.load_reference("sweep", SEED))
    ref[units[1].key]["lower"] *= 1.0 + 1e-3
    m = run.measure(wl, units, workloads.Gate(wl, ref))
    assert m.failed == 1
    assert fail_ratio(m) > 0
    assert m.problems[0]["unit"] == units[1].key


def test_perturbed_output_is_a_failure(sweep):
    wl, units = sweep

    class Perturbed(type(wl)):
        def record(self, unit, raw):
            rec = super().record(unit, raw)
            if unit.key == units[0].key:
                rec["upper"] += 1e-3
            return rec

    m = run.measure(Perturbed(), units, workloads.Gate(wl, workloads.load_reference("sweep", SEED)))
    assert m.failed == 1
    assert fail_ratio(m) > 0


def test_invariant_is_checked_without_a_reference(sweep):
    wl, units = sweep

    class Inverted(type(wl)):
        def record(self, unit, raw):
            rec = super().record(unit, raw)
            rec["lower"] = rec["upper"] + 1.0
            return rec

    m = run.measure(Inverted(), units[:1], workloads.Gate(wl, None))
    assert fail_ratio(m) == 1.0


def test_repeated_input_must_repeat_its_output(sweep):
    wl, units = sweep
    calls = []

    class Drifting(type(wl)):
        def record(self, unit, raw):
            rec = super().record(unit, raw)
            calls.append(unit.key)
            rec["nodes_used"] += len(calls) > 1
            return rec

    gate = workloads.Gate(wl, None)
    assert run.measure(Drifting(), units[:1], gate).failed == 0
    assert run.measure(Drifting(), units[:1], gate).failed == 1


def test_raising_unit_is_a_failure(sweep):
    wl, units = sweep

    class Raising(type(wl)):
        def run(self, unit):
            raise ValueError("injected")

    m = run.measure(Raising(), units[:2], workloads.Gate(wl, None))
    assert (m.attempted, m.failed, m.items) == (2, 2, 0)


@pytest.fixture(scope="module")
def rates_output():
    """Last stdout line of a short `rates` run, by trace flag."""
    out = {}
    for trace in (0, 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "rates", "--seed", "1",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        out[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(rates_output, trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = rates_output[trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec[section]]
    for m in spec[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_traced_rates_loads_its_layers_and_bypasses_the_rest(rates_output):
    metrics = {k: v["value"] for k, v in rates_output[1]["metrics"].items()}
    assert metrics["trace.target_share"] > 0.5
    assert metrics["dynamics.propagator.calls"] == 200
    assert metrics["se_strength.best_upper.calls"] == 200
    assert metrics["se_strength.lower_search.calls"] == 0
    assert all(v == 0 for k, v in metrics.items() if k.startswith("mps.") and k.endswith(".calls"))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rates", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
