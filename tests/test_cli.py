"""End-to-end runner checks: exit codes, artifact formats, determinism."""

import ast
import csv
import dataclasses
import json
import math
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entspec.cli as cli
from entspec import (
    SeEstimate, adiabatic_evolve, agsp_arealaw, build_nearest_neighbor_chain, dynamics, lowrank,
    tdmrg_run,
)
from entspec.lowrank import WidthResult
from entspec.cli import REGISTRY, ConfigError, main, selftest, validate_config
from entspec.spectra import check

PUBLISHED = [
    "sie-rate", "c-alpha-table", "saturate", "unbounded", "toy", "se-search",
    "agsp", "ground-tail", "area-law", "tdmrg", "mps-exist", "gibbs-tail",
    "kolmogorov", "no-go", "merge-series",
]

# Sizes out of range, or a chain kind no builder knows
BAD_SIZES = [
    {"experiment": "tdmrg", "params": {"d_cap": 0}},
    {"experiment": "saturate", "params": {"n_pairs": 0}},
    {"experiment": "kolmogorov", "params": {"pairs": [[4, 8]]}},
    {"experiment": "ground-tail", "params": {"chain": "other"}},
    {"experiment": "ground-tail", "params": {"d_grid": [0]}},
    {"experiment": "no-go", "params": {"d": 0}},
    {"experiment": "merge-series", "params": {"da": 0}},
    {"experiment": "merge-series", "params": {"db": 0}},
    # more than 65,536 crossing pairs at d 2
    {"experiment": "decomposition", "params": {"n": 513, "cut": 256}},
    {"experiment": "decomposition", "params": {"n": 65538, "cut": 1}},
    # a spectrum of more than 2**22 + 1 levels
    {"experiment": "unbounded", "params": {"d0": 4194305}},
]

# List entries unlike the default's, an empty list, or a cut outside 1..n-1
BAD_VALUES = [
    {"experiment": "saturate", "params": {"times": ["a"]}},
    {"experiment": "toy", "params": {"alphas": ["x"]}},
    {"experiment": "sie-rate", "params": {"alphas": ["inf"]}},
    {"experiment": "c-alpha-table", "params": {"alphas": []}},
    {"experiment": "ground-tail", "params": {"d_grid": []}},
    {"experiment": "ground-tail", "params": {"cut": 0}},
    {"experiment": "ground-tail", "params": {"n": 6}, "grid": [{"cut": 3}, {"cut": 6}]},
    {"experiment": "decomposition", "params": {"cut": 0}},
    {"experiment": "decomposition", "params": {"cut": 10}},
    # values outside the range where the experiment's formulas hold
    {"experiment": "saturate", "params": {"times": [0]}},
    {"experiment": "saturate", "params": {"j": 0}},
    {"experiment": "toy", "params": {"times": [0]}},
    {"experiment": "area-law", "params": {"epsilon": 0}},
    {"experiment": "area-law", "params": {"beta": 0}},
    {"experiment": "area-law", "params": {"coupling": 0.0}},
    {"experiment": "unbounded", "params": {"d0": 1}},
    {"experiment": "truncation-params", "params": {"kappa": 0}},
    {"experiment": "merge-series", "params": {"kappa": 0}},
    {"experiment": "c-alpha-table", "params": {"alphas": [0.3]}},
    {"experiment": "saturate", "grid": [{"times": [0.5]}, {"times": [0.5, 0]}]},
    # J*t <= 1 spans two params, so it is checked on every merged grid point
    {"experiment": "unbounded", "params": {"t": 2.0}},
    {"experiment": "unbounded", "params": {"j": 0.5}, "grid": [{"t": 2.0}, {"t": 2.5}]},
    # values that hung or ended in a traceback: no 2 x 2 instance fits under a
    # dim_cap of 3, and the closed forms take logs and roots of j, t and eps
    {"experiment": "se-search", "params": {"dim_cap": 3}},
    {"experiment": "sie-rate", "params": {"dim_cap": 0}},
    {"experiment": "unitary-growth", "params": {"dim_cap": -1}},
    {"experiment": "unbounded", "params": {"j": 0}},
    {"experiment": "unbounded", "params": {"t": -1}},
    {"experiment": "agsp", "params": {"betas": [-1]}},
    {"experiment": "tdmrg", "params": {"n_steps": -1}},
    {"experiment": "tdmrg", "params": {"eps_target": 0}},
    {"experiment": "merge-series", "params": {"d0": 0}},
    {"experiment": "merge-series", "params": {"c0": 0}},
    {"experiment": "merge-series", "params": {"q_param": -1}},
    {"experiment": "truncation-params", "params": {"d0": 0}},
    {"experiment": "truncation-params", "params": {"eps0": 0}},
    {"experiment": "truncation-params", "params": {"durations": [0.5, -1.0]}},
    {"experiment": "gibbs-tail", "params": {"chain": "nearest"}},
    {"experiment": "decomposition", "params": {"chain": "nearest"}},
    {"experiment": ["a"]},
    # settings that could not change a run are gone: an explicit step count
    # is one a derived count reaches or a too coarse one, each experiment has
    # its one chain, and a one-site field crosses no cut
    {"experiment": "tdmrg", "params": {"n_steps": 200}},
    {"experiment": "tdmrg", "params": {"chain": "nearest"}},
    {"experiment": "mps-exist", "params": {"chain": "nearest"}},
    {"experiment": "decomposition", "params": {"hx": 0.5}},
    {"experiment": "decomposition", "params": {"hz": 0.5}},
    # values that exited 1 on a failed check or invariant, and a bool seed that ran
    {"experiment": "ground-tail", "params": {"eta": 2}},
    {"experiment": "sie-rate", "params": {"alphas": [0]}},
    {"experiment": "unbounded", "params": {"alphas": [0.25, -1]}},
    {"experiment": "agsp", "params": {"betas": [0]}},
    {"experiment": "mps-exist", "params": {"t": -1}},
    {"experiment": "unitary-growth", "params": {"times": [0.1, -1]}},
    {"experiment": "saturate", "seed": True},
    # a float param takes a finite number
    {"experiment": "unbounded", "params": {"j": 10 ** 400}},
    {"experiment": "sie-rate", "params": {"times": [float("nan")]}},
    # each value the config gives is checked, even one every grid point overrides
    {"experiment": "saturate", "params": {"times": [0]}, "grid": [{"times": [0.5]}]},
    # sizes that passed validation and then ran out of float range or memory:
    # bin 0 ending at 4^1000, 500,001 bins of 16 x 16, and 100000 x 100000 fits
    {"experiment": "merge-series", "params": {"kappa": 0.001}},
    {"experiment": "merge-series", "params": {"kappa": 1e6}},
    {"experiment": "kolmogorov", "params": {"pairs": [[100000, 1]]}},
    {"experiment": "no-go", "params": {"n": 100000}},
    # 2.8e10 steps that never finished once the dense comparison was off
    {"experiment": "tdmrg", "params": {"compare_dense": False, "n": 100000}},
    # step counts past float range: g inf at j0 1e308, g*n*t/eps_target inf
    {"experiment": "tdmrg", "params": {"j0": 1e308}},
    {"experiment": "tdmrg", "params": {"eps_target": 1e-320}},
    # sizes that passed validation and then exited 1 on the dense-matrix guard:
    # the dense chain matrix has d**n rows
    {"experiment": "mps-exist", "params": {"n": 13}},
    {"experiment": "gibbs-tail", "params": {"n": 13}},
    {"experiment": "gibbs-tail", "params": {"n": 7, "d": 4}},
    {"experiment": "mps-exist", "params": {"n": 12}, "grid": [{"d": 2}, {"d": 3}]},
    # the sparse ground-state path has its own d**n cap
    {"experiment": "ground-tail", "params": {"n": 17}},
    # the merge series refuses a product space above MERGE_DIM_CAP
    {"experiment": "merge-series", "params": {"da": 40, "db": 40}},
    # the size rules never form d**n for a huge n
    {"experiment": "mps-exist", "params": {"n": 10 ** 9}},
    {"experiment": "gibbs-tail", "params": {"n": 10 ** 9}},
    # a chain site of one level ended in a traceback
    {"experiment": "mps-exist", "params": {"d": 1}},
    {"experiment": "tdmrg", "params": {"d": 1}},
    # the generators take no negative seed
    {"experiment": "kolmogorov", "seed": -1},
    # q0 < 0 gave a negative segment count and a math domain error
    {"experiment": "truncation-params", "params": {"q_param": -1.0, "c0": -1.0}},
    # negative truncation orders ran, with bounds stated for orders >= 0
    {"experiment": "merge-series", "params": {"m": -1, "q": -1, "s0": -1}},
    {"experiment": "merge-series", "params": {"s0": -1}},
    {"experiment": "merge-series", "params": {"m": -1}},
    {"experiment": "merge-series", "params": {"q": -1}},
    # tdmrg and mps-exist have no eta param: a long-range chain took a hidden 3
    {"experiment": "tdmrg", "params": {"chain": "longrange"}},
    {"experiment": "mps-exist", "params": {"chain": "longrange", "n": 4}},
    # negative times and inverse temperatures ran: tdmrg under a certificate
    # derived for a positive step, no-go with negative chain bounds, and
    # gibbs-tail with no cap, so its one check passed over no rows
    {"experiment": "tdmrg", "params": {"t": -0.3}},
    {"experiment": "no-go", "params": {"times": [-0.2]}},
    {"experiment": "gibbs-tail", "params": {"betas": [-1.0]}},
    # the dense comparison was dropped without a word above the dense limit
    {"experiment": "tdmrg", "params": {"n": 13}},
    # z outside the merge series' window exited 1 on the series' own guard
    {"experiment": "merge-series", "params": {"z_im": 1.0}},
    {"experiment": "merge-series", "params": {"v_scale": 1.0}, "grid": [{"z_re": 0.03}]},
    # |z| past float range: the window takes it by hypot, as abs() of this
    # complex raises OverflowError
    {"experiment": "merge-series", "params": {"z_re": 1.5e308, "z_im": 1.5e308}},
    # an integer param is a count: negative ones ran, merge-series n_terms -3 on
    # no couplings at all, and a zero count of terms or instances means nothing
    {"experiment": "merge-series", "params": {"n_terms": -3}},
    {"experiment": "merge-series", "params": {"n_terms": 0}},
    {"experiment": "se-search", "params": {"seeds": -1}},
    {"experiment": "se-search", "params": {"iterations": -3}},
    {"experiment": "kolmogorov", "params": {"polish": -5}},
    {"experiment": "no-go", "params": {"seeds": -1}},
    {"experiment": "sie-rate", "params": {"instances": -1}},
    {"experiment": "agsp", "params": {"instances": 0}},
    {"experiment": "unitary-growth", "params": {"terms": -2}},
    {"experiment": "se-search", "params": {"terms": 0}},
]


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(tmp_path, cfg):
    """`entspec run` on a config: its exit code, summary.json and results.csv rows."""
    out = tmp_path / "o"
    code = main(["run", write_config(tmp_path, cfg), "--out", str(out)])
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return code, json.loads((out / "summary.json").read_text()), rows


def test_registry_lists_every_published_experiment():
    for name in PUBLISHED:
        assert name in REGISTRY
    for name, experiment in REGISTRY.items():
        assert callable(experiment.run)
        assert isinstance(experiment.defaults, dict)
        # the rules check given values only, so every default must pass them,
        # and so must every selftest point
        validate_config({"experiment": name, "params": experiment.defaults})
        validate_config({"experiment": name, "params": experiment.selftest_params})


# The experiments whose record has no cost rule, each with what bounds its
# run instead; a count that no rule bounds yet is an open robustness item.
# A new experiment without a cost rule must be added here by name.
NO_COST_RULE = {
    "sie-rate",  # instances and terms are counts no rule bounds
    "c-alpha-table",  # closed forms, one row per listed order
    "saturate",  # m_levels is a count no rule bounds
    "toy",  # closed forms on two qubits, one row per listed time and order
    "se-search",  # instances, terms, seeds and iterations are counts no rule bounds
    "agsp",  # instances is a count no rule bounds; each instance is a small gapped one
    "area-law",  # two qubits; the adiabatic refinement stops at dynamics.MAX_STEPS
    "kolmogorov",  # the pairs rule caps N; seeds and polish are counts no rule bounds
    "no-go",  # the n rule caps N; seeds and polish are counts no rule bounds
    "truncation-params",  # closed forms, one row per listed duration
    "unitary-growth",  # terms and seeds are counts no rule bounds
}


def test_the_experiments_without_a_cost_rule_are_named():
    # random_dense_instance takes at most 16 levels a side, so dim_cap bounds no run
    assert {name for name, e in REGISTRY.items() if e.cost is None} == NO_COST_RULE


def test_validation_names_no_experiment():
    # each experiment's rules live in its record: the validator only reads them
    tree = ast.parse(Path(cli.__file__).read_text())
    bodies = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name in ("validate_config", "_check_params")]
    assert len(bodies) == 2
    assert [node.value for body in bodies for node in ast.walk(body)
            if isinstance(node, ast.Constant) and node.value in REGISTRY] == []


@pytest.mark.parametrize(
    "cfg",
    [
        ["not", "an", "object"],
        {"experiment": "not_a_thing"},
        {"experiment": "saturate", "params": {"bogus": 1}},
        {"experiment": "saturate", "params": 7},
        {"experiment": "saturate", "rogue_key": 1},
        {"experiment": "saturate", "seed": "zero"},
        {"experiment": "saturate", "grid": {"times": [0.1]}},
        {"experiment": "saturate", "grid": [{"bogus": 1}]},
        {"experiment": "ground-tail", "params": {"n": "8"}},
    ] + BAD_SIZES + [{"experiment": "merge-series", "grid": [{"db": 0}]}] + BAD_VALUES,
)
def test_validator_rejects_malformed_configs(cfg):
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_range_rules_are_per_experiment():
    # the finite-difference rates step around t = 0; only closed forms need t > 0
    validate_config({"experiment": "sie-rate", "params": {"times": [0]}})
    validate_config({"experiment": "area-law", "params": {"coupling": -0.3}})
    # cut is checked on the merged point, against the n that params set
    cfg = {"experiment": "ground-tail", "params": {"n": 4}, "grid": [{"cut": 2}]}
    name, points, seed, out = validate_config(cfg)
    assert points == [{**REGISTRY[name].defaults, "n": 4, "cut": 2}]
    assert (seed, out) == (0, None)
    # a rule several experiments take is stated once, and each record names it
    assert [name for name, e in REGISTRY.items() if cli._CHAIN_D in e.rules] == [
        "ground-tail", "tdmrg", "mps-exist", "gibbs-tail", "decomposition"]


PARAM_NAMES = sorted({key for e in REGISTRY.values() for key in e.defaults})
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["inf", "longrange", "nearest", 10 ** 400]) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8,
)


@st.composite
def shaped_configs(draw):
    """JSON shaped like a config, with real param names."""
    name = draw(st.sampled_from(sorted(REGISTRY)) | JSON_VALUES)
    known = isinstance(name, str) and name in REGISTRY
    names = list(REGISTRY[name].defaults) if known else PARAM_NAMES
    param_dicts = st.dictionaries(st.sampled_from(names) | st.text(max_size=4), JSON_VALUES,
                                  max_size=3)
    fields = {"experiment": st.just(name), "params": param_dicts | JSON_VALUES,
              "grid": st.lists(param_dicts, max_size=3) | JSON_VALUES,
              "seed": st.integers() | JSON_VALUES, "out": st.text(max_size=4) | JSON_VALUES}
    keys = draw(st.sets(st.sampled_from(sorted(fields))))
    return {key: draw(fields[key]) for key in sorted(keys)}


@given(shaped_configs() | JSON_VALUES)
@settings(max_examples=400, deadline=None)
def test_validator_returns_or_raises_config_error(cfg):
    try:
        validate_config(cfg)
    except ConfigError:
        pass


def test_run_writes_parseable_artifacts(tmp_path):
    code, summary, rows = run_cli(tmp_path, {"experiment": "toy", "seed": 11})
    assert code == 0
    assert rows
    assert {"grid_point", "t", "alpha", "rate", "bound"} <= set(rows[0])
    assert summary["experiment"] == "toy"
    assert summary["rows_file"] == "results.csv"
    assert summary["all_checks_pass"] is True
    assert all(summary["checks"].values())
    assert len(summary["config_sha256"]) == 64
    assert int(summary["config_sha256"], 16) >= 0


def test_seed_override_changes_seed_not_hash(tmp_path):
    cfg_path = write_config(tmp_path, {"experiment": "c-alpha-table", "seed": 1})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg_path, "--out", str(out_a)]) == 0
    assert main(["run", cfg_path, "--out", str(out_b), "--seed", "99"]) == 0
    sa = json.loads((out_a / "summary.json").read_text())
    sb = json.loads((out_b / "summary.json").read_text())
    assert sa["config_sha256"] == sb["config_sha256"]
    assert sa["seed"] == 1
    assert sb["seed"] == 99
    # the override takes the config's seed rule: a negative one is rejected
    assert main(["run", cfg_path, "--out", str(tmp_path / "c"), "--seed", "-3"]) == 2
    assert not (tmp_path / "c").exists()


def test_config_out_field_sets_artifact_dir(tmp_path, capsys):
    dest = tmp_path / "from_config"
    cfg = {"experiment": "c-alpha-table", "out": str(dest)}
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    assert (dest / "summary.json").exists()
    assert f"artifacts in {dest} " in capsys.readouterr().out
    # the command-line flag wins over the config field
    override = tmp_path / "flag_wins"
    assert main(["run", write_config(tmp_path, cfg), "--out", str(override)]) == 0
    assert (override / "results.csv").exists()
    assert f"artifacts in {override} " in capsys.readouterr().out


def test_missing_config_file_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 2


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    # not JSON, not UTF-8, and an integer past the reader's 4300-digit limit
    for raw in (b"{not json", b"\xff\xfe", b'{"seed": ' + b"9" * 5000 + b"}"):
        path.write_bytes(raw)
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2


def test_unknown_experiment_exits_2(tmp_path):
    cfg_path = write_config(tmp_path, {"experiment": "mystery"})
    assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 2
    cfg_path = write_config(tmp_path, {"experiment": "ground-tail", "params": {"n": "8"}})
    assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 2
    for cfg in BAD_SIZES + BAD_VALUES:
        assert main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_below_one_exit_2(tmp_path, capsys, threads):
    cfg_path = write_config(tmp_path, {"experiment": "c-alpha-table"})
    assert main(["run", cfg_path, "--out", str(tmp_path / "o"), "--threads", threads]) == 2
    assert "--threads must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_failed_check_exits_1(tmp_path, monkeypatch):
    def always_failing(p, seed):
        return {"rows": [{"x": 1}], "checks": {"forced": check([(1.0, 0.0)])}}

    monkeypatch.setitem(REGISTRY, "toy", cli.Experiment(always_failing, {}))
    code, summary, _ = run_cli(tmp_path, {"experiment": "toy"})
    assert code == 1
    assert summary["all_checks_pass"] is False
    assert summary["margins"] == {"forced": -1.0}


def test_one_thread_runs_every_point_on_the_calling_thread(tmp_path, monkeypatch):
    # a pool thread cannot be interrupted, so Ctrl-C would wait for the point
    seen = []

    def record(p, seed):
        seen.append(threading.current_thread())
        return {"rows": [{"x": seed}], "checks": {}}

    monkeypatch.setitem(REGISTRY, "toy", cli.Experiment(record, {"x": 0}))
    code, _, _ = run_cli(tmp_path, {"experiment": "toy", "grid": [{"x": 1}, {"x": 2}]})
    assert code == 0
    assert seen == [threading.main_thread()] * 2


def test_bare_boolean_check_is_rejected(tmp_path, monkeypatch):
    def bare(p, seed):
        return {"rows": [{"x": 1}], "checks": {"forced": True}}

    monkeypatch.setitem(REGISTRY, "toy", cli.Experiment(bare, {}))
    with pytest.raises(TypeError):
        main(["run", write_config(tmp_path, {"experiment": "toy"}), "--out", str(tmp_path / "o")])


def test_corrupted_certificate_turns_its_margin_negative(tmp_path, monkeypatch):
    def shrunk(cfg):
        final, cert = tdmrg_run(cfg)
        return final, dataclasses.replace(cert, final_bound=cert.final_bound * 1e-6)

    monkeypatch.setattr(cli, "tdmrg_run", shrunk)
    cfg = {"experiment": "tdmrg", "params": {"n": 4, "t": 0.2, "d_cap": 8, "eps_target": 0.5}}
    code, summary, _ = run_cli(tmp_path, cfg)
    assert code == 1
    bound, raw = summary["derived"]["final_bound"], summary["derived"]["dense_error_raw"]
    assert raw > bound
    assert summary["margins"]["certificate_covers_error"] == pytest.approx(bound + 1e-12 - raw)
    assert summary["margins"]["certificate_covers_error"] < 0.0
    assert summary["checks"]["certificate_covers_error"] is False
    assert summary["all_checks_pass"] is False


def test_area_law_fails_when_adiabatic_refinement_is_cut(tmp_path, monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_STEPS", 512)
    # the default ramp, delta 1 and coupling 0.3, stops short of ADIABATIC_TOL
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    h0 = np.kron(np.diag([0.0, 1.0]), np.eye(2)) + np.kron(np.eye(2), np.diag([0.0, 1.0]))
    xx = np.kron(x, x)
    assert not adiabatic_evolve(lambda nu: h0 + (nu * 0.3) * xx, 0.05).converged_check.ok
    code, summary, _ = run_cli(tmp_path, {"experiment": "area-law"})
    assert code == 1
    assert summary["checks"]["adiabatic_converged"] is False


def test_agsp_fails_when_quadrature_is_cut(tmp_path, monkeypatch):
    monkeypatch.setattr(agsp_arealaw, "QUAD_TOL", 0.0)
    # Gauss-Legendre roots cost O(nodes^2): 2^14 nodes take seconds each
    monkeypatch.setattr(agsp_arealaw, "NODE_CAP", 512)
    code, summary, _ = run_cli(tmp_path, {"experiment": "agsp", "params": {"instances": 1}})
    assert code == 1
    assert summary["checks"] == {"defects_below_bounds": True, "quadrature_converged": False}


def test_runtime_invariant_error_exits_1(tmp_path):
    # a closed path gap is a numeric outcome, not a malformed config
    cfg_path = write_config(tmp_path, {"experiment": "area-law", "params": {"delta": 0.0}})
    assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 1


# accepted configs whose runs leave float range; each stops at its first bad
# number, whether numpy's FloatingPointError or an error of Python's math
NUMERIC_FAILURES = [
    {"experiment": "ground-tail", "params": {"hx": 1e308, "hz": 1e308}},
    {"experiment": "ground-tail", "params": {"j0": 1e308}},
    {"experiment": "gibbs-tail", "params": {"hx": 1e308, "hz": 1e308}},
    {"experiment": "unitary-growth", "params": {"times": [1e308]}},
    {"experiment": "sie-rate", "params": {"times": [1e308]}},
    {"experiment": "gibbs-tail", "params": {"betas": [1e308]}},
    {"experiment": "mps-exist", "params": {"t": 1e308}},
    {"experiment": "mps-exist", "params": {"j0": 1e308, "hx": 1e308}},
    {"experiment": "truncation-params", "params": {"g_tilde": 1e308}},
    {"experiment": "truncation-params", "params": {"durations": [1e308]}},
    {"experiment": "no-go", "params": {"times": [1e308]}},
    {"experiment": "decomposition", "params": {"eta": 1e308}},
    {"experiment": "saturate", "params": {"j": 1e308}},
    {"experiment": "saturate", "params": {"times": [1e308]}},
    {"experiment": "toy", "params": {"alphas": [1e308]}},
    {"experiment": "area-law", "params": {"beta": 1e308}},
    {"experiment": "area-law", "params": {"delta": 1e308}},
]


# the two-thread grids fail on their second point, one in Python's math and
# one in numpy, whose error state each pool thread sets for itself
@pytest.mark.parametrize("cfg, threads", [(cfg, "1") for cfg in NUMERIC_FAILURES] + [
    ({"experiment": "saturate", "grid": [{"j": 1.0}, {"j": 1e308}]}, "2"),
    ({"experiment": "ground-tail", "grid": [{"hx": 0.6}, {"hx": 1e308, "hz": 1e308}]}, "2")])
def test_numeric_failure_exits_1_with_a_message(tmp_path, capsys, cfg, threads):
    cfg_path = write_config(tmp_path, cfg)
    assert main(["run", cfg_path, "--out", str(tmp_path / "o"), "--threads", threads]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("invariant failure: ")


def test_gibbs_tail_runs_past_seven_sites(tmp_path):
    # d**n within the dense-matrix limit is the one size rule
    code, summary, rows = run_cli(tmp_path, {"experiment": "gibbs-tail", "params": {"n": 8}})
    assert code == 0
    assert {r["cut"] for r in rows} == {str(s) for s in range(1, 8)}


def test_merge_series_reports_bins_above_their_cap(tmp_path):
    # five terms of norm 1/4 put 1/2 in bin 1, above its cap 1.25/4; at c0 1/2
    # bin 0 holds 1/2, above 1/4. Both exited 1 on a ValueError traceback.
    for params in ({"n_terms": 5}, {"c0": 0.5}):
        code, summary, rows = run_cli(tmp_path, {"experiment": "merge-series", "params": params})
        assert code == 1
        assert len(rows) == 1
        assert summary["margins"]["bins_below_cap"] < 0.0
        assert summary["checks"]["bins_below_cap"] is False
    code, summary, _ = run_cli(tmp_path, {"experiment": "merge-series"})
    assert code == 0
    assert summary["margins"]["bins_below_cap"] >= 0.0


def test_too_coarse_step_count_exits_2(tmp_path, capsys):
    # the step count is derived from eps_target, so an explicit one is an unknown param
    cfg = {"experiment": "tdmrg", "params": {"n_steps": 1, "t": 3.0}}
    assert main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown params for tdmrg: ['n_steps']" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("params", [
    {"j0": 1.0, "hx": 0.4, "hz": 0.3}, {"j0": 0.7, "hx": 0.5, "hz": 0.0},
    {"j0": -1.2, "hx": 0.3, "hz": 0.8},
])
def test_nearest_chain_g_is_that_of_three_sites(params):
    # the tdmrg work estimate builds min(n, 3) sites for the run's g
    for d in (2, 3):
        g3 = build_nearest_neighbor_chain(3, d, params["j0"], params["hx"], params["hz"]).g
        for n in range(3, 21):
            assert build_nearest_neighbor_chain(n, d, params["j0"], params["hx"],
                                                params["hz"]).g == g3


def test_tdmrg_work_cap_edge():
    # at n 32 and d_cap 16 the 31 bonds hold at most 2, 4, 8 and 16 at 1 to
    # 4 sites from each end and 16 between, and a step sums 64 pieces: 32 *
    # 2**6 // 512 + 159 steps * 64 * 2 * 6568 = 133671940 <= 2**27, while at
    # t 0.0706 the 160 steps pass it; no run is started
    base = {"compare_dense": False, "n": 32}
    validate_config({"experiment": "tdmrg", "params": {**base, "t": 0.0704}})
    with pytest.raises(ConfigError, match="got 1.35e"):
        validate_config({"experiment": "tdmrg", "params": {**base, "t": 0.0706}})
    # below that edge: n 16 at the other defaults (720 steps, 1.14e8) and
    # n 64 at t 0.0158 (32 steps, 1.21e8)
    validate_config({"experiment": "tdmrg", "params": {"compare_dense": False, "n": 16}})
    validate_config({"experiment": "tdmrg", "params": {**base, "n": 64, "t": 0.0158}})
    # one step, or the chain alone, already passes the cap, so no chain is
    # built for the refusal: at d 64 its coupling would be 4096 square
    started = time.perf_counter()
    with pytest.raises(ConfigError, match="got 1.02e"):
        validate_config({"experiment": "tdmrg", "params": {**base, "n": 100000}})
    with pytest.raises(ConfigError, match="got 2.68e"):
        validate_config({"experiment": "tdmrg", "params": {
            **base, "n": 2, "d": 64, "hx": 0.0, "hz": 0.0}})
    assert time.perf_counter() - started < 1.0


def test_chain_size_rules_refuse_before_any_chain_is_built():
    # a two-site term is a dense d**2 x d**2 matrix: at d 256 the ground-tail
    # coupling alone is 65536 square (64 GiB), though d**n meets the sparse cap
    with pytest.raises(ConfigError, match=r"param 'd' of ground-tail must be in 2\.\.64"):
        validate_config({"experiment": "ground-tail", "params": {"n": 2, "d": 256, "cut": 1}})
    validate_config({"experiment": "ground-tail", "params": {"n": 2, "d": 64, "cut": 1}})
    for name in ("tdmrg", "mps-exist", "gibbs-tail", "decomposition"):
        with pytest.raises(ConfigError, match=f"param 'd' of {name} must be in 2\\.\\.64"):
            validate_config({"experiment": name, "params": {"n": 2, "d": 65}})
    # decomposition holds the cut * (n - cut) crossing pair terms of d**4
    # entries each; at d 2 the edge is 65,536 pairs, n 512 at cut 256 or n
    # 65537 at cut 1
    with pytest.raises(ConfigError, match=r"param 'd' of decomposition"):
        validate_config({"experiment": "decomposition", "params": {"n": 100000, "d": 300}})
    with pytest.raises(ConfigError, match="<= 1048576 entries, got 7999600"):
        validate_config({"experiment": "decomposition", "params": {"n": 100000}})
    validate_config({"experiment": "decomposition", "params": {"n": 512, "cut": 256}})
    with pytest.raises(ConfigError, match="<= 1048576 entries, got 1052672"):
        validate_config({"experiment": "decomposition", "params": {"n": 513, "cut": 256}})
    validate_config({"experiment": "decomposition", "params": {"n": 65537, "cut": 1}})
    with pytest.raises(ConfigError, match="<= 1048576 entries, got 1048592"):
        validate_config({"experiment": "decomposition", "params": {"n": 65538, "cut": 1}})
    # at d 32 one pair term holds 2**20 entries, so two sites fit and three do not
    validate_config({"experiment": "decomposition", "params": {"n": 2, "d": 32, "cut": 1}})
    with pytest.raises(ConfigError, match="<= 1048576 entries, got 2097152"):
        validate_config({"experiment": "decomposition", "params": {"n": 3, "d": 32, "cut": 1}})


def test_decomposition_at_cut_1_builds_only_the_crossing_pairs(tmp_path):
    # n 513 at cut 1 is 512 crossing pairs, which a cap on all n(n-1)/2
    # pairs refused
    started = time.perf_counter()
    code, _, (row,) = run_cli(tmp_path, {"experiment": "decomposition",
                                         "params": {"n": 513, "cut": 1}})
    assert code == 0 and row["n_terms"] == "512"
    assert time.perf_counter() - started < 1.0


def test_broken_bracket_and_width_fail_their_checks_with_artifacts(tmp_path, monkeypatch):
    # a search that beats its proved bound, and a fit outside its proved range,
    # exit 1 on the reported check with both artifacts written
    monkeypatch.setattr(cli, "se_lower_search",
                        lambda *a, **k: SeEstimate(lower=1.0 + 2e-9, upper=1.0, unconverged=0))
    code, summary, rows = run_cli(tmp_path, {"experiment": "se-search"})
    assert code == 1 and rows
    assert summary["checks"]["lower_below_upper"] is False
    assert summary["margins"]["lower_below_upper"] < 0.0
    monkeypatch.setattr(cli, "rank_constrained_identity_fit",
                        lambda n, d, **k: WidthResult(n=n, d=d, value=0.6, lower=0.2, upper=1.0))
    code, summary, rows = run_cli(tmp_path, {"experiment": "kolmogorov"})
    assert code == 1 and rows
    assert summary["checks"]["estimates_in_range"] is False
    assert summary["margins"]["estimates_in_range"] < 0.0


@pytest.mark.parametrize("module, name, experiment", [
    (cli, "se_lower_search", "saturate"),
    (dynamics, "se_lower_search", "unitary-growth"),
    (lowrank, "rank_constrained_identity_fit", "no-go"),
])
def test_unreported_bracket_or_fit_exits_1(tmp_path, capsys, monkeypatch, module, name, experiment):
    # these experiments report no bracket or range check of their own: a
    # broken estimate stops the run with exit 1 before anything is written
    broken = {"se_lower_search": lambda *a, **k: SeEstimate(lower=1.0 + 2e-9, upper=1.0,
                                                            unconverged=0),
              "rank_constrained_identity_fit": lambda n, d, **k: WidthResult(
                  n=n, d=d, value=0.6, lower=0.2, upper=1.0)}
    monkeypatch.setattr(module, name, broken[name])
    cfg = write_config(tmp_path, {"experiment": experiment})
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "invariant failure: check failed: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cfg, estimate", [
    ({"experiment": "merge-series", "params": {"kappa": 1e6}},
     "at least 131071 bins of 16x16 complex entries take at least 536875008 bytes > 536870912"),
    ({"experiment": "merge-series", "params": {"kappa": 0.001}},
     "the upper edge 4^(1/0.001) of bin 0 is past float range"),
    ({"experiment": "kolmogorov", "params": {"pairs": [[100000, 1]]}},
     "N <= 2048, the identity-fit limit: a fit holds a few N x N float matrices, 32 MiB each"),
    ({"experiment": "tdmrg", "params": {"compare_dense": False, "n": 100000}},
     "work estimate n * d**6 // 512 + steps * (terms + 1) * d * sum over bonds of "
     "min(d_cap, d**k)**2, k sites to the nearer end, <= 134217728, got 1.02e+13"),
])
def test_cost_rules_exit_2_naming_their_estimate(tmp_path, capsys, cfg, estimate):
    assert main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert estimate in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_gibbs_tail_reports_growth_in_beta_without_checking_it(tmp_path):
    # at hx = 0 the tails shrink from beta 1 to 2: no bound orders them across beta
    code, summary, _ = run_cli(tmp_path, {"experiment": "gibbs-tail", "params": {"hx": 0.0}})
    assert code == 0
    assert summary["derived"]["tail_growth_worst_step"] < 0.0
    assert set(summary["checks"]) == {"tails_below_cap"}


def test_grid_labels_rows_and_checks(tmp_path):
    cfg = {
        "experiment": "toy",
        "params": {"alphas": [1.0]},
        "grid": [{"times": [0.2]}, {"times": [0.5, 0.9]}],
        "seed": 5,
    }
    code, summary, rows = run_cli(tmp_path, cfg)
    assert code == 0
    assert summary["grid_points"] == 2
    assert set(summary["checks"]) == {"rate_below_bound[0]", "rate_below_bound[1]"}
    assert isinstance(summary["derived"], list) and len(summary["derived"]) == 2
    assert [r["grid_point"] for r in rows] == ["0", "1", "1"]


def test_rerun_is_byte_identical(tmp_path):
    cfg = {
        "experiment": "se-search",
        "params": {"instances": 2, "dim_cap": 16, "seeds": 3, "iterations": 80},
        "seed": 21,
    }
    cfg_path = write_config(tmp_path, cfg)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg_path, "--out", str(out_a)]) == 0
    assert main(["run", cfg_path, "--out", str(out_b)]) == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
    # the summaries differ only in the wall time, not in the directory they were written to
    sa, sb = (json.loads((out / "summary.json").read_text()) for out in (out_a, out_b))
    assert sa.pop("wall_time_s") >= 0.0 and sb.pop("wall_time_s") >= 0.0
    assert sa == sb


def test_se_search_reports_unconverged_starts(tmp_path):
    p = {"instances": 2, "dim_cap": 16, "seeds": 3, "iterations": 1}
    code, summary, _ = run_cli(tmp_path, {"experiment": "se-search", "params": p})
    assert code == 0
    # one iteration never meets the tolerance: every random start counts
    assert summary["derived"]["unconverged_starts"] >= p["instances"] * (p["seeds"] + 2)


def test_threads_do_not_change_results(tmp_path):
    cfg = {
        "experiment": "c-alpha-table",
        "grid": [{"alphas": [0.5, 1.0]}, {"alphas": [2.0, "inf"]}],
    }
    cfg_path = write_config(tmp_path, cfg)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg_path, "--out", str(out_a)]) == 0
    code = main(["run", cfg_path, "--out", str(out_b), "--threads", "2"])
    assert code == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()


def test_summary_is_strict_json(tmp_path):
    # 2.0 makes the normalized bound vacuous, so the summary holds an infinity
    params = {"n": 4, "t": 0.3, "eps_target": 2.0, "compare_dense": False}
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path, {"experiment": "tdmrg", "params": params}),
                 "--out", str(out)]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
    assert summary["derived"]["normalized_bound"] == "inf"


def test_selftest_passes(tmp_path, capsys):
    assert selftest(tmp_path / "st") == 0
    assert "selftest passed" in capsys.readouterr().out
    # every check reports its margin, and its boolean is the margin's sign
    for name in REGISTRY:
        summary = json.loads((tmp_path / "st" / name / "summary.json").read_text())
        assert summary["checks"] and set(summary["margins"]) == set(summary["checks"])
        for key, margin in summary["margins"].items():
            assert margin is None or type(margin) is float
            # non-strict checks pass exactly at a margin >= 0, strict ones above 0
            if margin is not None and margin != 0.0:
                assert summary["checks"][key] == (margin > 0.0)
    # a gapped chain's tail margin is the closest any tail came to its cap
    out = tmp_path / "st" / "ground-tail"
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    margin = json.loads((out / "summary.json").read_text())["margins"]["tails_below_cap"]
    assert margin == min(float(r["cap"]) - float(r["tail2"]) for r in rows)


def test_gapless_chain_fails_on_its_gap(tmp_path):
    # the classical chain at hx = 0 has a degenerate ground space: the tail cap is void
    code, summary, _ = run_cli(tmp_path, {"experiment": "ground-tail", "params": {"hx": 0.0}})
    assert code == 1
    gap = summary["derived"]["gap"]
    assert summary["margins"]["tails_below_cap"] == gap - agsp_arealaw.SMALL_GAP < 0.0


def test_rank_budgets_are_at_least_rank_one(tmp_path):
    # eps0 far above 8 * segments makes log2(8 segments / eps0) negative
    code, _, rows = run_cli(tmp_path, {"experiment": "truncation-params", "params": {"eps0": 1e6}})
    assert code == 0
    assert all(r["log2_sr_real"] == r["log2_sr_imag"] == "0.0" for r in rows)


def test_rank_budgets_are_compared_in_ascending_duration(tmp_path):
    cfg = {"experiment": "truncation-params", "params": {"durations": [2.0, 0.5, 1.0]}}
    code, summary, rows = run_cli(tmp_path, cfg)
    assert code == 0
    assert [r["duration"] for r in rows] == ["2.0", "0.5", "1.0"]
    # the margin is the least step between budgets in ascending duration
    reals = [float(r["log2_sr_real"]) for r in sorted(rows, key=lambda r: float(r["duration"]))]
    least = min(b - a for a, b in zip(reals, reals[1:]))
    assert summary["margins"]["real_cost_monotone"] == pytest.approx(least, abs=1e-9)


def test_unitary_growth_row_and_check_agree_near_the_cap(tmp_path, monkeypatch):
    # cap = e^2 > 1: the lower bound lies between cap + 1e-6 and cap * (1 + 1e-6)
    monkeypatch.setattr(cli, "best_upper", lambda v: 10.0)
    # a bracket that holds, so only the cap is broken
    beyond = math.exp(2.0) + 3e-6
    monkeypatch.setattr(dynamics, "se_lower_search",
                        lambda *a, **k: SeEstimate(lower=beyond, upper=beyond, unconverged=0))
    code, summary, (row,) = run_cli(
        tmp_path, {"experiment": "unitary-growth", "params": {"times": [0.2]}})
    assert code == 1
    assert row["ok"] == "False"
    assert summary["checks"]["below_cap"] is False


def test_decomposition_fails_on_a_negative_worst_margin(tmp_path, monkeypatch):
    real = cli.long_range_decomposition_check

    # the first tail exceeds its cap by less than the 1e-9 relative slack once allowed
    def over_cap(chain, cut):
        rep = real(chain, cut)
        (_, cap), *rest = rep.tails
        return dataclasses.replace(rep, tails=((cap * (1 + 5e-10), cap), *rest))

    monkeypatch.setattr(cli, "long_range_decomposition_check", over_cap)
    code, summary, (row,) = run_cli(tmp_path, {"experiment": "decomposition"})
    assert code == 1
    assert float(row["worst_margin"]) < 0.0
    assert summary["checks"]["tails_decay"] is False


def test_selftest_fails_when_corruption_goes_undetected(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_corruption_probes", lambda: [("sabotaged probe", lambda: False)])
    assert selftest(tmp_path / "st") == 1


def test_cli_states_no_check_rule():
    # each check rule has one owner in the library, and the CLI only reads it
    tree = ast.parse(Path(cli.__file__).read_text())
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and "check" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert calls == []
