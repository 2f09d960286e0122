"""Span tracer for the benchmark's traced run.

It wraps public entspec functions at every loaded module that bound them
(for example both ``entspec.mps.compress`` and the ``compress`` name that
``entspec.tdmrg`` imported, and the names the benchmark itself imported),
records one span per call, and restores the originals on exit. Spans stay
in memory until the run writes them out. Nothing under ``src/`` is changed;
the wrapping lives only in this process.

The benchmark calls the library from one thread, so a plain stack gives
each span its parent.
"""

import inspect
import json
import math
import os
import sys
import time

# Layer name -> (module, attribute path) of every function whose calls
# count for that layer. A dotted path names a method on a class.
LAYERS = {
    "mps.compress": [("entspec.mps", "compress")],
    "mps.add": [("entspec.mps", "add")],
    "mps.apply_local_term": [("entspec.mps", "apply_local_term")],
    "tdmrg.run": [("entspec.tdmrg", "tdmrg_run")],
    "se_strength.lower_search": [("entspec.se_strength", "se_lower_search")],
    "se_strength.best_upper": [("entspec.se_strength", "best_upper")],
    "agsp_arealaw.build_agsp": [("entspec.agsp_arealaw", "build_agsp")],
    "dynamics.propagator": [("entspec.dynamics", "DensePropagator.__init__")],
    "dynamics.rate_profile": [("entspec.dynamics", "measure_rate_profile")],
    "dynamics.adiabatic": [("entspec.dynamics", "adiabatic_evolve")],
    "spectra.schmidt": [("entspec.spectra", "schmidt_decompose")],
    "spectra.renyi": [("entspec.spectra", "renyi_entropy")],
    "models.instance_gen": [
        ("entspec.models", "random_dense_instance"),
        ("entspec.agsp_arealaw", "random_gapped_instance"),
    ],
    "models.chain_dense": [("entspec.models", "ChainHamiltonian.dense")],
    "lowrank.identity_fit": [("entspec.lowrank", "rank_constrained_identity_fit")],
    "lowrank.no_go": [("entspec.lowrank", "no_go_experiment")],
    "lowrank.merge_series": [("entspec.lowrank", "build_merge_series")],
    "cli.run_config": [("entspec.cli", "_run_config")],
    "ioutil.write": [("entspec.ioutil", "write_csv"), ("entspec.ioutil", "write_json")],
}


def _bound_args(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Per-layer extractors: (fn, args, kwargs, result) -> attributes of the span.
def _compress_attrs(fn, args, kwargs, result):
    _, rec = result
    delta2 = rec.sum_delta2
    return {"bond_in": args[0].max_bond, "delta2": delta2, "truncating": delta2 > 0.0}


def _tdmrg_attrs(fn, args, kwargs, result):
    return {"steps": _bound_args(fn, args, kwargs)["config"].n_steps}


def _lower_search_attrs(fn, args, kwargs, result):
    return {"starts": _bound_args(fn, args, kwargs)["seeds"], "coincides": result.coincides}


def _agsp_attrs(fn, args, kwargs, result):
    return {"nodes_used": result.nodes_used}


def _adiabatic_attrs(fn, args, kwargs, result):
    start = _bound_args(fn, args, kwargs)["start_steps"]
    return {"steps": result.steps, "rounds": round(math.log2(result.steps / start))}


def _write_attrs(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


EXTRACTORS = {
    "mps.compress": _compress_attrs,
    "tdmrg.run": _tdmrg_attrs,
    "se_strength.lower_search": _lower_search_attrs,
    "agsp_arealaw.build_agsp": _agsp_attrs,
    "dynamics.adiabatic": _adiabatic_attrs,
    "ioutil.write": _write_attrs,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = self.attrs = None


class Tracer:
    """Context manager: wraps every layer function on enter, restores on exit."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self._stack
        extract = EXTRACTORS.get(layer)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(layer, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if extract is not None:
                span.attrs = extract(fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        modules = [m for m in list(sys.modules.values()) if m is not None]
        for layer, targets in LAYERS.items():
            for mod_name, path in targets:
                owner = sys.modules[mod_name]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapped = self._wrap(layer, original)
                if cls_path:
                    holders = [owner]
                else:
                    holders = [m for m in modules if vars(m).get(attr) is original]
                for holder in holders:
                    self._patches.append((holder, attr, original))
                    setattr(holder, attr, wrapped)
        return self

    def __exit__(self, *exc):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)
        return False

    def self_times(self, first=0):
        """Self time of each span from index `first` on: its duration minus
        the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [(s, s.end - s.start - child[i])
                for i, s in enumerate(self.spans) if i >= first]

    def write(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                rec = {"id": i, "name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent}
                if s.attrs:
                    rec["attrs"] = s.attrs
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(tracer):
    """Per-layer counts, self times and the layer-specific counters."""
    calls = {layer: 0 for layer in LAYERS}
    self_s = {layer: 0.0 for layer in LAYERS}
    for span, st in tracer.self_times():
        calls[span.name] += 1
        self_s[span.name] += st
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]

    def attrs(layer):  # spans of calls that raised carry none
        return [s.attrs for s in tracer.spans if s.name == layer and s.attrs is not None]

    def ratio(num, den):
        return num / den if den else 0.0

    comp = attrs("mps.compress")
    out["mps.compress.truncating_ratio"] = ratio(sum(a["truncating"] for a in comp), len(comp))
    out["mps.compress.max_bond_in"] = max((a["bond_in"] for a in comp), default=0)
    out["mps.discarded_weight"] = sum(a["delta2"] for a in comp)
    out["tdmrg.steps"] = sum(a["steps"] for a in attrs("tdmrg.run"))
    search = attrs("se_strength.lower_search")
    out["se_strength.lower_search.starts"] = sum(a["starts"] for a in search)
    out["se_strength.coincide_ratio"] = ratio(sum(a["coincides"] for a in search), len(search))
    agsp = attrs("agsp_arealaw.build_agsp")
    out["agsp_arealaw.build_agsp.nodes_used"] = ratio(sum(a["nodes_used"] for a in agsp), len(agsp))
    adia = attrs("dynamics.adiabatic")
    out["dynamics.adiabatic.steps"] = sum(a["steps"] for a in adia)
    out["dynamics.adiabatic.rounds"] = sum(a["rounds"] for a in adia)
    out["ioutil.write.bytes"] = sum(a["bytes"] for a in attrs("ioutil.write"))
    return out


def target_share(tracer, first, prefixes, wall_s):
    """Share of `wall_s` spent as self time in layers named by `prefixes`,
    counting only spans recorded from index `first` on."""
    busy = sum(st for s, st in tracer.self_times(first) if s.name.startswith(prefixes))
    return busy / wall_s
