"""Per-layer tracing by wrapping the program's public functions.

Each target function is replaced, at every name under which a
``certaintrust`` module or class looks it up, by a wrapper that records one
span: name, start, end and the span that was open when it was called.  A
recursive function that calls itself through its module global (such as
``topology.unparse``) is therefore traced at every level.  Spans are kept
in memory in flat arrays and written out once, at the end of the run.

A target that no longer exists is reported as absent; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (layer, module, attribute path); the metric prefix is "<layer>.<attribute path>"
TARGETS = (
    ("opinions", "certaintrust.opinions", "derive_opinion"),
    ("opinions", "certaintrust.opinions", "op_and"),
    ("opinions", "certaintrust.opinions", "op_or"),
    ("opinions", "certaintrust.opinions", "op_not"),
    ("opinions", "certaintrust.opinions", "trust_percent"),
    ("opinions", "certaintrust.opinions", "behavioral_probability"),
    ("fuzzy", "certaintrust.fuzzy", "infer_trust"),
    ("fuzzy", "certaintrust.fuzzy", "MamdaniEngine.infer"),
    ("fuzzy", "certaintrust.fuzzy", "MamdaniEngine.activations"),
    ("fuzzy", "certaintrust.fuzzy", "gaussian_mf"),
    ("fuzzy", "certaintrust.fuzzy", "implicate"),
    ("fuzzy", "certaintrust.fuzzy", "aggregate"),
    ("fuzzy", "certaintrust.fuzzy", "defuzzify_centroid"),
    ("fuzzy", "certaintrust.fuzzy", "classify_trust"),
    ("fuzzy", "certaintrust.fuzzy", "FamTable.lookup"),
    ("topology", "certaintrust.topology", "load_scenario"),
    ("topology", "certaintrust.topology", "scenario_from_dict"),
    ("topology", "certaintrust.topology", "parse_formula"),
    ("topology", "certaintrust.topology", "free_variables"),
    ("topology", "certaintrust.topology", "unparse"),
    ("topology", "certaintrust.topology", "assess_system"),
    ("cli", "certaintrust.cli", "main"),
    ("case_studies", "certaintrust.case_studies", "run_case_study"),
)
# Traced for its count only: reported as fuzzy.engine_builds.
ENGINE_INIT = ("fuzzy", "certaintrust.fuzzy", "MamdaniEngine.__init__")
LAYERS = ("opinions", "fuzzy", "topology", "cli", "case_studies")

OP = 0  # name id of the span the benchmark opens around each operation


class Tracer:
    def __init__(self):
        self.names = ["op"]
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._op = self._wrap(lambda call: call(), OP)

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "certaintrust" or n.startswith("certaintrust.")]
        for layer, module_name, attr in TARGETS + (ENGINE_INIT,):
            metric = f"{layer}.{attr}"
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if path else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(metric)
                continue
            name_id = len(self.names)
            self.names.append(metric)
            wrapper = self._wrap(original, name_id)
            if path:  # a method: patch the class attribute
                self._patch(owner, leaf, wrapper)
            else:  # a function: patch every module global bound to it
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _wrap(self, fn, name_id: int):
        names, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name_id)
            parent.append(stack[-1])
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def run_op(self, call):
        """Run ``call()`` inside one root span; returns its result."""
        return self._op(call)

    # -- results ----------------------------------------------------------

    def summary(self) -> list[tuple[int, float, float]]:
        """(calls, self ns, inclusive ns) per name id."""
        names = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        nested = parent >= 0
        self_ns = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        size = len(self.names)
        calls = np.bincount(names, minlength=size)
        self_total = np.bincount(names, weights=self_ns, minlength=size)
        incl_total = np.bincount(names, weights=dur, minlength=size)
        return [(int(calls[i]), float(self_total[i]), float(incl_total[i])) for i in range(size)]

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.uint16),
            parent=np.array(self.parent, dtype=np.int64),
            start_ns=np.array(self.start, dtype=np.int64),
            end_ns=np.array(self.end, dtype=np.int64),
        )


def layer_metrics(tracer: Tracer, exercised: tuple[str, ...], parse_nodes: int, output_bytes: int,
                  overhead: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, plus the problems found.

    A problem is a layer the workload is meant to exercise that recorded no
    call at all.
    """
    by_name = dict(zip(tracer.names, tracer.summary()))
    missing = (0, 0.0, 0.0)
    metrics = {}
    for layer, _, attr in TARGETS:
        calls, self_ns, _ = by_name.get(f"{layer}.{attr}", missing)
        metrics[f"{layer}.{attr}.calls"] = (calls, "count")
        metrics[f"{layer}.{attr}.self_us"] = (self_ns / calls / 1e3 if calls else 0.0, "us")
    metrics["fuzzy.engine_builds"] = (by_name.get(f"{ENGINE_INIT[0]}.{ENGINE_INIT[2]}", missing)[0], "count")
    parse_ns = by_name.get("topology.parse_formula", missing)[2]
    metrics["topology.parse.nodes_per_s"] = (parse_nodes / (parse_ns / 1e9) if parse_ns else 0.0, "1/s")
    metrics["cli.output_bytes"] = (output_bytes, "bytes")
    op_ns = by_name["op"][2]
    problems = []
    for layer in LAYERS:
        spans = [v for name, v in by_name.items() if name.split(".")[0] == layer]
        metrics[f"{layer}.self_share"] = (sum(v[1] for v in spans) / op_ns if op_ns else 0.0, "ratio")
        if layer in exercised and not any(v[0] for v in spans):
            problems.append(f"layer {layer} recorded no calls on this workload")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics, problems
