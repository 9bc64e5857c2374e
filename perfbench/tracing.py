"""Per-layer tracing for the benchmark.

The tracer wraps public functions and methods of the ``reserves`` modules
from outside: every binding of a wrapped function in a loaded ``reserves.*``
module is replaced, so calls made through ``from .x import f`` names are seen
too. ``rules`` and ``graph`` call the kernels through the ``_kernels`` module,
and ``_kernels.augment`` calls itself through its module global, so on the
pure path every augment call, recursion included, passes the wrapper.

Each wrapped call is a span: name, start, end, parent span and op id. Self
time is a span's duration minus the time its child spans cover. Totals are
kept online; span records are kept in memory up to ``SPAN_CAP`` (augment calls
are aggregated only, there are about 10^5 per op) and written when the run
ends.

Per-layer metrics are per-op means over the traced ops. A hook whose target
attribute is missing, or whose calls cannot be seen (jitted kernels), makes
every metric that needs it ``missing`` with the reason; nothing else changes.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

SPAN_CAP = 100_000

# (span name, module, attribute path); two targets may share a span name
HOOKS = (
    ("cli.load", "reserves.cli", "load_instance"),
    ("cli.emit", "reserves.cli", "_emit"),
    ("model.parse", "reserves.model", "parse_instance"),
    ("model.instance", "reserves.model", "Instance.__post_init__"),
    ("model.manipulation", "reserves.model", "apply_manipulation"),
    ("generator.doc", "reserves.generator", "random_instance_document"),
    ("graph.max_matching", "reserves.graph", "max_matching_size"),
    ("graph.max_matching", "reserves.graph", "max_matching"),
    ("graph.reduced_graph", "reserves.graph", "reduced_graph"),
    ("rules.rr", "reserves.rules", "rr"),
    ("rules.srr", "reserves.rules", "srr"),
    ("rules.engine_init", "reserves.rules", "_RejectionEngine.__init__"),
    ("rules.test_remove", "reserves.rules", "_RejectionEngine.test_remove"),
    ("rules.keep", "reserves.rules", "_RejectionEngine.keep"),
    ("rules.undo", "reserves.rules", "_RejectionEngine.undo"),
    ("rules.fresh_matching", "reserves.rules", "_RejectionEngine.fresh_matching"),
    ("kernels.augment_all", "reserves._kernels", "augment_all"),
    ("kernels.augment", "reserves._kernels", "augment"),
    ("kernels.greedy", "reserves._kernels", "greedy"),
    ("kernels.purge", "reserves._kernels", "purge"),
    ("kernels.rebuild_slots", "reserves._kernels", "rebuild_slots"),
    ("axioms.eligibility", "reserves.axioms", "check_eligibility"),
    ("axioms.respect_priorities", "reserves.axioms", "check_respect_priorities"),
    ("axioms.nonwasteful", "reserves.axioms", "check_nonwasteful"),
    ("axioms.max_size", "reserves.axioms", "check_max_size"),
    ("axioms.max_beneficiary", "reserves.axioms", "check_max_beneficiary"),
    ("axioms.order_preservation", "reserves.axioms", "check_order_preservation"),
    ("axioms.strategyproofness", "reserves.axioms", "check_strategyproofness"),
    ("axioms.weak_nonbossiness", "reserves.axioms", "check_weak_nonbossiness"),
    ("oracle.rr_outcome_set", "reserves.oracle", "rr_outcome_set"),
    ("oracle.axiom_satisfying_set", "reserves.oracle", "axiom_satisfying_set"),
)

# spans counted and timed but never stored as records
_AGGREGATE_ONLY = frozenset({"kernels.augment"})
# with numba active, jitted augment_all calls augment without the wrapper
_HIDDEN_UNDER_JIT = frozenset({"kernels.augment"})

S_OP, COUNT_OP = "s/op", "count/op"

# metric -> (unit, span names it needs, definition)
LAYER_METRICS = {
    "cli.load_s": (S_OP, ("cli.load",), "self time of cli.load_instance"),
    "cli.emit_s": (S_OP, ("cli.emit",), "self time of cli._emit"),
    "model.parse_s": (S_OP, ("model.parse",), "self time of parse_instance"),
    "model.instances": (COUNT_OP, ("model.instance",), "Instance constructions"),
    "model.instance_s": (S_OP, ("model.instance",), "self time of Instance validation"),
    "model.manipulations": (COUNT_OP, ("model.manipulation",), "apply_manipulation calls"),
    "model.manipulation_s": (S_OP, ("model.manipulation",), "self time of apply_manipulation"),
    "generator.doc_s": (S_OP, ("generator.doc",), "self time of random_instance_document"),
    "graph.max_matching_calls": (COUNT_OP, ("graph.max_matching",),
                                 "max_matching and max_matching_size calls"),
    "graph.max_matching_s": (S_OP, ("graph.max_matching",),
                             "self time of max_matching(_size), CSR build included"),
    "graph.reduced_graph_s": (S_OP, ("graph.reduced_graph",), "self time of reduced_graph"),
    "rules.engines": (COUNT_OP, ("rules.engine_init",), "_RejectionEngine constructions"),
    "rules.engine_init_s": (S_OP, ("rules.engine_init",),
                            "inclusive time of _RejectionEngine.__init__"),
    "rules.csr_build_s": (S_OP, ("rules.engine_init", "kernels.greedy", "kernels.augment_all"),
                          "engine init minus its kernel calls"),
    "rules.initial_matching_s": (S_OP, ("rules.engine_init", "kernels.greedy",
                                        "kernels.augment_all"),
                                 "kernel calls made by engine init"),
    "rules.scan_steps": (COUNT_OP, ("rules.test_remove",), "test_remove calls"),
    "rules.rejections": (COUNT_OP, ("rules.keep",),
                         "removals kept (rr rejections, srr grants and rejections)"),
    "rules.scan_s": (S_OP, ("rules.test_remove", "rules.keep", "rules.undo"),
                     "inclusive time of test_remove, keep and undo"),
    "rules.scan_step_p50_us": ("us", ("rules.test_remove", "rules.keep", "rules.undo"),
                               "median of test_remove plus its keep or undo"),
    "rules.scan_step_p99_us": ("us", ("rules.test_remove", "rules.keep", "rules.undo"),
                               "99th percentile (nearest rank) of the same"),
    "rules.undo_s": (S_OP, ("rules.undo",), "inclusive time of undo"),
    "rules.final_matching_s": (S_OP, ("rules.fresh_matching",),
                               "inclusive time of fresh_matching"),
    "rules.srr_phase1_s": (S_OP, ("rules.srr", "rules.engine_init", "rules.fresh_matching"),
                           "srr start to the second engine init"),
    "rules.srr_phase2_s": (S_OP, ("rules.srr", "rules.engine_init", "rules.fresh_matching"),
                           "second engine init to the end of fresh_matching"),
    "rules.srr_phase3_s": (S_OP, ("rules.srr", "rules.engine_init", "rules.fresh_matching"),
                           "end of fresh_matching to the end of srr"),
    "kernels.searches": (COUNT_OP, ("kernels.augment_all",),
                         "unmatched live agents on entry to augment_all"),
    "kernels.augmentations": (COUNT_OP, ("kernels.augment_all",),
                              "sum of augment_all return values"),
    "kernels.search_yield": ("ratio", ("kernels.augment_all",),
                             "augmentations over searches"),
    "kernels.agents_visited": (COUNT_OP, ("kernels.augment",),
                               "augment calls, recursion included"),
    "kernels.augment_s": (S_OP, ("kernels.augment",), "time inside augment"),
    "kernels.bookkeeping_s": (S_OP, ("kernels.purge", "kernels.rebuild_slots"),
                              "self time of purge and rebuild_slots"),
    "kernels.greedy_s": (S_OP, ("kernels.greedy",), "self time of greedy"),
    "axioms.eligibility_s": (S_OP, ("axioms.eligibility",), "self time"),
    "axioms.respect_priorities_s": (S_OP, ("axioms.respect_priorities",), "self time"),
    "axioms.nonwasteful_s": (S_OP, ("axioms.nonwasteful",), "self time"),
    "axioms.max_size_s": (S_OP, ("axioms.max_size",), "self time"),
    "axioms.max_beneficiary_s": (S_OP, ("axioms.max_beneficiary",), "self time"),
    "axioms.order_preservation_s": (S_OP, ("axioms.order_preservation",), "self time"),
    "axioms.strategyproofness_s": (S_OP, ("axioms.strategyproofness",), "self time"),
    "axioms.weak_nonbossiness_s": (S_OP, ("axioms.weak_nonbossiness",), "self time"),
    "oracle.orderings": (COUNT_OP, ("oracle.rr_outcome_set", "rules.rr"),
                         "rr calls made by rr_outcome_set"),
    "oracle.rr_outcome_set_s": (S_OP, ("oracle.rr_outcome_set",), "self time"),
    "oracle.axiom_satisfying_set_s": (S_OP, ("oracle.axiom_satisfying_set",), "self time"),
}

# counts that must repeat exactly for the same code and inputs
EXACT_COUNTERS = ("rules.scan_steps", "rules.rejections", "kernels.searches",
                  "kernels.augmentations", "kernels.agents_visited", "oracle.orderings",
                  "model.instances", "model.manipulations", "rules.engines",
                  "graph.max_matching_calls")


class Tracer:
    """Span recorder with online self-time accounting."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, start, child_s, span_id, parent_id, marks]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op_id = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.pair_calls: dict[tuple, int] = defaultdict(int)
        self.pair_incl: dict[tuple, float] = defaultdict(float)
        self.searches = 0
        self.augmentations = 0
        self.steps: list[float] = []
        self._step_open = False
        self.srr_phases = [0.0, 0.0, 0.0]
        self.srr_unparsed = 0
        self._next_id = 0

    def enter(self, name: str) -> list:
        parent = self.stack[-1][3] if self.stack else -1
        sid = -1
        if name not in _AGGREGATE_ONLY:
            sid = self._next_id
            self._next_id += 1
        frame = [name, 0.0, 0.0, sid, parent, None]
        self.stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        name, start, child, sid, parent_id, marks = frame
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self.incl_s[name] += dur
        pname = None
        if self.stack:
            parent = self.stack[-1]
            parent[2] += dur
            pname = parent[0]
            if pname == "rules.srr":
                self._mark_srr(parent, name, start, end)
        self.pair_calls[(pname, name)] += 1
        self.pair_incl[(pname, name)] += dur
        if name == "rules.test_remove":
            self.steps.append(dur)
            self._step_open = True
        elif name in ("rules.keep", "rules.undo") and self._step_open:
            self.steps[-1] += dur
            self._step_open = False
        elif name == "rules.srr":
            if marks and "p2_start" in marks and "fresh_end" in marks:
                self.srr_phases[0] += marks["p2_start"] - start
                self.srr_phases[1] += marks["fresh_end"] - marks["p2_start"]
                self.srr_phases[2] += end - marks["fresh_end"]
            else:
                self.srr_unparsed += 1
        if sid >= 0:
            if len(self.spans) < SPAN_CAP:
                self.spans.append((sid, name, start, end, parent_id, self.op_id))
            else:
                self.dropped += 1

    @staticmethod
    def _mark_srr(frame: list, name: str, start: float, end: float) -> None:
        marks = frame[5]
        if marks is None:
            marks = frame[5] = {"inits": 0}
        if name == "rules.engine_init":
            marks["inits"] += 1
            if marks["inits"] == 2:
                marks["p2_start"] = start
        elif name == "rules.fresh_matching":
            marks["fresh_end"] = end

    def exact_counts(self) -> dict[str, int]:
        return {
            "rules.scan_steps": self.calls["rules.test_remove"],
            "rules.rejections": self.calls["rules.keep"],
            "kernels.searches": self.searches,
            "kernels.augmentations": self.augmentations,
            "kernels.agents_visited": self.calls["kernels.augment"],
            "oracle.orderings": self.pair_calls[("oracle.rr_outcome_set", "rules.rr")],
            "model.instances": self.calls["model.instance"],
            "model.manipulations": self.calls["model.manipulation"],
            "rules.engines": self.calls["rules.engine_init"],
            "graph.max_matching_calls": self.calls["graph.max_matching"],
        }


def _wrap(tracer: Tracer, name: str, fn):
    enter, exit_ = tracer.enter, tracer.exit
    if name == "kernels.augment_all":
        def wrapper(order, alive, match, *rest):
            tracer.searches += int(np.count_nonzero(alive[order] & (match[order] < 0)))
            frame = enter(name)
            try:
                got = fn(order, alive, match, *rest)
            finally:
                exit_(frame)
            tracer.augmentations += int(got)
            return got
    else:
        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)
    return functools.wraps(fn)(wrapper)


class Hooks:
    """Installs wrappers on the reserves modules; ``remove`` restores them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.restore: list[tuple[object, str, object]] = []
        self.missing: dict[str, str] = {}  # span name -> reason

    def install(self) -> None:
        jitted = bool(getattr(sys.modules.get("reserves._kernels"), "USING_NUMBA", False))
        installed: set[str] = set()
        for name, module_name, path in HOOKS:
            if jitted and name in _HIDDEN_UNDER_JIT:
                self.missing[name] = (f"numba is active: jitted kernels call {path} "
                                      "directly, so its calls cannot be seen")
                continue
            try:
                self._install_one(name, module_name, path)
            except (ImportError, AttributeError, KeyError) as e:
                reason = f"{module_name}.{path} not found ({type(e).__name__})"
                self.missing[name] = "; ".join(filter(None, (self.missing.get(name), reason)))
            else:
                installed.add(name)
        # a span name shared by two targets counts as present if either hooked
        for name in installed:
            self.missing.pop(name, None)

    def _install_one(self, name: str, module_name: str, path: str) -> None:
        module = importlib.import_module(module_name)
        owner_path, _, attr = path.rpartition(".")
        if owner_path:
            owner = getattr(module, owner_path)
            original = owner.__dict__[attr]
            self._set(owner, attr, _wrap(self.tracer, name, original))
            return
        original = getattr(module, attr)
        wrapper = _wrap(self.tracer, name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "reserves" or mod_name.startswith("reserves.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self.restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.restore):
            setattr(owner, attr, original)
        self.restore.clear()


def _nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def layer_metrics(tracer: Tracer, ops: int, missing: dict[str, str]) -> dict[str, dict]:
    """Per-op per-layer metrics in the benchmark's result format."""
    t = tracer
    per = 1.0 / ops
    init_kernels = (t.pair_incl[("rules.engine_init", "kernels.greedy")]
                    + t.pair_incl[("rules.engine_init", "kernels.augment_all")])
    counts = t.exact_counts()
    values = {
        "cli.load_s": t.self_s["cli.load"] * per,
        "cli.emit_s": t.self_s["cli.emit"] * per,
        "model.parse_s": t.self_s["model.parse"] * per,
        "model.instance_s": t.self_s["model.instance"] * per,
        "model.manipulation_s": t.self_s["model.manipulation"] * per,
        "generator.doc_s": t.self_s["generator.doc"] * per,
        "graph.max_matching_s": t.self_s["graph.max_matching"] * per,
        "graph.reduced_graph_s": t.self_s["graph.reduced_graph"] * per,
        "rules.engine_init_s": t.incl_s["rules.engine_init"] * per,
        "rules.csr_build_s": (t.incl_s["rules.engine_init"] - init_kernels) * per,
        "rules.initial_matching_s": init_kernels * per,
        "rules.scan_s": (t.incl_s["rules.test_remove"] + t.incl_s["rules.keep"]
                         + t.incl_s["rules.undo"]) * per,
        "rules.scan_step_p50_us": statistics.median(t.steps) * 1e6 if t.steps else 0.0,
        "rules.scan_step_p99_us": _nearest_rank(t.steps, 0.99) * 1e6 if t.steps else 0.0,
        "rules.undo_s": t.incl_s["rules.undo"] * per,
        "rules.final_matching_s": t.incl_s["rules.fresh_matching"] * per,
        "rules.srr_phase1_s": t.srr_phases[0] * per,
        "rules.srr_phase2_s": t.srr_phases[1] * per,
        "rules.srr_phase3_s": t.srr_phases[2] * per,
        "kernels.search_yield": t.augmentations / t.searches if t.searches else 0.0,
        "kernels.augment_s": t.self_s["kernels.augment"] * per,
        "kernels.bookkeeping_s": (t.self_s["kernels.purge"]
                                  + t.self_s["kernels.rebuild_slots"]) * per,
        "kernels.greedy_s": t.self_s["kernels.greedy"] * per,
        "oracle.rr_outcome_set_s": t.self_s["oracle.rr_outcome_set"] * per,
        "oracle.axiom_satisfying_set_s": t.self_s["oracle.axiom_satisfying_set"] * per,
    }
    for axiom in ("eligibility", "respect_priorities", "nonwasteful", "max_size",
                  "max_beneficiary", "order_preservation", "strategyproofness",
                  "weak_nonbossiness"):
        values[f"axioms.{axiom}_s"] = t.self_s[f"axioms.{axiom}"] * per
    for name, total in counts.items():
        values[name] = total * per

    srr_reason = None
    if t.srr_unparsed:
        srr_reason = (f"{t.srr_unparsed} srr spans lacked a second engine init "
                      "or a fresh_matching child")
    out = {}
    for metric, (unit, needs, _) in LAYER_METRICS.items():
        reasons = [missing[n] for n in needs if n in missing]
        if metric.startswith("rules.srr_phase") and srr_reason:
            reasons.append(srr_reason)
        entry = {"value": values[metric], "unit": unit}
        if reasons:
            entry = {"value": 0, "unit": unit, "missing": "; ".join(reasons)}
        out[metric] = entry
    return out
