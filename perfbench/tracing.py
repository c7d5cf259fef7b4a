"""Spans recorded from outside the program, and the per-layer metrics read
from them.

Tracer.install replaces every public function of each layer module (and the
public methods of the classes defined there) with a wrapper that records one
span per call: name, start, end and the span that was open when it started.
Calls between lincong modules go through module attributes, so they pass
through the wrappers too.  Spans stay in flat arrays in memory; dump writes
them out once the round is over, and layer_metrics reads them back.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter
from types import FunctionType

LAYERS = ("arith", "characters", "formulas", "oracles", "cli")
FALLBACK = "oracle-fallback"
HIST_RESTRICTIONS = ("all", "square", "strict-order", "distinct", "blocks")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, label=None, on_result=None):
        fixed = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(fixed if label is None else self._id(label(args, kwargs)))
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self, modules: dict, budget_cls) -> None:
        """Wrap the public functions of ``modules`` ({layer: module}), and
        count the states charged to ``budget_cls`` (model.OracleBudget)."""
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and isinstance(fn, FunctionType):
                            setattr(obj, meth, self._wrap(fn, f"{layer}.{attr}.{meth}"))
                elif callable(obj):
                    setattr(mod, attr, self._wrap(obj, f"{layer}.{attr}", **self._extras(layer, attr)))
        charge = budget_cls.charge
        counters = self.counters

        @functools.wraps(charge)
        def counted(budget, states):
            result = charge(budget, states)
            counters["oracles.states"] += states
            return result

        budget_cls.charge = counted

    def _extras(self, layer: str, attr: str) -> dict:
        if (layer, attr) == ("oracles", "oracle_histogram"):

            def label(args, kwargs):
                r = kwargs.get("restriction", args[1] if len(args) > 1 else "all")
                return f"oracles.oracle_histogram/{'strict-order' if r == 'strict' else r}"

            return {"label": label}
        if (layer, attr) == ("formulas", "square_count"):

            def on_result(result):
                if getattr(result, "method", None) == FALLBACK:
                    self.counters["formulas.oracle_fallback.calls"] += 1

            return {"on_result": on_result}
        return {}

    def dump(self, path) -> None:
        header = {"names": self.names, "spans": len(self.start), "counters": dict(self.counters)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def load(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["spans"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, count)
            arrays.append(arr)
    return header, arrays


def layer_metrics(path) -> dict[str, float]:
    """Calls, self time and total time per function and per layer, plus the
    derived metrics the benchmark reports.  A function that no span names is
    absent here; the caller reads it as 0."""
    header, (name, parent, start, end) = load(path)
    names = header["names"]
    count = len(name)
    dur = [end[i] - start[i] for i in range(count)]
    child = [0.0] * count
    for i in range(count):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    total_s: defaultdict = defaultdict(float)
    hist_self: defaultdict = defaultdict(float)
    # Restriction of the innermost oracle_histogram span each span runs in.
    tag: list = [None] * count
    base = [n.partition("/")[0] for n in names]
    own = [n.partition("/")[2] or None for n in names]
    for i in range(count):
        nid = name[i]
        fn = base[nid]
        own_self = dur[i] - child[i]
        calls[fn] += 1
        self_s[fn] += own_self
        total_s[fn] += dur[i]
        layer = fn.split(".", 1)[0]
        calls[layer] += 1
        self_s[layer] += own_self
        tag[i] = own[nid] or (tag[parent[i]] if parent[i] >= 0 else None)
        if layer == "oracles" and tag[i]:
            hist_self[tag[i]] += own_self
    out: dict[str, float] = {}
    for fn, c in calls.items():
        out[f"{fn}.calls"] = c
        out[f"{fn}.self_s"] = self_s[fn]
    for fn, t in total_s.items():
        out[f"{fn}.time_s"] = t
    for r in HIST_RESTRICTIONS:
        out[f"oracles.histogram.{r}.self_s"] = hist_self[r]
    out["cli.emit.self_s"] = sum(t for fn, t in self_s.items() if fn.startswith("cli.Emitter."))
    out.update(header["counters"])
    states = out.get("oracles.states", 0)
    oracle_self = out.get("oracles.self_s", 0.0)
    out["oracles.states_per_s"] = states / oracle_self if oracle_self > 0 else 0.0
    out["trace.spans"] = count
    return out
