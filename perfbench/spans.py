"""Span tracing of the decycle library from outside, without editing it.

``Tracer.install`` replaces the public functions listed in ``TRACED`` by
wrappers that record one span per call: name, start, end and the span
that was open when the call began. Because ``from .cigraph import msf``
copies the binding, every ``decycle.*`` module attribute that holds the
original function object is replaced, not just the one in the defining
module. ``Multigraph`` methods are replaced on the class. The generator
``enumerate_decompositions`` is timed only inside ``next()``, one span
per item. ``restore`` puts every original back.

Spans stay in memory as flat arrays until ``take`` hands them over.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

# (module, attribute) of every traced function, named "<module>.<function>"
TRACED = (
    ("multigraph", "Multigraph.delete_vertices"),
    ("multigraph", "Multigraph.restricted_to_edges"),
    ("multigraph", "is_connected"),
    ("multigraph", "is_acyclic"),
    ("decompose", "decompose_greedy"),
    ("decompose", "decomposition_violations"),
    ("decompose", "enumerate_decompositions"),
    ("decompose", "neighbors"),
    ("cigraph", "build_ci"),
    ("cigraph", "restrict_ci"),
    ("cigraph", "max_matching"),
    ("cigraph", "msf"),
    ("decycling", "analyze"),
    ("decycling", "certify"),
    ("decycling", "decycle_general"),
    ("decycling", "decycle_tree_ci"),
    ("decycling", "exact_decycling_number"),
    ("optimize", "optimize_decomposition"),
    ("families", "build_family"),
)

GENERATORS = {"decompose.enumerate_decompositions"}

# span name -> (counter name, amount a result adds to it)
RESULT_COUNTERS = {
    "cigraph.build_ci": ("cigraph.build_ci.links", lambda ci: len(ci.links)),
    "decompose.neighbors": ("decompose.neighbors.moves", len),
    "multigraph.is_acyclic": ("multigraph.is_acyclic.true", bool),
    "optimize.optimize_decomposition": ("optimize.evaluations", lambda r: r.evaluations),
}


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


NAMES = tuple(span_name(m, a) for m, a in TRACED)


@dataclass
class Trace:
    """Spans of one traced stretch as parallel arrays; ``parent`` is an
    index into the same arrays, -1 for a root span."""

    name: array
    parent: array
    start: array
    end: array
    counters: Counter


def self_times(trace: Trace) -> dict[str, float]:
    """Per span name, the summed duration minus the time its child spans
    cover. Spans of one thread nest, so children never overlap."""
    own = [e - s for s, e in zip(trace.start, trace.end)]
    for i, p in enumerate(trace.parent):
        if p >= 0:
            own[p] -= trace.end[i] - trace.start[i]
    out = dict.fromkeys(NAMES, 0.0)
    for i, n in enumerate(trace.name):
        out[NAMES[n]] += own[i]
    return out


def inclusive_time(trace: Trace, name: str) -> float:
    idx = NAMES.index(name)
    return sum(e - s for n, s, e in zip(trace.name, trace.start, trace.end) if n == idx)


def root_time(trace: Trace) -> float:
    """Time covered by root spans."""
    return sum(
        e - s for p, s, e in zip(trace.parent, trace.start, trace.end) if p < 0
    )


class Tracer:
    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []
        self._clear()

    def _clear(self) -> None:
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._counters: Counter = Counter()

    def take(self) -> Trace:
        """Hand over the spans recorded so far and start afresh."""
        trace = Trace(self._name, self._parent, self._start, self._end, self._counters)
        self._clear()
        return trace

    def _spanning(self, nid: int, fn, counter=None):
        """``fn`` wrapped to record a span per call under name ``nid``."""

        def traced(*args, **kwargs):
            i = len(self._name)
            self._name.append(nid)
            self._parent.append(self._stack[-1])
            self._end.append(0.0)
            self._stack.append(i)
            self._start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end[i] = perf_counter()
                self._stack.pop()
            if counter is not None:
                self._counters[counter[0]] += counter[1](result)
            return result

        return traced

    def _wrap(self, name: str, fn):
        nid = NAMES.index(name)
        if name not in GENERATORS:
            return self._spanning(nid, fn, RESULT_COUNTERS.get(name))
        step = self._spanning(nid, next)

        def traced_generator(*args, **kwargs):
            self._counters[name + ".calls"] += 1
            return self._timed_items(step, name + ".yielded", fn(*args, **kwargs))

        return traced_generator

    def _timed_items(self, step, yielded: str, items):
        """Yield from ``items``, each ``next()`` going through ``step``."""
        while True:
            try:
                item = step(items)
            except StopIteration:
                return
            self._counters[yielded] += 1
            yield item

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "decycle" or n.startswith("decycle."))
        ]
        for module, attr in TRACED:
            owner = sys.modules[f"decycle.{module}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(span_name(module, attr), original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name(module, attr), original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        self._patched.append((owner, key, original))
        setattr(owner, key, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def layer_metrics(trace: Trace) -> dict[str, float]:
    """Per-layer counts and self times of one traced stretch."""
    own = self_times(trace)
    c = trace.counters
    spans_of = Counter(NAMES[n] for n in trace.name)
    out: dict[str, float] = {}
    for name in NAMES:
        # a generator's spans are its next() calls, so it counts calls apart
        out[name + ".calls"] = c[name + ".calls"] if name in GENERATORS else spans_of[name]
        out[name + ".self_s"] = own[name]
    for key in ("cigraph.build_ci.links", "decompose.neighbors.moves",
                "decompose.enumerate_decompositions.yielded", "optimize.evaluations"):
        out[key] = c[key]
    acyclic_calls = spans_of["multigraph.is_acyclic"]
    out["multigraph.is_acyclic.true_ratio"] = (
        c["multigraph.is_acyclic.true"] / acyclic_calls if acyclic_calls else 0.0
    )
    optimize_s = inclusive_time(trace, "optimize.optimize_decomposition")
    out["optimize.evaluations_per_s"] = c["optimize.evaluations"] / optimize_s if optimize_s else 0.0
    return out
