"""Span tracer for the traced benchmark pass.

Spans are recorded around calls into partition_lab's public functions and
kept in memory as flat arrays (label, parent span, start, end).  Self time
is a span's duration minus the durations of its child spans; calls run on
one thread, so children never overlap.  Counts are recorded by the same
wrappers that open the spans.

``instrumented`` rebinds every module, class and registry attribute that
holds a traced function, because ``verify`` and ``maps`` import functions
by name and ``verify.CHECKERS`` keeps its own references; it restores the
originals on exit.
"""

from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

from checks import CHECKER_NAMES, SERIES_NAMES

CORE_STATS = ("k_measure", "sol", "runs", "parity_index")
SHAPES_STATS = ("dur2", "dur2_sub", "alternating_index", "durfee_side")
MAPS_FUNCTIONS = ("sylvester", "involution_phi", "enumerate_pairs")
LAURENT_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__eq__", "poch")
NONE = (0, 0.0, 0.0)  # summary entry of a label that never ran

# (metric name, unit, better) for every per-layer metric, in report order.
LAYER_METRICS = (
    [
        ("core.partitions.yielded", "count", "lower"),
        ("core.partitions.self_s", "s", "lower"),
        ("core.stats.calls", "count", "lower"),
        ("core.stats.self_s", "s", "lower"),
        ("shapes.stats.calls", "count", "lower"),
        ("shapes.stats.self_s", "s", "lower"),
        ("qseries.mul.calls", "count", "lower"),
        ("qseries.mul.term_pairs", "count", "lower"),
        ("qseries.mul.kept_ratio", "ratio", "higher"),
        ("qseries.mul.self_s", "s", "lower"),
        ("qseries.invert.calls", "count", "lower"),
        ("qseries.invert.self_s", "s", "lower"),
        ("qseries.pochhammer.calls", "count", "lower"),
        ("qseries.pochhammer.self_s", "s", "lower"),
    ]
    + [(f"qseries.build.{name}.s", "s", "lower") for name in SERIES_NAMES]
    + [
        ("qseries.laurent.self_s", "s", "lower"),
        ("maps.sylvester.calls", "count", "lower"),
        ("maps.sylvester.self_s", "s", "lower"),
        ("maps.involution_phi.calls", "count", "lower"),
        ("maps.involution_phi.self_s", "s", "lower"),
        ("maps.enumerate_pairs.self_s", "s", "lower"),
    ]
    + [
        (f"verify.{name}.{kind}", "s", "lower")
        for name in CHECKER_NAMES
        for kind in ("s", "self_s")
    ]
    + [
        ("verify.enumerate_family.yielded", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


class Tracer:
    """In-memory spans with parent ids, plus named counters."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.label = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}

    def label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def open(self, label_id: int) -> int:
        span = len(self.label)
        self.label.append(label_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(perf_counter())
        return span

    def close(self, span: int) -> None:
        self.end[span] = perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def span(self, label: str):
        span = self.open(self.label_id(label))
        try:
            yield
        finally:
            self.close(span)

    def traced(self, label: str, fn):
        """``fn`` with a span around every call."""
        label_id = self.label_id(label)
        open_, close = self.open, self.close

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span = open_(label_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(span)

        return wrapper

    def traced_generator(self, label: str, fn):
        """Generator ``fn`` with a span around every resumption; counts
        ``<label>.yielded``."""
        label_id = self.label_id(label)
        open_, close, count = self.open, self.close, self.count
        yielded = f"{label}.yielded"

        @wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                span = open_(label_id)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    close(span)
                count(yielded)
                yield item

        return wrapper

    def traced_mul(self, fn):
        """``MultiSeries.__mul__`` counting term pairs (len(a) * len(b), a
        scalar counting as one term) and terms kept after truncation."""
        label_id = self.label_id("qseries.mul")
        open_, close, count = self.open, self.close, self.count

        @wraps(fn)
        def wrapper(a, b):
            span = open_(label_id)
            try:
                out = fn(a, b)
            finally:
                close(span)
            other = getattr(b, "terms", None)
            count("qseries.mul.term_pairs", len(a.terms) * (1 if other is None else len(other)))
            count("qseries.mul.kept_terms", len(out.terms))
            return out

        return wrapper

    def traced_build(self, fn):
        """``qseries.build`` with one span label per series name."""
        open_, close, label_id = self.open, self.close, self.label_id

        @wraps(fn)
        def wrapper(name, *args, **kwargs):
            span = open_(label_id(f"qseries.build.{name}"))
            try:
                return fn(name, *args, **kwargs)
            finally:
                close(span)

        return wrapper

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """label -> (spans, total duration, total self time)."""
        durations = array("d", (e - s for s, e in zip(self.start, self.end)))
        self_times = self_time(self.parent, durations)
        spans = [0] * len(self.labels)
        total = [0.0] * len(self.labels)
        own = [0.0] * len(self.labels)
        for label, duration, alone in zip(self.label, durations, self_times):
            spans[label] += 1
            total[label] += duration
            own[label] += alone
        return {
            name: (spans[i], total[i], own[i]) for i, name in enumerate(self.labels)
        }


def self_time(parent, durations) -> array:
    """Each span's duration minus the durations of its direct children."""
    alone = array("d", durations)
    for child, up in enumerate(parent):
        if up >= 0:
            alone[up] -= durations[child]
    return alone


@contextmanager
def instrumented(tracer: Tracer):
    """Trace partition_lab's public layer functions while the block runs."""
    from partition_lab import core, maps, qseries, shapes, verify

    namespaces = [
        module
        for name, module in sorted(sys.modules.items())
        if name == "partition_lab" or name.startswith("partition_lab.")
    ] + [qseries.MultiSeries, qseries.LaurentPoly]
    undo: list = []

    def rebind(original, replacement) -> None:
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    undo.append((setattr, namespace, attr, value))
                    setattr(namespace, attr, replacement)
        for name, entry in list(verify.CHECKERS.items()):
            if entry[0] is original:
                undo.append((dict.__setitem__, verify.CHECKERS, name, entry))
                verify.CHECKERS[name] = (replacement, *entry[1:])

    try:
        rebind(core.partitions, tracer.traced_generator("core.partitions", core.partitions))
        for name in CORE_STATS:
            fn = getattr(core, name)
            rebind(fn, tracer.traced(f"core.stats.{name}", fn))
        for name in SHAPES_STATS:
            fn = getattr(shapes, name)
            rebind(fn, tracer.traced(f"shapes.stats.{name}", fn))
        series_class = qseries.MultiSeries
        rebind(series_class.__mul__, tracer.traced_mul(series_class.__mul__))
        rebind(series_class.invert, tracer.traced("qseries.invert", series_class.invert))
        rebind(qseries.pochhammer, tracer.traced("qseries.pochhammer", qseries.pochhammer))
        rebind(qseries.build, tracer.traced_build(qseries.build))
        for op in LAURENT_OPS:
            fn = vars(qseries.LaurentPoly)[op]
            label = f"qseries.laurent.{op}"
            if isinstance(fn, classmethod):
                rebind(fn, classmethod(tracer.traced(label, fn.__func__)))
            else:
                rebind(fn, tracer.traced(label, fn))
        for name in MAPS_FUNCTIONS:
            fn = getattr(maps, name)
            rebind(fn, tracer.traced(f"maps.{name}", fn))
        rebind(
            verify.enumerate_family,
            tracer.traced_generator("verify.enumerate_family", verify.enumerate_family),
        )
        for name, (fn, *_rest) in list(verify.CHECKERS.items()):
            rebind(fn, tracer.traced(f"verify.{name}", fn))
        yield tracer
    finally:
        for restore, owner, key, value in reversed(undo):
            restore(owner, key, value)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values named as in LAYER_METRICS, except the overhead,
    which needs the untraced passes."""
    summary = tracer.summary()

    def calls(*labels: str) -> int:
        return sum(summary.get(label, NONE)[0] for label in labels)

    def total(label: str) -> float:
        return summary.get(label, NONE)[1]

    def own(*labels: str) -> float:
        return sum(summary.get(label, NONE)[2] for label in labels)

    core_stats = [f"core.stats.{name}" for name in CORE_STATS]
    shapes_stats = [f"shapes.stats.{name}" for name in SHAPES_STATS]
    laurent = [f"qseries.laurent.{op}" for op in LAURENT_OPS]
    counts = tracer.counts
    pairs = counts.get("qseries.mul.term_pairs", 0)
    kept = counts.get("qseries.mul.kept_terms", 0)
    metrics = {
        "core.partitions.yielded": counts.get("core.partitions.yielded", 0),
        "core.partitions.self_s": own("core.partitions"),
        "core.stats.calls": calls(*core_stats),
        "core.stats.self_s": own(*core_stats),
        "shapes.stats.calls": calls(*shapes_stats),
        "shapes.stats.self_s": own(*shapes_stats),
        "qseries.mul.calls": calls("qseries.mul"),
        "qseries.mul.term_pairs": pairs,
        "qseries.mul.kept_ratio": kept / pairs if pairs else 0.0,
        "qseries.mul.self_s": own("qseries.mul"),
    }
    for name in ("invert", "pochhammer"):
        metrics[f"qseries.{name}.calls"] = calls(f"qseries.{name}")
        metrics[f"qseries.{name}.self_s"] = own(f"qseries.{name}")
    for name in SERIES_NAMES:
        metrics[f"qseries.build.{name}.s"] = total(f"qseries.build.{name}")
    metrics["qseries.laurent.self_s"] = own(*laurent)
    for name in ("sylvester", "involution_phi"):
        metrics[f"maps.{name}.calls"] = calls(f"maps.{name}")
        metrics[f"maps.{name}.self_s"] = own(f"maps.{name}")
    metrics["maps.enumerate_pairs.self_s"] = own("maps.enumerate_pairs")
    for name in CHECKER_NAMES:
        metrics[f"verify.{name}.s"] = total(f"verify.{name}")
        metrics[f"verify.{name}.self_s"] = own(f"verify.{name}")
    metrics["verify.enumerate_family.yielded"] = counts.get(
        "verify.enumerate_family.yielded", 0
    )
    return metrics
