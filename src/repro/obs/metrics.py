"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

Zero-dependency (numpy only) and built for a hot serving path:

* the registry is **disabled by default** — every accessor then returns a
  shared null metric whose ``inc``/``set``/``observe`` are no-ops, so an
  uninstrumented deployment pays one attribute check per call site;
* metric families are label-keyed: ``counter("service.answers_total",
  dataset="adult", route="warm")`` resolves (or creates) the child for
  that exact label set, and two call sites with the same labels share one
  child regardless of keyword order;
* histograms are fixed-bucket: a tuple of ascending edges bisected per
  observation into a preallocated ``int64`` numpy count array — no
  per-observation allocation;
* one :class:`threading.Lock` protects every mutation, so counts are
  exact under the threaded-stress traffic the accountant already
  survives (tests/test_faults.py).

Readout is a plain :meth:`MetricsRegistry.snapshot` dict or the
Prometheus text exposition format via
:meth:`MetricsRegistry.render_text` (metric names have ``.`` mapped to
``_``; label values are escaped per the exposition spec).

The module-level :data:`REGISTRY` is the process-wide instance the
service instruments; :func:`repro.obs.enable` / ``disable`` flip it.
"""

from __future__ import annotations

import threading
from bisect import bisect_right

import numpy as np

__all__ = [
    "DEFAULT_MS_BUCKETS",
    "MetricsRegistry",
    "NULL_METRIC",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "render_text",
    "snapshot",
]

#: Default latency buckets (milliseconds): microseconds for the gather
#: path up through the multi-second cold fits.
DEFAULT_MS_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 10000.0,
)


class _NullMetric:
    """Shared no-op stand-in returned by a disabled registry."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_METRIC = _NullMetric()


class Counter:
    """Monotonically increasing value (float so ε totals accumulate)."""

    __slots__ = ("_lock", "value")
    kind = "counter"

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """Last-write-wins value."""

    __slots__ = ("_lock", "value")
    kind = "gauge"

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class Histogram:
    """Fixed-bucket histogram: ``counts[i]`` observations ≤ ``edges[i]``
    (exclusive of lower edges), with a trailing +Inf bucket."""

    __slots__ = ("_lock", "edges", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, lock: threading.Lock, edges: tuple):
        self._lock = lock
        self.edges = edges
        self.counts = np.zeros(len(edges) + 1, dtype=np.int64)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        v = float(value)
        with self._lock:
            self.counts[bisect_right(self.edges, v)] += 1
            self.sum += v
            self.count += 1


class _Family:
    """One metric name: its kind, shared config, and per-label children."""

    __slots__ = ("kind", "name", "buckets", "children")

    def __init__(self, kind: str, name: str, buckets: tuple | None):
        self.kind = kind
        self.name = name
        self.buckets = buckets
        self.children: dict[tuple, object] = {}

    def make_child(self, lock: threading.Lock):
        if self.kind == "counter":
            return Counter(lock)
        if self.kind == "gauge":
            return Gauge(lock)
        return Histogram(lock, self.buckets)


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _escape(value) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labels_text(items) -> str:
    if not items:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in items)
    return "{" + inner + "}"


class MetricsRegistry:
    """Lock-protected, label-keyed registry of counters/gauges/histograms.

    ``enabled`` is a plain attribute so instrumented call sites can gate
    batch-level work on one attribute read; accessor methods themselves
    return :data:`NULL_METRIC` while disabled, so un-gated call sites are
    no-ops too (just not free ones).
    """

    def __init__(self, enabled: bool = False):
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    # -- lifecycle -----------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop every family and child (tests/benchmarks)."""
        with self._lock:
            self._families.clear()

    # -- accessors -----------------------------------------------------------
    def _child(self, kind: str, name: str, labels: dict, buckets):
        key = tuple(sorted(labels.items()))
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = self._families[name] = _Family(kind, name, buckets)
            elif fam.kind != kind:
                raise ValueError(
                    f"metric {name!r} is already registered as a {fam.kind}, "
                    f"not a {kind}"
                )
            child = fam.children.get(key)
            if child is None:
                child = fam.children[key] = fam.make_child(self._lock)
            return child

    def counter(self, name: str, **labels) -> Counter:
        if not self.enabled:
            return NULL_METRIC
        return self._child("counter", name, labels, None)

    def gauge(self, name: str, **labels) -> Gauge:
        if not self.enabled:
            return NULL_METRIC
        return self._child("gauge", name, labels, None)

    def histogram(
        self, name: str, buckets: tuple | None = None, **labels
    ) -> Histogram:
        """``buckets`` (ascending edges) binds on the family's first use;
        later calls reuse the family's edges regardless."""
        if not self.enabled:
            return NULL_METRIC
        edges = tuple(float(b) for b in buckets) if buckets else DEFAULT_MS_BUCKETS
        if any(b >= a for a, b in zip(edges[1:], edges)):
            raise ValueError(f"histogram buckets must be ascending: {edges}")
        return self._child("histogram", name, labels, edges)

    # -- readout -------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict view: ``{name: {"type": ..., "series": [...]}}`` with
        one entry per label set (histograms carry edges/buckets/sum/count)."""
        out: dict = {}
        with self._lock:
            for name, fam in sorted(self._families.items()):
                series = []
                for key, child in sorted(fam.children.items()):
                    entry: dict = {"labels": dict(key)}
                    if fam.kind == "histogram":
                        entry.update(
                            count=int(child.count),
                            sum=float(child.sum),
                            edges=list(child.edges),
                            buckets=child.counts.tolist(),
                        )
                    else:
                        entry["value"] = float(child.value)
                    series.append(entry)
                out[name] = {"type": fam.kind, "series": series}
        return out

    def render_text(self) -> str:
        """Prometheus text exposition format (names ``.``→``_``)."""
        lines: list[str] = []
        with self._lock:
            for name, fam in sorted(self._families.items()):
                pname = _sanitize(name)
                lines.append(f"# TYPE {pname} {fam.kind}")
                for key, child in sorted(fam.children.items()):
                    if fam.kind == "histogram":
                        cum = 0
                        for edge, n in zip(
                            child.edges, child.counts[:-1]
                        ):
                            cum += int(n)
                            lines.append(
                                f"{pname}_bucket"
                                f"{_labels_text(key + (('le', f'{edge:g}'),))}"
                                f" {cum}"
                            )
                        lines.append(
                            f"{pname}_bucket"
                            f"{_labels_text(key + (('le', '+Inf'),))}"
                            f" {child.count}"
                        )
                        lines.append(
                            f"{pname}_sum{_labels_text(key)} {child.sum:g}"
                        )
                        lines.append(
                            f"{pname}_count{_labels_text(key)} {child.count}"
                        )
                    else:
                        lines.append(
                            f"{pname}{_labels_text(key)} {child.value:g}"
                        )
        return "\n".join(lines) + ("\n" if lines else "")


#: The process-wide registry every instrumented module shares.
REGISTRY = MetricsRegistry()


def counter(name: str, **labels) -> Counter:
    return REGISTRY.counter(name, **labels)


def gauge(name: str, **labels) -> Gauge:
    return REGISTRY.gauge(name, **labels)


def histogram(name: str, buckets: tuple | None = None, **labels) -> Histogram:
    return REGISTRY.histogram(name, buckets=buckets, **labels)


def snapshot() -> dict:
    return REGISTRY.snapshot()


def render_text() -> str:
    return REGISTRY.render_text()
