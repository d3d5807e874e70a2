"""Lightweight request tracing: spans, trace IDs, an optional JSONL sink.

A *span* is one timed step of serving a request — ``plan.compile``,
``plan.route``, ``serve.hits``, ``service.measure`` — opened with::

    with TRACER.span("plan.compile", dataset="adult"):
        ...

Spans opened on the same thread nest: the first span of a thread roots a
new trace, children record their parent span, and when the root exits
the finished trace (a tuple of :class:`Span` records) is published to an
in-memory ring buffer keyed by trace ID, where
:meth:`Tracer.get_trace` resolves it — the acceptance path for the
trace IDs stamped onto ``QueryAnswer``/``Answer`` provenance.

Costs are deliberately minimal: a span is one object allocation and a
``perf_counter`` pair; a disabled tracer hands out a shared null context
manager and records nothing.  Timings are monotonic
(:func:`time.perf_counter`), so in-trace durations are crash-proof
against wall-clock steps; the absolute ``wall`` stamp on the root is
informational only.

The optional sink (:class:`JsonlTraceSink`) appends finished traces as
JSONL records in the **ledger's canonical-JSON + crc format**
(:func:`repro.util.jsonl.encode_record`), so trace logs get the same
torn-tail/corruption detection as the ε-ledger and
:func:`read_trace_log` can verify every line on read.
"""

from __future__ import annotations

import itertools
import os
import threading
import time

from ..util import faults
from ..util.jsonl import decode_line, encode_record
from ..util.retry import call_retrying

__all__ = [
    "JsonlTraceSink",
    "Span",
    "TRACER",
    "Tracer",
    "current_trace_id",
    "get_trace",
    "read_trace_log",
    "span",
]

_RING_SIZE = 512


class Span:
    """One finished (or in-flight) step of a trace."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id",
        "start", "end", "attrs", "error",
    )

    def __init__(self, name, trace_id, span_id, parent_id, start, attrs):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = None
        self.attrs = attrs
        self.error = None

    @property
    def duration_ms(self) -> float:
        return 0.0 if self.end is None else (self.end - self.start) * 1e3

    def to_record(self) -> dict:
        """JSON-safe dict in the ledger record shape (kind ``"span"``)."""
        rec = {
            "v": 1,
            "kind": "span",
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "ms": round(self.duration_ms, 6),
        }
        if self.attrs:
            rec["attrs"] = {k: _json_safe(v) for k, v in self.attrs.items()}
        if self.error is not None:
            rec["error"] = self.error
        return rec

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration_ms:.3f}ms, "
            f"trace={self.trace_id}, id={self.span_id}, "
            f"parent={self.parent_id})"
        )


def _json_safe(v):
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    if isinstance(v, dict):
        return {str(k): _json_safe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    return str(v)


class _TraceCtx:
    """Per-thread in-flight trace state."""

    __slots__ = ("trace_id", "stack", "spans", "seq", "wall")

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.stack: list[Span] = []
        self.spans: list[Span] = []
        self.seq = 0
        self.wall = time.time()


class _NullSpan:
    """Context manager handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, et, ev, tb):
        return False


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager for one enabled span (cheaper than
    ``contextlib.contextmanager``: no generator frame)."""

    __slots__ = ("_tracer", "_attrs", "_name", "_ctx", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        tracer = self._tracer
        ctx = getattr(tracer._local, "ctx", None)
        if ctx is None:
            ctx = tracer._local.ctx = _TraceCtx(tracer._new_trace_id())
        ctx.seq += 1
        rec = Span(
            self._name,
            ctx.trace_id,
            ctx.seq,
            ctx.stack[-1].span_id if ctx.stack else None,
            time.perf_counter(),
            self._attrs,
        )
        ctx.stack.append(rec)
        self._ctx = ctx
        self._span = rec
        return rec

    def __exit__(self, et, ev, tb):
        rec = self._span
        rec.end = time.perf_counter()
        if et is not None:
            rec.error = f"{et.__name__}: {ev}"
        ctx = self._ctx
        ctx.stack.pop()
        ctx.spans.append(rec)
        if not ctx.stack:
            self._tracer._local.ctx = None
            self._tracer._finish(ctx)
        return False


class Tracer:
    """Thread-local span stacks over a shared finished-trace ring buffer."""

    def __init__(self, enabled: bool = False, ring_size: int = _RING_SIZE):
        self.enabled = bool(enabled)
        self.sink: JsonlTraceSink | None = None
        self.ring_size = int(ring_size)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ring: dict[str, tuple] = {}
        self._seq = itertools.count(1)
        self._prefix = f"{os.getpid():x}-{os.urandom(3).hex()}"

    # -- lifecycle -----------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop finished traces and any in-flight context on this thread."""
        with self._lock:
            self._ring.clear()
        self._local.ctx = None

    # -- spans ---------------------------------------------------------------
    def span(self, name: str, **attrs):
        """Open a span; ``with tracer.span("x") as sp`` yields the
        :class:`Span` (or ``None`` while disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return _ActiveSpan(self, name, attrs)

    def current_trace_id(self) -> str | None:
        """Trace ID of this thread's in-flight trace, if any."""
        ctx = getattr(self._local, "ctx", None)
        return None if ctx is None else ctx.trace_id

    def _new_trace_id(self) -> str:
        return f"t-{self._prefix}-{next(self._seq):06x}"

    def _finish(self, ctx: _TraceCtx) -> None:
        spans = tuple(ctx.spans)
        with self._lock:
            self._ring[ctx.trace_id] = spans
            while len(self._ring) > self.ring_size:
                self._ring.pop(next(iter(self._ring)))
        sink = self.sink
        if sink is not None:
            try:
                sink.write(spans, wall=ctx.wall)
            except OSError:
                pass  # tracing must never fail the request it observes

    # -- readout -------------------------------------------------------------
    def get_trace(self, trace_id: str) -> list[Span] | None:
        """Finished spans of ``trace_id`` (in completion order: children
        before parents, the root last), or ``None`` if unknown/evicted."""
        with self._lock:
            spans = self._ring.get(trace_id)
        return None if spans is None else list(spans)

    def trace_ids(self) -> list[str]:
        """Finished trace IDs still in the ring, oldest first."""
        with self._lock:
            return list(self._ring)


class JsonlTraceSink:
    """Append-only JSONL trace log in the ε-ledger's record format.

    Every span becomes one canonical-JSON + crc line
    (:func:`repro.util.jsonl.encode_record` — the same checksummed
    contract the WAL uses, so a torn tail or bit flip is detectable), and
    each trace additionally writes a ``"trace"`` summary record carrying
    the wall-clock stamp and span count.  Buffered appends with a flush
    per trace: traces are diagnostics, not durability-critical, so there
    is no fsync.
    """

    def __init__(self, path: str):
        self.path = str(path)

    def write(self, spans, wall: float | None = None) -> None:
        if not spans:
            return
        lines = [
            encode_record(
                {
                    "v": 1,
                    "kind": "trace",
                    "trace": spans[0].trace_id,
                    "wall": round(wall if wall is not None else time.time(), 6),
                    "spans": len(spans),
                }
            )
        ]
        lines += [encode_record(sp.to_record()) for sp in spans]
        payload = b"".join(lines)

        def _append():
            faults.check("trace.sink.write")
            with open(self.path, "ab") as f:
                f.write(payload)
                f.flush()

        # Transient append faults retry under the shared policy; a
        # persistent one propagates to Tracer._finish, which drops the
        # trace rather than fail the request it observed.
        call_retrying(_append)


def read_trace_log(path: str) -> list[dict]:
    """Parse a sink file, verifying every record's crc; raises
    :class:`repro.util.jsonl.TornRecordError` on damage."""
    records = []
    with open(path, "rb") as f:
        for line in f:
            records.append(decode_line(line))
    return records


#: The process-wide tracer every instrumented module shares.
TRACER = Tracer()


def span(name: str, **attrs):
    return TRACER.span(name, **attrs)


def current_trace_id() -> str | None:
    return TRACER.current_trace_id()


def get_trace(trace_id: str) -> list[Span] | None:
    return TRACER.get_trace(trace_id)
