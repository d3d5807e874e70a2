"""Timing spans recorded from the benchmark's own files.

The traced pass wraps public functions of the program's layers — class
methods on their class, module functions at the module they are looked
up in — with spans kept by a :class:`Tracer`.  The program's own
``repro.obs`` telemetry stays off; nothing here changes what the
program computes.

A span's parent is the span open in the caller's context.  The current
span lives in a :class:`contextvars.ContextVar`, which gives every
thread, and every asyncio task on the server's event loop, its own
stack; work handed to a thread pool carries the submitting context (see
:func:`context_thread_pool`), and work shipped to a process pool returns
its layer totals with its result (see :func:`run_task`).

Spans are aggregated as they close: a layer's *self time* is its
duration minus the part of its interval covered by its children, which
may run on other threads or processes.  Totals stay in memory and are
written out when the pass ends, together with a capped sample of raw
spans.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

#: Raw spans kept per pass for the trace dump (totals are never capped).
RAW_SPAN_CAP = 20000


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class _Open:
    """A span that has started and not yet finished."""

    __slots__ = ("name", "parent", "t0", "covers")

    def __init__(self, name, parent, t0):
        self.name = name
        self.parent = parent
        self.t0 = t0
        self.covers = []  # (t0, t1) of finished children, any thread


class LayerTotals:
    """Per-layer sums: self seconds, wall seconds, calls, extra counts."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.wall_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.extra: dict[str, float] = {}

    def add(self, name, self_s, wall_s, calls=1):
        self.self_s[name] = self.self_s.get(name, 0.0) + self_s
        self.wall_s[name] = self.wall_s.get(name, 0.0) + wall_s
        self.calls[name] = self.calls.get(name, 0) + calls

    def bump(self, key, amount=1):
        self.extra[key] = self.extra.get(key, 0) + amount

    def merge(self, other: "LayerTotals") -> None:
        for name, s in other.self_s.items():
            self.add(name, s, other.wall_s[name], other.calls[name])
        for key, v in other.extra.items():
            self.bump(key, v)

    def to_dict(self) -> dict:
        return {
            "self_s": self.self_s,
            "wall_s": self.wall_s,
            "calls": self.calls,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LayerTotals":
        out = cls()
        out.self_s = dict(d["self_s"])
        out.wall_s = dict(d["wall_s"])
        out.calls = dict(d["calls"])
        out.extra = dict(d["extra"])
        return out


class Tracer:
    """Span recorder with online self-time aggregation."""

    def __init__(self, clock=time.perf_counter, raw_cap: int = RAW_SPAN_CAP):
        self.clock = clock
        self.raw_cap = raw_cap
        self.totals = LayerTotals()
        self.raw: list[tuple] = []
        self._cur = contextvars.ContextVar("perfbench_span", default=None)
        self._lock = threading.Lock()

    # -- spans ---------------------------------------------------------------
    def start(self, name: str):
        sp = _Open(name, self._cur.get(), self.clock())
        return sp, self._cur.set(sp)

    def finish(self, sp: _Open, token, extra: dict | None = None) -> None:
        t1 = self.clock()
        self._cur.reset(token)
        self.close(sp, t1, extra)

    def close(self, sp: _Open, t1: float, extra: dict | None = None) -> None:
        wall = t1 - sp.t0
        own = wall - covered(sp.covers, sp.t0, t1)
        if sp.parent is not None:
            sp.parent.covers.append((sp.t0, t1))
        with self._lock:
            self.totals.add(sp.name, own, wall)
            if extra:
                for key, v in extra.items():
                    self.totals.bump(f"{sp.name}:{key}", v)
            if len(self.raw) < self.raw_cap:
                self.raw.append(
                    (sp.name, sp.t0, t1, own, threading.current_thread().name)
                )

    def dump(self, path: str) -> None:
        """Write the raw span sample, one JSON array per line:
        ``[name, t0, t1, self, thread]`` (seconds)."""
        with open(path, "w") as f:
            for rec in self.raw:
                f.write(json.dumps(rec) + "\n")

    def count(self, key: str, amount=1) -> None:
        with self._lock:
            self.totals.bump(key, amount)

    def current(self) -> _Open | None:
        return self._cur.get()

    def reset(self) -> LayerTotals:
        """Start a fresh pass; returns the totals of the finished one."""
        with self._lock:
            done, self.totals = self.totals, LayerTotals()
            self.raw = []
        return done

    # -- work in other processes ----------------------------------------------
    def capture(self, fn, arg):
        """Run ``fn(arg)`` recording into fresh totals; returns the result
        and a picklable summary (totals plus the intervals its top-level
        spans covered) for the submitting process to merge."""
        saved = self.reset()
        holder = _Open("task", None, self.clock())
        token = self._cur.set(holder)
        try:
            out = fn(arg)
        finally:
            self._cur.reset(token)
            mine = self.reset()
            self.totals = saved
        return out, {"totals": mine.to_dict(), "covers": holder.covers}

    def absorb(self, summary: dict, parent: _Open | None) -> None:
        with self._lock:
            self.totals.merge(LayerTotals.from_dict(summary["totals"]))
        if parent is not None:
            parent.covers.extend(tuple(c) for c in summary["covers"])


# The tracer a process-pool task reports to.  Task functions are shipped
# to pool workers by reference, so a forked worker finds its tracer here;
# install() sets it and uninstall() clears it.
_ACTIVE: Tracer | None = None


def run_task(payload):
    """Process-pool task shim: ``(submitter pid, fn, arg)``.  In another
    process it captures the task's spans; in the submitting process the
    spans already land in the shared tracer, so it just calls ``fn``."""
    pid, fn, arg = payload
    if _ACTIVE is None or os.getpid() == pid:
        return fn(arg), None
    return _ACTIVE.capture(fn, arg)


def context_thread_pool(base=ThreadPoolExecutor):
    """A thread-pool class whose tasks run in a copy of the submitting
    context, so spans opened in pool threads nest under the submitter's."""

    class ContextThreadPool(base):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(
                contextvars.copy_context().run, fn, *args, **kwargs
            )

    return ContextThreadPool


# -- wrapping --------------------------------------------------------------


def timed(tracer: Tracer, fn, name: str, extract=None):
    """Wrap ``fn`` (sync or async) in a span named ``name``.

    ``extract(result)`` may return a dict of extra counts recorded as
    ``<name>:<key>``; an exception is counted as ``<name>:err.<Type>``.
    """
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            sp, token = tracer.start(name)
            try:
                out = await fn(*args, **kwargs)
            except BaseException as e:
                tracer.finish(sp, token, {f"err.{type(e).__name__}": 1})
                raise
            tracer.finish(sp, token, extract(out) if extract else None)
            return out

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp, token = tracer.start(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                tracer.finish(sp, token, {f"err.{type(e).__name__}": 1})
                raise
            tracer.finish(sp, token, extract(out) if extract else None)
            return out

    return wrapper


def counted(tracer: Tracer, fn, key: str):
    """Wrap ``fn`` to count its calls without opening a span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(key)
        return fn(*args, **kwargs)

    return wrapper


def timed_enter(tracer: Tracer, fn, name: str):
    """Wrap a context-manager factory so only entering it is a span
    (e.g. the time spent acquiring a lock)."""

    class _Entered:
        def __init__(self, cm):
            self.cm = cm

        def __enter__(self):
            sp, token = tracer.start(name)
            try:
                return self.cm.__enter__()
            finally:
                tracer.finish(sp, token)

        def __exit__(self, *exc):
            return self.cm.__exit__(*exc)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _Entered(fn(*args, **kwargs))

    return wrapper


def raw_attr(owner, attr: str):
    """The attribute as stored: the class dict entry for a method, so
    wrapping and undoing see the plain function."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def resolve(module: str, path: str):
    """``(owner, attribute)`` for ``module`` + dotted ``path``
    (``"Class.method"`` or ``"function"``)."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, raw_attr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer, probes) -> Patches:
    """Apply ``probes`` (see :mod:`pb_layers`) and make ``tracer`` the
    process's active tracer; returns the patches to :func:`uninstall`."""
    global _ACTIVE
    patches = Patches()
    for probe in probes:
        owner, attr = resolve(probe.module, probe.path)
        patches.set(owner, attr, probe.wrap(tracer, raw_attr(owner, attr)))
    _ACTIVE = tracer
    return patches


def uninstall(patches: Patches) -> None:
    global _ACTIVE
    patches.undo()
    _ACTIVE = None
