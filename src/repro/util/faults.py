"""Deterministic fault injection for the durability subsystem.

The write-ahead ledger (:mod:`~repro.service.ledger`) and the strategy
registry (:mod:`~repro.service.registry`) make crash-consistency claims —
no kill-point overdraws a budget, no torn write serves a corrupt
strategy.  Claims like that are only as good as the tests that drive a
fault through *every* write/fsync/replace/load site, so both modules
route their filesystem effects through the named fault points defined
here.  In production no injector is active and every hook is a single
``None`` check.

Under test, a :class:`FaultInjector` is armed with deterministic plans
(no randomness, no clocks — the N-th operation at a site fires, every
run) and installed with :meth:`FaultInjector.active`:

* :meth:`~FaultInjector.crash` — the N-th hit of a site raises
  :class:`SimulatedCrash`, which derives from ``BaseException`` so
  ordinary ``except Exception`` cleanup cannot swallow the kill (a real
  ``SIGKILL`` is not catchable either);
* :meth:`~FaultInjector.fail` — K consecutive hits raise ``OSError``
  with a chosen errno (``ENOSPC``, ``EINTR``, ...), exercising the
  bounded-retry paths;
* :meth:`~FaultInjector.flip_bit` — a byte-level corruption applied to
  data flowing through the site (:func:`mangle`), exercising the
  checksum / quarantine paths;
* :meth:`~FaultInjector.delay` — injected latency: chosen hits of a
  site sleep for a fixed duration before proceeding, exercising the
  serving edge's deadline, admission-queue, and circuit-breaker paths
  (a slow dependency, not a dead one).

Sites are plain strings (``"ledger.append.fsync"``,
``"registry.npz.replace"``, ...); the full list lives in the modules
that declare them.  The production-side companion is
:func:`repro.util.retry.call_retrying` under
:data:`~repro.util.retry.DURABLE_WRITE_POLICY`: bounded
exponential-backoff retry around transient ``EINTR``/``EAGAIN``/
``ENOSPC`` failures.
"""

from __future__ import annotations

import contextlib
import errno
import os
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "FaultInjector",
    "SimulatedCrash",
    "check",
    "mangle",
]


class SimulatedCrash(BaseException):
    """An armed kill-point fired.

    Derives from ``BaseException`` (like ``KeyboardInterrupt``) so that
    recovery-oriented ``except Exception`` blocks in the code under test
    cannot accidentally absorb the simulated kill — the process under a
    real crash gets no chance to run cleanup either.
    """

    def __init__(self, site: str, op: int):
        self.site = site
        self.op = op
        super().__init__(f"simulated crash at {site!r} (operation #{op})")


@dataclass
class _Plan:
    kind: str  # "crash" | "error" | "flip" | "delay"
    after: int = 1  # fire on the after-th hit of the site (1-based)
    times: int = 1  # "error"/"delay": how many consecutive hits fire
    err: int = errno.ENOSPC
    byte: int = 0  # "flip": byte offset (negative = from the end)
    bit: int = 0  # "flip": bit index within the byte
    seconds: float = 0.0  # "delay": injected latency per firing hit
    fired: int = 0


@dataclass
class FaultInjector:
    """A deterministic schedule of faults, keyed by site name.

    Counters are per-site and start at 1 on the first hit; every plan
    fires at an exact operation number, so a failing test replays
    identically.  Thread-safe: the stress tests hammer one injector from
    many threads.
    """

    _plans: dict[str, list[_Plan]] = field(default_factory=dict)
    _counts: dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    #: Every fault fired, as ``(site, kind, op)`` — assert on it to prove
    #: a fault actually exercised the path under test.
    fired: list[tuple[str, str, int]] = field(default_factory=list)

    # -- arming --------------------------------------------------------------
    def crash(self, site: str, after: int = 1) -> "FaultInjector":
        """Arm a kill-point: the ``after``-th hit of ``site`` raises
        :class:`SimulatedCrash`."""
        self._plans.setdefault(site, []).append(_Plan("crash", after=after))
        return self

    def fail(
        self, site: str, err: int = errno.ENOSPC, times: int = 1, after: int = 1
    ) -> "FaultInjector":
        """Arm a transient failure: hits ``after .. after+times-1`` of
        ``site`` raise ``OSError(err)``."""
        self._plans.setdefault(site, []).append(
            _Plan("error", after=after, times=times, err=err)
        )
        return self

    def flip_bit(
        self, site: str, byte: int = 0, bit: int = 0, after: int = 1
    ) -> "FaultInjector":
        """Arm a corruption: the ``after``-th mangle at ``site`` flips one
        bit of the payload (``byte`` may be negative, counting from the
        end)."""
        self._plans.setdefault(site, []).append(
            _Plan("flip", after=after, byte=byte, bit=bit)
        )
        return self

    def delay(
        self, site: str, seconds: float, times: int = 1, after: int = 1
    ) -> "FaultInjector":
        """Arm injected latency: hits ``after .. after+times-1`` of
        ``site`` sleep ``seconds`` before the operation proceeds.  The
        operation still *succeeds* — this simulates a slow dependency
        (contended lock, cold cache, starved CPU), the failure mode that
        deadlines and circuit breakers exist for and that crash/error
        plans cannot produce."""
        if seconds < 0:
            raise ValueError(f"delay must be >= 0, got {seconds!r}")
        self._plans.setdefault(site, []).append(
            _Plan("delay", after=after, times=times, seconds=seconds)
        )
        return self

    # -- firing --------------------------------------------------------------
    def _hit(self, site: str) -> tuple[int, list[_Plan]]:
        with self._lock:
            op = self._counts.get(site, 0) + 1
            self._counts[site] = op
            due = []
            for plan in self._plans.get(site, ()):
                if plan.kind in ("error", "delay"):
                    if plan.after <= op < plan.after + plan.times:
                        plan.fired += 1
                        due.append(plan)
                elif plan.after == op:
                    plan.fired += 1
                    due.append(plan)
            for plan in due:
                self.fired.append((site, plan.kind, op))
        return op, due

    def _sleep_delays(self, due: list[_Plan]) -> None:
        # Latency lands before any other plan on the same hit: a slow
        # operation that then fails is the realistic composite.
        for plan in due:
            if plan.kind == "delay" and plan.seconds:
                time.sleep(plan.seconds)

    def check(self, site: str) -> None:
        op, due = self._hit(site)
        self._sleep_delays(due)
        for plan in due:
            if plan.kind == "crash":
                raise SimulatedCrash(site, op)
            if plan.kind == "error":
                raise OSError(plan.err, os.strerror(plan.err), site)

    def mangle(self, site: str, data: bytes) -> bytes:
        """Count a hit at ``site`` and apply any due corruption to
        ``data`` (crash/error/delay plans armed on the same site fire
        too)."""
        op, due = self._hit(site)
        self._sleep_delays(due)
        for plan in due:
            if plan.kind == "crash":
                raise SimulatedCrash(site, op)
            if plan.kind == "error":
                raise OSError(plan.err, os.strerror(plan.err), site)
            if plan.kind == "flip" and data:
                buf = bytearray(data)
                buf[plan.byte % len(buf)] ^= 1 << (plan.bit & 7)
                data = bytes(buf)
        return data

    # -- installation --------------------------------------------------------
    @contextlib.contextmanager
    def active(self):
        """Install this injector as the process-wide active one."""
        global _ACTIVE
        prev = _ACTIVE
        _ACTIVE = self
        try:
            yield self
        finally:
            _ACTIVE = prev


_ACTIVE: FaultInjector | None = None


def check(site: str) -> None:
    """Production-side fault point: no-op unless an injector is active."""
    if _ACTIVE is not None:
        _ACTIVE.check(site)


def mangle(site: str, data: bytes) -> bytes:
    """Pass payload bytes through a fault point (bit-flip plans apply)."""
    if _ACTIVE is not None:
        return _ACTIVE.mangle(site, data)
    return data


