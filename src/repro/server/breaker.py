"""Circuit breaker around cold strategy fits.

A cold ``HDMM.fit`` is the one stage of the request path whose cost is
unbounded in principle (a non-convex optimization over however many
restarts the service is configured for).  When fits start timing out —
an oversized domain, a pathological workload, a CPU-starved host — every
further cold request would burn a full deadline discovering the same
thing while holding an executor slot that warm traffic needed.  The
breaker converts that into fast, *honest* failure:

* **closed** — normal operation; consecutive fit failures are counted,
  successes reset the count;
* **open** — after ``trip_after`` consecutive failures, cold fits are
  refused outright for ``reset_timeout`` seconds.  The request layer
  then degrades: a miss batch eligible for the direct selection
  measurement is served that way (no fit involved), everything else gets
  a structured refusal carrying ``degraded=True`` and ``Retry-After``;
* **half-open** — after the cooldown one probe fit is allowed through;
  success closes the breaker, failure re-opens it with a fresh cooldown.

Only *cold* fits flow through the breaker — warm loads, direct
measurements, and free hits never involve the guarded resource, which is
exactly why the degraded mode stays useful while the breaker is open.
It is consulted in the worker, inside the engine's fit scope
(:meth:`repro.server.deadline.Deadline.fit`), which records every
allowed fit's outcome.

The clock is injectable so tests step through open → half-open without
sleeping.  State changes are reflected in the ``server.breaker_state``
gauge (0 = closed, 1 = half-open, 2 = open) by the caller.
"""

from __future__ import annotations

import threading
import time

__all__ = ["BreakerOpenError", "CircuitBreaker"]

#: Gauge encoding of breaker states (``server.breaker_state``).
_STATE_VALUES = {"closed": 0, "half-open": 1, "open": 2}


class BreakerOpenError(RuntimeError):
    """A cold fit was refused because the breaker is open.

    Maps to a retryable 503 whose ``Retry-After`` is the cooldown
    remaining; the response body carries ``degraded: true``.
    """

    def __init__(self, retry_after: float, failures: int):
        self.retry_after = max(0.0, float(retry_after))
        self.failures = int(failures)
        super().__init__(
            f"cold-fit circuit breaker is open after {failures} consecutive "
            f"failures; retry in {self.retry_after:g}s"
        )


class CircuitBreaker:
    """Consecutive-failure breaker with half-open probing.

    Thread-safe: fits run in executor threads, ``state`` is read on
    the event loop.
    """

    def __init__(
        self,
        trip_after: int = 3,
        reset_timeout: float = 5.0,
        clock=time.monotonic,
    ):
        if trip_after < 1 or reset_timeout <= 0:
            raise ValueError(
                f"need trip_after >= 1 and reset_timeout > 0, got "
                f"{trip_after}, {reset_timeout}"
            )
        self.trip_after = int(trip_after)
        self.reset_timeout = float(reset_timeout)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open_locked()
            return self._state

    @property
    def state_value(self) -> int:
        """Numeric state for the ``server.breaker_state`` gauge."""
        return _STATE_VALUES[self.state]

    def _maybe_half_open_locked(self) -> None:
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self.reset_timeout
        ):
            self._state = "half-open"
            self._probe_inflight = False

    def allow(self) -> None:
        """Gate one cold fit; raises :class:`BreakerOpenError` when the
        circuit refuses (open, or half-open with the probe already out)."""
        with self._lock:
            self._maybe_half_open_locked()
            if self._state == "closed":
                return
            if self._state == "half-open" and not self._probe_inflight:
                self._probe_inflight = True
                return
            remaining = self.reset_timeout - (self._clock() - self._opened_at)
            raise BreakerOpenError(remaining, self._failures)

    def record_success(self) -> None:
        """A guarded fit completed: close and forget the failure run."""
        with self._lock:
            self._state = "closed"
            self._failures = 0
            self._probe_inflight = False

    def record_failure(self) -> None:
        """A guarded fit timed out or died: count it, trip when the run
        reaches ``trip_after`` (a half-open probe failure re-opens
        immediately — one bad probe is proof enough)."""
        with self._lock:
            self._failures += 1
            if self._state == "half-open" or self._failures >= self.trip_after:
                self._state = "open"
                self._opened_at = self._clock()
                self._probe_inflight = False

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.state}, failures={self._failures}/"
            f"{self.trip_after})"
        )
