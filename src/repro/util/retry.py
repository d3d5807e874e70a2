"""The retry policy and the one retry loop every layer shares.

One policy object describes *how* to retry — attempt count, base delay,
delay cap, decorrelated jitter — and one process-wide budget bounds *how
much* retrying the whole server may do, so a correlated fault (a full
disk, a contended ledger lock) degrades into fast failures instead of a
retry storm that multiplies the very load that caused it.

The module is stdlib-only so every layer can use it:

* durable writes — WAL appends and truncations, registry writes and
  directory fsyncs — run :func:`call_retrying` under
  :data:`DURABLE_WRITE_POLICY` (exponential, no jitter: the fault
  matrix asserts on its exact 1, 2, 4, 8 ms delays);
* the write-ahead ledger's timed lock acquisition
  (:meth:`repro.service.ledger.WriteAheadLedger.locked`) polls a
  non-blocking ``flock`` under a jittered policy until its timeout;
* registry loads and trace-sink writes retry transient ``OSError``\\ s
  under :data:`DEFAULT_POLICY`.

Jitter follows the "decorrelated jitter" scheme (each delay is drawn
uniformly from ``[base, 3 * previous]``, capped), which empirically
spreads concurrent retriers better than exponential-with-full-jitter;
``jitter=False`` gives plain exponential doubling for callers that need
reproducible delays.
"""

from __future__ import annotations

import errno
import random
import threading
import time
from dataclasses import dataclass

__all__ = [
    "DEFAULT_POLICY",
    "DURABLE_WRITE_POLICY",
    "RetryBudget",
    "RetryPolicy",
    "TRANSIENT_ERRNOS",
    "call_retrying",
    "retryable_oserror",
]

#: Transient errnos worth another attempt.  ``ENOSPC`` is transient in
#: the deployments this service targets (log rotation / compaction frees
#: space); anything else is a real failure the caller must surface.
TRANSIENT_ERRNOS = frozenset({errno.EINTR, errno.EAGAIN, errno.ENOSPC})


def retryable_oserror(exc: BaseException) -> bool:
    """The default transient-fault classifier: an ``OSError`` whose errno
    names a condition that clears by itself (interrupt, contention, a
    log-rotated disk)."""
    return isinstance(exc, OSError) and exc.errno in TRANSIENT_ERRNOS


@dataclass(frozen=True)
class RetryPolicy:
    """How to retry: attempt count and the delay schedule between tries.

    ``retries`` is the number of *re*-tries after the first attempt.
    With ``jitter=True`` (the default) delays follow decorrelated
    jitter: ``d_k = min(cap, uniform(base, 3 * d_{k-1}))``; with
    ``jitter=False`` they double deterministically:
    ``d_k = min(cap, base * 2**k)``.
    """

    retries: int = 4
    base: float = 0.001
    cap: float = 0.1
    jitter: bool = True

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.base <= 0 or self.cap < self.base:
            raise ValueError(
                f"need 0 < base <= cap, got base={self.base}, cap={self.cap}"
            )

    def delays(self, rng=None):
        """Yield ``retries`` sleep durations (seconds)."""
        uniform = (rng or random).uniform
        prev = self.base
        for _ in range(self.retries):
            if self.jitter:
                prev = min(self.cap, uniform(self.base, prev * 3.0))
            else:
                prev = min(self.cap, prev)
            yield prev
            if not self.jitter:
                prev *= 2.0


#: The policy the serving edge uses where nothing more specific applies.
DEFAULT_POLICY = RetryPolicy()

#: Durable writes (WAL, registry): four retries sleeping exactly 1, 2, 4
#: and 8 ms — deterministic, so the fault matrix can assert on them.
DURABLE_WRITE_POLICY = RetryPolicy(retries=4, base=0.001, cap=0.008, jitter=False)


class RetryBudget:
    """A token bucket bounding the total retry volume of a process.

    Each retry spends one token; tokens refill continuously at
    ``refill_per_sec`` up to ``tokens``.  When the bucket is empty,
    callers fail fast instead of piling delayed retries onto an already
    unhealthy dependency.  Thread-safe — one budget is typically shared
    by every request handler in the server.
    """

    def __init__(
        self,
        tokens: float = 32.0,
        refill_per_sec: float = 4.0,
        clock=time.monotonic,
    ):
        if tokens <= 0 or refill_per_sec < 0:
            raise ValueError(
                f"need tokens > 0 and refill_per_sec >= 0, got "
                f"{tokens}, {refill_per_sec}"
            )
        self.capacity = float(tokens)
        self.refill_per_sec = float(refill_per_sec)
        self._clock = clock
        self._tokens = float(tokens)
        self._stamp = clock()
        self._lock = threading.Lock()

    def _refill_locked(self) -> None:
        now = self._clock()
        self._tokens = min(
            self.capacity,
            self._tokens + (now - self._stamp) * self.refill_per_sec,
        )
        self._stamp = now

    def try_spend(self, amount: float = 1.0) -> bool:
        """Take ``amount`` tokens if available; False means "don't retry"."""
        with self._lock:
            self._refill_locked()
            if self._tokens < amount:
                return False
            self._tokens -= amount
            return True

    @property
    def remaining(self) -> float:
        with self._lock:
            self._refill_locked()
            return self._tokens


def call_retrying(
    fn,
    policy: RetryPolicy = DEFAULT_POLICY,
    retryable=retryable_oserror,
    sleep=time.sleep,
    rng=None,
    budget: RetryBudget | None = None,
    on_retry=None,
):
    """Run ``fn()`` under ``policy``, retrying faults ``retryable`` accepts.

    The last failure always propagates — to the retry machinery a fault
    that outlives its budget is a real failure, and the caller (which
    owns the durable-state contract) must surface it.  ``budget`` (a
    shared :class:`RetryBudget`) can veto a retry the policy would still
    allow; ``on_retry(exc, attempt, delay)`` observes each retry (the
    server counts them into ``server.retries_total``).
    """
    delays = policy.delays(rng)
    for attempt in range(policy.retries + 1):
        try:
            return fn()
        except Exception as e:  # noqa: BLE001 — classifier decides
            if not retryable(e) or attempt == policy.retries:
                raise
            if budget is not None and not budget.try_spend():
                raise
            delay = next(delays)
            if on_retry is not None:
                on_retry(e, attempt, delay)
            sleep(delay)
