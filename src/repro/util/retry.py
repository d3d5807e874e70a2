"""The retry policy and the one retry loop every layer shares.

One policy object describes *how* to retry — attempt count, base delay,
delay cap, decorrelated jitter — and :func:`call_retrying` runs a call
under it, retrying only the transient ``OSError``\\ s
:func:`retryable_oserror` accepts.

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
import time
from dataclasses import dataclass

__all__ = [
    "DEFAULT_POLICY",
    "DURABLE_WRITE_POLICY",
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


def call_retrying(fn, policy: RetryPolicy = DEFAULT_POLICY, sleep=time.sleep):
    """Run ``fn()`` under ``policy``, retrying the faults
    :func:`retryable_oserror` accepts; ``sleep`` waits out each delay.

    The last failure always propagates — to the retry machinery a fault
    that outlives its policy is a real failure, and the caller (which
    owns the durable-state contract) must surface it.
    """
    delays = policy.delays()
    for attempt in range(policy.retries + 1):
        try:
            return fn()
        except Exception as e:  # noqa: BLE001 — classifier decides
            if not retryable_oserror(e) or attempt == policy.retries:
                raise
            sleep(next(delays))
