"""Admission control and backpressure for the serving edge.

The server's capacity model has two tiers, because the serving stack's
cost model has two tiers (see the routing table in
:mod:`repro.service.engine`):

* **free routes** (accelerator hits, plans with ε = 0) are
  microseconds of post-processing — they are *always admitted*, even
  when every fit executor thread is busy.  A saturated measurement path
  must never take down the cheap reads that make the service useful
  under load; this is the degraded-but-alive half of graceful
  degradation.
* **measured routes** (warm / direct / cold misses) occupy a bounded
  executor thread for milliseconds-to-seconds.  They pass a per-dataset
  concurrency limiter and then a global slot pool with a **bounded
  queue**: up to ``max_queue`` requests may wait for a slot (respecting
  their deadline), and everything beyond that is shed immediately with a
  structured 429/503 + ``Retry-After`` — the queue can never grow
  without bound, so latency under overload stays flat instead of
  compounding.

Shedding raises :class:`ShedError`, which the HTTP layer maps to its
status + ``Retry-After`` header and counts into
``server.shed_total{reason=...}``.  The controller is written for one
asyncio event loop (the server's) — its state is only touched from loop
callbacks, so plain counters suffice; the waiting itself uses an
``asyncio.Semaphore`` so queued requests don't block the loop.
"""

from __future__ import annotations

import asyncio

__all__ = ["AdmissionController", "ShedError"]


class ShedError(Exception):
    """The server refused to queue this request.

    ``status`` is the HTTP status the refusal maps to (429 when the
    *client's* traffic pattern is the cause — per-dataset concurrency —
    and 503 when the *server* is saturated globally), ``retry_after``
    the back-off hint in seconds, ``reason`` the stable label counted
    into ``server.shed_total``.
    """

    def __init__(self, reason: str, status: int, retry_after: float):
        self.reason = reason
        self.status = int(status)
        self.retry_after = float(retry_after)
        super().__init__(
            f"request shed ({reason}); retry after {retry_after:g}s"
        )


class AdmissionController:
    """Bounded admission for the measured path; free routes bypass it.

    Parameters
    ----------
    max_measure:
        Concurrent measured requests actually executing (should match
        the executor's thread count — a slot is an executor thread).
    max_queue:
        Measured requests allowed to *wait* for a slot.  Beyond it the
        request is shed instantly with 503 ``queue_full``.
    per_dataset:
        Concurrent measured requests per dataset.  The ledger serializes
        debits per accountant anyway, so a single hot dataset queueing up
        the whole pool would buy no throughput — shed with 429 instead.
    retry_after:
        Baseline ``Retry-After`` hint; queue-full sheds scale it by the
        queue occupancy so clients back off harder the deeper the
        overload.
    """

    def __init__(
        self,
        max_measure: int = 2,
        max_queue: int = 8,
        per_dataset: int = 2,
        retry_after: float = 0.05,
    ):
        if max_measure < 1 or max_queue < 0 or per_dataset < 1:
            raise ValueError(
                "need max_measure >= 1, max_queue >= 0, per_dataset >= 1; "
                f"got {max_measure}, {max_queue}, {per_dataset}"
            )
        self.max_measure = int(max_measure)
        self.max_queue = int(max_queue)
        self.per_dataset = int(per_dataset)
        self.retry_after = float(retry_after)
        self._slots = asyncio.Semaphore(self.max_measure)
        self.queued = 0
        self.executing = 0
        self.inflight_by_dataset: dict[str, int] = {}
        self.shed_counts: dict[str, int] = {}

    # -- bookkeeping ---------------------------------------------------------
    def _shed(self, reason: str, status: int, retry_after: float):
        self.shed_counts[reason] = self.shed_counts.get(reason, 0) + 1
        raise ShedError(reason, status, retry_after)

    # -- the measured path ---------------------------------------------------
    async def acquire_measure(self, dataset: str, timeout: float | None = None):
        """Take one measured-path slot, waiting in the bounded queue.

        Raises :class:`ShedError` instead of waiting when the queue is
        full or the dataset is already at its concurrency limit; raises
        it too when ``timeout`` (typically the request deadline's
        remaining time) elapses while queued.  On success the caller
        *must* call :meth:`release_measure` (use try/finally — it must
        run even when the request dies on a simulated crash).
        """
        if self.inflight_by_dataset.get(dataset, 0) >= self.per_dataset:
            self._shed("dataset_concurrency", 429, self.retry_after)
        if self._slots.locked() and self.queued >= self.max_queue:
            # The queue bound applies only to requests that would have to
            # *wait* — with a slot free the request executes immediately
            # and was never queued.  Scale the hint by occupancy: the
            # deeper the backlog, the longer a retry is pointless.
            self._shed(
                "queue_full", 503, self.retry_after * (1 + self.queued)
            )
        self.queued += 1
        self.inflight_by_dataset[dataset] = (
            self.inflight_by_dataset.get(dataset, 0) + 1
        )
        try:
            if timeout is not None:
                try:
                    await asyncio.wait_for(self._slots.acquire(), timeout)
                except asyncio.TimeoutError:
                    self._shed("queue_timeout", 503, self.retry_after)
            else:
                await self._slots.acquire()
        except BaseException:
            self.queued -= 1
            self._release_dataset(dataset)
            raise
        self.queued -= 1
        self.executing += 1

    def release_measure(self, dataset: str) -> None:
        self.executing -= 1
        self._release_dataset(dataset)
        self._slots.release()

    def _release_dataset(self, dataset: str) -> None:
        n = self.inflight_by_dataset.get(dataset, 0) - 1
        if n <= 0:
            self.inflight_by_dataset.pop(dataset, None)
        else:
            self.inflight_by_dataset[dataset] = n

    def __repr__(self) -> str:
        return (
            f"AdmissionController(executing={self.executing}/"
            f"{self.max_measure}, queued={self.queued}/{self.max_queue}, "
            f"shed={sum(self.shed_counts.values())})"
        )
