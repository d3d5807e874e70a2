"""Per-request deadlines with per-stage budgets and the ε-spend fence.

A :class:`Deadline` is created once per request and threaded (as a plain
duck-typed object — the service layer never imports this module) through
:meth:`repro.service.QueryService.answer` down to the measurement core.
The engine calls :meth:`Deadline.check` at every stage boundary —
``plan``, ``warm`` (registry probe/load), ``fit`` (inside
:meth:`Deadline.fit`), ``charge`` (immediately before
``accountant.charge``) — and :meth:`Deadline.mark_committed` right after
the fsync'd debit returns.

That placement is the whole point.  The PR 6 invariant is that a
committed debit means the noise is either released or conservatively
burned, never refunded — so cancellation must be *cooperative* and must
stop exactly at the charge:

* a deadline that expires at any check **before** ``charge`` raises
  :class:`DeadlineExceededError` with **zero spend** — no WAL record
  exists, the refusal is free;
* once ``mark_committed`` has run (or even :meth:`begin_commit`, the
  instant before the WAL append), the deadline never interrupts again:
  the measurement completes and the caller either returns the (late)
  answer or reports the spend as burned.  There is no refund path.

Per-stage budgets are expressed as *cumulative cutoff fractions* of the
total timeout: ``check(stage)`` fails once elapsed time exceeds
``timeout * cutoff(stage)``.  The default reserves the last 10% of the
budget for the post-charge measurement + response serialization
(``charge`` cutoff 0.9): a request that reaches the charge with less
than that reserve is refused *while refusal is still free*, instead of
committing a debit it can no longer use within its deadline.

Clocks are injectable so the invariant tests drive expiry
deterministically instead of sleeping.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = [
    "DEFAULT_STAGE_CUTOFFS",
    "Deadline",
    "DeadlineExceededError",
]

#: Cumulative per-stage cutoffs (fraction of the total timeout by which
#: the stage must *begin*).  Only ``charge`` reserves headroom by
#: default; every other stage may run up to the wire deadline.
DEFAULT_STAGE_CUTOFFS = {"charge": 0.9}


class DeadlineExceededError(TimeoutError):
    """A request ran out of budget at a stage boundary — always *before*
    the accountant debit (post-commit code never checks the deadline), so
    the refusal carries zero ε spend by construction."""

    def __init__(self, stage: str, elapsed: float, timeout: float):
        self.stage = stage
        self.elapsed = float(elapsed)
        self.timeout = float(timeout)
        super().__init__(
            f"deadline exceeded at stage {stage!r}: {self.elapsed * 1e3:.1f}ms "
            f"elapsed of {self.timeout * 1e3:.1f}ms budget"
        )


class Deadline:
    """One request's time budget, with staged cutoffs and a commit fence.

    Not thread-safe in general, but the commit flags are simple
    monotonic writes: the worker thread sets them, the event-loop thread
    only reads them after the worker missed its deadline — a stale read
    errs toward "possibly committed", the conservative direction.
    """

    __slots__ = (
        "timeout", "cutoffs", "_clock", "_start", "breaker",
        "commit_started", "committed_epsilon", "expired_stage",
    )

    def __init__(
        self,
        timeout: float,
        cutoffs: dict[str, float] | None = None,
        clock=time.monotonic,
        breaker=None,
    ):
        timeout = float(timeout)
        if not timeout > 0:
            raise ValueError(f"timeout must be positive, got {timeout!r}")
        self.timeout = timeout
        self.cutoffs = DEFAULT_STAGE_CUTOFFS if cutoffs is None else cutoffs
        self._clock = clock
        self._start = clock()
        #: Circuit breaker guarding the request's cold fit, or None.
        self.breaker = breaker
        #: True once the charge is in flight — from here on the deadline
        #: must be treated as possibly committed.
        self.commit_started = False
        #: ε durably debited (None until :meth:`mark_committed`).
        self.committed_epsilon: float | None = None
        #: Stage at which a check failed (diagnostics for error bodies).
        self.expired_stage: str | None = None

    # -- time ----------------------------------------------------------------
    def elapsed(self) -> float:
        return self._clock() - self._start

    def remaining(self) -> float:
        return max(0.0, self.timeout - self.elapsed())

    def expired(self) -> bool:
        return self.elapsed() >= self.timeout

    # -- stage fences --------------------------------------------------------
    def check(self, stage: str) -> None:
        """Raise :class:`DeadlineExceededError` if the budget available to
        ``stage`` is gone.  Never called by post-commit code — once the
        debit is durable, interrupting the measurement could only strand
        spent budget."""
        if self.commit_started:
            return
        cutoff = self.timeout * self.cutoffs.get(stage, 1.0)
        elapsed = self.elapsed()
        if elapsed >= cutoff:
            self.expired_stage = stage
            raise DeadlineExceededError(stage, elapsed, self.timeout)

    @contextmanager
    def fit(self):
        """Scope of one cold fit: ``breaker.allow()``, the ``fit`` check
        on entry, the fit, the ``fit`` check on exit (so a slow fit is
        attributed to the fit stage).  Any exception after ``allow()``
        records a failure, a normal exit a success.  Fits precede the
        charge, so every refusal here is free."""
        breaker = self.breaker
        if breaker is not None:
            breaker.allow()
        try:
            self.check("fit")
            yield
            self.check("fit")
        except BaseException:
            if breaker is not None:
                breaker.record_failure()
            raise
        if breaker is not None:
            breaker.record_success()

    def begin_commit(self) -> None:
        """The engine is about to append the debit to the WAL.  From this
        instant the request may have durable spend, so a timing-out
        waiter must report "possibly burned", not "refused free"."""
        self.commit_started = True

    def mark_committed(self, epsilon: float) -> None:
        """The debit is fsync'd: ``epsilon`` is spent whether or not the
        answer is ever delivered.  Late responses report it as burned."""
        self.commit_started = True
        self.committed_epsilon = float(epsilon)

    def __repr__(self) -> str:
        state = (
            f"committed={self.committed_epsilon:g}"
            if self.committed_epsilon is not None
            else ("committing" if self.commit_started else "uncommitted")
        )
        return (
            f"Deadline({self.remaining() * 1e3:.1f}ms of "
            f"{self.timeout * 1e3:.1f}ms left, {state})"
        )
