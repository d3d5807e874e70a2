"""Append-only, checksummed write-ahead ledger for the privacy accountant.

An overdrawn privacy budget is not a retryable error — once noise
calibrated to an unauthorized ε has been released, no recovery code can
un-release it.  So the accountant's durable state follows the classic
WAL discipline with the mechanism, not the database, as the thing being
protected: **a debit is fsync'd to the ledger before any noise is
drawn**.  A crash after the fsync wastes at most one debit's worth of
budget (conservative, safe); a crash before it loses a record for which
no measurement ever happened (also safe).  At no kill-point can the
replayed spend be *less* than the noise actually released.

WAL format
----------
One JSON object per line (JSONL), append-only::

    {"crc": "9f…16hex", "dataset": "adult", "epsilon": 0.5,
     "kind": "debit", "composition": "sequential", "stage": "…", "v": 1}

``crc`` is the first 16 hex chars of SHA-256 over the record's canonical
JSON (sorted keys, compact separators) *without* the crc field — the
codec in :mod:`repro.util.jsonl`.  Two record kinds: ``"register"``
(dataset + cap) and ``"debit"`` (dataset + epsilon + composition +
stage); :mod:`repro.privacy.records` builds and folds them.

Recovery semantics
------------------
:meth:`WriteAheadLedger.read_new` replays records in order and stops at
the first line that is incomplete (no trailing newline), unparsable, or
checksum-mismatched — everything from there on is the **torn tail** a
crashed writer left behind, and only the committed prefix counts.  The
tail is physically truncated the next time a writer holds the lock
(:meth:`WriteAheadLedger.truncate_torn_tail`), so the file never grows
garbage in the middle.

Lock protocol
-------------
Every read-check-append cycle runs under an exclusive ``flock`` on a
``<path>.lock`` sidecar (the WAL file itself is never the lock target —
O_APPEND re-opens must not drop a held lock).  The accountant's
compare-and-debit is: **lock → replay other writers' tail → check cap →
append+fsync → apply in memory → unlock**, which makes the cap check and
the debit one atomic step across processes: two accountants sharing a
ledger path can never jointly overdraw a cap.  Within a process, a
``threading.RLock`` serializes threads first, so the flock only
arbitrates between processes.  On platforms without ``fcntl`` the file
lock degrades to thread-only safety (single-process use).

By default acquisition blocks indefinitely — correct for the library's
batch callers, where the lock holder is always making progress.  A
*serving* caller holds a request deadline and must not park a thread
behind a stuck or dead-slow peer: constructing the ledger with
``lock_timeout`` switches acquisition to non-blocking attempts under
jittered backoff (:mod:`repro.util.retry`) and raises
:class:`LockTimeoutError` — a retryable condition, mapped to 503 at the
serving edge — once the timeout elapses.  A lock timeout can only happen
*before* the read-check-append cycle begins, so it never strands a
committed debit.
"""

from __future__ import annotations

import contextlib
import errno as _errno
import logging
import os
import time

try:
    import fcntl
except ImportError:  # non-POSIX platform — single-process use only
    fcntl = None

from ..obs.metrics import REGISTRY as _METRICS
from ..util import faults
from ..util.jsonl import encode_record, parse_committed
from ..util.retry import DURABLE_WRITE_POLICY, RetryPolicy, call_retrying

__all__ = ["LockTimeoutError", "WriteAheadLedger"]

logger = logging.getLogger(__name__)

#: Backoff schedule for timed lock acquisition: decorrelated jitter up
#: front (so colliding lockers spread out), then steady cap-paced polls.
_LOCK_RETRY_POLICY = RetryPolicy(retries=64, base=0.0005, cap=0.01)

#: ``flock(LOCK_NB)`` signals "held by someone else" with either of
#: these depending on the platform.
_LOCK_HELD_ERRNOS = frozenset({_errno.EAGAIN, _errno.EACCES})


class LockTimeoutError(TimeoutError):
    """Timed acquisition of the ledger's cross-process lock gave up.

    Raised only when the ledger was constructed with ``lock_timeout``;
    always *before* any record was read or written, so retrying is safe
    and spend state is untouched.
    """

    def __init__(self, path: str, timeout: float, waited: float):
        self.path = str(path)
        self.timeout = float(timeout)
        self.waited = float(waited)
        super().__init__(
            f"could not acquire ledger lock {self.path!r} within "
            f"{self.timeout:g}s (waited {self.waited:.3f}s)"
        )


class WriteAheadLedger:
    """The accountant's durable half: an append-only checksummed JSONL file.

    The ledger tracks ``offset`` — the byte position up to which *this
    process* has replayed committed records — so :meth:`read_new` returns
    exactly the records other writers (or a pre-crash self) appended
    since, and :meth:`append` writes land after them.
    """

    def __init__(self, path: str, lock_timeout: float | None = None):
        self.path = str(path)
        self.offset = 0  # bytes of committed records consumed so far
        self._torn_at: int | None = None  # file offset of a detected torn tail
        if lock_timeout is not None and not lock_timeout > 0:
            raise ValueError(
                f"lock_timeout must be positive or None, got {lock_timeout!r}"
            )
        self.lock_timeout = lock_timeout
        parent = os.path.dirname(os.path.abspath(self.path))
        if not os.path.isdir(parent):
            raise ValueError(
                f"ledger directory {parent!r} does not exist — create it "
                "before opening a write-ahead ledger there"
            )

    # -- locking -------------------------------------------------------------
    @contextlib.contextmanager
    def locked(self):
        """Exclusive cross-process lock for read-check-append cycles."""
        if fcntl is None:
            yield
            return
        faults.check("ledger.lock")
        with open(self.path + ".lock", "a") as lock:
            if self.lock_timeout is None:
                fcntl.flock(lock, fcntl.LOCK_EX)
            else:
                self._flock_timed(lock)
            try:
                yield
            finally:
                fcntl.flock(lock, fcntl.LOCK_UN)

    def _flock_timed(self, lock) -> None:
        """Non-blocking ``flock`` attempts under jittered backoff until
        ``lock_timeout`` elapses, then :class:`LockTimeoutError`."""
        start = time.monotonic()
        give_up = start + self.lock_timeout
        delays = _LOCK_RETRY_POLICY.delays()
        while True:
            try:
                fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
                return
            except OSError as e:
                if e.errno not in _LOCK_HELD_ERRNOS:
                    raise
            now = time.monotonic()
            if now >= give_up:
                raise LockTimeoutError(
                    self.path + ".lock", self.lock_timeout, now - start
                )
            # After the jittered schedule runs out, keep polling at the cap.
            delay = next(delays, _LOCK_RETRY_POLICY.cap)
            time.sleep(min(delay, give_up - now))

    # -- reading -------------------------------------------------------------
    def read_new(self) -> list[dict]:
        """Replay committed records appended since our offset.

        Stops (without advancing past) the first torn/corrupt line.  Safe
        to call without the lock: a half-written record simply fails its
        checksum and is retried on the next call; truncation of a real
        torn tail only ever happens under the lock.
        """
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return []
        if size == self.offset and self._torn_at is None:
            return []
        with open(self.path, "rb") as f:
            f.seek(self.offset)
            data = f.read()
        records, used, torn = parse_committed(data)
        self._torn_at = self.offset + used if torn else None
        self.offset += used
        return records

    def truncate_torn_tail(self) -> int:
        """Physically drop a detected torn tail (call under the lock only:
        with the lock held, any writer of that tail is provably dead).
        Returns the number of bytes removed."""
        if self._torn_at is None:
            return 0
        removed = os.path.getsize(self.path) - self._torn_at
        with open(self.path, "r+b") as f:
            f.truncate(self._torn_at)
            f.flush()

            def _fsync():
                faults.check("ledger.truncate.fsync")
                os.fsync(f.fileno())

            call_retrying(_fsync, DURABLE_WRITE_POLICY)
        self._torn_at = None
        if removed:
            logger.warning(
                "truncated %d-byte torn tail from ledger %s (a crashed "
                "writer's uncommitted record)",
                removed,
                self.path,
            )
            if _METRICS.enabled:
                _METRICS.counter("ledger.torn_tails_total").inc()
        return removed

    # -- writing -------------------------------------------------------------
    def append(self, record: dict) -> None:
        """Durably append one record: encode → write → flush → **fsync**.

        Call under :meth:`locked` after :meth:`read_new`; returns only
        once the record is on stable storage, so the caller may then
        safely release the irreversible effect the record authorizes
        (draw noise, apply the debit in memory).  A detected torn tail is
        truncated first so the new record lands after the committed
        prefix, not after garbage that would mask it from every future
        replay.
        """
        if self._torn_at is not None:
            self.truncate_torn_tail()
        line = faults.mangle("ledger.append.payload", encode_record(record))
        with open(self.path, "ab") as f:

            def _write():
                faults.check("ledger.append.write")
                f.write(line)
                f.flush()

            def _fsync():
                faults.check("ledger.append.fsync")
                os.fsync(f.fileno())

            call_retrying(_write, DURABLE_WRITE_POLICY)
            if _METRICS.enabled:
                t0 = time.perf_counter()
                call_retrying(_fsync, DURABLE_WRITE_POLICY)
                _METRICS.histogram("ledger.fsync_ms").observe(
                    (time.perf_counter() - t0) * 1e3
                )
            else:
                call_retrying(_fsync, DURABLE_WRITE_POLICY)
        # Kill-point between the durable write and the caller's in-memory
        # apply: a crash here leaves a committed record the next recovery
        # replays — budget conservatively spent, never overdrawn.
        faults.check("ledger.append.commit")
        self.offset += len(line)
