"""Privacy-budget accounting for the query service.

Each dataset a service instance answers queries about carries a hard
epsilon cap — the total privacy loss its owners have authorized.  The
accountant is the single gate in front of MEASURE: every measurement
debits it *before* any noise is drawn, and a debit that would exceed the
cap raises :class:`BudgetExceededError` with the data untouched, making
over-spending a programming error rather than a silent privacy violation.
One :class:`PrivacyAccountant` tracks many datasets across many requests;
a single pipeline that splits its budget across stages debits it once
per stage.

Two composition rules are supported:

* **sequential** (:meth:`PrivacyAccountant.charge`) — mechanisms run on
  the same data compose additively: the total loss of an ε-sweep is the
  sum of its trials' budgets.
* **parallel** (:meth:`PrivacyAccountant.charge_parallel`) — mechanisms
  run on *disjoint partitions* of the data compose by the maximum: a
  record appears in one partition only, so its worst-case privacy loss is
  the largest branch budget (e.g. DAWA-style per-bucket measurement, or
  per-region serving shards).

Everything downstream of a measurement — reconstruction, workload
answering, ad-hoc queries against a cached x̂ — is post-processing and
never touches the accountant.

Durability
----------
With ``wal_path=`` (or via :meth:`PrivacyAccountant.recover`), the
accountant is backed by a :class:`~repro.service.ledger.WriteAheadLedger`:
every register/debit is checksummed and **fsync'd before the method
returns** — i.e. before the caller draws any noise — so no crash can
leave released noise unaccounted.  On startup, committed records are
replayed (a torn tail from a crashed writer is truncated) and the
in-memory state is exactly the pre-crash committed prefix.  Debits run
as a cross-process **compare-and-debit**: under the ledger's file lock,
records appended by other processes are replayed first, then the cap is
checked, then the new record is appended — two processes sharing a
ledger path can never jointly overdraw a cap.  All public methods are
additionally thread-safe behind one re-entrant lock.
"""

from __future__ import annotations

import contextlib
import logging
import threading

import numpy as np

from ..core.measure import Mechanism, get_mechanism
from ..core.solvers import validate_epsilon, validate_positive_int
from ..obs.metrics import REGISTRY as _METRICS
from ..privacy.accounting import SpendCurve
from ..privacy.policy import BudgetPolicy, PureEpsilonPolicy
from ..privacy.records import (
    LedgerEntry,
    SpendState,
    debit_record,
    register_record,
)
from .ledger import WriteAheadLedger

__all__ = ["BudgetExceededError", "LedgerEntry", "PrivacyAccountant"]

logger = logging.getLogger(__name__)


class BudgetExceededError(RuntimeError):
    """A debit would push a dataset past its budget policy's cap.

    Raised *before* any measurement noise is drawn — the mechanism that
    attempted the spend never touched the data.  Carries the full budget
    picture as attributes (``dataset``, ``cap``, ``spent``, ``requested``,
    ``remaining``, ``composition`` — all ε-denominated for backward
    compatibility, plus ``policy_kind`` and ``native_remaining``, the
    unspent budget in the policy's own unit: ``{"epsilon": …}``,
    ``{"epsilon": …, "delta": …}``, or ``{"rho": …}``) so callers can act
    on the remaining budget instead of parsing the message.
    """

    def __init__(
        self,
        dataset: str,
        cap: float,
        spent: float,
        requested: float,
        composition: str = "sequential",
        *,
        policy_kind: str = "epsilon",
        native_remaining: dict | None = None,
    ):
        self.dataset = dataset
        self.cap = float(cap)
        self.spent = float(spent)
        self.requested = float(requested)
        self.remaining = max(0.0, self.cap - self.spent)
        self.composition = composition
        self.policy_kind = policy_kind
        self.native_remaining = (
            {"epsilon": self.remaining}
            if native_remaining is None
            else dict(native_remaining)
        )
        native = ""
        if policy_kind != "epsilon":
            parts = ", ".join(
                f"{k}={v:g}" for k, v in sorted(self.native_remaining.items())
            )
            native = f" [{policy_kind} policy; native remaining: {parts}]"
        super().__init__(
            f"privacy budget exceeded for dataset {dataset!r}: requested "
            f"debit {self.requested:g} ({composition}) but only "
            f"{self.remaining:g} of cap {self.cap:g} remains "
            f"(spent {self.spent:g})" + native
        )


class PrivacyAccountant:
    """Multi-dataset epsilon ledger with hard per-dataset caps.

    Parameters
    ----------
    default_cap:
        Cap auto-registered for datasets first seen by a charge.  With
        the default ``None``, every dataset must be registered explicitly
        — unknown datasets raise ``KeyError`` rather than silently
        spending an unbounded budget.
    wal_path:
        Path of the write-ahead ledger file backing this accountant.
        ``None`` (default) keeps state in memory only — a crash forgets
        everything, acceptable for tests and synthetic benchmarks, never
        for real data.  An existing file is recovered on construction:
        committed records are replayed and a torn tail is truncated.
    lock_timeout:
        Bound (seconds) on waiting for the ledger's cross-process lock.
        ``None`` (default) blocks indefinitely — the library semantics.
        Serving callers set it so a stuck peer raises
        :class:`repro.service.ledger.LockTimeoutError` (retryable, zero
        spend) instead of parking a request thread forever.
    """

    def __init__(
        self,
        default_cap: float | None = None,
        wal_path: str | None = None,
        lock_timeout: float | None = None,
    ):
        self._state = SpendState(default_cap)
        self._lock = threading.RLock()
        self._wal = (
            None
            if wal_path is None
            else WriteAheadLedger(wal_path, lock_timeout=lock_timeout)
        )
        if self._wal is not None:
            with self._wal.locked():
                records = self._wal.read_new()
                self._state.apply(records)
                dropped = self._wal.truncate_torn_tail()
            if records:
                logger.info(
                    "recovered %d committed record(s) for %d dataset(s) "
                    "from ledger %s%s",
                    len(records),
                    len(self._state.budgets),
                    self._wal.path,
                    f" (dropped {dropped}-byte torn tail)" if dropped else "",
                )

    @classmethod
    def recover(
        cls, wal_path: str, default_cap: float | None = None
    ) -> "PrivacyAccountant":
        """Rebuild an accountant from its write-ahead ledger.

        Replays the committed record prefix (register records restore
        caps, debit records restore per-dataset spend and the in-memory
        :attr:`ledger`), truncating any torn tail a crashed writer left.
        The result is exactly the state every pre-crash ``charge`` call
        had durably committed — never less, so no released noise is ever
        unaccounted.
        """
        return cls(default_cap=default_cap, wal_path=wal_path)

    @property
    def default_cap(self) -> float | None:
        return self._state.default_cap

    @property
    def ledger(self) -> list[LedgerEntry]:
        """Every debit this accountant has observed, in commit order."""
        return self._state.ledger

    @property
    def wal_path(self) -> str | None:
        """Path of the backing write-ahead ledger (None = memory only)."""
        return None if self._wal is None else self._wal.path

    # -- WAL plumbing ------------------------------------------------------
    @contextlib.contextmanager
    def _transact(self):
        """One atomic read-check-append cycle: thread lock, then (when a
        WAL is attached) the cross-process file lock with other writers'
        tail replayed before the caller's check runs."""
        with self._lock:
            if self._wal is None:
                yield
            else:
                with self._wal.locked():
                    self._state.apply(self._wal.read_new())
                    yield

    def sync(self) -> None:
        """Fold in records other processes appended since the last look.

        Lock-free read: a record mid-write by a live writer simply fails
        its checksum and is picked up on the next call."""
        with self._lock:
            if self._wal is not None:
                self._state.apply(self._wal.read_new())

    def snapshot(self) -> SpendState:
        """A copy of the folded state, other writers' records included."""
        self.sync()
        with self._lock:
            return self._state.copy()

    # -- registration ------------------------------------------------------
    def _register_locked(self, dataset: str, policy: BudgetPolicy) -> None:
        """Registration core; caller holds whatever locks apply."""
        entry = self._state.budgets.get(dataset)
        current, curve = (None, SpendCurve()) if entry is None else entry
        if not policy.covers(curve):
            raise ValueError(
                f"cap {policy.describe()} for dataset {dataset!r} is below "
                f"the already-spent budget {curve.as_dict()}"
            )
        # A policy taken from default_cap at a first debit is not in the
        # WAL, so registering that same policy explicitly must write it.
        if self._wal is not None and (
            current != policy or dataset in self._state.implicit
        ):
            self._wal.append(register_record(dataset, policy))
        self._state.register(dataset, policy)

    def register(
        self,
        dataset: str,
        cap: float | None = None,
        policy: BudgetPolicy | None = None,
    ) -> None:
        """Set (or raise) the budget policy of a dataset.

        ``cap`` (a float) is the historical pure-ε form, equivalent to
        ``policy=PureEpsilonPolicy(cap)``; ``policy`` registers any
        :class:`~repro.privacy.policy.BudgetPolicy` — an (ε, δ) cap or a
        ρ-zCDP cap.  A policy below what is already spent is rejected —
        budgets may be extended by the data owner but never retroactively
        shrunk under the amount consumed.  With a WAL attached, the
        policy is durably recorded before it takes effect (pure-ε caps as
        byte-identical v1 records, other policies as v2 records).
        """
        if (cap is None) == (policy is None):
            raise ValueError("pass exactly one of cap= or policy=")
        if policy is None:
            policy = PureEpsilonPolicy(float(validate_epsilon(cap, "cap")))
        with self._transact():
            self._register_locked(dataset, policy)

    def datasets(self) -> list[str]:
        with self._lock:
            return sorted(
                ds
                for ds, (policy, _) in self._state.budgets.items()
                if policy is not None
            )

    def _budget(self, dataset: str) -> tuple[BudgetPolicy, SpendCurve]:
        """The dataset's ``(policy, curve)``.  A dataset not registered
        yet gets a transient ``default_cap`` policy that is not stored:
        ``SpendState.debit`` registers it when a debit commits, exactly
        as replaying the ledger does, so a refused first debit or a mere
        read leaves no dataset behind."""
        entry = self._state.budgets.get(dataset)
        if entry is not None and entry[0] is not None:
            return entry
        if self.default_cap is None:
            raise KeyError(
                f"dataset {dataset!r} is not registered with the "
                "accountant (and no default_cap is set)"
            )
        curve = SpendCurve() if entry is None else entry[1]
        return PureEpsilonPolicy(self.default_cap), curve

    # -- inspection --------------------------------------------------------
    def cap(self, dataset: str) -> float:
        with self._lock:
            return self._budget(dataset)[0].epsilon_cap()

    def spent(self, dataset: str) -> float:
        self.sync()
        with self._lock:
            return self._budget(dataset)[1].epsilon

    def remaining(self, dataset: str) -> float:
        """ε-denominated unspent budget: the largest single pure-ε debit
        the dataset's policy would still admit (for a pure-ε cap this is
        exactly ``cap - spent``, as before)."""
        self.sync()
        with self._lock:
            policy, curve = self._budget(dataset)
            return policy.epsilon_remaining(curve)

    def policy(self, dataset: str) -> BudgetPolicy:
        """The dataset's registered budget policy."""
        with self._lock:
            return self._budget(dataset)[0]

    def curve(self, dataset: str) -> SpendCurve:
        """A copy of the dataset's composed spend curve (ε, δ, ρ)."""
        self.sync()
        with self._lock:
            return self._budget(dataset)[1].copy()

    def native_remaining(self, dataset: str) -> dict:
        """Unspent budget in the policy's native unit(s)."""
        self.sync()
        with self._lock:
            policy, curve = self._budget(dataset)
            return policy.remaining(curve)

    # -- debits ------------------------------------------------------------
    def check(
        self,
        dataset: str,
        eps,
        stage: str = "",
        mechanism: str | Mechanism = "laplace",
        delta: float | None = None,
    ) -> float:
        """Validate a prospective sequential debit without recording it.

        Returns the ε total that :meth:`charge` would debit; raises
        :class:`BudgetExceededError` if it does not fit the dataset's
        policy.  Advisory under concurrency: only :meth:`charge` holds
        the check and the debit under one lock.
        """
        cost = get_mechanism(mechanism, delta).cost(eps)
        self.sync()
        with self._lock:
            self._check(dataset, cost, "sequential")
        return cost.epsilon

    def _check(self, dataset: str, cost, composition: str) -> None:
        policy, curve = self._budget(dataset)
        if not policy.admits(curve, cost):
            raise BudgetExceededError(
                dataset,
                policy.epsilon_cap(),
                curve.epsilon,
                cost.epsilon,
                composition,
                policy_kind=policy.kind,
                native_remaining=policy.remaining(curve),
            )

    def _debit(self, dataset: str, cost, composition: str, stage: str) -> float:
        """The compare-and-debit core: check + WAL append + apply, atomic
        across threads and (with a WAL) across processes.  The WAL record
        is fsync'd before the in-memory state moves, so the method returns
        only once the debit is durable — the caller draws noise after."""
        with self._transact():
            try:
                self._check(dataset, cost, composition)
            except BudgetExceededError as e:
                logger.warning(
                    "refused %s debit of %g on dataset %r: %g spent of "
                    "cap %g (stage %r)",
                    composition, cost.epsilon, dataset, e.spent, e.cap, stage,
                )
                if _METRICS.enabled:
                    _METRICS.counter(
                        "accountant.refusals_total", dataset=dataset
                    ).inc()
                raise
            record = debit_record(dataset, cost, composition, stage)
            if self._wal is not None:
                self._wal.append(record)
            # fold the record (not the cost) so live state and a later
            # replay of the same ledger are bit-equal by construction
            self._state.debit(record)
            if _METRICS.enabled:
                _METRICS.counter(
                    "accountant.epsilon_spent", dataset=dataset
                ).inc(cost.epsilon)
                _METRICS.counter(
                    "accountant.debits_total",
                    dataset=dataset,
                    composition=composition,
                ).inc()
        return cost.epsilon

    def charge(
        self,
        dataset: str,
        eps,
        stage: str = "",
        mechanism: str | Mechanism = "laplace",
        delta: float | None = None,
        trials: int = 1,
    ) -> float:
        """Debit under sequential composition: the *sum* of the budgets.

        ``eps`` may be a scalar or an array of per-mechanism budgets run
        on the same data, each ``trials`` times (an ε-sweep debits its
        grid total times its trial count).  For ``mechanism="gaussian"``
        the debit additionally carries the summed δ and the summed
        per-trial zCDP cost ρ, recorded as a v2 WAL record.  Returns the
        ε amount debited, which is durably committed (WAL accountants)
        before this method returns.
        """
        trials = validate_positive_int("trials", trials)
        cost = get_mechanism(mechanism, delta).cost(eps, trials)
        return self._debit(dataset, cost, "sequential", stage)

    def charge_parallel(
        self,
        dataset: str,
        eps,
        stage: str = "",
        mechanism: str | Mechanism = "laplace",
        delta: float | None = None,
    ) -> float:
        """Debit under parallel composition: the *maximum* branch budget.

        For mechanisms applied to disjoint partitions of the dataset —
        each record is touched by exactly one branch, so the collective
        release is max(ε)-DP (and max-ρ zCDP).  Returns the ε amount
        debited.
        """
        branch_max = float(np.max(validate_epsilon(eps)))
        cost = get_mechanism(mechanism, delta).cost(branch_max)
        return self._debit(dataset, cost, "parallel", stage)

    def __repr__(self) -> str:
        with self._lock:
            parts = ", ".join(
                f"{d}: {self._state.budgets[d][1].epsilon:g}/"
                f"{self._state.budgets[d][0].epsilon_cap():g}"
                for d in self.datasets()
            )
        wal = "" if self._wal is None else f", wal={self._wal.path!r}"
        return f"PrivacyAccountant({parts or 'no datasets'}{wal})"
