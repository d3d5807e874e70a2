"""The privacy ledger's record format and the one fold over it.

The accountant's durable state is a WAL of register and debit records
(:mod:`repro.service.ledger` frames them as checksummed JSON lines).
This module owns what those records *say*:

* :func:`register_record` / :func:`debit_record` build them.  Pure-ε
  caps and Laplace debits stay byte-identical v1 records; other policies
  and Gaussian debits are v2 records carrying the policy dict or the
  debit's ``mechanism``/``delta``/``rho``.
* :class:`SpendState` folds them: one map ``dataset → (policy,
  SpendCurve)`` plus the ordered debit timeline.  WAL recovery, live
  debits (:class:`repro.service.accountant.PrivacyAccountant`) and the
  read-only spend report (:mod:`repro.obs.spend`) all hold this state and
  move it only through :meth:`SpendState.apply`'s register/debit steps,
  so their totals are bit-equal by construction.

v1 debit records (pure-ε, no ``delta``/``rho`` fields) fold as Laplace
debits, reproducing the pre-mechanism-subsystem totals bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..core.solvers import validate_epsilon
from .accounting import PrivacyCost, SpendCurve, pure_eps_to_rho
from .policy import BudgetPolicy, PureEpsilonPolicy, policy_from_dict

__all__ = [
    "LedgerEntry",
    "SpendState",
    "cost_from_record",
    "debit_record",
    "fold_debit",
    "register_record",
]


@dataclass
class LedgerEntry:
    """One recorded debit: which dataset, how much, and under which rule.

    ``cumulative`` is the dataset's ε spend right after this debit.
    """

    dataset: str
    epsilon: float
    composition: str  # "sequential" | "parallel"
    stage: str = ""
    mechanism: str = "laplace"
    delta: float = 0.0
    rho: float = 0.0
    cumulative: float = 0.0


def register_record(dataset: str, policy: BudgetPolicy) -> dict:
    """The WAL record that registers ``policy`` for ``dataset``."""
    if type(policy) is PureEpsilonPolicy:
        # byte-identical to the historical v1 register record
        return {"v": 1, "kind": "register", "dataset": dataset, "cap": policy.epsilon}
    return {"v": 2, "kind": "register", "dataset": dataset, "policy": policy.to_dict()}


def debit_record(
    dataset: str, cost: PrivacyCost, composition: str, stage: str
) -> dict:
    """The WAL record of one debit.  Laplace debits stay v1 records (a v1
    record's ρ is derivable, ε²/2, so it is never stored); only Gaussian
    debits need the v2 fields (δ, native ρ)."""
    if cost.mechanism == "laplace":
        return {
            "v": 1,
            "kind": "debit",
            "dataset": dataset,
            "epsilon": cost.epsilon,
            "composition": composition,
            "stage": stage,
        }
    return {
        "v": 2,
        "kind": "debit",
        "dataset": dataset,
        "epsilon": cost.epsilon,
        "delta": cost.delta,
        "rho": cost.rho,
        "mechanism": cost.mechanism,
        "composition": composition,
        "stage": stage,
    }


def cost_from_record(record: Mapping) -> PrivacyCost:
    """The :class:`PrivacyCost` a committed WAL debit record carries.

    v1 records have only ``epsilon`` — they fold as Laplace debits
    (δ = 0, ρ = ε²/2) so pre-mechanism ledgers replay to the same curves
    a live pure-ε run would have produced.  v2 records carry explicit
    ``mechanism``/``delta``/``rho`` fields.
    """
    eps = float(record["epsilon"])
    mechanism = record.get("mechanism", "laplace")
    delta = float(record.get("delta", 0.0))
    rho = record.get("rho")
    rho = pure_eps_to_rho(eps) if rho is None else float(rho)
    return PrivacyCost(epsilon=eps, delta=delta, rho=rho, mechanism=mechanism)


def fold_debit(curve: SpendCurve, record: Mapping) -> PrivacyCost:
    """Fold one debit record into a spend curve; returns the record's
    cost."""
    cost = cost_from_record(record)
    curve.add(cost)
    return cost


class SpendState:
    """Per-dataset budget state folded from ledger records.

    ``budgets`` maps each dataset to ``(policy, curve)``; the policy is
    ``None`` for a dataset that was debited but never registered (and no
    ``default_cap`` applies).  ``ledger`` is every debit, in order.
    Folding applies no cap check: every committed debit passed its check
    when written, and replaying it conservatively — even past a
    since-shrunk cap — can only keep the accounted spend at or above the
    released noise.
    """

    __slots__ = ("default_cap", "budgets", "ledger")

    def __init__(self, default_cap: float | None = None):
        if default_cap is not None:
            default_cap = float(validate_epsilon(default_cap, "default_cap"))
        self.default_cap = default_cap
        self.budgets: dict[str, tuple[BudgetPolicy | None, SpendCurve]] = {}
        self.ledger: list[LedgerEntry] = []

    def apply(self, records: Iterable[Mapping]) -> None:
        """Fold committed records, in order, into the state."""
        for r in records:
            kind = r.get("kind")
            if kind == "register":
                if "policy" in r:  # v2 register carries a serialized policy
                    policy = policy_from_dict(r["policy"])
                else:  # v1 register: a pure-ε cap
                    policy = PureEpsilonPolicy(float(r["cap"]))
                self.register(r["dataset"], policy)
            elif kind == "debit":
                self.debit(r)

    def register(self, dataset: str, policy: BudgetPolicy) -> None:
        """Set a dataset's policy, keeping whatever it has spent."""
        entry = self.budgets.get(dataset)
        self.budgets[dataset] = (
            policy, SpendCurve() if entry is None else entry[1]
        )

    def debit(self, record: Mapping) -> LedgerEntry:
        """Fold one debit record; a dataset first seen here takes the
        ``default_cap`` policy (or none)."""
        dataset = record["dataset"]
        entry = self.budgets.get(dataset)
        if entry is None:
            policy = (
                None
                if self.default_cap is None
                else PureEpsilonPolicy(self.default_cap)
            )
            entry = self.budgets[dataset] = (policy, SpendCurve())
        curve = entry[1]
        cost = fold_debit(curve, record)
        logged = LedgerEntry(
            dataset,
            cost.epsilon,
            record.get("composition", "sequential"),
            record.get("stage", ""),
            cost.mechanism,
            cost.delta,
            cost.rho,
            curve.epsilon,
        )
        self.ledger.append(logged)
        return logged

    def copy(self) -> "SpendState":
        """An independent snapshot (curves and timeline copied)."""
        out = SpendState()
        out.default_cap = self.default_cap
        out.budgets = {
            ds: (policy, curve.copy())
            for ds, (policy, curve) in self.budgets.items()
        }
        out.ledger = list(self.ledger)
        return out
