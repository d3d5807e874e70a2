"""ε-spend observability: render the accountant's state as a budget report.

The accountant's write-ahead ledger (:mod:`repro.service.ledger`) is the
authoritative record of every privacy debit.  Both entry points here
render the same thing — a :class:`repro.privacy.records.SpendState`, the
one fold over ledger records that the accountant itself keeps — so the
report's per-dataset totals (ε, and for mixed-mechanism ledgers δ and
the zCDP ρ) are bit-equal to what
:meth:`PrivacyAccountant.recover` would compute from the same ledger.
v1 pure-ε ledgers replay unchanged; v2 Gaussian debit records
additionally carry ``mechanism``/``delta``/``rho``.

Three entry points:

* :func:`replay` — ``SpendReport`` from a ledger path, read-only: it
  parses the committed record prefix without locking or truncating;
* :func:`report_from_accountant` — the same report from a live
  accountant's state (used by ``Session.budget_report()``);
* the CLI: ``python -m repro.obs.spend <ledger> [--json]``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field

from ..privacy.accounting import SpendCurve
from ..privacy.policy import policy_from_dict
from ..privacy.records import SpendState
from ..util.jsonl import parse_committed

__all__ = [
    "DatasetSpend",
    "SpendEvent",
    "SpendReport",
    "main",
    "replay",
    "report_from_accountant",
]


@dataclass
class SpendEvent:
    """One committed debit, with the running total after it applied."""

    seq: int  # 0-based position among the ledger's debit records
    dataset: str
    epsilon: float
    composition: str
    stage: str
    cumulative: float  # dataset spend right after this debit
    mechanism: str = "laplace"
    delta: float = 0.0
    rho: float = 0.0


@dataclass
class DatasetSpend:
    """Per-dataset budget position replayed from the ledger.

    ``spent`` is the ε fold (unchanged from v1); ``delta`` and ``rho``
    are the composed (ε, δ)/zCDP curve coordinates, 0 for pure-ε
    ledgers.  ``policy`` is the serialized budget policy from a v2
    register record (None for v1 float caps).
    """

    dataset: str
    cap: float | None  # None: no register record and no default cap
    spent: float = 0.0
    debits: int = 0
    last_stage: str = ""
    delta: float = 0.0
    rho: float = 0.0
    policy: dict | None = None

    @property
    def remaining(self) -> float:
        """ε-denominated remaining budget, matching the accountant's
        :meth:`~repro.service.accountant.PrivacyAccountant.remaining`."""
        if self.policy is not None:
            return policy_from_dict(self.policy).epsilon_remaining(
                SpendCurve(self.spent, self.delta, self.rho)
            )
        if self.cap is None:
            return float("inf")
        return max(0.0, self.cap - self.spent)

    @property
    def native_remaining(self) -> dict | None:
        """Remaining budget in the policy's native unit(s); None when the
        ledger recorded no policy (v1 float cap or no register)."""
        if self.policy is None:
            return None
        return policy_from_dict(self.policy).remaining(
            SpendCurve(self.spent, self.delta, self.rho)
        )


@dataclass
class SpendReport:
    """The replayed ledger: per-dataset totals plus the debit timeline."""

    source: str
    datasets: dict[str, DatasetSpend] = field(default_factory=dict)
    timeline: list[SpendEvent] = field(default_factory=list)
    records: int = 0  # committed records replayed (registers + debits)
    torn: bool = False  # a torn/corrupt tail was detected (and ignored)

    def spent(self, dataset: str) -> float:
        ds = self.datasets.get(dataset)
        return 0.0 if ds is None else ds.spent

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "records": self.records,
            "torn_tail": self.torn,
            "datasets": {
                name: {
                    "cap": ds.cap,
                    "spent": ds.spent,
                    "remaining": (
                        None
                        if ds.cap is None and ds.policy is None
                        else ds.remaining
                    ),
                    "debits": ds.debits,
                    "last_stage": ds.last_stage,
                    "delta": ds.delta,
                    "rho": ds.rho,
                    "policy": ds.policy,
                    "native_remaining": ds.native_remaining,
                }
                for name, ds in sorted(self.datasets.items())
            },
            "timeline": [asdict(e) for e in self.timeline],
        }

    def render(self) -> str:
        """Human-readable per-dataset budget table."""
        head = (
            f"ε-spend report — {self.source} "
            f"({self.records} committed records"
            + (", torn tail detected" if self.torn else "")
            + ")"
        )
        if not self.datasets:
            return head + "\n  (no datasets)"
        # δ/ρ columns appear only when some Gaussian debit landed (its
        # δ is always > 0), so the pure-ε table stays byte-stable for v1
        # ledgers — whose ρ curve (ε²/2 per debit) is still tracked.
        mixed = any(ds.delta != 0.0 for ds in self.datasets.values())
        rows = [
            (
                name,
                f"{ds.spent:g}",
                "∞" if ds.cap is None else f"{ds.cap:g}",
                "∞" if ds.cap is None and ds.policy is None else f"{ds.remaining:g}",
                str(ds.debits),
                ds.last_stage or "—",
            )
            + ((f"{ds.delta:g}", f"{ds.rho:g}") if mixed else ())
            for name, ds in sorted(self.datasets.items())
        ]
        cols = ["dataset", "spent", "cap", "remaining", "debits", "last stage"]
        if mixed:
            cols += ["δ", "ρ"]
        widths = [
            max(len(cols[j]), *(len(r[j]) for r in rows))
            for j in range(len(cols))
        ]
        lines = [head, "  " + "  ".join(c.ljust(w) for c, w in zip(cols, widths))]
        for r in rows:
            lines.append("  " + "  ".join(v.ljust(w) for v, w in zip(r, widths)))
        return "\n".join(lines)


def _report(source: str, state: SpendState, records: int) -> SpendReport:
    """Render a folded state: per-dataset totals plus the debit timeline."""
    report = SpendReport(source=source, records=records)
    for name, (policy, curve) in state.budgets.items():
        report.datasets[name] = DatasetSpend(
            name,
            None if policy is None else policy.epsilon_cap(),
            spent=curve.epsilon,
            delta=curve.delta,
            rho=curve.rho,
            policy=(
                None
                if policy is None or policy.kind == "epsilon"
                else policy.to_dict()
            ),
        )
    for seq, entry in enumerate(state.ledger):
        ds = report.datasets[entry.dataset]
        ds.debits += 1
        ds.last_stage = entry.stage
        report.timeline.append(SpendEvent(seq=seq, **asdict(entry)))
    return report


def replay(path: str, default_cap: float | None = None) -> SpendReport:
    """Read-only replay of a ledger's committed prefix.

    Unlike :meth:`PrivacyAccountant.recover`, this takes no lock and
    never truncates: a torn tail is reported (``report.torn``) but left
    on disk for the next locking writer to clean up.  ``default_cap``
    must be a valid budget, as for the accountant.
    """
    state = SpendState(default_cap)
    try:
        with open(path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        data = b""
    records, _, torn = parse_committed(data)
    state.apply(records)
    report = _report(os.path.abspath(path), state, len(records))
    report.torn = torn
    return report


def report_from_accountant(accountant) -> SpendReport:
    """The same report, from a live accountant's state (other writers'
    committed records included).  ``records`` counts one implied
    register record per registered dataset plus every debit."""
    state = accountant.snapshot()
    registered = sum(policy is not None for policy, _ in state.budgets.values())
    return _report(
        accountant.wal_path or "<memory>",
        state,
        registered + len(state.ledger),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.spend",
        description="Replay a write-ahead ε-ledger into a spend report "
        "(read-only: no locking, no torn-tail truncation).",
    )
    parser.add_argument("ledger", help="path of the WAL ledger file")
    parser.add_argument(
        "--default-cap",
        type=float,
        default=None,
        help="cap assumed for datasets the ledger debits but never "
        "registers (mirrors PrivacyAccountant's default_cap)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the full report (datasets + timeline) as JSON",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(args.ledger):
        print(f"error: no ledger file at {args.ledger}", file=sys.stderr)
        return 2
    try:
        report = replay(args.ledger, default_cap=args.default_cap)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
