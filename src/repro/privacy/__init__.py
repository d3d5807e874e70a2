"""repro.privacy — the mechanism subsystem.

First-class noise mechanisms (Laplace / Gaussian), zCDP/(ε, δ)
composition accounting, and per-dataset budget policies.  Built on the
calculus in :mod:`repro.core.privacy`; consumed by the service
accountant, the planner's mechanism comparison, and the HTTP front-end.

* :mod:`repro.privacy.mechanisms` — :class:`Mechanism` objects bundling
  noise distribution, sensitivity norm, calibration, and accounting
  cost.
* :mod:`repro.privacy.accounting` — :class:`PrivacyCost` and
  :class:`SpendCurve`.
* :mod:`repro.privacy.records` — the WAL record format and
  :class:`SpendState`, the one fold over it (shared by the accountant's
  recovery, its live debits, and the read-only spend report).
* :mod:`repro.privacy.policy` — pure-ε, (ε, δ), and ρ-zCDP budget caps.
"""

from .accounting import (
    DEFAULT_DELTA,
    PrivacyCost,
    SpendCurve,
    eps_to_rho,
    pure_eps_to_rho,
    rho_to_eps,
)
from .mechanisms import (
    GaussianMechanism,
    LaplaceMechanism,
    Mechanism,
    get_mechanism,
)
from .policy import (
    CAP_SLACK,
    ApproxDPPolicy,
    BudgetPolicy,
    PureEpsilonPolicy,
    ZCDPPolicy,
    policy_from_dict,
)
from .records import cost_from_record, fold_debit

__all__ = [
    "CAP_SLACK",
    "DEFAULT_DELTA",
    "ApproxDPPolicy",
    "BudgetPolicy",
    "GaussianMechanism",
    "LaplaceMechanism",
    "Mechanism",
    "PrivacyCost",
    "PureEpsilonPolicy",
    "SpendCurve",
    "ZCDPPolicy",
    "cost_from_record",
    "eps_to_rho",
    "fold_debit",
    "get_mechanism",
    "policy_from_dict",
    "pure_eps_to_rho",
    "rho_to_eps",
]
