"""repro.privacy — privacy accounting over the noise mechanisms.

zCDP/(ε, δ) composition accounting and per-dataset budget policies,
consumed by the service accountant and the HTTP front-end.  The noise
mechanisms themselves (:class:`Mechanism`, :class:`LaplaceMechanism`,
:class:`GaussianMechanism`, :func:`get_mechanism`) are the MEASURE step
and live in :mod:`repro.core.measure`; the curves and
:class:`PrivacyCost` live in :mod:`repro.core.privacy`.  Both are
re-exported here under the same names.

* :mod:`repro.privacy.accounting` — :class:`SpendCurve`, plus the
  re-exported :class:`PrivacyCost` and conversion curves.
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
from ..core.measure import (
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
