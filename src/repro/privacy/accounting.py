"""zCDP/(ε, δ) composition curves: what a debit costs and how costs add.

The accountant's durable state is a WAL of debit records; this module
defines what a debit *costs* and how costs compose:

* :class:`PrivacyCost` — the cost of one noisy release in every unit at
  once: its pure-ε equivalent (``epsilon``), the δ it was calibrated
  against (``delta``), and its zCDP budget (``rho``).  Laplace releases
  are ``(ε, 0, ε²/2)``; Gaussian releases calibrated to a target (ε, δ)
  are ``(ε, δ, eps_to_rho(ε, δ))``.  It is defined in
  :mod:`repro.core.privacy` and priced by each mechanism's
  :meth:`~repro.core.measure.Mechanism.cost`.
* :class:`SpendCurve` — a dataset's composed position: every debit adds
  each component (a parallel-composition debit is its largest branch,
  taken before the debit is recorded).  Conversion back to (ε, δ)
  happens at *report* time via :meth:`SpendCurve.epsilon_at`, using the
  full zCDP history (tighter than summing the per-release ε's).

The WAL record format and the fold over it live in
:mod:`repro.privacy.records`.

The conversion curves themselves (zCDP ↔ (ε, δ), Bun & Steinke 2016)
and :class:`PrivacyCost` live in :mod:`repro.core.privacy` and are
re-exported here as the canonical accounting API.
"""

from __future__ import annotations

from ..core.privacy import (
    DEFAULT_DELTA,
    PrivacyCost,
    eps_to_rho,
    pure_eps_to_rho,
    rho_to_eps,
)

__all__ = [
    "DEFAULT_DELTA",
    "PrivacyCost",
    "SpendCurve",
    "eps_to_rho",
    "pure_eps_to_rho",
    "rho_to_eps",
]


class SpendCurve:
    """A dataset's composed privacy position across mixed mechanisms.

    Three accumulators, each folded with plain ``+`` so replay
    arithmetic is bit-stable:

    * ``epsilon`` — sum of per-release ε equivalents (the v1 ledger fold;
      a valid pure-ε guarantee for Laplace-only traffic and the ε half of
      a basic-composition (ε, δ) guarantee otherwise);
    * ``delta`` — sum of per-release δ's (the δ half of that guarantee);
    * ``rho`` — zCDP-denominated total (Laplace folds ``ε²/2``, Gaussian
      folds its native ρ), the tight curve for report-time conversion.
    """

    __slots__ = ("epsilon", "delta", "rho")

    def __init__(self, epsilon: float = 0.0, delta: float = 0.0, rho: float = 0.0):
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.rho = float(rho)

    def add(self, cost: PrivacyCost) -> None:
        """Sequential composition: every component adds."""
        self.epsilon = self.epsilon + cost.epsilon
        self.delta = self.delta + cost.delta
        self.rho = self.rho + cost.rho

    def epsilon_at(self, delta: float = DEFAULT_DELTA) -> float:
        """The (ε, δ)-DP guarantee of the whole history at report time.

        Converts the composed zCDP curve: ``ε = ρ + 2·sqrt(ρ·ln(1/δ))``.
        Tighter than ``self.epsilon`` once more than a few releases have
        composed (zCDP composition beats basic composition).
        """
        return rho_to_eps(self.rho, delta)

    def copy(self) -> "SpendCurve":
        return SpendCurve(self.epsilon, self.delta, self.rho)

    def as_dict(self) -> dict:
        return {"epsilon": self.epsilon, "delta": self.delta, "rho": self.rho}

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpendCurve):
            return NotImplemented
        return (
            self.epsilon == other.epsilon
            and self.delta == other.delta
            and self.rho == other.rho
        )

    def __repr__(self) -> str:
        return (
            f"SpendCurve(epsilon={self.epsilon:g}, delta={self.delta:g}, "
            f"rho={self.rho:g})"
        )

