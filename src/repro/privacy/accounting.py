"""zCDP/(ε, δ) composition curves: what a debit costs and how costs add.

The accountant's durable state is a WAL of debit records; this module
defines what a debit *costs* and how costs compose:

* :class:`PrivacyCost` — the cost of one noisy release in every unit at
  once: its pure-ε equivalent (``epsilon``), the δ it was calibrated
  against (``delta``), and its zCDP budget (``rho``).  Laplace releases
  are ``(ε, 0, ε²/2)``; Gaussian releases calibrated to a target (ε, δ)
  are ``(ε, δ, eps_to_rho(ε, δ))``.
* :class:`SpendCurve` — a dataset's composed position: every debit adds
  each component (a parallel-composition debit is its largest branch,
  taken before the debit is recorded).  Conversion back to (ε, δ)
  happens at *report* time via :meth:`SpendCurve.epsilon_at`, using the
  full zCDP history (tighter than summing the per-release ε's).

The WAL record format and the fold over it live in
:mod:`repro.privacy.records`.

The conversion curves themselves (zCDP ↔ (ε, δ), Bun & Steinke 2016)
live in :mod:`repro.core.privacy` and are re-exported here as the
canonical accounting API.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.privacy import (
    DEFAULT_DELTA,
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


@dataclass(frozen=True)
class PrivacyCost:
    """The cost of one noisy release, in every accounting unit at once.

    ``epsilon`` is the pure-ε equivalent (what a v1 ledger records and a
    pure-ε cap debits); ``delta`` is the δ the release was calibrated
    against (0 for Laplace); ``rho`` is the zCDP cost (``ε²/2`` for
    Laplace, the calibration ρ for Gaussian).  ``mechanism`` names the
    noise distribution actually drawn.
    """

    epsilon: float
    delta: float = 0.0
    rho: float = 0.0
    mechanism: str = "laplace"

    def __post_init__(self):
        if self.epsilon < 0 or self.delta < 0 or self.rho < 0:
            raise ValueError(f"privacy cost components must be >= 0: {self}")

    @classmethod
    def laplace(cls, epsilon: float) -> "PrivacyCost":
        return cls(
            epsilon=float(epsilon),
            rho=pure_eps_to_rho(float(epsilon)),
            mechanism="laplace",
        )

    @classmethod
    def gaussian(cls, epsilon: float, delta: float = DEFAULT_DELTA) -> "PrivacyCost":
        return cls(
            epsilon=float(epsilon),
            delta=float(delta),
            rho=eps_to_rho(float(epsilon), float(delta)),
            mechanism="gaussian",
        )


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

