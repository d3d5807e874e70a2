"""The mechanism objects: noise distribution + calibration + cost.

:mod:`repro.core.measure` exposes the mechanisms as free functions
(``laplace_measure``, ``gaussian_measure``, …).  This module
wraps them in first-class objects so layers that *choose* a mechanism —
the planner's RMSE comparison, the engine's measurement routing, the
server's request parser — can pass one value around instead of threading
``(mechanism, delta)`` pairs:

* :class:`LaplaceMechanism` — pure ε-DP, calibrated from L1 sensitivity
  (``A.sensitivity()``): scale ``‖A‖₁/ε``.
* :class:`GaussianMechanism` — (ε, δ)-DP via zCDP, calibrated from L2
  sensitivity (``A.sensitivity(p=2)``): ``σ = Δ₂·sqrt(1/(2ρ))`` with
  ``ρ = eps_to_rho(ε, δ)``.  The δ is part of the mechanism's identity.

Both expose the same surface (:meth:`Mechanism.measure`,
:meth:`Mechanism.variance`, :meth:`Mechanism.expected_error`,
:meth:`Mechanism.cost`).  :meth:`Mechanism.cost` returns
the :class:`~repro.privacy.accounting.PrivacyCost` the accountant debits
*before* any noise is drawn — so what the planner reports is, by
construction, what the ledger records.

:func:`get_mechanism` resolves the wire/CLI spelling (``"laplace"`` /
``"gaussian"``, optional δ) into an instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..core import error as _error
from ..core import measure as _measure
from ..core.privacy import DEFAULT_DELTA, eps_to_rho, gaussian_sigma
from ..core.solvers import validate_budget
from .accounting import PrivacyCost

__all__ = [
    "GaussianMechanism",
    "LaplaceMechanism",
    "Mechanism",
    "get_mechanism",
]


@dataclass(frozen=True)
class Mechanism:
    """Common surface of the noise mechanisms (see module docstring)."""

    name: ClassVar[str] = ""

    def sensitivity(self, A) -> float:
        """The sensitivity norm this mechanism calibrates against."""
        raise NotImplementedError

    def noise_scale(self, A, eps):
        """Per-measurement noise scale at budget ε (vectorized over ε):
        the Laplace ``b`` or the Gaussian ``σ``."""
        raise NotImplementedError

    def measure(self, A, x, eps, rng=None) -> np.ndarray:
        """One private measurement ``y = Ax + noise``."""
        raise NotImplementedError

    def variance(self, A, eps):
        """Per-measurement noise variance at budget ε."""
        return _measure.measurement_variance(
            A, eps, mechanism=self.name, delta=getattr(self, "delta", DEFAULT_DELTA)
        )

    def expected_error(self, W, A, eps=1.0):
        """Expected total squared error answering workload W via A."""
        return _error.expected_error(
            W, A, eps, mechanism=self.name,
            delta=getattr(self, "delta", DEFAULT_DELTA),
        )

    def rootmse(self, W, A, eps=1.0):
        """Per-query root-mean-squared error answering W via A."""
        return _error.rootmse(
            W, A, eps, mechanism=self.name,
            delta=getattr(self, "delta", DEFAULT_DELTA),
        )

    def cost(self, eps) -> PrivacyCost:
        """The accounting cost of releases totalling budget ε.

        For an array of per-trial budgets the trials compose
        sequentially: ε and δ add, and ρ adds *per trial* (Gaussian) —
        tighter than converting the summed ε.
        """
        raise NotImplementedError

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class LaplaceMechanism(Mechanism):
    """Pure ε-DP Laplace noise, calibrated from L1 sensitivity."""

    name: ClassVar[str] = "laplace"

    def sensitivity(self, A) -> float:
        return A.sensitivity()

    def noise_scale(self, A, eps):
        eps_arr = np.asarray(eps, dtype=np.float64)
        out = A.sensitivity() / eps_arr
        return float(out) if eps_arr.ndim == 0 else out

    def measure(self, A, x, eps, rng=None):
        return _measure.laplace_measure(A, x, eps, rng)

    def cost(self, eps) -> PrivacyCost:
        total = float(np.sum(validate_budget(eps=eps)["eps"]))
        return PrivacyCost.laplace(total)


@dataclass(frozen=True)
class GaussianMechanism(Mechanism):
    """(ε, δ)-DP Gaussian noise via zCDP, calibrated from L2 sensitivity.

    ``delta`` is part of the mechanism's identity: the same ε at a
    smaller δ means a smaller ρ and therefore more noise.
    """

    delta: float = DEFAULT_DELTA
    name: ClassVar[str] = "gaussian"

    def __post_init__(self):
        validate_budget(delta=self.delta)
        if self.delta == 0:
            raise ValueError("the Gaussian mechanism requires delta > 0")

    def sensitivity(self, A) -> float:
        return A.sensitivity(p=2)

    def noise_scale(self, A, eps):
        return gaussian_sigma(A.sensitivity(p=2), eps, self.delta)

    def measure(self, A, x, eps, rng=None):
        return _measure.gaussian_measure(A, x, eps, rng, delta=self.delta)

    def cost(self, eps) -> PrivacyCost:
        eps_arr = validate_budget(eps=eps)["eps"]
        total = float(np.sum(eps_arr))
        # per-trial ρ's compose by summation — tighter than eps_to_rho
        # of the summed ε, and exactly what each release actually costs
        rho = float(np.sum(eps_to_rho(eps_arr, self.delta)))
        return PrivacyCost(
            epsilon=total,
            delta=self.delta * eps_arr.size,
            rho=rho,
            mechanism=self.name,
        )


_BY_NAME = {"laplace": LaplaceMechanism, "gaussian": GaussianMechanism}


def get_mechanism(
    mechanism: str | Mechanism = "laplace", delta: float | None = None
) -> Mechanism:
    """Resolve a mechanism spelling into an instance.

    Accepts an instance (returned as-is unless a conflicting ``delta`` is
    given), or a name: ``"laplace"`` (δ must be unset/ignored) or
    ``"gaussian"`` (δ defaults to :data:`DEFAULT_DELTA`).
    """
    if isinstance(mechanism, Mechanism):
        if delta is not None and getattr(mechanism, "delta", None) != delta:
            if isinstance(mechanism, GaussianMechanism):
                return GaussianMechanism(delta=delta)
            raise ValueError(
                f"mechanism {mechanism.name!r} does not take a delta"
            )
        return mechanism
    cls = _BY_NAME.get(mechanism)
    if cls is None:
        raise ValueError(
            f"unknown mechanism {mechanism!r}; expected one of "
            f"{sorted(_BY_NAME)}"
        )
    if cls is GaussianMechanism:
        return cls(delta=DEFAULT_DELTA if delta is None else delta)
    if delta is not None:
        raise ValueError(f"mechanism {mechanism!r} does not take a delta")
    return cls()
