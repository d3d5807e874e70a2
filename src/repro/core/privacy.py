"""Differential privacy definitions and accounting (paper Section 3.5).

The Laplace mechanism satisfies pure ε-differential privacy (Definition 5
with δ = 0); the Gaussian mechanism satisfies ρ-zCDP, which converts to
(ε, δ)-DP at report time.  Everything downstream of a noisy measurement
is post-processing and consumes no additional budget.

This module holds the *calculus* shared by both: the zCDP ↔ (ε, δ)
conversion curves and the Gaussian noise calibration.  The standard facts
[Bun & Steinke 2016]:

* ρ-zCDP implies (ε, δ)-DP with ``ε = ρ + 2·sqrt(ρ·ln(1/δ))`` for every
  δ > 0 (:func:`rho_to_eps`); :func:`eps_to_rho` inverts the curve, so a
  Gaussian measurement can be calibrated to a *target* (ε, δ);
* pure ε-DP implies ``(ε²/2)``-zCDP (:func:`pure_eps_to_rho`), which lets
  Laplace debits enter a ρ-denominated budget;
* the Gaussian mechanism with noise ``σ = Δ₂·sqrt(1/(2ρ))`` satisfies
  ρ-zCDP, where Δ₂ is the L2 sensitivity (:func:`gaussian_sigma`).

zCDP composes by *summing* ρ sequentially (and taking the max across
parallel partitions), which is what makes it the accountant's native
curve for Gaussian traffic: composing the converted (ε, δ) pairs
directly would be far looser.
"""

from __future__ import annotations

import numpy as np

#: Default δ a Gaussian measurement is calibrated against when the caller
#: does not pick one: small enough to be "cryptographically negligible"
#: for any realistic dataset size, large enough that ε→ρ conversion does
#: not blow up the noise.
DEFAULT_DELTA = 1e-6


# -- zCDP ↔ (ε, δ) conversion curves ------------------------------------

def rho_to_eps(rho, delta: float):
    """The ε for which ρ-zCDP implies (ε, δ)-DP: ``ρ + 2·sqrt(ρ·ln(1/δ))``.

    Vectorized over ``rho``; ``rho = 0`` maps to ``ε = 0`` exactly.
    """
    rho_arr = np.asarray(rho, dtype=np.float64)
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta!r}")
    out = rho_arr + 2.0 * np.sqrt(rho_arr * np.log(1.0 / delta))
    return float(out) if rho_arr.ndim == 0 else out


def eps_to_rho(eps, delta: float):
    """The ρ whose zCDP guarantee converts to exactly (ε, δ)-DP.

    Inverts :func:`rho_to_eps`: with ``L = ln(1/δ)``, solving
    ``ρ + 2·sqrt(ρL) = ε`` for ``sqrt(ρ)`` gives
    ``sqrt(ρ) = sqrt(L + ε) − sqrt(L)``.  Vectorized over ``eps``.
    """
    eps_arr = np.asarray(eps, dtype=np.float64)
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta!r}")
    L = np.log(1.0 / delta)
    out = (np.sqrt(L + eps_arr) - np.sqrt(L)) ** 2
    return float(out) if eps_arr.ndim == 0 else out


def pure_eps_to_rho(eps):
    """The zCDP cost of a pure ε-DP release: ``ρ = ε²/2``.

    How a Laplace debit enters a ρ-denominated budget policy.
    Vectorized over ``eps``.
    """
    eps_arr = np.asarray(eps, dtype=np.float64)
    out = 0.5 * eps_arr * eps_arr
    return float(out) if eps_arr.ndim == 0 else out


def gaussian_sigma(l2_sensitivity: float, eps, delta: float):
    """Noise level of the Gaussian mechanism hitting a target (ε, δ).

    Routes through zCDP: ``ρ = eps_to_rho(ε, δ)`` and
    ``σ = Δ₂·sqrt(1/(2ρ))``.  Vectorized over ``eps``.
    """
    if l2_sensitivity < 0:
        raise ValueError("L2 sensitivity must be non-negative")
    rho = np.asarray(eps_to_rho(eps, delta), dtype=np.float64)
    out = l2_sensitivity * np.sqrt(1.0 / (2.0 * rho))
    return float(out) if out.ndim == 0 else out
