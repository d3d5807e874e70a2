"""OPT_general: unrestricted strategy-space optimization (paper Problem 1).

The original Matrix Mechanism solves Problem 1 exactly via a
rank-constrained semidefinite program with O(m⁴(m⁴+N⁴)) complexity —
infeasible beyond toy domains (every Table 3 entry for MM is ``*``).
This module provides the gradient-based stand-in discussed in Section 5.1:
optimize a *full* p x n parameter matrix B ≥ 0 with L1-normalized columns
``A = B·diag(1ᵀB)⁻¹``, so ``‖A‖₁ = 1`` by construction and the objective
is ``tr[(AᵀA)⁻¹ WᵀW]``.  Each iteration costs O(n³) — the honest cost of
searching the unrestricted space, and the reason OPT_0's parameterization
matters (Theorem 4 reduces it to O(pn²)).
"""

from __future__ import annotations

import numpy as np
from ..linalg import Dense
from .lbfgsb import minimize_lbfgsb
from .opt0 import OptResult


def general_loss_and_grad(B: np.ndarray, V: np.ndarray) -> tuple[float, np.ndarray]:
    """``C = tr[(AᵀA)⁻¹V]`` for ``A = B diag(1ᵀB)⁻¹`` and its gradient."""
    B = np.asarray(B, dtype=np.float64)
    p, n = B.shape
    s = B.sum(axis=0)
    if np.any(s <= 0):
        return np.inf, np.zeros_like(B)
    A = B / s[None, :]
    X = A.T @ A
    try:
        Xinv = np.linalg.inv(X)
    except np.linalg.LinAlgError:
        Xinv = np.linalg.pinv(X)
    loss = float(np.einsum("ij,ji->", Xinv, V))
    Y = Xinv @ V @ Xinv
    GA = -2.0 * A @ Y  # ∂C/∂A
    grad = GA / s[None, :] - np.einsum("il,il->l", GA, B)[None, :] / s[None, :] ** 2
    return loss, grad


def opt_general(
    V: np.ndarray,
    p: int | None = None,
    rng: np.random.Generator | int | None = None,
    restarts: int = 1,
    maxiter: int = 500,
) -> OptResult:
    """Gradient search over the full (column-normalized) strategy space.

    Parameters mirror :func:`repro.optimize.opt0.opt_0`; ``p`` defaults to
    ``n`` rows (enough for full rank).  Only practical for small n.
    """
    V = np.asarray(V, dtype=np.float64)
    n = V.shape[0]
    if p is None:
        p = n
    if p < n:
        raise ValueError("p >= n required for the strategy to support W")
    rng = np.random.default_rng(rng)

    best, best_loss = None, np.inf
    for _ in range(restarts):
        B0 = rng.random((p, n)) + 0.05

        def fun(x):
            loss, grad = general_loss_and_grad(x.reshape(p, n), V)
            return loss, grad.ravel()

        x, loss = minimize_lbfgsb(fun, B0, lower=0.0, maxiter=maxiter)
        if loss < best_loss:
            best_loss = loss
            best = x.reshape(p, n)

    if best is None or not np.isfinite(best_loss):
        # Every restart diverged (infinite loss, e.g. a zero column that
        # L-BFGS never escaped).  The column-normalized Identity strategy
        # is always feasible — fall back to it, like opt_0 does.
        best = np.vstack([np.eye(n), np.zeros((p - n, n))])
        best_loss = float(np.trace(V))
    A = best / best.sum(axis=0)[None, :]
    return OptResult(Dense(A), best_loss, restarts)
