"""GreedyH: workload-aware weighted hierarchies [Li et al. 2014].

DAWA's second stage: a binary hierarchy of interval sums whose *per-level
weights* are tuned to the input workload.  The original algorithm sets
weights greedily level by level; we solve the same search space exactly —
minimize the closed-form error over the (log n)-dimensional weight vector
with L-BFGS — which can only improve on the greedy schedule (the search
space, a weighted b=2 hierarchy, is identical).

With level Grams ``G_l`` (block-diagonal ones matrices) and weights λ, the
strategy ``A = [λ_0 H_0; ...; λ_h H_h]`` has sensitivity ``Σλ_l`` and
error ``(Σλ)² · tr[(Σ λ_l² G_l)⁻¹ WᵀW]``.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla
from scipy import sparse as sp

from ..linalg import Matrix, SparseMatrix, VStack, Weighted
from ..optimize.lbfgsb import minimize_lbfgsb
from ..workload.util import attribute_sizes
from .base import StrategyMechanism


def _level_matrices(n: int) -> list[SparseMatrix]:
    """Binary-hierarchy levels from the root interval down to singletons."""
    levels = []
    bounds = [0, n]
    while True:
        rows, cols = [], []
        for r in range(len(bounds) - 1):
            for c in range(bounds[r], bounds[r + 1]):
                rows.append(r)
                cols.append(c)
        M = sp.coo_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(len(bounds) - 1, n)
        )
        levels.append(SparseMatrix(M))
        if len(bounds) - 1 >= n:
            return levels
        # Split every interval of size > 1 in half.
        new_bounds = [0]
        for r in range(len(bounds) - 1):
            lo, hi = bounds[r], bounds[r + 1]
            if hi - lo > 1:
                new_bounds.append(lo + (hi - lo) // 2)
            new_bounds.append(hi)
        bounds = new_bounds


def optimize_level_weights(
    grams: list[np.ndarray], V: np.ndarray, maxiter: int = 200
) -> np.ndarray:
    """Minimize ``f(λ) = (Σλ)² tr[(Σλ²G_l)⁻¹ V]`` over positive weights.

    Optimizes in log space with the analytic gradient::

        ∂f/∂λ_l = 2(Σλ)·tr[X⁻¹V] - (Σλ)²·2λ_l·tr[G_l X⁻¹VX⁻¹]

    where the per-level traces come from a single ``S = X⁻¹VX⁻¹``
    (elementwise products with the block-structured G_l are cheap).
    """
    L = len(grams)
    n = V.shape[0]

    def objective(log_lam: np.ndarray):
        lam = np.exp(np.clip(log_lam, -30, 30))
        X = np.zeros((n, n))
        for l, G in enumerate(grams):
            X += lam[l] ** 2 * G
        try:
            cho = sla.cho_factor(X, check_finite=False)
        except (np.linalg.LinAlgError, ValueError):
            return np.inf, np.zeros(L)
        Y = sla.cho_solve(cho, V, check_finite=False)  # X⁻¹V
        trace = float(np.trace(Y))
        S = sla.cho_solve(cho, Y.T, check_finite=False)  # X⁻¹VᵀX⁻¹ = X⁻¹VX⁻¹
        total = lam.sum()
        f = total**2 * trace
        grad_lam = np.empty(L)
        for l, G in enumerate(grams):
            tr_l = float(np.sum(G * S.T))
            grad_lam[l] = 2.0 * total * trace - total**2 * 2.0 * lam[l] * tr_l
        return f, grad_lam * lam  # chain rule through λ = exp(log λ)

    log_lam, _ = minimize_lbfgsb(objective, np.zeros(L), maxiter=maxiter)
    return np.exp(np.clip(log_lam, -30, 30))


class GreedyH(StrategyMechanism):
    """Weighted binary hierarchy tuned to the workload (1-D only)."""

    name = "GreedyH"

    def __init__(self, maxiter: int = 200):
        self.maxiter = maxiter

    def select(self, W: Matrix) -> Matrix:
        sizes = attribute_sizes(W)
        if len(sizes) != 1:
            raise ValueError("GreedyH is defined for one-dimensional domains")
        n = sizes[0]
        levels = _level_matrices(n)
        grams = [H.gram().dense() for H in levels]
        V = W.gram().dense()
        lam = optimize_level_weights(grams, V, self.maxiter)
        # Normalize: each level contributes λ_l to every column sum.
        lam = lam / lam.sum()
        return VStack(
            [Weighted(H, float(l)) for H, l in zip(levels, lam) if l > 1e-12]
        )

    def squared_error(self, W: Matrix) -> float:
        # The stacked hierarchy is a single coherent 1-D strategy (not a
        # budget-split union), so compute the exact Definition 7 error.
        from ..core.error import coherent_stack_error

        return coherent_stack_error(W, self.select(W), rng=0)
