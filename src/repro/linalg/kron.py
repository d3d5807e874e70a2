"""Kronecker-product matrices and the ``kmatvec`` algorithm.

This module implements the implicit Kronecker representation at the heart
of HDMM (paper Section 4): a product workload/strategy over d attributes is
stored as its d factors, and every key operation decomposes per factor:

* ``(A1 ⊗ ... ⊗ Ad) x`` — Algorithm 1 of the paper (``kmatvec``), which
  repeatedly applies the identity ``(B ⊗ C) flat(X) = flat(B X Cᵀ)``;
* ``(A1 ⊗ ... ⊗ Ad) X`` for a whole right-hand-side *matrix* —
  ``kmatmat``, Algorithm 1 generalized with a trailing batch axis so all
  columns move through each factor in one BLAS call instead of a Python
  loop per column;
* ``WᵀW = W1ᵀW1 ⊗ ... ⊗ WdᵀWd`` (Section 4.4);
* ``(A1 ⊗ ... ⊗ Ad)⁺ = A1⁺ ⊗ ... ⊗ Ad⁺``;
* ``‖A1 ⊗ ... ⊗ Ad‖₁ = Π ‖Ai‖₁`` (Theorem 3).

Both products apply every factor of at most :data:`DENSE_FACTOR_CELLS`
cells (``Identity`` aside, which is skipped) as its memoized dense array,
by the same stacked ``matmul`` as an explicit :class:`Dense` factor;
larger factors, and single-column ones, keep their own structured
``matmat``.  The factor objects are unchanged — a ``PIdentity`` stays a
``PIdentity`` to persistence and to every ``isinstance`` check — so the
rule reaches fits, runs and warm loads alike, and it moves products only
by rounding.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .base import Dense, Matrix
from .identity import Identity

#: A factor with at most this many cells (m·n), ``Identity`` aside, is
#: applied as its dense array through one stacked ``matmul``.  Timed in
#: ``_apply_factors`` on a 2-vCPU x86 host with one BLAS thread (factor
#: alone and as the middle axis of ``I₁₆ ⊗ F ⊗ I₁₆``, batch 1 and 50,
#: ``F`` and ``Fᵀ``): dense took at most 0.71× the structured time for
#: ``Prefix``, ``AllRange``, ``PIdentity`` and ``Ones(1, n)`` up to 4,352
#: cells and at most 0.91× up to 8,550; the first loss measured was a
#: 116×110 ``PIdentity`` (12,760 cells, 1.05× at batch 50).  The limit
#: keeps a factor of three below that crossover.  A single-column factor
#: is a broadcast, which ``matmul`` with an inner dimension of 1 ran up
#: to 3.8× slower than ``Ones(n, 1)``'s own ``matmat``; it stays
#: structured at any size.
DENSE_FACTOR_CELLS = 4096


def _factor_array(A: Matrix) -> np.ndarray | None:
    """The explicit array :func:`kmatmat` applies for factor ``A``, or
    ``None`` to apply ``A``'s own ``matmat``.

    A :class:`Dense` factor gives its array; any other factor of at most
    :data:`DENSE_FACTOR_CELLS` cells and more than one column gives its
    memoized ``dense()``.
    """
    if isinstance(A, Dense):
        return A.array
    m, n = A.shape
    if m * n > DENSE_FACTOR_CELLS or n == 1:
        return None
    return A.dense()


def _application_order(factors: Sequence[Matrix]) -> list[int]:
    """Factor application order of :func:`_apply_factors`.

    Factors act on distinct tensor axes, so application order is free:
    apply shrinking factors (m < n, e.g. Total) first so the working
    tensor collapses before the expensive factors run; within each class,
    rightmost axis first.
    """
    return sorted(
        range(len(factors)),
        key=lambda i: (factors[i].shape[0] >= factors[i].shape[1], -i),
    )


def _apply_factors(factors: Sequence[Matrix], X: np.ndarray) -> np.ndarray:
    """Algorithm 1 with a trailing batch axis, the loop both products run.

    ``X`` is ``(Π ni, b)`` with ``b ≥ 1``.  The working tensor carries the
    batch axis last, and no factor touches it; each factor is applied
    along its own axis in :func:`_application_order`, ``Identity``
    factors skipped.  Returns ``(Π mi, b)``.
    """
    batch = X.shape[1]
    # ``shape`` tracks the tensor's current axis sizes; each step
    # reshapes T to the view it needs.
    shape = [A.shape[1] for A in factors]
    T = X
    for i in _application_order(factors):
        A = factors[i]
        if isinstance(A, Identity):
            continue
        m_i, n_i = A.shape
        array = _factor_array(A)
        if array is not None:
            # View the tensor as (lead, n_i, trail) — the axes before i,
            # axis i, the axes after it with the batch axis — and let one
            # stacked matmul contract the middle axis: no transpose copy,
            # and the result is already C-ordered for the next factor.
            lead = math.prod(shape[:i])
            trail = math.prod(shape[i + 1 :]) * batch
            T = np.matmul(array, T.reshape(lead, n_i, trail))
        else:
            # Move the factor's axis to the front and flatten the rest
            # (one contiguity copy at most); apply the factor to all
            # remaining cells * batch columns in a single matmat.
            moved = np.moveaxis(T.reshape(shape + [batch]), i, 0)
            Y = A.matmat(moved.reshape(n_i, -1))  # m_i x (rest * batch)
            T = np.moveaxis(Y.reshape((m_i,) + moved.shape[1:]), 0, i)
        shape[i] = m_i
    return T.reshape(-1, batch)


def kmatvec(factors: Sequence[Matrix], x: np.ndarray) -> np.ndarray:
    """Compute ``(A1 ⊗ ... ⊗ Ad) @ x`` without materializing the product.

    Implements Algorithm 1 (Appendix A.5): view the working vector as a
    d-way tensor, apply each factor ``Ai`` along axis ``i``, and fold the
    result back in.  For square n x n factors the cost is
    ``O(d * n^(d+1))`` time and ``O(n^d)`` space versus ``O(n^(2d))`` for
    the explicit product.  This is the width-1 view of :func:`kmatmat`.

    Parameters
    ----------
    factors:
        The Kronecker factors ``A1 ... Ad``, leftmost factor first.
    x:
        Vector of length ``Π ni`` (the product of factor column counts).
    """
    return kmatmat(factors, np.asarray(x, dtype=np.float64)[:, None])[:, 0]


def kmatmat(factors: Sequence[Matrix], X: np.ndarray) -> np.ndarray:
    """Compute ``(A1 ⊗ ... ⊗ Ad) @ X`` for a dense RHS matrix ``X``.

    Algorithm 1 with a trailing batch axis: the working tensor carries an
    extra final axis of size ``X.shape[1]`` that no factor touches, so
    every column of ``X`` flows through each factor in a single BLAS
    call.  Compared to applying ``kmatvec`` column-by-column this turns
    ``b`` Python-level passes (each with its own reshapes and small BLAS
    calls) into one pass with ``b``-times-wider BLAS calls.

    Parameters
    ----------
    factors:
        The Kronecker factors ``A1 ... Ad``, leftmost factor first.
    X:
        Matrix of shape ``(Π ni, b)`` (one column per right-hand side); a
        1-D input is :func:`kmatvec`.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        return kmatvec(factors, X)
    total_cols = math.prod(A.shape[1] for A in factors)
    if X.ndim != 2 or X.shape[0] != total_cols:
        raise ValueError(f"expected ({total_cols}, b) matrix, got {X.shape}")
    if X.shape[1] == 0:
        # Degenerate RHS: reshape(-1, ...) cannot infer axes of size 0.
        return np.empty((math.prod(A.shape[0] for A in factors), 0))
    return _apply_factors(factors, X)


class Kronecker(Matrix):
    """Implicit Kronecker product ``A1 ⊗ A2 ⊗ ... ⊗ Ad``."""

    def __init__(self, factors: Sequence[Matrix]):
        if not factors:
            raise ValueError("Kronecker requires at least one factor")
        self.factors = list(factors)
        m = math.prod(A.shape[0] for A in self.factors)
        n = math.prod(A.shape[1] for A in self.factors)
        self.shape = (m, n)

    def matmat(self, X: np.ndarray) -> np.ndarray:
        return kmatmat(self.factors, X)

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        return kmatmat([A.T for A in self.factors], Y)

    def gram(self) -> "Kronecker":
        return Kronecker([A.gram() for A in self.factors])

    def l1_sensitivity(self) -> float:
        return math.prod(A.sensitivity() for A in self.factors)

    def l2_sensitivity(self) -> float:
        # Column norms of a Kronecker product multiply factor-wise, so the
        # max (all factors' norms are non-negative) is the product of maxes.
        return math.prod(A.sensitivity(p=2) for A in self.factors)

    def column_abs_sums(self) -> np.ndarray:
        out = np.ones(1)
        for A in self.factors:
            out = np.kron(out, A.column_abs_sums())
        return out

    def constant_column_abs_sum(self) -> float | None:
        prod = 1.0
        for A in self.factors:
            c = A.constant_column_abs_sum()
            if c is None:
                return None
            prod *= c
        return prod

    def column_norms(self) -> np.ndarray:
        out = np.ones(1)
        for A in self.factors:
            out = np.kron(out, A.column_norms())
        return out

    def constant_column_norm(self) -> float | None:
        prod = 1.0
        for A in self.factors:
            c = A.constant_column_norm()
            if c is None:
                return None
            prod *= c
        return prod

    def pinv(self) -> "Kronecker":
        return Kronecker([A.pinv() for A in self.factors])

    def transpose(self) -> "Kronecker":
        return Kronecker([A.T for A in self.factors])

    def dense(self) -> np.ndarray:
        out = self.factors[0].dense()
        for A in self.factors[1:]:
            out = np.kron(out, A.dense())
        return out

    def trace(self) -> float:
        return math.prod(A.trace() for A in self.factors)

    def sum(self) -> float:
        return math.prod(A.sum() for A in self.factors)

    def to_config(self) -> dict:
        from .serialize import matrix_to_config

        return {
            "type": "Kronecker",
            "factors": [matrix_to_config(A) for A in self.factors],
        }

    @classmethod
    def from_config(cls, config: dict) -> "Kronecker":
        from .serialize import matrix_from_config

        return cls([matrix_from_config(c) for c in config["factors"]])

    def __repr__(self) -> str:
        inner = " ⊗ ".join(repr(A) for A in self.factors)
        return f"Kronecker[{inner}, shape={self.shape}]"
