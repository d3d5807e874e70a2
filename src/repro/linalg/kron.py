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
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .base import Dense, Matrix


def _application_order(factors: Sequence[Matrix]) -> list[int]:
    """Factor application order shared by :func:`kmatvec` and :func:`kmatmat`.

    Factors act on distinct tensor axes, so application order is free:
    apply shrinking factors (m < n, e.g. Total) first so the working
    tensor collapses before the expensive factors run; within each class,
    rightmost axis first (the trailing axis is contiguous, so no
    transpose copy of the still-large tensor is needed).
    """
    return sorted(
        range(len(factors)),
        key=lambda i: (factors[i].shape[0] >= factors[i].shape[1], -i),
    )


def kmatvec(factors: Sequence[Matrix], x: np.ndarray) -> np.ndarray:
    """Compute ``(A1 ⊗ ... ⊗ Ad) @ x`` without materializing the product.

    Implements Algorithm 1 (Appendix A.5): iteratively reshape the working
    vector into a matrix whose trailing axis matches factor ``Ai``, apply
    ``Ai`` to that axis, and fold the result back in.  For square n x n
    factors the cost is ``O(d * n^(d+1))`` time and ``O(n^d)`` space versus
    ``O(n^(2d))`` for the explicit product.

    Parameters
    ----------
    factors:
        The Kronecker factors ``A1 ... Ad``, leftmost factor first.
    x:
        Vector of length ``Π ni`` (the product of factor column counts).
    """
    from .identity import Identity

    x = np.asarray(x, dtype=np.float64)
    total_cols = math.prod(A.shape[1] for A in factors)
    if x.shape != (total_cols,):
        raise ValueError(f"expected vector of length {total_cols}, got {x.shape}")
    # View x as a d-way tensor (row-major) and apply factor Ai along axis i
    # in _application_order, skipping Identity factors outright.
    X = x.reshape([A.shape[1] for A in factors])
    for i in _application_order(factors):
        A = factors[i]
        if isinstance(A, Identity):
            continue
        m_i, n_i = A.shape
        moved = np.moveaxis(X, i, -1)
        lead_shape = moved.shape[:-1]
        Z = moved.reshape(-1, n_i).T  # n_i x (rest)
        Y = A.matmat(Z)  # m_i x (rest)
        X = np.moveaxis(Y.T.reshape(lead_shape + (m_i,)), -1, i)
    return X.reshape(-1)


def kmatmat(factors: Sequence[Matrix], X: np.ndarray) -> np.ndarray:
    """Compute ``(A1 ⊗ ... ⊗ Ad) @ X`` for a dense RHS matrix ``X``.

    Algorithm 1 with a trailing batch axis: the working tensor carries an
    extra final axis of size ``X.shape[1]`` that no factor touches, so
    every column of ``X`` flows through each factor in a single ``matmat``
    call.  Compared to applying ``kmatvec`` column-by-column this turns
    ``b`` Python-level passes (each with its own reshapes and small BLAS
    calls) into one pass with ``b``-times-wider BLAS calls.

    Parameters
    ----------
    factors:
        The Kronecker factors ``A1 ... Ad``, leftmost factor first.
    X:
        Matrix of shape ``(Π ni, b)`` (one column per right-hand side); a
        1-D input falls back to :func:`kmatvec`.
    """
    from .identity import Identity

    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        return kmatvec(factors, X)
    total_cols = math.prod(A.shape[1] for A in factors)
    if X.ndim != 2 or X.shape[0] != total_cols:
        raise ValueError(f"expected ({total_cols}, b) matrix, got {X.shape}")
    batch = X.shape[1]
    total_rows = math.prod(A.shape[0] for A in factors)
    if batch == 0:
        # Degenerate RHS: reshape(-1, ...) cannot infer axes of size 0.
        return np.empty((total_rows, 0))
    # d-way tensor plus the untouched trailing batch axis, applying each
    # factor in the shared _application_order (Identity factors skipped).
    # ``shape`` tracks the tensor's current axis sizes; each step
    # reshapes T to the view it needs.
    shape = [A.shape[1] for A in factors]
    T = X
    for i in _application_order(factors):
        A = factors[i]
        if isinstance(A, Identity):
            continue
        m_i, n_i = A.shape
        if isinstance(A, Dense):
            # View the tensor as (lead, n_i, trail) — the axes before i,
            # axis i, the axes after it with the batch axis — and let one
            # stacked matmul contract the middle axis: no transpose copy,
            # and the result is already C-ordered for the next factor.
            lead = math.prod(shape[:i])
            trail = math.prod(shape[i + 1 :]) * batch
            T = np.matmul(A.array, T.reshape(lead, n_i, trail))
        else:
            # Move the factor's axis to the front and flatten the rest
            # (one contiguity copy at most); apply the factor to all
            # remaining cells * batch columns in a single matmat.
            moved = np.moveaxis(T.reshape(shape + [batch]), i, 0)
            Y = A.matmat(moved.reshape(n_i, -1))  # m_i x (rest * batch)
            T = np.moveaxis(Y.reshape((m_i,) + moved.shape[1:]), 0, i)
        shape[i] = m_i
    return T.reshape(total_rows, batch)


class Kronecker(Matrix):
    """Implicit Kronecker product ``A1 ⊗ A2 ⊗ ... ⊗ Ad``."""

    def __init__(self, factors: Sequence[Matrix]):
        if not factors:
            raise ValueError("Kronecker requires at least one factor")
        self.factors = list(factors)
        m = math.prod(A.shape[0] for A in self.factors)
        n = math.prod(A.shape[1] for A in self.factors)
        self.shape = (m, n)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return kmatvec(self.factors, x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        return kmatvec([A.T for A in self.factors], y)

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
