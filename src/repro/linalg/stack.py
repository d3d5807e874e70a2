"""Stacked and weighted matrices — unions of products (paper Section 4.3).

``ImpVec`` produces workloads of the form ``W = w1*W1 + ... + wk*Wk`` where
``+`` denotes vertical stacking of sub-workloads (union of their query
sets) and ``wi`` are per-sub-workload accuracy weights.  :class:`VStack`
implements the stack; :class:`Weighted` implements scalar weighting.  Both
propagate the implicit fast paths: the Gram of a stack is the sum of
Grams, and sensitivities (absolute column sums) add across the stack.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .base import Matrix


class Weighted(Matrix):
    """A scalar multiple ``w * A`` of an implicit matrix."""

    def __init__(self, base: Matrix, weight: float):
        self.base = base
        self.weight = float(weight)
        self.shape = base.shape

    def matmat(self, X: np.ndarray) -> np.ndarray:
        return self.weight * self.base.matmat(X)

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        return self.weight * self.base.rmatmat(Y)

    def gram(self) -> Matrix:
        return Weighted(self.base.gram(), self.weight**2)

    def l1_sensitivity(self) -> float:
        return abs(self.weight) * self.base.sensitivity()

    def l2_sensitivity(self) -> float:
        return abs(self.weight) * self.base.sensitivity(p=2)

    def column_abs_sums(self) -> np.ndarray:
        return abs(self.weight) * self.base.column_abs_sums()

    def constant_column_abs_sum(self) -> float | None:
        c = self.base.constant_column_abs_sum()
        return None if c is None else abs(self.weight) * c

    def column_norms(self) -> np.ndarray:
        return abs(self.weight) * self.base.column_norms()

    def constant_column_norm(self) -> float | None:
        c = self.base.constant_column_norm()
        return None if c is None else abs(self.weight) * c

    def pinv(self) -> Matrix:
        if self.weight == 0:
            # (0·A)⁺ is the zero matrix of the transposed shape, not ∞·A⁺.
            return Weighted(self.base.pinv(), 0.0)
        return Weighted(self.base.pinv(), 1.0 / self.weight)

    def transpose(self) -> Matrix:
        return Weighted(self.base.T, self.weight)

    def dense(self) -> np.ndarray:
        return self.weight * self.base.dense()

    def trace(self) -> float:
        return self.weight * self.base.trace()

    def sum(self) -> float:
        return self.weight * self.base.sum()

    def to_config(self) -> dict:
        from .serialize import matrix_to_config

        return {
            "type": "Weighted",
            "base": matrix_to_config(self.base),
            "weight": self.weight,
        }

    @classmethod
    def from_config(cls, config: dict) -> "Weighted":
        from .serialize import matrix_from_config

        return cls(matrix_from_config(config["base"]), float(config["weight"]))

    def __repr__(self) -> str:
        return f"Weighted({self.base!r}, w={self.weight:g})"


class VStack(Matrix):
    """Vertical stack ``[A1; A2; ...; Ak]`` of implicit matrices.

    All blocks must share a column count (the domain size N).  A stack is
    the matrix form of a *union* of query sets.
    """

    def __init__(self, blocks: Sequence[Matrix]):
        if not blocks:
            raise ValueError("VStack requires at least one block")
        n = blocks[0].shape[1]
        if any(B.shape[1] != n for B in blocks):
            raise ValueError("all blocks must have the same number of columns")
        self.blocks = list(blocks)
        m = sum(B.shape[0] for B in self.blocks)
        self.shape = (m, n)

    def matmat(self, X: np.ndarray) -> np.ndarray:
        # Write each block's batch directly into its row slice — the
        # serving engine calls this with wide right-hand sides, where the
        # extra vstack copy of every block result is measurable.
        out = np.empty((self.shape[0], X.shape[1]), dtype=self.dtype)
        offset = 0
        for B in self.blocks:
            rows = B.shape[0]
            out[offset : offset + rows] = B.matmat(X)
            offset += rows
        return out

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        out = np.zeros((self.shape[1], Y.shape[1]))
        offset = 0
        for B in self.blocks:
            rows = B.shape[0]
            out += B.rmatmat(Y[offset : offset + rows])
            offset += rows
        return out

    def gram(self) -> Matrix:
        return Sum([B.gram() for B in self.blocks])

    def l1_sensitivity(self) -> float:
        # Blocks with constant column sums contribute a scalar; only the
        # rest need their full column-sum vector (crucial for unions of
        # marginals over huge domains).
        constant_part = 0.0
        varying = []
        for B in self.blocks:
            c = B.constant_column_abs_sum()
            if c is None:
                varying.append(B)
            else:
                constant_part += c
        if not varying:
            return constant_part
        out = np.zeros(self.shape[1])
        for B in varying:
            out += B.column_abs_sums()
        return constant_part + float(out.max())

    def l2_sensitivity(self) -> float:
        # Squared column norms add across the stack; the constant/varying
        # split mirrors l1_sensitivity in the squared domain.
        constant_sq = 0.0
        varying = []
        for B in self.blocks:
            c = B.constant_column_norm()
            if c is None:
                varying.append(B)
            else:
                constant_sq += c * c
        if not varying:
            return float(np.sqrt(constant_sq))
        out = np.zeros(self.shape[1])
        for B in varying:
            out += B.column_norms() ** 2
        return float(np.sqrt(constant_sq + out.max()))

    def column_abs_sums(self) -> np.ndarray:
        out = np.zeros(self.shape[1])
        for B in self.blocks:
            out += B.column_abs_sums()
        return out

    def constant_column_abs_sum(self) -> float | None:
        total = 0.0
        for B in self.blocks:
            c = B.constant_column_abs_sum()
            if c is None:
                return None
            total += c
        return total

    def column_norms(self) -> np.ndarray:
        out = np.zeros(self.shape[1])
        for B in self.blocks:
            out += B.column_norms() ** 2
        return np.sqrt(out)

    def constant_column_norm(self) -> float | None:
        total_sq = 0.0
        for B in self.blocks:
            c = B.constant_column_norm()
            if c is None:
                return None
            total_sq += c * c
        return float(np.sqrt(total_sq))

    def transpose(self) -> Matrix:
        from .base import _Transpose

        return _Transpose(self)

    def dense(self) -> np.ndarray:
        return np.vstack([B.dense() for B in self.blocks])

    def sum(self) -> float:
        return float(np.sum([B.sum() for B in self.blocks]))

    def to_config(self) -> dict:
        from .serialize import matrix_to_config

        return {
            "type": "VStack",
            "blocks": [matrix_to_config(B) for B in self.blocks],
        }

    @classmethod
    def from_config(cls, config: dict) -> "VStack":
        from .serialize import matrix_from_config

        return cls([matrix_from_config(c) for c in config["blocks"]])

    def __repr__(self) -> str:
        return (
            f"VStack({len(self.blocks)} blocks, shape={self.shape}, "
            f"dtype={self.dtype.__name__})"
        )


class Sum(Matrix):
    """Matrix sum ``A1 + A2 + ... + Ak`` of same-shape implicit matrices.

    Appears as the Gram of a stack: ``(ΣᵢAᵢᵀAᵢ)``.  Dense materialization
    adds the blocks; mat-vecs distribute.
    """

    def __init__(self, terms: Sequence[Matrix]):
        if not terms:
            raise ValueError("Sum requires at least one term")
        shape = terms[0].shape
        if any(T.shape != shape for T in terms):
            raise ValueError("all terms must have the same shape")
        self.terms = list(terms)
        self.shape = shape

    def matmat(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros((self.shape[0], X.shape[1]))
        for T in self.terms:
            out += T.matmat(X)
        return out

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        out = np.zeros((self.shape[1], Y.shape[1]))
        for T in self.terms:
            out += T.rmatmat(Y)
        return out

    def transpose(self) -> Matrix:
        return Sum([T.T for T in self.terms])

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for T in self.terms:
            out += T.dense()
        return out

    def trace(self) -> float:
        return float(np.sum([T.trace() for T in self.terms]))

    def sum(self) -> float:
        return float(np.sum([T.sum() for T in self.terms]))

    def to_config(self) -> dict:
        from .serialize import matrix_to_config

        return {
            "type": "Sum",
            "terms": [matrix_to_config(T) for T in self.terms],
        }

    @classmethod
    def from_config(cls, config: dict) -> "Sum":
        from .serialize import matrix_from_config

        return cls([matrix_from_config(c) for c in config["terms"]])

    def __repr__(self) -> str:
        return (
            f"Sum({len(self.terms)} terms, shape={self.shape}, "
            f"dtype={self.dtype.__name__})"
        )
