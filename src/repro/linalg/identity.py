"""Building-block matrices: Identity, Ones and Total (paper Section 3.3).

``Identity(n)`` is the vectorized ``Identity_A`` predicate set: one counting
query per domain element.  ``Total(n)`` (a 1 x n matrix of ones) is the
vectorized ``Total_A`` predicate set: the single query counting every
record.  ``Ones(m, n)`` generalizes the all-ones matrix; it appears as
``1 = TᵀT`` inside the marginals algebra of Section 6.3.
"""

from __future__ import annotations

import numpy as np

from .base import Dense, Matrix


class Identity(Matrix):
    """The n x n identity matrix — the ``Identity`` predicate set."""

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError("n must be positive")
        self.n = n
        self.shape = (n, n)

    def matmat(self, X: np.ndarray) -> np.ndarray:
        return X.copy()

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        return Y.copy()

    def gram(self) -> "Identity":
        return Identity(self.n)

    def column_abs_sums(self) -> np.ndarray:
        return np.ones(self.n)

    def constant_column_abs_sum(self) -> float:
        return 1.0

    def column_norms(self) -> np.ndarray:
        return np.ones(self.n)

    def constant_column_norm(self) -> float:
        return 1.0

    def pinv(self) -> "Identity":
        return Identity(self.n)

    def transpose(self) -> "Identity":
        return self

    def dense(self) -> np.ndarray:
        return np.eye(self.n)

    def trace(self) -> float:
        return float(self.n)

    def sum(self) -> float:
        return float(self.n)

    def to_config(self) -> dict:
        return {"type": "Identity", "n": self.n}

    @classmethod
    def from_config(cls, config: dict) -> "Identity":
        return cls(int(config["n"]))

    def __repr__(self) -> str:
        return f"Identity(n={self.n}, dtype={self.dtype.__name__})"


class Ones(Matrix):
    """The m x n all-ones matrix.

    ``Ones(1, n)`` is the Total predicate set; ``Ones(n, n)`` is the
    ``1 = TᵀT`` building block of the marginals parameterization.
    """

    def __init__(self, m: int, n: int):
        if m <= 0 or n <= 0:
            raise ValueError("dimensions must be positive")
        self.shape = (m, n)

    def matmat(self, X: np.ndarray) -> np.ndarray:
        col_sums = X.sum(axis=0)
        return np.tile(col_sums, (self.shape[0], 1))

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        return np.tile(Y.sum(axis=0), (self.shape[1], 1))

    def gram(self) -> "Ones":
        # (1_{m x n})ᵀ (1_{m x n}) = m * 1_{n x n}
        from .stack import Weighted

        m, n = self.shape
        if m == 1:
            return Ones(n, n)
        return Weighted(Ones(n, n), float(m))  # type: ignore[return-value]

    def column_abs_sums(self) -> np.ndarray:
        return np.full(self.shape[1], float(self.shape[0]))

    def constant_column_abs_sum(self) -> float:
        return float(self.shape[0])

    def column_norms(self) -> np.ndarray:
        return np.full(self.shape[1], float(np.sqrt(self.shape[0])))

    def constant_column_norm(self) -> float:
        return float(np.sqrt(self.shape[0]))

    def pinv(self) -> Matrix:
        m, n = self.shape
        return Dense(np.full((n, m), 1.0 / (m * n)))

    def transpose(self) -> "Ones":
        return Ones(self.shape[1], self.shape[0])

    def dense(self) -> np.ndarray:
        return np.ones(self.shape)

    def trace(self) -> float:
        m, n = self.shape
        if m != n:
            raise ValueError(f"trace of non-square matrix {self.shape}")
        return float(n)

    def sum(self) -> float:
        return float(self.shape[0] * self.shape[1])

    def to_config(self) -> dict:
        return {"type": "Ones", "m": self.shape[0], "n": self.shape[1]}

    @classmethod
    def from_config(cls, config: dict) -> "Ones":
        return cls(int(config["m"]), int(config["n"]))

    def __repr__(self) -> str:
        m, n = self.shape
        return f"Ones({m} x {n}, dtype={self.dtype.__name__})"


class Diagonal(Matrix):
    """The n x n diagonal matrix ``diag(d)``.

    Appears in structured normal-equation solvers: the middle factor of
    the two-term Kronecker gram inverse ``(⊗E)ᵀ diag(1/(1+⊗λ)) (⊗E)`` is
    a pure per-coordinate scaling, so applying it is width-invariant
    elementwise work.
    """

    def __init__(self, d: np.ndarray):
        self.d = np.asarray(d, dtype=np.float64)
        if self.d.ndim != 1:
            raise ValueError(f"expected a 1-D diagonal, got shape {self.d.shape}")
        n = self.d.shape[0]
        self.shape = (n, n)

    def matmat(self, X: np.ndarray) -> np.ndarray:
        return self.d[:, None] * X

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        return self.matmat(Y)

    def gram(self) -> "Diagonal":
        return Diagonal(self.d**2)

    def column_abs_sums(self) -> np.ndarray:
        return np.abs(self.d)

    def column_norms(self) -> np.ndarray:
        return np.abs(self.d)

    def pinv(self) -> "Diagonal":
        inv = np.zeros_like(self.d)
        nz = self.d != 0
        inv[nz] = 1.0 / self.d[nz]
        return Diagonal(inv)

    def transpose(self) -> "Diagonal":
        return self

    def dense(self) -> np.ndarray:
        return np.diag(self.d)

    def trace(self) -> float:
        return float(self.d.sum())

    def sum(self) -> float:
        return float(self.d.sum())

    def to_config(self) -> dict:
        return {"type": "Diagonal", "d": self.d}

    @classmethod
    def from_config(cls, config: dict) -> "Diagonal":
        return cls(np.asarray(config["d"], dtype=np.float64))

    def __repr__(self) -> str:
        return f"Diagonal(n={self.shape[0]}, dtype={self.dtype.__name__})"


def Total(n: int) -> Ones:
    """The ``Total`` predicate set on a domain of size n: a 1 x n row of ones."""
    return Ones(1, n)
