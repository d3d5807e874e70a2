"""Structured workload/strategy matrices with closed-form fast paths.

These are the vectorized forms of the common single-attribute predicate
sets of paper Section 3.3 (Prefix, AllRange) plus the building blocks used
by the baseline mechanisms of Section 8 (Haar wavelets for Privelet,
b-ary hierarchies for HB/GreedyH, width-w range bands, and permuted
workloads).  Each class provides its Gram matrix ``WᵀW`` in closed form so
strategy optimization never needs the explicit (often huge) query matrix —
e.g. AllRange on a domain of size n has n(n+1)/2 rows, but its Gram is the
n x n matrix ``(min(i,j)+1)(n - max(i,j))``.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from .base import Dense, Matrix
from .identity import Diagonal


class Prefix(Matrix):
    """All prefix (CDF) queries: row i sums cells 0..i.  n rows, n cols."""

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError("n must be positive")
        self.n = n
        self.shape = (n, n)

    def matmat(self, X: np.ndarray) -> np.ndarray:
        return np.cumsum(X, axis=0)

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        # Column j of Prefix is covered by prefixes j..n-1.
        return np.cumsum(Y[::-1], axis=0)[::-1]

    def gram(self) -> Dense:
        # (WᵀW)_{ij} = #prefixes containing both i and j = n - max(i, j).
        idx = np.arange(self.n)
        return Dense(self.n - np.maximum.outer(idx, idx).astype(np.float64))

    def column_abs_sums(self) -> np.ndarray:
        return np.arange(self.n, 0, -1, dtype=np.float64)

    def column_norms(self) -> np.ndarray:
        # 0/1 entries: squared column norm = column sum.
        return np.sqrt(self.column_abs_sums())

    def dense(self) -> np.ndarray:
        return np.tril(np.ones((self.n, self.n)))

    def to_config(self) -> dict:
        return {"type": "Prefix", "n": self.n}

    @classmethod
    def from_config(cls, config: dict) -> "Prefix":
        return cls(int(config["n"]))

    def __repr__(self) -> str:
        return f"Prefix(n={self.n}, dtype={self.dtype.__name__})"


class AllRange(Matrix):
    """All contiguous range queries [i, j]: n(n+1)/2 rows, n cols.

    Rows are ordered lexicographically by (i, j) with i <= j.
    """

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError("n must be positive")
        self.n = n
        self.shape = (n * (n + 1) // 2, n)

    def matmat(self, X: np.ndarray) -> np.ndarray:
        # Batched prefix trick: one row-block of output per range start,
        # all columns at once.
        prefix = np.vstack([np.zeros((1, X.shape[1])), np.cumsum(X, axis=0)])
        out = np.empty((self.shape[0], X.shape[1]))
        pos = 0
        for i in range(self.n):
            cnt = self.n - i
            out[pos : pos + cnt] = prefix[i + 1 :] - prefix[i]
            pos += cnt
        return out

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        out = np.zeros((self.n, Y.shape[1]))
        pos = 0
        for i in range(self.n):
            cnt = self.n - i
            block = Y[pos : pos + cnt]
            # Range (i, j) covers cells i..j: add reverse-cumulative sums.
            out[i:] += np.cumsum(block[::-1], axis=0)[::-1]
            pos += cnt
        return out

    def gram(self) -> Dense:
        # #ranges containing both i and j = (min(i,j)+1) * (n - max(i,j)).
        idx = np.arange(self.n, dtype=np.float64)
        lo = np.minimum.outer(idx, idx) + 1.0
        hi = self.n - np.maximum.outer(idx, idx)
        return Dense(lo * hi)

    def column_abs_sums(self) -> np.ndarray:
        idx = np.arange(self.n, dtype=np.float64)
        return (idx + 1.0) * (self.n - idx)

    def column_norms(self) -> np.ndarray:
        return np.sqrt(self.column_abs_sums())

    def dense(self) -> np.ndarray:
        rows = []
        for i in range(self.n):
            block = np.zeros((self.n - i, self.n))
            for j in range(i, self.n):
                block[j - i, i : j + 1] = 1.0
            rows.append(block)
        return np.vstack(rows)

    def to_config(self) -> dict:
        return {"type": "AllRange", "n": self.n}

    @classmethod
    def from_config(cls, config: dict) -> "AllRange":
        return cls(int(config["n"]))

    def __repr__(self) -> str:
        return (
            f"AllRange(n={self.n}, shape={self.shape}, "
            f"dtype={self.dtype.__name__})"
        )


class WidthRange(Matrix):
    """All range queries summing exactly ``width`` contiguous cells."""

    def __init__(self, n: int, width: int):
        if not 1 <= width <= n:
            raise ValueError(f"width must be in [1, {n}], got {width}")
        self.n = n
        self.width = width
        self.shape = (n - width + 1, n)

    def matmat(self, X: np.ndarray) -> np.ndarray:
        prefix = np.vstack([np.zeros((1, X.shape[1])), np.cumsum(X, axis=0)])
        return prefix[self.width :] - prefix[: -self.width]

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        m = self.shape[0]
        csum = np.vstack([np.zeros((1, Y.shape[1])), np.cumsum(Y, axis=0)])
        j = np.arange(self.n)
        lo = np.maximum(0, j - self.width + 1)
        hi = np.minimum(j, m - 1)
        out = csum[hi + 1] - csum[lo]
        out[lo > hi] = 0.0
        return out

    def gram(self) -> Dense:
        # Windows covering both i and j: start s with
        # max(i,j)-width+1 <= s <= min(i,j), clipped to [0, n-width].
        idx = np.arange(self.n, dtype=np.float64)
        lo = np.maximum(np.maximum.outer(idx, idx) - self.width + 1, 0.0)
        hi = np.minimum(np.minimum.outer(idx, idx), self.n - self.width)
        return Dense(np.maximum(hi - lo + 1.0, 0.0))

    def column_abs_sums(self) -> np.ndarray:
        idx = np.arange(self.n, dtype=np.float64)
        lo = np.maximum(idx - self.width + 1, 0.0)
        hi = np.minimum(idx, self.n - self.width)
        return np.maximum(hi - lo + 1.0, 0.0)

    def column_norms(self) -> np.ndarray:
        return np.sqrt(self.column_abs_sums())

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for i in range(self.shape[0]):
            out[i, i : i + self.width] = 1.0
        return out

    def to_config(self) -> dict:
        return {"type": "WidthRange", "n": self.n, "width": self.width}

    @classmethod
    def from_config(cls, config: dict) -> "WidthRange":
        return cls(int(config["n"]), int(config["width"]))

    def __repr__(self) -> str:
        return (
            f"WidthRange(n={self.n}, width={self.width}, "
            f"dtype={self.dtype.__name__})"
        )


class Permuted(Matrix):
    """A workload with permuted domain columns: ``W P``.

    ``perm[j]`` gives the source column of output column j, i.e.
    ``(WP)[:, j] = W[:, perm[j]]``.  Used for the Permuted Range workload
    of Section 8.1, which shuffles the domain to destroy the locality that
    hierarchical baselines rely on.
    """

    def __init__(self, base: Matrix, perm: np.ndarray):
        perm = np.asarray(perm, dtype=np.intp)
        n = base.shape[1]
        if sorted(perm.tolist()) != list(range(n)):
            raise ValueError("perm must be a permutation of range(n)")
        self.base = base
        self.perm = perm
        # inverse permutation: inv[perm[j]] = j
        self.inv = np.empty(n, dtype=np.intp)
        self.inv[perm] = np.arange(n)
        self.shape = base.shape

    def matmat(self, X: np.ndarray) -> np.ndarray:
        # (W P) X = W (P X); (PX)[i] = X[inv[i]] so that column perm[j] of W
        # receives row j of X.
        return self.base.matmat(X[self.inv])

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        return self.base.rmatmat(Y)[self.perm]

    def gram(self) -> Dense:
        G = self.base.gram().dense()
        return Dense(G[np.ix_(self.perm, self.perm)])

    def l2_sensitivity(self) -> float:
        return self.base.sensitivity(p=2)

    def column_abs_sums(self) -> np.ndarray:
        return self.base.column_abs_sums()[self.perm]

    def column_norms(self) -> np.ndarray:
        return self.base.column_norms()[self.perm]

    def constant_column_norm(self) -> float | None:
        return self.base.constant_column_norm()

    def dense(self) -> np.ndarray:
        return self.base.dense()[:, self.perm]

    def to_config(self) -> dict:
        from .serialize import matrix_to_config

        return {
            "type": "Permuted",
            "base": matrix_to_config(self.base),
            "perm": np.asarray(self.perm, dtype=np.int64),
        }

    @classmethod
    def from_config(cls, config: dict) -> "Permuted":
        from .serialize import matrix_from_config

        return cls(
            matrix_from_config(config["base"]),
            np.asarray(config["perm"], dtype=np.intp),
        )

    def __repr__(self) -> str:
        return f"Permuted({self.base!r})"


class Selection(Matrix):
    """The k x n row selection of the distinct cells ``cols``:
    ``(S x)_i = x[cols[i]]``.

    Each cell is measured once, so the sensitivity is 1 under either
    norm (0 when nothing is selected); ``SᵀS`` is the 0/1 diagonal of
    the selected cells and ``S⁺ = Sᵀ``, a scatter.
    """

    def __init__(self, cols: np.ndarray, n: int):
        self.cols = np.asarray(cols, dtype=np.intp)
        if self.cols.ndim != 1 or np.unique(self.cols).size != self.cols.size:
            raise ValueError("cols must be a 1-D array of distinct cells")
        if self.cols.size and not 0 <= self.cols.min() <= self.cols.max() < n:
            raise ValueError(f"cols must lie in [0, {n})")
        self.n = n
        self.shape = (self.cols.size, n)

    def matmat(self, X: np.ndarray) -> np.ndarray:
        return X[self.cols]

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        out = np.zeros((self.n, Y.shape[1]))
        out[self.cols] = Y
        return out

    def gram(self) -> Diagonal:
        d = np.zeros(self.n)
        d[self.cols] = 1.0
        return Diagonal(d)

    def column_abs_sums(self) -> np.ndarray:
        return self.gram().d

    def column_norms(self) -> np.ndarray:
        return self.gram().d

    def pinv(self) -> Matrix:
        return self.transpose()


class SparseMatrix(Matrix):
    """A scipy.sparse-backed matrix (for wavelet/hierarchical strategies)."""

    def __init__(self, array: sp.spmatrix):
        self.array = sp.csr_matrix(array).astype(np.float64)
        self.shape = self.array.shape

    def matmat(self, X: np.ndarray) -> np.ndarray:
        return self.array @ X

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        return self.array.T @ Y

    def gram(self) -> Dense:
        return Dense((self.array.T @ self.array).toarray())

    def column_abs_sums(self) -> np.ndarray:
        return np.asarray(abs(self.array).sum(axis=0)).ravel()

    def column_norms(self) -> np.ndarray:
        sq = self.array.multiply(self.array).sum(axis=0)
        return np.sqrt(np.asarray(sq).ravel())

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.array.T)

    def dense(self) -> np.ndarray:
        return self.array.toarray()

    def sum(self) -> float:
        return float(self.array.sum())

    def to_config(self) -> dict:
        csr = self.array
        return {
            "type": "SparseMatrix",
            "data": csr.data,
            "indices": np.asarray(csr.indices, dtype=np.int64),
            "indptr": np.asarray(csr.indptr, dtype=np.int64),
            "shape": [int(s) for s in csr.shape],
        }

    @classmethod
    def from_config(cls, config: dict) -> "SparseMatrix":
        return cls(
            sp.csr_matrix(
                (config["data"], config["indices"], config["indptr"]),
                shape=tuple(config["shape"]),
            )
        )

    def __repr__(self) -> str:
        return (
            f"SparseMatrix(shape={self.shape}, nnz={self.array.nnz}, "
            f"dtype={self.dtype.__name__})"
        )


def haar_wavelet(n: int) -> SparseMatrix:
    """The Haar wavelet strategy matrix of Privelet [Xiao et al. 2011].

    Requires n to be a power of two.  Rows: one total row plus, for each
    level l = 0..log2(n)-1 and each of the 2^l shifts, a row that is +1 on
    the left half of its dyadic interval and -1 on the right half.  The
    maximum absolute column sum is ``1 + log2(n)``.
    """
    if n <= 0 or (n & (n - 1)) != 0:
        raise ValueError(f"haar_wavelet requires a power-of-two size, got {n}")
    rows, cols, vals = [0] * n, list(range(n)), [1.0] * n
    r = 1
    length = n
    while length > 1:
        half = length // 2
        for start in range(0, n, length):
            for c in range(start, start + half):
                rows.append(r)
                cols.append(c)
                vals.append(1.0)
            for c in range(start + half, start + length):
                rows.append(r)
                cols.append(c)
                vals.append(-1.0)
            r += 1
        length = half
    H = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    return SparseMatrix(H)


def hierarchical(n: int, branching: int) -> SparseMatrix:
    """A b-ary hierarchy of interval queries over a domain of size n.

    This is the strategy family used by HB [Qardaji et al. 2013]: the root
    interval [0, n) plus each node's b-way split, recursively down to
    singleton leaves.  Every domain element appears in one query per level,
    so the sensitivity equals the tree height.
    """
    if branching < 2:
        raise ValueError("branching factor must be at least 2")
    rows, cols, vals = [], [], []
    r = 0
    # Breadth-first over intervals; an interval of size 1 is a leaf.
    frontier = [(0, n)]
    while frontier:
        nxt = []
        for lo, hi in frontier:
            for c in range(lo, hi):
                rows.append(r)
                cols.append(c)
                vals.append(1.0)
            r += 1
            size = hi - lo
            if size > 1:
                step = -(-size // branching)  # ceil division
                for s in range(lo, hi, step):
                    nxt.append((s, min(s + step, hi)))
        frontier = nxt
    H = sp.coo_matrix((vals, (rows, cols)), shape=(r, n))
    return SparseMatrix(H)
