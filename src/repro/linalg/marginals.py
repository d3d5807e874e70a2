"""The marginals algebra of paper Section 6.3 and Appendix A.4.

A marginal over attribute subset S is the Kronecker product with Identity
on attributes in S and Total elsewhere.  Indexing subsets by integers
``a ∈ [2^d]`` (bit i of ``a`` set means attribute i is *kept*, matching the
paper's ``C(a)``), the Gram matrix of marginal a is::

    C(a) = ⊗_i [ 1(a_i = 0) + I(a_i = 1) ]

where ``1`` is the all-ones n_i x n_i matrix.  Weighted sums
``G(v) = Σ_a v_a C(a)`` are closed under multiplication (Proposition 4)::

    G(u) G(v) = G(X(u) v)

with ``X(u)`` an upper-triangular 2^d x 2^d matrix.  This lets OPT_M
evaluate objectives, invert Gram matrices, and form pseudo-inverses in
O(4^d) time, independent of the domain sizes n_i.

Bit convention: attribute ``i`` (0-based position in the domain) maps to
bit ``d-1-i``, so the binary string of ``a`` reads left-to-right in
attribute order (Example 9: ``I ⊗ T ⊗ I`` ↔ ``C(101₂) = C(5)``).
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import linalg as sla
from scipy import sparse as sp
from scipy.sparse.linalg import spsolve_triangular

from .base import Matrix
from .identity import Identity, Ones
from .kron import Kronecker
from .stack import Sum, VStack, Weighted


def attribute_bit(a: int, i: int, d: int) -> int:
    """Bit of subset-index ``a`` for attribute position ``i`` (0-based)."""
    return (a >> (d - 1 - i)) & 1


def subset_to_index(subset, attributes) -> int:
    """Map an attribute subset (names or positions) to its integer index."""
    d = len(attributes)
    positions = []
    lookup = {a: i for i, a in enumerate(attributes)}
    for s in subset:
        positions.append(lookup[s] if s in lookup else int(s))
    a = 0
    for i in positions:
        a |= 1 << (d - 1 - i)
    return a


def index_to_subset(a: int, attributes) -> tuple:
    """Inverse of :func:`subset_to_index`: the kept attributes of index a."""
    d = len(attributes)
    return tuple(attributes[i] for i in range(d) if attribute_bit(a, i, d))


def marginal_c_matrix(sizes, a: int) -> Kronecker:
    """The Gram building block ``C(a)`` as an implicit Kronecker product."""
    d = len(sizes)
    factors: list[Matrix] = []
    for i, n in enumerate(sizes):
        factors.append(Identity(n) if attribute_bit(a, i, d) else Ones(n, n))
    return Kronecker(factors)


def marginal_query_matrix(sizes, a: int) -> Kronecker:
    """The query matrix of marginal ``a``: Identity on kept attributes, Total
    on the rest.  Sensitivity 1."""
    d = len(sizes)
    factors: list[Matrix] = []
    for i, n in enumerate(sizes):
        factors.append(Identity(n) if attribute_bit(a, i, d) else Ones(1, n))
    return Kronecker(factors)


#: Largest subset-lattice size (2^d) for which the O(4^d) pairwise index
#: tables are materialized.  At the limit (d = 10) the three tables cost
#: ~24 MB; beyond it the algebra falls back to the loop/sparse code paths.
_DENSE_TABLE_LIMIT = 1024


@functools.lru_cache(maxsize=8)
def get_algebra(sizes: tuple) -> "MarginalsAlgebra":
    """Shared :class:`MarginalsAlgebra` instance for a domain's sizes.

    OPT_M and the marginal error paths construct the algebra on every
    call; the instance (and its lazily-built O(4^d) tables) depends only
    on the attribute sizes, so it is cached process-wide.  The cache is
    deliberately small — near the d = 10 table limit each entry can pin
    ~24 MB.
    """
    return MarginalsAlgebra(sizes)


class MarginalsAlgebra:
    """Closed algebra of ``G(v) = Σ_a v_a C(a)`` for a fixed domain.

    Precomputes the scalar table ``C̄(k) = Π_i [n_i if k_i = 0 else 1]``
    (Proposition 3's constant) and exposes the product, inverse and adjoint
    operations needed by OPT_M — all in O(4^d) vectorized work.

    For small subset lattices (``2^d <= 1024``) the algebra additionally
    materializes the pairwise index tables ``a & b`` and ``C̄(a|b)`` once,
    turning every ``X(u)`` construction, triangular solve and OPT_M
    gradient into a handful of dense vectorized operations instead of
    per-subset Python loops over scipy.sparse matrices — the single
    hottest path of OPT_M restarts.
    """

    def __init__(self, sizes):
        self.sizes = tuple(int(n) for n in sizes)
        self.d = len(self.sizes)
        if self.d > 16:
            raise ValueError("marginals algebra limited to d <= 16 attributes")
        self.size = 1 << self.d
        ks = np.arange(self.size)
        cbar = np.ones(self.size)
        for i, n in enumerate(self.sizes):
            zero_bit = ((ks >> (self.d - 1 - i)) & 1) == 0
            cbar[zero_bit] *= n
        self.cbar = cbar  # C̄(k) lookup, length 2^d
        self._tables = None  # lazily-built pairwise index tables

    # -- pairwise index tables --------------------------------------------
    @property
    def has_dense_tables(self) -> bool:
        """Whether the vectorized O(4^d)-table fast path is available."""
        return self.size <= _DENSE_TABLE_LIMIT

    def _pair_tables(self):
        """``(AND, CBAR_OR, FLAT)`` with ``AND[a,b] = a & b``,
        ``CBAR_OR[a,b] = C̄(a|b)`` and ``FLAT = (AND * 2^d + b).ravel()``."""
        if self._tables is None:
            a = np.arange(self.size)
            and_table = a[:, None] & a[None, :]
            cbar_or = self.cbar[a[:, None] | a[None, :]]
            flat = (and_table * self.size + a[None, :]).ravel()
            self._tables = (and_table, cbar_or, flat)
        return self._tables

    # -- products ---------------------------------------------------------
    def multiply_weights(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Weights w with ``G(u) G(v) = G(w)`` — i.e. ``w = X(u) v``."""
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        if self.has_dense_tables:
            and_table, cbar_or, _ = self._pair_tables()
            return np.bincount(
                and_table.ravel(),
                weights=(np.outer(u, v) * cbar_or).ravel(),
                minlength=self.size,
            )
        a = np.arange(self.size)
        w = np.zeros(self.size)
        for b in range(self.size):
            if v[b] == 0.0:
                continue
            vals = u * self.cbar[a | b] * v[b]
            w += np.bincount(a & b, weights=vals, minlength=self.size)
        return w

    def x_matrix(self, u: np.ndarray) -> sp.csr_matrix:
        """The upper-triangular ``X(u)`` with ``X(u) v = weights of G(u)G(v)``.

        ``X(u)[k, b] = Σ_{a : a&b = k} u_a C̄(a|b)``; nonzero only when k is
        a submask of b, hence upper triangular in integer order.
        """
        u = np.asarray(u, dtype=np.float64)
        a = np.arange(self.size)
        data, rows, cols = [], [], []
        for b in range(self.size):
            col = np.bincount(a & b, weights=u * self.cbar[a | b], minlength=self.size)
            nz = np.nonzero(col)[0]
            rows.append(nz)
            cols.append(np.full(len(nz), b))
            data.append(col[nz])
        X = sp.coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.size, self.size),
        )
        return X.tocsr()

    def x_matrix_dense(self, u: np.ndarray) -> np.ndarray:
        """``X(u)`` as a dense ndarray via one vectorized scatter-add.

        Requires the pairwise tables: the whole matrix is a single
        ``bincount`` over the flattened ``(a&b, b)`` index table with
        weights ``u_a C̄(a|b)`` — no Python loop over subsets.
        """
        u = np.asarray(u, dtype=np.float64)
        _, cbar_or, flat = self._pair_tables()
        return np.bincount(
            flat, weights=(u[:, None] * cbar_or).ravel(),
            minlength=self.size * self.size,
        ).reshape(self.size, self.size)

    def x_operator(self, u: np.ndarray):
        """``X(u)`` in the cheapest available representation (dense/sparse)."""
        if self.has_dense_tables:
            return self.x_matrix_dense(u)
        return self.x_matrix(u)

    def solve_upper(self, X, rhs: np.ndarray) -> np.ndarray:
        """Back-substitution ``X v = rhs`` for upper-triangular ``X`` from
        :meth:`x_operator` (dense or sparse)."""
        rhs = np.asarray(rhs, dtype=np.float64)
        if isinstance(X, np.ndarray):
            return sla.solve_triangular(X, rhs, lower=False, check_finite=False)
        return spsolve_triangular(X, rhs, lower=False)

    def solve_lower_t(self, X, rhs: np.ndarray) -> np.ndarray:
        """Forward-substitution ``Xᵀ φ = rhs`` (lower-triangular transpose)."""
        rhs = np.asarray(rhs, dtype=np.float64)
        if isinstance(X, np.ndarray):
            return sla.solve_triangular(
                X, rhs, lower=False, trans="T", check_finite=False
            )
        return spsolve_triangular(X.T.tocsr(), rhs, lower=True)

    def grad_dot(self, phi: np.ndarray, v: np.ndarray) -> np.ndarray:
        """OPT_M gradient kernel: ``out[b] = Σ_c φ(b&c) C̄(b|c) v_c``.

        One fancy-indexed matrix-vector product with the pairwise tables;
        falls back to the per-subset loop above the table size limit.
        """
        phi = np.asarray(phi, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        if self.has_dense_tables:
            and_table, cbar_or, _ = self._pair_tables()
            return (phi[and_table] * cbar_or) @ v
        b = np.arange(self.size)
        out = np.zeros(self.size)
        for c in range(self.size):
            if v[c] == 0.0:
                continue
            out += phi[b & c] * self.cbar[b | c] * v[c]
        return out

    # -- inverses -----------------------------------------------------------
    def ginv_weights(self, u: np.ndarray) -> np.ndarray:
        """Weights v with ``G(u) G(v) = I`` (requires u_full > 0).

        Solves the triangular system ``X(u) v = e`` where e selects the full
        index (since ``C(2^d - 1) = I``).  With the full-contingency weight
        strictly positive, X(u) has a positive diagonal and the solve is a
        clean back-substitution.
        """
        u = np.asarray(u, dtype=np.float64)
        if u[-1] <= 0:
            raise ValueError(
                "G(u) inverse requires positive weight on the full marginal"
            )
        e = np.zeros(self.size)
        e[-1] = 1.0
        return self.solve_upper(self.x_operator(u), e)

    def ginv_weights_general(self, u: np.ndarray) -> np.ndarray:
        """Weights v of a *generalized* inverse: ``G(u)G(v)G(u) = G(u)``.

        Because ``multiply_weights`` is symmetric in its arguments (the
        C(a) matrices commute), the g-inverse condition reduces to the
        linear system ``X(u)² v = u``, solved in the least-squares sense.
        A g-inverse suffices both for error evaluation (``tr[G⁻ WᵀW]`` is
        invariant over g-inverses when W is supported) and for computing
        *a* least-squares solution in reconstruction.
        """
        u = np.asarray(u, dtype=np.float64)
        X = self.x_operator(u)
        X2 = X @ X if isinstance(X, np.ndarray) else (X @ X).toarray()
        v, *_ = np.linalg.lstsq(X2, u, rcond=None)
        return v

    def adjoint_solve(self, u: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Solve ``X(u)ᵀ φ = δ`` (used for the OPT_M analytic gradient)."""
        u = np.asarray(u, dtype=np.float64)
        return self.solve_lower_t(
            self.x_operator(u), np.asarray(delta, dtype=np.float64)
        )


class MarginalsGram(Matrix):
    """``G(v) = Σ_a v_a C(a)`` as an implicit N x N matrix.

    Used to apply ``(MᵀM)⁺`` during reconstruction without materializing
    anything larger than the data vector.
    """

    def __init__(self, sizes, weights: np.ndarray):
        self.sizes = tuple(int(n) for n in sizes)
        self.weights = np.asarray(weights, dtype=np.float64)
        d = len(self.sizes)
        if self.weights.shape != (1 << d,):
            raise ValueError(f"expected {1 << d} weights, got {self.weights.shape}")
        N = int(np.prod(self.sizes))
        self.shape = (N, N)

    def _terms(self):
        # Build the weighted C(a) terms once per instance: every batched
        # pinv application re-enters matmat, and rebuilding the
        # Kronecker objects would discard their memoized structure.
        terms = self.cache_get("gram_terms")
        if terms is None:
            terms = self.cache_set(
                "gram_terms",
                [
                    Weighted(marginal_c_matrix(self.sizes, a), float(v))
                    for a, v in enumerate(self.weights)
                    if v != 0.0
                ],
            )
        return terms

    def matmat(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros((self.shape[0], X.shape[1]))
        for term in self._terms():
            out += term.matmat(X)
        return out

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        return self.matmat(Y)  # G(v) is symmetric

    def transpose(self) -> "MarginalsGram":
        return self

    def dense(self) -> np.ndarray:
        terms = list(self._terms())
        if not terms:
            return np.zeros(self.shape)
        return Sum(terms).dense()

    def trace(self) -> float:
        N = self.shape[0]
        # tr C(a) = Π_i (n_i) over kept bits... tr(1_{n x n}) = n, tr(I_n) = n,
        # so tr C(a) = N for every a.
        return float(self.weights.sum() * N)

    def to_config(self) -> dict:
        return {
            "type": "MarginalsGram",
            "sizes": list(self.sizes),
            "weights": self.weights,
        }

    @classmethod
    def from_config(cls, config: dict) -> "MarginalsGram":
        return cls(
            config["sizes"], np.asarray(config["weights"], dtype=np.float64)
        )

    def __repr__(self) -> str:
        active = int(np.count_nonzero(self.weights))
        return (
            f"MarginalsGram(d={len(self.sizes)}, active={active}, "
            f"shape={self.shape}, dtype={self.dtype.__name__})"
        )


class MarginalsStrategy(Matrix):
    """The strategy ``M(θ)``: all 2^d marginals stacked with weights θ.

    Only marginals with θ_a > 0 contribute rows.  Sensitivity is Σ θ_a
    (each marginal has sensitivity 1; column sums add across the stack).
    """

    def __init__(self, sizes, theta: np.ndarray):
        self.sizes = tuple(int(n) for n in sizes)
        self.theta = np.asarray(theta, dtype=np.float64)
        d = len(self.sizes)
        if self.theta.shape != (1 << d,):
            raise ValueError(f"expected {1 << d} weights, got {self.theta.shape}")
        if np.any(self.theta < 0):
            raise ValueError("marginal weights must be non-negative")
        self.active = [int(a) for a in np.nonzero(self.theta)[0]]
        if not self.active:
            raise ValueError("at least one marginal weight must be positive")
        self._stack = VStack(
            [
                Weighted(marginal_query_matrix(self.sizes, a), float(self.theta[a]))
                for a in self.active
            ]
        )
        self.shape = self._stack.shape

    def matmat(self, X: np.ndarray) -> np.ndarray:
        return self._stack.matmat(X)

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        return self._stack.rmatmat(Y)

    def gram(self) -> MarginalsGram:
        return MarginalsGram(self.sizes, self.theta**2)

    def l2_sensitivity(self) -> float:
        # Every marginal query matrix has exactly one 1 per column, so
        # marginal a contributes θ_a² to every column's squared norm.
        return float(np.sqrt((self.theta**2).sum()))

    def column_abs_sums(self) -> np.ndarray:
        return np.full(self.shape[1], self.constant_column_abs_sum())

    def constant_column_abs_sum(self) -> float:
        return float(self.theta.sum())

    def column_norms(self) -> np.ndarray:
        return np.full(self.shape[1], self.l2_sensitivity())

    def constant_column_norm(self) -> float:
        return self.l2_sensitivity()

    def pinv(self) -> Matrix:
        """``(MᵀM)⁻ Mᵀ`` with the Gram inverse from the algebra.

        When the full-contingency weight is positive the Gram is
        invertible and this is the exact Moore–Penrose pseudo-inverse.
        Otherwise a *generalized* inverse is used: the result still
        produces a least-squares solution (and identical answers for any
        supported workload), though not necessarily the minimum-norm one.
        """
        alg = get_algebra(self.sizes)
        if self.theta[-1] > 0:
            v = alg.ginv_weights(self.theta**2)
        else:
            v = alg.ginv_weights_general(self.theta**2)
        return MarginalsGram(self.sizes, v) @ self._stack.T

    def dense(self) -> np.ndarray:
        return self._stack.dense()

    def to_config(self) -> dict:
        return {
            "type": "MarginalsStrategy",
            "sizes": list(self.sizes),
            "theta": self.theta,
        }

    @classmethod
    def from_config(cls, config: dict) -> "MarginalsStrategy":
        return cls(
            config["sizes"], np.asarray(config["theta"], dtype=np.float64)
        )

    def __repr__(self) -> str:
        return (
            f"MarginalsStrategy(d={len(self.sizes)}, "
            f"active={len(self.active)}, shape={self.shape}, "
            f"dtype={self.dtype.__name__})"
        )
