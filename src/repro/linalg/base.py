"""Implicit matrix base classes (paper Section 4).

The select-measure-reconstruct paradigm represents workloads and strategies
as matrices over the full relational domain.  Materializing them explicitly
is infeasible in high dimensions (the paper's SF1+ workload matrix would be
22TB), so every matrix in this library is a :class:`Matrix` — a linear
operator that knows how to perform the handful of operations the paradigm
needs *without* densifying:

* ``matmat`` / ``rmatmat`` — products ``AX`` and ``AᵀY`` (``matvec`` /
  ``rmatvec`` are their width-1 views);
* ``gram`` — the Gram matrix ``AᵀA`` (central to strategy optimization);
* ``sensitivity`` — ``sensitivity(p=1)`` is the maximum absolute column
  sum ``‖A‖₁``, the L1 sensitivity of the query set (paper Definition 6,
  Laplace calibration); ``sensitivity(p=2)`` is the maximum column
  Euclidean norm, the L2 sensitivity (Gaussian calibration);
* ``pinv`` — the Moore–Penrose pseudo-inverse, where a structured form
  exists (used by RECONSTRUCT, paper Section 7.2).

A subclass writes one product per direction, ``matmat`` and
``rmatmat``, for 2-D input only: :class:`Matrix` gives every such method
the one rule for a 1-D input (a vector is a one-column matrix) and
derives ``matvec``/``rmatvec`` from it.  Subclasses override whichever
other operations have a structured fast path; :class:`Dense` is the
explicit fallback used for modest domain sizes.

Matrices in this library are **immutable**: once constructed, neither the
shape nor the numerical content of a :class:`Matrix` changes.  The base
class exploits this with a memoization layer: the expensive zero-argument
structural operations (``gram``, ``dense``, ``sensitivity``, ...) are
cached per instance, and the cache is inherited automatically by every
subclass override via ``__init_subclass__``.  Strategy optimization calls
``gram().dense()`` on the same workload factors hundreds of times across
random restarts; with the cache those recomputations collapse to dict
lookups.  Callers must treat returned arrays as read-only.
"""

from __future__ import annotations

import functools

import numpy as np

#: Zero-argument structural operations memoized on every Matrix subclass.
_MEMOIZED_OPS = (
    "gram",
    "dense",
    "l1_sensitivity",
    "l2_sensitivity",
    "column_abs_sums",
    "constant_column_abs_sum",
    "column_norms",
    "constant_column_norm",
    "pinv",
    "trace",
    "sum",
    "gram_inverse",
)

def _memoized(fn):
    """Wrap a zero-argument structural method with per-instance caching."""
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(self):
        memo = self.__dict__.get("_memo")
        if memo is None:
            memo = {}
            object.__setattr__(self, "_memo", memo)
        if name not in memo:
            memo[name] = fn(self)
        return memo[name]

    wrapper.__wrapped__ = fn
    wrapper._is_memoized = True
    return wrapper


def _columns(fn):
    """Give a subclass's 2-D ``matmat``/``rmatmat`` the rule for a 1-D
    input: a vector is applied as a one-column matrix."""

    @functools.wraps(fn)
    def wrapper(self, X):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            return fn(self, X[:, None])[:, 0]
        return fn(self, X)

    wrapper._takes_vectors = True
    return wrapper


class Matrix:
    """A real matrix represented implicitly as a linear operator.

    Attributes
    ----------
    shape:
        ``(m, n)`` — number of queries and domain size.
    dtype:
        Always ``numpy.float64`` in this library.
    """

    shape: tuple[int, int]
    dtype = np.float64

    def __init_subclass__(cls, **kwargs):
        # The @cached_property-style layer: any structural operation a
        # subclass defines (or redefines) is memoized automatically, so
        # structured subclasses inherit the caching behaviour without
        # annotating each override.
        super().__init_subclass__(**kwargs)
        for name in _MEMOIZED_OPS:
            fn = cls.__dict__.get(name)
            if fn is not None and callable(fn) and not getattr(
                fn, "_is_memoized", False
            ):
                setattr(cls, name, _memoized(fn))
        for name in ("matmat", "rmatmat"):
            fn = cls.__dict__.get(name)
            if fn is not None and not getattr(fn, "_takes_vectors", False):
                setattr(cls, name, _columns(fn))

    # -- memoization plumbing ---------------------------------------------
    def cache_get(self, key: str, default=None):
        """Read an arbitrary memoized value (used by workload decomposition
        and error caches that live outside this module)."""
        memo = self.__dict__.get("_memo")
        return default if memo is None else memo.get(key, default)

    def cache_set(self, key: str, value):
        """Store an arbitrary memoized value on this matrix.  Returns
        ``value`` for chaining."""
        memo = self.__dict__.get("_memo")
        if memo is None:
            memo = {}
            object.__setattr__(self, "_memo", memo)
        memo[key] = value
        return value

    def __getstate__(self):
        # Memoized values can be large (dense Grams); rebuild them on the
        # receiving side instead of shipping them to worker processes.
        state = dict(self.__dict__)
        state.pop("_memo", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    # -- core linear operator interface ---------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Return ``A @ x`` for a vector ``x`` of length ``n``: the
        width-1 view of :meth:`matmat`."""
        if type(self).matmat is Matrix.matmat:
            raise NotImplementedError(
                f"{type(self).__name__} defines neither matmat nor matvec"
            )
        return self.matmat(x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Return ``Aᵀ @ y`` for a vector ``y`` of length ``m``: the
        width-1 view of :meth:`rmatmat`."""
        if type(self).rmatmat is Matrix.rmatmat:
            raise NotImplementedError(
                f"{type(self).__name__} defines neither rmatmat nor rmatvec"
            )
        return self.rmatmat(y)

    def matmat(self, X: np.ndarray) -> np.ndarray:
        """Return ``A @ X`` for a dense matrix ``X``.

        Every class in this library overrides this with a batched
        product.  The default serves a class that defines only
        ``matvec``: one ``matvec`` per column into a preallocated output.
        """
        X = np.asarray(X, dtype=self.dtype)
        if X.ndim == 1:
            return self.matvec(X)
        out = np.empty((self.shape[0], X.shape[1]), dtype=self.dtype)
        for j in range(X.shape[1]):
            out[:, j] = self.matvec(X[:, j])
        return out

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        """Return ``Aᵀ @ Y`` for a dense matrix ``Y`` (the column loop over
        ``rmatvec`` of a class that defines only that)."""
        Y = np.asarray(Y, dtype=self.dtype)
        if Y.ndim == 1:
            return self.rmatvec(Y)
        out = np.empty((self.shape[1], Y.shape[1]), dtype=self.dtype)
        for j in range(Y.shape[1]):
            out[:, j] = self.rmatvec(Y[:, j])
        return out

    # -- structured operations -------------------------------------------
    @_memoized
    def gram(self) -> "Matrix":
        """The Gram matrix ``AᵀA`` as a :class:`Matrix` (n x n)."""
        return Dense(self.dense().T @ self.dense())

    def sensitivity(self, p: int = 1) -> float:
        """Lp sensitivity of the query set.

        ``p=1`` is the maximum absolute column sum ``‖A‖₁`` (the Laplace
        mechanism's calibration, paper Definition 6); ``p=2`` is the
        maximum column Euclidean norm (the Gaussian mechanism's).  Both
        orders are memoized per instance through ``l1_sensitivity`` /
        ``l2_sensitivity``.
        """
        if p == 1:
            return self.l1_sensitivity()
        if p == 2:
            return self.l2_sensitivity()
        raise ValueError(f"sensitivity order p must be 1 or 2, got {p!r}")

    @_memoized
    def l1_sensitivity(self) -> float:
        """L1 sensitivity ``‖A‖₁`` = maximum absolute column sum."""
        c = self.constant_column_abs_sum()
        if c is not None:
            return float(c)
        return float(self.column_abs_sums().max())

    @_memoized
    def l2_sensitivity(self) -> float:
        """L2 sensitivity = maximum column Euclidean norm."""
        c = self.constant_column_norm()
        if c is not None:
            return float(c)
        return float(self.column_norms().max())

    @_memoized
    def column_abs_sums(self) -> np.ndarray:
        """Vector of absolute column sums (length n).

        ``sensitivity`` is the max of this vector; baselines such as the
        Laplace Mechanism on stacked workloads need the full vector.
        """
        return np.abs(self.dense()).sum(axis=0)

    def constant_column_abs_sum(self) -> float | None:
        """The shared column absolute sum if all columns agree, else None.

        Lets huge stacked workloads (e.g. unions of marginals over 10^8
        domains) compute sensitivity without materializing a domain-sized
        vector per product.
        """
        return None

    @_memoized
    def column_norms(self) -> np.ndarray:
        """Vector of column Euclidean norms (length n) — the L2 analogue
        of ``column_abs_sums``; structured subclasses override with
        closed forms that never densify."""
        d = self.dense()
        return np.sqrt((d * d).sum(axis=0))

    def constant_column_norm(self) -> float | None:
        """The shared column Euclidean norm if all columns agree, else
        None (the L2 analogue of ``constant_column_abs_sum``)."""
        return None

    @_memoized
    def pinv(self) -> "Matrix":
        """Moore–Penrose pseudo-inverse ``A⁺`` as a :class:`Matrix`."""
        return Dense(np.linalg.pinv(self.dense()))

    def transpose(self) -> "Matrix":
        """The transpose ``Aᵀ`` as a :class:`Matrix`."""
        return _Transpose(self)

    @property
    def T(self) -> "Matrix":
        return self.transpose()

    @_memoized
    def dense(self) -> np.ndarray:
        """Materialize the matrix as a dense ndarray.

        Only safe for modest sizes; intended for tests, small problems,
        and leaf factors of Kronecker products.  The result is cached —
        treat it as read-only.
        """
        m, n = self.shape
        eye = np.eye(n, dtype=self.dtype)
        return self.matmat(eye)

    @_memoized
    def trace(self) -> float:
        """Matrix trace (square matrices only)."""
        m, n = self.shape
        if m != n:
            raise ValueError(f"trace of non-square matrix {self.shape}")
        return float(np.trace(self.dense()))

    @_memoized
    def sum(self) -> float:
        """Sum of all entries, computed via two mat-vecs."""
        ones_n = np.ones(self.shape[1], dtype=self.dtype)
        return float(self.matvec(ones_n).sum())

    # -- serialization -----------------------------------------------------
    def to_config(self) -> dict:
        """Structural config for persistence (see :mod:`repro.linalg.serialize`).

        Must be a nested dict of JSON scalars, lists, ndarrays and child
        configs, with ``"type"`` naming the class; ``from_config`` inverts
        it exactly.  Base matrices are not serializable by default.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support config serialization"
        )

    @classmethod
    def from_config(cls, config: dict) -> "Matrix":
        """Rebuild an instance from :meth:`to_config` output."""
        raise NotImplementedError(
            f"{cls.__name__} does not support config serialization"
        )

    # -- operator sugar ----------------------------------------------------
    def __matmul__(self, other):
        if isinstance(other, np.ndarray):
            return self.matmat(other)
        if isinstance(other, Matrix):
            return _Product(self, other)
        return NotImplemented

    def __rmul__(self, c):
        if np.isscalar(c):
            from .stack import Weighted

            return Weighted(self, float(c))
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(shape={self.shape}, "
            f"dtype={np.dtype(self.dtype).name})"
        )


class Dense(Matrix):
    """Explicitly materialized matrix — the fallback representation."""

    def __init__(self, array: np.ndarray):
        self.array = np.asarray(array, dtype=np.float64)
        if self.array.ndim != 2:
            raise ValueError(f"expected 2-D array, got shape {self.array.shape}")
        self.shape = self.array.shape

    def matmat(self, X: np.ndarray) -> np.ndarray:
        return self.array @ X

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        return self.array.T @ Y

    def gram(self) -> "Dense":
        return Dense(self.array.T @ self.array)

    def column_abs_sums(self) -> np.ndarray:
        return np.abs(self.array).sum(axis=0)

    def column_norms(self) -> np.ndarray:
        return np.sqrt((self.array * self.array).sum(axis=0))

    def pinv(self) -> "Dense":
        return Dense(np.linalg.pinv(self.array))

    def transpose(self) -> "Dense":
        return Dense(self.array.T)

    def dense(self) -> np.ndarray:
        return self.array

    def trace(self) -> float:
        m, n = self.shape
        if m != n:
            raise ValueError(f"trace of non-square matrix {self.shape}")
        return float(np.trace(self.array))

    def sum(self) -> float:
        return float(self.array.sum())

    def to_config(self) -> dict:
        return {"type": "Dense", "array": self.array}

    @classmethod
    def from_config(cls, config: dict) -> "Dense":
        return cls(np.asarray(config["array"], dtype=np.float64))


class _Transpose(Matrix):
    """Lazy transpose wrapper used by the default ``transpose``."""

    def __init__(self, base: Matrix):
        self.base = base
        self.shape = (base.shape[1], base.shape[0])

    def matmat(self, X: np.ndarray) -> np.ndarray:
        return self.base.rmatmat(X)

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        return self.base.matmat(Y)

    def transpose(self) -> Matrix:
        return self.base

    def dense(self) -> np.ndarray:
        return self.base.dense().T


class _Product(Matrix):
    """Lazy matrix product ``A @ B`` of two implicit matrices."""

    def __init__(self, left: Matrix, right: Matrix):
        if left.shape[1] != right.shape[0]:
            raise ValueError(f"shape mismatch: {left.shape} @ {right.shape}")
        self.left = left
        self.right = right
        self.shape = (left.shape[0], right.shape[1])

    def matmat(self, X: np.ndarray) -> np.ndarray:
        # Structured pseudo-inverses are lazy products (e.g. (MᵀM)⁻Mᵀ for
        # marginals, (AᵀA)⁻¹Aᵀ for p-Identity); batched RECONSTRUCT applies
        # them to whole right-hand-side matrices, so the product must
        # propagate matmat instead of falling back to a column loop.
        return self.left.matmat(self.right.matmat(X))

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        return self.right.rmatmat(self.left.rmatmat(Y))

    def transpose(self) -> Matrix:
        return _Product(self.right.T, self.left.T)

    def dense(self) -> np.ndarray:
        return self.left.dense() @ self.right.dense()
