"""Summed-area accelerator tables: the O(1) read path over cached x̂.

A "free" span hit still costs a structured matvec against the cached
reconstruction (~0.25 ms on the benchmark domain), which caps
single-dataset read throughput at a few thousand QPS.  This module makes
the hit path independent of the domain size for the queries that
dominate real traffic — axis-aligned boxes and everything built from
them (ranges, prefixes, marginal cells, totals, bucketizations, unions
and weighted/negated combinations thereof):

* :class:`AcceleratorTable` folds x̂ into its domain-shaped cube and
  computes the inclusive prefix-sum (summed-area) table — one
  ``np.cumsum`` sweep per dimension.  Any box sum over ``k`` axes is
  then the 2^k-corner inclusion–exclusion identity::

      sum(x[lo:hi+1, ...]) = Σ_{c ∈ {0,1}^k} (-1)^(k-|c|) P[c ? hi+1 : lo]

  and a whole workload (every cell of a marginal, every prefix, a batch
  of 100k ranges) is a single vectorized gather on precomputed
  corner-index arrays — one ``take`` + one small matmul + one
  ``bincount`` for the entire batch, instead of one matvec per query.

* :class:`RangeSpec` is the compile-time eligibility tag: a flattened
  term list ``(row, coeff, lo, hi)`` meaning query row ``row`` includes
  the box ``[lo, hi]`` scaled by ``coeff``.  :func:`range_spec_of`
  derives it *structurally* from the implicit matrix — Kronecker factors
  pattern-match to their box decompositions (``Identity``/``Ones``/
  ``Prefix``/``AllRange``/``WidthRange``), dense factor rows decompose
  into maximal constant-value runs (an interval row is one run, a
  negated interval two, a bucketization one per bucket), ``Weighted``
  scales, ``VStack`` concatenates.  Anything that does not decompose
  (hash-like rows, wavelets, more runs than
  :data:`MAX_BOXES_PER_ROW` per factor row) returns ``None`` and falls
  through to the span-projection matvec path unchanged.

* :func:`strategy_spans_everything` is the structural full-column-rank
  certificate that lets the engine skip the per-query span projection
  entirely: a strategy containing a scaled identity block (every
  p-Identity product, every marginals strategy with a positive
  full-contingency weight) or a union with a union Gram solver spans
  *every* query, so membership needs no linear algebra at all.

Tables are float64, built lazily on first eligible hit, invalidated with
their reconstruction, and persisted through
:meth:`~repro.service.registry.StrategyRegistry.put_table` under the
PR 6 durability contracts (atomic write, sha256 in the manifest,
quarantine-and-rebuild from x̂ on corruption — never a crash).

Exactness: the table path evaluates the same sums as ``Q @ x̂`` in a
different association order.  For exactly-representable data (integer
counts below 2^53 — every contingency table) both orders are exact, so
accelerator answers are *bit-identical* to the matvec path; for already-
noised float x̂ they agree to machine precision.
"""

from __future__ import annotations

import hashlib
import logging
from itertools import product as _iproduct

import numpy as np

from ..core.solvers import union_gram_solver
from ..linalg import (
    AllRange,
    Dense,
    Diagonal,
    Identity,
    Kronecker,
    Matrix,
    Ones,
    Prefix,
    VStack,
    Weighted,
)
from ..linalg.structured import Permuted, WidthRange
from ..obs.events import emit as _emit

__all__ = [
    "AcceleratorTable",
    "RangeSpec",
    "range_spec_of",
    "strategy_spans_everything",
    "table_key",
    "load_table",
    "store_table",
]

logger = logging.getLogger(__name__)

#: A dense factor row decomposing into more constant-value runs than this
#: is not worth gathering — at that point the summed-area evaluation does
#: as many memory touches as the matvec it replaces.
MAX_BOXES_PER_ROW = 16

#: Hard cap on the flattened term count of one spec (gather width is
#: ``terms x 2^k``); beyond it the batch is served by the matvec path.
MAX_TERMS = 1 << 21

#: Largest ``rows x cols`` an *unrecognized* factor may have before the
#: derivation refuses to densify it for run decomposition.
MAX_DENSE_FACTOR_CELLS = 1 << 22

#: Largest domain for which :func:`strategy_spans_everything` falls back
#: to a numeric rank computation when no structural rule applies.
NUMERIC_RANK_LIMIT = 512

_SPEC_KEY = "accel_range_spec"
_SPAN_KEY = "accel_full_span"
_INELIGIBLE = "ineligible"  # memo sentinel: derivation ran, found nothing


class RangeSpec:
    """A workload as a flat list of scaled axis-aligned boxes.

    ``row_idx[t]``, ``coeff[t]``, ``lo[t]``, ``hi[t]`` say that output
    row ``row_idx[t]`` accumulates ``coeff[t]`` times the box sum over
    the inclusive corner pair ``lo[t] .. hi[t]`` of the domain cube
    ``shape``.  The corner-index arrays of the inclusion–exclusion
    gather are precomputed lazily (they depend only on the spec, not the
    table) and cached on the instance, so a reused compiled query pays
    the derivation once.
    """

    __slots__ = (
        "shape", "rows", "row_idx", "coeff", "lo", "hi",
        "one_box_per_row", "_corner_idx", "_signs",
    )

    def __init__(self, shape, rows, row_idx, coeff, lo, hi):
        self.shape = tuple(int(s) for s in shape)
        self.rows = int(rows)
        self.row_idx = np.ascontiguousarray(row_idx, dtype=np.intp)
        self.coeff = np.ascontiguousarray(coeff, dtype=np.float64)
        d = len(self.shape)
        self.lo = np.ascontiguousarray(lo, dtype=np.int64).reshape(-1, d)
        self.hi = np.ascontiguousarray(hi, dtype=np.int64).reshape(-1, d)
        # The common fast case — every row is exactly one box in row
        # order (ranges, prefixes, marginals) — skips the bincount.
        self.one_box_per_row = self.row_idx.size == self.rows and bool(
            np.array_equal(self.row_idx, np.arange(self.rows))
        )
        self._corner_idx = None
        self._signs = None

    @property
    def terms(self) -> int:
        return self.row_idx.size

    def gather_plan(self) -> tuple[np.ndarray, np.ndarray]:
        """``(corner_idx, signs)`` of the inclusion–exclusion gather.

        ``corner_idx`` is ``(terms, 2^d)`` flat indices into the padded
        table; ``signs`` the ±1 weights.  Sum over each row of
        ``table.flat[corner_idx] @ signs`` is the box sum.
        """
        if self._corner_idx is None:
            d = len(self.shape)
            padded = np.asarray([s + 1 for s in self.shape], dtype=np.int64)
            strides = np.ones(d, dtype=np.int64)
            for j in range(d - 2, -1, -1):
                strides[j] = strides[j + 1] * padded[j + 1]
            hi1 = self.hi + 1
            ncorners = 1 << d
            idx = np.empty((self.row_idx.size, ncorners), dtype=np.int64)
            signs = np.empty(ncorners)
            for c in range(ncorners):
                bits = np.array(
                    [(c >> j) & 1 for j in range(d)], dtype=bool
                )
                pick = np.where(bits[None, :], hi1, self.lo)
                idx[:, c] = pick @ strides
                signs[c] = -1.0 if (d - int(bits.sum())) % 2 else 1.0
            self._corner_idx = idx
            self._signs = signs
        return self._corner_idx, self._signs

    def scaled(self, weight: float) -> "RangeSpec":
        return RangeSpec(
            self.shape, self.rows, self.row_idx,
            self.coeff * float(weight), self.lo, self.hi,
        )

    def __repr__(self) -> str:
        return (
            f"RangeSpec(shape={self.shape}, rows={self.rows}, "
            f"terms={self.terms})"
        )


def _concat_specs(specs: list[RangeSpec]) -> RangeSpec:
    shape = specs[0].shape
    offsets = np.cumsum([0] + [s.rows for s in specs[:-1]])
    return RangeSpec(
        shape,
        sum(s.rows for s in specs),
        np.concatenate([s.row_idx + off for s, off in zip(specs, offsets)]),
        np.concatenate([s.coeff for s in specs]),
        np.concatenate([s.lo for s in specs], axis=0),
        np.concatenate([s.hi for s in specs], axis=0),
    )


# -- per-factor box decompositions ----------------------------------------


def _dense_factor_terms(arr: np.ndarray):
    """Decompose each row into maximal runs of constant nonzero value.

    An interval indicator is one run, its negation at most two, a
    bucketization one run per bucket.  A row with more than
    :data:`MAX_BOXES_PER_ROW` runs makes the whole factor ineligible —
    the gather would no longer beat the matvec.
    """
    rows, coeffs, los, his = [], [], [], []
    for r, v in enumerate(arr):
        cuts = np.flatnonzero(np.diff(v)) + 1
        bounds = np.concatenate([[0], cuts, [v.size]])
        count = 0
        for s, e in zip(bounds[:-1], bounds[1:]):
            val = v[s]
            if val == 0.0:
                continue
            count += 1
            if count > MAX_BOXES_PER_ROW:
                return None
            rows.append(r)
            coeffs.append(val)
            los.append(s)
            his.append(e - 1)
    return (
        np.asarray(rows, dtype=np.intp),
        np.asarray(coeffs, dtype=np.float64),
        np.asarray(los, dtype=np.int64),
        np.asarray(his, dtype=np.int64),
    )


def _factor_terms(f: Matrix):
    """``(m, n, row, coeff, lo, hi)`` box terms of one Kronecker factor,
    or ``None`` when the factor has no bounded box decomposition."""
    m, n = f.shape
    if isinstance(f, Weighted):
        base = _factor_terms(f.base)
        if base is None:
            return None
        _, _, row, coeff, lo, hi = base
        return m, n, row, coeff * f.weight, lo, hi
    if isinstance(f, Identity):
        idx = np.arange(n)
        return m, n, idx.astype(np.intp), np.ones(n), idx, idx.copy()
    if isinstance(f, Ones):
        row = np.arange(m, dtype=np.intp)
        return (
            m, n, row, np.ones(m),
            np.zeros(m, dtype=np.int64),
            np.full(m, n - 1, dtype=np.int64),
        )
    if isinstance(f, Prefix):
        idx = np.arange(n)
        return (
            m, n, idx.astype(np.intp), np.ones(n),
            np.zeros(n, dtype=np.int64), idx,
        )
    if isinstance(f, AllRange):
        cnt = np.arange(n, 0, -1)
        lo = np.repeat(np.arange(n, dtype=np.int64), cnt)
        hi = np.concatenate(
            [np.arange(i, n, dtype=np.int64) for i in range(n)]
        )
        return m, n, np.arange(m, dtype=np.intp), np.ones(m), lo, hi
    if isinstance(f, WidthRange):
        lo = np.arange(m, dtype=np.int64)
        return (
            m, n, lo.astype(np.intp), np.ones(m), lo, lo + f.width - 1,
        )
    if isinstance(f, Dense) or m * n <= MAX_DENSE_FACTOR_CELLS:
        try:
            arr = f.dense()
        except Exception:
            return None
        terms = _dense_factor_terms(np.asarray(arr, dtype=np.float64))
        if terms is None:
            return None
        return (m, n) + terms
    return None


def _kron_spec(factors: list[Matrix]) -> RangeSpec | None:
    """Cross the per-factor box terms: a Kronecker row is the product of
    one row per factor, so its boxes are all combinations of the
    per-factor boxes (row-major row order, coefficients multiplied)."""
    per = []
    total_terms = 1
    for f in factors:
        t = _factor_terms(f)
        if t is None:
            return None
        per.append(t)
        total_terms *= t[2].size
        if total_terms > MAX_TERMS:
            return None
    d = len(per)
    shape = tuple(t[1] for t in per)
    rows = 1
    for t in per:
        rows *= t[0]
    if total_terms == 0:
        return RangeSpec(
            shape, rows,
            np.empty(0, dtype=np.intp), np.empty(0),
            np.empty((0, d), dtype=np.int64), np.empty((0, d), dtype=np.int64),
        )
    grids = np.meshgrid(
        *[np.arange(t[2].size) for t in per], indexing="ij"
    )
    flat = [g.reshape(-1) for g in grids]
    row_idx = np.zeros(total_terms, dtype=np.intp)
    coeff = np.ones(total_terms)
    lo = np.empty((total_terms, d), dtype=np.int64)
    hi = np.empty((total_terms, d), dtype=np.int64)
    for j, (m_j, _n_j, row_j, coeff_j, lo_j, hi_j) in enumerate(per):
        row_idx = row_idx * m_j + row_j[flat[j]]
        coeff = coeff * coeff_j[flat[j]]
        lo[:, j] = lo_j[flat[j]]
        hi[:, j] = hi_j[flat[j]]
    return RangeSpec(shape, rows, row_idx, coeff, lo, hi)


def _derive_spec(Q: Matrix) -> RangeSpec | None:
    if isinstance(Q, Weighted):
        base = _derive_spec(Q.base)
        return None if base is None else base.scaled(Q.weight)
    if isinstance(Q, VStack):
        specs = []
        for b in Q.blocks:
            s = _derive_spec(b)
            if s is None or (specs and s.shape != specs[0].shape):
                return None
            specs.append(s)
        if sum(s.terms for s in specs) > MAX_TERMS:
            return None
        return _concat_specs(specs)
    if isinstance(Q, Kronecker):
        return _kron_spec(Q.factors)
    # Single-axis queries (ad-hoc rows, structured 1-D workloads) index
    # the flat domain: their table is the 1-D prefix sum over x̂.
    t = _factor_terms(Q)
    if t is None:
        return None
    m, n, row, coeff, lo, hi = t
    if row.size > MAX_TERMS:
        return None
    return RangeSpec((n,), m, row, coeff, lo[:, None], hi[:, None])


def range_spec_of(Q: Matrix) -> RangeSpec | None:
    """The accelerator eligibility tag of a query matrix, memoized on the
    instance: its :class:`RangeSpec` when every row decomposes into a
    bounded number of axis-aligned boxes, else ``None`` (the query stays
    on the span-projection matvec path)."""
    memo = Q.cache_get(_SPEC_KEY)
    if memo is not None:
        return None if memo is _INELIGIBLE else memo
    spec = _derive_spec(Q)
    Q.cache_set(_SPEC_KEY, _INELIGIBLE if spec is None else spec)
    return spec


# -- full-span certificate -------------------------------------------------


def _full_column_rank(A: Matrix) -> bool:
    if isinstance(A, (Identity, Prefix, AllRange)):
        return True
    if isinstance(A, Diagonal):
        return bool(np.all(A.d != 0))
    if isinstance(A, Ones):
        return A.shape[1] == 1
    if isinstance(A, Weighted):
        return A.weight != 0 and _full_column_rank(A.base)
    if isinstance(A, Permuted):
        return _full_column_rank(A.base)
    if isinstance(A, Kronecker):
        return all(_full_column_rank(f) for f in A.factors)
    if isinstance(A, VStack):
        # A union Gram solver exists only when its pair's Gram is
        # positive definite, and then so is AᵀA.
        if any(_full_column_rank(b) for b in A.blocks) or (
            union_gram_solver(A) is not None
        ):
            return True
    from ..linalg.marginals import MarginalsStrategy
    if isinstance(A, MarginalsStrategy):
        # theta[-1] weights the full-contingency marginal — a scaled
        # Identity block over the whole domain.
        return bool(A.theta[-1] > 0)
    from ..optimize.opt0 import PIdentity
    if isinstance(A, PIdentity):
        return True  # identity block over the column scales
    m, n = A.shape
    if m < n:
        return False
    if n <= NUMERIC_RANK_LIMIT:
        # One-time (memoized) numeric fallback for small unrecognized
        # strategies.
        try:
            return int(np.linalg.matrix_rank(A.dense())) == n
        except Exception:
            return False
    return False


def strategy_spans_everything(A: Matrix) -> bool:
    """Structural certificate that ``rowspace(A)`` is all of R^n.

    A full-column-rank strategy answers *every* linear query from its
    reconstruction, so a certified strategy lets the hit path skip the
    per-query span projection (the dominant cost of a cache hit) and
    serve straight from the accelerator table.  Sound but not complete:
    ``False`` only means the engine falls back to the projection test.
    """
    cached = A.cache_get(_SPAN_KEY)
    if cached is None:
        cached = _full_column_rank(A)
        A.cache_set(_SPAN_KEY, cached)
    return bool(cached)


# -- the table -------------------------------------------------------------


class AcceleratorTable:
    """The inclusive summed-area table of one cached reconstruction.

    ``flat`` is the zero-padded cumulative cube flattened C-order: entry
    ``P[i1, ..., id]`` (padded shape ``n_j + 1``) is the sum of
    ``x̂`` over cells ``[0, i1) x ... x [0, id)``, so a box sum is the
    2^d-corner alternating sum and a whole workload is one gather.
    """

    __slots__ = ("shape", "flat")

    def __init__(self, x_hat: np.ndarray, shape):
        shape = tuple(int(s) for s in shape)
        cube = np.asarray(x_hat, dtype=np.float64).reshape(shape)
        for axis in range(cube.ndim):
            cube = np.cumsum(cube, axis=axis)
        padded = np.zeros(tuple(s + 1 for s in shape))
        padded[tuple(slice(1, None) for _ in shape)] = cube
        self.shape = shape
        self.flat = padded.reshape(-1)

    @classmethod
    def from_flat(cls, flat: np.ndarray, shape) -> "AcceleratorTable":
        """Rewrap a persisted table without recomputing the prefix sums."""
        self = object.__new__(cls)
        self.shape = tuple(int(s) for s in shape)
        self.flat = np.ascontiguousarray(flat, dtype=np.float64).reshape(-1)
        expected = 1
        for s in self.shape:
            expected *= s + 1
        if self.flat.size != expected:
            raise ValueError(
                f"table has {self.flat.size} entries, padded shape "
                f"{self.shape} needs {expected}"
            )
        return self

    @property
    def nbytes(self) -> int:
        return int(self.flat.nbytes)

    def answer(self, spec: RangeSpec) -> np.ndarray:
        """Evaluate every row of ``spec`` in one vectorized gather."""
        if spec.shape != self.shape:
            raise ValueError(
                f"spec over cube {spec.shape} cannot read a table over "
                f"{self.shape}"
            )
        corner_idx, signs = spec.gather_plan()
        box_sums = self.flat.take(corner_idx) @ signs
        if spec.one_box_per_row:
            return spec.coeff * box_sums
        return np.bincount(
            spec.row_idx,
            weights=spec.coeff * box_sums,
            minlength=spec.rows,
        )


# -- persistence (PR 6 durability contracts) -------------------------------


def _x_digest(x_hat: np.ndarray) -> np.ndarray:
    """The reconstruction's content hash, as an npz-storable array."""
    digest = hashlib.sha256(
        np.ascontiguousarray(x_hat, dtype=np.float64).tobytes()
    ).digest()
    return np.frombuffer(digest, dtype=np.uint8)


def table_key(dataset: str, recon_key: str, shape) -> str:
    """The registry key one (dataset, reconstruction, cube shape) table
    is persisted under."""
    ident = f"{dataset}|{recon_key}|{','.join(str(int(s)) for s in shape)}"
    return "accel-" + hashlib.sha256(ident.encode()).hexdigest()[:32]


def load_table(registry, dataset: str, recon, shape) -> "AcceleratorTable | None":
    """A persisted table for this exact reconstruction, or ``None``.

    Checksum failures and torn files were already quarantined by the
    registry; a stale table (persisted for an older x̂ of the same
    strategy) is simply ignored — the caller rebuilds and overwrites.
    """
    arrays = registry.get_table(table_key(dataset, recon.key, shape))
    if arrays is None:
        return None
    try:
        if tuple(int(s) for s in arrays["shape"]) != tuple(
            int(s) for s in shape
        ):
            return None
        if not np.array_equal(arrays["x_digest"], _x_digest(recon.x_hat)):
            return None  # stale: the reconstruction was re-measured
        return AcceleratorTable.from_flat(arrays["table"], shape)
    except (KeyError, ValueError):
        return None


def store_table(registry, dataset: str, recon, shape, table: AcceleratorTable) -> None:
    """Best-effort persistence: serving must survive a read-only registry."""
    try:
        registry.put_table(
            table_key(dataset, recon.key, shape),
            {
                "table": table.flat,
                "shape": np.asarray(table.shape, dtype=np.int64),
                "x_digest": _x_digest(recon.x_hat),
            },
            meta={
                "dataset": dataset,
                "strategy_key": recon.key,
                "shape": [int(s) for s in table.shape],
            },
        )
    except OSError as e:
        _emit(
            logger,
            "accelerator.persist_failed",
            dataset=dataset,
            key=recon.key,
            reason=str(e),
        )
