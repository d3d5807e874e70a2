"""Expected-error computation (paper Definition 7, Theorems 5 and 6).

For a workload ``W`` answered by the matrix mechanism with strategy ``A``
under ε-differential privacy, the expected total squared error is::

    Err(W, MM(A)) = (2/ε²) · ‖A‖₁² · ‖W A⁺‖_F²

This is data-independent, so strategies can be selected once per workload.
The Frobenius term is computed as ``tr[(AᵀA)⁺ (WᵀW)]``; this module
provides that computation with the structured fast paths HDMM relies on:

* Kronecker strategy + union-of-products workload → per-attribute
  decomposition (Theorem 6): ``Σ_j w_j² Π_i tr[(AᵢᵀAᵢ)⁺ Gᵢ⁽ʲ⁾]``;
* marginal strategy → the O(4^d) marginals algebra of Section 6.3;
* row selection ``S`` → ``‖W S⁺‖_F² = ‖W Sᵀ‖_F²``, the squared norms of
  the selected workload columns (``S⁺ = Sᵀ``, ``‖S‖₁ = 1``);
* union-of-Kronecker strategies → OPT_+'s budget-split surrogate (each
  block answers its own workload group on an equal budget share), not
  Definition 7: the service solves one least squares over the stack, and
  the surrogate overstated that served error by 1.17–2.0× in RMSE;
* anything else → dense ``tr[(AᵀA)⁺ V]`` via a Cholesky solve with a
  pseudo-inverse fallback.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np
from scipy import linalg as sla

from ..linalg import (
    Identity,
    Kronecker,
    MarginalsStrategy,
    Matrix,
    Selection,
    VStack,
    Weighted,
)
from ..workload.util import as_union_of_products

if TYPE_CHECKING:
    from .measure import Mechanism


def gram_inverse_trace(AtA: np.ndarray, V: np.ndarray) -> float:
    """``tr[(AᵀA)⁺ V]`` for dense Gram matrices.

    Uses a Cholesky solve when ``AᵀA`` is positive definite (the common
    case for strategies that support the workload) and falls back to the
    pseudo-inverse otherwise.
    """
    AtA = np.asarray(AtA, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    try:
        cho = sla.cho_factor(AtA, check_finite=False)
        return float(np.trace(sla.cho_solve(cho, V, check_finite=False)))
    except (np.linalg.LinAlgError, sla.LinAlgError, ValueError):
        return float(np.trace(np.linalg.pinv(AtA) @ V))


def gram_inverse_traces(AtA: np.ndarray, Vs: Sequence[np.ndarray]) -> list[float]:
    """``[tr[(AᵀA)⁺ V] for V in Vs]`` with one factorization of ``AᵀA``.

    Union-of-products error evaluation solves against the same strategy
    Gram for every workload term; factoring once and solving all
    right-hand sides in a single stacked triangular solve replaces
    ``len(Vs)`` Cholesky factorizations with one.
    """
    if not Vs:
        return []
    AtA = np.asarray(AtA, dtype=np.float64)
    n = AtA.shape[0]
    try:
        cho = sla.cho_factor(AtA, check_finite=False)
        sol = sla.cho_solve(
            cho, np.concatenate([np.asarray(V, dtype=np.float64) for V in Vs], axis=1),
            check_finite=False,
        )
        return [
            float(np.trace(sol[:, j * n : (j + 1) * n])) for j in range(len(Vs))
        ]
    except (np.linalg.LinAlgError, sla.LinAlgError, ValueError):
        P = np.linalg.pinv(AtA)
        return [
            float(np.einsum("ij,ji->", P, np.asarray(V, dtype=np.float64)))
            for V in Vs
        ]


def supports(W: Matrix, A: Matrix, tol: float = 1e-8) -> bool:
    """Check the support condition ``W A⁺ A = W`` (dense; tests/small N)."""
    Wd = W.dense()
    Ad = A.dense()
    return bool(np.allclose(Wd @ np.linalg.pinv(Ad) @ Ad, Wd, atol=tol))


def _marginal_traces(factors, sizes) -> np.ndarray:
    """Vector δ with δ_a = Π_i [sum(Gᵢ) if aᵢ=0 else tr(Gᵢ)] for one product.

    These are the per-subset statistics the OPT_M objective needs
    (Section 6.3: "the objective function only depends on W through the
    trace and sum of (WᵀW)ᵢ⁽ʲ⁾").
    """
    d = len(sizes)
    out = np.ones(1 << d)
    ks = np.arange(1 << d)
    for i, Wi in enumerate(factors):
        G = Wi.gram()
        tr, sm = G.trace(), G.sum()
        bit = (ks >> (d - 1 - i)) & 1
        out *= np.where(bit == 1, tr, sm)
    return out


def workload_marginal_traces(W: Matrix) -> np.ndarray:
    """δ vector for a union-of-products workload: Σ_j w_j² δ⁽ʲ⁾.

    Memoized on ``W``: the vector depends only on the workload, yet OPT_M
    needs it on every restart.  Treat the result as read-only.
    """
    cached = W.cache_get("marginal_traces")
    if cached is not None:
        return cached
    terms = as_union_of_products(W)
    sizes = [f.shape[1] for f in terms[0][1]]
    delta = np.zeros(1 << len(sizes))
    for w, factors in terms:
        delta += w**2 * _marginal_traces(factors, sizes)
    return W.cache_set("marginal_traces", delta)


def squared_error(W: Matrix, A: Matrix) -> float:
    """``‖A‖₁² · ‖W A⁺‖_F²`` — expected total squared error at ε = √2.

    Dispatches on the strategy structure; see the module docstring (a
    union gets OPT_+'s budget-split surrogate, above its served error).
    Raises ``ValueError`` if the strategy cannot support the workload.
    """
    if isinstance(A, Weighted):
        # Scaling a strategy does not change its error (noise rescales).
        return squared_error(W, A.base)
    if isinstance(A, MarginalsStrategy):
        return _marginals_error(W, A)
    if isinstance(A, Kronecker):
        return _kron_error(W, A)
    if isinstance(A, Selection):
        return _selection_error(W, A)
    if isinstance(A, VStack):
        return _union_error(W, A)
    return _dense_error(W, A)


def expected_error(
    W: Matrix,
    A: Matrix,
    eps: float | np.ndarray = 1.0,
    mechanism: str | Mechanism = "laplace",
    delta: float | None = None,
) -> float | np.ndarray:
    """Expected total squared error at budget ε (vectorized over ε).

    One ``squared_error(W, A)`` scaled by the mechanism's
    :meth:`~repro.core.measure.Mechanism.error_at_budget`.  For the
    Laplace mechanism this is Definition 7 in full:
    ``(2/ε²) · ‖A‖₁² · ‖W A⁺‖_F²``.  Every structured ``squared_error``
    path is the per-measurement Laplace variance at ε = √2 (i.e.
    ``‖A‖₁²``) times an effective trace term ``‖W A⁺‖_F²``, so the
    Gaussian value is the same trace term scaled by the Gaussian
    per-measurement variance instead: ``σ(Δ₂, ε, δ)² · ‖W A⁺‖_F²``.  One
    strategy-error evaluation serves every ε and both mechanisms (a union
    is priced by the budget-split surrogate, above its served error).
    """
    # Imported here: measure → optimize → this module at import time.
    from .measure import get_mechanism

    mech = get_mechanism(mechanism, delta)
    return mech.error_at_budget(squared_error(W, A), A, eps)


def rootmse(
    W: Matrix,
    A: Matrix,
    eps: float | np.ndarray = 1.0,
    mechanism: str | Mechanism = "laplace",
    delta: float | None = None,
) -> float | np.ndarray:
    """Root mean squared error per workload query (vectorized over ε)."""
    out = np.sqrt(
        np.asarray(expected_error(W, A, eps, mechanism, delta)) / W.shape[0]
    )
    return float(out) if np.ndim(eps) == 0 else out


def error_ratio(W: Matrix, other: Matrix, baseline: Matrix) -> float:
    """``Ratio(W, K_other) = sqrt(Err_other / Err_baseline)`` (Section 8.1)."""
    return math.sqrt(squared_error(W, other) / squared_error(W, baseline))


# -- structured paths -------------------------------------------------------


def _kron_error(W: Matrix, A: Kronecker) -> float:
    """Theorem 6: single-product strategy against a union of products.

    Workload products share factor objects heavily (marginal workloads
    reuse the same Identity/Total factors across terms), so per attribute
    each *distinct* factor trace is computed once — and all of them with a
    single Cholesky factorization of the strategy factor's Gram.  An
    ``Identity`` strategy factor needs none: its trace is ``tr(Gᵢ)``.
    """
    terms = as_union_of_products(W)
    d = len(A.factors)
    if any(len(factors) != d for _, factors in terms):
        raise ValueError("workload and strategy have different attribute counts")
    sens2 = A.sensitivity() ** 2
    traces: list[dict[int, float]] = []
    for i, Ai in enumerate(A.factors):
        distinct: dict[int, Matrix] = {}
        for _, factors in terms:
            distinct.setdefault(id(factors[i]), factors[i])
        grams = [f.gram().dense() for f in distinct.values()]
        if isinstance(Ai, Identity):
            vals = [float(np.trace(G)) for G in grams]
        else:
            vals = gram_inverse_traces(Ai.gram().dense(), grams)
        traces.append(dict(zip(distinct.keys(), vals)))
    total = 0.0
    for w, factors in terms:
        prod = w**2
        for i, Wi in enumerate(factors):
            prod *= traces[i][id(Wi)]
        total += prod
    return sens2 * total


def _marginals_error(W: Matrix, A: MarginalsStrategy) -> float:
    """Section 6.3: ``(Σθ)² · tr[G(v) WᵀW]`` via the marginals algebra."""
    from ..linalg.marginals import get_algebra

    alg = get_algebra(A.sizes)
    delta = workload_marginal_traces(W)
    u = A.theta**2
    if A.theta[-1] > 0:
        v = alg.ginv_weights(u)
    else:
        # tr[G⁻ WᵀW] is invariant over generalized inverses whenever the
        # strategy supports the workload, so the g-inverse suffices here.
        v = alg.ginv_weights_general(u)
    return float(A.theta.sum() ** 2 * float(delta @ v))


def _selection_error(W: Matrix, A: Selection) -> float:
    """``‖A‖₁² · ‖W Sᵀ‖_F²`` from ``S Wᵀ``, as wide as W is tall."""
    SWt = A.matmat(W.rmatmat(np.eye(W.shape[0])))
    return A.sensitivity() ** 2 * float(np.sum(SWt * SWt))


def _union_error(W: Matrix, A: VStack) -> float:
    """Budget-split estimate for union strategies (paper Definition 11).

    Requires the workload to be partitioned into as many groups as the
    strategy has blocks (OPT_+ guarantees this: block j was optimized for
    group j).  When the block count does not match the workload terms,
    groups are inferred by assigning each workload product to the block
    with least error on it.
    """
    from ..workload.logical import union_kron

    blocks = A.blocks
    l = len(blocks)
    # The per-term sub-workload matrices are memoized on W so repeated
    # error evaluations (one per OPT_+ candidate per restart) reuse them —
    # and, transitively, every cached factor Gram they carry.
    subs = W.cache_get("union_error_terms")
    if subs is None:
        terms = as_union_of_products(W)
        subs = W.cache_set(
            "union_error_terms",
            [union_kron([(w, factors)]) for w, factors in terms],
        )
    total = 0.0
    for sub in subs:
        total += min(squared_error(sub, B) for B in blocks)
    # Equal budget split: each block gets ε/l, inflating error by l².
    return l**2 * total


def _dense_error(W: Matrix, A: Matrix) -> float:
    """Generic fallback: dense ``‖A‖₁² tr[(AᵀA)⁺ WᵀW]`` with support check."""
    AtA = A.gram().dense()
    V = W.gram().dense()
    sens2 = A.sensitivity() ** 2
    val = gram_inverse_trace(AtA, V)
    # A negative or wildly small trace signals numerical failure; the
    # support condition is checked cheaply via the residual of the
    # projected workload gram.
    if val < 0:
        raise ValueError("numerically invalid error (strategy may not support W)")
    return sens2 * val


def coherent_stack_error(
    W: Matrix,
    A: Matrix,
    probes: int = 32,
    rng: np.random.Generator | int | None = None,
    dense_limit: int = 8192,
    tol: float = 1e-8,
) -> float:
    """Exact error for a *jointly measured* stacked strategy.

    Unlike the budget-split estimate used for OPT_+ selection, a stacked
    strategy such as QuadTree or a weighted hierarchy is measured as one
    sensitivity-normalized matrix and reconstructed by least squares, so
    its error is the plain Definition 7 value ``‖A‖₁² tr[(AᵀA)⁻¹ WᵀW]``.
    For domains up to ``dense_limit`` the trace is computed densely; above
    that it is estimated by Hutchinson probing with conjugate-gradient
    solves, which only needs mat-vec products with the implicit Grams.
    """
    n = A.shape[1]
    if n <= dense_limit:
        return _dense_error(W, A)

    from scipy.sparse.linalg import LinearOperator, cg

    sens2 = A.sensitivity() ** 2
    AtA = A.gram()
    WtW = W.gram()
    op = LinearOperator((n, n), matvec=AtA.matvec, dtype=np.float64)
    rng = np.random.default_rng(rng)
    total = 0.0
    for _ in range(probes):
        z = rng.choice([-1.0, 1.0], size=n)  # Rademacher probe
        rhs = WtW.matvec(z)
        sol, info = cg(op, rhs, rtol=tol, maxiter=10 * n)
        if info != 0:
            raise RuntimeError(f"CG failed to converge (info={info})")
        total += float(z @ sol)
    return sens2 * total / probes


def laplace_mechanism_error(W: Matrix) -> float:
    """Expected total squared error of the Laplace Mechanism at ε = √2.

    LM answers every workload query directly with noise scaled to the
    workload's own sensitivity: ``Err = m · ‖W‖₁²`` (times 2/ε²).
    """
    m = W.shape[0]
    return float(m) * W.sensitivity() ** 2
