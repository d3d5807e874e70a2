"""OPT_⊗: strategy optimization for (unions of) product workloads
(paper Sections 6.1 and 6.2, Problems 3).

For a single product ``W = W1 ⊗ ... ⊗ Wd``, restricting to product
strategies decomposes the problem into d independent OPT_0 runs
(Theorem 5).  For a union of products, the objective couples the
attributes (Theorem 6)::

    ‖W A⁺‖_F² = Σ_j w_j² Π_i ‖Wᵢ⁽ʲ⁾ Aᵢ⁺‖_F²

and is minimized by block coordinate descent: holding all A_{i'≠i} fixed,
the sub-problem in A_i is an OPT_0 instance on the *surrogate workload*
with Gram ``Σ_j c_j² Gᵢ⁽ʲ⁾`` where ``c_j = w_j Π_{i'≠i} ‖Wᵢ'⁽ʲ⁾Aᵢ'⁺‖_F``
(paper Equation 6).
"""

from __future__ import annotations

import math

import numpy as np

from ..linalg import Kronecker, Matrix
from ..workload.util import as_union_of_products
from .opt0 import OptResult, opt_0


def _all_close(x: np.ndarray, y: float) -> bool:
    """``np.allclose(x, y)`` for a scalar ``y``, without its per-element
    boolean temporaries.

    allclose asks ``|x - y| <= atol + rtol·|y|`` with ``y`` finite, or
    ``x == y``.  For a finite ``y`` the second clause implies the first,
    and a NaN in ``x`` makes the maximum NaN, which fails the comparison.
    """
    if not np.isfinite(y):
        return bool((x == y).all())
    return bool(abs(x - y).max() <= 1e-8 + 1e-5 * abs(y))


def _total_identity_like(G: np.ndarray) -> bool:
    """Whether ``G`` is a scaled identity plus a scaled all-ones matrix: its
    diagonal close to ``G[0, 0]`` and its off-diagonal to ``G[0, 1]``,
    under ``np.allclose``'s default tolerances."""
    n = G.shape[0]
    diag = G.diagonal()
    if not _all_close(diag, diag[0]):
        return False
    if n == 1:
        return True
    off = G.copy()
    off.flat[:: n + 1] = G[0, 1]  # the diagonal is not off-diagonal
    return _all_close(off, G[0, 1])


#: Per-attribute parameter heuristic (Section 7.1): p=1 when the predicate
#: set is contained in Total ∪ Identity (extra strategy queries do not
#: help), else n/16.
def default_p(factor_grams: list[np.ndarray], n: int) -> int:
    """Choose p for one attribute from its workload factor Grams.

    A Gram that is a scaled identity plus a scaled all-ones matrix
    corresponds to predicate sets within Total ∪ Identity, for which p=1
    suffices; otherwise use the paper's n/16 heuristic.
    """
    if n < 32:
        return 1  # n // 16 <= 1: the Grams cannot change the answer
    for G in factor_grams:
        if not _total_identity_like(G):
            return n // 16
    return 1


def _factor_grams(W: Matrix) -> tuple[list[float], list[list[np.ndarray]]]:
    """Decompose an implicit workload into weights and dense factor Grams.

    Returns ``(weights, grams)`` with ``grams[j][i]`` the Gram of factor i
    of product j.  Identical factors are cached by id to avoid recomputing
    (marginal workloads share Identity/Total factors heavily).
    """
    terms = as_union_of_products(W)
    cache: dict[int, np.ndarray] = {}
    weights, grams = [], []
    for w, factors in terms:
        row = []
        for f in factors:
            key = id(f)
            if key not in cache:
                cache[key] = f.gram().dense()
            row.append(cache[key])
        weights.append(w)
        grams.append(row)
    return weights, grams


def _opt_attribute(payload) -> OptResult:
    """One per-attribute OPT_0 sub-problem (parallel engine task)."""
    V, p, seed, maxiter = payload
    return opt_0(V, p=p, rng=seed, maxiter=maxiter)


def opt_kron(
    W: Matrix,
    ps: list[int] | None = None,
    rng: np.random.Generator | int | None = None,
    max_cycles: int = 10,
    rtol: float = 1e-4,
    maxiter: int = 500,
    workers: int | None = 1,
    executor: str = "auto",
) -> OptResult:
    """OPT_⊗: optimize a product strategy for a (union of) product workload.

    Parameters
    ----------
    W:
        Implicit workload (Kronecker, Weighted, or VStack of them).
    ps:
        Per-attribute p parameters; defaults to the Section 7.1 heuristic.
    max_cycles:
        Maximum block-coordinate sweeps for union workloads (a single
        product needs exactly one sweep — the problems are independent).
    rtol:
        Relative objective improvement below which the sweep loop stops.
    workers:
        Maximum concurrent per-attribute OPT_0 sub-problems (Theorem 5
        makes them independent for a single product; the initialization
        pass of the union case is equally independent).  Attribute ``i``
        always receives child seed ``i`` of the root ``rng``
        (``SeedSequence.spawn``), so results are identical for every
        worker count given the same seed.

    Returns
    -------
    OptResult with a :class:`Kronecker` strategy of sensitivity 1 and
    ``loss = ‖W A⁺‖_F²``.
    """
    from .parallel import run_tasks, spawn_seeds

    weights, grams = _factor_grams(W)
    k = len(weights)
    d = len(grams[0])
    sizes = [grams[0][i].shape[0] for i in range(d)]
    if ps is None:
        ps = [default_p([grams[j][i] for j in range(k)], sizes[i]) for i in range(d)]
    if len(ps) != d:
        raise ValueError(f"expected {d} p parameters, got {len(ps)}")

    seeds = spawn_seeds(rng, d)

    if k == 1:
        # Theorem 5: independent per-attribute problems.
        results = run_tasks(
            _opt_attribute,
            [(grams[0][i], ps[i], seeds[i], maxiter) for i in range(d)],
            workers=workers,
            executor=executor,
        )
        loss = weights[0] ** 2 * math.prod(r.loss for r in results)
        return OptResult(Kronecker([r.strategy for r in results]), loss)

    # Union of products: block coordinate descent on the coupled objective.
    # Stack each attribute's k factor Grams once; every surrogate build and
    # loss update below is a single tensor contraction against the stack.
    stacked = [
        np.stack([grams[j][i] for j in range(k)]) for i in range(d)
    ]  # stacked[i]: (k, n_i, n_i)

    # Initialize each attribute by optimizing its unweighted average Gram
    # (independent problems — fanned out like the k == 1 case).
    init_results = run_tasks(
        _opt_attribute,
        [(stacked[i].mean(axis=0), ps[i], seeds[i], maxiter) for i in range(d)],
        workers=workers,
        executor=executor,
    )
    strategies = [r.strategy for r in init_results]
    losses = np.empty((k, d))  # losses[j][i] = tr[(AᵢᵀAᵢ)⁻¹ Gᵢ⁽ʲ⁾]
    for i in range(d):
        gi = strategies[i].gram_inverse()
        losses[:, i] = np.einsum("ij,kji->k", gi, stacked[i])

    w2 = np.asarray(weights) ** 2

    def objective() -> float:
        return float(np.sum(w2 * np.prod(losses, axis=1)))

    prev = objective()
    for _ in range(max_cycles):
        for i in range(d):
            # Surrogate Gram: Σ_j c_j² Gᵢ⁽ʲ⁾, c_j² = w_j² Π_{i'≠i} losses[j,i'].
            c2 = w2 * np.prod(np.delete(losses, i, axis=1), axis=1)
            surrogate = np.tensordot(c2, stacked[i], axes=1)
            # Normalize scale: argmin is invariant, but huge magnitudes
            # (products of per-attribute losses) destabilize L-BFGS.
            scale = np.abs(np.diag(surrogate)).max()
            if scale > 0:
                surrogate = surrogate / scale
            res = opt_0(
                surrogate,
                p=ps[i],
                rng=seeds[i],
                maxiter=maxiter,
                init=strategies[i].theta,
            )
            strategies[i] = res.strategy
            gi = strategies[i].gram_inverse()
            losses[:, i] = np.einsum("ij,kji->k", gi, stacked[i])
        cur = objective()
        if prev - cur <= rtol * max(prev, 1e-12):
            prev = cur
            break
        prev = cur

    # The all-Identity product strategy lies in the search space (Θ=0 per
    # attribute); never return a coupled local minimum that is worse.
    term_traces = np.stack(
        [np.trace(stacked[i], axis1=1, axis2=2) for i in range(d)], axis=1
    )  # (k, d)
    identity_obj = float(np.sum(w2 * np.prod(term_traces, axis=1)))
    if identity_obj < prev:
        from .opt0 import PIdentity

        strategies = [PIdentity(np.zeros((ps[i], sizes[i]))) for i in range(d)]
        prev = identity_obj
    return OptResult(Kronecker(strategies), prev)
