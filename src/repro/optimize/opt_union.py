"""OPT_+: union-of-products output strategies (paper Definition 11).

For workloads like ``(R x T) ∪ (T x R)`` a single product strategy forces
a suboptimal pairing of queries across attributes.  OPT_+ partitions the
workload's products into groups, runs OPT_⊗ on each group independently,
and returns the union (vertical stack) of the resulting product
strategies, each scaled by an equal share of the privacy budget so the
stacked strategy has sensitivity 1.
"""

from __future__ import annotations

import numpy as np

from ..linalg import Matrix, VStack, Weighted
from ..workload.logical import union_kron
from ..workload.util import as_union_of_products
from .opt0 import OptResult
from .opt_kron import opt_kron


def partition_products(W: Matrix, groups: int = 2) -> list[Matrix]:
    """The paper's ``g``: form groups from the unioned terms of W.

    Products are grouped by their *shape signature* — which attributes
    carry non-trivial (non-Total) predicate sets — so that structurally
    similar products share a strategy.  Signatures are bucketed into the
    requested number of groups round-robin by total query count.

    The partition is memoized on ``W`` (per group count): OPT_+ re-derives
    it on every restart, and reusing the same group *objects* lets their
    cached factor Grams and decompositions persist across restarts.
    """
    cache_key = f"partition_products_{groups}"
    cached = W.cache_get(cache_key)
    if cached is not None:
        return cached
    terms = as_union_of_products(W)
    signatures: dict[tuple, list] = {}
    for w, factors in terms:
        sig = tuple(f.shape[0] > 1 for f in factors)
        signatures.setdefault(sig, []).append((w, factors))

    buckets: list[list] = [[] for _ in range(min(groups, len(signatures)))]
    # Largest signature groups first, then round-robin for balance.
    ordered = sorted(signatures.values(), key=len, reverse=True)
    for idx, sig_terms in enumerate(ordered):
        buckets[idx % len(buckets)].extend(sig_terms)
    return W.cache_set(
        cache_key, [union_kron(bucket) for bucket in buckets if bucket]
    )


def _opt_group(payload) -> OptResult:
    """OPT_⊗ on one workload group (parallel engine task)."""
    part, ps, seed, kron_kwargs = payload
    return opt_kron(part, ps=ps, rng=seed, **kron_kwargs)


def opt_union(
    W: Matrix | list[Matrix],
    ps: list[int] | None = None,
    rng: np.random.Generator | int | None = None,
    groups: int = 2,
    workers: int | None = 1,
    executor: str = "auto",
    **kron_kwargs,
) -> OptResult:
    """OPT_+: optimize each workload group with OPT_⊗ and stack the results.

    Parameters
    ----------
    W:
        Either an implicit workload (partitioned automatically via
        :func:`partition_products`) or an explicit list of workload groups.
    groups:
        Number of groups when partitioning automatically (the paper's
        instantiation uses two).
    workers:
        Maximum concurrent group optimizations.  Group ``j`` always
        receives child seed ``j`` of the root ``rng``
        (``SeedSequence.spawn``), so the result is identical for every
        worker count given the same seed.

    Returns
    -------
    OptResult whose strategy is a :class:`VStack` of Weighted Kronecker
    products with total sensitivity 1, and whose ``loss`` is the
    budget-split error estimate ``l² Σ_j ‖W_j A_j⁺‖_F²``.
    """
    from .parallel import run_tasks, spawn_seeds

    parts = W if isinstance(W, list) else partition_products(W, groups)
    l = len(parts)
    seeds = spawn_seeds(rng, l)
    results = run_tasks(
        _opt_group,
        [(part, ps, seed, kron_kwargs) for part, seed in zip(parts, seeds)],
        workers=workers,
        executor=executor,
    )
    # Scale each sensitivity-1 block by 1/l so the stack has sensitivity 1;
    # group j is then answered with noise scale l, inflating its squared
    # error by l².
    strategy = VStack([Weighted(r.strategy, 1.0 / l) for r in results])
    loss = l**2 * sum(r.loss for r in results)
    return OptResult(strategy, loss)
