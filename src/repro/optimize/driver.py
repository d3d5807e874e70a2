"""OPT_HDMM: the fully-automated strategy selection of paper Section 7.1
(Algorithm 2).

Runs a set of optimization operators — by default OPT_⊗ on the whole
workload, OPT_+ on a two-group partition, and OPT_M — across multiple
random restarts, keeping the strategy with least expected error.  The
Identity strategy seeds the search as a universally-supported fallback, so
the returned strategy never does worse than Identity.

Strategy selection is independent of the input data and consumes no
privacy budget (the workload is public).

The (restart, operator) cells run in parallel, and their submission order
differs from their reduction order.  Cells are submitted costliest
operator first (OPT_+, then OPT_⊗ and other operators, then OPT_M), so
that no long cell starts last while other workers idle.  The results are
then reduced in the canonical (restart, operator) order, with ties going
to the first cell in that order; submission order cannot change the
returned strategy.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from ..linalg import Identity, Kronecker, Matrix
from ..workload.util import as_union_of_products, attribute_sizes
from .opt0 import OptResult
from .opt_kron import opt_kron
from .opt_marginals import opt_marginals
from .opt_union import opt_union

Operator = Callable[[Matrix, np.random.Generator], OptResult]

#: Practical limit on marginal-space size for OPT_M (O(4^d) per iteration).
_MAX_MARGINAL_DIMS = 14


def identity_result(W: Matrix) -> OptResult:
    """The Identity strategy and its error — Algorithm 2's initial best."""
    from ..core.error import squared_error

    sizes = attribute_sizes(W)
    strategy = Kronecker([Identity(n) for n in sizes])
    return OptResult(strategy, squared_error(W, strategy))


def _op_kron(W: Matrix, rng) -> OptResult:
    return opt_kron(W, rng=rng)


def _op_union(W: Matrix, rng) -> OptResult:
    return opt_union(W, rng=rng, groups=2)


def _op_marginals(W: Matrix, rng) -> OptResult:
    return opt_marginals(W, rng=rng)


#: Submission rank of the default operators, costliest first: OPT_+ runs
#: one OPT_⊗ per group, and OPT_M's O(4^d) iterations do not grow with the
#: domain.  Any other operator ranks between them.
_SUBMIT_RANK = {_op_union: 0, _op_marginals: 2}


def default_operators(W: Matrix) -> list[tuple[str, Operator]]:
    """The operator set P used by the paper's instantiation of OPT_HDMM.

    The entries are module-level functions (not closures) so the whole
    operator set can be shipped to worker *processes* by the parallel
    engine; user-supplied operator sets may still be arbitrary callables
    (the engine falls back to threads for anything unpicklable).
    """
    terms = as_union_of_products(W)
    d = len(terms[0][1])
    ops: list[tuple[str, Operator]] = [("OPT_kron", _op_kron)]
    if len(terms) > 1:
        ops.append(("OPT_union", _op_union))
    if d <= _MAX_MARGINAL_DIMS:
        ops.append(("OPT_marginals", _op_marginals))
    return ops


def _run_operator(payload) -> OptResult:
    """One (restart, operator) cell of Algorithm 2's loop (engine task)."""
    W, op, seed = payload
    return op(W, np.random.default_rng(seed))


def opt_hdmm(
    W: Matrix,
    restarts: int = 25,
    rng: np.random.Generator | int | None = None,
    operators: Sequence[tuple[str, Operator]] | None = None,
    verbose: bool = False,
    workers: int | None = 1,
    executor: str = "auto",
) -> OptResult:
    """Algorithm 2: multi-restart, multi-operator strategy selection.

    Parameters
    ----------
    W:
        Implicit workload (union of Kronecker products).
    restarts:
        Maximum random restarts S.  The paper uses 25 but observes the
        local-minima distribution is concentrated and far fewer suffice.
    operators:
        Optional override of the operator set; each entry is
        ``(name, fn(W, rng) -> OptResult)``.
    workers:
        Maximum concurrent ``(restart, operator)`` cells.  Determinism
        contract: restart ``s`` owns child ``s`` of the root seed, and
        operator ``o`` within it owns child ``o`` of that child
        (``SeedSequence.spawn`` both times), so every cell's randomness is
        fixed by ``rng`` alone — the returned strategy and loss are
        bit-identical for every worker count, executor choice, and
        completion order.  The reduction picks the minimum valid loss with
        ties broken by (restart, operator) order, whatever order the cells
        were submitted in (costliest operator first).  On processes the
        cells run on the long-lived pool of
        :func:`repro.optimize.parallel.run_tasks`, made by the first fit
        and reused by every later fit with the same ``workers``: workers
        are forked once per change of pool key, not once per fit, and see
        module state as of that fork.
    executor:
        ``"auto"`` (processes when more than one CPU is usable, threads
        otherwise — see :func:`repro.optimize.parallel.resolve_executor`),
        ``"thread"``, or ``"process"`` (requires picklable operators;
        falls back to threads otherwise).

    Returns
    -------
    The best :class:`OptResult` found; ``loss`` is the expected squared
    error at sensitivity 1 (``‖A‖₁²·‖WA⁺‖_F²``).
    """
    from .parallel import best_index, run_tasks, spawn_seeds

    if operators is None:
        operators = default_operators(W)

    best = identity_result(W)
    if verbose:
        print(f"Identity baseline: {best.loss:.6g}")

    # One seed per (restart, operator) cell, spawned by index so the
    # assignment is independent of scheduling.
    tasks = []
    labels = []
    for s, restart_seed in enumerate(spawn_seeds(rng, restarts)):
        op_seeds = restart_seed.spawn(len(operators))
        for (name, op), seed in zip(operators, op_seeds):
            tasks.append((W, op, seed))
            labels.append((s, name))
    # Submit the costliest cells first, so that a long OPT_+ cell does not
    # start last while the other workers idle.  The sort is stable, so
    # cells of equal rank keep their (restart, operator) order.  Results
    # are put back in that order, which alone decides the reduction.
    order = sorted(
        range(len(tasks)), key=lambda i: _SUBMIT_RANK.get(tasks[i][1], 1)
    )
    done = run_tasks(
        _run_operator,
        [tasks[i] for i in order],
        workers=workers,
        executor=executor,
    )
    results = [None] * len(tasks)
    for i, result in zip(order, done):
        results[i] = result

    if verbose:
        for (s, name), result in zip(labels, results):
            print(f"restart {s} {name}: {result.loss:.6g}")
    idx = best_index(
        [r.loss for r in results],
        valid=lambda loss: bool(np.isfinite(loss) and loss > 0),
    )
    if idx is not None and results[idx].loss < best.loss:
        best = results[idx]
    return OptResult(best.strategy, best.loss, restarts)
