"""Deterministic parallel execution engine for multi-restart optimization.

Algorithm 2 (and each operator inside it) runs many *independent* random
restarts; this module provides the machinery that fans them out across
workers without giving up reproducibility:

* **Seed spawning** — every restart draws its randomness from its own
  child of one root :class:`numpy.random.SeedSequence`
  (``root.spawn(n)``), assigned *by restart index*.  The restart → seed
  mapping therefore depends only on the caller's ``rng`` argument and the
  number of restarts, never on how many workers execute them or in which
  order they finish: ``workers=1`` and ``workers=8`` produce bit-identical
  losses for the same seed.
* **Executors** — a :class:`~concurrent.futures.ProcessPoolExecutor`
  path and a :class:`~concurrent.futures.ThreadPoolExecutor` path, with a
  transparent fallback to threads when the task or its payload cannot be
  pickled.  ``executor="auto"`` picks processes whenever more than one
  CPU is usable, at any domain size: an OPT_0 restart spends much of its
  time holding the GIL (the loss-and-gradient kernel's small BLAS calls,
  the Python loop around L-BFGS-B), so on a 2-CPU host two threads run
  Paper Table 3 fits slower than one (≈0.75×), while two processes run
  them ≈1.3× faster than sequential even after fork and pickling, with a
  single-threaded BLAS.  With one usable CPU there is
  no parallelism to gain and ``auto`` stays on threads.  Workers inherit
  the parent's BLAS thread count: run with a single-threaded BLAS
  (``OPENBLAS_NUM_THREADS=1`` and friends) when fanning out, or the
  workers' BLAS threads oversubscribe the CPUs.
* **Reduction** — :func:`reduce_best` picks the minimum-loss result, with
  ties broken by the lowest task index, so the winner is deterministic
  even when several restarts reach the same optimum.
* **Submission order versus reduction order** — :func:`run_tasks`
  submits payloads in the order given and returns results in that same
  order.  A caller that wants its costliest tasks to start first permutes
  the payloads and puts the results back in canonical order before it
  reduces them, as :func:`repro.optimize.driver.opt_hdmm` does; the
  reduction, and so the result, never sees the submission order.
"""

from __future__ import annotations

import os
import pickle
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any

import numpy as np

__all__ = [
    "best_index",
    "reduce_best",
    "resolve_executor",
    "resolve_workers",
    "run_tasks",
    "spawn_generators",
    "spawn_seeds",
]


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one, the host's CPU count elsewhere)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return max(1, os.cpu_count() or 1)


def resolve_executor(executor: str) -> str:
    """Resolve an ``executor`` argument to ``"thread"`` or ``"process"``.

    ``"auto"`` picks the process pool when more than one CPU is usable
    (see :func:`_usable_cpus`) and threads otherwise: on a single CPU,
    processes add fork and pickling cost with no parallelism to gain.
    """
    if executor not in ("auto", "thread", "process"):
        raise ValueError(f"unknown executor {executor!r}")
    if executor != "auto":
        return executor
    return "process" if _usable_cpus() > 1 else "thread"


def resolve_workers(workers: int | None) -> int:
    """Normalize a ``workers`` argument to a positive worker count.

    ``None``, ``0`` and ``1`` mean sequential execution; any negative
    value means "one worker per usable CPU".
    """
    if workers is None or workers == 0:
        return 1
    if workers < 0:
        return _usable_cpus()
    return int(workers)


def _seed_sequence(rng) -> np.random.SeedSequence:
    """Recover a :class:`~numpy.random.SeedSequence` from any rng argument.

    Accepts the same values the optimizers accept for ``rng``: ``None``
    (fresh OS entropy), an integer seed, a ``SeedSequence``, or a
    ``Generator``.  A Generator contributes entropy by *drawing from its
    current stream* (advancing it), not by reusing the sequence it was
    created from: two generators built from the same seed still spawn
    identical children, but repeated optimizer calls sharing one
    generator keep getting fresh randomness — matching the pre-engine
    behaviour of consuming the shared stream (e.g. Monte-Carlo loops that
    reuse one Generator across trials).
    """
    if isinstance(rng, np.random.SeedSequence):
        return rng
    if isinstance(rng, np.random.Generator):
        return np.random.SeedSequence(
            entropy=[int(w) for w in rng.integers(0, 2**32, size=4)]
        )
    return np.random.SeedSequence(rng)


def spawn_seeds(rng, n: int) -> list[np.random.SeedSequence]:
    """``n`` independent child seeds of ``rng``, one per restart index.

    Child ``i`` is always the same for a given root seed — the foundation
    of the ``workers``-independence contract.
    """
    return list(_seed_sequence(rng).spawn(n))


def spawn_generators(rng, n: int) -> list[np.random.Generator]:
    """``n`` independent Generators spawned from ``rng`` (see spawn_seeds)."""
    return [np.random.default_rng(seed) for seed in spawn_seeds(rng, n)]


def _is_picklable(obj) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


def run_tasks(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    workers: int | None = 1,
    executor: str = "auto",
) -> list[Any]:
    """Run ``fn`` over ``payloads``, returning results in payload order.

    Parameters
    ----------
    fn:
        Single-argument task function.  Must be a module-level function
        with picklable payloads for the process executor; anything
        callable works with threads.
    workers:
        Maximum concurrent tasks; ``<= 1`` runs sequentially in order.
    executor:
        ``"auto"`` (processes when more than one CPU is usable, threads
        otherwise — see :func:`resolve_executor`), ``"thread"``, or
        ``"process"``.  A process pool request silently falls back to
        threads when ``fn`` or a payload cannot be pickled, so callers
        may always pass user-supplied closures.

    Payloads are submitted in the order given; results are collected per
    payload index, so the output order (and any reduction over it) is
    independent of completion order.
    """
    workers = resolve_workers(workers)
    kind = resolve_executor(executor)
    if workers <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    # Probe one representative payload only — the optimizers build
    # homogeneous payload lists sharing the same workload object, so
    # serializing all of them up-front would double the pickling cost.
    if kind == "process" and _is_picklable(fn) and _is_picklable(payloads[0]):
        pool_cls = ProcessPoolExecutor
    else:
        pool_cls = ThreadPoolExecutor
    with pool_cls(max_workers=min(workers, len(payloads))) as pool:
        return list(pool.map(fn, payloads))


def best_index(
    losses: Sequence[float], valid: Callable[[float], bool] | None = None
) -> int | None:
    """Index of the smallest valid loss; ties go to the lowest index.

    Returns ``None`` when no loss is valid.  ``valid`` defaults to
    ``np.isfinite``.
    """
    if valid is None:
        valid = np.isfinite
    best = None
    for i, loss in enumerate(losses):
        if not valid(loss):
            continue
        if best is None or loss < losses[best]:
            best = i
    return best


def reduce_best(
    results: Sequence[Any],
    loss: Callable[[Any], float],
    valid: Callable[[float], bool] | None = None,
) -> Any | None:
    """The result with the smallest valid loss (first index wins ties)."""
    idx = best_index([loss(r) for r in results], valid=valid)
    return None if idx is None else results[idx]
