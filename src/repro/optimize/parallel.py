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
* **Executors** — one process-wide
  :class:`~concurrent.futures.ProcessPoolExecutor` and a per-call
  :class:`~concurrent.futures.ThreadPoolExecutor`, with a transparent
  fallback to threads when the task or its payload cannot be pickled.
  ``executor="auto"`` picks processes whenever more than one CPU is
  usable, at any domain size: an OPT_0 restart spends much of its time
  holding the GIL (the loss-and-gradient kernel's small BLAS calls, the
  Python loop around L-BFGS-B), so on a 2-CPU host two threads run Paper
  Table 3 fits slower than one (≈0.75×).  With one usable CPU there is
  no parallelism to gain and ``auto`` stays on threads.  Workers inherit
  the parent's BLAS thread count: run with a single-threaded BLAS
  (``OPENBLAS_NUM_THREADS=1`` and friends) when fanning out, or the
  workers' BLAS threads oversubscribe the CPUs.
* **The process pool's lifetime** — the pool is made on the first
  process-executor call, never at import, and is reused by every later
  call with the same key ``(os.getpid(), fn, workers)``.  At most one
  pool is live: a call with another key shuts the old pool down,
  joining its workers, before it forks new ones, and a forked child
  never sees its parent's pool.  Workers see module state as of their
  start (their fork, under ``fork``, Linux's default before Python
  3.14), so a task function or module global swapped in later reaches
  the workers only through a change of key (a new task function).
  Concurrent callers share the pool; a lock keeps any caller from
  submitting to a pool another thread is shutting down.  A worker that
  dies during a call fails that call with
  :class:`~concurrent.futures.process.BrokenProcessPool` and its pool is
  dropped, so the next call forks fresh workers; a pool found broken at
  submit (a worker died while it sat idle) is replaced once and the call
  runs on the new workers.  The workers are joined when the parent
  exits normally (a ``multiprocessing`` child included), and each exits
  on its own within about :data:`PARENT_POLL_S` seconds when the pool's
  owner dies, under every start method (a watchdog thread, started by
  the pool's initializer, polls ``getppid`` and the owner's end of the
  worker's start pipe).  On a 2-vCPU
  x86-64 host with a single-threaded BLAS, two workers on a reused pool
  fit the Paper Table 3 configs of ``perfbench``'s ``cold_fit`` (two
  restarts each) 1.1–1.5× faster than sequential (per-config medians of
  15 fits, summed; four runs), and ``cold_fit``'s ``p50_ms`` reads
  about 16% below a pool made per call (medians of ten alternating
  pairs).
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

import multiprocessing
import os
import pickle
import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import util as mp_util
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


#: Seconds between a pool worker's checks that its parent is alive.
PARENT_POLL_S = 0.25


def _exit_with_parent() -> None:
    """Pool-worker initializer: exit once the process that owns the pool
    is gone.

    A worker blocked on its call queue never sees its owner die (it
    holds both ends of the queue's pipe), so a daemon thread polls two
    signs of the death: the worker's parent changes (it is reparented),
    or the owner's end of the pipe it started the worker through is
    closed (:func:`multiprocessing.parent_process`'s sentinel).  The
    first holds under ``fork`` and ``spawn``, where the parent is the
    owner; the second under ``forkserver``, where the parent is the fork
    server, which lives on while the workers hold its pipe.
    ``PR_SET_PDEATHSIG`` would not do: it fires when the forking
    *thread* exits, and the first submit may come from a short-lived
    server thread.
    """
    parent = os.getppid()
    owner = multiprocessing.parent_process()

    def watch():
        while os.getppid() == parent and owner.is_alive():
            time.sleep(PARENT_POLL_S)
        os._exit(0)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


# The process-wide pool, ``(key, executor)``, the lock that guards it, and
# the pid that registered the exit hook.
_pool: tuple[tuple, ProcessPoolExecutor] | None = None
_pool_lock = threading.Lock()
_exit_hook_pid: int | None = None
#: Executors a forked child inherited from its parent (see _forget_pool).
_inherited: list[ProcessPoolExecutor] = []

#: Above the priority (10) of multiprocessing's own queue finalizers, so
#: that the pool's call queue still feeds its workers their stop signal.
_EXIT_PRIORITY = 20


def _forget_pool() -> None:
    """After a fork, in the child: set the parent's pool aside, new lock.

    Both matter for a fork taken while another thread of the parent is
    inside the pool (submitting, or shutting it down): the child's
    copies of that thread's locks, :data:`_pool_lock` and the inherited
    executor's own, stay held forever.  So the child gets a fresh lock
    and never touches the inherited executor, whose manager thread did
    not survive the fork and whose queues feed the parent's workers.  It
    is kept in :data:`_inherited` rather than dropped: collecting it
    would run its weakref callback, which takes the executor's lock.
    """
    global _pool, _pool_lock
    if _pool is not None:
        _inherited.append(_pool[1])
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _shutdown_pool() -> None:
    """Join the pool's workers.  Runs at exit: a ``multiprocessing`` child
    joins its live children before the hook that would stop the pool, so
    without this a fit inside such a child hangs its exit."""
    global _pool
    with _pool_lock:
        if _pool is not None:
            _pool[1].shutdown(wait=True)
            _pool = None


def _submit(key: tuple, fn: Callable[[Any], Any], payloads: Sequence[Any]):
    """Submit ``payloads`` to the pool for ``key``, made or replaced as
    needed; returns the pool and the result iterator.  Caller holds
    ``_pool_lock``."""
    global _pool, _exit_hook_pid
    if _pool is not None and _pool[0] != key:
        _pool[1].shutdown(wait=True)
        _pool = None
    if _pool is None:
        if _exit_hook_pid != os.getpid():
            mp_util.Finalize(None, _shutdown_pool, exitpriority=_EXIT_PRIORITY)
            _exit_hook_pid = os.getpid()
        _pool = key, ProcessPoolExecutor(
            max_workers=key[2], initializer=_exit_with_parent
        )
    return _pool[1], _pool[1].map(fn, payloads)


def _run_on_pool(fn: Callable[[Any], Any], payloads: Sequence[Any], workers: int):
    """``fn`` over ``payloads`` on the process-wide pool for this key."""
    global _pool
    key = (os.getpid(), fn, workers)
    with _pool_lock:
        try:
            pool, results = _submit(key, fn, payloads)
        except BrokenProcessPool:
            # A worker died while the pool sat idle: the pool refuses the
            # submit before any task of this call runs, so fork fresh
            # workers once and submit again.
            _pool[1].shutdown(wait=True)
            _pool = None
            pool, results = _submit(key, fn, payloads)
    try:
        return list(results)
    except BrokenProcessPool:
        with _pool_lock:
            if _pool is not None and _pool[1] is pool:
                _pool = None
        pool.shutdown(wait=True)
        raise


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

    Processes come from one long-lived pool of ``workers`` processes,
    reused while the key ``(os.getpid(), fn, workers)`` stays the same
    and replaced, after its workers are joined, when it changes (see the
    module docstring).  The workers see module state as of their fork:
    a global set, or a function patched, after the pool was made is not
    seen by ``fn`` in the workers until a call with another ``fn``
    replaces the pool.  A worker's death during this call fails it with
    ``BrokenProcessPool`` and the next call gets fresh workers; a death
    while the pool sat idle is repaired before this call submits.
    Workers exit when the parent exits or dies.  Threads get a fresh
    pool per call.
    """
    workers = resolve_workers(workers)
    kind = resolve_executor(executor)
    if workers <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    # Probe one representative payload only — the optimizers build
    # homogeneous payload lists sharing the same workload object, so
    # serializing all of them up-front would double the pickling cost.
    if kind == "process" and _is_picklable(fn) and _is_picklable(payloads[0]):
        return _run_on_pool(fn, payloads, workers)
    with ThreadPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
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
