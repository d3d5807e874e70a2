"""Performance regression benchmark for the optimization engine.

Times the two hot paths this repo's perf engine accelerates and records a
machine-readable trajectory in ``BENCH_PERF.json`` so future PRs can
regress against it:

* ``opt_hdmm`` on a Table-3-style multi-attribute workload (Adult 2-way
  marginals — five attributes, 190 union terms), timing the engine at
  ``workers=1`` and ``workers=4``.  The two must return equal losses for
  the same seed (the determinism contract).
* ``kmatmat`` — Algorithm 1 with a trailing batch axis — applying a
  3-factor Kronecker product to a 64-column right-hand side at n = 4096,
  against the seed's per-column ``kmatvec`` loop (what ``Matrix.matmat``
  did before Kronecker gained a batched override).
* **serving** (PR 2) — a batched 20-trial x 5-ε sweep on a
  union-of-Kronecker strategy (``HDMM.run_batch``: one measurement
  mat-vec, spawned per-trial noise, the structured two-term union Gram
  inverse / batched CG, batched workload answering) against the
  *seed-equivalent single-shot loop*: per-trial ``laplace_measure`` +
  cold LSMR + ``answer_workload``, the code path the seed commit served
  unions with.  Also records the post-PR single-shot loop (same solver,
  one trial at a time) and the determinism contract: ``exact=True``
  batched answers must be **bit-identical** to that loop at the same
  spawned seeds.

* **service** (PR 3) — the strategy registry and query service: a cold
  ``QueryService.prepare`` (fit + persist) vs a warm one (fingerprint
  lookup + npz load with the solver factorization attached) on a fresh
  process-equivalent, plus the latency of a zero-budget ad-hoc query
  served from the cached reconstruction.  The recorded
  ``warm_load_speedup`` is the amortization the registry buys every
  process after the first.

* **serving_multiblock** (PR 4) — the L ≥ 3 union Gram solver: an
  SF-1-style ``opt_union(groups=4)`` strategy over a ≥ 4096 domain
  served through a 20-trial x 5-ε sweep, comparing plain CG (from
  scratch per column) against the auto path (dominant-pair
  preconditioned CG, one cold solve per ε block).  Records iteration
  counts with and without the preconditioner, the LSMR cross-check
  deviation, and the ``exact=True`` contract: the batched sweep is
  bit-identical to the sequential single-shot loop.

* **accelerator** (PR 7) — the O(1) read path: a summed-area table over
  the cached reconstruction answers axis-aligned range queries by
  2^k-corner gathers instead of span-projection + matvec.  Records the
  single-free-hit latency (gather core and end-to-end ``query()``) vs
  the pre-PR per-hit span projection, the batched range-answer rate of
  the vectorized corner gather (target ≥ 100k answers/s), and the
  amortized costs the route pays once per reconstruction: table build,
  persist, and checksummed reload.

* **observability** (PR 8) — the telemetry tax: the instrumented
  free-hit serve with metrics and tracing *disabled* vs a replica of the
  uninstrumented hit loop (must stay within 3%), plus the recorded price
  of enabling the full span tree + labelled counters per request, and
  structural checks that an enabled batch yields a complete trace and
  exact ``service.answers_total`` counts.

* **server** (PR 9) — the resilient HTTP front-end: per-request latency
  of the free path through the full asyncio stack (p50/p99 over
  keep-alive), free-hit throughput with HTTP/1.1 pipelining on one
  socket (target ≥ 10k requests/s), measured-path latency, and the
  shed behavior under 2x overload — every refused request must be a
  structured 429/503 with ``Retry-After``, and the admitted ones must
  all complete.

* **mechanisms** (PR 10) — the mechanism subsystem: Gaussian vs Laplace
  serving the same strategy at equal per-release budget — analytic
  ``rootmse`` predictions next to empirical trial RMSE for both (the
  predictions must stay calibrated), the noise-scale ratio σ/b behind
  the gap, and the accounting tax of the full zCDP fold (ε, δ, ρ
  accumulated per debit, policy-checked) vs the pure-ε sum — whose ε
  axis must stay **bit-identical** between the two folds.

* **durability** (PR 6) — the crash-consistency tax: per-debit overhead
  of the fsync'd write-ahead ε-ledger vs the in-memory accountant,
  replay rate of :meth:`PrivacyAccountant.recover` (with a torn-tail
  truncation check), and the share of a warm registry load now spent on
  the SHA-256 checksum verify.  The smoke test replays a ledger on every
  tier-1 run so recovery cannot silently rot.

Run directly for the paper-style report; ``--quick`` shrinks restarts and
repetitions for smoke runs (and regresses the serving speedup against the
previously recorded ``BENCH_PERF.json``); ``--json`` controls the output
path.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np

try:
    from .common import Timer, print_table
except ImportError:
    from common import Timer, print_table

from repro.data import adult_domain
from repro.linalg import (
    Dense,
    Identity,
    Prefix,
    Total,
    kmatmat,
    kmatvec,
)
from repro.optimize import opt_hdmm
from repro.workload import k_way_marginals

DEFAULT_JSON = os.path.join(os.path.dirname(os.path.dirname(__file__)), "BENCH_PERF.json")


def _workload():
    """Fresh workload object per timing run so no memoized state leaks in."""
    return k_way_marginals(adult_domain(), 2)


def bench_opt_hdmm(restarts: int = 25, workers: int = 4, rng: int = 0) -> dict:
    """Engine at workers=1 vs workers=N: time and loss determinism."""
    with Timer() as t_w1:
        w1_res = opt_hdmm(_workload(), restarts=restarts, rng=rng, workers=1)
    with Timer() as t_w4:
        w4_res = opt_hdmm(_workload(), restarts=restarts, rng=rng, workers=workers)

    return {
        "workload": "adult-2way-marginals",
        "restarts": restarts,
        "workers": workers,
        "engine_workers1_seconds": round(t_w1.elapsed, 4),
        "engine_seconds": round(t_w4.elapsed, 4),
        "loss_workers1": w1_res.loss,
        "loss_workers4": w4_res.loss,
        "loss_deterministic": bool(w1_res.loss == w4_res.loss),
    }


def bench_kmatmat(batch: int = 64, reps: int = 7) -> dict:
    """Batched kmatmat vs the seed per-column kmatvec loop at n = 4096."""
    rng = np.random.default_rng(0)
    cases = {
        # Range-marginal-style product: the dominant Kronecker shape in
        # marginal reconstruction (rectangular Total + Identity factors).
        "prefix-identity-total": [Prefix(16), Identity(16), Total(16)],
        # Dense strategy-factor product (PIdentity-like leaves).
        "dense-cube": [Dense(rng.standard_normal((16, 16))) for _ in range(3)],
    }
    out: dict = {"n": 4096, "batch": batch, "factors": 3, "cases": {}}
    for name, factors in cases.items():
        n = int(np.prod([A.shape[1] for A in factors]))
        X = rng.standard_normal((n, batch))
        kmatmat(factors, X)  # warm-up
        t_batched = min(
            _timed(lambda: kmatmat(factors, X)) for _ in range(reps)
        )
        t_column = min(
            _timed(
                lambda: np.stack(
                    [kmatvec(factors, X[:, j]) for j in range(batch)], axis=1
                )
            )
            for _ in range(reps)
        )
        out["cases"][name] = {
            "kmatmat_seconds": round(t_batched, 6),
            "column_loop_seconds": round(t_column, 6),
            "speedup": round(t_column / t_batched, 2),
        }
    out["speedup"] = out["cases"]["prefix-identity-total"]["speedup"]
    return out


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def bench_serving(
    n: int = 64, trials: int = 20, n_eps: int = 5, rng: int = 7
) -> dict:
    """Batched MEASURE+RECONSTRUCT sweep vs the seed single-shot loop."""
    from scipy.sparse.linalg import LinearOperator, lsmr

    from repro.core import HDMM, answer_workload, laplace_measure
    from repro.optimize import opt_union
    from repro.optimize.parallel import spawn_seeds
    from repro.workload import range_total_union

    W = range_total_union(n)  # (R x T) ∪ (T x R): the paper's union case
    result = opt_union(W, rng=0)
    A = result.strategy
    mech = HDMM(restarts=1, rng=0)
    mech.workload, mech.strategy, mech.result = W, A, result

    x = np.random.default_rng(3).poisson(50, W.shape[1]).astype(float)
    eps_grid = np.logspace(-1, 1, n_eps)
    T = n_eps * trials
    seeds = spawn_seeds(rng, T)
    mech.run(x, 1.0, rng=0)  # warm the structural caches, as fit() leaves them

    # Seed-equivalent single-shot loop: per-trial measure + cold LSMR (the
    # seed's auto path for union strategies) + per-trial answering.
    op = LinearOperator(
        shape=A.shape, matvec=A.matvec, rmatvec=A.rmatvec, dtype=np.float64
    )
    with Timer() as t_seed:
        seed_answers = np.stack(
            [
                answer_workload(
                    W,
                    lsmr(
                        op,
                        laplace_measure(A, x, eps_grid[j // trials], rng=seeds[j]),
                        atol=1e-10,
                        btol=1e-10,
                    )[0],
                )
                for j in range(T)
            ]
        )

    # Post-PR single-shot loop: same structured solver, one trial at a time.
    with Timer() as t_loop:
        loop_answers = np.stack(
            [
                mech.run(x, eps_grid[j // trials], rng=seeds[j])
                for j in range(T)
            ]
        )

    with Timer() as t_batch:
        batch_answers = mech.run_batch(x, eps_grid, trials=trials, rng=rng)
    with Timer() as t_exact:
        exact_answers = mech.run_batch(
            x, eps_grid, trials=trials, rng=rng, exact=True
        )

    flat = batch_answers.reshape(T, -1)
    scale = float(np.max(np.abs(loop_answers)))
    return {
        "workload": f"range-total-union-{n}",
        "strategy": repr(A),
        "domain": A.shape[1],
        "trials": trials,
        "eps_grid": [round(float(e), 4) for e in eps_grid],
        "seed_loop_seconds": round(t_seed.elapsed, 4),
        "single_shot_loop_seconds": round(t_loop.elapsed, 4),
        "batch_seconds": round(t_batch.elapsed, 4),
        "batch_exact_seconds": round(t_exact.elapsed, 4),
        "speedup_vs_seed_loop": round(t_seed.elapsed / t_batch.elapsed, 2),
        "speedup_vs_single_shot_loop": round(
            t_loop.elapsed / t_batch.elapsed, 2
        ),
        "answers_bit_identical": bool(
            np.array_equal(exact_answers.reshape(T, -1), loop_answers)
        ),
        "batch_max_rel_dev_vs_loop": float(
            np.max(np.abs(flat - loop_answers)) / scale
        ),
        "batch_max_rel_dev_vs_seed_lsmr": float(
            np.max(np.abs(flat - seed_answers)) / scale
        ),
    }


def _multiblock_workload(n: int):
    """An SF-1-style union with four structural signatures over an n³
    domain: population total, a one-way identity margin, a trailing
    range margin, and a two-way tabulation — ``partition_products``
    groups them by signature, so ``opt_union(groups=4)`` yields a
    four-block union strategy (the L ≥ 3 shape ROADMAP left on the
    cold-CG path)."""
    from repro.linalg import AllRange, Identity, Kronecker, Ones, VStack

    I, T, R = Identity(n), Ones(1, n), AllRange(n)
    return VStack(
        [
            Kronecker([T, T, T]),
            Kronecker([I, T, T]),
            Kronecker([T, T, R]),
            Kronecker([I, I, T]),
        ]
    )


def bench_serving_multiblock(
    n: int = 16, trials: int = 20, n_eps: int = 5, rng: int = 11
) -> dict:
    """L ≥ 3 union serving: preconditioned path vs plain cold CG."""
    from scipy.sparse.linalg import LinearOperator, lsmr

    from repro.core import HDMM, answer_workload
    from repro.core.measure import laplace_measure_batch
    from repro.core.solvers import cg_gram_solve, union_eigenbasis
    from repro.optimize import opt_union
    from repro.optimize.parallel import spawn_seeds

    W = _multiblock_workload(n)
    result = opt_union(W, rng=0, groups=4)
    A = result.strategy
    assert len(A.blocks) == 4, "expected a 4-block union strategy"
    mech = HDMM(restarts=1, rng=0)
    mech.workload, mech.strategy, mech.result = W, A, result

    x = np.random.default_rng(3).poisson(50, W.shape[1]).astype(float)
    eps_grid = np.logspace(-1, 1, n_eps)
    T = n_eps * trials
    mech.run(x, 1.0, rng=0)  # warm Gram + preconditioner caches, as fit() leaves them

    # Iteration counts on one sweep's normal equations (same noise the
    # timed paths see: run_batch draws per-trial seeds the same way).
    Y = laplace_measure_batch(A, x, np.repeat(eps_grid, trials), rng=rng)
    B = A.rmatmat(Y)
    G = A.gram()
    iters_plain = int(cg_gram_solve(G, B).iterations.sum())
    iters_pre = int(cg_gram_solve(G, B, basis=union_eigenbasis(A)).iterations.sum())

    # Wall clock: plain CG from scratch per column vs the auto path
    # (preconditioned CG, one cold solve per ε block), on identical
    # measurements.
    with Timer() as t_cold:
        mech.run_batch(x, eps_grid, trials=trials, rng=rng, method="cg")
    with Timer() as t_fast:
        fast_answers = mech.run_batch(x, eps_grid, trials=trials, rng=rng)

    # Independent LSMR cross-check on the first trial of each ε block.
    op = LinearOperator(
        shape=A.shape, matvec=A.matvec, rmatvec=A.rmatvec, dtype=np.float64
    )
    fast_flat = fast_answers.reshape(T, -1)
    check_cols = [e * trials for e in range(n_eps)]
    lsmr_answers = np.stack(
        [
            answer_workload(
                W,
                lsmr(
                    op,
                    np.ascontiguousarray(Y[:, j]),
                    atol=1e-10,
                    btol=1e-10,
                )[0],
            )
            for j in check_cols
        ]
    )
    scale = float(np.max(np.abs(lsmr_answers)))
    dev_lsmr = float(
        np.max(np.abs(fast_flat[check_cols] - lsmr_answers)) / scale
    )

    # exact=True: the batched sweep is bit-identical to the sequential
    # single-shot loop at the spawned seeds.
    seeds = spawn_seeds(rng, T)
    loop = np.stack(
        [mech.run(x, eps_grid[j // trials], rng=seeds[j]) for j in range(T)]
    )
    exact = mech.run_batch(x, eps_grid, trials=trials, rng=rng, exact=True)
    bit_identical = bool(np.array_equal(exact.reshape(T, -1), loop))

    return {
        "workload": f"sf1-style-4sig-union-{n}^3",
        "strategy": repr(A),
        "domain": A.shape[1],
        "groups": 4,
        "trials": trials,
        "eps_grid": [round(float(e), 4) for e in eps_grid],
        "cg_cold_seconds": round(t_cold.elapsed, 4),
        "preconditioned_seconds": round(t_fast.elapsed, 4),
        "speedup_vs_cold_cg": round(t_cold.elapsed / t_fast.elapsed, 2),
        "iterations": {
            "plain_cg": iters_plain,
            "preconditioned": iters_pre,
        },
        "max_rel_dev_vs_lsmr": dev_lsmr,
        "answers_bit_identical": bit_identical,
    }


def _api_expressions(n_exprs: int):
    """A deterministic mixed batch of declarative expressions (with
    natural duplicates, as ad-hoc client traffic has): marginals over
    attribute pairs, CDF/range queries, filtered counts, and weighted
    unions, cycled up to ``n_exprs``."""
    import itertools

    from repro.api import A, marginal, prefix, ranges, total, union

    attrs = ["age", "income", "race", "sex"]
    patterns = []
    for a, b in itertools.combinations(attrs, 2):
        patterns.append(marginal(a, b))
    patterns += [prefix("age"), prefix("income"), ranges("race"), total()]
    for lo in range(6):
        patterns.append(A("age").between(lo, lo + 8) & A("sex").eq("F"))
        patterns.append(A("income").between(lo, lo + 1) & A("race").eq(lo % 4))
    patterns.append(union(marginal("age"), total(), weights=[1.0, 0.25]))
    patterns.append(0.5 * marginal("sex", "race"))
    return [patterns[i % len(patterns)] for i in range(n_exprs)]


def bench_api_planner(n_exprs: int = 512, restarts: int = 2) -> dict:
    """Declarative layer: compile+plan latency for a mixed expression
    batch, dedup factor, and the free-hit ratio once the one accounted
    measurement has warmed the reconstruction cache."""
    from repro.api import Schema, Session
    from repro.service import PrivacyAccountant

    schema = Schema.from_spec(
        {"age": 16, "income": 8, "race": 4, "sex": ["M", "F"]}
    )
    sess = Session(
        accountant=PrivacyAccountant(default_cap=100.0),
        restarts=restarts,
        rng=0,
    )
    x = np.random.default_rng(5).poisson(30, schema.domain.size()).astype(float)
    ds = sess.dataset("traffic", schema=schema, data=x, epsilon_cap=50.0)
    exprs = _api_expressions(n_exprs)

    from repro.api.planner import plan_queries

    svc = sess.service
    # The truly cold plan: first contact with this traffic — pays the
    # compile and the cold routing pass, nothing memoized yet.
    t_plan_cold = _timed(lambda: ds.plan(exprs, eps=1.0))
    plan_cold = ds.plan(exprs, eps=1.0)
    # Compile cost proper, on fresh expression objects so the dataset's
    # per-expression memo cannot answer for the compiler.
    with Timer() as t_compile:
        batch = ds.compile_many(_api_expressions(n_exprs))
    t_route_cold = min(
        _timed(lambda: plan_queries(svc, "traffic", batch, 1.0))
        for _ in range(3)
    )
    spent0 = sess.service.accountant.spent("traffic")
    with Timer() as t_warmup:
        ds.ask_many(exprs, eps=1.0, rng=7)
    actual_debit = sess.service.accountant.spent("traffic") - spent0

    # After warmup the whole batch must route through the cache for free,
    # and steady-state planning against a populated cache must not cost
    # more than the cold plan did: span probes and the per-group RMSE
    # estimate are memoized per fingerprint on the strategy, and
    # box-decomposable queries skip the span machinery entirely (PR 7
    # regression fix — the first warm pass pays the memo fills execution
    # would have paid anyway, so it is excluded by the min).
    t_plan_warm = min(_timed(lambda: ds.plan(exprs, eps=1.0)) for _ in range(3))
    plan_warm = ds.plan(exprs, eps=1.0)
    t_route_warm = min(
        _timed(lambda: plan_queries(svc, "traffic", batch, 1.0))
        for _ in range(3)
    )
    spent1 = sess.service.accountant.spent("traffic")
    with Timer() as t_serve_warm:
        ds.ask_many(exprs, eps=1.0, rng=8)
    free_spent = sess.service.accountant.spent("traffic") - spent1

    return {
        "schema": repr(schema),
        "domain": schema.domain.size(),
        "n_expressions": n_exprs,
        "n_distinct": len(batch.queries),
        "dedup_factor": round(n_exprs / len(batch.queries), 2),
        "compile_seconds": round(t_compile.elapsed, 4),
        "compile_ms_per_expr": round(t_compile.elapsed / n_exprs * 1e3, 4),
        "plan_cold_seconds": round(t_plan_cold, 4),
        "plan_warm_seconds": round(t_plan_warm, 4),
        "route_cold_seconds": round(t_route_cold, 6),
        "route_warm_seconds": round(t_route_warm, 6),
        "plan_warm_le_cold": bool(t_plan_warm <= t_plan_cold),
        "warmup_measure_seconds": round(t_warmup.elapsed, 4),
        "serve_warm_seconds": round(t_serve_warm.elapsed, 4),
        "plan_eps_estimate": plan_cold.total_epsilon,
        "actual_debit": actual_debit,
        "plan_matches_debit": bool(
            abs(plan_cold.total_epsilon - actual_debit) < 1e-12
        ),
        "free_hit_ratio_after_warmup": plan_warm.free_fraction,
        "free_spend_after_warmup": free_spent,
    }


def bench_service(n: int = 64, restarts: int = 5, query_reps: int = 50) -> dict:
    """Registry cold-fit vs warm-load, and free-query-hit latency."""
    import shutil
    import tempfile

    from repro.service import PrivacyAccountant, QueryService, StrategyRegistry
    from repro.workload import range_total_union

    root = tempfile.mkdtemp(prefix="repro-bench-registry-")
    try:
        W = range_total_union(n)
        x = np.random.default_rng(3).poisson(50, W.shape[1]).astype(float)

        cold_svc = QueryService(
            registry=StrategyRegistry(root), restarts=restarts, rng=0
        )
        with Timer() as t_cold:
            key, strategy, _, from_registry = cold_svc.prepare(W)
        assert not from_registry

        # A fresh service over the same directory — the restarted process.
        warm_svc = QueryService(
            registry=StrategyRegistry(root),
            accountant=PrivacyAccountant(default_cap=100.0),
            restarts=restarts,
            rng=0,
        )
        with Timer() as t_warm:
            _, _, _, from_registry = warm_svc.prepare(W)
        assert from_registry

        warm_svc.add_dataset("bench", x)
        warm_svc.measure("bench", W, eps=1.0, rng=7)
        q = np.zeros(W.shape[1])
        q[: n // 2] = 1.0
        # Wrap once: repeated ad-hoc traffic reuses the query object, so
        # the accelerator's range-spec memo and gather plan persist
        # across hits (a fresh ndarray per call would re-derive them).
        qm = Dense(q[None, :])
        hit = warm_svc.query("bench", qm)  # warm span/table caches
        with Timer() as t_query:
            for _ in range(query_reps):
                warm_svc.query("bench", qm)
        spent = warm_svc.accountant.spent("bench")

        return {
            "workload": f"range-total-union-{n}",
            "strategy": repr(strategy),
            "registry_key": key,
            "restarts": restarts,
            "cold_fit_seconds": round(t_cold.elapsed, 4),
            "warm_load_seconds": round(t_warm.elapsed, 6),
            "warm_load_speedup": round(t_cold.elapsed / t_warm.elapsed, 1),
            "free_query_hit_ms": round(t_query.elapsed / query_reps * 1e3, 4),
            "free_query_route": hit.route,
            "free_query_budget_spent": spent - 1.0,  # must stay at 0.0
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def bench_accelerator(
    shape: tuple = (32, 16, 8), reps: int = 200, build_reps: int = 5
) -> dict:
    """O(1) read path: summed-area gathers vs span-projection serving."""
    import shutil
    import tempfile

    from repro.linalg import AllRange, Identity, Kronecker, Ones, VStack
    from repro.service import (
        AcceleratorTable,
        QueryService,
        StrategyRegistry,
        range_spec_of,
    )
    from repro.service.accelerator import load_table
    from repro.service.engine import Reconstruction, in_measured_span

    root = tempfile.mkdtemp(prefix="repro-bench-accel-")
    try:
        n = int(np.prod(shape))
        x_hat = np.random.default_rng(9).poisson(40, n).astype(float)
        strategy = Kronecker([Identity(s) for s in shape])
        svc = QueryService(registry=StrategyRegistry(root), accountant=None)
        svc.add_dataset("bench", x_hat)
        recon = Reconstruction(key="k", strategy=strategy, x_hat=x_hat, eps=1.0)
        svc._datasets["bench"].reconstructions["k"] = recon

        # -- single free hit: one range count over the leading attribute.
        row = np.zeros(shape[0])
        row[shape[0] // 8 : shape[0] // 2] = 1.0
        ones = [Ones(1, s) for s in shape[1:]]
        q_single = Kronecker([Dense(row[None, :])] + ones)
        first = svc.query("bench", q_single)  # builds + persists the table
        assert first.route == "accelerator"
        want = np.asarray(q_single.matvec(x_hat)).reshape(-1)
        values_exact = bool(np.array_equal(first.values, want))

        spec = range_spec_of(q_single)
        table = svc._datasets["bench"].accel[("k", spec.shape)]
        with Timer() as t_gather:
            for _ in range(reps):
                table.answer(spec)
        with Timer() as t_query:
            for _ in range(reps):
                svc.query("bench", q_single)

        # Pre-PR per-hit cost: every free hit re-ran the measured-span
        # projection, then a matvec through the strategy's pseudoinverse
        # path.  Warm its solver caches once so the comparison is against
        # the steady state, as bench_service recorded it.
        in_measured_span(strategy, q_single)
        with Timer() as t_seed:
            for _ in range(reps):
                in_measured_span(strategy, q_single)
                np.asarray(q_single.matvec(x_hat)).reshape(-1)

        # -- batched serving: every 1-D range x marginal cell, plus the
        # full identity workload, answered by one vectorized gather.
        q_batch = VStack(
            [
                Kronecker([AllRange(shape[0])] + ones),
                Kronecker([Identity(s) for s in shape]),
            ]
        )
        bspec = range_spec_of(q_batch)
        assert bspec is not None
        table.answer(bspec)  # warm the gather plan
        batch_reps = max(1, reps // 10)
        with Timer() as t_batch:
            for _ in range(batch_reps):
                got = table.answer(bspec)
        batch_exact = bool(
            np.array_equal(got, np.asarray(q_batch.matvec(x_hat)).reshape(-1))
        )
        qps = bspec.rows * batch_reps / t_batch.elapsed

        # -- amortized per-reconstruction costs: build, persist, reload.
        t_build = min(
            _timed(lambda: AcceleratorTable(x_hat, shape))
            for _ in range(build_reps)
        )
        with Timer() as t_persist:
            from repro.service.accelerator import store_table

            store_table(svc.registry, "bench", recon, shape, table)
        t_load = min(
            _timed(lambda: load_table(svc.registry, "bench", recon, shape))
            for _ in range(build_reps)
        )
        loaded = load_table(svc.registry, "bench", recon, shape)
        reload_exact = bool(
            loaded is not None and np.array_equal(loaded.flat, table.flat)
        )

        seed_us = t_seed.elapsed / reps * 1e6
        gather_us = t_gather.elapsed / reps * 1e6
        return {
            "domain_shape": list(shape),
            "domain": n,
            "table_mb": round(table.nbytes / 2**20, 3),
            "single_hit_gather_us": round(gather_us, 3),
            "single_hit_query_us": round(t_query.elapsed / reps * 1e6, 2),
            "single_hit_seed_span_projection_us": round(seed_us, 2),
            "single_hit_speedup": round(seed_us / gather_us, 1),
            "single_hit_values_exact": values_exact,
            "batch_rows": bspec.rows,
            "batch_gather_seconds": round(t_batch.elapsed / batch_reps, 6),
            "batch_answers_per_sec": round(qps),
            "batch_values_exact": batch_exact,
            "table_build_seconds": round(t_build, 6),
            "table_persist_seconds": round(t_persist.elapsed, 6),
            "table_load_seconds": round(t_load, 6),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def bench_durability(
    n_debits: int = 500, n: int = 32, restarts: int = 2, reps: int = 5
) -> dict:
    """Durability tax: WAL debit overhead, recovery replay, checksum share."""
    import shutil
    import tempfile

    from repro.service import PrivacyAccountant, QueryService, StrategyRegistry
    from repro.service.registry import _file_sha256
    from repro.workload import range_total_union

    root = tempfile.mkdtemp(prefix="repro-bench-durability-")
    try:
        # Per-debit overhead: identical charge traffic against the plain
        # in-memory accountant and the WAL-backed one (every debit locks,
        # replays the tail, appends, and fsyncs before returning).
        amt = 1.0 / n_debits
        plain = PrivacyAccountant()
        plain.register("bench", 10.0)
        with Timer() as t_plain:
            for _ in range(n_debits):
                plain.charge("bench", amt)
        wal_path = os.path.join(root, "eps.wal")
        wal = PrivacyAccountant(wal_path=wal_path)
        wal.register("bench", 10.0)
        with Timer() as t_wal:
            for _ in range(n_debits):
                wal.charge("bench", amt)

        # Recovery replay rate, and the exact-state contract: the
        # replayed accountant must reproduce the writer's float sum and
        # ledger bit-for-bit.
        with Timer() as t_recover:
            recovered = PrivacyAccountant.recover(wal_path)
        state_exact = bool(
            recovered.spent("bench") == wal.spent("bench")
            and len(recovered.ledger) == len(wal.ledger)
        )
        with open(wal_path, "ab") as f:  # a crashed writer's torn tail
            f.write(b'{"kind":"debit","dataset":"bench","epsilon":9')
        torn_ok = bool(
            PrivacyAccountant.recover(wal_path).spent("bench")
            == wal.spent("bench")
        )

        # Warm registry load with the per-entry SHA-256 verify, and the
        # checksum's share of it.
        W = range_total_union(n)
        svc = QueryService(
            registry=StrategyRegistry(root), restarts=restarts, rng=0
        )
        key, _, _, from_registry = svc.prepare(W)
        assert not from_registry
        t_warm = min(
            _timed(lambda: StrategyRegistry(root).load(key))
            for _ in range(reps)
        )
        npz = os.path.join(root, f"{key}.npz")
        t_sum = min(_timed(lambda: _file_sha256(npz)) for _ in range(reps))

        return {
            "n_debits": n_debits,
            "plain_debit_us": round(t_plain.elapsed / n_debits * 1e6, 2),
            "wal_debit_us": round(t_wal.elapsed / n_debits * 1e6, 2),
            "wal_overhead_us_per_debit": round(
                (t_wal.elapsed - t_plain.elapsed) / n_debits * 1e6, 2
            ),
            "recovery_records": len(recovered.ledger) + 1,  # + register
            "recovery_seconds": round(t_recover.elapsed, 6),
            "recovery_records_per_sec": round(
                (len(recovered.ledger) + 1) / t_recover.elapsed
            ),
            "recovery_state_exact": state_exact,
            "torn_tail_truncated": torn_ok,
            "workload": f"range-total-union-{n}",
            "npz_bytes": os.path.getsize(npz),
            "warm_load_ms": round(t_warm * 1e3, 4),
            "checksum_ms": round(t_sum * 1e3, 4),
            "checksum_fraction_of_warm_load": round(t_sum / t_warm, 3),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def bench_mechanisms(
    n: int = 64,
    trials: int = 50,
    n_debits: int = 500,
    eps: float = 1.0,
    delta: float = 1e-6,
    rng: int = 13,
) -> dict:
    """Mechanism choice: Gaussian vs Laplace at equal budget, and the
    zCDP accounting fold's per-debit tax vs the pure-ε sum."""
    from repro.core import HDMM, GaussianMechanism, LaplaceMechanism, rootmse
    from repro.optimize import opt_union
    from repro.service import PrivacyAccountant
    from repro.workload import range_total_union

    W = range_total_union(n)
    result = opt_union(W, rng=0)
    A = result.strategy
    mech = HDMM(restarts=1, rng=0)
    mech.workload, mech.strategy, mech.result = W, A, result
    x = np.random.default_rng(3).poisson(50, W.shape[1]).astype(float)
    truth = np.asarray(W.matvec(x)).reshape(-1)
    mech.run(x, 1.0, rng=0)  # warm the structural caches, as fit() leaves them

    out: dict = {
        "workload": f"range-total-union-{n}",
        "strategy": repr(A),
        "domain": A.shape[1],
        "trials": trials,
        "eps": eps,
        "delta": delta,
    }
    # Same strategy, same data, same per-release ε, same spawned seeds —
    # only the noise mechanism differs.  The analytic rootmse (what the
    # planner's rmse(lap)/rmse(gauss) columns print) must predict the
    # empirical trial RMSE for both.
    mechanisms = {"laplace": LaplaceMechanism(), "gaussian": GaussianMechanism(delta)}
    for name, m in mechanisms.items():
        predicted = float(rootmse(W, A, eps, m))
        with Timer() as t:
            answers = mech.run_batch(x, eps, trials=trials, rng=rng, mechanism=m)
        flat = answers.reshape(trials, -1)
        empirical = float(np.sqrt(np.mean((flat - truth) ** 2)))
        out[name] = {
            "predicted_rmse": round(predicted, 4),
            "empirical_rmse": round(empirical, 4),
            "empirical_over_predicted": round(empirical / predicted, 4),
            "sweep_seconds": round(t.elapsed, 4),
        }
    out["noise_scale_ratio_gauss_vs_lap"] = round(
        float(mechanisms["gaussian"].noise_scale(A, eps))
        / float(mechanisms["laplace"].noise_scale(A, eps)),
        4,
    )
    out["rmse_ratio_gaussian_vs_laplace"] = round(
        out["gaussian"]["predicted_rmse"] / out["laplace"]["predicted_rmse"], 4
    )
    out["predictions_calibrated"] = bool(
        all(
            abs(out[k]["empirical_over_predicted"] - 1.0) < 0.25
            for k in ("laplace", "gaussian")
        )
    )

    # Accounting tax: identical debit traffic through the pure-ε fold
    # and the full zCDP fold (ε, δ, ρ accumulated per record, policy
    # checked on every debit).  The ε axis of both ledgers must come out
    # bit-identical — same `+` sequence, richer records alongside it.
    amt = eps / n_debits
    pure = PrivacyAccountant()
    pure.register("bench", 10.0)
    with Timer() as t_pure:
        for _ in range(n_debits):
            pure.charge("bench", amt)
    zcdp = PrivacyAccountant()
    zcdp.register("bench", 10.0)
    with Timer() as t_zcdp:
        for _ in range(n_debits):
            zcdp.charge("bench", amt, mechanism="gaussian", delta=delta)
    curve = zcdp.curve("bench")
    out["accounting"] = {
        "n_debits": n_debits,
        "pure_eps_debit_us": round(t_pure.elapsed / n_debits * 1e6, 2),
        "zcdp_debit_us": round(t_zcdp.elapsed / n_debits * 1e6, 2),
        "zcdp_overhead_us_per_debit": round(
            (t_zcdp.elapsed - t_pure.elapsed) / n_debits * 1e6, 2
        ),
        "eps_fold_identical": bool(
            zcdp.spent("bench") == pure.spent("bench")
        ),
        "delta_spent": curve.delta,
        "rho_spent": curve.rho,
    }
    return out


def bench_server(
    seq_reps: int = 200,
    pipeline_depth: int = 256,
    measured_reps: int = 10,
    overload_factor: int = 2,
) -> dict:
    """The HTTP front-end: free-path latency/throughput and overload sheds.

    Free-hit QPS is measured with HTTP/1.1 **pipelining** — the transport
    writes one response per request in request order on a keep-alive
    connection, so a client may send a burst of requests in one socket
    write and read the responses back to back, amortizing the syscall
    round-trips that dominate a request/response ping-pong.
    """
    import http.client
    import shutil
    import socket
    import statistics
    import tempfile
    import threading

    from repro.api import Schema, Session
    from repro.server.app import ServerApp
    from repro.server.http import serve_in_thread
    from repro.service import PrivacyAccountant
    from repro.util import faults

    def _new_app(extra_datasets=0, **kwargs):
        # Extra datasets share the schema and data: the strategy fit is
        # memoized per workload fingerprint across datasets, so a request
        # against a fresh dataset is a *warm measurement* — a real debit
        # and fresh noise with no fit — which is how the measured path is
        # exercised without the free path answering from coverage first.
        sess = Session(accountant=PrivacyAccountant(default_cap=1000.0))
        app = ServerApp(sess, **kwargs)
        schema = Schema.from_spec({"age": 32, "income": 16, "sex": ["M", "F"]})
        data = (
            np.random.default_rng(5)
            .poisson(30, schema.domain.shape())
            .astype(float)
        )
        app.register("adult", schema, data, epsilon_cap=1000.0)
        for i in range(extra_datasets):
            app.register(f"m{i}", schema, data, epsilon_cap=1000.0)
        return app

    def _post(conn, payload):
        conn.request(
            "POST", "/query", json.dumps(payload),
            {"Content-Type": "application/json"},
        )
        r = conn.getresponse()
        return r.status, dict(r.getheaders()), json.loads(r.read())

    free_q = {"dataset": "adult", "queries": [{"marginal": ["age"]}]}
    out: dict = {}

    root = tempfile.mkdtemp(prefix="repro-bench-server-")
    try:
        app = _new_app(extra_datasets=measured_reps)
        with serve_in_thread(app) as srv:
            conn = http.client.HTTPConnection(
                "127.0.0.1", srv.port, timeout=60
            )
            # One measurement primes the reconstruction + accelerator so
            # the benchmark query serves for free afterwards.
            status, _, warm = _post(
                conn, {**free_q, "eps": 1.0, "seed": 1, "timeout": 60.0}
            )
            assert status == 200 and warm["charged"] == 1.0

            # -- free-path latency over keep-alive, one request at a time.
            lat = []
            for _ in range(seq_reps):
                t0 = time.perf_counter()
                status, _, body = _post(conn, free_q)
                lat.append((time.perf_counter() - t0) * 1e3)
                assert status == 200 and body["charged"] == 0.0
            lat.sort()
            out["free_hit_p50_ms"] = round(statistics.median(lat), 4)
            out["free_hit_p99_ms"] = round(
                lat[min(len(lat) - 1, int(len(lat) * 0.99))], 4
            )

            # -- measured-path latency: each rep targets a fresh dataset
            # so the free path cannot answer from coverage — a genuine
            # warm measurement (fit memoized by the priming request
            # above) with a real WAL-less debit and fresh noise.
            mlat = []
            for i in range(measured_reps):
                t0 = time.perf_counter()
                status, _, body = _post(conn, {
                    "dataset": f"m{i}",
                    "queries": [{"marginal": ["age"]}],
                    "eps": 0.01, "seed": 100 + i, "timeout": 60.0,
                })
                mlat.append((time.perf_counter() - t0) * 1e3)
                assert status == 200 and body["charged"] == 0.01
            mlat.sort()
            out["measured_p50_ms"] = round(statistics.median(mlat), 4)
            out["measured_p99_ms"] = round(mlat[-1], 4)
            conn.close()

            # -- pipelined free-hit throughput: the whole burst in a few
            # socket writes, responses parsed back to back.
            req_body = json.dumps(free_q).encode()
            raw = (
                b"POST /query HTTP/1.1\r\n"
                b"Host: bench\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(req_body)).encode() + b"\r\n"
                b"\r\n" + req_body
            )
            sock = socket.create_connection(("127.0.0.1", srv.port), timeout=60)
            try:
                f = sock.makefile("rwb")
                f.write(raw)  # warm this connection's parse/serve path
                f.flush()
                _read_http_response(f)
                t0 = time.perf_counter()
                f.write(raw * pipeline_depth)
                f.flush()
                ok = 0
                for _ in range(pipeline_depth):
                    status, _ = _read_http_response(f)
                    ok += status == 200
                elapsed = time.perf_counter() - t0
            finally:
                sock.close()
            assert ok == pipeline_depth
            out["pipeline_depth"] = pipeline_depth
            out["free_pipelined_qps"] = round(pipeline_depth / elapsed)
            out["free_pipelined_us_per_req"] = round(
                elapsed / pipeline_depth * 1e6, 2
            )

        # -- overload: capacity of 1 executing + small queue, offered
        # ``overload_factor`` times that in concurrent measured requests
        # while measurement is artificially slow.  Every response must be
        # a structured 200/429/503; refused ones carry Retry-After.
        capacity = 3  # 1 executing + 2 queued
        offered = capacity * overload_factor * 2
        app = _new_app(
            extra_datasets=offered,
            max_measure=1, max_queue=2, per_dataset=capacity * 4,
        )
        inj = faults.FaultInjector().delay(
            "engine.measure.noise", 0.15, times=offered + 1
        )
        results: list = [None] * offered
        with serve_in_thread(app) as srv:
            # Prime the strategy fit so overload requests hit the warm
            # (measure-only) path and contend on the executor, not the fit.
            c = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=60)
            status, _, _ = _post(
                c, {**free_q, "eps": 1.0, "seed": 1, "timeout": 60.0}
            )
            c.close()
            assert status == 200
            with inj.active():
                def client(i):
                    # Each client hits its own dataset: a guaranteed
                    # measured request (no coverage to serve from) that
                    # must pass admission.
                    c = http.client.HTTPConnection(
                        "127.0.0.1", srv.port, timeout=60
                    )
                    try:
                        results[i] = _post(c, {
                            "dataset": f"m{i}",
                            "queries": [{"marginal": ["age"]}],
                            "eps": 0.01, "seed": 1000 + i, "timeout": 30.0,
                        })
                    finally:
                        c.close()

                threads = [
                    threading.Thread(target=client, args=(i,))
                    for i in range(offered)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
        statuses = [r[0] for r in results]
        shed = [r for r in results if r[0] in (429, 503)]
        ok_count = statuses.count(200)
        assert set(statuses) <= {200, 429, 503}
        assert all("Retry-After" in h for _, h, _ in shed)
        out["overload"] = {
            "offered": offered,
            "capacity": capacity,
            "completed_200": ok_count,
            "shed": len(shed),
            "shed_rate": round(len(shed) / offered, 3),
            "shed_reasons": dict(app.admission.shed_counts),
            "all_responses_structured": True,
        }
        return out
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _read_http_response(f) -> tuple:
    """Read one HTTP/1.1 response off a buffered socket file; returns
    ``(status, body_bytes)``."""
    status_line = f.readline()
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = f.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        k, _, v = line.partition(b":")
        if k.strip().lower() == b"content-length":
            length = int(v.strip())
    return status, f.read(length)


def bench_observability(
    shape: tuple = (64, 64), batch: int = 64, rounds: int = 7
) -> dict:
    """Observability tax on the free-hit path.

    The hard contract is the **disabled** state: with metrics and tracing
    off, the instrumented batch serve must stay within 3% of a replica of
    the pre-instrumentation hit loop (same ``_find_cover`` +
    ``_serve_hit`` calls, no obs plumbing).  The **enabled** numbers are
    the price of turning the feature on — a full span tree and labelled
    counters per request — recorded for trend-watching, not bounded.
    """
    from repro import obs
    from repro.linalg import Kronecker, Ones
    from repro.service import QueryService
    from repro.service.engine import (
        BatchResult,
        Reconstruction,
        _as_query_matrix,
    )

    n = int(np.prod(shape))
    svc = QueryService()  # no accountant: this path must never charge
    rng = np.random.default_rng(9)
    svc.add_dataset("bench", rng.poisson(40, n).astype(float))
    strategy = Kronecker([Identity(s) for s in shape])
    x_hat = rng.normal(size=n)
    svc._datasets["bench"].reconstructions["k"] = Reconstruction(
        key="k", strategy=strategy, x_hat=x_hat, eps=1.0
    )
    # Pre-built box queries (accelerator route), reused across reps so
    # range-spec memos and gather plans stay warm like real traffic.
    ones = [Ones(1, s) for s in shape[1:]]
    mats = []
    for i in range(batch):
        row = np.zeros(shape[0])
        lo = (i * 3) % (shape[0] - 4)
        row[lo : lo + 4] = 1.0
        mats.append(Kronecker([Dense(row[None, :])] + ones))

    def replica():
        # The answer() free-hit path exactly as it was before the obs
        # instrumentation landed: validate, scan for covers, serve hits.
        ds = svc._dataset("bench")
        qs = [_as_query_matrix(q) for q in mats]
        for Q in qs:
            assert Q.shape[1] == n
        answers = [None] * len(qs)
        miss = []
        for i, Q in enumerate(qs):
            recon = svc._find_cover(ds, Q)
            if recon is not None:
                answers[i] = svc._serve_hit("bench", ds, Q, recon)
            else:
                miss.append(i)
        return BatchResult(
            answers=answers, charged=0.0, hits=len(qs) - len(miss),
            misses=len(miss),
        )

    try:
        obs.disable()
        obs.reset()
        svc.answer("bench", mats)  # build + warm the accelerator tables
        t_base = t_off = float("inf")
        for _ in range(rounds):  # interleaved: drift hits both equally
            t_base = min(t_base, _timed(replica))
            t_off = min(t_off, _timed(lambda: svc.answer("bench", mats)))
        obs.enable()
        svc.answer("bench", mats)  # warm the enabled path once
        t_on = min(
            _timed(lambda: svc.answer("bench", mats)) for _ in range(rounds)
        )
        result = svc.answer("bench", mats)
        spans = obs.get_trace(result.trace_id) or []
        span_names = {sp.name for sp in spans}
        snap = obs.REGISTRY.snapshot()
        series = snap.get("service.answers_total", {}).get("series", [])
        counted = sum(
            s["value"]
            for s in series
            if s["labels"] == {"dataset": "bench", "route": "accelerator"}
        )

        q1 = mats[0]
        obs.disable()
        t_q_off = min(
            _timed(lambda: svc.query("bench", q1)) for _ in range(rounds)
        )
        obs.enable()
        t_q_on = min(
            _timed(lambda: svc.query("bench", q1)) for _ in range(rounds)
        )
    finally:
        obs.disable()
        obs.reset()

    per_q = 1e6 / batch
    return {
        "domain_shape": list(shape),
        "domain": n,
        "batch": batch,
        "baseline_us_per_query": round(t_base * per_q, 3),
        "disabled_us_per_query": round(t_off * per_q, 3),
        "overhead_disabled_pct": round((t_off / t_base - 1.0) * 100, 2),
        "enabled_us_per_query": round(t_on * per_q, 3),
        "overhead_enabled_pct": round((t_on / t_base - 1.0) * 100, 2),
        "single_query_disabled_us": round(t_q_off * 1e6, 2),
        "single_query_enabled_us": round(t_q_on * 1e6, 2),
        "trace_spans_per_batch": len(spans),
        "trace_complete": bool(
            {"service.answer", "serve.hits"} <= span_names
        ),
        "answers_counted": int(counted),
        # enabled answer() calls: 1 warm + `rounds` timed + 1 traced.
        "answers_counter_correct": bool(counted == (rounds + 2) * batch),
    }


def run(quick: bool = False, restarts: int | None = None, workers: int = 4) -> dict:
    if restarts is None:
        restarts = 2 if quick else 25
    reps = 3 if quick else 7
    results = {
        "benchmark": "perf_regression",
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "opt_hdmm": bench_opt_hdmm(restarts=restarts, workers=workers),
        "kmatmat": bench_kmatmat(reps=reps),
        "serving": bench_serving(n=32 if quick else 64,
                                 trials=5 if quick else 20,
                                 n_eps=3 if quick else 5),
        "service": bench_service(n=32 if quick else 64,
                                 restarts=2 if quick else 5,
                                 query_reps=10 if quick else 50),
        "serving_multiblock": bench_serving_multiblock(
            n=8 if quick else 16,
            trials=5 if quick else 20,
            n_eps=3 if quick else 5),
        "api_planner": bench_api_planner(
            n_exprs=96 if quick else 512,
            restarts=1 if quick else 2),
        "accelerator": bench_accelerator(
            shape=(16, 8, 4) if quick else (32, 16, 8),
            reps=30 if quick else 200,
            build_reps=2 if quick else 5),
        "mechanisms": bench_mechanisms(
            n=32 if quick else 64,
            trials=10 if quick else 50,
            n_debits=50 if quick else 500),
        "durability": bench_durability(
            n_debits=50 if quick else 500,
            n=16 if quick else 32,
            restarts=1 if quick else 2,
            reps=3 if quick else 5),
        "observability": bench_observability(
            shape=(32, 32) if quick else (64, 64),
            batch=16 if quick else 64,
            rounds=5 if quick else 7),
        "server": bench_server(
            seq_reps=30 if quick else 200,
            pipeline_depth=64 if quick else 256,
            measured_reps=3 if quick else 10),
    }
    return results


def check_serving_regression(results: dict, json_path: str = DEFAULT_JSON) -> dict:
    """Compare this run's serving speedup against the recorded trajectory.

    Returns ``{recorded, current, ratio}`` (ratio < 1 means slower than
    the recorded run); empty when no prior serving record exists.
    """
    try:
        with open(json_path) as f:
            previous = json.load(f)
    except (OSError, ValueError):
        return {}
    prev = previous.get("serving")
    if not prev or "speedup_vs_seed_loop" not in prev:
        return {}
    recorded = float(prev["speedup_vs_seed_loop"])
    current = float(results["serving"]["speedup_vs_seed_loop"])
    return {
        "recorded": recorded,
        "current": current,
        "ratio": round(current / recorded, 3) if recorded else None,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smoke-run sizes (2 restarts, 3 reps)")
    parser.add_argument("--restarts", type=int, default=None,
                        help="override opt_hdmm restart count")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--json", default=DEFAULT_JSON,
                        help=f"output path (default {DEFAULT_JSON})")
    args = parser.parse_args()

    results = run(quick=args.quick, restarts=args.restarts, workers=args.workers)
    results["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")

    h = results["opt_hdmm"]
    k = results["kmatmat"]
    rows = [
        ["opt_hdmm engine (workers=1)", f"{h['engine_workers1_seconds']:.2f}s", ""],
        [
            f"opt_hdmm engine (workers={h['workers']})",
            f"{h['engine_seconds']:.2f}s",
            "",
        ],
    ]
    for name, case in k["cases"].items():
        rows.append(
            [
                f"kmatmat {name}",
                f"{case['kmatmat_seconds'] * 1e3:.2f}ms",
                f"{case['speedup']:.1f}x vs column loop",
            ]
        )
    s = results["serving"]
    rows += [
        ["serving seed loop (LSMR)", f"{s['seed_loop_seconds']:.2f}s", ""],
        ["serving single-shot loop", f"{s['single_shot_loop_seconds']:.2f}s", ""],
        [
            f"serving batch ({s['trials']}x{len(s['eps_grid'])}ε)",
            f"{s['batch_seconds']:.3f}s",
            f"{s['speedup_vs_seed_loop']:.1f}x vs seed loop",
        ],
    ]
    v = results["service"]
    rows += [
        ["service cold fit + persist", f"{v['cold_fit_seconds']:.2f}s", ""],
        [
            "service warm registry load",
            f"{v['warm_load_seconds'] * 1e3:.1f}ms",
            f"{v['warm_load_speedup']:.0f}x vs cold fit",
        ],
        ["service free-query hit", f"{v['free_query_hit_ms']:.2f}ms", "zero budget"],
    ]
    mb = results["serving_multiblock"]
    rows += [
        ["multiblock cold CG", f"{mb['cg_cold_seconds']:.2f}s",
         f"{mb['iterations']['plain_cg']} iters"],
        [
            "multiblock preconditioned",
            f"{mb['preconditioned_seconds']:.3f}s",
            f"{mb['speedup_vs_cold_cg']:.1f}x vs cold CG, "
            f"{mb['iterations']['preconditioned']} iters",
        ],
    ]
    ap = results["api_planner"]
    rows += [
        [
            f"api compile+plan ({ap['n_expressions']} exprs)",
            f"{(ap['compile_seconds'] + ap['plan_cold_seconds']) * 1e3:.1f}ms",
            f"{ap['dedup_factor']:.1f}x dedup "
            f"({ap['n_distinct']} distinct)",
        ],
        [
            "api warm serve (all cached)",
            f"{ap['serve_warm_seconds'] * 1e3:.1f}ms",
            f"free-hit ratio {ap['free_hit_ratio_after_warmup']:.2f}",
        ],
    ]
    ac = results["accelerator"]
    rows += [
        [
            "accelerator seed span-projection hit",
            f"{ac['single_hit_seed_span_projection_us']:.0f}us",
            "",
        ],
        [
            "accelerator single free hit (gather)",
            f"{ac['single_hit_gather_us']:.1f}us",
            f"{ac['single_hit_speedup']:.0f}x vs span projection",
        ],
        [
            f"accelerator batch gather ({ac['batch_rows']} rows)",
            f"{ac['batch_gather_seconds'] * 1e3:.2f}ms",
            f"{ac['batch_answers_per_sec'] / 1e3:.0f}k answers/s",
        ],
        [
            "accelerator table build + persist",
            f"{(ac['table_build_seconds'] + ac['table_persist_seconds']) * 1e3:.1f}ms",
            f"{ac['table_mb']:.1f}MB, reload "
            f"{ac['table_load_seconds'] * 1e3:.1f}ms",
        ],
    ]
    mc = results["mechanisms"]
    rows += [
        [
            f"mechanisms laplace sweep ({mc['trials']} trials)",
            f"{mc['laplace']['sweep_seconds']:.3f}s",
            f"rmse {mc['laplace']['empirical_rmse']:.1f} "
            f"(predicted {mc['laplace']['predicted_rmse']:.1f})",
        ],
        [
            f"mechanisms gaussian sweep (δ={mc['delta']:g})",
            f"{mc['gaussian']['sweep_seconds']:.3f}s",
            f"rmse {mc['gaussian']['empirical_rmse']:.1f} "
            f"({mc['rmse_ratio_gaussian_vs_laplace']:.2f}x laplace)",
        ],
        [
            "mechanisms zCDP debit",
            f"{mc['accounting']['zcdp_debit_us']:.1f}us",
            f"+{mc['accounting']['zcdp_overhead_us_per_debit']:.1f}us "
            f"vs pure-ε fold",
        ],
    ]
    d = results["durability"]
    rows += [
        [
            "durability WAL debit",
            f"{d['wal_debit_us']:.0f}us",
            f"+{d['wal_overhead_us_per_debit']:.0f}us vs in-memory",
        ],
        [
            f"durability recovery ({d['recovery_records']} records)",
            f"{d['recovery_seconds'] * 1e3:.1f}ms",
            f"{d['recovery_records_per_sec']:.0f} records/s",
        ],
        [
            "durability warm load + verify",
            f"{d['warm_load_ms']:.2f}ms",
            f"checksum {d['checksum_fraction_of_warm_load']:.0%} of load",
        ],
    ]
    ob = results["observability"]
    rows += [
        [
            f"obs free hit, obs off ({ob['batch']}q batch)",
            f"{ob['disabled_us_per_query']:.1f}us/q",
            f"{ob['overhead_disabled_pct']:+.2f}% vs uninstrumented",
        ],
        [
            "obs free hit, metrics+trace on",
            f"{ob['enabled_us_per_query']:.1f}us/q",
            f"{ob['overhead_enabled_pct']:+.1f}% (full span tree + counters)",
        ],
    ]
    sv = results["server"]
    rows += [
        [
            "server free hit over HTTP",
            f"p50 {sv['free_hit_p50_ms']:.2f}ms",
            f"p99 {sv['free_hit_p99_ms']:.2f}ms",
        ],
        [
            f"server pipelined free hits (depth {sv['pipeline_depth']})",
            f"{sv['free_pipelined_us_per_req']:.0f}us/req",
            f"{sv['free_pipelined_qps'] / 1e3:.1f}k req/s",
        ],
        [
            "server measured request",
            f"p50 {sv['measured_p50_ms']:.1f}ms",
            f"p99 {sv['measured_p99_ms']:.1f}ms",
        ],
    ]
    print_table(
        f"Perf regression ({'quick' if results['quick'] else 'full'}; "
        f"restarts={h['restarts']})",
        ["path", "time", "speedup"],
        rows,
    )
    print(
        f"loss determinism workers=1 vs workers={h['workers']}: "
        f"{h['loss_deterministic']}"
    )
    print(
        "serving answers bit-identical to single-shot loop: "
        f"{s['answers_bit_identical']}"
    )
    print(
        "multiblock exact=True answers bit-identical to single-shot loop: "
        f"{mb['answers_bit_identical']} "
        f"(max rel dev vs LSMR {mb['max_rel_dev_vs_lsmr']:.2e})"
    )
    print(
        f"api planner ε estimate matches accountant debit: "
        f"{ap['plan_matches_debit']} "
        f"(plan warm <= cold: {ap['plan_warm_le_cold']})"
    )
    print(
        "accelerator answers bit-identical to matvec path: "
        f"single {ac['single_hit_values_exact']} / "
        f"batch {ac['batch_values_exact']}"
    )
    print(
        "mechanisms rmse predictions calibrated / ε fold bit-identical: "
        f"{mc['predictions_calibrated']} / "
        f"{mc['accounting']['eps_fold_identical']} "
        f"(σ/b = {mc['noise_scale_ratio_gauss_vs_lap']:.2f})"
    )
    print(
        "durability recovery state exact / torn tail truncated: "
        f"{d['recovery_state_exact']} / {d['torn_tail_truncated']}"
    )
    print(
        "observability trace complete / answer counters correct: "
        f"{ob['trace_complete']} / {ob['answers_counter_correct']} "
        f"(disabled overhead {ob['overhead_disabled_pct']:+.2f}%)"
    )
    ov = sv["overload"]
    print(
        f"server overload ({ov['offered']} offered / capacity "
        f"{ov['capacity']}): {ov['completed_200']} served, "
        f"{ov['shed']} shed (rate {ov['shed_rate']:.2f}), "
        f"all responses structured: {ov['all_responses_structured']}"
    )
    regression = check_serving_regression(results, args.json)
    if regression:
        print(
            f"serving speedup vs recorded trajectory: {regression['current']:.1f}x "
            f"now / {regression['recorded']:.1f}x recorded "
            f"(ratio {regression['ratio']})"
        )

    with open(args.json, "w") as f:
        json.dump(results, f, indent=2)
    print(f"wrote {args.json}")


def test_bench_perf_regression_smoke():
    """Quick-mode engine run: determinism holds and nothing crashes."""
    results = run(quick=True)
    assert results["opt_hdmm"]["loss_deterministic"]
    assert results["kmatmat"]["cases"]["prefix-identity-total"]["speedup"] > 1.0


def test_bench_service_smoke():
    """Quick registry/service case: warm loads must stay orders of
    magnitude cheaper than cold fits, and cache hits must stay free."""
    v = bench_service(n=32, restarts=2, query_reps=5)
    assert v["warm_load_speedup"] > 5.0
    assert v["free_query_budget_spent"] == 0.0
    assert v["free_query_hit_ms"] < 250.0
    # The committed trajectory must already carry a service record so
    # this benchmark cannot silently rot.
    with open(DEFAULT_JSON) as f:
        recorded = json.load(f)
    assert recorded["service"]["warm_load_speedup"] > 5.0
    assert recorded["service"]["free_query_budget_spent"] == 0.0


def test_bench_serving_multiblock_smoke():
    """Quick multiblock case: the L ≥ 3 union contracts must hold — the
    preconditioner cuts CG iterations, answers match the LSMR
    cross-check, and exact=True sweeps are bit-identical to the
    single-shot loop."""
    mb = bench_serving_multiblock(n=8, trials=5, n_eps=3)
    it = mb["iterations"]
    assert it["preconditioned"] < it["plain_cg"]
    assert mb["max_rel_dev_vs_lsmr"] < 1e-8
    assert mb["answers_bit_identical"]
    # The committed trajectory must already carry the acceptance-level
    # multiblock record, so this benchmark cannot silently rot.
    with open(DEFAULT_JSON) as f:
        recorded = json.load(f)
    rec = recorded["serving_multiblock"]
    assert rec["domain"] >= 4096 and rec["groups"] == 4
    assert rec["speedup_vs_cold_cg"] >= 3.0
    assert rec["max_rel_dev_vs_lsmr"] <= 1e-8
    assert rec["answers_bit_identical"]


def test_bench_api_planner_smoke():
    """Quick api_planner case: the declarative-layer contracts must hold
    — dedup collapses the repeated traffic, the Plan's ε estimate equals
    the accountant's actual debit, and after the one warmup measurement
    the whole batch is served from cache at zero budget."""
    ap = bench_api_planner(n_exprs=96, restarts=1)
    assert ap["n_distinct"] < ap["n_expressions"]
    assert ap["plan_matches_debit"]
    assert ap["free_hit_ratio_after_warmup"] == 1.0
    assert ap["free_spend_after_warmup"] == 0.0
    # Planning against a warm cache must not regress below cold planning
    # (the PR 7 probe-memoization contract).
    assert ap["plan_warm_le_cold"]
    # The committed trajectory must already carry an api_planner record
    # so this benchmark cannot silently rot.
    with open(DEFAULT_JSON) as f:
        recorded = json.load(f)
    rec = recorded["api_planner"]
    assert rec["n_expressions"] >= 512
    assert rec["plan_matches_debit"]
    assert rec["free_hit_ratio_after_warmup"] == 1.0
    assert rec["plan_warm_le_cold"]


def test_bench_accelerator_smoke():
    """Quick accelerator case: the O(1) read-path contracts must hold —
    accelerator answers bit-identical to the matvec path, the corner
    gather beating the span projection, and the batched gather clearing
    the 100k answers/s floor even at smoke sizes."""
    ac = bench_accelerator(shape=(16, 8, 4), reps=30, build_reps=2)
    assert ac["single_hit_values_exact"]
    assert ac["batch_values_exact"]
    assert ac["single_hit_speedup"] > 2.0
    assert ac["batch_answers_per_sec"] > 100_000
    # The committed trajectory must already carry the acceptance-level
    # accelerator record, so this benchmark cannot silently rot.
    with open(DEFAULT_JSON) as f:
        recorded = json.load(f)
    rec = recorded["accelerator"]
    assert rec["single_hit_speedup"] >= 50.0
    assert rec["batch_answers_per_sec"] >= 100_000
    assert rec["single_hit_values_exact"] and rec["batch_values_exact"]


def test_bench_serving_smoke():
    """Quick serving case: the batched sweep must keep its contracts —
    bit-identical answers vs the single-shot loop, a clear win over the
    seed path, and solver agreement with the seed's LSMR answers."""
    s = bench_serving(n=32, trials=5, n_eps=3)
    assert s["answers_bit_identical"]
    assert s["speedup_vs_seed_loop"] > 3.0
    assert s["batch_max_rel_dev_vs_seed_lsmr"] < 1e-6
    # The committed trajectory must already carry a serving record with
    # the acceptance-level speedup, so this benchmark cannot silently rot.
    with open(DEFAULT_JSON) as f:
        recorded = json.load(f)
    assert recorded["serving"]["speedup_vs_seed_loop"] >= 3.0
    assert recorded["serving"]["answers_bit_identical"]


def test_bench_observability_smoke():
    """Quick observability case: the instrumentation must be free while
    disabled (< 3% on the batched free-hit path — asserted strictly on
    the committed full-size record; the live quick run uses 16-query
    batches where a few µs of timer jitter is tens of percent, so its
    bound only catches gross regressions), and while enabled every batch
    must produce a complete trace and exact answer counters."""
    ob = bench_observability(shape=(32, 32), batch=16, rounds=5)
    assert ob["overhead_disabled_pct"] < 30.0
    assert ob["trace_complete"]
    assert ob["answers_counter_correct"]
    # The committed trajectory must already carry an observability record
    # within the bound, so this benchmark cannot silently rot.
    with open(DEFAULT_JSON) as f:
        recorded = json.load(f)
    rec = recorded["observability"]
    assert rec["overhead_disabled_pct"] < 3.0
    assert rec["trace_complete"] and rec["answers_counter_correct"]


def test_bench_server_smoke():
    """Quick server case: the front-end contracts must hold — free hits
    stay free and fast over the wire, pipelining multiplies free-hit
    throughput past the quick-size floor, overload sheds are structured
    429/503s, and the requests the admission controller accepted all
    complete.  The committed full-size record must clear the 10k req/s
    pipelined floor (the live quick run uses a shallow pipeline where
    constant costs dominate, so its floor only catches gross breakage)."""
    sv = bench_server(seq_reps=20, pipeline_depth=64, measured_reps=2)
    assert sv["free_pipelined_qps"] > 2_000
    assert sv["free_hit_p99_ms"] < 250.0
    ov = sv["overload"]
    assert ov["all_responses_structured"]
    assert ov["completed_200"] + ov["shed"] == ov["offered"]
    assert ov["shed"] > 0  # 2x+ overload must actually shed
    # The committed trajectory must already carry a server record so
    # this benchmark cannot silently rot.
    with open(DEFAULT_JSON) as f:
        recorded = json.load(f)
    rec = recorded["server"]
    assert rec["free_pipelined_qps"] >= 10_000
    assert rec["overload"]["all_responses_structured"]
    assert rec["overload"]["shed_rate"] > 0.0


def test_bench_mechanisms_smoke():
    """Quick mechanisms case: the subsystem contracts must hold — the
    analytic rootmse predictions stay calibrated against empirical trial
    RMSE for both mechanisms, the two mechanisms genuinely differ at
    equal budget, and the zCDP fold's ε axis stays bit-identical to the
    pure-ε fold under identical debit traffic."""
    mc = bench_mechanisms(n=16, trials=10, n_debits=50)
    assert mc["predictions_calibrated"]
    assert mc["rmse_ratio_gaussian_vs_laplace"] != 1.0
    assert mc["accounting"]["eps_fold_identical"]
    assert mc["accounting"]["delta_spent"] > 0.0
    assert mc["accounting"]["rho_spent"] > 0.0
    # The committed trajectory must already carry a mechanisms record so
    # this benchmark cannot silently rot.
    with open(DEFAULT_JSON) as f:
        recorded = json.load(f)
    rec = recorded["mechanisms"]
    assert rec["predictions_calibrated"]
    assert rec["accounting"]["eps_fold_identical"]
    assert rec["trials"] >= 50


def test_bench_durability_smoke():
    """Quick durability case: every tier-1 run replays a real WAL — the
    recovered accountant must reproduce the writer's exact state, torn
    tails must truncate, and the checksum verify must stay a fraction of
    the warm load it protects."""
    d = bench_durability(n_debits=25, n=16, restarts=1, reps=2)
    assert d["recovery_state_exact"]
    assert d["torn_tail_truncated"]
    assert d["checksum_fraction_of_warm_load"] < 1.0
    # The committed trajectory must already carry a durability record so
    # this benchmark cannot silently rot.
    with open(DEFAULT_JSON) as f:
        recorded = json.load(f)
    rec = recorded["durability"]
    assert rec["recovery_state_exact"]
    assert rec["torn_tail_truncated"]
    assert rec["n_debits"] >= 500


if __name__ == "__main__":
    main()
