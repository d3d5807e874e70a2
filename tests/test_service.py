"""Tests for the service subsystem: fingerprints, the strategy registry,
the privacy accountant, and the QueryService serving engine — including
the end-to-end persistence acceptance contract (fit once, reload in a
fresh process-equivalent, serve bit-identically, post-process for free,
and never out-spend a budget cap)."""

import dataclasses

import numpy as np
import pytest

from repro import workload
from repro.core import HDMM
from repro.core.solvers import cg_gram_solve, union_eigenbasis, union_gram_solver
from repro.domain import Domain
from repro.linalg import (
    Identity,
    Kronecker,
    MarginalsStrategy,
    Ones,
    Prefix,
    VStack,
    Weighted,
)
from repro.optimize import opt_union
from repro.service import (
    BudgetExceededError,
    PrivacyAccountant,
    QueryMiss,
    QueryService,
    StrategyRegistry,
    canonical_config,
    in_measured_span,
    workload_fingerprint,
)
from repro.workload.logical import LogicalWorkload, Product


@pytest.fixture
def union_workload():
    return workload.range_total_union(8)


@pytest.fixture
def fitted_union(union_workload):
    return opt_union(union_workload, rng=0)


class TestFingerprint:
    def test_semantically_equal_workloads_share_a_key(self):
        assert workload_fingerprint(
            workload.range_total_union(8)
        ) == workload_fingerprint(workload.range_total_union(8))
        assert workload_fingerprint(Prefix(16)) == workload_fingerprint(Prefix(16))

    def test_different_workloads_differ(self):
        keys = {
            workload_fingerprint(workload.range_total_union(8)),
            workload_fingerprint(workload.range_total_union(16)),
            workload_fingerprint(Prefix(8)),
            workload_fingerprint(workload.prefix_identity(8)),
        }
        assert len(keys) == 4

    def test_unit_weight_and_singleton_stack_are_neutral(self):
        W = Kronecker([Prefix(4), Identity(3)])
        assert workload_fingerprint(Weighted(W, 1.0)) == workload_fingerprint(W)
        assert workload_fingerprint(VStack([W])) == workload_fingerprint(W)
        assert workload_fingerprint(Weighted(W, 2.0)) != workload_fingerprint(W)

    def test_nested_weights_multiply_through(self):
        W = Prefix(5)
        assert workload_fingerprint(
            Weighted(Weighted(W, 2.0), 3.0)
        ) == workload_fingerprint(Weighted(W, 6.0))

    def test_nested_stacks_flatten(self):
        a = Kronecker([Prefix(3), Identity(2)])
        b = Kronecker([Identity(3), Prefix(2)])
        c = Kronecker([Ones(1, 3), Identity(2)])
        assert workload_fingerprint(
            VStack([VStack([a, b]), c])
        ) == workload_fingerprint(VStack([a, b, c]))

    def test_template_and_domain_distinguish(self):
        W = Prefix(8)
        base = workload_fingerprint(W)
        assert workload_fingerprint(W, template="opt_marginals") != base
        d1 = Domain(["age"], [8])
        d2 = Domain(["income"], [8])
        assert workload_fingerprint(W, domain=d1) != workload_fingerprint(
            W, domain=d2
        )

    def test_logical_workload_uses_its_domain(self):
        dom = Domain(["a", "b"], [3, 4])
        lw = LogicalWorkload([Product(dom, {})])
        assert workload_fingerprint(lw) == workload_fingerprint(lw)

    def test_canonical_config_idempotent(self, union_workload):
        from repro.linalg import matrix_to_config

        cfg = canonical_config(matrix_to_config(union_workload))
        assert canonical_config(cfg) == cfg


class TestRegistry:
    def test_put_get_roundtrip(self, tmp_path, union_workload, fitted_union):
        reg = StrategyRegistry(tmp_path / "reg")
        key = reg.put(
            union_workload, fitted_union.strategy, loss=fitted_union.loss
        )
        assert key in reg
        assert reg.keys() == [key]
        rec = reg.get(union_workload)
        assert rec is not None and rec.key == key
        assert rec.loss == pytest.approx(fitted_union.loss)
        assert np.array_equal(
            rec.strategy.dense(), fitted_union.strategy.dense()
        )
        assert rec.strategy.sensitivity() == fitted_union.strategy.sensitivity()

    def test_loaded_strategy_is_serve_ready(
        self, tmp_path, union_workload, fitted_union
    ):
        """The union Gram solver must be attached on load, solving as it
        was fitted — no re-factorization before the first solve."""
        reg = StrategyRegistry(tmp_path / "reg")
        key = reg.put(union_workload, fitted_union.strategy)
        rec = reg.load(key)
        assert rec.meta["solver_state"]
        solver = rec.strategy.cache_get("union_gram_solver")
        assert solver is not None and not isinstance(solver, str)
        assert union_gram_solver(rec.strategy) is solver
        G = rec.strategy.gram()
        n = rec.strategy.shape[1]
        result = cg_gram_solve(G, np.eye(n), basis=union_eigenbasis(rec.strategy))
        assert (result.iterations == 0).all() and result.converged.all()
        assert np.allclose(result.x @ G.dense(), np.eye(n), atol=1e-8)

    def test_get_miss_returns_none(self, tmp_path):
        reg = StrategyRegistry(tmp_path / "reg")
        assert reg.get(Prefix(8)) is None
        with pytest.raises(KeyError):
            reg.load("deadbeef")

    def test_delete(self, tmp_path, union_workload, fitted_union):
        reg = StrategyRegistry(tmp_path / "reg")
        key = reg.put(union_workload, fitted_union.strategy)
        reg.delete(key)
        assert key not in reg and len(reg) == 0
        with pytest.raises(KeyError):
            reg.delete(key)

    def test_manifest_survives_reopen(self, tmp_path, union_workload, fitted_union):
        root = tmp_path / "reg"
        key = StrategyRegistry(root).put(union_workload, fitted_union.strategy)
        reopened = StrategyRegistry(root)
        assert key in reopened
        assert reopened.entry(key)["shape"] == list(
            fitted_union.strategy.shape
        )

    def test_template_separates_entries(self, tmp_path, union_workload, fitted_union):
        reg = StrategyRegistry(tmp_path / "reg")
        k1 = reg.put(union_workload, fitted_union.strategy, template="opt_union")
        k2 = reg.put(union_workload, fitted_union.strategy, template="opt_kron")
        assert k1 != k2 and len(reg) == 2

    def test_multiblock_precond_roundtrip_without_refactorization(
        self, tmp_path
    ):
        """Acceptance: a warm registry load of an L ≥ 3 union strategy
        restores the L-block preconditioner state — the loaded
        strategy serves without ever re-running the factorization."""
        import repro.core.solvers as solvers
        from repro.core import least_squares
        from repro.core.solvers import union_gram_solver
        from repro.optimize import PIdentity

        r = np.random.default_rng(3)
        blocks = [
            Weighted(
                Kronecker(
                    [PIdentity(r.random((2, 5))), PIdentity(r.random((2, 4)))]
                ),
                0.25,
            )
            for _ in range(4)
        ]
        A = VStack(blocks)
        W = workload.range_total_union(5, 4)
        reg = StrategyRegistry(tmp_path / "reg")
        key = reg.put(W, A)
        assert reg.entry(key)["solver_state"]

        rec = reg.load(key)
        state = rec.strategy.cache_get("union_gram_solver")
        assert state is not None and len(state.blocks) == 2

        # The pair factorization must never run again: the
        # restored factors are used as-is.
        original = solvers._two_term_factorization
        solvers._two_term_factorization = lambda *a, **k: (_ for _ in ()).throw(
            AssertionError("pair factorization re-ran on warm load")
        )
        try:
            assert union_gram_solver(rec.strategy) is state
            y = np.random.default_rng(0).standard_normal(rec.strategy.shape[0])
            x = least_squares(rec.strategy, y)
        finally:
            solvers._two_term_factorization = original
        ref = np.linalg.pinv(A.dense()) @ y
        assert np.allclose(x, ref, atol=1e-8)


class TestAccountant:
    def test_sequential_composition_sums(self):
        acct = PrivacyAccountant()
        acct.register("d", 2.0)
        acct.charge("d", 0.5)
        acct.charge("d", np.array([0.25, 0.25]))
        assert acct.spent("d") == pytest.approx(1.0)
        assert acct.remaining("d") == pytest.approx(1.0)

    def test_parallel_composition_takes_max(self):
        acct = PrivacyAccountant()
        acct.register("d", 1.0)
        acct.charge_parallel("d", np.array([0.2, 0.7, 0.5]))
        assert acct.spent("d") == pytest.approx(0.7)

    def test_exhaustion_raises_and_leaves_ledger_clean(self):
        acct = PrivacyAccountant()
        acct.register("d", 1.0)
        acct.charge("d", 0.8)
        with pytest.raises(BudgetExceededError):
            acct.charge("d", 0.5)
        assert acct.spent("d") == pytest.approx(0.8)
        assert len(acct.ledger) == 1

    def test_check_does_not_debit(self):
        acct = PrivacyAccountant()
        acct.register("d", 1.0)
        assert acct.check("d", 0.9) == pytest.approx(0.9)
        assert acct.spent("d") == 0.0
        with pytest.raises(BudgetExceededError):
            acct.check("d", 1.5)

    def test_unknown_dataset_and_default_cap(self):
        with pytest.raises(KeyError):
            PrivacyAccountant().charge("nope", 0.1)
        acct = PrivacyAccountant(default_cap=1.0)
        acct.charge("auto", 0.4)
        assert acct.cap("auto") == 1.0

    def test_cap_cannot_shrink_below_spent(self):
        acct = PrivacyAccountant()
        acct.register("d", 2.0)
        acct.charge("d", 1.5)
        with pytest.raises(ValueError):
            acct.register("d", 1.0)
        acct.register("d", 3.0)  # extending is fine
        assert acct.cap("d") == 3.0

    def test_epsilon_validation(self):
        acct = PrivacyAccountant()
        acct.register("d", 1.0)
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                acct.charge("d", bad)
        with pytest.raises(ValueError):
            PrivacyAccountant().register("d", -2.0)


class TestMeasuredSpan:
    def test_full_rank_strategy_spans_everything(self, rng, fitted_union):
        A = fitted_union.strategy
        q = rng.standard_normal(A.shape[1])
        assert in_measured_span(A, q)
        assert in_measured_span(A, Identity(A.shape[1]))

    def test_marginals_strategy_partial_span(self):
        theta = np.zeros(4)
        theta[0b10] = 1.0  # measure only the first-attribute marginal
        A = MarginalsStrategy((3, 3), theta)
        assert in_measured_span(A, Kronecker([Identity(3), Ones(1, 3)]))
        assert in_measured_span(A, Kronecker([Ones(1, 3), Ones(1, 3)]))
        assert not in_measured_span(A, Kronecker([Ones(1, 3), Identity(3)]))
        assert not in_measured_span(A, Identity(9))

    def test_shape_mismatch_is_not_in_span(self, fitted_union):
        assert not in_measured_span(fitted_union.strategy, np.ones(3))


class TestQueryService:
    def _service(self, tmp_path, cap=10.0, **kwargs):
        reg = StrategyRegistry(tmp_path / "reg")
        acct = PrivacyAccountant()
        svc = QueryService(
            registry=reg,
            accountant=acct,
            restarts=1,
            rng=0,
            template="opt_union",
            **kwargs,
        )
        return svc, reg, acct

    def test_end_to_end_persistence_acceptance(self, tmp_path, union_workload):
        """The PR acceptance contract: fit a union-of-Kronecker strategy,
        persist it, reload in a *fresh* QueryService, and serve an
        ε-sweep bit-identical to the in-memory ``run_batch(exact=True)``
        path at the same seeds; span queries debit nothing; cap overruns
        raise before any noise is drawn."""
        W = union_workload
        x = np.random.default_rng(3).poisson(50, W.shape[1]).astype(float)
        result = opt_union(W, rng=0)

        # Fit once and persist.
        reg = StrategyRegistry(tmp_path / "reg")
        reg.put(W, result.strategy, loss=result.loss, template="opt_union")

        # "Restart the process": a fresh service over the same directory.
        acct = PrivacyAccountant()
        svc = QueryService(
            registry=StrategyRegistry(tmp_path / "reg"),
            accountant=acct,
            restarts=1,
            rng=0,
            template="opt_union",
        )
        svc.add_dataset("adult", x, epsilon_cap=10.0)

        eps = np.array([0.5, 1.0, 2.0])
        served = svc.measure("adult", W, eps, trials=2, rng=11, exact=True)
        assert served.from_registry

        # Reference: the in-memory mechanism at the same seeds.
        mech = HDMM(restarts=1, rng=0)
        mech.workload, mech.strategy, mech.result = W, result.strategy, result
        ref = mech.run_batch(x, eps, trials=2, rng=11, exact=True)
        assert np.array_equal(served.answers, ref)
        assert acct.spent("adult") == pytest.approx(2 * eps.sum())

        # Zero-debit span query.
        q = np.zeros(W.shape[1])
        q[:5] = 1.0
        spent_before = acct.spent("adult")
        ans = svc.query("adult", q)
        assert ans.hit
        assert acct.spent("adult") == spent_before

        # Cap overrun raises before any noise is drawn.
        recons_before = svc.reconstructions("adult")
        with pytest.raises(BudgetExceededError):
            svc.measure("adult", W, eps=100.0, rng=11)
        assert acct.spent("adult") == spent_before
        assert svc.reconstructions("adult") == recons_before

    def test_cold_fit_populates_registry(self, tmp_path):
        svc, reg, acct = self._service(tmp_path)
        W = workload.range_total_union(8)
        x = np.arange(W.shape[1], dtype=float)
        svc.add_dataset("d", x, epsilon_cap=10.0)
        served = svc.measure("d", W, eps=1.0, rng=0)
        assert not served.from_registry
        assert served.key in reg
        # Second service over the same directory loads instead of fitting.
        svc2 = QueryService(
            registry=StrategyRegistry(tmp_path / "reg"),
            accountant=PrivacyAccountant(default_cap=10.0),
            restarts=1,
            rng=0,
            template="opt_union",
        )
        svc2.add_dataset("d", x)
        assert svc2.measure("d", W, eps=1.0, rng=0).from_registry

    def test_query_miss_raises_without_spending(self, tmp_path):
        svc, _, acct = self._service(tmp_path)
        svc.add_dataset("d", np.ones(16), epsilon_cap=1.0)
        with pytest.raises(QueryMiss):
            svc.query("d", np.ones(16))
        assert acct.spent("d") == 0.0

    def test_answer_batches_misses_and_serves_hits_free(self, tmp_path):
        svc, _, acct = self._service(tmp_path)
        W = workload.range_total_union(8)
        n = W.shape[1]
        x = np.random.default_rng(0).poisson(30, n).astype(float)
        svc.add_dataset("d", x, epsilon_cap=10.0)
        svc.measure("d", W, eps=1.0, rng=1)
        spent = acct.spent("d")

        q_hit = np.zeros(n)
        q_hit[:3] = 1.0
        q_miss_a = np.ones(n)
        q_miss_b = np.zeros(n)
        q_miss_b[::2] = 2.0
        # All three lie in the (full-rank) measured span, so serve free...
        batch = svc.answer("d", [q_hit, q_miss_a, q_miss_b])
        assert batch.hits == 3 and batch.misses == 0 and batch.charged == 0.0
        assert acct.spent("d") == spent

        # ...while a fresh dataset with no reconstruction pays once for
        # the whole miss batch.
        svc.add_dataset("cold", x, epsilon_cap=10.0)
        batch = svc.answer("cold", [q_hit, q_miss_a], eps=0.5, rng=2)
        assert batch.hits == 0 and batch.misses == 2
        assert batch.charged == pytest.approx(0.5)
        assert acct.spent("cold") == pytest.approx(0.5)
        assert all(not a.hit for a in batch.answers)
        # Answers line up query-by-query with the joint measurement.
        assert batch.answers[0].values.shape == (1,)
        assert batch.answers[1].values.shape == (1,)

    def test_answer_without_eps_raises_on_miss(self, tmp_path):
        svc, _, acct = self._service(tmp_path)
        svc.add_dataset("d", np.ones(8), epsilon_cap=1.0)
        with pytest.raises(QueryMiss):
            svc.answer("d", [np.ones(8)])
        assert acct.spent("d") == 0.0

    def test_rank_deficient_cache_rejects_out_of_span_queries(self, tmp_path):
        """A marginals measurement only serves queries it supports —
        others must miss rather than return garbage.  The registry is
        pre-seeded with a deliberately rank-deficient strategy (only the
        first-attribute marginal measured) so the case is deterministic."""
        reg = StrategyRegistry(tmp_path / "reg")
        acct = PrivacyAccountant()
        svc = QueryService(registry=reg, accountant=acct, restarts=1, rng=0)
        W = Kronecker([Identity(3), Ones(1, 3)])  # first-attribute marginal
        theta = np.zeros(4)
        theta[0b10] = 1.0
        A = MarginalsStrategy((3, 3), theta)
        reg.put(W, A, template=svc.template)
        x = np.random.default_rng(5).poisson(20, 9).astype(float)
        svc.add_dataset("d", x, epsilon_cap=5.0)
        served = svc.measure("d", W, eps=1.0, rng=3)
        assert served.from_registry
        with pytest.raises(QueryMiss):
            svc.query("d", Identity(9))  # full contingency: unsupported
        with pytest.raises(QueryMiss):
            svc.query("d", Kronecker([Ones(1, 3), Identity(3)]))
        assert svc.query("d", W).hit
        assert svc.query("d", Kronecker([Ones(1, 3), Ones(1, 3)])).hit

    def test_shape_mismatch_raises_before_any_debit(self, tmp_path):
        """A programming error (wrong dataset/workload pairing) must not
        burn budget."""
        svc, _, acct = self._service(tmp_path)
        svc.add_dataset("d", np.ones(16), epsilon_cap=2.0)
        with pytest.raises(ValueError, match="does not match"):
            svc.measure("d", workload.range_total_union(8), eps=1.5)
        assert acct.spent("d") == 0.0

    def test_answer_rejects_grids_and_trials(self, tmp_path):
        svc, _, acct = self._service(tmp_path)
        svc.add_dataset("d", np.ones(8), epsilon_cap=5.0)
        with pytest.raises(ValueError, match="scalar"):
            svc.answer("d", [np.ones(8)], eps=np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="trials"):
            svc.answer("d", [np.ones(8)], eps=1.0, trials=3)
        assert acct.spent("d") == 0.0

    def test_low_eps_remeasure_keeps_accurate_reconstruction(self, tmp_path):
        svc, _, _ = self._service(tmp_path)
        W = workload.range_total_union(8)
        x = np.random.default_rng(2).poisson(30, W.shape[1]).astype(float)
        svc.add_dataset("d", x, epsilon_cap=30.0)
        served = svc.measure("d", W, eps=10.0, rng=1)
        good = svc._datasets["d"].reconstructions[served.key]
        svc.measure("d", W, eps=0.1, rng=2)
        kept = svc._datasets["d"].reconstructions[served.key]
        assert kept.eps == 10.0
        assert np.array_equal(kept.x_hat, good.x_hat)
        # A better measurement does replace the cache.
        svc.measure("d", W, eps=[0.5, 12.0], rng=3)
        assert svc._datasets["d"].reconstructions[served.key].eps == 12.0

    def test_dataset_validation(self, tmp_path):
        svc, _, _ = self._service(tmp_path)
        with pytest.raises(KeyError):
            svc.measure("ghost", Prefix(4), eps=1.0)
        with pytest.raises(ValueError):
            svc.add_dataset("d", np.ones((2, 2)))
        svc_no_acct = QueryService(registry=None, accountant=None)
        with pytest.raises(ValueError):
            svc_no_acct.add_dataset("d", np.ones(4), epsilon_cap=1.0)

    def test_eps_validation(self, tmp_path):
        svc, _, _ = self._service(tmp_path)
        svc.add_dataset("d", np.ones(8), epsilon_cap=1.0)
        for bad in (0.0, -1.0, np.inf):
            with pytest.raises(ValueError):
                svc.measure("d", Prefix(8), eps=bad)

    def test_memoryless_service_without_registry(self):
        svc = QueryService(registry=None, accountant=None, restarts=1, rng=0)
        W = Prefix(8)
        svc.add_dataset("d", np.arange(8, dtype=float))
        served = svc.measure("d", W, eps=1.0, rng=0)
        assert not served.from_registry
        # Memoized in-process: the second prepare is a hit.
        assert svc.measure("d", W, eps=1.0, rng=0).from_registry


class TestColdMissFastPath:
    """Satellite: small ad-hoc miss batches skip the fitting template and
    measure a sensitivity-1 selection on the query support directly."""

    def _service(self, tmp_path, **kwargs):
        acct = PrivacyAccountant()
        svc = QueryService(
            registry=StrategyRegistry(tmp_path / "reg"),
            accountant=acct,
            restarts=1,
            rng=0,
            **kwargs,
        )
        return svc, acct

    def test_small_miss_batch_never_fits(self, tmp_path, monkeypatch):
        svc, acct = self._service(tmp_path)
        x = np.random.default_rng(1).poisson(40, 16).astype(float)
        svc.add_dataset("d", x, epsilon_cap=5.0)
        monkeypatch.setattr(
            HDMM,
            "fit",
            lambda *a, **k: pytest.fail("cold-miss fast path ran a fit"),
        )
        q1 = np.zeros(16)
        q1[:4] = 1.0
        q2 = np.zeros(16)
        q2[2:8] = 2.0
        batch = svc.answer("d", [q1, q2], eps=0.5, rng=3)
        assert batch.misses == 2 and batch.hits == 0
        assert batch.charged == pytest.approx(0.5)
        assert acct.spent("d") == pytest.approx(0.5)
        assert all(a.key.startswith("direct:") for a in batch.answers)
        assert len(svc.registry) == 0  # one-offs never pollute the registry

    def test_direct_answers_are_accurate_at_high_eps(self, tmp_path):
        svc, _ = self._service(tmp_path)
        x = np.arange(12, dtype=float)
        svc.add_dataset("d", x, epsilon_cap=1e7)
        q = np.zeros(12)
        q[3:7] = 1.0
        batch = svc.answer("d", [q], eps=1e6, rng=0)
        assert batch.answers[0].values == pytest.approx([q @ x], abs=1e-2)

    def test_direct_measurement_is_cached_for_free_hits(self, tmp_path):
        svc, acct = self._service(tmp_path)
        x = np.random.default_rng(2).poisson(25, 10).astype(float)
        svc.add_dataset("d", x, epsilon_cap=5.0)
        q = np.zeros(10)
        q[::2] = 1.0
        first = svc.answer("d", [q], eps=1.0, rng=4)
        assert first.misses == 1
        spent = acct.spent("d")
        # Identical support → the cached direct reconstruction serves it.
        again = svc.answer("d", [q], eps=1.0, rng=5)
        assert again.hits == 1 and again.charged == 0.0
        assert acct.spent("d") == spent
        assert np.array_equal(
            again.answers[0].values, first.answers[0].values
        )

    def test_zero_query_served_free(self, tmp_path):
        svc, acct = self._service(tmp_path)
        svc.add_dataset("d", np.ones(8), epsilon_cap=1.0)
        batch = svc.answer("d", [np.zeros(8)], eps=0.5, rng=0)
        assert batch.charged == 0.0
        assert batch.answers[0].values == pytest.approx([0.0])
        assert acct.spent("d") == 0.0
        # The empty reconstruction is cached: identical traffic now hits
        # (and the answer key from the first batch names a real entry).
        assert batch.answers[0].key in svc.reconstructions("d")
        again = svc.answer("d", [np.zeros(8)])
        assert again.hits == 1 and again.charged == 0.0

    def test_threshold_zero_disables_fast_path(self, tmp_path, monkeypatch):
        from repro.service import engine as engine_mod

        monkeypatch.setattr(engine_mod, "DIRECT_MISS_ROWS", 0)
        svc, _ = self._service(tmp_path)
        svc.add_dataset("d", np.ones(8), epsilon_cap=5.0)
        fits = []
        original = HDMM.fit
        monkeypatch.setattr(
            HDMM,
            "fit",
            lambda self, W, **kw: fits.append(1) or original(self, W, **kw),
        )
        q = np.zeros(8)
        q[0] = 1.0
        batch = svc.answer("d", [q], eps=0.5, rng=1)
        assert batch.misses == 1
        assert fits  # the full fitting template ran

    def test_wide_support_misses_use_full_path(self, tmp_path, monkeypatch):
        """A few rows can still touch the whole domain (e.g. a total
        query); beyond DIRECT_MISS_SUPPORT_LIMIT cells the direct path
        would cost domain-sized dense algebra and answer poorly — such
        misses must run the fitting template instead."""
        from repro.service import engine as engine_mod

        monkeypatch.setattr(engine_mod, "DIRECT_MISS_SUPPORT_LIMIT", 4)
        svc, acct = self._service(tmp_path)
        x = np.random.default_rng(0).poisson(30, 8).astype(float)
        svc.add_dataset("d", x, epsilon_cap=5.0)
        batch = svc.answer("d", [np.ones(8)], eps=0.5, rng=1)  # support 8 > 4
        assert batch.misses == 1
        assert len(svc.registry) == 1  # the fitting template ran + persisted
        assert not batch.answers[0].key.startswith("direct:")

    def test_zero_query_invalid_eps_still_rejected(self, tmp_path):
        """The empty-support early exit must not bypass ε validation."""
        svc, acct = self._service(tmp_path)
        svc.add_dataset("d", np.ones(8), epsilon_cap=1.0)
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                svc.answer("d", [np.zeros(8)], eps=bad)
        assert acct.spent("d") == 0.0

    def test_direct_path_honors_cache_false(self, tmp_path):
        svc, _ = self._service(tmp_path)
        x = np.random.default_rng(3).poisson(25, 10).astype(float)
        svc.add_dataset("d", x, epsilon_cap=5.0)
        q = np.zeros(10)
        q[2] = 1.0
        batch = svc.answer("d", [q], eps=1.0, rng=4, cache=False)
        assert batch.misses == 1
        assert svc.reconstructions("d") == []  # nothing retained
        # The same query misses again (and pays again) — as it would on
        # the fitting path with cache=False.
        again = svc.answer("d", [q], eps=1.0, rng=5, cache=False)
        assert again.misses == 1

    def test_direct_path_rejects_unknown_options(self, tmp_path):
        """A misspelled measure option must fail on the direct path just
        like it would on the fitting path — not vanish because the miss
        batch happened to be small."""
        svc, acct = self._service(tmp_path)
        svc.add_dataset("d", np.ones(8), epsilon_cap=5.0)
        q = np.zeros(8)
        q[0] = 1.0
        with pytest.raises(TypeError, match="mehtod"):
            svc.answer("d", [q], eps=0.5, rng=1, mehtod="cg")
        assert acct.spent("d") == 0.0
        # Known solver options pass through (and are no-ops here).
        batch = svc.answer("d", [q], eps=0.5, rng=1, exact=True)
        assert batch.misses == 1

    def test_oversized_miss_batch_uses_full_path(self, tmp_path, monkeypatch):
        """Miss batches above the threshold still go through the fitted
        union-measurement path (and the registry)."""
        from repro.service import engine as engine_mod

        monkeypatch.setattr(engine_mod, "DIRECT_MISS_ROWS", 1)
        svc, acct = self._service(tmp_path)
        x = np.random.default_rng(0).poisson(30, 8).astype(float)
        svc.add_dataset("d", x, epsilon_cap=5.0)
        q1 = np.zeros(8)
        q1[:2] = 1.0
        q2 = np.ones(8)
        batch = svc.answer("d", [q1, q2], eps=0.5, rng=2)
        assert batch.misses == 2
        assert batch.charged == pytest.approx(0.5)
        assert len(svc.registry) == 1  # fitted strategy was persisted


def _union_operator(W, rng):
    """An ``opt_hdmm`` operator whose union strategy always wins the
    reduction (its loss is reported as tiny): a cold fit is a union."""
    return dataclasses.replace(opt_union(W, rng=rng), loss=1e-12)


#: Options every route refuses: an unknown name, out-of-range values and
#: an unknown method.
_BAD_OPTIONS = [
    ({"rtoll": 1e-9}, TypeError),
    ({"maxiter": 0}, ValueError),
    ({"rtol": -1.0}, ValueError),
    ({"method": "pnv"}, ValueError),
]
#: Refused where the measured strategy is a union.
_PINV_ON_UNION = ({"method": "pinv"}, ValueError)


class TestOptionsRefusedBeforeTheDebit:
    """Every miss route checks its options before the accountant debit:
    a refused option raises with ``spent`` unchanged and no WAL debit."""

    @pytest.fixture
    def setup(self, tmp_path, union_workload, fitted_union):
        wal = tmp_path / "eps.wal"
        acct = PrivacyAccountant(wal_path=str(wal))
        svc = QueryService(
            registry=StrategyRegistry(tmp_path / "reg"),
            accountant=acct,
            restarts=1,
            rng=0,
            fit_kwargs={"operators": [("union", _union_operator)], "workers": 1},
        )
        # range_total_union(8) is prepared (warm) with a union strategy;
        # range_total_union(4, 16) is not (cold, fitted as a union).
        svc.registry.put(
            union_workload, fitted_union.strategy, template=svc.template
        )
        x = np.random.default_rng(0).poisson(20, 64).astype(float)
        svc.add_dataset("d", x, epsilon_cap=100.0)
        return svc, acct, wal

    @pytest.fixture(autouse=True)
    def _metrics_on(self):
        """``service.cold_fits_total`` counts only with metrics on."""
        from repro.obs.metrics import REGISTRY

        REGISTRY.reset()
        REGISTRY.enable()
        yield
        REGISTRY.disable()
        REGISTRY.reset()

    @staticmethod
    def _cold_fits():
        from repro.obs.metrics import REGISTRY

        series = REGISTRY.snapshot().get("service.cold_fits_total", {})
        return sum(s["value"] for s in series.get("series", []))

    @classmethod
    def _assert_refused(cls, acct, wal, call, options, exc, registry):
        before = wal.read_bytes()
        fits, keys = cls._cold_fits(), registry.keys()
        with pytest.raises(exc):
            call(**options)
        assert acct.spent("d") == 0.0
        assert wal.read_bytes() == before
        if options != _PINV_ON_UNION[0]:
            # Names and values are refused before a strategy is resolved.
            assert cls._cold_fits() == fits
            assert registry.keys() == keys

    @staticmethod
    def _served(route, options):
        """The route the same request takes once valid.  A request
        refused on an option name or value fitted nothing, so a cold one
        comes back cold; ``method="pinv"`` is refused only once the
        union strategy is fitted (for free), so it comes back warm."""
        return "warm" if options == _PINV_ON_UNION[0] else route

    @pytest.mark.parametrize("options,exc", _BAD_OPTIONS + [_PINV_ON_UNION])
    def test_measure(self, setup, union_workload, options, exc):
        svc, acct, wal = setup

        def call(**o):
            return svc.measure("d", union_workload, [0.5, 1.0], rng=0, **o)

        self._assert_refused(acct, wal, call, options, exc, svc.registry)

    @pytest.mark.parametrize(
        "route,options,exc",
        [("direct", *bad) for bad in _BAD_OPTIONS]  # a selection, no union
        + [
            (route, *bad)
            for route in ("warm", "cold")
            for bad in _BAD_OPTIONS + [_PINV_ON_UNION]
        ],
    )
    def test_answer(self, setup, union_workload, route, options, exc):
        svc, acct, wal = setup
        if route == "direct":
            query = np.zeros(64)
            query[[3, 9]] = 1.0
        elif route == "warm":
            query = union_workload
        else:
            query = workload.range_total_union(4, 16)

        def call(**o):
            return svc.answer("d", [query], eps=0.5, rng=0, **o)

        self._assert_refused(acct, wal, call, options, exc, svc.registry)
        assert call().answers[0].route == self._served(route, options)

    @pytest.mark.parametrize("route", ["direct", "cold"])
    @pytest.mark.parametrize("options,exc", _BAD_OPTIONS)
    def test_session_ask_many(self, tmp_path, monkeypatch, route, options, exc):
        from repro.api import A, Schema, Session, prefix
        from repro.service import engine as engine_mod

        wal = tmp_path / "eps.wal"
        acct = PrivacyAccountant(wal_path=str(wal))
        registry = StrategyRegistry(tmp_path / "reg")
        sess = Session(registry=registry, accountant=acct, restarts=1, rng=0)
        schema = Schema.from_spec({"a": 8, "b": 8})
        ds = sess.dataset(
            "d", schema=schema, data=np.ones(64), epsilon_cap=100.0
        )
        if route == "cold":
            monkeypatch.setattr(engine_mod, "DIRECT_MISS_ROWS", 0)
        expr = A("a").eq(3) if route == "direct" else prefix("a")

        def call(**o):
            return ds.ask_many([expr], eps=0.5, rng=0, **o)

        self._assert_refused(acct, wal, call, options, exc, registry)
        assert call()[0].route == self._served(route, options)


class TestValidateEpsilonCentralized:
    """Satellite: the shared validator guards every ε entry point."""

    def test_measure_rejects_nonfinite(self):
        from repro.core.measure import laplace_measure, laplace_measure_batch

        A = Identity(4)
        for bad in (np.inf, np.nan, 0.0, -1.0):
            with pytest.raises(ValueError):
                laplace_measure(A, np.zeros(4), bad)
        with pytest.raises(ValueError):
            laplace_measure_batch(A, np.zeros(4), np.array([1.0, np.inf]))

    def test_expected_error_rejects_nonfinite(self):
        from repro.core import expected_error

        with pytest.raises(ValueError):
            expected_error(Prefix(4), Identity(4), np.inf)

    def test_run_batch_rejects_nonfinite(self):
        mech = HDMM(restarts=1, rng=0).fit(Prefix(8))
        with pytest.raises(ValueError):
            mech.run_batch(np.zeros(8), eps=np.array([1.0, np.nan]))

    def test_validator_accepts_grids(self):
        from repro.core import validate_epsilon

        out = validate_epsilon(np.array([0.1, 1.0]))
        assert out.dtype == np.float64 and out.shape == (2,)
        assert float(validate_epsilon(2)) == 2.0
        with pytest.raises(ValueError):
            validate_epsilon([])
        with pytest.raises(ValueError):
            validate_epsilon("abc")


class TestQueryDelegation:
    """Satellite: single-query query() delegates to answer()'s
    miss-batching path, so a cold single query reaches the
    direct-measure fast path (and its support-keyed cache)."""

    def _service(self, tmp_path):
        acct = PrivacyAccountant(default_cap=50.0)
        svc = QueryService(
            registry=StrategyRegistry(tmp_path / "reg"),
            accountant=acct,
            restarts=1,
            rng=0,
        )
        return svc, acct

    def test_cold_single_query_takes_direct_path(self, tmp_path, monkeypatch):
        svc, acct = self._service(tmp_path)
        x = np.random.default_rng(1).poisson(40, 16).astype(float)
        svc.add_dataset("d", x)
        monkeypatch.setattr(
            HDMM,
            "fit",
            lambda *a, **k: pytest.fail("single-query miss ran a fit"),
        )
        q = np.zeros(16)
        q[:3] = 1.0
        ans = svc.query("d", q, eps=0.5, rng=3)
        assert not ans.hit
        assert ans.key.startswith("direct:")
        assert acct.spent("d") == pytest.approx(0.5)
        # The measurement is cached: the identical query now hits free.
        again = svc.query("d", q)
        assert again.hit and np.array_equal(again.values, ans.values)
        assert acct.spent("d") == pytest.approx(0.5)

    def test_query_without_eps_still_raises_on_miss(self, tmp_path):
        svc, acct = self._service(tmp_path)
        svc.add_dataset("d", np.ones(8))
        with pytest.raises(QueryMiss):
            svc.query("d", np.ones(8))
        assert acct.spent("d") == 0.0

    def test_query_matches_single_query_answer(self, tmp_path):
        svc, _ = self._service(tmp_path)
        x = np.arange(12, dtype=float)
        svc.add_dataset("d", x)
        q = np.zeros(12)
        q[4:8] = 1.0
        via_query = svc.query("d", q, eps=1.0, rng=7)
        svc2, _ = self._service(tmp_path)
        svc2.add_dataset("d", x)
        via_answer = svc2.answer("d", [q], eps=1.0, rng=7).answers[0]
        assert np.array_equal(via_query.values, via_answer.values)


class TestWarmBeforeDirect:
    """Routing order: a warm strategy for the exact miss union beats the
    direct fast path (more accurate, never fits)."""

    def test_prepared_union_serves_small_miss_warm(self, tmp_path, monkeypatch):
        svc = QueryService(
            registry=StrategyRegistry(tmp_path / "reg"),
            accountant=PrivacyAccountant(default_cap=50.0),
            restarts=1,
            rng=0,
        )
        W = Prefix(8)  # 8 rows — well under DIRECT_MISS_ROWS
        key, _, _, _ = svc.prepare(W)
        x = np.random.default_rng(2).poisson(30, 8).astype(float)
        svc.add_dataset("d", x)
        monkeypatch.setattr(
            HDMM,
            "fit",
            lambda *a, **k: pytest.fail("warm strategy should never refit"),
        )
        batch = svc.answer("d", [W], eps=0.8, rng=5)
        assert batch.misses == 1
        assert batch.answers[0].key == key  # fitted strategy, not direct:
        assert batch.charged == pytest.approx(0.8)

    def test_unprepared_small_miss_still_goes_direct(self, tmp_path):
        svc = QueryService(
            registry=StrategyRegistry(tmp_path / "reg"),
            accountant=PrivacyAccountant(default_cap=50.0),
            restarts=1,
            rng=0,
        )
        svc.add_dataset("d", np.ones(8))
        q = np.zeros(8)
        q[0] = 1.0
        batch = svc.answer("d", [q], eps=0.5, rng=1)
        assert batch.answers[0].key.startswith("direct:")


class TestSchemaMismatchErrors:
    """Satellite: shape mismatches raise SchemaMismatchError naming the
    dataset and the expected domain."""

    def test_measure_names_dataset_and_lengths(self, tmp_path):
        from repro.service import SchemaMismatchError

        svc = QueryService(registry=None, accountant=None, restarts=1, rng=0)
        svc.add_dataset("adult", np.ones(16))
        with pytest.raises(SchemaMismatchError, match="'adult'.*16"):
            svc.measure("adult", workload.prefix_1d(8), eps=1.0)

    def test_answer_rejects_mismatched_query_width(self):
        from repro.service import SchemaMismatchError

        svc = QueryService(registry=None, accountant=None, restarts=1, rng=0)
        svc.add_dataset("adult", np.ones(16))
        with pytest.raises(SchemaMismatchError, match="'adult'.*16"):
            svc.answer("adult", [np.ones(8)], eps=1.0)

    def test_free_query_rejects_mismatched_query_width(self):
        """query() is a batch of one through answer(): a wrong width is a
        schema error even with no eps, not a cache miss."""
        from repro.service import SchemaMismatchError

        svc = QueryService(registry=None, accountant=None, restarts=1, rng=0)
        svc.add_dataset("adult", np.ones(16))
        with pytest.raises(SchemaMismatchError, match="'adult'.*16"):
            svc.query("adult", np.ones(8))

    def test_measure_with_logical_domain_names_attributes(self):
        from repro.service import SchemaMismatchError
        from repro.workload.predicates import TruePredicate

        svc = QueryService(registry=None, accountant=None, restarts=1, rng=0)
        svc.add_dataset("adult", np.ones(5))
        dom = Domain(["age", "sex"], [3, 2])
        lw = LogicalWorkload([Product(dom, {"age": [TruePredicate()]})])
        with pytest.raises(SchemaMismatchError, match="age"):
            svc.measure("adult", lw, eps=1.0)

    def test_is_also_a_value_error(self):
        from repro.domain import SchemaMismatchError

        assert issubclass(SchemaMismatchError, ValueError)
        assert issubclass(SchemaMismatchError, KeyError)

    def test_domain_lookup_names_attribute(self):
        from repro.domain import SchemaMismatchError

        dom = Domain(["age", "sex"], [3, 2])
        with pytest.raises(SchemaMismatchError, match="ghost.*age"):
            dom.index("ghost")
        with pytest.raises(SchemaMismatchError, match="ghost"):
            dom.project(["ghost"])

    def test_registryless_direct_path_skips_fingerprinting(self, monkeypatch):
        """With no registry and an empty memo, warm is impossible — the
        direct fast path must not pay the miss-union fingerprint."""
        svc = QueryService(registry=None, accountant=None, restarts=1, rng=0)
        svc.add_dataset("d", np.arange(16, dtype=float))
        monkeypatch.setattr(
            QueryService,
            "probe",
            lambda *a, **k: pytest.fail("probed with warm provably impossible"),
        )
        q = np.zeros(16)
        q[3] = 1.0
        batch = svc.answer("d", [q], eps=0.5, rng=1)
        assert batch.answers[0].key.startswith("direct:")
