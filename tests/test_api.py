"""Tests for the declarative query API (schema, expressions, planner,
Session) and its acceptance contracts:

* compiled expressions are *structurally identical* to the hand-built
  physical workloads, so `Session.ask_many` answers are bit-identical
  (exact mode) to `QueryService.answer` over the same matrices;
* `Plan` ε estimates equal the accountant's actual debits;
* planner dedup makes repeated expressions in one batch cost one debit.
"""

import numpy as np
import pytest

from repro import HDMM
from repro.api import (
    A,
    Plan,
    Schema,
    SchemaMismatchError,
    Session,
    compile_batch,
    compile_expr,
    count,
    marginal,
    prefix,
    ranges,
    total,
    union,
)
from repro.linalg import AllRange, Dense, Identity, Kronecker, Ones, Prefix, VStack, Weighted
from repro.service import (
    PrivacyAccountant,
    QueryService,
    StrategyRegistry,
    workload_fingerprint,
)
from repro.workload import builders


def small_schema() -> Schema:
    return Schema.from_spec({"age": 8, "sex": ["M", "F"], "hours": 4})


def make_session(tmp_path=None, cap=100.0, **kwargs) -> Session:
    registry = StrategyRegistry(tmp_path / "reg") if tmp_path else None
    return Session(
        registry=registry,
        accountant=PrivacyAccountant(default_cap=cap),
        restarts=1,
        rng=0,
        **kwargs,
    )


def poisson_data(schema: Schema, seed=0):
    return (
        np.random.default_rng(seed)
        .poisson(20, schema.domain.size())
        .astype(float)
    )


class TestSchema:
    def test_from_spec_kinds(self):
        s = small_schema()
        assert s.domain.attributes == ("age", "sex", "hours")
        assert s.domain.sizes == (8, 2, 4)
        assert s.attribute("sex").categorical
        assert not s.attribute("age").categorical

    def test_encode_labels_and_codes(self):
        s = small_schema()
        assert s.encode("sex", "F") == 1
        assert s.encode("sex", 0) == 0
        assert s.encode("age", 3) == 3

    def test_out_of_vocabulary_names_attribute(self):
        s = small_schema()
        with pytest.raises(SchemaMismatchError, match="sex.*'X'.*'M', 'F'"):
            s.encode("sex", "X")

    def test_unhashable_value_names_attribute(self):
        with pytest.raises(SchemaMismatchError, match="sex"):
            small_schema().encode("sex", ["M"])

    def test_out_of_range_ordinal(self):
        with pytest.raises(SchemaMismatchError, match="age"):
            small_schema().encode("age", 99)

    def test_unknown_attribute_names_schema(self):
        with pytest.raises(SchemaMismatchError, match="ghost.*age"):
            small_schema().attribute("ghost")

    def test_from_domain_roundtrip(self):
        s = small_schema()
        assert Schema.from_domain(s.domain).domain == s.domain

    def test_numpy_integer_codes_accepted(self):
        """Codes pulled from numpy arrays (np.int64 etc.) are legal."""
        s = small_schema()
        assert s.encode("age", np.int64(5)) == 5
        assert s.encode("sex", np.int32(1)) == 1
        with pytest.raises(SchemaMismatchError):
            s.encode("age", np.int64(99))
        s2 = Schema.from_spec({"age": np.int64(8)})
        assert s2.domain.sizes == (8,)
        W = compile_expr(A("age").eq(np.int64(2)), s)
        assert W.matrix.shape[0] == 1

    def test_duplicate_vocabulary_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Schema.from_spec({"sex": ["M", "M"]})


class TestExpressionCompile:
    """Compiled expressions must be structurally identical to the
    physical workloads a caller would hand-build."""

    def test_marginal_matches_builder(self):
        s = small_schema()
        W = compile_expr(marginal("age", "sex"), s).matrix
        ref = builders.marginal(s.domain, ["age", "sex"])
        assert isinstance(W, Kronecker)
        assert np.array_equal(W.dense(), ref.dense())
        assert isinstance(W.factors[0], Identity)
        assert isinstance(W.factors[2], Ones)

    def test_prefix_and_ranges_structured_factors(self):
        s = small_schema()
        Wp = compile_expr(prefix("age"), s).matrix
        assert isinstance(Wp.factors[0], Prefix)
        Wr = compile_expr(ranges("hours"), s).matrix
        assert isinstance(Wr.factors[2], AllRange)

    def test_total_is_ones_row(self):
        s = small_schema()
        W = compile_expr(total(), s).matrix
        assert W.shape == (1, s.domain.size())
        assert all(isinstance(f, Ones) for f in W.factors)

    def test_conjunction_single_row(self):
        s = small_schema()
        e = A("age").between(2, 5) & A("sex").eq("F")
        W = compile_expr(e, s).matrix
        assert W.shape[0] == 1
        dense = W.dense().reshape(s.domain.shape())
        assert dense[2:6, 1, :].sum() == dense.sum()

    def test_same_attribute_conditions_conjoin(self):
        s = small_schema()
        e = A("age").ge(2) & A("age").le(5)
        W = compile_expr(e, s).matrix
        ref = compile_expr(A("age").between(2, 5), s).matrix
        assert np.array_equal(W.dense(), ref.dense())

    def test_negation_on_categorical(self):
        s = small_schema()
        W = compile_expr(~A("sex").eq("F"), s).matrix
        ref = compile_expr(A("sex").eq("M"), s).matrix
        assert np.array_equal(W.dense(), ref.dense())

    def test_weighted_union(self):
        s = small_schema()
        W = compile_expr(marginal("age") + 0.25 * total(), s).matrix
        assert isinstance(W, VStack)
        assert isinstance(W.blocks[1], Weighted)
        assert W.blocks[1].weight == 0.25

    def test_union_factory_with_weights(self):
        s = small_schema()
        W = compile_expr(
            union(marginal("age"), total(), weights=[2.0, 1.0]), s
        ).matrix
        assert isinstance(W.blocks[0], Weighted)
        assert W.blocks[0].weight == 2.0

    def test_count_is_conjunction(self):
        s = small_schema()
        W = compile_expr(count(A("hours").eq(1), A("sex").eq("M")), s).matrix
        assert W.shape[0] == 1

    def test_unknown_attribute_raises(self):
        with pytest.raises(SchemaMismatchError, match="ghost"):
            compile_expr(marginal("ghost"), small_schema())

    def test_labels_resolve_through_vocabulary(self):
        s = small_schema()
        W = compile_expr(A("sex").eq("F"), s).matrix
        dense = W.dense().reshape(s.domain.shape())
        assert dense[:, 1, :].sum() == dense.sum() > 0


class TestCompilerEdgeCases:
    """Satellite: predicate-compiler edge cases."""

    def test_empty_predicate_zero_support(self):
        """isin([]) — the unsatisfiable predicate: an all-zero row."""
        s = small_schema()
        cq = compile_expr(A("hours").isin([]), s)
        assert cq.rows == 1
        assert not cq.matrix.dense().any()

    def test_empty_predicate_served_free(self, tmp_path):
        sess = make_session(tmp_path)
        ds = sess.dataset(
            "d", schema=small_schema(), data=poisson_data(small_schema())
        )
        ans = ds.ask(A("hours").isin([]), eps=1.0)
        assert ans.values == pytest.approx([0.0])
        assert ds.spent == 0.0  # data-independent: pure post-processing

    def test_full_domain_range_collapses_to_total(self):
        s = small_schema()
        cq = compile_expr(A("age").between(0, 7), s)
        assert all(isinstance(f, Ones) for f in cq.matrix.factors)
        # ... and canonicalizes to the *same fingerprint* as total().
        assert cq.fingerprint == compile_expr(total(), s).fingerprint

    def test_full_domain_ge_le_collapse(self):
        s = small_schema()
        t = compile_expr(total(), s).fingerprint
        assert compile_expr(A("age").ge(0), s).fingerprint == t
        assert compile_expr(A("age").le(7), s).fingerprint == t

    def test_out_of_vocabulary_raises_at_compile(self):
        with pytest.raises(SchemaMismatchError, match="sex"):
            compile_expr(A("sex").eq("X"), small_schema())

    def test_duplicates_dedup_in_batch(self):
        s = small_schema()
        batch = compile_batch(
            [marginal("age"), total(), marginal("age"), A("age").between(0, 7)],
            s,
        )
        assert len(batch.queries) == 2  # marginal + (total == full range)
        assert batch.index_map == [0, 1, 0, 1]


class TestPlanner:
    def test_plan_routes_cold_then_cache(self, tmp_path):
        sess = make_session(tmp_path)
        s = small_schema()
        ds = sess.dataset("d", schema=s, data=poisson_data(s))
        exprs = [marginal("age", "sex"), prefix("age"), marginal("age", "hours")]
        plan = ds.plan(exprs, eps=0.5)
        assert isinstance(plan, Plan)
        assert [e.route for e in plan.entries] == ["cold"]
        assert plan.total_epsilon == 0.5
        ds.ask_many(exprs, eps=0.5, rng=1)
        plan2 = ds.plan(exprs, eps=0.5)
        # marginals/prefixes are box-decomposable, so the free hits ride
        # the summed-area accelerator (first route in the table).
        assert [e.route for e in plan2.entries] == ["accelerator"]
        assert plan2.total_epsilon == 0.0
        assert plan2.free_fraction == 1.0

    def test_plan_direct_route_for_small_cold_miss(self, tmp_path):
        sess = make_session(tmp_path)
        s = small_schema()
        ds = sess.dataset("d", schema=s, data=poisson_data(s))
        plan = ds.plan([A("age").eq(0)], eps=0.5)
        (entry,) = plan.entries
        assert entry.route == "direct"
        assert entry.epsilon == 0.5
        assert entry.expected_rmse is not None

    def test_direct_route_never_takes_a_dense_pseudo_inverse(self, monkeypatch):
        """Plan, ask and free-read through a direct reconstruction on a
        4,096-cell schema with ``np.linalg.pinv`` unavailable."""

        def no_pinv(*args, **kwargs):
            raise AssertionError("dense pseudo-inverse on the direct route")

        monkeypatch.setattr(np.linalg, "pinv", no_pinv)
        s = Schema.from_spec(
            {"age": 32, "income": 16, "race": 4, "sex": ["M", "F"]}
        )
        ds = make_session().dataset("d", schema=s, data=poisson_data(s))
        box = (
            A("age").between(3, 5) & A("income").between(0, 3)
            & A("race").eq(1) & A("sex").eq("M")
        )
        (entry,) = ds.plan([box], eps=1.0).entries
        assert entry.route == "direct" and entry.epsilon == 1.0
        assert entry.detail == "selection measurement on 12 cells"
        assert entry.rmse_laplace > 0 and entry.rmse_gaussian > 0
        miss = ds.ask(box, eps=1.0, rng=0)
        assert miss.route == "direct" and miss.key == entry.key
        hit = ds.ask(box)
        assert hit.route == "accelerator" and hit.key == entry.key
        assert np.allclose(hit.values, miss.values)

    def test_plan_warm_route_after_prepare(self, tmp_path):
        sess = make_session(tmp_path)
        s = small_schema()
        ds = sess.dataset("d", schema=s, data=poisson_data(s))
        W = compile_expr(marginal("age"), s).matrix
        sess.service.prepare(W)  # budget-free SELECT, warm memo
        plan = ds.plan([marginal("age")], eps=0.5)
        (entry,) = plan.entries
        assert entry.route == "warm"
        assert entry.expected_rmse is not None

    def test_plan_epsilon_matches_actual_debits(self, tmp_path):
        """Acceptance: Plan ε estimates equal the accountant's debits,
        on every route."""
        sess = make_session(tmp_path)
        s = small_schema()
        ds = sess.dataset("d", schema=s, data=poisson_data(s))
        acct = sess.service.accountant

        # cold (36 rows > direct threshold → fitting path)
        exprs = [marginal("age", "hours"), A("sex").eq("M"), prefix("age", ), ranges("hours")]
        plan = ds.plan(exprs, eps=0.7)
        before = acct.spent("d")
        ds.ask_many(exprs, eps=0.7, rng=2)
        assert acct.spent("d") - before == pytest.approx(plan.total_epsilon)

        # cache (same batch again → free)
        plan = ds.plan(exprs, eps=0.7)
        assert plan.total_epsilon == 0.0
        before = acct.spent("d")
        ds.ask_many(exprs, eps=0.7, rng=3)
        assert acct.spent("d") == before

        # direct (fresh narrow query)
        plan = ds.plan([A("age").eq(1) & A("sex").eq("F")], eps=0.3)
        before = acct.spent("d")
        ds.ask_many([A("age").eq(1) & A("sex").eq("F")], eps=0.3, rng=4)
        assert acct.spent("d") - before == pytest.approx(plan.total_epsilon)

    def test_dedup_single_debit(self, tmp_path):
        """Acceptance: repeated expressions in one batch cost one debit."""
        sess = make_session(tmp_path)
        s = small_schema()
        ds = sess.dataset("d", schema=s, data=poisson_data(s))
        acct = sess.service.accountant
        e = A("age").between(1, 3)
        answers = ds.ask_many([e, e, e, A("age").between(1, 3)], eps=0.5, rng=5)
        assert acct.spent("d") == pytest.approx(0.5)  # one joint debit
        vals = [a.values for a in answers]
        for v in vals[1:]:
            assert np.array_equal(v, vals[0])  # one measurement, shared

    def test_plan_without_eps_marks_misses_unexecutable(self, tmp_path):
        """A plan with misses but no eps must not claim the batch is
        free — execution would raise QueryMiss, not debit 0."""
        from repro.service import QueryMiss

        sess = make_session(tmp_path)
        s = small_schema()
        ds = sess.dataset("d", schema=s, data=poisson_data(s))
        plan = ds.plan([total()])  # cold miss, no eps
        assert plan.requires_epsilon
        assert plan.entries[-1].epsilon is None
        assert plan.free_fraction == 0.0
        with pytest.raises(QueryMiss):
            ds.ask_many([total()])
        assert ds.spent == 0.0
        # Even the empty-support group is unexecutable without eps.
        plan_zero = ds.plan([A("hours").isin([])])
        assert plan_zero.requires_epsilon
        with pytest.raises(QueryMiss):
            ds.ask(A("hours").isin([]))

    def test_warm_provenance_reported_by_engine(self, tmp_path):
        sess = make_session(tmp_path)
        s = small_schema()
        ds = sess.dataset("d", schema=s, data=poisson_data(s))
        W = compile_expr(marginal("age"), s).matrix
        sess.service.prepare(W)
        ans = ds.ask(marginal("age"), eps=0.5, rng=1)
        assert ans.route == "warm" and not ans.span_projected

    def test_empty_batch(self, tmp_path):
        sess = make_session(tmp_path)
        s = small_schema()
        ds = sess.dataset("d", schema=s, data=poisson_data(s))
        assert ds.ask_many([], eps=1.0) == []
        assert ds.plan([], eps=1.0).total_epsilon == 0.0

    def test_explain_is_printable(self, tmp_path):
        sess = make_session(tmp_path)
        s = small_schema()
        ds = sess.dataset("d", schema=s, data=poisson_data(s))
        text = ds.plan([marginal("age"), total()], eps=0.5).explain()
        assert "ε" in text and "direct" in text


class TestSessionFacade:
    def test_dataset_registration_and_budget(self, tmp_path):
        sess = make_session(tmp_path)
        s = small_schema()
        ds = sess.dataset("d", schema=s, data=poisson_data(s), epsilon_cap=2.0)
        assert ds.spent == 0.0 and ds.remaining == 2.0
        assert sess.dataset("d") is ds
        with pytest.raises(ValueError, match="already registered"):
            sess.dataset("d", schema=s, data=poisson_data(s))
        # A cap on a fetch would be silently ignored — reject it instead.
        with pytest.raises(ValueError, match="already registered"):
            sess.dataset("d", epsilon_cap=1.0)

    def test_tensor_data_flattens_c_order(self, tmp_path):
        sess = make_session(tmp_path, cap=1e7)
        s = small_schema()
        tensor = np.arange(s.domain.size(), dtype=float).reshape(s.domain.shape())
        ds = sess.dataset("d", schema=s, data=tensor)
        ans = ds.ask(total(), eps=1e6, rng=0)
        assert ans.values == pytest.approx([tensor.sum()], rel=1e-3)

    def test_wrong_shape_names_dataset_and_domain(self, tmp_path):
        sess = make_session(tmp_path)
        s = small_schema()
        with pytest.raises(SchemaMismatchError, match="'d'.*age"):
            sess.dataset("d", schema=s, data=np.ones(7))
        with pytest.raises(SchemaMismatchError, match="'d'"):
            sess.dataset("d", schema=s, data=np.ones((3, 3)))

    def test_unregistered_dataset(self, tmp_path):
        with pytest.raises(SchemaMismatchError, match="ghost"):
            make_session(tmp_path).dataset("ghost")

    def test_provenance_fields(self, tmp_path):
        sess = make_session(tmp_path)
        s = small_schema()
        ds = sess.dataset("d", schema=s, data=poisson_data(s))
        miss = ds.ask(A("age").eq(2), eps=0.5, rng=1)
        assert miss.route == "direct" and not miss.span_projected
        assert miss.epsilon == pytest.approx(0.5)
        hit = ds.ask(A("age").eq(2))
        # A point query is a one-box gather: the free hit rides the
        # accelerator, still zero-budget and from the same measurement.
        assert hit.route == "accelerator" and hit.span_projected
        assert hit.epsilon == 0.0 and hit.key == miss.key
        assert hit.value == pytest.approx(miss.value)

    def test_miss_without_eps_raises_before_spend(self, tmp_path):
        from repro.service import QueryMiss

        sess = make_session(tmp_path)
        s = small_schema()
        ds = sess.dataset("d", schema=s, data=poisson_data(s))
        with pytest.raises(QueryMiss):
            ds.ask(marginal("age"))
        assert ds.spent == 0.0

    def test_existing_service_passthrough(self):
        svc = QueryService(restarts=1, rng=0)
        sess = Session(service=svc)
        assert sess.service is svc
        with pytest.raises(ValueError):
            Session(service=svc, restarts=2)


class TestEndToEndEquivalence:
    """Acceptance: Session answers ≡ the physical API on the same
    compiled workload, bit for bit, at a fixed seed."""

    def _hand_built(self, s):
        d = s.domain
        return [
            builders.marginal(d, ["age", "hours"]),  # 32 rows
            builders.marginal(d, ["age", "sex"]),  # 16 rows
            Kronecker([Prefix(8), Ones(1, 2), Ones(1, 4)]),
        ]

    def _exprs(self):
        return [
            marginal("age", "hours"),
            marginal("age", "sex"),
            prefix("age"),
        ]

    @pytest.mark.parametrize("threshold", [0, 32])
    def test_bit_identical_to_matrix_level(self, tmp_path, monkeypatch, threshold):
        """Both the fitted path (DIRECT_MISS_ROWS=0 → cold fit) and the
        direct path (rows ≤ 32) must agree bit-for-bit with
        QueryService.answer on hand-built matrices at the same seeds."""
        from repro.service import engine as engine_mod

        monkeypatch.setattr(engine_mod, "DIRECT_MISS_ROWS", threshold)
        s = small_schema()
        x = poisson_data(s)
        exprs = self._exprs() if threshold == 0 else [self._exprs()[1]]
        mats = (
            self._hand_built(s) if threshold == 0 else [self._hand_built(s)[1]]
        )

        svc = QueryService(
            registry=StrategyRegistry(tmp_path / "phys"),
            accountant=PrivacyAccountant(default_cap=100.0),
            restarts=1,
            rng=0,
        )
        svc.add_dataset("d", x)
        physical = svc.answer("d", mats, eps=0.8, rng=11, exact=True)

        sess = Session(
            registry=StrategyRegistry(tmp_path / "decl"),
            accountant=PrivacyAccountant(default_cap=100.0),
            restarts=1,
            rng=0,
        )
        ds = sess.dataset("d", schema=s, data=x)
        declarative = ds.ask_many(exprs, eps=0.8, rng=11, exact=True)

        assert len(declarative) == len(physical.answers)
        for decl, phys in zip(declarative, physical.answers):
            assert np.array_equal(decl.values, phys.values)

    def test_compiled_plan_accepted_by_hdmm_and_fingerprint(self):
        """core/hdmm + fingerprint accept compiled plans directly."""
        s = small_schema()
        cq = compile_expr(marginal("age", "sex"), s)
        mech = HDMM(restarts=1, rng=0).fit(cq)
        assert mech.strategy is not None
        assert workload_fingerprint(cq) == workload_fingerprint(
            cq.matrix, domain=s.domain
        )
        batch = compile_batch([marginal("age"), total()], s)
        assert workload_fingerprint(batch) == workload_fingerprint(
            batch.to_workload_matrix(), domain=s.domain
        )

    def test_registry_shared_across_layers(self, tmp_path):
        """A strategy fitted through the declarative layer is found warm
        by the physical layer (same fingerprints), and vice versa."""
        s = small_schema()
        sess = make_session(tmp_path)
        ds = sess.dataset("d", schema=s, data=poisson_data(s))
        exprs = [marginal("age", "hours"), prefix("age")]  # > threshold
        ds.ask_many(exprs, eps=0.5, rng=1)
        assert len(sess.service.registry) == 1

        svc = QueryService(
            registry=StrategyRegistry(tmp_path / "reg"), restarts=1, rng=0
        )
        W = VStack([cq.matrix for cq in ds.compile_many(exprs).queries])
        key, _, _, from_registry = svc.prepare(W)
        assert from_registry
