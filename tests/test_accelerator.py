"""Accelerator-table acceptance tests.

The PR 7 contracts:

* accelerator answers are **bit-identical** (exact ``==``, no tolerance)
  to the cached-reconstruction matvec path across range / prefix /
  marginal / total / union / weighted / negated / bucketized queries on
  1-D through 4-D domains — on integer-valued reconstructions (every
  summation order is exact below 2^53, so the two association orders
  must agree to the bit);
* eligibility is structural and sound: anything that does not decompose
  into a bounded number of axis-aligned boxes falls through to the
  span-projection matvec path unchanged;
* tables obey the PR 6 durability contracts: atomic write, sha256 in
  the manifest, quarantine-and-rebuild from x̂ on corruption — never a
  crash, never a wrong answer;
* registry entries written while the solver persisted a recycled Ritz
  basis still load, with that basis ignored, and still solve;
* routing provenance: free box-decomposable hits report
  ``route="accelerator"`` with ε = 0 through both the engine and the
  declarative layer, and planned routes equal executed routes.
"""

import errno
import os

import numpy as np
import pytest

from repro.api import A, Schema, Session, buckets, compile_expr, marginal, prefix, total
from repro.linalg import (
    AllRange,
    Dense,
    Identity,
    Kronecker,
    Ones,
    Prefix,
    VStack,
    Weighted,
)
from repro.linalg.structured import WidthRange
from repro.service import (
    AcceleratorTable,
    PrivacyAccountant,
    QueryService,
    StrategyRegistry,
    range_spec_of,
    strategy_spans_everything,
)
from repro.util import faults
from repro.service.accelerator import MAX_BOXES_PER_ROW
from repro.service.engine import Reconstruction
from repro.workload.predicates import (
    Equals,
    Not,
    Range,
    bucket_predicates,
    vectorize_set,
)


def integer_x(n: int, seed: int = 0) -> np.ndarray:
    """Integer-valued float data: every summation order is exact."""
    return np.random.default_rng(seed).integers(0, 1000, size=n).astype(float)


DOMAINS = [(64,), (16, 4), (8, 2, 4), (3, 4, 2, 3)]


def queries_for(shape):
    """A spread of box-decomposable workloads over one domain shape."""
    d = len(shape)
    ident = [Identity(s) for s in shape]
    ones = [Ones(1, s) for s in shape]

    def kron(factors):
        return Kronecker(factors) if d > 1 else factors[0]

    qs = {
        "total": kron(ones),
        "marginal0": kron([ident[0]] + ones[1:]),
        "prefix0": kron([Prefix(shape[0])] + ones[1:]),
        "allrange0": kron([AllRange(shape[0])] + ones[1:]),
        "full_identity": kron(ident),
        "weighted": Weighted(kron([Prefix(shape[0])] + ones[1:]), 0.25),
        "union": VStack(
            [kron([ident[0]] + ones[1:]), kron(ones)]
        ),
    }
    if shape[0] >= 3:
        qs["width"] = kron([WidthRange(shape[0], 2)] + ones[1:])
    if d > 1:
        qs["marginal01"] = kron([ident[0], ident[1]] + ones[2:])
        # Negated interval on axis 0: two boxes per row.
        neg = vectorize_set([Not(Range(1, shape[0] - 1))], shape[0])
        qs["negated"] = kron([neg] + ones[1:])
        # Custom bucketization on axis 0 (overlap + gap + singleton).
        bks = vectorize_set(
            bucket_predicates([(0, 1), (1, shape[0] - 1), 0]), shape[0]
        )
        qs["buckets"] = kron([bks] + ones[1:])
    return qs


class TestBitIdentity:
    @pytest.mark.parametrize("shape", DOMAINS, ids=lambda s: f"{len(s)}d")
    def test_all_query_families_bit_identical(self, shape):
        n = int(np.prod(shape))
        x = integer_x(n)
        table = None
        for name, Q in queries_for(shape).items():
            spec = range_spec_of(Q)
            assert spec is not None, f"{name} should be eligible"
            assert spec.rows == Q.shape[0]
            if table is None or table.shape != spec.shape:
                table = AcceleratorTable(x, spec.shape)
            got = table.answer(spec)
            want = np.asarray(Q.matvec(x)).reshape(-1)
            # Exact ==, not a tolerance: integer data makes every
            # association order exact, so any difference is a bug.
            assert np.array_equal(got, want), name

    def test_one_d_prefix_and_ranges_bit_identical_on_floats(self):
        # 1-D Prefix/AllRange matvecs are themselves cumsum-based, so
        # the summed-area identity is the *same* float algebra — bitwise
        # equality holds for arbitrary float data, not just integers.
        x = np.random.default_rng(3).standard_normal(128)
        for Q in (Prefix(128), AllRange(128)):
            spec = range_spec_of(Q)
            table = AcceleratorTable(x, spec.shape)
            assert np.array_equal(table.answer(spec), Q.matvec(x))

    def test_dense_adhoc_rows(self):
        n = 64
        x = integer_x(n, seed=1)
        row = np.zeros(n)
        row[5:20] = 1.0
        Q = Dense(np.stack([row, 1.0 - row, np.full(n, 0.5)]))
        spec = range_spec_of(Q)
        assert spec is not None
        table = AcceleratorTable(x, spec.shape)
        assert np.array_equal(table.answer(spec), Q.matvec(x))

    def test_zero_row_answers_zero(self):
        n = 16
        Q = Dense(np.zeros((2, n)))
        spec = range_spec_of(Q)
        assert spec is not None and spec.rows == 2
        table = AcceleratorTable(integer_x(n), spec.shape)
        assert np.array_equal(table.answer(spec), np.zeros(2))


class TestEligibility:
    def test_alternating_mask_is_ineligible(self):
        n = 4 * MAX_BOXES_PER_ROW
        alt = np.zeros(n)
        alt[::2] = 1.0  # n/2 runs per row > MAX_BOXES_PER_ROW
        assert range_spec_of(Dense(alt[None, :])) is None

    def test_alternating_kron_factor_poisons_product(self):
        alt = np.zeros(2 * MAX_BOXES_PER_ROW + 2)
        alt[::2] = 1.0
        Q = Kronecker([Dense(alt[None, :]), Identity(4)])
        assert range_spec_of(Q) is None

    def test_mixed_vstack_shapes_are_ineligible(self):
        # Blocks folding the domain into different cubes cannot share a
        # table: the union falls back to the matvec path.
        Q = VStack(
            [Kronecker([Identity(4), Ones(1, 4)]), Dense(np.ones((1, 16)))]
        )
        assert range_spec_of(Q) is None

    def test_spec_is_memoized_on_the_instance(self):
        Q = Kronecker([Prefix(8), Ones(1, 4)])
        assert range_spec_of(Q) is range_spec_of(Q)
        bad = np.zeros(4 * MAX_BOXES_PER_ROW)
        bad[::2] = 1.0
        D = Dense(bad[None, :])
        assert range_spec_of(D) is None and range_spec_of(D) is None


class TestSpanCertificate:
    def test_structural_full_rank(self):
        assert strategy_spans_everything(Identity(8))
        assert strategy_spans_everything(Prefix(8))
        assert strategy_spans_everything(
            Kronecker([Identity(4), Prefix(3)])
        )
        assert strategy_spans_everything(
            VStack([Ones(1, 8), Weighted(Identity(8), 0.5)])
        )
        assert not strategy_spans_everything(Ones(1, 8))

    def test_pidentity_certifies(self):
        from repro.optimize.opt0 import PIdentity

        assert strategy_spans_everything(PIdentity(np.ones((2, 8))))

    def test_marginals_strategy_theta(self):
        from repro.linalg.marginals import MarginalsStrategy

        theta = np.zeros(8)
        theta[3] = 1.0
        partial = MarginalsStrategy((8, 2, 4), theta)
        assert not strategy_spans_everything(partial)
        theta2 = theta.copy()
        theta2[-1] = 1e-5  # any positive full-contingency weight
        assert strategy_spans_everything(MarginalsStrategy((8, 2, 4), theta2))


def _service_with_integer_recon(tmp_path, shape=(8, 2, 4)):
    """A service whose dataset holds one cached *integer* reconstruction
    under a certified full-rank strategy — white-box, so the bit-identity
    contract is testable end-to-end (real measurements add float noise)."""
    n = int(np.prod(shape))
    svc = QueryService(
        registry=StrategyRegistry(tmp_path / "reg"), accountant=None
    )
    svc.add_dataset("d", integer_x(n, seed=2))
    strategy = Kronecker([Identity(s) for s in shape])
    x_hat = integer_x(n, seed=7)
    svc._datasets["d"].reconstructions["k"] = Reconstruction(
        key="k", strategy=strategy, x_hat=x_hat, eps=1.0
    )
    return svc, x_hat, shape


class TestEngineRouting:
    def test_accelerator_route_and_bit_identity(self, tmp_path):
        svc, x_hat, shape = _service_with_integer_recon(tmp_path)
        Q = Kronecker(
            [Prefix(shape[0])] + [Ones(1, s) for s in shape[1:]]
        )
        ans = svc.query("d", Q)
        assert ans.hit and ans.route == "accelerator" and ans.key == "k"
        assert np.array_equal(
            ans.values, np.asarray(Q.matvec(x_hat)).reshape(-1)
        )

    def test_non_decomposable_hit_is_served_by_matvec(self, tmp_path):
        """A hit with no box decomposition is evaluated by matvec and,
        like a gathered hit, reports route "accelerator"."""
        svc, x_hat, shape = _service_with_integer_recon(tmp_path)
        n = int(np.prod(shape))
        bad = np.zeros(n)
        bad[::2] = 1.0  # too many runs: ineligible
        assert range_spec_of(Dense(bad[None, :])) is None
        ans = svc.query("d", bad)
        assert ans.hit and ans.route == "accelerator"
        assert np.array_equal(ans.values, bad[None, :] @ x_hat)
        assert svc._datasets["d"].accel == {}  # no table was built

    def test_probe_hit_matches_execution(self, tmp_path):
        svc, _, shape = _service_with_integer_recon(tmp_path)
        Q = Kronecker([Identity(s) for s in shape])
        assert svc.probe_hit("d", Q) == "k"
        assert svc.query("d", Q).key == "k"

    def test_batch_answer_routes_accelerator(self, tmp_path):
        svc, x_hat, shape = _service_with_integer_recon(tmp_path)
        qs = [
            Kronecker([Identity(s) for s in shape]),
            Kronecker([AllRange(shape[0])] + [Ones(1, s) for s in shape[1:]]),
        ]
        res = svc.answer("d", qs)
        assert res.charged == 0.0 and res.hits == 2
        for Q, qa in zip(qs, res.answers):
            assert qa.route == "accelerator"
            assert np.array_equal(
                qa.values, np.asarray(Q.matvec(x_hat)).reshape(-1)
            )

    def test_table_reused_across_queries(self, tmp_path):
        svc, _, shape = _service_with_integer_recon(tmp_path)
        svc.query("d", Kronecker([Identity(s) for s in shape]))
        ds = svc._datasets["d"]
        assert ("k", shape) in ds.accel
        t1 = ds.accel[("k", shape)]
        svc.query(
            "d", Kronecker([Prefix(shape[0])] + [Ones(1, s) for s in shape[1:]])
        )
        assert ds.accel[("k", shape)] is t1


class TestDurability:
    def test_table_persists_and_reloads(self, tmp_path):
        svc, x_hat, shape = _service_with_integer_recon(tmp_path)
        Q = Kronecker([Identity(s) for s in shape])
        v1 = svc.query("d", Q).values
        ds = svc._datasets["d"]
        assert svc.registry.table_keys()  # persisted alongside the npz
        ds.accel.clear()  # force the registry load path
        v2 = svc.query("d", Q).values
        assert np.array_equal(v1, v2)

    def test_bit_flipped_table_quarantines_and_rebuilds(self, tmp_path):
        svc, x_hat, shape = _service_with_integer_recon(tmp_path)
        Q = Kronecker([Identity(s) for s in shape])
        v1 = svc.query("d", Q).values
        root = svc.registry.root
        (tfile,) = [f for f in os.listdir(root) if f.endswith(".accel.npz")]
        path = os.path.join(root, tfile)
        data = bytearray(open(path, "rb").read())
        data[-200] ^= 0x08  # silent on-disk corruption
        open(path, "wb").write(bytes(data))
        svc._datasets["d"].accel.clear()
        ans = svc.query("d", Q)  # checksum catches it: rebuild, no crash
        assert ans.route == "accelerator"
        assert np.array_equal(ans.values, v1)
        qdir = os.path.join(root, "quarantine")
        assert any(f.startswith(tfile) for f in os.listdir(qdir))
        # The rebuild re-persisted a good copy.
        assert svc.registry.table_keys()

    def test_write_time_flip_caught_at_load(self, tmp_path):
        # The payload is mangled before the digest is computed, so the
        # manifest sha matches the corrupted file — the npz zip CRC is
        # the layer that catches this one.  Either way: quarantine, None.
        reg = StrategyRegistry(tmp_path / "reg")
        inj = faults.FaultInjector().flip_bit(
            "registry.table.payload", byte=-150, bit=2
        )
        with inj.active():
            reg.put_table("accel-test", {"table": np.arange(9.0)})
        assert inj.fired
        assert reg.get_table("accel-test") is None
        assert "accel-test" not in reg.table_keys()

    def test_transient_read_fault_is_retried_not_quarantined(self, tmp_path):
        reg = StrategyRegistry(tmp_path / "reg")
        reg.put_table("accel-eintr", {"table": np.arange(9.0)})
        inj = faults.FaultInjector().fail("registry.table.load", errno.EINTR)
        with inj.active():
            arrays = reg.get_table("accel-eintr")
        assert inj.fired
        assert np.array_equal(arrays["table"], np.arange(9.0))
        assert "accel-eintr" in reg.table_keys()
        qdir = os.path.join(reg.root, "quarantine")
        assert not os.path.isdir(qdir) or not os.listdir(qdir)

    def test_missing_table_file_is_a_miss(self, tmp_path):
        reg = StrategyRegistry(tmp_path / "reg")
        reg.put_table("accel-gone", {"table": np.arange(4.0)})
        os.remove(os.path.join(reg.root, "accel-gone.accel.npz"))
        assert reg.get_table("accel-gone") is None

    def test_stale_table_ignored_after_remeasure(self, tmp_path):
        svc, x_hat, shape = _service_with_integer_recon(tmp_path)
        Q = Kronecker([Identity(s) for s in shape])
        svc.query("d", Q)
        ds = svc._datasets["d"]
        # Re-measurement replaces the reconstruction: in-memory tables
        # must drop, and the persisted table (keyed to the old x̂ digest)
        # must be ignored and overwritten.
        new_x = x_hat + 1.0
        ds.reconstructions["k"] = Reconstruction(
            key="k", strategy=ds.reconstructions["k"].strategy,
            x_hat=new_x, eps=2.0,
        )
        svc._invalidate_tables(ds, "k")
        assert ("k", shape) not in ds.accel
        ans = svc.query("d", Q)
        assert np.array_equal(
            ans.values, np.asarray(Q.matvec(new_x)).reshape(-1)
        )

    def test_rebuilt_manifest_skips_table_files(self, tmp_path):
        reg = StrategyRegistry(tmp_path / "reg")
        W = Kronecker([Identity(4), Ones(1, 3)])
        key = reg.put(W, W)
        reg.put_table("accel-x", {"table": np.arange(5.0)})
        # Corrupt the manifest: the rebuild must recover the strategy
        # entry but never mistake a table file for one.
        open(reg.manifest_path, "w").write("{ not json")
        fresh = StrategyRegistry(reg.root)
        assert fresh.keys() == [key]


def _l3_union():
    return VStack(
        [
            Kronecker([Identity(4), Ones(1, 3)]),
            Kronecker([Ones(1, 4), Identity(3)]),
            Kronecker([Prefix(4), Prefix(3)]),
        ]
    )


class TestRitzPersistence:
    """The solver no longer recycles a Ritz basis; entries that persisted
    one must still load and solve, and new entries carry none."""

    def test_legacy_recycle_fields_are_ignored(self, tmp_path, monkeypatch):
        """Entries written when the solver recycled a Ritz basis carry
        ``recycle_U/GU/ritz/tuning`` beside the preconditioner factors
        (``precond_*``, a shape restore no longer writes).  They must
        still load — the whole state ignored, re-factored on first use —
        and solve."""
        from repro.core.reconstruct import least_squares
        from repro.core.solvers import union_gram_solver
        from repro.service import registry as registry_mod

        def legacy_export(A):
            solver = union_gram_solver(A)
            state = {
                "precond_factors": list(solver.factors),
                "precond_lam": solver.lam,
                "precond_blocks": list(solver.blocks),
            }
            U = np.random.default_rng(5).standard_normal((A.shape[1], 3))
            state.update(
                recycle_U=U,
                recycle_GU=np.asarray(A.gram().matmat(U)),
                recycle_ritz=np.array([3.0, 2.0, 1.0]),
                recycle_tuning={
                    "max_vectors": 48, "harvest_columns": 4,
                    "ritz_per_column": 8, "max_lanczos": 48, "ritz_tol": 1e-3,
                },
            )
            return state

        reg = StrategyRegistry(tmp_path / "reg")
        monkeypatch.setattr(registry_mod, "export_gram_solver_state", legacy_export)
        key = reg.put(_l3_union(), _l3_union())
        monkeypatch.undo()
        with np.load(reg._strategy_path(key)) as npz:
            config = str(npz["__config__"])
        assert "recycle_U" in config and "precond_factors" in config

        loaded = StrategyRegistry(tmp_path / "reg").load(key).strategy
        assert loaded.cache_get("gram_recycle_state") is None
        assert loaded.cache_get("union_gram_solver") is None
        Y = np.random.default_rng(6).standard_normal((loaded.shape[0], 3))
        X = least_squares(loaded, Y)
        ref = np.linalg.pinv(loaded.dense()) @ Y
        assert np.allclose(X, ref, atol=1e-8)
        assert np.array_equal(X, least_squares(_l3_union(), Y))

    def test_refresh_rewrites_entry(self, tmp_path):
        A_strat = _l3_union()
        reg = StrategyRegistry(tmp_path / "reg")
        key = reg.put(A_strat, A_strat)
        assert reg.refresh_solver_state(key, A_strat)
        loaded = StrategyRegistry(tmp_path / "reg").load(key)
        assert loaded.meta["solver_state"]
        assert loaded.strategy.cache_get("union_gram_solver") is not None

    def test_refresh_unknown_key_is_noop(self, tmp_path):
        reg = StrategyRegistry(tmp_path / "reg")
        assert not reg.refresh_solver_state("nope", _l3_union())

    def test_strategy_without_basis_round_trips_unchanged(self, tmp_path):
        A_strat = _l3_union()
        reg = StrategyRegistry(tmp_path / "reg")
        key = reg.put(A_strat, A_strat)
        with np.load(reg._strategy_path(key)) as npz:
            assert "recycle" not in str(npz["__config__"])
        loaded = reg.load(key).strategy
        saved = A_strat.cache_get("union_gram_solver")
        got = loaded.cache_get("union_gram_solver")
        assert got.blocks == saved.blocks and got.pivots == saved.pivots
        assert np.array_equal(got.lam, saved.lam)
        for E_got, E_saved in zip(got.factors, saved.factors):
            assert np.array_equal(E_got, E_saved)


class TestBucketization:
    def small_schema(self):
        return Schema.from_spec({"age": 8, "sex": ["M", "F"], "hours": 4})

    def test_buckets_compile_and_answer(self):
        s = self.small_schema()
        e = buckets("age", (0, 2), (3, 5), 7)  # gap at 6, singleton 7
        Q = e.compile(s)
        assert Q.shape == (3, s.domain.size())
        x = integer_x(s.domain.size())
        cube = x.reshape(8, 2, 4)
        want = np.array(
            [
                cube[0:3].sum(),
                cube[3:6].sum(),
                cube[7].sum(),
            ]
        )
        assert np.allclose(np.asarray(Q.matvec(x)).reshape(-1), want)

    def test_buckets_are_accelerator_eligible(self):
        s = self.small_schema()
        cq = compile_expr(buckets("age", (0, 3), (2, 6), 5), s)
        assert cq.range_spec is not None
        assert cq.range_spec.rows == 3

    def test_bucketize_attribute_handle_with_labels(self):
        s = self.small_schema()
        Q = A("sex").bucketize("M", "F", ("M", "F")).compile(s)
        x = integer_x(s.domain.size())
        cube = x.reshape(8, 2, 4)
        want = np.array([cube[:, 0].sum(), cube[:, 1].sum(), cube.sum()])
        assert np.allclose(np.asarray(Q.matvec(x)).reshape(-1), want)

    def test_empty_bucket_rejected(self):
        s = self.small_schema()
        with pytest.raises(ValueError, match="empty"):
            buckets("age", (5, 2)).compile(s)
        with pytest.raises(ValueError, match="at least one"):
            buckets("age")
        with pytest.raises(ValueError, match="pair"):
            buckets("age", (1, 2, 3))

    def test_buckets_end_to_end_accelerator_route(self, tmp_path):
        sess = Session(
            registry=StrategyRegistry(tmp_path / "reg"),
            accountant=PrivacyAccountant(default_cap=100.0),
            restarts=1,
            rng=0,
        )
        s = self.small_schema()
        x = integer_x(s.domain.size())
        ds = sess.dataset("d", schema=s, data=x)
        ds.ask_many([marginal("age")], eps=1.0, rng=1)  # seed the cache
        ans = ds.ask(buckets("age", (0, 3), (4, 7)))
        assert ans.route == "accelerator" and ans.epsilon == 0.0


def test_bench_accelerator_scenario_quick():
    """The benchmark scenario rides tier-1 in quick mode, and the
    committed trajectory must carry the acceptance-level record — the
    O(1) read path cannot silently rot."""
    import json
    import sys

    bench_dir = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")
    sys.path.insert(0, bench_dir)
    try:
        from bench_perf_regression import bench_accelerator
    finally:
        sys.path.remove(bench_dir)
    ac = bench_accelerator(shape=(8, 4, 4), reps=10, build_reps=1)
    assert ac["single_hit_values_exact"] and ac["batch_values_exact"]
    assert ac["batch_answers_per_sec"] > 100_000
    assert ac["single_hit_speedup"] > 1.0

    with open(os.path.join(bench_dir, os.pardir, "BENCH_PERF.json")) as f:
        recorded = json.load(f)
    rec = recorded["accelerator"]
    assert rec["single_hit_speedup"] >= 50.0
    assert rec["batch_answers_per_sec"] >= 100_000
    assert rec["single_hit_values_exact"] and rec["batch_values_exact"]
    # Satellite contract: planning against a warm cache must not cost
    # more than the cold plan did.
    assert recorded["api_planner"]["plan_warm_le_cold"]


class TestSessionProvenance:
    def test_plan_and_execution_agree_on_accelerator(self, tmp_path):
        sess = Session(
            registry=StrategyRegistry(tmp_path / "reg"),
            accountant=PrivacyAccountant(default_cap=100.0),
            restarts=1,
            rng=0,
        )
        s = Schema.from_spec({"age": 8, "sex": ["M", "F"], "hours": 4})
        x = integer_x(s.domain.size())
        ds = sess.dataset("d", schema=s, data=x)
        exprs = [marginal("age", "sex"), prefix("age"), total()]
        ds.ask_many(exprs, eps=1.0, rng=1)
        plan = ds.plan(exprs)
        assert [e.route for e in plan.entries] == ["accelerator"]
        assert plan.total_epsilon == 0.0
        assert "summed-area gather" in plan.explain()
        answers = ds.ask_many(exprs)
        assert all(
            a.route == "accelerator" and a.epsilon == 0.0 for a in answers
        )

    def test_plan_groups_gather_and_matvec_hits_by_key(self, tmp_path):
        """Hits group by covering key alone; the entry's detail says how
        many of them gather and how many go through the matvec."""
        sess = Session(
            registry=StrategyRegistry(tmp_path / "reg"),
            accountant=PrivacyAccountant(default_cap=100.0),
            restarts=1,
            rng=0,
        )
        s = Schema.from_spec({"age": 40, "sex": ["M", "F"]})
        ds = sess.dataset("d", schema=s, data=integer_x(s.domain.size()))
        ds.ask_many([marginal("age", "sex")], eps=1.0, rng=1)
        exprs = [marginal("age"), A("age").isin(list(range(0, 40, 2)))]
        plan = ds.plan(exprs)
        (entry,) = plan.entries
        assert entry.route == "accelerator" and entry.epsilon == 0.0
        assert entry.detail == "summed-area gather (1) + matvec (1)"
        assert [a.route for a in ds.ask_many(exprs)] == ["accelerator"] * 2
