"""Tests for the performance engine: parallel restarts, Gram caching, and
batched Kronecker matmat (kmatmat)."""

import os

import numpy as np
import pytest

from repro.core.error import squared_error, workload_marginal_traces
from repro.domain import Domain
from repro.linalg import (
    AllRange,
    Dense,
    Identity,
    Kronecker,
    Ones,
    Prefix,
    Total,
    VStack,
    Weighted,
    WidthRange,
    kmatmat,
    kmatvec,
)
from repro.linalg import marginals
from repro.linalg.marginals import MarginalsAlgebra
from repro.optimize import (
    OptResult,
    PIdentity,
    default_operators,
    driver,
    opt_0,
    opt_general,
    opt_hdmm,
    opt_kron,
    opt_marginals,
    opt_union,
)
from repro.optimize.parallel import (
    best_index,
    reduce_best,
    resolve_executor,
    resolve_workers,
    run_tasks,
    spawn_generators,
    spawn_seeds,
)
from repro.workload import k_way_marginals, prefix_identity, range_total_union
from repro.workload.util import as_union_of_products


class TestSeedSpawning:
    def test_spawn_deterministic_for_int_seed(self):
        a = [g.random(3) for g in spawn_generators(42, 4)]
        b = [g.random(3) for g in spawn_generators(42, 4)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_children_are_independent_streams(self):
        gens = spawn_generators(0, 3)
        draws = [g.random(4) for g in gens]
        assert not np.allclose(draws[0], draws[1])
        assert not np.allclose(draws[1], draws[2])

    def test_fresh_generators_with_same_seed_spawn_identically(self):
        a = [g.random(2) for g in spawn_generators(np.random.default_rng(7), 3)]
        b = [g.random(2) for g in spawn_generators(np.random.default_rng(7), 3)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_reused_generator_advances_between_calls(self):
        """Sharing one Generator across optimizer calls must keep giving
        fresh randomness (Monte-Carlo loops reuse a single stream)."""
        gen = np.random.default_rng(7)
        first = [g.random(2) for g in spawn_generators(gen, 2)]
        second = [g.random(2) for g in spawn_generators(gen, 2)]
        assert not np.allclose(first[0], second[0])

    def test_prefix_stability(self):
        """Child i does not depend on how many children are spawned after it."""
        few = spawn_seeds(5, 2)
        many = spawn_seeds(5, 6)
        assert few[0].entropy == many[0].entropy
        assert few[0].spawn_key == many[0].spawn_key
        assert few[1].spawn_key == many[1].spawn_key


class TestEngine:
    def test_run_tasks_preserves_payload_order(self):
        out = run_tasks(lambda x: x * 2, list(range(10)), workers=4)
        assert out == [x * 2 for x in range(10)]

    def test_best_index_min_loss_first_index_ties(self):
        assert best_index([3.0, 1.0, 1.0, 2.0]) == 1
        assert best_index([np.inf, np.nan]) is None
        assert best_index([]) is None

    def test_reduce_best_with_validity(self):
        assert reduce_best([-1.0, 2.0, 3.0], loss=lambda x: x,
                           valid=lambda l: l > 0) == 2.0

    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(-1) >= 1

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            run_tasks(lambda x: x, [1, 2], workers=2, executor="gpu")
        with pytest.raises(ValueError):
            resolve_executor("gpu")


def _pid(_):
    return os.getpid()


class TestAutoExecutor:
    """executor="auto" picks processes at any size when more than one CPU
    is usable, threads when one is; usable means the affinity mask, not
    the host's CPU count."""

    @staticmethod
    def _usable(monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)

    def test_explicit_choices_pass_through(self, monkeypatch):
        for cpus in (1, 2):
            self._usable(monkeypatch, cpus)
            assert resolve_executor("thread") == "thread"
            assert resolve_executor("process") == "process"

    def test_auto_multicore_picks_processes_at_any_size(self, monkeypatch):
        self._usable(monkeypatch, 2)
        assert resolve_executor("auto") == "process"
        # Even two one-element tasks leave the parent process.
        pids = run_tasks(_pid, [0, 1], workers=2)
        assert os.getpid() not in pids

    def test_auto_single_cpu_stays_threads(self, monkeypatch):
        self._usable(monkeypatch, 1)
        assert resolve_executor("auto") == "thread"
        assert run_tasks(_pid, [0, 1], workers=2) == [os.getpid()] * 2

    def test_workers_follow_usable_cpus(self, monkeypatch):
        self._usable(monkeypatch, 1)
        assert resolve_workers(-1) == 1

    def test_host_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert resolve_workers(-1) == 3
        assert resolve_executor("auto") == "process"


def _config_arrays(config, path=""):
    """Every array and scalar of a strategy config, keyed by its path."""
    if isinstance(config, dict):
        items = config.items()
    elif isinstance(config, (list, tuple)):
        items = enumerate(config)
    else:
        return {path: config}
    out = {}
    for key, value in items:
        out.update(_config_arrays(value, f"{path}/{key}"))
    return out


def _same_strategy(a, b) -> bool:
    ca, cb = _config_arrays(a.to_config()), _config_arrays(b.to_config())
    return ca.keys() == cb.keys() and all(
        np.array_equal(ca[k], cb[k]) for k in ca
    )


_submitted = []


def _tie_first(W, rng):
    _submitted.append("first")
    return OptResult(PIdentity(np.zeros((1, 8))), 1.0)


def _tie_second(W, rng):
    _submitted.append("second")
    return OptResult(PIdentity(np.ones((1, 8))), 1.0)


class TestSameSeedDeterminism:
    """workers=1 and workers=4 must return bit-identical losses."""

    def test_opt_hdmm_all_default_operators_any_executor(self):
        # A two-term union runs OPT_⊗, OPT_+ and OPT_M, and its cells are
        # submitted OPT_+ first; the result must not depend on that.
        W = range_total_union(8)
        assert [name for name, _ in default_operators(W)] == [
            "OPT_kron", "OPT_union", "OPT_marginals"
        ]
        seq = opt_hdmm(W, restarts=3, rng=13, workers=1)
        for executor in ("thread", "process"):
            par = opt_hdmm(W, restarts=3, rng=13, workers=2, executor=executor)
            assert par.loss == seq.loss
            assert _same_strategy(par.strategy, seq.strategy)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_exact_ties_go_to_the_first_cell_not_the_first_submitted(
        self, monkeypatch, workers
    ):
        # Rank the second operator first: its cells are submitted before
        # any cell of the first, yet the tie goes to cell (0, "first").
        monkeypatch.setitem(driver._SUBMIT_RANK, _tie_second, 0)
        _submitted.clear()
        res = opt_hdmm(
            prefix_identity(8), restarts=2, rng=0, workers=workers,
            executor="thread",
            operators=[("first", _tie_first), ("second", _tie_second)],
        )
        if workers == 1:
            assert _submitted == ["second", "second", "first", "first"]
        assert res.loss == 1.0
        assert not res.strategy.theta.any()

    def test_opt_hdmm(self):
        W = prefix_identity(8)
        seq = opt_hdmm(W, restarts=3, rng=11, workers=1)
        par = opt_hdmm(W, restarts=3, rng=11, workers=4)
        assert seq.loss == par.loss

    def test_opt_0(self):
        V = AllRange(32).gram().dense()
        seq = opt_0(V, p=2, rng=3, restarts=4, workers=1).loss
        par = opt_0(V, p=2, rng=3, restarts=4, workers=4).loss
        assert seq == par

    def test_opt_0_process_executor(self):
        V = Prefix(16).gram().dense()
        seq = opt_0(V, p=1, rng=3, restarts=2, workers=1).loss
        par = opt_0(V, p=1, rng=3, restarts=2, workers=2,
                    executor="process").loss
        assert seq == par

    def test_opt_marginals(self):
        W = k_way_marginals(Domain(["a", "b", "c"], [4, 5, 3]), 2)
        seq = opt_marginals(W, rng=9, restarts=4, workers=1).loss
        par = opt_marginals(W, rng=9, restarts=4, workers=4).loss
        assert seq == par

    def test_opt_kron_and_union(self):
        W = range_total_union(8)
        assert opt_kron(W, rng=5, workers=1).loss == opt_kron(W, rng=5, workers=3).loss
        assert opt_union(W, rng=5, workers=1).loss == opt_union(W, rng=5, workers=3).loss

    def test_custom_unpicklable_operator_falls_back_to_threads(self):
        calls = []

        def op(w, rng):
            calls.append(1)
            return opt_kron(w, rng=rng)

        res = opt_hdmm(prefix_identity(8), restarts=2, rng=0, workers=2,
                       executor="process", operators=[("closure", op)])
        assert len(calls) == 2
        assert np.isfinite(res.loss)


class TestGramCaching:
    def test_gram_and_dense_cached_per_instance(self):
        P = Prefix(16)
        assert P.gram() is P.gram()
        assert P.gram().dense() is P.gram().dense()

    def test_cached_vs_fresh_squared_error_equal(self):
        W = k_way_marginals(Domain(["a", "b"], [6, 5]), 1)
        A = Kronecker([Identity(6), Identity(5)])
        warm1 = squared_error(W, A)
        warm2 = squared_error(W, A)  # fully cached second pass
        # Freshly built objects carry no memo: computed from scratch.
        W_fresh = k_way_marginals(Domain(["a", "b"], [6, 5]), 1)
        cold = squared_error(W_fresh, Kronecker([Identity(6), Identity(5)]))
        assert warm1 == warm2 == cold

    def test_union_of_products_memoized(self):
        W = range_total_union(8)
        assert as_union_of_products(W) is as_union_of_products(W)

    def test_marginal_traces_memoized_and_correct(self):
        W = k_way_marginals(Domain(["a", "b", "c"], [3, 4, 2]), 2)
        d1 = workload_marginal_traces(W)
        d2 = workload_marginal_traces(W)
        assert d1 is d2
        fresh = workload_marginal_traces(
            k_way_marginals(Domain(["a", "b", "c"], [3, 4, 2]), 2)
        )
        assert fresh is not d1
        assert np.allclose(d1, fresh)

    def test_pickle_drops_memo(self):
        import pickle

        P = Prefix(8)
        P.gram().dense()
        assert "_memo" in P.__dict__
        Q = pickle.loads(pickle.dumps(P))
        assert "_memo" not in Q.__dict__
        assert np.allclose(Q.gram().dense(), P.gram().dense())


class TestKmatmat:
    """kmatmat must agree with the per-column kmatvec loop."""

    @pytest.mark.parametrize(
        "factors",
        [
            [Prefix(5), Identity(3), Total(4)],
            [Total(6), AllRange(4)],
            [WidthRange(7, 3), Prefix(4), Identity(2)],
            [Ones(3, 5), Identity(2), Prefix(6)],
        ],
        ids=["prefix-id-total", "total-allrange", "width-prefix-id", "rect-id-prefix"],
    )
    def test_matches_column_loop(self, factors, rng):
        n = int(np.prod([A.shape[1] for A in factors]))
        X = rng.standard_normal((n, 7))
        ref = np.stack([kmatvec(factors, X[:, j]) for j in range(7)], axis=1)
        assert np.allclose(kmatmat(factors, X), ref)

    def test_dense_factor_mix(self, rng):
        factors = [Dense(rng.standard_normal((4, 7))), Prefix(3),
                   Dense(rng.standard_normal((5, 2)))]
        n = 7 * 3 * 2
        X = rng.standard_normal((n, 6))
        ref = np.stack([kmatvec(factors, X[:, j]) for j in range(6)], axis=1)
        assert np.allclose(kmatmat(factors, X), ref)

    def test_vector_input_falls_back_to_kmatvec(self, rng):
        factors = [Prefix(4), Identity(3)]
        x = rng.standard_normal(12)
        assert np.allclose(kmatmat(factors, x), kmatvec(factors, x))

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            kmatmat([Prefix(4), Identity(3)], np.ones((13, 2)))

    def test_kronecker_matmat_and_rmatmat(self, rng):
        K = Kronecker([Prefix(4), Total(3), Identity(2)])
        D = K.__class__.dense.__wrapped__(K)
        X = rng.standard_normal((K.shape[1], 5))
        Y = rng.standard_normal((K.shape[0], 5))
        assert np.allclose(K.matmat(X), D @ X)
        assert np.allclose(K.rmatmat(Y), D.T @ Y)

    def test_weighted_vstack_of_kron_matmat(self, rng):
        K1 = Kronecker([Prefix(3), Identity(4)])
        K2 = Kronecker([Total(3), AllRange(4)])
        W = VStack([Weighted(K1, 2.0), K2])
        X = rng.standard_normal((12, 5))
        assert np.allclose(W.matmat(X), W.dense() @ X)


class TestDenseMarginalsAlgebra:
    def test_dense_matches_sparse_everywhere(self, rng, monkeypatch):
        alg = MarginalsAlgebra((3, 4, 2))
        u = rng.random(8) + 0.01
        v = rng.random(8)
        delta = rng.random(8)
        # A zero table limit forces the loop/sparse path used above d = 10.
        monkeypatch.setattr(marginals, "_DENSE_TABLE_LIMIT", 0)
        assert not alg.has_dense_tables
        sparse = (
            alg.x_matrix(u).toarray(),
            alg.multiply_weights(u, v),
            alg.ginv_weights(u),
            alg.adjoint_solve(u, delta),
            alg.grad_dot(delta, v),
        )
        monkeypatch.undo()
        assert alg.has_dense_tables
        assert np.allclose(sparse[0], alg.x_matrix_dense(u))
        assert np.allclose(sparse[1], alg.multiply_weights(u, v))
        assert np.allclose(sparse[2], alg.ginv_weights(u))
        assert np.allclose(sparse[3], alg.adjoint_solve(u, delta))
        assert np.allclose(sparse[4], alg.grad_dot(delta, v))


class TestOptGeneralFallback:
    def test_all_infinite_restarts_fall_back_to_identity(self, monkeypatch):
        import importlib

        og_module = importlib.import_module("repro.optimize.opt_general")
        monkeypatch.setattr(
            og_module,
            "general_loss_and_grad",
            lambda B, V: (np.inf, np.zeros_like(np.asarray(B))),
        )
        V = Prefix(4).gram().dense()
        res = opt_general(V, rng=0, restarts=2)
        assert np.isfinite(res.loss)
        assert np.isclose(res.loss, np.trace(V))
        A = res.strategy.dense()
        assert np.allclose(np.abs(A).sum(axis=0), 1.0)
