"""Tests for the error metrics (Definition 7, Theorems 5/6)."""

import numpy as np
import pytest

from repro.core.error import (
    coherent_stack_error,
    error_ratio,
    expected_error,
    gram_inverse_trace,
    laplace_mechanism_error,
    rootmse,
    squared_error,
    supports,
    workload_marginal_traces,
)
from repro.data import adult_domain, cps_domain
from repro.domain import Domain
from repro.linalg import (
    Dense,
    Identity,
    Kronecker,
    MarginalsStrategy,
    Prefix,
    VStack,
    Weighted,
)
from repro.workload import (
    implicit_vectorize,
    k_way_marginals,
    prefix_1d,
    prefix_2d,
    prefix_identity,
    range_marginals,
    sf1_workload,
)
from repro.workload.util import attribute_sizes


class TestGramInverseTrace:
    def test_pd_case(self, rng):
        A = rng.standard_normal((8, 5))
        AtA = A.T @ A + 0.1 * np.eye(5)
        V = rng.standard_normal((5, 5))
        assert np.isclose(
            gram_inverse_trace(AtA, V), np.trace(np.linalg.inv(AtA) @ V)
        )

    def test_singular_falls_back_to_pinv(self, rng):
        A = np.zeros((3, 3))
        A[0, 0] = 1.0
        V = np.eye(3)
        assert np.isclose(gram_inverse_trace(A, V), 1.0)


class TestSupports:
    def test_identity_supports_everything(self, rng):
        W = Dense(rng.standard_normal((4, 6)))
        assert supports(W, Identity(6))

    def test_total_does_not_support_identity(self):
        from repro.linalg import Ones

        assert not supports(Identity(4), Ones(1, 4))


class TestSquaredErrorDispatch:
    def test_dense_matches_definition(self, rng):
        W = Dense(rng.standard_normal((6, 4)))
        A = Dense(rng.standard_normal((5, 4)) + 2.0)
        direct = (
            np.abs(A.dense()).sum(axis=0).max() ** 2
            * np.linalg.norm(W.dense() @ np.linalg.pinv(A.dense()), "fro") ** 2
        )
        assert np.isclose(squared_error(W, A), direct, rtol=1e-8)

    def test_kron_matches_dense(self, rng):
        W = prefix_2d(4)
        A = Kronecker([Dense(rng.random((5, 4)) + 0.5), Dense(rng.random((5, 4)) + 0.5)])
        direct = (
            A.sensitivity() ** 2
            * np.linalg.norm(W.dense() @ np.linalg.pinv(A.dense()), "fro") ** 2
        )
        assert np.isclose(squared_error(W, A), direct, rtol=1e-6)

    def test_union_workload_kron_strategy_theorem6(self, rng):
        W = prefix_identity(4)
        A = Kronecker([Dense(rng.random((5, 4)) + 0.5), Dense(rng.random((5, 4)) + 0.5)])
        direct = (
            A.sensitivity() ** 2
            * np.linalg.norm(W.dense() @ np.linalg.pinv(A.dense()), "fro") ** 2
        )
        assert np.isclose(squared_error(W, A), direct, rtol=1e-6)

    @pytest.mark.parametrize(
        "workload",
        [
            lambda: k_way_marginals(adult_domain(), 2),
            lambda: range_marginals(cps_domain(), numeric={"income", "age"}, k=2),
            lambda: implicit_vectorize(sf1_workload()),
            lambda: prefix_1d(128),
            lambda: k_way_marginals(Domain(["a", "b", "c", "d"], [3, 4, 5, 2]), 3),
        ],
        ids=["adult_2way", "cps_range_marginals", "sf1", "prefix_1d", "marginals"],
    )
    def test_identity_factors_skip_the_cholesky(self, workload):
        # An Identity factor takes tr(Gᵢ); the same factor as a Dense
        # identity goes through the Cholesky solve.  Values are equal.
        W = workload()
        sizes = attribute_sizes(W)
        fast = squared_error(W, Kronecker([Identity(n) for n in sizes]))
        solved = squared_error(W, Kronecker([Dense(np.eye(n)) for n in sizes]))
        assert fast == solved

    def test_weighted_strategy_error_invariant(self, rng):
        """Scaling a strategy rescales noise identically — same error."""
        W = prefix_2d(4)
        A = Kronecker([Dense(rng.random((5, 4)) + 0.5), Dense(rng.random((5, 4)) + 0.5)])
        assert np.isclose(squared_error(W, A), squared_error(W, Weighted(A, 7.0)))

    def test_marginals_strategy_matches_dense(self, rng):
        dom = Domain(["a", "b", "c"], [3, 2, 4])
        W = k_way_marginals(dom, 2)
        theta = rng.random(8) + 0.05
        A = MarginalsStrategy(dom.sizes, theta)
        direct = (
            A.sensitivity() ** 2
            * np.linalg.norm(W.dense() @ np.linalg.pinv(A.dense()), "fro") ** 2
        )
        assert np.isclose(squared_error(W, A), direct, rtol=1e-6)

    def test_marginals_singular_strategy_supported_workload(self, rng):
        """A 1-way-only strategy supports a 1-way workload; error must
        match the dense computation through the generalized inverse."""
        dom = Domain(["a", "b"], [3, 4])
        W = k_way_marginals(dom, 1)
        theta = np.array([0.0, 0.5, 0.5, 0.0])  # marginals {b} and {a}
        A = MarginalsStrategy(dom.sizes, theta)
        direct = (
            A.sensitivity() ** 2
            * np.linalg.norm(W.dense() @ np.linalg.pinv(A.dense()), "fro") ** 2
        )
        assert np.isclose(squared_error(W, A), direct, rtol=1e-6)


class TestEpsAndRatios:
    def test_expected_error_eps_scaling(self):
        W = Prefix(8)
        A = Identity(8)
        assert np.isclose(
            expected_error(W, A, eps=2.0), expected_error(W, A, eps=1.0) / 4.0
        )

    def test_rootmse(self):
        W = Prefix(8)
        A = Identity(8)
        assert np.isclose(
            rootmse(W, A, 1.0), np.sqrt(expected_error(W, A, 1.0) / 8)
        )

    def test_error_ratio_definition(self):
        W = Prefix(8)
        r = error_ratio(W, Identity(8), Identity(8))
        assert np.isclose(r, 1.0)


class TestLaplaceMechanismError:
    def test_formula(self):
        W = Prefix(8)
        assert np.isclose(
            laplace_mechanism_error(W), 8 * W.sensitivity() ** 2
        )


class TestCoherentStackError:
    def test_dense_path_matches_definition(self, rng):
        W = Prefix(8)
        A = VStack([Identity(8), Weighted(Prefix(8), 0.5)])
        direct = (
            A.sensitivity() ** 2
            * np.linalg.norm(W.dense() @ np.linalg.pinv(A.dense()), "fro") ** 2
        )
        assert np.isclose(coherent_stack_error(W, A), direct, rtol=1e-6)

    def test_stochastic_path_approximates_dense(self, rng):
        W = prefix_2d(6)
        A = VStack(
            [
                Kronecker([Identity(6), Identity(6)]),
                Weighted(Kronecker([Prefix(6), Prefix(6)]), 0.25),
            ]
        )
        exact = coherent_stack_error(W, A, dense_limit=8192)
        est = coherent_stack_error(W, A, dense_limit=1, probes=300, rng=0)
        assert abs(est - exact) / exact < 0.15


class TestMarginalTraces:
    def test_delta_values(self):
        dom = Domain(["a", "b"], [3, 4])
        W = k_way_marginals(dom, 2)  # the full contingency table: I ⊗ I
        delta = workload_marginal_traces(W)
        # For W = I⊗I: G_i = I; tr = n_i, sum = n_i.
        assert np.allclose(delta, [12, 12, 12, 12])

    def test_weighted_products_square(self):
        dom = Domain(["a", "b"], [3, 4])
        W1 = k_way_marginals(dom, 2)
        from repro.workload import weighted_union

        W2 = weighted_union([W1], [2.0])
        assert np.allclose(
            workload_marginal_traces(W2), 4 * workload_marginal_traces(W1)
        )
