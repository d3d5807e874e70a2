"""End-to-end integration tests for the HDMM mechanism (Table 1b)."""

import numpy as np
import pytest

from repro import HDMM, workload
from repro.domain import Domain


class TestLifecycle:
    def test_run_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            HDMM().run(np.zeros(4), eps=1.0)

    def test_fit_accepts_logical_workload(self):
        from repro.workload import LogicalWorkload, Product
        from repro.workload.predicates import identity_predicates

        dom = Domain(["a", "b"], [4, 4])
        wl = LogicalWorkload([Product(dom, {"a": identity_predicates(4)})])
        mech = HDMM(restarts=1, rng=0).fit(wl)
        assert mech.strategy is not None

    def test_fit_returns_self(self):
        assert isinstance(HDMM(restarts=1, rng=0).fit(workload.prefix_1d(8)), HDMM)


class TestStatisticalCorrectness:
    def test_unbiasedness(self, rng):
        """Averaged over noise draws, HDMM answers converge to the truth."""
        W = workload.prefix_1d(16)
        mech = HDMM(restarts=1, rng=0).fit(W)
        x = rng.poisson(40, 16).astype(float)
        truth = W.matvec(x)
        answers = np.mean(
            [mech.run(x, eps=1.0, rng=s) for s in range(300)], axis=0
        )
        scale = np.abs(truth).mean() + 1.0
        assert np.abs(answers - truth).max() / scale < 0.2

    def test_empirical_error_matches_expected(self, rng):
        """Monte-Carlo total squared error ≈ the Definition 7 closed form."""
        W = workload.prefix_1d(32)
        mech = HDMM(restarts=1, rng=0).fit(W)
        x = rng.poisson(100, 32).astype(float)
        truth = W.matvec(x)
        trials = 400
        total = 0.0
        for s in range(trials):
            est = mech.run(x, eps=1.0, rng=s)
            total += np.sum((est - truth) ** 2)
        empirical = total / trials
        expected = mech.expected_error(eps=1.0)
        assert abs(empirical - expected) / expected < 0.15

    def test_error_scales_with_eps(self, rng):
        W = workload.prefix_1d(16)
        mech = HDMM(restarts=1, rng=0).fit(W)
        assert np.isclose(
            mech.expected_error(eps=0.5), 4 * mech.expected_error(eps=1.0)
        )

    def test_2d_union_workload_end_to_end(self, rng):
        W = workload.prefix_identity(8)
        mech = HDMM(restarts=1, rng=0).fit(W)
        x = rng.poisson(20, 64).astype(float)
        answers = mech.run(x, eps=2.0, rng=1)
        assert answers.shape == (W.shape[0],)
        # With a decent eps, relative error on the totals should be sane.
        truth = W.matvec(x)
        assert np.abs(answers - truth).mean() < 0.5 * (np.abs(truth).mean() + 1)

    def test_marginals_workload_end_to_end(self, rng):
        dom = Domain(["a", "b", "c"], [4, 4, 4])
        W = workload.up_to_k_marginals(dom, 2)
        mech = HDMM(restarts=1, rng=0).fit(W)
        x = rng.poisson(10, 64).astype(float)
        answers, x_hat = mech.run(x, eps=1.0, rng=2, return_data_vector=True)
        assert answers.shape == (W.shape[0],)
        assert x_hat.shape == (64,)

    def test_hdmm_beats_identity_and_lm_on_ranges(self):
        from repro.baselines import IdentityMechanism, LaplaceMechanism

        W = workload.all_range(64)
        mech = HDMM(restarts=2, rng=0).fit(W)
        hdmm_err = mech.expected_error()
        assert hdmm_err < IdentityMechanism().expected_error(W)
        assert hdmm_err < LaplaceMechanism().expected_error(W)

    def test_rootmse_definition(self):
        W = workload.prefix_1d(16)
        mech = HDMM(restarts=1, rng=0).fit(W)
        assert np.isclose(
            mech.expected_rootmse(1.0),
            np.sqrt(mech.expected_error(1.0) / W.shape[0]),
        )

