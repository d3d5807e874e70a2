"""Tests for the MEASURE and RECONSTRUCT stages (Section 7.2)."""

import numpy as np
import pytest
from scipy import stats

from repro.core.measure import (
    GaussianMechanism,
    LaplaceMechanism,
    gaussian_noise,
    laplace_measure,
    laplace_noise,
)
from repro.core.reconstruct import answer_workload, least_squares
from repro.linalg import (
    Dense,
    Identity,
    Kronecker,
    MarginalsStrategy,
    Prefix,
    VStack,
    Weighted,
)
from repro.optimize import PIdentity, spawn_seeds


class TestLaplaceNoise:
    def test_zero_scale_is_zero(self):
        assert np.all(laplace_noise(0.0, 5) == 0)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            laplace_noise(-1.0, 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, [1.0, np.nan]])
    @pytest.mark.parametrize("noise", [laplace_noise, gaussian_noise])
    def test_non_finite_scale_rejected(self, noise, bad):
        with pytest.raises(ValueError, match="finite"):
            noise(bad, 5, 0)

    def test_variance_statistics(self, rng):
        samples = laplace_noise(2.0, 200_000, rng)
        # Laplace(b) variance = 2b².
        assert abs(samples.var() - 8.0) / 8.0 < 0.05
        assert abs(samples.mean()) < 0.05

    def test_gaussian_draws_are_numpy_normal(self):
        # Gaussian noise is drawn in place, with the bits of normal(0, σ).
        ref = np.random.default_rng(5).normal(0.0, 1.7, 1_000)
        got = gaussian_noise(1.7, 1_000, 5)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_reproducible_with_seed(self):
        a = laplace_noise(1.0, 10, 42)
        b = laplace_noise(1.0, 10, 42)
        assert np.allclose(a, b)


class TestLaplaceShape:
    """The noise is Laplace in shape, not only in its first two moments:
    a normal (or any law) with variance 2b² passes the calibration tests
    above but not these.  Fixed seeds, so each check is deterministic."""

    SCALES = np.array([0.5, 1.0, 3.0])

    @staticmethod
    def _check_standard_laplace(z):
        # z = X / b should be Laplace(0, 1): E|z| = 1, Pearson kurtosis 6
        # (a normal has 3) and half the values positive; each tolerance
        # is several standard errors at these sample sizes.
        assert stats.kstest(z, stats.laplace.cdf).pvalue > 1e-3
        assert abs(np.abs(z).mean() - 1.0) < 0.02
        assert abs(stats.kurtosis(z, fisher=False) - 6.0) < 0.6
        assert abs((z > 0).mean() - 0.5) < 2.0 / np.sqrt(z.size)

    def test_scalar_path(self):
        b = 2.5
        self._check_standard_laplace(laplace_noise(b, 100_000, 11) / b)

    def test_batched_path(self):
        noise = laplace_noise(self.SCALES, 50_000, 12)
        assert noise.shape == (50_000, self.SCALES.size)
        for j, b in enumerate(self.SCALES):
            self._check_standard_laplace(noise[:, j] / b)

    @pytest.mark.parametrize("size", [0, 1, 63, 64, 65])
    def test_sign_words_at_their_boundaries(self, size):
        # The signs come 64 to a raw word, so these sizes use part of one
        # word, exactly one, and one plus a bit of the next.  A batch of
        # trials is bit-identical to the loop over the spawned seeds, and
        # every value position, the 64th and 65th included, gets a fair
        # sign; pooled over ~64k values the draws are Laplace in shape.
        T = {0: 8, 1: 8_000}.get(size, 1_000)
        scales = np.linspace(0.5, 3.0, T)
        batch = laplace_noise(scales, size, 14)
        assert batch.shape == (size, T)
        head = min(T, 256)
        loop = np.empty((size, head))
        for j, seed in enumerate(spawn_seeds(14, T)[:head]):
            loop[:, j] = laplace_noise(scales[j], size, seed)
        assert np.array_equal(batch[:, :head].view(np.uint64), loop.view(np.uint64))
        if size:
            z = batch / scales
            if z.size >= 50_000:
                self._check_standard_laplace(z.ravel())
            share = (z > 0).mean(axis=1)
            assert np.all(np.abs(share - 0.5) < 2.5 / np.sqrt(T))

    def test_the_checks_reject_a_normal_of_the_same_variance(self):
        z = np.random.default_rng(13).normal(0.0, np.sqrt(2.0), 100_000)
        with pytest.raises(AssertionError):
            self._check_standard_laplace(z)


class TestLaplaceMeasure:
    @pytest.mark.parametrize(
        "mech",
        [LaplaceMechanism(), GaussianMechanism(1e-6)],
        ids=["laplace", "gaussian"],
    )
    def test_noise_scaled_to_sensitivity(self, mech):
        # Each mechanism's draw is calibrated to its own variance: L1
        # sensitivity 16 for Laplace, L2 sensitivity 4 through zCDP for
        # Gaussian.
        A = Prefix(16)
        x = np.zeros(16)
        trials = np.stack(
            [mech.measure(A, x, eps=1.0, rng=s) for s in range(400)]
        )
        emp_var = trials.var()
        assert abs(emp_var - mech.variance(A, 1.0)) / emp_var < 0.15

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            laplace_measure(Identity(4), np.zeros(4), eps=0.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            laplace_measure(Identity(4), np.zeros(5), eps=1.0)

    def test_exact_at_huge_eps(self):
        A = Prefix(8)
        x = np.arange(8.0)
        y = laplace_measure(A, x, eps=1e12, rng=0)
        assert np.allclose(y, A.matvec(x), atol=1e-6)


class TestLeastSquares:
    def test_pidentity_roundtrip(self, rng):
        A = PIdentity(rng.random((3, 8)))
        x = rng.standard_normal(8)
        y = A.matvec(x)
        assert np.allclose(least_squares(A, y), x, atol=1e-8)

    def test_kron_roundtrip(self, rng):
        A = Kronecker([PIdentity(rng.random((2, 5))), PIdentity(rng.random((2, 4)))])
        x = rng.standard_normal(20)
        assert np.allclose(least_squares(A, A.matvec(x)), x, atol=1e-8)

    def test_marginals_roundtrip(self, rng):
        theta = rng.random(8) + 0.05
        A = MarginalsStrategy((3, 2, 4), theta)
        x = rng.standard_normal(24)
        assert np.allclose(least_squares(A, A.matvec(x)), x, atol=1e-7)

    def test_lsmr_on_union_strategy(self, rng):
        A = VStack(
            [
                Weighted(Kronecker([Identity(4), Identity(5)]), 0.5),
                Weighted(Kronecker([Prefix(4), Identity(5)]), 0.125),
            ]
        )
        x = rng.standard_normal(20)
        got = least_squares(A, A.matvec(x), method="lsmr")
        assert np.allclose(got, x, atol=1e-6)

    def test_noisy_least_squares_matches_numpy(self, rng):
        A = PIdentity(rng.random((3, 6)))
        y = rng.standard_normal(9)
        ours = least_squares(A, y)
        ref, *_ = np.linalg.lstsq(A.dense(), y, rcond=None)
        assert np.allclose(ours, ref, atol=1e-8)

    def test_method_validation(self, rng):
        with pytest.raises(ValueError):
            least_squares(Identity(4), np.zeros(4), method="bogus")

    def test_y_shape_validation(self):
        with pytest.raises(ValueError):
            least_squares(Identity(4), np.zeros(5))

    def test_pinv_forced_on_union_raises(self, rng):
        A = VStack([Weighted(Kronecker([Identity(4), Identity(5)]), 0.5)])
        with pytest.raises(ValueError, match="union"):
            least_squares(A, np.zeros(A.shape[0]), method="pinv")

    def test_multi_rhs_kron_roundtrip(self, rng):
        A = Kronecker([PIdentity(rng.random((2, 5))), PIdentity(rng.random((2, 4)))])
        X = rng.standard_normal((20, 6))
        got = least_squares(A, A.matmat(X))
        assert got.shape == (20, 6)
        assert np.allclose(got, X, atol=1e-8)

    def test_multi_rhs_union_roundtrip(self, rng):
        A = VStack(
            [
                Weighted(Kronecker([Identity(4), Identity(5)]), 0.5),
                Weighted(Kronecker([Prefix(4), Identity(5)]), 0.125),
            ]
        )
        X = rng.standard_normal((20, 3))
        assert np.allclose(least_squares(A, A.matmat(X)), X, atol=1e-6)

    def test_answer_workload(self, rng):
        W = Prefix(6)
        x = rng.standard_normal(6)
        assert np.allclose(answer_workload(W, x), np.cumsum(x))

    def test_answer_workload_batched(self, rng):
        W = Prefix(6)
        X = rng.standard_normal((6, 4))
        assert np.allclose(answer_workload(W, X), np.cumsum(X, axis=0))


class TestBatchedMeasureSmoke:
    def test_batch_matches_spawned_loop(self, rng):
        from repro.core.measure import laplace_measure_batch
        from repro.optimize.parallel import spawn_seeds

        A = Prefix(10)
        x = rng.poisson(30, 10).astype(float)
        eps = np.array([0.5, 1.0, 2.0])
        Y = laplace_measure_batch(A, x, eps, rng=13)
        seeds = spawn_seeds(13, 3)
        for j, e in enumerate(eps):
            assert np.array_equal(Y[:, j], laplace_measure(A, x, float(e), seeds[j]))
