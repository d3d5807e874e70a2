"""Tests for OPT_0 and p-Identity strategies (Section 5.2)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.linalg import AllRange, Prefix
from repro.optimize import PIdentity, opt_0, pidentity_loss_and_grad


def reference_loss_and_grad(theta, V):
    """The textbook evaluation of ``tr[(AᵀA)⁻¹ V]`` and its gradient: it
    materializes ``V₁ = SVS``, ``MV₁`` and ``Y = X⁻¹VX⁻¹`` (five p x n x n
    or n x n x n products).  An oracle for the one-product kernel."""
    B = theta
    p, n = B.shape
    s = 1.0 + B.sum(axis=0)
    R = np.linalg.inv(np.eye(p) + B @ B.T)
    V1 = V * np.outer(s, s)
    T2 = R @ (B @ V1)
    loss = float(np.trace(V1) - np.sum(B * T2))
    U = V1 - B.T @ T2  # M V₁
    Y = (U - ((U @ B.T) @ R) @ B) * np.outer(s, s)
    gI_diag = -2.0 * np.diag(Y) / s
    GB = -2.0 * (B / s) @ Y
    grad = GB / s - (gI_diag + np.sum(GB * B, axis=0)) / s**2
    return loss, grad


def loss_and_grad_before_dispatch_trim(theta, V):
    """``pidentity_loss_and_grad`` as it was before its dispatches were
    trimmed, verbatim: the oracle the current kernel must match bit for
    bit (same floating-point operations, fewer numpy calls)."""
    B = np.asarray(theta, dtype=np.float64)
    p, n = B.shape
    V = np.asarray(V, dtype=np.float64)
    if not np.all(np.isfinite(B)) or np.abs(B).max() > 1e30:
        # Line searches can probe wildly large parameters; report an
        # infinite objective so the optimizer backtracks.
        return np.inf, np.zeros((p, n))
    s = 1.0 + B.sum(axis=0)

    try:
        R = np.linalg.inv(np.eye(p) + B @ B.T)  # p x p
    except np.linalg.LinAlgError:
        return np.inf, np.zeros((p, n))
    T1 = ((B * s) @ V) * s  # Θ V₁, p x n
    T2 = R @ T1  # R Θ V₁
    RB = R @ B  # R Θ = Θ M
    v1_diag = np.diagonal(V) * s**2
    loss = float(v1_diag.sum() - np.einsum("ij,ij->", B, T2))

    # Y = X⁻¹ V X⁻¹ = D⁻¹ (M V₁ M) D⁻¹; only Θ·(M V₁ M) and its diagonal
    # are needed, both O(p²n) from T1, T2 and RΘ.
    BMVM = T2 - (T2 @ B.T) @ RB  # Θ M V₁ M, p x n
    MVM_diag = (
        v1_diag
        - 2.0 * np.einsum("ij,ij->j", RB, T1)
        + np.einsum("ij,ij->j", RB, (T1 @ B.T) @ RB)
    )
    Y_diag = MVM_diag * s**2

    # G = -2 A Y with A = [[D],[B D]]
    gI_diag = -2.0 * Y_diag / s  # diagonal of identity block
    GB = -2.0 * BMVM * s  # (B/s) @ Y, p x n

    grad = GB / s[None, :] - (gI_diag + np.einsum("il,il->l", GB, B)) / s[None, :] ** 2
    return loss, grad


@st.composite
def table3_kernel_inputs(draw):
    """Θ ≥ 0 at the Table 3 sizes (p ≤ 8, n ≤ 130), scaled 1e-3 to 1e3,
    and ``V = WᵀW`` for a random W."""
    p = draw(st.integers(1, 8))
    n = draw(st.integers(1, 130))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W = rng.standard_normal((draw(st.integers(1, 40)), n))
    return scale * rng.random((p, n)), W.T @ W


@st.composite
def kernel_inputs(draw):
    """Θ ≥ 0 with entries up to 10 (the old kernel itself loses digits to
    conditioning well beyond that) and ``V = WᵀW`` for a random W."""
    p = draw(st.integers(1, 6))
    n = draw(st.integers(1, 40))
    theta = draw(
        arrays(np.float64, (p, n), elements=st.floats(0.0, 10.0, allow_nan=False))
    )
    rows = draw(st.integers(1, 50))
    W = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(
        (rows, n)
    )
    return theta, W.T @ W


class TestPIdentity:
    def test_shape(self):
        A = PIdentity(np.ones((3, 8)))
        assert A.shape == (11, 8)

    def test_sensitivity_exactly_one(self, rng):
        A = PIdentity(rng.random((4, 10)))
        D = A.dense()
        assert np.allclose(np.abs(D).sum(axis=0), 1.0)
        assert A.sensitivity() == 1.0

    def test_example8_structure(self):
        """Paper Example 8: p=2, N=3 illustration of A(Θ)."""
        theta = np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]])
        A = PIdentity(theta).dense()
        expected = np.array(
            [
                [1 / 3, 0, 0],
                [0, 0.25, 0],
                [0, 0, 0.2],
                [1 / 3, 0.5, 0.6],
                [1 / 3, 0.25, 0.2],
            ]
        )
        assert np.allclose(A, expected)

    def test_matvec_rmatvec(self, rng):
        A = PIdentity(rng.random((3, 6)))
        D = A.dense()
        x = rng.standard_normal(6)
        y = rng.standard_normal(9)
        assert np.allclose(A.matvec(x), D @ x)
        assert np.allclose(A.rmatvec(y), D.T @ y)

    def test_gram_and_inverse(self, rng):
        A = PIdentity(rng.random((3, 6)))
        D = A.dense()
        assert np.allclose(A.gram().dense(), D.T @ D)
        assert np.allclose(A.gram_inverse(), np.linalg.inv(D.T @ D))

    def test_pinv(self, rng):
        A = PIdentity(rng.random((3, 6)))
        y = rng.standard_normal(9)
        assert np.allclose(A.pinv().matvec(y), np.linalg.pinv(A.dense()) @ y)

    def test_supports_any_workload(self, rng):
        """A(Θ) contains a scaled identity, so WA⁺A = W for any W."""
        A = PIdentity(rng.random((2, 5)))
        D = A.dense()
        W = rng.standard_normal((7, 5))
        assert np.allclose(W @ np.linalg.pinv(D) @ D, W)

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            PIdentity(np.array([[-1.0, 0.0]]))

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            PIdentity(np.ones(4))


class TestLossAndGrad:
    def test_loss_matches_direct(self, rng):
        B = rng.random((3, 8)) + 0.1
        V = AllRange(8).gram().dense()
        loss, _ = pidentity_loss_and_grad(B, V)
        D = PIdentity(B).dense()
        assert np.isclose(loss, np.trace(np.linalg.inv(D.T @ D) @ V))

    @pytest.mark.parametrize("p,n", [(1, 5), (3, 8), (6, 6), (4, 2), (2, 1)])
    def test_gradient_matches_finite_differences(self, p, n, rng):
        B = rng.random((p, n)) + 0.1
        V = Prefix(n).gram().dense()
        _, grad = pidentity_loss_and_grad(B, V)
        h = 1e-6
        for _ in range(5):
            k, l = rng.integers(p), rng.integers(n)
            Bp, Bm = B.copy(), B.copy()
            Bp[k, l] += h
            Bm[k, l] -= h
            fd = (
                pidentity_loss_and_grad(Bp, V)[0]
                - pidentity_loss_and_grad(Bm, V)[0]
            ) / (2 * h)
            assert np.isclose(grad[k, l], fd, rtol=1e-4)

    @settings(max_examples=200, deadline=None)
    @given(kernel_inputs())
    # A stationary point: both kernels return a gradient of rounding
    # noise (±7e-18), which no bound relative to that gradient can meet.
    @example(inputs=(np.array([[1.0], [1.0]]), np.array([[0.01580809]])))
    def test_matches_reference_kernel(self, inputs):
        theta, V = inputs
        loss, grad = pidentity_loss_and_grad(theta, V)
        ref_loss, ref_grad = reference_loss_and_grad(theta, V)
        assert abs(loss - ref_loss) <= 1e-9 * abs(ref_loss)
        # Relative to the gradient, with a rounding floor scaled by the
        # loss for gradients that vanish.
        tol = 1e-9 * np.abs(ref_grad).max() + 1e-12 * abs(ref_loss)
        assert np.abs(grad - ref_grad).max() <= tol

    @settings(max_examples=300, deadline=None)
    @given(table3_kernel_inputs())
    def test_bitwise_equal_to_the_kernel_before_the_dispatch_trim(self, inputs):
        theta, V = inputs
        loss, grad = pidentity_loss_and_grad(theta, V)
        old_loss, old_grad = loss_and_grad_before_dispatch_trim(theta, V)
        assert loss == old_loss
        assert grad.dtype == old_grad.dtype and grad.shape == old_grad.shape
        assert grad.tobytes() == old_grad.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e31])
    def test_guard_inputs_return_inf_and_zeros(self, bad):
        theta = np.full((2, 5), 0.5)
        theta[1, 3] = bad
        for kernel in (pidentity_loss_and_grad, loss_and_grad_before_dispatch_trim):
            loss, grad = kernel(theta, np.eye(5))
            assert loss == np.inf
            assert grad.shape == (2, 5) and not grad.any()

    def test_singular_inverse_returns_inf_and_zeros(self):
        # Two equal rows of 1e29: I + ΘΘᵀ rounds to an exactly singular
        # matrix, which both kernels report as an infinite objective.
        theta = np.full((2, 6), 1e29)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(np.eye(2) + theta @ theta.T)
        for kernel in (pidentity_loss_and_grad, loss_and_grad_before_dispatch_trim):
            loss, grad = kernel(theta, np.eye(6))
            assert loss == np.inf
            assert grad.shape == (2, 6) and not grad.any()

    def test_private_numpy_functions_match_the_public_ones(self):
        # The kernel calls these beneath np.linalg.inv and np.einsum; if a
        # numpy upgrade moves or changes them, this fails first.
        from numpy._core.multiarray import c_einsum
        from numpy.linalg._umath_linalg import inv

        rng = np.random.default_rng(5)
        for p in range(1, 9):
            A = np.eye(p) + rng.random((p, 3 * p)) @ rng.random((3 * p, p))
            assert inv(A, signature="d->d").tobytes() == np.linalg.inv(A).tobytes()
            X, Y = rng.random((p, 100)), rng.random((p, 100))
            for spec in ("ij,ij->", "ij,ij->j"):
                assert c_einsum(spec, X, Y).tobytes() == np.einsum(spec, X, Y).tobytes()
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            inv(np.ones((2, 2)), signature="d->d")

    def test_nonfinite_parameters_safe(self):
        V = np.eye(4)
        loss, grad = pidentity_loss_and_grad(np.full((2, 4), np.inf), V)
        assert loss == np.inf
        assert np.all(grad == 0)

    def test_huge_parameters_safe(self):
        V = np.eye(4)
        loss, _ = pidentity_loss_and_grad(np.full((2, 4), 1e40), V)
        assert loss == np.inf


class TestOpt0:
    def test_beats_identity_on_ranges(self):
        n = 64
        V = AllRange(n).gram().dense()
        res = opt_0(V, p=4, rng=0, restarts=2)
        assert res.loss < np.trace(V)  # better than Identity

    def test_accepts_matrix_gram(self):
        res = opt_0(AllRange(32).gram(), p=2, rng=0)
        assert res.loss > 0

    def test_default_p_heuristic(self):
        res = opt_0(AllRange(32).gram().dense(), rng=0)
        assert res.strategy.p == 2  # 32 // 16

    def test_explicit_init_used(self):
        V = Prefix(16).gram().dense()
        init = np.ones((1, 16))
        res = opt_0(V, p=1, rng=0, init=init)
        assert res.loss > 0

    def test_init_shape_validated(self):
        with pytest.raises(ValueError):
            opt_0(np.eye(8), p=2, init=np.ones((3, 8)))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            opt_0(np.ones((3, 4)))

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            opt_0(np.eye(4), p=0)

    def test_restarts_never_hurt(self):
        V = AllRange(32).gram().dense()
        one = opt_0(V, p=2, rng=0, restarts=1).loss
        many = opt_0(V, p=2, rng=0, restarts=4).loss
        assert many <= one * (1 + 1e-9)

    def test_identity_workload_keeps_identity(self):
        """For W = I the optimal strategy is (essentially) the identity."""
        n = 16
        res = opt_0(np.eye(n), p=1, rng=0)
        assert res.loss <= n * (1 + 0.05)  # identity loss = n
