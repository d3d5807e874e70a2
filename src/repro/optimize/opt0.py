"""OPT_0: parameterized strategy optimization (paper Section 5.2).

Searches the space of *p-Identity strategies* (Definition 9)::

    A(Θ) = [ I ]  D        D = diag(1_N + 1_p Θ)⁻¹,  Θ ∈ R₊^{p x N}
           [ Θ ]

Every A(Θ) supports every workload (it contains a scaled identity) and has
``‖A‖₁ = 1`` by construction, so the constrained Problem 1 reduces to the
unconstrained Problem 2: minimize ``C(Θ) = tr[(AᵀA)⁻¹ WᵀW]``.

The objective and gradient are evaluated in O(pN²) (Theorem 4) using the
Woodbury identity::

    (AᵀA)⁻¹ = D⁻¹ [I - Θᵀ (I_p + ΘΘᵀ)⁻¹ Θ] D⁻¹

Each evaluation costs exactly one p x N x N product (Θ against the
workload Gram) plus O(p²N + p³) work, and allocates nothing of size N x N
(see :func:`pidentity_loss_and_grad`).  At the paper's Table 3 sizes
(N ≤ 128, p ≤ 8) that product takes 1–6 µs of a 30–50 µs evaluation
(2-vCPU x86-64, one BLAS thread); the rest is the fixed cost of some 45
small numpy calls.  The kernel therefore skips the Python wrappers of
``np.linalg.inv`` and ``np.einsum`` and builds the identity and ``s²``
once, without changing a floating-point operation: fitted strategies are
bit-identical to those of the wrapped calls.

Optimization runs L-BFGS-B with non-negativity bounds on Θ through
:func:`repro.optimize.lbfgsb.minimize_lbfgsb`, which drives scipy's
compiled routine without the ``scipy.optimize.minimize`` wrapper.  On the
paper's Table 3 configurations (N ≤ 128, p ≤ 8) that wrapper took longer
than the loss-and-gradient evaluations; the iterates are unchanged.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# What np.einsum (at its default optimize=False) and np.linalg.inv run
# beneath their Python wrappers; tests/test_opt0.py pins both against the
# public functions, bit for bit.
from numpy._core.multiarray import c_einsum
from numpy.linalg._umath_linalg import inv as _inv

from ..linalg import Matrix
from ..linalg.base import Dense
from .lbfgsb import minimize_lbfgsb


@functools.cache
def _eye(p: int) -> np.ndarray:
    """A read-only p x p identity, built once per p."""
    eye = np.eye(p)
    eye.flags.writeable = False
    return eye


class PIdentity(Matrix):
    """A p-Identity strategy A(Θ), stored implicitly via Θ.

    Exposes the structured operations the rest of HDMM needs: sensitivity
    is exactly 1, the Gram inverse has the Woodbury form above, and the
    pseudo-inverse ``A⁺ = (AᵀA)⁻¹Aᵀ`` is applied without materializing A.
    """

    def __init__(self, theta: np.ndarray):
        theta = np.asarray(theta, dtype=np.float64)
        if theta.ndim != 2:
            raise ValueError("theta must be a p x n matrix")
        if np.any(theta < 0):
            raise ValueError("theta must be non-negative")
        self.theta = theta
        p, n = theta.shape
        self.scale = 1.0 + theta.sum(axis=0)  # column scales s = 1 + 1ᵀΘ
        self.shape = (n + p, n)

    @property
    def p(self) -> int:
        return self.theta.shape[0]

    @property
    def n(self) -> int:
        return self.theta.shape[1]

    def matmat(self, X: np.ndarray) -> np.ndarray:
        Xs = X / self.scale[:, None]
        return np.vstack([Xs, self.theta @ Xs])

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        n = self.n
        return (Y[:n] + self.theta.T @ Y[n:]) / self.scale[:, None]

    def gram(self) -> Dense:
        D = 1.0 / self.scale
        inner = np.eye(self.n) + self.theta.T @ self.theta
        return Dense(inner * np.outer(D, D))

    def gram_inverse(self) -> np.ndarray:
        """(AᵀA)⁻¹ via Woodbury — O(pN² + p³), never O(N³)."""
        B = self.theta
        p = self.p
        R = np.linalg.inv(np.eye(p) + B @ B.T)
        M = np.eye(self.n) - B.T @ (R @ B)
        s = self.scale
        return M * np.outer(s, s)

    def column_abs_sums(self) -> np.ndarray:
        return np.ones(self.n)

    def column_norms(self) -> np.ndarray:
        # Column j of [I; Θ]/s is (e_j, Θ[:, j]) / s_j.
        return np.sqrt(1.0 + (self.theta**2).sum(axis=0)) / self.scale

    def pinv(self) -> Matrix:
        return Dense(self.gram_inverse()) @ self.T

    def dense(self) -> np.ndarray:
        A = np.vstack([np.eye(self.n), self.theta])
        return A / self.scale

    def to_config(self) -> dict:
        return {"type": "PIdentity", "theta": self.theta}

    @classmethod
    def from_config(cls, config: dict) -> "PIdentity":
        return cls(np.asarray(config["theta"], dtype=np.float64))

    def __repr__(self) -> str:
        return (
            f"PIdentity(p={self.p}, n={self.n}, shape={self.shape}, "
            f"dtype={self.dtype.__name__})"
        )


def pidentity_loss_and_grad(
    theta: np.ndarray, V: np.ndarray
) -> tuple[float, np.ndarray]:
    """Objective ``C = tr[(AᵀA)⁻¹ V]`` and its gradient w.r.t. Θ.

    ``V = WᵀW`` is the (dense, symmetric, n x n) workload Gram.  Cost: one
    p x n x n product plus O(p²n + p³); no n x n temporary is built.

    Derivation: with ``s = 1 + 1ᵀΘ``, ``V₁ = diag(s) V diag(s)``,
    ``R = (I_p + ΘΘᵀ)⁻¹`` and ``M = I - ΘᵀRΘ``, Woodbury gives
    ``C = tr[M V₁] = Σᵢ Vᵢᵢsᵢ² - ⟨Θ, T₂⟩`` where ``T₁ = ΘV₁`` (the only
    p x n x n product) and ``T₂ = RT₁``.  For ``X = AᵀA``,
    ``∂C/∂A = -2A X⁻¹ V X⁻¹`` (Appendix A.2) and ``X⁻¹VX⁻¹ = D⁻¹(MV₁M)D⁻¹``.
    Since ``ΘM = RΘ``, the two pieces of ``MV₁M`` the gradient uses are
    O(p²n)::

        Θ(MV₁M)      = T₂ - (T₂Θᵀ)(RΘ)
        diag(MV₁M)   = diag(V₁) - 2 colsum(RΘ ∘ T₁) + colsum(RΘ ∘ (T₁Θᵀ)(RΘ))

    The chain rule through the column normalization ``D = diag(s)⁻¹``
    then yields, for ``G = ∂C/∂A`` partitioned into the identity block G_I
    and the Θ block G_B::

        ∂C/∂Θ_{kl} = G_B[k,l]/s_l - (G_I[l,l] + Σ_i G_B[i,l] Θ[i,l]) / s_l²
    """
    B = np.asarray(theta, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if not abs(B).max() <= 1e30:
        # Line searches can probe wildly large parameters (NaN fails the
        # comparison too); report an infinite objective so the optimizer
        # backtracks.
        return np.inf, np.zeros(B.shape)
    # np.add.reduce is what ndarray.sum runs, minus a Python frame.
    s = 1.0 + np.add.reduce(B, 0)
    BT = B.T
    try:
        # np.linalg.inv without its Python wrapper: the gufunc flags a
        # singular matrix as an invalid floating-point operation.
        with np.errstate(invalid="raise"):
            R = _inv(_eye(B.shape[0]) + B @ BT, signature="d->d")  # p x p
    except FloatingPointError:
        return np.inf, np.zeros(B.shape)
    s2 = s**2
    T1 = ((B * s) @ V) * s  # Θ V₁, p x n
    T2 = R @ T1  # R Θ V₁
    RB = R @ B  # R Θ = Θ M
    v1_diag = V.diagonal() * s2
    loss = float(np.add.reduce(v1_diag) - c_einsum("ij,ij->", B, T2))

    # Y = X⁻¹ V X⁻¹ = D⁻¹ (M V₁ M) D⁻¹; only Θ·(M V₁ M) and its diagonal
    # are needed, both O(p²n) from T1, T2 and RΘ.
    BMVM = T2 - (T2 @ BT) @ RB  # Θ M V₁ M, p x n
    MVM_diag = (
        v1_diag
        - 2.0 * c_einsum("ij,ij->j", RB, T1)
        + c_einsum("ij,ij->j", RB, (T1 @ BT) @ RB)
    )
    Y_diag = MVM_diag * s2

    # G = -2 A Y with A = [[D],[B D]]
    gI_diag = -2.0 * Y_diag / s  # diagonal of identity block
    GB = -2.0 * BMVM * s  # (B/s) @ Y, p x n

    grad = GB / s - (gI_diag + c_einsum("il,il->l", GB, B)) / s2
    return loss, grad


@dataclass
class OptResult:
    """Outcome of a strategy optimization run.

    Attributes
    ----------
    strategy:
        The optimized strategy, sensitivity 1.
    loss:
        ``‖W A⁺‖_F²`` — squared error of the workload under the strategy
        (with the strategy's sensitivity already normalized to 1).
    restarts:
        Number of random restarts performed.
    """

    strategy: Matrix
    loss: float
    restarts: int = 1


def _opt0_restart(payload) -> tuple[float, np.ndarray]:
    """One OPT_0 restart: L-BFGS-B from a fixed initialization.

    Module-level (and fed a fully-materialized payload) so the parallel
    engine can ship it to worker processes as well as threads.
    """
    V, theta0, maxiter = payload
    p, n = theta0.shape

    def fun(x):
        loss, grad = pidentity_loss_and_grad(x.reshape(p, n), V)
        return loss, grad.ravel()

    x, loss = minimize_lbfgsb(fun, theta0, lower=0.0, maxiter=maxiter)
    return loss, x.reshape(p, n)


def opt_0(
    V: np.ndarray | Matrix,
    p: int | None = None,
    rng: np.random.Generator | int | None = None,
    restarts: int = 1,
    maxiter: int = 500,
    init: np.ndarray | None = None,
    workers: int | None = 1,
    executor: str = "auto",
) -> OptResult:
    """Solve Problem 2 for an explicit workload Gram (paper OPT_0).

    Parameters
    ----------
    V:
        The workload Gram ``WᵀW`` — either a dense ndarray or a
        :class:`Matrix` whose ``dense()`` is affordable.  Accepting the
        Gram directly (rather than W) matches the paper: "we allow OPT_0
        to take WᵀW as input in these special cases".
    p:
        Number of non-identity strategy rows.  Defaults to the paper's
        heuristic ``max(1, n // 16)``.
    rng:
        Seed or Generator for the random restarts.
    restarts:
        Random restarts; the best local minimum is returned.
    init:
        Optional explicit initialization for the first restart.
    workers:
        Maximum concurrent restarts.  Restart ``r`` always draws its
        initialization from child ``r`` of the root seed
        (``SeedSequence.spawn``), and the minimum-loss winner is selected
        with a first-index tie-break, so for a given ``rng`` the result is
        bit-identical for every worker count (``workers=1`` included).
    executor:
        ``"auto"``/``"thread"``/``"process"`` — see
        :func:`repro.optimize.parallel.run_tasks`.
    """
    from .parallel import best_index, run_tasks, spawn_generators

    V = V.dense() if isinstance(V, Matrix) else np.asarray(V, dtype=np.float64)
    n = V.shape[0]
    if V.shape != (n, n):
        raise ValueError(f"V must be square, got {V.shape}")
    if p is None:
        p = max(1, n // 16)
    if p < 1:
        raise ValueError("p must be at least 1")

    # Initializations are drawn up-front, one spawned stream per restart,
    # so the restart → start-point mapping never depends on worker count.
    gens = spawn_generators(rng, restarts)
    inits = []
    for r in range(restarts):
        if r == 0 and init is not None:
            theta0 = np.asarray(init, dtype=np.float64)
            if theta0.shape != (p, n):
                raise ValueError(f"init must have shape {(p, n)}")
        else:
            # Small-scale initialization: large inits drive L-BFGS-B into
            # the Θ=0 corner (a KKT point equal to the Identity strategy).
            theta0 = 0.25 * gens[r].random((p, n))
        inits.append(theta0)

    results = run_tasks(
        _opt0_restart,
        [(V, theta0, maxiter) for theta0 in inits],
        workers=workers,
        executor=executor,
    )
    idx = best_index([loss for loss, _ in results])
    best_loss, best_theta = (np.inf, None) if idx is None else results[idx]

    # Θ = 0 (the Identity strategy) is inside the search space; never
    # return a local minimum that is worse than it.
    identity_loss = float(np.trace(V))
    if best_theta is None or identity_loss < best_loss:
        best_theta = np.zeros((p, n))
        best_loss = identity_loss
    return OptResult(PIdentity(best_theta), best_loss, restarts)
