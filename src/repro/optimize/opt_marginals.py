"""OPT_M: optimized marginal strategies (paper Section 6.3, Problem 4).

Strategies are restricted to weighted unions of the 2^d marginals,
``M(θ)`` with ``θ ∈ R₊^{2^d}``.  The objective moves the sensitivity
``Σθ`` into the loss::

    f(θ) = (Σ_a θ_a)² · ‖W M(θ)⁺‖_F² = (Σθ)² · δᵀ v(θ)

where ``v(θ)`` are the weights of ``(M(θ)ᵀM(θ))⁻¹ = G(v)`` obtained from
the triangular system ``X(θ²) v = e_full`` (Appendix A.4), and δ collects
the per-subset trace/sum statistics of the workload Gram.  Evaluating the
objective and its gradient costs O(4^d) — independent of the domain sizes
— with the gradient computed analytically via the adjoint system
``X(u)ᵀ φ = δ``::

    ∂(δᵀv)/∂u_b = -Σ_c φ_{b&c} C̄(b|c) v_c .
"""

from __future__ import annotations

import numpy as np

from ..core.error import workload_marginal_traces
from ..linalg import MarginalsAlgebra, MarginalsStrategy, Matrix
from ..linalg.marginals import get_algebra
from ..workload.util import attribute_sizes
from .lbfgsb import minimize_lbfgsb
from .opt0 import OptResult


def marginals_loss_and_grad(
    theta: np.ndarray, alg: MarginalsAlgebra, delta: np.ndarray
) -> tuple[float, np.ndarray]:
    """Objective f(θ) and its analytic gradient.

    Requires ``theta[-1] > 0`` so the Gram is invertible (the paper forces
    the full-contingency weight strictly positive).  One ``X(u)`` build
    feeds both triangular solves, and on domains within the algebra's
    dense-table limit the build, the solves and the gradient kernel are
    all fully vectorized (no per-subset Python loops).
    """
    theta = np.asarray(theta, dtype=np.float64)
    size = alg.size
    if not np.all(np.isfinite(theta)) or np.abs(theta).max() > 1e30:
        return np.inf, np.zeros(size)
    u = theta**2

    X = alg.x_operator(u)
    e = np.zeros(size)
    e[-1] = 1.0
    try:
        v = alg.solve_upper(X, e)
        phi = alg.solve_lower_t(X, delta)
    except Exception:
        return np.inf, np.zeros(size)
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(phi))):
        return np.inf, np.zeros(size)

    S = float(theta.sum())
    gval = float(delta @ v)
    loss = S**2 * gval
    if not np.isfinite(loss) or loss <= 0:
        # Ill-conditioned triangular solves (θ_full near its bound) can
        # produce garbage; report infeasible so the optimizer backtracks.
        return np.inf, np.zeros(size)

    # dg/du_b = -Σ_c φ[b&c] · C̄(b|c) · v_c.
    dg_du = -alg.grad_dot(phi, v)

    grad = 2.0 * S * gval + S**2 * dg_du * 2.0 * theta
    return loss, grad


def _marginals_restart(payload) -> tuple[float, np.ndarray]:
    """One OPT_M restart from a fixed initialization (engine task)."""
    alg, delta, theta0, lower, maxiter = payload

    def fun(x):
        return marginals_loss_and_grad(x, alg, delta)

    x, loss = minimize_lbfgsb(fun, theta0, lower=lower, maxiter=maxiter)
    return loss, x


def opt_marginals(
    W: Matrix,
    rng: np.random.Generator | int | None = None,
    restarts: int = 2,
    maxiter: int = 500,
    init: np.ndarray | None = None,
    workers: int | None = 1,
    executor: str = "auto",
) -> OptResult:
    """OPT_M: optimize a marginals strategy for a union-of-products workload.

    Applicable to *any* union of products (the objective only needs the
    trace and sum of each factor Gram), but most effective when the
    workload itself is marginal-like.

    ``workers`` fans the restarts out over the parallel engine; restart
    ``r`` always draws its initialization from child ``r`` of the root
    seed, so results are identical for every worker count given the same
    ``rng`` (see :mod:`repro.optimize.parallel`).

    Returns an :class:`OptResult` whose strategy is a sensitivity-1
    :class:`~repro.linalg.MarginalsStrategy` and whose ``loss`` equals
    ``(Σθ)²‖WM(θ)⁺‖_F²`` — directly comparable to the other operators.
    """
    from .parallel import best_index, run_tasks, spawn_generators

    sizes = attribute_sizes(W)
    alg = get_algebra(tuple(sizes))
    delta = workload_marginal_traces(W)
    size = alg.size

    # θ_full strictly positive keeps the Gram invertible; the bound is set
    # high enough (relative to the O(1) initializations) that the
    # triangular solves stay well-conditioned.
    lower = np.zeros(size)
    lower[-1] = 1e-4

    gens = spawn_generators(rng, restarts)
    inits = []
    for r in range(restarts):
        if r == 0 and init is not None:
            theta0 = np.asarray(init, dtype=np.float64)
        elif r == 0:
            # Deterministic uniform start: well-conditioned and reliably
            # in the good basin, so the first restart never depends on
            # seed luck.
            theta0 = np.ones(size)
        elif r % 2 == 0:
            # Near-uniform initialization: perturbations around the
            # uniform basin.
            theta0 = 1.0 + 0.3 * gens[r].random(size)
        else:
            # Small-scale initialization explores sparser weightings that
            # occasionally beat the uniform basin.
            theta0 = 0.1 * gens[r].random(size) + 1e-3
        inits.append(theta0)

    results = run_tasks(
        _marginals_restart,
        [(alg, delta, theta0, lower, maxiter) for theta0 in inits],
        workers=workers,
        executor=executor,
    )
    idx = best_index([loss for loss, _ in results])
    best_loss, best_theta = (np.inf, None) if idx is None else results[idx]

    # The full-contingency corner θ = e_full (the Identity strategy) lies
    # in the search space but is separated from the uniform basin by a
    # line-search barrier; evaluate it explicitly so OPT_M never returns a
    # local minimum worse than Identity (mirrors opt_0's clamp).
    corner = np.zeros(size)
    corner[-1] = 1.0
    corner_loss, _ = marginals_loss_and_grad(corner, alg, delta)
    if np.isfinite(corner_loss) and corner_loss < best_loss:
        best_loss, best_theta = float(corner_loss), corner

    if best_theta is None:
        # All restarts failed numerically: fall back to the uniform
        # marginal weights, which are always well-conditioned.
        best_theta = np.ones(size)
        best_loss, _ = marginals_loss_and_grad(best_theta, alg, delta)

    # Normalize to sensitivity 1 (the loss already accounts for scale) and
    # zero-out negligible marginals so measurement skips them, keeping the
    # full-contingency weight at its (well-conditioned) bound.
    theta = best_theta / best_theta.sum()
    floor = 1e-4 / best_theta.sum()
    theta[theta < 1e-10 * theta.max()] = 0.0
    theta[-1] = max(theta[-1], floor)
    theta = theta / theta.sum()
    # Report the loss of the *post-processed* strategy so it matches
    # squared_error(W, strategy) exactly.
    final_loss, _ = marginals_loss_and_grad(theta, alg, delta)
    return OptResult(MarginalsStrategy(sizes, theta), float(final_loss), restarts)
