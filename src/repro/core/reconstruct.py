"""RECONSTRUCT: inference and workload answering (paper Section 7.2).

Given noisy strategy answers ``y ≈ Ax``, inference computes the least
squares estimate ``x̄ = A⁺y`` and the workload answers ``W x̄``.  HDMM
never materializes A or A⁺:

* product strategies — ``(A1 ⊗ ... ⊗ Ad)⁺ = A1⁺ ⊗ ... ⊗ Ad⁺`` applied by
  the Kronecker mat-vec/mat-mat (Algorithm 1);
* marginal strategies — ``M⁺ = (MᵀM)⁺Mᵀ`` with the Gram inverse computed
  in the O(4^d) marginals algebra;
* union-of-product strategies — no structured pseudo-inverse exists, so
  the normal equations ``(AᵀA) x̄ = Aᵀy`` are solved by conjugate
  gradients (:mod:`repro.core.solvers`) with the strategy's *cached* Gram
  operator as the iteration operator.  One union Gram solver
  (:func:`~repro.core.solvers.union_gram_solver`) factors a block pair
  and picks its candidate by a probe solve: when the pair covers every
  block and the probe converges in one iteration (the paper's two-group
  OPT_+ output) it is applied directly as the Gram inverse, and
  otherwise it preconditions CG, cold from zero on every call, run in
  the factored pair's eigenbasis
  (:func:`~repro.core.solvers.union_eigenbasis`).  LSMR remains as the
  fallback for columns CG cannot converge and as an independent
  cross-check.

Every solve accepts a whole batch of right-hand sides: structured
pseudo-inverses are applied through ``matmat``/``kmatmat`` rather than
one ``matvec`` per column, and the CG solver advances all columns of a
sweep per iteration.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import LinearOperator, lsmr

from ..linalg import Kronecker, MarginalsStrategy, Matrix, VStack, Weighted
from ..obs.metrics import REGISTRY as _METRICS
from ..optimize.opt0 import PIdentity
from .solvers import (
    cg_gram_solve,
    union_eigenbasis,
    union_gram_solver,
    validate_maxiter,
    validate_tolerance,
)

#: Largest min(m, n) for which an unstructured matrix is considered small
#: enough for a dense pseudo-inverse on the ``method="auto"`` path.
DENSE_PINV_LIMIT = 4096


def has_structured_pinv(A: Matrix) -> bool:
    """Whether ``A⁺`` has a structured (or affordable dense) form."""
    if isinstance(A, (MarginalsStrategy, PIdentity)):
        return True
    if isinstance(A, Weighted):
        return has_structured_pinv(A.base)
    if isinstance(A, Kronecker):
        return all(
            has_structured_pinv(f) or min(f.shape) <= DENSE_PINV_LIMIT
            for f in A.factors
        )
    return min(A.shape) <= DENSE_PINV_LIMIT  # small enough for a dense pinv


def resolves_to_pinv(A: Matrix, method: str = "auto") -> bool:
    """Whether :func:`least_squares` would take the pseudo-inverse path
    for this strategy/method combination.  Forcing ``method="pinv"`` on a
    :class:`VStack` union raises in :func:`least_squares`, so that
    combination does not *resolve* to the pinv path."""
    if method == "pinv":
        return not isinstance(A, VStack)
    return (
        method == "auto" and not isinstance(A, VStack) and has_structured_pinv(A)
    )


def resolves_to_direct(A: Matrix, method: str = "auto") -> bool:
    """Whether :func:`least_squares` would solve directly (structured
    pseudo-inverse, or a union Gram solver whose probe showed it exact)
    — i.e. iteration caps and tolerances are irrelevant for this
    strategy/method pair."""
    if resolves_to_pinv(A, method):
        return True
    if method != "auto":
        return False
    solver = union_gram_solver(A)
    return solver is not None and solver.exact


def validate_solver_options(
    A: Matrix | None,
    method: str = "auto",
    atol: float = 1e-10,
    btol: float = 1e-10,
    maxiter: int | None = None,
    rtol: float = 1e-11,
) -> tuple[str, float, float, int | None, float]:
    """Check :func:`least_squares`' solver options for strategy ``A``.

    Returns them normalized as ``(method, atol, btol, maxiter, rtol)``.
    An unknown option name raises ``TypeError``; an unknown method, an
    out-of-range value, or ``method="pinv"`` on a :class:`VStack` union
    raises ``ValueError``.  ``A=None`` checks names and values only.
    The query service checks them with ``A=None`` before it resolves a
    strategy, so a refused cold request fits nothing, and again with the
    strategy before its accountant debit, so a refused request spends
    nothing.
    """
    if method not in ("auto", "pinv", "cg", "lsmr"):
        raise ValueError(f"unknown method {method!r}")
    if method == "pinv" and isinstance(A, VStack):
        raise ValueError(
            "method='pinv' is not available for VStack (union) strategies: "
            "no structured pseudo-inverse exists for a union of products; "
            "use method='auto', 'cg', or 'lsmr'"
        )
    return (
        method,
        validate_tolerance("atol", atol),
        validate_tolerance("btol", btol),
        validate_maxiter(maxiter),
        validate_tolerance("rtol", rtol),
    )


def _lsmr_columns(
    A: Matrix,
    Y: np.ndarray,
    X: np.ndarray,
    columns,
    atol: float,
    btol: float,
    maxiter: int | None,
    x0: np.ndarray | None,
) -> None:
    """Solve the selected columns with LSMR, writing into ``X`` in place.

    An unset ``maxiter`` allows ``10 · min(m, n)`` iterations: scipy's
    default, ``min(m, n)``, is LSMR's bound in exact arithmetic, and on an
    ill-conditioned ``A`` rounding stretches the run well past it before
    ``atol``/``btol`` are met.
    """
    if maxiter is None:
        maxiter = 10 * min(A.shape)
    op = LinearOperator(
        shape=A.shape, matvec=A.matvec, rmatvec=A.rmatvec, dtype=np.float64
    )
    for j in columns:
        start = None if x0 is None else np.ascontiguousarray(x0[:, j])
        X[:, j] = lsmr(
            op,
            np.ascontiguousarray(Y[:, j]),
            atol=atol,
            btol=btol,
            maxiter=maxiter,
            x0=start,
        )[0]


def least_squares(
    A: Matrix,
    y: np.ndarray,
    method: str = "auto",
    atol: float = 1e-10,
    btol: float = 1e-10,
    maxiter: int | None = None,
    rtol: float = 1e-11,
) -> np.ndarray:
    """Solve ``min_x ‖Ax - y‖₂`` using the strategy's structure.

    Parameters
    ----------
    y:
        One right-hand side (length m) or a batch as columns (m x T).
        A 1-D input returns a 1-D solution; a 2-D input returns (n, T).
    method:
        ``"auto"`` (structured pseudo-inverse when available, else CG on
        the normal equations with LSMR fallback), ``"pinv"`` (force the
        structured/dense pseudo-inverse), ``"cg"`` (force the
        normal-equations solver), or ``"lsmr"`` (force per-column LSMR).
    atol, btol:
        LSMR stopping tolerances (fallback and ``method="lsmr"``).
    maxiter:
        Iteration cap for the iterative solvers.  ``None`` gives plain CG
        ``30 n`` iterations, preconditioned CG ``3 n`` and LSMR
        ``10 · min(m, n)``: on ill-conditioned strategies rounding
        stretches plain CG and LSMR well past their exact-arithmetic
        bounds of ``n`` and ``min(m, n)``.
    rtol:
        CG stopping criterion on the normal-equations residual,
        ``‖AᵀA x - Aᵀy‖₂ <= rtol · ‖Aᵀy‖₂`` per column.

    Every method returns the minimum-norm solution ``x̂ = A⁺y`` (to
    solver tolerance), not just some least-squares solution: plain CG
    from zero stays in ``range(AᵀA)``, and a union Gram solver exists
    only when its pair's Gram is positive definite (every relative
    Cholesky pivot clears :data:`~repro.core.solvers.PIVOT_TOL`), so
    the Gram it solves or preconditions is nonsingular.

    "To solver tolerance" assumes the iteration caps do not bind.  On an
    ill-conditioned, rank-deficient union with no union Gram solver
    (e.g. one ``PIdentity ⊗ PIdentity ⊗ Dense`` block), 2 of 300 random
    draws still left x̂ more than 1e-8 off ``A⁺y`` at the ``30 n`` cap.

    One path serves every width: operators are applied to the whole
    batch by one ``matmat``, and a 1-D ``y`` is a width-1 batch.  BLAS
    results depend on the batch width, so the columns of a batched solve
    agree with solving them one at a time to solver tolerance, not bit
    for bit.

    Raises
    ------
    ValueError
        On an option :func:`validate_solver_options` refuses — notably
        ``method="pinv"`` forced for a :class:`VStack` union strategy: no
        structured pseudo-inverse exists for a union, and silently
        falling through to an iterative solver would misreport how the
        estimate was computed.
    """
    y = np.asarray(y, dtype=np.float64)
    single = y.ndim == 1
    Y = y[:, None] if single else y  # one right-hand side: a width-1 batch
    if Y.ndim != 2 or Y.shape[0] != A.shape[0]:
        raise ValueError(
            f"y must have shape ({A.shape[0]},) or ({A.shape[0]}, T), got {y.shape}"
        )
    method, atol, btol, maxiter, rtol = validate_solver_options(
        A, method, atol, btol, maxiter, rtol
    )

    if resolves_to_pinv(A, method):
        X = A.pinv().matmat(Y)
        return X[:, 0] if single else X

    if method == "lsmr":
        X = np.empty((A.shape[1], Y.shape[1]))
        _lsmr_columns(A, Y, X, range(Y.shape[1]), atol, btol, maxiter, None)
        return X[:, 0] if single else X

    # Normal equations ``(AᵀA) x̄ = Aᵀy`` with the cached Gram operator.
    B = A.rmatmat(Y)

    basis = None
    if method == "auto":
        # A union Gram solver the probe showed exact (the paper's two-
        # group OPT_+ output) is applied directly — two Kronecker
        # mat-mats per solve; any other preconditions CG, run in its
        # pair's eigenbasis.  method="cg" stays plain.
        solver = union_gram_solver(A)
        if solver is not None and solver.exact:
            X = solver.inverse.matmat(B)
            return X[:, 0] if single else X
        basis = union_eigenbasis(A)

    # CG (method "cg" or the general "auto" fallback), then LSMR for any
    # column CG could not converge.
    result = cg_gram_solve(
        A.gram(),
        B,
        rtol=rtol,
        maxiter=maxiter or (3 if basis is not None else 30) * A.shape[1],
        basis=basis,
    )
    X = result.x
    if not result.converged.all():
        cols = np.flatnonzero(~result.converged)
        if _METRICS.enabled:
            _METRICS.counter("solver.lsmr_fallback_columns_total").inc(
                int(cols.size)
            )
        _lsmr_columns(A, Y, X, cols, atol, btol, maxiter, X)
    return X[:, 0] if single else X


def answer_workload(W: Matrix, x_hat: np.ndarray) -> np.ndarray:
    """Final RECONSTRUCT step: the workload answers ``W x̄``.

    Accepts a single data-vector estimate (length n) or a batch as
    columns (n x T), answered by one ``matmat``.
    """
    return W.matmat(x_hat)
