"""Structured normal-equation solvers for batched RECONSTRUCT (Section 7.2).

The serving loop answers the *same* fitted strategy across many trials and
ε values.  For union strategies — where no structured pseudo-inverse
exists — the least squares problem ``min_x ‖Ax - y‖₂`` is equivalent to
the normal equations ``(AᵀA) x = Aᵀy``, and the Gram operator ``AᵀA`` is
already memoized on the strategy instance (the structural cache).  The
conjugate-gradient solver here uses that cached Gram as its iteration
operator and solves a whole batch of right-hand sides at once, keeping
the still-running columns in contiguous working arrays so an iteration
never gathers or scatters.

Batch determinism: the iteration is per column — step scalars are
per-column reductions, updates are elementwise, and converged columns
are frozen, so each column keeps its own iteration count and stopping
point.  The operator application (one ``matmat`` per iteration over
every active column) and the einsum reductions run over the whole batch,
and their rounding depends on its width, so a width-T solve agrees with
T width-1 solves to solver tolerance rather than bitwise.  Callers that
need the single-shot bits solve one right-hand side at a time
(``HDMM.run_batch(exact=True)`` is that loop).

A solve depends only on its own right-hand sides: no state survives from
one call to the next, so the same inputs give the same bits whatever was
solved before.

Multi-block unions (L ≥ 3).  The exact two-term inverse only covers the
paper's ``groups=2`` OPT_+ instantiation; for a union of L ≥ 3 blocks
(SF-1-style ``opt_union(groups≥3)`` strategies, service miss batches)
``G = Σ_l ⊗K_{l,i}`` has no closed factorization, so
:func:`union_gram_preconditioner` factors one pair of blocks with the
two-term factorization, ``(G_a + G_b)⁻¹ = Eᵀ diag(1/(1+⊗λ)) E``, adds
the other blocks' diagonals in that basis,
``M = Eᵀ diag(1/(1+⊗λ+Σ_rest)) E``, and serves the pair and candidate
(with or without ``Σ_rest``) that solves a fixed probe right-hand side in
the fewest PCG iterations as the preconditioner for
:func:`cg_gram_solve`.  On the Total-like unions ``opt_union`` fits the
other blocks are nearly diagonal in the pair's basis, so ``M·G`` is close
to ``I`` (3 iterations per column on the ε-sweep benchmark's 4-block 16³
union, 7 with the pair alone).  Per-column-frozen convergence and the
LSMR fallback contract carry over unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..linalg import Diagonal, Kronecker, Matrix, VStack, Weighted
from ..linalg.base import Dense
from ..obs.metrics import REGISTRY as _METRICS

__all__ = [
    "CGResult",
    "KRON_FACTOR_LIMIT",
    "cg_gram_solve",
    "export_gram_solver_state",
    "restore_gram_solver_state",
    "union_gram_inverse",
    "union_gram_preconditioner",
    "validate_epsilon",
    "validate_maxiter",
    "validate_positive_int",
    "validate_tolerance",
]

#: Largest square Kronecker-factor Gram that the two-term union solver
#: will densify and eigendecompose (cost O(n_i³) per factor, once per
#: fitted strategy).
KRON_FACTOR_LIMIT = 1024


def validate_maxiter(maxiter: int | None) -> int | None:
    """Check a ``maxiter`` argument: ``None`` or a positive integer."""
    if maxiter is None:
        return None
    if (
        isinstance(maxiter, bool)
        or not isinstance(maxiter, (int, np.integer))
        or maxiter <= 0
    ):
        raise ValueError(
            f"maxiter must be a positive integer or None, got {maxiter!r}"
        )
    return int(maxiter)


def validate_positive_int(name: str, value) -> int:
    """Check an argument that must be a positive integer (e.g. ``trials``)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or value <= 0
    ):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def validate_epsilon(eps, name: str = "eps") -> np.ndarray:
    """Check a privacy budget: every value finite and strictly positive.

    The single validation point for every ε-consuming entry point
    (``laplace_measure``, ``laplace_measure_batch``, ``HDMM.run`` /
    ``run_batch``, ``expected_error``, the service accountant).  Accepts a
    scalar or an array grid and returns it as a float64 ndarray (0-d for
    scalars), leaving shape policy — scalar-only, 1-D grids — to the
    caller.
    """
    try:
        eps_arr = np.asarray(eps, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(
            f"privacy budget {name} must be numeric, got {eps!r}"
        ) from None
    if eps_arr.size == 0:
        raise ValueError(f"privacy budget {name} must be non-empty")
    if not np.all(np.isfinite(eps_arr)) or np.any(eps_arr <= 0):
        raise ValueError(
            f"privacy budget {name} must be finite and positive, got {eps!r}"
        )
    return eps_arr


def validate_budget(
    eps=None, delta=None, rho=None, name: str = "budget"
) -> dict[str, np.ndarray]:
    """Check a privacy budget in any of its native units.

    The generalization of :func:`validate_epsilon` that the mechanism
    subsystem, the accountant's policies, and the server request parser
    share: ``eps`` and ``rho`` must be finite and strictly positive
    (scalars or grids, like ``validate_epsilon``); ``delta`` must be
    finite with 0 ≤ δ < 1.  At least one component must be given.
    Returns a dict keyed by component name with the validated float64
    ndarrays (0-d for scalars) — callers unpack what they passed.
    """
    if eps is None and delta is None and rho is None:
        raise ValueError(
            f"privacy budget {name} must set at least one of eps, delta, rho"
        )
    out: dict[str, np.ndarray] = {}
    if eps is not None:
        out["eps"] = validate_epsilon(eps, name="eps")
    if delta is not None:
        try:
            d = np.asarray(delta, dtype=np.float64)
        except (TypeError, ValueError):
            raise ValueError(
                f"privacy parameter delta must be numeric, got {delta!r}"
            ) from None
        if d.size == 0:
            raise ValueError("privacy parameter delta must be non-empty")
        if not np.all(np.isfinite(d)) or np.any(d < 0) or np.any(d >= 1):
            raise ValueError(
                "privacy parameter delta must satisfy 0 <= delta < 1, "
                f"got {delta!r}"
            )
        out["delta"] = d
    if rho is not None:
        out["rho"] = validate_epsilon(rho, name="rho")
    return out


def validate_tolerance(name: str, value: float) -> float:
    """Check a solver tolerance: a finite, non-negative float."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if not np.isfinite(v) or v < 0:
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
    return v


def _kron_gram_factor_mats(block: Matrix) -> list[np.ndarray] | None:
    """Dense square factor Grams of a block's ``AᵀA``, scalar weights
    folded into the first factor; ``None`` when the block's Gram is not a
    (weighted) Kronecker product of affordable square factors."""
    gram = block.gram()
    weight = 1.0
    while isinstance(gram, Weighted):
        weight *= gram.weight
        gram = gram.base
    if isinstance(gram, Kronecker):
        factors = gram.factors
    elif min(gram.shape) <= KRON_FACTOR_LIMIT:
        factors = [gram]
    else:
        return None
    mats = []
    for f in factors:
        m, n = f.shape
        if m != n or n > KRON_FACTOR_LIMIT:
            return None
        mats.append(np.asarray(f.dense(), dtype=np.float64))
    mats[0] = weight * mats[0]
    return mats


def union_gram_inverse(A: Matrix) -> Matrix | None:
    """Exact structured inverse of ``AᵀA`` for a union of two products.

    The paper's OPT_+ instantiation partitions the workload into *two*
    groups, so the canonical union strategy is a :class:`VStack` of two
    weighted Kronecker products and its Gram is a two-term Kronecker sum
    ``G = ⊗Kᵢ + ⊗Mᵢ``.  With ``Cᵢ = chol(Kᵢ)`` and the per-factor
    eigendecompositions ``Cᵢ⁻¹ Mᵢ Cᵢ⁻ᵀ = Uᵢ Λᵢ Uᵢᵀ``::

        G  = (⊗Cᵢ) (⊗Uᵢ) [I + ⊗Λᵢ] (⊗Uᵢ)ᵀ (⊗Cᵢ)ᵀ
        G⁻¹ = (⊗Eᵢ)ᵀ · diag(1 / (1 + ⊗λ)) · (⊗Eᵢ),   Eᵢ = Uᵢᵀ Cᵢ⁻¹

    so applying the inverse costs two Kronecker mat-mats plus one
    diagonal scaling — the same order as a *single* CG iteration, and
    exact.  Setup is one small Cholesky + eigendecomposition per factor
    (O(Σ nᵢ³), done once per fitted strategy and memoized on ``A``).
    ``⊗Λ`` is positive semi-definite, so the denominator is ≥ 1 and the
    form is unconditionally stable once a positive-definite base block
    is found; both blocks are tried as the base.

    Returns the inverse as an implicit :class:`~repro.linalg.Matrix`
    (so batched application routes through ``kmatmat``), or ``None``
    when the strategy is not a two-term union of affordable Kronecker
    Grams — callers then fall back to the CG solver.
    """
    if not isinstance(A, VStack) or len(A.blocks) not in (1, 2):
        return None
    cached = A.cache_get("union_gram_inverse")
    if cached is not None:
        return None if isinstance(cached, str) else cached

    def unavailable():
        A.cache_set("union_gram_inverse", "unavailable")
        return None

    g1 = _kron_gram_factor_mats(A.blocks[0])
    if g1 is None:
        return unavailable()
    if len(A.blocks) == 2:
        g2 = _kron_gram_factor_mats(A.blocks[1])
    else:
        g2 = [np.zeros_like(m) for m in g1]  # single block: G = ⊗Kᵢ + 0
    if (
        g2 is None
        or len(g1) != len(g2)
        or any(a.shape != b.shape for a, b in zip(g1, g2))
    ):
        return unavailable()

    factored = _two_term_factorization(g1, g2)
    if factored is None:
        return unavailable()
    Es, lam_full = factored
    A.cache_set("union_gram_state", {"factors": Es, "lam": lam_full})
    return A.cache_set("union_gram_inverse", _assemble_gram_inverse(Es, lam_full))


def _two_term_factorization(
    g1: list[np.ndarray], g2: list[np.ndarray]
) -> tuple[list[np.ndarray], np.ndarray] | None:
    """Factor ``(⊗Kᵢ + ⊗Mᵢ)⁻¹ = (⊗Eᵢ)ᵀ diag(1/(1+⊗λ)) (⊗Eᵢ)``.

    Returns ``(Es, ⊗λ)`` or ``None`` when neither ordering of the two
    factor lists yields a positive-definite base block.  Shared by the
    exact two-term inverse (:func:`union_gram_inverse`) and the
    L-block preconditioner (:func:`union_gram_preconditioner`).
    """
    from scipy.linalg import LinAlgError, cholesky, solve_triangular

    for base, other in ((g1, g2), (g2, g1)):
        try:
            Es, lam_full = [], np.ones(1)
            for K, M in zip(base, other):
                C = cholesky(K, lower=True, check_finite=False)
                T1 = solve_triangular(C, M, lower=True, check_finite=False)
                S = solve_triangular(C, T1.T, lower=True, check_finite=False).T
                lam, U = np.linalg.eigh((S + S.T) / 2.0)
                lam = np.clip(lam, 0.0, None)
                Cinv = solve_triangular(
                    C, np.eye(C.shape[0]), lower=True, check_finite=False
                )
                Es.append(U.T @ Cinv)
                lam_full = np.kron(lam_full, lam)
        except (LinAlgError, np.linalg.LinAlgError):
            continue  # base block Gram not positive definite — swap roles
        return Es, lam_full
    return None


#: Most block pairs factorized before the L-block preconditioner picks
#: one (pairs are enumerated in descending combined Gram-trace order;
#: each factorizable pair yields two candidates, scored by a probe solve).
_PRECOND_PAIR_ATTEMPTS = 8


def _rest_diagonal(
    Es: list[np.ndarray], rest: list[list[np.ndarray]]
) -> np.ndarray:
    """``Σ_l diag((⊗Eᵢ) (⊗K_{l,i}) (⊗Eᵢ)ᵀ) = Σ_l ⊗ᵢ diag(Eᵢ K_{l,i} Eᵢᵀ)``:
    the other blocks' Grams seen in a pair's eigenbasis, diagonal part
    only (one einsum per factor; every entry is ≥ 0 since the Grams are
    PSD)."""
    total = 0.0
    for mats in rest:
        diag = np.ones(1)
        for E, K in zip(Es, mats):
            diag = np.kron(diag, np.einsum("ij,jk,ik->i", E, K, E))
        total = total + diag
    return total


def union_gram_preconditioner(A: Matrix) -> Matrix | None:
    """Preconditioner for an L ≥ 3 union Gram, chosen by a probe solve.

    For ``G = Σ_l ⊗K_{l,i}`` with three or more blocks there is no exact
    structured inverse.  A pair of blocks (a, b) gives, by the same
    per-factor Cholesky + eigendecomposition as
    :func:`union_gram_inverse`, ``(G_a + G_b)⁻¹ = Eᵀ diag(1/(1+⊗λ)) E``.
    In that basis each other block whose factor shapes match adds
    ``⊗ᵢ diag(Eᵢ K_{l,i} Eᵢᵀ)`` to the diagonal, giving the corrected

        M = Eᵀ diag(1 / (1 + ⊗λ + Σ_rest)) E,

    which accounts for every block at the pair's cost per apply (two
    Kronecker mat-mats and one diagonal) and is exact when the other
    blocks are diagonal in the pair's basis — as the Total-like blocks
    of ``opt_union`` fits nearly are.  It is not always the better
    choice (on mixed-scale unions the pair alone can converge faster),
    so every candidate — each of the first ``_PRECOND_PAIR_ATTEMPTS``
    shape-compatible pairs in descending combined Gram-trace order,
    pair-only then corrected — is scored by its PCG iteration count on
    one fixed probe ``b = Aᵀu``, ``u ~ N(0, I)`` from ``default_rng(0)``,
    each probe capped at the best count so far (a pair's corrected
    candidate is probed first).  The fewest iterations win; ties keep
    the earlier candidate in that order.  The factor state is cached on
    ``A`` under ``union_gram_precond_state`` (next to
    ``union_gram_state``; ``lam`` holds ``⊗λ + Σ_rest`` or ``⊗λ``) and
    persisted by :func:`export_gram_solver_state`.

    Returns the preconditioner as an implicit :class:`~repro.linalg.Matrix`
    or ``None`` when ``A`` is not an L ≥ 3 :class:`VStack` of affordable
    Kronecker-Gram blocks — callers then run plain CG.
    """
    if not isinstance(A, VStack) or len(A.blocks) < 3:
        return None
    cached = A.cache_get("union_gram_precond")
    if cached is not None:
        return None if isinstance(cached, str) else cached

    def unavailable():
        A.cache_set("union_gram_precond", "unavailable")
        return None

    mats = [_kron_gram_factor_mats(block) for block in A.blocks]
    traces = [
        float(np.prod([np.trace(m) for m in g])) if g is not None else -np.inf
        for g in mats
    ]
    candidates = sorted(
        (i for i, g in enumerate(mats) if g is not None),
        key=lambda i: (-traces[i], i),
    )
    if len(candidates) < 2:
        return unavailable()

    from itertools import combinations

    def compatible(i: int, j: int) -> bool:
        return len(mats[i]) == len(mats[j]) and all(
            a.shape == b.shape for a, b in zip(mats[i], mats[j])
        )

    # All shape-compatible pairs, in genuinely descending combined-trace
    # order (combinations() alone would enumerate every (top, j) pair
    # before (second, third) regardless of trace).  Compatibility is
    # checked before a pair consumes any of the factorization budget, so
    # one odd-shaped block cannot starve the viable pairs out of the
    # _PRECOND_PAIR_ATTEMPTS cap.
    pairs = [(i, j) for i, j in combinations(candidates, 2) if compatible(i, j)]
    pairs.sort(key=lambda p: (-(traces[p[0]] + traces[p[1]]), p))
    G = A.gram()
    u = np.random.default_rng(0).standard_normal(A.shape[0])
    probe = A.rmatvec(u)[:, None]
    # Candidates rank by (probe iterations, pair rank, pair-only before
    # corrected).  The corrected candidate is probed first because it
    # usually wins, which caps the pair-only probe at its count; the rank
    # keeps ties on the pair-only one all the same.
    best: tuple | None = None
    for rank, (i, j) in enumerate(pairs[:_PRECOND_PAIR_ATTEMPTS]):
        factored = _two_term_factorization(mats[i], mats[j])
        if factored is None:
            continue
        Es, lam_pair = factored
        rest = [
            mats[l] for l in candidates if l not in (i, j) and compatible(i, l)
        ]
        lams = [lam_pair]
        if rest:
            lams.append(lam_pair + _rest_diagonal(Es, rest))
        for corrected in reversed(range(len(lams))):
            lam_full = lams[corrected]
            M = _assemble_gram_inverse(Es, lam_full)
            best_score = np.inf if best is None else best[0][0]
            cap = None if best_score == np.inf else int(best_score)
            result = cg_gram_solve(G, probe, maxiter=cap, preconditioner=M)
            score = result.iterations[0] if result.converged[0] else np.inf
            order = (score, rank, corrected)
            if best is None or order < best[0]:
                best = (order, i, j, Es, lam_full, M)
    if best is None:
        return unavailable()
    _, i, j, Es, lam_full, M = best
    A.cache_set(
        "union_gram_precond_state",
        {"factors": Es, "lam": lam_full, "blocks": (i, j)},
    )
    return A.cache_set("union_gram_precond", M)


def _assemble_gram_inverse(Es: list[np.ndarray], lam_full: np.ndarray) -> Matrix:
    """``G⁻¹ = (⊗Eᵢ)ᵀ diag(1/(1+⊗λ)) (⊗Eᵢ)`` from its factor state."""
    E = Kronecker([Dense(Ei) for Ei in Es])
    return E.T @ Diagonal(1.0 / (1.0 + lam_full)) @ E


def export_gram_solver_state(A: Matrix) -> dict | None:
    """The factor state of ``A``'s structured union Gram solver, if any.

    Triggers the (memoized) factorization — :func:`union_gram_inverse`
    for one- and two-block unions, :func:`union_gram_preconditioner` for
    L ≥ 3 — and returns one of four values
    :func:`restore_gram_solver_state` understands:

    * ``{"factors": [E₁, ..., E_d], "lam": ⊗λ}`` — the exact two-term
      inverse, as plain float64 arrays ready for npz persistence, so a
      reloaded strategy never re-runs the per-factor
      Cholesky/eigendecomposition setup;
    * ``{"precond_factors": [...], "precond_lam": ⊗λ,
      "precond_blocks": [a, b]}`` — the preconditioner of an L ≥ 3
      union (same factor layout; ``precond_lam`` is ``⊗λ + Σ_rest`` or
      ``⊗λ``), so a warm-loaded L-block strategy never re-runs the
      factorizations or probe solves;
    * ``{"unavailable": True}`` — the factorization probe ran and failed
      (no affordable structure), so a reloaded strategy skips re-probing;
    * ``None`` — nothing is known (e.g. memoization was globally
      disabled, so the probe outcome was not recorded); a reloaded
      strategy probes afresh on first use.
    """
    if union_gram_inverse(A) is not None:
        state = A.cache_get("union_gram_state")
        if state is None:  # cache globally disabled — outcome not recorded
            return None
        return {"factors": list(state["factors"]), "lam": state["lam"]}
    if union_gram_preconditioner(A) is not None:
        state = A.cache_get("union_gram_precond_state")
        if state is None:  # cache globally disabled — outcome not recorded
            return None
        return {
            "precond_factors": list(state["factors"]),
            "precond_lam": state["lam"],
            "precond_blocks": [int(b) for b in state["blocks"]],
        }
    # ``precond_probed`` marks that the preconditioner probe itself ran
    # and failed.  Registry entries written before the preconditioner
    # existed carry a bare ``{"unavailable": True}``, and restore must
    # not let that legacy state disable a probe it never ran.
    return {"unavailable": True, "precond_probed": True}


def restore_gram_solver_state(A: Matrix, state: dict | None) -> None:
    """Attach exported solver state to a strategy instance.

    Inverts :func:`export_gram_solver_state`'s cases: factor state
    (exact inverse or L-block preconditioner) is rebuilt and
    cached, a recorded failed probe is cached as ``"unavailable"`` (CG
    path, no re-probe), and ``None`` leaves the strategy untouched so
    the first solve probes normally.  Keys this version does not know
    — such as the ``recycle_*`` Ritz basis that older registry entries
    carry — are ignored.
    """
    if state is None:
        return
    if state.get("unavailable"):
        if isinstance(A, VStack):
            A.cache_set("union_gram_inverse", "unavailable")
            # Only a probe that actually ran may be recorded as failed —
            # a legacy export (pre-preconditioner registry entry) must
            # leave the preconditioner probe free to run on first use.
            if state.get("precond_probed"):
                A.cache_set("union_gram_precond", "unavailable")
        return
    if "precond_factors" in state:
        Es = [np.asarray(E, dtype=np.float64) for E in state["precond_factors"]]
        lam_full = np.asarray(state["precond_lam"], dtype=np.float64)
        blocks = tuple(int(b) for b in state.get("precond_blocks", ()))
        A.cache_set(
            "union_gram_precond_state",
            {"factors": Es, "lam": lam_full, "blocks": blocks},
        )
        A.cache_set("union_gram_precond", _assemble_gram_inverse(Es, lam_full))
        return
    Es = [np.asarray(E, dtype=np.float64) for E in state["factors"]]
    lam_full = np.asarray(state["lam"], dtype=np.float64)
    A.cache_set("union_gram_state", {"factors": Es, "lam": lam_full})
    A.cache_set("union_gram_inverse", _assemble_gram_inverse(Es, lam_full))


@dataclass
class CGResult:
    """Outcome of a batched conjugate-gradient solve.

    Attributes
    ----------
    x:
        Solution matrix, one column per right-hand side (n x T).
    iterations:
        Per-column iteration counts (length T).
    converged:
        Per-column convergence flags.  A ``False`` entry means the column
        hit ``maxiter`` or stalled (curvature ``pᵀGp <= 0`` — the Gram was
        numerically semi-definite along the search direction); callers
        should hand those columns to LSMR.
    """

    x: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def _col_dots(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Per-column inner products ``out[j] = X[:, j] · Y[:, j]``."""
    return np.einsum("ij,ij->j", X, Y)


def cg_gram_solve(
    G: Matrix,
    B: np.ndarray,
    rtol: float = 1e-11,
    maxiter: int | None = None,
    preconditioner: Matrix | None = None,
) -> CGResult:
    """Solve ``G X = B`` for a batch of right-hand sides by (P)CG from zero.

    Parameters
    ----------
    G:
        The (symmetric positive semi-definite) Gram operator ``AᵀA`` as an
        implicit :class:`~repro.linalg.Matrix`.  Only ``matvec``/``matmat``
        products are used, so cached structured Grams (Kronecker products,
        sums of Kronecker Grams, marginals Grams) plug in directly.
    B:
        Right-hand sides ``AᵀY``, shape (n, T).
    rtol:
        Per-column stopping criterion ``‖G x - b‖₂ <= rtol · ‖b‖₂``.
    maxiter:
        Iteration cap (default ``3 n``).
    preconditioner:
        Optional symmetric positive-definite approximation of ``G⁻¹``
        applied once per iteration (e.g. the L-block preconditioner from
        :func:`union_gram_preconditioner`).  Convergence is still
        measured on the *unpreconditioned* residual, so tolerances and
        the LSMR-fallback contract are unchanged.
    """
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2:
        raise ValueError(f"B must be a 2-D (n, T) right-hand-side batch, got {B.shape}")
    n, T = B.shape
    if G.shape != (n, n):
        raise ValueError(f"Gram operator must be {n} x {n}, got {G.shape}")
    M = preconditioner
    if M is not None and M.shape != (n, n):
        raise ValueError(f"preconditioner must be {n} x {n}, got {M.shape}")
    rtol = validate_tolerance("rtol", rtol)
    maxiter = validate_maxiter(maxiter)
    if maxiter is None:
        maxiter = 3 * n

    X = np.zeros((n, T))
    iterations = np.zeros(T, dtype=np.intp)
    thresh = rtol * np.sqrt(_col_dots(B, B))
    R = np.ascontiguousarray(B)
    # With no preconditioner Z aliases R, so rz doubles as the residual
    # norm² — exactly the plain-CG arithmetic.
    Z = R if M is None else M.matmat(R)
    rz = _col_dots(R, Z)
    rs = rz if M is None else _col_dots(R, R)
    converged = np.sqrt(rs) <= thresh
    # The active columns live in C-ordered working arrays that are
    # updated in place; a column that stops is written back to X and the
    # arrays are compacted, so no iteration gathers or scatters.
    idx = np.flatnonzero(~converged)
    Xa = np.zeros((n, idx.size))
    Ra = np.take(R, idx, axis=1)
    Pa = np.take(Z, idx, axis=1)
    rza = rz[idx]

    for _ in range(maxiter):
        if idx.size == 0:
            break
        GP = G.matmat(Pa)
        pgp = _col_dots(Pa, GP)
        ok = pgp > 0  # pᵀGp <= 0 ⇒ semi-definite breakdown: freeze, unconverged
        alpha = np.zeros_like(pgp)
        alpha[ok] = rza[ok] / pgp[ok]
        Xa += Pa * alpha
        Ra -= GP * alpha
        iterations[idx] += 1
        if M is None:
            Za = Ra
            rz_new = _col_dots(Ra, Ra)
            rs_new = rz_new
        else:
            Za = M.matmat(Ra)
            rz_new = _col_dots(Ra, Za)
            rs_new = _col_dots(Ra, Ra)
        done = np.sqrt(rs_new) <= thresh[idx]
        cont = ok & ~done
        beta = np.zeros_like(pgp)
        beta[cont] = rz_new[cont] / rza[cont]
        Pa *= beta
        Pa += Za
        rza = rz_new
        if not cont.all():
            X[:, idx[~cont]] = Xa[:, ~cont]
            converged[idx[done]] = True
            idx = idx[cont]
            Xa, Ra, Pa = (np.compress(cont, a, axis=1) for a in (Xa, Ra, Pa))
            rza = rza[cont]
    X[:, idx] = Xa  # columns still running at maxiter

    if _METRICS.enabled:
        _METRICS.counter("solver.cg_solves_total").inc()
        _METRICS.counter("solver.cg_iterations").inc(int(iterations.sum()))
        stalled = int(converged.size - int(converged.sum()))
        if stalled:
            _METRICS.counter("solver.cg_unconverged_columns_total").inc(stalled)
    return CGResult(X, iterations, converged)
