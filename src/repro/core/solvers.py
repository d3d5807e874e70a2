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

Union Gram solver.  ``G = Σ_l ⊗K_{l,i}`` has no closed factorization in
general, so :func:`union_gram_solver` factors one pair of blocks with
the two-term factorization, ``(G_a + G_b)⁻¹ = Eᵀ diag(1/(1+⊗λ)) E``
(a lone block pairs with a zero Gram), optionally adds the other
blocks' diagonals in that basis, ``M = Eᵀ diag(1/(1+⊗λ+Σ_rest)) E``,
and keeps the pair and candidate that solve a fixed probe right-hand
side in the fewest PCG iterations.  A pair is factored only when every
base factor's relative Cholesky pivot clears ``PIVOT_TOL``, so its Gram
is positive definite.  When the pair covers every block
(the paper's ``groups=2`` OPT_+ output) and solves the probe in one
iteration, ``M`` is the Gram inverse and is applied directly; otherwise
it preconditions :func:`cg_gram_solve`.  On the Total-like unions
``opt_union`` fits the other blocks are nearly diagonal in the pair's
basis, so ``M·G`` is close to ``I`` (3 iterations per column on the
ε-sweep benchmark's 4-block 16³ union, 7 with the pair alone).
Per-column-frozen convergence and the LSMR fallback contract carry over
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from ..linalg import Diagonal, Kronecker, Matrix, VStack, Weighted
from ..linalg.base import Dense
from ..obs.metrics import REGISTRY as _METRICS

__all__ = [
    "CGResult",
    "KRON_FACTOR_LIMIT",
    "PIVOT_TOL",
    "cg_gram_solve",
    "export_gram_solver_state",
    "restore_gram_solver_state",
    "UnionGramSolver",
    "union_gram_solver",
    "validate_epsilon",
    "validate_maxiter",
    "validate_positive_int",
    "validate_tolerance",
]

#: Largest square Kronecker-factor Gram that the union Gram solver
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


#: Smallest relative Cholesky pivot ``min_j C_jj² / K_jj`` a base factor
#: Gram may have for its two-term factorization to be trusted (√ε).  A
#: rank-deficient factor Gram can pass Cholesky with a pivot at rounding
#: level; the largest such pivot seen on generated unions (L 1–6, factors
#: from Ones, Identity, Prefix, random Dense and weighted p-Identities)
#: was 9.2e-10, while the smallest full-rank one, on the test fixtures,
#: ``opt_union`` fits and the same generated unions, was 3.2e-7 (the
#: ε-sweep benchmark's ``opt_union(groups=4)`` strategy).
PIVOT_TOL = float(np.sqrt(np.finfo(np.float64).eps))


def _two_term_factorization(
    g1: list[np.ndarray], g2: list[np.ndarray]
) -> tuple[list[np.ndarray], np.ndarray, list[float]] | None:
    """Factor ``(⊗Kᵢ + ⊗Mᵢ)⁻¹ = (⊗Eᵢ)ᵀ diag(1/(1+⊗λ)) (⊗Eᵢ)``.

    With ``Cᵢ = chol(Kᵢ)`` and the per-factor eigendecompositions
    ``Cᵢ⁻¹ Mᵢ Cᵢ⁻ᵀ = Uᵢ Λᵢ Uᵢᵀ``::

        ⊗Kᵢ + ⊗Mᵢ = (⊗Cᵢ) (⊗Uᵢ) [I + ⊗Λᵢ] (⊗Uᵢ)ᵀ (⊗Cᵢ)ᵀ,   Eᵢ = Uᵢᵀ Cᵢ⁻¹

    so applying the inverse costs two Kronecker mat-mats plus one
    diagonal scaling.  Returns ``(Es, ⊗λ, pivots)``, ``pivots`` holding
    each base factor's relative Cholesky pivot ``min_j C_jj² / K_jj``,
    or ``None`` when neither ordering of the two factor lists passes
    Cholesky with every pivot at least :data:`PIVOT_TOL`.  Passing
    Cholesky alone is not enough: a rank-deficient base factor can pass
    with a pivot at rounding level, and its factorization is then
    neither an inverse nor a preconditioner that keeps CG's iterates in
    ``range(AᵀA)``.
    """
    from scipy.linalg import LinAlgError, cholesky, solve_triangular

    for base, other in ((g1, g2), (g2, g1)):
        try:
            Es, lam_full, pivots = [], np.ones(1), []
            for K, M in zip(base, other):
                C = cholesky(K, lower=True, check_finite=False)
                pivots.append(float((np.diag(C) ** 2 / np.diag(K)).min()))
                if pivots[-1] < PIVOT_TOL:
                    raise LinAlgError("rank-deficient base factor")
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
        return Es, lam_full, pivots
    return None


#: Most block pairs factorized before the union Gram solver picks one
#: (pairs are enumerated in descending combined Gram-trace order; each
#: factorizable pair yields up to two candidates, scored by a probe solve).
_PRECOND_PAIR_ATTEMPTS = 8


def _rest_diagonal(
    Es: list[np.ndarray], rest: list[list[np.ndarray]]
) -> np.ndarray:
    """``Σ_l diag((⊗Eᵢ) (⊗K_{l,i}) (⊗Eᵢ)ᵀ) = Σ_l ⊗ᵢ diag(Eᵢ K_{l,i} Eᵢᵀ)``:
    the other blocks' Grams seen in a pair's eigenbasis, diagonal part
    only (one BLAS product and a row sum per factor; every entry is ≥ 0
    since the Grams are PSD)."""
    total = 0.0
    for mats in rest:
        diag = np.ones(1)
        for E, K in zip(Es, mats):
            diag = np.kron(diag, ((E @ K) * E).sum(axis=1))
        total = total + diag
    return total


def _assemble_gram_inverse(Es: list[np.ndarray], lam_full: np.ndarray) -> Matrix:
    """``(⊗Eᵢ)ᵀ diag(1/(1+⊗λ)) (⊗Eᵢ)`` from its factor state."""
    E = Kronecker([Dense(Ei) for Ei in Es])
    return E.T @ Diagonal(1.0 / (1.0 + lam_full)) @ E


@dataclass
class UnionGramSolver:
    """A union's Gram inverse or preconditioner, from one block pair.

    ``inverse = (⊗Eᵢ)ᵀ diag(1/(1+lam)) (⊗Eᵢ)`` with ``Eᵢ = factors[i]``;
    ``blocks`` names the factored pair (one index for a single-block
    union); ``pivots`` are its base factors' relative Cholesky pivots,
    each at least :data:`PIVOT_TOL`.  ``exact`` marks that the pair
    covers every block *and* solved the probe in one PCG iteration:
    callers then apply ``inverse`` directly, and run PCG with it
    otherwise.
    """

    factors: list[np.ndarray]
    lam: np.ndarray
    blocks: tuple[int, ...]
    exact: bool
    pivots: list[float]
    inverse: Matrix = field(init=False, repr=False)

    def __post_init__(self):
        self.inverse = _assemble_gram_inverse(self.factors, self.lam)


def _candidate_pairs(mats: list) -> tuple[list[int], list[tuple[int, int | None]]]:
    """The blocks with factor Grams, in descending Gram-trace order, and
    the block pairs to factor, best first.

    A single block pairs with a zero Gram (``j`` is ``None``); two
    blocks factor (0, 1), block 0 as the first base.  From three
    blocks on, every shape-compatible pair is listed in descending
    combined Gram-trace order, higher-trace block first, and the first
    ``_PRECOND_PAIR_ATTEMPTS`` are kept.  Compatibility is checked
    before a pair takes a slot, so one odd-shaped block cannot starve
    the viable pairs out of the cap.
    """
    traces = [
        float(np.prod([np.trace(m) for m in g])) if g is not None else -np.inf
        for g in mats
    ]
    ranked = sorted(
        (i for i, g in enumerate(mats) if g is not None),
        key=lambda i: (-traces[i], i),
    )
    if len(mats) == 1:
        return ranked, [(0, None)] if ranked else []
    pairs = [
        (i, j) for i, j in combinations(ranked, 2) if _compatible(mats[i], mats[j])
    ]
    if len(mats) == 2:
        return ranked, [tuple(sorted(p)) for p in pairs]
    pairs.sort(key=lambda p: (-(traces[p[0]] + traces[p[1]]), p))
    return ranked, pairs[:_PRECOND_PAIR_ATTEMPTS]


def _compatible(g1: list[np.ndarray], g2: list[np.ndarray]) -> bool:
    return len(g1) == len(g2) and all(a.shape == b.shape for a, b in zip(g1, g2))


def union_gram_solver(A: Matrix) -> UnionGramSolver | None:
    """The structured solver of a :class:`VStack` union's Gram, memoized.

    ``G = Σ_l ⊗K_{l,i}`` has no closed factorization in general.  A pair
    of blocks (a, b) gives, by :func:`_two_term_factorization`,
    ``(G_a + G_b)⁻¹ = Eᵀ diag(1/(1+⊗λ)) E``; each other block whose
    factor shapes match adds ``⊗ᵢ diag(Eᵢ K_{l,i} Eᵢᵀ)`` to the diagonal,
    giving the corrected

        M = Eᵀ diag(1 / (1 + ⊗λ + Σ_rest)) E,

    which accounts for every block at the pair's cost per apply and is
    exact when the other blocks are diagonal in the pair's basis — as
    the Total-like blocks of ``opt_union`` fits nearly are.  The pairs
    are :func:`_candidate_pairs`; each gives its corrected candidate
    (when other blocks exist) then its pair-only one.  Every candidate is
    scored by its PCG iteration count on one fixed probe ``b = Aᵀu``,
    ``u ~ N(0, I)`` from ``default_rng(0)``, each probe capped at the
    best count so far.  The fewest iterations win; ties keep the earlier
    pair and, within a pair, the pair-only candidate.

    Only factorizations whose base factors' relative Cholesky pivots all
    reach :data:`PIVOT_TOL` become candidates, so the pair's Gram is
    positive definite.  The winner is ``exact`` when its pair covers
    every block (one- and two-block unions, the paper's OPT_+ output) —
    ``M`` is then ``G⁻¹`` — and it solved the probe in one iteration,
    i.e. ``M b`` solved ``G x = b`` for a random ``b`` in ``range(AᵀA)``
    at once.

    Returns ``None`` when ``A`` is not a :class:`VStack` or no block
    pair of affordable Kronecker Grams factors — callers then run plain
    CG.  The outcome, ``None`` included, is memoized on ``A`` under
    ``union_gram_solver``.
    """
    if not isinstance(A, VStack):
        return None
    cached = A.cache_get("union_gram_solver")
    if cached is not None:
        return None if isinstance(cached, str) else cached
    solver = _fit_union_gram_solver(A)
    A.cache_set("union_gram_solver", "unavailable" if solver is None else solver)
    return solver


def _fit_union_gram_solver(A: VStack) -> UnionGramSolver | None:
    mats = [_kron_gram_factor_mats(block) for block in A.blocks]
    ranked, pairs = _candidate_pairs(mats)
    if not pairs:
        return None
    G = A.gram()
    u = np.random.default_rng(0).standard_normal(A.shape[0])
    probe = A.rmatvec(u)[:, None]
    # Candidates rank by (probe iterations, pair rank, pair-only before
    # corrected).  The corrected candidate is probed first because it
    # usually wins, which caps the pair-only probe at its count; the rank
    # keeps ties on the pair-only one all the same.
    best: tuple | None = None
    for rank, (i, j) in enumerate(pairs):
        partner = [np.zeros_like(m) for m in mats[i]] if j is None else mats[j]
        factored = _two_term_factorization(mats[i], partner)
        if factored is None:
            continue
        Es, lam_pair, pivots = factored
        rest = [
            mats[l]
            for l in ranked
            if l not in (i, j) and _compatible(mats[i], mats[l])
        ]
        lams = [lam_pair]
        if rest:
            lams.append(lam_pair + _rest_diagonal(Es, rest))
        for corrected in reversed(range(len(lams))):
            M = _assemble_gram_inverse(Es, lams[corrected])
            cap = None if best is None or best[0][0] == np.inf else int(best[0][0])
            result = cg_gram_solve(G, probe, maxiter=cap, preconditioner=M)
            score = result.iterations[0] if result.converged[0] else np.inf
            order = (score, rank, corrected)
            if best is None or order < best[0]:
                blocks = (i,) if j is None else (i, j)
                best = (order, blocks, Es, lams[corrected], pivots)
    if best is None:
        return None
    (score, _, _), blocks, Es, lam_full, pivots = best
    exact = len(blocks) == len(A.blocks) and bool(score == 1)
    return UnionGramSolver(Es, lam_full, blocks, exact, pivots)


def export_gram_solver_state(A: Matrix) -> dict | None:
    """The state of ``A``'s :func:`union_gram_solver`, for persistence.

    Runs the (memoized) solver build and returns
    ``{"factors": [E₁, ..., E_d], "lam": λ, "blocks": [a, b],
    "exact": bool, "pivots": [p₁, ..., p_d]}`` as plain float64 arrays
    and JSON scalars, so a
    reloaded strategy never re-runs the factorizations or probe solves;
    ``None`` when ``A`` has no union solver (not a union, or no block
    pair factors), which a reloaded strategy rediscovers on first use.
    """
    solver = union_gram_solver(A)
    if solver is None:
        return None
    return {
        "factors": list(solver.factors),
        "lam": solver.lam,
        "blocks": [int(b) for b in solver.blocks],
        "exact": bool(solver.exact),
        "pivots": [float(p) for p in solver.pivots],
    }


def restore_gram_solver_state(A: Matrix, state: dict | None) -> None:
    """Attach a state from :func:`export_gram_solver_state` to ``A``.

    Only that shape, with every pivot at least :data:`PIVOT_TOL`, is
    restored: any other — ``None``, or one of the shapes older registry
    entries carry (``{"factors", "lam"}`` without ``blocks``/``exact``,
    ``precond_*`` keys, ``{"unavailable": True}``, or the pivot-less
    ``{"factors", "lam", "blocks", "exact"}`` written before pivots were
    checked) — leaves ``A`` untouched, so its first solve rebuilds the
    solver and no state factored without the pivot check is trusted.
    Extra keys, such as the ``recycle_*`` fields of old entries, are
    ignored.
    """
    if not isinstance(A, VStack) or not isinstance(state, dict):
        return
    if not {"factors", "lam", "blocks", "exact", "pivots"} <= state.keys():
        return
    if min(state["pivots"], default=0.0) < PIVOT_TOL:
        return
    A.cache_set(
        "union_gram_solver",
        UnionGramSolver(
            [np.asarray(E, dtype=np.float64) for E in state["factors"]],
            np.asarray(state["lam"], dtype=np.float64),
            tuple(int(b) for b in state["blocks"]),
            bool(state["exact"]),
            [float(p) for p in state["pivots"]],
        ),
    )


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
        applied once per iteration (e.g. the inverse of a
        :func:`union_gram_solver` that is not exact).  Convergence is still
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
