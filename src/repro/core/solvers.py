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
(a lone block pairs with a zero Gram), and adds the diagonals of the
other blocks with matching factor shapes in that basis to ``λ``.  A pair
is factored only when every base factor's relative Cholesky pivot clears
``PIVOT_TOL``, so its Gram, and with it ``G``, is positive definite.
Among the candidate pairs it keeps the one whose other blocks carry the
least off-diagonal mass in its eigenbasis, each entry scaled by the
Jacobi diagonal ``1/(1+λ)`` on both sides: no solve is needed to
choose.  On the Total-like unions ``opt_union`` fits the other blocks
are nearly diagonal in the chosen pair's basis.

Eigenbasis solve.  Every union solve runs on ``Ĝ = E G Eᵀ``,
``E = ⊗Eᵢ`` (:func:`union_eigenbasis`): there the pair's Gram is the
diagonal ``⊗diag(Eᵢ K_{a,i} Eᵢᵀ) + ⊗diag(Eᵢ K_{b,i} Eᵢᵀ)``, every other
shape-compatible block is one Kronecker product of dense
``Eᵢ K_{l,i} Eᵢᵀ`` factors, and the Jacobi diagonal ``1/(1+λ)`` is the
preconditioner.  When the pair covers every block (the paper's
``groups=2`` OPT_+ output) ``Ĝ`` is that diagonal and the solve is
``u = jacobi · E b``, with no iteration; otherwise PCG runs from zero,
its iterates those of PCG with ``Eᵀ diag(1/(1+λ)) E`` on ``G`` mapped by
``x = Eᵀu``, at one Kronecker mat-mat per block outside the pair plus
one for ``E⁻¹ r̂`` per iteration (the stopping rule reads the residual
of ``G x = b``).  The pair's off-diagonal terms in that basis are
rounding, not zero, so each result is checked once against the true
``G``.  A column that misses ``rtol·‖b‖`` gets one refinement round, the
same solve on ``b − G x``; only a column that still misses is reported
unconverged, for LSMR.  Whether a union solves exactly is this outcome,
not a stored verdict.  The transformed factors are built on the first
solve and held by the solver; they are never persisted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from ..linalg import Diagonal, Kronecker, Matrix, Sum, VStack, Weighted
from ..linalg.base import Dense
from ..obs.metrics import REGISTRY as _METRICS

__all__ = [
    "CGResult",
    "Eigenbasis",
    "KRON_FACTOR_LIMIT",
    "PIVOT_TOL",
    "cg_gram_solve",
    "export_gram_solver_state",
    "restore_gram_solver_state",
    "UnionGramSolver",
    "union_eigenbasis",
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
    (every release of :mod:`repro.core.measure` — ``laplace_measure``,
    ``gaussian_measure`` and their ``_batch`` forms, which
    ``Mechanism.measure``/``measure_batch`` and so ``HDMM.run`` /
    ``run_batch`` reach — ``Mechanism.variance`` and
    ``Mechanism.error_at_budget``, and so ``expected_error`` /
    ``rootmse``, ``QueryService.measure``, and the service accountant).  Accepts a
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
#: factorizable pair is scored by its other blocks' off-diagonal mass).
_PRECOND_PAIR_ATTEMPTS = 8


def _rest_in_basis(
    Es: list[np.ndarray], lam: np.ndarray | float, rest: list[list[np.ndarray]]
) -> tuple[np.ndarray, float]:
    """Other blocks' Grams seen in a pair's eigenbasis, ``Fᵢ = Eᵢ K_{l,i} Eᵢᵀ``.

    Returns ``λ`` corrected by their diagonal, ``λ + Σ_l ⊗ᵢ diag(Fᵢ)``
    (every entry ≥ 0 since the Grams are PSD), and their off-diagonal
    mass against that diagonal, ``Σ_l Σ_{j≠k} (⊗ᵢFᵢ)²_jk w_j w_k`` with
    ``w = 1/(1+λ)``: the squared Frobenius distance from ``I`` of the
    Jacobi-scaled Gram in that basis, up to the pair's rounding.  One
    ``Eᵢ K_{l,i}`` product per factor serves both, and the mass costs one
    Kronecker mat-vec per block, ``⊗ᵢ(Fᵢ∘Fᵢ)`` being the entrywise square
    of ``⊗ᵢFᵢ``.
    """
    total, squares = 0.0, []
    for mats in rest:
        diag, Fs = np.ones(1), []
        for E, K in zip(Es, mats):
            EK = E @ K
            diag = np.kron(diag, (EK * E).sum(axis=1))
            Fs.append(EK @ E.T)
        total = total + diag
        squares.append(Fs)
    lam = lam + total
    w = 1.0 / (1.0 + lam)
    mass = 0.0
    for Fs in squares:
        diag = np.ones(1)
        for F in Fs:
            diag = np.kron(diag, np.diag(F))
        full = w @ Kronecker([Dense(F * F) for F in Fs]).matvec(w)
        mass += full - np.sum((diag * w) ** 2)
    return lam, float(mass)


def _diag_in_basis(Es: list[np.ndarray], mats: list[np.ndarray]) -> np.ndarray:
    """``⊗ᵢ diag(Eᵢ Kᵢ Eᵢᵀ)``, by the expression :func:`_rest_in_basis`
    uses, ``⊗ᵢ (Eᵢ Kᵢ ∘ Eᵢ).sum(1)``, without forming ``Eᵢ Kᵢ Eᵢᵀ``."""
    diag = np.ones(1)
    for E, K in zip(Es, mats):
        diag = np.kron(diag, ((E @ K) * E).sum(axis=1))
    return diag


@dataclass
class Eigenbasis:
    """A union's Gram seen in its solver pair's eigenbasis ``E = ⊗Eᵢ``.

    ``gram`` is ``Ĝ = E G Eᵀ``: the pair's blocks as one
    :class:`~repro.linalg.Diagonal`, ``⊗ᵢ diag(Eᵢ K_{a,i} Eᵢᵀ) +
    ⊗ᵢ diag(Eᵢ K_{b,i} Eᵢᵀ)`` (their off-diagonal terms are rounding),
    every other block whose factor shapes match as
    ``Kronecker(Dense(Eᵢ K_{l,i} Eᵢᵀ))``, and any other block as
    ``E G_l Eᵀ``; when the pair covers every block it is that
    ``Diagonal`` alone.  ``jacobi`` is ``diag(1/(1+λ))`` for the solver's
    ``λ``, ``basis`` is ``E`` and ``inverse`` is ``E⁻¹ = ⊗Eᵢ⁻¹``.
    """

    basis: Matrix
    inverse: Matrix
    gram: Matrix
    jacobi: Diagonal


@dataclass
class UnionGramSolver:
    """A union's Gram factorization, from one block pair.

    ``factors`` are the ``Eᵢ`` of the pair's eigenbasis ``E = ⊗Eᵢ`` and
    ``lam`` its ``λ``, corrected by the other compatible blocks'
    diagonals; ``blocks`` names the factored pair (one index for a
    single-block union); ``pivots`` are its base factors' relative
    Cholesky pivots, each at least :data:`PIVOT_TOL`.  ``eigenbasis`` is
    the :class:`Eigenbasis` built from them on the first solve
    (:func:`union_eigenbasis`); it is never persisted.
    """

    factors: list[np.ndarray]
    lam: np.ndarray
    blocks: tuple[int, ...]
    pivots: list[float]
    eigenbasis: Eigenbasis | None = field(
        default=None, init=False, repr=False, compare=False
    )


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
    factor shapes match adds ``⊗ᵢ diag(Eᵢ K_{l,i} Eᵢᵀ)`` to ``λ``, which
    accounts for every block at the pair's cost per apply and is exact
    when the other blocks are diagonal in the pair's basis — as the
    Total-like blocks of ``opt_union`` fits nearly are.  The pairs are
    :func:`_candidate_pairs`; each is scored by those blocks' off-diagonal
    mass in its basis, entry ``(j, k)`` weighted by ``1/((1+λ_j)(1+λ_k))``
    (:func:`_rest_in_basis`), 0 when there are none.  The lowest score
    wins, ties keeping the earlier pair.

    Only factorizations whose base factors' relative Cholesky pivots all
    reach :data:`PIVOT_TOL` become candidates, so the pair's Gram is
    positive definite, and so is ``G``: a union with a solver has full
    column rank.

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
    best: tuple[float, UnionGramSolver] | None = None
    for i, j in pairs:
        partner = [np.zeros_like(m) for m in mats[i]] if j is None else mats[j]
        factored = _two_term_factorization(mats[i], partner)
        if factored is None:
            continue
        Es, lam, pivots = factored
        rest = [
            mats[l]
            for l in ranked
            if l not in (i, j) and _compatible(mats[i], mats[l])
        ]
        score = 0.0
        if rest:
            lam, score = _rest_in_basis(Es, lam, rest)
        if best is None or score < best[0]:
            blocks = (i,) if j is None else (i, j)
            best = (score, UnionGramSolver(Es, lam, blocks, pivots))
    return None if best is None else best[1]


def union_eigenbasis(A: Matrix) -> Eigenbasis | None:
    """The :class:`Eigenbasis` of ``A``'s :func:`union_gram_solver`.

    Built on first use and held by that solver (a solver attached later,
    e.g. by :func:`restore_gram_solver_state`, builds its own).  It is
    derived state: never persisted, and never built by a warm load or a
    registry write.  ``None`` when ``A`` has no union Gram solver.
    """
    solver = union_gram_solver(A)
    if solver is None:
        return None
    if solver.eigenbasis is None:
        solver.eigenbasis = _build_eigenbasis(A, solver)
    return solver.eigenbasis


def _build_eigenbasis(A: VStack, solver: UnionGramSolver) -> Eigenbasis:
    Es = solver.factors
    E = Kronecker([Dense(Ei) for Ei in Es])
    mats = [_kron_gram_factor_mats(block) for block in A.blocks]
    terms: list[Matrix] = [
        Diagonal(sum(_diag_in_basis(Es, mats[l]) for l in solver.blocks))
    ]
    for l, block in enumerate(A.blocks):
        if l in solver.blocks:
            continue
        if mats[l] is not None and _compatible(mats[l], Es):
            factors = [Ei @ K @ Ei.T for Ei, K in zip(Es, mats[l])]
            terms.append(Kronecker([Dense((F + F.T) / 2.0) for F in factors]))
        else:
            terms.append(E @ block.gram() @ E.T)
    return Eigenbasis(
        basis=E,
        inverse=Kronecker([Dense(np.linalg.inv(Ei)) for Ei in Es]),
        gram=Sum(terms) if len(terms) > 1 else terms[0],
        jacobi=Diagonal(1.0 / (1.0 + solver.lam)),
    )


def export_gram_solver_state(A: Matrix) -> dict | None:
    """The state of ``A``'s :func:`union_gram_solver`, for persistence.

    Runs the (memoized) solver build and returns
    ``{"factors": [E₁, ..., E_d], "lam": λ, "blocks": [a, b],
    "pivots": [p₁, ..., p_d]}`` as plain float64 arrays and JSON
    scalars, so a reloaded strategy never re-runs the factorizations;
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
        "pivots": [float(p) for p in solver.pivots],
    }


def restore_gram_solver_state(A: Matrix, state: dict | None) -> None:
    """Attach a state from :func:`export_gram_solver_state` to ``A``.

    Only a state with ``factors``, ``lam``, ``blocks`` and ``pivots``,
    every pivot at least :data:`PIVOT_TOL`, is restored: any other —
    ``None``, or one of the shapes older registry entries carry
    (``{"factors", "lam"}`` without ``blocks``, ``precond_*`` keys,
    ``{"unavailable": True}``, or the pivot-less
    ``{"factors", "lam", "blocks", "exact"}`` written before pivots were
    checked) — leaves ``A`` untouched, so its first solve rebuilds the
    solver and no state factored without the pivot check is trusted.
    Extra keys, such as the ``exact`` verdict and the ``recycle_*``
    fields of older entries, are ignored.
    """
    if not isinstance(A, VStack) or not isinstance(state, dict):
        return
    if not {"factors", "lam", "blocks", "pivots"} <= state.keys():
        return
    if min(state["pivots"], default=0.0) < PIVOT_TOL:
        return
    A.cache_set(
        "union_gram_solver",
        UnionGramSolver(
            [np.asarray(E, dtype=np.float64) for E in state["factors"]],
            np.asarray(state["lam"], dtype=np.float64),
            tuple(int(b) for b in state["blocks"]),
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
    basis: Eigenbasis | None = None,
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
        Iteration cap (default ``3 n``), per round.
    basis:
        Optional :func:`union_eigenbasis` of ``G``.  The solve then runs
        on ``Ĝ u = E b`` and maps back by ``x = Eᵀu``: when ``Ĝ`` is the
        pair's diagonal alone (the pair covers every block) it is
        ``u = jacobi · E b`` with 0 iterations, otherwise PCG with the
        Jacobi preconditioner ``jacobi``, each iteration costing ``Ĝ``'s
        products (one Kronecker mat-mat per block outside the pair) plus
        ``E⁻¹ r̂`` for the stopping rule, which still reads
        ``‖G x - b‖₂ = ‖E⁻¹ r̂‖₂``.  ``Ĝ`` holds the pair's Gram as a
        diagonal, exact only to rounding, so every column is checked
        once against ``G`` itself.  A column whose true residual misses
        ``rtol · ‖b‖₂`` gets one refinement round, the same solve on
        ``b − G x`` to the same bound, and is reported unconverged, for
        LSMR, only if it misses again.
    """
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2:
        raise ValueError(f"B must be a 2-D (n, T) right-hand-side batch, got {B.shape}")
    n, T = B.shape
    if G.shape != (n, n):
        raise ValueError(f"Gram operator must be {n} x {n}, got {G.shape}")
    if basis is not None and basis.gram.shape != (n, n):
        raise ValueError(f"basis must be {n} x {n}, got {basis.gram.shape}")
    rtol = validate_tolerance("rtol", rtol)
    maxiter = validate_maxiter(maxiter)
    if maxiter is None:
        maxiter = 3 * n

    rs = _col_dots(B, B)
    thresh = rtol * np.sqrt(rs)
    if basis is None:
        X, iterations, converged = _pcg(G, B, rs, thresh, maxiter, None, None)
    else:
        X, iterations = _eigenbasis_solve(basis, B, rs, thresh, maxiter)
        R = B - G.matmat(X)
        rr = _col_dots(R, R)
        converged = np.sqrt(rr) <= thresh
        miss = np.flatnonzero(~converged)
        if miss.size:
            dX, more = _eigenbasis_solve(
                basis, np.take(R, miss, axis=1), rr[miss], thresh[miss], maxiter
            )
            X[:, miss] += dX
            iterations[miss] += more
            R = np.take(B, miss, axis=1) - G.matmat(np.take(X, miss, axis=1))
            converged[miss] = np.sqrt(_col_dots(R, R)) <= thresh[miss]

    if _METRICS.enabled:
        _METRICS.counter("solver.cg_solves_total").inc()
        _METRICS.counter("solver.cg_iterations").inc(int(iterations.sum()))
        stalled = int(converged.size - int(converged.sum()))
        if stalled:
            _METRICS.counter("solver.cg_unconverged_columns_total").inc(stalled)
    return CGResult(X, iterations, converged)


def _eigenbasis_solve(
    basis: Eigenbasis,
    B: np.ndarray,
    rs: np.ndarray,
    thresh: np.ndarray,
    maxiter: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One solve of ``G X = B`` in ``basis``, from zero: ``X = Eᵀ U`` for
    ``U = jacobi · E B`` when ``Ĝ`` is diagonal, else for PCG's ``U``.
    Returns ``(X, iterations)``; whether ``X`` converged is for the
    caller to check against the true ``G``."""
    EB = basis.basis.matmat(B)
    if isinstance(basis.gram, Diagonal):
        U, iterations = basis.jacobi.matmat(EB), np.zeros(B.shape[1], dtype=np.intp)
    else:
        U, iterations, _ = _pcg(
            basis.gram, EB, rs, thresh, maxiter, basis.jacobi, basis.inverse
        )
    return basis.basis.rmatmat(U), iterations


def _pcg(
    G: Matrix,
    B: np.ndarray,
    rs: np.ndarray,
    thresh: np.ndarray,
    maxiter: int,
    M: Matrix | None,
    residual_map: Matrix | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (P)CG loop of :func:`cg_gram_solve` on ``G X = B`` from zero.

    ``rs`` holds the squared residual norms of the start ``X = 0`` and
    ``thresh`` the per-column stopping norms; the residual norm is that
    of ``residual_map · r`` (of ``r`` itself when ``None``).  Returns
    ``(X, iterations, converged)``.
    """
    n, T = B.shape
    X = np.zeros((n, T))
    iterations = np.zeros(T, dtype=np.intp)
    R = np.ascontiguousarray(B)
    # With no preconditioner Z aliases R, so rz doubles as the residual
    # norm² — exactly the plain-CG arithmetic.
    Z = R if M is None else M.matmat(R)
    rz = _col_dots(R, Z)
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
        else:
            Za = M.matmat(Ra)
            rz_new = _col_dots(Ra, Za)
        if residual_map is not None:
            Rt = residual_map.matmat(Ra)
            rs_new = _col_dots(Rt, Rt)
        else:
            rs_new = rz_new if M is None else _col_dots(Ra, Ra)
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
    return X, iterations, converged
