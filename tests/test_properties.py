"""Property-based tests (hypothesis) for the core algebraic invariants.

These pin down the identities HDMM's correctness rests on: Kronecker
mat-vec/Gram/pinv/sensitivity identities (Section 4.4, Theorem 3), the
marginals algebra closure (Propositions 3-4), the p-Identity construction
(Definition 9), and the analytic gradients — plus the accounting
invariant that every view of a privacy ledger (live accountant, WAL
recovery, read-only replay, live report) folds to bit-equal state.
"""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.linalg import (
    AllRange,
    Dense,
    Diagonal,
    Identity,
    Kronecker,
    MarginalsAlgebra,
    MarginalsGram,
    Ones,
    Prefix,
    Sum,
    VStack,
    Weighted,
    kmatmat,
)
from repro.linalg.kron import DENSE_FACTOR_CELLS
from repro.core import HDMM
from repro.core.reconstruct import least_squares
from repro.core import reconstruct, solvers
from repro.core.solvers import (
    PIVOT_TOL,
    _kron_gram_factor_mats,
    cg_gram_solve,
    union_eigenbasis,
    union_gram_solver,
)
from repro.obs.spend import replay, report_from_accountant
from repro.optimize import PIdentity, pidentity_loss_and_grad, spawn_seeds
from repro.privacy import ApproxDPPolicy, PureEpsilonPolicy, ZCDPPolicy
from repro.service import (
    BudgetExceededError,
    PrivacyAccountant,
    strategy_spans_everything,
)

settings.register_profile("repro", deadline=None, max_examples=25)
settings.load_profile("repro")


def small_matrix(max_rows=4, max_cols=4):
    shapes = st.tuples(
        st.integers(1, max_rows), st.integers(1, max_cols)
    )
    return shapes.flatmap(
        lambda s: arrays(
            np.float64,
            s,
            elements=st.floats(-3, 3, allow_nan=False),
        )
    )


def explicit_kron(mats):
    out = mats[0]
    for M in mats[1:]:
        out = np.kron(out, M)
    return out


def kron_factor():
    """A Kronecker factor of any kind kmatmat treats differently: Dense
    (the stacked-matmul path), Identity (skipped), and structured
    operators, non-square (Ones, Dense) and size-1 ones included."""
    size = st.integers(1, 4)
    return st.one_of(
        small_matrix().map(Dense),
        size.map(Identity),
        st.tuples(st.integers(1, 2), size).map(lambda s: Ones(*s)),
        size.map(Prefix),
        size.map(AllRange),
        small_matrix().map(lambda M: Dense(M).T),  # a column-major array
    )


class TestKroneckerProperties:
    @given(
        st.lists(kron_factor(), min_size=1, max_size=4),
        st.sampled_from([0, 1, 7]),
    )
    def test_kmatmat_matches_explicit(self, factors, batch):
        E = explicit_kron([np.asarray(f.dense()) for f in factors])
        X = np.sin(np.arange(E.shape[1] * batch, dtype=float)).reshape(
            E.shape[1], batch
        )
        got = kmatmat(factors, X)
        assert got.shape == (E.shape[0], batch)
        assert np.allclose(got, E @ X, atol=1e-10)

    @given(st.lists(small_matrix(), min_size=1, max_size=3))
    def test_matvec_matches_explicit(self, mats):
        K = Kronecker([Dense(M) for M in mats])
        E = explicit_kron(mats)
        x = np.arange(1.0, K.shape[1] + 1)
        assert np.allclose(K.matvec(x), E @ x, atol=1e-8)

    @given(st.lists(small_matrix(), min_size=1, max_size=3))
    def test_gram_identity(self, mats):
        K = Kronecker([Dense(M) for M in mats])
        E = explicit_kron(mats)
        assert np.allclose(K.gram().dense(), E.T @ E, atol=1e-8)

    @given(st.lists(small_matrix(), min_size=1, max_size=3))
    def test_sensitivity_theorem3(self, mats):
        K = Kronecker([Dense(M) for M in mats])
        E = explicit_kron(mats)
        assert np.isclose(
            K.sensitivity(), np.abs(E).sum(axis=0).max(), atol=1e-8
        )

    @given(st.lists(small_matrix(), min_size=1, max_size=2))
    def test_pinv_identity(self, mats):
        # The identity (A⊗B)⁺ = A⁺⊗B⁺ is exact, but numerical pinv
        # truncates singular values relative to the largest one, which
        # differs between the factors and the product for ill-conditioned
        # inputs; restrict to well-conditioned factors.
        from hypothesis import assume

        for M in mats:
            svals = np.linalg.svd(M, compute_uv=False)
            assume(svals.size > 0 and svals.min() > 0.1)
        K = Kronecker([Dense(M) for M in mats])
        E = explicit_kron(mats)
        assert np.allclose(K.pinv().dense(), np.linalg.pinv(E), atol=1e-6)


#: Factors against DENSE_FACTOR_CELLS: tiny ones, one at the limit
#: (applied dense) and one of each kind just above it (applied by its own
#: matmat).  At most one non-tiny factor per product, and the bound on
#: the product's cells, keep the explicit Kronecker product small.
LIMIT = DENSE_FACTOR_CELLS
_ABOVE_N = math.isqrt(LIMIT) + 1  # Prefix(n): n² cells
_ALLRANGE_N = next(n for n in range(1, LIMIT) if n * n * (n + 1) // 2 > LIMIT)


def _pidentity(p, n, seed):
    return PIdentity(np.random.default_rng(seed).random((p, n)))


def tiny_factor():
    size = st.integers(1, 3)
    return st.one_of(
        st.tuples(st.integers(1, 2), size, st.integers(0, 9)).map(
            lambda a: _pidentity(*a)
        ),
        st.tuples(st.integers(1, 2), size).map(lambda s: Ones(*s)),
        size.map(AllRange),
        size.map(Prefix),
        size.map(Identity),
    )


def big_factor():
    """A factor at the limit or just above it, of each kind."""
    return st.sampled_from([
        lambda: Prefix(math.isqrt(LIMIT)),  # exactly LIMIT cells: dense
        lambda: Prefix(_ABOVE_N),
        lambda: AllRange(_ALLRANGE_N),
        lambda: _pidentity(1, _ABOVE_N - 1, 0),
        lambda: Ones(2, LIMIT // 2 + 1),
    ]).map(lambda make: make())


@st.composite
def limit_products(draw):
    factors = draw(st.lists(tiny_factor(), min_size=0, max_size=2))
    if draw(st.booleans()) or not factors:
        factors.insert(
            draw(st.integers(0, len(factors))), draw(big_factor())
        )
    return Kronecker(factors)


def _close(got, ref):
    assert got.shape == ref.shape
    scale = max(1.0, float(np.max(np.abs(ref), initial=0.0)))
    assert float(np.max(np.abs(got - ref), initial=0.0)) <= 1e-12 * scale


class TestDenseFactorPath:
    """Factors of at most DENSE_FACTOR_CELLS cells are applied as their
    dense arrays; every product must still be the explicit one."""

    @given(limit_products(), st.sampled_from([0, 1, 5]))
    def test_products_match_dense(self, K, width):
        assume(K.shape[0] * K.shape[1] <= 2_000_000)  # E is at most 16 MB
        E = K.dense()
        m, n = K.shape
        X = np.sin(np.arange(n * width, dtype=float)).reshape(n, width)
        Y = np.cos(np.arange(m * width, dtype=float)).reshape(m, width)
        _close(K.matmat(X), E @ X)
        _close(K.rmatmat(Y), E.T @ Y)
        x, y = np.sin(np.arange(n, dtype=float)), np.cos(np.arange(m, dtype=float))
        _close(K.matvec(x), E @ x)
        _close(K.rmatvec(y), E.T @ y)

    @pytest.mark.parametrize(
        "structured, rmat",
        [
            (lambda: _pidentity(1, _ABOVE_N - 1, 0), False),
            (lambda: _pidentity(1, _ABOVE_N - 1, 0), True),
            # LIMIT x 1: within the limit, but a single column.
            (lambda: _pidentity(LIMIT - 1, 1, 0), False),
        ],
        ids=["above-the-limit", "above-the-limit-transposed", "single-column"],
    )
    def test_a_factor_keeps_its_own_matmat(self, structured, rmat):
        small = _pidentity(2, 3, 1)
        big = structured()
        m, n = big.shape
        assert small.shape[0] * small.shape[1] <= LIMIT
        assert m * n > LIMIT or n == 1
        calls = []
        name = "rmatmat" if rmat else "matmat"
        own = getattr(big, name)
        setattr(big, name, lambda Z: calls.append(Z.shape) or own(Z))

        def refuse(Z):
            raise AssertionError("a small factor must be applied dense")

        setattr(small, name, refuse)
        K = Kronecker([small, big])
        E = K.dense()
        X = np.sin(np.arange(3 * K.shape[0 if rmat else 1], dtype=float))
        X = X.reshape(-1, 3)
        got = K.rmatmat(X) if rmat else K.matmat(X)
        _close(got, (E.T if rmat else E) @ X)
        assert len(calls) == 1 and calls[0][0] == big.shape[0 if rmat else 1]


class TestStackProperties:
    @given(
        st.lists(
            arrays(
                np.float64,
                st.tuples(st.integers(1, 4), st.just(5)),
                elements=st.floats(-3, 3, allow_nan=False),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_vstack_equals_numpy_vstack(self, blocks):
        S = VStack([Dense(B) for B in blocks])
        E = np.vstack(blocks)
        x = np.arange(1.0, 6.0)
        assert np.allclose(S.matvec(x), E @ x)
        assert np.allclose(S.gram().dense(), E.T @ E, atol=1e-8)
        assert np.isclose(S.sensitivity(), np.abs(E).sum(axis=0).max(), atol=1e-8)

    @given(
        small_matrix(),
        st.floats(0.1, 5.0, allow_nan=False),
    )
    def test_weighted_consistency(self, M, w):
        W = Weighted(Dense(M), w)
        assert np.allclose(W.dense(), w * M)
        assert np.isclose(W.sensitivity(), w * np.abs(M).sum(axis=0).max(), rtol=1e-9)


class TestMarginalsProperties:
    SIZES = (2, 3, 2)

    @given(
        arrays(np.float64, 8, elements=st.floats(0, 3, allow_nan=False)),
        arrays(np.float64, 8, elements=st.floats(0, 3, allow_nan=False)),
    )
    def test_product_closure(self, u, v):
        alg = MarginalsAlgebra(self.SIZES)
        Gu = MarginalsGram(self.SIZES, u).dense()
        Gv = MarginalsGram(self.SIZES, v).dense()
        w = alg.multiply_weights(u, v)
        assert np.allclose(Gu @ Gv, MarginalsGram(self.SIZES, w).dense(), atol=1e-6)

    @given(
        arrays(np.float64, 8, elements=st.floats(0, 3, allow_nan=False)),
        arrays(np.float64, 8, elements=st.floats(0, 3, allow_nan=False)),
    )
    def test_multiply_weights_symmetric(self, u, v):
        alg = MarginalsAlgebra(self.SIZES)
        assert np.allclose(
            alg.multiply_weights(u, v), alg.multiply_weights(v, u), atol=1e-9
        )

    @given(
        arrays(
            np.float64, 8, elements=st.floats(0.05, 3, allow_nan=False)
        )
    )
    def test_inverse_roundtrip(self, u):
        alg = MarginalsAlgebra(self.SIZES)
        v = alg.ginv_weights(u)
        Gu = MarginalsGram(self.SIZES, u).dense()
        Gv = MarginalsGram(self.SIZES, v).dense()
        assert np.allclose(Gu @ Gv, np.eye(12), atol=1e-5)


class TestPIdentityProperties:
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 3), st.integers(2, 6)),
            elements=st.floats(0, 4, allow_nan=False),
        )
    )
    def test_sensitivity_always_one(self, theta):
        A = PIdentity(theta)
        D = A.dense()
        assert np.allclose(np.abs(D).sum(axis=0), 1.0)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 3), st.integers(2, 5)),
            elements=st.floats(0.01, 4, allow_nan=False),
        )
    )
    def test_loss_positive_and_matches_dense(self, theta):
        n = theta.shape[1]
        V = np.eye(n) + np.ones((n, n))  # a PSD workload Gram
        loss, _ = pidentity_loss_and_grad(theta, V)
        D = PIdentity(theta).dense()
        direct = np.trace(np.linalg.inv(D.T @ D) @ V)
        assert loss > 0
        assert np.isclose(loss, direct, rtol=1e-6)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 2), st.integers(2, 4)),
            elements=st.floats(0.05, 2, allow_nan=False),
        )
    )
    def test_gram_inverse_woodbury(self, theta):
        A = PIdentity(theta)
        D = A.dense()
        assert np.allclose(
            A.gram_inverse(), np.linalg.inv(D.T @ D), rtol=1e-6, atol=1e-8
        )


@st.composite
def kron_unions(draw):
    """An L-block union (L 1–6) of weighted p-Identity Kronecker products
    with shared factor sizes, Θ scales log-uniform in 1e-2–1e2; when
    ``deficient`` is drawn, one factor of one block is a ``Dense`` with
    fewer rows than columns, whose Gram is rank-deficient."""
    L = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(2, 8), min_size=1, max_size=3))
    seed = draw(st.integers(0, 2**32 - 1))
    r = np.random.default_rng(seed)
    blocks = []
    for _ in range(L):
        factors = []
        for n in sizes:
            p = draw(st.integers(1, 3))
            scale = 10.0 ** draw(st.floats(-2, 2))
            factors.append(PIdentity(r.random((p, n)) * scale))
        weight = draw(st.floats(0.05, 1.0))
        blocks.append(Weighted(Kronecker(factors), weight))
    deficient = draw(st.booleans())
    if deficient:
        l = draw(st.integers(0, L - 1))
        i = draw(st.integers(0, len(sizes) - 1))
        factors = list(blocks[l].base.factors)
        n = sizes[i]
        factors[i] = Dense(r.standard_normal((draw(st.integers(1, n - 1)), n)))
        blocks[l] = Weighted(Kronecker(factors), blocks[l].weight)
    return VStack(blocks), deficient


def _lsmr_capped_union():
    """A ``kron_unions`` draw (one block, 126 x 64, rank 56, condition
    number 1.5e3, no union solver) that plain CG leaves unconverged at
    its 3n cap.  With the LSMR fallback stopped at scipy's min(m, n)
    iterations, x̂ ended 3e-2 off; given its own limit, LSMR meets the
    bounds below."""
    r = np.random.default_rng(1222768801)
    factors = [
        PIdentity(r.random((p, n)) * 10.0**scale)
        for p, n, scale in [
            (1, 2, 0.09783877289293219),
            (2, 4, 1.7448866429698748),
            (3, 8, -1.4727189388268922),
        ]
    ]
    factors[2] = Dense(r.standard_normal((7, 8)))
    return VStack([Weighted(Kronecker(factors), 0.34448863931081414)]), True


def _cg_capped_union():
    """A draw shaped like :func:`_lsmr_capped_union` (one block, no union
    solver) that plain CG leaves unconverged at a 3n cap, x̂ then ending
    more than 1e-8 off; at the 30n cap ``least_squares`` gives plain CG
    it converges."""
    r = np.random.default_rng(1)
    factors = [
        PIdentity(r.random((p, n)) * 10.0**scale)
        for p, n, scale in [
            (1, 2, 0.047286498801026866),
            (2, 4, 1.8018547853037412),
            (3, 8, -1.423361549121465),
        ]
    ]
    factors[2] = Dense(r.standard_normal((7, 8)))
    return VStack([Weighted(Kronecker(factors), 0.9512169747803817)]), True


def _first_pair(A):
    """The first candidate pair: a lone block, blocks (0, 1) of two,
    else the two top-trace blocks."""
    if len(A.blocks) <= 2:
        return tuple(range(len(A.blocks)))
    traces = [np.trace(b.gram().dense()) for b in A.blocks]
    return tuple(np.argsort(-np.asarray(traces), kind="stable")[:2])


def _dense_score(A, solver, pair):
    """A pair's score from dense matrices, in ``solver``'s basis when
    ``pair`` is its own, else in ``pair``'s two-term basis: the other
    blocks' squared off-diagonal entries in that basis, entry ``(j, k)``
    over ``d_j d_k`` for ``d = diag(E G Eᵀ)``, i.e. ``1+λ`` for the
    corrected ``λ``."""
    if tuple(pair) != tuple(solver.blocks):
        mats = [_kron_gram_factor_mats(b) for b in A.blocks]
        partner = (
            [np.zeros_like(m) for m in mats[pair[0]]]
            if len(pair) == 1
            else mats[pair[1]]
        )
        Es = solvers._two_term_factorization(mats[pair[0]], partner)[0]
    else:
        Es = solver.factors
    E = explicit_kron(Es)
    d = np.diag(E @ A.gram().dense() @ E.T)
    mass = 0.0
    for l, block in enumerate(A.blocks):
        if l not in pair:
            F = E @ block.gram().dense() @ E.T
            mass += np.sum((F - np.diag(np.diag(F))) ** 2 / np.outer(d, d))
    return mass


class TestUnionPreconditionerProperties:
    """The union Gram solver keeps the candidate pair whose other blocks
    carry the least Jacobi-scaled off-diagonal mass in its eigenbasis
    (never more than the first pair's); its eigenbasis solve converges, with no iteration
    when the pair covers every block; and every solve — rank-deficient
    unions included — returns the pseudo-inverse's x̂."""

    @settings(max_examples=20)
    @given(kron_unions())
    @example(_lsmr_capped_union())
    @example(_cg_capped_union())
    def test_chosen_pair_scores_lowest_and_solves(self, union):
        A, deficient = union
        solver = union_gram_solver(A)
        if not deficient:
            assert solver is not None
            chosen = _dense_score(A, solver, solver.blocks)
            first = _dense_score(A, solver, _first_pair(A))
            assert chosen <= first + 1e-10 * max(first, 1e-6)
            probe = A.rmatvec(np.random.default_rng(0).standard_normal(A.shape[0]))
            result = cg_gram_solve(
                A.gram(), probe[:, None], basis=union_eigenbasis(A)
            )
            assert result.converged.all()
            if len(A.blocks) <= 2:
                assert result.iterations[0] == 0

        Ad = A.dense()
        Y = np.random.default_rng(1).standard_normal((A.shape[0], 2))
        X = least_squares(A, Y)
        ref = Ad @ np.linalg.pinv(Ad) @ Y
        assert np.max(np.abs(Ad @ X - ref)) <= 1e-8 * np.abs(ref).max()
        # x̂ itself is A⁺y, rank-deficient draws included: a factorization
        # with a rounding-level pivot never solves or preconditions.
        X_ref = np.linalg.pinv(Ad) @ Y
        assert np.max(np.abs(X - X_ref)) <= 1e-8 * np.abs(X_ref).max()


@st.composite
def eigenbasis_unions(draw):
    """A union the eigenbasis PCG solves: L ≥ 3 blocks, L − 1 of them
    weighted p-Identity products with shared factor sizes, one factor of
    one of those replaced by a ``Dense`` whose last column is its first
    plus a perturbation of relative size δ ∈ [1e-5, 1e-3] (its Gram's
    relative Cholesky pivot is then about δ², on either side of
    ``PIVOT_TOL``), and one block of another shape: one ``Dense`` factor
    or the product with its first two factors merged.  The p-Identity
    blocks keep the union full column rank."""
    sizes = draw(st.lists(st.integers(2, 5), min_size=2, max_size=3))
    n = math.prod(sizes)
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def pidentity(k):
        return PIdentity(r.random((draw(st.integers(1, 3)), k)) * 10.0 ** draw(
            st.floats(-1, 1)
        ))

    L = draw(st.integers(3, 5))
    blocks = [
        Weighted(Kronecker([pidentity(k) for k in sizes]), draw(st.floats(0.1, 1.0)))
        for _ in range(L - 1)
    ]
    l = draw(st.integers(0, L - 2))
    i = draw(st.integers(0, len(sizes) - 1))
    k = sizes[i]
    F = r.standard_normal((k + 1, k))
    F[:, -1] = F[:, 0] + 10.0 ** draw(st.floats(-5, -3)) * r.standard_normal(k + 1)
    factors = list(blocks[l].base.factors)
    factors[i] = Dense(F)
    blocks[l] = Weighted(Kronecker(factors), blocks[l].weight)
    if draw(st.booleans()):
        odd = Dense(r.random((draw(st.integers(1, 4)), n)))
    else:
        odd = Kronecker(
            [pidentity(sizes[0] * sizes[1])] + [pidentity(k) for k in sizes[2:]]
        )
    blocks.insert(draw(st.integers(0, L - 1)), odd)
    return VStack(blocks)


def _eigenbasis_union():
    """One fixed :func:`eigenbasis_unions`-shaped union (four blocks, one
    of another shape) whose solver runs PCG in its pair's eigenbasis."""
    r = np.random.default_rng(7)
    blocks = [
        Weighted(Kronecker([PIdentity(r.random((2, k))) for k in (3, 4)]), w)
        for w in (1.0, 0.6, 0.3)
    ]
    return VStack(blocks + [Dense(r.random((3, 12)))])


def _near_pivot_union():
    """An :func:`eigenbasis_unions`-shaped union whose factored pair
    (blocks 0 and 1) has a base-factor pivot of 1.2e-7, near
    ``PIVOT_TOL``: a ``Dense`` factor whose last column is its first plus
    a 3e-4 perturbation.  Its first eigenbasis solve misses the
    true-Gram bound on every column."""
    r = np.random.default_rng(1)
    blocks = [
        Weighted(Kronecker([PIdentity(r.random((2, k))) for k in (3, 4)]), w)
        for w in (1.0, 0.6, 0.3)
    ]
    F = r.standard_normal((4, 3))
    F[:, -1] = F[:, 0] + 3e-4 * r.standard_normal(4)
    blocks[0] = Weighted(Kronecker([Dense(F), blocks[0].base.factors[1]]), 1.0)
    return VStack(blocks + [Dense(r.random((3, 12)))])


class TestEigenbasisSolve:
    """PCG in the factored pair's eigenbasis: every column it reports
    converged meets the residual bound on the true Gram, x̂ is ``A⁺y``,
    and a wrong transformed factor costs LSMR time, not accuracy."""

    @settings(max_examples=40)
    @given(eigenbasis_unions())
    def test_converged_columns_meet_the_true_gram_residual(self, A):
        solver = union_gram_solver(A)
        assert solver is not None and len(solver.blocks) < len(A.blocks)
        assert min(solver.pivots) >= PIVOT_TOL
        Y = np.random.default_rng(2).standard_normal((A.shape[0], 3))
        B = A.rmatmat(Y)
        G = A.gram().dense()
        result = cg_gram_solve(A.gram(), B, basis=union_eigenbasis(A))
        for j in np.flatnonzero(result.converged):
            r = B[:, j] - G @ result.x[:, j]
            # the bound, plus the rounding of evaluating G x densely
            slack = 1e-14 * np.linalg.norm(G, 2) * np.linalg.norm(result.x[:, j])
            assert np.linalg.norm(r) <= 1e-11 * np.linalg.norm(B[:, j]) + slack

    @settings(max_examples=40)
    @given(eigenbasis_unions())
    def test_x_hat_is_the_pseudo_inverse_solution(self, A):
        Ad = A.dense()
        assert np.linalg.matrix_rank(Ad) == A.shape[1]
        Y = np.random.default_rng(3).standard_normal((A.shape[0], 3))
        X = least_squares(A, Y)
        X_ref = np.linalg.pinv(Ad) @ Y
        assert np.max(np.abs(X - X_ref)) <= 1e-8 * np.abs(X_ref).max()

    def test_a_corrupt_transformed_factor_falls_back_to_lsmr(self, monkeypatch):
        A = _eigenbasis_union()
        build = solvers._build_eigenbasis

        def corrupt(A, solver):
            eig = build(A, solver)
            pair, *rest = eig.gram.terms
            return solvers.Eigenbasis(
                eig.basis, eig.inverse, Sum([Diagonal(1.5 * pair.d), *rest]), eig.jacobi
            )

        lsmr_columns = reconstruct._lsmr_columns
        fallback = []

        def spy(A, Y, X, columns, *args):
            fallback.extend(columns)
            return lsmr_columns(A, Y, X, columns, *args)

        monkeypatch.setattr(solvers, "_build_eigenbasis", corrupt)
        monkeypatch.setattr(reconstruct, "_lsmr_columns", spy)
        Y = np.random.default_rng(4).standard_normal((A.shape[0], 4))
        X = least_squares(A, Y)
        assert sorted(fallback) == [0, 1, 2, 3]
        X_ref = np.linalg.pinv(A.dense()) @ Y
        assert np.max(np.abs(X - X_ref)) <= 1e-8 * np.abs(X_ref).max()


    def test_a_near_pivot_pair_refines_instead_of_falling_back_to_lsmr(
        self, monkeypatch
    ):
        A = _near_pivot_union()
        solver = union_gram_solver(A)
        assert solver.blocks == (0, 1) and min(solver.pivots) < 1e-6
        solve = solvers._eigenbasis_solve
        rounds = []

        def count(basis, B, *args):
            rounds.append(B.shape[1])
            return solve(basis, B, *args)

        lsmr_columns = reconstruct._lsmr_columns
        fallback = []

        def spy(A, Y, X, columns, *args):
            fallback.extend(columns)
            return lsmr_columns(A, Y, X, columns, *args)

        monkeypatch.setattr(solvers, "_eigenbasis_solve", count)
        monkeypatch.setattr(reconstruct, "_lsmr_columns", spy)
        Y = np.random.default_rng(4).standard_normal((A.shape[0], 4))
        X = least_squares(A, Y)
        assert rounds == [4, 4]  # every column refined once
        assert fallback == []
        X_ref = np.linalg.pinv(A.dense()) @ Y
        assert np.max(np.abs(X - X_ref)) <= 1e-8 * np.abs(X_ref).max()


class TestUnionSpanCertificate:
    """A union with a union Gram solver has full column rank: its pair's
    Gram is positive definite (every pivot clears ``PIVOT_TOL``), so the
    union's is too, and the serving span certificate accepts it."""

    @staticmethod
    def _check(A):
        if union_gram_solver(A) is not None:
            assert np.linalg.matrix_rank(A.dense()) == A.shape[1]
            assert strategy_spans_everything(A)

    @given(kron_unions())
    def test_kron_unions_with_a_solver_span_everything(self, union):
        self._check(union[0])

    @given(eigenbasis_unions())
    def test_eigenbasis_unions_with_a_solver_span_everything(self, A):
        self._check(A)


@st.composite
def served_strategies(draw):
    """A strategy on at most 64 cells from each class ``run_batch`` solves
    differently: a p-Identity and a Kronecker product of p-Identities
    (structured pseudo-inverses), a 2-block union (the two-term Gram
    inverse's direct apply) and a 3-block union (eigenbasis PCG)."""
    kind = draw(st.sampled_from(["pidentity", "kron", "union2", "union3"]))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def pidentity(n):
        return PIdentity(r.random((draw(st.integers(1, 3)), n)))

    if kind == "pidentity":
        return pidentity(draw(st.integers(2, 64)))
    sizes = draw(st.lists(st.integers(2, 4), min_size=2, max_size=3))
    if kind == "kron":
        return Kronecker([pidentity(n) for n in sizes])
    return VStack([
        Weighted(Kronecker([pidentity(n) for n in sizes]), draw(st.floats(0.2, 1.0)))
        for _ in range(2 if kind == "union2" else 3)
    ])


class TestExactIsTheLoop:
    """``run_batch(exact=True)`` is the sequential ``run`` loop at the
    spawned seeds, bit for bit; the default batched pass agrees with it
    to 1e-8 relative."""

    @settings(max_examples=40)
    @given(
        served_strategies(),
        st.sampled_from(["laplace", "gaussian"]),
        st.sampled_from(["sweep", "paired"]),
        st.sampled_from(["auto", "cg"]),
        st.lists(st.floats(0.2, 4.0), min_size=1, max_size=3),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_exact_equals_loop_and_fast_agrees(
        self, A, mechanism, mode, method, eps, width, seed
    ):
        n = A.shape[1]
        mech = HDMM(restarts=1)
        mech.workload, mech.strategy = Prefix(n), A
        data = np.random.default_rng(seed).poisson(20.0, (n, width)).astype(float)
        if mode == "sweep":
            x, trials = data[:, 0], width
            cells = [(x, e) for e in eps for _ in range(trials)]
        else:
            # Length-1 axes broadcast: a scalar ε over t vectors, or one
            # vector under an ε grid.
            x, trials = data, 1
            if width > 1 and len(eps) != width:
                eps = eps[:1]
            cells = [
                (np.ascontiguousarray(data[:, j % width]), eps[j % len(eps)])
                for j in range(max(width, len(eps)))
            ]
        kw = dict(rng=seed, mechanism=mechanism, method=method)
        loop = np.stack([
            mech.run(x_j, e, **{**kw, "rng": s})
            for (x_j, e), s in zip(cells, spawn_seeds(seed, len(cells)))
        ])
        exact = mech.run_batch(x, eps, trials=trials, exact=True, **kw)
        fast = mech.run_batch(x, eps, trials=trials, **kw)
        assert exact.shape == fast.shape
        assert np.array_equal(exact.reshape(loop.shape), loop)
        scale = np.abs(loop).max()
        assert np.abs(fast.reshape(loop.shape) - loop).max() <= 1e-8 * scale


class TestErrorProperties:
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 5), st.just(4)),
            elements=st.floats(-2, 2, allow_nan=False),
        )
    )
    def test_identity_error_is_gram_trace(self, Warr):
        from repro.core.error import squared_error
        from repro.linalg import Identity

        W = Dense(Warr)
        assert np.isclose(
            squared_error(W, Identity(4)), np.trace(Warr.T @ Warr), atol=1e-8
        )

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["dense", "kron"]),
        st.floats(0.0, 1.0),
    )
    def test_selection_error_is_the_dense_formula(self, seed, kind, density):
        """On the selection of W's own support, the closed form equals
        dense Definition 7, ‖A‖₁² tr[pinv(AᵀA) WᵀW] (n ≤ 256)."""
        from repro.core.error import squared_error
        from repro.linalg import Selection

        r = np.random.default_rng(seed)

        def factor(m, n):
            return r.standard_normal((m, n)) * (r.random(n) < density)

        if kind == "dense":
            W = Dense(factor(int(r.integers(1, 9)), int(r.integers(1, 257))))
        else:
            W = Kronecker(
                [Dense(factor(int(r.integers(1, 4)), n)) for n in (16, 16)]
            )
        Wd = W.dense()
        S = Selection(np.flatnonzero(np.abs(Wd).sum(axis=0)), Wd.shape[1])
        Ad = S.dense()
        sens = np.abs(Ad).sum(axis=0).max()
        ref = sens**2 * np.trace(np.linalg.pinv(Ad.T @ Ad) @ (Wd.T @ Wd))
        assert np.isclose(squared_error(W, S), ref, rtol=1e-9, atol=0)

    @given(st.floats(0.2, 5.0, allow_nan=False))
    def test_eps_scaling_law(self, eps):
        from repro.core.error import expected_error
        from repro.linalg import Identity, Prefix

        W = Prefix(6)
        base = expected_error(W, Identity(6), 1.0)
        assert np.isclose(expected_error(W, Identity(6), eps), base / eps**2)


_policies = st.one_of(
    st.floats(0.5, 8.0).map(PureEpsilonPolicy),
    st.builds(
        ApproxDPPolicy, st.floats(0.5, 8.0), st.sampled_from([0.0, 1e-6, 1e-4])
    ),
    st.floats(0.05, 2.0).map(ZCDPPolicy),
)
_datasets = st.sampled_from(["a", "b"])
_ops = st.one_of(
    st.tuples(st.just("register"), _datasets, _policies),
    st.tuples(
        st.sampled_from(["charge", "charge_parallel"]),
        _datasets,
        st.lists(st.floats(0.01, 1.5), min_size=1, max_size=3),
        st.sampled_from([("laplace", None), ("gaussian", 1e-6), ("gaussian", 1e-7)]),
        st.sampled_from(["", "s1", "s2"]),
    ),
)


def _run(acct, op):
    """Apply one op; returns its outcome (a refusal is an outcome too)."""
    try:
        if op[0] == "register":
            _, ds, policy = op
            if type(policy) is PureEpsilonPolicy:
                acct.register(ds, policy.epsilon)
            else:
                acct.register(ds, policy=policy)
            return "ok"
        kind, ds, eps, (mechanism, delta), stage = op
        return getattr(acct, kind)(
            ds, eps, stage=stage, mechanism=mechanism, delta=delta
        )
    except (BudgetExceededError, KeyError, ValueError) as e:
        return type(e).__name__


def _timeline(entries):
    return [
        (e.dataset, e.epsilon, e.composition, e.stage, e.cumulative,
         e.mechanism, e.delta, e.rho)
        for e in entries
    ]


class TestOneFoldProperties:
    @settings(max_examples=30)
    @given(st.lists(_ops, max_size=12), st.sampled_from([None, 3.0]))
    # A refused first debit under default_cap must not register the
    # dataset: recovery, which never sees the refusal, would not list it.
    @example(
        ops=[("charge", "a", [1.0, 1.0, 1.5], ("laplace", None), "")],
        default_cap=3.0,
    )
    def test_every_view_of_the_ledger_is_bit_equal(self, ops, default_cap):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "eps.wal")
            live = PrivacyAccountant(default_cap=default_cap, wal_path=path)
            memory = PrivacyAccountant(default_cap=default_cap)
            registered = set()
            for op in ops:
                outcome = _run(live, op)
                assert _run(memory, op) == outcome
                if op[0] == "register" and outcome == "ok":
                    registered.add(op[1])
            recovered = PrivacyAccountant.recover(path, default_cap=default_cap)
            replayed = replay(path, default_cap=default_cap)
            reports = [replayed, report_from_accountant(live),
                       report_from_accountant(memory)]

            names = live.datasets()
            assert recovered.datasets() == memory.datasets() == names
            for report in reports:
                assert set(report.datasets) == set(names)
                assert _timeline(report.timeline) == _timeline(live.ledger)
            for acct in (recovered, memory):
                assert _timeline(acct.ledger) == _timeline(live.ledger)

            for name in names:
                curve = live.curve(name)
                view = (
                    live.spent(name), curve.delta, curve.rho, live.cap(name),
                    live.remaining(name), live.native_remaining(name),
                )
                for acct in (recovered, memory):
                    c = acct.curve(name)
                    assert (
                        acct.spent(name), c.delta, c.rho, acct.cap(name),
                        acct.remaining(name), acct.native_remaining(name),
                    ) == view
                for report in reports:
                    ds = report.datasets[name]
                    native = ds.native_remaining or {"epsilon": ds.remaining}
                    assert (
                        ds.spent, ds.delta, ds.rho, ds.cap, ds.remaining, native
                    ) == view
            # Without the default cap, a dataset the ledger debits but
            # never registers keeps its spend and has no cap.
            bare = replay(path)
            for name in names:
                ds = bare.datasets[name]
                assert ds.spent == live.spent(name)
                assert ds.cap == (live.cap(name) if name in registered else None)
