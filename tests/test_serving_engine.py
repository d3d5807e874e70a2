"""Tests for the batched serving engine (PR 2): batched MEASURE,
multi-RHS RECONSTRUCT, the structured normal-equation solvers, and the
batched-vs-looped determinism contract."""

import numpy as np
import pytest

from repro.core import HDMM, expected_error, rootmse
from repro.core.measure import laplace_measure, laplace_measure_batch, laplace_noise
from repro.core.reconstruct import (
    DENSE_PINV_LIMIT,
    answer_workload,
    has_structured_pinv,
    least_squares,
    resolves_to_pinv,
)
from repro.core import solvers
from repro.core.solvers import (
    _kron_gram_factor_mats,
    _two_term_factorization,
    cg_gram_solve,
    export_gram_solver_state,
    restore_gram_solver_state,
    union_eigenbasis,
    union_gram_solver,
    validate_maxiter,
    validate_tolerance,
)
from repro.linalg import (
    Dense,
    Diagonal,
    Identity,
    Kronecker,
    MarginalsStrategy,
    Ones,
    Prefix,
    VStack,
    Weighted,
)
from repro.optimize import PIdentity
from repro.optimize.parallel import spawn_seeds
from repro import workload


def _union_strategy(rng):
    """A 2-block union-of-Kronecker strategy (the OPT_+ output shape)."""
    return VStack(
        [
            Weighted(
                Kronecker([PIdentity(rng.random((2, 6))), Identity(5)]), 0.5
            ),
            Weighted(
                Kronecker([Identity(6), PIdentity(rng.random((2, 5)))]), 0.5
            ),
        ]
    )


def _multiblock_strategy(rng, L, d1=6, d2=5):
    """An L-block union of Kronecker products (opt_union(groups=L) shape)."""
    return VStack(
        [
            Weighted(
                Kronecker(
                    [PIdentity(rng.random((2, d1))), PIdentity(rng.random((2, d2)))]
                ),
                1.0 / L,
            )
            for _ in range(L)
        ]
    )


class TestBatchedNoise:
    def test_batched_noise_bit_identical_to_spawned_loop(self):
        scales = np.array([0.5, 2.0, 0.0, 1.0])
        batch = laplace_noise(scales, 16, rng=42)
        seeds = spawn_seeds(42, 4)
        for j in range(4):
            expected = laplace_noise(float(scales[j]), 16, rng=seeds[j])
            assert np.array_equal(batch[:, j], expected)

    def test_zero_scale_column_is_zero(self):
        batch = laplace_noise(np.array([0.0, 1.0]), 8, rng=0)
        assert np.all(batch[:, 0] == 0)
        assert np.any(batch[:, 1] != 0)

    def test_negative_scale_rejected_in_batch(self):
        with pytest.raises(ValueError):
            laplace_noise(np.array([1.0, -0.5]), 8)

    def test_scalar_path_unchanged(self):
        assert np.array_equal(laplace_noise(1.0, 10, 7), laplace_noise(1.0, 10, 7))


class TestBatchedMeasure:
    def test_shared_vector_eps_grid_bit_identical(self, rng):
        A = Prefix(12)
        x = rng.poisson(20, 12).astype(float)
        eps = np.array([0.1, 1.0, 10.0])
        Y = laplace_measure_batch(A, x, eps, rng=5)
        seeds = spawn_seeds(5, 3)
        for j in range(3):
            assert np.array_equal(
                Y[:, j], laplace_measure(A, x, float(eps[j]), rng=seeds[j])
            )

    def test_trials_argument(self, rng):
        A = Identity(6)
        Y = laplace_measure_batch(A, np.ones(6), 2.0, rng=0, trials=7)
        assert Y.shape == (6, 7)

    def test_inconsistent_trial_counts_rejected(self, rng):
        A = Identity(6)
        with pytest.raises(ValueError, match="inconsistent"):
            laplace_measure_batch(
                A, rng.random((6, 3)), np.array([1.0, 2.0]), rng=0
            )
        with pytest.raises(ValueError, match="inconsistent"):
            laplace_measure_batch(A, np.ones(6), np.array([1.0, 2.0]), trials=3)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            laplace_measure_batch(Identity(4), np.zeros(4), np.array([1.0, -1.0]))


class TestSolverAgreement:
    """pinv, LSMR, CG, and the union direct solver must agree on x̄."""

    def test_kronecker(self, rng):
        A = Kronecker([PIdentity(rng.random((2, 5))), PIdentity(rng.random((2, 4)))])
        y = rng.standard_normal(A.shape[0])
        x_pinv = least_squares(A, y, method="pinv")
        x_lsmr = least_squares(A, y, method="lsmr")
        x_cg = least_squares(A, y, method="cg")
        assert np.allclose(x_pinv, x_lsmr, atol=1e-7)
        assert np.allclose(x_pinv, x_cg, atol=1e-7)

    def test_marginals(self, rng):
        A = MarginalsStrategy((3, 2, 4), rng.random(8) + 0.05)
        y = rng.standard_normal(A.shape[0])
        x_pinv = least_squares(A, y, method="pinv")
        x_lsmr = least_squares(A, y, method="lsmr")
        x_cg = least_squares(A, y, method="cg")
        assert np.allclose(x_pinv, x_lsmr, atol=1e-6)
        assert np.allclose(x_pinv, x_cg, atol=1e-6)

    def test_weighted(self, rng):
        A = Weighted(PIdentity(rng.random((2, 6))), 0.25)
        y = rng.standard_normal(A.shape[0])
        assert np.allclose(
            least_squares(A, y, method="pinv"),
            least_squares(A, y, method="lsmr"),
            atol=1e-7,
        )

    def test_union(self, rng):
        A = _union_strategy(rng)
        y = rng.standard_normal(A.shape[0])
        x_auto = least_squares(A, y)  # two-term structured Gram inverse
        x_lsmr = least_squares(A, y, method="lsmr")
        x_cg = least_squares(A, y, method="cg")
        assert np.allclose(x_auto, x_lsmr, atol=1e-6)
        assert np.allclose(x_auto, x_cg, atol=1e-6)

    def test_multi_rhs_matches_loop(self, rng):
        A = _union_strategy(rng)
        Y = rng.standard_normal((A.shape[0], 5))
        X = least_squares(A, Y)
        for j in range(5):
            xj = least_squares(A, np.ascontiguousarray(Y[:, j]))
            assert np.allclose(X[:, j], xj, atol=1e-9)

    @pytest.mark.parametrize("fortran_order", [False, True])
    def test_cg_columns_stopping_at_different_iterations(self, rng, fortran_order):
        """Columns leave the active set at different iterations — a zero
        column at once, an eigenvector after one step, a random
        right-hand side and its 1e-6 and 1e6 multiples later — and each
        keeps its own count and solution, also when maxiter stops the
        rest; every column matches its width-1 solve to 1e-9, whether the
        batch comes C- or Fortran-ordered."""
        A = _multiblock_strategy(rng, 3)
        G = A.gram()
        Gd = G.dense()
        _, V = np.linalg.eigh(Gd)
        b = A.rmatvec(rng.standard_normal(A.shape[0]))
        B = np.column_stack([b, np.zeros_like(b), V[:, -1], 1e-6 * b, 1e6 * b])
        if fortran_order:
            B = np.asfortranarray(B)
        for maxiter in (None, 2):
            res = cg_gram_solve(G, B, maxiter=maxiter)
            assert res.iterations[1] == 0 and res.iterations[2] == 1
            assert res.converged[1] and res.converged[2]
            assert np.array_equal(res.x[:, 1], np.zeros_like(b))
            for j in range(B.shape[1]):
                single = cg_gram_solve(
                    G, np.ascontiguousarray(B[:, j : j + 1]), maxiter=maxiter
                )
                assert res.iterations[j] == single.iterations[0]
                assert res.converged[j] == single.converged[0]
                assert np.allclose(res.x[:, j], single.x[:, 0],
                                   rtol=1e-9, atol=0)
        assert res.iterations[0] == 2 and not res.converged[0]
        # The columns maxiter stopped keep their partial iterates.
        for j in (0, 3, 4):
            resid = np.linalg.norm(Gd @ res.x[:, j] - B[:, j])
            assert resid < 0.5 * np.linalg.norm(B[:, j])
        full = cg_gram_solve(G, B)
        assert full.converged.all() and full.iterations[0] > 2
        ref = np.linalg.solve(Gd, B)
        for j in range(B.shape[1]):
            scale = max(np.abs(ref[:, j]).max(), 1e-300)
            assert np.abs(full.x[:, j] - ref[:, j]).max() <= 1e-8 * scale


def _solve_gram_inverse(A):
    """``G⁻¹`` by the union's eigenbasis solve of ``G X = I``."""
    return cg_gram_solve(A.gram(), np.eye(A.shape[1]), basis=union_eigenbasis(A))


class TestUnionGramInverse:
    """One- and two-block unions: the pair covers every block, so the
    eigenbasis solve is the Gram inverse's direct apply, with no
    iteration, and passes the true-Gram check."""

    def test_two_block_inverse_is_exact(self, rng):
        A = _union_strategy(rng)
        solver = union_gram_solver(A)
        assert solver is not None and solver.blocks == (0, 1)
        result = _solve_gram_inverse(A)
        assert (result.iterations == 0).all() and result.converged.all()
        G = A.gram().dense()
        assert np.allclose(result.x @ G, np.eye(A.shape[1]), atol=1e-8)

    def test_single_block_inverse(self, rng):
        A = VStack([Weighted(Kronecker([PIdentity(rng.random((2, 4))),
                                        PIdentity(rng.random((2, 3)))]), 1.0)])
        solver = union_gram_solver(A)
        assert solver is not None and solver.blocks == (0,)
        result = _solve_gram_inverse(A)
        assert (result.iterations == 0).all() and result.converged.all()
        assert np.allclose(result.x @ A.gram().dense(), np.eye(12), atol=1e-8)

    def test_unavailable_for_three_blocks(self, rng):
        """A pair cannot cover three blocks: its solve iterates."""
        blocks = [
            Weighted(Kronecker([PIdentity(rng.random((1, 4))), Identity(3)]), 0.3)
            for _ in range(3)
        ]
        A = VStack(blocks)
        assert len(union_gram_solver(A).blocks) == 2
        result = _solve_gram_inverse(A)
        assert (result.iterations > 0).all() and result.converged.all()

    def test_unavailable_for_non_vstack(self, rng):
        assert union_gram_solver(PIdentity(rng.random((2, 5)))) is None

    def test_cached_on_instance(self, rng):
        A = _union_strategy(rng)
        assert union_gram_solver(A) is union_gram_solver(A)


def _rank_deficient_union(seed):
    """A 2-block union of rank 9 on 12 cells whose Dense block's 3 x 3
    factor Gram has rank 2 yet can pass Cholesky with a pivot at
    rounding level (seed 0 does)."""
    r = np.random.default_rng(seed)
    return VStack(
        [
            Kronecker([Identity(3), Ones(1, 4)]),
            Kronecker(
                [Dense(r.standard_normal((2, 3))), Dense(r.standard_normal((5, 4)))]
            ),
        ]
    )


def _one_block_deficient(seed):
    """A one-block union whose 2 x 4 Dense factor has a rank-2 Gram;
    Cholesky passes on that Gram with a pivot at rounding level for
    seeds 11, 15, 31, 32, 34 and 36 of 0–39."""
    r = np.random.default_rng(seed)
    return VStack([Kronecker([Dense(r.standard_normal((2, 4))), Identity(2)])])


class TestRankDeficientUnion:
    """A factorization that passes Cholesky with a rounding-level pivot is
    rejected by the pivot check: it gives no union solver, and plain
    CG's iterates stay in ``range(AᵀA)``."""

    @pytest.mark.parametrize("seed", range(20))
    def test_answers_match_pinv_on_the_strategy_rows(self, seed):
        A = _rank_deficient_union(seed)
        Ad = A.dense()
        assert np.linalg.matrix_rank(Ad) == 9
        Y = np.random.default_rng(seed + 100).standard_normal((A.shape[0], 3))
        ref = Ad @ np.linalg.pinv(Ad) @ Y
        for y, want in ((Y, ref), (Y[:, 0], ref[:, 0])):
            got = Ad @ least_squares(A, y)
            assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()

    @pytest.mark.parametrize("seed", range(20))
    def test_strategy_rows_are_in_the_measured_span(self, seed):
        from repro.service import in_measured_span

        A = _rank_deficient_union(seed)
        assert in_measured_span(A, A.dense()[:4])

    def test_seed_zero_factors_but_is_not_exact(self):
        """Seed 0's rank-2 Dense factor Gram passes Cholesky, but with a
        relative pivot below PIVOT_TOL, so the pair yields no solver."""
        from scipy.linalg import cholesky

        A = _rank_deficient_union(0)
        mats = [_kron_gram_factor_mats(b) for b in A.blocks]
        K = mats[1][0]
        C = cholesky(K, lower=True)
        assert (np.diag(C) ** 2 / np.diag(K)).min() < solvers.PIVOT_TOL
        assert _two_term_factorization(mats[0], mats[1]) is None
        assert union_gram_solver(A) is None

    @pytest.mark.parametrize("seed", [11, 15, 31, 32, 34, 36])
    def test_rounding_pivot_block_solves_as_pinv(self, seed):
        from repro.service import in_measured_span

        A = _one_block_deficient(seed)
        y = np.random.default_rng(seed + 100).standard_normal(A.shape[0])
        ref = np.linalg.pinv(A.dense()) @ y
        assert np.abs(least_squares(A, y) - ref).max() <= 1e-8 * np.abs(ref).max()
        assert in_measured_span(A, A.dense()[:2])
        assert union_gram_solver(A) is None

    def test_healthy_fixture_pivots_clear_the_threshold(self, rng):
        for A in (
            _union_strategy(rng),
            _multiblock_strategy(rng, 2),
            _multiblock_strategy(rng, 4),
        ):
            solver = union_gram_solver(A)
            assert min(solver.pivots) >= solvers.PIVOT_TOL


def _kron_dense(mats):
    out = np.ones((1, 1))
    for m in mats:
        out = np.kron(out, m)
    return out


def _precond_inverse_parts(A, solver):
    """Dense pieces of an L-block preconditioner's inverse, from its
    solver state and the blocks' dense Grams: a function ``σ ↦ G_pair +
    E⁻¹ diag(σ) E⁻ᵀ`` (``E = ⊗Eᵢ``), the pair's ``⊗λ`` and the other
    blocks' diagonal ``Σ_rest`` in the pair's basis."""
    i, j = solver.blocks
    E = _kron_dense(solver.factors)
    E_inv = np.linalg.inv(E)
    G_pair = VStack([A.blocks[i], A.blocks[j]]).gram().dense()
    lam_pair = np.diag(E @ G_pair @ E.T) - 1.0
    sigma = sum(
        np.diag(E @ A.blocks[l].gram().dense() @ E.T)
        for l in range(len(A.blocks))
        if l not in (i, j)
    )
    return (lambda s: G_pair + E_inv @ np.diag(s) @ E_inv.T), lam_pair, sigma


class TestMultiblockGramSolver:
    """Score-chosen eigenbasis PCG for L ≥ 3 unions."""

    @pytest.mark.parametrize("L", [3, 4, 5])
    def test_union_solve_matches_dense_pinv(self, rng, L):
        A = _multiblock_strategy(rng, L)
        Y = rng.standard_normal((A.shape[0], 4))
        X = least_squares(A, Y)  # auto → preconditioned CG
        X_ref = np.linalg.pinv(A.dense()) @ Y
        scale = max(1.0, np.abs(X_ref).max())
        assert np.max(np.abs(X - X_ref)) / scale <= 1e-8

    @pytest.mark.parametrize("L", [3, 4, 5])
    def test_preconditioner_inverts_pair_plus_rest(self, rng, L):
        """The stored state is ``M = Eᵀ diag(1/(1+⊗λ+Σ_rest)) E``: its
        inverse is the pair's Gram plus the other blocks' diagonal in the
        pair's basis, rebuilt here from dense Grams."""
        A = _multiblock_strategy(rng, L)
        solver = union_gram_solver(A)
        assert solver is not None and len(solver.blocks) < len(A.blocks)
        M_inv, lam_pair, sigma = _precond_inverse_parts(A, solver)
        assert np.any(sigma > 1e-3)
        assert np.allclose(solver.lam, lam_pair + sigma, rtol=1e-10, atol=1e-10)
        E = _kron_dense(solver.factors)
        M = E.T @ np.diag(1.0 / (1.0 + solver.lam)) @ E
        assert np.allclose(M @ M_inv(sigma), np.eye(A.shape[1]), atol=1e-8)

    def test_mixed_scale_blocks_keep_corrected_lambda(self):
        """The rest-of-union diagonal is always added to ``λ``, also on
        mixed-scale blocks where it slows PCG down, and the solve still
        returns the pseudo-inverse's x̂."""
        r = np.random.default_rng(100)
        A = VStack(
            [
                Weighted(
                    Kronecker(
                        [
                            PIdentity(r.random((2, 8)) * r.choice([0.01, 1, 100]))
                            for _ in range(2)
                        ]
                    ),
                    r.random(),
                )
                for _ in range(4)
            ]
        )
        solver = union_gram_solver(A)
        _, lam_pair, sigma = _precond_inverse_parts(A, solver)
        assert sigma.max() > 1e-4
        assert np.allclose(solver.lam, lam_pair + sigma, rtol=1e-10, atol=1e-10)
        Y = r.standard_normal((A.shape[0], 3))
        X_ref = np.linalg.pinv(A.dense()) @ Y
        scale = max(1.0, np.abs(X_ref).max())
        assert np.max(np.abs(least_squares(A, Y) - X_ref)) / scale <= 1e-8

    def test_score_tie_keeps_the_earlier_pair(self, rng):
        """Three copies of one block give every candidate pair the same
        factorization and score; the earlier pair, (0, 1), wins."""
        block = Weighted(
            Kronecker([PIdentity(rng.random((2, 6))), PIdentity(rng.random((2, 5)))]),
            1.0,
        )
        A = VStack([block, block, block])
        mats = [_kron_gram_factor_mats(b) for b in A.blocks]
        scores = {
            pair: solvers._rest_in_basis(
                *_two_term_factorization(mats[pair[0]], mats[pair[1]])[:2],
                [mats[l] for l in range(3) if l not in pair],
            )[1]
            for pair in ((0, 1), (0, 2), (1, 2))
        }
        assert len(set(scores.values())) == 1
        assert union_gram_solver(A).blocks == (0, 1)

    def test_legacy_pair_only_state_restores_and_solves(self, rng):
        """A state exported with a pair-only ``precond_lam`` (the format
        written before the rest-of-union diagonal existed) is a shape
        restore does not write: it is ignored, the first solve re-factors,
        and its solves match the dense pinv."""
        A = _multiblock_strategy(rng, 4)
        mats = [_kron_gram_factor_mats(b) for b in A.blocks]
        Es, lam_pair, _ = _two_term_factorization(mats[0], mats[1])
        legacy = {
            "precond_factors": Es,
            "precond_lam": lam_pair,
            "precond_blocks": [0, 1],
        }
        restore_gram_solver_state(A, legacy)
        assert A.cache_get("union_gram_solver") is None
        fresh = union_gram_solver(_multiblock_strategy(np.random.default_rng(12345), 4))
        assert np.array_equal(union_gram_solver(A).lam, fresh.lam)
        Y = rng.standard_normal((A.shape[0], 4))
        X = least_squares(A, Y)
        X_ref = np.linalg.pinv(A.dense()) @ Y
        scale = max(1.0, np.abs(X_ref).max())
        assert np.max(np.abs(X - X_ref)) / scale <= 1e-8

    def test_preconditioner_unavailable_below_three_blocks(self, rng):
        """Below three blocks the pair covers every block, so the solve
        is the direct apply and never runs PCG."""
        A = _union_strategy(rng)
        B = A.rmatmat(rng.standard_normal((A.shape[0], 3)))
        result = cg_gram_solve(A.gram(), B, basis=union_eigenbasis(A))
        assert (result.iterations == 0).all() and result.converged.all()
        assert union_gram_solver(PIdentity(rng.random((2, 5)))) is None

    def test_preconditioner_cached_on_instance(self, rng):
        A = _multiblock_strategy(rng, 3)
        assert union_gram_solver(A) is union_gram_solver(A)

    def test_incompatible_top_trace_block_does_not_starve_pairs(self, rng):
        """A dominant block whose factor shapes match nothing else must
        not consume the pair budget: the compatible lower-trace pair
        still yields a preconditioner."""
        odd = Weighted(Kronecker([PIdentity(rng.random((2, 30)))]), 5.0)
        compatible = [
            Weighted(
                Kronecker(
                    [PIdentity(rng.random((2, 6))), PIdentity(rng.random((2, 5)))]
                ),
                0.5,
            )
            for _ in range(3)
        ]
        A = VStack([odd] + compatible)
        solver = union_gram_solver(A)
        assert solver is not None
        assert 0 not in solver.blocks  # the odd block cannot pair

    def test_preconditioned_vs_plain_cg_answers_agree(self, rng):
        A = _multiblock_strategy(rng, 4)
        Y = rng.standard_normal((A.shape[0], 3))
        X_auto = least_squares(A, Y)  # preconditioned
        X_cg = least_squares(A, Y, method="cg")  # plain CG
        X_lsmr = least_squares(A, Y, method="lsmr")
        assert np.allclose(X_auto, X_cg, atol=1e-7)
        assert np.allclose(X_auto, X_lsmr, atol=1e-7)

    def test_preconditioning_reduces_iterations(self, rng):
        A = _multiblock_strategy(rng, 4)
        G = A.gram()
        B = A.rmatmat(rng.standard_normal((A.shape[0], 8)))
        plain = cg_gram_solve(G, B)
        pre = cg_gram_solve(G, B, basis=union_eigenbasis(A))
        assert plain.converged.all() and pre.converged.all()
        assert pre.iterations.sum() < plain.iterations.sum()

    def test_exact_sweep_bit_identical_to_loop(self, rng):
        """exact=True on an L ≥ 3 union (preconditioned CG, one cold
        solve per ε block) is bit-identical to the sequential single-shot
        loop at the spawned seeds — no solver state couples a solve to
        earlier ones."""
        W = workload.range_total_union(6)
        eps = np.array([0.5, 1.0, 2.0])
        trials = 2
        T = eps.size * trials
        x = np.arange(36, dtype=float)
        mech = HDMM(restarts=1, rng=0)
        mech.workload = W
        mech.strategy = _multiblock_strategy(np.random.default_rng(7), 4, d1=6, d2=6)
        batch = mech.run_batch(x, eps, trials=trials, rng=13, exact=True)
        assert len(union_gram_solver(mech.strategy).blocks) < 4
        seeds = spawn_seeds(13, T)
        loop = np.stack(
            [mech.run(x, eps[j // trials], rng=seeds[j]) for j in range(T)]
        )
        assert np.array_equal(batch.reshape(T, -1), loop)

    def test_export_restore_precond_state(self, rng):
        A = _multiblock_strategy(rng, 4)
        state = export_gram_solver_state(A)
        assert set(state) == {"factors", "lam", "blocks", "pivots"}
        assert len(state["blocks"]) == 2
        fresh = np.random.default_rng(12345)
        A2 = _multiblock_strategy(fresh, 4)  # same arrays, fresh caches
        restore_gram_solver_state(A2, state)
        restored = A2.cache_get("union_gram_solver")
        assert restored is not None and not isinstance(restored, str)
        saved = union_gram_solver(A)
        assert restored.blocks == saved.blocks and restored.pivots == saved.pivots
        assert np.array_equal(restored.lam, saved.lam)
        for E_got, E_saved in zip(restored.factors, saved.factors):
            assert np.array_equal(E_got, E_saved)

    def test_legacy_unavailable_state_does_not_disable_precond(self, rng):
        """Registry entries persisted before the preconditioner existed
        carry a bare {'unavailable': True}; restoring one onto an L ≥ 3
        strategy must leave the solver free to build on first use."""
        A = _multiblock_strategy(rng, 3)
        restore_gram_solver_state(A, {"unavailable": True})  # legacy form
        assert A.cache_get("union_gram_solver") is None
        assert union_gram_solver(A) is not None

    def test_failed_precond_probe_roundtrips_as_unavailable(self, rng):
        """A union with no factorizable pair exports nothing, and the
        reloaded strategy finds no solver again on first use."""
        A = VStack(
            [Weighted(Kronecker([PIdentity(rng.random((1, 2000)))]), 1.0)]
            * 3
        )  # factor too large for KRON_FACTOR_LIMIT — no pair factors
        assert export_gram_solver_state(A) is None
        assert A.cache_get("union_gram_solver") == "unavailable"
        A2 = VStack(A.blocks)
        restore_gram_solver_state(A2, None)
        assert A2.cache_get("union_gram_solver") is None
        assert union_gram_solver(A2) is None

    def test_cg_preconditioner_shape_validated(self, rng):
        A = _union_strategy(rng)
        G = A.gram()
        B = A.rmatmat(rng.standard_normal((A.shape[0], 2)))
        other = _multiblock_strategy(rng, 2, d1=7)
        with pytest.raises(ValueError, match="basis"):
            cg_gram_solve(G, B, basis=union_eigenbasis(other))


def _legacy_state(A, shape):
    """One solver-state shape older registry entries carry, built by
    hand: the two-term ``{factors, lam}`` or the ``precond_*``
    preconditioner (both from ``A``'s first pair), or one of the two
    ``unavailable`` markers (the latter is what every non-union wrote)."""
    if shape == "unavailable":
        return {"unavailable": True}
    if shape == "unavailable_probed":
        return {"unavailable": True, "precond_probed": True}
    mats = [_kron_gram_factor_mats(b) for b in A.blocks]
    partner = mats[1] if len(mats) > 1 else [np.zeros_like(m) for m in mats[0]]
    Es, lam, _ = _two_term_factorization(mats[0], partner)
    if shape == "two_term":
        return {"factors": Es, "lam": lam}
    return {
        "precond_factors": Es,
        "precond_lam": lam,
        "precond_blocks": [0, 1][: len(mats)],
    }


_LEGACY_STRATEGIES = {
    "L1": lambda: _multiblock_strategy(np.random.default_rng(1), 1),
    "L2": lambda: _multiblock_strategy(np.random.default_rng(2), 2),
    "L4": lambda: _multiblock_strategy(np.random.default_rng(4), 4),
    "kron": lambda: Kronecker(
        [PIdentity(np.random.default_rng(5).random((2, 6))), Identity(5)]
    ),
}


class TestLegacySolverStates:
    """Registry entries written before the one union Gram solver still
    load: their solver state is ignored and the strategy re-factors on
    first use, answering bit-identically to a fresh factorization."""

    @pytest.mark.parametrize(
        "kind, shape",
        [
            (kind, shape)
            for kind in ("L1", "L2", "L4")
            for shape in ("two_term", "precond", "unavailable", "unavailable_probed")
        ]
        + [("kron", "unavailable"), ("kron", "unavailable_probed")],
    )
    def test_legacy_state_loads_and_answers_as_fresh(
        self, tmp_path, monkeypatch, kind, shape
    ):
        from repro.service import StrategyRegistry
        from repro.service import registry as registry_mod

        strategy = _LEGACY_STRATEGIES[kind]
        A = strategy()
        state = _legacy_state(A, shape)
        reg = StrategyRegistry(tmp_path / "reg")
        monkeypatch.setattr(registry_mod, "export_gram_solver_state", lambda _: state)
        key = reg.put(workload.range_total_union(6, 5), A)
        monkeypatch.undo()

        loaded = StrategyRegistry(tmp_path / "reg").load(key).strategy
        assert loaded.cache_get("union_gram_solver") is None
        Y = np.random.default_rng(9).standard_normal((A.shape[0], 5))
        assert np.array_equal(least_squares(loaded, Y), least_squares(strategy(), Y))

    def test_legacy_two_term_state_is_not_trusted_as_exact(self, monkeypatch):
        """Older versions applied any two-term state directly; restored from
        the rank-deficient union's factorization (which they made without
        a pivot check) it must not be."""
        A = _rank_deficient_union(0)
        monkeypatch.setattr(solvers, "PIVOT_TOL", 0.0)
        state = _legacy_state(A, "two_term")
        monkeypatch.undo()
        restore_gram_solver_state(A, state)
        assert A.cache_get("union_gram_solver") is None
        Ad = A.dense()
        Y = np.random.default_rng(3).standard_normal((A.shape[0], 2))
        ref = Ad @ np.linalg.pinv(Ad) @ Y
        assert np.abs(Ad @ least_squares(A, Y) - ref).max() <= 1e-8 * np.abs(ref).max()


    @pytest.mark.parametrize("pivots", ["absent", "rounding"])
    def test_state_factored_without_the_pivot_check_is_ignored(
        self, monkeypatch, pivots
    ):
        """Entries written before the pivot check carry
        ``{factors, lam, blocks, exact}`` and could mark a rounding-level
        factorization exact; restore ignores them, as it ignores a state
        whose pivots fall below PIVOT_TOL."""
        monkeypatch.setattr(solvers, "PIVOT_TOL", 0.0)
        state = export_gram_solver_state(_one_block_deficient(11))
        monkeypatch.undo()
        assert min(state["pivots"]) < solvers.PIVOT_TOL
        if pivots == "absent":
            del state["pivots"]
            state["exact"] = True
        A = _one_block_deficient(11)
        restore_gram_solver_state(A, state)
        assert A.cache_get("union_gram_solver") is None

    @pytest.mark.parametrize("kind", ["L2", "L4"])
    @pytest.mark.parametrize("writer", ["parent", "current"])
    def test_saved_state_solves_to_the_pseudo_inverse_without_a_rebuild(
        self, monkeypatch, kind, writer
    ):
        """A state as this version writes it, ``{factors, lam, blocks,
        pivots}``, and as the version before wrote it, with an ``exact``
        verdict beside them, both restore, and the restored strategy
        answers A⁺y without factoring again."""
        state = export_gram_solver_state(_LEGACY_STRATEGIES[kind]())
        if writer == "parent":
            state["exact"] = kind == "L2"
        A = _LEGACY_STRATEGIES[kind]()
        restore_gram_solver_state(A, state)

        def refit(_):
            raise AssertionError("the restored solver was rebuilt")

        monkeypatch.setattr(solvers, "_fit_union_gram_solver", refit)
        Y = np.random.default_rng(8).standard_normal((A.shape[0], 3))
        X_ref = np.linalg.pinv(A.dense()) @ Y
        assert np.max(np.abs(least_squares(A, Y) - X_ref)) <= 1e-8 * np.abs(
            X_ref
        ).max()


class TestValidationSatellites:
    def test_pinv_on_vstack_raises(self, rng):
        A = _union_strategy(rng)
        with pytest.raises(ValueError, match="pinv.*union|union.*pinv"):
            least_squares(A, np.zeros(A.shape[0]), method="pinv")

    def test_dense_pinv_limit_constant(self):
        assert DENSE_PINV_LIMIT == 4096
        assert has_structured_pinv(Dense(np.eye(8)))
        n = DENSE_PINV_LIMIT + 1
        assert not has_structured_pinv(Ones(n, n))

    def test_dense_pinv_limit_override_in_solver(self, rng):
        A = Dense(rng.standard_normal((10, 8)))
        y = rng.standard_normal(10)
        ref = least_squares(A, y, method="pinv")
        # The iterative solver agrees with the dense pseudo-inverse.
        via_cg = least_squares(A, y, method="cg")
        assert np.allclose(ref, via_cg, atol=1e-7)

    def test_maxiter_validation(self, rng):
        A = Identity(4)
        for bad in (0, -3, 2.5, True):
            with pytest.raises(ValueError):
                least_squares(A, np.zeros(4), method="cg", maxiter=bad)
        assert validate_maxiter(None) is None
        assert validate_maxiter(10) == 10

    def test_tolerance_validation(self, rng):
        A = Identity(4)
        for kw in ("atol", "btol", "rtol"):
            with pytest.raises(ValueError):
                least_squares(A, np.zeros(4), **{kw: -1e-3})
        with pytest.raises(ValueError):
            validate_tolerance("rtol", float("nan"))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            least_squares(Identity(4), np.zeros(4), method="bogus")

    def test_resolves_helpers(self, rng):
        A = _union_strategy(rng)
        assert not resolves_to_pinv(A)
        assert resolves_to_pinv(Identity(4))


class TestRunBatch:
    @pytest.fixture
    def fitted_union(self, rng):
        W = workload.range_total_union(8)
        mech = HDMM(restarts=1, rng=0)
        from repro.optimize import opt_union

        res = opt_union(W, rng=0)
        mech.workload, mech.strategy, mech.result = W, res.strategy, res
        return mech

    def test_exact_sweep_bit_identical_to_loop(self, fitted_union, rng):
        mech = fitted_union
        x = rng.poisson(25, mech.workload.shape[1]).astype(float)
        eps = np.array([0.5, 1.0, 2.0])
        trials = 3
        T = eps.size * trials
        seeds = spawn_seeds(11, T)
        loop = np.stack(
            [mech.run(x, eps[j // trials], rng=seeds[j]) for j in range(T)]
        )
        batch = mech.run_batch(x, eps, trials=trials, rng=11, exact=True)
        assert batch.shape == (3, 3, mech.workload.shape[0])
        assert np.array_equal(batch.reshape(T, -1), loop)

    def test_fast_sweep_matches_loop_to_tolerance(self, fitted_union, rng):
        mech = fitted_union
        x = rng.poisson(25, mech.workload.shape[1]).astype(float)
        eps = np.array([0.5, 2.0])
        seeds = spawn_seeds(4, 4)
        loop = np.stack([mech.run(x, eps[j // 2], rng=seeds[j]) for j in range(4)])
        batch = mech.run_batch(x, eps, trials=2, rng=4)
        assert np.allclose(batch.reshape(4, -1), loop, atol=1e-8)

    def test_return_data_vector_shapes(self, fitted_union, rng):
        mech = fitted_union
        x = rng.poisson(25, mech.workload.shape[1]).astype(float)
        answers, x_hat = mech.run_batch(
            x, [1.0, 2.0], trials=2, rng=0, return_data_vector=True
        )
        assert answers.shape == (2, 2, mech.workload.shape[0])
        assert x_hat.shape == (2, 2, mech.workload.shape[1])

    def test_paired_mode(self, fitted_union, rng):
        mech = fitted_union
        n = mech.workload.shape[1]
        X = rng.poisson(25, (n, 3)).astype(float)
        answers = mech.run_batch(X, 1.0, rng=2, exact=True)
        assert answers.shape == (3, mech.workload.shape[0])
        seeds = spawn_seeds(2, 3)
        for j in range(3):
            xj = np.ascontiguousarray(X[:, j])
            assert np.array_equal(answers[j], mech.run(xj, 1.0, rng=seeds[j]))

    def test_paired_mode_rejects_trials(self, fitted_union, rng):
        mech = fitted_union
        X = rng.random((mech.workload.shape[1], 2))
        with pytest.raises(ValueError, match="trials"):
            mech.run_batch(X, 1.0, trials=3)

    def test_structured_pinv_strategy_sweep(self, rng):
        mech = HDMM(restarts=1, rng=0).fit(workload.prefix_1d(16))
        x = rng.poisson(40, 16).astype(float)
        eps = np.array([0.5, 1.0])
        batch = mech.run_batch(x, eps, trials=2, rng=9, exact=True)
        seeds = spawn_seeds(9, 4)
        loop = np.stack([mech.run(x, eps[j // 2], rng=seeds[j]) for j in range(4)])
        assert np.array_equal(batch.reshape(4, -1), loop)

    def test_marginals_strategy_sweep(self, rng):
        from repro.domain import Domain

        dom = Domain(["a", "b", "c"], [3, 3, 3])
        mech = HDMM(restarts=1, rng=0).fit(workload.up_to_k_marginals(dom, 2))
        x = rng.poisson(15, 27).astype(float)
        batch, x_hat = mech.run_batch(
            x, [1.0], trials=3, rng=5, exact=True, return_data_vector=True
        )
        seeds = spawn_seeds(5, 3)
        loop = np.stack([mech.run(x, 1.0, rng=seeds[j]) for j in range(3)])
        assert np.array_equal(batch.reshape(3, -1), loop)

    def test_validation(self, fitted_union):
        x = np.zeros(fitted_union.workload.shape[1])
        with pytest.raises(ValueError):
            fitted_union.run_batch(x, eps=-1.0)
        with pytest.raises(ValueError):
            fitted_union.run_batch(x, eps=1.0, trials=0)
        with pytest.raises(RuntimeError):
            HDMM().run_batch(x, eps=1.0)

class TestVectorizedExpectedError:
    def test_grid_matches_scalars(self):
        W = workload.prefix_1d(16)
        mech = HDMM(restarts=1, rng=0).fit(W)
        grid = np.array([0.1, 1.0, 4.0])
        vec = mech.expected_error(grid)
        assert vec.shape == (3,)
        for e, v in zip(grid, vec):
            assert np.isclose(v, mech.expected_error(float(e)))
        assert isinstance(mech.expected_error(1.0), float)

    def test_rootmse_grid(self):
        W = workload.prefix_1d(16)
        mech = HDMM(restarts=1, rng=0).fit(W)
        grid = np.array([0.5, 2.0])
        assert np.allclose(
            mech.expected_rootmse(grid),
            [mech.expected_rootmse(0.5), mech.expected_rootmse(2.0)],
        )

    def test_module_level_functions(self, rng):
        W = workload.prefix_1d(8)
        A = Identity(8)
        grid = np.array([1.0, 2.0])
        assert np.allclose(
            expected_error(W, A, grid),
            [expected_error(W, A, 1.0), expected_error(W, A, 2.0)],
        )
        assert rootmse(W, A, grid).shape == (2,)

    def test_invalid_eps_rejected(self):
        with pytest.raises(ValueError):
            expected_error(Prefix(4), Identity(4), np.array([1.0, 0.0]))


class TestDiagonal:
    def test_roundtrip(self, rng):
        d = rng.random(6) + 0.5
        D = Diagonal(d)
        x = rng.standard_normal(6)
        assert np.allclose(D.matvec(x), d * x)
        assert np.allclose(D.pinv().matvec(D.matvec(x)), x)
        assert np.allclose(D.dense(), np.diag(d))
        assert np.isclose(D.sensitivity(), np.abs(d).max())

    def test_pinv_with_zeros(self):
        D = Diagonal(np.array([2.0, 0.0]))
        assert np.allclose(D.pinv().dense(), np.diag([0.5, 0.0]))

    def test_matmat_batched(self, rng):
        d = rng.random(4)
        X = rng.standard_normal((4, 3))
        assert np.allclose(Diagonal(d).matmat(X), d[:, None] * X)


class TestAnswerWorkloadBatched:
    def test_matches_column_loop(self, rng):
        W = workload.prefix_identity(4)
        X = rng.standard_normal((16, 5))
        batched = answer_workload(W, X)
        for j in range(5):
            ref = W.matvec(np.ascontiguousarray(X[:, j]))
            assert np.allclose(batched[:, j], ref, atol=1e-12)
