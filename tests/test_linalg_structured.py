"""Tests for structured workload matrices and their closed-form Grams."""

import numpy as np
import pytest

from repro.linalg import (
    AllRange,
    Identity,
    Ones,
    Permuted,
    Prefix,
    Selection,
    SparseMatrix,
    Total,
    WidthRange,
    haar_wavelet,
    hierarchical,
)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Prefix(7),
        lambda: AllRange(6),
        lambda: WidthRange(9, 3),
        lambda: WidthRange(5, 5),
        lambda: WidthRange(8, 1),
        lambda: Selection(np.array([1, 4, 6]), 8),
        lambda: Selection(np.array([], dtype=int), 4),
    ],
)
class TestAgainstDense:
    def test_matvec(self, make, rng):
        M = make()
        D = M.dense()
        x = rng.standard_normal(M.shape[1])
        assert np.allclose(M.matvec(x), D @ x)

    def test_rmatvec(self, make, rng):
        M = make()
        D = M.dense()
        y = rng.standard_normal(M.shape[0])
        assert np.allclose(M.rmatvec(y), D.T @ y)

    def test_gram_closed_form(self, make):
        M = make()
        D = M.dense()
        assert np.allclose(M.gram().dense(), D.T @ D)

    def test_column_abs_sums(self, make):
        M = make()
        D = M.dense()
        assert np.allclose(M.column_abs_sums(), np.abs(D).sum(axis=0))
        assert np.isclose(M.sensitivity(), np.abs(D).sum(axis=0).max())


class TestPrefix:
    def test_row_count(self):
        assert Prefix(10).shape == (10, 10)

    def test_is_lower_triangular_ones(self):
        assert np.allclose(Prefix(4).dense(), np.tril(np.ones((4, 4))))

    def test_sensitivity_is_n(self):
        assert Prefix(12).sensitivity() == 12.0


class TestAllRange:
    def test_row_count(self):
        assert AllRange(6).shape[0] == 6 * 7 // 2

    def test_rows_are_contiguous_ranges(self):
        D = AllRange(4).dense()
        for row in D:
            ones = np.nonzero(row)[0]
            assert np.all(np.diff(ones) == 1)  # contiguous
            assert set(np.unique(row)) <= {0.0, 1.0}

    def test_gram_formula(self):
        n = 5
        G = AllRange(n).gram().dense()
        for i in range(n):
            for j in range(n):
                assert G[i, j] == (min(i, j) + 1) * (n - max(i, j))


class TestWidthRange:
    def test_invalid_width(self):
        with pytest.raises(ValueError):
            WidthRange(4, 5)
        with pytest.raises(ValueError):
            WidthRange(4, 0)

    def test_each_row_sums_width(self):
        D = WidthRange(10, 4).dense()
        assert np.all(D.sum(axis=1) == 4)


class TestPermuted:
    def test_matches_column_permutation(self, rng):
        perm = rng.permutation(6)
        P = Permuted(AllRange(6), perm)
        D = AllRange(6).dense()[:, perm]
        assert np.allclose(P.dense(), D)
        x = rng.standard_normal(6)
        assert np.allclose(P.matvec(x), D @ x)
        y = rng.standard_normal(P.shape[0])
        assert np.allclose(P.rmatvec(y), D.T @ y)
        assert np.allclose(P.gram().dense(), D.T @ D)
        assert np.allclose(P.column_abs_sums(), np.abs(D).sum(axis=0))

    def test_sensitivity_invariant(self, rng):
        perm = rng.permutation(8)
        assert Permuted(Prefix(8), perm).sensitivity() == Prefix(8).sensitivity()

    def test_invalid_perm_rejected(self):
        with pytest.raises(ValueError):
            Permuted(Prefix(4), [0, 1, 1, 2])


class TestHaarWavelet:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            haar_wavelet(6)

    def test_shape_square(self):
        assert haar_wavelet(16).shape == (16, 16)

    def test_sensitivity_log(self):
        for n in [2, 4, 8, 16, 32]:
            assert haar_wavelet(n).sensitivity() == 1 + np.log2(n)

    def test_rows_orthogonal(self):
        D = haar_wavelet(8).dense()
        G = D @ D.T
        assert np.allclose(G - np.diag(np.diag(G)), 0)

    def test_invertible(self):
        D = haar_wavelet(8).dense()
        assert np.linalg.matrix_rank(D) == 8


class TestHierarchical:
    def test_leaf_rows_form_identity(self):
        D = hierarchical(8, 2).dense()
        # The 8 singleton rows appear exactly once each.
        singles = D[(D.sum(axis=1) == 1)]
        assert singles.shape[0] == 8

    def test_sensitivity_equals_levels(self):
        assert hierarchical(8, 2).sensitivity() == 4.0  # 8, 4, 2, 1
        assert hierarchical(9, 3).sensitivity() == 3.0  # 9, 3, 1
        assert hierarchical(16, 4).sensitivity() == 3.0

    def test_branching_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            hierarchical(8, 1)

    def test_root_row_is_total(self):
        D = hierarchical(6, 2).dense()
        assert np.allclose(D[0], np.ones(6))

    def test_non_power_domain(self):
        D = hierarchical(5, 2).dense()
        assert np.allclose(D[0], np.ones(5))
        # every cell covered at every level it exists in
        assert D.shape[1] == 5


class TestSparseMatrix:
    def test_roundtrip(self, rng):
        from scipy import sparse as sp

        A = sp.random(5, 7, density=0.4, random_state=3)
        M = SparseMatrix(A)
        D = A.toarray()
        x = rng.standard_normal(7)
        assert np.allclose(M.matvec(x), D @ x)
        assert np.allclose(M.gram().dense(), D.T @ D)
        assert np.allclose(M.T.dense(), D.T)
        assert np.isclose(M.sum(), D.sum())


class TestSelection:
    def test_pinv_is_the_transpose(self):
        S = Selection(np.array([0, 2, 5]), 6)
        assert np.array_equal(S.pinv().dense(), S.dense().T)
        assert np.allclose(S.pinv().dense(), np.linalg.pinv(S.dense()))

    def test_sensitivity_one_or_zero(self):
        S = Selection(np.array([3]), 5)
        assert S.sensitivity(p=1) == S.sensitivity(p=2) == 1.0
        E = Selection(np.array([], dtype=int), 5)
        assert E.sensitivity(p=1) == E.sensitivity(p=2) == 0.0

    @pytest.mark.parametrize("cols", [[1, 1], [0, 5], [-1], [[0, 1]]])
    def test_refuses_cells_that_are_not_distinct_domain_cells(self, cols):
        with pytest.raises(ValueError):
            Selection(np.array(cols), 5)


class TestTotalOnes:
    def test_total_is_row_of_ones(self):
        assert np.allclose(Total(5).dense(), np.ones((1, 5)))

    def test_ones_gram(self):
        G = Ones(3, 4).gram()
        assert np.allclose(G.dense(), 3 * np.ones((4, 4)))

    def test_ones_pinv(self):
        O = Ones(3, 4)
        assert np.allclose(O.pinv().dense(), np.linalg.pinv(np.ones((3, 4))))

    def test_identity_everything(self, rng):
        I = Identity(5)
        x = rng.standard_normal(5)
        assert np.allclose(I.matvec(x), x)
        assert I.sensitivity() == 1.0
        assert I.trace() == 5.0
        assert np.allclose(I.pinv().dense(), np.eye(5))
