"""Tests for the implicit matrix base classes."""

import numpy as np
import pytest

from repro.linalg import Dense, Identity, Matrix


class TestDense:
    def test_matvec_rmatvec(self, rng):
        A = rng.standard_normal((4, 6))
        M = Dense(A)
        x = rng.standard_normal(6)
        y = rng.standard_normal(4)
        assert np.allclose(M.matvec(x), A @ x)
        assert np.allclose(M.rmatvec(y), A.T @ y)

    def test_matmat(self, rng):
        A = rng.standard_normal((4, 6))
        X = rng.standard_normal((6, 3))
        assert np.allclose(Dense(A).matmat(X), A @ X)

    def test_gram(self, rng):
        A = rng.standard_normal((4, 6))
        assert np.allclose(Dense(A).gram().dense(), A.T @ A)

    def test_sensitivity_is_max_abs_col_sum(self):
        A = np.array([[1.0, -2.0], [3.0, 0.5]])
        assert Dense(A).sensitivity() == 4.0

    def test_column_abs_sums(self):
        A = np.array([[1.0, -2.0], [3.0, 0.5]])
        assert np.allclose(Dense(A).column_abs_sums(), [4.0, 2.5])

    def test_pinv(self, rng):
        A = rng.standard_normal((5, 3))
        assert np.allclose(Dense(A).pinv().dense(), np.linalg.pinv(A))

    def test_transpose(self, rng):
        A = rng.standard_normal((4, 6))
        assert np.allclose(Dense(A).T.dense(), A.T)

    def test_trace_square_only(self, rng):
        with pytest.raises(ValueError):
            Dense(rng.standard_normal((3, 4))).trace()
        A = rng.standard_normal((4, 4))
        assert np.isclose(Dense(A).trace(), np.trace(A))

    def test_sum(self, rng):
        A = rng.standard_normal((4, 6))
        assert np.isclose(Dense(A).sum(), A.sum())

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            Dense(np.zeros(3))


class TestOperatorSugar:
    def test_matmul_ndarray(self, rng):
        A = rng.standard_normal((4, 6))
        X = rng.standard_normal((6, 2))
        assert np.allclose(Dense(A) @ X, A @ X)

    def test_matmul_matrix_lazy_product(self, rng):
        A = rng.standard_normal((4, 6))
        B = rng.standard_normal((6, 3))
        P = Dense(A) @ Dense(B)
        x = rng.standard_normal(3)
        assert np.allclose(P.matvec(x), A @ B @ x)
        assert np.allclose(P.dense(), A @ B)
        y = rng.standard_normal(4)
        assert np.allclose(P.rmatvec(y), (A @ B).T @ y)

    def test_matmul_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            Dense(rng.standard_normal((4, 6))) @ Dense(rng.standard_normal((5, 3)))

    def test_scalar_multiplication(self, rng):
        A = rng.standard_normal((3, 3))
        W = 2.5 * Dense(A)
        assert np.allclose(W.dense(), 2.5 * A)

    def test_default_dense_via_matmat(self, rng):
        # A Matrix subclass that only implements matvec still densifies.
        class OnlyMatvec(Matrix):
            def __init__(self):
                self.shape = (2, 3)

            def matvec(self, x):
                return np.array([x.sum(), x[0] - x[2]])

        D = OnlyMatvec().dense()
        assert np.allclose(D, [[1, 1, 1], [1, 0, -1]])


class TestLazyTranspose:
    def test_double_transpose_returns_base(self):
        I = Identity(4)
        assert I.T.T is I or np.allclose(I.T.T.dense(), I.dense())

    def test_lazy_transpose_matvec(self, rng):
        A = rng.standard_normal((4, 6))

        class Wrapped(Matrix):
            def __init__(self):
                self.shape = (4, 6)

            def matvec(self, x):
                return A @ x

            def rmatvec(self, y):
                return A.T @ y

        T = Wrapped().T
        y = rng.standard_normal(4)
        assert np.allclose(T.matvec(y), A.T @ y)
        assert np.allclose(T.dense(), A.T)


def _package_matrix_classes():
    """Every Matrix subclass defined in the repro package."""
    import importlib
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    found, todo = [], [Matrix]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("repro."):
                found.append(sub)
    return found


class TestOneProductPerDirection:
    def test_no_package_class_defines_a_vector_product(self):
        classes = _package_matrix_classes()
        assert len(classes) >= 18
        offenders = [
            f"{cls.__module__}.{cls.__qualname__}.{name}"
            for cls in classes
            for name in ("matvec", "rmatvec")
            if name in vars(cls)
        ]
        assert offenders == []

    def test_vector_is_a_one_column_matrix(self, rng):
        A = rng.standard_normal((4, 6))

        class OnlyMatmat(Matrix):
            def __init__(self):
                self.shape = A.shape

            def matmat(self, X):
                assert X.ndim == 2
                return A @ X

            def rmatmat(self, Y):
                assert Y.ndim == 2
                return A.T @ Y

        M = OnlyMatmat()
        x, y = rng.standard_normal(6), rng.standard_normal(4)
        for got, want in [
            (M.matvec(x), A @ x),
            (M.matmat(x), A @ x),
            (M @ x, A @ x),
            (M.rmatvec(y), A.T @ y),
            (M.T.matvec(y), A.T @ y),
        ]:
            assert got.shape == want.shape
            assert np.allclose(got, want)

    def test_matvec_only_class_answers_1d_matmat_with_its_matvec(self):
        class OnlyMatvec(Matrix):
            shape = (1, 2)

            def matvec(self, x):
                return np.array([x[0] - x[1]])

        M = OnlyMatvec()
        assert np.array_equal(M.matmat(np.array([3.0, 1.0])), [2.0])
        assert np.array_equal(M.matmat(np.eye(2)), [[1.0, -1.0]])

    def test_class_without_products_raises_instead_of_recursing(self):
        class NoProducts(Matrix):
            shape = (2, 2)

        M = NoProducts()
        for call in (M.matvec, M.matmat, M.rmatvec, M.rmatmat):
            with pytest.raises(NotImplementedError):
                call(np.ones(2))
        with pytest.raises(NotImplementedError):
            M.matmat(np.ones((2, 3)))

    def test_l1_sensitivity_is_derived_from_the_column_sums(self):
        class Sums(Matrix):
            shape = (2, 3)

            def column_abs_sums(self):
                return np.array([1.0, 4.0, 2.0])

        class Constant(Sums):
            def constant_column_abs_sum(self):
                return 5.0

        assert Sums().sensitivity(p=1) == 4.0
        assert Constant().sensitivity(p=1) == 5.0
