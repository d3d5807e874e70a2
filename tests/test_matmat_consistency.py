"""Consistency tests for the vectorized matmat/rmatmat fast paths.

Every Matrix subclass that overrides ``matmat``/``rmatmat`` (the hot path
of Algorithm 1) must agree with its dense form; a silent mismatch here
would corrupt every multi-dimensional measurement.
"""

import numpy as np
import pytest

from repro.linalg import (
    AllRange,
    Dense,
    Identity,
    Kronecker,
    Ones,
    Permuted,
    Prefix,
    Selection,
    SparseMatrix,
    VStack,
    Weighted,
    WidthRange,
)
from repro.optimize import PIdentity


def _cases(rng):
    from scipy import sparse as sp

    return [
        Dense(rng.standard_normal((4, 5))),
        Identity(5),
        Ones(3, 5),
        Ones(1, 5),
        Prefix(5),
        AllRange(5),
        WidthRange(5, 2),
        Weighted(Prefix(5), 2.5),
        VStack([Identity(5), Prefix(5)]),
        Permuted(AllRange(5), rng.permutation(5)),
        PIdentity(rng.random((2, 5))),
        SparseMatrix(sp.random(4, 5, density=0.5, random_state=0)),
        Kronecker([Dense(rng.standard_normal((2, 5)))]),
        Selection(np.array([], dtype=int), 5),
        Selection(np.array([0, 3, 4]), 5),
    ]


@pytest.mark.parametrize("idx", range(15))
def test_matmat_matches_dense(idx, rng):
    M = _cases(rng)[idx]
    X = rng.standard_normal((M.shape[1], 4))
    assert np.allclose(M.matmat(X), M.dense() @ X), type(M).__name__


@pytest.mark.parametrize("idx", range(15))
def test_rmatmat_matches_dense(idx, rng):
    M = _cases(rng)[idx]
    Y = rng.standard_normal((M.shape[0], 3))
    assert np.allclose(M.rmatmat(Y), M.dense().T @ Y), type(M).__name__


@pytest.mark.parametrize("idx", range(15))
def test_transpose_matmat_roundtrip(idx, rng):
    """Aᵀ as a Matrix must apply the fast rmatmat path."""
    M = _cases(rng)[idx]
    Y = rng.standard_normal((M.shape[0], 3))
    assert np.allclose(M.T.matmat(Y), M.dense().T @ Y), type(M).__name__


@pytest.mark.parametrize("idx", range(15))
def test_matmat_1d_input_degrades_to_matvec(idx, rng):
    M = _cases(rng)[idx]
    x = rng.standard_normal(M.shape[1])
    assert np.allclose(M.matmat(x), M.matvec(x)), type(M).__name__


class TestKmatvecOrdering:
    """The shrink-first/rightmost-first application order of kmatvec must
    never change the result (factors act on distinct tensor axes)."""

    def test_mixed_shrink_grow(self, rng):
        from repro.linalg import kmatvec

        shapes = [(6, 2), (1, 5), (3, 3), (2, 4)]
        mats = [rng.standard_normal(s) for s in shapes]
        E = mats[0]
        for M in mats[1:]:
            E = np.kron(E, M)
        x = rng.standard_normal(E.shape[1])
        assert np.allclose(kmatvec([Dense(M) for M in mats], x), E @ x)

    def test_identity_factors_skipped_correctly(self, rng):
        K = Kronecker([Identity(3), Dense(rng.standard_normal((2, 4))), Identity(2)])
        E = np.kron(np.kron(np.eye(3), K.factors[1].dense()), np.eye(2))
        x = rng.standard_normal(24)
        assert np.allclose(K.matvec(x), E @ x)

    def test_all_identity(self, rng):
        K = Kronecker([Identity(3), Identity(4)])
        x = rng.standard_normal(12)
        assert np.allclose(K.matvec(x), x)
