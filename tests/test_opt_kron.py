"""Tests for OPT_⊗ (Sections 6.1-6.2)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.error import squared_error
from repro.linalg import AllRange, Identity, Kronecker, Ones, Prefix
from repro.optimize import opt_0, opt_kron
from repro.optimize.opt_kron import _total_identity_like, default_p
from repro.workload import (
    all_range_2d,
    k_way_marginals,
    prefix_2d,
    prefix_identity,
    range_total_union,
)
from repro.domain import Domain


def _uniform_before_one_pass(G, n):
    """The loop body of ``default_p`` before the one-pass check, verbatim:
    whether G's off-diagonal and diagonal are each allclose-uniform."""
    diag = np.diag(G).copy()
    off = G - np.diag(diag)
    off_vals = off[~np.eye(n, dtype=bool)]
    uniform_off = off_vals.size == 0 or np.allclose(off_vals, off_vals.flat[0])
    uniform_diag = np.allclose(diag, diag[0])
    return uniform_off and uniform_diag


def default_p_before_one_pass(factor_grams, n):
    """``default_p`` before the one-pass check: the oracle it must match."""
    for G in factor_grams:
        if not _uniform_before_one_pass(G, n):
            return max(1, n // 16)
    return 1


@st.composite
def near_uniform_gram_sets(draw):
    """One to three n x n Grams aI + b(11ᵀ - I), a few entries of each
    replaced by NaN, ±inf, or a value at the edge of allclose's
    ``atol + rtol·|y|`` around the entry y it is compared with."""
    n = draw(st.sampled_from([1, 2, 3, 17, 31, 32, 33, 48, 64]))
    value = st.sampled_from([0.0, -0.0, 1.0, -3.5, 1e-9, 2.5e7, 1e300, 128.0])
    grams = []
    for _ in range(draw(st.integers(1, 3))):
        G = np.full((n, n), draw(value))
        np.fill_diagonal(G, draw(value))
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            kind = draw(st.sampled_from(["nan", "inf", "-inf", "edge", "edge"]))
            y = G[0, 0] if i == j else G[0, 1]
            if kind != "edge":
                G[i, j] = float(kind)
            elif np.isfinite(y):
                factor = draw(st.sampled_from([0.5, 1 - 2**-40, 1.0, 1 + 2**-40, 2.0]))
                sign = draw(st.sampled_from([-1.0, 1.0]))
                G[i, j] = y + sign * factor * (1e-8 + 1e-5 * abs(y))
        grams.append(G)
    return grams


class TestDefaultP:
    @settings(max_examples=200, deadline=None)
    @given(near_uniform_gram_sets())
    def test_matches_the_rule_before_the_one_pass_check(self, grams):
        n = grams[0].shape[0]
        with np.errstate(invalid="ignore"):  # the oracle's inf - inf
            expected = default_p_before_one_pass(grams, n)
            uniform = [_uniform_before_one_pass(G, n) for G in grams]
        assert default_p(grams, n) == expected
        assert [_total_identity_like(G) for G in grams] == uniform

    def test_identity_gram_gets_p1(self):
        G = Identity(32).gram().dense()
        assert default_p([G], 32) == 1

    def test_total_gram_gets_p1(self):
        G = Ones(1, 32).gram().dense()
        assert default_p([G], 32) == 1

    def test_mixed_identity_total_gets_p1(self):
        """Grams of predicate sets within T ∪ I are aI + b1 — still p=1."""
        G = Identity(32).gram().dense() + Ones(1, 32).gram().dense()
        assert default_p([G], 32) == 1

    def test_range_gram_gets_n_over_16(self):
        G = AllRange(64).gram().dense()
        assert default_p([G], 64) == 4


class TestSingleProduct:
    def test_error_decomposition_theorem5(self):
        """‖(W1⊗W2)(A1⊗A2)⁺‖² = ‖W1A1⁺‖²·‖W2A2⁺‖²."""
        W = prefix_2d(8)
        res = opt_kron(W, rng=0)
        direct = squared_error(W, res.strategy)
        assert np.isclose(res.loss, direct, rtol=1e-6)

    def test_matches_independent_opt0(self):
        """For a single product the solution decomposes per attribute."""
        W = prefix_2d(8)
        res = opt_kron(W, ps=[1, 1], rng=0)
        r1 = opt_0(Prefix(8).gram().dense(), p=1, rng=0)
        # Same search problem per factor → product of losses is comparable.
        assert res.loss <= (r1.loss * 1.1) ** 2

    def test_strategy_is_sensitivity_one_kron(self):
        res = opt_kron(all_range_2d(8), rng=0)
        assert isinstance(res.strategy, Kronecker)
        assert np.isclose(res.strategy.sensitivity(), 1.0)

    def test_beats_identity(self):
        # At 64 cells per attribute (p=4) the p-Identity space contains
        # strategies clearly better than Identity (at n=16 it does not).
        W = all_range_2d(64)
        res = opt_kron(W, ps=[4, 4], rng=0)
        ident = Kronecker([Identity(64), Identity(64)])
        assert res.loss < squared_error(W, ident)


class TestUnionOfProducts:
    def test_loss_matches_theorem6(self):
        W = prefix_identity(8)
        res = opt_kron(W, rng=0)
        assert np.isclose(res.loss, squared_error(W, res.strategy), rtol=1e-6)

    def test_never_worse_than_identity(self):
        for W in [prefix_identity(8), range_total_union(8)]:
            res = opt_kron(W, rng=0)
            ident = Kronecker([Identity(8), Identity(8)])
            assert res.loss <= squared_error(W, ident) * (1 + 1e-6)

    def test_marginals_workload(self):
        dom = Domain(["a", "b", "c"], [4, 4, 4])
        W = k_way_marginals(dom, 2)
        res = opt_kron(W, rng=0)
        assert np.isclose(res.loss, squared_error(W, res.strategy), rtol=1e-6)

    def test_ps_length_validated(self):
        with pytest.raises(ValueError):
            opt_kron(prefix_2d(8), ps=[1, 1, 1])

    def test_weighted_union_respected(self, rng):
        """Heavier products must dominate the objective."""
        from repro.workload import weighted_union

        W_light = weighted_union([prefix_2d(8), all_range_2d(8)], [1.0, 1.0])
        W_heavy = weighted_union([prefix_2d(8), all_range_2d(8)], [1.0, 100.0])
        light = opt_kron(W_light, rng=0).loss
        heavy = opt_kron(W_heavy, rng=0).loss
        assert heavy > light * 100  # weights enter squared
