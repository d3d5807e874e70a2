"""The mechanism subsystem: Gaussian measurement, zCDP accounting, policies.

Covers the PR 10 contracts:

* **L2 sensitivity** — ``sensitivity(p=2)`` / ``column_norms`` agree
  with the dense equivalents on every structured matrix class;
* **validate_budget** — the shared (ε, δ, ρ) validator's domains;
* **conversions** — zCDP ↔ (ε, δ) round trips and the Gaussian σ
  calibration;
* **mechanisms** — Laplace/Gaussian cost algebra, batched-noise
  determinism (batch == spawned-seed loop, bit-identical);
* **curves + policies** — SpendCurve composition, pure-ε/(ε, δ)/ρ cap
  admission, native-unit remaining budgets;
* **accountant** — Gaussian debits carry (δ, ρ), policy-aware refusals,
  and the WAL version compatibility matrix: v1 pure-ε ledgers replay
  bit-equal to the plain float fold, mixed v1/v2 ledgers fold correctly,
  and read-only ``obs.spend.replay`` stays bit-equal to
  ``PrivacyAccountant.recover`` on both;
* **end to end** — Gaussian answers bit-identical across save/reload
  and in-process vs wire at the same seeds; plan-reported ε equals the
  accountant's actual debit for both mechanisms; the 403 body reports
  the active policy kind and its native-unit remaining budget.
"""

import asyncio
import json
import math

import numpy as np
import pytest

from repro import workload
from repro.api import Schema, Session, marginal, total
from repro.core import (
    DEFAULT_DELTA,
    eps_to_rho,
    gaussian_measure,
    gaussian_measure_batch,
    gaussian_sigma,
    pure_eps_to_rho,
    rho_to_eps,
    validate_budget,
)
from repro.core.hdmm import HDMM
from repro.core.measure import laplace_measure_batch, measurement_variance
from repro.linalg import (
    AllRange,
    Dense,
    Diagonal,
    Identity,
    Kronecker,
    MarginalsStrategy,
    Ones,
    Permuted,
    Prefix,
    Sum,
    VStack,
    Weighted,
    WidthRange,
)
from repro.optimize.parallel import spawn_seeds
from repro.privacy import (
    ApproxDPPolicy,
    GaussianMechanism,
    LaplaceMechanism,
    PrivacyCost,
    PureEpsilonPolicy,
    SpendCurve,
    ZCDPPolicy,
    fold_debit,
    get_mechanism,
    policy_from_dict,
)
from repro.service import PrivacyAccountant, QueryService, StrategyRegistry
from repro.service.accountant import BudgetExceededError
from repro.util.jsonl import encode_record
from repro.obs.spend import replay
from repro.server.app import ServerApp
from repro.server.errors import error_response


# ---------------------------------------------------------------------------
# satellite 1: L2 sensitivity on every structured class
# ---------------------------------------------------------------------------


def _structured_zoo():
    rng = np.random.default_rng(0)
    perm = rng.permutation(8)
    return [
        Identity(6),
        Ones(3, 5),
        Diagonal(np.array([1.5, -2.0, 0.5, 3.0])),
        Prefix(7),
        AllRange(6),
        WidthRange(8, 3),
        Permuted(Prefix(8), perm),
        Dense(rng.normal(size=(5, 4))),
        Weighted(Prefix(6), 2.5),
        VStack([Identity(5), Prefix(5), Ones(1, 5)]),
        Sum([Weighted(Identity(4), 1.5), Dense(rng.normal(size=(4, 4)))]),
        Kronecker([Prefix(4), Identity(3)]),
        Kronecker([Ones(1, 4), AllRange(3)]),
        MarginalsStrategy((3, 4), np.array([0.5, 1.0, 0.25, 2.0])),
        Weighted(Kronecker([Identity(3), Ones(1, 4)]), 0.75),
        Identity(6).T,
    ]


class TestL2Sensitivity:
    @pytest.mark.parametrize(
        "M", _structured_zoo(), ids=lambda M: type(M).__name__
    )
    def test_matches_dense_column_norms(self, M):
        d = M.dense()
        ref = np.sqrt((d * d).sum(axis=0))
        np.testing.assert_allclose(M.column_norms(), ref, rtol=1e-12, atol=1e-12)
        assert M.sensitivity(p=2) == pytest.approx(ref.max(), rel=1e-12)

    @pytest.mark.parametrize(
        "M", _structured_zoo(), ids=lambda M: type(M).__name__
    )
    def test_p1_unchanged_and_default(self, M):
        d = np.abs(M.dense()).sum(axis=0).max()
        assert M.sensitivity() == pytest.approx(d, rel=1e-12)
        assert M.sensitivity(p=1) == M.sensitivity()

    def test_constant_column_norm_shortcuts_agree(self):
        # Classes with closed-form constant norms must agree with the
        # vector path (and never disagree with dense).
        for M in (Identity(9), Ones(4, 6), MarginalsStrategy((2, 3), np.ones(4))):
            c = M.constant_column_norm()
            if c is not None:
                np.testing.assert_allclose(
                    np.full(M.shape[1], c), M.column_norms(), rtol=1e-12
                )

    def test_sparse_matrix_if_scipy(self):
        sp = pytest.importorskip("scipy.sparse")
        from repro.linalg import SparseMatrix

        A = SparseMatrix(sp.random(6, 5, density=0.4, random_state=1).tocsr())
        d = A.dense()
        np.testing.assert_allclose(
            A.column_norms(), np.sqrt((d * d).sum(axis=0)), rtol=1e-12
        )
        assert A.sensitivity(p=2) == pytest.approx(
            np.sqrt((d * d).sum(axis=0)).max()
        )

    def test_invalid_order_raises(self):
        with pytest.raises(ValueError, match="order p"):
            Identity(3).sensitivity(p=3)

    def test_kron_l2_is_product_of_factors(self):
        K = Kronecker([Prefix(4), AllRange(3)])
        assert K.sensitivity(p=2) == pytest.approx(
            Prefix(4).sensitivity(p=2) * AllRange(3).sensitivity(p=2)
        )


# ---------------------------------------------------------------------------
# satellite 2: validate_budget
# ---------------------------------------------------------------------------


class TestValidateBudget:
    def test_eps_grid_passthrough(self):
        out = validate_budget(eps=[0.1, 1.0])
        np.testing.assert_array_equal(out["eps"], [0.1, 1.0])

    def test_delta_domain(self):
        assert float(validate_budget(delta=0.0)["delta"]) == 0.0
        assert float(validate_budget(delta=1e-6)["delta"]) == 1e-6
        for bad in (-1e-9, 1.0, 1.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="delta"):
                validate_budget(delta=bad)

    def test_rho_positive(self):
        assert float(validate_budget(rho=0.5)["rho"]) == 0.5
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                validate_budget(rho=bad)

    def test_eps_positive(self):
        for bad in (0.0, -0.5, float("inf")):
            with pytest.raises(ValueError):
                validate_budget(eps=bad)

    def test_requires_at_least_one_component(self):
        with pytest.raises(ValueError, match="at least one"):
            validate_budget()

    def test_returns_only_what_was_passed(self):
        assert set(validate_budget(eps=1.0, delta=0.1)) == {"eps", "delta"}


# ---------------------------------------------------------------------------
# zCDP ↔ (ε, δ) conversions
# ---------------------------------------------------------------------------


class TestConversions:
    def test_round_trip(self):
        for eps in (0.1, 1.0, 5.0):
            for delta in (1e-9, 1e-6, 1e-3):
                rho = eps_to_rho(eps, delta)
                assert rho_to_eps(rho, delta) == pytest.approx(eps, rel=1e-10)

    def test_rho_to_eps_formula(self):
        rho, delta = 0.3, 1e-6
        assert rho_to_eps(rho, delta) == pytest.approx(
            rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))
        )

    def test_pure_eps_to_rho(self):
        assert pure_eps_to_rho(2.0) == pytest.approx(2.0)  # ε²/2
        assert pure_eps_to_rho(0.5) == pytest.approx(0.125)

    def test_gaussian_sigma_calibration(self):
        eps, delta, sens2 = 1.0, 1e-6, 3.0
        rho = eps_to_rho(eps, delta)
        assert gaussian_sigma(sens2, eps, delta) == pytest.approx(
            sens2 * math.sqrt(1.0 / (2.0 * rho))
        )

    def test_sigma_monotone_in_budget(self):
        # More budget (larger ε or looser δ) always means less noise,
        # and σ scales linearly in the L2 sensitivity.
        assert gaussian_sigma(1.0, 2.0, 1e-6) < gaussian_sigma(1.0, 1.0, 1e-6)
        assert gaussian_sigma(1.0, 1.0, 1e-3) < gaussian_sigma(1.0, 1.0, 1e-6)
        assert gaussian_sigma(3.0, 1.0, 1e-6) == pytest.approx(
            3.0 * gaussian_sigma(1.0, 1.0, 1e-6)
        )


# ---------------------------------------------------------------------------
# mechanisms: cost algebra + batched-noise determinism
# ---------------------------------------------------------------------------


class TestMechanisms:
    def test_get_mechanism(self):
        assert isinstance(get_mechanism("laplace"), LaplaceMechanism)
        g = get_mechanism("gaussian")
        assert isinstance(g, GaussianMechanism) and g.delta == DEFAULT_DELTA
        assert get_mechanism("gaussian", 1e-8).delta == 1e-8
        with pytest.raises(ValueError):
            get_mechanism("cauchy")
        with pytest.raises(ValueError):
            get_mechanism("laplace", 1e-6)
        # instance pass-through, re-calibrated on a conflicting delta
        assert get_mechanism(g) is g
        assert get_mechanism(g, 1e-9).delta == 1e-9

    def test_gaussian_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            GaussianMechanism(delta=0.0)
        with pytest.raises(ValueError):
            GaussianMechanism(delta=1.0)

    def test_laplace_cost(self):
        c = LaplaceMechanism().cost(0.5)
        assert (c.epsilon, c.delta, c.mechanism) == (0.5, 0.0, "laplace")
        assert c.rho == pytest.approx(pure_eps_to_rho(0.5))

    def test_gaussian_cost_composes_per_release(self):
        g = GaussianMechanism(delta=1e-6)
        c = g.cost([0.5, 1.0])
        assert c.epsilon == pytest.approx(1.5)
        assert c.delta == pytest.approx(2e-6)  # δ · #releases
        assert c.rho == pytest.approx(
            eps_to_rho(0.5, 1e-6) + eps_to_rho(1.0, 1e-6)
        )
        assert c.mechanism == "gaussian"

    def test_noise_scale_uses_l2_sensitivity(self):
        A = Prefix(16)
        g = GaussianMechanism(delta=1e-6)
        assert g.sensitivity(A) == pytest.approx(A.sensitivity(p=2))
        assert g.noise_scale(A, 1.0) == pytest.approx(
            gaussian_sigma(A.sensitivity(p=2), 1.0, 1e-6)
        )
        l = LaplaceMechanism()
        assert l.noise_scale(A, 2.0) == pytest.approx(A.sensitivity() / 2.0)

    def test_batch_noise_bit_identical_to_spawned_loop(self):
        A = Prefix(12)
        x = np.arange(12, dtype=float)
        eps = np.array([0.5, 1.0, 2.0])
        batch = gaussian_measure_batch(A, x, eps, rng=7)
        seeds = spawn_seeds(7, eps.size)
        for j in range(eps.size):
            ref = gaussian_measure(A, x, float(eps[j]), rng=seeds[j])
            assert np.array_equal(batch[:, j], ref)

    def test_batch_delta_threads_through(self):
        A = Identity(6)
        x = np.zeros(6)
        a = gaussian_measure_batch(A, x, 1.0, rng=3, trials=2, delta=1e-6)
        b = gaussian_measure_batch(A, x, 1.0, rng=3, trials=2, delta=1e-3)
        # Same seeds, smaller σ at the looser δ: same sign pattern,
        # strictly smaller magnitudes.
        assert np.all(np.sign(a) == np.sign(b))
        assert np.all(np.abs(b) < np.abs(a))

    def test_gaussian_variance_identity(self):
        A = AllRange(8)
        v = measurement_variance(A, 1.0, mechanism="gaussian", delta=1e-6)
        assert v == pytest.approx(
            gaussian_sigma(A.sensitivity(p=2), 1.0, 1e-6) ** 2
        )

    def test_mechanism_aware_expected_error_weight_invariance(self):
        # Scaling a strategy by w rescales sensitivity and the solve
        # identically, so expected error is invariant — for both norms.
        W = workload.prefix_1d(16)
        mech = HDMM(restarts=1, rng=0).fit(W)
        A = mech.strategy
        for m in ("laplace", "gaussian"):
            e1 = mech.expected_rootmse(1.0, mechanism=m)
            mech2 = HDMM(restarts=1, rng=0)
            mech2.workload, mech2.strategy = W, Weighted(A, 3.0)
            e2 = mech2.expected_rootmse(1.0, mechanism=m)
            assert e2 == pytest.approx(e1, rel=1e-9)


# ---------------------------------------------------------------------------
# curves and policies
# ---------------------------------------------------------------------------


class TestSpendCurve:
    def test_sequential_add_is_plain_float_sum(self):
        curve = SpendCurve()
        running = 0.0
        for eps in (0.1, 0.2, 0.30000000000000004, 0.7):
            curve.add(PrivacyCost.laplace(eps))
            running += eps
        assert curve.epsilon == running  # bit-equal, not approx

    def test_epsilon_at_reports_composed_rho(self):
        curve = SpendCurve()
        curve.add(PrivacyCost.gaussian(1.0, 1e-6))
        curve.add(PrivacyCost.gaussian(1.0, 1e-6))
        rho = 2 * eps_to_rho(1.0, 1e-6)
        assert curve.epsilon_at(1e-6) == pytest.approx(rho_to_eps(rho, 1e-6))
        # zCDP composition reports tighter than naive ε summation.
        assert curve.epsilon_at(1e-6) < curve.epsilon


class TestPolicies:
    def test_pure_epsilon_matches_legacy_cap_math(self):
        p = PureEpsilonPolicy(1.0)
        curve = SpendCurve()
        curve.add(PrivacyCost.laplace(0.4))
        assert p.admits(curve, PrivacyCost.laplace(0.6))
        assert not p.admits(curve, PrivacyCost.laplace(0.6000001))
        assert p.epsilon_remaining(curve) == pytest.approx(0.6)
        assert p.remaining(curve) == {"epsilon": pytest.approx(0.6)}

    def test_approx_dp_enforces_both_axes(self):
        p = ApproxDPPolicy(epsilon=2.0, delta=1e-6)
        curve = SpendCurve()
        assert p.admits(curve, PrivacyCost.gaussian(1.0, 5e-7))
        assert not p.admits(curve, PrivacyCost.gaussian(1.0, 2e-6))  # δ blown
        assert not p.admits(curve, PrivacyCost.gaussian(2.5, 1e-7))  # ε blown

    def test_approx_dp_zero_delta_forbids_gaussian(self):
        p = ApproxDPPolicy(epsilon=2.0, delta=0.0)
        assert not p.admits(SpendCurve(), PrivacyCost.gaussian(0.5, 1e-6))
        assert p.admits(SpendCurve(), PrivacyCost.laplace(0.5))

    def test_zcdp_epsilon_view(self):
        p = ZCDPPolicy(rho=0.5)
        assert p.epsilon_cap() == pytest.approx(1.0)  # √(2ρ)
        curve = SpendCurve()
        curve.add(PrivacyCost.laplace(0.6))  # ρ = 0.18
        assert p.epsilon_remaining(curve) == pytest.approx(
            math.sqrt(2 * (0.5 - pure_eps_to_rho(0.6)))
        )
        assert p.remaining(curve)["rho"] == pytest.approx(0.5 - 0.18)

    def test_zcdp_admits_by_rho_not_epsilon(self):
        # At ε=1, a Gaussian release costs far less ρ than a Laplace
        # one — a ρ cap admits the Gaussian after refusing the Laplace.
        p = ZCDPPolicy(rho=0.1)
        assert not p.admits(SpendCurve(), PrivacyCost.laplace(1.0))  # ρ=0.5
        assert p.admits(SpendCurve(), PrivacyCost.gaussian(1.0, 1e-6))

    def test_round_trip_serialization(self):
        for p in (
            PureEpsilonPolicy(1.5),
            ApproxDPPolicy(2.0, 1e-6),
            ZCDPPolicy(0.25),
        ):
            assert policy_from_dict(p.to_dict()) == p
        # v1 dicts without "kind" mean pure-ε
        assert policy_from_dict({"epsilon": 3.0}) == PureEpsilonPolicy(3.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ApproxDPPolicy(1.0, 1.0)
        with pytest.raises(ValueError):
            ZCDPPolicy(-0.5)


# ---------------------------------------------------------------------------
# satellite 3: accountant + WAL version compatibility
# ---------------------------------------------------------------------------


def _write_ledger(path, records):
    with open(path, "wb") as f:
        for r in records:
            f.write(encode_record(r))


class TestAccountantMechanisms:
    def test_gaussian_charge_records_delta_and_rho(self):
        acct = PrivacyAccountant()
        acct.register("d", policy=ApproxDPPolicy(5.0, 1e-5))
        acct.charge("d", 1.0, mechanism="gaussian", delta=1e-6)
        entry = acct.ledger[-1]
        assert entry.mechanism == "gaussian"
        assert entry.delta == 1e-6
        assert entry.rho == pytest.approx(eps_to_rho(1.0, 1e-6))
        assert acct.spent("d") == 1.0
        assert acct.curve("d").delta == 1e-6

    def test_laplace_charges_unchanged(self):
        acct = PrivacyAccountant()
        acct.register("d", 2.0)
        acct.charge("d", [0.5, 0.25])
        assert acct.spent("d") == 0.75
        assert acct.ledger[-1].mechanism == "laplace"
        assert acct.remaining("d") == pytest.approx(1.25)

    def test_policy_refusal_carries_native_remaining(self):
        acct = PrivacyAccountant()
        acct.register("d", policy=ZCDPPolicy(0.2))
        acct.charge("d", 0.4, mechanism="gaussian", delta=1e-6)
        with pytest.raises(BudgetExceededError) as ei:
            acct.charge("d", 1.0)  # Laplace ρ = 0.5 > remaining
        e = ei.value
        assert e.policy_kind == "zcdp"
        assert set(e.native_remaining) == {"rho"}
        assert e.native_remaining["rho"] == pytest.approx(
            0.2 - eps_to_rho(0.4, 1e-6)
        )
        assert "zcdp policy" in str(e)

    def test_pure_epsilon_refusal_message_unchanged(self):
        e = BudgetExceededError("adult", 5.0, 4.0, 2.0, "sequential")
        assert e.policy_kind == "epsilon"
        assert e.native_remaining == {"epsilon": 1.0}
        assert "[" not in str(e)  # no policy suffix on the v1 message

    def test_delta_cap_zero_refuses_gaussian(self):
        acct = PrivacyAccountant()
        acct.register("d", policy=ApproxDPPolicy(5.0, 0.0))
        with pytest.raises(BudgetExceededError):
            acct.charge("d", 0.1, mechanism="gaussian", delta=1e-9)
        acct.charge("d", 0.1)  # Laplace still fine

    def test_parallel_composition_debits_max_branch(self):
        # Parallel composition collapses a call's branch grid to its max
        # branch before the debit — for Gaussian branches the (δ, ρ)
        # recorded are the max branch's, not the grid sum.
        acct = PrivacyAccountant()
        acct.register("d", 10.0)
        acct.charge_parallel("d", [1.0, 0.5], mechanism="gaussian", delta=1e-6)
        assert acct.spent("d") == 1.0
        c = acct.curve("d")
        assert c.delta == 1e-6
        assert c.rho == pytest.approx(eps_to_rho(1.0, 1e-6))


class TestWALCompat:
    V1 = [
        {"v": 1, "kind": "register", "dataset": "adult", "cap": 5.0},
        {"v": 1, "kind": "debit", "dataset": "adult", "epsilon": 0.1,
         "composition": "sequential", "stage": "a"},
        {"v": 1, "kind": "debit", "dataset": "adult", "epsilon": 0.2,
         "composition": "sequential", "stage": "b"},
        {"v": 1, "kind": "debit", "dataset": "adult", "epsilon": 0.30000000000000004,
         "composition": "sequential", "stage": "c"},
    ]

    def test_v1_ledger_replays_bit_equal_to_plain_fold(self, tmp_path):
        path = str(tmp_path / "eps.wal")
        _write_ledger(path, self.V1)
        acct = PrivacyAccountant.recover(path)
        # Pre-PR recovery summed plain floats in record order; the fold
        # must reproduce that bit-for-bit.
        running = 0.0
        for r in self.V1[1:]:
            running += r["epsilon"]
        assert acct.spent("adult") == running
        assert acct.cap("adult") == 5.0
        assert acct.remaining("adult") == max(0.0, 5.0 - running)
        assert acct.policy("adult") == PureEpsilonPolicy(5.0)
        # ρ is tracked under the hood (ε²/2 per debit) without touching ε.
        assert acct.curve("adult").rho == pytest.approx(
            sum(pure_eps_to_rho(r["epsilon"]) for r in self.V1[1:])
        )
        assert acct.curve("adult").delta == 0.0

    def test_replay_bit_equal_to_recover_on_v1(self, tmp_path):
        path = str(tmp_path / "eps.wal")
        _write_ledger(path, self.V1)
        report = replay(path)
        acct = PrivacyAccountant.recover(path)
        assert report.spent("adult") == acct.spent("adult")
        ds = report.datasets["adult"]
        assert (ds.delta, ds.rho) == (
            acct.curve("adult").delta, acct.curve("adult").rho
        )
        assert ds.remaining == acct.remaining("adult")

    def test_mixed_v1_v2_ledger_folds_correctly(self, tmp_path):
        rho = eps_to_rho(0.5, 1e-6)
        records = self.V1 + [
            {"v": 2, "kind": "debit", "dataset": "adult", "epsilon": 0.5,
             "delta": 1e-6, "rho": rho, "mechanism": "gaussian",
             "composition": "sequential", "stage": "g"},
        ]
        path = str(tmp_path / "eps.wal")
        _write_ledger(path, records)
        acct = PrivacyAccountant.recover(path)
        report = replay(path)
        expected_eps = 0.0
        for r in records[1:]:
            expected_eps += r["epsilon"]
        assert acct.spent("adult") == expected_eps
        assert report.spent("adult") == acct.spent("adult")
        ds = report.datasets["adult"]
        assert ds.delta == acct.curve("adult").delta == 1e-6
        assert ds.rho == acct.curve("adult").rho
        assert ds.rho == pytest.approx(
            sum(pure_eps_to_rho(r["epsilon"]) for r in self.V1[1:]) + rho
        )
        # The Gaussian event keeps its provenance on the timeline.
        assert report.timeline[-1].mechanism == "gaussian"
        assert report.timeline[-1].delta == 1e-6

    def test_live_laplace_debits_stay_v1_on_disk(self, tmp_path):
        path = str(tmp_path / "eps.wal")
        acct = PrivacyAccountant(wal_path=path)
        acct.register("d", 5.0)
        acct.charge("d", 0.5, stage="x")
        raw = open(path, "rb").read().decode()
        assert '"v":1' in raw
        assert "mechanism" not in raw and "rho" not in raw
        # A Gaussian debit lands as v2 with full provenance.
        acct.charge("d", 0.5, mechanism="gaussian", delta=1e-6, stage="y")
        raw = open(path, "rb").read().decode()
        assert '"v":2' in raw and '"mechanism":"gaussian"' in raw

    def test_live_state_bit_equal_to_recovery_and_replay(self, tmp_path):
        path = str(tmp_path / "eps.wal")
        acct = PrivacyAccountant(wal_path=path)
        acct.register("d", policy=ApproxDPPolicy(10.0, 1e-4))
        acct.charge("d", 0.1)
        acct.charge("d", 0.7, mechanism="gaussian", delta=1e-6)
        acct.charge("d", [0.2, 0.3], mechanism="gaussian", delta=1e-7)
        live = acct.curve("d")

        recovered = PrivacyAccountant.recover(path)
        assert recovered.curve("d") == live
        assert recovered.spent("d") == acct.spent("d")
        assert recovered.policy("d") == ApproxDPPolicy(10.0, 1e-4)
        assert recovered.remaining("d") == acct.remaining("d")

        report = replay(path)
        ds = report.datasets["d"]
        assert (ds.spent, ds.delta, ds.rho) == (
            live.epsilon, live.delta, live.rho
        )
        assert ds.policy == {"kind": "approx_dp", "epsilon": 10.0, "delta": 1e-4}
        assert ds.native_remaining == acct.native_remaining("d")

    def test_v2_register_policy_survives_recovery(self, tmp_path):
        path = str(tmp_path / "eps.wal")
        acct = PrivacyAccountant(wal_path=path)
        acct.register("z", policy=ZCDPPolicy(0.5))
        acct.charge("z", 0.3, mechanism="gaussian", delta=1e-6)
        recovered = PrivacyAccountant.recover(path)
        assert recovered.policy("z") == ZCDPPolicy(0.5)
        assert recovered.native_remaining("z")["rho"] == pytest.approx(
            0.5 - eps_to_rho(0.3, 1e-6)
        )

    def test_fold_debit_defaults_v1_rho(self):
        curve = SpendCurve()
        cost = fold_debit(
            curve, {"kind": "debit", "dataset": "d", "epsilon": 0.4}
        )
        assert cost.mechanism == "laplace"
        assert curve.rho == pytest.approx(pure_eps_to_rho(0.4))


# ---------------------------------------------------------------------------
# end to end: engine, planner, session, server
# ---------------------------------------------------------------------------


def _small_session(tmp_path, cap=50.0, policy=None, wal=False):
    acct_kw = {"wal_path": str(tmp_path / "eps.wal")} if wal else {}
    sess = Session(
        registry=StrategyRegistry(str(tmp_path / "reg")),
        accountant=PrivacyAccountant(default_cap=cap, **acct_kw),
        restarts=1,
        rng=0,
    )
    schema = Schema.from_spec({"age": 8, "sex": ["M", "F"]})
    data = np.random.default_rng(5).poisson(20, schema.domain.shape()).astype(float)
    kw = {"policy": policy} if policy is not None else {"epsilon_cap": cap}
    ds = sess.dataset("adult", schema=schema, data=data, **kw)
    return sess, ds


class TestMechanismServing:
    def test_gaussian_save_reload_bit_identical(self, tmp_path):
        W = workload.range_total_union(8)
        x = np.arange(W.shape[1], dtype=float)
        svc = QueryService(
            registry=StrategyRegistry(tmp_path / "reg"),
            accountant=PrivacyAccountant(default_cap=50.0),
            restarts=1, rng=0, template="opt_union",
        )
        svc.add_dataset("d", x, epsilon_cap=50.0)
        first = svc.measure(
            "d", W, eps=np.array([0.5, 1.0]), trials=2, rng=11,
            mechanism="gaussian", delta=1e-6, exact=True,
        )
        assert first.mechanism == "gaussian"

        # Fresh service over the same registry directory: same seeds,
        # bit-identical Gaussian answers.
        svc2 = QueryService(
            registry=StrategyRegistry(tmp_path / "reg"),
            accountant=PrivacyAccountant(default_cap=50.0),
            restarts=1, rng=0, template="opt_union",
        )
        svc2.add_dataset("d", x)
        second = svc2.measure(
            "d", W, eps=np.array([0.5, 1.0]), trials=2, rng=11,
            mechanism="gaussian", delta=1e-6, exact=True,
        )
        assert second.from_registry
        assert np.array_equal(first.answers, second.answers)

    def test_gaussian_measure_debits_per_release(self, tmp_path):
        svc = QueryService(
            registry=StrategyRegistry(tmp_path / "reg"),
            accountant=PrivacyAccountant(default_cap=50.0),
            restarts=1, rng=0, template="opt_union",
        )
        acct = svc.accountant
        W = workload.range_total_union(16)
        x = np.arange(W.shape[1], dtype=float)
        svc.add_dataset("d", x, epsilon_cap=50.0)
        eps = np.array([0.5, 1.0])
        svc.measure("d", W, eps=eps, trials=3, rng=0,
                    mechanism="gaussian", delta=1e-6)
        assert acct.spent("d") == pytest.approx(3 * eps.sum())
        c = acct.curve("d")
        assert c.delta == pytest.approx(6 * 1e-6)  # δ per trial release
        assert c.rho == pytest.approx(
            3 * (eps_to_rho(0.5, 1e-6) + eps_to_rho(1.0, 1e-6))
        )

    def test_plan_epsilon_equals_debit_both_mechanisms(self, tmp_path):
        for mech in ("laplace", "gaussian"):
            sess, ds = _small_session(tmp_path / mech)
            exprs = [marginal("age"), total()]
            plan = ds.plan(exprs, eps=0.8, mechanism=mech)
            assert plan.mechanism == mech
            before = ds.spent
            answers = ds.ask_many(exprs, eps=0.8, rng=1, mechanism=mech)
            debited = ds.spent - before
            assert plan.total_epsilon == debited  # exact, not approx
            assert all(a.mechanism == mech for a in answers if a.epsilon > 0)

    def test_plan_surfaces_both_rmse_columns(self, tmp_path):
        sess, ds = _small_session(tmp_path)
        exprs = [marginal("age")]
        ds.ask_many(exprs, eps=1.0, rng=0)  # warm the cache
        plan = ds.plan(exprs + [total()], eps=0.5, mechanism="gaussian")
        text = plan.explain()
        assert "rmse(lap)≈" in text and "rmse(gauss)≈" in text
        assert "mechanism = gaussian" in text
        measured = [e for e in plan.entries if e.epsilon not in (None, 0.0)]
        for e in measured:
            if e.expected_rmse is not None:
                assert e.rmse_laplace is not None
                assert e.rmse_gaussian is not None
                assert e.rmse_laplace != e.rmse_gaussian

    def test_answers_carry_mechanism_provenance(self, tmp_path):
        sess, ds = _small_session(tmp_path)
        a = ds.ask(total(), eps=0.5, rng=2, mechanism="gaussian", delta=1e-6)
        assert a.mechanism == "gaussian"
        # A later hit rides the cached Gaussian reconstruction and says so.
        b = ds.ask(total())
        assert b.epsilon == 0.0
        assert b.mechanism == "gaussian"

    def test_budget_report_shows_gaussian_columns(self, tmp_path):
        sess, ds = _small_session(tmp_path, policy=ApproxDPPolicy(20.0, 1e-4))
        ds.ask(total(), eps=0.5, rng=2, mechanism="gaussian")
        report = sess.budget_report()
        rds = report.datasets["adult"]
        assert rds.policy == {"kind": "approx_dp", "epsilon": 20.0, "delta": 1e-4}
        assert rds.delta > 0
        acct = sess.service.accountant
        assert rds.spent == acct.spent("adult")
        assert rds.native_remaining == acct.native_remaining("adult")
        text = report.render()
        assert "δ" in text and "ρ" in text

    def test_pure_epsilon_report_render_has_no_new_columns(self, tmp_path):
        sess, ds = _small_session(tmp_path)
        ds.ask(total(), eps=0.5, rng=2)
        text = sess.budget_report().render()
        assert "δ" not in text and "ρ" not in text


class TestServerMechanisms:
    def _run(self, coro):
        return asyncio.run(coro)

    def _make_app(self, tmp_path, policy=None, cap=50.0):
        sess = Session(
            registry=StrategyRegistry(str(tmp_path / "reg")),
            accountant=PrivacyAccountant(default_cap=cap),
            restarts=1, rng=0,
        )
        app = ServerApp(sess)
        schema = Schema.from_spec({"age": 8, "sex": ["M", "F"]})
        data = np.random.default_rng(5).poisson(
            20, schema.domain.shape()
        ).astype(float)
        kw = {"policy": policy} if policy is not None else {"epsilon_cap": cap}
        app.register("adult", schema, data, **kw)
        return app, sess

    def test_wire_gaussian_bit_identical_to_in_process(self, tmp_path):
        app, sess = self._make_app(tmp_path)
        payload = {
            "dataset": "adult",
            "queries": [{"marginal": ["age"]}, {"total": True}],
            "eps": 1.0, "seed": 42,
            "mechanism": "gaussian", "delta": 1e-6,
        }
        status, _, body = self._run(app.handle("POST", "/query", payload))
        assert status == 200
        body = json.loads(body)
        assert all(a["mechanism"] == "gaussian" for a in body["answers"])

        # The same request in-process at the same seed, on a fresh stack.
        sess2 = Session(
            registry=StrategyRegistry(str(tmp_path / "reg")),
            accountant=PrivacyAccountant(default_cap=50.0),
            restarts=1, rng=0,
        )
        schema = Schema.from_spec({"age": 8, "sex": ["M", "F"]})
        data = np.random.default_rng(5).poisson(
            20, schema.domain.shape()
        ).astype(float)
        ds2 = sess2.dataset("adult", schema=schema, data=data, epsilon_cap=50.0)
        ref = ds2.ask_many(
            [marginal("age"), total()], eps=1.0, rng=42,
            mechanism="gaussian", delta=1e-6,
        )
        for wire, ans in zip(body["answers"], ref):
            assert wire["values"] == [float(v) for v in ans.values]

    def test_parse_rejects_bad_mechanism_fields(self, tmp_path):
        app, _ = self._make_app(tmp_path)
        base = {"dataset": "adult", "queries": [{"total": True}], "eps": 1.0}
        for bad in (
            {"mechanism": "cauchy"},
            {"mechanism": "gaussian", "delta": 1.5},
            {"mechanism": "gaussian", "delta": 0},
            {"delta": 1e-6},  # delta without gaussian
            {"mechanism": 3},
            {"mechanism": ["gaussian"]},
            {"mechanism": {"name": "gaussian"}},
            {"mechanism": "gaussian", "delta": "tiny"},
            {"mechanism": "gaussian", "delta": [1e-6, 1e-7]},
            {"mechanism": "gaussian", "delta": {"v": 1e-6}},
            {"mechanism": "gaussian", "delta": float("nan")},
        ):
            status, _, body = self._run(
                app.handle("POST", "/query", {**base, **bad})
            )
            assert status == 400, bad
            assert json.loads(body)["code"] == "bad_request"

    def test_403_reports_policy_and_native_remaining(self, tmp_path):
        app, _ = self._make_app(tmp_path, policy=ZCDPPolicy(0.05))
        payload = {
            "dataset": "adult", "queries": [{"marginal": ["age"]}],
            "eps": 1.0,  # Laplace ρ = 0.5 ≫ cap 0.05
        }
        status, _, body = self._run(app.handle("POST", "/query", payload))
        assert status == 403
        body = json.loads(body)
        assert body["code"] == "budget_exceeded"
        assert body["policy"] == "zcdp"
        assert set(body["remaining"]) == {"rho"}
        assert body["remaining"]["rho"] == pytest.approx(0.05)
        assert not body["retryable"]

    def test_403_pure_epsilon_body_keeps_legacy_fields(self):
        e = BudgetExceededError("adult", 5.0, 4.5, 2.0, "sequential")
        status, _, body = error_response(e)
        assert status == 403
        assert body["remaining_epsilon"] == pytest.approx(0.5)
        assert body["policy"] == "epsilon"
        assert body["remaining"] == {"epsilon": pytest.approx(0.5)}

    def test_gaussian_fits_where_zcdp_cap_refuses_laplace(self, tmp_path):
        # The native-ρ policy admits a Gaussian release after refusing a
        # Laplace one at the same ε — the planner-surfaced choice matters.
        app, sess = self._make_app(tmp_path, policy=ZCDPPolicy(0.05))
        base = {
            "dataset": "adult", "queries": [{"marginal": ["age"]}],
            "eps": 1.0, "seed": 7,
        }
        status, _, _ = self._run(app.handle("POST", "/query", base))
        assert status == 403
        status, _, body = self._run(
            app.handle(
                "POST", "/query",
                {**base, "mechanism": "gaussian", "delta": 1e-6},
            )
        )
        assert status == 200
        body = json.loads(body)
        assert body["charged"] == 1.0
        acct = sess.service.accountant
        assert acct.curve("adult").rho == pytest.approx(eps_to_rho(1.0, 1e-6))


def test_bench_mechanisms_smoke():
    """Every tier-1 run exercises the mechanisms benchmark at smoke
    size: the analytic rootmse predictions must stay calibrated against
    empirical trial RMSE for both mechanisms at equal budget, and the
    zCDP accounting fold's ε axis must stay bit-identical to the pure-ε
    fold under identical debit traffic."""
    import os
    import sys

    bench_dir = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")
    sys.path.insert(0, bench_dir)
    try:
        from bench_perf_regression import DEFAULT_JSON, bench_mechanisms
    finally:
        sys.path.remove(bench_dir)
    mc = bench_mechanisms(n=16, trials=10, n_debits=25)
    assert mc["predictions_calibrated"]
    assert mc["rmse_ratio_gaussian_vs_laplace"] != 1.0
    assert mc["noise_scale_ratio_gauss_vs_lap"] > 0.0
    assert mc["accounting"]["eps_fold_identical"]
    assert mc["accounting"]["delta_spent"] == pytest.approx(25 * 1e-6)
    assert mc["accounting"]["rho_spent"] == pytest.approx(
        25 * eps_to_rho(1.0 / 25, 1e-6)
    )
    # The committed trajectory must already carry a mechanisms record so
    # this benchmark cannot silently rot.
    with open(DEFAULT_JSON) as f:
        recorded = json.load(f)
    rec = recorded["mechanisms"]
    assert rec["predictions_calibrated"]
    assert rec["accounting"]["eps_fold_identical"]
    assert rec["trials"] >= 50
