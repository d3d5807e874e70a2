"""The resilient serving front-end: deadlines, admission, retry, breaker.

Covers the PR 9 contracts:

* **retry** — shared policy delays (decorrelated jitter bounds, exact
  legacy exponential schedule), retry budget veto, errno classifier
  parity with the fault matrix's;
* **deadline** — per-stage cumulative cutoffs, the commit fence
  (``begin_commit``/``mark_committed`` silence every later check), and
  the ε-spend invariant end to end: expiry before the charge leaves
  zero WAL records; expiry after the fsync'd debit yields either the
  late answer or a burned-spend 504, never a refund;
* **admission** — bounded queue + per-dataset limiter shedding with
  structured 429/503 + Retry-After, free routes admitted at saturation;
* **breaker** — consecutive fit-timeout trips, half-open probing,
  degraded direct serving while open;
* **ledger lock timeout** — non-blocking acquisition raises
  :class:`LockTimeoutError` under contention, default stays blocking;
* **error table** — every library exception maps to its documented
  status / code / retryable / canonical body;
* **HTTP chaos** — concurrent clients under injected latency, kill-point
  crashes aborting connections with zero response bytes, bit-flipped
  registry entries quarantined without failing requests, torn WAL
  tails: replayed spend equals in-memory spend exactly, no overdraw,
  and every 2xx measured body is bit-identical to a direct in-process
  ``Session.ask_many`` with the same seed.
"""

import asyncio
import errno
import http.client
import json
import os
import threading
import time

import numpy as np
import pytest

import repro.obs as obs
from repro.api import Schema, Session, marginal, prefix, ranges, total
from repro.server.admission import AdmissionController, ShedError
from repro.server.app import ServerApp, parse_query_spec
from repro.server.breaker import BreakerOpenError, CircuitBreaker
from repro.server.deadline import Deadline, DeadlineExceededError
from repro.server.errors import encode_body, error_response
from repro.server.http import serve_in_thread
from repro.service import PrivacyAccountant, StrategyRegistry
from repro.service.accountant import BudgetExceededError
from repro.service import engine as engine_mod
from repro.service.engine import QueryMiss
from repro.service.ledger import LockTimeoutError, WriteAheadLedger
from repro.util import faults
from repro.util.faults import FaultInjector, SimulatedCrash
from repro.util.retry import (
    DEFAULT_POLICY,
    DURABLE_WRITE_POLICY,
    TRANSIENT_ERRNOS,
    RetryPolicy,
    call_retrying,
    retryable_oserror,
)
from repro.service.registry import RegistryCorruptionError
from repro.domain import SchemaMismatchError
from repro.obs.spend import replay  # noqa: F401  (also exercises obs.spend lazy import)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def small_schema():
    return Schema.from_spec({"age": 8, "sex": ["M", "F"]})


def poisson_data(schema):
    rng = np.random.default_rng(5)
    return rng.poisson(20, schema.domain.shape()).astype(float)


def make_app(tmp_path=None, cap=100.0, wal=False, registry=False,
             session_kwargs=None, **app_kwargs):
    acct_kw = {}
    if wal:
        acct_kw["wal_path"] = str(tmp_path / "eps.wal")
    reg = (
        StrategyRegistry(str(tmp_path / "registry")) if registry else None
    )
    sess = Session(
        registry=reg,
        accountant=PrivacyAccountant(default_cap=cap, **acct_kw),
        **(session_kwargs or {}),
    )
    app = ServerApp(sess, **app_kwargs)
    schema = small_schema()
    app.register("adult", schema, poisson_data(schema), epsilon_cap=cap)
    return app


@pytest.fixture
def fit_every_miss(monkeypatch):
    """Route every miss through a strategy fit: no direct route."""
    monkeypatch.setattr(engine_mod, "DIRECT_MISS_ROWS", 0)


def post(port, payload, timeout=30):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(
            "POST", "/query", json.dumps(payload),
            {"Content-Type": "application/json"},
        )
        r = conn.getresponse()
        return r.status, dict(r.getheaders()), json.loads(r.read())
    finally:
        conn.close()


def get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        r = conn.getresponse()
        return r.status, r.read()
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_exponential_delays_without_jitter(self):
        p = RetryPolicy(retries=4, base=0.001, cap=1.0, jitter=False)
        assert list(p.delays()) == [0.001, 0.002, 0.004, 0.008]

    def test_cap_bounds_every_delay(self):
        p = RetryPolicy(retries=6, base=0.01, cap=0.02, jitter=False)
        assert max(p.delays()) == 0.02

    def test_jittered_delays_stay_in_band(self):
        p = RetryPolicy(retries=50, base=0.001, cap=0.05, jitter=True)
        ds = list(p.delays(np.random.default_rng(0)))
        assert len(ds) == 50
        assert all(p.base <= d <= p.cap for d in ds)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base=0.1, cap=0.01)

    def test_call_retrying_recovers_after_transient(self):
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError(errno.EAGAIN, "try again")
            return "ok"

        slept = []
        out = call_retrying(
            fn,
            RetryPolicy(retries=4, base=0.001, cap=1.0, jitter=False),
            sleep=slept.append,
        )
        assert out == "ok"
        assert calls["n"] == 3
        assert slept == [0.001, 0.002]

    def test_call_retrying_nonretryable_raises_immediately(self):
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            raise OSError(errno.EBADF, "bad fd")

        with pytest.raises(OSError):
            call_retrying(fn, sleep=lambda d: None)
        assert calls["n"] == 1

    def test_call_retrying_exhausts_budget_and_raises(self):
        def fn():
            raise OSError(errno.EINTR, "interrupted")

        with pytest.raises(OSError):
            call_retrying(
                fn,
                RetryPolicy(retries=3, base=0.001, cap=1.0, jitter=False),
                sleep=lambda d: None,
            )

    def test_errno_classifier_matches_fault_matrix(self):
        assert TRANSIENT_ERRNOS == {errno.EINTR, errno.EAGAIN, errno.ENOSPC}
        assert retryable_oserror(OSError(errno.EINTR, "x"))
        assert not retryable_oserror(OSError(errno.EBADF, "x"))
        assert not retryable_oserror(ValueError("x"))

    def test_durable_write_policy_keeps_legacy_schedule(self):
        """Durable writes sleep exactly 1, 2, 4, 8 ms — the schedule the
        fault matrix has always asserted on."""
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            if calls["n"] < 4:
                raise OSError(errno.ENOSPC, "full")
            return 7

        slept = []
        assert call_retrying(fn, DURABLE_WRITE_POLICY, sleep=slept.append) == 7
        assert slept == [0.001, 0.002, 0.004]
        assert list(DURABLE_WRITE_POLICY.delays()) == [0.001, 0.002, 0.004, 0.008]


# ---------------------------------------------------------------------------
# deadline
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_stage_checks_pass_then_fail(self):
        t = [0.0]
        dl = Deadline(1.0, clock=lambda: t[0])
        dl.check("plan")
        t[0] = 0.5
        dl.check("warm")
        t[0] = 1.0
        with pytest.raises(DeadlineExceededError) as ei:
            dl.check("fit")
        assert ei.value.stage == "fit"
        assert dl.expired_stage == "fit"

    def test_charge_stage_reserves_headroom(self):
        t = [0.95]
        dl = Deadline(1.0, clock=lambda: 0.0)
        dl._start = -0.95  # elapsed = 0.95: inside the wire deadline...
        dl.check("fit")  # ...so any ordinary stage still passes
        with pytest.raises(DeadlineExceededError):
            dl.check("charge")  # ...but the 0.9 charge cutoff refuses

    def test_commit_fence_silences_checks(self):
        t = [0.0]
        dl = Deadline(0.1, clock=lambda: t[0])
        dl.begin_commit()
        t[0] = 99.0
        dl.check("anything")  # no raise: the debit may be durable
        dl.mark_committed(0.5)
        assert dl.committed_epsilon == 0.5
        assert dl.commit_started

    def test_remaining_and_expired(self):
        t = [0.0]
        dl = Deadline(2.0, clock=lambda: t[0])
        assert dl.remaining() == 2.0
        t[0] = 3.0
        assert dl.remaining() == 0.0
        assert dl.expired()

    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            Deadline(0.0)


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_queue_full_sheds_503(self):
        async def run():
            adm = AdmissionController(max_measure=1, max_queue=0)
            await adm.acquire_measure("a")
            with pytest.raises(ShedError) as ei:
                await adm.acquire_measure("b")
            assert ei.value.status == 503
            assert ei.value.reason == "queue_full"
            adm.release_measure("a")
            assert adm.executing == 0

        asyncio.run(run())

    def test_per_dataset_limit_sheds_429(self):
        async def run():
            adm = AdmissionController(max_measure=4, max_queue=4, per_dataset=1)
            await adm.acquire_measure("a")
            with pytest.raises(ShedError) as ei:
                await adm.acquire_measure("a")
            assert ei.value.status == 429
            assert ei.value.reason == "dataset_concurrency"
            await adm.acquire_measure("b")  # other datasets unaffected
            adm.release_measure("a")
            await adm.acquire_measure("a")  # freed slot admits again
            adm.release_measure("a")
            adm.release_measure("b")

        asyncio.run(run())

    def test_queue_timeout_sheds(self):
        async def run():
            adm = AdmissionController(max_measure=1, max_queue=2)
            await adm.acquire_measure("a")
            with pytest.raises(ShedError) as ei:
                await adm.acquire_measure("b", timeout=0.02)
            assert ei.value.reason == "queue_timeout"
            assert adm.queued == 0  # bookkeeping restored after the shed
            adm.release_measure("a")

        asyncio.run(run())

    def test_shed_counts_by_reason(self):
        async def run():
            adm = AdmissionController(max_measure=1, max_queue=0, per_dataset=1)
            await adm.acquire_measure("a")
            for _ in range(3):
                with pytest.raises(ShedError):
                    await adm.acquire_measure("a")
            with pytest.raises(ShedError):
                await adm.acquire_measure("b")
            assert adm.shed_counts == {
                "dataset_concurrency": 3, "queue_full": 1,
            }
            adm.release_measure("a")

        asyncio.run(run())


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------


class TestBreaker:
    def test_trips_after_consecutive_failures(self):
        t = [0.0]
        br = CircuitBreaker(trip_after=3, reset_timeout=5.0, clock=lambda: t[0])
        for _ in range(2):
            br.record_failure()
        br.allow()  # still closed
        br.record_failure()
        assert br.state == "open"
        with pytest.raises(BreakerOpenError) as ei:
            br.allow()
        assert 0 < ei.value.retry_after <= 5.0

    def test_success_resets_the_run(self):
        br = CircuitBreaker(trip_after=2)
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state == "closed"

    def test_half_open_probe_then_close(self):
        t = [0.0]
        br = CircuitBreaker(trip_after=1, reset_timeout=1.0, clock=lambda: t[0])
        br.record_failure()
        assert br.state == "open"
        t[0] = 1.5
        assert br.state == "half-open"
        br.allow()  # the single probe
        with pytest.raises(BreakerOpenError):
            br.allow()  # second concurrent probe refused
        br.record_success()
        assert br.state == "closed"
        br.allow()

    def test_half_open_probe_failure_reopens(self):
        t = [0.0]
        br = CircuitBreaker(trip_after=3, reset_timeout=1.0, clock=lambda: t[0])
        for _ in range(3):
            br.record_failure()
        t[0] = 1.5
        br.allow()
        br.record_failure()  # one bad probe re-opens immediately
        assert br.state == "open"

    def test_state_values_for_gauge(self):
        t = [0.0]
        br = CircuitBreaker(trip_after=1, reset_timeout=1.0, clock=lambda: t[0])
        assert br.state_value == 0
        br.record_failure()
        assert br.state_value == 2
        t[0] = 2.0
        assert br.state_value == 1


# ---------------------------------------------------------------------------
# error table
# ---------------------------------------------------------------------------


class TestErrorTable:
    def test_budget_exceeded_403_with_remaining(self):
        e = BudgetExceededError("adult", 5.0, 4.0, 2.0, "sequential")
        status, headers, body = error_response(e)
        assert status == 403
        assert body["code"] == "budget_exceeded"
        assert body["retryable"] is False
        assert body["dataset"] == "adult"
        assert body["remaining_epsilon"] == 1.0
        assert body["requested_epsilon"] == 2.0

    def test_schema_mismatch_400(self):
        status, _, body = error_response(SchemaMismatchError("bad shape"))
        assert (status, body["code"], body["retryable"]) == (
            400, "schema_mismatch", False,
        )

    def test_query_miss_503_degraded(self):
        status, headers, body = error_response(QueryMiss("no cover"))
        assert status == 503
        assert body["code"] == "measurement_unavailable"
        assert body["degraded"] is True
        assert "Retry-After" in headers

    def test_registry_corruption_503_retryable(self):
        status, headers, body = error_response(
            RegistryCorruptionError("checksum")
        )
        assert (status, body["code"], body["retryable"]) == (
            503, "registry_corruption", True,
        )

    def test_lock_timeout_503_with_retry_after(self):
        e = LockTimeoutError("/x.lock", 0.5, 0.51)
        status, headers, body = error_response(e)
        assert status == 503
        assert body["code"] == "ledger_lock_timeout"
        assert headers["Retry-After"] == "0.5"

    def test_deadline_504_zero_spend(self):
        e = DeadlineExceededError("fit", 0.2, 0.1)
        status, _, body = error_response(e)
        assert status == 504
        assert body["code"] == "deadline_exceeded"
        assert body["stage"] == "fit"
        assert body["epsilon_spent"] == 0.0

    def test_shed_maps_its_own_status(self):
        status, headers, body = error_response(ShedError("queue_full", 503, 0.25))
        assert status == 503
        assert body["code"] == "overloaded"
        assert body["reason"] == "queue_full"
        assert headers["Retry-After"] == "0.25"
        status, _, body = error_response(
            ShedError("dataset_concurrency", 429, 0.05)
        )
        assert status == 429

    def test_breaker_open_503_degraded(self):
        status, headers, body = error_response(BreakerOpenError(1.5, 3))
        assert status == 503
        assert body["code"] == "breaker_open"
        assert body["degraded"] is True
        assert headers["Retry-After"] == "1.5"

    def test_unknown_dataset_404(self):
        status, _, body = error_response(KeyError("nope"))
        assert (status, body["code"]) == (404, "unknown_dataset")
        assert body["dataset"] == "nope"

    def test_unrecognized_is_opaque_500(self):
        status, _, body = error_response(RuntimeError("secret internals"))
        assert (status, body["code"]) == (500, "internal")
        assert "secret" not in body["error"]

    def test_bodies_encode_canonically(self):
        _, _, body = error_response(QueryMiss("x"))
        raw = encode_body(body)
        assert raw == json.dumps(
            json.loads(raw), sort_keys=True, separators=(",", ":")
        ).encode()

    def test_specificity_order(self):
        # SchemaMismatchError subclasses KeyError: must map to 400, not 404.
        status, _, body = error_response(SchemaMismatchError("dataset 'x'"))
        assert status == 400


# ---------------------------------------------------------------------------
# ledger lock timeout
# ---------------------------------------------------------------------------


class TestLedgerLockTimeout:
    def test_contended_lock_times_out(self, tmp_path):
        path = str(tmp_path / "eps.wal")
        holder = WriteAheadLedger(path)
        waiter = WriteAheadLedger(path, lock_timeout=0.15)
        entered = threading.Event()
        release = threading.Event()

        def hold():
            with holder.locked():
                entered.set()
                release.wait(5)

        t = threading.Thread(target=hold)
        t.start()
        try:
            assert entered.wait(5)
            t0 = time.monotonic()
            with pytest.raises(LockTimeoutError) as ei:
                with waiter.locked():
                    pass
            waited = time.monotonic() - t0
            assert 0.1 <= waited < 2.0
            assert ei.value.timeout == 0.15
        finally:
            release.set()
            t.join(5)
        # Lock released: the timed ledger acquires immediately now.
        with waiter.locked():
            pass

    def test_default_stays_blocking(self, tmp_path):
        path = str(tmp_path / "eps.wal")
        holder = WriteAheadLedger(path)
        blocking = WriteAheadLedger(path)
        entered = threading.Event()

        def hold():
            with holder.locked():
                entered.set()
                time.sleep(0.15)

        t = threading.Thread(target=hold)
        t.start()
        assert entered.wait(5)
        with blocking.locked():  # waits, never raises
            pass
        t.join(5)

    def test_invalid_timeout_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLedger(str(tmp_path / "w.wal"), lock_timeout=0.0)

    def test_accountant_forwards_lock_timeout(self, tmp_path):
        acct = PrivacyAccountant(
            default_cap=5.0,
            wal_path=str(tmp_path / "eps.wal"),
            lock_timeout=0.25,
        )
        assert acct._wal.lock_timeout == 0.25
        acct.charge("d", 1.0)  # uncontended timed path still works
        assert acct.spent("d") == 1.0


# ---------------------------------------------------------------------------
# latency fault plans
# ---------------------------------------------------------------------------


class TestDelayPlans:
    def test_delay_fires_on_scheduled_hits(self):
        inj = FaultInjector().delay("site", 0.05, times=2)
        with inj.active():
            t0 = time.perf_counter()
            faults.check("site")
            faults.check("site")
            slow = time.perf_counter() - t0
            t0 = time.perf_counter()
            faults.check("site")  # third hit: plan exhausted
            fast = time.perf_counter() - t0
        assert slow >= 0.1
        assert fast < 0.05
        assert [k for (_, k, _) in inj.fired] == ["delay", "delay"]

    def test_delay_composes_with_error(self):
        inj = (
            FaultInjector()
            .delay("s", 0.02)
            .fail("s", errno.EINTR, times=1)
        )
        with inj.active():
            t0 = time.perf_counter()
            with pytest.raises(OSError):
                faults.check("s")
            assert time.perf_counter() - t0 >= 0.02

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector().delay("s", -1.0)


# ---------------------------------------------------------------------------
# wire DSL
# ---------------------------------------------------------------------------


class TestWireDsl:
    def test_all_kinds_parse(self):
        specs = [
            {"marginal": ["age", "sex"]},
            {"total": True},
            {"prefix": "age"},
            {"ranges": "age"},
            {"count": [{"attr": "sex", "eq": "F"},
                       {"attr": "age", "between": [2, 5]}]},
        ]
        exprs = [parse_query_spec(s) for s in specs]
        assert len(exprs) == 5

    @pytest.mark.parametrize("bad", [
        "marginal",
        {},
        {"marginal": ["age"], "total": True},
        {"marginal": "age"},
        {"prefix": 3},
        {"count": [{"eq": 1}]},
        {"count": [{"attr": "age"}]},
        {"nope": 1},
    ])
    def test_junk_raises_valueerror(self, bad):
        with pytest.raises(ValueError):
            parse_query_spec(bad)


# ---------------------------------------------------------------------------
# HTTP integration
# ---------------------------------------------------------------------------


class TestHttpIntegration:
    def test_measure_then_free_and_lifecycle(self, tmp_path):
        app = make_app(tmp_path)
        with serve_in_thread(app) as srv:
            s, h, b = post(srv.port, {
                "dataset": "adult",
                "queries": [{"marginal": ["age"]}],
                "eps": 0.5, "seed": 3,
            })
            assert s == 200
            assert b["charged"] == 0.5
            assert b["remaining"] == 99.5
            assert b["degraded"] is False
            assert h["Content-Type"] == "application/json"
            # Same query again: covered by the measured reconstruction.
            s, _, b = post(srv.port, {
                "dataset": "adult", "queries": [{"marginal": ["age"]}],
            })
            assert s == 200
            assert b["charged"] == 0.0
            assert all(a["route"] == "accelerator" for a in b["answers"])
            s, raw = get(srv.port, "/healthz")
            assert (s, json.loads(raw)["status"]) == (200, "ok")
            s, raw = get(srv.port, "/readyz")
            assert s == 200
            s, raw = get(srv.port, "/datasets")
            assert json.loads(raw)["datasets"] == ["adult"]
            s, raw = get(srv.port, "/nope")
            assert s == 404

    def test_keep_alive_reuses_one_connection(self, tmp_path):
        app = make_app(tmp_path)
        with serve_in_thread(app) as srv:
            conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=30)
            try:
                for _ in range(5):
                    conn.request("GET", "/healthz")
                    r = conn.getresponse()
                    assert r.status == 200
                    r.read()
            finally:
                conn.close()

    def test_error_paths_over_the_wire(self, tmp_path):
        app = make_app(tmp_path, cap=1.0)
        with serve_in_thread(app) as srv:
            s, _, b = post(srv.port, {
                "dataset": "nope", "queries": [{"total": True}],
            })
            assert (s, b["code"]) == (404, "unknown_dataset")
            s, _, b = post(srv.port, {
                "dataset": "adult", "queries": [{"prefix": "age"}],
            })  # miss without eps
            assert (s, b["code"]) == (400, "bad_request")
            s, _, b = post(srv.port, {
                "dataset": "adult", "queries": [{"prefix": "age"}],
                "eps": 5.0,
            })  # beyond the 1.0 cap: free-route-only degradation
            assert (s, b["code"]) == (403, "budget_exceeded")
            assert b["remaining_epsilon"] == 1.0
            s, _, b = post(srv.port, {"dataset": "adult"})
            assert (s, b["code"]) == (400, "bad_request")
            conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=30)
            try:
                conn.request("POST", "/query", "{not json",
                             {"Content-Type": "application/json"})
                r = conn.getresponse()
                assert r.status == 400
                assert json.loads(r.read())["code"] == "bad_json"
            finally:
                conn.close()

    def test_wire_bodies_are_canonical_and_bit_identical(self, tmp_path):
        """Every 2xx body equals the canonical encoding of itself, and the
        answers are float-exact against a direct in-process session
        replaying the same request sequence with the same seeds."""
        app = make_app(tmp_path)
        schema = small_schema()
        mirror = Session(accountant=PrivacyAccountant(default_cap=100.0))
        mds = mirror.dataset(
            "adult", schema=schema, data=poisson_data(schema), epsilon_cap=100.0
        )
        requests = [
            ([marginal("age")], [{"marginal": ["age"]}], 0.7, 11),
            ([prefix("age")], [{"prefix": "age"}], 0.4, 12),
            ([marginal("age")], [{"marginal": ["age"]}], None, None),
            ([total()], [{"total": True}], 0.3, 13),
            ([ranges("age"), marginal("sex")],
             [{"ranges": "age"}, {"marginal": ["sex"]}], 0.9, 14),
        ]
        with serve_in_thread(app) as srv:
            for exprs, specs, eps, seed in requests:
                payload = {"dataset": "adult", "queries": specs}
                if eps is not None:
                    payload.update(eps=eps, seed=seed)
                s, _, body = post(srv.port, payload)
                assert s == 200
                direct = mds.ask_many(exprs, eps=eps, rng=seed)
                assert len(body["answers"]) == len(direct)
                for wire, ans in zip(body["answers"], direct):
                    assert wire["values"] == [float(v) for v in ans.values]
                    assert wire["route"] == ans.route
                    assert wire["epsilon"] == ans.epsilon
        assert app.session.service.accountant.spent("adult") == pytest.approx(
            mirror.service.accountant.spent("adult")
        )


# ---------------------------------------------------------------------------
# deadline/spend invariant
# ---------------------------------------------------------------------------


class TestDeadlineSpendInvariant:
    def test_expiry_before_charge_spends_nothing(self, tmp_path):
        """A deadline that dies at any pre-charge stage leaves zero spend
        and zero WAL records."""
        app = make_app(tmp_path, wal=True)
        wal = tmp_path / "eps.wal"
        base = wal.stat().st_size  # register record from setup
        t = [0.0]
        dl = Deadline(1.0, clock=lambda: t[0])
        t[0] = 2.0  # already expired before the request begins
        ds = app.session.dataset("adult")
        with pytest.raises(DeadlineExceededError):
            ds.ask_many([prefix("age")], eps=0.5, deadline=dl)
        assert app.session.service.accountant.spent("adult") == 0.0
        assert wal.stat().st_size == base  # not one byte appended
        assert dl.committed_epsilon is None

    def test_fit_timeout_spends_nothing(self, tmp_path, fit_every_miss):
        """A slow cold fit blows the deadline at the fit-exit check —
        strictly before the charge, so refusal is free."""
        app = make_app(tmp_path, wal=True)
        ds = app.session.dataset("adult")
        inj = FaultInjector().delay("engine.fit", 0.15)
        with inj.active():
            with pytest.raises(DeadlineExceededError) as ei:
                ds.ask_many([marginal("age")], eps=0.5, deadline=Deadline(0.05))
        assert ei.value.stage == "fit"
        assert app.session.service.accountant.spent("adult") == 0.0
        assert replay(str(tmp_path / "eps.wal")).spent("adult") == 0.0

    def test_expiry_after_commit_completes_and_burns_nothing_extra(self, tmp_path):
        """Once the debit is fsync'd the measurement always completes; the
        deadline never claws back committed spend."""
        app = make_app(tmp_path, wal=True)
        ds = app.session.dataset("adult")
        inj = FaultInjector().delay("engine.measure.noise", 0.1)
        dl = Deadline(0.05)
        with inj.active():
            answers = ds.ask_many(
                [marginal("age")], eps=0.5, rng=1, deadline=dl
            )
        # Completed despite the wire deadline having passed mid-measure.
        assert len(answers) == 1
        assert dl.committed_epsilon == 0.5
        acct = app.session.service.accountant
        assert acct.spent("adult") == 0.5
        assert replay(str(tmp_path / "eps.wal")).spent("adult") == 0.5

    def test_http_504_before_charge_is_free(self, tmp_path, fit_every_miss):
        app = make_app(tmp_path, wal=True)
        inj = FaultInjector().delay("engine.fit", 0.3)
        with inj.active():
            with serve_in_thread(app) as srv:
                s, _, b = post(srv.port, {
                    "dataset": "adult",
                    "queries": [{"marginal": ["age"]}],
                    "eps": 0.5, "timeout": 0.05,
                })
        assert s == 504
        assert b["code"] == "deadline_exceeded"
        assert b["epsilon_spent"] == 0.0
        assert app.session.service.accountant.spent("adult") == 0.0
        assert replay(str(tmp_path / "eps.wal")).spent("adult") == 0.0

    def test_http_late_answer_within_commit_grace(self, tmp_path):
        """Deadline expires after the debit commits: the waiter holds on
        (bounded by commit_grace) and delivers the late answer."""
        app = make_app(tmp_path, wal=True, commit_grace=10.0)
        inj = FaultInjector().delay("engine.measure.noise", 0.25)
        with inj.active():
            with serve_in_thread(app) as srv:
                s, _, b = post(srv.port, {
                    "dataset": "adult",
                    "queries": [{"marginal": ["age"]}],
                    "eps": 0.5, "seed": 2, "timeout": 0.1,
                })
        assert s == 200
        assert b.get("late") is True
        assert b["charged"] == 0.5
        assert app.session.service.accountant.spent("adult") == 0.5

    def test_http_504_after_commit_reports_burned_spend(self, tmp_path):
        """Grace exhausted with the debit committed: 504 reporting the
        spend as burned — and the WAL still shows exactly that debit."""
        app = make_app(tmp_path, wal=True, commit_grace=0.05)
        inj = FaultInjector().delay("engine.measure.noise", 0.4)
        with inj.active():
            with serve_in_thread(app) as srv:
                s, _, b = post(srv.port, {
                    "dataset": "adult",
                    "queries": [{"marginal": ["age"]}],
                    "eps": 0.5, "timeout": 0.1,
                })
                # Let the measurement finish before tearing the server down.
                time.sleep(0.45)
        assert s == 504
        assert b["burned"] is True
        assert b["epsilon_spent"] == 0.5
        assert b["retryable"] is True
        acct = app.session.service.accountant
        assert acct.spent("adult") == 0.5
        assert replay(str(tmp_path / "eps.wal")).spent("adult") == 0.5


# ---------------------------------------------------------------------------
# admission + degradation over HTTP
# ---------------------------------------------------------------------------


class TestOverloadBehavior:
    def test_free_routes_admitted_at_saturation(self, tmp_path):
        """With the one measure slot pinned by a slow request, cached
        reads still serve instantly."""
        app = make_app(tmp_path, max_measure=1, max_queue=0)
        with serve_in_thread(app) as srv:
            # Prime a reconstruction so marginal("age") hits for free.
            s, _, _ = post(srv.port, {
                "dataset": "adult", "queries": [{"marginal": ["age"]}],
                "eps": 0.5, "seed": 1,
            })
            assert s == 200
            inj = FaultInjector().delay("engine.measure.noise", 0.5)
            with inj.active():
                slow_status = {}

                def slow():
                    slow_status["r"] = post(srv.port, {
                        "dataset": "adult", "queries": [{"prefix": "sex"}],
                        "eps": 0.2, "seed": 2, "timeout": 5.0,
                    })

                t = threading.Thread(target=slow)
                t.start()
                time.sleep(0.15)  # let it occupy the only slot
                t0 = time.perf_counter()
                s, _, b = post(srv.port, {
                    "dataset": "adult", "queries": [{"marginal": ["age"]}],
                })
                free_ms = (time.perf_counter() - t0) * 1e3
                assert s == 200
                assert b["charged"] == 0.0
                assert free_ms < 300  # served while the slot was pinned
                t.join(10)
            assert slow_status["r"][0] == 200

    def test_concurrent_measured_sheds_structured(self, tmp_path):
        app = make_app(tmp_path, max_measure=1, max_queue=0, per_dataset=1)
        schema = small_schema()
        app.register("census", schema, poisson_data(schema), epsilon_cap=100.0)
        inj = FaultInjector().delay("engine.measure.noise", 0.4, times=4)
        with serve_in_thread(app) as srv:
            with inj.active():
                results = {}

                def ask(name, dataset, q):
                    results[name] = post(srv.port, {
                        "dataset": dataset, "queries": [q],
                        "eps": 0.2, "seed": 5, "timeout": 5.0,
                    })

                t1 = threading.Thread(
                    target=ask, args=("slow", "adult", {"marginal": ["age"]})
                )
                t1.start()
                time.sleep(0.15)
                # Same dataset at its concurrency limit → 429.
                ask("same", "adult", {"prefix": "age"})
                # Other dataset, but zero queue depth left → 503.
                ask("other", "census", {"marginal": ["sex"]})
                t1.join(10)
            assert results["slow"][0] == 200
            s, h, b = results["same"]
            assert (s, b["code"], b["reason"]) == (
                429, "overloaded", "dataset_concurrency"
            )
            assert "Retry-After" in h
            s, h, b = results["other"]
            assert (s, b["reason"]) == (503, "queue_full")
            assert b["retryable"] is True

    def test_draining_sheds_and_readyz_flips(self, tmp_path):
        app = make_app(tmp_path)
        with serve_in_thread(app) as srv:
            app.draining = True
            s, raw = get(srv.port, "/readyz")
            assert s == 503
            assert json.loads(raw)["draining"] is True
            s, _, b = post(srv.port, {
                "dataset": "adult", "queries": [{"total": True}], "eps": 0.1,
            })
            assert (s, b["reason"]) == (503, "draining")
            app.draining = False

    def test_graceful_drain_completes_inflight_work(self, tmp_path):
        """stop() waits for the in-flight measured request's WAL append
        and answer before the server goes away."""
        app = make_app(tmp_path, wal=True)
        srv = serve_in_thread(app)
        inj = FaultInjector().delay("engine.measure.noise", 0.3)
        result = {}
        with inj.active():
            def slow():
                result["r"] = post(srv.port, {
                    "dataset": "adult", "queries": [{"marginal": ["age"]}],
                    "eps": 0.5, "seed": 9, "timeout": 5.0,
                })

            t = threading.Thread(target=slow)
            t.start()
            give_up = time.monotonic() + 10
            while not inj.fired and time.monotonic() < give_up:
                time.sleep(0.005)
            assert inj.fired  # the request is mid-measure
            srv.stop()  # drain-then-flush
            t.join(10)
        assert result["r"][0] == 200
        assert app.admission.executing == 0
        assert app.session.service.accountant.spent("adult") == 0.5
        assert replay(str(tmp_path / "eps.wal")).spent("adult") == 0.5


# ---------------------------------------------------------------------------
# circuit breaker over HTTP
# ---------------------------------------------------------------------------


class TestBreakerIntegration:
    def test_fit_timeouts_trip_then_degraded_refusal(
        self, tmp_path, fit_every_miss
    ):
        app = make_app(
            tmp_path,
            breaker=CircuitBreaker(trip_after=1, reset_timeout=60.0),
        )
        inj = FaultInjector().delay("engine.fit", 0.3, times=10)
        with serve_in_thread(app) as srv:
            with inj.active():
                s, _, b = post(srv.port, {
                    "dataset": "adult", "queries": [{"marginal": ["age"]}],
                    "eps": 0.5, "timeout": 0.05,
                })
                assert s == 504
                # The worker finishes its slow fit, records the failure,
                # and the breaker trips.
                deadline = time.monotonic() + 5
                while app.breaker.state != "open":
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                s, h, b = post(srv.port, {
                    "dataset": "adult", "queries": [{"prefix": "age"}],
                    "eps": 0.5,
                })
                assert s == 503
                assert b["code"] == "breaker_open"
                assert b["degraded"] is True
                assert "Retry-After" in h
        assert app.session.service.accountant.spent("adult") == 0.0

    def test_direct_route_serves_while_breaker_open(self, tmp_path):
        """Degraded mode: cold fits are refused, but miss batches the
        router sends down the direct path still serve (no fit involved)."""
        breaker = CircuitBreaker(trip_after=1, reset_timeout=60.0)
        breaker.record_failure()  # force open
        app = make_app(tmp_path, breaker=breaker)
        with serve_in_thread(app) as srv:
            s, _, b = post(srv.port, {
                "dataset": "adult",
                "queries": [{"count": [{"attr": "sex", "eq": "F"}]}],
                "eps": 0.3, "seed": 4,
            })
            assert s == 200
            assert b["answers"][0]["route"] == "direct"
            assert b["charged"] == 0.3




COLD = {
    "dataset": "adult", "queries": [{"marginal": ["age"]}], "eps": 0.5,
    "seed": 1,
}

#: Request timeout for the cold fits below: ServerApp's ``max_timeout``,
#: so a fit on a busy host is not cut by the 2 s ``default_timeout``.
FIT_TIMEOUT = 30.0


class TestBreakerInTheFit:
    """The breaker is consulted inside the engine's fit scope, in the
    worker: only a request the engine routes to a fit asks it, and every
    allowed fit records its outcome, whatever ends it."""

    def make(self, tmp_path, **app_kwargs):
        t = [0.0]
        breaker = CircuitBreaker(
            trip_after=1, reset_timeout=10.0, clock=lambda: t[0]
        )
        app = make_app(
            tmp_path, breaker=breaker, default_timeout=FIT_TIMEOUT, **app_kwargs
        )
        return app, breaker, t

    @pytest.mark.usefixtures("fit_every_miss")
    def test_shed_probe_does_not_hold_the_half_open_slot(self, tmp_path):
        app, breaker, t = self.make(tmp_path, per_dataset=1)
        breaker.record_failure()
        t[0] = 10.0
        assert breaker.state == "half-open"

        async def shed_probe():
            await app.admission.acquire_measure("adult")
            try:
                return await app.handle_query(COLD)
            finally:
                app.admission.release_measure("adult")

        status, _, body = asyncio.run(shed_probe())
        assert status == 429 and body["code"] == "overloaded"
        assert breaker.state == "half-open"
        status, _, body = asyncio.run(app.handle_query(COLD))
        assert status == 200 and body["answers"][0]["route"] == "cold"
        assert breaker.state == "closed"

    @pytest.mark.usefixtures("fit_every_miss")
    def test_fit_that_raises_counts_as_failure(self, tmp_path):
        app, breaker, t = self.make(tmp_path)
        with FaultInjector().fail("engine.fit").active():
            status, _, _ = asyncio.run(app.handle_query(COLD))
        assert status == 500
        assert breaker.state == "open"
        status, _, body = asyncio.run(app.handle_query(COLD))
        assert status == 503 and body["code"] == "breaker_open"
        # A probe that dies re-opens the breaker and frees the slot: the
        # probe after the next cooldown fits and closes it.
        t[0] = 10.0
        with FaultInjector().fail("engine.fit").active():
            status, _, _ = asyncio.run(app.handle_query(COLD))
        assert status == 500
        assert breaker.state == "open"
        t[0] = 20.0
        status, _, body = asyncio.run(app.handle_query(COLD))
        assert status == 200 and body["answers"][0]["route"] == "cold"
        assert breaker.state == "closed"
        assert app.session.service.accountant.spent("adult") == 0.5

    @pytest.mark.usefixtures("fit_every_miss")
    def test_warm_miss_serves_while_breaker_open(self, tmp_path):
        app, breaker, _ = self.make(tmp_path)
        ds = app.session.dataset("adult")
        app.session.service.prepare(
            ds.compile_many([marginal("age")]).to_workload_matrix()
        )
        breaker.record_failure()
        status, _, body = asyncio.run(app.handle_query(COLD))
        assert status == 200 and body["answers"][0]["route"] == "warm"
        assert breaker.state == "open"

    @pytest.mark.parametrize("route, session_kwargs", [
        ("direct", {}),
        ("cold", {"rng": 0}),
    ])
    def test_measured_request_never_plans(
        self, tmp_path, monkeypatch, route, session_kwargs
    ):
        payload = {
            "dataset": "adult",
            "queries": [{"count": [{"attr": "sex", "eq": "F"}]}],
            "eps": 0.5, "seed": 4,
        }
        if route == "cold":
            monkeypatch.setattr(engine_mod, "DIRECT_MISS_ROWS", 0)
        expected = asyncio.run(
            make_app(
                session_kwargs=session_kwargs, default_timeout=FIT_TIMEOUT
            ).handle_query(payload)
        )

        def no_planning(*args, **kwargs):
            raise AssertionError("a measured request planned")

        monkeypatch.setattr("repro.api.session.plan_queries", no_planning)
        got = asyncio.run(
            make_app(
                session_kwargs=session_kwargs, default_timeout=FIT_TIMEOUT
            ).handle_query(payload)
        )
        assert got[0] == 200 and got[2]["answers"][0]["route"] == route
        assert encode_body(got[2]) == encode_body(expected[2])


# ---------------------------------------------------------------------------
# chaos: concurrency, kill-points, corruption
# ---------------------------------------------------------------------------


class TestChaos:
    def test_concurrent_clients_exact_accounting(self, tmp_path):
        """N concurrent clients, injected measurement latency, mixed
        free/measured traffic: the replayed WAL equals the in-memory
        spend exactly and never overdraws the cap."""
        cap = 4.0
        app = make_app(
            tmp_path, cap=cap, wal=True,
            max_measure=2, max_queue=4, per_dataset=4,
        )
        inj = FaultInjector().delay("engine.measure.noise", 0.02, times=8)
        statuses = []
        lock = threading.Lock()

        def client(i):
            for j in range(4):
                q = (
                    {"marginal": ["age"]}
                    if (i + j) % 2 == 0
                    else {"prefix": "age"}
                )
                s, _, body = post(srv.port, {
                    "dataset": "adult", "queries": [q],
                    "eps": 0.5, "seed": 100 * i + j, "timeout": 10.0,
                })
                with lock:
                    statuses.append((s, body.get("code")))

        with serve_in_thread(app) as srv:
            with inj.active():
                threads = [
                    threading.Thread(target=client, args=(i,)) for i in range(6)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(30)
        codes = {s for s, _ in statuses}
        assert 200 in codes  # some traffic succeeded
        # Only structured outcomes: success, overload, budget, timeout.
        assert codes <= {200, 403, 429, 503, 504}
        acct = app.session.service.accountant
        spent = acct.spent("adult")
        assert spent <= cap * (1 + 1e-9)  # no overdraw, ever
        # Replayed WAL == in-memory: byte-durable and live state agree.
        assert replay(str(tmp_path / "eps.wal")).spent("adult") == spent
        recovered = PrivacyAccountant.recover(str(tmp_path / "eps.wal"))
        assert recovered.spent("adult") == spent

    def test_kill_point_mid_request_aborts_connection(self, tmp_path):
        """A simulated crash between the fsync'd debit and the in-memory
        apply: the client sees a dropped connection (zero response
        bytes), and recovery replays the committed debit — conservative
        burn, never an overdraw, never a half-written answer."""
        app = make_app(tmp_path, wal=True)
        inj = FaultInjector().crash("ledger.append.commit")
        with serve_in_thread(app) as srv:
            with inj.active():
                with pytest.raises(
                    (http.client.BadStatusLine, http.client.RemoteDisconnected,
                     ConnectionError)
                ):
                    post(srv.port, {
                        "dataset": "adult", "queries": [{"marginal": ["age"]}],
                        "eps": 0.5, "seed": 1, "timeout": 5.0,
                    })
            assert inj.fired  # the kill-point actually fired
            # The server survives the crashed request.
            s, raw = get(srv.port, "/healthz")
            assert s == 200
        acct = app.session.service.accountant
        recovered = PrivacyAccountant.recover(str(tmp_path / "eps.wal"))
        # The debit was durable before the crash: replay burns it.
        assert recovered.spent("adult") == 0.5
        # In-memory state may lag (the apply never ran) but never exceeds
        # the durable record.
        assert acct.spent("adult") <= recovered.spent("adult")

    def test_torn_wal_tail_recovery_is_exact(self, tmp_path):
        """Garbage appended to the WAL (a torn final record) is dropped on
        recovery; the committed prefix replays exactly."""
        app = make_app(tmp_path, wal=True)
        with serve_in_thread(app) as srv:
            s, _, _ = post(srv.port, {
                "dataset": "adult", "queries": [{"marginal": ["age"]}],
                "eps": 0.75, "seed": 2,
            })
            assert s == 200
        wal = tmp_path / "eps.wal"
        with open(wal, "ab") as f:
            f.write(b'{"crc":"0000000000000000","dataset":"adult","eps')
        recovered = PrivacyAccountant.recover(str(wal))
        assert recovered.spent("adult") == 0.75
        # The torn tail was physically truncated during recovery.
        assert not open(wal, "rb").read().endswith(b'"eps')

    def test_bit_flipped_registry_entry_degrades_to_refit(
        self, tmp_path, fit_every_miss
    ):
        """A corrupted persisted strategy is quarantined and re-fit cold —
        the request succeeds; nothing 5xxes."""
        app = make_app(tmp_path, registry=True, default_timeout=FIT_TIMEOUT)
        with serve_in_thread(app) as srv:
            s, _, b = post(srv.port, {
                "dataset": "adult", "queries": [{"marginal": ["age"]}],
                "eps": 0.5, "seed": 1,
            })
            assert s == 200
            assert b["answers"][0]["route"] == "cold"
        reg_dir = tmp_path / "registry"
        npz = [p for p in os.listdir(reg_dir) if p.endswith(".npz")]
        assert npz
        path = reg_dir / npz[0]
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        path.write_bytes(bytes(blob))
        # Fresh process over the same registry: the flipped entry must
        # quarantine into a cold re-fit, not an error.
        app2 = make_app(tmp_path, registry=True, default_timeout=FIT_TIMEOUT)
        with serve_in_thread(app2) as srv:
            s, _, b = post(srv.port, {
                "dataset": "adult", "queries": [{"marginal": ["age"]}],
                "eps": 0.5, "seed": 1,
            })
            assert s == 200
            assert b["answers"][0]["route"] == "cold"  # re-fit, not served corrupt
        q = reg_dir / "quarantine"
        assert q.is_dir() and any(q.iterdir())


# ---------------------------------------------------------------------------
# observability integration
# ---------------------------------------------------------------------------


class TestServerObservability:
    def test_request_metrics_and_shed_counters(self, tmp_path):
        obs.enable()
        app = make_app(tmp_path, max_measure=1, max_queue=0, per_dataset=1)
        with serve_in_thread(app) as srv:
            s, _, _ = post(srv.port, {
                "dataset": "adult", "queries": [{"marginal": ["age"]}],
                "eps": 0.5, "seed": 1,
            })
            assert s == 200
            s, _, _ = post(srv.port, {
                "dataset": "adult", "queries": [{"marginal": ["age"]}],
            })
            assert s == 200
            s, _, b = post(srv.port, {
                "dataset": "nope", "queries": [{"total": True}],
            })
            assert s == 404
        snap = obs.snapshot()
        series = {
            (tuple(sorted(s["labels"].items())), s["value"])
            for s in snap["server.requests_total"]["series"]
        }
        by_labels = dict(series)
        assert by_labels[(("route", "direct"), ("status", "200"))] == 1
        assert by_labels[(("route", "accelerator"), ("status", "200"))] == 1
        assert by_labels[(("route", "none"), ("status", "404"))] == 1
        assert snap["server.request_ms"]["series"][0]["count"] == 3
        inflight = snap["server.inflight"]["series"][0]["value"]
        assert inflight == 0  # gauge returns to zero after the turn
        assert "server.breaker_state" in snap

    def test_matvec_hit_reports_accelerator_on_the_wire(
        self, tmp_path, monkeypatch
    ):
        """A free hit evaluated by matvec (no box decomposition) carries
        route "accelerator" in its answer and in the request label."""
        obs.enable()
        app = make_app(tmp_path)
        query = {"dataset": "adult", "queries": [{"marginal": ["age"]}]}
        status, _, _ = asyncio.run(
            app.handle_query({**query, "eps": 0.5, "seed": 1})
        )
        assert status == 200
        # No query decomposes into boxes: every hit is served by matvec.
        monkeypatch.setattr(engine_mod, "range_spec_of", lambda Q: None)
        status, _, body = asyncio.run(app.handle_query(query))
        assert status == 200 and body["charged"] == 0.0
        assert [a["route"] for a in body["answers"]] == ["accelerator"]
        assert app.session.service._datasets["adult"].accel == {}
        routes = {
            s["labels"]["route"]
            for s in obs.snapshot()["server.requests_total"]["series"]
        }
        assert routes == {"direct", "accelerator"}

    def test_shed_total_by_reason(self, tmp_path):
        obs.enable()
        app = make_app(tmp_path, max_measure=1, max_queue=0, per_dataset=1)
        inj = FaultInjector().delay("engine.measure.noise", 0.4)
        with serve_in_thread(app) as srv:
            with inj.active():
                result = {}

                def slow():
                    result["r"] = post(srv.port, {
                        "dataset": "adult", "queries": [{"marginal": ["age"]}],
                        "eps": 0.5, "seed": 1, "timeout": 5.0,
                    })

                t = threading.Thread(target=slow)
                t.start()
                time.sleep(0.15)
                s, _, _ = post(srv.port, {
                    "dataset": "adult", "queries": [{"prefix": "age"}],
                    "eps": 0.2,
                })
                assert s == 429
                t.join(10)
        snap = obs.snapshot()
        reasons = {
            s["labels"]["reason"]: s["value"]
            for s in snap["server.shed_total"]["series"]
        }
        assert reasons == {"dataset_concurrency": 1}

    def test_server_request_span_parents_session_ask(self, tmp_path):
        obs.enable()
        app = make_app(tmp_path)
        with serve_in_thread(app) as srv:
            s, _, body = post(srv.port, {
                "dataset": "adult", "queries": [{"marginal": ["age"]}],
                "eps": 0.5, "seed": 1,
            })
            assert s == 200
            # The free path roots its own server.request span too.
            s, _, free_body = post(srv.port, {
                "dataset": "adult", "queries": [{"marginal": ["age"]}],
            })
            assert s == 200
        trace = obs.get_trace(body["trace_id"])
        assert trace is not None
        by_name = {sp.name: sp for sp in trace}
        root = by_name["server.request"]
        assert root.parent_id is None
        assert root.attrs["route"] == "measured"
        ask = by_name["session.ask"]
        assert ask.parent_id == root.span_id
        trace = obs.get_trace(free_body["trace_id"])
        by_name = {sp.name: sp for sp in trace}
        assert by_name["server.request"].attrs["route"] == "free"
        assert by_name["session.ask"].parent_id == by_name["server.request"].span_id

    def test_metrics_endpoint_renders_prometheus_text(self, tmp_path):
        obs.enable()
        app = make_app(tmp_path)
        with serve_in_thread(app) as srv:
            s, _, _ = post(srv.port, {
                "dataset": "adult", "queries": [{"total": True}],
                "eps": 0.1, "seed": 1,
            })
            assert s == 200
            s, raw = get(srv.port, "/metrics")
        assert s == 200
        text = raw.decode()
        assert "server_requests_total" in text
        assert "server_breaker_state" in text
