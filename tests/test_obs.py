"""Observability subsystem: metrics registry, tracing, ε-spend view.

Covers the PR 8 contracts:

* metrics — label correctness, kind safety, histogram bucketing,
  disabled no-ops, Prometheus rendering, and exact counts under the same
  threaded-stress shape the accountant survives;
* tracing — span nesting/parentage, trace IDs stamped on every route's
  answers with a resolvable span tree, the ring bound, and the
  checksummed JSONL sink;
* spend — the read-only WAL replay must reproduce
  ``PrivacyAccountant.recover``'s per-dataset totals bit-for-bit
  (including under a torn tail), through ``replay``/the CLI/
  ``Session.budget_report()``;
* the benchmark scenario rides tier-1 in quick mode.
"""

import json
import os
import threading

import numpy as np
import pytest

import repro.obs as obs
from repro.api import A, Schema, Session, marginal, prefix, total
from repro.linalg import Dense, Identity, Kronecker, Ones
from repro.obs.metrics import MetricsRegistry, NULL_METRIC
from repro.obs.spend import main as spend_main, replay
from repro.obs.trace import Tracer, read_trace_log
from repro.service import (
    PrivacyAccountant,
    QueryService,
    StrategyRegistry,
)
from repro.service import engine as engine_mod
from repro.service.engine import Reconstruction


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with observability off and empty."""
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


def make_session(tmp_path, cap=100.0, wal=False, **kwargs):
    acct = PrivacyAccountant(
        default_cap=cap,
        wal_path=str(tmp_path / "eps.wal") if wal else None,
    )
    return Session(
        registry=StrategyRegistry(str(tmp_path / "reg")),
        accountant=acct,
        restarts=1,
        rng=0,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# metrics


class TestMetrics:
    def test_disabled_registry_returns_null_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a="b") is NULL_METRIC
        assert reg.gauge("y") is NULL_METRIC
        assert reg.histogram("z") is NULL_METRIC
        NULL_METRIC.inc()
        NULL_METRIC.set(3.0)
        NULL_METRIC.observe(1.0)
        assert reg.snapshot() == {}

    def test_counter_labels_and_keyword_order(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("hits", dataset="d", route="accelerator").inc()
        # Same label set, different keyword order: same child.
        reg.counter("hits", route="accelerator", dataset="d").inc(2.0)
        reg.counter("hits", dataset="d", route="cold").inc()
        snap = reg.snapshot()["hits"]
        assert snap["type"] == "counter"
        by_labels = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in snap["series"]
        }
        assert by_labels[(("dataset", "d"), ("route", "accelerator"))] == 3.0
        assert by_labels[(("dataset", "d"), ("route", "cold"))] == 1.0

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("m").inc()
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("m")

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry(enabled=True)
        g = reg.gauge("depth", q="a")
        g.set(3.0)
        g.set(1.5)
        assert reg.snapshot()["depth"]["series"][0]["value"] == 1.5

    def test_histogram_bucketing(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("lat", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 5.0, 50.0, 500.0):
            h.observe(v)
        s = reg.snapshot()["lat"]["series"][0]
        assert s["edges"] == [1.0, 10.0, 100.0]
        assert s["buckets"] == [1, 2, 1, 1]  # last = overflow (+Inf)
        assert s["count"] == 5 and s["sum"] == pytest.approx(560.5)
        with pytest.raises(ValueError, match="ascending"):
            reg.histogram("bad", buckets=(5.0, 1.0))

    def test_render_text_prometheus_format(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("service.answers_total", dataset='d"x', route="accelerator").inc()
        reg.histogram("t.ms", buckets=(1.0, 2.0)).observe(1.5)
        text = reg.render_text()
        assert "# TYPE service_answers_total counter" in text
        # Escaped label value, sanitized metric name.
        assert 'service_answers_total{dataset="d\\"x",route="accelerator"} 1' in text
        # Cumulative buckets with the +Inf terminal and _sum/_count.
        assert 't_ms_bucket{le="1"} 0' in text
        assert 't_ms_bucket{le="2"} 1' in text
        assert 't_ms_bucket{le="+Inf"} 1' in text
        assert "t_ms_sum 1.5" in text and "t_ms_count 1" in text

    def test_threaded_counts_are_exact(self):
        reg = MetricsRegistry(enabled=True)
        n_threads, per_thread = 8, 400
        barrier = threading.Barrier(n_threads)

        def worker(t):
            barrier.wait()
            for i in range(per_thread):
                reg.counter("c", thread="shared").inc()
                reg.histogram("h", buckets=(10.0,)).observe(float(i % 3))

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(n_threads)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        snap = reg.snapshot()
        assert snap["c"]["series"][0]["value"] == n_threads * per_thread
        assert snap["h"]["series"][0]["count"] == n_threads * per_thread


# ---------------------------------------------------------------------------
# tracing


class TestTracing:
    def test_disabled_tracer_yields_none_and_records_nothing(self):
        tr = Tracer()
        with tr.span("a") as sp:
            assert sp is None
            assert tr.current_trace_id() is None
        assert tr.trace_ids() == []

    def test_span_nesting_and_parentage(self):
        tr = Tracer(enabled=True)
        with tr.span("root", q=3) as root:
            tid = tr.current_trace_id()
            with tr.span("child1") as c1:
                assert c1.parent_id == root.span_id
            with tr.span("child2") as c2:
                with tr.span("grandchild") as g:
                    assert g.parent_id == c2.span_id
        spans = tr.get_trace(tid)
        assert [s.name for s in spans] == [
            "child1", "grandchild", "child2", "root",
        ]
        assert all(s.trace_id == tid for s in spans)
        assert spans[-1].parent_id is None
        assert spans[-1].attrs == {"q": 3}
        assert all(s.duration_ms >= 0.0 for s in spans)
        # The trace is finished: no in-flight context remains.
        assert tr.current_trace_id() is None

    def test_error_annotation(self):
        tr = Tracer(enabled=True)
        with pytest.raises(RuntimeError):
            with tr.span("boom"):
                tid = tr.current_trace_id()
                raise RuntimeError("nope")
        (sp,) = tr.get_trace(tid)
        assert sp.error == "RuntimeError: nope"

    def test_ring_evicts_oldest(self):
        tr = Tracer(enabled=True, ring_size=3)
        ids = []
        for i in range(5):
            with tr.span(f"s{i}"):
                ids.append(tr.current_trace_id())
        assert tr.trace_ids() == ids[2:]
        assert tr.get_trace(ids[0]) is None

    def test_jsonl_sink_roundtrip(self, tmp_path):
        path = str(tmp_path / "traces.jsonl")
        tr = Tracer(enabled=True)
        from repro.obs.trace import JsonlTraceSink

        tr.sink = JsonlTraceSink(path)
        with tr.span("outer", dataset="d"):
            with tr.span("inner"):
                pass
        records = read_trace_log(path)  # crc-verifies every line
        assert [r["kind"] for r in records] == ["trace", "span", "span"]
        assert records[0]["spans"] == 2
        names = {r["name"] for r in records[1:]}
        assert names == {"outer", "inner"}
        # Corruption is detected, exactly like a ledger tail.
        from repro.util.jsonl import TornRecordError

        with open(path, "ab") as f:
            f.write(b'{"kind":"span","name":"x"}\n')
        with pytest.raises(TornRecordError):
            read_trace_log(path)


# ---------------------------------------------------------------------------
# route coverage: every serving route yields a trace + correct labels


def _route_counts(dataset):
    series = obs.snapshot().get("service.answers_total", {}).get("series", [])
    return {
        s["labels"]["route"]: s["value"]
        for s in series
        if s["labels"]["dataset"] == dataset
    }


class TestRouteTraces:
    def _assert_traced(self, answers, *, route):
        for a in answers:
            assert a.route == route
            assert a.trace_id is not None
            spans = obs.get_trace(a.trace_id)
            assert spans is not None
            names = [s.name for s in spans]
            assert names[-1] == "session.ask"
            assert "service.answer" in names and "serve.hits" in names
        return spans

    def test_direct_route(self, tmp_path):
        obs.enable()
        sess = make_session(tmp_path)
        ds = sess.dataset("d", schema=small_schema(), data=poisson_data(small_schema()))
        ans = ds.ask_many([total()], eps=0.5, rng=1)
        spans = self._assert_traced(ans, route="direct")
        names = [s.name for s in spans]
        for expected in ("plan.route", "serve.measure", "accountant.charge"):
            assert expected in names, expected
        assert _route_counts("d") == {"direct": 1.0}

    def test_direct_miss_counts_as_a_measurement(self, tmp_path):
        """A direct miss debits ε like any measurement, so it records a
        ``service.measure`` span and a ``service.measures_total`` count."""
        obs.enable()
        sess = make_session(tmp_path)
        ds = sess.dataset("d", schema=small_schema(), data=poisson_data(small_schema()))
        ans = ds.ask_many([total()], eps=1.0, rng=1)
        assert ans[0].route == "direct" and ans[0].epsilon == 1.0
        names = [s_.name for s_ in obs.get_trace(ans[0].trace_id)]
        assert "service.measure" in names
        assert names.index("accountant.charge") < names.index("service.measure")
        series = obs.snapshot()["service.measures_total"]["series"]
        assert [(s_["labels"], s_["value"]) for s_ in series] == [
            ({"dataset": "d"}, 1.0)
        ]

    def test_cold_then_accelerator_and_cache(self, tmp_path, monkeypatch):
        obs.enable()
        sess = make_session(tmp_path)
        monkeypatch.setattr(engine_mod, "DIRECT_MISS_ROWS", 0)  # fit every miss
        # age is wide enough that an every-other-value selection exceeds
        # the accelerator's per-row run limit (a hit served by matvec).
        s = Schema.from_spec({"age": 40, "sex": ["M", "F"]})
        ds = sess.dataset("d", schema=s, data=poisson_data(s))
        cold = ds.ask_many([marginal("age"), marginal("sex")], eps=1.0, rng=2)
        spans = self._assert_traced(cold, route="cold")
        names = [s_.name for s_ in spans]
        # The cold path runs SELECT + the accounted measurement inside
        # the same trace.
        for expected in (
            "plan.route",
            "serve.measure",
            "service.measure",
            "select.prepare",
            "select.fit",
            "accountant.charge",
            "measure.run_batch",
        ):
            assert expected in names, expected
        # Box-decomposable hit → gather; a scattered selection has too
        # many runs for a gather and is served by matvec.  Both are free
        # hits on route "accelerator", and both time their hit stage.
        hit = ds.ask_many([marginal("age")], eps=None)
        self._assert_traced(hit, route="accelerator")
        wq = ds.ask_many([A("age").isin(list(range(0, 40, 2)))])
        self._assert_traced(wq, route="accelerator")
        counts = _route_counts("d")
        assert counts == {"cold": 2.0, "accelerator": 2.0}
        gather = obs.snapshot()["accelerator.gather_ms"]["series"]
        assert sum(s_["count"] for s_ in gather) == 2
        # Free hits also land per-support counters under the serving key.
        support = obs.snapshot()["service.support_hits"]["series"]
        assert sum(s_["value"] for s_ in support) == 2.0

    def test_warm_route(self, tmp_path, monkeypatch):
        obs.enable()
        s = small_schema()
        sess = make_session(tmp_path)
        svc = sess.service
        monkeypatch.setattr(engine_mod, "DIRECT_MISS_ROWS", 0)
        ds = sess.dataset("d", schema=s, data=poisson_data(s))
        # Prepare the exact miss union first: the second ask routes warm.
        exprs = [prefix("age")]
        batch = ds.compile_many(exprs)
        svc.prepare(batch.to_workload_matrix())
        ans = ds.ask_many(exprs, eps=0.8, rng=3)
        self._assert_traced(ans, route="warm")
        assert _route_counts("d") == {"warm": 1.0}

    def test_single_query_hit_trace_and_gather_histogram(self):
        obs.enable()
        shape = (8, 4)
        n = 32
        svc = QueryService()
        svc.add_dataset("d", np.arange(n, dtype=float))
        svc._datasets["d"].reconstructions["k"] = Reconstruction(
            key="k",
            strategy=Kronecker([Identity(s) for s in shape]),
            x_hat=np.arange(n, dtype=float),
            eps=1.0,
        )
        row = np.zeros(shape[0])
        row[1:3] = 1.0
        q = Kronecker([Dense(row[None, :]), Ones(1, shape[1])])
        qa = svc.query("d", q)
        assert qa.route == "accelerator" and qa.trace_id is not None
        names = [s.name for s in obs.get_trace(qa.trace_id)]
        assert names == ["serve.hits", "service.answer"]
        h = obs.snapshot()["accelerator.gather_ms"]["series"][0]
        assert h["count"] == 1
        assert _route_counts("d") == {"accelerator": 1.0}

    def test_free_read_observes_gather_once_per_batch(self, tmp_path):
        sess = make_session(tmp_path)
        s = small_schema()
        ds = sess.dataset("d", schema=s, data=poisson_data(s))
        ds.ask_many([marginal("age", "sex")], eps=0.5, rng=1)
        obs.enable(trace=False)
        ans = ds.ask_many([marginal("age"), prefix("age"), total()])
        assert {a.route for a in ans} == {"accelerator"}
        h = obs.snapshot()["accelerator.gather_ms"]["series"][0]
        assert h["count"] == 1
        assert _route_counts("d") == {"accelerator": 3.0}

    def test_trace_disabled_stamps_nothing(self, tmp_path):
        s = small_schema()
        sess = make_session(tmp_path)
        ds = sess.dataset("d", schema=s, data=poisson_data(s))
        ans = ds.ask_many([total()], eps=0.5, rng=1)
        assert ans[0].trace_id is None
        assert obs.snapshot() == {}

    def test_answers_bit_identical_with_obs_enabled(self, tmp_path):
        """Instrumentation must not perturb served values: the same seeds
        produce the same bits with observability on and off."""
        s = small_schema()
        x = poisson_data(s)
        sess_off = make_session(tmp_path / "off")
        a_off = sess_off.dataset("d", schema=s, data=x).ask_many(
            [marginal("age"), total()], eps=0.7, rng=11
        )
        obs.enable()
        sess_on = make_session(tmp_path / "on")
        a_on = sess_on.dataset("d", schema=s, data=x).ask_many(
            [marginal("age"), total()], eps=0.7, rng=11
        )
        for off, on in zip(a_off, a_on):
            assert np.array_equal(off.values, on.values)
            assert off.route == on.route


# ---------------------------------------------------------------------------
# ε-spend view


class TestSpendView:
    def _spend_traffic(self, acct):
        acct.register("a", 5.0)
        acct.register("b", 2.0)
        for i in range(7):
            acct.charge("a", 0.1 * (i + 1), stage=f"s{i}")
        acct.charge_parallel("b", [0.3, 0.7], stage="par")

    def test_replay_matches_recover_bit_for_bit(self, tmp_path):
        p = str(tmp_path / "eps.wal")
        acct = PrivacyAccountant(wal_path=p)
        self._spend_traffic(acct)

        report = replay(p)
        recovered = PrivacyAccountant.recover(p)
        for name in ("a", "b"):
            assert report.spent(name) == recovered.spent(name)  # bit-equal
            assert report.datasets[name].cap == recovered.cap(name)
            assert report.datasets[name].remaining == recovered.remaining(name)
        assert report.datasets["a"].debits == 7
        assert report.datasets["b"].last_stage == "par"
        assert not report.torn
        # The timeline's running totals end at the final spend.
        cum = {}
        for ev in report.timeline:
            cum[ev.dataset] = ev.cumulative
        assert cum == {"a": recovered.spent("a"), "b": recovered.spent("b")}

    def test_replay_is_read_only_and_torn_aware(self, tmp_path):
        p = str(tmp_path / "eps.wal")
        acct = PrivacyAccountant(wal_path=p)
        self._spend_traffic(acct)
        with open(p, "ab") as f:
            f.write(b'{"kind":"debit","dataset":"a","epsilon":9')
        size_before = os.path.getsize(p)
        report = replay(p)
        assert report.torn
        assert os.path.getsize(p) == size_before  # no truncation happened
        # recover() truncates — and agrees with the replay's totals.
        recovered = PrivacyAccountant.recover(p)
        assert report.spent("a") == recovered.spent("a")
        assert os.path.getsize(p) < size_before

    def test_cli_renders_and_reports_missing_file(self, tmp_path, capsys):
        p = str(tmp_path / "eps.wal")
        acct = PrivacyAccountant(wal_path=p)
        self._spend_traffic(acct)
        assert spend_main([p]) == 0
        out = capsys.readouterr().out
        assert "ε-spend report" in out and "a" in out and "5" in out
        assert spend_main([p, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["datasets"]["a"]["spent"] == acct.spent("a")
        assert len(payload["timeline"]) == 8
        assert spend_main([str(tmp_path / "missing.wal")]) == 2
        assert "no ledger file" in capsys.readouterr().err
        # The accountant rejects these default caps, so the CLI does too.
        for bad in ("-1", "0", "nan", "inf"):
            assert spend_main([p, "--default-cap", bad]) == 2
            captured = capsys.readouterr()
            assert "default_cap" in captured.err and not captured.out

    def test_session_budget_report(self, tmp_path):
        sess = make_session(tmp_path, wal=True)
        s = small_schema()
        ds = sess.dataset("d", schema=s, data=poisson_data(s), epsilon_cap=3.0)
        ds.ask_many([total()], eps=0.5, rng=1)
        report = sess.budget_report()
        acct = sess.service.accountant
        assert report.spent("d") == acct.spent("d")
        assert report.datasets["d"].cap == 3.0
        assert report.datasets["d"].remaining == acct.remaining("d")
        text = report.render()
        assert "d" in text and "remaining" in text
        # And the CLI view over the same WAL agrees exactly.
        assert replay(acct.wal_path).spent("d") == acct.spent("d")

    def test_budget_report_without_accountant_raises(self):
        sess = Session()
        with pytest.raises(ValueError, match="no accountant"):
            sess.budget_report()

    def test_report_from_memory_accountant(self):
        acct = PrivacyAccountant()
        self._spend_traffic(acct)
        from repro.obs.spend import report_from_accountant

        report = report_from_accountant(acct)
        assert report.spent("a") == acct.spent("a")
        assert report.source == "<memory>"


# ---------------------------------------------------------------------------
# structured events


class TestEvents:
    def test_emit_logs_and_counts(self, caplog):
        import logging

        obs.enable()
        from repro.obs.events import emit

        logger = logging.getLogger("repro.test.events")
        with caplog.at_level(logging.WARNING, logger="repro.test.events"):
            emit(logger, "registry.table_quarantined", key="k", reason="crc")
        assert len(caplog.records) == 1
        msg = caplog.records[0].getMessage()
        assert msg.startswith("registry.table_quarantined ")
        assert json.loads(msg.split(" ", 1)[1]) == {
            "key": "k", "reason": "crc",
        }
        events = obs.snapshot()["obs.events_total"]["series"]
        assert events[0]["labels"] == {
            "event": "registry.table_quarantined"
        }
        assert events[0]["value"] == 1.0


# ---------------------------------------------------------------------------
# benchmark scenario rides tier-1


def test_bench_observability_scenario_quick():
    """Quick-mode benchmark run on tier-1: the disabled-path tax must be
    within bounds on the committed record, and live traces/counters must
    be structurally complete at smoke size."""
    import sys

    bench_dir = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")
    sys.path.insert(0, bench_dir)
    try:
        from bench_perf_regression import bench_observability
    finally:
        sys.path.remove(bench_dir)
    ob = bench_observability(shape=(16, 16), batch=8, rounds=3)
    assert ob["trace_complete"]
    assert ob["answers_counter_correct"]
    # Live smoke bound is generous (tiny batches amplify timer noise);
    # the strict < 3% figure is asserted on the committed full-size run.
    assert ob["overhead_disabled_pct"] < 25.0

    with open(os.path.join(bench_dir, os.pardir, "BENCH_PERF.json")) as f:
        recorded = json.load(f)
    rec = recorded["observability"]
    assert rec["overhead_disabled_pct"] < 3.0
    assert rec["trace_complete"] and rec["answers_counter_correct"]
