"""Tests of the benchmark's own arithmetic: self times, attribution, the
tail rule, and seeded generation.  No program under test is needed."""

import contextvars
import threading

import pytest

import pb_gen
import pb_layers
import pb_stats
import pb_trace


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_nested_spans_across_two_threads():
    clock = FakeClock()
    tr = pb_trace.Tracer(clock=clock)

    root, root_tok = tr.start("root")  # [0, 10] on the main thread
    clock.now = 1.0
    a, a_tok = tr.start("a")  # [1, 3], child of root, same thread

    def other_thread(events):
        # Runs in a copy of the submitting context: its span's parent is
        # root, although it lives on another thread.
        clock.now = 2.0
        b, b_tok = tr.start("b")
        events.append(b)
        clock.now = 5.0
        tr.finish(b, b_tok)

    clock.now = 3.0
    tr.finish(a, a_tok)
    ctx = contextvars.copy_context()  # root is the current span again
    events = []
    t = threading.Thread(target=ctx.run, args=(other_thread, events))
    t.start()
    t.join(10)
    assert not t.is_alive()
    assert events[0].parent is root

    # A span on a thread that did not inherit a context is a root span.
    def detached():
        clock.now = 6.0
        c, c_tok = tr.start("c")
        clock.now = 8.0
        tr.finish(c, c_tok)

    t = threading.Thread(target=detached)
    t.start()
    t.join(10)
    assert not t.is_alive()

    clock.now = 10.0
    tr.finish(root, root_tok)
    totals = tr.reset()
    # root's children a [1,3] and b [2,5] overlap: they cover [1,5].
    assert totals.self_s == {"a": 2.0, "b": 3.0, "c": 2.0, "root": 6.0}
    assert totals.wall_s["root"] == 10.0
    assert totals.calls == {"a": 1, "b": 1, "c": 1, "root": 1}


def test_covered_merges_and_clips():
    assert pb_trace.covered([], 0, 10) == 0.0
    assert pb_trace.covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5.0
    assert pb_trace.covered([(-5, 2), (9, 20)], 0, 10) == 3.0


def test_capture_returns_totals_and_covers_for_the_parent():
    clock = FakeClock()
    tr = pb_trace.Tracer(clock=clock)

    def task(x):
        clock.now += 1.0
        sp, tok = tr.start("work")
        clock.now += 2.0
        tr.finish(sp, tok, {"rows": x})
        return x * 2

    parent, tok = tr.start("submit")
    out, summary = tr.capture(task, 7)
    assert out == 14
    assert summary["totals"]["self_s"] == {"work": 2.0}
    assert summary["covers"] == [(1.0, 3.0)]
    # Captured spans did not land in the submitter's totals...
    assert "work" not in tr.totals.calls
    # ...until absorbed, which also marks their time as covered.
    tr.absorb(summary, parent)
    clock.now = 4.0
    tr.finish(parent, tok)
    totals = tr.reset()
    assert totals.self_s == {"work": 2.0, "submit": 2.0}
    assert totals.extra == {"work:rows": 7}


def test_timed_wrapper_counts_errors_and_extracts():
    tr = pb_trace.Tracer()

    def f(x):
        if x < 0:
            raise ValueError(x)
        return [x] * x

    g = pb_trace.timed(tr, f, "layer.f", lambda out: {"len": len(out)})
    assert g(3) == [3, 3, 3]
    with pytest.raises(ValueError):
        g(-1)
    totals = tr.reset()
    assert totals.calls["layer.f"] == 2
    assert totals.extra == {"layer.f:len": 3, "layer.f:err.ValueError": 1}


def test_unattributed_closes_the_sum():
    totals = pb_trace.LayerTotals()
    totals.add("server.app.handle", 0.2, 0.5)  # 0.5 s wall, 0.2 s self
    totals.add("api.session.ask_many", 0.1, 0.3)
    totals.add("service.accelerator.answer", 0.15, 0.15)
    ops = 100
    m = pb_layers.layer_metrics(totals, ops=ops, e2e_ms=9.0, untraced_e2e_ms=8.0,
                                late_ms=0.5)
    # handle wall per op = 5 ms; http = e2e - late - handle wall.
    assert m["server.http.ms"] == pytest.approx(9.0 - 0.5 - 5.0)
    assert m["server.app.handle_self_ms"] == pytest.approx(2.0)
    assert m["trace.overhead_ms"] == pytest.approx(1.0)
    parts = sum(m[k] for k in pb_layers.E2E_PARTS)
    assert parts == pytest.approx(m["trace.e2e_ms"])
    expected = 9.0 - (0.5 + 3.5 + 2.0 + 1.0 + 1.5)
    assert m["unattributed_ms"] == pytest.approx(expected)
    assert set(m) == set(pb_layers.UNITS)


def test_route_shares_and_hit_ratios():
    totals = pb_trace.LayerTotals()
    totals.bump("service.engine.answer:route.accelerator", 3)
    totals.bump("service.engine.answer:route.warm", 1)
    totals.bump("api.session.compile:calls", 10)
    totals.add("api.planner.compile_expr", 0.0, 0.0, calls=4)
    m = pb_layers.layer_metrics(totals, ops=1, e2e_ms=1.0, untraced_e2e_ms=1.0)
    assert m["service.engine.route_share.accelerator"] == 0.75
    assert m["service.engine.route_share.warm"] == 0.25
    assert m["service.engine.route_share.cold"] == 0.0
    assert m["api.planner.compile_hit_ratio"] == 0.6
    assert m["server.app.expr_cache_hit_ratio"] == 0.0  # no lookups


def test_tail_rule_needs_ten_samples_beyond():
    assert pb_stats.samples_beyond(1000, 99.0) == 10
    assert pb_stats.samples_beyond(999, 99.0) == 9
    p, value, beyond = pb_stats.tail(list(range(1000)))
    assert (p, beyond) == (99.0, 10)
    assert value == pytest.approx(pb_stats.percentile(range(1000), 99.0))
    # 999 samples leave only 9 beyond p99: the rule falls back to p95.
    assert pb_stats.tail(list(range(999)))[0] == 95.0
    assert pb_stats.tail(list(range(20))) is None
    assert pb_stats.tail_at(list(range(100)), 90.0) == (pytest.approx(89.1), 10)
    assert pb_stats.tail_at(list(range(99)), 90.0) is None


def test_percentile():
    assert pb_stats.percentile([4, 1, 3, 2], 50) == 2.5
    assert pb_stats.percentile([1, 2, 3], 100) == 3


def test_read_stream_repeats_exactly_for_a_seed():
    a = pb_gen.ReadStream(5)
    b = pb_gen.ReadStream(5)
    first = [a.next() for _ in range(500)]
    assert first == [b.next() for _ in range(500)]
    assert first != [pb_gen.ReadStream(6).next() for _ in range(500)]
    # The hot head repeats; the tail keeps producing new requests.
    assert 50 < len(set(first)) < 500


def test_open_loop_schedule_repeats_exactly_and_never_reuses_a_tenant():
    def make():
        scheds, plan = pb_gen.open_loop(3, [1.0, 5.0])
        return [[(x.t, x.kind, x.body) for x in s] for s in scheds], plan.used

    one, used = make()
    assert make() == (one, used)
    writes = [body for s in one for _, kind, body in s if kind == "write"]
    tenants = [pb_gen.json.loads(b)["dataset"] for b in writes]
    assert len(tenants) == len(set(tenants)) == used["laplace"] + used["gaussian"]
    for s in one:
        times = [t for t, _, _ in s]
        assert times == sorted(times)
    # Poisson arrivals at the offered rate, roughly.
    assert 0.6 * 5 * pb_gen.OFFERED_RATE < len(one[1]) < 1.5 * 5 * pb_gen.OFFERED_RATE


def test_windows_rescale_by_the_speed_measured_around_them():
    import run

    # cold_fit / eps_sweep: calibration kernel timed before and after
    # each window; a window run at half speed reads as the reference.
    ref = run.CAL_REF_MS
    part = {"windows": [[10.0, 20.0], [40.0]], "cal_ms": [ref, ref, 3 * ref]}
    assert run.rescaled(part) == [10.0, 20.0, 20.0]
    # serve_read: the reference server's median read, likewise.
    r = run.REF_READ_MS
    part = {"read_windows": [[1.0], [2.0, 4.0]], "ref_ms": [r, r, 3 * r]}
    assert run.referenced(part) == [1.0, 1.0, 2.0]
    with pytest.raises(RuntimeError):
        run.referenced({"read_windows": [[1.0]], "ref_ms": [r]})
