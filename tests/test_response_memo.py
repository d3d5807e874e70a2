"""The server's per-shape table: stored free responses and what it retains.

A repeated free read is served from the encoded body stored for its
request shape while the dataset's reconstruction generation and its
remaining budget are unchanged.  These tests pin down that the stored
bytes always equal a fresh computation, whatever writes — direct, warm
or cold measurements, or a debit made through another accountant on the
same WAL — land between reads; that tracing bypasses the table while
metrics count its hits; and that a request shape retains its compiled
queries only while the table holds it.
"""

import asyncio
import gc
import hashlib
import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.api import A, Schema, Session, marginal, prefix
from repro.api.planner import CompiledQuery
from repro.linalg import Selection
from repro.server import app as app_module
from repro.server.app import MAX_SHAPES, ServerApp, parse_query_spec
from repro.server.errors import encode_body
from repro.service import PrivacyAccountant
from repro.service.engine import MissRoute, QueryMiss, joint_support


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


SCHEMA = {"a": 8, "b": 4, "c": ["x", "y"]}  # 64 cells

READ_POOL = (
    [{"count": [{"attr": "a", "between": [1, 5]}, {"attr": "c", "eq": "y"}]}],
    [{"count": [{"attr": "b", "eq": 2}]}],
    [{"marginal": ["a"]}],
    [{"total": True}],
    [{"prefix": "a"}],
    [{"marginal": ["b", "c"]}, {"count": [{"attr": "a", "eq": 3}]}],
)

#: What the direct writes measure: two of the read pool's counts (a new
#: reconstruction that then serves them) and the up-front write's
#: marginal (same key: replaced when the new ε is at least the old).
DIRECT_POOL = (
    A("a").between(1, 5) & A("c").eq("y"),
    A("b").eq(2),
    marginal("a", "b"),
)

#: Workloads the fitted writes measure: cold the first time, warm after.
FITTED_POOL = (marginal("b", "c"), prefix("a"))


def run(coro):
    return asyncio.run(coro)


def make_app(tmp_path, accountant: bool):
    wal = str(tmp_path / "eps.wal")
    acct = PrivacyAccountant(wal_path=wal) if accountant else None
    sess = Session(accountant=acct, restarts=1, rng=0)
    app = ServerApp(sess)
    schema = Schema.from_spec(SCHEMA)
    x = np.random.default_rng(3).poisson(9, schema.domain.shape()).astype(float)
    app.register("d", schema, x, epsilon_cap=1e6 if accountant else None)
    return app, wal


def direct_write(app, expr, eps, seed):
    """Measure ``expr``'s support directly, whatever its row count: a
    store (and, with an accountant, a debit) under a support-derived
    key."""
    Q = expr.compile(app.session.dataset("d").schema)
    n = Q.shape[1]
    cols = np.flatnonzero(joint_support([Q], n))
    key = f"direct:{hashlib.sha256(cols.tobytes()).hexdigest()[:16]}"
    app.session.service._measure_impl(
        "d", Q, eps, rng=seed, stage="t",
        route=MissRoute("direct", key, Selection(cols, n), None),
    )


def read(app, specs):
    status, _, body = run(
        app.handle("POST", "/query", {"dataset": "d", "queries": specs})
    )
    return status, body


def fresh_body(app, specs) -> bytes | None:
    """The free body of ``specs`` computed from new expressions, outside
    the per-shape table; ``None`` when the read misses."""
    ds = app.session.dataset("d")
    try:
        answers = ds.ask_many([parse_query_spec(s) for s in specs], eps=None)
    except QueryMiss:
        return None
    return encode_body(app._body("d", answers, degraded=False))


OPS = st.one_of(
    st.tuples(st.just("read"), st.integers(0, len(READ_POOL) - 1)),
    st.tuples(
        st.just("direct"),
        st.integers(0, len(DIRECT_POOL) - 1),
        st.sampled_from([0.5, 1.0, 2.0]),
    ),
    st.tuples(
        st.just("fitted"),
        st.integers(0, len(FITTED_POOL) - 1),
        st.sampled_from([0.5, 1.0, 2.0]),
    ),
    st.tuples(st.just("foreign_debit"), st.sampled_from([0.125, 0.25])),
)


def check_read(app, specs):
    expected = fresh_body(app, specs)
    status, body = read(app, specs)
    if expected is None:
        assert status == 400 and json.loads(body)["code"] == "bad_request"
    else:
        assert status == 200
        assert body == expected


@settings(derandomize=True, deadline=None, max_examples=30)
@given(accountant=st.booleans(), ops=st.lists(OPS, min_size=2, max_size=12))
def test_served_free_bytes_equal_a_fresh_computation(tmp_path_factory, accountant, ops):
    """Every write is followed by a read of every pool shape, so a write
    that should have invalidated a stored body is caught by the next."""
    app, wal = make_app(tmp_path_factory.mktemp("memo"), accountant)
    schema = app.session.dataset("d").schema
    # One direct write up front, so early reads can already hit.
    direct_write(app, marginal("a", "b"), 1.0, 0)
    foreign = PrivacyAccountant(wal_path=wal) if accountant else None
    for step, op in enumerate(ops):
        kind = op[0]
        if kind == "read":
            check_read(app, READ_POOL[op[1]])
            continue
        if kind == "direct":
            direct_write(app, DIRECT_POOL[op[1]], op[2], step)
        elif kind == "fitted":
            W = FITTED_POOL[op[1]].compile(schema)
            app.session.service.measure("d", W, op[2], rng=step)
        elif foreign is not None:
            foreign.charge("d", op[1], stage="foreign")
        for specs in READ_POOL:
            check_read(app, specs)


def test_a_repeated_free_read_skips_the_engine(tmp_path, monkeypatch):
    app, _ = make_app(tmp_path, accountant=True)
    direct_write(app, marginal("a", "b"), 1.0, 0)
    specs = READ_POOL[0]
    calls = []
    dataset_cls = type(app.session.dataset("d"))
    ask_many = dataset_cls.ask_many
    monkeypatch.setattr(
        dataset_cls, "ask_many",
        lambda self, *a, **k: calls.append(1) or ask_many(self, *a, **k),
    )
    first = read(app, specs)
    second = read(app, specs)
    assert first == second and first[0] == 200
    assert len(calls) == 1
    # A write of the same dataset invalidates: the next read recomputes.
    direct_write(app, DIRECT_POOL[0], 4.0, 1)
    assert read(app, specs)[1] == fresh_body(app, specs)
    assert len(calls) == 3  # the read, then fresh_body's own ask_many


def test_a_store_without_a_debit_invalidates(tmp_path):
    """Without an accountant the generation is the only stamp: a better
    reconstruction under the same key must replace the stored body."""
    app, _ = make_app(tmp_path, accountant=False)
    direct_write(app, marginal("a", "b", "c"), 0.5, 0)
    specs = READ_POOL[2]
    before = read(app, specs)[1]
    assert read(app, specs)[1] == before
    direct_write(app, marginal("a", "b", "c"), 1.0, 1)
    after = read(app, specs)[1]
    assert after != before
    assert after == fresh_body(app, specs)


def test_large_bodies_are_not_stored(tmp_path, monkeypatch):
    app, _ = make_app(tmp_path, accountant=True)
    direct_write(app, marginal("a", "b"), 1.0, 0)
    small, large = READ_POOL[1], READ_POOL[2]
    limit = len(read(app, small)[1])
    monkeypatch.setattr(app_module, "FREE_BODY_MAX_BYTES", limit)
    assert len(read(app, large)[1]) > limit
    kinds = {json.loads(k[1])[0].popitem()[0]: s for k, s in app._exprs.items()}
    assert kinds["count"].free is not None
    assert kinds["marginal"].free is None


def test_stores_racing_reads_invalidate_the_stored_body(tmp_path):
    """Writers on other threads replace the reconstruction a read is
    served from while the reads run; once they are done, the served
    body must be the current one."""
    app, _ = make_app(tmp_path, accountant=False)
    direct_write(app, marginal("a", "b"), 1.0, 0)
    specs = READ_POOL[2]

    def writer(k):
        for i in range(25):  # same key, rising ε: every write replaces
            direct_write(app, marginal("a", "b"), 2.0 + 100 * k + i, 100 * k + i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        while any(t.is_alive() for t in threads):
            assert read(app, specs)[0] == 200
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert read(app, specs)[1] == fresh_body(app, specs)


def test_tracing_bypasses_the_table(tmp_path):
    app, _ = make_app(tmp_path, accountant=True)
    direct_write(app, marginal("a", "b"), 1.0, 0)
    obs.enable(metrics=False, trace=True)
    specs = READ_POOL[0]
    first = json.loads(read(app, specs)[1])
    second = json.loads(read(app, specs)[1])
    assert all(s.free is None for s in app._exprs.values())
    assert first.pop("trace_id") != second.pop("trace_id")
    assert first == second


def test_metrics_count_hits_as_the_memo_route(tmp_path):
    app, _ = make_app(tmp_path, accountant=True)
    direct_write(app, marginal("a", "b"), 1.0, 0)
    obs.enable(metrics=True, trace=False)
    specs = READ_POOL[0]
    bodies = [read(app, specs)[1] for _ in range(3)]
    assert bodies[0] == bodies[1] == bodies[2] == fresh_body(app, specs)
    computed = json.loads(bodies[0])["answers"][0]["route"]
    counts = {
        (s["labels"]["route"], s["labels"]["status"]): s["value"]
        for s in obs.snapshot()["server.requests_total"]["series"]
    }
    assert counts == {(computed, "200"): 1, ("memo", "200"): 2}


def test_a_request_shape_retains_its_compiled_queries_only_while_held(tmp_path):
    sess = Session(accountant=None, restarts=1, rng=0)
    app = ServerApp(sess)
    schema = Schema.from_spec({"a": 16, "b": 16})
    app.register("t", schema, np.arange(256.0))
    # The total's direct write measures every cell: all boxes read free.
    sess.dataset("t").ask_many([marginal()], eps=1.0, rng=0)
    boxes = [
        (lo, hi) for lo in range(16) for hi in range(lo, 16)
    ]
    gc.collect()
    before = sum(isinstance(o, CompiledQuery) for o in gc.get_objects())
    loop = asyncio.new_event_loop()
    try:
        for i in range(3 * MAX_SHAPES):
            a, b = boxes[i % len(boxes)], boxes[i // len(boxes)]
            payload = {"dataset": "t", "queries": [{"count": [
                {"attr": "a", "between": list(a)},
                {"attr": "b", "between": list(b)},
            ]}]}
            status, _, _ = loop.run_until_complete(
                app.handle("POST", "/query", payload)
            )
            assert status == 200
    finally:
        loop.close()
    gc.collect()
    alive = sum(isinstance(o, CompiledQuery) for o in gc.get_objects())
    assert alive - before <= MAX_SHAPES
    app._exprs.clear()
    gc.collect()
    assert sum(isinstance(o, CompiledQuery) for o in gc.get_objects()) == before
