"""The resilient HTTP front-end, exercised end to end from a client.

Starts the asyncio server (`repro.server`) on a background thread over a
WAL-backed session, then plays the request patterns the front-end is
built for:

1. a **measured** query (debits the ε-ledger, returns provenance and
   remaining budget over the wire),
2. the same query again — served **free** from the cached
   reconstruction through the accelerator route,
3. an **induced overload**: one slow measurement pins the single
   executor slot while a burst of measured requests arrives — the
   admission controller sheds the excess with structured 429/503 +
   ``Retry-After`` while free reads keep serving underneath,
4. a **degraded** request: budget exhausted → 403 with the exact
   remaining ε; covered queries still answer for free,
5. a **deadline** too tight for its work → 504 with zero ε spent,
6. graceful drain: in-flight work finishes its WAL append, then the
   server stops.

Run:  PYTHONPATH=src python examples/server_demo.py
"""

import http.client
import json
import threading
import time

import numpy as np

from repro.api import Schema, Session
from repro.server.app import ServerApp
from repro.server.http import serve_in_thread
from repro.service import PrivacyAccountant
from repro.util import faults


def post(port: int, payload: dict, timeout: float = 30.0):
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


def show(tag: str, status: int, body: dict) -> None:
    keys = (
        "charged", "remaining", "code", "reason", "degraded",
        "remaining_epsilon", "stage", "epsilon_spent",
    )
    brief = {k: body[k] for k in keys if k in body}
    if "answers" in body:
        brief["answers"] = [
            {"route": a["route"], "epsilon": a["epsilon"],
             "values": [round(v, 2) for v in a["values"][:4]] + ["..."]}
            for a in body["answers"]
        ]
    print(f"  [{tag}] HTTP {status} {json.dumps(brief)}")


def main() -> None:
    # 640 cells: every query below touches more than
    # DIRECT_MISS_SUPPORT_LIMIT (256) of them, so each miss takes a
    # strategy fit (route "cold") and the demo exercises the
    # breaker-guarded path; narrower misses would take the fit-free
    # direct route.
    schema = Schema.from_spec({"age": 40, "income": 8, "sex": ["M", "F"]})
    data = (
        np.random.default_rng(7).poisson(25, schema.domain.shape())
        .astype(float)
    )
    session = Session(accountant=PrivacyAccountant(default_cap=2.0))
    app = ServerApp(session, max_measure=1, max_queue=1, per_dataset=1)
    app.register("adult", schema, data, epsilon_cap=2.0)
    # One dataset per demonstration: a measured request only happens when
    # no cached reconstruction covers the query, and on a small domain a
    # single measurement covers nearly everything — fresh tenants keep
    # each scenario honest.  (The strategy fit is memoized per workload
    # fingerprint, so these all share the one fit.)
    for name in ("slow", "burst0", "burst1", "burst2", "fresh", "cold"):
        app.register(name, schema, data, epsilon_cap=2.0)

    with serve_in_thread(app) as srv:
        print(f"serving on 127.0.0.1:{srv.port}")

        print("\n1. measured query (cold fit + ε debit):")
        marginal_age = {"dataset": "adult", "queries": [{"marginal": ["age"]}]}
        s, _, b = post(srv.port, {**marginal_age, "eps": 0.5, "seed": 1,
                                  "timeout": 30.0})
        show("measured", s, b)

        print("\n2. same query again — free from the cached reconstruction:")
        s, _, b = post(srv.port, marginal_age)
        show("free", s, b)

        print("\n3. overload: slow measurement pins the one slot, burst sheds:")
        inj = faults.FaultInjector().delay("engine.measure.noise", 0.8, times=4)
        with inj.active():
            slow_result = {}

            def slow():
                slow_result["r"] = post(srv.port, {
                    "dataset": "slow", "queries": [{"marginal": ["age"]}],
                    "eps": 0.5, "seed": 2, "timeout": 10.0,
                })

            t = threading.Thread(target=slow)
            t.start()
            time.sleep(0.25)  # let it occupy the executor slot
            burst_results = [None] * 3

            def burst(i):
                burst_results[i] = post(srv.port, {
                    "dataset": f"burst{i}",
                    "queries": [{"marginal": ["age"]}],
                    "eps": 0.1, "seed": 10 + i, "timeout": 0.3,
                })

            burst_threads = [
                threading.Thread(target=burst, args=(i,)) for i in range(3)
            ]
            for bt in burst_threads:
                bt.start()
            for bt in burst_threads:
                bt.join()
            for i, (s, h, b) in enumerate(burst_results):
                b["retry_after"] = h.get("Retry-After")
                show(f"burst {i}", s, b)
            s, _, b = post(srv.port, marginal_age)  # free read still serves
            show("free during overload", s, b)
            t.join()
        s, b = slow_result["r"][0], slow_result["r"][2]
        show("slow request completed", s, b)

        print("\n4. budget exhaustion — refused with exact remaining ε:")
        s, _, b = post(srv.port, {
            "dataset": "fresh", "queries": [{"marginal": ["income", "sex"]}],
            "eps": 5.0, "seed": 3,
        })
        show("over budget", s, b)
        s, _, b = post(srv.port, marginal_age)  # degraded: free still works
        show("free while exhausted", s, b)

        print("\n5. deadline too tight for a fresh fit — 504, zero ε spent:")
        spent_before = session.service.accountant.spent("cold")
        inj = faults.FaultInjector().delay("engine.fit", 0.5)
        with inj.active():
            s, _, b = post(srv.port, {
                "dataset": "cold",
                "queries": [{"count": [{"attr": "sex", "eq": "F"}]}],
                "eps": 0.1, "seed": 4, "timeout": 0.1,
            })
        show("deadline", s, b)
        spent = session.service.accountant.spent("cold")
        assert spent == spent_before == 0.0
        print(f"  accountant spend on 'cold' after the refusal: {spent}")

        print("\n6. health + metrics, then drain:")
        conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=10)
        conn.request("GET", "/readyz")
        r = conn.getresponse()
        print(f"  /readyz -> HTTP {r.status} {r.read().decode()}")
        conn.close()
    print("drained and stopped.")


if __name__ == "__main__":
    main()
