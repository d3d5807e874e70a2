"""The system under test for the HTTP workloads: a ``repro.server``
process on a WAL-backed accountant and an on-disk strategy registry.

Run as ``python pb_server.py --workdir D --registry R --seed S
--laplace-tenants N --gauss-tenants M``.  It registers and primes the
tenants, starts the HTTP server on an ephemeral localhost port and
prints ``{"event": "ready", "port": ...}``.  It then takes one command
per stdin line and answers each with one JSON line on stdout:

``cpu``        process CPU seconds so far;
``trace_on``   wrap the layers (pb_layers.PROBES) for a traced pass;
``trace_off``  unwrap them and return the pass's layer totals;
``stop``       drain and shut the server down, return the in-memory
               spend per tenant and peak RSS, then exit.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import os
import resource
import sys
import threading
import time

import pb_gen
import pb_layers
import pb_trace


def build_session(registry: str, wal: str | None):
    from repro.api import Session
    from repro.service import PrivacyAccountant

    acct = None if wal is None else PrivacyAccountant(wal_path=wal, lock_timeout=10.0)
    return Session(registry=registry, accountant=acct, restarts=3, rng=0)


def schema(spec=pb_gen.SCHEMA):
    from repro.api import Schema

    return Schema.from_spec(spec)


def prime_reads(session, seed: int, caps: bool) -> None:
    """Register the read tenants and measure each once, so every read is
    a free hit.  The checker replays this in-process to get the same
    reconstructions."""
    from repro.server.app import parse_query_spec

    sch = schema()
    x = pb_gen.data_vector(seed, sch.domain.shape())
    pairs = [{"marginal": list(p)} for p in itertools.combinations(pb_gen.ATTRS, 2)]
    full = [{"marginal": list(pb_gen.ATTRS)}]
    for i, (name, kind) in enumerate(sorted(pb_gen.READ_TENANTS.items())):
        ds = session.dataset(
            name, schema=sch, data=x, epsilon_cap=1e6 if caps else None
        )
        specs = pairs if kind == "pairs" else full
        ds.ask_many([parse_query_spec(s) for s in specs], eps=1.0, rng=seed + i)


def register_writers(session, seed: int, laplace: int, gauss: int, caps: bool):
    """Never-measured write tenants (``w<i>`` pure-ε, ``z<i>`` zCDP)."""
    from repro.privacy.policy import ZCDPPolicy

    sch = schema(pb_gen.WRITE_SCHEMA)
    x = pb_gen.data_vector(seed, sch.domain.shape())
    for i in range(laplace):
        session.dataset(f"w{i}", schema=sch, data=x,
                        epsilon_cap=10.0 if caps else None)
    for i in range(gauss):
        session.dataset(f"z{i}", schema=sch, data=x,
                        policy=ZCDPPolicy(pb_gen.ZCDP_RHO) if caps else None)


def prepare_warm(session) -> None:
    """Fit the warm-write queries' strategies into the registry (the
    compile only needs the write schema, not a registered tenant)."""
    from repro.api.planner import compile_expr
    from repro.server.app import parse_query_spec

    sch = schema(pb_gen.WRITE_SCHEMA)
    for queries in pb_gen.WARM_SPECS:
        (spec,) = queries
        session.service.prepare(compile_expr(parse_query_spec(spec), sch).matrix)


class Control:
    """Serves the stdin command channel from a thread."""

    def __init__(self, loop, server, app, workdir: str):
        self.loop = loop
        self.server = server
        self.app = app
        self.tracer = pb_trace.Tracer()
        self.patches = None
        self.workdir = workdir

    def _on_loop(self, fn):
        done = threading.Event()
        box = {}

        def run():
            try:
                box["out"] = fn()
            finally:
                done.set()

        self.loop.call_soon_threadsafe(run)
        done.wait()
        return box.get("out")

    def _trace_on(self):
        self.tracer.reset()
        self.patches = pb_trace.install(self.tracer, pb_layers.PROBES)
        # Measured requests run on the app's executor threads: carry the
        # request's context there so their spans nest under it.
        executor = self.app._executor
        self.patches.set(
            executor, "submit",
            _context_submit(executor.submit),
        )
        return {"ok": True}

    def _trace_off(self):
        pb_trace.uninstall(self.patches)
        self.tracer.dump(os.path.join(self.workdir, "server_spans.jsonl"))
        return {"totals": self.tracer.reset().to_dict()}

    def serve(self):
        for line in sys.stdin:
            cmd = line.strip()
            if cmd == "cpu":
                reply = {"cpu_s": time.process_time()}
            elif cmd == "trace_on":
                reply = self._on_loop(self._trace_on)
            elif cmd == "trace_off":
                reply = self._on_loop(self._trace_off)
            elif cmd == "stop":
                fut = asyncio.run_coroutine_threadsafe(
                    self.server.shutdown(drain_timeout=30.0), self.loop
                )
                fut.result(60)
                acct = self.app.session.service.accountant
                reply = {
                    "spent": {d: acct.spent(d) for d in self.app.datasets()},
                    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                }
                _reply(reply)
                self.loop.call_soon_threadsafe(self.loop.stop)
                return
            else:
                reply = {"error": f"unknown command {cmd!r}"}
            _reply(reply)
        # stdin closed without a stop: the parent is gone.
        self.loop.call_soon_threadsafe(self.loop.stop)


def _context_submit(submit):
    import contextvars

    def wrapper(fn, /, *args, **kwargs):
        return submit(contextvars.copy_context().run, fn, *args, **kwargs)

    return wrapper


def _reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--registry", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--laplace-tenants", type=int, default=0)
    ap.add_argument("--gauss-tenants", type=int, default=0)
    args = ap.parse_args(argv)

    from repro.server.app import ServerApp
    from repro.server.http import HttpServer

    session = build_session(args.registry, os.path.join(args.workdir, "wal.jsonl"))
    app = ServerApp(session, max_measure=2, max_queue=8, per_dataset=2)
    prime_reads(session, args.seed, caps=True)
    register_writers(
        session, args.seed, args.laplace_tenants, args.gauss_tenants, caps=True
    )
    prepare_warm(session)

    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    server = HttpServer(app, "127.0.0.1", 0)
    loop.run_until_complete(server.start())
    control = Control(loop, server, app, args.workdir)
    thread = threading.Thread(target=control.serve, name="control", daemon=True)
    thread.start()
    _reply({"event": "ready", "port": server.port})
    loop.run_forever()
    loop.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
