"""One part of a workload, run in a fresh process: set up, measure, check.

Run as ``python pb_workloads.py --workload W --seed S --part K --parts N
--seconds T --trace 0|1 --workdir D``.  The process prints
``SETUP_DONE`` once its set-up is finished (the parent times child start
to that line), then runs an untimed warm-up, ``T`` seconds of timed work
and, with ``--trace 1``, a traced pass of the same length; then it runs
the correctness checks and writes ``result.json`` into the work
directory: the raw samples (the parent computes every statistic), check
results, peak RSS and, when traced, the per-layer metrics.

A run is split into several parts so that its timed work is spread over
several fresh processes; part ``K`` draws its inputs from ``(seed, K)``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import pb_client
import pb_gen
import pb_layers
import pb_trace

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_DONE = "SETUP_DONE"
CALIBRATE = "CALIBRATE"
WARMUP_S = 1.0


#: The compute workloads' timed ops are grouped into windows of at least
#: this many seconds of work, each bracketed by calibration points.
WINDOW_S = 1.0
#: serve_read's reads are grouped into windows of this many seconds, each
#: bracketed by ``REF_WINDOW_S`` of reads to the reference server.
READ_WINDOW_S = 0.5
REF_WINDOW_S = 0.125


def calibration_point() -> None:
    """Hand the host to the parent, which times its calibration kernel
    while this process sits idle; returns when done."""
    print(CALIBRATE, flush=True)
    sys.stdin.readline()


def timed_windows(op, seconds: float, window_s: float = WINDOW_S) -> list:
    """Call ``op(i)`` for i = 0, 1, ... (it returns its own seconds) until
    the ops have taken ``seconds`` (at least one op), with a calibration
    point before the first op and after every window of ``window_s`` of
    ops.  Returns the op times in milliseconds, one list per window."""
    windows, window = [], []
    busy = in_window = 0.0
    calibration_point()
    for i in itertools.count():
        t = op(i)
        window.append(1e3 * t)
        busy += t
        in_window += t
        done = busy >= seconds
        if done or in_window >= window_s:
            calibration_point()
            windows.append(window)
            window, in_window = [], 0.0
        if done:
            return windows


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child (the
    server, or the largest optimizer pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _mean(xs) -> float:
    return math.fsum(xs) / len(xs)


class Checks:
    """Named pass/fail results plus the first few failure messages."""

    def __init__(self):
        self.results: dict[str, bool] = {}
        self.errors: list[str] = []

    def expect(self, name: str, ok: bool, why: str = "") -> bool:
        self.results[name] = self.results.get(name, True) and bool(ok)
        if not ok and len(self.errors) < 20:
            self.errors.append(f"{name}: {why}" if why else name)
        return bool(ok)


def traced_layers(tracer, workdir, ops, e2e_ms, untraced_e2e_ms, **kwargs):
    """Write the raw span sample and derive the per-layer metrics."""
    tracer.dump(os.path.join(workdir, "spans.jsonl"))
    return pb_layers.layer_metrics(
        tracer.reset(), ops=ops, e2e_ms=e2e_ms,
        untraced_e2e_ms=untraced_e2e_ms, **kwargs,
    )


# -- HTTP workloads ----------------------------------------------------------


class Serve:
    """``serve_read`` (closed loop) and ``serve_mixed`` (open loop)."""

    def __init__(self, args, mixed: bool):
        self.args = args
        self.mixed = mixed
        self.server = None
        self.conns = []
        self.pinned = False
        self.ref = None
        self.ref_conns = []
        #: serve_read: the timed reads per window, and the reference
        #: server's median latency after each window.
        self.read_windows: list = []
        self.ref_ms: list = []

    def setup(self) -> None:
        a = self.args
        if self.mixed:
            durations = [WARMUP_S, a.seconds] + ([a.seconds] if a.trace else [])
            self.schedules, plan = pb_gen.open_loop(a.seed, durations, part=a.part)
            tenants = plan.used
        else:
            self.stream = pb_gen.ReadStream(a.seed, part=a.part)
            tenants = {"laplace": 0, "gaussian": 0}
        self.tenants = tenants
        # serve_read: the server's event loop, which does all of a free
        # hit's work, gets a CPU of its own and the client the other, so
        # where the OS happens to place the two cannot differ between
        # runs.  serve_mixed stays unpinned: its writes' executor threads
        # may use the second CPU beside the event loop.
        cpus = sorted(os.sched_getaffinity(0))
        pin = not self.mixed and len(cpus) >= 2
        self.server = subprocess.Popen(
            [
                sys.executable, os.path.join(HERE, "pb_server.py"),
                "--workdir", a.workdir,
                "--registry", a.registry,
                "--seed", str(a.seed),
                "--laplace-tenants", str(tenants["laplace"]),
                "--gauss-tenants", str(tenants["gaussian"]),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus[1:2])) if pin else None,
        )
        if pin:
            os.sched_setaffinity(0, cpus[:1])
        self.pinned = pin
        if not self.mixed:
            # On the server's CPU, like the server.
            self.ref = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "pb_refserver.py")],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                preexec_fn=(lambda: os.sched_setaffinity(0, cpus[1:2])) if pin else None,
            )
            port = json.loads(self.ref.stdout.readline() or "{}")["port"]
            self.ref_conns = [pb_client.Conn(port) for _ in range(2)]
            self.ref_stream = pb_gen.ReadStream(a.seed, part=a.part)
        ready = json.loads(self.server.stdout.readline() or "{}")
        if ready.get("event") != "ready":
            raise RuntimeError("server failed to start")
        self.conns = [pb_client.Conn(ready["port"]) for _ in range(2)]

    def command(self, cmd: str) -> dict:
        self.server.stdin.write(cmd + "\n")
        self.server.stdin.flush()
        return json.loads(self.server.stdout.readline())

    def close_conns(self) -> None:
        for c in self.conns + self.ref_conns:
            c.close()
        self.conns, self.ref_conns = [], []
        if self.ref is not None:
            self.ref.stdin.close()
            try:
                self.ref.wait(10)
            except subprocess.TimeoutExpired:
                self.ref.kill()
                self.ref.wait()
            self.ref = None

    def teardown(self) -> None:
        self.close_conns()
        if self.server is not None and self.server.poll() is None:
            os.kill(self.server.pid, signal.SIGCONT)
            try:
                self.command("stop")
                self.server.wait(60)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                self.server.kill()
                self.server.wait()
        self.server = None

    def phase(self, i: int):
        if self.mixed:
            return pb_client.open_loop(self.conns, self.schedules[i])
        if i == 1:
            return self.read_pass()
        seconds = WARMUP_S if i == 0 else self.args.seconds
        return pb_client.closed_loop(self.conns, self.stream, seconds)

    def read_pass(self):
        """serve_read's timed pass: windows of :data:`READ_WINDOW_S` of
        reads, each bracketed by :data:`REF_WINDOW_S` of the same kind of
        reads to the reference server while the server under test is
        stopped (SIGSTOP), so that it cannot take part in the reference."""
        out = pb_client.Outcome()
        n = max(round(self.args.seconds / READ_WINDOW_S), 1)
        self.reference()
        for _ in range(n):
            window = pb_client.closed_loop(self.conns, self.stream, self.args.seconds / n)
            out.extend(window)
            self.read_windows.append(window.read_ms)
            self.reference()
        return out

    def reference(self) -> None:
        os.kill(self.server.pid, signal.SIGSTOP)
        try:
            ref = pb_client.closed_loop(self.ref_conns, self.ref_stream, REF_WINDOW_S)
        finally:
            os.kill(self.server.pid, signal.SIGCONT)
        if ref.failed or not ref.read_ms:
            raise RuntimeError(f"reference server failed: {ref.errors[:1]}")
        self.ref_ms.append(statistics.median(ref.read_ms))

    def run(self) -> dict:
        a = self.args
        warm = self.phase(0)
        cpu0 = self.command("cpu")["cpu_s"]
        main = self.phase(1)
        cpu1 = self.command("cpu")["cpu_s"]
        traced = totals = None
        if a.trace:
            self.command("trace_on")
            traced = self.phase(2)
            totals = pb_trace.LayerTotals.from_dict(self.command("trace_off")["totals"])
        self.close_conns()
        stop = self.command("stop")
        self.server.wait(60)
        self.server = None
        # Before the checks: the in-process replica is not the workload.
        rss_kb = stop["maxrss_kb"] + resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        phases = [p for p in (warm, main, traced) if p is not None]
        checks = Checks()
        self.check(phases, stop, checks)
        if self.mixed:
            self.check_open_loop(main, checks)
        if traced is not None:
            self.check_routes(totals, checks)

        out = {
            "samples": {
                "read_ms": main.read_ms,
                "write_ms": main.write_ms,
                "late_ms": main.late_ms,
            },
            "elapsed_s": main.elapsed_s,
            "attempted": sum(p.attempted for p in phases),
            "failed": sum(p.failed for p in phases),
            "checks": checks.results,
            "errors": checks.errors + [e for p in phases for e in p.errors][:20],
            "rss_mb": rss_kb / 1024.0,
            "provenance": {"server_and_client_pinned": self.pinned},
        }
        if not self.mixed:
            out.update(read_windows=self.read_windows, ref_ms=self.ref_ms)
        if traced is not None:
            cpu_ms = (cpu1 - cpu0) * 1e3 / max(main.attempted, 1)
            out["layers"] = pb_layers.layer_metrics(
                totals,
                ops=traced.attempted,
                e2e_ms=_mean(traced.all_ms()),
                untraced_e2e_ms=_mean(main.all_ms()),
                late_ms=_mean(traced.late_ms) if traced.late_ms else 0.0,
                cpu_ms_per_req=cpu_ms,
            )
        return out

    # -- checks ----------------------------------------------------------------
    def check(self, phases, stop, checks: Checks) -> None:
        import pb_server
        from repro.server.app import parse_query_spec
        from repro.service import PrivacyAccountant

        a = self.args
        # Free responses: same bytes on every repeat (checked while
        # loading) and across phases, free routes, no charge.
        first: dict = {}
        for p in phases:
            for body, resp in p.first.items():
                seen = first.setdefault(body, resp)
                checks.expect("free_repeatable", seen == resp, body[:80].decode())
        writes = [w for p in phases for w in p.writes]
        read_failed = sum(p.read_failed for p in phases)
        checks.expect("reads_ok", read_failed == 0, f"{read_failed} reads not served")

        # In-process replica of the server's state, float-compared.
        replica = pb_server.build_session(a.registry, None)
        pb_server.prime_reads(replica, a.seed, caps=False)
        pb_server.register_writers(
            replica, a.seed, self.tenants["laplace"], self.tenants["gaussian"],
            caps=False,
        )
        for w, status, resp in writes:
            if not checks.expect("write_ok", status == 200, f"{w.tenant} HTTP {status}"):
                continue
            body = json.loads(resp)
            routes = [x["route"] for x in body["answers"]]
            checks.expect(
                "write_charged", body["charged"] == pb_gen.WRITE_EPS,
                f"{w.tenant} charged {body['charged']}",
            )
            checks.expect(
                "write_route", routes and all(r == w.route for r in routes),
                f"{w.tenant} routes {routes}, expected {w.route}",
            )
            kwargs = {} if w.mechanism == "laplace" else {
                "mechanism": "gaussian", "delta": pb_gen.GAUSS_DELTA,
            }
            ans = replica.dataset(w.tenant).ask_many(
                [parse_query_spec(s) for s in w.queries],
                eps=pb_gen.WRITE_EPS, rng=w.seed, **kwargs,
            )
            checks.expect(
                "write_values", _values(ans) == [x["values"] for x in body["answers"]],
                f"{w.tenant} wire vs in-process",
            )
        for req, resp in first.items():
            payload = json.loads(req)
            body = json.loads(resp)
            routes = [x["route"] for x in body["answers"]]
            checks.expect(
                "free_route", body["charged"] == 0.0
                and all(r in ("accelerator", "cache") for r in routes),
                f"charged {body['charged']} routes {routes}",
            )
            try:
                ans = replica.dataset(payload["dataset"]).ask_many(
                    [parse_query_spec(s) for s in payload["queries"]]
                )
            except Exception as e:  # a miss in the replica is a failed check
                checks.expect("free_values", False, f"{req[:80]!r}: {e!r}")
                continue
            checks.expect(
                "free_values", _values(ans) == [x["values"] for x in body["answers"]],
                req[:80].decode(),
            )

        # The ε-ledger: replayed spend equals the server's in-memory spend.
        recovered = PrivacyAccountant.recover(os.path.join(a.workdir, "wal.jsonl"))
        for tenant, spent in stop["spent"].items():
            checks.expect(
                "wal_spend", recovered.spent(tenant) == spent,
                f"{tenant}: replayed {recovered.spent(tenant)} != served {spent}",
            )

    def check_open_loop(self, main, checks: Checks) -> None:
        """An open-loop run counts only if the generator kept to its
        schedule and the backlog did not grow over the run."""
        late_p99 = sorted(main.late_ms)[int(0.99 * (len(main.late_ms) - 1))]
        checks.expect(
            "generator_on_schedule", late_p99 <= LATE_P99_LIMIT_MS,
            f"late p99 {late_p99:.2f} ms",
        )
        q = max(len(main.backlog) // 4, 1)
        head = _mean([b for _, b in main.backlog[:q]])
        tail = _mean([b for _, b in main.backlog[-q:]])
        checks.expect(
            "backlog_steady", tail <= head + BACKLOG_GROWTH_LIMIT,
            f"outstanding grew from {head:.2f} to {tail:.2f}",
        )

    def check_routes(self, totals, checks: Checks) -> None:
        routes = {
            r: totals.extra.get(f"service.engine.answer:route.{r}", 0)
            for r in pb_layers.ROUTES
        }
        if self.mixed:
            checks.expect("no_cold_writes", routes["cold"] == 0, f"routes {routes}")
        else:
            paid = routes["warm"] + routes["direct"] + routes["cold"]
            checks.expect("reads_all_free", paid == 0, f"routes {routes}")


#: Open-loop validity limits: the generator's 99th-percentile lateness,
#: and how much the mean number of outstanding requests may rise from
#: the first to the last quarter of the run.
LATE_P99_LIMIT_MS = 50.0
BACKLOG_GROWTH_LIMIT = 4.0


def _values(answers) -> list:
    return [[float(v) for v in a.values] for a in answers]


# -- cold fit ------------------------------------------------------------------


#: Random restarts per fit, fixed: a config's fit cost depends on the
#: seed only through which restarts the optimizer draws.
FIT_RESTARTS = 2


def _configs():
    """Paper Table 3 configurations, built fresh on every call."""
    from repro import workload as wl
    from repro.data import adult_domain, cps_domain
    from repro.workload import implicit_vectorize, sf1_workload

    return {
        "adult_2way": wl.k_way_marginals(adult_domain(), 2),
        "cps_range_marginals": wl.range_marginals(
            cps_domain(), numeric={"income", "age"}, k=2
        ),
        "sf1": implicit_vectorize(sf1_workload()),
        "prefix_1d": wl.prefix_1d(128),
    }


class ColdFit:
    """``QueryService.prepare`` of the config set on fresh services."""

    def __init__(self, args):
        self.args = args
        self.cpus = len(os.sched_getaffinity(0))
        self.n = 0

    def setup(self) -> None:
        import repro.service  # noqa: F401  (imports are part of set-up)

    def teardown(self) -> None:
        pass

    def fit_set(self, j: int):
        """Fit every config on a fresh service, registry and workload
        objects, with optimizer seed ``(seed, j)``.  Returns the wall time
        and ``{config: (loss, strategy, workload)}``."""
        import numpy as np

        from repro.service import QueryService

        workloads = _configs()
        self.n += 1
        reg = os.path.join(self.args.workdir, f"fit-{self.n}")
        svc = QueryService(
            registry=reg,
            restarts=FIT_RESTARTS,
            rng=np.random.SeedSequence([self.args.seed, j]),
            fit_kwargs={"workers": self.cpus},
        )
        t0 = time.perf_counter()
        fitted = {}
        for name, W in workloads.items():
            _, A, loss, _ = svc.prepare(W)
            fitted[name] = (loss, A, W)
        elapsed = time.perf_counter() - t0
        shutil.rmtree(reg, ignore_errors=True)
        return elapsed, fitted

    def passes(self, count=None):
        """Fit sets with sub-seeds ``part, part + parts, ...``: for the
        part's seconds in calibrated windows, or ``count`` of them.
        Returns the fit times in ms per window and each set's losses."""
        a = self.args
        losses = []

        def op(i: int) -> float:
            elapsed, fitted = self.fit_set(a.part + i * a.parts)
            losses.append({k: v[0] for k, v in fitted.items()})
            if i == 0:
                self.first = fitted
            return elapsed

        if count is None:
            return timed_windows(op, a.seconds), losses
        return [[1e3 * op(i) for i in range(count)]], losses

    def run(self) -> dict:
        from repro.core.error import rootmse
        from repro.optimize.driver import identity_result

        # Warm-up (imports, allocator, first pool fork), which doubles as
        # the reference for the determinism check of the first sub-seed.
        _, again = self.fit_set(self.args.part)
        windows, losses = self.passes()
        times = [t / 1e3 for w in windows for t in w]
        # Before the checks: their baselines are not the workload.
        rss_mb = peak_rss_mb()
        checks = Checks()
        for name, (loss, _, _) in again.items():
            checks.expect(
                "fit_deterministic", loss == losses[0][name],
                f"{name}: {loss!r} != {losses[0][name]!r}",
            )
        fit_rmse = {}
        for name, (loss, A, W) in self.first.items():
            base = identity_result(W).loss
            checks.expect("fit_beats_identity", loss <= base, f"{name}: {loss} > {base}")
            fit_rmse[name] = float(rootmse(W, A, 1.0))
        out = {
            "samples": {"op_ms": [1e3 * t for t in times]},
            "windows": windows,
            "elapsed_s": math.fsum(times),
            "attempted": len(times) * len(losses[0]),
            "failed": 0,
            "fit_rmse": fit_rmse,
            "provenance": {"restarts": FIT_RESTARTS, "workers": self.cpus},
            "rss_mb": rss_mb,
        }
        if self.args.trace:
            tracer = pb_trace.Tracer()
            patches = pb_trace.install(tracer, pb_layers.PROBES)
            try:
                (t_ms,), t_losses = self.passes(count=len(times))
            finally:
                pb_trace.uninstall(patches)
            checks.expect("fit_deterministic", t_losses == losses, "traced pass")
            out["layers"] = traced_layers(
                tracer, self.args.workdir, len(t_ms),
                _mean(t_ms), 1e3 * _mean(times),
            )
        out["checks"] = checks.results
        out["errors"] = checks.errors
        return out


# -- ε-sweep ----------------------------------------------------------------------


SWEEP_N = 16
SWEEP_TRIALS = 10
SWEEP_GRID = (0.1, 0.3, 1.0, 3.0, 10.0)
#: Untimed sweeps first: Gram caches, and the recycled CG basis, which
#: fills (and then freezes) within the first three sweeps.
SWEEP_WARMUP = 4


def multiblock_workload(n: int):
    """The SF1-style union of four structural signatures over an n³
    domain: total, a 1-way identity margin, a trailing range margin and a
    2-way tabulation (``opt_union(groups=4)`` fits one block each)."""
    from repro.linalg import AllRange, Identity, Kronecker, Ones, VStack

    I, T, R = Identity(n), Ones(1, n), AllRange(n)
    return VStack([
        Kronecker([T, T, T]),
        Kronecker([I, T, T]),
        Kronecker([T, T, R]),
        Kronecker([I, I, T]),
    ])


class EpsSweep:
    """``QueryService.measure`` of an ε grid x trials on a warm strategy."""

    def __init__(self, args):
        self.args = args
        self.sweeps = 0

    def setup(self) -> None:
        import numpy as np

        from repro.optimize import opt_union
        from repro.service import PrivacyAccountant, QueryService, StrategyRegistry

        a = self.args
        self.W = multiblock_workload(SWEEP_N)
        self.x = pb_gen.data_vector(a.seed, (SWEEP_N,) * 3, lam=50.0)
        # The strategy is part of the system's state, not an input: fitted
        # at a fixed seed, so runs differ in data and noise only.
        fit = opt_union(multiblock_workload(SWEEP_N), rng=0, groups=4)
        registry = StrategyRegistry(a.registry)
        self.svc = QueryService(
            registry=registry,
            accountant=PrivacyAccountant(
                wal_path=os.path.join(a.workdir, "wal.jsonl"), lock_timeout=10.0
            ),
            restarts=1,
        )
        registry.put(self.W, fit.strategy, loss=fit.loss, template=self.svc.template)
        self.svc.add_dataset("census", self.x, epsilon_cap=1e12)
        _, self.A, _, self.warm = self.svc.prepare(self.W)
        self.truth = self.W.matvec(self.x)
        self.grid = np.asarray(SWEEP_GRID)

    def teardown(self) -> None:
        pass

    def sweep(self, i: int):
        import numpy as np

        rng = [self.args.seed, self.args.part, SWEEP_WARMUP + i]  # warm-up: i < 0
        t0 = time.perf_counter()
        r = self.svc.measure("census", self.W, self.grid, trials=SWEEP_TRIALS, rng=rng)
        elapsed = time.perf_counter() - t0
        self.sweeps += 1
        rmse = float(np.sqrt(np.mean((r.answers - self.truth) ** 2)))
        return elapsed, rmse, r, rng

    def passes(self, count=None):
        """Sweeps: for the part's seconds in calibrated windows, or
        ``count`` of them.  Returns the sweep times in ms per window, each
        sweep's RMSE, and the last sweep's result and seed."""
        rmses, last = [], {}

        def op(i: int) -> float:
            elapsed, rmse, last["r"], last["rng"] = self.sweep(i)
            rmses.append(rmse)
            return elapsed

        if count is None:
            windows = timed_windows(op, self.args.seconds)
        else:
            windows = [[1e3 * op(i) for i in range(count)]]
        return windows, rmses, last["r"], last["rng"]

    def run(self) -> dict:
        from repro.service import PrivacyAccountant

        for i in range(SWEEP_WARMUP):
            self.sweep(i - SWEEP_WARMUP)
        windows, rmses, last, last_rng = self.passes()
        times = [t / 1e3 for w in windows for t in w]
        # Before the checks: the LSMR reference is not the workload.
        rss_mb = peak_rss_mb()
        checks = Checks()
        checks.expect("strategy_warm", self.warm, "sweep strategy was not warm-loaded")
        self.check_lsmr(last, last_rng, checks)
        out = {
            "samples": {"op_ms": [1e3 * t for t in times], "rmse": rmses},
            "windows": windows,
            "elapsed_s": math.fsum(times),
            "attempted": len(times),
            "failed": 0,
            "provenance": {
                "grid": list(SWEEP_GRID), "trials": SWEEP_TRIALS,
                "domain": SWEEP_N ** 3,
            },
            "rss_mb": rss_mb,
        }
        if self.args.trace:
            tracer = pb_trace.Tracer()
            patches = pb_trace.install(tracer, pb_layers.PROBES)
            try:
                (t_ms,), _, _, _ = self.passes(count=len(times))
            finally:
                pb_trace.uninstall(patches)
            out["layers"] = traced_layers(
                tracer, self.args.workdir, len(t_ms),
                _mean(t_ms), 1e3 * _mean(times),
            )
        acct = self.svc.accountant
        per_sweep = float(self.grid.sum()) * SWEEP_TRIALS
        checks.expect(
            "one_debit_per_sweep",
            len(acct.ledger) == self.sweeps
            and all(e.epsilon == per_sweep for e in acct.ledger),
            f"{len(acct.ledger)} debits for {self.sweeps} sweeps",
        )
        recovered = PrivacyAccountant.recover(acct.wal_path)
        checks.expect(
            "wal_spend", recovered.spent("census") == acct.spent("census"),
            f"replayed {recovered.spent('census')} != {acct.spent('census')}",
        )
        out["checks"] = checks.results
        out["errors"] = checks.errors
        return out

    def check_lsmr(self, r, rng, checks: Checks) -> None:
        """Swept answers on one column per ε match an LSMR solve of the
        same noisy measurements to solver tolerance."""
        import numpy as np
        from scipy.sparse.linalg import LinearOperator, lsmr

        from repro.core.measure import laplace_measure_batch
        from repro.core.reconstruct import answer_workload

        A = self.A
        eps_flat = np.repeat(self.grid, SWEEP_TRIALS)
        Y = laplace_measure_batch(A, self.x, eps_flat, rng=rng)
        op = LinearOperator(A.shape, matvec=A.matvec, rmatvec=A.rmatvec,
                            dtype=np.float64)
        flat = r.answers.reshape(eps_flat.size, -1)
        for col in range(0, eps_flat.size, SWEEP_TRIALS):
            ref = answer_workload(
                self.W, lsmr(op, np.ascontiguousarray(Y[:, col]),
                              atol=1e-12, btol=1e-12, maxiter=20000)[0]
            )
            dev = float(np.max(np.abs(flat[col] - ref)) / np.max(np.abs(ref)))
            checks.expect("sweep_matches_lsmr", dev <= 1e-6, f"column {col}: {dev:.2e}")


WORKLOADS = {
    "serve_read": lambda a: Serve(a, mixed=False),
    "serve_mixed": lambda a: Serve(a, mixed=True),
    "cold_fit": ColdFit,
    "eps_sweep": EpsSweep,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--parts", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    # Each part primes its own registry, so every part sets up alike.
    args.registry = os.path.join(args.workdir, "registry")

    workload = WORKLOADS[args.workload](args)
    try:
        workload.setup()
        print(SETUP_DONE, flush=True)
        result = workload.run()
    finally:
        workload.teardown()
    import numpy
    import scipy

    result.setdefault("provenance", {}).update(
        numpy=numpy.__version__, scipy=scipy.__version__
    )
    with open(os.path.join(args.workdir, "result.json"), "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
