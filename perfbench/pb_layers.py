"""Which program functions the traced pass wraps, and the per-layer
metrics derived from their spans.

Every ``_ms`` metric is self time per op (the workload's unit of work: a
request, a config-set fit, or a sweep); every ``_calls``/``_iters``/
``_rows`` metric is a count per op; ``_ratio`` and ``route_share``
metrics are shares of attempts.  The self times, ``server.http.ms``,
``client.late_ms`` and ``unattributed_ms`` add up to ``trace.e2e_ms``.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import pb_trace

ROUTES = ("accelerator", "cache", "warm", "direct", "cold")


def _routes(batch) -> dict:
    out: dict = {}
    for qa in batch.answers:
        key = f"route.{qa.route}"
        out[key] = out.get(key, 0) + 1
    return out


def _rows(values) -> dict:
    return {"rows": int(values.size)}


def _iters(result) -> dict:
    return {"iters": int(result.iterations.sum())}


@dataclass(frozen=True)
class Span:
    """Time every call of ``module.path`` as layer ``layer``."""

    layer: str
    module: str
    path: str
    extract: object = None

    def wrap(self, tracer, fn):
        return pb_trace.timed(tracer, fn, self.layer, self.extract)


@dataclass(frozen=True)
class Count:
    """Count calls of ``module.path`` under ``key`` (no span)."""

    key: str
    module: str
    path: str

    def wrap(self, tracer, fn):
        return pb_trace.counted(tracer, fn, self.key)


@dataclass(frozen=True)
class Enter:
    """Time only the entry of a context-manager factory (lock waits)."""

    layer: str
    module: str
    path: str

    def wrap(self, tracer, fn):
        return pb_trace.timed_enter(tracer, fn, self.layer)


@dataclass(frozen=True)
class ParseRequest:
    """``ServerApp._parse_request``: a span, plus a hit on the server's
    parsed-expression cache whenever no ``parse_query_spec`` ran inside."""

    module: str = "repro.server.app"
    path: str = "ServerApp._parse_request"
    layer: str = "server.app.parse_request"

    def wrap(self, tracer, fn):
        inner = pb_trace.timed(tracer, fn, self.layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = tracer.totals.calls.get("server.app.parse_query_spec", 0)
            out = inner(*args, **kwargs)
            tracer.count("server.app.expr_cache:lookups")
            if tracer.totals.calls.get("server.app.parse_query_spec", 0) == before:
                tracer.count("server.app.expr_cache:hits")
            return out

        return wrapper


@dataclass(frozen=True)
class RunTasks:
    """The optimizer's task fan-out.  Tasks run in pool processes report
    their layer totals back with their results; the work they did counts
    as covered time of the submitting span, like threads' children."""

    module: str = "repro.optimize.parallel"
    path: str = "run_tasks"

    def wrap(self, tracer, fn):
        @functools.wraps(fn)
        def wrapper(task, payloads, *args, **kwargs):
            pid = os.getpid()
            results = fn(
                pb_trace.run_task, [(pid, task, p) for p in payloads],
                *args, **kwargs,
            )
            parent = tracer.current()
            out = []
            for result, summary in results:
                if summary is not None:
                    tracer.absorb(summary, parent)
                out.append(result)
            return out

        return wrapper


@dataclass(frozen=True)
class ContextPool:
    """Thread pools of the optimizer run tasks in the submitter's context."""

    module: str = "repro.optimize.parallel"
    path: str = "ThreadPoolExecutor"

    def wrap(self, tracer, cls):
        return pb_trace.context_thread_pool(cls)


_MEASURE_FNS = (
    "laplace_measure",
    "laplace_measure_batch",
    "gaussian_measure",
    "gaussian_measure_batch",
)

PROBES = (
    [
        Span("server.app.handle", "repro.server.app", "ServerApp.handle"),
        ParseRequest(),
        Span("server.app.parse_query_spec", "repro.server.app", "parse_query_spec"),
        Span("server.app.encode_body", "repro.server.app", "encode_body"),
        Span(
            "server.admission.acquire_measure",
            "repro.server.admission",
            "AdmissionController.acquire_measure",
        ),
        Span("api.session.ask_many", "repro.api.session", "Dataset.ask_many"),
        Span("api.session.compile_many", "repro.api.session", "Dataset.compile_many"),
        Count("api.session.compile:calls", "repro.api.session", "Dataset.compile"),
        Span("api.planner.compile_expr", "repro.api.session", "compile_expr"),
        Span("api.planner.plan_queries", "repro.api.session", "plan_queries"),
        Span(
            "service.engine.answer", "repro.service.engine", "QueryService.answer",
            _routes,
        ),
        Span("service.engine.span_check", "repro.service.engine", "in_measured_span"),
        Span("service.engine.measure", "repro.service.engine", "QueryService.measure"),
        Span("service.engine.prepare", "repro.service.engine", "QueryService.prepare"),
        Span(
            "service.accelerator.answer", "repro.service.accelerator",
            "AcceleratorTable.answer", _rows,
        ),
        Span(
            "service.accelerator.build", "repro.service.accelerator",
            "AcceleratorTable.__init__",
        ),
        Span("service.accelerator.load_table", "repro.service.engine", "load_table"),
        Span("service.accelerator.store_table", "repro.service.engine", "store_table"),
        Span(
            "service.accountant.check", "repro.service.accountant",
            "PrivacyAccountant.check",
        ),
        Span(
            "service.accountant.charge", "repro.service.accountant",
            "PrivacyAccountant.charge",
        ),
        Span(
            "service.accountant.remaining", "repro.service.accountant",
            "PrivacyAccountant.remaining",
        ),
        Span("service.ledger.append", "repro.service.ledger", "WriteAheadLedger.append"),
        Enter("service.ledger.lock_wait", "repro.service.ledger", "WriteAheadLedger.locked"),
        Span("service.registry.get", "repro.service.registry", "StrategyRegistry.get"),
        Span("service.registry.put", "repro.service.registry", "StrategyRegistry.put"),
        Span(
            "service.registry.refresh_solver_state", "repro.service.registry",
            "StrategyRegistry.refresh_solver_state",
        ),
    ]
    + [Span("core.measure", "repro.core.hdmm", f) for f in _MEASURE_FNS]
    + [Span("core.measure", "repro.core.measure", f) for f in _MEASURE_FNS]
    + [
        Span("core.reconstruct.least_squares", "repro.core.hdmm", "least_squares"),
        Span("core.solvers.cg", "repro.core.reconstruct", "cg_gram_solve", _iters),
        Span("core.solvers.cg", "repro.service.engine", "cg_gram_solve", _iters),
        Span(
            "core.reconstruct.answer_workload", "repro.core.hdmm", "answer_workload"
        ),
        Span("linalg.kmatmat", "repro.linalg.kron", "kmatmat"),
        Span("optimize.opt_hdmm", "repro.core.hdmm", "opt_hdmm"),
        Span("optimize.opt_marginals", "repro.optimize.driver", "opt_marginals"),
        Span("optimize.opt_kron", "repro.optimize.driver", "opt_kron"),
        Span("optimize.opt_kron", "repro.optimize.opt_union", "opt_kron"),
        Span("optimize.opt_union", "repro.optimize.driver", "opt_union"),
        Span("optimize.opt_0", "repro.optimize.opt_kron", "opt_0"),
        RunTasks(),
        ContextPool(),
    ]
)

#: Span layer → its self-time metric (ms per op).
SELF_MS = {
    "server.app.handle": "server.app.handle_self_ms",
    "server.app.parse_request": "server.app.parse_request_self_ms",
    "server.app.parse_query_spec": "server.app.parse_query_spec_ms",
    "server.app.encode_body": "server.app.encode_body_ms",
    "server.admission.acquire_measure": "server.admission.wait_ms",
    "api.session.ask_many": "api.session.ask_many_self_ms",
    "api.session.compile_many": "api.session.compile_many_ms",
    "api.planner.compile_expr": "api.planner.compile_expr_ms",
    "api.planner.plan_queries": "api.planner.plan_queries_ms",
    "service.engine.answer": "service.engine.answer_self_ms",
    "service.engine.span_check": "service.engine.span_check_ms",
    "service.engine.measure": "service.engine.measure_self_ms",
    "service.engine.prepare": "service.engine.prepare_self_ms",
    "service.accelerator.answer": "service.accelerator.answer_ms",
    "service.accelerator.build": "service.accelerator.build_ms",
    "service.accelerator.load_table": "service.accelerator.load_table_ms",
    "service.accelerator.store_table": "service.accelerator.store_table_ms",
    "service.accountant.check": "service.accountant.check_ms",
    "service.accountant.charge": "service.accountant.charge_self_ms",
    "service.accountant.remaining": "service.accountant.remaining_ms",
    "service.ledger.append": "service.ledger.append_ms",
    "service.ledger.lock_wait": "service.ledger.lock_wait_ms",
    "service.registry.get": "service.registry.get_ms",
    "service.registry.put": "service.registry.put_ms",
    "service.registry.refresh_solver_state": "service.registry.refresh_ms",
    "core.measure": "core.measure_ms",
    "core.reconstruct.least_squares": "core.reconstruct.least_squares_self_ms",
    "core.solvers.cg": "core.solvers.cg_ms",
    "core.reconstruct.answer_workload": "core.reconstruct.answer_workload_ms",
    "linalg.kmatmat": "linalg.kmatmat_ms",
    "optimize.opt_hdmm": "optimize.opt_hdmm_self_ms",
    "optimize.opt_marginals": "optimize.opt_marginals_ms",
    "optimize.opt_kron": "optimize.opt_kron_ms",
    "optimize.opt_union": "optimize.opt_union_ms",
    "optimize.opt_0": "optimize.opt_0_ms",
}

#: Count metric → (totals source, key); counts are reported per op.
CALLS = {
    "server.app.parse_query_spec_calls": ("calls", "server.app.parse_query_spec"),
    "server.admission.shed_calls": (
        "extra", "server.admission.acquire_measure:err.ShedError",
    ),
    "service.accelerator.answer_rows": ("extra", "service.accelerator.answer:rows"),
    "service.accelerator.build_calls": ("calls", "service.accelerator.build"),
    "service.ledger.append_calls": ("calls", "service.ledger.append"),
    "core.solvers.cg_calls": ("calls", "core.solvers.cg"),
    "core.solvers.cg_iters": ("extra", "core.solvers.cg:iters"),
    "linalg.kmatmat_calls": ("calls", "linalg.kmatmat"),
    "optimize.opt_0_calls": ("calls", "optimize.opt_0"),
}

#: The metrics that add up to ``trace.e2e_ms``.
E2E_PARTS = frozenset(
    {"unattributed_ms", "client.late_ms", "server.http.ms", *SELF_MS.values()}
)

#: Every per-layer metric name with its unit, in report order.
UNITS = (
    {
        "trace.e2e_ms": "ms",
        "trace.overhead_ms": "ms",
        "unattributed_ms": "ms",
        "client.late_ms": "ms",
        "server.http.ms": "ms",
        "server.process.cpu_ms_per_req": "ms",
        "server.app.expr_cache_hit_ratio": "ratio",
        "api.planner.compile_hit_ratio": "ratio",
    }
    | {name: "ms" for name in SELF_MS.values()}
    | {name: "count/op" for name in CALLS}
    | {f"service.engine.route_share.{r}": "ratio" for r in ROUTES}
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(
    totals: pb_trace.LayerTotals,
    ops: int,
    e2e_ms: float,
    untraced_e2e_ms: float,
    late_ms: float = 0.0,
    cpu_ms_per_req: float = 0.0,
) -> dict:
    """The per-layer metrics of one traced pass.

    ``e2e_ms`` is the traced end-to-end time per op (for HTTP workloads
    the client-observed latency, from the scheduled send time), and
    ``untraced_e2e_ms`` the same figure from the untraced pass.
    """
    per_op = 1.0 / max(ops, 1)
    out = {name: 1e3 * totals.self_s.get(layer, 0.0) * per_op
           for layer, name in SELF_MS.items()}
    http = 0.0
    if totals.calls.get("server.app.handle"):
        handle_wall_ms = 1e3 * totals.wall_s["server.app.handle"] * per_op
        http = e2e_ms - late_ms - handle_wall_ms
    out["server.http.ms"] = http
    out["client.late_ms"] = late_ms
    out["unattributed_ms"] = e2e_ms - (sum(out.values()))
    out["trace.e2e_ms"] = e2e_ms
    out["trace.overhead_ms"] = e2e_ms - untraced_e2e_ms
    out["server.process.cpu_ms_per_req"] = cpu_ms_per_req
    for name, (source, key) in CALLS.items():
        src = totals.calls if source == "calls" else totals.extra
        out[name] = src.get(key, 0) * per_op
    out["server.app.expr_cache_hit_ratio"] = _ratio(
        totals.extra.get("server.app.expr_cache:hits", 0),
        totals.extra.get("server.app.expr_cache:lookups", 0),
    )
    compiles = totals.extra.get("api.session.compile:calls", 0)
    out["api.planner.compile_hit_ratio"] = _ratio(
        compiles - totals.calls.get("api.planner.compile_expr", 0), compiles
    )
    routed = {r: totals.extra.get(f"service.engine.answer:route.{r}", 0) for r in ROUTES}
    n_routed = sum(routed.values())
    for r in ROUTES:
        out[f"service.engine.route_share.{r}"] = _ratio(routed[r], n_routed)
    return {name: out[name] for name in UNITS}
