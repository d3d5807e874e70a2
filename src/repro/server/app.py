"""The transport-free request handler behind the HTTP front-end.

:class:`ServerApp` owns a :class:`repro.api.Session` and turns JSON
request payloads into served answers, composing the four robustness
mechanisms:

* every query request carries a :class:`~repro.server.deadline.Deadline`
  threaded down to the engine's stage boundaries — expiry before the
  accountant debit refuses with **zero spend**, expiry after the fsync'd
  debit lets the measurement finish and either delivers the late answer
  (inside a bounded commit grace) or reports the spend as burned.  Never
  a refund;
* the **free path** (every query answerable from cached reconstructions)
  is served inline on the event loop and is *always admitted* — it never
  touches the admission queue, the executor, or the breaker, so cheap
  reads survive total saturation of the measurement path.  Its answers
  are post-processing of x̂, so a repeated free read returns the same
  bytes until the dataset's reconstructions or its remaining budget
  change: the per-shape table (keyed by dataset and canonical spec JSON)
  keeps each shape's last encoded free body, stamped with the dataset's
  reconstruction generation (read *before* the body is computed, so a
  store racing the computation invalidates it) and the ``remaining``
  written in the body (read through the accountant, which syncs other
  processes' WAL records first).  A hit returns the stored bytes after
  the request has been fully validated.  Bodies over
  :data:`FREE_BODY_MAX_BYTES` are not kept, and the table is bypassed
  entirely while ``repro.obs`` tracing is on, since a traced body
  carries its own trace ID.  With metrics on, hits are counted as
  ``route="memo"`` in ``server.requests_total``; they never reach the
  engine, so its counters see only the reads that were computed;
* the **measured path** passes the
  :class:`~repro.server.admission.AdmissionController` (bounded queue +
  per-dataset limiter, structured 429/503 + Retry-After) and runs in a
  bounded thread-pool executor sized to the admission slots;
* the engine routes each request once, in the worker; the request's
  deadline carries the :class:`~repro.server.breaker.CircuitBreaker`,
  which the engine asks only before a cold fit.  While it is open,
  warm/direct misses and free hits still serve; the rest is refused,
  after admission and at zero spend, with ``degraded: true``.
  Budget-exhausted datasets degrade the same way: the measured path is
  refused up front with the remaining ε in the body, the free path keeps
  serving.

Wire query DSL (one JSON object per query)::

    {"marginal": ["age", "sex"]}          # k-way marginal
    {"total": true}                       # grand total
    {"prefix": "age"}                     # prefix sums over one attribute
    {"ranges": "age"}                     # all ranges workload
    {"count": [{"attr": "sex", "eq": "F"},
               {"attr": "age", "between": [30, 40]}]}   # predicate count

Responses are canonical JSON (sorted keys, compact separators — the
WAL's byte-stability discipline applied to the wire), so a 2xx body for
a seeded request is bit-identical across runs and equal to what a direct
in-process :meth:`Session.ask_many` with the same seed returns —
``json.dumps``/``loads`` round-trips float64 exactly.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor

from ..api.expr import A, QueryExpr, count, marginal, prefix, ranges, total
from ..api.session import Session
from ..obs.metrics import REGISTRY as _METRICS
from ..obs.trace import TRACER as _TRACER
from ..core.measure import get_mechanism
from ..service.engine import QueryMiss
from .admission import AdmissionController, ShedError
from .breaker import CircuitBreaker
from .deadline import Deadline, DeadlineExceededError
from .errors import encode_body, error_response

__all__ = ["ServerApp", "parse_query_spec"]

#: Serving cost order, most expensive first — the request-level ``route``
#: label is the priciest route any of its queries took (``"memo"`` for a
#: free read served from the per-shape table).
_ROUTE_RANK = {"cold": 4, "direct": 3, "warm": 2, "accelerator": 1}


def _request_route(answers) -> str:
    """The request-level route label of computed answers."""
    ranked = [a.route for a in answers if a.route in _ROUTE_RANK]
    return max(ranked, key=_ROUTE_RANK.get, default="none")


#: Request shapes the per-shape table holds before it starts over.
MAX_SHAPES = 4096
#: Largest encoded free body the per-shape table keeps (large marginals
#: are recomputed rather than held 4096 times over).
FREE_BODY_MAX_BYTES = 64 * 1024


class _Shape:
    """One entry of the per-shape table: the parsed expressions of a
    request shape and, once it has been served free, ``free`` =
    ``(encoded body, reconstruction generation, remaining)``."""

    __slots__ = ("exprs", "free")

    def __init__(self, exprs: list[QueryExpr]):
        self.exprs = exprs
        self.free = None


def parse_query_spec(spec) -> QueryExpr:
    """One wire-DSL object → one :class:`QueryExpr` (ValueError on junk)."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValueError(
            f"each query must be a single-key object like "
            f'{{"marginal": [...]}}; got {spec!r}'
        )
    (kind, arg), = spec.items()
    if kind == "marginal":
        if not isinstance(arg, list) or not all(
            isinstance(a, str) for a in arg
        ):
            raise ValueError(f"marginal takes a list of attribute names: {arg!r}")
        return marginal(*arg)
    if kind == "total":
        return total()
    if kind == "prefix":
        if not isinstance(arg, str):
            raise ValueError(f"prefix takes one attribute name: {arg!r}")
        return prefix(arg)
    if kind == "ranges":
        if not isinstance(arg, str):
            raise ValueError(f"ranges takes one attribute name: {arg!r}")
        return ranges(arg)
    if kind == "count":
        if not isinstance(arg, list):
            raise ValueError(f"count takes a list of conditions: {arg!r}")
        conds = []
        for c in arg:
            if not isinstance(c, dict) or "attr" not in c:
                raise ValueError(f"count condition needs an 'attr': {c!r}")
            ref = A(c["attr"])
            if "eq" in c:
                conds.append(ref.eq(c["eq"]))
            elif "between" in c:
                lo, hi = c["between"]
                conds.append(ref.between(lo, hi))
            else:
                raise ValueError(
                    f"count condition needs 'eq' or 'between': {c!r}"
                )
        return count(*conds)
    raise ValueError(f"unknown query kind {kind!r}")


class ServerApp:
    """Session + robustness mechanisms behind one async ``handle`` method.

    Transport-free: :mod:`repro.server.http` feeds it parsed requests;
    tests can drive it directly with dict payloads.

    Parameters
    ----------
    session:
        The :class:`repro.api.Session` to serve (datasets are registered
        through :meth:`register` or directly on the session).
    max_measure / max_queue / per_dataset:
        Admission geometry (see :class:`AdmissionController`); the
        measurement executor is sized to ``max_measure``.
    default_timeout / max_timeout:
        Per-request deadline when the client sends none, and the cap on
        what a client may ask for.
    commit_grace:
        How long past its deadline a request with a *committed* debit is
        awaited before its spend is reported burned.  The measurement
        itself always runs to completion either way — the grace bounds
        only how long the waiter holds the connection open.
    breaker:
        Cold-fit circuit breaker (default :class:`CircuitBreaker` with
        its stock thresholds).
    """

    def __init__(
        self,
        session: Session,
        max_measure: int = 2,
        max_queue: int = 8,
        per_dataset: int = 2,
        default_timeout: float = 2.0,
        max_timeout: float = 30.0,
        commit_grace: float = 5.0,
        breaker: CircuitBreaker | None = None,
    ):
        self.session = session
        self.admission = AdmissionController(
            max_measure=max_measure,
            max_queue=max_queue,
            per_dataset=per_dataset,
        )
        self.breaker = breaker or CircuitBreaker()
        self.default_timeout = float(default_timeout)
        self.max_timeout = float(max_timeout)
        self.commit_grace = float(commit_grace)
        self.draining = False
        self._executor = ThreadPoolExecutor(
            max_workers=max_measure, thread_name_prefix="measure"
        )
        # Per-shape table keyed by (dataset, canonical spec JSON): reusing
        # the same QueryExpr objects across requests keeps their compiled
        # queries (and everything memoized on the compiled matrices) warm,
        # and the stored free body makes a repeated free read O(lookup).
        self._exprs: dict[tuple[str, str], _Shape] = {}

    # -- dataset management --------------------------------------------------
    def register(self, name, schema, data, epsilon_cap=None, policy=None):
        """Register a dataset on the underlying session."""
        return self.session.dataset(
            name, schema=schema, data=data, epsilon_cap=epsilon_cap,
            policy=policy,
        )

    def datasets(self) -> list[str]:
        return self.session.datasets()

    # -- lifecycle / introspection endpoints ---------------------------------
    def healthz(self) -> tuple[int, dict, dict]:
        """Liveness: the process is up and the event loop is turning."""
        return 200, {}, {"status": "ok"}

    def readyz(self) -> tuple[int, dict, dict]:
        """Readiness: drained servers and saturated queues report 503 so a
        load balancer routes around them before requests are shed."""
        ready = not self.draining and self.admission.queued < self.admission.max_queue
        body = {
            "status": "ok" if ready else "unavailable",
            "draining": self.draining,
            "queued": self.admission.queued,
            "executing": self.admission.executing,
            "breaker": self.breaker.state,
        }
        return (200 if ready else 503), {}, body

    def metrics_text(self) -> str:
        if _METRICS.enabled:
            _METRICS.gauge("server.breaker_state").set(self.breaker.state_value)
        return _METRICS.render_text()

    # -- request handling ----------------------------------------------------
    async def handle(self, method: str, path: str, payload) -> tuple[int, dict, bytes]:
        """Dispatch one parsed request to ``(status, headers, body_bytes)``."""
        if method == "GET" and path == "/healthz":
            s, h, b = self.healthz()
        elif method == "GET" and path == "/readyz":
            s, h, b = self.readyz()
        elif method == "GET" and path == "/metrics":
            text = self.metrics_text()
            return 200, {"Content-Type": "text/plain; charset=utf-8"}, text.encode()
        elif method == "GET" and path == "/datasets":
            s, h, b = 200, {}, {"datasets": self.datasets()}
        elif method == "POST" and path == "/query":
            s, h, b = await self.handle_query(payload)
        else:
            s, h, b = 404, {}, {
                "code": "not_found",
                "error": f"no route {method} {path}",
                "retryable": False,
            }
        if not isinstance(b, bytes):
            b = encode_body(b)
        return s, {"Content-Type": "application/json", **h}, b

    async def handle_query(self, payload) -> tuple[int, dict, dict | bytes]:
        """Serve one query request; exceptions become the error table's
        structured responses (simulated crashes stay BaseException and
        propagate — the connection dies with no bytes written, exactly
        like a killed process).  A free read served with tracing off
        comes back already encoded, as ``bytes``."""
        t0 = time.perf_counter()
        track = _METRICS.enabled
        route = "none"
        if track:
            _METRICS.gauge("server.inflight").inc()
        try:
            status, headers, body, route = await self._handle_query(payload)
        except ShedError as e:
            status, headers, body = error_response(e)
            if track:
                _METRICS.counter("server.shed_total", reason=e.reason).inc()
        except Exception as e:
            status, headers, body = error_response(e)
        finally:
            if track:
                _METRICS.gauge("server.inflight").inc(-1)
        if track:
            _METRICS.counter(
                "server.requests_total", route=route, status=str(status)
            ).inc()
            _METRICS.histogram("server.request_ms").observe(
                (time.perf_counter() - t0) * 1e3
            )
            _METRICS.gauge("server.breaker_state").set(self.breaker.state_value)
        return status, headers, body

    def _parse_request(self, payload):
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        name = payload.get("dataset")
        if not isinstance(name, str):
            raise ValueError("request needs a 'dataset' string")
        if name not in self.session:
            raise KeyError(name)
        ds = self.session.dataset(name)
        specs = payload.get("queries")
        if not isinstance(specs, list) or not specs:
            raise ValueError("request needs a non-empty 'queries' list")
        cache_key = (
            name,
            json.dumps(specs, sort_keys=True, separators=(",", ":")),
        )
        shape = self._exprs.get(cache_key)
        if shape is None:
            shape = _Shape([parse_query_spec(s) for s in specs])
            if len(self._exprs) >= MAX_SHAPES:
                self._exprs.clear()
            self._exprs[cache_key] = shape
        eps = payload.get("eps")
        if eps is not None:
            eps = float(eps)
            if not eps > 0:
                raise ValueError(f"eps must be positive, got {eps}")
        mechanism = payload.get("mechanism", "laplace")
        if not isinstance(mechanism, str):
            raise ValueError(f"mechanism must be a string, got {mechanism!r}")
        delta = payload.get("delta")
        if delta is not None:
            try:
                delta = float(delta)
            except (TypeError, ValueError):
                raise ValueError(
                    f"delta must be a number, got {delta!r}"
                ) from None
        # get_mechanism checks the name, that only the gaussian mechanism
        # takes a delta, and that 0 < delta < 1.
        mechanism = get_mechanism(mechanism, delta)
        seed = payload.get("seed")
        if seed is not None and not isinstance(seed, int):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        timeout = payload.get("timeout", self.default_timeout)
        timeout = min(float(timeout), self.max_timeout)
        if not timeout > 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        return name, ds, shape, eps, mechanism, seed, timeout

    async def _handle_query(self, payload) -> tuple[int, dict, dict | bytes, str]:
        """``(status, headers, body, route)`` of one request."""
        if self.draining:
            raise ShedError("draining", 503, 1.0)
        name, ds, shape, eps, mechanism, seed, timeout = (
            self._parse_request(payload)
        )
        exprs = shape.exprs
        deadline = Deadline(timeout, breaker=self.breaker)

        # Free path: always admitted, served inline on the event loop.
        # QueryMiss is raised by the engine *before* any budget is touched,
        # so falling through to the measured path costs nothing.
        memo = not _TRACER.enabled
        if memo:
            generation = self.session.service.generation(name)
            raw = self._stored_free_body(name, shape, generation)
            if raw is not None:
                return 200, {}, raw, "memo"
        try:
            with _TRACER.span("server.request", dataset=name, route="free"):
                answers = ds.ask_many(exprs, eps=None)
        except QueryMiss:
            pass
        else:
            body = self._body(name, answers, degraded=False)
            route = _request_route(answers)
            if not memo:
                return 200, {}, body, route
            raw = encode_body(body)
            if len(raw) <= FREE_BODY_MAX_BYTES:
                shape.free = (raw, generation, body.get("remaining"))
            return 200, {}, raw, route

        if eps is None:
            raise ValueError(
                "queries miss every cached reconstruction; pass 'eps' to "
                "measure them (or retry later once cached)"
            )

        # Budget-exhausted degradation: refuse the measured path up front
        # (the body carries the policy's remaining budget in its native
        # unit) instead of burning an executor slot on a charge the
        # accountant would refuse anyway.  The policy-aware check raises
        # the same BudgetExceededError the debit would; the accountant
        # still enforces the cap — this is an optimization, not the
        # enforcement point.
        acct = self.session.service.accountant
        if acct is not None:
            acct.check(name, eps, mechanism=mechanism)

        await self.admission.acquire_measure(name, timeout=deadline.remaining())
        loop = asyncio.get_running_loop()
        fut = loop.run_in_executor(
            self._executor, self._measured, name, ds, exprs, eps,
            mechanism, seed, deadline,
        )
        # The slot is released when the *worker* finishes — not when the
        # waiter gives up — so the executor can never oversubscribe; the
        # exception() read also marks a crashed worker's error retrieved.
        fut.add_done_callback(
            lambda f: (self.admission.release_measure(name), f.exception())
        )
        try:
            answers = await asyncio.wait_for(
                asyncio.shield(fut), deadline.remaining() + 1e-3
            )
        except asyncio.TimeoutError:
            return await self._late(name, deadline, fut)
        body = self._body(name, answers, degraded=False)
        return 200, {}, body, _request_route(answers)

    def _stored_free_body(self, name, shape: _Shape, generation) -> bytes | None:
        """The shape's stored free body, if both its stamps still hold."""
        if shape.free is None:
            return None
        raw, stamped, remaining = shape.free
        if stamped != generation:
            return None
        acct = self.session.service.accountant
        if acct is not None and acct.remaining(name) != remaining:
            return None
        return raw

    async def _late(self, name, deadline, fut) -> tuple[int, dict, dict, str]:
        """The waiter outlived the deadline.  Which side of the ε-spend
        fence the worker is on decides everything."""
        if not deadline.commit_started:
            # No debit can exist: the worker's next stage check raises and
            # nothing was charged.  Refuse free.
            raise DeadlineExceededError(
                deadline.expired_stage or "wire",
                deadline.elapsed(),
                deadline.timeout,
            )
        # The debit is (possibly) durable: the measurement always runs to
        # completion, we just bound how long this waiter holds the
        # connection for the late answer.
        try:
            answers = await asyncio.wait_for(asyncio.shield(fut), self.commit_grace)
        except asyncio.TimeoutError:
            spent = deadline.committed_epsilon
            return 504, {}, {
                "code": "deadline_exceeded",
                "error": (
                    "deadline exceeded after the budget debit committed; "
                    "the spend is burned, not refunded"
                ),
                "retryable": True,
                "burned": True,
                "dataset": name,
                "epsilon_spent": 0.0 if spent is None else spent,
            }, "none"
        body = self._body(name, answers, degraded=False)
        body["late"] = True
        return 200, {}, body, _request_route(answers)

    def _measured(self, name, ds, exprs, eps, mechanism, seed, deadline):
        """Executor-side measured request (worker thread): the root span
        opens here so it parents ``session.ask`` in the thread-local
        tracer."""
        with _TRACER.span("server.request", dataset=name, route="measured"):
            return ds.ask_many(
                exprs, eps=eps, rng=seed, deadline=deadline,
                mechanism=mechanism,
            )

    # -- response assembly ---------------------------------------------------
    def _body(self, name, answers, degraded: bool) -> dict:
        out = [
            {
                "values": [float(v) for v in a.values],
                "route": a.route,
                "epsilon": a.epsilon,
                "key": a.key,
                "span_projected": a.span_projected,
                "mechanism": a.mechanism,
            }
            for a in answers
        ]
        charged = max((a.epsilon for a in answers), default=0.0)
        body = {
            "answers": out,
            "charged": charged,
            "dataset": name,
            "degraded": degraded,
        }
        if self.session.service.accountant is not None:
            body["remaining"] = answers[0].remaining
        tid = answers[0].trace_id if answers else None
        if tid is not None:
            body["trace_id"] = tid
        return body

    # -- shutdown ------------------------------------------------------------
    async def drain(self, timeout: float = 10.0) -> bool:
        """Stop admitting, wait for in-flight measured work, then shut the
        executor down (the flush half: every WAL append an admitted
        request will make has happened once this returns True)."""
        self.draining = True
        give_up = time.monotonic() + timeout
        while (
            self.admission.executing > 0 or self.admission.queued > 0
        ) and time.monotonic() < give_up:
            await asyncio.sleep(0.01)
        drained = self.admission.executing == 0 and self.admission.queued == 0
        self._executor.shutdown(wait=drained)
        return drained
