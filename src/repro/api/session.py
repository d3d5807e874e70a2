"""The ``Session`` facade: declarative datasets over the serving stack.

A :class:`Session` owns a :class:`~repro.service.QueryService` (registry,
accountant, fitted-strategy memo) and hands out :class:`Dataset` handles
that register data + schema once and then answer *expressions*::

    from repro.api import A, Schema, Session, marginal

    sess = Session(registry=..., accountant=...)
    ds = sess.dataset(
        "adult",
        schema=Schema.from_spec({"age": 75, "sex": ["M", "F"]}),
        data=x,
        epsilon_cap=5.0,
    )
    plan = ds.plan([marginal("age"), A("sex").eq("F")], eps=0.5)
    print(plan.explain())            # routes + ε before any spend
    answers = ds.ask_many([marginal("age"), A("sex").eq("F")], eps=0.5)

Execution defers entirely to the physical layer: ``ask_many`` compiles
and dedups the batch, plans it, then serves it through
:meth:`~repro.service.QueryService.answer` — so answers are exactly what
the matrix-level API returns for the same compiled workload, with
per-query provenance (route taken, ε charged, span-projection flag)
attached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs as _obs
from ..core.measure import Mechanism, get_mechanism
from ..domain import SchemaMismatchError
from ..obs.trace import TRACER as _TRACER
from ..service.accountant import PrivacyAccountant
from ..service.engine import QueryService
from ..service.registry import StrategyRegistry
from .expr import QueryExpr
from .planner import (
    CompiledBatch,
    CompiledQuery,
    Plan,
    compile_batch,
    compile_expr,
    plan_queries,
)
from .schema import Schema

__all__ = ["Answer", "Dataset", "Session"]


@dataclass
class Answer:
    """One answered expression, with serving provenance.

    ``epsilon`` is the debit of the jointly-measured group this query
    rode in (0 for a free hit; the group's single joint debit is
    reported on each of its members, not split).  ``span_projected``
    marks zero-budget answers served by projecting through a cached
    reconstruction's measured span.  ``remaining`` is the dataset's
    budget left after this batch settled (``inf`` with no accountant) —
    the actionable half of the provenance: a caller that sees it shrink
    toward 0 can stop issuing measured queries *before* the next one is
    refused with a :class:`~repro.service.BudgetExceededError`.
    """

    expr: QueryExpr
    values: np.ndarray
    route: str  # "accelerator" | "warm" | "direct" | "cold"
    key: str | None
    epsilon: float
    span_projected: bool
    remaining: float = float("inf")
    #: Trace this answer was served under (None when tracing is off) —
    #: resolvable to the full span tree via ``repro.obs.get_trace``.
    trace_id: str | None = None
    #: Noise mechanism behind the values ("laplace"/"gaussian"): the
    #: mechanism of this batch's measurement for misses, and of the
    #: cached measurement being reused for free hits.
    mechanism: str = "laplace"

    @property
    def value(self) -> float:
        """The scalar answer of a single-row expression."""
        if self.values.size != 1:
            raise ValueError(
                f"expression has {self.values.size} answers; use .values"
            )
        return float(self.values[0])

    def __repr__(self) -> str:
        head = (
            f"{self.values[0]:g}" if self.values.size == 1
            else f"[{self.values.size} values]"
        )
        return (
            f"Answer({self.expr!r} = {head}, route={self.route}, "
            f"eps={self.epsilon:g})"
        )


class Dataset:
    """A registered (data, schema) pair answering declarative queries."""

    def __init__(self, session: "Session", name: str, schema: Schema):
        self.session = session
        self.name = name
        self.schema = schema

    # -- compile / plan (lazy, budget-free) ---------------------------------
    def compile(self, expr: QueryExpr) -> CompiledQuery:
        """Vectorize one expression against this dataset's schema.

        Memoized on the expression object, keyed by schema (expressions
        are immutable once built): replanning or re-asking the same
        expression reuses its compiled matrix, which keeps everything
        memoized *on* that matrix warm too (accelerator range specs,
        gather plans), and the compiled query is dropped with the
        expression.  Its fingerprint also keys the span verdict that
        replanning reuses; answering does not use that memo.
        """
        hit = expr._compiled
        if hit is not None and hit[0] is self.schema:
            return hit[1]
        cq = compile_expr(expr, self.schema)
        expr._compiled = (self.schema, cq)
        return cq

    def compile_many(self, exprs) -> CompiledBatch:
        """Compile a batch, deduping identical queries by fingerprint."""
        return compile_batch(
            exprs, self.schema, compile_one=lambda e, _s: self.compile(e)
        )

    def plan(
        self,
        exprs,
        eps: float | None = None,
        mechanism: str | Mechanism = "laplace",
        delta: float | None = None,
    ) -> Plan:
        """Route a batch without executing it: inspect before you spend.

        ``mechanism``/``delta`` mirror :meth:`ask_many`'s measurement
        options; either way the plan's RMSE columns compare Laplace vs
        Gaussian at the same budget."""
        return plan_queries(
            self.session.service,
            self.name,
            self.compile_many(exprs),
            eps,
            mechanism=get_mechanism(mechanism, delta),
        )

    # -- execution ----------------------------------------------------------
    def ask(
        self,
        expr: QueryExpr,
        eps: float | None = None,
        rng: np.random.Generator | int | None = None,
        deadline=None,
        **run_kwargs,
    ) -> Answer:
        """Answer one expression (free when cached; measured under ``eps``
        otherwise — no ``eps`` raises on a miss before any spend)."""
        return self.ask_many(
            [expr], eps=eps, rng=rng, deadline=deadline, **run_kwargs
        )[0]

    def ask_many(
        self,
        exprs,
        eps: float | None = None,
        rng: np.random.Generator | int | None = None,
        deadline=None,
        mechanism: str | Mechanism = "laplace",
        delta: float | None = None,
        **run_kwargs,
    ) -> list[Answer]:
        """Answer a batch of expressions with per-query provenance.

        Compiles and dedups the batch (repeated expressions are answered
        once and share one ε debit), plans the routing, then serves the
        distinct queries through the physical
        :meth:`~repro.service.QueryService.answer` — hits free, misses
        jointly measured under scalar ``eps`` with the noise mechanism
        ``mechanism``/``delta`` names (resolved here, once).  Extra
        keyword arguments (``exact``, ``method``, ...) forward to the
        measurement pass.
        ``deadline`` (a :class:`repro.server.Deadline` or compatible) is
        threaded down to the engine's stage boundaries; expiry before
        the accountant debit refuses with zero spend.
        """
        mechanism = get_mechanism(mechanism, delta)
        exprs = list(exprs)
        if not exprs:
            return []
        with _TRACER.span(
            "session.ask", dataset=self.name, expressions=len(exprs)
        ):
            if deadline is not None:
                deadline.check("plan")  # compile stage boundary
            with _TRACER.span("plan.compile"):
                batch = self.compile_many(exprs)
            # No separate planning pass: answer() makes (and reports, via
            # QueryAnswer.route) the same routing decisions a Plan
            # predicts, so execution does the span checks and probes
            # exactly once.
            result = self.session.service.answer(
                self.name,
                [cq.matrix for cq in batch.queries],
                eps=eps,
                rng=rng,
                deadline=deadline,
                mechanism=mechanism,
                **run_kwargs,
            )
            trace_id = _TRACER.current_trace_id()
        acct = self.session.service.accountant
        remaining = float("inf") if acct is None else acct.remaining(self.name)
        out: list[Answer] = []
        for orig, pos in enumerate(batch.index_map):
            qa = result.answers[pos]
            out.append(
                Answer(
                    expr=exprs[orig],
                    values=qa.values,
                    route=qa.route,
                    key=qa.key,
                    epsilon=0.0 if qa.hit else result.charged,
                    span_projected=bool(qa.hit),
                    remaining=remaining,
                    trace_id=trace_id,
                    mechanism=qa.mechanism,
                )
            )
        return out

    # -- budget -------------------------------------------------------------
    @property
    def spent(self) -> float:
        acct = self.session.service.accountant
        return 0.0 if acct is None else acct.spent(self.name)

    @property
    def remaining(self) -> float:
        acct = self.session.service.accountant
        return float("inf") if acct is None else acct.remaining(self.name)

    def __repr__(self) -> str:
        return f"Dataset({self.name!r}, schema={self.schema!r})"


class Session:
    """Entry point of the declarative API: datasets + the serving stack.

    Parameters mirror :class:`~repro.service.QueryService` (and an
    existing service can be passed directly via ``service=``); every
    dataset registered through the session answers expressions compiled
    against its own schema.
    """

    def __init__(
        self,
        registry: StrategyRegistry | None = None,
        accountant: PrivacyAccountant | None = None,
        service: QueryService | None = None,
        **service_kwargs,
    ):
        if service is not None and (
            registry is not None or accountant is not None or service_kwargs
        ):
            raise ValueError(
                "pass either an existing service or construction arguments, "
                "not both"
            )
        self.service = service or QueryService(
            registry=registry, accountant=accountant, **service_kwargs
        )
        self._datasets: dict[str, Dataset] = {}

    def dataset(
        self,
        name: str,
        schema: Schema | None = None,
        data: np.ndarray | None = None,
        epsilon_cap: float | None = None,
        policy=None,
    ) -> Dataset:
        """Register (or fetch) a dataset handle.

        ``data`` is the contingency table: either the flat vector over
        the schema's full domain, or the data tensor of shape
        ``schema.domain.shape()`` (flattened in C order — the same
        vectorization the compiled queries use).  ``epsilon_cap``
        registers a pure-ε budget; ``policy`` registers any
        :class:`~repro.privacy.policy.BudgetPolicy` (an (ε, δ) cap or a
        ρ-zCDP cap) instead.
        """
        if name in self._datasets:
            if (
                schema is not None
                or data is not None
                or epsilon_cap is not None
                or policy is not None
            ):
                raise ValueError(
                    f"dataset {name!r} is already registered; fetch it "
                    "without schema/data/epsilon_cap (budget caps are "
                    "managed through the accountant)"
                )
            return self._datasets[name]
        if schema is None or data is None:
            raise SchemaMismatchError(
                f"dataset {name!r} is not registered; pass schema= and data="
            )
        x = np.asarray(data, dtype=np.float64)
        if x.ndim > 1:
            if x.shape != schema.domain.shape():
                raise SchemaMismatchError(
                    f"dataset {name!r}: data tensor has shape {x.shape}, "
                    f"but the schema's domain is "
                    f"{dict(zip(schema.domain.attributes, schema.domain.sizes))}"
                )
            x = x.reshape(-1)
        elif x.shape[0] != schema.domain.size():
            raise SchemaMismatchError(
                f"dataset {name!r}: data vector has length {x.shape[0]}, but "
                f"the schema's full domain "
                f"{dict(zip(schema.domain.attributes, schema.domain.sizes))} "
                f"has size {schema.domain.size()}"
            )
        self.service.add_dataset(name, x, epsilon_cap=epsilon_cap, policy=policy)
        handle = Dataset(self, name, schema)
        self._datasets[name] = handle
        return handle

    def datasets(self) -> list[str]:
        return sorted(self._datasets)

    def __contains__(self, name: str) -> bool:
        return name in self._datasets

    def budget_report(self):
        """The ε-spend view of this session's accountant: per-dataset
        spend/cap/remaining plus the debit timeline, reconstructed from
        the accountant's committed WAL records
        (:class:`repro.obs.spend.SpendReport`).  Raises
        :class:`ValueError` when the session runs without an accountant —
        there is no budget to report on.
        """
        acct = self.service.accountant
        if acct is None:
            raise ValueError(
                "session has no accountant: budget reporting needs the "
                "ε ledger an accountant maintains"
            )
        # ``obs.spend`` resolves through the package's lazy attribute, so
        # importing this module never loads it (``python -m
        # repro.obs.spend`` would otherwise find it already imported).
        return _obs.spend.report_from_accountant(acct)

    def __repr__(self) -> str:
        return f"Session(datasets={self.datasets()}, service={self.service!r})"
