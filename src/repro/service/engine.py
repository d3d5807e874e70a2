"""The query service: fitted-once strategies serving ad-hoc traffic.

This is the layer between the optimize/measure/reconstruct engines and a
deployment.  A :class:`QueryService` owns datasets (data vectors with
privacy caps), a :class:`~repro.service.registry.StrategyRegistry` of
persisted strategies, and a
:class:`~repro.service.accountant.PrivacyAccountant` gating every
measurement.  The serving rules:

* **SELECT is amortized** — :meth:`QueryService.prepare` resolves a
  workload to a strategy via fingerprint lookup (in-memory memo → disk
  registry → cold ``HDMM.fit``, persisting the result).  Strategy
  selection is data-independent (paper Theorem 7), so it spends no
  budget no matter how often it runs.
* **MEASURE is accounted** — :meth:`QueryService.measure` debits the
  accountant under sequential composition *before any noise is drawn*;
  a sweep that does not fit the dataset's cap raises with the data
  untouched.  Measurement runs through the batched
  :meth:`~repro.core.hdmm.HDMM.run_batch` engine, so an (ε-grid x
  trials) sweep is one multi-RHS solve, and ``exact=True`` keeps the
  bit-for-bit equivalence to the sequential loop.
* **post-processing is free** — every measurement caches its most
  accurate reconstruction x̂, and :meth:`QueryService.query` answers any
  linear query inside the measured span from that cache with **zero**
  accountant debit (Definition 5's post-processing invariance).
  :meth:`QueryService.answer` routes a mixed batch: hits are
  answered free, and the misses are stacked into one ad-hoc union
  workload measured in a single accounted ``run_batch`` pass.
* **hits are O(1) in the domain** — a hit whose query decomposes into
  axis-aligned boxes (:func:`~repro.service.accelerator.range_spec_of`)
  is served from the reconstruction's summed-area
  :class:`~repro.service.accelerator.AcceleratorTable` by a vectorized
  corner gather instead of a structured matvec; tables are built lazily
  per (reconstruction, cube shape), invalidated with the
  reconstruction, and persisted through the registry under its
  durability contracts.  Either way a free hit is route
  ``"accelerator"``: both evaluate exactly ``Q @ x̂``.  The full routing
  order is **accelerator → warm → direct → cold**.
* **small cold misses skip SELECT entirely** — an *unprepared* one-off
  miss batch of at most :data:`DIRECT_MISS_ROWS` query rows (touching
  at most ``DIRECT_MISS_SUPPORT_LIMIT`` domain cells) is not worth a
  full strategy fit: the service measures a sensitivity-1 selection
  matrix over the queries' joint support instead (Laplace on the touched
  cells only), reconstructs by transposition, and caches the result like
  any other measurement so repeated ad-hoc traffic on the same support
  becomes free hits.  A miss union that is already prepared (memo or
  registry — :meth:`QueryService.probe`) is measured through its fitted
  strategy instead: warm beats direct in the routing order, because the
  fitted measurement is more accurate and costs no fit either.
* **refusals are free on every route** — direct, warm and cold misses
  share one accounted tail: every option, solver options included
  (:func:`~repro.core.reconstruct.validate_solver_options`), is checked
  before the accountant's debit, so a request any route would refuse
  spends nothing; solver option names and values are checked before a
  strategy is resolved, so a refused cold request fits nothing either.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import os
import time
from collections import Counter as _RouteCounter
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from ..core.hdmm import HDMM
from ..core.measure import LaplaceMechanism, Mechanism, get_mechanism
from ..core.reconstruct import resolves_to_pinv, validate_solver_options
from ..core.solvers import (
    cg_gram_solve,
    union_gram_solver,
    validate_epsilon,
    validate_positive_int,
)
from ..domain import Domain, SchemaMismatchError
from ..linalg import Dense, Matrix, VStack
from ..workload.logical import as_workload_matrix
from .accelerator import (
    AcceleratorTable,
    load_table,
    range_spec_of,
    store_table,
    strategy_spans_everything,
)
from ..util import faults
from .accountant import PrivacyAccountant
from .registry import StrategyRegistry
from ..obs.metrics import REGISTRY as _METRICS
from ..obs.trace import TRACER as _TRACER

logger = logging.getLogger(__name__)

__all__ = [
    "BatchResult",
    "MissRoute",
    "QueryAnswer",
    "QueryMiss",
    "QueryService",
    "Reconstruction",
    "SchemaMismatchError",
    "ServeResult",
    "in_measured_span",
    "joint_support",
    "selection_matrix",
]

#: Largest joint query support (touched cells) the cold-miss fast path
#: will measure directly.  The limit trades latency, not accuracy: the
#: direct route measures Identity restricted to the support, and a cold
#: fit never does worse than Identity, so a narrow miss goes direct only
#: because it skips the fit.  Beyond the limit the selection strategy
#: stops being cheap — its dense span-check algebra scales with the
#: support — so wide misses take the fitting path regardless of row
#: count.
DIRECT_MISS_SUPPORT_LIMIT = 256

#: Most query rows an unprepared miss batch may total and still take
#: the direct route (see :data:`DIRECT_MISS_SUPPORT_LIMIT`).
DIRECT_MISS_ROWS = 32

#: Relative tolerance of the measured-span membership test.
#: Structured pseudo-inverse paths (notably the marginals algebra's
#: triangular solves) carry ~1e-7 of numerical noise on supported
#: queries, while out-of-span residuals are O(1) — 1e-6 separates the
#: two with orders of magnitude to spare on either side.
SPAN_TOL = 1e-6


class QueryMiss(LookupError):
    """No cached reconstruction can answer the query for free."""


def _as_query_matrix(q: Matrix | np.ndarray) -> Matrix:
    """Normalize an ad-hoc query to an implicit matrix (rows = queries).

    Accepts implicit matrices, raw 1-/2-D arrays, and compiled query
    plans (objects with ``to_workload_matrix()``, e.g. from
    :mod:`repro.api`).
    """
    if isinstance(q, Matrix):
        return q
    if hasattr(q, "to_workload_matrix"):
        return as_workload_matrix(q)[0]
    arr = np.asarray(q, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"query must be a matrix or 1-/2-D array, got {q!r}")
    return Dense(arr)


def selection_matrix(cols: np.ndarray, n: int) -> Matrix:
    """The sensitivity-1 selection matrix over the given support cells —
    the strategy the direct miss path measures (``S⁺ = Sᵀ``).  Shared
    with the planner so expected-error estimates are computed on exactly
    the matrix execution will measure."""
    import scipy.sparse as sp

    from ..linalg.structured import SparseMatrix

    return SparseMatrix(
        sp.csr_matrix(
            (np.ones(cols.size), (np.arange(cols.size), cols)),
            shape=(cols.size, n),
        )
    )


def joint_support(blocks: list[Matrix], n: int) -> np.ndarray:
    """Boolean mask of the domain cells touched by any query row.

    Row-at-a-time via ``rmatvec`` keeps the transient memory O(n):
    densifying a whole block first would allocate rows x n before a
    support limit can reject the batch.
    """
    support = np.zeros(n, dtype=bool)
    for Q in blocks:
        e = np.zeros(Q.shape[0])
        for i in range(Q.shape[0]):
            e[i] = 1.0
            support |= Q.rmatvec(e) != 0
            e[i] = 0.0
    return support


def in_measured_span(A: Matrix, q: Matrix | np.ndarray, tol: float = SPAN_TOL) -> bool:
    """Whether every row of ``q`` lies in the row space of strategy ``A``.

    Queries in ``rowspace(A)`` are exactly those the least-squares
    reconstruction answers with bounded, data-independent error — the
    queries a cached x̂ can serve for free.  The membership test projects
    ``qᵀ`` through ``A⁺A = (AᵀA)⁺(AᵀA)`` using the strategy's own
    structured machinery (structured pseudo-inverse, a union Gram solver
    the probe showed exact, or batched CG — which converges to the
    pseudo-inverse solve because Krylov iterates stay in
    ``range(AᵀA)``), and accepts
    when the projection residual is below ``tol`` relative to the query
    norm.  Full-row-rank strategies (anything containing a scaled
    identity, e.g. every p-Identity product) span everything.
    """
    Q = _as_query_matrix(q)
    if Q.shape[1] != A.shape[1]:
        return False
    Qt = np.ascontiguousarray(Q.dense().T)  # n x k
    if resolves_to_pinv(A, "auto"):
        proj = A.pinv().matmat(A.matmat(Qt))
    else:
        B = A.gram().matmat(Qt)
        solver = union_gram_solver(A)
        if solver is not None and solver.exact:
            proj = solver.inverse.matmat(B)
        else:
            # Plain CG: its iterates stay in range(AᵀA), so it converges
            # to the pseudo-inverse projection even on a singular Gram.
            # Preconditioned by the union solver it would converge to
            # the M-norm-minimal solution instead, off the projection
            # by a null-space part whenever a rank-deficient union
            # still factors.
            proj = cg_gram_solve(A.gram(), B).x
    scale = np.maximum(np.abs(Qt).sum(axis=0), 1.0)
    return bool(np.max(np.abs(proj - Qt).max(axis=0) / scale) <= tol)


@dataclass
class ServeResult:
    """Outcome of one accounted measurement pass.

    ``answers``/``x_hat`` carry :meth:`~repro.core.hdmm.HDMM.run_batch`
    sweep shapes — ``(len(eps_grid), trials, ·)``.
    """

    answers: np.ndarray
    x_hat: np.ndarray
    key: str
    eps: np.ndarray
    trials: int
    charged: float
    loss: float | None
    from_registry: bool
    #: Trace this measurement was recorded under (None when tracing off).
    trace_id: str | None = None
    #: Noise mechanism that produced the measurements.
    mechanism: str = "laplace"


@dataclass
class QueryAnswer:
    """One served ad-hoc query.

    ``hit`` marks a zero-budget answer from a cached reconstruction;
    ``key`` names the strategy fingerprint whose measurement produced the
    reconstruction used; ``route`` records which serving path produced
    the answer (``"accelerator"`` / ``"warm"`` / ``"direct"`` /
    ``"cold"``) — the provenance the declarative layer surfaces per
    query.  Every free hit is ``"accelerator"``, whether ``Q @ x̂`` was
    evaluated by summed-area corner gather or structured matvec.
    """

    values: np.ndarray
    hit: bool
    key: str | None = None
    route: str | None = None
    #: Trace this answer was served under (None when tracing off).
    trace_id: str | None = None
    #: Mechanism whose noise is in the answer ("laplace"/"gaussian" for
    #: fresh measurements; hits inherit the cached measurement's).
    mechanism: str = "laplace"


@dataclass
class MissRoute:
    """The routing decision for one miss batch — shared by the planner.

    ``route`` is ``"warm"`` (strategy already in memo/registry),
    ``"direct"`` (small unprepared batch with narrow support: selection
    measurement, no fit) or ``"cold"`` (fitting template).  For the
    direct route ``support_cols`` carries the joint-support cells the
    selection matrix will measure (possibly empty: an all-zero batch is
    answered free).  Computing a route never touches data or budget.
    """

    route: str
    key: str | None
    strategy: Matrix | None
    loss: float | None
    support_cols: np.ndarray | None = None


@dataclass
class BatchResult:
    """A served query batch: per-query answers plus the joint debit."""

    answers: list[QueryAnswer]
    charged: float
    hits: int
    misses: int
    trace_id: str | None = None


@dataclass
class Reconstruction:
    """A cached post-measurement reconstruction: the free-serving asset.

    ``key`` is the fingerprint of the strategy whose measurement produced
    ``x_hat``; ``eps`` the budget that measurement spent (higher ε =
    more accurate cache).  Queries in ``strategy``'s measured span are
    answered from ``x_hat`` at zero additional budget.
    """

    key: str
    strategy: Matrix
    x_hat: np.ndarray
    eps: float
    #: Mechanism of the measurement that produced x̂: provenance, and what
    #: the planner prices a hit under (serving from x̂ is post-processing
    #: either way).
    mechanism: Mechanism = LaplaceMechanism()


#: Source of reconstruction generations.  Process-wide, so stores on
#: concurrent executor threads never draw the same value.
_GENERATIONS = itertools.count()


@dataclass
class _DatasetState:
    x: np.ndarray
    reconstructions: dict[str, Reconstruction] = field(default_factory=dict)
    #: Redrawn after every store into ``reconstructions``: a free answer
    #: computed after reading it is current while it is unchanged.
    generation: int = field(default_factory=lambda: next(_GENERATIONS))
    #: (reconstruction key, cube shape) → summed-area table over its x̂.
    #: Entries are dropped whenever the reconstruction is replaced.
    accel: dict = field(default_factory=dict)


class QueryService:
    """Serve linear queries from persisted strategies and cached x̂.

    Parameters
    ----------
    registry:
        Strategy store shared across processes; ``None`` keeps fitted
        strategies in memory only.
    accountant:
        Budget gate; ``None`` disables accounting (useful for synthetic
        benchmarks — never for real data).
    restarts, rng, fit_kwargs:
        Forwarded to :class:`~repro.core.hdmm.HDMM` for cold fits.
    template:
        Template-class tag folded into registry keys (strategies fitted
        under different templates never collide).
    """

    def __init__(
        self,
        registry: StrategyRegistry | str | os.PathLike | None = None,
        accountant: PrivacyAccountant | None = None,
        restarts: int = 25,
        rng: np.random.Generator | int | None = None,
        template: str = "opt_hdmm",
        fit_kwargs: dict | None = None,
    ):
        # Every constructor argument is validated here, with the failure
        # naming the argument — a service wired up wrong must refuse to
        # start, not fail deep inside its first request (possibly after
        # budget was spent).  A path-like ``registry`` is convenience for
        # ``StrategyRegistry(path)``; the construction itself verifies the
        # directory exists (or is creatable) and is writable.
        if isinstance(registry, (str, os.PathLike)):
            registry = StrategyRegistry(registry)
        elif registry is not None and not isinstance(registry, StrategyRegistry):
            raise TypeError(
                "registry must be a StrategyRegistry, a directory path, or "
                f"None, got {type(registry).__name__}"
            )
        if accountant is not None and not isinstance(
            accountant, PrivacyAccountant
        ):
            raise TypeError(
                "accountant must be a PrivacyAccountant or None, got "
                f"{type(accountant).__name__} (to disable accounting — "
                "synthetic benchmarks only — pass None explicitly)"
            )
        self.registry = registry
        self.accountant = accountant
        self.restarts = validate_positive_int("restarts", restarts)
        self.rng = np.random.default_rng(rng)
        self.template = template
        self.fit_kwargs = dict(fit_kwargs or {})
        self._datasets: dict[str, _DatasetState] = {}
        self._prepared: dict[str, tuple[Matrix, float | None]] = {}

    # -- datasets ----------------------------------------------------------
    def add_dataset(
        self,
        name: str,
        x: np.ndarray,
        epsilon_cap: float | None = None,
        policy=None,
    ) -> None:
        """Register a data vector; ``epsilon_cap`` (a pure-ε cap) or
        ``policy`` (any :class:`~repro.privacy.policy.BudgetPolicy`, e.g.
        an (ε, δ) or ρ-zCDP cap) also registers its budget."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError(f"data vector must be 1-D, got shape {x.shape}")
        self._datasets[name] = _DatasetState(x=x)
        if epsilon_cap is not None or policy is not None:
            if self.accountant is None:
                raise ValueError(
                    "a budget cap was given but the service has no accountant"
                )
            self.accountant.register(name, epsilon_cap, policy=policy)

    def _dataset(self, name: str) -> _DatasetState:
        if name not in self._datasets:
            raise KeyError(f"unknown dataset {name!r}; call add_dataset first")
        return self._datasets[name]

    # -- SELECT (amortized, budget-free) ------------------------------------
    def probe(
        self,
        workload,
        domain: Domain | None = None,
    ) -> tuple[str, Matrix | None, float | None]:
        """Resolve a workload to a *warm* strategy without ever fitting.

        Returns ``(key, strategy, loss)`` with ``strategy=None`` when
        neither the in-memory memo nor the registry holds one — the
        planner's view of the routing table: a non-``None`` strategy
        means the workload serves without a cold ``HDMM.fit``.  A
        registry hit is memoized, so probing is idempotent and cheap.
        A persisted entry that fails its checksum is quarantined by the
        registry and surfaces here as a plain miss — the request falls
        through to a cold fit (which re-persists a good copy) instead of
        crashing.  Never touches data or budget.
        """
        workload, domain = as_workload_matrix(workload, domain)
        if self.registry is not None:
            key = self.registry.key_for(
                workload, domain=domain, template=self.template
            )
        else:
            from .fingerprint import workload_fingerprint

            key = workload_fingerprint(
                workload, domain=domain, template=self.template
            )
        if key in self._prepared:
            strategy, loss = self._prepared[key]
            return key, strategy, loss
        if self.registry is not None:
            record = self.registry.get(
                workload, domain=domain, template=self.template
            )
            if record is not None:
                self._prepared[key] = (record.strategy, record.loss)
                return key, record.strategy, record.loss
        return key, None, None

    def prepare(
        self,
        workload,
        domain: Domain | None = None,
        deadline=None,
    ) -> tuple[str, Matrix, float | None, bool]:
        """Resolve a workload to a serve-ready strategy.

        Returns ``(key, strategy, loss, from_registry)``.  Resolution
        order: in-memory memo → registry → cold fit (persisted back to
        the registry).  Never touches data or budget.

        A cold fit runs inside ``deadline.fit()`` (duck-typed, see
        :meth:`repro.server.deadline.Deadline.fit`): the request's
        breaker, then the ``fit`` stage on entry and exit (a fit that
        blew the budget is still memoized and persisted: the *next*
        request gets it warm).  Refusals are free: :meth:`measure`
        prepares before it charges.
        """
        workload, domain = as_workload_matrix(workload, domain)
        key, strategy, loss = self.probe(workload, domain=domain)
        if strategy is not None:
            return key, strategy, loss, True
        mech = HDMM(restarts=self.restarts, rng=self.rng)
        with nullcontext() if deadline is None else deadline.fit():
            t0 = time.perf_counter()
            with _TRACER.span("select.fit", key=key[:12]):
                # Latency/kill fault point for the serving edge's chaos
                # tests (a slow or dying optimizer, not a broken one).
                faults.check("engine.fit")
                mech.fit(workload, **self.fit_kwargs)
            loss = mech.result.loss
            logger.info(
                "cold-fitted strategy %s in %.3fs (loss %s)",
                key[:12],
                time.perf_counter() - t0,
                loss,
            )
            if _METRICS.enabled:
                _METRICS.counter("service.cold_fits_total").inc()
            if self.registry is not None:
                self.registry.put(
                    workload,
                    mech.strategy,
                    loss=loss,
                    domain=domain,
                    template=self.template,
                )
            self._prepared[key] = (mech.strategy, loss)
        return key, mech.strategy, loss, False

    # -- MEASURE (accounted) -------------------------------------------------
    def measure(
        self,
        dataset: str,
        workload,
        eps: float | np.ndarray,
        trials: int = 1,
        rng: np.random.Generator | int | None = None,
        domain: Domain | None = None,
        stage: str = "",
        cache: bool = True,
        deadline=None,
        mechanism: str | Mechanism = "laplace",
        delta: float | None = None,
        exact: bool = False,
        **solver_options,
    ) -> ServeResult:
        """Run an accounted (ε-grid x trials) measurement sweep.

        The accountant is debited ``trials * Σ eps`` (sequential
        composition) *before* any noise is drawn; on
        :class:`~repro.service.accountant.BudgetExceededError` the data
        is untouched.  ``mechanism``/``delta`` are resolved once
        (:func:`~repro.core.measure.get_mechanism`): ``"gaussian"`` draws
        Gaussian noise calibrated through zCDP at ``delta`` (default
        :data:`~repro.core.privacy.DEFAULT_DELTA`) and debits a v2
        record carrying the per-trial δ and ρ totals alongside the same
        ε.  ``exact`` and the solver options (``method``, ``atol``,
        ``btol``, ``maxiter``, ``rtol``) forward to
        :meth:`~repro.core.hdmm.HDMM.run_batch`: ``exact=True`` runs the
        sequential single-shot loop itself, so its answers are
        bit-identical to that loop at the same seeds for every strategy
        class; the default batched pass agrees with it to solver
        tolerance.  An unknown option name or an out-of-range value
        raises before the strategy is resolved (a cold request fits
        nothing), and ``method="pinv"`` on a union strategy raises before
        the debit: either way nothing is spent.

        With ``cache=True`` the reconstruction of the highest-ε first
        trial is kept for zero-budget :meth:`query` serving — unless a
        higher-ε (more accurate) reconstruction for the same strategy is
        already cached, which is retained instead.
        """
        return self._measure_impl(
            dataset,
            workload,
            eps,
            trials=trials,
            rng=rng,
            domain=domain,
            stage=stage,
            cache=cache,
            deadline=deadline,
            mechanism=get_mechanism(mechanism, delta),
            exact=exact,
            # Always passed, so a caller's own support= is refused as
            # a duplicate instead of selecting the direct route.
            support=None,
            **solver_options,
        )

    def _measure_impl(
        self,
        dataset: str,
        workload,
        eps: float | np.ndarray,
        trials: int = 1,
        rng: np.random.Generator | int | None = None,
        domain: Domain | None = None,
        stage: str = "",
        cache: bool = True,
        deadline=None,
        mechanism: Mechanism = LaplaceMechanism(),
        exact: bool = False,
        support: np.ndarray | None = None,
        **solver_options,
    ) -> ServeResult:
        """The accounted tail of every measurement, fitted or direct.

        With ``support=None`` the workload is measured through its
        fitted strategy (:meth:`prepare`, then one ``run_batch`` pass).
        Otherwise this is the cold-miss direct route: the strategy is the
        sensitivity-1 selection matrix ``S`` of the ``support`` cells
        (:func:`selection_matrix`), measured once under ``eps`` and
        reconstructed by a scatter (``S⁺ = Sᵀ``); its x̂ is cached under
        a support-derived key, so identical ad-hoc traffic later hits for
        free.  Both routes check every option before the debit, pass the
        same ε-spend fence, store x̂ under the same keep-the-higher-ε
        rule, and are recorded alike: one ``service.measure`` span and
        one ``service.measures_total`` count per call.
        """
        with _TRACER.span("service.measure", dataset=dataset, stage=stage):
            ds = self._dataset(dataset)
            workload, domain = as_workload_matrix(workload, domain)
            eps_arr = np.atleast_1d(validate_epsilon(eps))
            if eps_arr.ndim != 1:
                raise ValueError(
                    f"eps must be a scalar or 1-D grid, got shape {eps_arr.shape}"
                )
            trials = validate_positive_int("trials", trials)
            total = mechanism.cost(eps_arr, trials).epsilon
            # Every cheap precondition runs before the debit: a programming
            # error (wrong dataset/workload pairing, a misspelled or
            # out-of-range option) must not burn budget.
            if workload.shape[1] != ds.x.shape[0]:
                raise SchemaMismatchError(
                    f"workload domain size {workload.shape[1]} does not match "
                    f"dataset {dataset!r}, whose data vector has length "
                    f"{ds.x.shape[0]}"
                    + (
                        " (expected domain "
                        f"{dict(zip(domain.attributes, domain.sizes))})"
                        if domain is not None
                        else ""
                    )
                )
            # Option names and values need no strategy: refused before
            # prepare, a cold request fits nothing.
            validate_solver_options(None, **solver_options)
            if support is None:
                if deadline is not None:
                    deadline.check("warm")  # registry probe/load stage boundary
                with _TRACER.span("select.prepare"):
                    key, strategy, loss, from_registry = self.prepare(
                        workload, domain=domain, deadline=deadline
                    )
            else:
                key = f"direct:{hashlib.sha256(support.tobytes()).hexdigest()[:16]}"
                strategy = selection_matrix(support, ds.x.shape[0])
                loss, from_registry = None, False
                if not support.size:
                    # All-zero queries: the answer is the constant 0 whatever
                    # the data — pure post-processing.  Nothing is charged,
                    # and the cached empty reconstruction is exact (ε = ∞).
                    eps_arr = np.full(1, np.inf)
                    total = 0.0
            validate_solver_options(strategy, **solver_options)  # pinv on a union

            if self.accountant is not None and total > 0:
                if deadline is not None:
                    # The ε-spend fence (see repro.server.deadline): the last
                    # budget check a deadline can ever fail happens *here*,
                    # while refusal is still free.  begin_commit() flips the
                    # deadline into possibly-committed before the WAL append
                    # inside charge(); a cap refusal or lock timeout below
                    # raises strictly before that append, and the server maps
                    # those exceptions explicitly, so the conservative flag is
                    # never read on that path.
                    deadline.check("charge")
                    deadline.begin_commit()
                with _TRACER.span("accountant.charge", epsilon=total):
                    self.accountant.charge(
                        dataset,
                        eps_arr,
                        stage=stage or f"measure:{key[:8]}",
                        mechanism=mechanism,
                        trials=trials,
                    )
                if deadline is not None:
                    deadline.mark_committed(total)

            if support is None:
                mech = HDMM(restarts=self.restarts, rng=self.rng)
                mech.workload = workload
                mech.strategy = strategy
                with _TRACER.span(
                    "measure.run_batch", grid=len(eps_arr), trials=trials
                ):
                    # Post-commit kill/latency point: a crash or stall here is
                    # the burned-budget case the WAL invariant exists for.
                    faults.check("engine.measure.noise")
                    answers, x_hat = mech.run_batch(
                        ds.x,
                        eps_arr,
                        trials=trials,
                        rng=rng,
                        return_data_vector=True,
                        mechanism=mechanism,
                        exact=exact,
                        **solver_options,
                    )
            else:
                x_hat = np.zeros((1, 1, ds.x.shape[0]))
                if support.size:
                    faults.check("engine.measure.noise")
                    # S⁺ = Sᵀ for a selection matrix: x̂ is the scatter of y
                    x_hat[0, 0, support] = mechanism.measure(
                        strategy, ds.x, float(eps_arr[0]), rng
                    )
                answers = np.asarray(workload.matvec(x_hat[0, 0])).reshape(1, 1, -1)
            if cache:
                best = int(np.argmax(eps_arr))
                existing = ds.reconstructions.get(key)
                if existing is None or float(eps_arr[best]) >= existing.eps:
                    ds.reconstructions[key] = Reconstruction(
                        key=key,
                        strategy=strategy,
                        x_hat=np.ascontiguousarray(x_hat[best, 0]),
                        eps=float(eps_arr[best]),
                        mechanism=mechanism,
                    )
                    self._invalidate_tables(ds, key)
                    ds.generation = next(_GENERATIONS)
            result = ServeResult(
                answers=answers,
                x_hat=x_hat,
                key=key,
                eps=eps_arr,
                trials=trials,
                charged=total,
                loss=loss,
                from_registry=from_registry,
                trace_id=_TRACER.current_trace_id(),
                mechanism=mechanism.name,
            )
        if _METRICS.enabled:
            _METRICS.counter("service.measures_total", dataset=dataset).inc()
        return result

    # -- free post-processing ------------------------------------------------
    def _find_cover(
        self,
        ds: _DatasetState,
        Q: Matrix,
        fingerprint: str | None = None,
    ) -> Reconstruction | None:
        """Newest cached reconstruction whose measured span contains Q.

        Span membership is established as cheaply as possible: the
        structural full-rank certificate
        (:func:`~repro.service.accelerator.strategy_spans_everything`)
        first — a certified strategy spans every query, no algebra at
        all — then, for queries carrying a compile-time ``fingerprint``,
        a per-(strategy, fingerprint) memo of the projection verdict.
        Only planning (:meth:`probe_hit`) passes a fingerprint, so
        repeated planning pays the ~0.25 ms :func:`in_measured_span`
        projection at most once per query shape; :meth:`answer` passes
        none and projects every query it does not certify.
        The certificate choosing a reconstruction never changes *which*
        one is chosen: certified ⟹ the projection test would accept too.
        """
        for recon in reversed(list(ds.reconstructions.values())):
            if Q.shape[1] != recon.strategy.shape[1]:
                continue
            if strategy_spans_everything(recon.strategy):
                return recon
            if fingerprint is not None:
                memo_key = f"span:{fingerprint}"
                memo = recon.strategy.cache_get(memo_key)
                if memo is None:
                    memo = recon.strategy.cache_set(
                        memo_key,
                        in_measured_span(recon.strategy, Q),
                    )
                if memo:
                    return recon
                continue
            if in_measured_span(recon.strategy, Q):
                return recon
        return None

    def _serve_hit(
        self, dataset: str, ds: _DatasetState, Q: Matrix, recon: Reconstruction
    ) -> QueryAnswer:
        """Answer a free hit, via the summed-area table when the query
        decomposes into boxes, else the structured matvec.  Both evaluate
        exactly ``Q @ x̂``, so both are route ``"accelerator"``."""
        spec = range_spec_of(Q)
        if spec is not None:
            table = self._accel_table(dataset, ds, recon, spec.shape)
            values = table.answer(spec)
        else:
            values = np.asarray(Q.matvec(recon.x_hat)).reshape(-1)
        return QueryAnswer(
            values=values,
            hit=True,
            key=recon.key,
            route="accelerator",
            mechanism=recon.mechanism.name,
        )

    def _accel_table(
        self, dataset: str, ds: _DatasetState, recon: Reconstruction, shape
    ) -> AcceleratorTable:
        """The (reconstruction, cube shape) summed-area table: in-memory
        cache → registry (checksum-verified; corrupt or stale entries
        come back ``None``) → build from x̂ and persist best-effort."""
        k = (recon.key, shape)
        table = ds.accel.get(k)
        if table is None:
            if self.registry is not None:
                table = load_table(self.registry, dataset, recon, shape)
            if table is None:
                table = AcceleratorTable(recon.x_hat, shape)
                if self.registry is not None:
                    store_table(self.registry, dataset, recon, shape, table)
            ds.accel[k] = table
        return table

    def _invalidate_tables(self, ds: _DatasetState, key: str) -> None:
        """Drop in-memory tables of a replaced reconstruction.  Persisted
        tables self-invalidate: they carry the x̂ content digest, so a
        stale load is ignored and overwritten on the next eligible hit."""
        for k in [k for k in ds.accel if k[0] == key]:
            del ds.accel[k]

    def probe_hit(
        self,
        dataset: str,
        q: Matrix | np.ndarray,
        fingerprint: str | None = None,
    ) -> str | None:
        """The planner's hit probe: the covering reconstruction's key.

        ``None`` when no cached reconstruction spans ``q``; else the key
        of the one :meth:`answer` would serve it from, on route
        ``"accelerator"``.  ``fingerprint`` (from a compiled query)
        memoizes the span projection across planning passes.  Spends no
        budget and records nothing.
        """
        recon = self._find_cover(
            self._dataset(dataset), _as_query_matrix(q), fingerprint=fingerprint
        )
        return None if recon is None else recon.key

    def generation(self, dataset: str) -> int:
        """Stamp of ``dataset``'s cached reconstructions.  It changes after
        every store, so a free answer computed after reading it is stale
        once the stamp differs."""
        return self._dataset(dataset).generation

    def cached_reconstruction(
        self, dataset: str, key: str
    ) -> Reconstruction | None:
        """The cached :class:`Reconstruction` under ``key``, if any."""
        return self._dataset(dataset).reconstructions.get(key)

    def route_misses(self, blocks: list[Matrix]) -> MissRoute:
        """Decide the serving path of a miss batch — the single routing
        policy both :meth:`answer` and the declarative planner consult,
        so a plan's routes are by construction what execution does.

        Cheapest first: a **warm** strategy for the exact miss union
        (memo or registry — more accurate than per-cell measurement,
        never fits) → the **direct** selection measurement for a small
        unprepared batch whose joint support fits
        :data:`DIRECT_MISS_SUPPORT_LIMIT` → the **cold** fitting
        template.  Budget-free and side-effect-free apart from memoizing
        a registry hit.
        """
        key = None
        # Warm is impossible with no registry and an empty memo — skip
        # the canonicalize-and-hash of the miss union (O(rows x n) for
        # dense ad-hoc queries) that probing would spend finding out.
        if self.registry is not None or self._prepared:
            W_miss = blocks[0] if len(blocks) == 1 else VStack(blocks)
            key, strategy, loss = self.probe(W_miss)
            if strategy is not None:
                return MissRoute("warm", key, strategy, loss)
        rows = sum(Q.shape[0] for Q in blocks)
        if 0 < rows <= DIRECT_MISS_ROWS:
            cols = np.flatnonzero(joint_support(blocks, blocks[0].shape[1]))
            if cols.size <= DIRECT_MISS_SUPPORT_LIMIT:
                return MissRoute("direct", None, None, None, cols)
        return MissRoute("cold", key, None, None)

    def query(
        self,
        dataset: str,
        q: Matrix | np.ndarray,
        eps: float | None = None,
        rng: np.random.Generator | int | None = None,
        stage: str = "",
        **run_kwargs,
    ) -> QueryAnswer:
        """Answer a single linear query — free when cached, else measured.

        A batch of one through :meth:`answer`, which routes it: free from
        the newest cached reconstruction whose measured span contains the
        query (Definition 5 post-processing: no accountant debit), else
        down the same miss path as any batch — so a cold single query
        gets the direct-measure fast path and its support-keyed caching.
        With no ``eps``, a miss raises :class:`QueryMiss` before touching
        the budget — callers decide whether to spend.
        """
        return self.answer(
            dataset, [q], eps=eps, rng=rng, stage=stage, **run_kwargs
        ).answers[0]

    def answer(
        self,
        dataset: str,
        queries,
        eps: float | None = None,
        rng: np.random.Generator | int | None = None,
        stage: str = "",
        deadline=None,
        mechanism: str | Mechanism = "laplace",
        delta: float | None = None,
        **run_kwargs,
    ) -> BatchResult:
        """Serve a batch of ad-hoc queries: free hits, one accounted pass
        for the misses.

        Every query answerable from a cached reconstruction is served
        with zero debit.  The misses are stacked into one union workload
        and routed through the cheapest remaining path, in order:

        1. **warm strategy** — if the miss union is already prepared (in
           the memo or the registry), it is measured through that fitted
           strategy: more accurate than per-cell measurement, and never
           triggers a fit;
        2. **direct measurement** — an unprepared miss batch totalling at
           most :data:`DIRECT_MISS_ROWS` query rows whose joint
           support does not exceed :data:`DIRECT_MISS_SUPPORT_LIMIT`
           cells takes the cold-miss fast path: a selection measurement
           on the joint query support, no strategy fit, and a
           closed-form, deterministic reconstruction (solver options
           have nothing to configure there);
        3. **cold fit** — everything else runs the fitting template and
           is measured through one
           :meth:`~repro.core.hdmm.HDMM.run_batch` call under ``eps``.
        Either way sequential composition debits ``eps`` once for the
        whole miss batch — jointly measured, jointly accounted.  ``eps``
        must be a scalar and the pass runs one trial: each miss query
        gets exactly one answer, so there is no grid to choose from.
        With no ``eps`` and at least one miss, raises :class:`QueryMiss`
        before touching the budget.  ``mechanism``/``delta`` are resolved
        once (:func:`~repro.core.measure.get_mechanism`) and measure the
        misses on every route.  Keyword arguments are :meth:`measure`'s
        options; every route checks all of them before the debit, so an
        option any route would refuse raises with nothing spent.
        """
        if eps is not None and np.ndim(eps) != 0:
            raise ValueError(
                "answer() measures misses in a single (eps, trial) cell; "
                f"eps must be a scalar, got shape {np.shape(eps)}"
            )
        if "trials" in run_kwargs:
            raise ValueError(
                "answer() does not accept trials; use measure() for sweeps"
            )
        run_kwargs["mechanism"] = get_mechanism(mechanism, delta)
        ds = self._dataset(dataset)
        mats = [_as_query_matrix(q) for q in queries]
        n = ds.x.shape[0]
        for Q in mats:
            if Q.shape[1] != n:
                raise SchemaMismatchError(
                    f"query over {Q.shape[1]} domain cells does not match "
                    f"dataset {dataset!r}, whose data vector has length {n}"
                )
        t0 = time.perf_counter() if _METRICS.enabled else 0.0
        with _TRACER.span(
            "service.answer", dataset=dataset, queries=len(mats)
        ):
            result = self._answer_impl(
                dataset, ds, mats, eps, rng, stage, run_kwargs,
                deadline=deadline,
            )
            tid = _TRACER.current_trace_id()
        if tid is not None:
            result.trace_id = tid
            for qa in result.answers:
                qa.trace_id = tid
        if _METRICS.enabled:
            by_route = _RouteCounter(
                (qa.route, qa.key, qa.hit) for qa in result.answers
            )
            for (route, key, hit), count in by_route.items():
                _METRICS.counter(
                    "service.answers_total", dataset=dataset, route=route
                ).inc(count)
                if hit:
                    _METRICS.counter(
                        "service.support_hits", dataset=dataset, key=key
                    ).inc(count)
            _METRICS.histogram("service.answer_ms", dataset=dataset).observe(
                (time.perf_counter() - t0) * 1e3
            )
        return result

    def _answer_impl(
        self,
        dataset: str,
        ds: _DatasetState,
        mats: list[Matrix],
        eps: float | None,
        rng: np.random.Generator | int | None,
        stage: str,
        run_kwargs: dict,
        deadline=None,
    ) -> BatchResult:
        answers: list[QueryAnswer | None] = [None] * len(mats)
        miss_idx: list[int] = []
        t0 = time.perf_counter() if _METRICS.enabled else 0.0
        with _TRACER.span("serve.hits") as hits_span:
            for i, Q in enumerate(mats):
                recon = self._find_cover(ds, Q)
                if recon is not None:
                    answers[i] = self._serve_hit(dataset, ds, Q, recon)
                else:
                    miss_idx.append(i)
            if hits_span is not None:
                hits_span.attrs["hits"] = len(mats) - len(miss_idx)
        if _METRICS.enabled and len(miss_idx) < len(mats):
            # The hit stage of a batch with at least one free hit.
            _METRICS.histogram("accelerator.gather_ms", dataset=dataset).observe(
                (time.perf_counter() - t0) * 1e3
            )

        charged = 0.0
        if miss_idx:
            if eps is None:
                raise QueryMiss(
                    f"{len(miss_idx)} queries miss the reconstruction cache "
                    "and no eps was provided to measure them"
                )
            blocks = [mats[i] for i in miss_idx]
            if deadline is not None:
                deadline.check("plan")  # routing-decision stage boundary
            with _TRACER.span("plan.route", misses=len(miss_idx)) as rspan:
                mroute = self.route_misses(blocks)
                if rspan is not None:
                    rspan.attrs["route"] = mroute.route
            W_miss = blocks[0] if len(blocks) == 1 else VStack(blocks)
            with _TRACER.span("serve.measure", route=mroute.route):
                if mroute.route == "direct":
                    # A selection measurement of the joint query support
                    # instead of a strategy fit for a one-off.  Solver
                    # options are still checked, though the closed-form
                    # scatter (S⁺ = Sᵀ) has no solver to configure.
                    result = self._measure_impl(
                        dataset,
                        W_miss,
                        eps,
                        rng=rng,
                        stage=stage or "answer:direct",
                        deadline=deadline,
                        support=mroute.support_cols,
                        **run_kwargs,
                    )
                    route = "direct"
                else:
                    result = self.measure(
                        dataset,
                        W_miss,
                        eps,
                        rng=rng,
                        stage=stage or "answer:misses",
                        deadline=deadline,
                        **run_kwargs,
                    )
                    route = "warm" if result.from_registry else "cold"
            charged = result.charged
            flat = np.asarray(result.answers).reshape(-1)
            offset = 0
            for i in miss_idx:
                rows = mats[i].shape[0]
                answers[i] = QueryAnswer(
                    values=flat[offset : offset + rows],
                    hit=False,
                    key=result.key,
                    route=route,
                    mechanism=result.mechanism,
                )
                offset += rows
        return BatchResult(
            answers=list(answers),  # type: ignore[arg-type]
            charged=charged,
            hits=len(mats) - len(miss_idx),
            misses=len(miss_idx),
        )

    def reconstructions(self, dataset: str) -> list[str]:
        """Fingerprints with a cached x̂ for ``dataset`` (oldest first)."""
        return list(self._dataset(dataset).reconstructions)

    def __repr__(self) -> str:
        return (
            f"QueryService(datasets={sorted(self._datasets)}, "
            f"prepared={len(self._prepared)}, registry={self.registry!r})"
        )
