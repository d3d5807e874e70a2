"""The end-to-end HDMM mechanism (paper Table 1b and Section 7).

::

    W = ImpVec(workload)          # compact implicit representation
    A = OPT_HDMM(W)               # optimized strategy selection
    a = Multiply(A, x)            # strategy query answering
    y = a + Lap(‖A‖₁/ε)           # noise addition          (MEASURE)
    x̄ = LstSqr(A, y)              # inference               (RECONSTRUCT)
    ans = Multiply(W, x̄)          # workload answering

Strategy selection is data-independent: ``HDMM.fit`` can be run once per
workload and the fitted mechanism reused across datasets and ε values
(Section 3.6 — the Census SF1 workload changes only every 10 years).
That reuse is the serving hot path: :meth:`HDMM.run_batch` answers a
whole grid of (ε, noise-trial) pairs — or a batch of data vectors — in
one pass, computing the strategy answers once, drawing per-trial noise
from spawned seed children, solving the inferences as multi-RHS least
squares (one cold solve per ε block), and answering the workload with
batched mat-mats.

Privacy (Theorem 7): ImpVec and OPT_HDMM never touch the data; the only
data access is the Laplace measurement, and everything after it is
post-processing, so each trial of the mechanism is ε-differentially
private for its own ε.  (Running many trials composes: a 20-trial sweep
spends the sum of its budgets — budget accounting is the caller's
responsibility, e.g. via
:class:`~repro.service.accountant.PrivacyAccountant`.)
"""

from __future__ import annotations

import numpy as np

from ..linalg import Matrix
from ..optimize import OptResult, opt_hdmm
from ..optimize.parallel import spawn_seeds
from ..workload.logical import LogicalWorkload, as_workload_matrix
from .error import expected_error, rootmse
# The four release functions are not called here: the mechanisms reach
# them in repro.core.measure.  The names stay imported because
# perfbench/pb_layers.PROBES resolves them in this module too.
from .measure import (  # noqa: F401
    Mechanism,
    gaussian_measure,
    gaussian_measure_batch,
    get_mechanism,
    laplace_measure,
    laplace_measure_batch,
)
from .reconstruct import answer_workload, least_squares, resolves_to_pinv
from .solvers import validate_epsilon, validate_positive_int


class HDMM:
    """High-Dimensional Matrix Mechanism.

    Parameters
    ----------
    restarts:
        Random restarts S for strategy selection (Algorithm 2).
    rng:
        Seed or Generator controlling both strategy-selection restarts
        and (via :meth:`run`'s own argument) noise generation.

    Examples
    --------
    >>> from repro import workload as wl
    >>> mech = HDMM(restarts=3, rng=0)
    >>> mech.fit(wl.prefix_1d(64))
    >>> answers = mech.run(x, eps=1.0, rng=7)             # doctest: +SKIP
    >>> sweep = mech.run_batch(x, eps=[0.1, 1.0], trials=20, rng=7)  # doctest: +SKIP
    """

    def __init__(
        self, restarts: int = 25, rng: np.random.Generator | int | None = None
    ):
        self.restarts = restarts
        self.rng = np.random.default_rng(rng)
        self.workload: Matrix | None = None
        self.strategy: Matrix | None = None
        self.result: OptResult | None = None

    # -- SELECT -----------------------------------------------------------
    def fit(self, workload: Matrix | LogicalWorkload, **opt_kwargs) -> "HDMM":
        """Vectorize and select a strategy.  Data-independent.

        Accepts anything in the workload protocol: an implicit matrix, a
        :class:`~repro.workload.LogicalWorkload`, or a compiled query
        plan from :mod:`repro.api` (any object with
        ``to_workload_matrix()``).
        """
        workload, _ = as_workload_matrix(workload)
        self.workload = workload
        self.result = opt_hdmm(
            workload, restarts=self.restarts, rng=self.rng, **opt_kwargs
        )
        self.strategy = self.result.strategy
        return self

    def _require_fitted(self) -> Matrix:
        if self.strategy is None or self.workload is None:
            raise RuntimeError("call fit(workload) before running the mechanism")
        return self.strategy

    # -- MEASURE + RECONSTRUCT ---------------------------------------------
    def run(
        self,
        x: np.ndarray,
        eps: float,
        rng: np.random.Generator | int | None = None,
        return_data_vector: bool = False,
        mechanism: str | Mechanism = "laplace",
        delta: float | None = None,
        **solver_kwargs,
    ):
        """Answer the fitted workload on data vector ``x`` under ε-DP
        (``mechanism="laplace"``, the default) or (ε, δ)-DP
        (``mechanism="gaussian"``, calibrated through zCDP at ``delta``,
        default :data:`~repro.core.privacy.DEFAULT_DELTA`), or under a
        :class:`~repro.core.measure.Mechanism` instance.

        Returns the noisy workload answers; with
        ``return_data_vector=True`` also returns the inferred x̄.
        Extra keyword arguments are forwarded to
        :func:`~repro.core.reconstruct.least_squares`.
        """
        A = self._require_fitted()
        y = get_mechanism(mechanism, delta).measure(A, x, eps, rng)
        x_hat = least_squares(A, y, **solver_kwargs)
        answers = answer_workload(self.workload, x_hat)
        if return_data_vector:
            return answers, x_hat
        return answers

    def run_batch(
        self,
        x: np.ndarray,
        eps: float | np.ndarray = 1.0,
        trials: int = 1,
        rng: np.random.Generator | int | None = None,
        method: str = "auto",
        exact: bool = False,
        return_data_vector: bool = False,
        mechanism: str | Mechanism = "laplace",
        delta: float | None = None,
        **solver_kwargs,
    ):
        """Batched serving: answer a grid of (ε, trial) pairs in one pass.

        Two modes, chosen by the shape of ``x``:

        * **sweep** — ``x`` is one data vector (length n).  The trial grid
          is ``len(eps_grid) x trials``; the strategy answers ``Ax`` are
          computed once, trial ``(e, r)`` adds noise from seed child
          ``e * trials + r`` of ``rng``, and each ε block's ``trials``
          inferences are solved as one multi-RHS least squares.  Returns
          answers of shape ``(len(eps_grid), trials, m)``; a scalar
          ``eps`` gives grid length 1.
        * **paired** — ``x`` is a batch of data vectors (n x t) paired
          with a scalar or length-t ``eps``; ``trials`` must be 1.
          Returns answers of shape ``(t, m)``.

        Determinism contract (mirrors ``optimize/parallel.py``): noise is
        assigned by flat trial index via ``SeedSequence.spawn``.  With
        ``exact=True`` the call *is* the sequential loop ::

            seeds = spawn_seeds(rng, T)
            [self.run(x_j, eps_j, rng=seeds[j]) for j in range(T)]

        (``x_j`` the shared vector or column ``j`` of a batch), so its
        answers are bit-identical to it for every strategy class.  The
        default (``exact=False``) measures the grid in one pass and
        solves it as multi-RHS least squares at BLAS width: its noise is
        the loop's, and its answers agree with the loop's to solver
        tolerance.  Both modes refuse the same inputs.

        Privacy: each trial is ε-DP for its own budget; a full sweep
        spends the sum of its trials' budgets under sequential
        composition.

        Returns the answers array; with ``return_data_vector=True`` a
        ``(answers, x_hat)`` pair where ``x_hat`` carries the same
        leading grid axes over data vectors of length n.
        """
        A = self._require_fitted()
        mech = get_mechanism(mechanism, delta)
        x = np.asarray(x, dtype=np.float64)
        eps_arr = np.atleast_1d(validate_epsilon(eps))
        if eps_arr.ndim != 1:
            raise ValueError(f"eps must be a scalar or 1-D grid, got {eps_arr.shape}")
        trials = validate_positive_int("trials", trials)
        if x.ndim == 2:
            if trials != 1:
                raise ValueError(
                    "trials > 1 requires a single shared data vector; got a "
                    f"(n, {x.shape[1]}) batch with trials={trials}"
                )
            t = x.shape[1]
            if t == 0 or (t != 1 and eps_arr.size not in (1, t)):
                raise ValueError(
                    f"inconsistent trial counts: x gives {t}, eps gives "
                    f"{eps_arr.size}"
                )
            eps_flat = eps_arr
            lead = (max(t, eps_arr.size),)
        elif x.ndim == 1:
            eps_flat = np.repeat(eps_arr, trials)  # flat trial j = e * trials + r
            lead = (eps_arr.size, trials)
        else:
            raise ValueError(f"x must be 1-D or 2-D, got shape {x.shape}")

        if exact:
            # The sequential loop itself, length-1 axes of a paired batch
            # broadcast.
            T = int(np.prod(lead))
            X_hat = np.empty((A.shape[1], T))
            answers = np.empty((self.workload.shape[0], T))
            for j, seed in enumerate(spawn_seeds(rng, T)):
                x_j = x if x.ndim == 1 else x[:, j % x.shape[1]]
                answers[:, j], X_hat[:, j] = self.run(
                    np.ascontiguousarray(x_j),
                    float(eps_flat[j % eps_flat.size]),
                    rng=seed,
                    return_data_vector=True,
                    mechanism=mech,
                    method=method,
                    **solver_kwargs,
                )
        else:
            Y = mech.measure_batch(A, x, eps_flat, rng)
            k = eps_arr.size
            if x.ndim == 1 and k > 1 and not resolves_to_pinv(A, method):
                # Every solve but a pseudo-inverse apply goes ε block by ε
                # block, each from zero.
                # Narrow blocks beat one grid-wide solve because the CG
                # working arrays stay in cache: the solves of a 5 x 10
                # sweep on a 4-block 16³ union (3 eigenbasis PCG
                # iterations per column) took a median 39.1–39.2 ms as
                # five 10-column solves against 41.8–44.8 ms as one
                # 50-column solve, the split faster in 79 of 120
                # alternating runs (2-vCPU x86-64, single-threaded BLAS).
                X_hat = np.empty((A.shape[1], Y.shape[1]))
                for e in range(k):
                    block = slice(e * trials, (e + 1) * trials)
                    X_hat[:, block] = least_squares(
                        A, Y[:, block], method=method, **solver_kwargs
                    )
            else:
                X_hat = least_squares(A, Y, method=method, **solver_kwargs)
            answers = answer_workload(self.workload, X_hat)

        answers = answers.T.reshape(*lead, self.workload.shape[0])
        if return_data_vector:
            return answers, X_hat.T.reshape(*lead, A.shape[1])
        return answers

    # -- diagnostics ---------------------------------------------------------
    def expected_error(
        self,
        eps: float | np.ndarray = 1.0,
        mechanism: str | Mechanism = "laplace",
        delta: float | None = None,
    ) -> float | np.ndarray:
        """Definition 7 expected total squared error of the fitted strategy
        (vectorized over an ε grid) under the chosen mechanism."""
        self._require_fitted()
        return expected_error(
            self.workload, self.strategy, eps, mechanism=mechanism, delta=delta
        )

    def expected_rootmse(
        self,
        eps: float | np.ndarray = 1.0,
        mechanism: str | Mechanism = "laplace",
        delta: float | None = None,
    ) -> float | np.ndarray:
        """Per-query root mean squared error of the fitted strategy
        (vectorized over an ε grid) under the chosen mechanism."""
        self._require_fitted()
        return rootmse(
            self.workload, self.strategy, eps, mechanism=mechanism, delta=delta
        )
