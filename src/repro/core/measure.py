"""MEASURE: the noise mechanism (paper Table 1b, Definitions 6 and 7).

MEASURE makes one decision — which noise, calibrated how — and a
:class:`Mechanism` is that decision as one value.  Public entry points
(``HDMM.run``, the error functions, the service, the accountant, the
declarative API) take ``mechanism: str | Mechanism = "laplace"`` and an
optional ``delta``, call :func:`get_mechanism` once, and pass the
instance down; an instance passes through untouched.  Each mechanism
owns its noise draw, its sensitivity norm and noise scale, its
per-measurement variance, its error at a budget, and its accounting
cost, so nothing below the entry points names a mechanism.

* :class:`LaplaceMechanism` (paper Definition 6) releases ::

      y = A x + Lap(‖A‖₁ / ε)^m

  which is ε-differentially private because ``‖A‖₁`` (the maximum
  absolute column sum, ``A.sensitivity()``) equals the L1 sensitivity of
  the strategy query set.  Its δ is 0.
* :class:`GaussianMechanism` releases ``y = A x + N(0, σ²)^m`` with σ
  calibrated from the *L2* sensitivity (maximum column Euclidean norm,
  ``A.sensitivity(p=2)``) through the zCDP curve of
  :mod:`repro.core.privacy`: ε is the target at the mechanism's δ,
  mapped to ``ρ = eps_to_rho(ε, δ)`` and ``σ = Δ₂·sqrt(1/(2ρ))``.  The δ
  is part of the mechanism's identity.  Strategies whose L2 sensitivity
  is far below their L1 sensitivity (deep hierarchies, stacked
  marginals) gain the corresponding factor in noise at the same budget.

:meth:`Mechanism.cost` is the :class:`~repro.core.privacy.PrivacyCost`
the accountant debits *before* any noise is drawn, so what the planner
reports is, by construction, what the ledger records.

The Laplace draws come from one function, :func:`_laplace` (reached
through :func:`laplace_noise`, which the baselines use too).  It samples
Laplace(0, b) as ``b·S·E``: one standard exponential E per value from the
stream's ``standard_exponential``, then one independent fair sign S per
value, taken 64 to a word from ``bit_generator.random_raw`` (bit ``k`` of
the words, least significant first, flips the sign bit of value ``k``).
numpy's exponential sampler is a ziggurat that rarely calls ``log``,
where its ``laplace`` is an inverse CDF with one ``log`` per draw, and
one sign bit costs a 64th of a raw draw, where the difference of two
exponentials ``E₁ − E₂`` costs a second exponential; the distribution is
the same, the bits at a fixed seed are not.  Gaussian draws are
``σ·Z`` from ``standard_normal``, the bits of ``normal(0, σ)``.  Both
fill the destination row in place.

Every release goes through the module functions :func:`laplace_measure`,
:func:`laplace_measure_batch`, :func:`gaussian_measure` and
:func:`gaussian_measure_batch` (the mechanisms' ``measure`` and
``measure_batch`` call them by their module names), so a tracer that
patches those names sees every draw.

Serving batches: every experiment (and any deployment of a fitted
strategy) measures the *same* strategy across many noise trials, ε
values, and data vectors.  :meth:`Mechanism.measure_batch` answers a
whole trial grid in one call — the strategy answers are computed once
per distinct data vector, and the noise for trial ``j`` is drawn from
child ``j`` of the caller's seed (``SeedSequence.spawn``).  The
determinism contract mirrors ``optimize/parallel.py``: the *noise* is
bit-identical to the sequential loop ::

    seeds = spawn_seeds(rng, T)
    [mech.measure(A, x_j, eps_j, rng=seeds[j]) for j in range(T)]

for any batch composition, because randomness is assigned by trial
index.  With one shared data vector the noise-free answers are the
loop's own mat-vec, so the whole measurement is bit-identical; a batch
of data vectors is answered by one ``matmat``, which agrees with the
per-column mat-vecs to rounding, not bit for bit.

Memory order: trial ``j``'s noise is drawn straight into row ``j`` of one
``(T, m)`` buffer, the strategy answers are added into it in place, and
the batch is returned as that buffer's ``(m, T)`` transposed view — a
column-major (Fortran-ordered) array whose columns, one per trial, are
each contiguous.  No second ``(m, T)`` array is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..linalg import Matrix
from ..optimize.parallel import spawn_seeds
from .privacy import (
    DEFAULT_DELTA,
    PrivacyCost,
    eps_to_rho,
    gaussian_sigma,
    pure_eps_to_rho,
)
from .solvers import validate_budget, validate_epsilon, validate_positive_int

__all__ = [
    "GaussianMechanism",
    "LaplaceMechanism",
    "Mechanism",
    "gaussian_measure",
    "gaussian_measure_batch",
    "gaussian_noise",
    "get_mechanism",
    "laplace_measure",
    "laplace_measure_batch",
    "laplace_noise",
]


# -- noise draws ------------------------------------------------------------

def _laplace(gen: np.random.Generator, scale: float, out: np.ndarray) -> None:
    """Fill ``out`` with Laplace(0, scale) draws as ``scale·S·E``: one
    standard exponential E and one fair sign S per value, the signs 64 to
    a raw 64-bit word."""
    gen.standard_exponential(out=out)
    words = gen.bit_generator.random_raw(-(-out.size // 64))
    signs = np.unpackbits(words.view(np.uint8), count=out.size, bitorder="little")
    # A set bit flips its value's IEEE sign bit: E ≥ 0, so this is ±E.
    bits = out.view(np.uint64)
    bits ^= signs.astype(np.uint64) << np.uint64(63)
    out *= scale


def _normal(gen: np.random.Generator, sigma: float, out: np.ndarray) -> None:
    """Fill ``out`` with N(0, sigma²) draws, the values of
    ``gen.normal(0.0, sigma, out.size)``."""
    gen.standard_normal(out=out)
    out *= sigma


def _spawned_noise(draw, scale, size, rng) -> np.ndarray:
    """The seeding both noise distributions share: ``draw(gen, s, out)``
    (:func:`_laplace` or :func:`_normal`) fills ``out`` from one stream
    for a scalar scale, or fills row ``j`` of a ``(T, size)`` buffer from
    spawned child ``j`` for trial ``j`` of a 1-D array of scales, returned
    as the buffer's ``(size, T)`` transposed view.  A zero scale draws
    nothing; a negative, infinite or NaN one is refused."""
    scales = np.asarray(scale, dtype=np.float64)
    if not np.all(np.isfinite(scales) & (scales >= 0)):
        raise ValueError("noise scale must be finite and non-negative")
    if scales.ndim == 0:
        rng = np.random.default_rng(rng)
        out = np.zeros(size)
        if scales > 0:
            draw(rng, float(scales), out)
        return out
    if scales.ndim != 1:
        raise ValueError(
            f"noise scale must be a scalar or 1-D array, got {scales.shape}"
        )
    out = np.empty((scales.size, size))
    for j, seed in enumerate(spawn_seeds(rng, scales.size)):
        if scales[j] > 0:
            draw(np.random.default_rng(seed), scales[j], out[j])
        else:
            out[j] = 0.0
    return out.T


def laplace_noise(
    scale: float | np.ndarray,
    size: int,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Draw i.i.d. Laplace(0, scale) samples as ``scale·S·E``.

    E is one ``standard_exponential(size)`` draw on the stream's
    generator and S a fair sign per value, bit ``k`` of the following
    ``ceil(size / 64)`` raw 64-bit words; an Exp(1) magnitude with an
    independent fair sign is Laplace(0, 1).

    A scalar ``scale`` returns ``size`` draws from a single stream — the
    single-shot path; a :class:`numpy.random.Generator` passed as ``rng``
    is that stream and advances.  An array of per-trial scales (length
    T) returns a ``(size, T)`` matrix whose column ``j`` is drawn from
    child ``j`` of ``rng`` via ``SeedSequence.spawn``, so the batch is
    bit-identical to looping the scalar call with the spawned seeds, for
    any T.  The matrix is the transposed view of a ``(T, size)`` buffer,
    so each trial's draw lands in contiguous memory.
    """
    return _spawned_noise(_laplace, scale, size, rng)


def gaussian_noise(
    sigma: float | np.ndarray,
    size: int,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Draw i.i.d. N(0, sigma²) samples, with exactly
    :func:`laplace_noise`'s seeding contract and output layout."""
    return _spawned_noise(_normal, sigma, size, rng)


# -- the mechanisms -----------------------------------------------------------

@dataclass(frozen=True)
class Mechanism:
    """The noise mechanism of a release (see the module docstring)."""

    name: ClassVar[str] = ""
    #: δ of the (ε, δ)-DP guarantee: 0 for pure ε-DP.
    delta: ClassVar[float] = 0.0
    #: ``draw(gen, scale, out)``: :func:`_laplace` or :func:`_normal`.
    _draw: ClassVar = None
    #: Variance of one draw at noise scale 1.
    _unit_variance: ClassVar[float] = 1.0

    def sensitivity(self, A: Matrix) -> float:
        """The sensitivity norm this mechanism calibrates against."""
        raise NotImplementedError

    def noise_scale(self, A: Matrix, eps):
        """Per-measurement noise scale at budget ε (vectorized over ε):
        the Laplace ``b`` or the Gaussian ``σ``."""
        raise NotImplementedError

    def variance(self, A: Matrix, eps):
        """Per-measurement noise variance at budget ε (vectorized over ε)."""
        eps_arr = validate_epsilon(eps)
        out = self._unit_variance * np.asarray(self.noise_scale(A, eps_arr)) ** 2
        return float(out) if eps_arr.ndim == 0 else out

    def error_at_budget(self, strategy_error: float, A: Matrix, eps):
        """Expected total squared error at budget ε (vectorized over ε)
        from ``strategy_error = squared_error(W, A)``, the error at
        ε = √2 under Laplace noise (see
        :func:`repro.core.error.expected_error`)."""
        eps_arr = validate_epsilon(eps)
        out = self._error_at(strategy_error, A, eps_arr)
        return float(out) if eps_arr.ndim == 0 else out

    def _error_at(self, strategy_error, A, eps_arr):
        raise NotImplementedError

    def cost(self, eps, trials: int = 1) -> PrivacyCost:
        """The accounting cost of ``trials`` releases at each budget of
        ``eps`` (a scalar or a 1-D grid), composed sequentially."""
        raise NotImplementedError

    def measure(self, A: Matrix, x: np.ndarray, eps: float, rng=None) -> np.ndarray:
        """One private measurement ``y = Ax + noise`` at scalar ε."""
        raise NotImplementedError

    def measure_batch(
        self, A: Matrix, x: np.ndarray, eps, rng=None, trials: int | None = None
    ) -> np.ndarray:
        """A batch of measurements ``Y[:, j] = A x_j + noise(ε_j)``.

        ``x`` is one shared data vector (its strategy answers are
        computed once) or a batch of data vectors as columns (n x T);
        ``eps`` a scalar shared by all trials or per-trial budgets
        (length T); ``trials`` an explicit trial count, required only
        when both are unbatched.  Trial ``j`` draws from child ``j`` of
        ``rng`` (see the module docstring).  Returns Y, shape (m, T),
        column-major: the transposed view of the ``(T, m)`` noise buffer.
        """
        raise NotImplementedError

    def _release(self, A, x, eps, rng) -> np.ndarray:
        eps_arr = validate_epsilon(eps)
        if eps_arr.ndim != 0:
            raise ValueError(f"eps must be a scalar, got shape {eps_arr.shape}")
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (A.shape[1],):
            raise ValueError(
                f"data vector must have length {A.shape[1]}, got {x.shape}"
            )
        answers = A.matvec(x)
        scale = self.noise_scale(A, float(eps_arr))
        y = _spawned_noise(self._draw, scale, answers.shape[0], rng)
        y += answers
        return y

    def _release_batch(self, A, x, eps, rng, trials) -> np.ndarray:
        answers, eps_arr, T = _batch_answers(A, x, eps, trials)
        scales = np.broadcast_to(self.noise_scale(A, eps_arr), (T,))
        # The (m, T) view of the (T, m) noise buffer; the answers are
        # added into it in place (see the module docstring).
        Y = _spawned_noise(self._draw, np.ascontiguousarray(scales), A.shape[0], rng)
        Y += answers
        return Y


@dataclass(frozen=True)
class LaplaceMechanism(Mechanism):
    """Pure ε-DP Laplace noise, calibrated from L1 sensitivity."""

    name: ClassVar[str] = "laplace"
    _draw: ClassVar = staticmethod(_laplace)
    _unit_variance: ClassVar[float] = 2.0

    def sensitivity(self, A):
        return A.sensitivity()

    def noise_scale(self, A, eps):
        eps_arr = np.asarray(eps, dtype=np.float64)
        out = self.sensitivity(A) / eps_arr
        return float(out) if eps_arr.ndim == 0 else out

    def _error_at(self, strategy_error, A, eps_arr):
        # Definition 7 in full: (2/ε²) · ‖A‖₁² · ‖W A⁺‖_F².
        return 2.0 / eps_arr**2 * strategy_error

    def cost(self, eps, trials=1):
        # One pure-ε debit of Σε × trials: the historical shape, so v1
        # ledger records stay byte-identical.
        total = float(np.sum(validate_budget(eps=eps)["eps"])) * trials
        return PrivacyCost(
            epsilon=total, rho=pure_eps_to_rho(total), mechanism=self.name
        )

    def measure(self, A, x, eps, rng=None):
        return laplace_measure(A, x, eps, rng)

    def measure_batch(self, A, x, eps, rng=None, trials=None):
        return laplace_measure_batch(A, x, eps, rng, trials)


@dataclass(frozen=True)
class GaussianMechanism(Mechanism):
    """(ε, δ)-DP Gaussian noise via zCDP, calibrated from L2 sensitivity.

    ``delta`` is part of the mechanism's identity: the same ε at a
    smaller δ means a smaller ρ and therefore more noise.
    """

    delta: float = DEFAULT_DELTA
    name: ClassVar[str] = "gaussian"
    _draw: ClassVar = staticmethod(_normal)

    def __post_init__(self):
        validate_budget(delta=self.delta)
        if self.delta == 0:
            raise ValueError("the Gaussian mechanism requires delta > 0")

    def sensitivity(self, A):
        return A.sensitivity(p=2)

    def noise_scale(self, A, eps):
        return gaussian_sigma(self.sensitivity(A), eps, self.delta)

    def _error_at(self, strategy_error, A, eps_arr):
        # Every structured squared_error path is ‖A‖₁² times an effective
        # trace term ‖W A⁺‖_F², so the Gaussian error is that trace term
        # scaled by σ(Δ₂, ε, δ)²; strategy scaling cancels because σ ∝ Δ₂.
        sigma = np.asarray(self.noise_scale(A, eps_arr))
        return sigma**2 * (strategy_error / A.sensitivity() ** 2)

    def cost(self, eps, trials=1):
        eps_arr = np.repeat(validate_budget(eps=eps)["eps"], trials)
        # per-trial ρ's compose by summation — tighter than eps_to_rho
        # of the summed ε, and exactly what each release actually costs
        return PrivacyCost(
            epsilon=float(np.sum(eps_arr)),
            delta=self.delta * eps_arr.size,
            rho=float(np.sum(eps_to_rho(eps_arr, self.delta))),
            mechanism=self.name,
        )

    def measure(self, A, x, eps, rng=None):
        return gaussian_measure(A, x, eps, rng, self.delta)

    def measure_batch(self, A, x, eps, rng=None, trials=None):
        return gaussian_measure_batch(A, x, eps, rng, trials, self.delta)


_BY_NAME = {"laplace": LaplaceMechanism, "gaussian": GaussianMechanism}


def get_mechanism(
    mechanism: str | Mechanism = "laplace", delta: float | None = None
) -> Mechanism:
    """Resolve a mechanism spelling into an instance, once per entry point.

    An instance is returned untouched when ``delta`` is unset.  A name
    is ``"laplace"`` (which takes no δ) or ``"gaussian"`` (δ defaults to
    :data:`~repro.core.privacy.DEFAULT_DELTA`); an instance given with a
    ``delta`` resolves like its name with that δ.
    """
    if isinstance(mechanism, Mechanism):
        if delta is None:
            return mechanism
        mechanism = mechanism.name
    cls = _BY_NAME.get(mechanism)
    if cls is None:
        raise ValueError(
            f"unknown mechanism {mechanism!r}; expected one of "
            f"{sorted(_BY_NAME)}"
        )
    if cls is GaussianMechanism:
        return cls(delta=DEFAULT_DELTA if delta is None else delta)
    if delta is not None:
        raise ValueError(f"mechanism {mechanism!r} does not take a delta")
    return _LAPLACE  # stateless: one instance serves every request


_LAPLACE = LaplaceMechanism()


# -- the releases, by name ----------------------------------------------------

def laplace_measure(
    A: Matrix,
    x: np.ndarray,
    eps: float,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """The ε-differentially-private measurement ``y = Ax + Lap(‖A‖₁/ε)``."""
    return _LAPLACE._release(A, x, eps, rng)


def laplace_measure_batch(
    A: Matrix,
    x: np.ndarray,
    eps: float | np.ndarray,
    rng: np.random.Generator | int | None = None,
    trials: int | None = None,
) -> np.ndarray:
    """A batch of ε-DP measurements ``Y[:, j] = A x_j + Lap(‖A‖₁/ε_j)``;
    see :meth:`Mechanism.measure_batch`."""
    return _LAPLACE._release_batch(A, x, eps, rng, trials)


def gaussian_measure(
    A: Matrix,
    x: np.ndarray,
    eps: float,
    rng: np.random.Generator | int | None = None,
    delta: float = DEFAULT_DELTA,
) -> np.ndarray:
    """The (ε, δ)-DP Gaussian measurement ``y = Ax + N(0, σ²)``, with σ
    calibrated from the L2 sensitivity through zCDP (the release is
    ``eps_to_rho(ε, δ)``-zCDP and hence (ε, δ)-DP)."""
    return GaussianMechanism(delta)._release(A, x, eps, rng)


def gaussian_measure_batch(
    A: Matrix,
    x: np.ndarray,
    eps: float | np.ndarray,
    rng: np.random.Generator | int | None = None,
    trials: int | None = None,
    delta: float = DEFAULT_DELTA,
) -> np.ndarray:
    """A batch of (ε, δ)-DP Gaussian measurements; see
    :meth:`Mechanism.measure_batch`."""
    return GaussianMechanism(delta)._release_batch(A, x, eps, rng, trials)


def _batch_answers(A, x, eps, trials):
    """Shared input policy of the batched releases: validate the trial
    grid, compute the noise-free strategy answers once, and return
    ``(answers, eps_arr, T)``."""
    x = np.asarray(x, dtype=np.float64)
    eps_arr = validate_epsilon(eps)
    if eps_arr.ndim > 1:
        raise ValueError(f"eps must be a scalar or 1-D array, got {eps_arr.shape}")
    if trials is not None:
        trials = validate_positive_int("trials", trials)

    t_x = x.shape[1] if x.ndim == 2 else None
    t_e = eps_arr.size if eps_arr.ndim == 1 else None
    sizes = {int(s) for s in (t_x, t_e, trials) if s is not None}
    if len(sizes - {1}) > 1:  # length-1 batch axes broadcast
        raise ValueError(
            f"inconsistent trial counts: x gives {t_x}, eps gives {t_e}, "
            f"trials gives {trials}"
        )
    T = max(sizes) if sizes else 1

    if x.ndim == 1:
        if x.shape != (A.shape[1],):
            raise ValueError(
                f"data vector must have length {A.shape[1]}, got {x.shape}"
            )
        answers = A.matvec(x)[:, None]  # one mat-vec, shared by all trials
    elif x.ndim == 2:
        if x.shape[0] != A.shape[1]:
            raise ValueError(
                f"data vectors must have length {A.shape[1]}, got {x.shape}"
            )
        answers = A.matmat(x)
    else:
        raise ValueError(f"x must be 1-D or 2-D, got shape {x.shape}")
    return answers, eps_arr, T
