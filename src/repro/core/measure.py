"""MEASURE: the Laplace and Gaussian mechanisms in vector form.

Given a strategy matrix A and a data vector x, the Laplace mechanism
(paper Definition 6) releases::

    y = A x + Lap(‖A‖₁ / ε)^m

which is ε-differentially private because ``‖A‖₁`` (the maximum absolute
column sum) equals the L1 sensitivity of the strategy query set: one
record added to or removed from the database changes each column of the
answer vector by at most that column's absolute sum.

The Laplace draws come from one function, :func:`laplace_noise`, which
every Laplace value in the package goes through (the baselines too).  It
samples Laplace(0, b) as ``b·(E₁ − E₂)`` for independent standard
exponentials E₁, E₂: ``standard_exponential(2·size)`` on the stream's
generator, first half minus second half.  numpy's exponential sampler is
a ziggurat that rarely calls ``log``, where its ``laplace`` is an inverse
CDF with one ``log`` per draw; the distribution is the same, the bits at
a fixed seed are not.

The Gaussian mechanism releases ``y = A x + N(0, σ²)^m`` with σ
calibrated from the *L2* sensitivity (maximum column Euclidean norm,
``A.sensitivity(p=2)``) through the zCDP curve of
:mod:`repro.core.privacy`: the ``eps`` argument is the target ε at the
mechanism's δ, mapped to ``ρ = eps_to_rho(ε, δ)`` and
``σ = Δ₂·sqrt(1/(2ρ))``.  Strategies whose L2 sensitivity is far below
their L1 sensitivity (deep hierarchies, stacked marginals) gain the
corresponding factor in noise at the same budget.

Serving batches: every experiment (and any deployment of a fitted
strategy) measures the *same* strategy across many noise trials, ε
values, and data vectors.  :func:`laplace_measure_batch` /
:func:`gaussian_measure_batch` answer a whole trial grid in one call —
the strategy answers are computed once per distinct data vector, and the
noise for trial ``j`` is drawn from child ``j`` of the caller's seed
(``SeedSequence.spawn``).  The determinism contract mirrors
``optimize/parallel.py``: the *noise* is bit-identical to the sequential
loop ::

    seeds = spawn_seeds(rng, T)
    [laplace_measure(A, x_j, eps_j, rng=seeds[j]) for j in range(T)]

for any batch composition (and identically for the Gaussian pair),
because randomness is assigned by trial index.  With one shared data
vector the noise-free answers are the loop's own mat-vec, so the whole
measurement is bit-identical; a batch of data vectors is answered by one
``matmat``, which agrees with the per-column mat-vecs to rounding, not
bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..linalg import Matrix
from ..optimize.parallel import spawn_seeds
from .privacy import DEFAULT_DELTA, gaussian_sigma
from .solvers import validate_budget, validate_epsilon, validate_positive_int


def laplace_noise(
    scale: float | np.ndarray,
    size: int,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Draw i.i.d. Laplace(0, scale) samples as ``scale·(E₁ − E₂)``.

    E₁ and E₂ are the two halves of one ``standard_exponential(2·size)``
    draw (first minus second) on the stream's generator; the difference
    of two independent Exp(1) variables is Laplace(0, 1).

    A scalar ``scale`` returns ``size`` draws from a single stream — the
    single-shot path; a :class:`numpy.random.Generator` passed as ``rng``
    is that stream and advances.  An array of per-trial scales (length
    T) returns a ``(size, T)`` matrix whose column ``j`` is drawn from
    child ``j`` of ``rng`` via ``SeedSequence.spawn``, so the batch is
    bit-identical to looping the scalar call with the spawned seeds, for
    any T.  The matrix is the transposed view of a ``(T, size)`` buffer,
    so each trial's draw lands in contiguous memory.
    """
    return _spawned_noise(_laplace, scale, size, rng, "scale")


def _laplace(gen: np.random.Generator, scale: float, size: int) -> np.ndarray:
    """``size`` Laplace(0, scale) draws as ``scale·(E₁ − E₂)``."""
    e = gen.standard_exponential(2 * size)
    out = e[:size] - e[size:]
    out *= scale
    return out


def _normal(gen: np.random.Generator, sigma: float, size: int) -> np.ndarray:
    """``size`` N(0, sigma²) draws."""
    return gen.normal(0.0, sigma, size)


def _spawned_noise(draw, scale, size, rng, name) -> np.ndarray:
    """The seeding both noise distributions share: ``draw(gen, s, size)``
    (:func:`_laplace` or :func:`_normal`) from one stream
    for a scalar scale, or from spawned child ``j`` for trial ``j`` of a
    1-D array of scales, returned as the ``(size, T)`` transposed view of
    a ``(T, size)`` buffer.  A zero scale draws nothing; a negative,
    infinite or NaN one is refused."""
    scales = np.asarray(scale, dtype=np.float64)
    if not np.all(np.isfinite(scales) & (scales >= 0)):
        raise ValueError("noise scale must be finite and non-negative")
    if scales.ndim == 0:
        rng = np.random.default_rng(rng)
        if scales == 0:
            return np.zeros(size)
        return draw(rng, float(scales), size)
    if scales.ndim != 1:
        raise ValueError(f"{name} must be a scalar or 1-D array, got {scales.shape}")
    out = np.zeros((scales.size, size))
    for j, seed in enumerate(spawn_seeds(rng, scales.size)):
        if scales[j] > 0:
            out[j] = draw(np.random.default_rng(seed), scales[j], size)
    return out.T


def laplace_measure(
    A: Matrix,
    x: np.ndarray,
    eps: float,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """The ε-differentially-private measurement ``y = Ax + Lap(‖A‖₁/ε)``."""
    eps_arr = validate_epsilon(eps)
    if eps_arr.ndim != 0:
        raise ValueError(f"eps must be a scalar, got shape {eps_arr.shape}")
    eps = float(eps_arr)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.shape[1],):
        raise ValueError(f"data vector must have length {A.shape[1]}, got {x.shape}")
    answers = A.matvec(x)
    scale = A.sensitivity() / eps
    return answers + laplace_noise(scale, answers.shape[0], rng)


def laplace_measure_batch(
    A: Matrix,
    x: np.ndarray,
    eps: float | np.ndarray,
    rng: np.random.Generator | int | None = None,
    trials: int | None = None,
) -> np.ndarray:
    """A batch of ε-DP measurements ``Y[:, j] = A x_j + Lap(‖A‖₁/ε_j)``.

    Parameters
    ----------
    x:
        Either one shared data vector (length n) — its strategy answers
        are computed once and reused for every trial — or a batch of data
        vectors as columns (n x T).
    eps:
        A scalar budget shared by all trials or per-trial budgets
        (length T).
    trials:
        Explicit trial count; required only when both ``x`` and ``eps``
        are unbatched.  Batched arguments must agree with it.
    rng:
        Root seed; trial ``j`` draws its noise from child ``j``
        (``SeedSequence.spawn``) — see the module docstring for the
        determinism contract.

    Returns
    -------
    The measurement matrix Y, shape (m, T).
    """
    answers, eps_arr, T = _batch_answers(A, x, eps, trials)
    scales = np.broadcast_to(A.sensitivity() / eps_arr, (T,))
    return _add_noise(
        answers, laplace_noise(np.ascontiguousarray(scales), A.shape[0], rng)
    )


def _add_noise(answers: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """``answers + noise`` as one broadcast add into a C-ordered (m, T)
    result (the noise is a transposed view, which a plain ``+`` would
    follow into column-major output)."""
    return np.add(answers, noise, out=np.empty(noise.shape))


def _batch_answers(A, x, eps, trials):
    """Shared input policy of the batched mechanisms: validate the trial
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


def gaussian_noise(
    sigma: float | np.ndarray,
    size: int,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Draw i.i.d. N(0, sigma²) samples.

    Exactly :func:`laplace_noise`'s seeding contract with a Gaussian
    distribution: a scalar ``sigma`` is one stream; a length-T array
    returns a ``(size, T)`` matrix whose column ``j`` is drawn from child
    ``j`` of ``rng`` (``SeedSequence.spawn``), bit-identical to looping
    the scalar call with the spawned seeds.  Like :func:`laplace_noise`,
    the matrix is the transposed view of a ``(T, size)`` buffer.
    """
    return _spawned_noise(_normal, sigma, size, rng, "sigma")


def gaussian_measure(
    A: Matrix,
    x: np.ndarray,
    eps: float,
    rng: np.random.Generator | int | None = None,
    delta: float = DEFAULT_DELTA,
) -> np.ndarray:
    """The (ε, δ)-DP Gaussian measurement ``y = Ax + N(0, σ²)``.

    σ is calibrated from the strategy's L2 sensitivity through zCDP
    (see the module docstring); the release satisfies
    ``eps_to_rho(ε, δ)``-zCDP and hence (ε, δ)-DP.
    """
    eps_arr = validate_epsilon(eps)
    if eps_arr.ndim != 0:
        raise ValueError(f"eps must be a scalar, got shape {eps_arr.shape}")
    validate_budget(delta=delta)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.shape[1],):
        raise ValueError(f"data vector must have length {A.shape[1]}, got {x.shape}")
    answers = A.matvec(x)
    sigma = gaussian_sigma(A.sensitivity(p=2), float(eps_arr), delta)
    return answers + gaussian_noise(sigma, answers.shape[0], rng)


def gaussian_measure_batch(
    A: Matrix,
    x: np.ndarray,
    eps: float | np.ndarray,
    rng: np.random.Generator | int | None = None,
    trials: int | None = None,
    delta: float = DEFAULT_DELTA,
) -> np.ndarray:
    """A batch of (ε, δ)-DP Gaussian measurements — the Gaussian twin of
    :func:`laplace_measure_batch`, with the identical batching, seeding,
    and determinism contract (trial ``j`` draws from spawned child
    ``j``)."""
    validate_budget(delta=delta)
    answers, eps_arr, T = _batch_answers(A, x, eps, trials)
    sigmas = np.broadcast_to(
        gaussian_sigma(A.sensitivity(p=2), eps_arr, delta), (T,)
    )
    return _add_noise(
        answers, gaussian_noise(np.ascontiguousarray(sigmas), A.shape[0], rng)
    )


def measurement_variance(
    A: Matrix,
    eps: float | np.ndarray,
    mechanism: str = "laplace",
    delta: float = DEFAULT_DELTA,
) -> float | np.ndarray:
    """Per-measurement noise variance at budget ε (vectorized over ε).

    ``2(‖A‖₁/ε)²`` for the Laplace mechanism; ``σ(Δ₂, ε, δ)²`` for the
    Gaussian mechanism.
    """
    eps_arr = validate_epsilon(eps)
    if mechanism == "laplace":
        out = 2.0 * (A.sensitivity() / eps_arr) ** 2
    elif mechanism == "gaussian":
        validate_budget(delta=delta)
        out = np.asarray(
            gaussian_sigma(A.sensitivity(p=2), eps_arr, delta)
        ) ** 2
    else:
        raise ValueError(
            f"mechanism must be 'laplace' or 'gaussian', got {mechanism!r}"
        )
    return float(out) if eps_arr.ndim == 0 else out
