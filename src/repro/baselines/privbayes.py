"""PrivBayes: private synthetic data via Bayesian networks [Zhang et al. 2017].

Three phases:

1. **Structure learning** (ε/2): greedily build a Bayesian network — the
   next attribute's parent set (at most ``degree`` already-placed
   attributes) is chosen by the exponential mechanism with mutual
   information as the quality score.
2. **Parameter learning** (ε/2): measure the joint marginal of each
   attribute with its parents using the Laplace mechanism (budget split
   evenly), clamp negatives, and normalize into conditional distributions.
3. **Sampling**: draw synthetic records ancestrally and answer the
   workload on the synthetic data vector.

The input here is the data *vector* (histogram) rather than raw records —
equivalent information; marginal counts are exact contractions of the
histogram tensor.  Error is data-dependent: use
``estimate_squared_error``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..core.measure import laplace_noise
from ..domain import Domain
from ..linalg import Matrix
from .base import DataDependentMechanism


def mutual_information(joint: np.ndarray) -> float:
    """MI of a 2-way contingency table (child cells x parent cells)."""
    total = joint.sum()
    if total <= 0:
        return 0.0
    p = joint / total
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * np.log(p / (px * py))
    return float(np.nansum(terms))


def _marginal_counts(tensor: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Contract the histogram tensor down to the given axes (in order)."""
    drop = tuple(i for i in range(tensor.ndim) if i not in axes)
    out = tensor.sum(axis=drop) if drop else tensor
    # Reorder to match the requested axis order.
    kept = [i for i in range(tensor.ndim) if i in axes]
    order = [kept.index(a) for a in axes]
    return np.transpose(out, order)


class PrivBayes(DataDependentMechanism):
    """Bayesian-network synthetic data generator.

    Parameters
    ----------
    domain:
        The attribute domain of the data vector.
    degree:
        Maximum number of parents per attribute (the original paper
        chooses it by θ-usefulness; 2 is its common operating point).
    sample_factor:
        Synthetic records drawn as ``sample_factor x`` the true count.
    """

    name = "PrivBayes"

    def __init__(self, domain: Domain, degree: int = 2, sample_factor: float = 1.0):
        self.domain = domain
        self.degree = degree
        self.sample_factor = sample_factor

    # -- phase 1: structure ---------------------------------------------------
    def _learn_structure(
        self, tensor: np.ndarray, eps1: float, rng: np.random.Generator
    ) -> list[tuple[int, tuple[int, ...]]]:
        d = tensor.ndim
        n_rec = max(tensor.sum(), 1.0)
        # Sensitivity bound for MI on add/remove-one-record neighbours.
        sens = (2.0 / n_rec) * math.log((n_rec + 1) / 2.0) + (
            (n_rec - 1) / n_rec
        ) * math.log((n_rec + 1) / (n_rec - 1)) if n_rec > 1 else 1.0

        order = [int(rng.integers(d))]
        network: list[tuple[int, tuple[int, ...]]] = [(order[0], ())]
        eps_step = eps1 / max(d - 1, 1)
        remaining = [i for i in range(d) if i != order[0]]
        while remaining:
            candidates: list[tuple[int, tuple[int, ...]]] = []
            for attr in remaining:
                max_p = min(self.degree, len(order))
                for size in range(0, max_p + 1):
                    for parents in itertools.combinations(order, size):
                        candidates.append((attr, parents))
            scores = np.empty(len(candidates))
            for idx, (attr, parents) in enumerate(candidates):
                joint = _marginal_counts(tensor, (attr, *parents))
                scores[idx] = mutual_information(
                    joint.reshape(joint.shape[0], -1)
                )
            # Exponential mechanism over candidate (attribute, parents).
            logits = eps_step * scores / (2.0 * sens)
            logits -= logits.max()
            probs = np.exp(logits)
            probs /= probs.sum()
            pick = candidates[int(rng.choice(len(candidates), p=probs))]
            network.append(pick)
            order.append(pick[0])
            remaining.remove(pick[0])
        return network

    # -- phase 2 + 3: parameters and sampling ----------------------------------
    def _synthesize(
        self,
        tensor: np.ndarray,
        network: list[tuple[int, tuple[int, ...]]],
        eps2: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        sizes = tensor.shape
        d = tensor.ndim
        eps_each = eps2 / len(network)
        conditionals = {}
        for attr, parents in network:
            joint = _marginal_counts(tensor, (attr, *parents)).astype(float)
            joint += laplace_noise(1.0 / eps_each, joint.size, rng).reshape(
                joint.shape
            )
            joint = np.clip(joint, 0.0, None)
            flat = joint.reshape(joint.shape[0], -1)
            col_sums = flat.sum(axis=0, keepdims=True)
            uniform = np.full_like(flat, 1.0 / flat.shape[0])
            probs = np.where(col_sums > 0, flat / np.maximum(col_sums, 1e-12), uniform)
            conditionals[attr] = (parents, probs.reshape(joint.shape))

        n_samples = int(round(self.sample_factor * max(tensor.sum(), 1.0)))
        records = np.zeros((n_samples, d), dtype=np.intp)
        for attr, parents in network:
            _, probs = conditionals[attr]
            if not parents:
                p = probs.reshape(-1)
                p = p / p.sum()
                records[:, attr] = rng.choice(sizes[attr], size=n_samples, p=p)
            else:
                parent_vals = records[:, list(parents)]
                # Group samples by parent configuration for vectorized draws.
                flat_probs = probs.reshape(probs.shape[0], -1)
                parent_sizes = [sizes[p_] for p_ in parents]
                config = np.ravel_multi_index(parent_vals.T, parent_sizes)
                for cfg in np.unique(config):
                    mask = config == cfg
                    p = flat_probs[:, cfg]
                    s = p.sum()
                    p = p / s if s > 0 else np.full(len(p), 1.0 / len(p))
                    records[mask, attr] = rng.choice(
                        sizes[attr], size=int(mask.sum()), p=p
                    )
        synthetic = np.zeros(sizes)
        np.add.at(synthetic, tuple(records.T), 1.0)
        return synthetic.reshape(-1)

    def answer(
        self,
        W: Matrix,
        x: np.ndarray,
        eps: float,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        rng = np.random.default_rng(rng)
        tensor = np.asarray(x, dtype=np.float64).reshape(self.domain.shape())
        network = self._learn_structure(tensor, eps / 2.0, rng)
        synthetic = self._synthesize(tensor, network, eps / 2.0, rng)
        return W.matvec(synthetic)
