"""Distances between distributions represented by kernel means.

Two notions are provided: the distance between (sparse) mean embeddings in
the kernel's own inner product space, and the split-sample symmetrized KL
divergence between (sparse) density estimates. Both extend to pairwise
distance matrices over a collection of samples, with one fit per sample.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dataio import DataSet
from .errors import SkmError
from .kernels import RadialKernelSpec
from .sparse_mean import (
    SparseKernelMean,
    _check_compatible,
    _support_budget,
    evaluate,
    fit,
    full_mean,
    mean_gram_inner,
)

DENSITY_FLOOR = 1e-300


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative pairwise distances with sample labels."""

    matrix: np.ndarray
    labels: tuple
    mode: str
    support_sizes: tuple = ()


def rkhs_distance(mean_a: SparseKernelMean, mean_b: SparseKernelMean) -> float:
    """|| mean_a - mean_b ||_H for two means over the same RKHS kernel.

    Expands into three coefficient-weighted Gram sums, so two sparse means
    of sizes k_a, k_b cost Theta(k_a^2 + k_a k_b + k_b^2) kernel evaluations.
    """
    _check_compatible(mean_a, mean_b)
    return _rkhs_from_inners(mean_inner(mean_a, mean_a), mean_inner(mean_a, mean_b),
                             mean_inner(mean_b, mean_b))


def mean_inner(mean_a: SparseKernelMean, mean_b: SparseKernelMean) -> float:
    """Inner product of two kernel means in the kernel's RKHS, bilinear in the weight vectors."""
    if mean_a.spec.space != "rkhs":
        raise ValueError("inner products of kernel means need a kernel in rkhs space mode, "
                         f"got space {mean_a.spec.space!r}")
    return mean_gram_inner(mean_a, mean_b)


def _rkhs_from_inners(inner_aa: float, inner_ab: float, inner_bb: float) -> float:
    """||a - b||_H from <a, a>, <a, b> and <b, b>, floored at 0."""
    return math.sqrt(max(inner_aa - 2.0 * inner_ab + inner_bb, 0.0))


def _check_density(mean: SparseKernelMean, label: str) -> None:
    if mean.spec.normalization != "density":
        raise ValueError(f"{label} must use a density-normalized kernel")
    if np.any(mean.alpha < -1e-12) or abs(float(mean.alpha.sum()) - 1.0) > 1e-8:
        raise ValueError(f"{label} weights are not on the probability simplex")


def kl_divergence(p: SparseKernelMean, q: SparseKernelMean, eval_points) -> float:
    """Plug-in KL estimate (1/m) sum log(p(w) / q(w)) over eval_points.

    Densities are floored at DENSITY_FLOOR before the log so the estimate
    stays finite when eval points fall far from q's support.
    """
    _check_density(p, "p")
    _check_density(q, "q")
    pv = np.maximum(evaluate(p, eval_points), DENSITY_FLOOR)
    if pv.size == 0:
        raise ValueError("empty evaluation set")
    qv = np.maximum(evaluate(q, eval_points), DENSITY_FLOOR)
    return float(np.mean(np.log(pv) - np.log(qv)))


def symmetrized_kl(p: SparseKernelMean, q: SparseKernelMean, eval_p, eval_q) -> float:
    """KL(p||q) estimated on eval_p plus KL(q||p) estimated on eval_q."""
    return kl_divergence(p, q, eval_p) + kl_divergence(q, p, eval_q)


def sample_gaussian_mean(mean: SparseKernelMean, size: int, seed: int = 0) -> np.ndarray:
    """Draw points from a gaussian kernel density with simplex weights.

    Picks a support point by weight, then adds kernel noise; used to build
    evaluation sets for directed KL estimates.
    """
    _check_density(mean, "mean")
    if mean.spec.family != "gaussian":
        raise ValueError("sampling is implemented for gaussian kernels only")
    rng = np.random.default_rng(seed)
    weights = mean.alpha / mean.alpha.sum()
    idx = rng.choice(mean.k0, size=size, p=weights)
    noise = rng.normal(scale=mean.spec.sigma, size=(size, mean.spec.dim))
    return mean.support[idx] + noise


def _split_even_odd(points):
    # Deterministic estimation/evaluation split: even rows fit, odd rows evaluate.
    return points[0::2], points[1::2]


def fit_sample_means(samples, spec: RadialKernelSpec, mode: str,
                     sparse: bool = True, k_max=None, epsilon: float = 1e-10,
                     seed: int = 0):
    """One fitted mean per sample, plus per-sample KL evaluation points.

    For mode "rkhs" each sample's full point set is embedded. For mode
    "sym_kl" each sample is interleave-split; the density estimate uses the
    even half and the odd half is kept for divergence evaluation.
    """
    if mode not in ("rkhs", "sym_kl"):
        raise ValueError(f"unknown distance mode {mode!r}")
    means = []
    eval_sets = []
    for sample in samples:
        pts = np.asarray(sample.points, dtype=np.float64)
        if mode == "sym_kl":
            if spec.normalization != "density":
                raise ValueError("sym_kl mode requires a density-normalized kernel")
            fit_pts, eval_pts = _split_even_odd(pts)
            if fit_pts.shape[0] < 1 or eval_pts.shape[0] < 1:
                raise ValueError(
                    f"sample {sample.name!r} is too small to split for KL evaluation"
                )
            fit_data = DataSet(fit_pts, name=sample.name)
            eval_sets.append(eval_pts)
        else:
            fit_data = sample
            eval_sets.append(None)
        if sparse:
            means.append(fit(fit_data, spec, k_max=_support_budget(k_max, fit_data.n),
                             epsilon=epsilon, density_mode=(mode == "sym_kl"), seed=seed))
        else:
            means.append(full_mean(fit_data, spec))
    return means, eval_sets


def pairwise_matrix(means, mode: str, eval_sets=None, labels=None) -> DistanceMatrix:
    """Fill the symmetric distance matrix from already fitted means."""
    n = len(means)
    if n < 2:
        raise ValueError("need at least 2 samples for a distance matrix")
    labels = tuple(labels) if labels is not None else tuple(f"sample{i}" for i in range(n))
    matrix = np.zeros((n, n))
    if mode == "rkhs":
        # Each mean's squared norm once, not once per pair; mean_inner
        # checks that each pair shares one kernel spec.
        norms = [mean_inner(mean, mean) for mean in means]
    for i in range(n):
        for j in range(i + 1, n):
            if mode == "rkhs":
                value = _rkhs_from_inners(norms[i], mean_inner(means[i], means[j]), norms[j])
            else:
                value = symmetrized_kl(means[i], means[j], eval_sets[i], eval_sets[j])
            matrix[i, j] = matrix[j, i] = value
    return DistanceMatrix(
        matrix=matrix,
        labels=labels,
        mode=mode,
        support_sizes=tuple(m.k0 for m in means),
    )


def distance_matrix(samples, spec: RadialKernelSpec, mode: str = "rkhs",
                    sparse: bool = True, k_max=None, epsilon: float = 1e-10,
                    seed: int = 0) -> DistanceMatrix:
    """Pairwise distances between samples; each sample is fitted exactly once."""
    samples = list(samples)
    if len(samples) < 2:
        raise SkmError("need at least 2 samples for a distance matrix")
    means, eval_sets = fit_sample_means(samples, spec, mode, sparse=sparse,
                                        k_max=k_max, epsilon=epsilon, seed=seed)
    return pairwise_matrix(means, mode, eval_sets,
                           labels=[s.name for s in samples])
