"""Fitting and evaluating sparse kernel means.

A sparse kernel mean approximates the full mean (1/n) sum_i phi(., x_i)
by sum_{i in I} alpha_i phi(., x_i) with |I| = k0 << n. Support points
come from farthest-first traversal, weights from pivoted Cholesky steps
with a bordered update, and the support stops growing once the relative
error progress falls below epsilon.
"""

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import kcenter
from ._parallel import parallel_map
from .coefficients import (
    CholeskyWeights,
    kappa_entry,
    progress_ratio,
    project_simplex,
    solve_direct,
)
from .errors import NearSingularError
from .kernels import (
    RadialKernelSpec,
    gram_at_dist,
    gram_matrix,
    kernel_matrix,
)

logger = logging.getLogger(__name__)

_EVAL_CHUNK = 2048


@dataclass(frozen=True, slots=True)
class Step:
    """One candidate tried by the fit loop.

    m is the support size after the step. An accepted step records E_m,
    the stop-rule ratio |E_{m-1} - E_m| / |E_1 - E_m| (0 at m = 1), the
    coverage radius after the step (nan for a fixed candidate order) and
    the candidate's pivot. A skipped step sets the numbers to nan and
    records the reason in skip.
    """

    index: int
    m: int
    e: float
    ratio: float
    radius: float
    pivot: float
    skip: Optional[str] = None


@dataclass(frozen=True)
class FitDiagnostics:
    e_trace: np.ndarray
    k_max: int
    epsilon: float
    density_projected: bool
    radius_trace: np.ndarray = field(default_factory=lambda: np.empty(0))
    skipped: tuple = ()
    method: str = "greedy"
    steps: tuple = ()  # the accepted Steps, in order


@dataclass(frozen=True)
class SparseKernelMean:
    """Support points, weights and fit diagnostics for one kernel mean."""

    spec: RadialKernelSpec
    support: np.ndarray
    alpha: np.ndarray
    support_indices: Optional[np.ndarray]
    diagnostics: FitDiagnostics

    @property
    def k0(self) -> int:
        return self.support.shape[0]


def default_k_max(n: int) -> int:
    """Sparsity budget floor(3 sqrt(n)), clipped to [1, n]."""
    return max(1, min(n, int(3.0 * math.sqrt(n))))


def fit_steps(weights: CholeskyWeights, k_max: int, first=None, seed: int = 0,
              order=None):
    """The select/extend/skip loop: yield one Step per candidate tried.

    Candidates come from farthest-first traversal started at `first` (or a
    point drawn with `seed`), or from the fixed sequence `order`. A
    candidate whose section is numerically dependent on the support is
    skipped and banned; the loop moves on to the next one. It ends when the
    support holds k_max points, no candidate is left, or the support
    covers every point exactly. The caller applies the stop rule by
    leaving the loop.
    """
    if order is None:
        scan = kcenter.FarthestFirst(weights.points)
        pick = scan.next
        cand = kcenter._resolve_first(weights.points.shape[0], first, seed)
    else:
        scan = None
        rest = iter(order)
        pick = lambda: int(next(rest, -1))
        cand = pick()
    while cand >= 0 and weights.m < k_max:
        try:
            pivot = weights.extend(cand)
        except NearSingularError as exc:
            logger.info("skipping numerically dependent support candidate %d", cand)
            if scan is not None:
                scan.ban(cand)
            yield Step(cand, weights.m, math.nan, math.nan, math.nan, math.nan, str(exc))
        else:
            radius = math.nan if scan is None else scan.add(cand)
            e = weights.e_trace
            ratio = 0.0 if weights.m == 1 else progress_ratio(
                float(e[0]), float(e[-2]), float(e[-1]))
            yield Step(cand, weights.m, float(e[-1]), ratio, radius, pivot)
            if radius == 0.0:
                return  # every point coincides with a center; exact already
        cand = pick()


def _finalize(spec, pts, indices, alpha, e_trace, k_max, epsilon, density_mode,
              method, steps=(), skipped=()):
    alpha = np.asarray(alpha, dtype=np.float64)
    if density_mode:
        alpha = project_simplex(alpha)
    diag = FitDiagnostics(
        e_trace=np.array(e_trace, dtype=np.float64),
        k_max=int(k_max),
        epsilon=float(epsilon),
        density_projected=bool(density_mode),
        radius_trace=np.array([s.radius for s in steps if not math.isnan(s.radius)]),
        skipped=tuple(sorted(skipped)),
        method=method,
        steps=tuple(steps),
    )
    return SparseKernelMean(
        spec=spec,
        support=pts[indices],
        alpha=alpha,
        support_indices=np.array(indices, dtype=np.int64),
        diagnostics=diag,
    )


def fit(data, spec: RadialKernelSpec, k_max=None, epsilon: float = 1e-8,
        density_mode: bool = False, first=None, seed: int = 0) -> SparseKernelMean:
    """Fit a sparse kernel mean by lockstep selection and weight updates.

    Each round extends the farthest-first selection by one point and
    refreshes the weights; fitting stops at the first support size k0 <=
    k_max whose relative error progress is at most epsilon. Points whose
    sections are numerically dependent on the current support are skipped.
    With density_mode the final weights are projected onto the probability
    simplex.

    Total work is O(n k0 d + k0^3).
    """
    pts = np.ascontiguousarray(data.points, dtype=np.float64)
    n = pts.shape[0]
    if k_max is None:
        k_max = default_k_max(n)
    if not 1 <= k_max <= n:
        raise ValueError(f"k_max must satisfy 1 <= k_max <= n (k_max={k_max}, n={n})")
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")

    weights = CholeskyWeights(data, spec)
    steps, skipped = [], []
    for step in fit_steps(weights, k_max, first=first, seed=seed):
        if step.skip is not None:
            skipped.append(step.index)  # a saturated fit skips thousands: keep indices only
            continue
        steps.append(step)
        if step.m > 1 and step.ratio <= epsilon:
            break
    return _finalize(spec, pts, weights.indices, weights.alpha, weights.e_trace, k_max,
                     epsilon, density_mode, "greedy", steps, skipped)


def random_selection_fit(data, spec: RadialKernelSpec, k: int, seed: int = 0,
                         density_mode: bool = False) -> SparseKernelMean:
    """Baseline: support drawn uniformly without replacement, no early stop."""
    pts = np.ascontiguousarray(data.points, dtype=np.float64)
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n (k={k}, n={n})")
    order = np.random.default_rng(seed).choice(n, size=k, replace=False)
    weights = CholeskyWeights(data, spec)
    steps = list(fit_steps(weights, k, order=order))
    return _finalize(spec, pts, weights.indices, weights.alpha, weights.e_trace, k,
                     0.0, density_mode, "random", [s for s in steps if s.skip is None],
                     [s.index for s in steps if s.skip is not None])


def fit_with_support(data, spec: RadialKernelSpec, support_indices,
                     density_mode: bool = False, tol: float = 1e-10) -> SparseKernelMean:
    """Weights for a fixed support via a direct solve of K alpha = kappa.

    This is the re-solve path for bandwidth sweeps: the support does not
    depend on the kernel parameters, so only this step has to be repeated.
    """
    pts = np.ascontiguousarray(data.points, dtype=np.float64)
    indices = np.asarray(support_indices, dtype=np.int64).ravel()
    if indices.size == 0:
        raise ValueError("support is empty")
    if np.unique(indices).size != indices.size:
        raise ValueError("support indices contain duplicates")
    gram = gram_matrix(spec, pts[indices])
    kappa = np.array([kappa_entry(data, spec, int(j)) for j in indices])
    alpha = solve_direct(gram, kappa, tol=tol)
    return _finalize(spec, pts, indices, alpha, [-float(alpha @ kappa)], indices.size,
                     0.0, density_mode, "fixed-support")


def full_mean(data, spec: RadialKernelSpec) -> SparseKernelMean:
    """The exact kernel mean: every point a support point, uniform weights."""
    pts = np.ascontiguousarray(data.points, dtype=np.float64)
    n = pts.shape[0]
    alpha = np.full(n, 1.0 / n)
    diag = FitDiagnostics(
        e_trace=np.empty(0),
        k_max=n,
        epsilon=0.0,
        density_projected=False,
        method="full",
    )
    return SparseKernelMean(
        spec=spec,
        support=pts.copy(),
        alpha=alpha,
        support_indices=np.arange(n, dtype=np.int64),
        diagnostics=diag,
    )


def evaluate(mean: SparseKernelMean, queries) -> np.ndarray:
    """Evaluate sum_i alpha_i phi(q, x_i) at each query row."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if queries.shape[1] != mean.spec.dim:
        raise ValueError(
            f"queries have dimension {queries.shape[1]}, kernel expects {mean.spec.dim}"
        )

    def _chunk(block):
        return kernel_matrix(mean.spec, block, mean.support) @ mean.alpha

    if queries.shape[0] <= _EVAL_CHUNK:
        return _chunk(queries)
    blocks = [queries[i:i + _EVAL_CHUNK] for i in range(0, queries.shape[0], _EVAL_CHUNK)]
    return np.concatenate(parallel_map(_chunk, blocks))


def evaluate_full(data, spec: RadialKernelSpec, queries) -> np.ndarray:
    """Evaluate the full kernel mean (1/n) sum_i phi(q, x_i)."""
    return evaluate(full_mean(data, spec), queries)


def incoherence(data, spec: RadialKernelSpec, support_indices) -> float:
    """min over excluded points of the max inner product with the support.

    For a radial kernel this equals g applied to the coverage radius of the
    support, so it needs one distance scan per support point and O(n)
    memory rather than a double loop.
    """
    pts = np.ascontiguousarray(data.points, dtype=np.float64)
    indices = np.asarray(support_indices, dtype=np.int64).ravel()
    if indices.size == 0:
        raise ValueError("support is empty")
    scan = kcenter.FarthestFirst(pts)
    for j in indices:
        scan.add(j)
    # Chosen points score -1, so the maximum runs over excluded points only.
    farthest = scan.next()
    if farthest < 0:
        raise ValueError("support covers every index; incoherence is undefined")
    coverage = math.sqrt(float(scan.sqdist[farthest]))
    return float(gram_at_dist(spec, coverage))


def bound_value(n: int, support_size: int, c: float, nu: float) -> float:
    """Approximation-error bound (1 - k/n) sqrt((C^2 - nu^2) / C)."""
    if not 0 < support_size <= n:
        raise ValueError(f"support size must be in [1, n] (got {support_size}, n={n})")
    if not c > 0:
        raise ValueError(f"C must be positive, got {c}")
    if nu < 0 or nu > c:
        raise ValueError(f"incoherence must satisfy 0 <= nu <= C (nu={nu}, C={c})")
    return (1.0 - support_size / n) * math.sqrt((c * c - nu * nu) / c)


def mean_gram_inner(a: SparseKernelMean, b: SparseKernelMean) -> float:
    """<mean_a, mean_b> = sum_ij alpha_i beta_j g(||x_i - y_j||)."""
    _check_compatible(a, b)
    cross = gram_matrix(a.spec, a.support, b.support)
    return float(a.alpha @ cross @ b.alpha)


def _check_compatible(a: SparseKernelMean, b: SparseKernelMean) -> None:
    if a.spec != b.spec:
        raise ValueError("kernel mismatch: the two means use different kernel specs")


def squared_mean_norm(data, spec: RadialKernelSpec, max_points: int = 5000) -> float:
    """||zbar||^2 by the full O(n^2) Gram sum. Audit paths only."""
    pts = np.asarray(data.points, dtype=np.float64)
    n = pts.shape[0]
    if n > max_points:
        raise ValueError(
            f"refusing the O(n^2) mean-norm computation for n={n} > {max_points}"
        )
    return float(gram_matrix(spec, pts).mean())


def residual_norm(data, spec: RadialKernelSpec, mean: SparseKernelMean,
                  max_points: int = 5000) -> float:
    """||zbar - mean||_H via Gram sums; O(n^2), audit paths only.

    Valid for any weight vector, including simplex-projected ones.
    """
    pts = np.asarray(data.points, dtype=np.float64)
    zbar_sq = squared_mean_norm(data, spec, max_points=max_points)
    if mean.support_indices is not None:
        kappa = np.array([kappa_entry(data, spec, int(j)) for j in mean.support_indices])
    else:
        from . import _backend
        from .kernels import gram_params

        kind, a_, b_, c_ = gram_params(spec)
        kappa = np.array([
            _backend.mean_gram(np.ascontiguousarray(pts), row, kind, a_, b_, c_)
            for row in mean.support
        ])
    gram = gram_matrix(spec, mean.support)
    value = zbar_sq - 2.0 * float(mean.alpha @ kappa) + float(mean.alpha @ gram @ mean.alpha)
    return math.sqrt(max(value, 0.0))
