"""Fitting and evaluating sparse kernel means.

A sparse kernel mean approximates the full mean (1/n) sum_i phi(., x_i)
by sum_{i in I} alpha_i phi(., x_i) with |I| = k0 << n. Support points
come from farthest-first traversal, weights from pivoted Cholesky steps
that carry v = L^{-1} kappa (one triangular solve each; alpha = L^{-T} v
is solved for once, at the end), and the support stops growing once the
relative error progress falls below epsilon. A fixed support is factored
in one backend call instead of one step per point.
"""

import logging
import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional

import numpy as np

from . import kcenter
from .coefficients import CholeskyWeights, progress_ratio, project_simplex
from .errors import NearSingularError
from .kernels import RadialKernelSpec, block_sums, eval_params, gram_at_dist, gram_params

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class Step:
    """One candidate tried by the fit loop.

    m is the support size after the step. An accepted step records E_m,
    the stop-rule ratio |E_{m-1} - E_m| / |E_1 - E_m| (0 at m = 1), the
    coverage radius after the step (nan for a fixed candidate order) and
    the candidate's pivot. A skipped step is a numerically dependent
    candidate: its numbers are nan and skip holds the reason. It is the
    last step of a farthest-first fit.
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
    # Dependent candidates: the one that stopped a greedy fit, or the points
    # a fixed-order fit dropped.
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


def _support_budget(k_max, n: int) -> int:
    """k_max clipped to n, or default_k_max(n) when it is None.

    A bool, a non-integral k_max or one below 1 raises ValueError.
    """
    if k_max is None:
        return default_k_max(n)
    return min(n, kcenter._integer_in("k_max", k_max, 1, math.inf, "k_max >= 1", n))


def fit_steps(weights: CholeskyWeights, first=None, seed: int = 0):
    """The greedy select/extend loop: yield one Step per candidate tried.

    Candidates come from farthest-first traversal started at `first` (or a
    point drawn with `seed`). Each candidate costs one O(nd) scan, which
    also sums the Gram shape over the candidate's distances to every
    point, so `weights.extend` takes its kernel row mean from one number.
    A candidate whose section is numerically dependent on the support
    yields a skip Step with the reason and ends the loop, as pivoted
    Cholesky stops at its first pivot below tolerance. The loop also ends
    when the support fills the capacity of `weights` or covers every point
    exactly. The caller applies the stop rule by leaving the loop. A fixed candidate
    order takes no such loop: see `fit_with_support`.
    """
    scan = kcenter.FarthestFirst(weights.points)
    cand = kcenter._resolve_first(weights.points.shape[0], first, seed)
    while weights.m < weights.capacity:
        shape_sum = scan.add(cand, weights.shape)
        try:
            pivot = weights.extend(cand, shape_sum)
        except NearSingularError as exc:
            logger.info("support candidate %d is numerically dependent", cand)
            yield Step(cand, weights.m, math.nan, math.nan, math.nan, math.nan, str(exc))
            return
        e = weights.e_trace
        ratio = 0.0 if weights.m == 1 else progress_ratio(
            float(e[0]), float(e[-2]), float(e[-1]))
        yield Step(cand, weights.m, float(e[-1]), ratio, scan.radius, pivot)
        if scan.radius == 0.0:
            return  # every point coincides with a center; exact already
        cand = scan.farthest


def _finalize(spec, weights, steps, skipped, k_max, epsilon, density_mode, method):
    """The fitted mean from the weight state, its accepted Steps and skipped indices."""
    alpha = project_simplex(weights.alpha) if density_mode else weights.alpha
    diag = FitDiagnostics(
        e_trace=weights.e_trace.copy(),
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
        support=weights.points[weights.indices],
        alpha=alpha,
        support_indices=weights.indices.copy(),
        diagnostics=diag,
    )


def fit(data, spec: RadialKernelSpec, k_max=None, epsilon: float = 1e-8,
        density_mode: bool = False, first=None, seed: int = 0) -> SparseKernelMean:
    """Fit a sparse kernel mean by lockstep selection and weight updates.

    Each round extends the farthest-first selection by one point and
    refreshes the weights; fitting stops at the first support size k0 <=
    k_max whose relative error progress is at most epsilon, or at the
    first farthest candidate whose section is numerically dependent on the
    support (listed in `diagnostics.skipped`). With density_mode the final
    weights are projected onto the probability simplex.

    Total work is O(n k0 d + k0^3).
    """
    n = np.asarray(data.points).shape[0]
    if k_max is None:
        k_max = default_k_max(n)
    if not 1 <= k_max <= n or k_max != int(k_max):
        raise ValueError(f"k_max must be an integer with 1 <= k_max <= n (k_max={k_max}, n={n})")
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")

    weights = CholeskyWeights(data, spec, k_max)
    steps, skipped = [], []
    for step in fit_steps(weights, first=first, seed=seed):
        if step.skip is not None:
            skipped.append(step.index)
            continue
        steps.append(step)
        if step.m > 1 and step.ratio <= epsilon:
            break
    return _finalize(spec, weights, steps, skipped, k_max, epsilon, density_mode, "greedy")


def _fixed_order_fit(data, spec, order, density_mode, method) -> SparseKernelMean:
    """Factor the weights along `order` in one pass, dropping numerically dependent points.

    The factor and kappa of the points it keeps come from one
    `CholeskyWeights.factor` call. The accepted Steps are those extending
    along the order would record, with a nan radius.
    """
    weights = CholeskyWeights(data, spec, len(order))
    kept, pivots = weights.factor(order)
    skipped = order[~kept].tolist()
    if skipped:
        logger.info("dropped %d of %d support candidates as numerically dependent",
                    len(skipped), len(order))
    e = weights.e_trace
    # |E_{m-1} - E_m| / |E_1 - E_m| for every m, 0 at m = 1 and on a flat
    # trace, as progress_ratio defines it.
    span, last = np.abs(e[0] - e), np.abs(np.diff(e, prepend=e[0]))
    ratios = np.divide(last, span, out=np.zeros_like(e), where=span != 0.0)
    steps = list(map(Step, weights.indices.tolist(), range(1, weights.m + 1), e.tolist(),
                     ratios.tolist(), repeat(math.nan), pivots[kept].tolist()))
    return _finalize(spec, weights, steps, skipped, len(order), 0.0, density_mode, method)


def random_selection_fit(data, spec: RadialKernelSpec, k: int, seed: int = 0,
                         density_mode: bool = False) -> SparseKernelMean:
    """Baseline: support drawn uniformly without replacement, no early stop."""
    n = np.asarray(data.points).shape[0]
    k = kcenter._integer_in("k", k, 1, n, "1 <= k <= n", n)
    order = np.random.default_rng(seed).choice(n, size=k, replace=False)
    return _fixed_order_fit(data, spec, order, density_mode, "random")


def fit_with_support(data, spec: RadialKernelSpec, support_indices,
                     density_mode: bool = False) -> SparseKernelMean:
    """Weights for a fixed support, by pivoted Cholesky in the given order.

    This is the re-solve path for bandwidth sweeps: the support does not
    depend on the kernel parameters, so only this step has to be repeated.
    It costs one block sum for kappa and one factorisation call
    (`_backend.factor_order`, which forms the Gram rows it needs itself),
    with no Python step per support point. A support point that is
    numerically dependent on the points before it is dropped and listed in
    `diagnostics.skipped`, so `support_indices` may come back shorter than
    the input.
    """
    n = np.asarray(data.points).shape[0]
    indices = np.asarray(support_indices, dtype=np.int64).ravel()
    if indices.size == 0:
        raise ValueError("support is empty")
    if np.any((indices < 0) | (indices >= n)):
        raise ValueError(f"support indices must lie in [0, {n})")
    if np.unique(indices).size != indices.size:
        raise ValueError("support indices contain duplicates")
    return _fixed_order_fit(data, spec, indices, density_mode, "fixed-support")


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
    return block_sums(eval_params(mean.spec), queries, mean.support, mean.alpha)


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
    n = pts.shape[0]
    if indices.size == 0:
        raise ValueError("support is empty")
    if np.any((indices < 0) | (indices >= n)):
        raise ValueError(f"support indices must lie in [0, {n})")
    if np.unique(indices).size == n:
        raise ValueError("support covers every index; incoherence is undefined")
    scan = kcenter.FarthestFirst(pts)
    for j in indices:
        scan.add(j)
    # Chosen points sit at distance 0, so the radius is the maximum over
    # the excluded points.
    return float(gram_at_dist(spec, scan.radius))


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
    """<mean_a, mean_b> = sum_ij alpha_i beta_j g(||x_i - y_j||), in flat memory."""
    _check_compatible(a, b)
    return float(a.alpha @ block_sums(gram_params(a.spec), a.support, b.support, b.alpha))


def _check_compatible(a: SparseKernelMean, b: SparseKernelMean) -> None:
    if a.spec != b.spec:
        raise ValueError("kernel mismatch: the two means use different kernel specs")


def squared_mean_norm(data, spec: RadialKernelSpec, max_points: int = 5000) -> float:
    """||zbar||^2 by the full O(n^2) Gram sum, in flat memory. Audit paths only."""
    n = np.asarray(data.points).shape[0]
    if n > max_points:
        raise ValueError(
            f"refusing the O(n^2) mean-norm computation for n={n} > {max_points}"
        )
    full = full_mean(data, spec)
    return mean_gram_inner(full, full)
