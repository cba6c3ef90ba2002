"""Fitting and evaluating sparse kernel means.

A sparse kernel mean approximates the full mean zbar = (1/n) sum_i
phi(., x_i) by sum_{i in I} alpha_i phi(., x_i) with |I| = k0 << n. Support
points come from farthest-first traversal. For sections z_i = phi(., x_i)
the least-squares weights are alpha = K^{-1} kappa, with K_il = <z_i, z_l>
and kappa_l = (1/n) sum_j <z_j, z_l>. Adding a support point is one step
of pivoted Cholesky: with b its inner products with the support and
w = L^{-1} b, the lower factor L of K gains the row [w', sqrt(p)], p =
g(0) - w'w, and v = L^{-1} kappa gains v_m = (kappa_new - w'v) / sqrt(p).
E_m = -alpha' kappa = -||v||^2, the squared error minus the constant
||zbar||^2, is kept as E_m = E_{m-1} - v_m^2, so it never rises; the support
stops growing once its relative progress falls below epsilon. The weights
alpha = L^{-T} v take one triangular solve at the end, and K^{-1} is never
formed. A greedy fit is one `_backend.greedy_fit` call, and the random
baseline one `_backend.order_fit` call along a uniformly drawn order: two
walks of the same step, each of which ends with that solve and writes
alpha into the fit record.
"""

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _backend, kcenter
from ._backend._numpy_impl import RECORD_ROWS
from .kernels import RadialKernelSpec, block_sums, eval_params, gram_at_dist, gram_params

logger = logging.getLogger(__name__)

# Pivots at or below this fraction of g(0) signal a (near-)dependent
# support section. A pivot p bounds the condition number of K below by
# g(0)/p, so below ~1e-9 the weights L^{-T} v carry rounding error
# amplified by ~1e9 and degrade within a few further steps.
SINGULARITY_REL_TOL = 1e-9


def _empty():
    return np.empty(0)


@dataclass(frozen=True)
class FitDiagnostics:
    """The record of a fit, one entry per support point in fit order.

    e_trace holds E_1 .. E_k0, pivots each point's Cholesky pivot,
    radius_trace the coverage radius of the support after each step, and
    seconds_trace the seconds from the start of the backend's fit call to
    the end of each step; the full mean records none. Steps that one pass
    over the points serves end together: a large compiled greedy fit
    serves several steps a pass (see `skm._backend`), and those steps
    share one time. skipped lists the dependent candidates: the one that
    stopped a greedy fit, or the points a fixed-order fit dropped. stop names why the fit stopped:
    "budget" (k_max points, or a fixed order used up), "dependent",
    "ratio" (the progress ratio at most epsilon) or "radius" (every point
    covered); it is None for the full mean and a loaded model.
    """

    e_trace: np.ndarray
    k_max: int
    epsilon: float
    density_projected: bool
    radius_trace: np.ndarray = field(default_factory=_empty)
    skipped: tuple = ()
    method: str = "greedy"
    pivots: np.ndarray = field(default_factory=_empty)
    seconds_trace: np.ndarray = field(default_factory=_empty)
    stop: Optional[str] = None

    @property
    def ratio_trace(self) -> np.ndarray:
        """The stop-rule ratio |E_{m-1} - E_m| / |E_1 - E_m| at every support size.

        0 at m = 1 and on a flat trace (E_1 == E_m).
        """
        e = self.e_trace
        span, last = np.abs(e[:1] - e), np.abs(np.diff(e, prepend=e[:1]))
        return np.divide(last, span, out=np.zeros_like(e), where=span != 0.0)


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


def project_simplex(values):
    """Euclidean projection onto {v : sum v_i = 1, v_i >= 0}.

    Sort-based O(k log k) algorithm: pivot on the largest prefix whose
    shifted entries stay positive.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("cannot project an empty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot project a vector with non-finite entries")
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u)
    ranks = np.arange(1, v.size + 1)
    positive = u - (cumulative - 1.0) / ranks > 0.0
    rho = int(np.nonzero(positive)[0][-1])
    theta = (cumulative[rho] - 1.0) / (rho + 1)
    return np.maximum(v - theta, 0.0)


def _finalize(spec, points, indices, record, skipped, k_max, epsilon, density_mode, method,
              stop):
    """The fitted mean from a fit's kept indices and record, whose alpha row the walk solved."""
    pivots, _kappa, _v, e, radii, seconds, alpha = record.copy()
    diag = FitDiagnostics(
        e_trace=e,
        k_max=int(k_max),
        epsilon=float(epsilon),
        density_projected=bool(density_mode),
        radius_trace=radii,
        skipped=tuple(sorted(skipped)),
        method=method,
        pivots=pivots,
        seconds_trace=seconds,
        stop=stop,
    )
    return SparseKernelMean(
        spec=spec,
        support=points[indices],
        alpha=project_simplex(alpha) if density_mode else alpha,
        support_indices=indices.copy(),
        diagnostics=diag,
    )


def fit(data, spec: RadialKernelSpec, k_max=None, epsilon: float = 1e-8,
        density_mode: bool = False, first=None, seed: int = 0) -> SparseKernelMean:
    """Fit a sparse kernel mean by lockstep selection and weight updates.

    Candidates come from farthest-first traversal started at `first` (or a
    point drawn with `seed`). Each costs O(nd) work in a pass over the
    points, which also sums the Gram shape over the candidate's distances
    to every point, so its kernel row mean is one number, and one O(m^2)
    pivoted Cholesky step. A pass reads the n x d points once; on large
    inputs the compiled backend serves several candidates a pass, and on a
    CPU with AVX-512 solves their Gram rows in one sweep of the factor
    (`skm._backend` gives the rule). One `_backend.greedy_fit` call runs
    them all into the support indices and the fit record allocated here,
    grows the packed factor itself and ends by solving for the weights,
    with no Python per step. Fitting stops at
    the first support size k0 <= k_max whose relative error progress
    (`FitDiagnostics.ratio_trace`) is at most epsilon, once the support
    covers every point exactly, or at the first farthest candidate whose
    section is numerically dependent on the support (listed in
    `diagnostics.skipped`), as pivoted Cholesky stops at its first pivot
    below tolerance; `diagnostics.stop` names which, or "budget" at k_max.
    With density_mode the final weights are projected onto the
    probability simplex. The random baseline, `random_selection_fit`,
    takes the same step along a random order.

    Total work is O(n k0 d + k0^3).
    """
    n = np.asarray(data.points).shape[0]
    if k_max is None:
        k_max = default_k_max(n)
    k_max = kcenter._integer_in("k_max", k_max, 1, n, "1 <= k_max <= n", n)
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be nonnegative and finite, got {epsilon}")

    points = np.ascontiguousarray(data.points, dtype=np.float64)
    params = gram_params(spec)
    indices = np.empty(k_max, dtype=np.int64)
    record = np.empty((len(RECORD_ROWS), k_max))
    k0, cand, stop, _packed = _backend.greedy_fit(
        points, *params, SINGULARITY_REL_TOL * params.c, epsilon,
        kcenter._resolve_first(n, first, seed), indices, record)
    skipped = ()
    if stop == "dependent":
        logger.info("the fit stops at a dependent candidate: support point %d is numerically "
                    "dependent on the current support (pivot %.3e)", cand, record[0, k0])
        skipped = (cand,)
    return _finalize(spec, points, indices[:k0], record[:, :k0], skipped, k_max, epsilon,
                     density_mode, "greedy", stop)


def _support_indices(support_indices, n: int) -> np.ndarray:
    """support_indices as a flat int64 array, once it is non-empty, integral and inside [0, n).

    A bool mask or a value that is not an integer raises ValueError rather
    than being cast to an index.
    """
    values = np.asarray(support_indices).ravel()
    if values.size == 0:
        raise ValueError("support is empty")
    kind = values.dtype.kind
    if not (kind in "iu" or (kind == "f" and np.all(np.floor(values) == values))):
        raise ValueError(f"support indices must be integers (got {values.dtype} values)")
    if np.any((values < 0) | (values >= n)):
        raise ValueError(f"support indices must lie in [0, {n})")
    return values.astype(np.int64)


def _fixed_order_fit(data, spec, order, density_mode) -> SparseKernelMean:
    """Fit along `order` in one `_backend.order_fit` call, the greedy fit's step per point.

    A point is kept when its pivot exceeds the singularity threshold; a
    dropped point costs its Gram row against the kept points and no scan.
    The call ends by solving for the weights, as a greedy fit's does.
    The work is O(mnd + m^3 / 3) flops and O(nd + md) memory besides the factor.
    """
    points = np.ascontiguousarray(data.points, dtype=np.float64)
    params = gram_params(spec)
    m = order.shape[0]
    indices = np.empty(m, dtype=np.int64)
    record = np.empty((len(RECORD_ROWS), m))
    k, _packed = _backend.order_fit(points, *params, SINGULARITY_REL_TOL * params.c, order,
                                    indices, record)
    skipped = set(order.tolist()) - set(indices[:k].tolist())
    if skipped:
        logger.info("dropped %d of %d support candidates as numerically dependent",
                    len(skipped), m)
    return _finalize(spec, points, indices[:k], record[:, :k], skipped, m, 0.0, density_mode,
                     "random", "budget")


def random_selection_fit(data, spec: RadialKernelSpec, k: int, seed: int = 0,
                         density_mode: bool = False) -> SparseKernelMean:
    """Baseline: support drawn uniformly without replacement, no early stop.

    One `_backend.order_fit` call along the drawn order. A point that is
    numerically dependent on the points before it is dropped and listed in
    `diagnostics.skipped`, so the support may hold fewer than k points.
    """
    n = np.asarray(data.points).shape[0]
    k = kcenter._integer_in("k", k, 1, n, "1 <= k <= n", n)
    order = np.random.default_rng(seed).choice(n, size=k, replace=False)
    return _fixed_order_fit(data, spec, order, density_mode)


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
    """Evaluate sum_i alpha_i phi(q, x_i) at each query row; a 1-D array is 1-D points for dim 1."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim == 1 and mean.spec.dim == 1:
        queries = queries.reshape(-1, 1)
    queries = np.atleast_2d(queries)
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
    n = pts.shape[0]
    indices = _support_indices(support_indices, n)
    if np.unique(indices).size == n:
        raise ValueError("support covers every index; incoherence is undefined")
    scan = kcenter.FarthestFirst(pts)
    for j in indices:
        scan.add(j)
    # Chosen points sit at distance 0, so the radius is the maximum over
    # the excluded points.
    return float(gram_at_dist(spec, scan.radius))


def bound_value(n: int, support_size, c: float, nu):
    """Approximation-error bound (1 - k/n) sqrt((C^2 - nu^2) / C), elementwise.

    support_size and nu may be arrays, which broadcast together into an
    array of bounds; scalars give a float. n and every support size k must
    be integers with 1 <= k <= n.
    """
    n = kcenter._integer_in("n", n, 1, math.inf, "n >= 1")
    k = np.asarray(support_size)
    if not (k.dtype.kind in "iuf" and np.all((np.floor(k) == k) & (1 <= k) & (k <= n))):
        raise ValueError(f"support size must be an integer in [1, n] (got {support_size!r}, n={n})")
    if not 0 < c < math.inf:
        raise ValueError(f"C must be positive and finite, got {c}")
    nu = np.asarray(nu, dtype=np.float64)
    if not np.all((0 <= nu) & (nu <= c)):
        raise ValueError(f"incoherence must satisfy 0 <= nu <= C (nu={nu}, C={c})")
    bound = (1.0 - k / n) * np.sqrt((c * c - nu * nu) / c)
    return float(bound) if bound.ndim == 0 else bound


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
