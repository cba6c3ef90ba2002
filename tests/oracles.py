"""Exact references that the tests check the package against.

Kept out of the package: no fit needs them, and each costs far more than
the code it checks.
"""

import math
from itertools import combinations

import numpy as np
from scipy.linalg import cho_solve
from scipy.spatial.distance import cdist

from skm._backend._numpy_impl import SHAPE_EXP, SHAPE_POWER, _apply_shape
from skm.kernels import eval_params, gram_params


def kcenter_brute(data, k: int, max_subsets: int = 1_000_000):
    """Exact k-center by exhaustive enumeration.

    Returns (best index tuple, optimal coverage radius). Guarded against
    instances with more than max_subsets candidate subsets.
    """
    pts = np.asarray(data.points, dtype=np.float64)
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n (k={k}, n={n})")
    if math.comb(n, k) > max_subsets or n > 4096:
        raise ValueError(f"instance too large for brute force (C({n},{k}) subsets)")
    dists = cdist(pts, pts)
    best_w = math.inf
    best = None
    all_idx = np.arange(n)
    for subset in combinations(range(n), k):
        rest = np.setdiff1d(all_idx, subset, assume_unique=True)
        w = float(dists[np.ix_(rest, subset)].min(axis=1).max()) if rest.size else 0.0
        if w < best_w:
            best_w = w
            best = subset
    return best, best_w


def inverse_gram(packed):
    """K^{-1} from the packed lower Cholesky factor of K, row i at offset i(i+1)/2, in O(m^3)."""
    m = (math.isqrt(8 * packed.size + 1) - 1) // 2
    lower = np.zeros((m, m))
    lower[np.tril_indices(m)] = packed
    inv = cho_solve((lower, True), np.eye(m), check_finite=False)
    return 0.5 * (inv + inv.T)


def progress_ratio(e_first: float, e_prev: float, e_last: float) -> float:
    """|E_{m-1} - E_m| / |E_1 - E_m|; a flat trace (E_1 == E_m) gives 0."""
    den = abs(e_first - e_last)
    return 0.0 if den == 0.0 else abs(e_prev - e_last) / den


def kernel_block(params, xs, ys=None):
    """Matrix of c * shape(||x_i - y_j||) from cdist's squared distances.

    The package's own kernel sums and Gram rows never form such a block; the
    tests check them against it. Any layout goes in; 1-D rows are one point
    each.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    ys = xs if ys is None else np.atleast_2d(np.asarray(ys, dtype=np.float64))
    return _apply_shape(params, cdist(xs, ys, "sqeuclidean"))


def kernel_matrix(spec, xs, ys=None):
    """Matrix of phi(x_i, y_j) values."""
    return kernel_block(eval_params(spec), xs, ys)


def gram_matrix(spec, xs, ys=None):
    """Matrix of section inner products g(||x_i - y_j||)."""
    return kernel_block(gram_params(spec), xs, ys)


def _pointwise(params, x, y) -> float:
    """c * shape(||x - y||) for two points, from the profile's formula in Python floats."""
    kind, a, b, c = params
    r2 = sum((p - q) ** 2 for p, q in zip(np.ravel(x), np.ravel(y)))
    if kind == SHAPE_POWER:
        return c * (1.0 + a * r2) ** -b
    return c * math.exp(-a * (math.sqrt(r2) if kind == SHAPE_EXP else r2))


def kernel_eval(spec, x, y) -> float:
    """Pointwise kernel value phi(x, y)."""
    return _pointwise(eval_params(spec), x, y)


def gram_inner(spec, x, y) -> float:
    """Inner product <phi(., x), phi(., y)> in the spec's space."""
    return _pointwise(gram_params(spec), x, y)
