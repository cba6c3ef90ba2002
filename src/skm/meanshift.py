"""Mean-shift mode seeking over a Gaussian kernel density, plus clustering
comparison metrics.

Each point is moved to the weighted average of the density's support
points, with Gaussian weights scaled by the support coefficients, until
the move falls below gamma. A sparse density with k0 support points makes
every iteration k0/n times cheaper than the full density. Converged
points are merged into clusters by single linkage, and two runs are
compared by the fraction of points shifted apart (discrepancy index) and
by the empirical Hausdorff distance between the induced partitions.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._backend._numpy_impl import _BLOCK_ENTRIES, _distances
from .kcenter import FarthestFirst, _integer_in
from .kernels import block_sums, eval_params
from .sparse_mean import SparseKernelMean

# Relative slack of the cover's triangle-inequality tests. It absorbs the
# rounding gap between the scan's squared distances and the Euclidean
# distances of the comparisons.
_MARGIN = 1e-12

_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class ShiftResult:
    """Converged positions for every input point."""

    shifted: np.ndarray
    iterations: np.ndarray
    kernel_evals: int
    converged: np.ndarray


@dataclass(frozen=True)
class Clustering:
    """Cluster labels (0..C-1, dense) and one representative point each."""

    labels: np.ndarray
    modes: np.ndarray

    @property
    def n_clusters(self) -> int:
        return self.modes.shape[0]


def _check_weights(mean: SparseKernelMean) -> None:
    if mean.spec.family != "gaussian":
        raise ValueError("mean-shift supports gaussian kernels only")
    if np.any(mean.alpha < 0.0):
        raise ValueError(
            "mean-shift requires nonnegative weights (a density-mode fit); "
            "signed weights would break the weighted-average update"
        )
    if float(mean.alpha.sum()) <= 0.0:
        raise ValueError("mean-shift requires a positive total weight")


def _shift(x0, mean: SparseKernelMean, gamma: float, max_iter: int):
    """Shift the rows of x0 together until each one's step falls below gamma.

    Each round moves every active point to the weighted average of the
    support, by one kernel sum against alpha * [support | 1], and retires
    the points whose step was below gamma. A point whose weight total
    underflows (to zero or to a subnormal, where the quotient would be
    rounding noise) stays where it is and is marked not converged.
    """
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    # the iteration counts are an int64 array
    max_iter = _integer_in("max_iter", max_iter, 1, _INT64_MAX, "1 <= max_iter <= 2**63 - 1")
    _check_weights(mean)
    x = np.array(x0, dtype=np.float64)
    iterations = np.full(x.shape[0], max_iter, dtype=np.int64)
    converged = np.zeros(x.shape[0], dtype=bool)
    params = eval_params(mean.spec)
    coef = mean.alpha[:, None] * np.hstack([mean.support, np.ones((mean.k0, 1))])
    active = np.arange(x.shape[0])
    for it in range(1, max_iter + 1):
        if active.size == 0:
            break
        sums = block_sums(params, x[active], mean.support, coef)
        wsum = sums[:, -1]
        dead = wsum < np.finfo(np.float64).tiny
        if dead.any():
            warnings.warn(
                "kernel weights underflowed below the smallest normal float; "
                "point left stationary",
                stacklevel=3,
            )
            iterations[active[dead]] = it
            active, sums, wsum = active[~dead], sums[~dead], wsum[~dead]
        new_x = sums[:, :-1] / wsum[:, None]
        step = np.linalg.norm(new_x - x[active], axis=1)
        x[active] = new_x
        done = step < gamma
        iterations[active[done]] = it
        converged[active[done]] = True
        active = active[~done]
    return x, iterations, converged


def mean_shift_all(data, mean: SparseKernelMean, gamma: float,
                   max_iter: int = 500) -> ShiftResult:
    """Shift every data point; the points still moving advance together."""
    pts = np.asarray(data.points, dtype=np.float64)
    if pts.shape[1] != mean.spec.dim:
        raise ValueError("data dimension does not match the kernel dimension")

    shifted, iterations, converged = _shift(pts, mean, gamma, max_iter)
    return ShiftResult(
        shifted=shifted,
        iterations=iterations,
        kernel_evals=int(iterations.sum()) * mean.k0,
        converged=converged,
    )


def cluster_modes(shift_result, merge_dist: float) -> Clustering:
    """Single-linkage merge of converged points within merge_dist.

    shift_result is a ShiftResult or an array of finite converged
    positions. Clusters are the connected components of the graph joining
    points at most merge_dist apart. A farthest-first cover splits the
    points into cells (see `_cover`); a cell of diameter below merge_dist
    is one node with no distance formed, and only the cell pairs the
    triangle inequality cannot rule out are compared, in blocks of at most
    2^18 distances. Time is O(sqrt(n) n d) for the cover plus the pairs it
    leaves, O(n^2 d) in the worst case; memory is O(n) plus one block.
    Labels are dense ids in order of first appearance; each mode is the
    mean of its members' positions.
    """
    if not merge_dist > 0:
        raise ValueError(f"merge_dist must be positive, got {merge_dist}")
    pts = np.ascontiguousarray(_shifted_array(shift_result))
    n = pts.shape[0]
    if n == 0:
        raise ValueError("no points to cluster")
    if not np.isfinite(pts).all():
        raise ValueError("cannot cluster non-finite positions (NaN or inf)")
    leaders, cell, rho = _cover(pts, merge_dist)
    n_cells = leaders.shape[0]
    # A cell of diameter at most 2 rho < merge_dist is a clique, so one node;
    # every point of any other cell starts as a node of its own.
    clique = 2.0 * rho <= merge_dist * (1.0 - _MARGIN)
    labels = np.where(clique[cell], cell, n_cells + np.arange(n))
    # Cells a and b can hold a close pair only if d(l_a, l_b) <= rho_a + rho_b + r.
    reach = np.triu(_distances(pts[leaders], pts[leaders])
                    <= (rho[:, None] + rho + merge_dist) * (1.0 + _MARGIN), 1)
    np.fill_diagonal(reach, ~clique)
    order = np.argsort(cell, kind="stable")
    cuts = np.cumsum(np.bincount(cell, minlength=n_cells))
    members = np.split(order, cuts[:-1])
    heads, tails, pending = [], [], 0
    for a in np.flatnonzero(reach.any(axis=1)):
        cols = np.concatenate([members[b] for b in np.flatnonzero(reach[a])])
        col_pts, col_labels = pts[cols], labels[cols]
        step = max(1, _BLOCK_ENTRIES // cols.shape[0])
        for start in range(0, members[a].shape[0], step):
            rows = members[a][start:start + step]
            i, j = np.nonzero(_distances(pts[rows], col_pts) <= merge_dist)
            head, tail = labels[rows[i]], col_labels[j]
            join = head != tail
            heads.append(head[join])
            tails.append(tail[join])
            pending += rows.shape[0] * cols.shape[0]
            if pending >= _BLOCK_ENTRIES:
                labels = _join(labels, heads, tails)
                col_labels = labels[cols]
                heads, tails, pending = [], [], 0
    labels = _join(labels, heads, tails)
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    labels = np.argsort(np.argsort(first))[inverse]  # rank of each first index
    sums = np.column_stack([np.bincount(labels, weights=col) for col in pts.T])
    return Clustering(labels=labels, modes=sums / np.bincount(labels)[:, None])


def _cover(pts, merge_dist):
    """Farthest-first cover of pts from index 0, stopped at radius merge_dist/2.

    Adds leaders until the coverage radius is at most merge_dist/2 (less
    the margin) or there are isqrt(n) of them. A point joins a new leader's
    cell when its distance to the leaders drops. Returns the leader
    indices, each point's cell (the index in `leaders` of its nearest
    leader, the earliest on ties) and each cell's radius, the largest
    distance from its leader to a member.
    """
    n = pts.shape[0]
    scan = FarthestFirst(pts)
    scan.add(0)
    leaders = [0]
    cell = np.zeros(n, dtype=np.intp)
    before = np.empty(n)
    cap = max(1, math.isqrt(n))
    while scan.radius > 0.5 * merge_dist * (1.0 - _MARGIN) and len(leaders) < cap:
        leaders.append(scan.farthest)
        np.copyto(before, scan.sqdist)
        scan.add(leaders[-1])
        cell[scan.sqdist < before] = len(leaders) - 1
    rho2 = np.zeros(len(leaders))
    np.maximum.at(rho2, cell, scan.sqdist)
    return np.array(leaders), cell, np.sqrt(rho2)


def _join(labels, heads, tails):
    """Relabel by the connected components of the edges heads[k] - tails[k].

    Each component takes its smallest node id. A round hooks the larger
    root of each edge that still joins two roots to the smallest root it
    meets there, then jumps pointers (root = root[root]) until every node
    points at a root; rounds repeat until no edge joins two roots.
    """
    if not any(h.shape[0] for h in heads):
        return labels
    heads, tails = np.concatenate(heads), np.concatenate(tails)
    root = np.arange(int(labels.max()) + 1)
    while True:
        a, b = root[heads], root[tails]
        join = a != b
        if not join.any():
            return root[labels]
        heads, tails, a, b = heads[join], tails[join], a[join], b[join]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        up = root[root]
        while not np.array_equal(up, root):
            root, up = up, up[up]


def _shifted_array(obj) -> np.ndarray:
    """Positions as rows; a 1-D array is n points in one dimension, as in DataSet."""
    arr = np.asarray(getattr(obj, "shifted", obj), dtype=np.float64)
    return arr.reshape(-1, 1) if arr.ndim < 2 else arr


def discrepancy_index(shifted_a, shifted_b, delta: float) -> float:
    """Fraction of points whose two converged positions differ by more than delta.

    delta must satisfy 0 <= delta < inf: at inf every pair would agree.
    """
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be nonnegative and finite, got {delta}")
    a = _shifted_array(shifted_a)
    b = _shifted_array(shifted_b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.mean(np.linalg.norm(a - b, axis=1) > delta))


def hausdorff_clustering_distance(clustering_a: Clustering,
                                  clustering_b: Clustering,
                                  data=None) -> float:
    """Empirical Hausdorff distance between two partitions of the same points.

    Cluster-to-cluster distance is the empirical mass of the symmetric
    difference; each cluster is matched to its closest counterpart and the
    worst match over both directions is returned. Invariant under cluster
    relabeling, zero exactly for equal partitions.
    """
    la = np.asarray(clustering_a.labels)
    lb = np.asarray(clustering_b.labels)
    if la.shape != lb.shape:
        raise ValueError(f"clusterings cover {la.shape[0]} vs {lb.shape[0]} points")
    n = la.shape[0]
    if data is not None:
        n_data = np.asarray(getattr(data, "points", data)).shape[0]
        if n_data != n:
            raise ValueError(f"clusterings have {n} points but data has {n_data}")
    n_a = la.max() + 1
    n_b = lb.max() + 1
    contingency = np.zeros((n_a, n_b))
    np.add.at(contingency, (la, lb), 1.0)
    size_a = contingency.sum(axis=1)
    size_b = contingency.sum(axis=0)
    # |A sym-diff B| = |A| + |B| - 2 |A inter B|
    sym_diff = (size_a[:, None] + size_b[None, :] - 2.0 * contingency) / n
    max_a = float(sym_diff.min(axis=1).max())
    max_b = float(sym_diff.min(axis=0).max())
    return max(max_a, max_b)
