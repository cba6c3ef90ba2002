"""Greedy farthest-first traversal: a 2-approximation to the k-center problem.

Each iteration scans all points once, so selecting k centers from n points
in d dimensions costs O(nkd). The coverage radius of the greedy selection
is at most twice the optimal radius for the same k.
"""

import math
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.spatial.distance import cdist

from . import _backend


@dataclass(frozen=True)
class Selection:
    """Chosen center indices plus per-point distances to the chosen set.

    order: chosen indices in selection order.
    dist_to_set: Euclidean distance from every point to its nearest center.
    radius_trace: coverage radius (max of dist_to_set) after each step.
    """

    order: np.ndarray
    dist_to_set: np.ndarray
    radius_trace: np.ndarray
    sqdist: np.ndarray  # squared distances; basis for exact incremental updates

    @property
    def m(self) -> int:
        return self.order.shape[0]

    @property
    def coverage_radius(self) -> float:
        return float(self.radius_trace[-1])


def _resolve_first(n: int, first, seed: int) -> int:
    if first is None:
        return int(np.random.default_rng(seed).integers(n))
    first = int(first)
    if not 0 <= first < n:
        raise ValueError(f"first index {first} out of range for n={n}")
    return first


class FarthestFirst:
    """In-place farthest-first state shared by kcenter_greedy and the fit.

    sqdist holds each point's squared distance to the chosen set; score
    equals sqdist except that chosen and banned points hold -1, so the
    next center is one argmax away and a ban costs O(1).
    """

    def __init__(self, points):
        self.points = points
        self.sqdist = np.full(points.shape[0], np.inf, dtype=np.float64)
        self.score = np.full(points.shape[0], np.inf, dtype=np.float64)

    def add(self, j: int) -> float:
        """Make point j a center with one O(nd) scan; return the coverage radius."""
        _backend.update_sqdist(self.points, self.points[j], self.sqdist)
        np.minimum(self.score, self.sqdist, out=self.score)
        self.score[j] = -1.0
        return math.sqrt(float(np.max(self.sqdist)))

    def ban(self, j: int) -> None:
        self.score[j] = -1.0

    def next(self) -> int:
        """Unchosen, unbanned point farthest from the set (ties: lowest index); -1 if none."""
        idx = int(np.argmax(self.score))
        return idx if self.score[idx] >= 0.0 else -1


def kcenter_greedy(data, k: int, first=None, seed: int = 0) -> Selection:
    """Select k centers by farthest-first traversal.

    The first center is either the explicit index `first` or is drawn
    uniformly using `seed`. Every later center is the point farthest from
    the current set; ties break toward the lowest index, which makes the
    result independent of how the scan is scheduled.
    """
    pts = np.ascontiguousarray(data.points, dtype=np.float64)
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n (k={k}, n={n})")
    order = np.empty(k, dtype=np.int64)
    radius = np.empty(k, dtype=np.float64)
    scan = FarthestFirst(pts)

    cur = _resolve_first(n, first, seed)
    for t in range(k):
        order[t] = cur
        radius[t] = scan.add(cur)
        if t + 1 < k:
            cur = scan.next()
    if k > 1 and radius[k - 2] == 0.0:
        warnings.warn(
            "k exceeds the number of distinct points; selection contains "
            "duplicates of earlier centers",
            stacklevel=2,
        )
    return Selection(order, np.sqrt(scan.sqdist), radius, scan.sqdist)


def kcenter_brute(data, k: int, max_subsets: int = 1_000_000):
    """Exact k-center by exhaustive enumeration. Test oracle only.

    Returns (best index tuple, optimal coverage radius). Guarded against
    instances with more than max_subsets candidate subsets.
    """
    pts = np.asarray(data.points, dtype=np.float64)
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n (k={k}, n={n})")
    if math.comb(n, k) > max_subsets or n > 4096:
        raise ValueError(
            f"instance too large for brute force (C({n},{k}) subsets)"
        )
    dists = cdist(pts, pts)
    best_w = math.inf
    best = None
    all_idx = np.arange(n)
    for subset in combinations(range(n), k):
        rest = np.setdiff1d(all_idx, subset, assume_unique=True)
        if rest.size == 0:
            w = 0.0
        else:
            w = float(dists[np.ix_(rest, subset)].min(axis=1).max())
        if w < best_w:
            best_w = w
            best = subset
    return best, best_w
