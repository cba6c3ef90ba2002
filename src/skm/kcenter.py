"""Greedy farthest-first traversal: a 2-approximation to the k-center problem.

Each iteration scans all points once, so selecting k centers from n points
in d dimensions costs O(nkd). The coverage radius of the greedy selection
is at most twice the optimal radius for the same k.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _backend


@dataclass(frozen=True)
class Selection:
    """Chosen center indices plus per-point distances to the chosen set.

    order: chosen indices in selection order.
    radius_trace: coverage radius (max of dist_to_set) after each step.
    sqdist: squared Euclidean distance from every point to its nearest center.
    """

    order: np.ndarray
    radius_trace: np.ndarray
    sqdist: np.ndarray

    @property
    def dist_to_set(self) -> np.ndarray:
        """Euclidean distance from every point to its nearest center."""
        return np.sqrt(self.sqdist)

    @property
    def m(self) -> int:
        return self.order.shape[0]

    @property
    def coverage_radius(self) -> float:
        return float(self.radius_trace[-1])


def _integer_in(name: str, value, low: int, high: int, bounds: str, n=None) -> int:
    """value as an int, once it is an integer, not a bool, in [low, high].

    bounds states the range, in terms of n when n is given, for the error
    message.
    """
    try:
        ok = (not isinstance(value, (bool, np.bool_)) and value == int(value)
              and low <= value <= high)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        context = "" if n is None else f", n={n}"
        raise ValueError(f"{name} must be an integer with {bounds} ({name}={value!r}{context})")
    return int(value)


def _resolve_first(n: int, first, seed: int) -> int:
    if first is None:
        return int(np.random.default_rng(seed).integers(n))
    return _integer_in("first", first, 0, n - 1, "0 <= first < n", n)


class FarthestFirst:
    """In-place farthest-first state shared by kcenter_greedy, incoherence and clustering.

    sqdist holds each point's squared distance to the chosen set. The state
    keeps one coordinate-major (d, n) copy of the points, for the scans to
    read a coordinate of consecutive points at a time, and frees it with
    itself. `add(j)` makes point j a center by one backend scan, which
    lowers sqdist in place to the squared distances to j where they are
    smaller. `farthest` is then the point farthest from the set, ties to
    the lowest index; once the radius is 0 it is a chosen point or a
    duplicate of one.
    """

    def __init__(self, points):
        self.coords = np.ascontiguousarray(points.T, dtype=np.float64)
        n = self.coords.shape[1]
        self.sqdist = np.full(n, np.inf, dtype=np.float64)
        self.farthest = -1

    def add(self, j: int) -> None:
        """Make point j a center with one O(nd) scan."""
        self.farthest = _backend.farthest_scan(self.coords, int(j), self.sqdist)

    @property
    def radius(self) -> float:
        """Coverage radius: the distance from the farthest point to the set."""
        return math.sqrt(self.sqdist[self.farthest])


def kcenter_greedy(data, k: int, first=None, seed: int = 0) -> Selection:
    """Select k centers by farthest-first traversal.

    The first center is either the explicit index `first` or is drawn
    uniformly using `seed`. Every later center is the point farthest from
    the current set; ties break toward the lowest index, which makes the
    result independent of how the scan is scheduled. Once the coverage
    radius is 0, the remaining centers are the lowest unchosen indices.
    """
    pts = np.ascontiguousarray(data.points, dtype=np.float64)
    n = pts.shape[0]
    k = _integer_in("k", k, 1, n, "1 <= k <= n", n)
    order = np.empty(k, dtype=np.int64)
    radius = np.zeros(k, dtype=np.float64)
    scan = FarthestFirst(pts)

    order[0] = _resolve_first(n, first, seed)
    for t in range(k):
        scan.add(order[t])
        radius[t] = scan.radius
        if radius[t] == 0.0 or t + 1 == k:
            break
        order[t + 1] = scan.farthest
    if t + 1 < k:
        warnings.warn(
            "k exceeds the number of distinct points; selection contains "
            "duplicates of earlier centers",
            stacklevel=2,
        )
        unchosen = np.ones(n, dtype=bool)
        unchosen[order[:t + 1]] = False
        order[t + 1:] = np.flatnonzero(unchosen)[:k - t - 1]
    return Selection(order, radius, scan.sqdist)
