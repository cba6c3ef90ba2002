"""Pure-numpy implementation of the hot inner loops, and the radial shape codes.

`farthest_scan` is a farthest-first step over the coordinate-major points
that lowers one distance buffer in place. `kernel_sums` forms kernel sums
against a 2-D coef in blocks of cdist, the shape and a matrix product.
`greedy_fit` and `order_fit` are whole fits, two walks of one step
(`_Walk.step`): the candidate's Gram row from its distances to the kept
points and BLAS's packed triangular solve, then, for a kept candidate
only, the scan with the shape sum, v_m by a BLAS dot, E_m, the radius and
the time. `greedy_fit` walks farthest-first until a stop test holds,
`order_fit` along a given order, dropping dependent candidates; each ends
with one more packed solve for the weights alpha = L^{-T} v. Used when the
compiled extension is unavailable. The signatures and the buffer checks
match skm._backend._fastcore exactly. scipy is imported inside the
functions that call it, so importing this module loads numpy alone.

A profile is c * shape_kind(r) for a SHAPE_* kind below; the compiled
backend numbers the kinds the same way, and `_apply_shape` is the one numpy
shape function, which skm.kernels uses too. `_distances`, Euclidean
distances bit-identical to cdist's with numpy alone, serves mode
clustering and `bandwidth_jaakkola` on either backend.
"""

import math
import time

import numpy as np

__all__ = ("farthest_scan", "kernel_sums", "greedy_fit", "order_fit")

# The rows of a fit's record, in order: each support point's pivot, kappa,
# v = L^{-1} kappa entry, E, coverage radius after its step, the seconds
# from the start of the fit call to the end of its step, and its weight
# alpha = L^{-T} v, solved once the walk ends. The compiled backend exports
# the row count, and skm._backend refuses a build whose count differs.
RECORD_ROWS = ("pivots", "kappa", "v", "e", "radius", "seconds", "alpha")
RECORD_ROW_COUNT = len(RECORD_ROWS)
_ROW = {name: row for row, name in enumerate(RECORD_ROWS)}

# A kernel or distance block holds at most this many entries (2 MB), so the
# memory of a numpy kernel sum or of mode clustering stays flat whatever
# the size.
_BLOCK_ENTRIES = 2**18


def _distances(xa, xb):
    """Euclidean distances between the rows of xa and the rows of xb.

    The squared differences are summed over the columns k = 0..d-1 in
    order and the square root taken, as scipy's cdist does, so the two
    agree bit for bit. The result is formed in row chunks of about 2^15
    entries, each chunk's sum and column term in place in two buffers
    that stay in cache; no broadcast temporary is formed.
    """
    out = np.zeros((xa.shape[0], xb.shape[0]))
    rows = max(1, 2**15 // max(1, xb.shape[0]))
    term = np.empty((min(rows, xa.shape[0]), xb.shape[0]))
    xbt = np.ascontiguousarray(xb.T)
    for i in range(0, xa.shape[0], rows):
        acc = out[i:i + rows]
        t = term[:acc.shape[0]]
        for k in range(xa.shape[1]):
            buf = t if k else acc
            np.subtract(xa[i:i + rows, k, None], xbt[k], out=buf)
            np.multiply(buf, buf, out=buf)
            if k:
                acc += t
        np.sqrt(acc, out=acc)
    return out


SHAPE_SQEXP = 0  # c * exp(-a * r^2)
SHAPE_EXP = 1    # c * exp(-a * r)
SHAPE_POWER = 2  # c * (1 + a * r^2) ** (-b)
SHAPE_KINDS = (SHAPE_SQEXP, SHAPE_EXP, SHAPE_POWER)


def _apply_shape(params, r2):
    """c * shape(r), computed in place on the float64 array r2 of squared distances.

    params is (kind, a, b, c), as a kernels.ShapeParams holds them.
    """
    kind, a, b, c = params
    if kind == SHAPE_POWER:
        r2 *= a
        r2 += 1.0
        np.power(r2, -b, out=r2)
    else:
        if kind == SHAPE_EXP:
            np.sqrt(r2, out=r2)
        r2 *= -a
        np.exp(r2, out=r2)
    if c != 1.0:
        r2 *= c
    return r2


def farthest_scan(coords, j, sqdist):
    """Make point j a center in one pass over the coordinate-major points.

    coords is the (d, n) transpose of the points. Lowers sqdist in place to
    min(sqdist, ||x_i - x_j||^2), the coordinates summed in order, and
    returns the index of the largest sqdist, lowest index on ties. Bad
    buffers or a j outside [0, n) raise TypeError or ValueError before
    sqdist changes. A farthest entry that is negative or NaN raises
    ValueError once sqdist has already been lowered.
    """
    _borrow(coords, "coords", 2, -1)
    n = coords.shape[1]
    _borrow(sqdist, "sqdist", 1, n, writable=True)
    if not 0 <= j < n:
        raise ValueError(f"index {j} out of range for n={n}")
    np.minimum(sqdist, _sqdist_to(coords, j), out=sqdist)
    far = int(np.argmax(sqdist))
    if not sqdist[far] >= 0.0:
        raise ValueError("the farthest sqdist entry is negative or NaN")
    return far


def _sqdist_to(coords, j):
    """||x_i - x_j||^2 for every point i, summing the coordinates in order."""
    diff = coords - coords[:, j:j + 1]
    diff *= diff
    return diff.sum(axis=0)


def _borrow(a, name, ndim, rows, writable=False, dtype=np.float64):
    """a itself, once it is a C-contiguous array of dtype as the C checks it."""
    if not isinstance(a, np.ndarray) or a.dtype != dtype:
        raise TypeError(f"{name} must be a {np.dtype(dtype).name} array")
    if a.ndim != ndim or not a.flags.c_contiguous:
        raise ValueError(f"{name} must be a C-contiguous {ndim}-D array")
    if rows >= 0 and a.shape[0] != rows:
        raise ValueError(f"{name} has the wrong length")
    if writable and not a.flags.writeable:
        raise ValueError(f"{name} must be writable")
    return a


def kernel_sums(xs, ys, coef, kind, a, b, c, out):
    """Write c * sum_j shape_kind(||xs_i - ys_j||^2) coef[j, q] into out[i, q].

    xs and ys are C-contiguous float64 with the same number of columns,
    coef is C-contiguous float64 of shape (len(ys), p), and out a writable
    C-contiguous float64 array of shape (len(xs), p). kind is a SHAPE_*
    code above. Bad buffers or an unknown kind raise
    TypeError or ValueError before out changes. The kernel values are
    formed in row blocks of at most 2^18 entries, or one row when ys is
    longer.
    """
    if kind not in SHAPE_KINDS:
        raise ValueError(f"unknown shape kind {kind}")
    _borrow(xs, "xs", 2, -1)
    _borrow(ys, "ys", 2, -1)
    if ys.shape[1] != xs.shape[1]:
        raise ValueError(f"ys has {ys.shape[1]} columns, xs has {xs.shape[1]}")
    _borrow(coef, "coef", 2, ys.shape[0])
    _borrow(out, "out", 2, xs.shape[0], writable=True)
    if out.shape[1] != coef.shape[1]:
        raise ValueError("out must have one column per column of coef")
    from scipy.spatial.distance import cdist
    rows = max(1, _BLOCK_ENTRIES // max(1, ys.shape[0]))
    for i in range(0, xs.shape[0], rows):
        block = cdist(xs[i:i + rows], ys, "sqeuclidean")
        np.matmul(_apply_shape((kind, a, b, c), block), coef, out=out[i:i + rows])


def _tpsv(packed, x, trans):
    """x <- L^{-1} x (trans 0) or L^{-T} x (trans 1) in place, by BLAS's packed solve.

    packed holds the rows of the lower factor L, row i at offset i(i+1)/2,
    for the length of x.
    """
    if x.shape[0]:
        from scipy.linalg import blas
        # The packed rows of L are the packed columns of the upper factor
        # L', so BLAS's trans is the opposite of ours.
        x[:] = blas.dtpsv(x.shape[0], packed, x, trans=1 - trans)


class _Walk:
    """One fit's state: the points and the kept points coordinate-major, the
    squared distances to the support, the packed lower factor L, and the
    indices and record."""

    def __init__(self, points, params, threshold, indices, record, t0, rows=-1):
        _borrow(indices, "indices", 1, rows, writable=True, dtype=np.int64)
        _borrow(record, "record", 2, RECORD_ROW_COUNT, writable=True)
        if record.shape[1] != indices.shape[0]:
            raise ValueError("record must have one column per index")
        self.coords = np.ascontiguousarray(points.T)
        self.kept = np.empty((points.shape[1], indices.shape[0]))
        self.sqdist = np.full(points.shape[0], np.inf)
        self.packed = np.empty(0)
        self.params, self.threshold = params, threshold
        self.indices, self.record, self.t0 = indices, record, t0
        self.m = 0

    def step(self, cand):
        """Try cand as support point m; the farthest point from the support, or None.

        cand's Gram row w against the kept points, from their coordinates
        and solved against L, gives its pivot c - w'w, and cand is kept when
        that exceeds the threshold. Only then does the step form cand's
        distances to every point, lower the distances, sum the shape over
        them (kappa = c * sum / n), and set v_m = (kappa - w'v) /
        sqrt(pivot), E_m = E_{m-1} - v_m^2, the radius sqrt(max sqdist) and
        the seconds. A dependent cand changes nothing but the record's
        pivot of point m. The packed factor starts at 16 rows and doubles,
        up to the capacity, each time it fills.
        """
        m, cap = self.m, self.indices.shape[0]
        kind, a, b, c = self.params
        pivots, kappa, v, e, radius, seconds, _alpha = self.record
        row = m * (m + 1) // 2
        if row == self.packed.shape[0]:  # the factor is full: double it
            rows = min(cap, max(16, 2 * m))
            grown = np.empty(rows * (rows + 1) // 2)
            grown[:row] = self.packed[:row]
            self.packed = grown
        # cand goes in column m, the next free one, so that the sum runs
        # over at least two columns and adds k = 0..d-1 in order: numpy
        # sums a lone column pairwise.
        self.kept[:, m] = self.coords[:, cand]
        w = self.packed[row:row + m]
        np.multiply(_apply_shape((kind, a, b, 1.0), _sqdist_to(self.kept[:, :m + 1], m)[:m]), c,
                    out=w)
        _tpsv(self.packed[:row], w, 0)
        pivots[m] = c - float(w @ w)
        if not pivots[m] > self.threshold:
            return None
        root = self.packed[row + m] = math.sqrt(pivots[m])
        r2 = _sqdist_to(self.coords, cand)
        np.minimum(self.sqdist, r2, out=self.sqdist)
        far = int(np.argmax(self.sqdist))
        kappa[m] = c * float(_apply_shape((kind, a, b, 1.0), r2).sum()) / r2.shape[0]
        v[m] = (kappa[m] - float(w @ v[:m])) / root
        e[m] = (e[m - 1] if m else 0.0) - v[m] * v[m]
        self.indices[m] = cand
        radius[m] = math.sqrt(self.sqdist[far])
        seconds[m] = time.perf_counter() - self.t0
        self.m = m + 1
        return far

    def finish(self):
        """The packed rows of L, once the record's alpha row holds L^{-T} v."""
        m, v, alpha = self.m, self.record[_ROW["v"]], self.record[_ROW["alpha"]]
        packed = self.packed[:m * (m + 1) // 2]
        alpha[:m] = v[:m]
        _tpsv(packed, alpha[:m], 1)
        return packed


def _points(points, kind):
    """The number of points, once kind and the points pass the checks the C makes first."""
    if kind not in SHAPE_KINDS:
        raise ValueError(f"unknown shape kind {kind}")
    return _borrow(points, "points", 2, -1).shape[0]


def greedy_fit(points, kind, a, b, c, threshold, epsilon, first, indices, record):
    """Run a greedy fit from point `first` until a stop test holds.

    points is the (n, d) array of points; indices (int64) has one entry
    per support point the capacity allows, and record is (7, capacity),
    with the rows RECORD_ROWS. Each step is a `_Walk.step`, and the next
    candidate is the farthest point. Stops, in this order of tests, at
    "budget" (m reached the capacity), "dependent" (cand's pivot is at most
    threshold; cand is not kept), "ratio" (|E_{m-1} - E_m| / |E_1 - E_m| <=
    epsilon, a flat trace giving 0, from the second point on) and "radius"
    (the radius is 0). The walk ends by solving the weights into the
    record's alpha row. Returns (m, cand, stop, packed): cand the dependent
    candidate or the next one, packed the m(m+1)/2 entries of L. Bad
    buffers, an unknown kind or a `first` outside [0, n) raise TypeError or
    ValueError before a single element is written.
    """
    t0 = time.perf_counter()
    n = _points(points, kind)
    if not 0 <= first < n:
        raise ValueError(f"index {first} out of range for n={n}")
    walk = _Walk(points, (kind, a, b, c), threshold, indices, record, t0)
    e, radius = record[_ROW["e"]], record[_ROW["radius"]]
    cand, stop = first, "budget"
    while walk.m < indices.shape[0]:
        far = walk.step(cand)
        if far is None:
            stop = "dependent"
            break
        cand, m = far, walk.m
        span = abs(e[0] - e[m - 1])
        if m > 1 and (0.0 if span == 0.0 else abs(e[m - 2] - e[m - 1]) / span) <= epsilon:
            stop = "ratio"
            break
        if radius[m - 1] == 0.0:
            stop = "radius"
            break
    return walk.m, cand, stop, walk.finish()


def order_fit(points, kind, a, b, c, threshold, order, indices, record):
    """Fit along `order`, keeping each candidate whose pivot exceeds `threshold`.

    order (int64) lists candidate rows of points; indices (int64) has one
    entry per order entry, and record is (7, len(order)) with the rows
    RECORD_ROWS, as in greedy_fit. Each candidate in turn is a `_Walk.step`:
    a dependent one is dropped and the walk goes on, and the weights are
    solved once it ends. Returns (m, packed),
    the m kept points in indices[:m] and record[:, :m], and packed the
    m(m+1)/2 entries of L. Bad buffers, an unknown kind or an order entry
    outside [0, n) raise TypeError or ValueError before a single element is
    written.
    """
    t0 = time.perf_counter()
    n = _points(points, kind)
    _borrow(order, "order", 1, -1, dtype=np.int64)
    bad = order[(order < 0) | (order >= n)]
    if bad.size:
        raise ValueError(f"index {bad[0]} out of range for n={n}")
    walk = _Walk(points, (kind, a, b, c), threshold, indices, record, t0, rows=order.shape[0])
    for cand in order.tolist():
        walk.step(cand)
    return walk.m, walk.finish()
