"""Pure-numpy implementation of the hot inner loops.

`farthest_scan` is a farthest-first step over the coordinate-major points
that lowers one distance buffer in place and can sum a shape of the
distances to the new center. `kernel_sums` forms kernel sums against a
2-D coef in blocks of cdist, the shape and a matrix product.
`factor_order` is pivoted Cholesky along the rows of a point array, with
Gram rows from cdist blocks and one BLAS triangular solve per candidate.
Used when the compiled extension is unavailable. The signatures and the
buffer checks match skm._backend._fastcore exactly.
"""

import math
import numbers

import numpy as np
from scipy.linalg import blas
from scipy.spatial.distance import cdist

from ._shape import _BLOCK_ENTRIES, SHAPE_KINDS, _apply_shape


def farthest_scan(coords, j, sqdist, shape=None):
    """Make point j a center in one pass over the coordinate-major points.

    coords is the (d, n) transpose of the points. Forms r2[i] = ||x_i -
    x_j||^2, summing the coordinates in order, lowers sqdist in place to
    min(sqdist, r2) and returns (the index of the largest sqdist, lowest
    index on ties; the shape sum). With shape = (kind, a, b) the shape sum
    is sum_i shape_kind(r2[i]), else None. A shape that is not such a tuple
    raises TypeError, and an unknown kind, bad buffers or a j outside [0,
    n) raise TypeError or ValueError, before sqdist changes.
    """
    if shape is not None:
        if not (isinstance(shape, tuple) and len(shape) == 3
                and isinstance(shape[0], numbers.Integral)
                and all(isinstance(v, numbers.Real) for v in shape[1:])):
            raise TypeError("shape must be None or a (kind, a, b) tuple")
        if shape[0] not in SHAPE_KINDS:
            raise ValueError(f"unknown shape kind {shape[0]}")
    _borrow(coords, "coords", 2, -1)
    n = coords.shape[1]
    _borrow(sqdist, "sqdist", 1, n, writable=True)
    if not 0 <= j < n:
        raise ValueError(f"index {j} out of range for n={n}")
    diff = coords - coords[:, j:j + 1]
    diff *= diff
    r2 = diff.sum(axis=0)
    np.minimum(sqdist, r2, out=sqdist)
    far = int(np.argmax(sqdist))
    if shape is None:
        return far, None
    return far, float(_apply_shape((*shape, 1.0), r2).sum())


def _borrow(a, name, ndim, rows, writable=False):
    """a itself, once it is a C-contiguous float64 array as the C checks it."""
    if not isinstance(a, np.ndarray) or a.dtype != np.float64:
        raise TypeError(f"{name} must be a float64 array")
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
    code of `skm._backend._shape`. Bad buffers or an unknown kind raise
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
    rows = max(1, _BLOCK_ENTRIES // max(1, ys.shape[0]))
    for i in range(0, xs.shape[0], rows):
        block = cdist(xs[i:i + rows], ys, "sqeuclidean")
        np.matmul(_apply_shape((kind, a, b, c), block), coef, out=out[i:i + rows])


def factor_order(points, kind, a, b, c, threshold, start, packed, pivots):
    """Pivoted Cholesky along the rows of points, from row `start` on.

    points holds the (m, d) candidates in order. The rows before `start`
    are the support kept so far, whose packed lower factor L already fills
    the head of `packed` (length m(m+1)/2); pivots[:start] is neither read
    nor written. Candidate i >= start has Gram row g = c * shape_kind(||x_i
    - x_t||^2) over the kept points t and pivot c - w'w, where L w = g, and
    is kept when the pivot exceeds `threshold`: w and sqrt(pivot) become
    the next packed row of L. Writes every candidate's pivot into `pivots`
    (length m) and returns the number kept, start included. The Gram rows
    are formed in row blocks of at most 2^18 distances. Bad buffers, an
    unknown kind or a start outside [0, m] raise TypeError or ValueError
    before a single element is written.
    """
    if kind not in SHAPE_KINDS:
        raise ValueError(f"unknown shape kind {kind}")
    _borrow(points, "points", 2, -1)
    m = points.shape[0]
    if not 0 <= start <= m:
        raise ValueError(f"start {start} out of range for m={m}")
    _borrow(packed, "packed", 1, m * (m + 1) // 2, writable=True)
    _borrow(pivots, "pivots", 1, m, writable=True)
    kept = list(range(start))
    row = start * (start + 1) // 2
    rows = max(1, _BLOCK_ENTRIES // max(1, m))
    for i0 in range(start, m, rows):
        i1 = min(m, i0 + rows)
        block = _apply_shape((kind, a, b, c), cdist(points[i0:i1], points[:i1], "sqeuclidean"))
        for i in range(i0, i1):
            k = len(kept)
            # The packed rows of L are the packed columns of L', so trans=1
            # solves L w = g.
            g = block[i - i0, kept]
            w = blas.dtpsv(k, packed[:row], g, trans=1) if k else g
            pivots[i] = c - float(w @ w)
            if pivots[i] > threshold:
                packed[row:row + k] = w
                packed[row + k] = math.sqrt(pivots[i])
                row += k + 1
                kept.append(i)
    return len(kept)
