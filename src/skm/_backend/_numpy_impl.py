"""Pure-numpy implementation of the hot inner loops.

`farthest_scan` is a farthest-first step that writes the squared distances
to the new center into a caller's buffer and lowers one distance buffer in
place. `sqdist_block` is scipy's cdist "sqeuclidean" into a caller's
buffer. `kernel_sums` forms kernel sums in blocks of cdist, the shape and
a matrix product. `factor_order` is pivoted Cholesky along a fixed
candidate order. Used when the compiled extension is unavailable. The
signatures match skm._backend._fastcore exactly, and so do the buffer
checks of `sqdist_block`, `kernel_sums` and `factor_order`.
"""

import math

import numpy as np
from scipy.linalg import blas
from scipy.spatial.distance import cdist

from ._shape import _BLOCK_ENTRIES, SHAPE_KINDS, _apply_shape


def farthest_scan(points, j, sqdist, r2):
    """Make point j a center in one pass over points.

    Writes ||points - points[j]||^2 into r2, lowers sqdist in place to
    min(sqdist, r2) and returns the index of the largest sqdist, lowest
    index on ties. A j outside [0, n) raises ValueError before either
    buffer changes.
    """
    if not 0 <= j < points.shape[0]:
        raise ValueError(f"index {j} out of range for n={points.shape[0]}")
    diff = points - points[j]
    np.einsum("ij,ij->i", diff, diff, out=r2)
    np.minimum(sqdist, r2, out=sqdist)
    return int(np.argmax(sqdist))


def _borrow(a, name, ndim, rows, writable=False):
    """a itself, once it is a C-contiguous float64 array as the C checks it.

    ndim 0 accepts a 1-D or a 2-D array.
    """
    if not isinstance(a, np.ndarray) or a.dtype != np.float64:
        raise TypeError(f"{name} must be a float64 array")
    if (a.ndim not in (1, 2) if ndim == 0 else a.ndim != ndim) or not a.flags.c_contiguous:
        raise ValueError(f"{name} must be a C-contiguous {ndim or '1-D or 2'}-D array")
    if rows >= 0 and a.shape[0] != rows:
        raise ValueError(f"{name} has the wrong length")
    if writable and not a.flags.writeable:
        raise ValueError(f"{name} must be writable")
    return a


def sqdist_block(xs, ys, out):
    """Write ||xs_i - ys_j||^2 into out[i, j].

    xs and ys are C-contiguous float64 with the same number of columns, out
    is a writable C-contiguous float64 array of shape (len(xs), len(ys)).
    Buffers that are not raise TypeError or ValueError before out changes.
    """
    _borrow(xs, "xs", 2, -1)
    _borrow(ys, "ys", 2, -1)
    if ys.shape[1] != xs.shape[1]:
        raise ValueError(f"ys has {ys.shape[1]} columns, xs has {xs.shape[1]}")
    _borrow(out, "out", 2, xs.shape[0], writable=True)
    if out.shape[1] != ys.shape[0]:
        raise ValueError("out must have one column per row of ys")
    cdist(xs, ys, "sqeuclidean", out=out)


def kernel_sums(xs, ys, coef, kind, a, b, c, out):
    """Write c * sum_j shape_kind(||xs_i - ys_j||^2) coef[j] into out[i].

    xs and ys are as for `sqdist_block`. coef is C-contiguous float64 of
    shape (len(ys),) or (len(ys), p), and out a writable C-contiguous
    float64 array of shape (len(xs),) or (len(xs), p) to match. kind is a
    SHAPE_* code of `skm._backend._shape`. Bad buffers or an unknown kind
    raise TypeError or ValueError before out changes. The kernel values
    are formed in row blocks of at most 2^18 entries, or one row when ys
    is longer.
    """
    if kind not in SHAPE_KINDS:
        raise ValueError(f"unknown shape kind {kind}")
    _borrow(xs, "xs", 2, -1)
    _borrow(ys, "ys", 2, -1)
    if ys.shape[1] != xs.shape[1]:
        raise ValueError(f"ys has {ys.shape[1]} columns, xs has {xs.shape[1]}")
    _borrow(coef, "coef", 0, ys.shape[0])
    _borrow(out, "out", coef.ndim, xs.shape[0], writable=True)
    if out.shape[1:] != coef.shape[1:]:
        raise ValueError("out must have one column per column of coef")
    rows = max(1, _BLOCK_ENTRIES // max(1, ys.shape[0]))
    for i in range(0, xs.shape[0], rows):
        block = cdist(xs[i:i + rows], ys, "sqeuclidean")
        np.matmul(_apply_shape((kind, a, b, c), block), coef, out=out[i:i + rows])


def factor_order(gram, threshold, packed, pivots):
    """Pivoted Cholesky of the m x m Gram block `gram` along its row order.

    Candidate i has pivot gram[i, i] - w'w, where L w = gram[i, kept] over
    the candidates kept before it, and is kept when the pivot exceeds
    `threshold`. Writes every pivot into `pivots` (length m), the packed
    rows of the kept points' lower factor L into the head of `packed`
    (length m(m+1)/2), and returns the number kept. Buffers of the wrong
    dtype, layout or length raise TypeError or ValueError before a single
    element is read.
    """
    _borrow(gram, "gram", 2, -1)
    m = gram.shape[0]
    if gram.shape[1] != m:
        raise ValueError("gram must be square")
    _borrow(packed, "packed", 1, m * (m + 1) // 2, writable=True)
    _borrow(pivots, "pivots", 1, m, writable=True)
    kept = []
    row = 0
    for i in range(m):
        k = len(kept)
        # The packed rows of L are the packed columns of L', so trans=1
        # solves L w = b.
        w = blas.dtpsv(k, packed[:row], gram[i, kept], trans=1) if k else gram[i, :0]
        pivots[i] = gram[i, i] - float(w @ w)
        if pivots[i] > threshold:
            packed[row:row + k] = w
            packed[row + k] = math.sqrt(pivots[i])
            row += k + 1
            kept.append(i)
    return len(kept)
