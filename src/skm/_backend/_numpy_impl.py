"""Pure-numpy implementation of the hot inner loop.

The one primitive is `farthest_scan`: a farthest-first step that writes
the squared distances to the new center into a caller's buffer and lowers
one distance buffer in place. Used when the compiled extension is
unavailable. The signature matches skm._backend._fastcore exactly.
"""

import numpy as np


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
