"""Pure-numpy implementation of the hot inner loop.

The one primitive is `farthest_scan`: a fused farthest-first step with the
kernel row mean of the new center, lowering one distance buffer in place.
Used when the compiled extension is unavailable. The signature matches
skm._backend._fastcore exactly.
"""

import numpy as np

# Radial shape codes shared by both backends.
SHAPE_NONE = -1  # farthest_scan only: no kernel row mean
SHAPE_SQEXP = 0  # c * exp(-a * r^2)
SHAPE_EXP = 1    # c * exp(-a * r)
SHAPE_POWER = 2  # c * (1 + a * r^2) ** (-b)


def _row_mean(r2, kind, a, b, c):
    if kind == SHAPE_SQEXP:
        vals = np.exp(-a * r2)
    elif kind == SHAPE_EXP:
        vals = np.exp(-a * np.sqrt(r2))
    elif kind == SHAPE_POWER:
        vals = (1.0 + a * r2) ** (-b)
    else:
        raise ValueError(f"unknown shape kind {kind}")
    return c * float(vals.sum()) / r2.shape[0]


def farthest_scan(points, j, sqdist, kind, a, b, c):
    """Make point j a center in one pass over points.

    Lowers sqdist in place to min(sqdist, ||points - points[j]||^2) and
    returns (kappa_j, the index of the largest sqdist, lowest index on
    ties): kappa_j is the mean of the radial shape over
    ||points - points[j]||, or 0.0 when kind is SHAPE_NONE. A j outside
    [0, n) raises ValueError before sqdist changes.
    """
    if not 0 <= j < points.shape[0]:
        raise ValueError(f"index {j} out of range for n={points.shape[0]}")
    diff = points - points[j]
    r2 = np.einsum("ij,ij->i", diff, diff)
    kappa = 0.0 if kind == SHAPE_NONE else _row_mean(r2, kind, a, b, c)
    np.minimum(sqdist, r2, out=sqdist)
    return kappa, int(np.argmax(sqdist))

