"""The radial shape codes, the one numpy shape function and the block size.

A profile is c * shape_kind(r) for a kind below; the compiled kernel sums
number the kinds the same way. Kept apart from skm.kernels, which imports
the backend, so that the numpy backend can apply a shape without an
import cycle.
"""

import numpy as np

# A kernel or distance block holds at most this many entries (2 MB), so the
# memory of a numpy kernel sum or of mode clustering stays flat whatever
# the size.
_BLOCK_ENTRIES = 2**18

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
