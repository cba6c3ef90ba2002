"""The one hot primitive, from the compiled extension if it imports.

`farthest_scan` is one fused pass over the points that makes a point a
farthest-first center, lowers the distances to the chosen set in place
and returns the kernel row mean of that center and the farthest point.
It comes from the compiled extension (`_fastcore.c`) when that was built,
and from the numpy implementation otherwise; `BACKEND` names which. Every
other kernel sum is a numpy block sum in `skm.sparse_mean`.
"""

from . import _numpy_impl

SHAPE_NONE = _numpy_impl.SHAPE_NONE
SHAPE_SQEXP = _numpy_impl.SHAPE_SQEXP
SHAPE_EXP = _numpy_impl.SHAPE_EXP
SHAPE_POWER = _numpy_impl.SHAPE_POWER

try:
    from . import _fastcore as _impl
    BACKEND = "compiled"
except ImportError:
    _impl = _numpy_impl
    BACKEND = "numpy"

farthest_scan = _impl.farthest_scan
