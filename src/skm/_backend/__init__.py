"""The one hot primitive, from the compiled extension if it imports.

`farthest_scan` is one pass over the points that makes a point a
farthest-first center: it writes the squared distances to that center
into a caller's buffer, lowers the distances to the chosen set in place
and returns the farthest point. It comes from the compiled extension
(`_fastcore.c`) when that was built, and from the numpy implementation
otherwise; `BACKEND` names which. Kernel values are not computed here:
`skm.kernels` applies the one shape function to the distances.
"""

try:
    from . import _fastcore as _impl
    BACKEND = "compiled"
except ImportError:
    from . import _numpy_impl as _impl
    BACKEND = "numpy"

farthest_scan = _impl.farthest_scan
