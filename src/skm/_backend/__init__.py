"""The three hot primitives, from the compiled extension if it imports.

`farthest_scan` is one pass over the points that makes a point a
farthest-first center: it writes the squared distances to that center
into a caller's buffer, lowers the distances to the chosen set in place
and returns the farthest point. `sqdist_block` writes the squared
distances between two sets of rows into a caller's block, bit-identical
to scipy's cdist "sqeuclidean"; every kernel sum is formed from it.
`factor_order` is pivoted Cholesky along a fixed candidate order in one
call: from the Gram block of the order it writes the packed lower factor
of the candidates it keeps and every candidate's pivot, so a
fixed-support fit takes no Python step per point. All three come from
the compiled extension (`_fastcore.c`) when that was built, and from the
numpy implementation otherwise; `BACKEND` names which. Kernel values are
not computed here: `skm.kernels` applies the one shape function to the
distances.
"""

try:
    from . import _fastcore as _impl
    BACKEND = "compiled"
except ImportError:
    from . import _numpy_impl as _impl
    BACKEND = "numpy"

farthest_scan = _impl.farthest_scan
sqdist_block = _impl.sqdist_block
factor_order = _impl.factor_order
