"""The four hot primitives, from the compiled extension if it imports.

`farthest_scan` is one pass over the points that makes a point a
farthest-first center: it writes the squared distances to that center
into a caller's buffer, lowers the distances to the chosen set in place
and returns the farthest point. `sqdist_block` writes the squared
distances between two sets of rows into a caller's block, bit-identical
to scipy's cdist "sqeuclidean"; every Gram block is formed from it.
`kernel_sums` writes c * sum_j shape(||x_i - y_j||^2) coef_j for each
row x_i into a caller's buffer without forming a kernel block; every
kernel sum (evaluate, the mean-shift rounds, the kappa of a fixed-order
fit) is one call. `factor_order` is pivoted Cholesky along a fixed
candidate order in one call: from the Gram block of the order it writes
the packed lower factor of the candidates it keeps and every candidate's
pivot, so a fixed-support fit takes no Python step per point. All four
come from the compiled extension (`_fastcore.c`) when that was built,
and from the numpy implementation otherwise; `BACKEND` names which. The
compiled kernel sums use libmvec's vector exp and pow on x86-64 glibc,
so they differ from the numpy ones in the last bits; the distances of
`sqdist_block` do not.
"""

try:
    from . import _fastcore as _impl
    BACKEND = "compiled"
except ImportError:
    from . import _numpy_impl as _impl
    BACKEND = "numpy"

farthest_scan = _impl.farthest_scan
sqdist_block = _impl.sqdist_block
kernel_sums = _impl.kernel_sums
factor_order = _impl.factor_order
