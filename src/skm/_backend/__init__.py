"""The three hot primitives, from the compiled extension if it imports.

`farthest_scan` is one pass over a coordinate-major (d, n) copy of the
points that makes a point a farthest-first center: it lowers the squared
distances to the chosen set in place and returns the farthest point.
Given a shape (kind, a, b), the same pass also returns the sum of the
shape over the distances to the new center, from which a greedy fit step
takes the new center's kernel row mean. `kernel_sums` writes c * sum_j
shape(||x_i - y_j||^2) coef[j, q] into out[i, q] for a 2-D coef and out,
without forming a kernel block; every kernel sum (evaluate, the
mean-shift rounds, the kappa of a fixed-order fit) is one call.
`factor_order` is pivoted Cholesky along the rows of a point array from
a given row on: it forms each candidate's Gram row against the kept
points itself, writes the packed lower factor of the candidates it keeps
and every candidate's pivot, and keeps no m x m block. A greedy step is
one call on one new row, a fixed-order fit one call on the whole order.
All three come from the compiled extension (`_fastcore.c`) when that was
built, and from the numpy implementation otherwise; `BACKEND` names
which. The compiled kernel values use libmvec's vector exp and pow on
x86-64 glibc, so they differ from the numpy ones in the last bits.
"""

try:
    from . import _fastcore as _impl
    BACKEND = "compiled"
except ImportError:
    from . import _numpy_impl as _impl
    BACKEND = "numpy"

farthest_scan = _impl.farthest_scan
kernel_sums = _impl.kernel_sums
factor_order = _impl.factor_order
