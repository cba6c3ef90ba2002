"""The five hot primitives, from the compiled extension if it imports.

`farthest_scan` is one pass over a coordinate-major (d, n) copy of the
points that makes a point a farthest-first center: it lowers the squared
distances to the chosen set in place and returns the farthest point; a
farthest distance that is negative or NaN raises ValueError, with the
distances already lowered.
`kernel_sums` writes c * sum_j shape(||x_i - y_j||^2) coef[j, q] into
out[i, q] for a 2-D coef and out, without forming a kernel block; every
kernel sum (evaluate, the mean-shift rounds, the kappa of a fixed-order
fit) is one call. `tri_solve` solves in place against a fit's packed
lower factor L, L x = b (trans 0) or L' x = b (trans 1): v = L^{-1} kappa
of a fixed-order fit and the weights alpha = L^{-T} v. `factor_order` is
pivoted Cholesky along the rows of a point array: it forms each
candidate's Gram row against the kept points itself, solves it forward
as `tri_solve` does, writes the packed lower factor of the candidates it
keeps and every candidate's pivot, and keeps no m x m block; a
fixed-order fit is one call on the whole order. `greedy_fit` is a whole
greedy fit in one call: from the points it makes its own coordinate-major
copy and distances, and per step runs a farthest-first scan that also
sums the Gram shape over the new center's distances (its kernel row
mean), one pivoted Cholesky step as `factor_order` makes it, v_m, E_m,
the coverage radius, the step's time and the stop tests, until a test
holds. It grows the packed factor itself, from 16 rows, doubling up to
the capacity, and returns its m kept rows.

All five come from the compiled extension (`_fastcore.c`) when that was
built, and from the numpy implementation otherwise; `BACKEND` names
which. The compiled kernel values use libmvec's vector exp and pow on
x86-64 glibc, so they differ from the numpy ones in the last bits. The
compiled `greedy_fit` forms w'v of each v_m with its own dot, and the
compiled `tri_solve` is its own loop, where the numpy ones use BLAS, so
E_m and the weights alpha may differ from the numpy backend's in the
last bits too; the supports, skipped candidates, pivots and radii may
not. An extension built from an older `_fastcore.c` that lacks a
primitive raises ImportError.

Importing the package loads numpy and no scipy module: the numpy
implementation imports scipy inside the functions that call it, so on
the compiled backend no function of the package loads any.
"""

from . import _numpy_impl


def _complete(module):
    """module, once it has every primitive of the numpy implementation."""
    missing = [name for name in _numpy_impl.__all__ if not hasattr(module, name)]
    if missing:
        raise ImportError(
            f"the compiled backend {getattr(module, '__file__', module)} lacks "
            f"{', '.join(missing)}: it was built from an older _fastcore.c; rebuild it "
            f"with `python setup.py build_ext --inplace`, or delete it to use numpy")
    return module


try:
    from . import _fastcore as _impl
    BACKEND = "compiled"
except ImportError:
    _impl = _numpy_impl
    BACKEND = "numpy"
_complete(_impl)

farthest_scan = _impl.farthest_scan
kernel_sums = _impl.kernel_sums
tri_solve = _impl.tri_solve
factor_order = _impl.factor_order
greedy_fit = _impl.greedy_fit
