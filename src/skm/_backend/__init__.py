"""The four hot primitives, from the compiled extension if it imports.

`farthest_scan` is one pass over a coordinate-major (d, n) copy of the
points that makes a point a farthest-first center: it lowers the squared
distances to the chosen set in place and returns the farthest point; a
farthest distance that is negative or NaN raises ValueError, with the
distances already lowered.
`kernel_sums` writes c * sum_j shape(||x_i - y_j||^2) coef[j, q] into
out[i, q] for a 2-D coef and out, without forming a kernel block; every
kernel sum (evaluate, the mean-shift rounds, the inner products of two
means) is one call. `greedy_fit` and `order_fit` are whole fits in one
call each, two walks of one step: from the points each makes its own
coordinate-major copy and distances, and a step forms the candidate's
Gram row against the kept points' coordinates and solves it forward, a
pivoted Cholesky step, and keeps the candidate when its pivot passes the
threshold; only then does it run a farthest-first scan that also sums the
Gram shape over the candidate's distances (its kernel row mean kappa),
v_m, E_m, the coverage radius and the step's time. `greedy_fit` walks
farthest-first from a first point until a stop test holds, and stops at
its first dependent candidate; `order_fit` walks a given order and drops
each dependent candidate. Both grow the packed factor themselves, from 16
rows, doubling up to the capacity, end by solving the weights alpha =
L^{-T} v into the record's alpha row, and return the factor's m kept rows.
A fit is one backend call.

All four come from the compiled extension (`_fastcore.c`) when that was
built, and from the numpy implementation otherwise; `BACKEND` names
which. The compiled kernel values use libmvec's vector exp and pow on
x86-64 glibc, so they differ from the numpy ones in the last bits. The
compiled fits form w'v of each v_m and solve for alpha with their own
loops, where the numpy ones use BLAS, so pivots, E_m and the weights
alpha may differ from the numpy backend's in the last bits too; the
supports, skipped candidates and radii may not. An extension built from
an older `_fastcore.c` that lacks a primitive, or whose record has another
number of rows (`RECORD_ROW_COUNT`), raises ImportError.

A compiled greedy fit serves several centers with one pass over the
points where a pass streams more than a core's L2, n (d + 1) doubles above
2 MB, or where its points times capacity reach 2**22, as at the 600-point
fit of 10000 points in d = 5. After each such pass it ranks the 33 farthest points (lowest index
first on ties), reading only the tiles whose largest distance reaches the
33rd-largest tile maximum, and certifies up to 7 more centers from that
list alone: it lowers the 32 listed distances by each new center with the
pass's own arithmetic and takes the farthest listed point while it is
strictly farther than the 33rd, which bounds every point not listed. The
next pass then runs each tile through every center of the batch in order,
so each center, distance, kappa and record entry is the one-center walk's
bit for bit, and each tile is read from memory once a batch. The batch's
Gram rows are all formed before any is solved; on a CPU with AVX-512 they
are solved against the kept rows of the factor in one sweep, each row of
the factor read once for the batch, with each sum in the 8 partial sums
and order of the one-row solve, so the factor is the same bit for bit (a
600-point fit of 10000 points in d = 5 went from 12.9-14.0 ms to
8.7-10.1 ms on a 2-vCPU Xeon VM). The stop tests are made in step order,
and the centers of a batch after a stop are discarded. Smaller greedy fits,
ordered fits, `farthest_scan` and the numpy backend pass once per center.

The compiled fits split their passes over more than 16384 points, a
compiled greedy fit does so too once its points times capacity reach
2**22, and the compiled kernel sums of more than 2**20 values split, over
threads, up to the CPUs of the process's affinity mask (one CPU, one
thread). The helper threads may run on every CPU of that mask but the one
the calling thread ran on when it started them, and the process's own mask
is left as it was; the threads end before the call returns. A greedy fit
with helpers has them pass over the points for each batch while the
calling thread forms its centers' pivot rows, since its first dependent
candidate ends the fit; an ordered fit, which goes on past a dependent
candidate, tests the pivot before it passes. Each part of the work writes
only its own outputs and every sum keeps one order (kappa sums each tile's
shape values, then the tiles' sums in tile order), so no result depends on
the number of threads. The numpy backend and `farthest_scan` run on the
calling thread. Each thread's kernel-sum scratch, and a compiled fit's
coordinate-major copy of the points and its distance block, start on a
64-byte cache line, so no two threads write one line. In blocks aligned
only to 16 bytes, as the allocator gives them, a full tile's row buffer of
one thread shared a line with the next thread's tile of ys: on a 2-vCPU
Xeon VM, kernel sums of 50000 x 600 values in d = 5 took 0.69-1.14 ns a
value as the heap placed the scratch, and 0.61-0.76 ns aligned.

Importing the package loads numpy and no scipy module: the numpy
implementation imports scipy inside the functions that call it, so on
the compiled backend no function of the package loads any.
"""

from . import _numpy_impl


def _complete(module):
    """module, once it has every primitive of the numpy implementation and its record rows."""
    names = _numpy_impl.__all__ + ("RECORD_ROW_COUNT",)
    missing = [name for name in names if not hasattr(module, name)]
    rows = _numpy_impl.RECORD_ROW_COUNT
    if missing or module.RECORD_ROW_COUNT != rows:
        flaw = (f"lacks {', '.join(missing)}" if missing
                else f"has RECORD_ROW_COUNT {module.RECORD_ROW_COUNT}, not {rows}")
        raise ImportError(
            f"the compiled backend {getattr(module, '__file__', module)} {flaw}: it was built "
            f"from an older _fastcore.c; rebuild it with `python setup.py build_ext "
            f"--inplace`, or delete it to use numpy")
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
greedy_fit = _impl.greedy_fit
order_fit = _impl.order_fit
