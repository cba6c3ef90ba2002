"""Compare the compiled and numpy backends on their primitives, a full fit and a fixed-support fit.

All timings run in one process. The four primitives are timed against
each implementation directly. The scan is timed at the fit-tall and
fit-deep benchmark shapes (100000 x 8 and 10000 x 5 standard-normal
points, coordinate-major). The kernel sums are timed on the whole
evaluate of the fit-tall and fit-deep benchmark workloads (100000 queries
x 150 supports in d=8, 50000 x 600 in d=5, one Gaussian column) and on one
full mean-shift round of the apps workload (2000 points x 2000 supports in
d=2, p = d + 1 columns). `order_fit` is timed as the one call of a whole
fixed-order fit along a farthest-first order of standard-normal points,
Gaussian sigma = 1, its scans over every point included: 94 candidates
over 1000 x 2 points and 600 over 10000 x 5. `greedy_fit` is timed as
the one call of a whole greedy fit, its coordinate-major copy of the
points and the growth of its factor included, on the greedy fits of the
benchmark: fit-deep's (10000 x 5, sigma = 1, k_max 600, eps = 0 from
point 0), the unit of the apps workload's CPE bandwidth search, which
fits each class greedily at each sigma (1000 x 2 points, the same ones
the first fixed order walks, sigma = 1, k_max 94, eps = 0 from point 0),
and the apps workload's saturated fit (4000 x 2 from its seed, sigma =
10, k_max 200, eps = 0, the first point drawn with seed 0, which stops at
a dependent candidate after 20 points). The end-to-end fit and
`fit_with_support` on the floor(3 sqrt(n)) farthest-first support swap
every `skm._backend` primitive for the implementation's own.

Usage: python benchmarks/bench_backends.py [--n 20000] [--d 5] [--kmax 300]
"""

import argparse
import time

import numpy as np

import skm
from skm import _backend
from skm._backend import _numpy_impl
from skm._backend._numpy_impl import RECORD_ROWS
from skm.dataio import DataSet
from skm.kcenter import _resolve_first, kcenter_greedy
from skm.kernels import SHAPE_SQEXP, RadialKernelSpec, gram_params
from skm.sparse_mean import SINGULARITY_REL_TOL, default_k_max, fit_with_support

try:
    from skm._backend import _fastcore
except ImportError:
    _fastcore = None

PRIMITIVES = _numpy_impl.__all__
# (op, points, d) of the benchmark's scans.
SCAN_SHAPES = (("fit-tall", 100_000, 8), ("fit-deep", 10_000, 5))
# (op, queries, supports, d, coef columns) of the benchmark's kernel sums:
# the two evaluate steps and a round of the full mean shift.
SUM_SHAPES = (("fit-tall eval", 100_000, 150, 8, 1), ("fit-deep eval", 50_000, 600, 5, 1),
              ("meanshift_full", 2000, 2000, 2, 3))
# (op, points, d, m) of the whole fixed orders walked.
ORDER_SHAPES = (("fixed order", 1000, 2, 94), ("fixed order", 10_000, 5, 600))
# (op, points of seed, n, d, sigma, k_max, first) of the benchmark's greedy fits.
GREEDY_FITS = (("fit-deep", 4, 10_000, 5, 1.0, 600, 0), ("cpe_search", 4, 1000, 2, 1.0, 94, 0),
               ("fit_saturated", 20150301, 4000, 2, 10.0, 200, None))


def best_of(repeat, fn):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_scan(impl, n, d, repeat=7):
    coords = np.ascontiguousarray(np.random.default_rng(0).normal(size=(d, n)))
    sqdist = np.full(n, np.inf)
    return best_of(repeat, lambda: impl.farthest_scan(coords, 0, sqdist))


def bench_sums(impl, nx, m, d, p, repeat=5):
    rng = np.random.default_rng(3)
    xs, ys = rng.normal(size=(nx, d)), rng.normal(size=(m, d))
    coef, out = rng.random((m, p)), np.empty((nx, p))
    return best_of(repeat, lambda: impl.kernel_sums(xs, ys, coef, SHAPE_SQEXP, 0.5, 0.0, 1.0, out))


def bench_order(impl, n, d, m, repeat=7):
    """order_fit along a farthest-first order of m of the n points.

    Returns the best time and the number of points the fit kept.
    """
    data = DataSet(np.random.default_rng(4).normal(size=(n, d)))
    order = kcenter_greedy(data, m, first=0).order
    indices, record = np.empty(m, dtype=np.int64), np.empty((len(RECORD_ROWS), m))
    args = (SHAPE_SQEXP, 0.5, 0.0, 1.0, 1e-9, order, indices, record)
    kept = []
    return best_of(repeat, lambda: kept.append(impl.order_fit(data.points, *args)[0])), kept[-1]


def bench_greedy(impl, seed, n, d, sigma, k_max, first, repeat=7):
    """The one greedy_fit call of a whole fit with budget k_max.

    Returns the best time and the number of points the fit kept.
    """
    points = np.random.default_rng(seed).standard_normal((n, d))
    params = gram_params(RadialKernelSpec("gaussian", dim=d, sigma=sigma))
    first = _resolve_first(n, first, 0)
    indices = np.empty(k_max, dtype=np.int64)
    record = np.empty((len(RECORD_ROWS), k_max))
    kept = []

    def run():
        kept.append(impl.greedy_fit(points, *params, SINGULARITY_REL_TOL * params.c, 0.0,
                                    first, indices, record)[0])

    return best_of(repeat, run), kept[-1]


def swapped(impl, repeat, fn):
    """best_of(repeat, fn) with every `_backend` primitive taken from impl."""
    saved = {name: getattr(_backend, name) for name in PRIMITIVES}
    for name in PRIMITIVES:
        setattr(_backend, name, getattr(impl, name))
    try:
        return best_of(repeat, fn)
    finally:
        for name, primitive in saved.items():
            setattr(_backend, name, primitive)


def bench_fit(impl, data, spec, kmax, repeat=3):
    return swapped(impl, repeat, lambda: skm.fit(data, spec, k_max=kmax, epsilon=0.0, first=0))


def bench_fixed(impl, data, spec, support, repeat=5):
    return swapped(impl, repeat, lambda: fit_with_support(data, spec, support))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=20_000)
    parser.add_argument("--d", type=int, default=5)
    parser.add_argument("--kmax", type=int, default=300)
    args = parser.parse_args()

    data = DataSet(np.random.default_rng(1).normal(size=(args.n, args.d)))
    spec = RadialKernelSpec("gaussian", dim=args.d, sigma=2.0)
    support = kcenter_greedy(data, default_k_max(args.n), first=0).order
    impls = [("numpy", _numpy_impl)] + ([("compiled", _fastcore)] if _fastcore else [])
    rows = [(label, bench_fit(impl, data, spec, args.kmax), bench_fixed(impl, data, spec, support))
            for label, impl in impls]

    print(f"n={args.n}, d={args.d}, k_max={args.kmax}: fit best of 3, "
          f"fit_with_support on {support.size} supports best of 5")
    print(f"  {'backend':9s} {'fit':>9s} {'fit_with_support':>17s}")
    for label, t_fit, t_fixed in rows:
        print(f"  {label:9s} {t_fit:7.3f} s {t_fixed * 1e3:14.3f} ms")
    if len(rows) == 2:
        print(f"  speedup   {rows[0][1] / rows[1][1]:6.2f} x {rows[0][2] / rows[1][2]:15.2f} x")

    print("farthest_scan from point 0, best of 7")
    print(f"  {'op':9s} {'n x d':>10s} {'backend':9s} {'scan':>10s} {'per point':>9s}")
    for name, n, d in SCAN_SHAPES:
        times = [bench_scan(impl, n, d) for _, impl in impls]
        for (label, _), t in zip(impls, times):
            print(f"  {name:9s} {f'{n} x {d}':>10s} {label:9s} {t * 1e3:7.3f} ms {t / n * 1e9:6.2f} ns")
        if len(times) == 2:
            print(f"  {'':9s} {'':10s} {'speedup':9s} {times[0] / times[1]:7.2f} x")

    print("kernel_sums, Gaussian, best of 5")
    print(f"  {'op':15s} {'queries x k0 x d, p':>22s} {'backend':9s} {'sums':>10s} {'per entry':>10s}")
    for name, nx, m, d, p in SUM_SHAPES:
        times = [bench_sums(impl, nx, m, d, p) for _, impl in impls]
        for (label, _), t in zip(impls, times):
            shape = f"{nx} x {m} x {d}, {p}"
            print(f"  {name:15s} {shape:>22s} {label:9s} {t * 1e3:7.2f} ms {t / (nx * m) * 1e9:5.2f} ns")
        if len(times) == 2:
            print(f"  {'':15s} {'':22s} {'speedup':9s} {times[0] / times[1]:7.2f} x")

    print("order_fit, Gaussian sigma = 1, farthest-first order, best of 7")
    print(f"  {'op':12s} {'m of n x d':>16s} {'kept':>4s} {'backend':9s} {'fit':>10s}")
    for name, n, d, m in ORDER_SHAPES:
        runs = [bench_order(impl, n, d, m) for _, impl in impls]
        for (label, _), (t, kept) in zip(impls, runs):
            print(f"  {name:12s} {f'{m} of {n} x {d}':>16s} {kept:4d} {label:9s} {t * 1e3:7.3f} ms")
        if len(runs) == 2:
            print(f"  {'':12s} {'':16s} {'':4s} {'speedup':9s} {runs[0][0] / runs[1][0]:7.2f} x")

    print("greedy_fit, one call for the whole fit, Gaussian, eps = 0, best of 7")
    print(f"  {'op':13s} {'n x d':>10s} {'k0':>4s} {'backend':9s} {'fit':>10s} {'per step':>10s}")
    for name, seed, n, d, sigma, k_max, first in GREEDY_FITS:
        runs = [bench_greedy(impl, seed, n, d, sigma, k_max, first) for _, impl in impls]
        for (label, _), (t, k0) in zip(impls, runs):
            print(f"  {name:13s} {f'{n} x {d}':>10s} {k0:4d} {label:9s} {t * 1e3:7.3f} ms"
                  f" {t / k0 * 1e6:7.2f} us")
        if len(runs) == 2:
            print(f"  {'':13s} {'':10s} {'':4s} {'speedup':9s} {runs[0][0] / runs[1][0]:7.2f} x")
    if _fastcore is None:
        print("  (compiled extension not built; numpy fallback only)")


if __name__ == "__main__":
    main()
