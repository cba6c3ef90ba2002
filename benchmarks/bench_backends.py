"""Compare the compiled and numpy backends on their primitives, a full fit and a fixed-support fit.

All timings run in one process. The scan, the distance block and the
kernel sums are timed against each implementation directly. The distance
block is timed on one 2^18-entry block at the evaluate shapes of the
fit-tall and fit-deep benchmark workloads (k0 supports in d dimensions,
2^18 // k0 query rows). The kernel sums are timed on the whole evaluate
of those workloads (100000 queries x 150 supports in d=8, 50000 x 600 in
d=5, one Gaussian column) and on one full mean-shift round of the apps
workload (2000 points x 2000 supports in d=2, p = d + 1 columns). The
end-to-end fit and `fit_with_support` on the floor(3 sqrt(n))
farthest-first support swap every `skm._backend` primitive for the
implementation's own.

Usage: python benchmarks/bench_backends.py [--n 20000] [--d 5] [--kmax 300]
"""

import argparse
import time

import numpy as np

import skm
from skm import _backend
from skm._backend import _numpy_impl
from skm.dataio import DataSet
from skm.kcenter import kcenter_greedy
from skm.kernels import _BLOCK_ENTRIES, SHAPE_SQEXP, RadialKernelSpec
from skm.sparse_mean import default_k_max, fit_with_support

try:
    from skm._backend import _fastcore
except ImportError:
    _fastcore = None

PRIMITIVES = ("farthest_scan", "sqdist_block", "kernel_sums", "factor_order")
# (workload, d, k0) of the evaluate step of the fit benchmarks.
EVAL_SHAPES = (("fit-tall", 8, 150), ("fit-deep", 5, 600))
# (op, queries, supports, d, coef columns) of the benchmark's kernel sums:
# the two evaluate steps and a round of the full mean shift.
SUM_SHAPES = (("fit-tall eval", 100_000, 150, 8, 1), ("fit-deep eval", 50_000, 600, 5, 1),
              ("meanshift_full", 2000, 2000, 2, 3))


def best_of(repeat, fn):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_scan(impl, points, repeat=7):
    sqdist, r2 = np.full(points.shape[0], np.inf), np.empty(points.shape[0])
    return best_of(repeat, lambda: impl.farthest_scan(points, 0, sqdist, r2))


def bench_sqdist(impl, d, m, repeat=7):
    rng = np.random.default_rng(2)
    xs, ys = rng.normal(size=(_BLOCK_ENTRIES // m, d)), rng.normal(size=(m, d))
    out = np.empty((xs.shape[0], m))
    return best_of(repeat, lambda: impl.sqdist_block(xs, ys, out))


def bench_sums(impl, nx, m, d, p, repeat=5):
    rng = np.random.default_rng(3)
    xs, ys = rng.normal(size=(nx, d)), rng.normal(size=(m, d))
    coef = rng.random(m) if p == 1 else rng.random((m, p))
    out = np.empty((nx,) + coef.shape[1:])
    return best_of(repeat, lambda: impl.kernel_sums(xs, ys, coef, SHAPE_SQEXP, 0.5, 0.0, 1.0, out))


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

    points = np.ascontiguousarray(np.random.default_rng(0).normal(size=(args.n, args.d)))
    data = DataSet(np.random.default_rng(1).normal(size=(args.n, args.d)))
    spec = RadialKernelSpec("gaussian", dim=args.d, sigma=2.0)
    support = kcenter_greedy(data, default_k_max(args.n), first=0).order
    impls = [("numpy", _numpy_impl)] + ([("compiled", _fastcore)] if _fastcore else [])
    rows = [(label, bench_scan(impl, points), bench_fit(impl, data, spec, args.kmax),
             bench_fixed(impl, data, spec, support))
            for label, impl in impls]

    print(f"n={args.n}, d={args.d}, k_max={args.kmax}: farthest_scan best of 7, "
          f"fit best of 3, fit_with_support on {support.size} supports best of 5")
    print(f"  {'backend':9s} {'farthest_scan':>14s} {'fit':>9s} {'fit_with_support':>17s}")
    for label, t_scan, t_fit, t_fixed in rows:
        print(f"  {label:9s} {t_scan * 1e3:11.3f} ms {t_fit:7.3f} s {t_fixed * 1e3:14.3f} ms")
    if len(rows) == 2:
        print(f"  speedup   {rows[0][1] / rows[1][1]:11.2f} x  {rows[0][2] / rows[1][2]:6.2f} x"
              f" {rows[0][3] / rows[1][3]:15.2f} x")

    print("sqdist_block on one 2^18-entry block of 2^18 // k0 query rows, best of 7")
    print(f"  {'workload':9s} {'rows x k0 x d':>15s} {'backend':9s} {'block':>9s} {'per entry':>10s}")
    for name, d, m in EVAL_SHAPES:
        entries = _BLOCK_ENTRIES // m * m
        times = [bench_sqdist(impl, d, m) for _, impl in impls]
        for (label, _), t in zip(impls, times):
            shape = f"{entries // m} x {m} x {d}"
            print(f"  {name:9s} {shape:>15s} {label:9s} {t * 1e3:6.3f} ms {t / entries * 1e9:5.2f} ns")
        if len(times) == 2:
            print(f"  {'':9s} {'':15s} {'speedup':9s} {times[0] / times[1]:6.2f} x")

    print("kernel_sums, Gaussian, best of 5")
    print(f"  {'op':15s} {'queries x k0 x d, p':>22s} {'backend':9s} {'sums':>10s} {'per entry':>10s}")
    for name, nx, m, d, p in SUM_SHAPES:
        times = [bench_sums(impl, nx, m, d, p) for _, impl in impls]
        for (label, _), t in zip(impls, times):
            shape = f"{nx} x {m} x {d}, {p}"
            print(f"  {name:15s} {shape:>22s} {label:9s} {t * 1e3:7.2f} ms {t / (nx * m) * 1e9:5.2f} ns")
        if len(times) == 2:
            print(f"  {'':15s} {'':22s} {'speedup':9s} {times[0] / times[1]:7.2f} x")
    if _fastcore is None:
        print("  (compiled extension not built; numpy fallback only)")


if __name__ == "__main__":
    main()
