"""Compare the compiled and numpy backends on the scan, a full fit and a fixed-support fit.

All timings run in one process. The scan is timed against each
implementation directly. The end-to-end fit swaps the implementation in by
replacing `skm._backend.farthest_scan`; `fit_with_support` on the
floor(3 sqrt(n)) farthest-first support swaps in `skm._backend.factor_order`.

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
from skm.kernels import RadialKernelSpec
from skm.sparse_mean import default_k_max, fit_with_support

try:
    from skm._backend import _fastcore
except ImportError:
    _fastcore = None


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


def swapped(impl, name, repeat, fn):
    """best_of(repeat, fn) with `_backend.<name>` taken from impl."""
    saved = getattr(_backend, name)
    setattr(_backend, name, getattr(impl, name))
    try:
        return best_of(repeat, fn)
    finally:
        setattr(_backend, name, saved)


def bench_fit(impl, data, spec, kmax, repeat=3):
    return swapped(impl, "farthest_scan", repeat,
                   lambda: skm.fit(data, spec, k_max=kmax, epsilon=0.0, first=0))


def bench_fixed(impl, data, spec, support, repeat=5):
    return swapped(impl, "factor_order", repeat, lambda: fit_with_support(data, spec, support))


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
    if _fastcore is None:
        print("  (compiled extension not built; numpy fallback only)")


if __name__ == "__main__":
    main()
