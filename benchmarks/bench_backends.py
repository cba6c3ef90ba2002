"""Compare the compiled and numpy backends on the scan and a full fit.

Both timings run in one process. The scan is timed against each
implementation directly; the end-to-end fit swaps the implementation in
by replacing `skm._backend.farthest_scan`, the one backend primitive.

Usage: python benchmarks/bench_backends.py [--n 20000] [--d 5] [--kmax 300]
"""

import argparse
import time

import numpy as np

import skm
from skm import _backend
from skm._backend import _numpy_impl
from skm.dataio import DataSet
from skm.kernels import RadialKernelSpec

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


def bench_fit(impl, data, spec, kmax, repeat=3):
    scan = _backend.farthest_scan
    _backend.farthest_scan = impl.farthest_scan
    try:
        return best_of(repeat, lambda: skm.fit(data, spec, k_max=kmax, epsilon=0.0, first=0))
    finally:
        _backend.farthest_scan = scan


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=20_000)
    parser.add_argument("--d", type=int, default=5)
    parser.add_argument("--kmax", type=int, default=300)
    args = parser.parse_args()

    points = np.ascontiguousarray(np.random.default_rng(0).normal(size=(args.n, args.d)))
    data = DataSet(np.random.default_rng(1).normal(size=(args.n, args.d)))
    spec = RadialKernelSpec("gaussian", dim=args.d, sigma=2.0)
    impls = [("numpy", _numpy_impl)] + ([("compiled", _fastcore)] if _fastcore else [])
    rows = [(label, bench_scan(impl, points), bench_fit(impl, data, spec, args.kmax))
            for label, impl in impls]

    print(f"n={args.n}, d={args.d}, k_max={args.kmax}: farthest_scan best of 7, "
          "fit best of 3")
    print(f"  {'backend':9s} {'farthest_scan':>14s} {'fit':>9s}")
    for label, t_scan, t_fit in rows:
        print(f"  {label:9s} {t_scan * 1e3:11.3f} ms {t_fit:7.3f} s")
    if len(rows) == 2:
        print(f"  speedup   {rows[0][1] / rows[1][1]:11.2f} x  {rows[0][2] / rows[1][2]:6.2f} x")
    if _fastcore is None:
        print("  (compiled extension not built; numpy fallback only)")


if __name__ == "__main__":
    main()
