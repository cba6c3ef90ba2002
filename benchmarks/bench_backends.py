"""Compare the compiled and numpy backends on the hot loops and a full fit.

The primitive timings run in-process against both implementations. The
end-to-end fit runs in subprocesses because the backend is chosen at
import time (SKM_BACKEND).

Usage: python benchmarks/bench_backends.py [--n 20000] [--d 5] [--kmax 300]
"""

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np

from skm._backend import _numpy_impl

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


def bench_primitives(n, d, repeat=7):
    rng = np.random.default_rng(0)
    points = np.ascontiguousarray(rng.normal(size=(n, d)))
    center = np.ascontiguousarray(rng.normal(size=d))

    impls = [("numpy", _numpy_impl)]
    if _fastcore is not None:
        impls.append(("compiled", _fastcore))

    rows = []
    for label, impl in impls:
        sqdist = np.full(n, np.inf)
        t_scan = best_of(repeat, lambda: impl.farthest_scan(
            points, 0, sqdist, 0, 0.5, 0.0, 1.0))
        t_gram = best_of(repeat, lambda: impl.mean_gram(points, center, 0, 0.5, 0.0, 1.0))
        rows.append((label, t_scan, t_gram))
    return rows


def bench_fit(n, d, kmax, backend):
    script = f"""
import json, time
import numpy as np
import skm
from skm.dataio import DataSet
from skm.kernels import RadialKernelSpec

data = DataSet(np.random.default_rng(1).normal(size=({n}, {d})))
spec = RadialKernelSpec("gaussian", dim={d}, sigma=2.0)
best = float("inf")
for _ in range(3):
    start = time.perf_counter()
    skm.fit(data, spec, k_max={kmax}, epsilon=0.0, first=0)
    best = min(best, time.perf_counter() - start)
print(json.dumps({{"backend": skm.BACKEND, "seconds": best}}))
"""
    env = dict(os.environ, SKM_BACKEND=backend)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=20_000)
    parser.add_argument("--d", type=int, default=5)
    parser.add_argument("--kmax", type=int, default=300)
    args = parser.parse_args()

    print(f"primitives on n={args.n}, d={args.d} (best of 7):")
    rows = bench_primitives(args.n, args.d)
    print(f"  {'backend':9s} {'farthest_scan':>14s} {'mean_gram':>11s}")
    for label, t_scan, t_gram in rows:
        print(f"  {label:9s} {t_scan * 1e3:11.3f} ms {t_gram * 1e3:8.3f} ms")
    if len(rows) == 2:
        speedups = [rows[0][i] / rows[1][i] for i in (1, 2)]
        print(f"  speedup   {speedups[0]:11.2f} x  {speedups[1]:8.2f} x")

    print(f"\nend-to-end fit (n={args.n}, d={args.d}, k_max={args.kmax}, best of 3):")
    backends = ["numpy"] + (["compiled"] if _fastcore is not None else [])
    results = {}
    for backend in backends:
        result = bench_fit(args.n, args.d, args.kmax, backend)
        results[backend] = result["seconds"]
        print(f"  {backend:9s} {result['seconds']:.3f} s")
    if len(results) == 2:
        print(f"  speedup   {results['numpy'] / results['compiled']:.2f} x")
    if _fastcore is None:
        print("  (compiled extension not built; numpy fallback only)")


if __name__ == "__main__":
    main()
