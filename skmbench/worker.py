"""One measuring process of the skm benchmark.

Sets up one workload (import, inputs, one untimed warm-up cycle), then runs
a fixed number of whole cycles of its ops as a closed loop: one caller,
each op starting when the previous one ends. Each op is timed alone and
checked afterwards. With --trace 1, traced and untraced cycles alternate.
Prints one JSON line with the raw samples.

Usage: python3 skmbench/worker.py --workload NAME --seed N --cycles C
       --trace 0|1 --part I --parts K --spawned T --stop-by T --out DIR
"""

import argparse
import json
import os
import platform
import resource
import sys
import time

import numpy
import scipy
import skm
from skm.errors import SkmError

from tracer import Tracer
from workloads import WORKLOADS, CheckFailed, DependencyFailed


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _versions():
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"skm_backend": skm.BACKEND, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _cycle_order(workload, part, parts):
    """The workload's cycle rotated so that the parts start on different ops."""
    cycle = list(workload.cycle)
    start = (part * len(cycle)) // parts
    while start > 0 and cycle[start - 1] in workload.feeds_next:
        start -= 1  # never start on an op that needs the op before it
    return cycle[start:] + cycle[:start]


def measure(args):
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    # Warm up every op type once, so no timed op is the first of its type.
    for op in workload.cycle:
        try:
            workload.run(op)
        except (SkmError, ValueError, DependencyFailed):
            pass
    setup_s = time.monotonic() - args.spawned

    order = _cycle_order(workload, args.part, args.parts)
    tracer = Tracer() if args.trace else None
    samples, op_types = [], {}
    check_raised_peak = False
    truncated = False
    op_id = 0
    for cycle in range(args.cycles):
        # A program so slow that the run would miss its time limit gets
        # fewer cycles, an even number of at least two; the report marks
        # the run as truncated.
        if cycle >= 2 and cycle % 2 == 0 and time.monotonic() >= args.stop_by:
            truncated = True
            break
        for op in order:
            traced = tracer is not None and cycle % 2 == 0
            sample = {"op": op, "cycle": cycle, "traced": traced, "ok": True,
                      "items": workload.items.get(op)}
            t0 = time.perf_counter()
            try:
                if traced:
                    op_types[op_id] = op
                    result = tracer.run_op(op_id, op, lambda: workload.run(op))
                else:
                    result = workload.run(op)
                sample["s"] = time.perf_counter() - t0
            except (SkmError, ValueError, DependencyFailed) as exc:
                sample.update(s=time.perf_counter() - t0, ok=False,
                              error=f"{type(exc).__name__}: {exc}")
                result = None
            sample["rss_mb"] = _peak_rss_mb()
            if result is not None:
                try:
                    sample["values"] = workload.check(op, result)
                except CheckFailed as exc:
                    target = sample
                    if exc.op is not None:
                        target = next(s for s in reversed(samples) if s["op"] == exc.op)
                    target.update(ok=False, wrong=True, error=f"CheckFailed: {exc}")
                if _peak_rss_mb() > sample["rss_mb"]:
                    check_raised_peak = True
            samples.append(sample)
            op_id += 1

    out = {
        "setup_s": setup_s,
        "cycle": order,
        "samples": samples,
        "peak_rss_mb": max(s["rss_mb"] for s in samples) if samples else None,
        "check_raised_peak": check_raised_peak,
        "truncated": truncated,
        "meta": _versions(),
    }
    if tracer is not None:
        out["trace"] = tracer.summary(op_types)
        os.makedirs(args.out, exist_ok=True)
        tracer.save(os.path.join(
            args.out, f"spans-{args.workload}-seed{args.seed}-part{args.part}.npz"),
            op_types)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cycles", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--stop-by", type=float, required=True,
                        help="time.monotonic() after which no new cycle starts")
    parser.add_argument("--out", required=True, help="directory for span files")
    args = parser.parse_args(argv)
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
