"""The skm benchmark: one workload, one seed, a fixed amount of work.

Builds skm from the source tree in the current directory into
.bench_build/lib, then runs the workload in PARTS fresh processes, one
after another, each running the same fixed number of whole cycles. The
number follows from SECONDS alone: the cycles a process runs take about
SECONDS / PARTS on the reference machine at the seed commit. So two runs
with the same arguments attempt the same ops, and fail the same ones.
Each process sets the workload up again, so setup_s is a median over
PARTS set-ups. Prints a report line, then one JSON result line with the
end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
(--trace 1).

Usage: python3 skmbench/run.py --workload {fit-tall,fit-deep,apps}
       --seed N --seconds S --trace {0,1}
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fit-tall", "fit-deep", "apps")
PARTS = 3
DEADLINE_S = 170.0
# Cycles per second of --seconds, checks included, measured on a 2-core
# Intel Xeon VM at the seed commit (numpy backend, BLAS on 1 thread). They
# are constants so that the work of a run never depends on the clock.
CYCLES_PER_S = {"fit-tall": 0.95, "fit-deep": 0.7, "apps": 0.21}
# Seconds kept back from DEADLINE_S for the last cycle and the report.
MARGIN_S = 25.0

# fit_s is the standalone skm.fit op of each workload.
FIT_OP = {"fit-tall": "fit", "fit-deep": "fit", "apps": "fit_saturated"}
# Ops of the apps cycle; each reports <op>_s.
APP_OPS = ("embed", "cpe", "cpe_search", "meanshift_sparse", "meanshift_full",
           "fit_saturated")
QUALITY = ("fit_err", "cpe_l1", "meanshift_di")
END_TO_END = ("setup_s", "fit_s", "cycle_s", "peak_rss_mb")
LAYERS = ("_backend", "kcenter", "coefficients", "kernels", "sparse_mean",
          "divergences", "cpe", "meanshift", "_parallel")


class BenchError(Exception):
    """The benchmark could not build or run the program."""


def _build(root, lib):
    if not os.path.isfile(os.path.join(root, "setup.py")):
        raise BenchError(f"no setup.py in {root}: not an skm source tree")
    # setup.py build only adds and overwrites files. A module or compiled
    # backend left from a build of another commit would stay importable.
    build_base = os.path.join(root, ".bench_build", "setup")
    for path in (lib, build_base):
        shutil.rmtree(path, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build", "--build-base", build_base,
         "--build-lib", lib],
        cwd=root, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0 or not os.path.isdir(os.path.join(lib, "skm")):
        raise BenchError(f"building skm failed:\n{proc.stdout}{proc.stderr}")


def _source_digest(root):
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, _, filenames in sorted(os.walk(src)):
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx", ".c", ".h")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _worker_env(lib):
    env = {k: v for k, v in os.environ.items()
           if k not in ("SKM_THREADS", "SKM_BACKEND")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=lib)
    return env


def cycles_per_part(workload, seconds, trace):
    """Whole cycles per process; even when traced, at least two."""
    cycles = max(2, round(seconds * CYCLES_PER_S[workload] / PARTS))
    return cycles + cycles % 2 if trace else cycles


def _run_parts(args, root, lib, out_dir, started):
    parts = []
    cycles = cycles_per_part(args.workload, args.seconds, args.trace)
    for part in range(PARTS):
        remaining = DEADLINE_S - (time.monotonic() - started)
        spawned = time.monotonic()
        stop_by = spawned + max(remaining - MARGIN_S, 0.0) / (PARTS - part)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--cycles", str(cycles), "--trace", str(args.trace),
               "--part", str(part), "--parts", str(PARTS),
               "--spawned", repr(spawned), "--stop-by", repr(stop_by),
               "--out", out_dir]
        try:
            proc = subprocess.run(cmd, cwd=root, env=_worker_env(lib),
                                  capture_output=True, text=True,
                                  timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"part {part} did not finish within the time limit")
        if proc.returncode != 0:
            raise BenchError(f"part {part} exited with {proc.returncode}:\n"
                             f"{proc.stderr}")
        sys.stderr.write(proc.stderr)
        parts.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return parts


def _timing(values, unit="s", items=None):
    """Median, the highest percentile with at least ten samples beyond it, n.

    With items, the timing is reported as a rate: items per second.
    """
    entry = {"unit": unit, "n": len(values)}
    if not values:
        entry["value"] = None  # absent: no successful sample
        return entry
    conv = (lambda t: items / t) if items else (lambda t: t)
    entry["value"] = conv(statistics.median(values))
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            entry[f"p{p:g}"] = conv(cuts[int(round(p * 10)) - 1])
            break
    return entry


def _cycle_s(parts, traced):
    """Seconds per cycle: the sum over the cycle's ops of each op's median.

    Failed ops count with the time they took to fail.
    """
    by_op = {}
    for part in parts:
        for s in part["samples"]:
            if s["traced"] == traced:
                by_op.setdefault(s["op"], []).append(s["s"])
    if set(by_op) != set(parts[0]["cycle"]):
        return None
    return sum(statistics.median(v) for v in by_op.values())


def _traced_cycles(parts):
    return sum(len({s["cycle"] for s in p["samples"] if s["traced"]}) for p in parts)


def _op_stats(samples):
    ops = {}
    for s in samples:
        entry = ops.setdefault(s["op"], {"attempted": 0, "failed": 0, "wrong": 0,
                                         "errors": []})
        entry["attempted"] += 1
        if not s["ok"]:
            entry["failed"] += 1
            entry["wrong"] += int(s.get("wrong", False))
            if s["error"] not in entry["errors"]:
                entry["errors"].append(s["error"])
    for entry in ops.values():
        entry["failed_frac"] = entry["failed"] / entry["attempted"]
    return ops


def end_to_end(workload, parts):
    samples = [s for p in parts for s in p["samples"] if not s["traced"]]
    ok = [s for s in samples if s["ok"]]

    def times(op):
        return [s["s"] for s in ok if s["op"] == op]

    metrics = {
        "setup_s": _timing([p["setup_s"] for p in parts]),
        "fit_s": _timing(times(FIT_OP[workload])),
        "cycle_s": {"value": _cycle_s(parts, traced=False), "unit": "s",
                    "n": len(samples)},
        "peak_rss_mb": {"value": max(p["peak_rss_mb"] for p in parts),
                        "unit": "MB", "n": len(parts)},
    }
    ops = {s["op"]: s["items"] for s in samples}
    if "eval" in ops:
        metrics["eval_qps"] = _timing(times("eval"), unit="1/s", items=ops["eval"])
    for op in APP_OPS:
        if op in ops:
            metrics[f"{op}_s"] = _timing(times(op))
    for key in QUALITY:
        values = [s["values"][key] for s in ok if key in s.get("values", {})]
        if values:
            metrics[key] = {"value": statistics.median(values), "unit": "ratio",
                            "n": len(values)}
    failed = sum(not s["ok"] for s in samples)
    metrics["failed_frac"] = {"value": failed / len(samples), "unit": "ratio",
                              "n": len(samples)}
    return metrics, _op_stats(samples)


def _layer_of(name):
    return name.split(".", 1)[0]


def per_layer(parts):
    """Per-cycle means of the traced cycles' calls, self times and counts."""
    names, counters, by_op, absent = {}, {}, {}, set()
    traced_ops, untraced_ops = {}, {}
    for part in parts:
        trace = part["trace"]
        absent.update(trace["absent"])
        for name, v in trace["names"].items():
            acc = names.setdefault(name, {"calls": 0, "failures": 0, "self_s": 0.0})
            for key in acc:
                acc[key] += v[key]
        for key, value in trace["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for op, spans in trace["by_op"].items():
            acc = by_op.setdefault(op, {})
            for name, value in spans.items():
                acc[name] = acc.get(name, 0.0) + value
        for s in part["samples"]:
            runs = traced_ops if s["traced"] else untraced_ops
            runs.setdefault(s["op"], []).append(s["s"])
    n_cycles = _traced_cycles(parts)
    cycle_traced = _cycle_s(parts, traced=True)
    cycle_untraced = _cycle_s(parts, traced=False)

    def layer(prefix, key):
        return sum(v[key] for n, v in names.items() if n.startswith(prefix)) / n_cycles

    def count(key):
        return counters.get(key, 0) / n_cycles

    def metric(value, unit):
        return {"value": value, "unit": unit}

    tried = count("sparse_mean.fit.tried")
    accepted = count("sparse_mean.fit.accepted")
    solve = names.get("coefficients.solve_direct", {"calls": 0, "failures": 0})
    m = {
        "backend.update_sqdist.calls": metric(layer("_backend.update_sqdist", "calls"), "count"),
        "backend.update_sqdist.self_s": metric(layer("_backend.update_sqdist", "self_s"), "s"),
        "backend.mean_gram.calls": metric(layer("_backend.mean_gram", "calls"), "count"),
        "backend.mean_gram.self_s": metric(layer("_backend.mean_gram", "self_s"), "s"),
        "backend.scan_gb": metric(count("_backend.scan_bytes") / 1e9, "GB"),
        "backend.gaussian_shift_step.calls": metric(
            layer("_backend.gaussian_shift_step", "calls"), "count"),
        "backend.gaussian_shift_step.self_s": metric(
            layer("_backend.gaussian_shift_step", "self_s"), "s"),
        "kcenter.calls": metric(layer("kcenter.", "calls"), "count"),
        "kcenter.self_s": metric(layer("kcenter.", "self_s"), "s"),
        "coefficients.calls": metric(layer("coefficients.", "calls"), "count"),
        "coefficients.self_s": metric(layer("coefficients.", "self_s"), "s"),
        "coefficients.solve_direct.calls": metric(solve["calls"] / n_cycles, "count"),
        "coefficients.solve_direct.failures": metric(solve["failures"] / n_cycles, "count"),
        "sparse_mean.fit.tried": metric(tried, "count"),
        "sparse_mean.fit.accepted": metric(accepted, "count"),
        "sparse_mean.fit.accept_ratio": metric(accepted / tried if tried else 0.0, "ratio"),
        "sparse_mean.self_s": metric(layer("sparse_mean.", "self_s"), "s"),
        "sparse_mean.evaluate.kernel_evals": metric(
            count("sparse_mean.evaluate.kernel_evals"), "count"),
        "kernels.calls": metric(layer("kernels.", "calls"), "count"),
        "kernels.self_s": metric(layer("kernels.", "self_s"), "s"),
        "meanshift.shift.self_s": metric(
            layer("meanshift.mean_shift_all", "self_s") + layer("meanshift.task", "self_s"),
            "s"),
        "meanshift.cluster.self_s": metric(layer("meanshift.cluster_modes", "self_s"), "s"),
        "meanshift.iterations": metric(count("meanshift.iterations"), "count"),
        "meanshift.kernel_evals": metric(count("meanshift.kernel_evals"), "count"),
        "divergences.self_s": metric(layer("divergences.", "self_s"), "s"),
        "cpe.self_s": metric(layer("cpe.", "self_s"), "s"),
        "cpe.objective_evals": metric(count("cpe.objective_evals"), "count"),
        "parallel.self_s": metric(layer("_parallel.", "self_s"), "s"),
        "trace.overhead_frac": metric((cycle_traced - cycle_untraced) / cycle_untraced,
                                      "frac"),
    }
    # Per-layer self times inside each op type, per op. They add up to the
    # traced op time; self_sum_vs_traced is the part the spans miss.
    ops = {}
    for op, spans in by_op.items():
        n = len(traced_ops[op])
        traced_mean = statistics.fmean(traced_ops[op])
        self_sum = sum(spans.values()) / n
        layers = {}
        for name, value in spans.items():
            layers[_layer_of(name)] = layers.get(_layer_of(name), 0.0) + value
        ops[op] = {
            "untraced_median_s": statistics.median(untraced_ops[op]),
            "traced_median_s": statistics.median(traced_ops[op]),
            "traced_mean_s": traced_mean,
            "self_sum_s": self_sum,
            "self_sum_vs_traced": self_sum / traced_mean - 1.0,
            "self_s": {l: v / n for l, v in sorted(layers.items())},
            "self_s_by_name": {k: v / n for k, v in sorted(spans.items())},
        }
    layers = {}
    for name, v in names.items():
        acc = layers.setdefault(_layer_of(name), {"calls": 0, "self_s": 0.0})
        acc["calls"] += v["calls"] / n_cycles
        acc["self_s"] += v["self_s"] / n_cycles
    extra = {
        "computed_counts": {k: m[k]["value"] for k in (
            "backend.scan_gb", "sparse_mean.evaluate.kernel_evals",
            "meanshift.kernel_evals", "meanshift.iterations", "sparse_mean.fit.tried",
            "sparse_mean.fit.accepted", "coefficients.solve_direct.failures")},
        "traced_cycles": n_cycles,
        "cycle_traced_s": cycle_traced,
        "cycle_untraced_s": cycle_untraced,
        "layers": layers,
        "ops": ops,
        "names": {n: {k: (x / n_cycles) for k, x in v.items()}
                  for n, v in sorted(names.items())},
        "absent": sorted(absent),
        "absent_layers": [l for l in LAYERS if l not in layers],
    }
    return m, extra


def main(argv=None):
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build")
    lib = os.path.join(build_dir, "lib")
    out_dir = os.path.join(build_dir, "skmbench")
    try:
        _build(root, lib)
        parts = _run_parts(args, root, lib, out_dir, started)
    except BenchError as exc:
        print(f"skmbench: {exc}", file=sys.stderr)
        return 2

    samples = [s for p in parts for s in p["samples"]]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": f"closed loop, 1 caller, {PARTS} processes in sequence",
        "meta": dict(parts[0]["meta"], nproc=os.cpu_count(),
                     affinity=len(os.sched_getaffinity(0)), cpu=_cpu_model(),
                     commit=_git_commit(root), source_digest=_source_digest(root),
                     env={"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}),
        "cycles_per_process": [len({s["cycle"] for s in p["samples"]}) for p in parts],
        "truncated": any(p["truncated"] for p in parts),
        "check_raised_peak_rss": any(p["check_raised_peak"] for p in parts),
    }
    if args.trace:
        metrics, report["trace_detail"] = per_layer(parts)
        report["per_layer"] = metrics
    else:
        report["end_to_end"], report["ops"] = end_to_end(args.workload, parts)
        metrics = {k: report["end_to_end"][k] for k in END_TO_END}
        missing = [k for k, v in metrics.items() if v["value"] is None]
        if missing:
            print(f"skmbench: no successful op for {missing}", file=sys.stderr)
            print(json.dumps({"report": report}))
            return 1

    print(json.dumps({"report": report}))
    result = {
        "correct": not any(s.get("wrong") for s in samples),
        "attempted": len(samples),
        "failed": sum(not s["ok"] for s in samples),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
