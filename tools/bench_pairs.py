"""Alternated pairs of the skm benchmark: the working tree against a revision.

Extracts REV with `git archive` into .bench_build/rev-<sha>/, then for each
workload and each seed 1..N runs the benchmark's command (`python3
skmbench/run.py --workload W --seed S --seconds T --trace 0`) once in that
tree and once in the working tree, each from its own root with its own
unchanged harness: the revision first on odd seeds, the working tree first
on even ones. Writes, after every pair, a JSON file with each run's four
end-to-end metrics, the per-op `<op>_s` its report gives (the apps ops)
and its correct/attempted/failed counts, and per workload, for each metric
and each op, each side's median and quartiles, the parent's interquartile
range and the number of pairs in which the working tree read lower, with
both commits and source digests. The command, the run length T, the
workloads and the end-to-end metrics are read from the working tree's
BENCHMARK.json. The output's "affinity" is the number of CPUs the harness
reports. To pin the runs, start this script under taskset: every run
inherits its mask, as in `taskset -c 0,1 python3 tools/bench_pairs.py ...`.

Usage: python3 tools/bench_pairs.py --against REV --pairs N --out BENCH_x.json
       [--workloads W1,W2,...]
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
METRICS = tuple(m["name"] for m in BENCHMARK["end_to_end"])


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev):
    """The root of a fresh copy of rev's committed files under .bench_build/."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    dest = os.path.join(ROOT, ".bench_build", "rev-" + sha[:12])
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise SystemExit(f"bench_pairs: git archive {sha} failed")
    return sha, dest


def run(root, workload, seed):
    """One harness run in root: its report's meta, and its result line with its op times."""
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines or "metrics" not in lines[-1]:
        raise SystemExit(f"bench_pairs: {workload} seed {seed} in {root} exited "
                         f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
    report = next(line["report"] for line in lines if "report" in line)
    result = lines[-1]
    ops = {name: metric["value"] for name, metric in report["end_to_end"].items()
           if name.endswith("_s") and name not in METRICS}
    return report["meta"], {"correct": result["correct"], "attempted": result["attempted"],
                            "failed": result["failed"],
                            **{m: result["metrics"][m]["value"] for m in METRICS}, "ops": ops}


def spread(values):
    """The median and quartiles of values."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent, change):
    """Each side's spread, the parent's IQR and the pairs the change read lower."""
    before, after = spread(parent), spread(change)
    return {"parent": before, "change": after, "parent_iqr": before["q3"] - before["q1"],
            "median_change": after["median"] / before["median"] - 1.0,
            "change_lower": f"{sum(c < p for p, c in zip(parent, change))} of {len(parent)}"}


def summary(pairs):
    """compare() for each end-to-end metric and, under "ops", for each op time both sides gave."""
    out = {m: compare([p["parent"][m] for p in pairs], [p["change"][m] for p in pairs])
           for m in METRICS}
    ops = {}
    for op in sorted(pairs[0]["parent"]["ops"]):
        both = [(p["parent"]["ops"].get(op), p["change"]["ops"].get(op)) for p in pairs]
        both = [pc for pc in both if None not in pc]
        if both:
            ops[op] = compare(*zip(*both))
    if ops:
        out["ops"] = ops
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="the parent revision")
    parser.add_argument("--pairs", type=int, required=True, help="pairs per workload")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="a comma-separated subset of BENCHMARK.json's workloads")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown or len(set(workloads)) != len(workloads):
        parser.error(f"--workloads must name distinct workloads of BENCHMARK.json "
                     f"{WORKLOADS}, not {args.workloads!r}")

    sha, parent_root = extract(args.against)
    doc = {"protocol": (f"{' '.join(BENCHMARK['command'][1:])} --seconds "
                        f"{BENCHMARK['run_seconds']:g} --trace 0, seeds "
                        f"1..{args.pairs}, the parent first on odd seeds, each tree's "
                        "own harness from its own root"),
           "parent": {"commit": sha},
           "change": {"commit": git("rev-parse", "HEAD"),
                      "dirty": bool(git("status", "--porcelain", "--", "src", "setup.py"))},
           "workloads": {}}
    started = time.monotonic()
    for workload in workloads:
        pairs = doc["workloads"].setdefault(workload, {"pairs": []})["pairs"]
        for seed in range(1, args.pairs + 1):
            sides = ("parent", "change") if seed % 2 else ("change", "parent")
            pair = {"seed": seed, "first": sides[0]}
            for side in sides:
                meta, pair[side] = run(parent_root if side == "parent" else ROOT,
                                       workload, seed)
                doc[side].update(source_digest=meta["source_digest"],
                                 backend=meta["skm_backend"])
                doc.update(cpu=meta["cpu"], affinity=meta["affinity"])
            pairs.append(pair)
            doc["workloads"][workload]["summary"] = summary(pairs)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
            cycle = doc["workloads"][workload]["summary"]["cycle_s"]
            print(f"{workload} seed {seed}: cycle_s parent {pair['parent']['cycle_s']:.4f} "
                  f"change {pair['change']['cycle_s']:.4f}, change lower in "
                  f"{cycle['change_lower']} ({time.monotonic() - started:.0f} s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
