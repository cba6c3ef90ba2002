"""Command-line entry point.

Data tables are CSV with a header row and scalar results are JSON. A
command that succeeds ends stderr with one line, a JSON stats document:
"command", "backend", "seconds" (the whole command) and the command's
own figures, phase times among them. No timing goes to stdout or a data
file. All randomness derives from --seed. Exit codes: 0 success, 1
usage error, 2 data or numeric error.
"""

import argparse
import csv
import io
import json
import sys
import time

import numpy as np

from . import _backend, kcenter
from .cpe import estimate_proportions, search_bandwidth
from .dataio import DataSet, load_csv, load_model, save_csv, save_model
from .divergences import distance_matrix, kl_divergence, sample_gaussian_mean
from .errors import SkmError
from .kernels import bandwidth_iqr, g_zero, gram_at_dist, parse_kernel_spec
from .meanshift import (
    cluster_modes,
    discrepancy_index,
    hausdorff_clustering_distance,
    mean_shift_all,
)
from .sparse_mean import (
    _support_budget,
    bound_value,
    evaluate,
    fit,
    full_mean,
    random_selection_fit,
    squared_mean_norm,
)
from .synth import DATASETS, make_dataset


class UsageError(Exception):
    pass


# The largest count a flag may give: the iteration counts are int64 arrays.
COUNT_MAX = int(np.iinfo(np.int64).max)


def _check_kmax(kmax, n=None):
    """Refuse a --kmax below 1, or above n when n is given, by name."""
    if kmax is not None and (kmax < 1 or n is not None and kmax > n):
        bound = "1 <= kmax" if n is None else f"1 <= kmax <= n={n}"
        raise SkmError(f"--kmax {kmax} must satisfy {bound}")


def _check_count(flag, value, low):
    """Refuse a count flag below low or above COUNT_MAX, by name."""
    if value < low:
        raise ValueError(f"{flag} must be at least {low}, got {value}")
    if value > COUNT_MAX:
        raise ValueError(f"{flag} must be at most {COUNT_MAX}, got {value}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _write_text(path, text):
    """Write text to stdout when path is None or "-", else to the file at path."""
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _write_csv(path, header, rows):
    """Write a header and rows as CSV, quoting a field that holds a comma or quote.

    A float is written as its shortest round-trip repr, as save_csv writes it.
    """
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(path, text.getvalue())


def _write_columns(path, columns):
    """Write a dict of equal-length 1-D arrays as CSV, one column per key."""
    _write_csv(path, list(columns), zip(*(v.tolist() for v in columns.values())))


def _record_columns(diag) -> dict:
    """A fit's record, one row per support point: m, e, ratio, radius, pivot.

    Greedy and fixed-order fits record the same steps. The seconds_trace
    stays out, since no timing goes to a data file.
    """
    e = diag.e_trace
    return {"m": np.arange(1, e.size + 1), "e": e, "ratio": diag.ratio_trace,
            "radius": diag.radius_trace, "pivot": diag.pivots}


def _write_json(path, doc):
    """Write doc as JSON; a NaN or infinity raises ValueError rather than write invalid JSON."""
    _write_text(path, json.dumps(doc, indent=1, allow_nan=False) + "\n")


def _clocked(fn, *args, **kwargs):
    """(fn(*args, **kwargs), its wall time in seconds)."""
    start = time.perf_counter()
    return fn(*args, **kwargs), time.perf_counter() - start


def build_parser() -> _Parser:
    parser = _Parser(prog="skm", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", parents=[common], help="fit a sparse kernel mean")
    p.add_argument("--input", required=True)
    p.add_argument("--kernel", required=True,
                   help="e.g. gaussian:sigma=1.5:density:rkhs")
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--density", action="store_true",
                   help="project the weights onto the probability simplex")
    p.add_argument("--first", type=int, default=None,
                   help="index of the first center (default: drawn with --seed)")
    p.add_argument("--header", action="store_true", help="input has a header row")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None,
                   help="also write the fit record as CSV (m, e, ratio, radius, pivot)")

    p = sub.add_parser("eval", parents=[common], help="evaluate a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--header", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("select", parents=[common], help="k-center selection only")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--first", type=int, default=None,
                   help="index of the first center (default: drawn with --seed)")
    p.add_argument("--header", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("audit", parents=[common],
                       help="per-prefix residuals, incoherence and error bounds; "
                            "optional random baseline")
    p.add_argument("--input", required=True)
    p.add_argument("--kernel", required=True)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--first", type=int, default=None)
    p.add_argument("--header", action="store_true")
    p.add_argument("--max-points", type=int, default=5000)
    p.add_argument("--random-seeds", type=int, default=0,
                   help="if > 0, add a random-selection baseline over this many seeds "
                        "(needs --kmax and a density kernel)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("embed", parents=[common],
                       help="pairwise distance matrix between samples")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--kernel", required=True)
    p.add_argument("--mode", choices=("rkhs", "symkl"), default="rkhs")
    p.add_argument("--sparse", action="store_true")
    p.add_argument("--eps", type=float, default=None, help="with --sparse (default 1e-10)")
    p.add_argument("--kmax", type=int, default=None, help="with --sparse")
    p.add_argument("--header", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("cpe", parents=[common], help="class proportion estimation")
    p.add_argument("--train", nargs="+", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--sparse", action="store_true")
    p.add_argument("--eps", type=float, default=None, help="with --sparse (default 1e-10)")
    p.add_argument("--kmax", type=int, default=None, help="with --sparse")
    p.add_argument("--header", action="store_true")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--sigma", type=float, default=None)
    group.add_argument("--sigma-search", default=None, metavar="LO,HI")
    p.add_argument("--search-iters", type=int, default=20)
    p.add_argument("--omega", type=float, default=1.0,
                   help="Dirichlet concentration for the validation mixture")
    p.add_argument("--out", default=None)

    p = sub.add_parser("meanshift", parents=[common], help="mean-shift clustering")
    p.add_argument("--input", required=True)
    p.add_argument("--sigma", type=float, default=None,
                   help="bandwidth (default: IQR heuristic)")
    p.add_argument("--gamma", type=float, default=None,
                   help="stop threshold (default 1e-3 * sigma)")
    p.add_argument("--merge", type=float, default=None,
                   help="mode merge distance (default sigma)")
    p.add_argument("--sparse", action="store_true")
    p.add_argument("--eps", type=float, default=None, help="with --sparse (default 1e-8)")
    p.add_argument("--kmax", type=int, default=None, help="with --sparse")
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--header", action="store_true")
    p.add_argument("--out-labels", default=None)
    p.add_argument("--out-shifted", default=None)
    p.add_argument("--compare", default=None,
                   help="reference shifted-points CSV; emits metrics JSON")
    p.add_argument("--delta", type=float, default=None,
                   help="discrepancy threshold (default 3 * sigma)")
    p.add_argument("--metrics-out", default=None)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic dataset")
    p.add_argument("--dataset", choices=sorted(DATASETS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)

    return parser


def _cmd_fit(args) -> dict:
    data = load_csv(args.input, has_header=args.header)
    _check_kmax(args.kmax, data.n)
    spec = parse_kernel_spec(args.kernel, data.d)
    mean, fit_s = _clocked(fit, data, spec, k_max=args.kmax, epsilon=args.eps,
                           density_mode=args.density, first=args.first, seed=args.seed)
    save_model(mean, args.out)
    if args.trace:
        _write_columns(args.trace, _record_columns(mean.diagnostics))
    return {"n": data.n, "d": data.d, "k0": mean.k0, "stop": mean.diagnostics.stop,
            "fit_s": fit_s}


def _cmd_eval(args) -> dict:
    mean = load_model(args.model)
    queries = load_csv(args.queries, has_header=args.header)
    values, eval_s = _clocked(evaluate, mean, queries.points)
    _write_csv(args.out, ["value"], [[float(v)] for v in values])
    return {"eval_s": eval_s}


def _cmd_select(args) -> dict:
    data = load_csv(args.input, has_header=args.header)
    sel, select_s = _clocked(kcenter.kcenter_greedy, data, args.k, first=args.first,
                             seed=args.seed)
    rows = [[m + 1, int(idx), float(radius)]
            for m, (idx, radius) in enumerate(zip(sel.order, sel.radius_trace))]
    _write_csv(args.out, ["m", "index", "radius"], rows)
    return {"select_s": select_s}


def _cmd_audit(args) -> dict:
    """The eps = 0 greedy fit's record, then per prefix the residual
    ||zbar - mean_m||, nu = g(radius) and the bound (1 - m/n) sqrt((C^2 - nu^2) / C)."""
    _check_count("--random-seeds", args.random_seeds, 0)
    if args.random_seeds > 0 and args.kmax is None:
        raise UsageError("--random-seeds needs --kmax")
    data = load_csv(args.input, has_header=args.header)
    if data.n > args.max_points:
        raise SkmError(
            f"audit is O(n^2); refusing n={data.n} > --max-points={args.max_points}"
        )
    _check_kmax(args.kmax, data.n)
    spec = parse_kernel_spec(args.kernel, data.d)
    k_max = args.kmax if args.kmax is not None else max(1, data.n - 1)
    diag = fit(data, spec, k_max=k_max, epsilon=0.0, first=args.first,
               seed=args.seed).diagnostics
    zbar_sq = squared_mean_norm(data, spec, max_points=args.max_points)
    columns = _record_columns(diag)
    m = columns["m"]
    # At m = n the radius is 0, so nu = C and the bound is 0.
    nu = gram_at_dist(spec, diag.radius_trace)
    columns.update(residual=np.sqrt(np.maximum(zbar_sq + diag.e_trace, 0.0)), nu=nu,
                   bound=bound_value(data.n, m, g_zero(spec), nu))
    stats = {"n": data.n, "k0": m.size, "wall_ms": (diag.seconds_trace * 1e3).tolist()}
    if args.random_seeds > 0:
        report = random_baseline(data, spec, k_max, seeds=range(args.random_seeds),
                                 first=args.first)
        columns["e_random_mean"] = report.pop("e_random_mean")[:m.size]
        stats.update(report)
    _write_columns(args.out, columns)
    return stats


def _sparse_fit_options(args, epsilon):
    """(epsilon, k_max) of a --sparse fit, `epsilon` when --eps is not given.

    --eps and --kmax set nothing without --sparse, so they are usage errors.
    """
    if not args.sparse:
        for flag, value in (("--eps", args.eps), ("--kmax", args.kmax)):
            if value is not None:
                raise UsageError(f"{flag} applies only with --sparse")
        return None, None
    _check_kmax(args.kmax)
    return (epsilon if args.eps is None else args.eps), args.kmax


def _cmd_embed(args) -> dict:
    eps, k_max = _sparse_fit_options(args, 1e-10)
    samples = [load_csv(path, has_header=args.header) for path in args.inputs]
    dims = {s.d for s in samples}
    if len(dims) != 1:
        raise SkmError(f"samples have mixed dimensions {sorted(dims)}")
    spec = parse_kernel_spec(args.kernel, samples[0].d)
    mode = "sym_kl" if args.mode == "symkl" else "rkhs"
    dm, embed_s = _clocked(distance_matrix, samples, spec, mode=mode, sparse=args.sparse,
                           k_max=k_max, epsilon=eps, seed=args.seed)
    rows = [[label] + [float(v) for v in row]
            for label, row in zip(dm.labels, dm.matrix)]
    _write_csv(args.out, ["label"] + list(dm.labels), rows)
    return {"mode": dm.mode, "labels": list(dm.labels),
            "support_sizes": list(dm.support_sizes), "sparse": args.sparse,
            "epsilon": eps, "embed_s": embed_s}


def _cmd_cpe(args) -> dict:
    eps, k_max = _sparse_fit_options(args, 1e-10)
    if not 0 < args.omega < np.inf:
        raise ValueError(f"--omega must be positive and finite, got {args.omega}")
    train = [load_csv(path, has_header=args.header) for path in args.train]
    test = load_csv(args.test, has_header=args.header)
    dims = {s.d for s in train} | {test.d}
    if len(dims) != 1:
        raise SkmError(f"samples have mixed dimensions {sorted(dims)}")
    dim = test.d
    stats = {}
    if args.sigma_search is not None:
        try:
            lo, hi = (float(v) for v in args.sigma_search.split(","))
        except ValueError:
            raise UsageError("--sigma-search expects LO,HI") from None
        if not 0 < lo < hi < np.inf:
            raise ValueError(f"--sigma-search needs 0 < LO < HI < inf, got {args.sigma_search}")
        template = parse_kernel_spec(f"gaussian:sigma={0.5 * (lo + hi)}", dim)
        (sigma, _info), stats["sigma_search_s"] = _clocked(
            search_bandwidth, train, lo, hi, template, sparse=args.sparse, k_max=k_max,
            max_iter=args.search_iters, seed=args.seed, omega=args.omega,
        )
    else:
        sigma = args.sigma
    spec = parse_kernel_spec(f"gaussian:sigma={sigma}", dim)
    estimate, stats["estimate_s"] = _clocked(
        estimate_proportions, train, test, spec, sparse=args.sparse, epsilon=eps,
        k_max=k_max, seed=args.seed)
    _write_json(args.out, {
        "pi_hat": [float(v) for v in estimate.pi_hat],
        "was_projected": estimate.was_projected,
        "residual": estimate.residual,
        "sigma": sigma,
    })
    return stats


def _cmd_meanshift(args) -> dict:
    eps, k_max = _sparse_fit_options(args, 1e-8)
    data = load_csv(args.input, has_header=args.header)
    sigma = args.sigma if args.sigma is not None else bandwidth_iqr(data)
    gamma = args.gamma if args.gamma is not None else 1e-3 * sigma
    merge = args.merge if args.merge is not None else sigma
    delta = args.delta if args.delta is not None else 3.0 * sigma
    spec = parse_kernel_spec(f"gaussian:sigma={sigma}:density", data.d)
    if not 0 < merge < np.inf:
        raise ValueError(f"--merge must be positive and finite, got {merge}")
    if not 0 < gamma < np.inf:
        raise ValueError(f"--gamma must be positive and finite, got {gamma}")
    _check_count("--max-iter", args.max_iter, 1)
    if not 0 <= delta < np.inf:
        raise ValueError(f"--delta must be nonnegative and finite, got {delta}")
    start = time.perf_counter()
    if args.sparse:
        mean = fit(data, spec, k_max=_support_budget(k_max, data.n), epsilon=eps,
                   density_mode=True, seed=args.seed)
    else:
        mean = full_mean(data, spec)
    result = mean_shift_all(data, mean, gamma, max_iter=args.max_iter)
    clustering = cluster_modes(result, merge)
    meanshift_s = time.perf_counter() - start
    if args.out_labels:
        _write_csv(args.out_labels, ["label"],
                   [[int(v)] for v in clustering.labels])
    if args.out_shifted:
        save_csv(DataSet(result.shifted, name="shifted"), args.out_shifted,
                 header=[f"x{i}" for i in range(data.d)])
    if args.compare:
        ref = load_csv(args.compare, has_header=True)
        ref_clusters = cluster_modes(ref.points, merge)
        metrics = {
            "discrepancy_index": discrepancy_index(result.shifted, ref.points, delta),
            "hausdorff": hausdorff_clustering_distance(clustering, ref_clusters, data),
            "delta": delta,
            "merge_dist": merge,
        }
        _write_json(args.metrics_out, metrics)
    return {"n": data.n, "k0": mean.k0, "clusters": clustering.n_clusters,
            "kernel_evals": result.kernel_evals, "meanshift_s": meanshift_s}


KL_EVAL_SIZE = 2000


def random_baseline(data, spec, k_max, seeds, first=None):
    """The random baseline's mean error curve, and greedy and random divergences.

    Each divergence is taken against the full mean. Greedy runs use
    `first` when given (one deterministic fit, made once for every seed),
    otherwise the seed picks the first center. The random baseline redraws
    its support per seed.
    Each directed divergence D(p || q) is estimated on KL_EVAL_SIZE
    seeded points drawn from p, so a density-normalized kernel is required.
    """
    if spec.normalization != "density":
        raise ValueError("audit --random-seeds requires a density-normalized kernel")
    done = []
    random_curves = []
    kl_rows = {"greedy": [], "random": []}
    reference = full_mean(data, spec)
    if first is not None:
        greedy = fit(data, spec, k_max=k_max, epsilon=0.0, density_mode=True, first=first)
    for seed in seeds:
        done.append(int(seed))
        eval_seed = 7_000_000 + int(seed)
        ref_draws = sample_gaussian_mean(reference, KL_EVAL_SIZE, seed=eval_seed)
        if first is None:
            greedy = fit(data, spec, k_max=k_max, epsilon=0.0, density_mode=True, seed=seed)
        rand = random_selection_fit(data, spec, k_max, seed=seed,
                                    density_mode=True)
        # A dropped dependent point shortens the curve; its last E holds.
        random_curves.append(np.pad(rand.diagnostics.e_trace, (0, k_max - rand.k0), "edge"))
        for label, mean in (("greedy", greedy), ("random", rand)):
            mean_draws = sample_gaussian_mean(mean, KL_EVAL_SIZE, seed=eval_seed + 1)
            kl_rows[label].append((
                kl_divergence(reference, mean, ref_draws),
                kl_divergence(mean, reference, mean_draws),
            ))
    report = {
        "k": int(k_max),
        "seeds": done,
        "e_random_mean": np.mean(random_curves, axis=0),
    }
    for label, rows in kl_rows.items():
        arr = np.asarray(rows)
        report[f"kl_full_sparse_{label}"] = float(arr[:, 0].mean())
        report[f"kl_sparse_full_{label}"] = float(arr[:, 1].mean())
    return report


def _cmd_synth(args) -> dict:
    data = make_dataset(args.dataset, args.n, seed=args.seed)
    save_csv(data, args.out)
    return {}


_COMMANDS = {
    "fit": _cmd_fit,
    "eval": _cmd_eval,
    "select": _cmd_select,
    "audit": _cmd_audit,
    "embed": _cmd_embed,
    "cpe": _cmd_cpe,
    "meanshift": _cmd_meanshift,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    """Run one command; on success the last stderr line is its stats document."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed < 0:  # numpy's own refusal would not name the flag
            raise ValueError(f"--seed must be at least 0, got {args.seed}")
        stats, seconds = _clocked(_COMMANDS[args.command], args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SkmError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = {"command": args.command, "backend": _backend.BACKEND, "seconds": seconds}
    print(json.dumps(doc | stats), file=sys.stderr)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
