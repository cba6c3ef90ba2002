"""Command-line entry point.

Data tables are CSV with a header row, scalar results are JSON, and
timings always go to stderr so data files stay clean. All randomness
derives from --seed. Exit codes: 0 success, 1 usage error, 2 data or
numeric error.
"""

import argparse
import json
import math
import sys
import time

import numpy as np

from . import _backend, kcenter
from ._parallel import default_num_threads, set_num_threads
from .coefficients import CholeskyWeights
from .cpe import estimate_proportions, search_bandwidth
from .dataio import ModelRecord, load_csv, load_model, save_csv, save_model
from .divergences import distance_matrix, kl_divergence, sample_gaussian_mean
from .errors import SkmError
from .kernels import bandwidth_iqr, parse_kernel_spec
from .meanshift import (
    cluster_modes,
    discrepancy_index,
    hausdorff_clustering_distance,
    mean_shift_all,
)
from .sparse_mean import (
    FitDiagnostics,
    SparseKernelMean,
    bound_value,
    evaluate,
    fit,
    fit_steps,
    full_mean,
    incoherence,
    random_selection_fit,
    squared_mean_norm,
)
from .synth import DATASETS, make_dataset


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _write_json(path, doc):
    text = json.dumps(doc, indent=1) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _timed(label, seconds):
    print(f"[skm] {label}: {seconds:.3f}s", file=sys.stderr)


def _parse_first(text, seed):
    """--first accepts an explicit index or 'seed:<s>'."""
    if text is None:
        return None, seed
    if text.startswith("seed:"):
        return None, int(text[len("seed:"):])
    return int(text), seed


def _model_record(mean: SparseKernelMean) -> ModelRecord:
    return ModelRecord(
        spec=mean.spec,
        support=mean.support,
        alpha=mean.alpha,
        k0=mean.k0,
        epsilon=mean.diagnostics.epsilon,
        density_mode=mean.diagnostics.density_projected,
        e_trace=mean.diagnostics.e_trace,
    )


def _mean_from_record(record: ModelRecord) -> SparseKernelMean:
    diag = FitDiagnostics(
        e_trace=record.e_trace,
        k_max=record.k0,
        epsilon=record.epsilon,
        density_projected=record.density_mode,
        method="loaded",
    )
    return SparseKernelMean(
        spec=record.spec,
        support=record.support,
        alpha=record.alpha,
        support_indices=None,
        diagnostics=diag,
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="skm", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--threads", type=int, default=None,
                        help="worker threads (default: SKM_THREADS or 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", parents=[common], help="fit a sparse kernel mean")
    p.add_argument("--input", required=True)
    p.add_argument("--kernel", required=True,
                   help="e.g. gaussian:sigma=1.5:density:rkhs")
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--density", action="store_true",
                   help="project the weights onto the probability simplex")
    p.add_argument("--first", default=None, help="<index> or seed:<s>")
    p.add_argument("--header", action="store_true", help="input has a header row")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None,
                   help="also write the error trace as CSV (m, e, ratio)")

    p = sub.add_parser("eval", parents=[common], help="evaluate a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--header", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("select", parents=[common], help="k-center selection only")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--first", default=None, help="<index> or seed:<s>")
    p.add_argument("--header", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("audit", parents=[common],
                       help="per-prefix residuals, incoherence and error bounds")
    p.add_argument("--input", required=True)
    p.add_argument("--kernel", required=True)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--first", default=None)
    p.add_argument("--header", action="store_true")
    p.add_argument("--max-points", type=int, default=5000)
    p.add_argument("--out", default=None)

    p = sub.add_parser("embed", parents=[common],
                       help="pairwise distance matrix between samples")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--kernel", required=True)
    p.add_argument("--mode", choices=("rkhs", "symkl"), default="rkhs")
    p.add_argument("--sparse", action="store_true")
    p.add_argument("--eps", type=float, default=1e-10)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--header", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--sidecar", default=None, help="JSON with k0 and timings")

    p = sub.add_parser("cpe", parents=[common], help="class proportion estimation")
    p.add_argument("--train", nargs="+", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--sparse", action="store_true")
    p.add_argument("--eps", type=float, default=1e-10)
    p.add_argument("--kmax", type=int, default=None)
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
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--header", action="store_true")
    p.add_argument("--out-labels", default=None)
    p.add_argument("--out-shifted", default=None)
    p.add_argument("--compare", default=None,
                   help="reference shifted-points CSV; emits metrics JSON")
    p.add_argument("--delta", type=float, default=None,
                   help="discrepancy threshold (default 3 * sigma)")
    p.add_argument("--metrics-out", default=None)

    p = sub.add_parser("bench", parents=[common],
                       help="error-vs-sparsity curve; optional random baseline")
    p.add_argument("--input", required=True)
    p.add_argument("--kernel", required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--first", default=None)
    p.add_argument("--header", action="store_true")
    p.add_argument("--random-seeds", type=int, default=0,
                   help="if > 0, add a random-selection baseline over this many seeds")
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None,
                   help="where to write the divergence report JSON (default stderr)")

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic dataset")
    p.add_argument("--dataset", choices=sorted(DATASETS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)

    return parser


def _cmd_fit(args) -> int:
    data = load_csv(args.input, has_header=args.header)
    spec = parse_kernel_spec(args.kernel, data.d)
    first, seed = _parse_first(args.first, args.seed)
    start = time.perf_counter()
    mean = fit(data, spec, k_max=args.kmax, epsilon=args.eps,
               density_mode=args.density, first=first, seed=seed)
    elapsed = time.perf_counter() - start
    save_model(_model_record(mean), args.out)
    if args.trace:
        rows = [[s.m, s.e, s.ratio] for s in mean.diagnostics.steps]
        _write_csv(args.trace, ["m", "e", "ratio"], rows)
    print(
        f"[skm] fit: n={data.n} d={data.d} k0={mean.k0} "
        f"backend={_backend.BACKEND} seconds={elapsed:.3f}",
        file=sys.stderr,
    )
    return 0


def _cmd_eval(args) -> int:
    record = load_model(args.model)
    queries = load_csv(args.queries, has_header=args.header)
    start = time.perf_counter()
    values = evaluate(_mean_from_record(record), queries.points)
    _timed("eval", time.perf_counter() - start)
    _write_csv(args.out, ["value"], [[float(v)] for v in values])
    return 0


def _cmd_select(args) -> int:
    data = load_csv(args.input, has_header=args.header)
    first, seed = _parse_first(args.first, args.seed)
    start = time.perf_counter()
    sel = kcenter.kcenter_greedy(data, args.k, first=first, seed=seed)
    _timed("select", time.perf_counter() - start)
    rows = [[m + 1, int(idx), float(radius)]
            for m, (idx, radius) in enumerate(zip(sel.order, sel.radius_trace))]
    _write_csv(args.out, ["m", "index", "radius"], rows)
    return 0


def _cmd_audit(args) -> int:
    data = load_csv(args.input, has_header=args.header)
    if data.n > args.max_points:
        raise SkmError(
            f"audit is O(n^2); refusing n={data.n} > --max-points={args.max_points}"
        )
    spec = parse_kernel_spec(args.kernel, data.d)
    first, seed = _parse_first(args.first, args.seed)
    k_max = args.kmax if args.kmax is not None else min(data.n - 1, data.n)
    mean = fit(data, spec, k_max=k_max, epsilon=0.0, first=first, seed=seed)
    zbar_sq = squared_mean_norm(data, spec, max_points=args.max_points)
    from .kernels import g_zero, gram_at_dist

    c = g_zero(spec)
    rows = []
    e_trace = mean.diagnostics.e_trace
    radii = mean.diagnostics.radius_trace
    for m in range(e_trace.shape[0]):
        residual = math.sqrt(max(zbar_sq + e_trace[m], 0.0))
        if m + 1 < data.n:
            nu = float(gram_at_dist(spec, radii[m]))
            bnd = bound_value(data.n, m + 1, c, nu)
        else:
            nu = c
            bnd = 0.0
        rows.append([m + 1, float(e_trace[m]), residual, float(radii[m]), nu, bnd])
    _write_csv(args.out, ["m", "e", "residual", "radius", "nu", "bound"], rows)
    return 0


def _cmd_embed(args) -> int:
    samples = [load_csv(path, has_header=args.header) for path in args.inputs]
    dims = {s.d for s in samples}
    if len(dims) != 1:
        raise SkmError(f"samples have mixed dimensions {sorted(dims)}")
    spec = parse_kernel_spec(args.kernel, samples[0].d)
    mode = "sym_kl" if args.mode == "symkl" else "rkhs"
    start = time.perf_counter()
    dm = distance_matrix(samples, spec, mode=mode, sparse=args.sparse,
                         k_max=args.kmax, epsilon=args.eps, seed=args.seed)
    elapsed = time.perf_counter() - start
    _timed("embed", elapsed)
    rows = [[label] + [float(v) for v in row]
            for label, row in zip(dm.labels, dm.matrix)]
    _write_csv(args.out, ["label"] + list(dm.labels), rows)
    if args.sidecar:
        _write_json(args.sidecar, {
            "mode": dm.mode,
            "labels": list(dm.labels),
            "support_sizes": list(dm.support_sizes),
            "sparse": bool(args.sparse),
            "epsilon": args.eps,
            "seconds": elapsed,
        })
    return 0


def _cmd_cpe(args) -> int:
    train = [load_csv(path, has_header=args.header) for path in args.train]
    test = load_csv(args.test, has_header=args.header)
    dims = {s.d for s in train} | {test.d}
    if len(dims) != 1:
        raise SkmError(f"samples have mixed dimensions {sorted(dims)}")
    dim = test.d
    timings = {}
    if args.sigma_search is not None:
        try:
            lo, hi = (float(v) for v in args.sigma_search.split(","))
        except ValueError:
            raise UsageError("--sigma-search expects LO,HI") from None
        template = parse_kernel_spec(f"gaussian:sigma={0.5 * (lo + hi)}", dim)
        start = time.perf_counter()
        sigma, _info = search_bandwidth(
            train, lo, hi, template, sparse=args.sparse, epsilon=args.eps,
            k_max=args.kmax, max_iter=args.search_iters, seed=args.seed,
            omega=args.omega,
        )
        timings["sigma_search_s"] = time.perf_counter() - start
    else:
        sigma = args.sigma
    spec = parse_kernel_spec(f"gaussian:sigma={sigma}", dim)
    start = time.perf_counter()
    estimate = estimate_proportions(train, test, spec, sparse=args.sparse,
                                    epsilon=args.eps, k_max=args.kmax,
                                    seed=args.seed)
    timings["estimate_s"] = time.perf_counter() - start
    _timed("cpe", sum(timings.values()))
    _write_json(args.out, {
        "pi_hat": [float(v) for v in estimate.pi_hat],
        "was_projected": estimate.was_projected,
        "residual": estimate.residual,
        "sigma": sigma,
        "timings": timings,
    })
    return 0


def _cmd_meanshift(args) -> int:
    data = load_csv(args.input, has_header=args.header)
    sigma = args.sigma if args.sigma is not None else bandwidth_iqr(data)
    gamma = args.gamma if args.gamma is not None else 1e-3 * sigma
    merge = args.merge if args.merge is not None else sigma
    spec = parse_kernel_spec(f"gaussian:sigma={sigma}:density", data.d)
    start = time.perf_counter()
    if args.sparse:
        mean = fit(data, spec, k_max=args.kmax, epsilon=args.eps,
                   density_mode=True, seed=args.seed)
    else:
        mean = full_mean(data, spec)
    result = mean_shift_all(data, mean, gamma, max_iter=args.max_iter)
    clustering = cluster_modes(result, merge)
    elapsed = time.perf_counter() - start
    print(
        f"[skm] meanshift: n={data.n} k0={mean.k0} clusters="
        f"{clustering.n_clusters} kernel_evals={result.kernel_evals} "
        f"seconds={elapsed:.3f}",
        file=sys.stderr,
    )
    if args.out_labels:
        _write_csv(args.out_labels, ["label"],
                   [[int(v)] for v in clustering.labels])
    if args.out_shifted:
        from .dataio import DataSet

        save_csv(DataSet(result.shifted, name="shifted"), args.out_shifted,
                 header=[f"x{i}" for i in range(data.d)])
    if args.compare:
        ref = load_csv(args.compare, has_header=True)
        delta = args.delta if args.delta is not None else 3.0 * sigma
        ref_clusters = cluster_modes(
            ShiftStub(ref.points), merge
        )
        metrics = {
            "discrepancy_index": discrepancy_index(result.shifted, ref.points, delta),
            "hausdorff": hausdorff_clustering_distance(clustering, ref_clusters, data),
            "delta": delta,
            "merge_dist": merge,
        }
        _write_json(args.metrics_out, metrics)
    return 0


class ShiftStub:
    """Minimal stand-in so reference shifted points can be re-clustered."""

    def __init__(self, shifted):
        self.shifted = np.asarray(shifted, dtype=np.float64)


def _bench_curve(data, spec, k_max, first, seed):
    """Greedy error trace with cumulative wall time per support size."""
    start = time.perf_counter()
    return [(step.m, step.e, (time.perf_counter() - start) * 1e3)
            for step in fit_steps(CholeskyWeights(data, spec), k_max, first=first, seed=seed)
            if step.skip is None]


def _pad_curve(e_trace, k_max):
    e = list(e_trace)
    if len(e) < k_max:
        e.extend([e[-1]] * (k_max - len(e)))
    return np.array(e[:k_max])


def bench_compare(data, spec, k_max, seeds, first=None, kl_eval_size=2000):
    """Greedy-vs-random error curves and divergences against the full mean.

    Greedy runs use `first` when given (one deterministic curve), otherwise
    the seed picks the first center. The random baseline redraws its
    support per seed. Each directed divergence D(p || q) is estimated on a
    seeded sample drawn from p, so a density-normalized kernel is required.
    """
    if spec.normalization != "density":
        raise ValueError("bench_compare requires a density-normalized kernel")
    seeds = list(seeds)
    greedy_curves, random_curves = [], []
    kl_rows = {"greedy": [], "random": []}
    reference = full_mean(data, spec)
    for seed in seeds:
        eval_seed = 7_000_000 + int(seed)
        ref_draws = sample_gaussian_mean(reference, kl_eval_size, seed=eval_seed)
        greedy = fit(data, spec, k_max=k_max, epsilon=0.0, density_mode=True,
                     first=first, seed=seed)
        rand = random_selection_fit(data, spec, k_max, seed=seed,
                                    density_mode=True)
        greedy_curves.append(_pad_curve(greedy.diagnostics.e_trace, k_max))
        random_curves.append(_pad_curve(rand.diagnostics.e_trace, k_max))
        for label, mean in (("greedy", greedy), ("random", rand)):
            mean_draws = sample_gaussian_mean(mean, kl_eval_size,
                                              seed=eval_seed + 1)
            kl_rows[label].append((
                kl_divergence(reference, mean, ref_draws),
                kl_divergence(mean, reference, mean_draws),
            ))
    report = {
        "k": int(k_max),
        "seeds": [int(s) for s in seeds],
        "e_greedy_mean": np.mean(greedy_curves, axis=0),
        "e_random_mean": np.mean(random_curves, axis=0),
    }
    for label, rows in kl_rows.items():
        arr = np.asarray(rows)
        report[f"kl_full_sparse_{label}"] = float(arr[:, 0].mean())
        report[f"kl_sparse_full_{label}"] = float(arr[:, 1].mean())
    return report


def _cmd_bench(args) -> int:
    data = load_csv(args.input, has_header=args.header)
    spec = parse_kernel_spec(args.kernel, data.d)
    if args.kmax > data.n:
        raise SkmError(f"--kmax {args.kmax} exceeds n={data.n}")
    first, seed = _parse_first(args.first, args.seed)
    rows = _bench_curve(data, spec, args.kmax, first, seed)
    if args.random_seeds > 0:
        report = bench_compare(data, spec, args.kmax,
                               seeds=range(args.random_seeds), first=first)
        e_random = report["e_random_mean"]
        out_rows = [[m, e, ms, float(e_random[m - 1])] for m, e, ms in rows]
        _write_csv(args.out, ["m", "e", "wall_ms", "e_random_mean"], out_rows)
        doc = {k: v for k, v in report.items()
               if not isinstance(v, np.ndarray)}
        if args.report:
            _write_json(args.report, doc)
        else:
            print(json.dumps(doc), file=sys.stderr)
    else:
        _write_csv(args.out, ["m", "e", "wall_ms"], [list(r) for r in rows])
    return 0


def _cmd_synth(args) -> int:
    data = make_dataset(args.dataset, args.n, seed=args.seed)
    save_csv(data, args.out)
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "eval": _cmd_eval,
    "select": _cmd_select,
    "audit": _cmd_audit,
    "embed": _cmd_embed,
    "cpe": _cmd_cpe,
    "meanshift": _cmd_meanshift,
    "bench": _cmd_bench,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        threads = args.threads if args.threads is not None else default_num_threads()
        set_num_threads(threads)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SkmError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
