"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line once its assertions hold, so running
`pytest tests/test_acceptance.py -v -s` yields a per-criterion report.
"""

import math
import time

import numpy as np
from numpy.testing import assert_allclose
from oracles import gram_matrix, inverse_gram, kcenter_brute
from scipy.integrate import quad

import skm
from skm import _backend, sparse_mean
from skm._backend._numpy_impl import RECORD_ROWS
from skm.cli import random_baseline
from skm.cpe import dirichlet_sample, estimate_from_means, estimate_proportions, l1_error
from skm.dataio import DataSet
from skm.divergences import distance_matrix
from skm.kernels import (
    RadialKernelSpec,
    bandwidth_iqr,
    bandwidth_jaakkola,
    g_zero,
    gram_at_dist,
    gram_params,
)
from skm.meanshift import (
    cluster_modes,
    discrepancy_index,
    hausdorff_clustering_distance,
    mean_shift_all,
)
from skm.sparse_mean import (
    SINGULARITY_REL_TOL,
    FitDiagnostics,
    SparseKernelMean,
    bound_value,
    evaluate,
    evaluate_full,
    fit,
    full_mean,
    squared_mean_norm,
)
from skm.synth import make_dataset


def report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def assert_e_trace_nonincreasing(mean):
    e = mean.diagnostics.e_trace
    slack = 1e-12 * np.maximum(1.0, np.abs(e[:-1]))
    assert np.all(np.diff(e) <= slack), "error trace increased beyond float noise"


def test_c01_greedy_within_twice_optimal():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(4, n) + 1))
        data = DataSet(rng.uniform(-5.0, 5.0, size=(n, d)))
        _best, w_opt = kcenter_brute(data, k)
        for first in range(n):
            sel = skm.kcenter_greedy(data, k, first=first)
            assert sel.coverage_radius <= 2.0 * w_opt + 1e-12
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(1, f"greedy coverage within twice optimal on 200 instances "
              f"({checked} runs, {elapsed:.1f}s)")


def test_c02_incoherence_bound_dominates_residual():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    prefixes = 0
    for _ in range(100):
        n = int(rng.integers(4, 41))
        d = int(rng.integers(1, 4))
        data = DataSet(rng.uniform(-4.0, 4.0, size=(n, d)))
        spec = RadialKernelSpec("gaussian", dim=d,
                                sigma=float(rng.uniform(0.5, 2.5)))
        mean = fit(data, spec, k_max=n, epsilon=0.0, first=int(rng.integers(n)))
        c = g_zero(spec)
        zbar_sq = squared_mean_norm(data, spec)
        e_trace = mean.diagnostics.e_trace
        radii = mean.diagnostics.radius_trace
        for m in range(min(len(e_trace), n - 1)):
            residual = math.sqrt(max(zbar_sq + e_trace[m], 0.0))
            nu = float(gram_at_dist(spec, radii[m]))
            assert residual <= bound_value(n, m + 1, c, nu) + 1e-9
            prefixes += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"error bound dominates the residual on every greedy prefix "
              f"({prefixes} prefixes, {elapsed:.1f}s)")


def test_c03_incremental_algebra():
    rng = np.random.default_rng(103)

    # (a) incremental inverse vs direct dense inverse, m up to 30,
    #     well-spread supports
    for trial in range(5):
        grid = np.stack(np.meshgrid(np.arange(6.0), np.arange(6.0)),
                        axis=-1).reshape(-1, 2)
        pts = grid + rng.uniform(-0.15, 0.15, size=grid.shape)
        data = DataSet(pts)
        spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
        sel = skm.kcenter_greedy(data, 30, first=int(rng.integers(36)))
        # The factor of the fixed-order fit: one order_fit call on the order.
        params = gram_params(spec)
        indices, record = np.empty(30, dtype=np.int64), np.empty((len(RECORD_ROWS), 30))
        k, packed = _backend.order_fit(pts, *params, SINGULARITY_REL_TOL * params.c, sel.order,
                                       indices, record)
        assert k == 30
        packed = np.frombuffer(packed)
        direct = np.linalg.inv(gram_matrix(spec, pts[sel.order]))
        rel = np.linalg.norm(inverse_gram(packed) - direct) / np.linalg.norm(direct)
        assert rel < 1e-8

    # (b) ||zbar - z_I||^2 == ||zbar||^2 - alpha' kappa via full Gram sums,
    #     with -alpha' kappa the fit's E_m
    for trial in range(10):
        n = int(rng.integers(5, 51))
        data = DataSet(rng.uniform(-4.0, 4.0, size=(n, 2)))
        spec = RadialKernelSpec("gaussian", dim=2,
                                sigma=float(rng.uniform(0.8, 2.0)))
        m = int(rng.integers(1, min(n, 10)))
        order = rng.permutation(n)[:m]
        gram = gram_matrix(spec, data.points)
        mean = sparse_mean._fixed_order_fit(data, spec, np.asarray(order, dtype=np.int64), False)
        assert mean.diagnostics.skipped == ()
        alpha = mean.alpha
        kappa_full = gram[order].mean(axis=1)
        sub = gram[np.ix_(order, order)]
        lhs = gram.mean() - 2.0 * alpha @ kappa_full + alpha @ sub @ alpha
        rhs = gram.mean() + mean.diagnostics.e_trace[-1]
        assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-12)

    # (c) E trace nonincreasing in every fit
    fits = 0
    for trial in range(20):
        n = int(rng.integers(4, 60))
        d = int(rng.integers(1, 4))
        data = DataSet(rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0))
        family = ("gaussian", "laplacian", "student")[trial % 3]
        if family == "gaussian":
            spec = RadialKernelSpec("gaussian", dim=d, sigma=float(rng.uniform(0.4, 2.0)))
        elif family == "laplacian":
            spec = RadialKernelSpec("laplacian", dim=d, gamma=float(rng.uniform(0.4, 2.0)))
        else:
            spec = RadialKernelSpec("student", dim=d, alpha=2.0,
                                    beta=float(rng.uniform(0.5, 2.0)))
        mean = fit(data, spec, k_max=int(rng.integers(1, n + 1)),
                   epsilon=0.0, seed=trial)
        assert_e_trace_nonincreasing(mean)
        fits += 1
    report(3, f"incremental inverse, error identity and monotone error trace "
              f"({fits} fits checked)")


def test_c04_nystrom_residual_identity():
    rng = np.random.default_rng(104)
    for _ in range(12):
        n = int(rng.integers(4, 31))
        data = DataSet(rng.uniform(-3.0, 3.0, size=(n, 2)))
        spec = RadialKernelSpec("gaussian", dim=2,
                                sigma=float(rng.uniform(0.8, 1.8)))
        gram = gram_matrix(spec, data.points)
        ones = np.full(n, 1.0 / n)
        if rng.integers(2):
            support = list(skm.kcenter_greedy(data, int(rng.integers(1, min(n, 8))),
                                              first=0).order)
        else:
            support = list(rng.permutation(n)[: int(rng.integers(1, min(n, 8)))])
        cols = gram[:, support]
        sub = gram[np.ix_(support, support)]
        reconstructed = cols @ np.linalg.solve(sub, cols.T)
        via_nystrom = float(ones @ (gram - reconstructed) @ ones)
        alpha = np.linalg.solve(sub, gram[support] @ ones)
        direct = (float(ones @ gram @ ones)
                  - 2.0 * float(alpha @ (gram[support] @ ones))
                  + float(alpha @ sub @ alpha))
        assert_allclose(via_nystrom, direct, rtol=1e-8, atol=1e-12)
    report(4, "column-subset reconstruction residual matches the direct Gram residual")


def test_c05_full_support_reproduces_full_mean():
    rng = np.random.default_rng(105)
    n = 60
    data = DataSet(rng.uniform(-4.0, 4.0, size=(n, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    mean = fit(data, spec, k_max=n, epsilon=0.0, first=0)
    assert mean.k0 == n
    queries = rng.uniform(-5.0, 5.0, size=(100, 2))
    gap = np.max(np.abs(evaluate(mean, queries) - evaluate_full(data, spec, queries)))
    assert gap < 1e-10
    report(5, f"full-support fit reproduces the exact mean at 100 queries "
              f"(max gap {gap:.2e})")


def test_c06_density_mode_yields_valid_density():
    rng = np.random.default_rng(106)
    data = DataSet(np.concatenate([rng.normal(size=40) * 1.3,
                                   rng.normal(size=20) + 4.0]).reshape(-1, 1))
    spec = RadialKernelSpec("gaussian", dim=1, sigma=0.6, normalization="density")
    mean = fit(data, spec, k_max=20, epsilon=1e-10, density_mode=True)
    assert np.all(mean.alpha >= 0.0)
    assert abs(float(mean.alpha.sum()) - 1.0) <= 1e-12
    lo = float(data.points.min()) - 10.0 * spec.sigma
    hi = float(data.points.max()) + 10.0 * spec.sigma
    total, _ = quad(lambda t: float(evaluate(mean, [[t]])[0]), lo, hi, limit=300)
    assert abs(total - 1.0) < 1e-4
    report(6, f"simplex-projected density integrates to one "
              f"(quadrature gap {abs(total - 1.0):.2e})")


def test_c07_greedy_beats_random_selection():
    start = time.perf_counter()
    k = 60  # = floor(3 sqrt(400))
    wins = 0
    table = []
    for name in ("banana", "blobs2", "blobs3", "moons", "ring"):
        data = make_dataset(name, 400, seed=0)
        sigma = bandwidth_jaakkola(data)
        spec = RadialKernelSpec("gaussian", dim=2, sigma=sigma,
                                normalization="density")
        rep = random_baseline(data, spec, k, seeds=range(20))
        win = (rep["kl_full_sparse_greedy"] < rep["kl_full_sparse_random"]
               and rep["kl_sparse_full_greedy"] < rep["kl_sparse_full_random"])
        wins += int(win)
        table.append(f"{name}:{'win' if win else 'loss'}")
    elapsed = time.perf_counter() - start
    assert wins >= 4, f"greedy only won on {wins}/5 datasets ({table})"
    assert elapsed < 300.0
    report(7, f"greedy divergences beat random selection on {wins}/5 datasets "
              f"({elapsed:.0f}s)")


def test_c08_distance_error_monotone_in_epsilon():
    rng = np.random.default_rng(108)
    samples = []
    for i in range(6):
        mix = np.vstack([
            rng.normal(size=(120, 2)) * 0.8 + [3.0 * (i % 3), 2.0 * (i % 2)],
            rng.normal(size=(120, 2)) * 1.2 + [-2.0, -1.0 - i],
        ])
        samples.append(DataSet(mix, name=f"s{i}"))
    pooled = DataSet(np.vstack([s.points for s in samples]))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=bandwidth_iqr(pooled))
    full = distance_matrix(samples, spec, mode="rkhs", sparse=False)
    errors = []
    for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
        sparse = distance_matrix(samples, spec, mode="rkhs", sparse=True,
                                 k_max=240, epsilon=eps)
        errors.append(np.linalg.norm(sparse.matrix - full.matrix)
                      / np.linalg.norm(full.matrix))
    for previous, current in zip(errors, errors[1:]):
        assert current <= previous * 1.10 + 1e-12, f"errors not monotone: {errors}"
    report(8, "distance-matrix error is nonincreasing as epsilon tightens "
              + "(" + " > ".join(f"{e:.1e}" for e in errors) + ")")


def _exact_mixture_mean(samples, weights, spec):
    """Embedding of a sample holding every class's points with the given
    total masses; identical to the embedding of the concatenated sample
    with proportional multiplicities."""
    support = np.vstack([s.points for s in samples])
    alpha = np.concatenate([np.full(s.n, w / s.n)
                            for s, w in zip(samples, weights)])
    diag = FitDiagnostics(e_trace=np.empty(0), k_max=support.shape[0],
                          epsilon=0.0, density_projected=False, method="full")
    return SparseKernelMean(spec=spec, support=support, alpha=alpha,
                            support_indices=None, diagnostics=diag)


def _apportion(pi, total):
    raw = np.asarray(pi) * total
    counts = np.floor(raw).astype(int)
    shortfall = total - int(counts.sum())
    if shortfall > 0:
        counts[np.argsort(-(raw - counts))[:shortfall]] += 1
    return counts


def test_c09_class_proportion_exact_recovery():
    rng = np.random.default_rng(109)
    centers = np.array([[-5.0, 0.0], [0.0, 5.0], [5.0, 0.0]])
    train = [DataSet(c + 0.8 * rng.standard_normal((500, 2)), name=f"c{i}")
             for i, c in enumerate(centers)]
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.5)
    full_means = [full_mean(s, spec) for s in train]
    sparse_means = [fit(s, spec, epsilon=1e-10, seed=0) for s in train]

    for omega in (0.5, 1.0, 2.0):
        sparse_errors = []
        for draw in range(20):
            pi = dirichlet_sample(3, omega, seed=1000 * int(omega * 10) + draw)
            counts = _apportion(pi, 12)
            weights = counts * 500 / float((counts * 500).sum())
            test_mean = _exact_mixture_mean(train, weights, spec)
            full_est = estimate_from_means(full_means, test_mean)
            assert l1_error(weights, full_est.pi_hat) < 1e-6
            sparse_est = estimate_from_means(sparse_means, test_mean)
            sparse_errors.append(l1_error(weights, sparse_est.pi_hat))
        assert np.mean(sparse_errors) <= 0.05, (
            f"omega={omega}: sparse l1 {np.mean(sparse_errors):.4f}"
        )

    # the sample-level entry point agrees on a concatenated mixture
    counts = _apportion(dirichlet_sample(3, 1.0, seed=77), 6)
    counts = np.maximum(counts, 0)
    test = DataSet(np.vstack([np.vstack([train[i].points] * counts[i])
                              for i in range(3) if counts[i]]), name="mix")
    weights = counts * 500 / float((counts * 500).sum())
    direct = estimate_proportions(train, test, spec, sparse=False)
    assert l1_error(weights, direct.pi_hat) < 1e-6
    report(9, "exact-mixture weights recovered (full < 1e-6; sparse mean "
              "l1 within 0.05 at every concentration)")


def test_c10_mean_shift_backends_agree():
    sigma = 0.5
    rng = np.random.default_rng(110)
    pts = np.vstack([
        0.4 * rng.standard_normal((100, 2)),
        [10.0 * sigma, 0.0] + 0.4 * rng.standard_normal((100, 2)),
    ])
    data = DataSet(pts, name="two-blobs")
    spec = RadialKernelSpec("gaussian", dim=2, sigma=sigma,
                            normalization="density")
    gamma = 1e-3 * sigma
    dense = full_mean(data, spec)
    sparse = fit(data, spec, k_max=42, epsilon=1e-8, density_mode=True)

    run_full = mean_shift_all(data, dense, gamma)
    run_sparse = mean_shift_all(data, sparse, gamma)
    assert discrepancy_index(run_full, run_sparse, 3.0 * sigma) == 0.0

    clusters_full = cluster_modes(run_full, sigma)
    clusters_sparse = cluster_modes(run_sparse, sigma)
    assert clusters_full.n_clusters == clusters_sparse.n_clusters == 2
    assert hausdorff_clustering_distance(clusters_full, clusters_sparse,
                                         data) == 0.0

    ratio = run_sparse.kernel_evals / run_full.kernel_evals
    budget = sparse.k0 / data.n + 0.01
    assert ratio <= budget, f"kernel-eval ratio {ratio:.4f} > {budget:.4f}"
    report(10, f"sparse and full mean-shift agree exactly; eval ratio "
               f"{ratio:.3f} <= {budget:.3f}")


def test_c11_fit_time_scales_subquadratically():
    spec = RadialKernelSpec("gaussian", dim=5, sigma=2.0)
    sets = {n: DataSet(np.random.default_rng(111).normal(size=(n, 5)))
            for n in (10_000, 20_000)}
    times = dict.fromkeys(sets, math.inf)
    # The sizes alternate inside the best-of-3 loop, so a drift in machine
    # speed reaches both sizes alike instead of skewing the ratio.
    for _ in range(3):
        for n, data in sets.items():
            start = time.perf_counter()
            mean = fit(data, spec, k_max=300, epsilon=0.0, first=0)
            times[n] = min(times[n], time.perf_counter() - start)
            assert mean.k0 == 300
    ratio = times[20_000] / times[10_000]
    assert ratio <= 2.5, f"doubling n scaled fit time by {ratio:.2f}"
    report(11, f"fit time grew by {ratio:.2f}x when n doubled "
               f"({times[10_000]:.2f}s -> {times[20_000]:.2f}s)")
