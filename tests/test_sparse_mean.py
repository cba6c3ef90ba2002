import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad

from skm.coefficients import CholeskyWeights
from skm.dataio import DataSet
from skm.kcenter import kcenter_greedy
from skm.kernels import RadialKernelSpec, g_zero, gram_at_dist, gram_matrix
from skm.sparse_mean import (
    bound_value,
    default_k_max,
    evaluate,
    evaluate_full,
    fit,
    fit_steps,
    fit_with_support,
    full_mean,
    incoherence,
    random_selection_fit,
    residual_norm,
    squared_mean_norm,
)

UNIT_GAUSS_1D = RadialKernelSpec("gaussian", dim=1, sigma=1.0)


def line_data(*values):
    return DataSet(np.asarray(values, dtype=float).reshape(-1, 1))


def incoherence_double_loop(data, spec, support):
    """O(nk) oracle straight from the min-max definition."""
    pts = data.points
    support = set(int(i) for i in support)
    best = math.inf
    for j in range(data.n):
        if j in support:
            continue
        inner = max(
            float(gram_at_dist(spec, np.linalg.norm(pts[i] - pts[j])))
            for i in support
        )
        best = min(best, inner)
    return best


# -------------------------------------------------------------------------- fit

def test_fit_single_point():
    mean = fit(line_data(4.0), UNIT_GAUSS_1D, k_max=1, epsilon=0.0)
    assert mean.k0 == 1
    assert_allclose(mean.alpha, [1.0], rtol=1e-14)


def test_fit_two_points_full_support_exact():
    mean = fit(line_data(0.0, 1.0), UNIT_GAUSS_1D, k_max=2, epsilon=0.0, first=0)
    assert mean.k0 == 2
    assert_allclose(mean.alpha, [0.5, 0.5], rtol=1e-12)


def test_fit_duplicate_clusters_stop_at_two():
    data = line_data(0.0, 0.0, 0.0, 5.0, 5.0)
    mean = fit(data, UNIT_GAUSS_1D, k_max=5, epsilon=1e-8, first=0)
    assert mean.k0 == 2
    # weights match the cluster masses exactly
    assert_allclose(np.sort(mean.alpha), [0.4, 0.6], atol=1e-12)


def test_fit_respects_k_max_budget():
    data = DataSet(np.random.default_rng(0).normal(size=(100, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=0.4)
    mean = fit(data, spec, k_max=7, epsilon=0.0)
    assert mean.k0 == 7
    assert mean.diagnostics.k_max == 7


def test_fit_default_budget_rule():
    assert default_k_max(400) == 60
    assert default_k_max(1) == 1
    data = DataSet(np.random.default_rng(1).normal(size=(50, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=0.1)
    mean = fit(data, spec, epsilon=0.0)
    assert mean.k0 == default_k_max(50) == 21


def test_fit_stop_rule_prunes_support():
    # two tight clusters: after both are covered, progress collapses
    rng = np.random.default_rng(2)
    pts = np.vstack([
        rng.normal(size=(50, 2)) * 1e-4 + [0.0, 0.0],
        rng.normal(size=(50, 2)) * 1e-4 + [8.0, 0.0],
    ])
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    mean = fit(DataSet(pts), spec, k_max=50, epsilon=1e-6)
    assert mean.k0 < 10


def test_fit_e_trace_matches_alpha_kappa():
    data = DataSet(np.random.default_rng(3).normal(size=(30, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    mean = fit(data, spec, k_max=10, epsilon=0.0)
    assert mean.diagnostics.e_trace.shape == (10,)
    assert np.all(np.diff(mean.diagnostics.e_trace) <= 1e-12)


def test_fit_density_mode_projects_weights():
    data = DataSet(np.random.default_rng(4).normal(size=(40, 1)))
    spec = RadialKernelSpec("gaussian", dim=1, sigma=0.5, normalization="density")
    mean = fit(data, spec, k_max=10, epsilon=0.0, density_mode=True)
    assert mean.diagnostics.density_projected
    assert abs(mean.alpha.sum() - 1.0) <= 1e-12
    assert np.all(mean.alpha >= 0.0)


def test_fit_validates_arguments():
    data = line_data(0.0, 1.0)
    with pytest.raises(ValueError):
        fit(data, UNIT_GAUSS_1D, k_max=0)
    with pytest.raises(ValueError):
        fit(data, UNIT_GAUSS_1D, k_max=3)
    with pytest.raises(ValueError):
        fit(data, UNIT_GAUSS_1D, epsilon=-1.0)


def test_fit_support_rows_come_from_data():
    data = DataSet(np.random.default_rng(5).normal(size=(25, 3)))
    spec = RadialKernelSpec("gaussian", dim=3, sigma=1.0)
    mean = fit(data, spec, k_max=8, epsilon=0.0)
    assert_allclose(mean.support, data.points[mean.support_indices])


# --------------------------------------------------------------------- evaluate

def test_evaluate_singleton_at_support():
    mean = fit(line_data(2.0), UNIT_GAUSS_1D, k_max=1, epsilon=0.0)
    assert_allclose(evaluate(mean, [[2.0]]), [1.0])


def test_evaluate_zero_weights():
    mean = fit(line_data(0.0, 1.0), UNIT_GAUSS_1D, k_max=2, epsilon=0.0)
    zeroed = type(mean)(spec=mean.spec, support=mean.support,
                        alpha=np.zeros(2), support_indices=mean.support_indices,
                        diagnostics=mean.diagnostics)
    assert_allclose(evaluate(zeroed, [[0.3], [4.0]]), [0.0, 0.0])


def test_evaluate_matches_double_loop_oracle():
    rng = np.random.default_rng(6)
    data = DataSet(rng.normal(size=(20, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=0.9, normalization="density")
    mean = fit(data, spec, k_max=6, epsilon=0.0)
    queries = rng.normal(size=(7, 2))
    got = evaluate(mean, queries)
    from skm.kernels import kernel_eval

    for qi, q in enumerate(queries):
        expected = sum(
            a * kernel_eval(spec, q, s) for a, s in zip(mean.alpha, mean.support)
        )
        assert_allclose(got[qi], expected, rtol=1e-12)


def test_evaluate_dimension_mismatch():
    mean = fit(line_data(0.0), UNIT_GAUSS_1D, k_max=1, epsilon=0.0)
    with pytest.raises(ValueError, match="dimension"):
        evaluate(mean, [[0.0, 1.0]])


def test_evaluate_full_single_point():
    data = line_data(1.5)
    assert_allclose(evaluate_full(data, UNIT_GAUSS_1D, [[1.5]]), [1.0])


def test_evaluate_full_equals_full_support_fit():
    rng = np.random.default_rng(7)
    data = DataSet(rng.uniform(-3, 3, size=(20, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.5)
    mean = fit(data, spec, k_max=20, epsilon=0.0)
    assert mean.k0 == 20
    queries = rng.uniform(-3, 3, size=(50, 2))
    assert np.max(np.abs(evaluate(mean, queries)
                         - evaluate_full(data, spec, queries))) < 1e-10


def test_evaluate_full_linearity_over_concatenation():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(12, 1))
    b = rng.normal(size=(4, 1))
    queries = rng.normal(size=(5, 1))
    combined = evaluate_full(DataSet(np.vstack([a, b])), UNIT_GAUSS_1D, queries)
    va = evaluate_full(DataSet(a), UNIT_GAUSS_1D, queries)
    vb = evaluate_full(DataSet(b), UNIT_GAUSS_1D, queries)
    assert_allclose(combined, (12 * va + 4 * vb) / 16, rtol=1e-12)


# --------------------------------------------------------------------- fit loop

def test_fit_loop_prefix_equals_kcenter_greedy():
    rng = np.random.default_rng(19)
    for first in (0, 17, 63):
        data = DataSet(rng.normal(size=(120, 3)))
        spec = RadialKernelSpec("gaussian", dim=3, sigma=0.7)
        mean = fit(data, spec, k_max=40, epsilon=0.0, first=first)
        assert mean.diagnostics.skipped == ()
        sel = kcenter_greedy(data, mean.k0, first=first)
        assert_array_equal(mean.support_indices, sel.order)
        assert_array_equal(mean.diagnostics.radius_trace, sel.radius_trace)


def test_fit_loop_tie_breaks_to_lower_index():
    mean = fit(line_data(0.0, -1.0, 1.0), UNIT_GAUSS_1D, k_max=2, epsilon=0.0, first=0)
    assert_array_equal(mean.support_indices, [0, 1])


def test_fit_loop_bans_dependent_candidates_and_moves_on():
    # A wide bandwidth makes most farthest candidates numerically dependent.
    rng = np.random.default_rng(20)
    data = DataSet(rng.normal(size=(300, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=10.0)
    mean = fit(data, spec, k_max=300, epsilon=0.0, first=0)
    steps = list(fit_steps(CholeskyWeights(data, spec), 300, first=0))
    skipped = [s.index for s in steps if s.skip is not None]
    assert skipped and sorted(skipped) == list(mean.diagnostics.skipped)
    assert mean.diagnostics.steps == tuple(s for s in steps if s.skip is None)
    assert len(steps) == mean.k0 + len(skipped)
    assert not set(skipped) & set(mean.support_indices.tolist())
    assert all("dependent" in s.skip for s in steps if s.skip is not None)
    # Replay: every tried candidate is the farthest point that is neither
    # chosen nor banned, ties to the lowest index.
    sqdist = np.full(data.n, np.inf)
    excluded = np.zeros(data.n, dtype=bool)
    for t, step in enumerate(steps):
        if t > 0:
            assert step.index == int(np.argmax(np.where(excluded, -1.0, sqdist)))
        excluded[step.index] = True
        if step.skip is None:
            sqdist = np.minimum(sqdist, ((data.points - data.points[step.index]) ** 2).sum(axis=1))


def test_bordered_weights_match_dense_solve_at_every_step():
    rng = np.random.default_rng(21)
    data = DataSet(rng.uniform(-1.0, 1.0, size=(2000, 3)))
    spec = RadialKernelSpec("gaussian", dim=3, sigma=0.15)
    weights = CholeskyWeights(data, spec)
    history = [(step, weights.alpha.copy()) for step in fit_steps(weights, 300, first=0)]
    assert weights.m == 300 and len(history) == 300
    support = data.points[weights.indices]
    gram = gram_matrix(spec, support)
    kappa = gram_matrix(spec, support, data.points).mean(axis=1)
    for m, (step, alpha) in enumerate(history, start=1):
        direct = scipy.linalg.solve(gram[:m, :m], kappa[:m], assume_a="pos")
        rel = np.linalg.norm(alpha - direct) / np.linalg.norm(direct)
        assert rel < 1e-10, (m, rel)
        assert_allclose(step.e, -direct @ kappa[:m], rtol=1e-10)


def test_fit_memory_grows_with_support_not_budget():
    # k_max = n = 5000: a preallocated k_max^2 factor would take 200 MB.
    rng = np.random.default_rng(22)
    data = DataSet(rng.normal(size=(5000, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    tracemalloc.start()
    try:
        mean = fit(data, spec, k_max=5000, epsilon=1e-4)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mean.k0 < 100
    assert peak < 4_000_000


# ------------------------------------------------------------------ incoherence

def test_incoherence_duplicates_cover_everything():
    data = line_data(0.0, 0.0, 3.0, 3.0)
    nu = incoherence(data, UNIT_GAUSS_1D, [0, 2])
    assert nu == g_zero(UNIT_GAUSS_1D)


def test_incoherence_singleton_pair():
    data = line_data(0.0, 1.0)
    assert_allclose(incoherence(data, UNIT_GAUSS_1D, [0]), math.exp(-0.5),
                    rtol=1e-15)


def test_incoherence_equals_g_of_coverage_radius():
    rng = np.random.default_rng(9)
    for _ in range(10):
        data = DataSet(rng.normal(size=(15, 2)))
        spec = RadialKernelSpec("gaussian", dim=2, sigma=1.1)
        support = rng.permutation(15)[: rng.integers(1, 8)]
        nu = incoherence(data, spec, support)
        assert_allclose(nu, incoherence_double_loop(data, spec, support),
                        rtol=1e-12)


def test_incoherence_rejects_full_support():
    data = line_data(0.0, 1.0)
    with pytest.raises(ValueError):
        incoherence(data, UNIT_GAUSS_1D, [0, 1])


# ------------------------------------------------------------------ bound_value

def test_bound_zero_at_full_support():
    assert bound_value(10, 10, 1.0, 0.5) == 0.0


def test_bound_zero_at_perfect_incoherence():
    assert bound_value(10, 3, 2.0, 2.0) == 0.0


def test_bound_two_point_arithmetic():
    nu = math.exp(-0.5)
    expected = 0.5 * math.sqrt(1.0 - math.exp(-1.0))  # = 0.397530 to 6 digits
    assert_allclose(bound_value(2, 1, 1.0, nu), expected, rtol=1e-15)
    # ... and it upper-bounds the true residual computed by Gram sums
    data = line_data(0.0, 1.0)
    mean = fit(data, UNIT_GAUSS_1D, k_max=1, epsilon=0.0, first=0)
    assert residual_norm(data, UNIT_GAUSS_1D, mean) <= expected + 1e-12


def test_bound_rejects_inconsistent_nu():
    with pytest.raises(ValueError):
        bound_value(5, 2, 1.0, 1.5)


def test_bound_dominates_residual_on_greedy_prefixes():
    rng = np.random.default_rng(10)
    for _ in range(15):
        n = int(rng.integers(5, 41))
        data = DataSet(rng.uniform(-4, 4, size=(n, 2)))
        spec = RadialKernelSpec("gaussian", dim=2, sigma=float(rng.uniform(0.5, 2.0)))
        mean = fit(data, spec, k_max=n, epsilon=0.0, first=int(rng.integers(n)))
        c = g_zero(spec)
        zbar_sq = squared_mean_norm(data, spec)
        e_trace = mean.diagnostics.e_trace
        radii = mean.diagnostics.radius_trace
        for m in range(min(len(e_trace), n - 1)):
            residual = math.sqrt(max(zbar_sq + e_trace[m], 0.0))
            nu = float(gram_at_dist(spec, radii[m]))
            assert residual <= bound_value(n, m + 1, c, nu) + 1e-9


def test_residual_monotone_in_support_size():
    rng = np.random.default_rng(11)
    data = DataSet(rng.normal(size=(30, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    mean = fit(data, spec, k_max=30, epsilon=0.0)
    zbar_sq = squared_mean_norm(data, spec)
    residuals = np.sqrt(np.maximum(zbar_sq + mean.diagnostics.e_trace, 0.0))
    assert np.all(np.diff(residuals) <= 1e-9)


# ------------------------------------------------------------- nystrom identity

def test_nystrom_residual_identity():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(4, 31))
        data = DataSet(rng.uniform(-3, 3, size=(n, 2)))
        spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
        m = int(rng.integers(1, min(n, 6)))
        support = list(rng.permutation(n)[:m])
        gram = gram_matrix(spec, data.points)
        ones = np.full(n, 1.0 / n)
        k_cols = gram[:, support]
        k_sub = gram[np.ix_(support, support)]
        nystrom = k_cols @ np.linalg.solve(k_sub, k_cols.T)
        lhs = float(ones @ (gram - nystrom) @ ones)

        alpha = np.linalg.solve(k_sub, gram[support].mean(axis=1))
        direct = (gram.mean() - 2.0 * alpha @ gram[support].mean(axis=1)
                  + alpha @ k_sub @ alpha)
        assert_allclose(lhs, direct, rtol=1e-8, atol=1e-12)


# --------------------------------------------------------- random baseline etc.

def test_random_selection_full_support_is_exact():
    rng = np.random.default_rng(13)
    data = DataSet(rng.normal(size=(12, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.5)
    mean = random_selection_fit(data, spec, k=12, seed=3)
    assert mean.k0 == 12
    assert residual_norm(data, spec, mean) < 1e-7


def test_random_selection_deterministic_per_seed():
    data = DataSet(np.random.default_rng(14).normal(size=(40, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    a = random_selection_fit(data, spec, k=9, seed=7)
    b = random_selection_fit(data, spec, k=9, seed=7)
    assert np.array_equal(a.support_indices, b.support_indices)
    c = random_selection_fit(data, spec, k=9, seed=8)
    assert not np.array_equal(a.support_indices, c.support_indices)


def test_random_selection_k_one():
    data = line_data(-1.0, 1.0)
    mean = random_selection_fit(data, UNIT_GAUSS_1D, k=1, seed=0)
    assert mean.k0 == 1
    assert mean.support_indices[0] in (0, 1)


def test_fit_with_support_matches_incremental_path():
    rng = np.random.default_rng(15)
    data = DataSet(rng.uniform(-3, 3, size=(40, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    greedy = fit(data, spec, k_max=10, epsilon=0.0, first=0)
    resolved = fit_with_support(data, spec, greedy.support_indices)
    assert_allclose(resolved.alpha, greedy.alpha, atol=1e-8)


def test_fit_with_support_resolves_new_bandwidth():
    rng = np.random.default_rng(16)
    data = DataSet(rng.uniform(-3, 3, size=(30, 1)))
    spec = RadialKernelSpec("gaussian", dim=1, sigma=1.0)
    greedy = fit(data, spec, k_max=8, epsilon=0.0, first=0)
    wide = fit_with_support(data, spec.with_sigma(2.0), greedy.support_indices)
    direct = fit(data, spec.with_sigma(2.0), k_max=8, epsilon=0.0, first=0)
    assert_allclose(wide.alpha, direct.alpha, atol=1e-7)


def test_density_projected_gaussian_integrates_to_one():
    rng = np.random.default_rng(17)
    data = DataSet(rng.normal(size=(60, 1)) * 1.5)
    spec = RadialKernelSpec("gaussian", dim=1, sigma=0.7, normalization="density")
    mean = fit(data, spec, k_max=15, epsilon=1e-10, density_mode=True)
    lo = float(data.points.min()) - 10 * spec.sigma
    hi = float(data.points.max()) + 10 * spec.sigma
    total, _ = quad(lambda t: float(evaluate(mean, [[t]])[0]), lo, hi, limit=200)
    assert abs(total - 1.0) < 1e-4


def test_full_mean_weights_are_uniform_simplex():
    data = DataSet(np.random.default_rng(18).normal(size=(9, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0, normalization="density")
    mean = full_mean(data, spec)
    assert_allclose(mean.alpha, np.full(9, 1.0 / 9.0))
    assert mean.diagnostics.method == "full"


def test_squared_mean_norm_guard():
    data = DataSet(np.zeros((10, 1)) + np.arange(10).reshape(-1, 1))
    with pytest.raises(ValueError, match="O\\(n\\^2\\)"):
        squared_mean_norm(data, UNIT_GAUSS_1D, max_points=5)
