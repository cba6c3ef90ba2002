import dataclasses
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from oracles import gram_matrix, kernel_eval, progress_ratio
from scipy.integrate import quad

from skm import _backend, sparse_mean
from skm._backend._numpy_impl import RECORD_ROWS
from skm.dataio import DataSet
from skm.kcenter import kcenter_greedy
from skm.kernels import (
    RadialKernelSpec,
    block_sums,
    g_zero,
    gram_at_dist,
    gram_params,
)
from skm.sparse_mean import (
    SINGULARITY_REL_TOL,
    bound_value,
    default_k_max,
    evaluate,
    evaluate_full,
    fit,
    full_mean,
    incoherence,
    mean_gram_inner,
    random_selection_fit,
    squared_mean_norm,
)

UNIT_GAUSS_1D = RadialKernelSpec("gaussian", dim=1, sigma=1.0)


def line_data(*values):
    return DataSet(np.asarray(values, dtype=float).reshape(-1, 1))


def residual_norm(data, spec, mean, max_points=5000):
    """||zbar - mean||_H via Gram sums in flat memory; valid for any weights."""
    zbar_sq = squared_mean_norm(data, spec, max_points=max_points)
    pts = np.asarray(data.points, dtype=np.float64)
    params = gram_params(spec)
    kappa = block_sums(params, mean.support, pts, np.full(pts.shape[0], 1.0 / pts.shape[0]))
    inner = block_sums(params, mean.support, mean.support, mean.alpha)
    value = zbar_sq - 2.0 * float(mean.alpha @ kappa) + float(mean.alpha @ inner)
    return math.sqrt(max(value, 0.0))


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
    assert np.all(np.diff(mean.diagnostics.e_trace) <= 0)


def test_fit_density_mode_projects_weights():
    data = DataSet(np.random.default_rng(4).normal(size=(40, 1)))
    spec = RadialKernelSpec("gaussian", dim=1, sigma=0.5, normalization="density")
    mean = fit(data, spec, k_max=10, epsilon=0.0, density_mode=True)
    assert mean.diagnostics.density_projected
    assert abs(mean.alpha.sum() - 1.0) <= 1e-12
    assert np.all(mean.alpha >= 0.0)


@given(data=st.data())
def test_fit_trace_and_weights_on_small_data_with_duplicates(data):
    n = data.draw(st.integers(1, 30), label="n")
    d = data.draw(st.integers(1, 3), label="d")
    rows = data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=d, max_size=d),
                              min_size=1, max_size=n), label="rows")
    picks = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=n, max_size=n),
                      label="picks")
    points = 0.5 * np.array([rows[i] for i in picks], dtype=np.float64)
    sigma = 10.0 ** data.draw(st.floats(-1, 2), label="log10 sigma")
    epsilon = data.draw(st.sampled_from([0.0, 1e-8]), label="epsilon")
    density_mode = data.draw(st.booleans(), label="density_mode")
    spec = RadialKernelSpec("gaussian", dim=d, sigma=sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean = fit(DataSet(points), spec, epsilon=epsilon, density_mode=density_mode)
    e = mean.diagnostics.e_trace
    assert np.all(np.diff(e) <= 0)
    if density_mode:
        assert np.all(mean.alpha >= 0.0)
        assert abs(mean.alpha.sum() - 1.0) <= 1e-12
    if np.unique(points, axis=0).shape[0] == 1:
        assert mean.k0 == 1


@pytest.mark.parametrize("shape", [(5, 2), (1, 1), (1, 2), (50, 1)])
@pytest.mark.parametrize("density_mode", [False, True])
def test_fit_constant_data_is_one_support_point(shape, density_mode):
    spec = RadialKernelSpec("gaussian", dim=shape[1], sigma=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean = fit(DataSet(np.full(shape, 2.5)), spec, epsilon=0.0,
                   density_mode=density_mode)
    assert mean.k0 == 1
    assert_allclose(mean.alpha, [1.0], rtol=1e-14)


def test_fit_validates_arguments():
    data = line_data(0.0, 1.0)
    with pytest.raises(ValueError):
        fit(data, UNIT_GAUSS_1D, k_max=0)
    with pytest.raises(ValueError):
        fit(data, UNIT_GAUSS_1D, k_max=3)
    # A budget of 1.5 would grow the support to 2 and record k_max = 1.
    with pytest.raises(ValueError, match="k_max must be an integer"):
        fit(data, UNIT_GAUSS_1D, k_max=1.5)
    with pytest.raises(ValueError):
        fit(data, UNIT_GAUSS_1D, epsilon=-1.0)
    # The first support point is an index: 0.5 would start at 0, True at 1.
    for first in (0.5, True):
        with pytest.raises(ValueError, match="first must be an integer"):
            fit(data, UNIT_GAUSS_1D, first=first)
    with pytest.raises(ValueError, match="k must be an integer"):
        random_selection_fit(data, UNIT_GAUSS_1D, 1.5)


@pytest.mark.parametrize("k_max", [True, "3", 2.5, 5])
def test_fit_rejects_a_k_max_that_is_not_an_integer_in_range(k_max):
    # True would fit one point, and "3" used to raise a bare TypeError.
    with pytest.raises(ValueError, match="k_max must be an integer with 1 <= k_max <= n"):
        fit(line_data(0.0, 1.0, 2.0, 3.0), UNIT_GAUSS_1D, k_max=k_max)


def test_fit_rejects_a_nan_epsilon():
    # No ratio is <= nan, so the fit would run to its budget.
    data = DataSet(np.random.default_rng(26).normal(size=(400, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    with pytest.raises(ValueError, match="epsilon must be nonnegative"):
        fit(data, spec, epsilon=float("nan"))


def test_fit_rejects_an_infinite_epsilon():
    # Every ratio is <= inf, so the fit would stop at 2 points.
    data = DataSet(np.random.default_rng(26).normal(size=(400, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    with pytest.raises(ValueError, match="epsilon must be nonnegative and finite"):
        fit(data, spec, epsilon=float("inf"))


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
    for qi, q in enumerate(queries):
        expected = sum(
            a * kernel_eval(spec, q, s) for a, s in zip(mean.alpha, mean.support)
        )
        assert_allclose(got[qi], expected, rtol=1e-12)


def test_evaluate_on_no_queries_returns_empty():
    mean = fit(line_data(0.0, 1.0), UNIT_GAUSS_1D, k_max=2, epsilon=0.0)
    assert evaluate(mean, np.empty((0, 1))).shape == (0,)


def test_evaluate_memory_is_bounded_by_the_block_size():
    # One 1024 x 2000 kernel block would hold 16 MB, and its temporaries more.
    rng = np.random.default_rng(23)
    data = DataSet(rng.normal(size=(2000, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    mean = full_mean(data, spec)
    queries = rng.normal(size=(1024, 2))
    tracemalloc.start()
    try:
        values = evaluate(mean, queries)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == (1024,)
    assert peak < 8_000_000


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


def test_fit_loop_stops_at_first_dependent_candidate(caplog):
    # A wide bandwidth makes a farthest candidate numerically dependent early.
    rng = np.random.default_rng(20)
    data = DataSet(rng.normal(size=(300, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=10.0)
    with caplog.at_level("INFO", logger="skm.sparse_mean"):
        mean = fit(data, spec, k_max=300, epsilon=0.0, first=0)
    diag = mean.diagnostics
    (last,) = diag.skipped
    assert "numerically dependent" in caplog.text
    assert mean.k0 < 300 and last not in mean.support_indices
    # One record entry per accepted point, each pivot above the tolerance.
    for trace in (diag.e_trace, diag.ratio_trace, diag.radius_trace, diag.pivots,
                  diag.seconds_trace):
        assert trace.shape == (mean.k0,)
    assert np.all(diag.pivots > 1e-9 * g_zero(spec))
    assert np.all(np.diff(diag.seconds_trace) >= 0.0)
    # The same factor step drops the skipped candidate after the support.
    order = np.r_[mean.support_indices, last]
    fixed = sparse_mean._fixed_order_fit(data, spec, np.asarray(order, dtype=np.int64), False)
    assert fixed.diagnostics.skipped == (last,)
    # Replay: every tried candidate is the farthest point from the support,
    # ties to the lowest index.
    sqdist = np.full(data.n, np.inf)
    for t, index in enumerate(order):
        if t > 0:
            assert index == int(np.argmax(sqdist))
        sqdist = np.minimum(sqdist, ((data.points - data.points[index]) ** 2).sum(axis=1))


@pytest.mark.parametrize("sigma, epsilon", [(0.7, 0.0), (0.7, 1e-3), (10.0, 0.0)])
def test_ratio_trace_is_progress_ratio_at_every_greedy_step(sigma, epsilon):
    data = DataSet(np.random.default_rng(27).normal(size=(400, 2)))
    mean = fit(data, RadialKernelSpec("gaussian", dim=2, sigma=sigma), k_max=80,
               epsilon=epsilon, first=0)
    e, ratios = mean.diagnostics.e_trace.tolist(), mean.diagnostics.ratio_trace.tolist()
    assert ratios[0] == 0.0 and len(ratios) == mean.k0 > 2
    for m in range(1, mean.k0):
        assert ratios[m] == progress_ratio(e[0], e[m - 1], e[m])
    # The fit stopped at the first ratio at most epsilon, or at its budget.
    assert all(r > epsilon for r in ratios[1:-1])


def _count_backend_calls(monkeypatch):
    """Count the calls of every primitive the backend exports."""
    calls = {name: 0 for name, value in vars(_backend).items()
             if callable(value) and not name.startswith("_")}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(_backend, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(_backend, name, counted)
    return calls


def _count_numpy_steps(monkeypatch, n):
    """Run greedy fits on the numpy backend and count the scans and factor
    steps inside its greedy_fit: a scan is one `_sqdist_to` over all n
    points (a Gram row's over the kept points is not one), a factor step
    is one forward triangular solve, and the back solve for the weights is
    not counted."""
    from skm._backend import _numpy_impl

    steps = {"scans": 0, "factor_steps": 0}
    monkeypatch.setattr(_backend, "greedy_fit", _numpy_impl.greedy_fit)
    scan, solve = _numpy_impl._sqdist_to, _numpy_impl._tpsv

    def counted_scan(coords, j):
        steps["scans"] += coords.shape[1] == n
        return scan(coords, j)

    def counted_solve(packed, x, trans):
        steps["factor_steps"] += trans == 0
        return solve(packed, x, trans)

    monkeypatch.setattr(_numpy_impl, "_sqdist_to", counted_scan)
    monkeypatch.setattr(_numpy_impl, "_tpsv", counted_solve)
    return steps


def test_fit_makes_one_fused_scan_per_accepted_step(monkeypatch):
    # Each accepted step is one scan and one factor step, the new point's
    # Gram row solved against the factor, inside the one greedy_fit call of
    # the fit, which doubles its factor from 16 to 32, then 60 rows, and
    # ends by solving for the weights.
    steps = _count_numpy_steps(monkeypatch, 500)
    calls = _count_backend_calls(monkeypatch)
    data = DataSet(np.random.default_rng(23).normal(size=(500, 3)))
    mean = fit(data, RadialKernelSpec("gaussian", dim=3, sigma=0.5), k_max=60, epsilon=0.0)
    assert mean.k0 == 60 and mean.diagnostics.skipped == ()
    assert steps == {"scans": 60, "factor_steps": 60}
    assert calls == {"farthest_scan": 0, "kernel_sums": 0, "greedy_fit": 1, "order_fit": 0}


def test_candidates_rejected_at_the_pivot_cost_one_scan(monkeypatch, caplog):
    # eps = 0 and a wide bandwidth: the fit stops at a dependent candidate,
    # whose one factor step showed it dependent; it costs no scan, since a
    # step forms its Gram row from the kept points alone.
    data = DataSet(np.random.default_rng(20).normal(size=(300, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=10.0)
    steps = _count_numpy_steps(monkeypatch, 300)
    calls = _count_backend_calls(monkeypatch)
    with caplog.at_level("INFO", logger="skm.sparse_mean"):
        mean = fit(data, spec, k_max=300, epsilon=0.0, first=0)
    assert len(mean.diagnostics.skipped) == 1 and "pivot" in caplog.text
    tried = mean.k0 + 1
    assert steps == {"scans": mean.k0, "factor_steps": tried}
    assert 16 < tried <= 32  # so the factor doubled once, inside the call
    assert calls == {"farthest_scan": 0, "kernel_sums": 0, "greedy_fit": 1, "order_fit": 0}


def test_fixed_order_fits_make_one_order_fit_call_and_no_kernel_sum(monkeypatch):
    # Each fit is one order_fit call, the greedy fit's step along the
    # order, whose scans give kappa and which ends by solving for the
    # weights, so it makes no kernel sum and forms no Gram block.
    data = DataSet(np.random.default_rng(25).normal(size=(400, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    order = kcenter_greedy(data, 30, first=0).order
    calls = _count_backend_calls(monkeypatch)
    fixed = sparse_mean._fixed_order_fit(data, spec, np.asarray(order, dtype=np.int64), False)
    assert fixed.k0 == 30
    assert random_selection_fit(data, spec, 30, seed=1).k0 == 30
    assert calls == {"farthest_scan": 0, "kernel_sums": 0, "greedy_fit": 0, "order_fit": 2}


@pytest.mark.parametrize("n", [4000, 8000])
def test_saturated_fit_tries_at_most_one_candidate_past_its_support(monkeypatch, n):
    # eps = 0 at sigma = 10: most points are numerically dependent on a
    # support of about 20, so trying every farthest point would cost O(n^2).
    tried = _count_numpy_steps(monkeypatch, n)
    data = DataSet(np.random.default_rng(24).normal(size=(n, 2)))
    mean = fit(data, RadialKernelSpec("gaussian", dim=2, sigma=10.0), k_max=200, epsilon=0.0)
    assert mean.k0 < 40
    assert tried["factor_steps"] <= mean.k0 + 1


def test_weights_match_dense_solve_at_every_step():
    # One greedy_fit call of 300 points holds every prefix: the leading m
    # rows of its packed factor and of its record's v give the weights of
    # its first m points, and the call's own alpha row those of all 300.
    rng = np.random.default_rng(21)
    data = DataSet(rng.uniform(-1.0, 1.0, size=(2000, 3)))
    spec = RadialKernelSpec("gaussian", dim=3, sigma=0.15)
    order = kcenter_greedy(data, 300, first=0).order
    params = gram_params(spec)
    indices, record = np.empty(300, dtype=np.int64), np.empty((len(RECORD_ROWS), 300))
    m, _, _, packed = _backend.greedy_fit(data.points, *params, SINGULARITY_REL_TOL * params.c,
                                          0.0, 0, indices, record)
    packed = np.frombuffer(packed)
    assert m == 300
    assert_array_equal(indices, order)
    mean = fit(data, spec, k_max=300, epsilon=0.0, first=0)
    assert_array_equal(mean.support_indices, order)
    lower = np.zeros((300, 300))
    lower[np.tril_indices(300)] = packed
    history = []
    for m in range(1, 301):
        alpha = scipy.linalg.solve_triangular(lower[:m, :m], record[2, :m], trans=1, lower=True)
        history.append((record[3, m - 1], alpha))
    assert_array_equal(record[RECORD_ROWS.index("alpha")], mean.alpha)
    assert_allclose(history[-1][1], mean.alpha, rtol=1e-12)
    support = data.points[order]
    gram = gram_matrix(spec, support)
    kappa = gram_matrix(spec, support, data.points).mean(axis=1)
    for m, (e, alpha) in enumerate(history, start=1):
        direct = scipy.linalg.solve(gram[:m, :m], kappa[:m], assume_a="pos")
        rel = np.linalg.norm(alpha - direct) / np.linalg.norm(direct)
        assert rel < 1e-10, (m, rel)
        assert_allclose(e, -direct @ kappa[:m], rtol=1e-10)


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


@pytest.mark.parametrize("impl", ["skm._backend._numpy_impl", "skm._backend._fastcore"],
                         indirect=True)
def test_seconds_trace_counts_from_the_start_of_the_fit_call(impl, monkeypatch):
    # Each entry is the seconds from the start of the backend's greedy_fit
    # call to the end of a step, so the trace never falls and ends within
    # the wall time of the fit around the call.
    from skm._backend import _numpy_impl

    for name in _numpy_impl.__all__:
        monkeypatch.setattr(_backend, name, getattr(impl, name))
    data = DataSet(np.random.default_rng(26).normal(size=(2000, 3)))
    start = time.perf_counter()
    mean = fit(data, RadialKernelSpec("gaussian", dim=3, sigma=0.5), k_max=80, epsilon=0.0)
    wall = time.perf_counter() - start
    seconds = mean.diagnostics.seconds_trace
    assert seconds.shape == (80,)
    assert seconds[0] >= 0.0 and np.all(np.diff(seconds) >= 0.0)
    assert seconds[-1] <= wall


# ------------------------------------------------------------------ incoherence

@pytest.mark.parametrize("indices", [
    [0.5, 2.7],
    [True, False, True, False, False],
    np.array([1, 0, 1, 0, 0], dtype=bool),
    [0.0, np.nan],
    ["0", "2"],
], ids=["fractions", "bool-list", "bool-mask", "nan", "strings"])
def test_support_indices_must_be_integers(indices):
    # A fraction is not cut down to an index, nor a bool mask read as the
    # indices 0 and 1.
    data = line_data(0.0, 1.0, 2.0, 3.0, 4.0)
    with pytest.raises(ValueError, match="support indices must be integers"):
        incoherence(data, UNIT_GAUSS_1D, indices)
    # Integral floats are integers.
    assert incoherence(data, UNIT_GAUSS_1D, [0.0, 2.0]) == incoherence(data, UNIT_GAUSS_1D, [0, 2])


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
    # NaN fails every comparison, so it must not slip past the range checks.
    for nu in (math.nan, -0.5, math.inf):
        with pytest.raises(ValueError, match="incoherence must satisfy 0 <= nu <= C"):
            bound_value(10, 3, 1.0, nu)
    for c in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="C must be positive and finite"):
            bound_value(10, 3, c, 0.5)


@pytest.mark.parametrize("n, support_size, name", [
    (10, 2.5, "support size"), (10, True, "support size"), (10, [3, 2.5], "support size"),
    (10, [0, 3], "support size"), (10.5, 3, "n"), (True, 1, "n"),
])
def test_bound_refuses_a_size_that_is_not_an_integer(n, support_size, name):
    # A fractional support size or n has no bound, rather than a value read
    # off the formula.
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        bound_value(n, support_size, 1.0, 0.5)


def test_bound_is_elementwise_over_support_sizes_and_incoherences():
    sizes, nu = np.arange(1, 11), np.linspace(0.0, 2.0, 10)
    bounds = bound_value(10, sizes, 2.0, nu)
    assert_array_equal(bounds, [bound_value(10, int(k), 2.0, float(v)) for k, v in zip(sizes, nu)])
    assert bounds[-1] == 0.0
    with pytest.raises(ValueError, match="incoherence must satisfy 0 <= nu <= C"):
        bound_value(10, sizes, 1.0, nu)


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


def test_random_selection_drops_dependent_points_and_keeps_e_monotone():
    # At sigma = 5 on 1000 points most of a 94-point random support is
    # numerically dependent on the points drawn before it.
    data = DataSet(np.random.default_rng(1).normal(size=(1000, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=5.0)
    mean = random_selection_fit(data, spec, k=94, seed=1)
    assert len(mean.diagnostics.skipped) > 0
    assert mean.k0 + len(mean.diagnostics.skipped) == 94
    assert np.all(np.diff(mean.diagnostics.e_trace) <= 0)


def test_random_selection_k_one():
    data = line_data(-1.0, 1.0)
    mean = random_selection_fit(data, UNIT_GAUSS_1D, k=1, seed=0)
    assert mean.k0 == 1
    assert mean.support_indices[0] in (0, 1)


def test_fixed_order_fit_matches_incremental_path():
    rng = np.random.default_rng(15)
    data = DataSet(rng.uniform(-3, 3, size=(40, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    greedy = fit(data, spec, k_max=10, epsilon=0.0, first=0)
    resolved = sparse_mean._fixed_order_fit(data, spec,
                                            np.asarray(greedy.support_indices, dtype=np.int64),
                                            False)
    assert_allclose(resolved.alpha, greedy.alpha, atol=1e-8)


def test_fixed_order_fit_resolves_new_bandwidth():
    rng = np.random.default_rng(16)
    data = DataSet(rng.uniform(-3, 3, size=(30, 1)))
    spec = RadialKernelSpec("gaussian", dim=1, sigma=1.0)
    greedy = fit(data, spec, k_max=8, epsilon=0.0, first=0)
    wide = sparse_mean._fixed_order_fit(data, spec.with_sigma(2.0),
                                        np.asarray(greedy.support_indices, dtype=np.int64), False)
    direct = fit(data, spec.with_sigma(2.0), k_max=8, epsilon=0.0, first=0)
    assert_allclose(wide.alpha, direct.alpha, atol=1e-7)


def test_fixed_order_fit_rejects_indices_outside_range():
    data = DataSet(np.random.default_rng(19).normal(size=(50, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    for bad in ([0, -1, 5], [0, 50], [0, 49, -1]):  # -1 would alias point 49
        with pytest.raises(ValueError, match="out of range for n=50"):
            sparse_mean._fixed_order_fit(data, spec, np.asarray(bad, dtype=np.int64), False)


def test_fixed_order_fit_drops_dependent_supports_at_wide_bandwidth():
    # Three 667-point blobs and 134 farthest-first supports (3 sqrt(n)); at
    # sigma=5 most of their sections are numerically dependent.
    rng = np.random.default_rng(20)
    centers = ((0.0, 0.0), (3.0, 0.0), (0.0, 3.0))
    data = DataSet(np.vstack([c + rng.standard_normal((667, 2)) for c in centers]))
    support = kcenter_greedy(data, 134, first=0).order
    spec = RadialKernelSpec("gaussian", dim=2, sigma=5.0)
    mean = sparse_mean._fixed_order_fit(data, spec, np.asarray(support, dtype=np.int64), False)
    kept = mean.support_indices
    assert len(mean.diagnostics.skipped) > 0
    assert kept.size + len(mean.diagnostics.skipped) == support.size
    assert_array_equal(kept, support[np.isin(support, kept)])  # order kept
    gram = gram_matrix(spec, data.points[kept])
    kappa = gram_matrix(spec, data.points, data.points[kept]).mean(axis=0)
    ref = scipy.linalg.solve(gram, kappa, assume_a="pos")

    def objective(alpha):  # squared RKHS error minus ||zbar||^2
        return alpha @ gram @ alpha - 2.0 * alpha @ kappa

    assert objective(mean.alpha) - objective(ref) <= 1e-12 * abs(objective(ref))


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


def test_residual_norm_matches_dense_gram_sums():
    rng = np.random.default_rng(26)
    data = DataSet(rng.normal(size=(60, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=0.7, normalization="density", space="l2")
    mean = fit(data, spec, k_max=12, epsilon=0.0, density_mode=True)
    gram = gram_matrix(spec, data.points)
    idx = mean.support_indices
    expected = math.sqrt(gram.mean() - 2.0 * mean.alpha @ gram[idx].mean(axis=1)
                         + mean.alpha @ gram[np.ix_(idx, idx)] @ mean.alpha)
    assert_allclose(squared_mean_norm(data, spec), gram.mean(), rtol=1e-13)
    assert_allclose(residual_norm(data, spec, mean), expected, rtol=1e-10)
    # A mean known only by its support points gives the same residual.
    anonymous = dataclasses.replace(mean, support_indices=None)
    assert_allclose(residual_norm(data, spec, anonymous), expected, rtol=1e-10)


@pytest.mark.parametrize("name", ["squared_mean_norm", "residual_norm", "mean_gram_inner"])
def test_gram_sums_of_full_means_stay_in_flat_memory(name):
    # A dense 5000 x 5000 Gram matrix is 200 MB; row blocks of 2^18 entries
    # keep each sum near 2 MB.
    data = DataSet(np.random.default_rng(27).normal(size=(5000, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    full = full_mean(data, spec)
    run = {
        "squared_mean_norm": lambda: squared_mean_norm(data, spec),
        "residual_norm": lambda: residual_norm(data, spec, full),
        "mean_gram_inner": lambda: mean_gram_inner(full, full),
    }[name]
    tracemalloc.start()
    try:
        value = run()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(value)
    assert peak < 8_000_000


def test_squared_mean_norm_guard():
    data = DataSet(np.zeros((10, 1)) + np.arange(10).reshape(-1, 1))
    with pytest.raises(ValueError, match="O\\(n\\^2\\)"):
        squared_mean_norm(data, UNIT_GAUSS_1D, max_points=5)
