import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal
from oracles import gram_matrix, inverse_gram, progress_ratio

from skm import _backend, sparse_mean
from skm._backend._numpy_impl import RECORD_ROWS
from skm.dataio import DataSet
from skm.kernels import RadialKernelSpec, g_zero, gram_params
from skm.sparse_mean import SINGULARITY_REL_TOL

UNIT_GAUSS_1D = RadialKernelSpec("gaussian", dim=1, sigma=1.0)


def line_data(*values):
    return DataSet(np.asarray(values, dtype=float).reshape(-1, 1))


def fit_along(data, spec, order):
    """The fixed-order fit along order and the kappa of its kept points.

    kappa is the record row of the fit's one `order_fit` call, copied as
    the call returns.
    """
    calls = []

    def spy(points, *args):
        m, packed = order_fit(points, *args)
        calls.append(args[-1][1, :m].copy())
        return m, packed

    order_fit = _backend.order_fit
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_backend, "order_fit", spy)
        mean = sparse_mean._fixed_order_fit(data, spec, np.asarray(order, dtype=np.int64), False)
    assert len(calls) == 1
    return mean, calls[0]


def grow(data, spec, order):
    """fit_along for an order every point of which the fit keeps.

    A fixed-order fit along an order is the greedy fit's steps along it
    (test_extend_along_an_order_is_factor_along_it).
    """
    mean, kappa = fit_along(data, spec, order)
    assert mean.diagnostics.skipped == ()
    return mean, kappa


def packed_factor(data, spec, order):
    """The packed lower factor of the Gram matrix of points[order], as the fit forms it."""
    params, m = gram_params(spec), len(order)
    indices, record = np.empty(m, dtype=np.int64), np.empty((len(RECORD_ROWS), m))
    kept, packed = _backend.order_fit(data.points, *params, SINGULARITY_REL_TOL * params.c,
                                      np.asarray(order, dtype=np.int64), indices, record)
    assert kept == m
    return np.frombuffer(packed)


# --------------------------------------------------------- fixed-order kappa

def test_kappa_single_point_is_c():
    data = line_data(0.7)
    assert grow(data, UNIT_GAUSS_1D, [0])[1][0] == g_zero(UNIT_GAUSS_1D)


def test_kappa_identical_points_is_c():
    data = line_data(2.0, 2.0, 2.0)
    for j in range(3):  # one point at a time: the three are dependent
        assert_allclose(grow(data, UNIT_GAUSS_1D, [j])[1], [g_zero(UNIT_GAUSS_1D)], rtol=1e-15)


def test_kappa_two_point_hand_sum():
    data = line_data(0.0, 1.0)
    expected = (1.0 + math.exp(-0.5)) / 2.0  # = 0.80327 to five digits
    assert_allclose(grow(data, UNIT_GAUSS_1D, [0, 1])[1], [expected, expected], rtol=1e-14)


def test_kappa_matches_gram_row_mean():
    rng = np.random.default_rng(0)
    data = DataSet(rng.normal(size=(25, 3)))
    spec = RadialKernelSpec("laplacian", dim=3, gamma=0.8, normalization="density")
    gram = gram_matrix(spec, data.points)
    order = [0, 7, 24]
    assert_allclose(grow(data, spec, order)[1], gram[order].mean(axis=1), rtol=1e-12)


# --------------------------------------------------------- one-point fits

def test_one_point_fit_unit_gaussian_inverse():
    data = line_data(0.0, 1.0)
    assert_allclose(inverse_gram(packed_factor(data, UNIT_GAUSS_1D, [0])), [[1.0]])


def test_one_point_fit_two_point_example():
    data = line_data(0.0, 1.0)
    mean, _ = grow(data, UNIT_GAUSS_1D, [0])
    kap = (1.0 + math.exp(-0.5)) / 2.0
    assert_allclose(mean.alpha, [kap], rtol=1e-14)
    assert_allclose(mean.diagnostics.e_trace, [-kap * kap], rtol=1e-14)


def test_one_point_fit_single_point_exact():
    data = line_data(3.0)
    spec = RadialKernelSpec("gaussian", dim=1, sigma=2.0, normalization="density")
    mean, _ = grow(data, spec, [0])
    assert_allclose(mean.alpha, [1.0], rtol=1e-14)
    assert_allclose(mean.diagnostics.e_trace, [-g_zero(spec)], rtol=1e-14)


# ------------------------------------------------------- fits along an order

def test_fit_along_full_support_two_points():
    data = line_data(0.0, 1.0)
    mean, _ = grow(data, UNIT_GAUSS_1D, [0, 1])
    assert_allclose(mean.alpha, [0.5, 0.5], rtol=1e-12)
    # full support represents the mean exactly: E = -||zbar||^2
    k01 = math.exp(-0.5)
    zbar_sq = (1.0 + 1.0 + 2.0 * k01) / 4.0
    assert_allclose(mean.diagnostics.e_trace[-1], -zbar_sq, rtol=1e-12)


def test_fit_along_drops_a_duplicate_support_point():
    # A duplicate of a support point has pivot 0: the step drops it.
    data = line_data(0.0, 0.0, 5.0)
    mean = sparse_mean._fixed_order_fit(data, UNIT_GAUSS_1D, np.asarray([0, 1], dtype=np.int64),
                                        False)
    assert mean.diagnostics.skipped == (1,)
    assert_array_equal(mean.support_indices, [0])


def test_dropped_point_changes_neither_fit_nor_kappa():
    # Point 2 duplicates point 0: a fit along [0, 1, 2] drops it and is
    # the fit along [0, 1]. The dependent greedy step's scan is checked in
    # test_greedy_fit_stops_at_each_test.
    data = line_data(0.0, 3.0, 0.0, 5.0)
    before, before_kappa = grow(data, UNIT_GAUSS_1D, [0, 1])
    mean, kappa = fit_along(data, UNIT_GAUSS_1D, [0, 1, 2])
    assert mean.diagnostics.skipped == (2,)
    for now, then in ((mean.support_indices, before.support_indices), (kappa, before_kappa),
                      (mean.diagnostics.e_trace, before.diagnostics.e_trace),
                      (mean.alpha, before.alpha)):
        assert_array_equal(now, then)


def test_fit_along_drops_an_index_already_in_support():
    # A repeated index has pivot g(0) - g(0) = 0, so the pivot check drops
    # it and the fit is the fit without it. skipped lists the points of the
    # order that are not in the support, and 0 and 1 are.
    data = line_data(0.0, 5.0)
    e_trace = grow(data, UNIT_GAUSS_1D, [0, 1])[0].diagnostics.e_trace
    mean, _ = fit_along(data, UNIT_GAUSS_1D, [0, 1, 0, 1])
    assert mean.diagnostics.skipped == ()
    assert_array_equal(mean.support_indices, [0, 1])
    assert_allclose(mean.diagnostics.e_trace, e_trace, rtol=0)


def test_factor_inverse_matches_direct_inverse():
    rng = np.random.default_rng(1)
    data = DataSet(rng.uniform(-3, 3, size=(6, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.5)
    order = [2, 0, 5, 3, 1]
    direct = np.linalg.inv(gram_matrix(spec, data.points[order]))
    inv = inverse_gram(packed_factor(data, spec, order))
    assert np.linalg.norm(inv - direct) / np.linalg.norm(direct) < 1e-8


def test_factor_inverse_is_exactly_symmetric():
    rng = np.random.default_rng(2)
    data = DataSet(rng.uniform(-4, 4, size=(12, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    inv = inverse_gram(packed_factor(data, spec, list(range(8))))
    assert np.array_equal(inv, inv.T)


def test_alpha_equals_inv_k_times_kappa():
    rng = np.random.default_rng(3)
    data = DataSet(rng.uniform(-4, 4, size=(10, 1)))
    order = [0, 4, 8, 2]
    mean, kappa = grow(data, UNIT_GAUSS_1D, order)
    inv = inverse_gram(packed_factor(data, UNIT_GAUSS_1D, order))
    assert_allclose(mean.alpha, inv @ kappa, rtol=1e-10)


def test_e_trace_nonincreasing_along_extensions():
    rng = np.random.default_rng(4)
    for _ in range(10):
        data = DataSet(rng.uniform(-5, 5, size=(15, 2)))
        spec = RadialKernelSpec("gaussian", dim=2, sigma=1.2)
        order = rng.permutation(15)[:8]
        mean, _ = grow(data, spec, list(order))
        assert np.all(np.diff(mean.diagnostics.e_trace) <= 0)


def test_error_identity_via_full_gram_sums():
    # ||zbar - z_I||^2 == ||zbar||^2 - alpha' kappa, both sides by Gram sums
    rng = np.random.default_rng(5)
    for trial in range(8):
        n = int(rng.integers(5, 51))
        data = DataSet(rng.uniform(-4, 4, size=(n, 2)))
        spec = RadialKernelSpec("gaussian", dim=2, sigma=1.5)
        m = int(rng.integers(1, min(n, 8)))
        order = list(rng.permutation(n)[:m])
        mean, kappa = grow(data, spec, order)
        alpha = mean.alpha

        gram = gram_matrix(spec, data.points)
        zbar_sq = gram.mean()
        kappa_full = gram[order].mean(axis=1)
        k_ii = gram[np.ix_(order, order)]
        lhs = zbar_sq - 2.0 * alpha @ kappa_full + alpha @ k_ii @ alpha
        rhs = zbar_sq - alpha @ kappa
        assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-12)
        assert_allclose(mean.diagnostics.e_trace[-1], -alpha @ kappa, rtol=1e-12)


def test_full_support_recovers_uniform_weights():
    rng = np.random.default_rng(6)
    n = 12
    data = DataSet(rng.uniform(-5, 5, size=(n, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=2.0)
    mean, kappa = grow(data, spec, list(range(n)))
    assert_allclose(mean.alpha, np.full(n, 1.0 / n), atol=1e-9)
    gram = gram_matrix(spec, data.points)
    residual_sq = gram.mean() - mean.alpha @ kappa
    assert abs(residual_sq) < 1e-10


def test_fixed_order_weights_agree_with_direct_solve():
    rng = np.random.default_rng(7)
    data = DataSet(rng.uniform(-5, 5, size=(30, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    order = list(rng.permutation(30)[:10])
    mean, kappa = grow(data, spec, order)
    gram = gram_matrix(spec, data.points[order])
    direct = scipy.linalg.solve(gram, kappa, assume_a="pos")
    assert np.linalg.norm(mean.alpha - direct) <= 1e-7 * np.linalg.norm(direct)


# -------------------------------------------------------------- progress_ratio

def test_progress_ratio_examples():
    assert progress_ratio(-1.0, -1.0, -2.0) == 1.0     # the first step gains it all
    assert progress_ratio(-1.0, -2.0, -2.0) == 0.0     # flat tail
    assert progress_ratio(-1.0, -1.0, -1.0) == 0.0     # flat trace, defined as 0
    assert progress_ratio(-1.0, -3.0, -5.0) == 0.5
