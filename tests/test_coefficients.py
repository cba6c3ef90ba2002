import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from skm.coefficients import (
    CholeskyWeights,
    kappa_entry,
    project_simplex,
    solve_direct,
    stop_rule,
)
from skm.dataio import DataSet
from skm.errors import ConvergenceError, NearSingularError
from skm.kernels import RadialKernelSpec, g_zero, gram_matrix

UNIT_GAUSS_1D = RadialKernelSpec("gaussian", dim=1, sigma=1.0)


def line_data(*values):
    return DataSet(np.asarray(values, dtype=float).reshape(-1, 1))


def grow_state(data, spec, order):
    state = CholeskyWeights(data, spec)
    for idx in order:
        state.extend(idx)
    return state


# ----------------------------------------------------------------- kappa_entry

def test_kappa_single_point_is_c():
    data = line_data(0.7)
    assert kappa_entry(data, UNIT_GAUSS_1D, 0) == g_zero(UNIT_GAUSS_1D)


def test_kappa_identical_points_is_c():
    data = line_data(2.0, 2.0, 2.0)
    for j in range(3):
        assert_allclose(kappa_entry(data, UNIT_GAUSS_1D, j),
                        g_zero(UNIT_GAUSS_1D), rtol=1e-15)


def test_kappa_two_point_hand_sum():
    data = line_data(0.0, 1.0)
    expected = (1.0 + math.exp(-0.5)) / 2.0  # = 0.80327 to five digits
    assert_allclose(kappa_entry(data, UNIT_GAUSS_1D, 0), expected, rtol=1e-14)


def test_kappa_matches_gram_row_mean():
    rng = np.random.default_rng(0)
    data = DataSet(rng.normal(size=(25, 3)))
    spec = RadialKernelSpec("laplacian", dim=3, gamma=0.8, normalization="density")
    gram = gram_matrix(spec, data.points)
    for j in (0, 7, 24):
        assert_allclose(kappa_entry(data, spec, j), gram[j].mean(), rtol=1e-12)


# ------------------------------------------------------- single-point support

def test_init_state_unit_gaussian_inverse():
    data = line_data(0.0, 1.0)
    state = grow_state(data, UNIT_GAUSS_1D, [0])
    assert_allclose(state.inv_k, [[1.0]])


def test_init_state_two_point_example():
    data = line_data(0.0, 1.0)
    state = grow_state(data, UNIT_GAUSS_1D, [0])
    kap = (1.0 + math.exp(-0.5)) / 2.0
    assert_allclose(state.alpha, [kap], rtol=1e-14)
    assert_allclose(state.e_trace, [-kap * kap], rtol=1e-14)


def test_init_state_single_point_exact():
    data = line_data(3.0)
    spec = RadialKernelSpec("gaussian", dim=1, sigma=2.0, normalization="density")
    state = grow_state(data, spec, [0])
    assert_allclose(state.alpha, [1.0], rtol=1e-14)
    assert_allclose(state.e_trace, [-g_zero(spec)], rtol=1e-14)


# ---------------------------------------------------------------------- extend

def test_extend_full_support_two_points():
    data = line_data(0.0, 1.0)
    state = grow_state(data, UNIT_GAUSS_1D, [0, 1])
    assert_allclose(state.alpha, [0.5, 0.5], rtol=1e-12)
    # full support represents the mean exactly: E = -||zbar||^2
    k01 = math.exp(-0.5)
    zbar_sq = (1.0 + 1.0 + 2.0 * k01) / 4.0
    assert_allclose(state.e_trace[-1], -zbar_sq, rtol=1e-12)


def test_extend_duplicate_support_raises():
    data = line_data(0.0, 0.0, 5.0)
    state = grow_state(data, UNIT_GAUSS_1D, [0])
    with pytest.raises(NearSingularError):
        state.extend(1)


def test_extend_rejects_index_already_in_support():
    data = line_data(0.0, 5.0)
    state = grow_state(data, UNIT_GAUSS_1D, [0])
    with pytest.raises(ValueError, match="already"):
        state.extend(0)


def test_extend_matches_direct_inverse_oracle():
    rng = np.random.default_rng(1)
    data = DataSet(rng.uniform(-3, 3, size=(6, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.5)
    order = [2, 0, 5, 3, 1]
    state = grow_state(data, spec, order)
    direct = np.linalg.inv(gram_matrix(spec, data.points[order]))
    assert np.linalg.norm(state.inv_k - direct) / np.linalg.norm(direct) < 1e-8


def test_inverse_stays_exactly_symmetric():
    rng = np.random.default_rng(2)
    data = DataSet(rng.uniform(-4, 4, size=(12, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    state = grow_state(data, spec, list(range(8)))
    assert np.array_equal(state.inv_k, state.inv_k.T)


def test_alpha_equals_inv_k_times_kappa():
    rng = np.random.default_rng(3)
    data = DataSet(rng.uniform(-4, 4, size=(10, 1)))
    state = grow_state(data, UNIT_GAUSS_1D, [0, 4, 8, 2])
    assert_allclose(state.alpha, state.inv_k @ state.kappa, rtol=1e-10)


def test_e_trace_nonincreasing_along_extensions():
    rng = np.random.default_rng(4)
    for _ in range(10):
        data = DataSet(rng.uniform(-5, 5, size=(15, 2)))
        spec = RadialKernelSpec("gaussian", dim=2, sigma=1.2)
        order = rng.permutation(15)[:8]
        state = grow_state(data, spec, list(order))
        diffs = np.diff(state.e_trace)
        assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(state.e_trace[:-1])))


def test_error_identity_via_full_gram_sums():
    # ||zbar - z_I||^2 == ||zbar||^2 - alpha' kappa, both sides by Gram sums
    rng = np.random.default_rng(5)
    for trial in range(8):
        n = int(rng.integers(5, 51))
        data = DataSet(rng.uniform(-4, 4, size=(n, 2)))
        spec = RadialKernelSpec("gaussian", dim=2, sigma=1.5)
        m = int(rng.integers(1, min(n, 8)))
        order = list(rng.permutation(n)[:m])
        state = grow_state(data, spec, order)

        gram = gram_matrix(spec, data.points)
        zbar_sq = gram.mean()
        kappa_full = gram[order].mean(axis=1)
        k_ii = gram[np.ix_(order, order)]
        lhs = (zbar_sq - 2.0 * state.alpha @ kappa_full
               + state.alpha @ k_ii @ state.alpha)
        rhs = zbar_sq - state.alpha @ state.kappa
        assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-12)
        assert_allclose(state.e_trace[-1], -state.alpha @ state.kappa, rtol=1e-12)


def test_full_support_recovers_uniform_weights():
    rng = np.random.default_rng(6)
    n = 12
    data = DataSet(rng.uniform(-5, 5, size=(n, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=2.0)
    state = grow_state(data, spec, list(range(n)))
    assert_allclose(state.alpha, np.full(n, 1.0 / n), atol=1e-9)
    gram = gram_matrix(spec, data.points)
    residual_sq = gram.mean() - state.alpha @ state.kappa
    assert abs(residual_sq) < 1e-10


def test_extension_agrees_with_direct_solve():
    rng = np.random.default_rng(7)
    data = DataSet(rng.uniform(-5, 5, size=(30, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    order = list(rng.permutation(30)[:10])
    state = grow_state(data, spec, order)
    gram = gram_matrix(spec, data.points[order])
    direct = solve_direct(gram, state.kappa, tol=1e-13)
    assert np.linalg.norm(state.alpha - direct) <= 1e-7 * np.linalg.norm(direct)


# ------------------------------------------------------------------- stop_rule

def test_stop_rule_examples():
    assert stop_rule([-1.0, -2.0], 0.1) is False          # ratio exactly 1
    assert stop_rule([-1.0, -2.0, -2.0], 1e-6) is True    # flat tail, ratio 0
    assert stop_rule([-1.0, -1.0], 1e-9) is True          # degenerate, defined as 0


def test_stop_rule_needs_two_entries():
    with pytest.raises(ValueError):
        stop_rule([-1.0], 0.1)


def test_stop_rule_rejects_negative_epsilon():
    with pytest.raises(ValueError):
        stop_rule([-1.0, -2.0], -0.5)


# ---------------------------------------------------------------- solve_direct

def test_solve_identity():
    v = np.array([3.0, -1.0, 2.0])
    assert_allclose(solve_direct(np.eye(3), v), v, rtol=1e-12)


def test_solve_two_point_symmetric_case():
    k01 = math.exp(-0.5)
    gram = np.array([[1.0, k01], [k01, 1.0]])
    kappa = np.full(2, (1.0 + k01) / 2.0)
    assert_allclose(solve_direct(gram, kappa), [0.5, 0.5], rtol=1e-10)


def test_solve_random_spd_matches_dense_oracle():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = rng.normal(size=(8, 8))
        gram = a @ a.T + 8 * np.eye(8)
        kappa = rng.normal(size=8)
        expected = np.linalg.solve(gram, kappa)
        got = solve_direct(gram, kappa, tol=1e-12)
        assert np.linalg.norm(got - expected) < 1e-8 * np.linalg.norm(expected)


def test_solve_zero_rhs():
    assert_allclose(solve_direct(np.eye(4), np.zeros(4)), np.zeros(4))


def test_solve_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        solve_direct(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2))


def test_solve_nonconvergence_carries_residual():
    # large ill-conditioned system, no iterations allowed, too big for the
    # dense fallback
    n = 80
    gram = np.fromfunction(lambda i, j: 1.0 / (i + j + 1.0), (n, n))
    kappa = np.ones(n)
    with pytest.raises(ConvergenceError) as err:
        solve_direct(gram, kappa, tol=1e-14, max_iter=1)
    assert err.value.residual is not None and err.value.residual > 0


# -------------------------------------------------------------- project_simplex

def test_project_simplex_fixed_points():
    assert_allclose(project_simplex([0.5, 0.5]), [0.5, 0.5])
    assert_allclose(project_simplex([1.0, 1.0]), [0.5, 0.5])


def test_project_simplex_clips_negative():
    result = project_simplex([2.0, -1.0])
    assert_allclose(result, [1.0, 0.0])
    # grid-search oracle over the 1-simplex
    grid = np.linspace(0.0, 1.0, 10001)
    cand = np.column_stack([grid, 1.0 - grid])
    dists = np.linalg.norm(cand - np.array([2.0, -1.0]), axis=1)
    best = cand[np.argmin(dists)]
    assert np.linalg.norm(result - best) < 1e-3


def test_project_simplex_output_is_feasible():
    rng = np.random.default_rng(9)
    for _ in range(50):
        v = rng.normal(scale=3.0, size=int(rng.integers(1, 12)))
        p = project_simplex(v)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p >= 0.0)


def test_project_simplex_beats_random_simplex_points():
    rng = np.random.default_rng(10)
    for _ in range(5):
        v = rng.normal(scale=2.0, size=5)
        p = project_simplex(v)
        samples = rng.dirichlet(np.ones(5), size=10_000)
        best_random = np.linalg.norm(samples - v, axis=1).min()
        assert np.linalg.norm(p - v) <= best_random + 1e-12


def test_project_simplex_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = project_simplex(rng.normal(size=6))
        assert_allclose(project_simplex(p), p, atol=1e-12)


def test_project_simplex_rejects_non_finite():
    with pytest.raises(ValueError):
        project_simplex([np.inf, 0.0])
