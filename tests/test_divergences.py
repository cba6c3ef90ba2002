import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from oracles import kernel_matrix

from skm import divergences
from skm.dataio import DataSet
from skm.divergences import (
    distance_matrix,
    fit_sample_means,
    kl_divergence,
    pairwise_matrix,
    rkhs_distance,
    symmetrized_kl,
)
from skm.kernels import RadialKernelSpec
from skm.sparse_mean import evaluate, fit, full_mean, mean_gram_inner

UNIT_GAUSS_1D = RadialKernelSpec("gaussian", dim=1, sigma=1.0)
DENS_GAUSS_1D = RadialKernelSpec("gaussian", dim=1, sigma=1.0,
                                 normalization="density")


def kde_sample(rng, mean, size):
    """Draw from a gaussian-KDE density: pick a support point by weight,
    then add kernel noise."""
    idx = rng.choice(mean.k0, size=size, p=mean.alpha / mean.alpha.sum())
    noise = rng.normal(scale=mean.spec.sigma, size=(size, mean.spec.dim))
    return mean.support[idx] + noise


def mc_kl_oracle(rng, p, q, size):
    """Monte-Carlo estimate of KL(p || q) with its standard error."""
    w = kde_sample(rng, p, size)
    logs = np.log(np.maximum(evaluate(p, w), 1e-300)) - np.log(
        np.maximum(evaluate(q, w), 1e-300))
    return float(logs.mean()), float(logs.std(ddof=1) / math.sqrt(size))


# --------------------------------------------------------------- rkhs_distance

def test_rkhs_distance_identical_means_is_zero():
    data = DataSet(np.random.default_rng(0).normal(size=(15, 2)))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    mean = fit(data, spec, k_max=5, epsilon=0.0)
    assert rkhs_distance(mean, mean) == 0.0


def test_rkhs_distance_two_singletons():
    a = fit(DataSet(np.array([[0.0]])), UNIT_GAUSS_1D, k_max=1, epsilon=0.0)
    b = fit(DataSet(np.array([[1.0]])), UNIT_GAUSS_1D, k_max=1, epsilon=0.0)
    expected = math.sqrt(2.0 - 2.0 * math.exp(-0.5))  # = 0.887096 to 6 digits
    assert_allclose(rkhs_distance(a, b), expected, rtol=1e-12)


def test_rkhs_distance_full_vs_naive_double_sum():
    rng = np.random.default_rng(1)
    xs = rng.normal(size=(14, 2))
    ys = rng.normal(size=(9, 2)) + 1.0
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.2)
    a = full_mean(DataSet(xs), spec)
    b = full_mean(DataSet(ys), spec)

    def naive(u, v):
        return sum(
            kernel_matrix(spec, [ui], [vj]).item()
            for ui in u for vj in v
        ) / (len(u) * len(v))

    expected = math.sqrt(naive(xs, xs) - 2 * naive(xs, ys) + naive(ys, ys))
    assert_allclose(rkhs_distance(a, b), expected, rtol=1e-10)


def test_rkhs_distance_requires_matching_kernel():
    a = fit(DataSet(np.array([[0.0]])), UNIT_GAUSS_1D, k_max=1, epsilon=0.0)
    other = RadialKernelSpec("gaussian", dim=1, sigma=2.0)
    b = fit(DataSet(np.array([[1.0]])), other, k_max=1, epsilon=0.0)
    with pytest.raises(ValueError, match="mismatch"):
        rkhs_distance(a, b)


def test_rkhs_distance_rejects_l2_space():
    spec = RadialKernelSpec("gaussian", dim=1, sigma=1.0, space="l2",
                            normalization="density")
    a = fit(DataSet(np.array([[0.0]])), spec, k_max=1, epsilon=0.0)
    with pytest.raises(ValueError, match="rkhs"):
        rkhs_distance(a, a)


def test_rkhs_distance_triangle_inequality():
    rng = np.random.default_rng(2)
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    for _ in range(15):
        means = [
            full_mean(DataSet(rng.normal(size=(8, 2)) + rng.normal(scale=2)), spec)
            for _ in range(3)
        ]
        dab = rkhs_distance(means[0], means[1])
        dbc = rkhs_distance(means[1], means[2])
        dac = rkhs_distance(means[0], means[2])
        assert dac <= dab + dbc + 1e-9


def test_rkhs_distance_zero_iff_same_multiset():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(10, 2))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    a = full_mean(DataSet(pts), spec)
    b = full_mean(DataSet(pts[::-1].copy()), spec)  # same multiset, new order
    assert rkhs_distance(a, b) <= 1e-8
    c = full_mean(DataSet(pts + 0.05), spec)
    assert rkhs_distance(a, c) > 1e-3


# --------------------------------------------------------------- kl_divergence

def make_kde(pts, sigma=1.0, k_max=None, epsilon=1e-10):
    data = DataSet(np.asarray(pts, dtype=float).reshape(len(pts), -1))
    spec = RadialKernelSpec("gaussian", dim=data.d, sigma=sigma,
                            normalization="density")
    if k_max is None:
        return full_mean(data, spec)
    return fit(data, spec, k_max=k_max, epsilon=epsilon, density_mode=True)


def test_kl_same_density_is_zero():
    p = make_kde(np.linspace(-2, 2, 9))
    w = np.linspace(-3, 3, 11).reshape(-1, 1)
    assert kl_divergence(p, p, w) == 0.0


def test_kl_floor_keeps_far_support_finite():
    p = make_kde([0.0, 0.5])
    q = make_kde([1000.0, 1000.5])
    w = np.array([[0.0], [0.25]])
    value = kl_divergence(p, q, w)
    assert np.isfinite(value) and value > 100.0


def test_kl_interleaved_halves_small_and_shrinking():
    # the true KL between KDEs of two halves of one sample is a small
    # positive number that shrinks as the halves converge; estimate it by
    # sampling from p's density (Monte-Carlo oracle)
    rng = np.random.default_rng(4)
    values = []
    for n in (100, 1600):
        sample = rng.normal(size=n)
        p = make_kde(sample[0::2], sigma=0.5)
        q = make_kde(sample[1::2], sigma=0.5)
        value, stderr = mc_kl_oracle(rng, p, q, 20_000)
        assert value > 3.0 * stderr  # positive beyond Monte-Carlo noise
        values.append(value)
    assert values[1] < values[0]


def test_kl_matches_monte_carlo_oracle():
    rng = np.random.default_rng(5)
    p = make_kde(rng.normal(size=40), sigma=0.8)
    q = make_kde(rng.normal(size=40) + 1.5, sigma=0.8)
    eval_points = kde_sample(rng, p, 4000)
    estimate = kl_divergence(p, q, eval_points)
    oracle, stderr = mc_kl_oracle(rng, p, q, 40_000)
    assert abs(estimate - oracle) <= 3.0 * stderr + 0.05


def test_kl_rejects_non_density_inputs():
    spec = RadialKernelSpec("gaussian", dim=1, sigma=1.0)  # unit normalization
    mean = fit(DataSet(np.array([[0.0], [1.0]])), spec, k_max=2, epsilon=0.0)
    with pytest.raises(ValueError, match="density"):
        kl_divergence(mean, mean, [[0.0]])


def test_kl_rejects_empty_eval_set():
    p = make_kde([0.0, 1.0])
    for empty in (np.empty((0, 1)), np.empty(0)):
        with pytest.raises(ValueError, match="empty"):
            kl_divergence(p, p, empty)


def test_kl_reads_1d_eval_points_as_points_of_a_1d_density():
    p = make_kde(np.linspace(-2, 2, 9))
    q = make_kde(np.linspace(-1, 3, 9))
    w = np.linspace(-3, 3, 11)
    assert kl_divergence(p, q, w) == kl_divergence(p, q, w.reshape(-1, 1))


# -------------------------------------------------------------- symmetrized_kl

def test_symmetrized_kl_same_density_zero():
    p = make_kde(np.linspace(-1, 1, 7))
    w = np.linspace(-2, 2, 9).reshape(-1, 1)
    assert symmetrized_kl(p, p, w, w) == 0.0


def test_symmetrized_kl_symmetric_by_construction():
    rng = np.random.default_rng(6)
    p = make_kde(rng.normal(size=30))
    q = make_kde(rng.normal(size=30) + 2.0)
    wp = rng.normal(size=(20, 1))
    wq = rng.normal(size=(20, 1)) + 2.0
    assert symmetrized_kl(p, q, wp, wq) == symmetrized_kl(q, p, wq, wp)


def test_symmetrized_kl_separated_gaussians_vs_monte_carlo():
    rng = np.random.default_rng(7)
    p = make_kde(rng.normal(size=300), sigma=0.6)
    q = make_kde(rng.normal(size=300) + 3.0, sigma=0.6)
    wp = kde_sample(rng, p, 3000)
    wq = kde_sample(rng, q, 3000)
    estimate = symmetrized_kl(p, q, wp, wq)
    kl_pq, se_pq = mc_kl_oracle(rng, p, q, 30_000)
    kl_qp, se_qp = mc_kl_oracle(rng, q, p, 30_000)
    assert estimate > 0.0
    assert abs(estimate - (kl_pq + kl_qp)) <= 3.0 * (se_pq + se_qp) + 0.2


# -------------------------------------------------------------- distance_matrix

def two_identical_samples():
    pts = np.random.default_rng(8).normal(size=(24, 2))
    return [DataSet(pts, name="a"), DataSet(pts.copy(), name="b")]


@pytest.mark.parametrize("k_max", [0, -3, 1.5, True])
def test_distance_matrix_rejects_a_budget_that_is_not_a_positive_integer(k_max):
    rng = np.random.default_rng(3)
    samples = [DataSet(rng.normal(size=(20, 1))) for _ in range(2)]
    with pytest.raises(ValueError, match="k_max must be an integer"):
        distance_matrix(samples, UNIT_GAUSS_1D, sparse=True, k_max=k_max)
    # A budget above a sample's size is clipped to it.
    dm = distance_matrix(samples, UNIT_GAUSS_1D, sparse=True, k_max=1000)
    assert dm.support_sizes[0] <= 20


def test_distance_matrix_identical_samples_rkhs():
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    dm = distance_matrix(two_identical_samples(), spec, mode="rkhs", sparse=False)
    assert_allclose(dm.matrix, np.zeros((2, 2)), atol=1e-10)
    assert dm.labels == ("a", "b")


def test_distance_matrix_symmetry_and_zero_diagonal():
    rng = np.random.default_rng(9)
    samples = [DataSet(rng.normal(size=(40, 2)) + [3 * i, 0], name=f"s{i}")
               for i in range(4)]
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0, normalization="density")
    for mode in ("rkhs", "sym_kl"):
        dm = distance_matrix(samples, spec, mode=mode, sparse=True, epsilon=1e-8)
        assert_allclose(dm.matrix, dm.matrix.T)
        assert_allclose(np.diag(dm.matrix), np.zeros(4))
        if mode == "rkhs":
            assert np.all(dm.matrix >= 0.0)


def test_distance_matrix_sym_kl_requires_density():
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)  # unit
    with pytest.raises(ValueError, match="density"):
        distance_matrix(two_identical_samples(), spec, mode="sym_kl")


def test_distance_matrix_sparse_error_shrinks_with_epsilon():
    rng = np.random.default_rng(10)
    samples = [
        DataSet(np.vstack([rng.normal(size=(60, 2)),
                           rng.normal(size=(60, 2)) + [4 + i, i]]), name=f"s{i}")
        for i in range(4)
    ]
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.5)
    full = distance_matrix(samples, spec, mode="rkhs", sparse=False)
    errors = []
    for eps in (1e-2, 1e-6, 1e-10):
        sparse = distance_matrix(samples, spec, mode="rkhs", sparse=True,
                                 k_max=120, epsilon=eps)
        errors.append(np.linalg.norm(sparse.matrix - full.matrix)
                      / np.linalg.norm(full.matrix))
    assert errors[2] <= errors[0] * 1.10 + 1e-12
    assert errors[2] < 1e-3


def test_distance_matrix_sparse_to_full_convergence():
    rng = np.random.default_rng(11)
    samples = [DataSet(rng.normal(size=(32, 2)) + [2.5 * i, 0], name=f"s{i}")
               for i in range(3)]
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    full = distance_matrix(samples, spec, mode="rkhs", sparse=False)
    errs = []
    for k in (2, 8, 32):
        sparse = distance_matrix(samples, spec, mode="rkhs", sparse=True,
                                 k_max=k, epsilon=0.0)
        errs.append(np.abs(sparse.matrix - full.matrix).max())
    assert errs[2] <= errs[1] <= errs[0]
    assert errs[-1] < 1e-5  # k = n reproduces the full matrix up to float noise


def test_distance_matrix_operation_count_bound():
    # sparse pairwise cost (k_a + k_b)^2 stays below the full (n_a + n_b)^2
    rng = np.random.default_rng(12)
    samples = [DataSet(rng.normal(size=(100, 2)), name="a"),
               DataSet(rng.normal(size=(120, 2)), name="b")]
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    means, _ = fit_sample_means(samples, spec, "rkhs", sparse=True, epsilon=1e-8)
    k_a, k_b = (m.k0 for m in means)
    assert (k_a + k_b) ** 2 < (100 + 120) ** 2


def test_distance_matrix_needs_two_samples():
    from skm.errors import SkmError

    with pytest.raises(SkmError):
        distance_matrix([two_identical_samples()[0]],
                        RadialKernelSpec("gaussian", dim=2, sigma=1.0))


def test_pairwise_matrix_reports_support_sizes():
    rng = np.random.default_rng(13)
    samples = [DataSet(rng.normal(size=(50, 1)), name="a"),
               DataSet(rng.normal(size=(50, 1)) + 3, name="b")]
    spec = RadialKernelSpec("gaussian", dim=1, sigma=1.0)
    means, eval_sets = fit_sample_means(samples, spec, "rkhs", sparse=True,
                                        epsilon=1e-8)
    dm = pairwise_matrix(means, "rkhs", eval_sets, labels=["a", "b"])
    assert dm.support_sizes == tuple(m.k0 for m in means)


def test_pairwise_matrix_forms_each_norm_once(monkeypatch):
    # 8 means: 8 squared norms and 28 cross products, not 3 sums per pair,
    # and every entry is rkhs_distance's, bit for bit.
    rng = np.random.default_rng(14)
    samples = [DataSet(rng.normal(size=(60, 2)) + [0.3 * i, 0.0], name=f"s{i}")
               for i in range(8)]
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    means, _ = fit_sample_means(samples, spec, "rkhs", sparse=True, epsilon=1e-8)
    calls = []

    def counting(a, b):
        calls.append(1)
        return mean_gram_inner(a, b)

    monkeypatch.setattr(divergences, "mean_gram_inner", counting)
    matrix = pairwise_matrix(means, "rkhs").matrix
    assert len(calls) == 8 + 28
    monkeypatch.undo()
    expected = np.zeros((8, 8))
    for i in range(8):
        for j in range(i + 1, 8):
            expected[i, j] = expected[j, i] = rkhs_distance(means[i], means[j])
    assert_array_equal(matrix, expected)
