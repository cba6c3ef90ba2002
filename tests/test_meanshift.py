import dataclasses
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal
from scipy.spatial.distance import cdist

from skm import _backend, meanshift
from skm.dataio import DataSet
from skm.kernels import RadialKernelSpec
from skm.meanshift import (
    Clustering,
    cluster_modes,
    discrepancy_index,
    hausdorff_clustering_distance,
    mean_shift_all,
)
from skm.sparse_mean import fit, full_mean

BOTH = ["skm._backend._numpy_impl", "skm._backend._fastcore"]
SIGMA = 0.8
DENS = RadialKernelSpec("gaussian", dim=1, sigma=SIGMA, normalization="density")
DENS2 = RadialKernelSpec("gaussian", dim=2, sigma=SIGMA, normalization="density")


def two_blobs(n=200, separation=8.0, scale=0.5, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    pts = np.vstack([
        scale * rng.standard_normal((half, 2)),
        [separation, 0.0] + scale * rng.standard_normal((n - half, 2)),
    ])
    return DataSet(pts, name="blobs")


def scalar_shift_oracle(x, centers, weights, sigma, gamma, max_iter=500):
    """Direct 1-d fixed-point iteration of the weighted-mean update."""
    centers = np.asarray(centers, dtype=float)
    weights = np.asarray(weights, dtype=float)
    for _ in range(max_iter):
        w = weights * np.exp(-((x - centers) ** 2) / (2 * sigma**2))
        new_x = float(w @ centers / w.sum())
        if abs(new_x - x) < gamma:
            return new_x
        x = new_x
    return x


# ------------------------------------------------------------ one-point shift

def shift_one(x0, mean, gamma, max_iter=500):
    """The converged position of one point: mean_shift_all on a one-row DataSet."""
    data = DataSet(np.asarray(x0, dtype=np.float64).reshape(1, -1))
    return mean_shift_all(data, mean, gamma, max_iter=max_iter).shifted[0]


def test_shift_single_support_is_fixed_point():
    mean = fit(DataSet(np.array([[2.0]])), DENS, k_max=1, epsilon=0.0,
               density_mode=True)
    out = shift_one([5.0], mean, gamma=1e-6)
    assert_allclose(out, [2.0])


def test_shift_midpoint_of_symmetric_pair_is_fixed():
    mean = full_mean(DataSet(np.array([[-1.0], [1.0]])), DENS)
    out = shift_one([0.0], mean, gamma=1e-9)
    assert_allclose(out, [0.0])


def test_shift_converges_to_nearer_bump():
    data = DataSet(np.array([[0.0], [10.0]]))
    mean = full_mean(data, DENS)
    gamma = 1e-6
    got = shift_one([4.2], mean, gamma=gamma)
    oracle = scalar_shift_oracle(4.2, [0.0, 10.0], [0.5, 0.5], SIGMA, gamma)
    assert_allclose(got, [oracle], atol=1e-12)
    assert abs(got[0] - 0.0) < 1e-3  # nearer bump wins


def test_shift_underflow_far_from_support_warns_and_stays():
    mean = full_mean(DataSet(np.array([[0.0]])), DENS)
    with pytest.warns(UserWarning, match="underflow"):
        out = shift_one([1e6], mean, gamma=1e-6)
    assert_allclose(out, [1e6])


def test_shift_rejects_signed_weights():
    data = DataSet(np.array([[0.0], [1.0], [4.0]]))
    spec = RadialKernelSpec("gaussian", dim=1, sigma=0.3, normalization="density")
    mean = fit(data, spec, k_max=3, epsilon=0.0)  # no simplex projection
    if np.all(mean.alpha >= 0):
        object.__setattr__(mean, "alpha", mean.alpha - 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        shift_one([0.5], mean, gamma=1e-3)


def test_shift_rejects_non_gaussian():
    spec = RadialKernelSpec("laplacian", dim=1, gamma=1.0, normalization="density")
    mean = full_mean(DataSet(np.array([[0.0]])), spec)
    with pytest.raises(ValueError, match="gaussian"):
        shift_one([0.0], mean, gamma=1e-3)


def test_shift_validates_gamma_and_dimension():
    mean = full_mean(DataSet(np.array([[0.0]])), DENS)
    with pytest.raises(ValueError):
        shift_one([0.0], mean, gamma=0.0)
    # Every first step is below an infinite gamma, so one round would
    # report every point converged where it started its climb.
    with pytest.raises(ValueError, match="gamma must be positive and finite, got inf"):
        shift_one([0.0], mean, gamma=np.inf)
    with pytest.raises(ValueError, match="dimension"):
        shift_one([0.0, 1.0], mean, gamma=1e-3)


@pytest.mark.parametrize("max_iter", [0, -1])
def test_shift_rejects_max_iter_below_one(max_iter):
    # With no iteration allowed every point would come back unshifted.
    data = DataSet(np.array([[0.0], [1.0]]))
    mean = full_mean(data, DENS)
    refusal = r"max_iter must be an integer with 1 <= max_iter <= 2\*\*63 - 1"
    with pytest.raises(ValueError, match=refusal):
        shift_one([0.5], mean, gamma=1e-3, max_iter=max_iter)
    with pytest.raises(ValueError, match=refusal):
        mean_shift_all(data, mean, gamma=1e-3, max_iter=max_iter)


@pytest.mark.parametrize("max_iter", [1.5, True])
def test_shift_rejects_a_max_iter_that_is_not_an_integer(max_iter):
    # 1.5 is not rounded, and True is not read as one round.
    data = DataSet(np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError, match=r"max_iter must be an integer with "
                                         r"1 <= max_iter <= 2\*\*63 - 1 "
                                         rf"\(max_iter={max_iter!r}\)$"):
        mean_shift_all(data, full_mean(data, DENS), gamma=1e-3, max_iter=max_iter)


@pytest.mark.parametrize("max_iter", [2 ** 63, 10 ** 20])
def test_shift_rejects_a_max_iter_above_int64_by_name(max_iter):
    # The iteration counts are int64; a larger count is refused before any
    # round, not left to overflow in numpy.
    data = DataSet(np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError, match=r"max_iter must be an integer with "
                                         r"1 <= max_iter <= 2\*\*63 - 1 "
                                         rf"\(max_iter={max_iter}\)$"):
        mean_shift_all(data, full_mean(data, DENS), gamma=1e-3, max_iter=max_iter)


# --------------------------------------------------------------- mean_shift_all

def test_mean_shift_all_single_point_unchanged():
    data = DataSet(np.array([[3.0, 4.0]]))
    result = mean_shift_all(data, full_mean(data, DENS2), gamma=1e-8)
    assert_allclose(result.shifted, data.points)
    assert result.iterations[0] == 1


def test_mean_shift_all_two_blobs_collapse():
    data = two_blobs()
    gamma = 1e-3 * SIGMA
    result = mean_shift_all(data, full_mean(data, DENS2), gamma=gamma)
    assert np.all(result.converged)
    left = result.shifted[data.points[:, 0] < 4.0]
    right = result.shifted[data.points[:, 0] >= 4.0]
    for group in (left, right):
        spread = np.linalg.norm(group - group.mean(axis=0), axis=1).max()
        assert spread < 3.0 * gamma
    assert abs(left[:, 0].mean() - right[:, 0].mean()) > 5.0


def test_mean_shift_sparse_agrees_with_full_on_blobs():
    data = two_blobs()
    gamma = 1e-3 * SIGMA
    full = mean_shift_all(data, full_mean(data, DENS2), gamma=gamma)
    sparse_mean = fit(data, DENS2, k_max=42, epsilon=1e-8, density_mode=True)
    sparse = mean_shift_all(data, sparse_mean, gamma=gamma)
    assert discrepancy_index(full, sparse, 3.0 * SIGMA) == 0.0


def test_mean_shift_final_step_below_gamma():
    data = two_blobs(n=60)
    gamma = 1e-4
    mean = full_mean(data, DENS2)
    result = mean_shift_all(data, mean, gamma=gamma)
    # one more update from every converged point moves by less than gamma;
    # at max_iter=1 that update is the same whatever gamma is
    for row, ok in zip(result.shifted, result.converged):
        assert ok
        again = shift_one(row, mean, gamma=gamma, max_iter=1)
        assert np.linalg.norm(again - row) < gamma


def test_mean_shift_iterates_stay_in_support_box():
    data = two_blobs(n=80, seed=3)
    mean = fit(data, DENS2, k_max=20, epsilon=1e-8, density_mode=True)
    result = mean_shift_all(data, mean, gamma=1e-5)
    lo = mean.support.min(axis=0) - 1e-12
    hi = mean.support.max(axis=0) + 1e-12
    assert np.all(result.shifted >= lo) and np.all(result.shifted <= hi)


def test_mean_shift_kernel_eval_counter():
    data = two_blobs(n=100)
    mean = fit(data, DENS2, k_max=20, epsilon=1e-8, density_mode=True)
    result = mean_shift_all(data, mean, gamma=1e-3 * SIGMA)
    assert result.kernel_evals == int(result.iterations.sum()) * mean.k0


def test_mean_shift_all_leaves_an_underflowing_point_alone():
    data = two_blobs(n=60)
    mean = full_mean(data, DENS2)
    with_far = DataSet(np.vstack([data.points[:30], [[1e6, 0.0]], data.points[30:]]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = mean_shift_all(with_far, mean, gamma=1e-4)
    assert sum("underflow" in str(w.message) for w in caught) == 1
    assert_array_equal(result.shifted[30], [1e6, 0.0])
    assert not result.converged[30] and result.iterations[30] == 1
    alone = mean_shift_all(data, mean, gamma=1e-4)
    keep = np.arange(61) != 30
    assert_array_equal(result.iterations[keep], alone.iterations)
    assert_array_equal(result.converged[keep], alone.converged)
    assert_allclose(result.shifted[keep], alone.shifted, rtol=0, atol=1e-12)


def test_subnormal_weight_total_counts_as_underflow():
    # Both weights are below the smallest normal float: exp(-743) * 0.5 is
    # subnormal, and a quotient of subnormals has lost most of its digits.
    support = DataSet(np.array([[1.928], [2.0]]))
    mean = full_mean(support, RadialKernelSpec("gaussian", dim=1, sigma=0.05))
    with pytest.warns(UserWarning, match="underflow"):
        result = mean_shift_all(DataSet(np.zeros((1, 1))), mean, gamma=1e-6)
    assert_array_equal(result.shifted, [[0.0]])
    assert not result.converged[0] and result.iterations[0] == 1


def per_point_shift_oracle(points, support, alpha, sigma, gamma, max_iter):
    """Each point on its own: weighted average of the support until the step < gamma."""
    shifted, iterations, converged = [], [], []
    for x in points:
        x, its, ok = np.array(x, dtype=float), max_iter, False
        for it in range(1, max_iter + 1):
            w = alpha * np.exp(-((support - x) ** 2).sum(axis=1) / (2.0 * sigma**2))
            if w.sum() < np.finfo(np.float64).tiny:
                its = it
                break
            new_x = w @ support / w.sum()
            step = np.linalg.norm(new_x - x)
            x = new_x
            if step < gamma:
                its, ok = it, True
                break
        shifted.append(x)
        iterations.append(its)
        converged.append(ok)
    return np.array(shifted), np.array(iterations), np.array(converged)


@given(data=st.data())
def test_batched_shift_matches_per_point_loop(data):
    d = data.draw(st.integers(1, 3), label="d")
    k = data.draw(st.integers(1, 6), label="k")
    n = data.draw(st.integers(1, 6), label="n")
    support = data.draw(arrays(np.float64, (k, d), elements=st.floats(-3, 3)), label="support")
    raw = data.draw(arrays(np.float64, k, elements=st.floats(0.01, 1.0)), label="raw weights")
    points = data.draw(arrays(np.float64, (n, d), elements=st.floats(-8, 8)), label="points")
    sigma = data.draw(st.floats(0.05, 2.0), label="sigma")
    gamma = data.draw(st.floats(1e-6, 1e-1), label="gamma")
    max_iter = data.draw(st.integers(1, 30), label="max_iter")
    alpha = raw / raw.sum()
    spec = RadialKernelSpec("gaussian", dim=d, sigma=sigma)
    mean = dataclasses.replace(full_mean(DataSet(support), spec), alpha=alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = mean_shift_all(DataSet(points), mean, gamma=gamma, max_iter=max_iter)
    shifted, iterations, converged = per_point_shift_oracle(
        points, support, alpha, sigma, gamma, max_iter)
    assert_array_equal(result.iterations, iterations)
    assert_array_equal(result.converged, converged)
    assert_allclose(result.shifted, shifted, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- cluster_modes

@pytest.mark.parametrize("na, nb, d", [
    (1, 1, 1), (7, 5, 3), (300, 200, 2),  # two row chunks of 163 and 137 rows
    (2, 40000, 4),                        # one row per chunk
    (70000, 1, 1),                        # three chunks of up to 32768 rows
    (5, 6, 0),
])
def test_distances_are_cdist_bit_for_bit(na, nb, d):
    # The coordinates are summed in the order cdist sums them, at any scale
    # and far from the origin.
    rng = np.random.default_rng(na + nb + d)
    for scale in (1e-3, 1.0, 1e6):
        offset = scale * rng.normal(size=d) * 10.0
        xa, xb = (offset + scale * rng.normal(size=(m, d)) for m in (na, nb))
        assert_array_equal(meanshift._distances(xa, xb), cdist(xa, xb))


def union_find_oracle(points, merge_dist):
    """Single linkage by a union-find over every pair within merge_dist."""
    n = points.shape[0]
    parent = np.arange(n)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(*np.nonzero(cdist(points, points) <= merge_dist)):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    # Each root is its set's lowest index, so sorted roots number the
    # clusters in order of first appearance.
    _, labels = np.unique([find(i) for i in range(n)], return_inverse=True)
    modes = np.vstack([points[labels == c].mean(axis=0) for c in range(labels.max() + 1)])
    return labels, modes


def assert_matches_union_find(points, merge_dist):
    clustering = cluster_modes(points, merge_dist)
    labels, modes = union_find_oracle(points, merge_dist)
    assert_array_equal(clustering.labels, labels)
    # bincount sums each cluster in index order, numpy's mean pairwise.
    scale = max(np.abs(points).max(), np.finfo(np.float64).tiny)
    assert_allclose(clustering.modes, modes, rtol=1e-12, atol=1e-12 * scale)
    return clustering


@pytest.mark.parametrize("impl", BOTH, indirect=True)
@given(data=st.data())
def test_cluster_modes_matches_union_find(impl, data):
    # Up to 120 points make covers of up to 10 leaders, some of them cells
    # too wide to be cliques.
    n = data.draw(st.integers(1, 120), label="n")
    d = data.draw(st.integers(1, 3), label="d")
    # Half-integer coordinates put some pairs exactly at merge_dist = 1 or
    # 10, and with merge_dist in {0.5, 1, 2} cell radii and leader distances
    # land exactly on the cover's bounds r/2 and rho_a + rho_b + r.
    # Repeated picks make duplicate rows.
    rows = data.draw(arrays(np.float64, (n, d), elements=st.integers(-10, 10)), label="rows")
    picks = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                      label="picks")
    merge_dist = data.draw(st.one_of(st.sampled_from([0.5, 1.0, 2.0]),
                                     st.floats(-1, 1).map(lambda e: 10.0 ** e)),
                           label="merge_dist")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_backend, "farthest_scan", impl.farthest_scan)
        assert_matches_union_find(0.5 * rows[picks], merge_dist)


@pytest.mark.parametrize("impl", BOTH, indirect=True)
@given(data=st.data())
def test_cover_cells_hold_the_nearest_leader(impl, data):
    # Half-integer coordinates make the squared distances exact and put
    # many points at the same distance from two leaders: such a point stays
    # in the earlier leader's cell. Each cell radius is the largest distance
    # from its leader to a member.
    n = data.draw(st.integers(1, 150), label="n")
    d = data.draw(st.integers(1, 3), label="d")
    pts = 0.5 * data.draw(arrays(np.float64, (n, d), elements=st.integers(-6, 6)), label="rows")
    merge_dist = data.draw(st.sampled_from([0.5, 1.0, 2.0, 5.0]), label="merge_dist")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_backend, "farthest_scan", impl.farthest_scan)
        leaders, cell, rho = meanshift._cover(pts, merge_dist)
    assert leaders[0] == 0 and len(set(leaders.tolist())) == leaders.shape[0]
    sq = cdist(pts, pts[leaders], "sqeuclidean")
    assert_array_equal(cell, np.argmin(sq, axis=1))
    rho2 = np.zeros(leaders.shape[0])
    for a in range(leaders.shape[0]):
        rho2[a] = sq[cell == a, a].max()
    assert_array_equal(rho, np.sqrt(rho2))
    covered = np.sqrt(sq.min(axis=1).max()) <= 0.5 * merge_dist * (1.0 - meanshift._MARGIN)
    assert covered or leaders.shape[0] == max(1, int(np.sqrt(n)))


def test_cluster_modes_merges_across_row_blocks():
    # The cover spends its 39 leaders on the first point and 38 of 40 far
    # outliers, so the 1500 normal points form one cell that is compared
    # with itself in 174-row blocks of 2^18 entries: clusters span blocks,
    # and the components of the close pairs are merged between blocks.
    angles = 2.0 * np.pi * np.arange(40) / 40
    points = np.vstack([np.random.default_rng(5).standard_normal((1500, 2)),
                        100.0 * np.column_stack([np.cos(angles), np.sin(angles)])])
    clustering = assert_matches_union_find(points, 0.1)
    assert 40 < clustering.n_clusters < 1540


def collapsed_points():
    """3000 points within 1e-4 of three modes 3 apart, shuffled."""
    rng = np.random.default_rng(6)
    centers = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    points = np.repeat(centers, 1000, axis=0) + rng.uniform(-5e-5, 5e-5, (3000, 2))
    return points[rng.permutation(3000)]


def test_cluster_modes_memory_is_flat_on_collapsed_points():
    # Every point is within merge_dist of a third of the input: a search
    # that keeps all close pairs, or one 1024-row distance block (25 MB),
    # would hold O(n^2) memory.
    points = collapsed_points()
    tracemalloc.start()
    try:
        clustering = cluster_modes(points, merge_dist=0.8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert clustering.n_clusters == 3
    assert_allclose(clustering.modes[clustering.labels], points, rtol=0, atol=1e-4)
    assert peak < 12_000_000


@pytest.fixture
def cdist_entries(monkeypatch):
    """A list that collects rows x cols of every distance block clustering forms."""
    entries = []
    distances = meanshift._distances

    def spy(xa, xb):
        entries.append(len(xa) * len(xb))
        return distances(xa, xb)

    monkeypatch.setattr(meanshift, "_distances", spy)
    return entries


def test_cluster_modes_forms_only_the_leader_distances_on_collapsed_points(cdist_entries):
    # Three leaders cover the points at radius 1e-4 < merge_dist / 2, so each
    # cell is a clique, and leaders 3 apart cannot hold a pair within 0.8.
    points = collapsed_points()
    clustering = cluster_modes(points, merge_dist=0.8)
    assert cdist_entries == [3 * 3]
    # The oracle would loop over all 3e6 close pairs; its labels are the
    # modes numbered in order of first appearance.
    _, first, group = np.unique(np.round(points / 3.0), axis=0,
                                return_index=True, return_inverse=True)
    assert_array_equal(clustering.labels, np.argsort(np.argsort(first))[group.ravel()])


def test_cluster_modes_scans_only_neighbouring_cells_of_a_chain(cdist_entries):
    # One cluster strung out over 3000 points: every point is close only to
    # its two neighbours, so most cell pairs are too far apart to scan.
    n = 3000
    points = np.column_stack([0.5 * np.arange(n), np.zeros(n)])
    points = points[np.random.default_rng(7).permutation(n)]
    clustering = assert_matches_union_find(points, 0.6)
    assert clustering.n_clusters == 1
    assert sum(cdist_entries) < n * n / 10


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cluster_modes_rejects_non_finite_positions(bad):
    points = np.array([[0.0, 0.0], [0.5, 0.0], [bad, bad]])
    with pytest.raises(ValueError, match="non-finite"):
        cluster_modes(points, merge_dist=1.0)


def test_cluster_modes_all_identical_one_cluster():
    data = DataSet(np.zeros((7, 2)) + 1.5)
    result = mean_shift_all(data, full_mean(data, DENS2), gamma=1e-6)
    clustering = cluster_modes(result, merge_dist=0.5)
    assert clustering.n_clusters == 1
    assert np.all(clustering.labels == 0)


def test_cluster_modes_two_far_groups():
    data = two_blobs()
    result = mean_shift_all(data, full_mean(data, DENS2), gamma=1e-3 * SIGMA)
    clustering = cluster_modes(result, merge_dist=SIGMA)
    assert clustering.n_clusters == 2
    assert clustering.modes.shape == (2, 2)


def test_cluster_modes_chain_merges_single_linkage():
    class FakeShift:
        shifted = np.array([[0.0, 0.0], [0.9, 0.0], [1.8, 0.0]])

    clustering = cluster_modes(FakeShift(), merge_dist=1.0)
    assert clustering.n_clusters == 1  # a-b and b-c close, a-c not
    # A pair exactly merge_dist apart is close.
    assert_array_equal(cluster_modes(np.array([[0.0], [1.0], [3.0]]), 1.0).labels, [0, 0, 1])


def test_cluster_modes_reads_1d_array_as_points_on_a_line():
    clusters = cluster_modes(np.array([0.0, 5.0, 10.0]), 1.0)
    assert clusters.n_clusters == 3
    assert_array_equal(clusters.labels, [0, 1, 2])
    assert_array_equal(clusters.modes, [[0.0], [5.0], [10.0]])


def test_cluster_modes_validates_merge_dist():
    class FakeShift:
        shifted = np.zeros((2, 1))

    with pytest.raises(ValueError):
        cluster_modes(FakeShift(), merge_dist=0.0)
    with pytest.raises(ValueError, match="no points"):
        cluster_modes(np.zeros((0, 2)), merge_dist=1.0)


# ----------------------------------------------------------- discrepancy_index

def test_discrepancy_identical_is_zero():
    pts = np.random.default_rng(0).normal(size=(13, 2))
    assert discrepancy_index(pts, pts.copy(), 0.5) == 0.0


def test_discrepancy_all_displaced_is_one():
    pts = np.zeros((8, 2))
    moved = pts + [10.0, 0.0]
    assert discrepancy_index(pts, moved, 1.0) == 1.0


def test_discrepancy_half_displaced():
    pts = np.zeros((10, 1))
    moved = pts.copy()
    moved[:5] += 5.0
    assert discrepancy_index(pts, moved, 1.0) == 0.5


def test_discrepancy_reads_1d_arrays_as_points_on_a_line():
    assert discrepancy_index(np.array([0.0, 1.0]), np.array([0.0, 5.0]), 1.0) == 0.5


def test_discrepancy_symmetric_and_bounded():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(30, 2)), rng.normal(size=(30, 2))
    d = discrepancy_index(a, b, 0.7)
    assert d == discrepancy_index(b, a, 0.7)
    assert 0.0 <= d <= 1.0


@pytest.mark.parametrize("delta", [np.nan, -1.0])
def test_discrepancy_refuses_a_nan_or_negative_delta(delta):
    pts = np.zeros((4, 2))
    with pytest.raises(ValueError, match="delta must be nonnegative"):
        discrepancy_index(pts, pts, delta)
    assert discrepancy_index(pts, pts, 0.0) == 0.0


def test_discrepancy_refuses_an_infinite_delta():
    # At delta = inf no two positions would differ by more, whatever they are.
    a, b = np.zeros((4, 2)), np.ones((4, 2))
    with pytest.raises(ValueError, match="delta must be nonnegative and finite, got inf"):
        discrepancy_index(a, b, np.inf)
    assert discrepancy_index(a, b, 1.0) == 1.0 and discrepancy_index(a, b, 1e300) == 0.0


def test_discrepancy_length_mismatch():
    with pytest.raises(ValueError):
        discrepancy_index(np.zeros((3, 1)), np.zeros((4, 1)), 1.0)


# ----------------------------------------------- hausdorff clustering distance

def hausdorff_oracle(labels_a, labels_b):
    """Brute force over all cluster pairs from the definition."""
    n = len(labels_a)
    clusters_a = [set(np.nonzero(labels_a == c)[0]) for c in np.unique(labels_a)]
    clusters_b = [set(np.nonzero(labels_b == c)[0]) for c in np.unique(labels_b)]

    def rho(x, others):
        return min(len(x.symmetric_difference(y)) / n for y in others)

    return max(
        max(rho(a, clusters_b) for a in clusters_a),
        max(rho(b, clusters_a) for b in clusters_b),
    )


def make_clustering(labels):
    labels = np.asarray(labels)
    modes = np.zeros((labels.max() + 1, 1))
    return Clustering(labels=labels, modes=modes)


def test_hausdorff_identical_clusterings_zero():
    a = make_clustering([0, 0, 1, 1, 2])
    b = make_clustering([0, 0, 1, 1, 2])
    assert hausdorff_clustering_distance(a, b) == 0.0


def test_hausdorff_one_big_vs_singletons():
    a = make_clustering([0, 0, 0, 0])
    b = make_clustering([0, 1, 2, 3])
    value = hausdorff_clustering_distance(a, b)
    assert_allclose(value, 0.75)
    assert_allclose(value, hausdorff_oracle(a.labels, b.labels))


def test_hausdorff_invariant_under_relabeling():
    rng = np.random.default_rng(2)
    la = rng.integers(0, 3, size=40)
    lb = rng.integers(0, 4, size=40)
    base = hausdorff_clustering_distance(make_clustering(la), make_clustering(lb))
    perm = np.array([2, 0, 1])
    relabeled = hausdorff_clustering_distance(make_clustering(perm[la]),
                                              make_clustering(lb))
    assert base == relabeled


def test_hausdorff_matches_brute_force_on_random_partitions():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(4, 30))
        la = rng.integers(0, rng.integers(1, 5) + 1, size=n)
        lb = rng.integers(0, rng.integers(1, 5) + 1, size=n)
        la = np.unique(la, return_inverse=True)[1]
        lb = np.unique(lb, return_inverse=True)[1]
        got = hausdorff_clustering_distance(make_clustering(la), make_clustering(lb))
        assert_allclose(got, hausdorff_oracle(la, lb), rtol=1e-12)
        assert 0.0 <= got <= 1.0


def test_hausdorff_symmetric():
    a = make_clustering([0, 0, 1, 1, 1, 2])
    b = make_clustering([0, 1, 1, 0, 0, 1])
    assert hausdorff_clustering_distance(a, b) == hausdorff_clustering_distance(b, a)


def test_hausdorff_zero_iff_equal_partitions():
    # equal as partitions despite different label names -> 0
    a = make_clustering([1, 1, 0, 0])
    b = make_clustering([0, 0, 1, 1])
    assert hausdorff_clustering_distance(a, b) == 0.0
    # different partitions -> strictly positive
    for la, lb in itertools.permutations(
        ([0, 0, 1, 1], [0, 1, 0, 1], [0, 0, 0, 1]), 2
    ):
        d = hausdorff_clustering_distance(make_clustering(np.array(la)),
                                          make_clustering(np.array(lb)))
        assert d > 0.0


def test_hausdorff_mismatched_sizes():
    with pytest.raises(ValueError):
        hausdorff_clustering_distance(make_clustering([0, 1]),
                                      make_clustering([0, 1, 1]))
    with pytest.raises(ValueError, match="data"):
        hausdorff_clustering_distance(make_clustering([0, 1]),
                                      make_clustering([0, 1]),
                                      data=np.zeros((5, 1)))
