import numpy as np
import pytest
from numpy.testing import assert_array_equal

from skm.dataio import DataSet
from skm.kcenter import (
    FarthestFirst,
    Selection,
    kcenter_brute,
    kcenter_greedy,
)


def line_data(*values):
    return DataSet(np.asarray(values, dtype=float).reshape(-1, 1))


def random_instance(rng):
    n = int(rng.integers(2, 13))
    d = int(rng.integers(1, 4))
    return DataSet(rng.uniform(-5, 5, size=(n, d)))


# --------------------------------------------------------------- greedy basics

def test_greedy_three_point_line():
    data = line_data(0.0, 1.0, 10.0)
    sel = kcenter_greedy(data, 2, first=0)
    assert_array_equal(sel.order, [0, 2])
    assert sel.coverage_radius == 1.0
    _best, w_opt = kcenter_brute(data, 2)
    assert w_opt == 1.0
    assert sel.coverage_radius <= 2.0 * w_opt


def test_greedy_k_equals_n():
    data = line_data(0.0, 3.0, 7.0)
    sel = kcenter_greedy(data, 3, first=1)
    assert sel.coverage_radius == 0.0
    assert_array_equal(np.sort(sel.order), [0, 1, 2])
    assert_array_equal(sel.dist_to_set, np.zeros(3))


def test_greedy_k_one_radius_is_max_distance():
    rng = np.random.default_rng(0)
    data = DataSet(rng.normal(size=(20, 3)))
    for u in (0, 7, 19):
        sel = kcenter_greedy(data, 1, first=u)
        expected = np.linalg.norm(data.points - data.points[u], axis=1).max()
        assert sel.coverage_radius == expected


def test_greedy_validates_k():
    data = line_data(0.0, 1.0)
    with pytest.raises(ValueError):
        kcenter_greedy(data, 0)
    with pytest.raises(ValueError):
        kcenter_greedy(data, 3)


def test_greedy_seeded_first_is_reproducible():
    data = DataSet(np.random.default_rng(1).normal(size=(30, 2)))
    a = kcenter_greedy(data, 5, seed=42)
    b = kcenter_greedy(data, 5, seed=42)
    assert_array_equal(a.order, b.order)


def test_greedy_duplicate_points_warn_when_k_exceeds_distinct():
    data = line_data(0.0, 0.0, 5.0)
    with pytest.warns(UserWarning, match="distinct"):
        sel = kcenter_greedy(data, 3, first=0)
    assert len(set(sel.order.tolist())) == 3  # indices stay distinct
    assert sel.radius_trace[-1] == 0.0


# ------------------------------------------------------ in-place farthest-first

def test_extend_single_point_line():
    data = line_data(0.0, 1.0, 10.0)
    scan = FarthestFirst(data.points)
    scan.add(0)
    assert scan.next() == 2
    assert scan.add(2) == 1.0
    assert_array_equal(np.sqrt(scan.sqdist), [0.0, 1.0, 0.0])


def test_extend_to_full_cover():
    data = line_data(0.0, 2.0)
    scan = FarthestFirst(data.points)
    scan.add(0)
    assert scan.add(scan.next()) == 0.0
    assert scan.next() == -1


def test_extend_tie_breaks_to_lower_index():
    data = line_data(0.0, -1.0, 1.0)  # both neighbors at distance 1 from 0
    scan = FarthestFirst(data.points)
    scan.add(0)
    assert scan.next() == 1


def test_extend_chain_equals_greedy():
    rng = np.random.default_rng(2)
    for _ in range(20):
        data = random_instance(rng)
        k = int(rng.integers(1, data.n + 1))
        first = int(rng.integers(data.n))
        direct = kcenter_greedy(data, k, first=first)
        scan = FarthestFirst(data.points)
        order, radii = [first], [scan.add(first)]
        while len(order) < k:
            order.append(scan.next())
            radii.append(scan.add(order[-1]))
        assert_array_equal(order, direct.order)
        assert_array_equal(np.sqrt(scan.sqdist), direct.dist_to_set)
        assert_array_equal(radii, direct.radius_trace)


def test_incremental_update_equals_recomputation_exactly():
    rng = np.random.default_rng(3)
    for _ in range(20):
        data = random_instance(rng)
        k = int(rng.integers(1, data.n + 1))
        sel = kcenter_greedy(data, k, first=0)
        # recompute from scratch with the same primitive per center
        scratch = np.full(data.n, np.inf)
        from skm import _backend

        for idx in sel.order:
            _backend.update_sqdist(data.points, data.points[idx], scratch)
        assert_array_equal(np.sqrt(scratch), sel.dist_to_set)


def test_radius_trace_nonincreasing():
    rng = np.random.default_rng(4)
    for _ in range(30):
        data = random_instance(rng)
        sel = kcenter_greedy(data, data.n, first=int(rng.integers(data.n)))
        assert np.all(np.diff(sel.radius_trace) <= 0)


def test_dist_zero_exactly_on_chosen():
    rng = np.random.default_rng(5)
    data = DataSet(rng.normal(size=(40, 2)))
    sel = kcenter_greedy(data, 10, first=3)
    chosen = np.zeros(40, dtype=bool)
    chosen[sel.order] = True
    assert np.all(sel.dist_to_set[chosen] == 0.0)
    assert np.all(sel.dist_to_set[~chosen] > 0.0)


def test_next_skips_banned_points():
    data = line_data(0.0, 1.0, 10.0, 9.5)
    scan = FarthestFirst(data.points)
    scan.add(0)
    assert scan.next() == 2
    scan.ban(2)
    assert scan.next() == 3
    scan.add(3)
    assert scan.next() == 1  # a ban outlives later distance updates
    scan.ban(1)
    assert scan.next() == -1


# -------------------------------------------------------------------- brute force

def test_brute_three_point_line():
    best, w = kcenter_brute(line_data(0.0, 1.0, 10.0), 2)
    assert w == 1.0
    assert set(best) in ({0, 2}, {1, 2})


def test_brute_k_equals_n_zero():
    _best, w = kcenter_brute(line_data(0.0, 5.0, 9.0), 3)
    assert w == 0.0


def test_brute_k_one_symmetric_pair():
    best, w = kcenter_brute(line_data(0.0, 10.0), 1)
    assert w == 10.0
    assert best in ((0,), (1,))


def test_brute_guard():
    data = DataSet(np.random.default_rng(0).normal(size=(60, 2)))
    with pytest.raises(ValueError, match="too large"):
        kcenter_brute(data, 12)


# ------------------------------------------------------------ 2-approximation

def test_two_approximation_on_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(60):
        data = random_instance(rng)
        k = int(rng.integers(1, min(4, data.n) + 1))
        _best, w_opt = kcenter_brute(data, k)
        for first in range(data.n):
            sel = kcenter_greedy(data, k, first=first)
            assert sel.coverage_radius <= 2.0 * w_opt + 1e-12


def test_selection_is_immutable_value():
    data = line_data(0.0, 1.0, 10.0)
    sel = kcenter_greedy(data, 2, first=0)
    assert sel.m == 2
    assert isinstance(sel, Selection)
    with pytest.raises(AttributeError):
        sel.order = np.array([1])
