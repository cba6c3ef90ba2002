"""Tests of `project_simplex`, which maps a weight (coefficient) vector onto
the probability simplex (`skm fit --density`, the class proportions of `cpe`)."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from skm.sparse_mean import project_simplex


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
