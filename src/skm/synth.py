"""Synthetic 2-D datasets for demos, benchmarks and the acceptance suite."""

import math

import numpy as np

from .dataio import DataSet
from .kcenter import _integer_in

BLOB_SCALE = 0.6
BANANA_SPREAD = 2.0
BANANA_CURVATURE = 0.4
MOONS_NOISE = 0.12
RING_RADIUS = 3.0
RING_NOISE = 0.2


def gaussian_blobs(n: int, seed: int = 0, centers=((-3.0, 0.0), (3.0, 0.0)),
                   name: str = "blobs") -> DataSet:
    """Equal-size isotropic Gaussian blobs of scale BLOB_SCALE at the given centers."""
    rng = np.random.default_rng(seed)
    centers = np.asarray(centers, dtype=np.float64)
    k = centers.shape[0]
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    parts = [center + BLOB_SCALE * rng.standard_normal((size, centers.shape[1]))
             for center, size in zip(centers, sizes)]
    return DataSet(np.vstack(parts), name=name)


def banana(n: int, seed: int = 0) -> DataSet:
    """Curved Gaussian: a normal cloud bent along a parabola."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 2))
    x = BANANA_SPREAD * z[:, 0]
    y = z[:, 1] + BANANA_CURVATURE * (x**2 - BANANA_SPREAD**2)
    return DataSet(np.column_stack([x, y]), name="banana")


def two_moons(n: int, seed: int = 0) -> DataSet:
    """Two interleaved half circles."""
    rng = np.random.default_rng(seed)
    n_upper = n // 2
    n_lower = n - n_upper
    t_upper = rng.uniform(0.0, np.pi, n_upper)
    t_lower = rng.uniform(0.0, np.pi, n_lower)
    upper = np.column_stack([np.cos(t_upper), np.sin(t_upper)])
    lower = np.column_stack([1.0 - np.cos(t_lower), 0.5 - np.sin(t_lower)])
    pts = np.vstack([upper, lower]) + MOONS_NOISE * rng.standard_normal((n, 2))
    return DataSet(pts, name="moons")


def ring(n: int, seed: int = 0) -> DataSet:
    """Noisy circle."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    r = RING_RADIUS + RING_NOISE * rng.standard_normal(n)
    return DataSet(np.column_stack([r * np.cos(theta), r * np.sin(theta)]),
                   name="ring")


def _blobs2(n, seed):
    return gaussian_blobs(n, seed, centers=((-3.0, 0.0), (3.0, 0.0)), name="blobs2")


def _blobs3(n, seed):
    return gaussian_blobs(
        n, seed, centers=((-3.0, -2.0), (3.0, -2.0), (0.0, 3.0)), name="blobs3"
    )


DATASETS = {
    "banana": banana,
    "blobs2": _blobs2,
    "blobs3": _blobs3,
    "moons": two_moons,
    "ring": ring,
}


def make_dataset(kind: str, n: int, seed: int = 0) -> DataSet:
    if kind not in DATASETS:
        raise ValueError(
            f"unknown dataset {kind!r} (choose from {sorted(DATASETS)})"
        )
    return DATASETS[kind](_integer_in("n", n, 1, math.inf, "n >= 1"), seed)
