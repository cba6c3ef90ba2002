import json
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from skm._backend import BACKEND, SHAPE_NONE, SHAPE_SQEXP, _numpy_impl

BOTH = ["skm._backend._numpy_impl", "skm._backend._fastcore"]


@pytest.fixture
def impl(request):
    """The numpy backend, or the compiled one built from the source tree."""
    if request.param == "skm._backend._numpy_impl":
        return _numpy_impl
    return request.getfixturevalue("fastcore")


def random_case(rng, n=200, d=4):
    points = np.ascontiguousarray(rng.normal(size=(n, d)))
    y = np.ascontiguousarray(rng.normal(size=d))
    return points, y


def scan_buffers(n, sqdist=None, score=None):
    sqdist = np.full(n, np.inf) if sqdist is None else np.array(sqdist, dtype=float)
    score = sqdist.copy() if score is None else np.array(score, dtype=float)
    return sqdist, score, np.empty(n), np.empty(n)


def test_backend_name_is_reported():
    assert BACKEND in ("numpy", "compiled")


def test_farthest_scan_backends_agree(fastcore):
    rng = np.random.default_rng(0)
    for kind, a, b in [(0, 0.37, 0.0), (1, 1.2, 0.0), (2, 0.8, 2.5), (SHAPE_NONE, 0.0, 0.0)]:
        points, _ = random_case(rng)
        state = {impl: scan_buffers(points.shape[0]) for impl in (_numpy_impl, fastcore)}
        j = 0
        for _ in range(12):  # a chain of scans exercises the running minimum
            got = {}
            for impl, (sq, score, sq_out, score_out) in state.items():
                got[impl] = impl.farthest_scan(points, j, sq, score, sq_out, score_out,
                                               kind, a, b, 0.9)
                state[impl] = (sq_out, score_out, sq, score)
            (k_np, top_np, next_np), (k_c, top_c, next_c) = got[_numpy_impl], got[fastcore]
            assert_allclose(k_c, k_np, rtol=1e-12)
            assert_allclose(top_c, top_np, rtol=1e-14)
            assert next_c == next_np
            for front_np, front_c in zip(state[_numpy_impl][:2], state[fastcore][:2]):
                assert_allclose(front_c, front_np, rtol=1e-14)
            if kind == SHAPE_NONE:
                assert k_np == k_c == 0.0
            j = next_np


@pytest.mark.parametrize("impl", BOTH, indirect=True)
def test_farthest_scan_semantics(impl):
    points = np.array([[0.0], [-1.0], [1.0], [3.0], [5.0]])
    sq, score, sq_out, score_out = scan_buffers(5)
    score[4] = -1.0  # banned: stays out of the running
    kappa, top, nxt = impl.farthest_scan(points, 0, sq, score, sq_out, score_out,
                                         SHAPE_SQEXP, 0.5, 0.0, 2.0)
    r2 = np.array([0.0, 1.0, 1.0, 9.0, 25.0])
    assert_allclose(kappa, 2.0 * np.exp(-0.5 * r2).mean(), rtol=1e-14)
    assert_array_equal(sq_out, r2)
    assert_array_equal(score_out, [-1.0, 1.0, 1.0, 9.0, -1.0])
    assert (top, nxt) == (25.0, 3)
    # 1 and 2 tie at distance 1 from {0, 3}: the lowest index wins.
    kappa, top, nxt = impl.farthest_scan(points, 3, sq_out, score_out, sq, score,
                                         SHAPE_NONE, 0.0, 0.0, 0.0)
    assert kappa == 0.0
    assert_array_equal(score, [-1.0, 1.0, 1.0, -1.0, -1.0])
    assert (top, nxt) == (4.0, 1)
    # Once every point is chosen or banned there is no next candidate.
    sq, score, sq_out, score_out = scan_buffers(5, score=[-1.0, -1.0, 0.5, -1.0, -1.0])
    assert impl.farthest_scan(points, 2, sq, score, sq_out, score_out,
                              SHAPE_NONE, 0.0, 0.0, 0.0)[2] == -1


@pytest.mark.parametrize("kind,a,b", [(0, 0.37, 0.0), (1, 1.2, 0.0), (2, 0.8, 2.5)])
def test_mean_gram_backends_agree(fastcore, kind, a, b):
    rng = np.random.default_rng(1)
    points, y = random_case(rng)
    got_np = _numpy_impl.mean_gram(points, y, kind, a, b, 0.9)
    got_c = fastcore.mean_gram(points, y, kind, a, b, 0.9)
    assert_allclose(got_np, got_c, rtol=1e-12)


@pytest.mark.parametrize("impl", BOTH, indirect=True)
def test_mean_gram_rejects_unknown_kind(impl):
    points = np.zeros((3, 2))
    with pytest.raises(ValueError):
        impl.mean_gram(points, np.zeros(2), 7, 1.0, 1.0, 1.0)
    for kind in (7, -2):
        with pytest.raises(ValueError):
            impl.farthest_scan(points, 0, *scan_buffers(3), kind, 1.0, 1.0, 1.0)


def test_compiled_rejects_bad_buffers(fastcore):
    points = np.zeros((4, 3))
    good = scan_buffers(4)

    def scan(pts=points, j=0, bufs=good):
        return fastcore.farthest_scan(pts, j, *bufs, SHAPE_SQEXP, 1.0, 0.0, 1.0)

    scan()
    with pytest.raises(TypeError):
        scan(pts=points.astype(np.float32))
    with pytest.raises(TypeError):
        scan(pts=[[0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        scan(pts=np.zeros((4, 6))[:, ::2])  # not contiguous
    with pytest.raises(ValueError):
        scan(pts=np.zeros(12))  # 1-D
    with pytest.raises(ValueError):
        scan(bufs=(good[0][:3],) + good[1:])  # length mismatch
    readonly = good[2].copy()
    readonly.setflags(write=False)
    with pytest.raises(ValueError):
        scan(bufs=good[:2] + (readonly, good[3]))
    for j in (-1, 4):
        with pytest.raises(ValueError):
            scan(j=j)
    with pytest.raises(ValueError):
        fastcore.mean_gram(points, np.zeros(2), SHAPE_SQEXP, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        fastcore.mean_gram(np.zeros((0, 3)), np.zeros(3), SHAPE_SQEXP, 1.0, 0.0, 1.0)
    with pytest.raises(TypeError):
        fastcore.mean_gram(points, np.zeros(3, dtype=np.float32), SHAPE_SQEXP, 1.0, 0.0, 1.0)


@pytest.mark.parametrize("impl", BOTH, indirect=True)
def test_mean_gram_matches_direct_formula(impl):
    rng = np.random.default_rng(3)
    points, y = random_case(rng, n=37)
    r2 = ((points - y) ** 2).sum(axis=1)
    expected = 0.7 * np.exp(-0.4 * r2).mean()
    assert_allclose(impl.mean_gram(points, y, 0, 0.4, 0.0, 0.7), expected,
                    rtol=1e-12)


def _run_fit_subprocess(backend, extension=None):
    """Run one fit in a subprocess under a forced backend, return the outputs.

    extension is a compiled backend to install as skm._backend._fastcore
    before skm is imported.
    """
    script = f"""
import importlib.util
import json
import sys

if {extension!r} is not None:
    spec = importlib.util.spec_from_file_location("skm._backend._fastcore", {extension!r})
    sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[spec.name])

import numpy as np
import skm
from skm.dataio import DataSet
from skm.kernels import RadialKernelSpec

rng = np.random.default_rng(5)
data = DataSet(rng.normal(size=(300, 3)))
spec = RadialKernelSpec("gaussian", dim=3, sigma=1.0)
mean = skm.fit(data, spec, k_max=25, epsilon=0.0, first=0)
out = {{
    "backend": skm.BACKEND,
    "indices": mean.support_indices.tolist(),
    "alpha": mean.alpha.tolist(),
    "e": mean.diagnostics.e_trace.tolist(),
    "radius": mean.diagnostics.radius_trace.tolist(),
}}
print(json.dumps(out))
"""
    env = dict(os.environ, SKM_BACKEND=backend)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_fit_agrees_across_backends(fastcore):
    a = _run_fit_subprocess("numpy")
    b = _run_fit_subprocess("compiled", fastcore.__file__)
    assert a["backend"] == "numpy" and b["backend"] == "compiled"
    assert a["indices"] == b["indices"]
    assert_allclose(a["alpha"], b["alpha"], rtol=1e-9, atol=1e-12)
    assert_allclose(a["e"], b["e"], rtol=1e-12)
    assert_allclose(a["radius"], b["radius"], rtol=1e-15)


def test_forcing_unknown_backend_errors():
    proc = subprocess.run(
        [sys.executable, "-c", "import skm"],
        env=dict(os.environ, SKM_BACKEND="quantum"),
        capture_output=True, text=True,
    )
    assert proc.returncode != 0
    assert "SKM_BACKEND" in proc.stderr
