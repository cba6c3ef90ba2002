import math
import platform
import shutil
import signal
import subprocess
import sys
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from oracles import kernel_block

from skm import _backend, sparse_mean
from skm._backend import BACKEND, _numpy_impl
from skm._backend._numpy_impl import RECORD_ROWS
from skm.dataio import DataSet
from skm.kcenter import kcenter_greedy
from skm.kernels import (
    SHAPE_EXP,
    SHAPE_POWER,
    SHAPE_SQEXP,
    RadialKernelSpec,
    ShapeParams,
    block_sums,
    eval_params,
    g_zero,
    gram_params,
)
from skm.meanshift import cluster_modes, mean_shift_all
from skm.sparse_mean import (
    SINGULARITY_REL_TOL,
    evaluate,
    fit,
    full_mean,
    incoherence,
)

BOTH = ["skm._backend._numpy_impl", "skm._backend._fastcore"]
PRIMITIVES = _numpy_impl.__all__
ROWS = len(RECORD_ROWS)


def random_case(rng, n=200, d=4):
    return np.ascontiguousarray(rng.normal(size=(n, d)))


def test_backend_name_is_reported():
    assert BACKEND in ("numpy", "compiled")


def test_a_compiled_backend_without_every_primitive_is_refused(tmp_path):
    # Stand-ins for extensions built from an older _fastcore.c: one with
    # three of the primitives only; one with all four but no record row
    # count, as the build before the record gained its alpha row; and one
    # with every name but that build's row count.
    stale = types.ModuleType("_fastcore")
    stale.__file__ = "_fastcore.so"
    for name in ("farthest_scan", "kernel_sums", "greedy_fit"):
        setattr(stale, name, getattr(_numpy_impl, name))
    with pytest.raises(ImportError, match=r"_fastcore.so lacks order_fit, RECORD_ROW_COUNT: .*"
                                          r"`python setup.py build_ext --inplace`"):
        _backend._complete(stale)
    stale.order_fit = _numpy_impl.order_fit
    with pytest.raises(ImportError, match=r"_fastcore.so lacks RECORD_ROW_COUNT: .*"
                                          r"`python setup.py build_ext --inplace`"):
        _backend._complete(stale)
    stale.RECORD_ROW_COUNT = ROWS - 1
    with pytest.raises(ImportError, match=r"_fastcore.so has RECORD_ROW_COUNT 6, not 7: .*"
                                          r"`python setup.py build_ext --inplace`"):
        _backend._complete(stale)
    assert _backend._complete(_numpy_impl) is _numpy_impl
    # The same stand-ins as the package's _fastcore stop `import skm`.
    src = Path(_backend.__file__).parent.parent
    shutil.copytree(src, tmp_path / "skm", ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    for source, message in (
            ("from skm._backend._numpy_impl import farthest_scan, kernel_sums, greedy_fit\n",
             "lacks order_fit, RECORD_ROW_COUNT"),
            ("from skm._backend._numpy_impl import *\nRECORD_ROW_COUNT = 6\n",
             "has RECORD_ROW_COUNT 6, not 7")):
        (tmp_path / "skm" / "_backend" / "_fastcore.py").write_text(source)
        proc = subprocess.run([sys.executable, "-c", "import skm"], cwd=tmp_path,
                              env={"PYTHONPATH": str(tmp_path)}, capture_output=True, text=True)
        assert proc.returncode == 1
        assert "ImportError" in proc.stderr and message in proc.stderr


def test_farthest_scan_backends_agree(fastcore):
    # Both backends sum the coordinates in the order k = 0..d-1, so a chain
    # of scans gives bit-identical distances and picks. The sizes straddle
    # the compiled scan's tiles of 256 points.
    rng = np.random.default_rng(0)
    for n in (1, 255, 256, 257, 3000, 100_000):
        for d in (1, 2, 5, 8, 17):
            coords = np.ascontiguousarray(rng.normal(size=(d, n)))
            sqdist = {impl: np.full(n, np.inf) for impl in (_numpy_impl, fastcore)}
            j = 0
            for _ in range(6):  # a chain of scans exercises the running minimum
                far_np, far_c = (impl.farthest_scan(coords, j, sq)
                                 for impl, sq in sqdist.items())
                assert far_c == far_np
                assert_array_equal(sqdist[fastcore], sqdist[_numpy_impl])
                j = far_np


@pytest.mark.parametrize("impl", BOTH, indirect=True)
def test_farthest_scan_semantics(impl):
    coords = np.array([[0.0, -1.0, 1.0, 3.0, 5.0]])  # five points in d = 1
    sq = np.full(5, np.inf)
    assert impl.farthest_scan(coords, 0, sq) == 4
    assert_array_equal(sq, [0.0, 1.0, 1.0, 9.0, 25.0])
    assert impl.farthest_scan(coords, 4, sq) == 3
    assert_array_equal(sq, [0.0, 1.0, 1.0, 4.0, 0.0])
    # 1 and 2 tie at distance 1 from {0, 3, 4}: the lowest index wins.
    assert impl.farthest_scan(coords, 3, sq) == 1
    assert_array_equal(sq, [0.0, 1.0, 1.0, 0.0, 0.0])
    # Once every distance is 0, the farthest point is index 0.
    sq = np.array([0.0, 0.0, 0.0, 0.0, 0.5])
    assert impl.farthest_scan(coords, 4, sq) == 0
    # An index outside [0, n) is an error on both backends, not a wrap, and
    # raises before sqdist changes.
    for j in (-1, 5):
        with pytest.raises(ValueError, match=f"index {j} out of range for n=5"):
            impl.farthest_scan(coords, j, sq)
    assert_array_equal(sq, [0.0, 0.0, 0.0, 0.0, 0.0])
    # A NaN distance (inf - inf) lowers its entry to NaN, as np.minimum
    # does, and raises once sqdist has been lowered.
    sq = np.full(3, np.inf)
    with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match="the farthest sqdist entry is negative or NaN"):
        impl.farthest_scan(np.array([[np.inf, 0.0, 1.0]]), 0, sq)
    assert_array_equal(sq, [np.nan, np.inf, np.inf])


@pytest.mark.parametrize("impl", BOTH, indirect=True)
@pytest.mark.parametrize("values, farthest", [
    ({10: 5.0, 300: -5.0}, 10),             # a tie across two tiles
    ({10: 4.0, 300: 5.0, 400: -5.0}, 300),  # a tie inside a later tile
    ({10: 5.0, 520: -5.5}, 520),            # a strictly larger later tile
], ids=["across", "inside", "larger"])
def test_farthest_scan_ties_keep_the_lowest_index(impl, values, farthest):
    coords = np.ascontiguousarray(np.random.default_rng(7).uniform(-1.0, 1.0, size=(1, 600)))
    coords[0, 0] = 0.0
    for i, x in values.items():
        coords[0, i] = x
    assert impl.farthest_scan(coords, 0, np.full(600, np.inf)) == farthest


@pytest.mark.parametrize("impl", BOTH, indirect=True)
@pytest.mark.parametrize("spec, kind", [
    (RadialKernelSpec("gaussian", dim=4, sigma=1.6, normalization="density"), SHAPE_SQEXP),
    (RadialKernelSpec("laplacian", dim=4, gamma=0.8, normalization="density"), SHAPE_EXP),
    (RadialKernelSpec("student", dim=4, alpha=2.5, beta=1.25, normalization="density"),
     SHAPE_POWER),
], ids=["sqexp", "exp", "power"])
def test_kappa_matches_block_sum(impl, spec, kind, monkeypatch):
    # A fit step takes kappa_j from the shape sum of its scan from j;
    # block_sums forms it in one kernel sum.
    monkeypatch.setattr(_backend, "kernel_sums", impl.kernel_sums)
    points = random_case(np.random.default_rng(1))
    n = points.shape[0]
    params = gram_params(spec)
    assert params.kind == kind and params.c != 1.0
    _m, _cand, stop, order, _packed, record = _greedy(impl, points, params, 0.0, 17, 3)
    assert stop == "budget"
    expected = block_sums(params, points[order], points, np.full(n, 1.0 / n))
    assert_allclose(record[1], expected, rtol=1e-13)


@pytest.mark.parametrize("impl", BOTH, indirect=True)
def test_farthest_scan_rejects_bad_buffers(impl):
    # Both backends check the buffers the same way, and a call that raises
    # on a buffer leaves sqdist as it was.
    coords = np.zeros((3, 4))  # four points in d = 3
    readonly = np.full(4, -1.0)
    readonly.setflags(write=False)
    cases = [
        (TypeError, "coords must be a float64 array", {"coords": coords.astype(np.float32)}),
        (TypeError, "coords must be a float64 array", {"coords": [[0.0, 0.0, 0.0, 0.0]]}),
        (ValueError, "coords must be a C-contiguous 2-D", {"coords": np.zeros((3, 8))[:, ::2]}),
        (ValueError, "coords must be a C-contiguous 2-D", {"coords": np.zeros(12)}),
        (ValueError, "sqdist has the wrong length", {"sqdist": np.full(3, -1.0)}),
        (TypeError, "sqdist must be a float64 array", {"sqdist": np.full(4, -1.0, np.float32)}),
        (ValueError, "sqdist must be a C-contiguous 1-D", {"sqdist": np.full((4, 6), -1.0)[:, 0]}),
        (ValueError, "sqdist must be writable", {"sqdist": readonly}),
    ]
    for error, message, bad in cases:
        args = {"coords": coords, "sqdist": np.full(4, -1.0)} | bad
        with pytest.raises(error, match=message):
            impl.farthest_scan(args["coords"], 0, args["sqdist"])
        sentinel = args["sqdist"].base if args["sqdist"].base is not None else args["sqdist"]
        assert np.all(sentinel == -1.0), message
    sq = np.full(4, np.inf)
    assert impl.farthest_scan(coords, 0, sq) == 0
    assert_array_equal(sq, np.zeros(4))
    # With no entry a non-negative number there is no farthest point: both
    # backends raise once the scan has lowered sqdist, rather than return
    # an index that reads a negative or NaN distance.
    coords = np.array([[0.0, 1.0, 2.0, 3.0]])
    for value in (-1.0, np.nan):
        sq = np.full(4, value)
        with pytest.raises(ValueError, match="the farthest sqdist entry is negative or NaN"):
            impl.farthest_scan(coords, 2, sq)
        assert_array_equal(sq, np.full(4, value))
    # A NaN raises whatever its sign: with the sign bit set, its int64
    # pattern orders below every distance, the larger ones here included.
    sq = np.array([-np.nan, 5.0, 5.0])
    assert np.signbit(sq[0])
    with pytest.raises(ValueError, match="the farthest sqdist entry is negative or NaN"):
        impl.farthest_scan(np.array([[0.0, 1.0, 2.0]]), 0, sq)
    assert_array_equal(sq, [np.nan, 1.0, 4.0])


@pytest.mark.parametrize("impl", BOTH, indirect=True)
def test_kernel_block_is_the_shape_of_cdist(impl):
    # kernel_block is the tests' reference for the Gram rows each backend's
    # fit step forms itself, so a full factor reproduces it.
    params = ShapeParams(SHAPE_SQEXP, 0.3, 0.0, 2.0)
    ys = np.random.default_rng(3).normal(size=(40, 6))
    kept, _, packed = _factor(impl, ys, params, 1e-9 * params.c)
    assert kept.all()
    assert_allclose(_lower(packed) @ _lower(packed).T, kernel_block(params, ys),
                    rtol=0, atol=1e-14 * params.c)


# A kernel sum may differ from kernel_block(...) @ coef by this much per
# unit of sum_j |coef_j| * c: the compiled exp (the extension's own on
# AVX-512, within 2 ulp; libmvec's on the AVX2 and baseline clones), its
# pow (libmvec's, per ISA clone) and its per-query sums round differently
# from numpy's exp and matrix product. Observed differences are below 1e-15.
SUM_RTOL = 1e-13

SHAPES = [ShapeParams(SHAPE_SQEXP, 0.3, 0.0, 2.0), ShapeParams(SHAPE_EXP, 0.8, 0.0, 1.5),
          ShapeParams(SHAPE_POWER, 0.5, 2.5, 0.7)]


@pytest.mark.parametrize("impl", BOTH, indirect=True)
@pytest.mark.parametrize("params", SHAPES, ids=["sqexp", "exp", "power"])
def test_greedy_fit_kappa_is_a_kernel_sum(impl, params):
    # The scan of a greedy_fit step from point j sums shape(||x_i -
    # x_j||^2) over every point, for kappa_j = c * sum / n: the kernel sum
    # block_sums forms with coef 1/n. Its picks and radii are those of a
    # chain of farthest_scan calls.
    points = random_case(np.random.default_rng(6), n=3000, d=5)
    coords = np.ascontiguousarray(points.T)
    sqdist, order, radii = np.full(3000, np.inf), [2999], []
    for _ in range(3):
        order.append(impl.farthest_scan(coords, order[-1], sqdist))
        radii.append(np.sqrt(sqdist[order[-1]]))
    indices, record = np.empty(3, dtype=np.int64), np.empty((ROWS, 3))
    m, cand, stop, _ = impl.greedy_fit(points, *params, 0.0, 0.0, 2999, indices, record)
    assert (m, cand, stop) == (3, order[3], "budget")
    assert_array_equal(indices, order[:3])
    assert_array_equal(record[4], radii)
    expected = block_sums(params, points[order[:3]], points, np.full(3000, 1.0 / 3000))
    assert_allclose(record[1], expected, rtol=SUM_RTOL)


def _kernel_sums(impl, params, xs, ys, coef):
    out = np.full((xs.shape[0],) + coef.shape[1:], -1.0)
    assert impl.kernel_sums(xs, ys, coef, *params, out) is None
    return out


def _assert_sums_close(got, params, xs, ys, coef, block=None):
    block = kernel_block(params, xs, ys) if block is None else block
    tol = SUM_RTOL * params.c * np.abs(coef).sum(axis=0)
    assert np.all(np.abs(got - block @ coef) <= tol)


@pytest.mark.parametrize("impl", BOTH, indirect=True)
@pytest.mark.parametrize("params", SHAPES, ids=["sqexp", "exp", "power"])
@pytest.mark.parametrize("d", [1, 2, 5, 8])
def test_kernel_sums_match_the_kernel_block(impl, params, d):
    # Row counts on both sides of the compiled loop's 256-row tiles and of
    # its 8 partial sums; query counts whose last tile runs over tiles of ys
    # (1 and 260) and query-major (1000); coef with one column and with three.
    rng = np.random.default_rng(d)
    xs = random_case(rng, n=1000, d=d)
    for m in (1, 255, 256, 257, 600, 3000):
        ys = random_case(rng, n=m, d=d) * 1.5
        for x in (xs[:0], xs[:1], xs[:260], xs):
            block = kernel_block(params, x, ys)
            for coef in (rng.normal(size=(m, 1)), rng.normal(size=(m, 3))):
                got = _kernel_sums(impl, params, x, ys, coef)
                _assert_sums_close(got, params, x, ys, coef, block)


@pytest.mark.parametrize("impl", BOTH, indirect=True)
@given(data=st.data())
def test_kernel_sums_match_the_kernel_block_on_random_shapes(impl, data):
    nx = data.draw(st.integers(0, 30), label="nx")
    m = data.draw(st.integers(1, 700), label="m")
    d = data.draw(st.integers(1, 12), label="d")
    p = data.draw(st.integers(1, 4), label="p")
    kind = data.draw(st.sampled_from([SHAPE_SQEXP, SHAPE_EXP, SHAPE_POWER]), label="kind")
    a = data.draw(st.sampled_from([1e-6, 0.05, 1.0, 30.0]), label="a")
    b = data.draw(st.sampled_from([0.5, 1.0, 3.5]), label="b") if kind == SHAPE_POWER else 0.0
    c = data.draw(st.sampled_from([1.0, 0.37, 12.0]), label="c")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    xs, ys = random_case(rng, n=nx, d=d), random_case(rng, n=m, d=d)
    if data.draw(st.booleans(), label="shared rows") and nx:
        ys[rng.integers(m, size=nx)] = xs  # exact zeros
    coef = rng.normal(size=(m, p))
    params = ShapeParams(kind, a, b, c)
    _assert_sums_close(_kernel_sums(impl, params, xs, ys, coef), params, xs, ys, coef)


@pytest.mark.parametrize("nx, ny, d, p", [(4099, 600, 5, 1), (1100, 2000, 2, 3)],
                         ids=["evaluate", "meanshift"])
def test_compiled_full_tile_kernel_sums_match_numpy(fastcore, nx, ny, d, p):
    # The shapes of fit-deep's evaluate and of a full mean-shift round, above
    # 2**20 values: on two CPUs the compiled sum runs on two threads, each
    # writing its tiles of xs, their accumulators and whole row buffers into
    # its own scratch.
    rng = np.random.default_rng(nx)
    xs, ys = random_case(rng, n=nx, d=d), random_case(rng, n=ny, d=d)
    coef = rng.normal(size=(ny, p))
    params = SHAPES[0]
    want = _kernel_sums(_numpy_impl, params, xs, ys, coef)
    got = _kernel_sums(fastcore, params, xs, ys, coef)
    assert np.all(np.abs(got - want) <= SUM_RTOL * params.c * np.abs(coef).sum(axis=0))


@pytest.mark.parametrize("impl", BOTH, indirect=True)
def test_kernel_sums_reject_bad_buffers_before_writing(impl):
    xs, ys, coef = np.zeros((4, 3)), np.ones((5, 3)), np.ones((5, 2))
    readonly = np.full((4, 2), -1.0)
    readonly.setflags(write=False)
    cases = [
        (ValueError, "unknown shape kind 3", {"kind": 3}),
        (TypeError, "xs must be a float64 array", {"xs": xs.astype(np.float32)}),
        (TypeError, "ys must be a float64 array", {"ys": np.ones((5, 3), np.int64)}),
        (TypeError, "xs must be a float64 array", {"xs": xs.tolist()}),
        (TypeError, "coef must be a float64 array", {"coef": coef.astype(np.float32)}),
        (TypeError, "out must be a float64 array", {"out": np.full((4, 2), -1.0, np.float32)}),
        (ValueError, "xs must be a C-contiguous 2-D", {"xs": np.zeros((4, 6))[:, ::2]}),
        (ValueError, "ys must be a C-contiguous 2-D", {"ys": np.ones(15)}),
        (ValueError, "coef must be a C-contiguous 2-D", {"coef": np.ones((5, 4))[:, ::2]}),
        (ValueError, "coef must be a C-contiguous 2-D", {"coef": np.ones((5, 2, 1))}),
        (ValueError, "coef must be a C-contiguous 2-D", {"coef": np.ones(5)}),
        (ValueError, "out must be a C-contiguous 2-D", {"out": np.full((4, 4), -1.0)[:, ::2]}),
        (ValueError, "ys has 2 columns, xs has 3", {"ys": np.ones((5, 2))}),
        (ValueError, "coef has the wrong length", {"coef": np.ones((6, 2))}),
        (ValueError, "out has the wrong length", {"out": np.full((5, 2), -1.0)}),
        (ValueError, "out must have one column per column of coef", {"out": np.full((4, 3), -1.0)}),
        (ValueError, "out must be a C-contiguous 2-D", {"out": np.full(4, -1.0)}),
        (ValueError, "coef must be a C-contiguous 2-D",
         {"coef": np.ones(5), "out": np.full(4, -1.0)}),
        (ValueError, "out must be writable", {"out": readonly}),
    ]
    for error, message, bad in cases:
        args = {"xs": xs, "ys": ys, "coef": coef, "kind": SHAPE_SQEXP,
                "out": np.full((4, 2), -1.0)} | bad
        sentinel = args["out"].base if args["out"].base is not None else args["out"]
        with pytest.raises(error, match=message):
            impl.kernel_sums(args["xs"], args["ys"], args["coef"], args["kind"], 0.5, 0.0, 1.0,
                             args["out"])
        assert np.all(sentinel == -1.0), message


@pytest.mark.skipif(not (sys.platform == "linux" and platform.machine() == "x86_64"
                         and platform.libc_ver()[0] == "glibc"),
                    reason="libmvec is glibc's, for x86-64")
def test_compiled_kernel_sums_call_the_vector_exp(fastcore):
    # Without -fno-math-errno, -lmvec or the simd declarations gcc calls the
    # scalar exp and pow; the sums would still pass, only slower. On
    # AVX-512 CPUs the exp shapes compute exp in line, so only the AVX2 exp
    # is named here, and pow at both widths.
    symbols = Path(fastcore.__file__).read_bytes()
    for name in (b"_ZGVdN4v_exp", b"_ZGVeN8vv_pow", b"_ZGVdN4vv_pow"):
        assert name in symbols, name


def _libmvec_exp():
    """Whether the compiled exp shapes call libmvec's exp: on x86-64 glibc
    where the CPU lacks AVX-512F, as the extension's own exp needs it."""
    if not (sys.platform == "linux" and platform.machine() == "x86_64"
            and platform.libc_ver()[0] == "glibc"):
        return False
    flags = [line.split() for line in Path("/proc/cpuinfo").read_text().splitlines()
             if line.startswith("flags")]
    return not flags or "avx512f" not in flags[0]


# Arguments of the exp shapes over [-746, 0]: the normal range, the
# subnormal band (-745.13, -708.4), the arguments past it that round to 0,
# and the edges of each.
EXP_ARGS = np.concatenate([
    -np.random.default_rng(45).uniform(0.0, 746.0, 20000),
    -np.random.default_rng(46).uniform(708.3, 745.2, 5000),
    [-1e-300, -1e-17, -0.5, -708.3964185322641, -708.4, -745.1332191019411,
     -745.1332191019412, -745.14, -746.0],
])


@pytest.mark.parametrize("impl", BOTH, indirect=True)
@pytest.mark.parametrize("kind", [SHAPE_SQEXP, SHAPE_EXP], ids=["sqexp", "exp"])
def test_kernel_sums_exp_is_within_its_ulp_bound(impl, kind):
    # One y at the origin, coef 1 and c 1: each out entry is the shape of
    # one query alone, exp(-a r) or exp(-a sqrt(r)) of its squared norm r,
    # in 256-query tiles. Coincident points give exp(-0), an infinite
    # coordinate exp(-inf) and a NaN one NaN. The extension's own exp and
    # numpy's are within 2 ulp; glibc bounds libmvec's at 4 (its AVX2 exp is
    # 3 ulp off at -90.837...).
    bound = 4.0 if impl is not _numpy_impl and _libmvec_exp() else 2.0
    a = 0.75
    norm = -EXP_ARGS / a if kind == SHAPE_EXP else np.sqrt(-EXP_ARGS / a)
    xs = np.concatenate([norm, [0.0, np.inf, np.nan]])[:, None]
    out = np.full((len(xs), 1), -1.0)
    impl.kernel_sums(xs, np.zeros((1, 1)), np.ones((1, 1)), kind, a, 0.0, 1.0, out)
    r = xs[:, 0] * xs[:, 0]
    args = (np.sqrt(r) if kind == SHAPE_EXP else r) * -a
    want = np.array([math.exp(arg) for arg in args])
    got = out[:, 0]
    zero, nan = want == 0.0, np.isnan(want)
    assert zero.sum() > 20 and np.sum((want > 0.0) & (want < 2.0**-1022)) > 4000
    assert nan.sum() == 1
    assert np.all(got[zero] == 0.0)
    assert_array_equal(np.isnan(got), nan)
    rest = ~(zero | nan)
    ulps = np.abs(got[rest] - want[rest]) / np.spacing(want[rest])
    assert ulps.max() <= bound, args[rest][ulps.argmax()]


@pytest.mark.parametrize("impl", BOTH, indirect=True)
def test_evaluate_takes_any_query_layout(impl, monkeypatch):
    monkeypatch.setattr(_backend, "kernel_sums", impl.kernel_sums)
    rng = np.random.default_rng(8)
    mean = fit(DataSet(rng.normal(size=(400, 3))), RadialKernelSpec("gaussian", dim=3, sigma=0.7),
               k_max=40, epsilon=0.0, first=0)
    grid = rng.integers(-3, 4, size=(300, 6))
    queries = grid[:, ::2].astype(np.float64)
    expected = evaluate(mean, np.ascontiguousarray(queries))
    for layout in (np.asfortranarray(queries), queries, grid[:, ::2], grid[::-1, ::2][::-1]):
        assert_array_equal(evaluate(mean, layout), expected)
    _assert_sums_close(expected, eval_params(mean.spec), queries, mean.support, mean.alpha)


@pytest.mark.parametrize("impl", BOTH, indirect=True)
def test_mean_shift_sums_over_the_support_and_its_weights(impl, monkeypatch):
    # One round is one kernel sum against alpha * [support | 1], p = d + 1.
    monkeypatch.setattr(_backend, "kernel_sums", impl.kernel_sums)
    rng = np.random.default_rng(9)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    data = DataSet(np.vstack([c + 0.5 * rng.standard_normal((200, 2)) for c in centers]))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=0.8, normalization="density")
    mean = full_mean(data, spec)
    weights = kernel_block(eval_params(spec), data.points, mean.support) * mean.alpha
    expected = weights @ mean.support / weights.sum(axis=1, keepdims=True)
    one = mean_shift_all(data, mean, gamma=1e-3, max_iter=1)
    assert_allclose(one.shifted, expected, rtol=1e-12, atol=1e-12)
    result = mean_shift_all(data, mean, gamma=1e-6)
    assert result.converged.all()
    clusters = cluster_modes(result, 0.8)
    assert clusters.n_clusters == 3
    assert_allclose(np.sort(clusters.modes[:, 0]), [0.0, 0.0, 4.0], atol=0.2)


def _factor(impl, points, params, threshold, order=None):
    """order_fit along order, by default every row of points in turn.

    Returns the kept mask over the order, the whole record, whose first m
    columns are the kept points' and whose column m holds the last dropped
    candidate's pivot, and the packed factor.
    """
    order = np.arange(points.shape[0]) if order is None else order
    indices, record = np.full(order.size, -1), np.full((ROWS, order.size), np.nan)
    m, packed = impl.order_fit(points, *params, threshold, order, indices, record)
    packed = np.frombuffer(packed)
    assert packed.shape == (m * (m + 1) // 2,)
    assert (indices[m:] == -1).all() and np.isnan(record[:, m + 1:]).all()
    kept = np.isin(order, indices[:m])
    assert_array_equal(order[kept], indices[:m])
    return kept, record, packed


def _lower(packed):
    """The lower triangular matrix whose rows `packed` holds."""
    k = int(np.sqrt(2 * packed.size + 0.25) - 0.5)
    lower = np.zeros((k, k))
    lower[np.tril_indices(k)] = packed
    return lower


# The backends' pivots may differ by this much per unit of g(0) times the
# condition sqrt(g(0) / p) of L: they form the Gram rows with different
# exp and pow (libmvec against numpy) and solve in different orders.
PIVOT_ATOL = 1e-14


def _dup_points(data, n_max=30):
    """Half-integer points with repeated rows: duplicates have a zero
    pivot, and wide bandwidths make near-dependent candidates."""
    n = data.draw(st.integers(1, n_max), label="n")
    d = data.draw(st.integers(1, 3), label="d")
    rows = data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=d, max_size=d),
                              min_size=1, max_size=n), label="rows")
    picks = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=n, max_size=n),
                      label="picks")
    return 0.5 * np.array([rows[i] for i in picks], dtype=np.float64)


@given(data=st.data())
def test_order_fit_backends_agree(fastcore, data):
    # order_fit along the rows of points on both backends.
    points = _dup_points(data)
    sigma = data.draw(st.sampled_from([0.5, 30.0, 1000.0]), label="sigma")
    spec = RadialKernelSpec("gaussian", dim=points.shape[1], sigma=sigma)
    params, c = eval_params(spec), g_zero(spec)
    kept_np, record_np, packed_np = _factor(_numpy_impl, points, params, SINGULARITY_REL_TOL * c)
    kept_c, record_c, packed_c = _factor(fastcore, points, params, SINGULARITY_REL_TOL * c)
    assert_array_equal(kept_c, kept_np)
    m = np.count_nonzero(kept_np)
    pivots_np, pivots_c = record_np[0, :m], record_c[0, :m]
    assert kept_np[0] and np.all(pivots_np <= c)
    # Each backend's factor reproduces the Gram block of the kept points.
    block = kernel_block(params, points[kept_np])
    for packed in (packed_np, packed_c):
        assert_allclose(_lower(packed) @ _lower(packed).T, block, rtol=0, atol=1e-14 * c)
    # The difference grows with the condition sqrt(g(0) / p) of L, at most
    # 3.2e4 at the 1e-9 g(0) pivot floor.
    cond = np.sqrt(c / pivots_np.min())
    assert_allclose(pivots_c, pivots_np, rtol=0, atol=PIVOT_ATOL * cond * c)
    assert_allclose(packed_c, packed_np, rtol=0, atol=1e-12 * cond * np.sqrt(c))
    # The coverage radii of the kept prefixes agree bit for bit.
    assert_array_equal(record_c[4, :m], record_np[4, :m])


@pytest.mark.parametrize("impl", BOTH, indirect=True)
def test_order_fit_semantics(impl):
    # Two points at distance 1 and a duplicate of the first, unit Gaussian:
    # the duplicate has pivot 0 and leaves no row behind.
    g = np.exp(-0.5)
    points, params = np.array([[0.0], [1.0], [0.0]]), ShapeParams(SHAPE_SQEXP, 0.5, 0.0, 1.0)
    kept, record, packed = _factor(impl, points, params, 1e-9)
    assert_array_equal(kept, [True, True, False])
    assert_allclose(record[0], [1.0, 1.0 - g * g, 0.0], rtol=0, atol=1e-15)
    assert_allclose(packed, [1.0, g, np.sqrt(1.0 - g * g)], rtol=1e-15)
    # kappa is the kept points' kernel row mean over all three points, and
    # the radius that of the kept prefix.
    assert_allclose(record[1, :2], [(2.0 + g) / 3.0, (1.0 + 2.0 * g) / 3.0], rtol=1e-15)
    assert_array_equal(record[4, :2], [1.0, 0.0])
    # A candidate is kept only when its pivot exceeds the threshold.
    kept, _, _ = _factor(impl, points, params, 1.0 - g * g, order=np.array([0, 1]))
    assert_array_equal(kept, [True, False])
    m, packed = impl.order_fit(np.empty((0, 1)), *params, 1e-9, np.empty(0, np.int64),
                               np.empty(0, np.int64), np.empty((ROWS, 0)))
    assert m == 0 and len(np.frombuffer(packed)) == 0


@pytest.mark.parametrize("impl", BOTH, indirect=True)
@pytest.mark.parametrize("params", SHAPES, ids=["sqexp", "exp", "power"])
@pytest.mark.parametrize("m, d", [(40, 1), (300, 3), (600, 5)])
def test_order_fit_resumes_bit_identically(impl, params, m, d):
    # A step's record column and factor row are final once written, and
    # the steps after it resume from them, across the doublings of the
    # packed factor: walking the order [0, m) in one call begins with the
    # walk of every head [0, s), its kept mask, record and packed rows bit
    # for bit, but the seconds. Repeated rows are dropped.
    rng = np.random.default_rng(m)
    points = random_case(rng, n=m, d=d)
    points[rng.integers(m, size=m // 10)] = points[rng.integers(m, size=m // 10)]
    threshold = SINGULARITY_REL_TOL * params.c
    kept, record, packed = _factor(impl, points, params, threshold)
    assert 1 < np.count_nonzero(kept) < m
    for s in (0, 1, 7, m // 2, m - 1, m):
        head, head_record, head_packed = _factor(impl, points, params, threshold,
                                                 order=np.arange(s))
        k = np.count_nonzero(head)
        assert_array_equal(head, kept[:s])
        assert_array_equal(head_record[:5, :k], record[:5, :k])
        assert_array_equal(head_packed, packed[:head_packed.size])


@pytest.mark.parametrize("impl", BOTH, indirect=True)
def test_order_fit_rejects_bad_buffers(impl):
    # order_fit checks its buffers and every entry of its order before it
    # writes a single element.
    points = np.eye(4)
    readonly = np.full((ROWS, 3), -1.0)
    readonly.setflags(write=False)
    cases = [
        (ValueError, "unknown shape kind 3", {"kind": 3}),
        (ValueError, "unknown shape kind -1", {"kind": -1}),
        (TypeError, "points must be a float64 array", {"points": points.astype(np.float32)}),
        (TypeError, "points must be a float64 array", {"points": points.tolist()}),
        (ValueError, "points must be a C-contiguous 2-D", {"points": np.eye(8)[::2, ::2]}),
        (ValueError, "points must be a C-contiguous 2-D", {"points": np.ones(4)}),
        (TypeError, "order must be a int64 array", {"order": np.array([0.0, 1.0, 2.0])}),
        (TypeError, "order must be a int64 array", {"order": np.array([0, 1, 2], np.int32)}),
        (TypeError, "order must be a int64 array", {"order": [0, 1, 2]}),
        (ValueError, "order must be a C-contiguous 1-D", {"order": np.arange(6)[::2]}),
        (ValueError, "order must be a C-contiguous 1-D", {"order": np.zeros((3, 1), np.int64)}),
        (ValueError, "index -1 out of range for n=4", {"order": np.array([0, -1, 2])}),
        (ValueError, "index 4 out of range for n=4", {"order": np.array([0, 1, 4])}),
        (ValueError, "index 9 out of range for n=4", {"order": np.array([9, -1, 2])}),
        (ValueError, "indices has the wrong length", {"indices": np.full(4, -1)}),
        (TypeError, "indices must be a int64 array", {"indices": np.full(3, -1.0)}),
        (ValueError, "indices must be a C-contiguous 1-D", {"indices": np.full((3, 2), -1)[:, 0]}),
        (ValueError, "record has the wrong length", {"record": np.full((ROWS - 1, 3), -1.0)}),
        (ValueError, "record must have one column per index", {"record": np.full((ROWS, 4), -1.0)}),
        (ValueError, "record must be a C-contiguous 2-D", {"record": np.full(3 * ROWS, -1.0)}),
        (ValueError, "record must be writable", {"record": readonly}),
    ]
    for error, message, bad in cases:
        args = {"points": points, "kind": SHAPE_SQEXP, "order": np.array([3, 0, 2]),
                "indices": np.full(3, -1), "record": np.full((ROWS, 3), -1.0)} | bad
        buffers = {name: args[name] if args[name].base is None else args[name].base
                   for name in ("points", "order", "indices", "record")
                   if isinstance(args[name], np.ndarray)}
        saved = {name: buf.copy() for name, buf in buffers.items()}
        with pytest.raises(error, match=message):
            impl.order_fit(args["points"], args["kind"], 0.5, 0.0, 1.0, 1e-9, args["order"],
                           args["indices"], args["record"])
        for name, buf in buffers.items():
            assert_array_equal(buf, saved[name], err_msg=f"{message}: {name}")
    indices, record = np.full(3, -1), np.empty((ROWS, 3))
    m, packed = impl.order_fit(points, SHAPE_SQEXP, 0.5, 0.0, 1.0, 1e-9, np.array([3, 0, 2]),
                               indices, record)
    assert m == 3 and len(np.frombuffer(packed)) == 6
    assert_array_equal(indices, [3, 0, 2])


def _greedy(impl, points, params, epsilon, first, capacity):
    """One greedy_fit call from point `first`, at the fits' singularity threshold.

    Returns (m, cand, stop, indices, packed, record), the indices and the
    record cut to the m points kept.
    """
    indices, record = np.full(capacity, -1), np.full((ROWS, capacity), np.nan)
    m, cand, stop, packed = impl.greedy_fit(points, *params, SINGULARITY_REL_TOL * params.c,
                                            epsilon, first, indices, record)
    packed = np.frombuffer(packed)
    assert packed.shape == (m * (m + 1) // 2,)
    assert (indices[m:] == -1).all() and np.isnan(record[:, m + 1:]).all()
    return m, cand, stop, indices[:m], packed, record[:, :m]


@pytest.mark.parametrize("impl", BOTH, indirect=True)
@pytest.mark.parametrize("params", SHAPES, ids=["sqexp", "exp", "power"])
@pytest.mark.parametrize("epsilon", [0.0, 1e-5])
def test_greedy_fit_resumes_across_doublings_bit_identically(impl, params, epsilon):
    # The packed factor starts at 16 rows and doubles to 32, 64 and 100 as
    # the support grows, the steps resuming after each doubling inside the
    # one call. A fit whose capacity stops it earlier doubles less, and is
    # the same fit up to there: the indices, the record rows but the
    # seconds, and the packed rows, bit for bit. At epsilon = 1e-5 the fits
    # stop at the ratio test after 19 to 59 points.
    points = random_case(np.random.default_rng(13), n=2000, d=3)
    m, cand, stop, indices, packed, record = _greedy(impl, points, params, epsilon, 7, 100)
    assert m > 16 and stop == {0.0: "budget", 1e-5: "ratio"}[epsilon]
    assert np.all(record[5] >= 0.0)  # seconds from the start of the call
    for cap in (c for c in (16, 17, 32, 33, 64, 65) if c < m):
        head = _greedy(impl, points, params, epsilon, 7, cap)
        assert head[:3] == (cap, indices[cap], "budget")
        assert_array_equal(head[3], indices[:cap])
        assert_array_equal(head[4], packed[:cap * (cap + 1) // 2])
        assert_array_equal(head[5][:5], record[:5, :cap])


@pytest.mark.parametrize("params", SHAPES, ids=["sqexp", "exp", "power"])
def test_compiled_forward_solve_is_the_greedy_fits_v(fastcore, params):
    # greedy_fit's v_m = (kappa_m - w'v) / L_mm is the last row of the
    # forward solve L v = kappa, so a dense triangular solve on the packed
    # factor and the recorded kappa gives its v to rounding.
    points = random_case(np.random.default_rng(15), n=1000, d=3)
    m, _, _, _, packed, record = _greedy(fastcore, points, params, 0.0, 0, 70)
    assert m == 70
    v = scipy.linalg.solve_triangular(_lower(packed), record[1], lower=True)
    assert_allclose(record[2], v, rtol=1e-13, atol=1e-13 * np.abs(v).max())


@pytest.mark.parametrize("impl", BOTH, indirect=True)
@pytest.mark.parametrize("params", SHAPES, ids=["sqexp", "exp", "power"])
@pytest.mark.parametrize("walk", ["greedy", "order"])
@pytest.mark.parametrize("m", [1, 17, 120])
def test_walks_solve_alpha_as_a_dense_solve(impl, params, walk, m):
    # Each walk ends by solving alpha = L^{-T} v into its record's alpha
    # row: the weights K^{-1} kappa of its m kept points, K their Gram
    # block and kappa their recorded kernel row means. 17 and 120 points
    # take the factor past one and past three of its doublings. The order
    # holds one in five of its m points twice (rows 300.. copy rows 0..),
    # and the walk drops the later of each pair.
    rng = np.random.default_rng(16)
    points = 2.0 * random_case(rng, n=400, d=3)
    points[300:] = points[:100]
    if walk == "greedy":
        kept, _, stop, indices, packed, record = _greedy(impl, points, params, 0.0, 0, m)
        assert (kept, stop) == (m, "budget")
    else:
        order = rng.permutation(np.r_[np.arange(m), np.arange(300, 300 + -(-m // 5))])
        kept, record, packed = _factor(impl, points, params, SINGULARITY_REL_TOL * params.c,
                                       order=order)
        indices, record = order[kept], record[:, :m]
        assert indices.size == m and np.unique(indices % 300).size == m  # one of each pair
    v, alpha = record[2], record[RECORD_ROWS.index("alpha")]
    back = scipy.linalg.solve_triangular(_lower(packed), v, trans=1, lower=True)
    assert_allclose(alpha, back, rtol=1e-13)
    direct = scipy.linalg.solve(kernel_block(params, points[indices]), record[1], assume_a="pos")
    assert np.linalg.norm(alpha - direct) <= 1e-11 * np.linalg.norm(direct)


def test_greedy_fit_resumes_at_a_dependent_stop(fastcore):
    # A wide Gaussian stops at a dependent candidate after the factor
    # doubled twice; both backends stop at the same one, with the same
    # support and radii.
    points = random_case(np.random.default_rng(14), n=1500, d=2)
    params = ShapeParams(SHAPE_SQEXP, 0.5 / 3.0**2, 0.0, 1.0)
    runs = [_greedy(impl, points, params, 0.0, 0, 200) for impl in (_numpy_impl, fastcore)]
    m, _, stop = runs[0][:3]
    assert stop == "dependent" and 32 < m <= 64
    assert runs[1][:3] == runs[0][:3]
    assert_array_equal(runs[1][3], runs[0][3])  # the support
    assert_array_equal(runs[1][5][4], runs[0][5][4])  # the radii


class _Alarm(Exception):
    pass


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="signal.setitimer is POSIX-only")
def test_compiled_fit_stops_at_a_pending_signal(fastcore):
    # The walk runs the pending signal handlers each time its factor grows,
    # so a handler that raises, as Python's SIGINT handler does, ends a
    # long fit at the next doubling instead of at the end of the fit.
    points = random_case(np.random.default_rng(44), n=200_000, d=8)
    params = ShapeParams(SHAPE_SQEXP, 0.5 / 2.0**2, 0.0, 1.0)
    started = time.perf_counter()
    m, _, stop = _greedy(fastcore, points, params, 0.0, 0, 1500)[:3]
    whole = time.perf_counter() - started
    assert (m, stop) == (1500, "budget")

    def alarm(signum, frame):
        raise _Alarm

    previous = signal.signal(signal.SIGALRM, alarm)
    try:
        started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, whole / 10)
        with pytest.raises(_Alarm):
            _greedy(fastcore, points, params, 0.0, 0, 1500)
        interrupted = time.perf_counter() - started
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert interrupted < whole / 2, (interrupted, whole)


@pytest.mark.parametrize("impl", BOTH, indirect=True)
def test_greedy_fit_stops_at_each_test(impl):
    unit = ShapeParams(SHAPE_SQEXP, 0.5, 0.0, 1.0)
    wide = ShapeParams(SHAPE_SQEXP, 0.5 / 1000.0**2, 0.0, 1.0)
    line = np.array([[0.0], [1e-6], [10.0], [4.0]])
    # "budget": the capacity is reached, and cand is the next farthest point.
    m, cand, stop, indices, _, record = _greedy(impl, line, unit, 0.0, 0, 2)
    assert (m, cand, stop) == (2, 3, "budget")
    assert_array_equal(indices, [0, 2])
    assert_array_equal(record[4], [10.0, 4.0])
    # "dependent": at sigma = 1000, point 1 (1e-6 from point 0) has a pivot
    # below the threshold; it is not kept.
    m, cand, stop, indices, packed, record = _greedy(impl, line[:3], wide, 0.0, 0, 3)
    assert (m, cand, stop) == (2, 1, "dependent")
    assert_array_equal(indices, [0, 2])
    assert_array_equal(record[4], [10.0, 1e-6])
    # "ratio": |E_1 - E_2| / |E_1 - E_2| = 1 <= epsilon at the second point.
    m, cand, stop, *_ = _greedy(impl, line, unit, 1.0, 0, 4)
    assert (m, cand, stop) == (2, 3, "ratio")
    # "radius": three distinct points are covered by three centers.
    m, cand, stop, indices, _, record = _greedy(impl, line[[0, 2, 3]], unit, 0.0, 0, 3)
    assert (m, stop) == (3, "radius")
    assert record[4, -1] == 0.0
    # The record: E_m = E_{m-1} - v_m^2, kappa and the pivots of the Gram block.
    m, cand, stop, indices, packed, record = _greedy(impl, line, unit, 0.0, 0, 4)
    pivots, kappa, v, e = record[:4]
    assert_array_equal(e, -np.cumsum(v * v))
    assert_allclose(kappa, kernel_block(unit, line[indices], line).mean(axis=1), rtol=1e-14)
    assert_allclose(_lower(packed) @ _lower(packed).T, kernel_block(unit, line[indices]),
                    rtol=0, atol=1e-15)
    assert_allclose(pivots, np.diag(_lower(packed)) ** 2, rtol=1e-14)


@pytest.mark.parametrize("impl", BOTH, indirect=True)
def test_fit_names_its_stop(impl, monkeypatch):
    # fit hands on the walk's stop name, on the inputs of the test above;
    # a fixed-order fit ends at "budget", and the full mean names none.
    for name in PRIMITIVES:
        monkeypatch.setattr(_backend, name, getattr(impl, name))
    line = DataSet(np.array([[0.0], [1e-6], [10.0], [4.0]]))
    unit, wide = (RadialKernelSpec("gaussian", dim=1, sigma=s) for s in (1.0, 1000.0))
    for data, spec, k_max, epsilon, stop in [
            (line, unit, 2, 0.0, "budget"),
            (DataSet(line.points[:3]), wide, 3, 0.0, "dependent"),
            (line, unit, 4, 1.0, "ratio"),
            (DataSet(line.points[[0, 2, 3]]), unit, 3, 0.0, "radius")]:
        assert fit(data, spec, k_max=k_max, epsilon=epsilon, first=0).diagnostics.stop == stop
    assert sparse_mean.random_selection_fit(line, unit, 4).diagnostics.stop == "budget"
    assert full_mean(line, unit).diagnostics.stop is None


# Tie-heavy inputs above the compiled greedy fit's batching gate, n (d + 1)
# doubles above 2 MB: every row of {0, 1, 2}^8 seven times (45927 points,
# 3.3 MB), whose many equal distances rarely let a second center be
# certified, and the 400 x 400 integer grid (160000 points, 3.8 MB), which
# batches up to eight centers a pass.
_TIE_INPUTS = {
    "cube": lambda: np.tile(np.indices((3,) * 8).reshape(8, -1).T.astype(float), (7, 1)),
    "grid": lambda: np.indices((400, 400)).reshape(2, -1).T.astype(float),
}


@pytest.fixture(scope="module")
def tie_inputs():
    return {name: np.ascontiguousarray(make()) for name, make in _TIE_INPUTS.items()}


@pytest.mark.parametrize("name, sigma, epsilon, first, capacity, stop", [
    ("cube", 1.0, 0.0, 0, 45, "budget"),
    ("cube", 1.0, 0.0, 45926, 37, "budget"),
    ("cube", 1.0, 1e-3, 5, 300, "ratio"),
    ("cube", 30.0, 0.0, 5, 300, "dependent"),
    ("grid", 20.0, 0.0, 0, 70, "budget"),
    ("grid", 20.0, 0.0, 80200, 21, "budget"),
    ("grid", 20.0, 0.0, 159999, 45, "budget"),
    # stops at the third center of an eight-center batch
    ("grid", 30.0, 1e-4, 5, 300, "ratio"),
    # dependent at the second center of a five-center batch, and at the
    # third of four
    ("grid", 1000.0, 0.0, 7, 200, "dependent"),
    ("grid", 2000.0, 0.0, 7, 200, "dependent"),
])
def test_batched_greedy_fit_agrees_across_backends_on_ties(fastcore, tie_inputs, name, sigma,
                                                           epsilon, first, capacity, stop):
    # The compiled walk serves a batch of centers with one pass, certifying
    # each from its list of the farthest points, strictly ahead of the
    # first point not listed, and discards the centers of a batch after a
    # stop. Its supports, stop, next (or dependent) candidate and radii are
    # the numpy walk's, one center a pass.
    points = tie_inputs[name]
    params = gram_params(RadialKernelSpec("gaussian", dim=points.shape[1], sigma=sigma))
    ref, got = (_greedy(impl, points, params, epsilon, first, capacity)
                for impl in (_numpy_impl, fastcore))
    assert got[2] == ref[2] == stop
    assert got[:2] == ref[:2]
    assert_array_equal(got[3], ref[3])  # the support
    kappa, radius, e, alpha = (RECORD_ROWS.index(row) for row in ("kappa", "radius", "e", "alpha"))
    assert_array_equal(got[5][radius], ref[5][radius])
    assert_allclose(got[5][e], ref[5][e], rtol=1e-12)
    if stop == "dependent":
        # A wide kernel's Gram block is near singular, so alpha moves with
        # each backend's exp; the weights' objective Q(alpha) = alpha'K alpha
        # - 2 alpha'kappa does not, as in the saturated fit above.
        gram = kernel_block(params, points[ref[3]])
        q_np, q_c = (a @ gram @ a - 2.0 * a @ ref[5][kappa] for a in (ref[5][alpha], got[5][alpha]))
        assert abs(q_c - q_np) <= 1e-12 * abs(q_np)
    else:
        assert_allclose(got[5][alpha], ref[5][alpha], rtol=1e-9, atol=1e-12)


# Inputs on which the compiled greedy fit batches its centers: 8000 points
# in d = 5 and d = 2, below 2 MB but with points times capacity at least
# 2**22, and the 400 x 400 grid, above 2 MB.
@pytest.mark.parametrize("points, sigma, epsilon, first, capacity, stop, m", [
    ("normal", 1.0, 0.0, 0, 600, "budget", 600),
    # at the third center of an eight-center batch
    ("normal", 1.0, 1e-3, 0, 600, "ratio", 35),
    # dependent at the fourth center of an eight-center batch
    ("plane", 5.0, 0.0, 0, 600, "dependent", 35),
    # at the third center of an eight-center batch
    ("grid", 30.0, 1e-4, 5, 300, "ratio", 84),
])
def test_blocked_solve_is_the_ordered_walks_solve(fastcore, tie_inputs, points, sigma, epsilon,
                                                  first, capacity, stop, m):
    # The compiled greedy fit forms the Gram rows of a batch of centers
    # first and solves them against the kept rows of L together, one sweep
    # of L for the batch, each sum in dot's 8 lanes and tree; the ordered
    # walk solves one row at a time. Along the greedy support it makes the
    # same steps, so the packed factor and every record row but the seconds
    # are the same bit for bit.
    normal = np.random.default_rng(7).standard_normal((8000, 5))
    points = {"normal": normal, "plane": np.ascontiguousarray(normal[:, :2]),
              "grid": tie_inputs["grid"]}[points]
    params = gram_params(RadialKernelSpec("gaussian", dim=points.shape[1], sigma=sigma))
    kept, _, got, indices, packed, record = _greedy(fastcore, points, params, epsilon, first,
                                                    capacity)
    assert (kept, got) == (m, stop)
    along, ordered, ordered_packed = _factor(fastcore, points, params,
                                             SINGULARITY_REL_TOL * params.c, order=indices)
    assert along.all()
    assert_array_equal(packed, ordered_packed)
    for row, name in enumerate(RECORD_ROWS):
        if name != "seconds":
            assert_array_equal(record[row], ordered[row], err_msg=name)


@pytest.mark.parametrize("impl", BOTH, indirect=True)
def test_greedy_fit_rejects_bad_buffers(impl):
    points = np.ascontiguousarray(np.arange(12.0).reshape(3, 4).T)  # four points in d = 3
    readonly = np.full((ROWS, 3), -1.0)
    readonly.setflags(write=False)
    cases = [
        (ValueError, "unknown shape kind 3", {"kind": 3}),
        (ValueError, "unknown shape kind -1", {"kind": -1}),
        (TypeError, "points must be a float64 array", {"points": points.astype(np.float32)}),
        (TypeError, "points must be a float64 array", {"points": points.tolist()}),
        (ValueError, "points must be a C-contiguous 2-D", {"points": np.zeros((8, 3))[::2]}),
        (ValueError, "points must be a C-contiguous 2-D", {"points": np.zeros(12)}),
        (ValueError, "index -1 out of range for n=4", {"first": -1}),
        (ValueError, "index 4 out of range for n=4", {"first": 4}),
        (TypeError, "indices must be a int64 array", {"indices": np.full(3, -1.0)}),
        (TypeError, "indices must be a int64 array", {"indices": np.full(3, -1, np.int32)}),
        (ValueError, "indices must be a C-contiguous 1-D", {"indices": np.full((3, 2), -1)[:, 0]}),
        (ValueError, "record has the wrong length", {"record": np.full((ROWS - 1, 3), -1.0)}),
        (ValueError, "record must have one column per index", {"record": np.full((ROWS, 4), -1.0)}),
        (ValueError, "record must be a C-contiguous 2-D", {"record": np.full(3 * ROWS, -1.0)}),
        (ValueError, "record must be writable", {"record": readonly}),
    ]
    for error, message, bad in cases:
        args = {"points": points, "kind": SHAPE_SQEXP, "first": 0, "indices": np.full(3, -1),
                "record": np.full((ROWS, 3), -1.0)} | bad
        buffers = {name: args[name] if args[name].base is None else args[name].base
                   for name in ("points", "indices", "record")
                   if isinstance(args[name], np.ndarray)}
        saved = {name: buf.copy() for name, buf in buffers.items()}
        with pytest.raises(error, match=message):
            impl.greedy_fit(args["points"], args["kind"], 0.5, 0.0, 1.0, 1e-9, 0.0,
                            args["first"], args["indices"], args["record"])
        for name, buf in buffers.items():
            assert_array_equal(buf, saved[name], err_msg=f"{message}: {name}")
    indices, record = np.full(3, -1), np.empty((ROWS, 3))
    m, cand, stop, packed = impl.greedy_fit(points, SHAPE_SQEXP, 0.5, 0.0, 1.0, 1e-9, 0.0, 0,
                                            indices, record)
    assert (m, cand, stop) == (3, 2, "budget") and len(np.frombuffer(packed)) == 6
    assert_array_equal(indices, [0, 3, 1])


@pytest.mark.parametrize("impl", BOTH, indirect=True)
@pytest.mark.parametrize("spec", [
    RadialKernelSpec("gaussian", dim=2, sigma=3.0),
    RadialKernelSpec("laplacian", dim=2, gamma=4.0, normalization="density"),
    RadialKernelSpec("student", dim=2, alpha=1.5, beta=6.0, normalization="density", space="l2"),
], ids=["sqexp", "exp", "power"])
def test_order_fit_along_the_greedy_order_is_its_factor(impl, spec, monkeypatch):
    # Both walk the same fit step, greedy_fit farthest-first and order_fit
    # along the order, so the packed factor and the pivots of the kept
    # points are bit-identical. The greedy fit's order, with the dependent
    # candidate it stops at, is fitted as a fixed order, which drops that
    # candidate; its factor is the one order_fit call the fixed-order fit
    # makes. 40 of the 400 points repeat other rows moved
    # by 1e-12, so every fit stops at a dependent candidate: sqexp and
    # power after a few dozen points, exp at the first near-copy, after
    # the 360 others.
    for name in PRIMITIVES:
        monkeypatch.setattr(_backend, name, getattr(impl, name))
    rng = np.random.default_rng(11)
    points = random_case(rng, n=400, d=2)
    points[:40] = points[rng.integers(40, 400, size=40)] + 1e-12 * rng.normal(size=(40, 2))
    params = gram_params(spec)
    _m, cand, stop, indices, packed, record = _greedy(impl, points, params, 0.0, 0, 400)
    skipped = [cand] if stop == "dependent" else []
    order = np.r_[indices, skipped]
    factored = sparse_mean._fixed_order_fit(DataSet(points), spec,
                                            np.asarray(order, dtype=np.int64), False)
    assert skipped and list(factored.diagnostics.skipped) == skipped
    assert_array_equal(factored.support_indices, indices)
    assert_array_equal(factored.diagnostics.pivots, record[0])
    kept, _, factor = _factor(impl, points, params, SINGULARITY_REL_TOL * params.c, order=order)
    assert_array_equal(order[~kept], skipped)
    assert_array_equal(factor, packed)
    assert_allclose(factored.diagnostics.e_trace, record[3], rtol=1e-12)


@pytest.mark.parametrize("impl", BOTH, indirect=True)
@pytest.mark.parametrize("spec, k_max", [
    (RadialKernelSpec("gaussian", dim=2, sigma=0.7), 60),
    (RadialKernelSpec("gaussian", dim=2, sigma=10.0), 300),
    (RadialKernelSpec("student", dim=2, alpha=1.5, beta=6.0, normalization="density",
                      space="l2"), 300),
], ids=["budget", "dependent", "power"])
def test_fixed_order_fit_along_a_greedy_support_is_the_greedy_fit(impl, spec, k_max,
                                                                  monkeypatch):
    # The fixed-order fit walks the greedy fit's step along the order it is
    # given, so along the greedy fit's support it makes the same steps: the
    # same E, pivots, radii and weights, bit for bit. With the dependent
    # candidate that stopped the greedy fit appended, it drops that one and
    # is the same fit again.
    for name in PRIMITIVES:
        monkeypatch.setattr(_backend, name, getattr(impl, name))
    data = DataSet(np.random.default_rng(21).normal(size=(300, 2)))
    greedy = fit(data, spec, k_max=k_max, epsilon=0.0, first=0)
    assert (greedy.k0 == 60) == (greedy.diagnostics.skipped == ()) == (k_max == 60)
    for order in (greedy.support_indices, np.r_[greedy.support_indices,
                                                greedy.diagnostics.skipped]):
        fixed = sparse_mean._fixed_order_fit(data, spec, np.asarray(order, dtype=np.int64), False)
        assert fixed.diagnostics.skipped == tuple(order[greedy.k0:])
        assert_array_equal(fixed.support_indices, greedy.support_indices)
        for name in ("e_trace", "pivots", "radius_trace"):
            assert_array_equal(getattr(fixed.diagnostics, name),
                               getattr(greedy.diagnostics, name), err_msg=name)
        assert_array_equal(fixed.alpha, greedy.alpha)


@pytest.mark.parametrize("impl", BOTH, indirect=True)
@pytest.mark.parametrize("sigma", [1.0, 5.0])
def test_greedy_fit_is_the_fixed_order_fit_up_to_its_stop(impl, sigma, monkeypatch):
    # The 134-support blob input of the wide-bandwidth fixed-order fit test;
    # at sigma = 5 most of the supports are dropped. The greedy fit takes
    # the same farthest-first order and stops at its first dependent point,
    # so it is the fixed-support fit up to there.
    for name in PRIMITIVES:
        monkeypatch.setattr(_backend, name, getattr(impl, name))
    rng = np.random.default_rng(20)
    centers = ((0.0, 0.0), (3.0, 0.0), (0.0, 3.0))
    data = DataSet(np.vstack([c + rng.standard_normal((667, 2)) for c in centers]))
    support = kcenter_greedy(data, 134, first=0).order
    spec = RadialKernelSpec("gaussian", dim=2, sigma=sigma)
    mean = sparse_mean._fixed_order_fit(data, spec, np.asarray(support, dtype=np.int64), False)

    greedy = fit(data, spec, k_max=134, epsilon=0.0, first=0)
    k = greedy.k0
    assert_array_equal(greedy.support_indices, support[:k])
    assert_array_equal(mean.support_indices[:k], greedy.support_indices)
    assert_allclose(mean.diagnostics.e_trace[:k], greedy.diagnostics.e_trace, rtol=1e-12)
    skipped = mean.diagnostics.skipped
    assert greedy.diagnostics.skipped == (() if k == 134 else (support[k],))
    assert set(greedy.diagnostics.skipped) <= set(skipped)
    assert (len(skipped) > 0) == (sigma == 5.0) == (k < 134)


@pytest.mark.parametrize("impl", BOTH, indirect=True)
@pytest.mark.parametrize("delta, kept", [(1e-4, True), (1e-5, False)])
def test_pivot_rule_keeps_a_point_above_the_tolerance_and_drops_one_below(impl, delta, kept,
                                                                          monkeypatch):
    # Two points delta apart under the unit gaussian: the second pivot is
    # 1 - exp(-delta^2), about delta^2, against the tolerance 1e-9 g(0). At
    # 1e-4 it is 1.0e-8 and the point is kept; at 1e-5 it is 1.0e-10 and
    # the point is dropped.
    for name in PRIMITIVES:
        monkeypatch.setattr(_backend, name, getattr(impl, name))
    data = DataSet(np.array([[0.0], [delta]]))
    mean = sparse_mean._fixed_order_fit(data, RadialKernelSpec("gaussian", dim=1, sigma=1.0),
                                        np.asarray([0, 1], dtype=np.int64), False)
    assert mean.diagnostics.skipped == (() if kept else (1,))
    assert mean.support_indices.tolist() == ([0, 1] if kept else [0])
    if kept:
        assert_allclose(mean.diagnostics.pivots[1], 1e-8, rtol=1e-7)


def _fit_with(impl):
    """One fit with every `_backend` primitive taken from impl."""
    rng = np.random.default_rng(5)
    data = DataSet(rng.normal(size=(300, 3)))
    spec = RadialKernelSpec("gaussian", dim=3, sigma=1.0)
    with pytest.MonkeyPatch.context() as patch:
        for name in PRIMITIVES:
            patch.setattr(_backend, name, getattr(impl, name))
        return fit(data, spec, k_max=25, epsilon=0.0, first=0)


def test_fit_agrees_across_backends(fastcore):
    a = _fit_with(_numpy_impl)
    b = _fit_with(fastcore)
    assert_array_equal(a.support_indices, b.support_indices)
    assert_allclose(a.alpha, b.alpha, rtol=1e-9, atol=1e-12)
    assert_allclose(a.diagnostics.e_trace, b.diagnostics.e_trace, rtol=1e-12)
    assert_allclose(a.diagnostics.radius_trace, b.diagnostics.radius_trace, rtol=1e-15)


def _fit_and_select(impl, points, sigma, k, first):
    """fit and kcenter_greedy with every `_backend` primitive taken from impl."""
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        for name in PRIMITIVES:
            patch.setattr(_backend, name, getattr(impl, name))
        warnings.simplefilter("ignore")  # k may exceed the distinct points
        data = DataSet(points)
        spec = RadialKernelSpec("gaussian", dim=points.shape[1], sigma=sigma)
        return fit(data, spec, k_max=k, epsilon=0.0, first=first), kcenter_greedy(data, k, first=first)


@given(data=st.data())
def test_fit_and_selection_agree_across_backends(fastcore, data):
    # Half-integer coordinates also make distance ties exact.
    points = _dup_points(data)
    n = points.shape[0]
    sigma = data.draw(st.sampled_from([0.5, 30.0, 1000.0]), label="sigma")
    k = n - data.draw(st.integers(0, n - 1), label="n - k")
    first = data.draw(st.integers(0, n - 1), label="first")
    mean_np, sel_np = _fit_and_select(_numpy_impl, points, sigma, k, first)
    mean_c, sel_c = _fit_and_select(fastcore, points, sigma, k, first)
    assert_array_equal(mean_c.support_indices, mean_np.support_indices)
    assert mean_c.diagnostics.skipped == mean_np.diagnostics.skipped
    assert_allclose(mean_c.diagnostics.e_trace, mean_np.diagnostics.e_trace, rtol=1e-12)
    assert_array_equal(sel_c.order, sel_np.order)
    assert_array_equal(sel_c.radius_trace, sel_np.radius_trace)


def test_saturated_fit_agrees_across_backends_in_its_objective(fastcore):
    # The apps workload's saturated fit: eps = 0 at sigma = 10 stops at
    # about 20 supports with cond(K) near 1e10. Each backend forms kappa
    # and the Gram rows with its own exp, so alpha may move by that
    # condition number times the last bits (4e-7 relative has been seen);
    # the weights' objective Q(alpha) = alpha'K alpha - 2 alpha'kappa, which
    # the benchmark checks against a direct solve, may not.
    points = np.random.default_rng(20150301).standard_normal((4000, 2))
    spec = RadialKernelSpec("gaussian", dim=2, sigma=10.0)
    fits = []
    for impl in (_numpy_impl, fastcore):
        with pytest.MonkeyPatch.context() as patch:
            for name in PRIMITIVES:
                patch.setattr(_backend, name, getattr(impl, name))
            fits.append(fit(DataSet(points), spec, k_max=200, epsilon=0.0))
    a, b = fits
    assert_array_equal(b.support_indices, a.support_indices)
    assert b.diagnostics.skipped == a.diagnostics.skipped != ()
    assert_allclose(b.diagnostics.e_trace, a.diagnostics.e_trace, rtol=1e-13)
    gram = kernel_block(gram_params(spec), a.support)
    kappa = kernel_block(gram_params(spec), a.support, points).mean(axis=1)
    q_np, q_c = (m.alpha @ gram @ m.alpha - 2.0 * m.alpha @ kappa for m in (a, b))
    assert abs(q_c - q_np) <= 1e-12 * abs(q_np)


@pytest.mark.parametrize("impl", BOTH, indirect=True)
@pytest.mark.parametrize("j", [-1, 3])
def test_incoherence_rejects_indices_outside_the_data(impl, j, monkeypatch):
    monkeypatch.setattr(_backend, "farthest_scan", impl.farthest_scan)
    data = DataSet(np.array([[0.0], [1.0], [3.0]]))
    with pytest.raises(ValueError, match=r"support indices must lie in \[0, 3\)"):
        incoherence(data, RadialKernelSpec("gaussian", dim=1, sigma=1.0), [0, j])


# Put the compiled backend built from the source tree where `import skm`
# looks for it, or make that import fail so that skm falls back to numpy.
_WITH_COMPILED = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("skm._backend._fastcore", {path!r})
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
sys.modules[spec.name] = module
"""
_WITHOUT_COMPILED = """
import sys
sys.modules["skm._backend._fastcore"] = None
"""
_LOADS_NO_SCIPY = """
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def _run_without_scipy(fastcore, backend, script):
    """Run script after `import skm, skm.cli` on the named backend, in a
    fresh interpreter, and assert that no scipy module was loaded."""
    setup = (_WITH_COMPILED.format(path=fastcore.__file__) if backend == "compiled"
             else _WITHOUT_COMPILED)
    script = (setup + "import skm, skm.cli\n"
              f"assert skm.BACKEND == {backend!r}, skm.BACKEND\n" + script + _LOADS_NO_SCIPY)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("backend", ["compiled", "numpy"])
def test_import_loads_no_scipy(fastcore, backend):
    _run_without_scipy(fastcore, backend, "")


def test_compiled_fits_and_commands_load_no_scipy(fastcore, tmp_path):
    # On the compiled backend the fit, its weights, evaluation, model
    # files, selection and incoherence, mean shift, mode clustering and
    # bandwidth_jaakkola, and every CLI command below, run on numpy alone;
    # only the numpy backend's kernel sums and triangular solves import
    # scipy, when they are called.
    rng = np.random.default_rng(4)
    for name, offset in (("x", 0.0), ("y", 2.0)):
        np.savetxt(tmp_path / f"{name}.csv", rng.normal(size=(400, 2)) + offset, delimiter=",")
    x, y, model = (str(tmp_path / name) for name in ("x.csv", "y.csv", "model.json"))
    labels = str(tmp_path / "labels.csv")
    _run_without_scipy(fastcore, "compiled", f"""
import numpy as np
data = skm.DataSet(np.random.default_rng(3).normal(size=(500, 2)))
spec = skm.parse_kernel_spec("gaussian:sigma=0.7", 2)
mean = skm.fit(data, spec, k_max=40)
skm.save_model(mean, {model!r})
values = skm.evaluate(skm.load_model({model!r}), data.points[:50])
assert np.all(np.isfinite(values)) and mean.alpha.shape == (mean.k0,)
order = np.asarray(mean.support_indices, dtype=np.int64)
skm.sparse_mean._fixed_order_fit(data, spec, order, False)
assert skm.kcenter_greedy(data, 20, first=0).order.shape == (20,)
assert 0.0 < skm.incoherence(data, spec, mean.support_indices)
density = skm.parse_kernel_spec("gaussian:sigma=0.7:density", 2)
shifted = skm.mean_shift_all(data, skm.fit(data, density, density_mode=True), 1e-3)
assert skm.cluster_modes(shifted, 0.7).n_clusters >= 1
assert skm.bandwidth_jaakkola(data) > 0.0
for argv in (["fit", "--input", {x!r}, "--kernel", "gaussian:sigma=1", "--out", {model!r}],
             ["eval", "--model", {model!r}, "--queries", {x!r}, "--out", "-"],
             ["select", "--input", {x!r}, "--k", "30", "--out", "-"],
             ["audit", "--input", {x!r}, "--kernel", "gaussian:sigma=1", "--out", "-"],
             ["meanshift", "--input", {x!r}, "--sigma", "0.8", "--out-labels", {labels!r}],
             ["meanshift", "--input", {x!r}, "--sigma", "0.8", "--sparse",
              "--out-labels", {labels!r}],
             ["embed", {x!r}, {y!r}, "--kernel", "gaussian:sigma=1", "--sparse", "--out", "-"],
             ["cpe", "--train", {x!r}, {y!r}, "--test", {x!r}, "--sparse",
              "--sigma-search", "0.5,2", "--search-iters", "4", "--out", "-"]):
    assert skm.cli.main(argv) == 0, argv
""")
