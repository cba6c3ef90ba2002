import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import gram_inner, gram_matrix, kernel_eval, kernel_matrix
from scipy.integrate import dblquad, quad
from scipy.spatial.distance import pdist

from skm.dataio import DataSet
from skm.errors import DegenerateDataError, KernelSpecError
from skm.kernels import (
    _FAMILY_PARAMS,
    RadialKernelSpec,
    bandwidth_iqr,
    bandwidth_jaakkola,
    g_zero,
    eval_params,
    gram_at_dist,
    gram_params,
    parse_kernel_spec,
)
from skm.sparse_mean import evaluate, full_mean


def unit_gaussian(dim=1, sigma=1.0, **kw):
    return RadialKernelSpec("gaussian", dim=dim, sigma=sigma, **kw)


# ---------------------------------------------------------------- kernel_eval

def test_eval_gaussian_at_same_point_is_one():
    spec = unit_gaussian(dim=3)
    x = np.array([0.3, -1.2, 4.0])
    assert kernel_eval(spec, x, x) == 1.0


def test_eval_gaussian_unit_distance():
    spec = unit_gaussian()
    assert_allclose(kernel_eval(spec, [0.0], [1.0]), math.exp(-0.5), rtol=1e-15)


def test_eval_density_gaussian_integrates_to_one():
    spec = unit_gaussian(normalization="density")
    total, _ = quad(lambda t: kernel_eval(spec, [t], [0.0]), -10, 10)
    assert abs(total - 1.0) < 1e-6


def test_eval_reads_a_1d_query_array_as_points_of_a_1d_kernel():
    # As DataSet does: n points in one dimension, not one point in n.
    mean = full_mean(DataSet(np.array([0.0, 2.0])), unit_gaussian())
    assert_allclose(evaluate(mean, np.array([0.5, 1.5])),
                    evaluate(mean, np.array([[0.5], [1.5]])), rtol=0, atol=0)
    assert evaluate(mean, 0.5).shape == (1,)


def test_eval_dimension_mismatch():
    spec = unit_gaussian(dim=2)
    with pytest.raises(ValueError, match="dimension"):
        evaluate(full_mean(DataSet(np.array([[0.0, 1.0]])), spec), [0.0])


# ------------------------------------------------------- density normalization

@pytest.mark.parametrize("spec", [
    RadialKernelSpec("gaussian", dim=1, sigma=0.7, normalization="density"),
    RadialKernelSpec("laplacian", dim=1, gamma=1.3, normalization="density"),
    RadialKernelSpec("student", dim=1, alpha=1.0, beta=2.0, normalization="density"),
    RadialKernelSpec("student", dim=1, alpha=3.0, beta=0.5, normalization="density"),
])
def test_density_integrates_to_one_1d(spec):
    total, _ = quad(lambda t: kernel_eval(spec, [t], [0.0]), -np.inf, np.inf)
    assert abs(total - 1.0) < 1e-6


@pytest.mark.parametrize("spec", [
    RadialKernelSpec("gaussian", dim=2, sigma=0.8, normalization="density"),
    RadialKernelSpec("laplacian", dim=2, gamma=0.9, normalization="density"),
    RadialKernelSpec("student", dim=2, alpha=3.0, beta=1.0, normalization="density"),
])
def test_density_integrates_to_one_2d_tensor_quadrature(spec):
    lim = 40.0

    def f(y, x):
        return kernel_eval(spec, [x, y], [0.0, 0.0])

    total, _ = dblquad(f, -lim, lim, -lim, lim, epsabs=1e-9, epsrel=1e-9)
    assert abs(total - 1.0) < 1e-6


def test_student_density_requires_integrable_exponent():
    with pytest.raises(KernelSpecError, match="alpha > d/2"):
        RadialKernelSpec("student", dim=3, alpha=1.0, beta=1.0,
                         normalization="density")


# ------------------------------------------------------------------ gram_inner

def test_rkhs_gram_is_kernel_eval():
    spec = RadialKernelSpec("laplacian", dim=2, gamma=0.8)
    x, y = np.array([0.1, 0.2]), np.array([1.5, -0.3])
    assert gram_inner(spec, x, y) == kernel_eval(spec, x, y)
    assert gram_inner(spec, x, x) == g_zero(spec)


def test_l2_gaussian_self_inner_product():
    spec = unit_gaussian(normalization="density", space="l2")
    expected, _ = quad(
        lambda t: math.exp(-t * t) / (2 * math.pi), -np.inf, np.inf
    )  # product of two standard normal densities at the same anchor
    value = gram_inner(spec, [0.0], [0.0])
    assert_allclose(value, expected, rtol=1e-10)
    assert_allclose(value, (2 * math.pi * 2.0) ** -0.5, rtol=1e-12)


@pytest.mark.parametrize("normalization", ["unit", "density"])
def test_l2_gaussian_matches_quadrature(normalization):
    rng = np.random.default_rng(3)
    for sigma in (0.6, 1.0, 1.9):
        spec = RadialKernelSpec("gaussian", dim=1, sigma=sigma,
                                normalization=normalization, space="l2")
        phi = RadialKernelSpec("gaussian", dim=1, sigma=sigma,
                               normalization=normalization)
        for _ in range(3):
            x, y = rng.uniform(-2, 2, size=2)
            expected, _ = quad(
                lambda t: kernel_eval(phi, [t], [x]) * kernel_eval(phi, [t], [y]),
                -np.inf, np.inf,
            )
            assert_allclose(gram_inner(spec, [x], [y]), expected, rtol=1e-8)


@pytest.mark.parametrize("normalization", ["unit", "density"])
def test_l2_cauchy_matches_quadrature(normalization):
    rng = np.random.default_rng(4)
    for beta in (0.8, 1.5):
        spec = RadialKernelSpec("student", dim=1, alpha=1.0, beta=beta,
                                normalization=normalization, space="l2")
        phi = RadialKernelSpec("student", dim=1, alpha=1.0, beta=beta,
                               normalization=normalization)
        for _ in range(3):
            x, y = rng.uniform(-2, 2, size=2)
            expected, _ = quad(
                lambda t: kernel_eval(phi, [t], [x]) * kernel_eval(phi, [t], [y]),
                -np.inf, np.inf,
            )
            assert_allclose(gram_inner(spec, [x], [y]), expected, rtol=1e-7)


def test_l2_gaussian_example_distance_two():
    spec = unit_gaussian(normalization="density", space="l2")
    phi = unit_gaussian(normalization="density")
    expected, _ = quad(
        lambda t: kernel_eval(phi, [t], [0.0]) * kernel_eval(phi, [t], [2.0]),
        -np.inf, np.inf,
    )
    assert_allclose(gram_inner(spec, [0.0], [2.0]), expected, atol=1e-8)


def test_l2_unsupported_families_rejected():
    with pytest.raises(KernelSpecError, match="L2"):
        RadialKernelSpec("laplacian", dim=1, gamma=1.0, space="l2")
    with pytest.raises(KernelSpecError, match="L2"):
        RadialKernelSpec("student", dim=1, alpha=2.0, beta=1.0, space="l2")
    # the Cauchy exponent (1 + d) / 2 is the supported Student case
    RadialKernelSpec("student", dim=3, alpha=2.0, beta=1.0, space="l2")


# ---------------------------------------------------------------------- g_zero

def test_g_zero_examples():
    assert g_zero(unit_gaussian()) == 1.0
    dens = unit_gaussian(normalization="density")
    assert_allclose(g_zero(dens), (2 * math.pi) ** -0.5, rtol=1e-12)
    l2 = unit_gaussian(normalization="density", space="l2")
    assert_allclose(g_zero(l2), (4 * math.pi) ** -0.5, rtol=1e-12)


def test_g_zero_constant_across_anchors():
    for spec in (
        unit_gaussian(dim=4, sigma=1.4),
        RadialKernelSpec("student", dim=4, alpha=2.5, beta=0.9,
                         normalization="density"),
    ):
        rng = np.random.default_rng(11)
        c = g_zero(spec)
        for _ in range(100):
            x = rng.normal(size=4)
            assert gram_inner(spec, x, x) == c


# -------------------------------------------------------- radial monotonicity

@pytest.mark.parametrize("spec", [
    unit_gaussian(sigma=0.9),
    RadialKernelSpec("laplacian", dim=1, gamma=1.2, normalization="density"),
    RadialKernelSpec("student", dim=1, alpha=1.8, beta=0.7),
    unit_gaussian(space="l2"),
    RadialKernelSpec("student", dim=1, alpha=1.0, beta=1.1, space="l2"),
])
def test_gram_strictly_decreasing_in_distance(spec):
    radii = np.sort(np.random.default_rng(7).uniform(0.0, 8.0, size=40))
    values = gram_at_dist(spec, radii)
    assert np.all(np.diff(values) < 0)


def test_symmetry_of_eval_and_gram():
    spec = RadialKernelSpec("student", dim=3, alpha=2.0, beta=1.0, space="l2")
    rng = np.random.default_rng(9)
    for _ in range(10):
        x, y = rng.normal(size=3), rng.normal(size=3)
        assert kernel_eval(spec, x, y) == kernel_eval(spec, y, x)
        assert gram_inner(spec, x, y) == gram_inner(spec, y, x)


def test_matrix_helpers_match_scalar_calls():
    spec = unit_gaussian(dim=2, sigma=1.3, normalization="density")
    rng = np.random.default_rng(12)
    xs, ys = rng.normal(size=(4, 2)), rng.normal(size=(3, 2))
    km = kernel_matrix(spec, xs, ys)
    gm = gram_matrix(spec, xs, ys)
    for i in range(4):
        for j in range(3):
            assert_allclose(km[i, j], kernel_eval(spec, xs[i], ys[j]), rtol=1e-14)
            assert_allclose(gm[i, j], gram_inner(spec, xs[i], ys[j]), rtol=1e-14)


@pytest.mark.parametrize("spec, profile", [
    (unit_gaussian(dim=3, sigma=1.0), lambda r: math.exp(-r * r / 2.0)),
    (RadialKernelSpec("laplacian", dim=3, gamma=1.0), lambda r: math.exp(-r)),
    (RadialKernelSpec("student", dim=3, alpha=1.5, beta=1.0),
     lambda r: (1.0 + r * r) ** -1.5),
], ids=["gaussian", "laplacian", "student"])
def test_matrices_exact_far_from_the_origin(spec, profile):
    # An expanded |x|^2 + |y|^2 - 2x'y distance loses about 1e-8 in r^2 at
    # this offset; exact differences keep every entry to rounding.
    rng = np.random.default_rng(13)
    xs = 1e4 + rng.normal(size=(6, 3))
    ys = 1e4 + rng.normal(size=(5, 3))
    expected = np.array([[profile(math.sqrt(sum((a - b) ** 2 for a, b in zip(x, y))))
                          for y in ys] for x in xs])
    assert_allclose(kernel_matrix(spec, xs, ys), expected, rtol=1e-12)
    assert_allclose(gram_matrix(spec, xs, ys), expected, rtol=1e-12)


# ------------------------------------------------------------------ bandwidths

def test_bandwidth_iqr_hand_oracle():
    data = DataSet(np.arange(1.0, 9.0).reshape(-1, 1))
    # linear-interpolation quartiles of 1..8: q25 = 2.75, q75 = 6.25
    assert_allclose(bandwidth_iqr(data), (6.25 - 2.75) / 1.35, rtol=1e-14)


def test_bandwidth_iqr_duplicate_dimensions():
    col = np.arange(1.0, 9.0).reshape(-1, 1)
    one = bandwidth_iqr(DataSet(col))
    two = bandwidth_iqr(DataSet(np.hstack([col, col])))
    assert two == one


def test_bandwidth_iqr_constant_data_errors():
    with pytest.raises(DegenerateDataError):
        bandwidth_iqr(DataSet(np.full((5, 2), 3.0)))


def test_bandwidth_jaakkola_two_points():
    assert bandwidth_jaakkola(DataSet(np.array([[0.0], [1.0]]))) == 1.0


def test_bandwidth_jaakkola_three_points():
    # pairwise distances {1, 1, 2} -> median 1
    assert bandwidth_jaakkola(DataSet(np.array([[0.0], [1.0], [2.0]]))) == 1.0


def test_bandwidth_jaakkola_degenerate():
    with pytest.raises(DegenerateDataError):
        bandwidth_jaakkola(DataSet(np.zeros((4, 3))))


def test_bandwidth_jaakkola_subsample_deterministic(monkeypatch):
    data = DataSet(np.random.default_rng(0).normal(size=(300, 2)))
    full = bandwidth_jaakkola(data)
    monkeypatch.setattr("skm.kernels.JAAKKOLA_SUBSAMPLE", 50)
    a = bandwidth_jaakkola(data)
    b = bandwidth_jaakkola(data)
    assert a == b
    assert abs(a - full) / full < 0.25  # subsample stays in the right ballpark


@pytest.mark.parametrize("n, d, cap, scale, offset", [
    (2, 1, 2000, 1.0, 0.0),
    (57, 3, 2000, 1e-3, 5.0),
    (600, 5, 2000, 1e6, -3e6),  # two row blocks of 436 rows
    (1200, 2, 900, 1.0, 40.0),  # a subsample of 900 in four row blocks
])
def test_bandwidth_jaakkola_is_the_median_of_pdist(n, d, cap, scale, offset, monkeypatch):
    monkeypatch.setattr("skm.kernels.JAAKKOLA_SUBSAMPLE", cap)
    pts = offset + scale * np.random.default_rng(n).normal(size=(n, d))
    expected = pts
    if n > cap:
        idx = np.random.default_rng(0).choice(n, cap, replace=False)
        expected = pts[np.sort(idx)]
    got = bandwidth_jaakkola(DataSet(pts))
    assert got == float(np.median(pdist(expected)))


# ---------------------------------------------------------------- spec grammar

def test_parse_kernel_spec_full_form():
    spec = parse_kernel_spec("gaussian:sigma=1.5:density:rkhs", dim=2)
    assert spec == RadialKernelSpec("gaussian", dim=2, sigma=1.5,
                                    normalization="density", space="rkhs")


def test_parse_kernel_spec_defaults_and_order():
    spec = parse_kernel_spec("student:l2:beta=2.0:alpha=1.0", dim=1)
    assert spec.space == "l2" and spec.normalization == "unit"
    assert spec.alpha == 1.0 and spec.beta == 2.0


def format_kernel_spec(spec):
    """The canonical string form of spec, all of its fields spelled out."""
    params = [f"{name}={getattr(spec, name)!r}" for name in _FAMILY_PARAMS[spec.family]]
    return ":".join([spec.family, *params, spec.normalization, spec.space])


def test_parse_format_round_trip():
    for text in ("gaussian:sigma=0.25:density:l2",
                 "laplacian:gamma=2.0:unit:rkhs",
                 "student:alpha=2.5:beta=1.25:density:rkhs"):
        spec = parse_kernel_spec(text, dim=2)
        assert parse_kernel_spec(format_kernel_spec(spec), dim=2) == spec


@pytest.mark.parametrize("bad", [
    "", "wavelet:sigma=1", "gaussian", "gaussian:sigma=0",
    "gaussian:sigma=1:bogus", "gaussian:gamma=1", "gaussian:sigma=abc",
    "gaussian:sigma=1:unit:density", "gaussian:sigma=1:sigma=2",
])
def test_parse_kernel_spec_rejects(bad):
    with pytest.raises(KernelSpecError):
        parse_kernel_spec(bad, dim=1)


def test_parse_kernel_spec_names_a_parameter_given_two_values():
    with pytest.raises(KernelSpecError, match="sigma"):
        parse_kernel_spec("gaussian:sigma=1:sigma=2", dim=1)
    assert parse_kernel_spec("gaussian:sigma=1:sigma=1.0", dim=1).sigma == 1.0


# Parameters whose profile constants overflow, underflow or divide by zero,
# with the parameter the error names.
EXTREME_SPECS = [
    ("gaussian:sigma=1e-300", "sigma"),
    ("gaussian:sigma=1e200:l2:density", "sigma"),
    ("student:alpha=2:beta=1e-320:density", "beta"),
    ("laplacian:gamma=1e-310", "gamma"),
    ("gaussian:sigma=1e-160", "sigma"),
    ("gaussian:sigma=inf", "sigma"),
    ("laplacian:gamma=nan", "gamma"),
]


@pytest.mark.parametrize("text, name", EXTREME_SPECS)
def test_parse_kernel_spec_rejects_profiles_that_overflow(text, name):
    with pytest.raises(KernelSpecError, match=name):
        parse_kernel_spec(text, dim=2)


def test_every_accepted_profile_is_finite_and_positive():
    # Parameters near the ends of the accepted range still give finite
    # profile constants with a, c > 0.
    for text in ("gaussian:sigma=1e-150", "gaussian:sigma=1e150", "laplacian:gamma=1e300",
                 "student:alpha=1.5:beta=1e-300:l2:density"):
        spec = parse_kernel_spec(text, dim=2)
        for _, a, b, c in (eval_params(spec), gram_params(spec)):
            assert all(map(math.isfinite, (a, b, c))) and a > 0 and c > 0
