import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import kernel_matrix

from skm.cpe import (
    _closest_pair,
    _golden_section,
    dirichlet_sample,
    estimate_from_means,
    estimate_proportions,
    l1_error,
    mean_inner,
    search_bandwidth,
)
from skm.dataio import DataSet
from skm.divergences import rkhs_distance
from skm.errors import SkmError
from skm.kernels import RadialKernelSpec, g_zero
from skm.sparse_mean import fit, full_mean

GAUSS_1D = RadialKernelSpec("gaussian", dim=1, sigma=1.0)
GAUSS_2D = RadialKernelSpec("gaussian", dim=2, sigma=1.0)


def class_samples(rng, centers, n_per_class, scale=0.6):
    return [
        DataSet(center + scale * rng.standard_normal((n_per_class, len(center))),
                name=f"class{i}")
        for i, center in enumerate(centers)
    ]


def exact_mixture(samples, counts):
    """Concatenate whole samples with integer multiplicities; the test
    embedding is then exactly the matching convex combination of the class
    embeddings."""
    parts, weights = [], []
    sizes = np.array([s.n for s in samples], dtype=float)
    for sample, count in zip(samples, counts):
        parts.extend([sample.points] * count)
        weights.append(count * sample.n)
    weights = np.asarray(weights, dtype=float)
    return DataSet(np.vstack(parts), name="mixture"), weights / weights.sum()


# ------------------------------------------------------------------ mean_inner

def test_mean_inner_singleton_self_is_c():
    mean = fit(DataSet(np.array([[0.7]])), GAUSS_1D, k_max=1, epsilon=0.0)
    assert mean_inner(mean, mean) == g_zero(GAUSS_1D)


def test_mean_inner_bilinear_in_weights():
    rng = np.random.default_rng(0)
    a = full_mean(DataSet(rng.normal(size=(6, 1))), GAUSS_1D)
    b = full_mean(DataSet(rng.normal(size=(4, 1))), GAUSS_1D)
    doubled = type(a)(spec=a.spec, support=a.support, alpha=2.0 * a.alpha,
                      support_indices=a.support_indices, diagnostics=a.diagnostics)
    assert_allclose(mean_inner(doubled, b), 2.0 * mean_inner(a, b), rtol=1e-14)


def test_mean_inner_matches_naive_double_sum():
    rng = np.random.default_rng(1)
    xs = rng.normal(size=(9, 2))
    ys = rng.normal(size=(7, 2)) + 1.0
    a = full_mean(DataSet(xs), GAUSS_2D)
    b = full_mean(DataSet(ys), GAUSS_2D)
    naive = sum(
        kernel_matrix(GAUSS_2D, [x], [y]).item() for x in xs for y in ys
    ) / (9 * 7)
    assert_allclose(mean_inner(a, b), naive, rtol=1e-12)


def test_mean_inner_requires_rkhs():
    spec = RadialKernelSpec("gaussian", dim=1, sigma=1.0, space="l2",
                            normalization="density")
    mean = fit(DataSet(np.array([[0.0]])), spec, k_max=1, epsilon=0.0)
    with pytest.raises(ValueError, match="rkhs"):
        mean_inner(mean, mean)


# --------------------------------------------------------- estimate_proportions

def test_estimate_test_equals_first_class():
    rng = np.random.default_rng(2)
    train = class_samples(rng, [(-4.0, 0.0), (0.0, 3.0), (4.0, 0.0)], 60)
    test = DataSet(train[0].points.copy(), name="test")
    result = estimate_proportions(train, test, GAUSS_2D)
    assert_allclose(result.pi_hat, [1.0, 0.0, 0.0], atol=1e-9)
    assert result.residual < 1e-12


def test_estimate_even_mixture_of_two_classes():
    rng = np.random.default_rng(3)
    train = class_samples(rng, [(-3.0, 0.0), (3.0, 0.0)], 50)
    test = DataSet(np.vstack([train[0].points, train[1].points]), name="test")
    result = estimate_proportions(train, test, GAUSS_2D)
    assert_allclose(result.pi_hat, [0.5, 0.5], atol=1e-10)
    assert not result.was_projected


def test_estimate_projects_when_outside_simplex():
    # test sits slightly beyond class 0 along the class-0/class-1 axis, so
    # the unconstrained solve overshoots the simplex (pi_hat ~ (1.17, -0.17))
    train = [DataSet(np.array([[0.0]]), name="c0"),
             DataSet(np.array([[1.0]]), name="c1")]
    test = DataSet(np.array([[-0.3]]), name="test")
    result = estimate_proportions(train, test, GAUSS_1D)
    assert result.was_projected
    assert_allclose(result.pi_hat, [1.0, 0.0], atol=1e-12)
    assert abs(result.pi_hat.sum() - 1.0) <= 1e-10


def test_estimate_exact_convex_combination_recovery():
    rng = np.random.default_rng(4)
    train = class_samples(rng, [(-4.0, 0.0), (0.0, 4.0), (4.0, 0.0)], 40)
    test, pi_true = exact_mixture(train, [3, 1, 2])
    result = estimate_proportions(train, test, GAUSS_2D)
    assert l1_error(pi_true, result.pi_hat) < 1e-8


def test_estimate_sum_to_one_affine_constraint():
    rng = np.random.default_rng(5)
    train = class_samples(rng, [(-3.0, 0.0), (0.0, 3.0), (3.0, 0.0)], 30)
    test = DataSet(rng.standard_normal((25, 2)), name="test")
    result = estimate_proportions(train, test, GAUSS_2D)
    assert abs(result.pi_hat.sum() - 1.0) <= 1e-10


def test_estimate_sparse_close_to_full():
    rng = np.random.default_rng(6)
    train = class_samples(rng, [(-4.0, 0.0), (0.0, 4.0), (4.0, 0.0)], 200)
    test, pi_true = exact_mixture(train, [2, 3, 1])
    full = estimate_proportions(train, test, GAUSS_2D, sparse=False)
    sparse = estimate_proportions(train, test, GAUSS_2D, sparse=True,
                                  epsilon=1e-10)
    assert l1_error(pi_true, full.pi_hat) < 1e-8
    assert l1_error(pi_true, sparse.pi_hat) < 0.05


def test_estimate_singular_system_names_colliding_pair():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(30, 2))
    train = [DataSet(pts, name="a"), DataSet(pts.copy(), name="b"),
             DataSet(pts + 5.0, name="c")]
    test = DataSet(pts + 1.0, name="test")
    with pytest.raises(SkmError, match="0 and 1"):
        estimate_proportions(train, test, GAUSS_2D)


def test_singular_system_reads_the_pair_distances_from_the_gram_matrix(monkeypatch):
    # The inputs above: the 6 class inner products and 3 test products
    # name the colliding pair, with no further kernel sums, and the
    # distance in the message is rkhs_distance's.
    import skm.divergences

    calls = []
    counted = skm.divergences.mean_gram_inner

    def counting(a, b):
        calls.append(1)
        return counted(a, b)

    monkeypatch.setattr(skm.divergences, "mean_gram_inner", counting)
    pts = np.random.default_rng(7).normal(size=(30, 2))
    train = [DataSet(pts), DataSet(pts.copy()), DataSet(pts + 5.0)]
    with pytest.raises(SkmError, match="0 and 1") as err:
        estimate_proportions(train, DataSet(pts + 1.0), GAUSS_2D)
    assert len(calls) == 9
    means = [full_mean(t, GAUSS_2D) for t in train]
    assert f"(distance {rkhs_distance(means[0], means[1]):.3e})" in str(err.value)


def test_closest_pair_distance_is_rkhs_distance_bit_for_bit():
    # The Gram matrix as estimate_from_means fills it, entry (i, j) for i <= j.
    means, _, _ = nearly_coincident_means(1e-3)
    gram = np.empty((3, 3))
    for i in range(3):
        for j in range(i, 3):
            gram[i, j] = gram[j, i] = mean_inner(means[i], means[j])
    pair, dist = _closest_pair(gram)
    assert pair == (0, 1) and dist > 0.0
    assert dist == rkhs_distance(means[0], means[1])


def nearly_coincident_means(delta):
    """Class means of 30 points, the same points moved by delta along the
    first axis, and those moved by 5, with the class-0/2 mixture's test mean
    and the condition number of the proportion system."""
    pts = np.random.default_rng(7).normal(size=(30, 2))
    means = [full_mean(DataSet(p), GAUSS_2D) for p in (pts, pts + [delta, 0.0], pts + 5.0)]
    test = full_mean(DataSet(np.vstack([pts, pts + 5.0])), GAUSS_2D)
    gram = np.array([[mean_inner(a, b) for b in means] for a in means])
    system = gram[:2, :2] - gram[:2, 2][:, None] - gram[2, :2][None, :] + gram[2, 2]
    s = np.linalg.svd(system, compute_uv=False)
    return means, test, s[-1] / s[0]


def test_estimate_solves_a_system_conditioned_above_the_tolerance():
    # Classes 0 and 1 are 1e-3 apart: rcond about 5e-8 lies between 1e-12
    # and 1e-6, so the system is solved, and the mixture's weight goes to
    # class 0 and class 2.
    means, test, rcond = nearly_coincident_means(1e-3)
    assert 1e-12 < rcond < 1e-6
    estimate = estimate_from_means(means, test)
    assert l1_error([0.5, 0.0, 0.5], estimate.pi_hat) < 1e-6


def test_estimate_refuses_a_system_conditioned_below_the_tolerance():
    means, test, rcond = nearly_coincident_means(1e-6)
    assert rcond < 1e-12
    with pytest.raises(SkmError, match="training classes 0 and 1"):
        estimate_from_means(means, test)


def test_estimate_needs_two_classes():
    rng = np.random.default_rng(8)
    train = class_samples(rng, [(0.0, 0.0)], 10)
    with pytest.raises(ValueError):
        estimate_proportions(train, train[0], GAUSS_2D)


# -------------------------------------------------------------------- l1_error

def test_l1_error_examples():
    assert l1_error([0.2, 0.8], [0.2, 0.8]) == 0.0
    assert l1_error([1.0, 0.0], [0.0, 1.0]) == 2.0
    assert_allclose(l1_error([0.5, 0.5], [0.75, 0.25]), 0.5, rtol=1e-15)


def test_l1_error_length_mismatch():
    with pytest.raises(ValueError):
        l1_error([1.0], [0.5, 0.5])


# ------------------------------------------------------------- dirichlet_sample

def test_dirichlet_sample_on_simplex():
    for omega in (0.3, 1.0, 5.0):
        pi = dirichlet_sample(6, omega, seed=1)
        assert abs(pi.sum() - 1.0) <= 1e-12
        assert np.all(pi >= 0.0)


def test_dirichlet_large_omega_concentrates():
    worst = 0.0
    for seed in range(100):
        pi = dirichlet_sample(5, 1e6, seed=seed)
        worst = max(worst, float(np.abs(pi - 0.2).max()))
    assert worst < 0.05


def test_dirichlet_seed_reproducible():
    assert_allclose(dirichlet_sample(4, 0.7, seed=9),
                    dirichlet_sample(4, 0.7, seed=9))


def test_dirichlet_validates_inputs():
    with pytest.raises(ValueError):
        dirichlet_sample(3, 0.0)
    with pytest.raises(ValueError):
        dirichlet_sample(0, 1.0)


@pytest.mark.parametrize("omega, message", [
    (np.inf, "omega must be positive and finite, got inf"),
    (np.nan, "omega must be positive and finite, got nan"),
    (1e308, r"omega 1e\+308 gives a Dirichlet draw off the simplex"),
])
def test_dirichlet_refuses_an_omega_whose_draw_is_off_the_simplex(omega, message):
    # numpy draws NaN weights for omega = inf and all zeros for 1e308; the
    # search once ran on NaN counts or on a 3-point validation mixture.
    with pytest.raises(ValueError, match=message):
        dirichlet_sample(3, omega)
    with pytest.raises(ValueError, match=message):
        search_bandwidth(class_samples(np.random.default_rng(1), [(-2.0, 0.0), (2.0, 0.0)], 20),
                         0.1, 3.0, GAUSS_2D, omega=omega)


@pytest.mark.parametrize("omega", [1e-3, 1.0, 1e300])
def test_dirichlet_draws_lie_on_the_simplex(omega):
    pi = dirichlet_sample(3, omega, seed=2)
    assert np.all(pi >= 0.0)
    assert abs(pi.sum() - 1.0) <= 4 * 3 * np.finfo(np.float64).eps


# ------------------------------------------------------------ bandwidth search

@pytest.mark.parametrize("objective", [lambda x: (x - 0.3) ** 2, lambda x: x, lambda x: -x],
                         ids=["inside", "at-lo", "at-hi"])
def test_golden_section_stops_once_the_bracket_stops_narrowing(objective):
    # In double precision the bracket reaches the spacing of doubles after
    # about 79 evaluations and then cycles, so a max_iter of 10**6 ran a
    # million evaluations; `cpe --search-iters 99999999999999999999` never
    # returned.
    calls = []

    def fn(x):
        calls.append(x)
        return objective(x)

    lo, hi = math.log(0.5), math.log(2.0)
    best, value, evals = _golden_section(fn, lo, hi, max_iter=10**6)
    assert evals == len(calls) < 200
    assert value == min(objective(x) for x in calls)
    assert lo <= best <= hi
    # the default count is spent in full
    assert _golden_section(objective, lo, hi, max_iter=20)[2] == 20


def test_search_bandwidth_returns_sigma_in_range():
    rng = np.random.default_rng(9)
    train = class_samples(rng, [(-4.0, 0.0), (4.0, 0.0)], 80)
    sigma, info = search_bandwidth(train, 0.1, 10.0, GAUSS_2D, max_iter=12,
                                   seed=0)
    assert 0.1 <= sigma <= 10.0
    assert info["validation_l1"] < 0.5


def test_search_bandwidth_sparse_on_two_separated_classes():
    rng = np.random.default_rng(10)
    train = class_samples(rng, [(-4.0, 0.0), (4.0, 0.0)], 80)
    sigma, info = search_bandwidth(train, 0.1, 10.0, GAUSS_2D, sparse=True,
                                   max_iter=12, seed=0)
    assert 0.1 <= sigma <= 10.0
    assert info["validation_l1"] < 0.5


@pytest.mark.parametrize("k_max", [0, -3, 1.5, True])
def test_sparse_fits_reject_a_budget_that_is_not_a_positive_integer(k_max):
    rng = np.random.default_rng(11)
    train = class_samples(rng, [(-4.0, 0.0), (4.0, 0.0)], 30)
    with pytest.raises(ValueError, match="k_max must be an integer"):
        estimate_proportions(train, train[0], GAUSS_2D, sparse=True, k_max=k_max)
    with pytest.raises(ValueError, match="k_max must be an integer"):
        search_bandwidth(train, 0.1, 10.0, GAUSS_2D, sparse=True, k_max=k_max)
    # A budget above a sample's size is clipped to it.
    estimate = estimate_proportions(train, train[0], GAUSS_2D, sparse=True, k_max=1000)
    assert_allclose(estimate.pi_hat, [1.0, 0.0], atol=1e-6)


@pytest.mark.parametrize("lo, hi", [(0.2, 5.0), (0.5, 2.0)])
def test_search_bandwidth_sparse_on_three_large_blobs(lo, hi):
    # With 2000 points per class the farthest-first candidates become
    # numerically dependent on the support at the wider bandwidths tried;
    # each greedy class fit stops at its first dependent candidate instead
    # of failing.
    rng = np.random.default_rng(12)
    train = class_samples(rng, [(0.0, 0.0), (3.0, 0.0), (0.0, 3.0)], 2000, scale=1.0)
    sigma, info = search_bandwidth(train, lo, hi, GAUSS_2D, sparse=True)
    assert lo <= sigma <= hi
    assert info["validation_l1"] < 0.2


def test_search_bandwidth_never_forms_the_test_test_gram_sum(monkeypatch):
    # With sparse class means, the only full-by-full inner product is the
    # test mean with itself, which only the residual needs.
    kinds = []

    def recording(mean_a, mean_b):
        kinds.append((mean_a.diagnostics.method, mean_b.diagnostics.method))
        return mean_inner(mean_a, mean_b)

    monkeypatch.setattr("skm.cpe.mean_inner", recording)
    monkeypatch.setattr("skm.cpe.VALIDATION_SIZE", 300)
    rng = np.random.default_rng(13)
    train = class_samples(rng, [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)], 300, scale=0.8)
    sigma, info = search_bandwidth(train, 0.2, 5.0, GAUSS_2D, sparse=True)
    # The sigma found while every evaluation still paid for the residual.
    assert sigma == pytest.approx(2.343346376913074, rel=1e-12)
    assert kinds and ("full", "full") not in kinds
    test = DataSet(np.vstack([t.points[:50] for t in train]))
    estimate = estimate_from_means([fit(t, GAUSS_2D, k_max=20) for t in train],
                                   full_mean(test, GAUSS_2D))
    assert ("full", "full") not in kinds
    assert estimate.residual >= 0.0  # formed when it is read
    assert kinds[-1] == ("full", "full")


@pytest.mark.parametrize("max_iter", [2, 3, 12])
def test_search_bandwidth_reports_the_evaluations_it_made(max_iter, monkeypatch):
    calls = []

    def counted(pi_true, pi_hat):  # called once per objective evaluation
        calls.append(1)
        return l1_error(pi_true, pi_hat)

    monkeypatch.setattr("skm.cpe.l1_error", counted)
    rng = np.random.default_rng(14)
    train = class_samples(rng, [(-2.0, 0.0), (2.0, 0.0), (0.0, 2.0)], 200)
    _, info = search_bandwidth(train, 0.2, 5.0, GAUSS_2D, max_iter=max_iter)
    assert info["evaluations"] == len(calls) == max_iter


@pytest.mark.parametrize("sparse, k_max, seed", [(True, None, 0), (True, 25, 3), (False, 7, 1)])
def test_search_bandwidth_runs_the_cpe_estimator_once_per_evaluation(sparse, k_max, seed,
                                                                      monkeypatch):
    import skm.cpe

    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return estimate_proportions(*args, **kwargs)

    def no_fixed_support(*args, **kwargs):
        raise AssertionError("the search selected a support outside the greedy fit")

    monkeypatch.setattr(skm.cpe, "estimate_proportions", spy)
    monkeypatch.setattr("skm.kcenter.kcenter_greedy", no_fixed_support)
    rng = np.random.default_rng(14)
    train = class_samples(rng, [(-2.0, 0.0), (2.0, 0.0), (0.0, 2.0)], 200)
    _, info = search_bandwidth(train, 0.2, 5.0, GAUSS_2D, sparse=sparse, k_max=k_max,
                               max_iter=5, seed=seed)
    assert len(calls) == info["evaluations"] == 5
    assert all(c == {"sparse": sparse, "epsilon": 0.0, "k_max": k_max, "seed": seed}
               for c in calls)


def test_search_bandwidth_gives_no_warning_on_fewer_distinct_points_than_the_budget():
    # 5 distinct points per class, each repeated 40 times: the default
    # budget of the 100-point fit halves is 30, and each greedy fit stops
    # once its support covers every point.
    rng = np.random.default_rng(15)
    train = [DataSet(np.tile(c + rng.standard_normal((5, 2)), (40, 1)), name=f"class{i}")
             for i, c in enumerate([(-3.0, 0.0), (3.0, 0.0)])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigma, info = search_bandwidth(train, 0.2, 5.0, GAUSS_2D, sparse=True, max_iter=6)
    assert 0.2 <= sigma <= 5.0
    assert info["evaluations"] == 6


@pytest.mark.parametrize("max_iter", [1, 0, -5, 2.5, True])
def test_search_bandwidth_rejects_fewer_than_two_evaluations(max_iter):
    # A fractional count is refused too, rather than rounded up to 3.
    rng = np.random.default_rng(14)
    train = class_samples(rng, [(-2.0, 0.0), (2.0, 0.0), (0.0, 2.0)], 200)
    with pytest.raises(ValueError, match=r"max_iter must be an integer with max_iter >= 2, the "
                                         rf"first bracket \(max_iter={max_iter!r}\)$"):
        search_bandwidth(train, 0.2, 5.0, GAUSS_2D, max_iter=max_iter)


def test_search_bandwidth_validates_interval():
    rng = np.random.default_rng(11)
    train = class_samples(rng, [(-1.0, 0.0), (1.0, 0.0)], 20)
    with pytest.raises(ValueError):
        search_bandwidth(train, 2.0, 1.0, GAUSS_2D)


@pytest.mark.parametrize("lo, hi, name", [
    (0.1, np.inf, "hi"), (np.nan, 1.0, "lo"), (0.1, np.nan, "hi"), (-np.inf, 1.0, "lo"),
])
def test_search_bandwidth_names_a_non_finite_bound(lo, hi, name, monkeypatch):
    # Refused before any objective: hi = inf once reached a fit as sigma =
    # exp(nan), whose error named neither the bound nor the search.
    import skm.cpe

    monkeypatch.setattr(skm.cpe, "full_mean", None)  # no fit may start
    train = class_samples(np.random.default_rng(12), [(-1.0, 0.0), (1.0, 0.0)], 20)
    with pytest.raises(ValueError, match=f"bound {name} must be finite"):
        search_bandwidth(train, lo, hi, GAUSS_2D)
