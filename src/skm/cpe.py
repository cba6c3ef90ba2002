"""Class proportion estimation from kernel mean embeddings.

A test sample drawn from a mixture sum_i pi_i P_i of N known class
distributions is matched to the classes by least squares in the embedding
space: minimizing ||test_mean - sum_i pi_i class_mean_i||^2 subject to
sum pi_i = 1 reduces to an (N-1) x (N-1) linear system in the differences
against the last class mean. Nonnegativity is restored afterwards by
simplex projection when needed.
"""

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .divergences import _rkhs_from_inners, _split_even_odd, fit_sample_means, mean_inner
from .errors import SkmError
from .kcenter import _integer_in
from .kernels import RadialKernelSpec
from .sparse_mean import full_mean, project_simplex

logger = logging.getLogger(__name__)

RCOND_TOL = 1e-12

# Points in the bandwidth search's validation mixture, at most.
VALIDATION_SIZE = 1000


@dataclass(frozen=True)
class ProportionEstimate:
    """Estimated mixture weights with solve diagnostics."""

    pi_hat: np.ndarray
    was_projected: bool
    # (test mean, its inner products with the class means, the class Gram
    # matrix): what the residual needs besides pi_hat.
    _terms: tuple = field(repr=False, compare=False)

    @cached_property
    def residual(self) -> float:
        """||test_mean - sum_i pi_i class_mean_i||^2, floored at 0.

        Computed on first read: its test-test Gram sum costs O(n_test^2)
        kernel values, which a bandwidth search has no use for.
        """
        test_mean, test_inner, gram = self._terms
        value = (mean_inner(test_mean, test_mean) - 2.0 * float(self.pi_hat @ test_inner)
                 + float(self.pi_hat @ gram @ self.pi_hat))
        return max(value, 0.0)


def l1_error(pi_true, pi_hat) -> float:
    """sum_i |pi_i - pi_hat_i|."""
    pi_true = np.asarray(pi_true, dtype=np.float64).ravel()
    pi_hat = np.asarray(pi_hat, dtype=np.float64).ravel()
    if pi_true.shape != pi_hat.shape:
        raise ValueError(
            f"length mismatch: {pi_true.shape[0]} vs {pi_hat.shape[0]}"
        )
    return float(np.abs(pi_true - pi_hat).sum())


def dirichlet_sample(n_classes: int, omega: float, seed: int = 0) -> np.ndarray:
    """One draw from the symmetric Dirichlet(omega) law, refused when off the simplex."""
    if n_classes < 1:
        raise ValueError("n_classes must be at least 1")
    if not 0 < omega < math.inf:
        raise ValueError(f"omega must be positive and finite, got {omega}")
    rng = np.random.default_rng(seed)
    pi = rng.dirichlet(np.full(n_classes, float(omega)))
    ulp = np.finfo(np.float64).eps
    if not (np.all(pi >= 0.0) and abs(float(pi.sum()) - 1.0) <= 4 * n_classes * ulp):
        raise ValueError(f"omega {omega} gives a Dirichlet draw off the simplex: {pi}")
    return pi


def _rcond(matrix: np.ndarray) -> float:
    s = np.linalg.svd(matrix, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0.0
    return float(s[-1] / s[0])


def _closest_pair(gram):
    """The closest pair (i, j), i < j, of class means and its distance, from their Gram matrix."""
    best = (0, 1)
    best_d = math.inf
    for i in range(gram.shape[0]):
        for j in range(i + 1, gram.shape[0]):
            d = _rkhs_from_inners(gram[i, i], gram[i, j], gram[j, j])
            if d < best_d:
                best_d = d
                best = (i, j)
    return best, best_d


def estimate_from_means(train_means, test_mean) -> ProportionEstimate:
    """Solve the proportion system for already-fitted class and test means."""
    n_classes = len(train_means)
    if n_classes < 2:
        raise ValueError("need at least 2 training classes")
    gram = np.empty((n_classes, n_classes))
    for i in range(n_classes):
        for j in range(i, n_classes):
            gram[i, j] = gram[j, i] = mean_inner(train_means[i], train_means[j])
    test_inner = np.array([mean_inner(m, test_mean) for m in train_means])

    # Differences against the last class mean.
    last = n_classes - 1
    d_hat = (
        gram[:last, :last]
        - gram[:last, last][:, None]
        - gram[last, :last][None, :]
        + gram[last, last]
    )
    e_hat = test_inner[:last] - gram[:last, last] - test_inner[last] + gram[last, last]

    rcond = _rcond(d_hat)
    if rcond < RCOND_TOL:
        (i, j), dist = _closest_pair(gram)
        raise SkmError(
            f"proportion system is singular (rcond {rcond:.2e}); training "
            f"classes {i} and {j} have nearly identical embeddings "
            f"(distance {dist:.3e})"
        )
    pi_minus = np.linalg.solve(d_hat, e_hat)
    pi_hat = np.append(pi_minus, 1.0 - float(pi_minus.sum()))

    was_projected = False
    if np.any(pi_hat < 0.0):
        pi_hat = project_simplex(pi_hat)
        was_projected = True
    return ProportionEstimate(pi_hat, was_projected, (test_mean, test_inner, gram))


def estimate_proportions(train, test, spec: RadialKernelSpec, sparse: bool = False,
                         epsilon: float = 1e-10, k_max=None, seed: int = 0) -> ProportionEstimate:
    """Estimate the mixture weights of `test` over the `train` classes.

    With sparse=True the class embeddings are sparsified; the test
    embedding stays full, since the train-test inner products are already
    cheap once the class side is sparse. Sparsify the test yourself and
    call estimate_from_means for full control.
    """
    train = list(train)
    if len(train) < 2:
        raise ValueError("need at least 2 training samples")
    means, _ = fit_sample_means(train, spec, "rkhs", sparse=sparse, k_max=k_max,
                                epsilon=epsilon, seed=seed)
    return estimate_from_means(means, full_mean(test, spec))


def _golden_section(fn, lo: float, hi: float, max_iter: int):
    """Deterministic golden-section minimizer on [lo, hi] in max(2, max_iter) evaluations.

    The bracket shrinks by 0.618 per evaluation until it nears the spacing
    of doubles, where rounding stops it narrowing and its state cycles (on
    [log 0.5, log 2], after about 79 evaluations). The search stops at the
    first evaluation that leaves the bracket no narrower, so a huge max_iter
    ends there. Returns the best point, its value and the number of
    evaluations made.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    evals = 2
    width = math.inf
    while evals < max_iter and b - a < width:
        width = b - a
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
        evals += 1
    return ((c, fc) if fc <= fd else (d, fd)) + (evals,)


def _apportion(pi, total: int) -> np.ndarray:
    """Largest-remainder rounding of pi * total to integer counts."""
    raw = np.asarray(pi, dtype=np.float64) * total
    counts = np.floor(raw).astype(int)
    shortfall = total - int(counts.sum())
    if shortfall > 0:
        order = np.argsort(-(raw - counts))
        counts[order[:shortfall]] += 1
    return counts


def search_bandwidth(train, lo: float, hi: float, spec_template: RadialKernelSpec,
                     sparse: bool = False, k_max=None, max_iter: int = 20,
                     seed: int = 0, omega: float = 1.0):
    """Pick a Gaussian bandwidth by minimizing validation recovery error.

    Each training sample is interleave-split; the even halves become the
    class samples and a mixture with known Dirichlet(omega) weights, of at
    most VALIDATION_SIZE points, is assembled from the odd halves.
    Golden-section search over log sigma minimizes the l1 distance between
    the known weights and the estimate.

    Each sigma is one `estimate_proportions` call at epsilon = 0, so each
    sparse class fit runs greedily to its budget or its first dependent
    candidate. The support does not depend on sigma, but re-selecting it is
    free: the O(nd) scan per kept point that selects it also forms kappa.
    """
    if spec_template.family != "gaussian":
        raise ValueError("bandwidth search applies to gaussian kernels only")
    for name, bound in (("lo", lo), ("hi", hi)):
        if not math.isfinite(bound):
            raise ValueError(f"bandwidth search bound {name} must be finite, got {bound}")
    if not 0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")
    max_iter = _integer_in("max_iter", max_iter, 2, math.inf, "max_iter >= 2, the first bracket")
    train = list(train)
    n_classes = len(train)
    if n_classes < 2:
        raise ValueError("need at least 2 training samples")

    from .dataio import DataSet

    rng = np.random.default_rng(seed)
    fit_sets, holdout = [], []
    for sample in train:
        pts = np.asarray(sample.points, dtype=np.float64)
        if pts.shape[0] < 4:
            raise ValueError(f"sample {sample.name!r} too small to split")
        fit_half, pool = _split_even_odd(pts)
        fit_sets.append(DataSet(fit_half, name=sample.name))
        holdout.append(pool[rng.permutation(pool.shape[0])])

    pi_true = dirichlet_sample(n_classes, omega, seed=seed)
    budget = min(VALIDATION_SIZE, sum(h.shape[0] for h in holdout))
    counts = _apportion(pi_true, budget)
    counts = np.minimum(counts, [h.shape[0] for h in holdout])
    pi_true = counts / counts.sum()  # realized mixture weights
    validation = DataSet(
        np.vstack([h[:c] for h, c in zip(holdout, counts) if c > 0]),
        name="validation-mixture",
    )

    def objective(log_sigma: float) -> float:
        spec = spec_template.with_sigma(math.exp(log_sigma))
        estimate = estimate_proportions(fit_sets, validation, spec, sparse=sparse, epsilon=0.0,
                                        k_max=k_max, seed=seed)
        return l1_error(pi_true, estimate.pi_hat)

    best_log, best_err, evals = _golden_section(objective, math.log(lo), math.log(hi),
                                                max_iter=max_iter)
    sigma = math.exp(best_log)
    logger.info("bandwidth search: sigma=%.6g validation l1=%.4g", sigma, best_err)
    return sigma, {"validation_l1": best_err, "pi_true": pi_true,
                   "evaluations": evals}
