"""Optimal coefficients for a growing support set, from a pivoted Cholesky factor.

For support sections z_i = phi(., x_i) the best least-squares weights for
approximating the sample mean zbar = (1/n) sum_j z_j are

    alpha = K^{-1} kappa,   K_il = <z_i, z_l>,   kappa_l = (1/n) sum_j <z_j, z_l>.

Adding a support point is one step of partial pivoted Cholesky. With b the
inner products between the new section and the current support and
w = L^{-1} b, the lower factor L of K gains the row [w', sqrt(p)], where
the pivot p = g(0) - w'w is the Schur complement of K in the bordered Gram
matrix. The weights follow by the bordered update

    alpha <- [alpha - t u; t],   u = K^{-1} b = L^{-T} w,
    t = (kappa_new - b' alpha) / p,

so a step costs two triangular solves, O(m^2), plus the O(nd) kappa scan.
K^{-1} is never formed; `inv_k` derives it from the factor on request.
The quantity E_m = -alpha' kappa equals the squared approximation error
minus the constant ||zbar||^2; it is nonincreasing in m and drives the
stopping rule.
"""

import math

import numpy as np
from scipy.linalg import blas, cho_solve

from . import _backend
from .errors import ConvergenceError, NearSingularError
from .kernels import g_zero, gram_at_dist, gram_params

# Pivots at or below this fraction of g(0) signal a (near-)dependent
# support section. Below ~1e-9 the bordered update amplifies rounding error
# by ~1e9 and the weight vector degrades within a few further steps.
SINGULARITY_REL_TOL = 1e-9

# Computed error indicators must not rise; an increase beyond this relative
# slack means the factor has lost accuracy.
_E_INCREASE_REL_TOL = 1e-12


def kappa_entry(data, spec, j: int) -> float:
    """(1/n) sum_l <z_l, z_j>, one O(nd) scan."""
    pts = np.ascontiguousarray(data.points, dtype=np.float64)
    kind, a, b, c = gram_params(spec)
    return _backend.mean_gram(pts, pts[int(j)], kind, a, b, c)


class CholeskyWeights:
    """Support, Cholesky factor, kappa, weights and error trace, grown in place.

    Row i of the lower factor is stored at offset i(i+1)/2 of one flat
    buffer, so the leading m rows are a contiguous packed triangle that
    BLAS solves against without a copy. All buffers double when full, so
    memory stays O(m^2) for m support points whatever the budget.
    """

    def __init__(self, data, spec):
        self.c = g_zero(spec)
        if not self.c > 0.0:
            raise ValueError(f"g(0) must be positive, got {self.c}")
        self.data = data
        self.points = np.ascontiguousarray(data.points, dtype=np.float64)
        self.spec = spec
        self.m = 0
        self.alpha = np.empty(0)
        self._packed = np.empty(16 * 17 // 2)
        self._indices = np.empty(16, dtype=np.int64)
        self._kappa = np.empty(16)
        self._e = np.empty(16)

    @property
    def indices(self) -> np.ndarray:
        return self._indices[:self.m]

    @property
    def kappa(self) -> np.ndarray:
        return self._kappa[:self.m]

    @property
    def e_trace(self) -> np.ndarray:
        """E_1 .. E_m, E_t = -alpha' kappa at support size t."""
        return self._e[:self.m]

    @property
    def inv_k(self) -> np.ndarray:
        """Inverse support Gram matrix, derived from the factor in O(m^3)."""
        m = self.m
        lower = np.zeros((m, m))
        lower[np.tril_indices(m)] = self._packed[:m * (m + 1) // 2]
        inv = cho_solve((lower, True), np.eye(m), check_finite=False)
        return 0.5 * (inv + inv.T)

    def extend(self, j: int) -> float:
        """Add support point j by one pivoted Cholesky step; return its pivot.

        Raises NearSingularError, leaving the state unchanged, when the
        pivot falls to the singularity tolerance (e.g. a duplicate support
        point), or when the step would raise the error indicator, which is
        impossible in exact arithmetic and therefore signals numerical
        breakdown.
        """
        j = int(j)
        m, row = self.m, self.m * (self.m + 1) // 2
        if np.any(self.indices == j):
            raise ValueError(f"index {j} is already in the support")
        b = gram_at_dist(self.spec, np.linalg.norm(self.points[self.indices] - self.points[j], axis=1))
        # The packed rows of L are the packed columns of the upper factor
        # L', so trans=1 solves L w = b and trans=0 solves L' u = w.
        w = blas.dtpsv(m, self._packed[:row], b, trans=1) if m else b
        pivot = self.c - float(w @ w)
        if pivot <= SINGULARITY_REL_TOL * self.c:
            raise NearSingularError(
                f"support point {j} is numerically dependent on the "
                f"current support (pivot {pivot:.3e})"
            )
        if m == self._indices.shape[0]:  # full: double every buffer
            cap = 2 * m
            self._packed = np.resize(self._packed, cap * (cap + 1) // 2)
            self._indices, self._kappa, self._e = (
                np.resize(a, cap) for a in (self._indices, self._kappa, self._e))
        self._kappa[m] = kappa_entry(self.data, self.spec, j)
        u = blas.dtpsv(m, self._packed[:row], w, trans=0) if m else w
        t = (self._kappa[m] - float(b @ self.alpha)) / pivot
        alpha = np.append(self.alpha - t * u, t)
        e_new = -float(alpha @ self._kappa[:m + 1])
        e_old = float(self._e[m - 1]) if m else math.inf
        if e_new > e_old + _E_INCREASE_REL_TOL * max(1.0, abs(e_old)):
            raise NearSingularError(
                f"adding support point {j} would raise the error "
                f"indicator ({e_old:.12e} -> {e_new:.12e}); the update is no "
                "longer numerically accurate"
            )
        self._packed[row:row + m] = w
        self._packed[row + m] = math.sqrt(pivot)
        self._indices[m] = j
        self._e[m] = e_new
        self.alpha = alpha
        self.m = m + 1
        return pivot


def progress_ratio(e_first: float, e_prev: float, e_last: float) -> float:
    """|E_{m-1} - E_m| / |E_1 - E_m|; a flat trace (E_1 == E_m) gives 0."""
    den = abs(e_first - e_last)
    return 0.0 if den == 0.0 else abs(e_prev - e_last) / den


def stop_rule(e_trace, epsilon: float) -> bool:
    """Relative-progress test |E_{m-1} - E_m| / |E_1 - E_m| <= epsilon.

    A flat trace (E_1 == E_m) defines the ratio as 0, i.e. stop: nothing is
    being gained.
    """
    e_trace = np.asarray(e_trace, dtype=np.float64)
    if e_trace.shape[0] < 2:
        raise ValueError("stop rule needs at least two error values")
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    ratio = progress_ratio(float(e_trace[0]), float(e_trace[-2]), float(e_trace[-1]))
    return ratio <= epsilon


def solve_direct(gram, kappa, tol: float = 1e-10, max_iter=None):
    """Solve K alpha = kappa for a symmetric PSD Gram matrix.

    Jacobi-preconditioned conjugate gradients; a dense solve is the
    fallback for small systems when CG stalls. Guarantees
    ||K alpha - kappa|| <= tol * ||kappa|| or raises ConvergenceError.
    """
    K = np.asarray(gram, dtype=np.float64)
    kappa = np.asarray(kappa, dtype=np.float64).ravel()
    m = kappa.shape[0]
    if K.shape != (m, m):
        raise ValueError(f"gram has shape {K.shape}, expected ({m}, {m})")
    if not np.allclose(K, K.T, rtol=1e-10, atol=1e-12):
        raise ValueError("gram matrix is not symmetric")
    if max_iter is None:
        max_iter = 10 * m
    knorm = float(np.linalg.norm(kappa))
    if knorm == 0.0:
        return np.zeros(m)

    diag = np.diagonal(K).copy()
    precond = np.where(diag > 0, 1.0 / np.where(diag > 0, diag, 1.0), 1.0)

    x = np.zeros(m)
    r = kappa.copy()
    z = precond * r
    p = z.copy()
    rz = float(r @ z)
    for _ in range(max_iter):
        if np.linalg.norm(r) <= tol * knorm:
            return x
        Kp = K @ p
        pKp = float(p @ Kp)
        if pKp <= 0.0:
            break  # lost positive definiteness; try the dense fallback
        step = rz / pKp
        x += step * p
        r -= step * Kp
        z = precond * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    residual = float(np.linalg.norm(K @ x - kappa))
    if residual <= tol * knorm:
        return x
    if m <= 64:
        try:
            x = np.linalg.solve(K, kappa)
        except np.linalg.LinAlgError:
            x = None
        if x is not None:
            residual = float(np.linalg.norm(K @ x - kappa))
            if residual <= tol * knorm:
                return x
    raise ConvergenceError(
        f"linear solve did not reach tol={tol} (residual {residual:.3e})",
        residual=residual,
    )


def project_simplex(values):
    """Euclidean projection onto {v : sum v_i = 1, v_i >= 0}.

    Sort-based O(k log k) algorithm: pivot on the largest prefix whose
    shifted entries stay positive.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("cannot project an empty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot project a vector with non-finite entries")
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u)
    ranks = np.arange(1, v.size + 1)
    positive = u - (cumulative - 1.0) / ranks > 0.0
    rho = int(np.nonzero(positive)[0][-1])
    theta = (cumulative[rho] - 1.0) / (rho + 1)
    return np.maximum(v - theta, 0.0)
