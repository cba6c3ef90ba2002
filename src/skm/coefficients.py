"""Optimal coefficients for a growing support set, from a pivoted Cholesky factor.

For support sections z_i = phi(., x_i) the best least-squares weights for
approximating the sample mean zbar = (1/n) sum_j z_j are

    alpha = K^{-1} kappa,   K_il = <z_i, z_l>,   kappa_l = (1/n) sum_j <z_j, z_l>.

Adding a support point is one step of partial pivoted Cholesky. With b the
inner products between the new section and the current support and
w = L^{-1} b, the lower factor L of K gains the row [w', sqrt(p)], where
the pivot p = g(0) - w'w is the Schur complement of K in the bordered Gram
matrix. The state carries v = L^{-1} kappa instead of alpha; it gains the
one entry

    v_m = (kappa_new - w'v) / sqrt(p),

so a step costs one triangular solve, O(m^2), plus kappa_new, an O(n)
kernel row mean. The step itself is one call of `_backend.factor_order`,
one of the backend's three primitives, on the support and the new point:
it forms b from their coordinates, solves for w and writes the new row of
L. kappa_new is c/n times the Gram shape summed over the squared
distances from the new point to every point, which the greedy fit's
farthest-first scan returns from the same pass that picks the point. A
fixed order of candidates is factored by one call of the same primitive
on the whole order instead (`factor`); one block sum gives kappa of the
kept points, and one more triangular solve gives v. The quantity E_m =
-alpha' kappa = -||v||^2 equals the squared approximation error minus
the constant ||zbar||^2 and drives the stopping rule. It is kept as E_m =
E_{m-1} - v_m^2, which never rises in floating point either. The weights
alpha = L^{-T} v cost one more triangular solve when read, and K^{-1} is
never formed.
"""

import numpy as np
from scipy.linalg import blas

from . import _backend
from .errors import NearSingularError
from .kernels import block_sums, g_zero, gram_params

# Pivots at or below this fraction of g(0) signal a (near-)dependent
# support section. A pivot p bounds the condition number of K below by
# g(0)/p, so below ~1e-9 the weights L^{-T} v carry rounding error
# amplified by ~1e9 and degrade within a few further steps.
SINGULARITY_REL_TOL = 1e-9


class CholeskyWeights:
    """Support, Cholesky factor, kappa, v = L^{-1} kappa and E trace, filled in place.

    Row i of the lower factor is stored at offset i(i+1)/2 of one flat
    buffer, so the leading m rows are a contiguous packed triangle that
    BLAS solves against without a copy. The support's coordinates are kept
    row by row beside it, for the backend to form Gram rows from. The
    support, kappa, v, E and pivot buffers are allocated once, for
    `capacity` support points, and a full state rejects a further point.
    The factor alone doubles as the support grows, up to the capacity, so
    its memory is O(m^2) for m support points whatever the budget.
    """

    def __init__(self, data, spec, capacity: int):
        self.c = g_zero(spec)
        if not self.c > 0.0:
            raise ValueError(f"g(0) must be positive, got {self.c}")
        self.points = np.ascontiguousarray(data.points, dtype=np.float64)
        self.params = gram_params(spec)
        # The Gram shape without its constant c, as the scan sums it for extend.
        self.shape = tuple(self.params[:3])
        self.threshold = SINGULARITY_REL_TOL * self.c
        self.capacity = int(capacity)
        self.m = 0
        cap = self.capacity
        self._support = np.empty((cap, self.points.shape[1]))
        self._packed = np.empty(0)  # grown by extend, or set by factor
        self._pivots, self._kappa, self._v, self._e = (np.empty(cap) for _ in range(4))
        self._indices = np.empty(cap, dtype=np.int64)

    @property
    def indices(self) -> np.ndarray:
        return self._indices[:self.m]

    @property
    def kappa(self) -> np.ndarray:
        return self._kappa[:self.m]

    @property
    def pivots(self) -> np.ndarray:
        """The Cholesky pivot of each support point."""
        return self._pivots[:self.m]

    @property
    def e_trace(self) -> np.ndarray:
        """E_1 .. E_m, E_t = -alpha' kappa = -||v||^2 at support size t."""
        return self._e[:self.m]

    @property
    def alpha(self) -> np.ndarray:
        """Weights K^{-1} kappa = L^{-T} v, by one triangular solve."""
        m = self.m
        if m == 0:
            return np.empty(0)
        # The packed rows of L are the packed columns of the upper factor
        # L', so trans=0 solves L' alpha = v (and trans=1 solves L w = b).
        return blas.dtpsv(m, self._packed[:m * (m + 1) // 2], self._v[:m], trans=0)

    def extend(self, j: int, shape_sum: float) -> float:
        """Add support point j by one pivoted Cholesky step; return the new E_m.

        The step is one `_backend.factor_order` call on the support and
        point j, which forms j's Gram row and writes the new row [w',
        sqrt(pivot)] of the factor. Raises NearSingularError, leaving the
        state unchanged, when the pivot falls to the singularity tolerance
        (e.g. an index already in the support, or a duplicate of a support
        point). Otherwise kappa_j = (1/n) sum_l <z_l, z_j> = c * shape_sum /
        n, where shape_sum is the Gram shape `self.shape` summed over the
        squared distances from point j to every point, as
        `FarthestFirst.add(j, self.shape)` returns it. A full state raises
        ValueError, also unchanged.
        """
        j = int(j)
        m = self.m
        if m == self.capacity:
            raise ValueError(f"the weight state is full ({m} support points)")
        self._support[m] = self.points[j]
        row = m * (m + 1) // 2
        if row + m + 1 > self._packed.shape[0]:  # double the factor, up to the capacity
            rows = min(self.capacity, max(16, 2 * m))
            packed = np.empty(rows * (rows + 1) // 2)
            packed[:row] = self._packed[:row]
            self._packed = packed
        kept = _backend.factor_order(self._support[:m + 1], *self.params, self.threshold, m,
                                     self._packed[:row + m + 1], self._pivots[:m + 1])
        if kept == m:
            raise NearSingularError(
                f"support point {j} is numerically dependent on the "
                f"current support (pivot {self._pivots[m]:.3e})"
            )
        w, root = self._packed[row:row + m], self._packed[row + m]
        self._kappa[m] = self.params.c * shape_sum / self.points.shape[0]
        v_new = (self._kappa[m] - float(w @ self._v[:m])) / root
        e_new = float((self._e[m - 1] if m else 0.0) - v_new * v_new)
        self._indices[m] = j
        self._v[m] = v_new
        self._e[m] = e_new
        self.m = m + 1
        return e_new

    def factor(self, order):
        """Factor the support along `order` in one backend call.

        The state must be empty, with capacity len(order); otherwise
        ValueError leaves it unchanged. The result is that of `extend` along
        order, each candidate that raises NearSingularError dropped: both
        are `_backend.factor_order`, here on the whole order at once, into
        the state's own buffers. kappa of the kept points comes from one
        block sum once every pivot is known, so a dropped point costs no
        kernel row mean. Returns the kept mask over order. The work is
        O(m^3 / 3) flops and O(md) memory besides the factor.
        """
        order = np.asarray(order, dtype=np.int64)
        m, n = order.shape[0], self.points.shape[0]
        if self.m or m != self.capacity:
            raise ValueError(f"factor needs an empty state of capacity {m} "
                             f"(m={self.m}, capacity={self.capacity})")
        support = self._support
        np.take(self.points, order, axis=0, out=support)
        self._packed = np.empty(m * (m + 1) // 2)
        k = _backend.factor_order(support, *self.params, self.threshold, 0, self._packed,
                                  self._pivots)
        kept = self._pivots > self.threshold
        support[:k] = support[kept]
        self._pivots[:k] = self._pivots[kept]
        self._indices[:k] = order[kept]
        self._kappa[:k] = block_sums(self.params, support[:k], self.points, np.full(n, 1.0 / n))
        if k:
            self._v[:k] = blas.dtpsv(k, self._packed[:k * (k + 1) // 2], self._kappa[:k], trans=1)
        # E_m = E_{m-1} - v_m^2, summed in the same order as extend.
        self._e[:k] = -np.cumsum(self._v[:k] * self._v[:k])
        self.m = k
        return kept


def progress_ratio(e_first: float, e_prev: float, e_last: float) -> float:
    """|E_{m-1} - E_m| / |E_1 - E_m|; a flat trace (E_1 == E_m) gives 0."""
    den = abs(e_first - e_last)
    return 0.0 if den == 0.0 else abs(e_prev - e_last) / den


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
