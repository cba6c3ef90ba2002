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
kernel row mean. The whole greedy fit is one backend call,
`_backend.greedy_fit` (`greedy`), which grows the packed factor itself:
each step's farthest-first scan also sums the Gram shape over the
squared distances from the new point to every point, which gives
kappa_new = c/n times that sum, and its factor step forms b, solves for
w and writes the new row of L as `_backend.factor_order` does. A fixed
order of candidates is factored by one `factor_order` call on the whole
order instead (`factor`); one block sum gives kappa of the kept points,
and one `_backend.tri_solve` gives v. The quantity E_m = -alpha' kappa =
-||v||^2 equals the squared approximation error minus the constant
||zbar||^2 and drives the stopping rule. It is kept as E_m = E_{m-1} - v_m^2, which
never rises in floating point either. The weights alpha = L^{-T} v cost
one more `tri_solve` when read, and K^{-1} is never formed.
"""

import numpy as np

from . import _backend
from ._backend._numpy_impl import RECORD_ROWS
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
    `_backend.tri_solve` solves against without a copy. The support
    indices and the record buffers are allocated once, for `capacity`
    support points: one array with a row per RECORD_ROWS entry, each
    point's pivot, kappa, v, E and, in a greedy fit, the coverage radius
    and the seconds after its step. The factor is the backend's: a greedy
    fit grows it as the support grows and returns its m kept rows, so its
    memory is O(m^2) for m support points whatever the budget.
    """

    def __init__(self, data, spec, capacity: int):
        self.c = g_zero(spec)
        if not self.c > 0.0:
            raise ValueError(f"g(0) must be positive, got {self.c}")
        self.points = np.ascontiguousarray(data.points, dtype=np.float64)
        self.params = gram_params(spec)
        self.threshold = SINGULARITY_REL_TOL * self.c
        self.capacity = int(capacity)
        self.m = 0
        cap = self.capacity
        self._packed = np.empty(0)  # set by greedy or factor
        self._record = np.empty((len(RECORD_ROWS), cap))
        self._pivots, self._kappa, self._v, self._e, self.radii, self.seconds = self._record
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
        alpha = self._v[:m].copy()
        _backend.tri_solve(self._packed[:m * (m + 1) // 2], alpha, 1)
        return alpha

    def greedy(self, first: int, epsilon: float):
        """Grow an empty state along the farthest-first order from point `first`.

        One `_backend.greedy_fit` call runs the whole fit. It stops at the
        capacity, at a progress ratio |E_{m-1} - E_m| / |E_1 - E_m| at most
        epsilon, at coverage radius 0, or at a candidate whose pivot is at
        most the singularity threshold, which is not kept. Fills the state
        and its radii and seconds, and returns (stop, cand): the name of the
        test that held, and the dependent candidate or the next farthest
        point.
        """
        if self.m:
            raise ValueError(f"greedy needs an empty state (m={self.m})")
        self.m, cand, stop, packed = _backend.greedy_fit(
            self.points, *self.params, self.threshold, epsilon, first, self._indices,
            self._record)
        self._packed = np.frombuffer(packed)
        return stop, cand

    def factor(self, order):
        """Factor the support along `order` in one backend call.

        The state must be empty, with capacity len(order); otherwise
        ValueError leaves it unchanged. A candidate is kept when its pivot
        exceeds the singularity threshold, and a dependent one is dropped,
        with its pivot as `_backend.factor_order` forms it, in one call on
        the whole order into the state's own buffers, so the factor and
        pivots are those of the greedy fit's factor steps along the same
        order. kappa of the kept points comes from one block sum once
        every pivot is known, so a dropped point costs no kernel row mean.
        Returns the kept mask over order. The work is O(m^3 / 3) flops and
        O(md) memory besides the factor.
        """
        order = np.asarray(order, dtype=np.int64)
        m, n = order.shape[0], self.points.shape[0]
        if self.m or m != self.capacity:
            raise ValueError(f"factor needs an empty state of capacity {m} "
                             f"(m={self.m}, capacity={self.capacity})")
        support = self.points[order]
        self._packed = np.empty(m * (m + 1) // 2)
        k = _backend.factor_order(support, *self.params, self.threshold, self._packed,
                                  self._pivots)
        kept = self._pivots > self.threshold
        support[:k] = support[kept]
        self._pivots[:k] = self._pivots[kept]
        self._indices[:k] = order[kept]
        self._kappa[:k] = block_sums(self.params, support[:k], self.points, np.full(n, 1.0 / n))
        self._v[:k] = self._kappa[:k]
        _backend.tri_solve(self._packed[:k * (k + 1) // 2], self._v[:k], 0)
        # E_m = E_{m-1} - v_m^2, summed in the same order as the greedy steps.
        self._e[:k] = -np.cumsum(self._v[:k] * self._v[:k])
        self.m = k
        return kept


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
