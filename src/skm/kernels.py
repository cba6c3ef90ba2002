"""Radial kernels: profiles, kernel sums, section inner products, bandwidths.

A radial kernel has the form phi(x, x') = c * shape(||x - x'||_2). The
constant c is either 1 ("unit" normalization) or chosen so that
phi(., x') integrates to one over R^d ("density" normalization). Sections
phi(., x) live in an inner product space: the kernel's own RKHS ("rkhs"
mode, where <phi(., x), phi(., x')> = phi(x, x') by reproduction) or
L2(R^d) ("l2" mode, restricted to the families with a closed-form L2
inner product: the Gaussian, and the Student family at the Cauchy
exponent (1 + d) / 2).

In every supported case the inner product depends on the anchor points
only through their distance, <phi(., x), phi(., x')> = g(||x - x'||) with
g strictly decreasing, and g(0) = C > 0 is constant over anchors.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import _backend
from ._backend._numpy_impl import (
    _BLOCK_ENTRIES,
    SHAPE_EXP,
    SHAPE_POWER,
    SHAPE_SQEXP,
    _apply_shape,
    _distances,
)
from .errors import DegenerateDataError, KernelSpecError

FAMILIES = ("gaussian", "laplacian", "student")
NORMALIZATIONS = ("unit", "density")
SPACES = ("rkhs", "l2")

# The most points whose pairwise distances bandwidth_jaakkola forms.
JAAKKOLA_SUBSAMPLE = 2000

# Parameters each family accepts in the spec grammar.
_FAMILY_PARAMS = {
    "gaussian": ("sigma",),
    "laplacian": ("gamma",),
    "student": ("alpha", "beta"),
}


class ShapeParams(NamedTuple):
    """A radial profile c * shape_kind(r), kind one of the SHAPE_* codes."""

    kind: int
    a: float
    b: float
    c: float


@dataclass(frozen=True)
class RadialKernelSpec:
    """Kernel family, parameters, normalization and inner-product space.

    dim is the ambient dimension of the anchor points; it enters the
    density-normalization constants and the L2 closed forms.
    """

    family: str
    dim: int
    sigma: float | None = None
    gamma: float | None = None
    alpha: float | None = None
    beta: float | None = None
    normalization: str = "unit"
    space: str = "rkhs"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise KernelSpecError(f"unknown kernel family {self.family!r}")
        if self.normalization not in NORMALIZATIONS:
            raise KernelSpecError(f"unknown normalization {self.normalization!r}")
        if self.space not in SPACES:
            raise KernelSpecError(f"unknown space {self.space!r}")
        if int(self.dim) != self.dim or self.dim < 1:
            raise KernelSpecError(f"dimension must be a positive integer, got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))
        wanted = _FAMILY_PARAMS[self.family]
        for name in ("sigma", "gamma", "alpha", "beta"):
            value = getattr(self, name)
            if name in wanted:
                if value is None or not (0 < value < math.inf):
                    raise KernelSpecError(
                        f"{self.family} kernel requires a finite {name} > 0, got {value}"
                    )
                object.__setattr__(self, name, float(value))
            elif value is not None:
                raise KernelSpecError(
                    f"{self.family} kernel does not take parameter {name!r}"
                )
        if self.family == "student" and self.normalization == "density":
            if not (self.alpha > self.dim / 2):
                raise KernelSpecError(
                    "density normalization for the student kernel requires "
                    f"alpha > d/2 (alpha={self.alpha}, d={self.dim})"
                )
        if self.space == "l2" and not self._has_l2_closed_form():
            raise KernelSpecError(
                f"no closed-form L2 inner product for {self.family} "
                "(supported: gaussian; student with alpha = (1 + d) / 2)"
            )
        # Extreme parameters can overflow a profile's constants, which would
        # make every kernel value inf or NaN.
        named = ", ".join(f"{name}={getattr(self, name)}" for name in wanted)
        for label, profile in (("kernel", eval_params), ("inner product", gram_params)):
            try:
                _, a, b, c = profile(self)
            except (ZeroDivisionError, OverflowError):
                a = b = c = math.nan
            if not (all(map(math.isfinite, (a, b, c))) and a > 0 and c > 0):
                raise KernelSpecError(
                    f"{self.family} kernel {named} is out of range: its {label} profile "
                    f"needs finite a, b, c with a, c > 0, got a={a}, b={b}, c={c}"
                )

    def _has_l2_closed_form(self) -> bool:
        if self.family == "gaussian":
            return True
        if self.family == "student":
            return abs(self.alpha - (1 + self.dim) / 2) <= 1e-12
        return False

    def with_sigma(self, sigma: float) -> "RadialKernelSpec":
        """Copy of this spec with a new Gaussian bandwidth."""
        if self.family != "gaussian":
            raise KernelSpecError("with_sigma applies to gaussian kernels only")
        return replace(self, sigma=float(sigma))


def _density_constant(family: str, dim: int, **params) -> float:
    """c such that c * shape(||x||) integrates to one over R^dim."""
    if family == "gaussian":
        sigma = params["sigma"]
        return (2.0 * math.pi * sigma * sigma) ** (-dim / 2.0)
    if family == "laplacian":
        gamma = params["gamma"]
        # int exp(-||x||/gamma) dx = (2 pi^{d/2} / Gamma(d/2)) Gamma(d) gamma^d
        log_c = (
            math.lgamma(dim / 2.0)
            - math.log(2.0)
            - (dim / 2.0) * math.log(math.pi)
            - math.lgamma(dim)
            - dim * math.log(gamma)
        )
        return math.exp(log_c)
    if family == "student":
        alpha, beta = params["alpha"], params["beta"]
        # int (1 + ||x||^2/beta)^{-alpha} dx = (pi beta)^{d/2} Gamma(alpha - d/2) / Gamma(alpha)
        log_c = (
            math.lgamma(alpha)
            - math.lgamma(alpha - dim / 2.0)
            - (dim / 2.0) * math.log(math.pi * beta)
        )
        return math.exp(log_c)
    raise KernelSpecError(f"unknown kernel family {family!r}")


def _normalization_constant(spec: RadialKernelSpec) -> float:
    if spec.normalization == "unit":
        return 1.0
    params = {name: getattr(spec, name) for name in _FAMILY_PARAMS[spec.family]}
    return _density_constant(spec.family, spec.dim, **params)


def eval_params(spec: RadialKernelSpec) -> ShapeParams:
    """Profile of phi itself: phi(x, x') = c * shape(||x - x'||)."""
    c = _normalization_constant(spec)
    if spec.family == "gaussian":
        return ShapeParams(SHAPE_SQEXP, 1.0 / (2.0 * spec.sigma**2), 0.0, c)
    if spec.family == "laplacian":
        return ShapeParams(SHAPE_EXP, 1.0 / spec.gamma, 0.0, c)
    return ShapeParams(SHAPE_POWER, 1.0 / spec.beta, spec.alpha, c)


def gram_params(spec: RadialKernelSpec) -> ShapeParams:
    """Profile of g: <phi(., x), phi(., x')> = g(||x - x'||)."""
    if spec.space == "rkhs":
        return eval_params(spec)
    c = _normalization_constant(spec)
    d = spec.dim
    if spec.family == "gaussian":
        # c^2 int exp(-(||t-x||^2 + ||t-x'||^2) / (2 sigma^2)) dt
        #   = c^2 (pi sigma^2)^{d/2} exp(-r^2 / (4 sigma^2))
        sigma = spec.sigma
        c_l2 = c * c * (math.pi * sigma * sigma) ** (d / 2.0)
        return ShapeParams(SHAPE_SQEXP, 1.0 / (4.0 * sigma**2), 0.0, c_l2)
    if spec.family == "student":
        # At the Cauchy exponent the density-normalized section is the
        # isotropic Cauchy law with scale sqrt(beta); convolving two of
        # them doubles the scale, i.e. takes beta to 4 beta.
        beta = spec.beta
        c_dens = _density_constant("student", d, alpha=spec.alpha, beta=beta)
        c_conv = _density_constant("student", d, alpha=spec.alpha, beta=4.0 * beta)
        c_l2 = (c / c_dens) ** 2 * c_conv
        return ShapeParams(SHAPE_POWER, 1.0 / (4.0 * beta), spec.alpha, c_l2)
    raise KernelSpecError(
        f"no closed-form L2 inner product for {spec.family}"
    )


def gram_at_dist(spec: RadialKernelSpec, r):
    """Section inner product g evaluated at anchor distance r (elementwise over an array)."""
    r2 = np.array(r, dtype=np.float64)
    r2 *= r2
    return _apply_shape(gram_params(spec), r2)


def g_zero(spec: RadialKernelSpec) -> float:
    """The constant C = <phi(., x), phi(., x)>, independent of x: every shape is 1 at r = 0."""
    return float(gram_params(spec).c)


def block_sums(params: ShapeParams, xs, ys, coef) -> np.ndarray:
    """sum_j c * shape(||x - y_j||) coef_j for each row x of the 2-D `xs`.

    coef has one row per row of ys, of shape (len(ys), p) or (len(ys),); a
    1-D coef is summed as one column and gives a 1-D result. One
    `_backend.kernel_sums` call forms the sums without a kernel block: the
    compiled backend tiles ys and keeps its scratch to a few tiles, and the
    numpy backend works in blocks of at most 2^18 entries, so memory stays
    flat whatever the sizes. The compiled sums use libmvec's exp and pow on
    x86-64 glibc and differ from the numpy backend's in the last bits.
    """
    xs, ys, coef = (np.ascontiguousarray(v, dtype=np.float64) for v in (xs, ys, coef))
    columns = coef.reshape(-1, 1) if coef.ndim == 1 else coef
    out = np.empty((xs.shape[0], columns.shape[1]))
    _backend.kernel_sums(xs, ys, columns, *params, out)
    return out[:, 0] if coef.ndim == 1 else out


def _points(data) -> np.ndarray:
    pts = getattr(data, "points", data)
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    return pts


def bandwidth_iqr(data) -> float:
    """Per-dimension interquartile range, averaged over dimensions, / 1.35.

    Quartiles use the linear-interpolation convention (numpy's default).
    """
    pts = _points(data)
    if pts.shape[0] < 2:
        raise ValueError("bandwidth_iqr needs at least 2 points")
    q75, q25 = np.percentile(pts, [75.0, 25.0], axis=0)
    bw = float(np.mean(q75 - q25)) / 1.35
    if bw <= 0.0:
        raise DegenerateDataError("data is constant in every dimension")
    return bw


def bandwidth_jaakkola(data) -> float:
    """Median pairwise Euclidean distance over at most JAAKKOLA_SUBSAMPLE points.

    More points are subsampled without replacement with seed 0. The
    distances of the pairs i < j, bit for bit scipy's pdist, are formed in
    row blocks of at most 2^18 entries.
    """
    pts = _points(data)
    n = pts.shape[0]
    if n < 2:
        raise ValueError("bandwidth_jaakkola needs at least 2 points")
    if n > JAAKKOLA_SUBSAMPLE:
        idx = np.random.default_rng(0).choice(n, JAAKKOLA_SUBSAMPLE, replace=False)
        idx.sort()
        pts = pts[idx]
        n = JAAKKOLA_SUBSAMPLE
    pairs = np.empty(n * (n - 1) // 2)
    rows, at = max(1, _BLOCK_ENTRIES // n), 0
    for i in range(0, n - 1, rows):
        # Column c of row r holds the pair (i + r, i + 1 + c): it counts when c >= r.
        block = _distances(pts[i:i + rows], pts[i + 1:])
        upper = block[np.arange(block.shape[0])[:, None] <= np.arange(block.shape[1])]
        pairs[at:at + upper.shape[0]] = upper
        at += upper.shape[0]
    bw = float(np.median(pairs))
    if bw <= 0.0:
        raise DegenerateDataError("median pairwise distance is zero")
    return bw


def parse_kernel_spec(text: str, dim: int) -> RadialKernelSpec:
    """Parse the CLI kernel grammar, e.g. 'gaussian:sigma=1.5:density:rkhs'.

    The first token is the family. Remaining tokens, in any order, are
    key=value parameters plus the optional flags unit/density and rkhs/l2.
    A parameter or flag given twice must repeat its value.
    """
    tokens = [t.strip() for t in text.strip().split(":") if t.strip()]
    if not tokens:
        raise KernelSpecError("empty kernel spec")
    family = tokens[0].lower()
    if family not in FAMILIES:
        raise KernelSpecError(f"unknown kernel family {family!r}")
    kwargs: dict = {"family": family, "dim": dim}
    for token in tokens[1:]:
        low = token.lower()
        if low in NORMALIZATIONS:
            if "normalization" in kwargs and kwargs["normalization"] != low:
                raise KernelSpecError(f"conflicting normalization flags in {text!r}")
            kwargs["normalization"] = low
        elif low in SPACES:
            if "space" in kwargs and kwargs["space"] != low:
                raise KernelSpecError(f"conflicting space flags in {text!r}")
            kwargs["space"] = low
        elif "=" in token:
            key, _, raw = token.partition("=")
            key = key.strip().lower()
            if key not in _FAMILY_PARAMS[family]:
                raise KernelSpecError(
                    f"{family} kernel does not take parameter {key!r}"
                )
            try:
                value = float(raw)
            except ValueError:
                raise KernelSpecError(f"bad numeric value in token {token!r}") from None
            if key in kwargs and kwargs[key] != value:
                raise KernelSpecError(f"conflicting values of {key} in {text!r}")
            kwargs[key] = value
        else:
            raise KernelSpecError(f"unrecognized kernel spec token {token!r}")
    return RadialKernelSpec(**kwargs)
