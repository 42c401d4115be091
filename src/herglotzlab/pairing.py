"""Weighted coefficient pairings, the two forms of the ball inner product,
atomic measures and their transforms, and the sphere sampler.

The family Q_r pairs Taylor coefficients with weights r^|alpha| alpha!/|alpha|!
and doubles the constant term.  For truncations the sums are finite and the
identities in this module hold to rounding error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .series import (
    DEFAULT_DEGREE,
    DimensionMismatchError,
    SeriesDomainError,
    TruncatedSeries,
    _check_caps,
    _check_same_d,
    _grade_values,
    _json_complex,
    _json_float,
    _json_keys,
    _json_list,
    _monomial_sums,
    grade_array,
    simplex_size,
    weight_array,
    weight_ratio_array,
)

# Fixed grid for dilation sweeps: definitions quantify over all r < 1, a
# fixed grid keeps experiments reproducible.
R_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20)) + (0.99,)

CLAMP_EPS = 1e-12


@dataclass(frozen=True)
class QuadratureSpec:
    """Radial Gauss-Legendre nodes crossed with seeded sphere directions."""

    radial_nodes: int = 64
    sphere_samples: int = 20000
    seed: int = 0

    def __post_init__(self):
        if self.radial_nodes < 1 or self.sphere_samples < 1:
            raise ValueError("quadrature sizes must be >= 1")


class IntegralEstimate(NamedTuple):
    value: complex
    stderr: float


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """Finitely many positive point masses on the closed unit ball, an M+
    member evaluated by its transform (``values_at``)."""

    points: np.ndarray          # (n, d) complex
    weights: np.ndarray         # (n,) positive
    support: str                # "boundary" | "interior"

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=complex))
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if pts.shape[0] != w.shape[0]:
            raise ValueError("point and weight counts differ")
        if np.any(w <= 0.0):
            raise ValueError("weights must be strictly positive")
        norms = np.linalg.norm(pts, axis=1) if len(pts) else np.array([])
        if self.support == "boundary":
            if len(pts) and np.max(np.abs(norms - 1.0)) > 1e-12:
                raise ValueError("boundary support requires |point| = 1 to 1e-12")
        elif self.support == "interior":
            if len(pts) and np.max(norms) > 1.0 - 1e-9:
                raise ValueError("interior support requires |point| <= 1 - 1e-9")
        else:
            raise ValueError(f"unknown support flag {self.support!r}")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    def values_at(self, points: np.ndarray) -> np.ndarray:
        """The transform sum_j w_j (1 + <z, p_j>)/(1 - <z, p_j>) at the
        points; near-pole denominators are clamped at CLAMP_EPS."""
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        ip = pts @ np.conj(self.points.T)       # (m, natoms), <z, p_j>
        den = 1.0 - ip
        small = np.abs(den) < CLAMP_EPS
        if np.any(small):
            den = np.where(small, CLAMP_EPS * np.exp(1j * np.angle(den)), den)
        return ((1.0 + ip) / den) @ self.weights

    @classmethod
    def from_json(cls, obj: dict) -> "AtomicMeasure":
        """Exactly the keys points (a non-empty list), weights and support."""
        keys = ("points", "weights", "support")
        _json_keys(obj, keys, "measure", keys)
        if not _json_list(obj["points"], "points"):
            raise ValueError("measure: 'points' must be a non-empty list of points")
        return cls(_json_complex(obj["points"], "points", 2),
                   [_json_float(w, "weights") for w in _json_list(obj["weights"], "weights")],
                   obj["support"])


def _check_radius(f: TruncatedSeries, g: TruncatedSeries, r: float) -> None:
    if not 0.0 <= r <= 1.0:
        raise SeriesDomainError(f"pairing radius must be in [0, 1], got {r}")
    if r == 1.0 and (f.from_boundary_measure or g.from_boundary_measure):
        raise SeriesDomainError(
            "r = 1 pairing requires interior-supported or "
            "analytic-past-boundary arguments")


def qr_pair(f: TruncatedSeries, g: TruncatedSeries,
            r: float | Sequence[float]) -> complex | np.ndarray:
    """Sum_alpha c_a conj(d_a) r^|a| a!/|a|!  +  f(0) conj(g(0)).

    The alpha = 0 term appears both in the sum and in the extra product, so
    constants pair to twice their plain product.  r = 1 is allowed only when
    neither argument is backed by a boundary-supported measure.  For a
    sequence of radii the result is the array of pairings on that grid, from
    one table of coefficient products, each entry equal to its one-radius
    value.
    """
    radii = np.asarray(r, dtype=float)
    for x in radii.reshape(-1).tolist():
        _check_radius(f, g, x)
    _check_same_d(f, g)
    N = min(f.N, g.N)
    m = simplex_size(f.d, N)
    cf, cg = f.coeffs[:m], g.coeffs[:m]
    ratios = weight_ratio_array(f.d, N)
    rpow = np.power(radii[..., None], grade_array(f.d, N).astype(float))
    s = np.sum(cf * np.conj(cg) * rpow * ratios, axis=-1) + cf[0] * np.conj(cg[0])
    return complex(s) if radii.ndim == 0 else s


def h2d_inner_series(f: TruncatedSeries, g: TruncatedSeries) -> complex:
    """Coefficient form of the ball inner product: sum c conj(d) a!/|a|!."""
    _check_same_d(f, g)
    if f.N != g.N:
        raise DimensionMismatchError(f"degree mismatch: {f.N} vs {g.N}")
    ratios = weight_ratio_array(f.d, f.N)
    return complex(np.sum(f.coeffs * np.conj(g.coeffs) * ratios))


def radial_factorial_weights(d: int, N: int) -> np.ndarray:
    """Grade weights k (k+1) ... (k+d-1) of the d-fold radial operator.

    Plain radial differentiation c_a -> |a| c_a reproduces the inner product
    only in one variable; in d variables the exact integral identity needs
    the full rising product, which kills constants and matches the 1/d!
    prefactor.  Grade 0 maps to 0.
    """
    ks = np.arange(N + 1, dtype=float)
    out = np.ones(N + 1)
    for i in range(d):
        out *= ks + i
    return out


def sphere_sample(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. uniform points on the unit sphere of C^d (normalized complex
    Gaussians), drawn from rng in place, so the caller can keep drawing
    from it."""
    if n < 1:
        raise ValueError("need at least one sample")
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    # regenerate the (measure-zero) degenerate rows rather than dividing by ~0
    while np.any(norms < 1e-12):
        bad = norms[:, 0] < 1e-12
        z[bad] = rng.standard_normal((bad.sum(), d)) + 1j * rng.standard_normal((bad.sum(), d))
        norms = np.linalg.norm(z, axis=1, keepdims=True)
    return z / norms


def h2d_inner_integral(f: TruncatedSeries, g: TruncatedSeries,
                       q: QuadratureSpec = QuadratureSpec()) -> IntegralEstimate:
    """Integral form of the ball inner product, as a Monte Carlo estimate.

    f(0) conj(g(0)) + (1/d!) * Integral over the ball of the d-fold radial
    derivative of f times conj(g) times |z|^(-2d), against normalized volume.
    In polar form the volume factor r^(2d-1) cancels the singularity
    analytically, leaving a polynomial radial integrand handled exactly by
    Gauss-Legendre nodes; only the sphere directions are sampled.

    The radial rule is contracted first: with the moments
    M[k, l] = sum_i (w_i / r_i) r_i^(k+l), direction s contributes
    sum_k rho_k F[k, s] conj((M G)[k, s]), the per-node sum reassociated.
    Memory is O((N + 1) x sphere_samples) whatever the node count.

    Returns the estimate and a standard-error proxy over directions.
    """
    _check_same_d(f, g)
    d = f.d
    dirs = sphere_sample(d, q.sphere_samples, np.random.default_rng(q.seed))
    x, w = np.polynomial.legendre.leggauss(q.radial_nodes)
    r = 0.5 * (x + 1.0)
    w = 0.5 * w

    F, G = _grade_values([f, g], dirs)          # (Nf+1, ns), (Ng+1, ns)
    moments = (w / r) @ np.power.outer(r, np.arange(f.N + g.N + 1))
    M = moments[np.add.outer(np.arange(f.N + 1), np.arange(g.N + 1))]
    # d-fold radial grade weights on the f side
    MG = (radial_factorial_weights(d, f.N)[:, None] * M) @ G
    per_dir = np.einsum("ks,ks->s", F, np.conj(MG, out=MG))     # (ns,)

    prefactor = 2.0 * d / math.factorial(d)
    mean = per_dir.mean()
    stderr = float(np.sqrt(np.mean(np.abs(per_dir - mean) ** 2) / len(per_dir)))
    value = complex(f.coeffs[0] * np.conj(g.coeffs[0]) + prefactor * mean)
    return IntegralEstimate(value, prefactor * stderr)


def herglotz_of_measure(mu: AtomicMeasure, N: int = DEFAULT_DEGREE,
                        mode: str = "full") -> TruncatedSeries:
    """Taylor truncation to degree N of the measure transform.

    mode="full": sum_j w_j (1 + <z, p_j>)/(1 - <z, p_j>), the class
    generator; its constant term is the mass and the coefficient of z^alpha
    (alpha != 0) is 2 w(alpha) sum_j w_j conj(p_j)^alpha.
    mode="half": the same with an overall 1/2 on the kernel, the
    normalization under which Q(f, g) reproduces sum_j w_j f(p_j).
    """
    if mode not in ("full", "half"):
        raise ValueError(f"unknown transform mode {mode!r}")
    kernel_scale = 2.0 if mode == "full" else 1.0
    d = mu.d
    _check_caps(d, N)
    moments = _monomial_sums(np.conj(mu.points), mu.weights, N)
    c = kernel_scale * weight_array(d, N) * moments
    c[0] = (kernel_scale / 2.0) * mu.mass
    return TruncatedSeries(d, N, c,
                           from_boundary_measure=(mu.support == "boundary"))


def pairing_vs_measure_check(f: TruncatedSeries, mu: AtomicMeasure, r: float,
                             mode: str = "full") -> float:
    """|Q_r(f, g_mu) - kappa sum_j w_j f(r p_j)| with kappa = 2 for the full
    kernel and 1 for the half kernel.

    The factor kappa on the measure side comes from the doubled constant
    term of the pairing; with it the identity is exact for polynomials.
    """
    _check_same_d(f, mu)
    g = herglotz_of_measure(mu, f.N, mode)
    lhs = qr_pair(f, g, r)
    kappa = 2.0 if mode == "full" else 1.0
    if len(mu.points):
        vals = f.values_at(r * mu.points)
        rhs = kappa * np.sum(mu.weights * vals)
    else:
        rhs = 0.0
    return float(abs(lhs - rhs))
