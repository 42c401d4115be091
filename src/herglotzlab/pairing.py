"""Weighted coefficient pairings, the two forms of the ball inner product,
transforms of atomic measures, and the seeded sphere sampler.

The family Q_r pairs Taylor coefficients with weights r^|alpha| alpha!/|alpha|!
and doubles the constant term.  For truncations the sums are finite and the
identities in this module hold to rounding error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .series import (
    DEFAULT_DEGREE,
    DimensionMismatchError,
    SeriesDomainError,
    TruncatedSeries,
    _check_caps,
    _grade_values,
    _json_keys,
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
    """Finitely many positive point masses on the closed unit ball."""

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

    def to_json(self) -> dict:
        return {
            "points": [[[float(c.real), float(c.imag)] for c in p] for p in self.points],
            "weights": [float(w) for w in self.weights],
            "support": self.support,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AtomicMeasure":
        _json_keys(obj, ("points", "weights", "support"), "measure")
        pts = np.array([[complex(re, im) for re, im in p] for p in obj["points"]],
                       dtype=complex)
        return cls(pts, np.asarray(obj["weights"], dtype=float), obj["support"])


def _common_prefix(f: TruncatedSeries, g: TruncatedSeries):
    if f.d != g.d:
        raise DimensionMismatchError(f"dimension mismatch: {f.d} vs {g.d}")
    N = min(f.N, g.N)
    m = simplex_size(f.d, N)
    return N, f.coeffs[:m], g.coeffs[:m]


def _check_radius(f: TruncatedSeries, g: TruncatedSeries, r: float) -> None:
    if not 0.0 <= r <= 1.0:
        raise SeriesDomainError(f"pairing radius must be in [0, 1], got {r}")
    if r == 1.0 and (f.from_boundary_measure or g.from_boundary_measure):
        raise SeriesDomainError(
            "r = 1 pairing requires interior-supported or "
            "analytic-past-boundary arguments")


def qr_pair(f: TruncatedSeries, g: TruncatedSeries, r: float) -> complex:
    """Sum_alpha c_a conj(d_a) r^|a| a!/|a|!  +  f(0) conj(g(0)).

    The alpha = 0 term appears both in the sum and in the extra product, so
    constants pair to twice their plain product.  r = 1 is allowed only when
    neither argument is backed by a boundary-supported measure.
    """
    _check_radius(f, g, r)
    N, cf, cg = _common_prefix(f, g)
    ratios = weight_ratio_array(f.d, N)
    rpow = np.power(r, grade_array(f.d, N).astype(float))
    s = np.sum(cf * np.conj(cg) * rpow * ratios)
    return complex(s + cf[0] * np.conj(cg[0]))


def qr_pair_grades(f: TruncatedSeries, g: TruncatedSeries, r: float) -> np.ndarray:
    """Per-grade contributions to qr_pair; entry 0 carries the doubled
    constant term.  Partial sums of this array are the pairing truncations,
    so the radius is checked as in qr_pair."""
    _check_radius(f, g, r)
    N, cf, cg = _common_prefix(f, g)
    grades = grade_array(f.d, N)
    terms = cf * np.conj(cg) * np.power(r, grades.astype(float)) * weight_ratio_array(f.d, N)
    out = np.zeros(N + 1, dtype=complex)
    np.add.at(out, grades, terms)
    out[0] += cf[0] * np.conj(cg[0])
    return out


def h2d_inner_series(f: TruncatedSeries, g: TruncatedSeries) -> complex:
    """Coefficient form of the ball inner product: sum c conj(d) a!/|a|!."""
    if f.d != g.d:
        raise DimensionMismatchError(f"dimension mismatch: {f.d} vs {g.d}")
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


def sphere_sample(d: int, n: int,
                  seed: int | np.random.Generator = 0) -> np.ndarray:
    """n i.i.d. uniform points on the unit sphere of C^d (normalized complex
    Gaussians), deterministic per seed.  A Generator passed as the seed is
    drawn from in place, so the caller can keep drawing from it."""
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
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

    Returns the estimate and a standard-error proxy over directions.
    """
    if f.d != g.d:
        raise DimensionMismatchError(f"dimension mismatch: {f.d} vs {g.d}")
    d = f.d
    dirs = sphere_sample(d, q.sphere_samples, q.seed)
    x, w = np.polynomial.legendre.leggauss(q.radial_nodes)
    r = 0.5 * (x + 1.0)
    w = 0.5 * w

    F, G = _grade_values([f, g], dirs)          # (Nf+1, ns), (Ng+1, ns)
    rho = radial_factorial_weights(d, f.N)      # d-fold radial grade weights
    RF = F * rho[:, None]
    # radial profiles: A[s, i] = sum_k RF[k, s] r_i^k, likewise B for g
    rpow_f = np.power.outer(r, np.arange(f.N + 1)).T    # (Nf+1, nodes)
    rpow_g = np.power.outer(r, np.arange(g.N + 1)).T
    A = RF.T @ rpow_f                            # (ns, nodes)
    B = G.T @ rpow_g
    per_dir = (A * np.conj(B)) @ (w / r)         # (ns,)

    prefactor = 2.0 * d / math.factorial(d)
    mean = per_dir.mean()
    stderr = float(np.sqrt(np.mean(np.abs(per_dir - mean) ** 2) / len(per_dir)))
    value = complex(f.coeffs[0] * np.conj(g.coeffs[0]) + prefactor * mean)
    return IntegralEstimate(value, prefactor * stderr)


def herglotz_of_measure(mu: AtomicMeasure, imag_const: float = 0.0,
                        N: int = DEFAULT_DEGREE, mode: str = "full") -> TruncatedSeries:
    """Taylor truncation of the measure transform.

    mode="full": sum_j w_j (1 + <z, p_j>)/(1 - <z, p_j>) + i t, the class
    generator; coefficient of z^alpha (alpha != 0) is
    2 w(alpha) sum_j w_j conj(p_j)^alpha.
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
    c[0] = (kernel_scale / 2.0) * mu.mass + 1j * imag_const
    return TruncatedSeries(d, N, c,
                           from_boundary_measure=(mu.support == "boundary"))


class HerglotzMeasureFunction:
    """Exact evaluator of the measure transform
    sum_j w_j (1 + <z, p_j>)/(1 - <z, p_j>); near-pole denominators are
    clamped at CLAMP_EPS and counted."""

    def __init__(self, mu: AtomicMeasure):
        self.mu = mu
        self.clamps = 0

    @property
    def d(self) -> int:
        return self.mu.d

    def values_at(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        ip = pts @ np.conj(self.mu.points.T)       # (m, natoms), <z, p_j>
        den = 1.0 - ip
        small = np.abs(den) < CLAMP_EPS
        if np.any(small):
            self.clamps += int(small.sum())
            den = np.where(small, CLAMP_EPS * np.exp(1j * np.angle(den)), den)
        return ((1.0 + ip) / den) @ self.mu.weights


def pairing_vs_measure_check(f: TruncatedSeries, mu: AtomicMeasure, r: float,
                             mode: str = "full") -> float:
    """|Q_r(f, g_mu) - kappa sum_j w_j f(r p_j)| with kappa = 2 for the full
    kernel and 1 for the half kernel.

    The factor kappa on the measure side comes from the doubled constant
    term of the pairing; with it the identity is exact for polynomials.
    """
    if mu.d != f.d:
        raise DimensionMismatchError(f"dimension mismatch: series {f.d} vs measure {mu.d}")
    g = herglotz_of_measure(mu, 0.0, N=f.N, mode=mode)
    lhs = qr_pair(f, g, r)
    kappa = 2.0 if mode == "full" else 1.0
    if len(mu.points):
        vals = f.values_at(r * mu.points)
        rhs = kappa * np.sum(mu.weights * vals)
    else:
        rhs = 0.0
    return float(abs(lhs - rhs))
