"""Radial-mean estimation on spheres and growth profiling.

Membership of a function in the Hardy scale is read off from the surface
means of |f(r zeta)|^p across a radius grid: bounded profiles flatten as
r -> 1, divergent ones grow like a power of 1/(1 - r).

The transform of a single atom, f = w (1 + <z, q>)/(1 - <z, q>) with
|q| <= 1 (the boundary kernels among them), has exact means.  With
F(u) = ((1 + u)/(1 - u))^(p/2) = sum_n a_n u^n, |f|^p = w^p |F(<z, q>)|^2,
and for zeta uniform on S^(2d-1) the powers <zeta, e>^n are orthogonal with
E|<zeta, e>|^(2n) = 1/C(n+d-1, d-1), so

    M_p(r) = w^p sum_n a_n^2 (r|q|)^(2n) / C(n+d-1, d-1).

(1 - u^2) F' = p F gives a_0 = 1, a_1 = p and
(n+1) a_(n+1) = p a_n + (n-1) a_(n-1): every term is positive.  Since
a_n <= (p)_n / n!, the coefficients of (1 - u)^(-p), the tail after n terms
is at most the majorant's term n over 1 - x max(1, ((n+p)/(n+1))^2), with
x = (r|q|)^2.  Every other target is profiled by Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classes import values_at
from .pairing import AtomicMeasure, sphere_sample
from .series import SizeCapError

DEFAULT_SAMPLES = 200000
DEFAULT_R_GRID = (0.5, 0.9, 0.99, 0.999)
SLOPE_BOUNDED = 0.1
SLOPE_DIVERGENT = 0.3
SERIES_TAIL = 2.0 ** -53       # truncation bound of the kernel sum, whose first term is 1
SERIES_MAX_TERMS = 10 ** 6

_CHUNK = 50000


def _check_mean(p: float, r: float) -> None:
    """ValueError unless p > 0 and 0 < r < 1; a NaN fails both."""
    if not p > 0.0:
        raise ValueError("exponent must be positive")
    if not 0.0 < r < 1.0:
        raise ValueError("radius must be in (0, 1)")


def hp_radial_mean(f, p: float, r: float, rng: np.random.Generator,
                   n: int = DEFAULT_SAMPLES):
    """Monte Carlo estimate of the surface mean of |f(r zeta)|^p, the n
    directions drawn from rng.

    Returns (mean, stderr).  Evaluation failures propagate.
    """
    _check_mean(p, r)
    zetas = sphere_sample(f.d, n, rng)
    total = 0.0
    total_sq = 0.0
    for lo in range(0, n, _CHUNK):
        chunk = zetas[lo:lo + _CHUNK]
        vals = np.abs(values_at(f, r * chunk)) ** p
        total += float(vals.sum())
        total_sq += float((vals ** 2).sum())
    mean = total / n
    var = max(total_sq / n - mean ** 2, 0.0)
    return mean, math.sqrt(var / n)


def _log_tail_bound(p: float, d: int, x: float, n: int) -> float:
    """log of the bound on sum_(m >= n) a_m^2 x^m / C(m+d-1, d-1)."""
    if x == 0.0:
        return -math.inf
    q = x * max(1.0, ((n + p) / (n + 1)) ** 2)
    if q >= 1.0:
        return math.inf
    log_major = math.lgamma(n + p) - math.lgamma(p) - math.lgamma(n + 1)
    log_binom = math.lgamma(n + d) - math.lgamma(d) - math.lgamma(n + 1)
    return 2.0 * log_major + n * math.log(x) - log_binom - math.log1p(-q)


def _series_terms(p: float, d: int, x: float) -> int:
    """A term count whose tail bound is within SERIES_TAIL, found by doubling
    and bisection; SERIES_MAX_TERMS + 1 if there is none up to the cap."""
    ok = lambda n: _log_tail_bound(p, d, x, n) <= math.log(SERIES_TAIL)
    hi = 1
    while not ok(hi):
        if hi > SERIES_MAX_TERMS:
            return SERIES_MAX_TERMS + 1
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return min(hi, SERIES_MAX_TERMS + 1)


def _kernel_sum(p: float, d: int, y: float, terms: int) -> float:
    """sum_(n < terms) a_n^2 y^(2n) / C(n+d-1, d-1), run on s_n = a_n y^n so
    that large a_n meet small y^n before they are squared; it stops once the
    sum overflows."""
    x, py = y * y, p * y
    s_prev, s, binom, total = 0.0, 1.0, 1.0, 0.0
    for n in range(terms):
        total += s * s / binom
        if total == math.inf:
            break
        s_prev, s = s, (py * s + (n - 1) * x * s_prev) / (n + 1)
        binom = binom * (n + d) / (n + 1)
    return total


def series_radial_mean(mu: AtomicMeasure, p: float, r: float):
    """Surface mean of |f(r zeta)|^p for the transform f of a one-atom
    measure mu, summed from its Taylor series (module docstring).

    Returns (mean, terms, tail_bound): the mean falls short of the exact
    value by at most tail_bound, apart from rounding.  The term count is
    one whose tail bound is within SERIES_TAIL of the kernel sum; a count
    over SERIES_MAX_TERMS raises SizeCapError once that many terms are
    summed, unless the sum has overflowed to inf by then.
    """
    _check_mean(p, r)
    if len(mu.weights) != 1:
        raise ValueError(f"series means need one atom, got {len(mu.weights)}")
    y = r * float(np.linalg.norm(mu.points[0]))
    terms = _series_terms(p, mu.d, y * y)
    if terms <= SERIES_MAX_TERMS:
        total = _kernel_sum(p, mu.d, y, terms)
        tail = math.exp(_log_tail_bound(p, mu.d, y * y, terms))
    else:
        terms, tail = SERIES_MAX_TERMS, math.inf
        total = _kernel_sum(p, mu.d, y, terms)
        if total < math.inf:
            raise SizeCapError(f"the series mean at p={p}, r={r} needs more than "
                               f"{SERIES_MAX_TERMS} terms")
    scale = float(np.float64(mu.weights[0]) ** p)
    return scale * total, terms, scale * tail


@dataclass(frozen=True)
class GrowthProfile:
    p: float
    grid: tuple
    means: tuple
    stderr: tuple           # all 0.0 for the series estimator
    slope: float
    verdict: str            # "bounded" | "divergent" | "inconclusive"
    estimator: str          # "series" | "monte-carlo"
    budget: dict            # {"terms", "tail_bound"} per radius | {"samples"}

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "grid": list(self.grid),
            "means": list(self.means),
            "stderr": list(self.stderr),
            "slope": self.slope,
            "verdict": self.verdict,
            "estimator": self.estimator,
            "budget": dict(self.budget),
        }


def growth_profile(f, p: float, rng: np.random.Generator,
                   r_grid: Sequence[float] = DEFAULT_R_GRID,
                   n: int = DEFAULT_SAMPLES) -> GrowthProfile:
    """Surface means across the radius grid with a tail-slope diagnostic.

    A one-atom measure is summed from the series of its transform
    (``series_radial_mean``); any other f is sampled, n points per radius
    drawn from rng one radius after another (``hp_radial_mean``).  The
    slope is the difference quotient of log(mean) against log(1/(1-r)) over
    the last grid segment, i.e. the empirical growth exponent at the
    boundary; profiles are "bounded" when it is <= 0.1 and "divergent" from
    0.3 up.
    """
    r_grid = tuple(r_grid)
    if any(not 0.0 < r < 1.0 for r in r_grid) or len(r_grid) < 2:
        raise ValueError("need a grid of at least two radii in (0, 1)")
    if any(a >= b for a, b in zip(r_grid, r_grid[1:])):
        raise ValueError("radius grid must be increasing")
    if isinstance(f, AtomicMeasure) and len(f.weights) == 1:
        means, terms, tails = zip(*(series_radial_mean(f, p, r) for r in r_grid))
        errs = (0.0,) * len(r_grid)
        estimator, budget = "series", {"terms": list(terms), "tail_bound": list(tails)}
    else:
        means, errs = zip(*(hp_radial_mean(f, p, r, rng, n=n) for r in r_grid))
        estimator, budget = "monte-carlo", {"samples": n}
    x = [math.log(1.0 / (1.0 - r)) for r in r_grid]
    y = [math.log(max(m, 1e-300)) for m in means]
    slope = (y[-1] - y[-2]) / (x[-1] - x[-2])
    if not all(math.isfinite(m) for m in means):
        verdict = "divergent"
    elif slope <= SLOPE_BOUNDED:
        verdict = "bounded"
    elif slope >= SLOPE_DIVERGENT:
        verdict = "divergent"
    else:
        verdict = "inconclusive"
    return GrowthProfile(p, r_grid, means, errs, slope, verdict, estimator, budget)
