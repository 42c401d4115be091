"""Radial-mean estimation on spheres and growth profiling.

Membership of a function in the Hardy scale is read off empirically from
Monte Carlo estimates of the surface means of |f(r zeta)|^p across a radius
grid: bounded profiles flatten as r -> 1, divergent ones grow like a power
of 1/(1 - r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classes import values_at
from .pairing import sphere_sample

DEFAULT_SAMPLES = 200000
DEFAULT_R_GRID = (0.5, 0.9, 0.99, 0.999)
SLOPE_BOUNDED = 0.1
SLOPE_DIVERGENT = 0.3

_CHUNK = 50000


def hp_radial_mean(f, p: float, r: float, n: int = DEFAULT_SAMPLES,
                   seed: int = 0):
    """Monte Carlo estimate of the surface mean of |f(r zeta)|^p.

    Returns (mean, stderr).  Evaluation failures propagate; clamp counting
    lives on the evaluator objects that support it.
    """
    if p <= 0.0:
        raise ValueError("exponent must be positive")
    if not 0.0 < r < 1.0:
        raise ValueError("radius must be in (0, 1)")
    zetas = sphere_sample(f.d, n, seed)
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


@dataclass(frozen=True)
class GrowthProfile:
    p: float
    grid: tuple
    means: tuple
    stderr: tuple
    slope: float
    verdict: str            # "bounded" | "divergent" | "inconclusive"

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "grid": list(self.grid),
            "means": list(self.means),
            "stderr": list(self.stderr),
            "slope": self.slope,
            "verdict": self.verdict,
        }


def growth_profile(f, p: float, r_grid: Sequence[float] = DEFAULT_R_GRID,
                   n: int = DEFAULT_SAMPLES, seed: int = 0) -> GrowthProfile:
    """Surface means across the radius grid with a tail-slope diagnostic.

    The slope is the difference quotient of log(mean) against log(1/(1-r))
    over the last grid segment, i.e. the empirical growth exponent at the
    boundary; profiles are "bounded" when it is <= 0.1 and "divergent" from
    0.3 up.
    """
    r_grid = tuple(r_grid)
    if any(not 0.0 < r < 1.0 for r in r_grid) or len(r_grid) < 2:
        raise ValueError("need a grid of at least two radii in (0, 1)")
    if sorted(r_grid) != list(r_grid):
        raise ValueError("radius grid must be increasing")
    means, errs = [], []
    for k, r in enumerate(r_grid):
        m, e = hp_radial_mean(f, p, r, n=n, seed=seed + k)
        means.append(m)
        errs.append(e)
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
    return GrowthProfile(p, r_grid, tuple(means), tuple(errs), slope, verdict)
