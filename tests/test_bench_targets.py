"""The benchmark's tracing wrappers still fit the program.

perfbench wraps entry points at the attributes their callers resolve
(perfbench.layers.TARGETS).  A refactor that renames or moves one of them
breaks every traced benchmark run; these tests catch that in the suite.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.layers import TARGETS  # noqa: E402
from perfbench.spans import Installed, Tracer  # noqa: E402

from herglotzlab.series import TruncatedSeries, simplex_size  # noqa: E402


def test_every_target_resolves_and_is_restored():
    originals = [vars(owner)[attr] for owner, attr, _, _ in TARGETS]
    assert len({(id(owner), attr) for owner, attr, _, _ in TARGETS}) == len(TARGETS)
    with Installed(Tracer(), TARGETS):
        for (owner, attr, name, _), original in zip(TARGETS, originals):
            assert vars(owner)[attr] is not original, name
    for (owner, attr, name, _), original in zip(TARGETS, originals):
        assert vars(owner)[attr] is original, name


def test_traced_evaluation_counts_monomials():
    d, N, npts = 3, 6, 40
    rng = np.random.default_rng(0)
    f = TruncatedSeries(d, N, rng.standard_normal(simplex_size(d, N)) + 0j)
    pts = 0.2 * (rng.standard_normal((npts, d)) + 1j * rng.standard_normal((npts, d)))
    with Installed(Tracer(), TARGETS) as tracer:
        vals = f.values_at(pts)
    assert np.array_equal(vals, f.values_at(pts))
    names = [s.name for s in tracer.spans]
    assert names == ["series.values_at", "series.grade_values"]
    assert tracer.counters[0] == {"series.values_at.points": npts,
                                  "series.monomial_evals": simplex_size(d, N) * npts}
