"""Tests of the benchmark itself: gates, the closed loop, spans."""

import copy
import itertools
import math

import pytest

from perfbench import gates
from perfbench.harness import run_closed_loop
from perfbench.spans import Installed, Span, Tracer, outermost_seconds, self_times


def _fock_result():
    rows = [{"L": L, "norm_sym_calculus": gates.dp_closed_form(L) - 1e-9,
             "iters": 200, "residual": 1e-6} for L in gates.FOCK_L_SWEEP]
    return {"rc": 0, "report": {"norm_sym_shift": 1.338, "sweep": rows}}


def _ball_result():
    return {"cayley_roundtrip": 2e-16, "cayley_product": 6e-17,
            "values_vs_transform": 3e-15, "measure_residual": 4e-15, "integral_z": 1.1}


def _class_result():
    verdict = lambda v: {"profile": {"verdict": v}}
    return {
        "rc": {k: 0 for k in ("duality", "membership", "growth_p1", "growth_p3", "herglotz")},
        "duality": {"om": {"min_re": 0.07}, "sr": {"min_re": 1.0},
                    "rs_identity_max_residual": 7e-15},
        "membership": {"all_pass": True},
        "growth_p1": verdict("bounded"),
        "growth_p3": verdict("divergent"),
        "herglotz": {"predicates": {"row_contraction": {"ok": True}},
                     "re_min_sampled": 1.1, "pointwise_failures": 0},
    }


def _row_off(r):
    r["report"]["sweep"][-1]["norm_sym_calculus"] += 1e-6


def _rows_swapped(r):
    sweep = r["report"]["sweep"]
    sweep[2]["norm_sym_calculus"], sweep[3]["norm_sym_calculus"] = (
        sweep[3]["norm_sym_calculus"], sweep[2]["norm_sym_calculus"])


def _verdict_flipped(r):
    r["growth_p3"]["profile"]["verdict"] = "bounded"


def _nonzero_exit(r):
    r["rc"]["membership"] = 2


def _integral_far(r):
    r["integral_z"] = 6.0


def _raise(r):
    raise FloatingPointError("boom")


def _loop(result, check, perturb):
    """Three tasks; the one with seed 11 gets ``perturb``."""
    def run(seed):
        r = copy.deepcopy(result)
        if seed == 11:
            perturb(r)
        return r
    clock = itertools.count()
    return run_closed_loop(lambda seed: seed, run, check, base_seed=10, first_task=0,
                           seconds=7, clock=lambda: float(next(clock)))


@pytest.mark.parametrize("result, check", [
    (_fock_result(), gates.check_fock_norms),
    (_ball_result(), gates.check_ball_series),
    (_class_result(), gates.check_class_sweeps),
])
def test_unperturbed_results_pass(result, check):
    phase = _loop(result, check, lambda r: None)
    assert len(phase.records) == 3
    assert phase.summary()["failed_ratio"] == 0.0


@pytest.mark.parametrize("result, check, perturb", [
    (_fock_result(), gates.check_fock_norms, _row_off),
    (_fock_result(), gates.check_fock_norms, _rows_swapped),
    (_ball_result(), gates.check_ball_series, _integral_far),
    (_class_result(), gates.check_class_sweeps, _verdict_flipped),
    (_class_result(), gates.check_class_sweeps, _nonzero_exit),
    (_class_result(), gates.check_class_sweeps, _raise),
])
def test_perturbed_task_raises_failed_ratio(result, check, perturb):
    phase = _loop(result, check, perturb)
    assert [bool(r.problems) for r in phase.records] == [False, True, False]
    summary = phase.summary()
    assert summary["failed_ratio"] == pytest.approx(1 / 3)
    assert summary["tasks_per_s"] == pytest.approx(2 / phase.wall)


def test_self_time_on_synthetic_tree():
    # root [0, 10] has children [1, 3] and [2, 5] (overlapping) and [8, 12]
    # (clipped to 10); the first child has a grandchild [1.5, 2].
    spans = [Span(0, "cli.main", 0.0, 10.0, None, 1),
             Span(1, "classes.a", 1.0, 3.0, 0, 1),
             Span(2, "classes.b", 2.0, 5.0, 0, 1),
             Span(3, "growth.c", 8.0, 12.0, 0, 1),
             Span(4, "series.d", 1.5, 2.0, 1, 1)]
    own = self_times(spans)
    assert own == {0: 10.0 - 4.0 - 2.0, 1: 1.5, 2: 3.0, 3: 4.0, 4: 0.5}
    assert outermost_seconds(spans, ["classes.a", "classes.b"]) == 5.0


def test_installed_wrappers_record_nesting_and_restore():
    class Box:
        def outer(self, x):
            return self.inner(x) + 1

        def inner(self, x):
            return 2 * x

        @classmethod
        def make(cls):
            return cls()

    originals = dict(vars(Box))
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)), task=7)
    hook = lambda tr, result, args, kwargs: tr.count("inner.sum", result)
    targets = [(Box, "outer", "a.outer", None), (Box, "inner", "b.inner", hook),
               (Box, "make", "a.make", None)]
    with Installed(tracer, targets):
        assert Box.make().outer(3) == 7
    assert all(vars(Box)[k] is originals[k] for k in ("outer", "inner", "make"))
    assert Box().outer(1) == 3 and len(tracer.spans) == 3

    make, outer, inner = tracer.spans
    assert (make.name, make.parent, outer.parent, inner.parent) == ("a.make", None, None, outer.id)
    assert inner.layer == "b" and {s.task for s in tracer.spans} == {7}
    assert outer.start < inner.start < inner.end < outer.end
    assert tracer.counters == {7: {"inner.sum": 6.0}}
    assert math.isclose(self_times(tracer.spans)[outer.id],
                        outer.duration - inner.duration)
