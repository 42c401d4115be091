"""Per-layer metrics: where the wrappers go and how spans become numbers.

The layers are the package's modules.  Each wrapper sits at the attribute
its caller resolves, so e.g. ``qr_pair`` is wrapped twice: as the global of
``pairing`` (called by pairing_vs_measure_check) and of ``optuple`` (called
by rs_duality_residual).  Only entry points the workloads reach are wrapped,
and within a layer only those a metric needs or whose children belong to
another layer.

Every metric is per traced task (a mean over the traced tasks), except the
extremes (``*_max``, ``*_margin``, ``integral.z``), which are the worst value
over them, and ``series.cayley.cold_s``, which is the first Cayley call of
the process, made by the warm-up task.
"""

from __future__ import annotations

from herglotzlab import cli, fock, growth, optuple, pairing, series

from . import gates
from .spans import outermost_seconds, self_times

LAYERS = ("cli", "series", "pairing", "optuple", "fock", "classes", "growth")


def _calls(key):
    return lambda tr, result, args, kwargs: tr.count(key)


def _values_at_points(tr, result, args, kwargs):
    tr.count("series.values_at.points", len(result))


def _monomial_evals(tr, result, args, kwargs):
    f = args[0]
    tr.count("series.monomial_evals", series.simplex_size(f.d, f.N) * result.shape[1])


def _fock_sweep(tr, result, args, kwargs):
    rows = result["rows"]
    tr.count("fock.iters", sum(row["iters"] for row in rows))
    tr.extreme("fock.residual_max", max(row["residual"] for row in rows))
    tr.extreme("fock.closed_form_err_max",
               max(abs(row["norm_sym_calculus"] - gates.dp_closed_form(row["L"]))
                   for row in rows))


def _pair_evals(tr, result, args, kwargs):
    tr.count("classes.pair_evals", result["pairs"] * len(result["r_grid"]))


def _gram(tr, report, args, kwargs):
    tr.count("classes.gram.count")
    tr.extreme("classes.min_eig_margin", report.min_eig + report.tol, min)


def _growth_samples(tr, profile, args, kwargs):
    tr.count("growth.samples", kwargs["n"] * len(profile.grid))


TS = series.TruncatedSeries

# (owner, attribute, span name, hook)
TARGETS = (
    (cli, "main", "cli.main", None),
    (TS, "values_at", "series.values_at", _values_at_points),
    (TS, "grade_values", "series.grade_values", _monomial_evals),
    (TS, "multiply", "series.multiply", None),
    (TS, "dilate", "series.dilate", None),
    (TS, "reflect", "series.reflect", None),
    (series, "cayley", "series.cayley", None),
    (pairing, "qr_pair", "pairing.qr_pair", _calls("pairing.qr_pair.calls")),
    (optuple, "qr_pair", "pairing.qr_pair", _calls("pairing.qr_pair.calls")),
    (pairing, "pairing_vs_measure_check", "pairing.measure_check", None),
    (pairing, "h2d_inner_integral", "pairing.integral", None),
    (pairing, "h2d_inner_series", "pairing.inner_series", None),
    (optuple, "herglotz_taylor", "optuple.herglotz_taylor",
     _calls("optuple.herglotz_taylor.calls")),
    (cli, "herglotz_taylor", "optuple.herglotz_taylor",
     _calls("optuple.herglotz_taylor.calls")),
    (optuple, "herglotz_transform_many", "optuple.transform_many", None),
    (cli, "herglotz_transform_many", "optuple.transform_many", None),
    (cli, "herglotz_kernel", "optuple.herglotz_kernel", None),
    (cli, "is_row_contraction", "optuple.is_row_contraction", None),
    (cli, "is_weak_row_contraction", "optuple.is_weak_row_contraction", None),
    (cli, "is_commuting", "optuple.is_commuting", None),
    (optuple, "is_commuting", "optuple.is_commuting", None),
    (cli, "rs_duality_residual", "optuple.rs_duality_residual", None),
    (cli, "davidson_pitts_sweep", "fock.sweep", _fock_sweep),
    (fock.FockBasis, "create", "fock.basis", None),
    (cli, "sample_duality_pairs", "classes.sample_pairs", None),
    (cli, "generate_member", "classes.generate_member", None),
    (cli, "duality_sweep", "classes.duality_sweep", _pair_evals),
    (cli, "splus_test", "classes.splus_test", _gram),
    (cli, "schur_test", "classes.schur_test", _gram),
    (cli, "values_at", "classes.values_at", None),
    (growth, "values_at", "classes.values_at", None),
    (cli, "growth_profile", "growth.profile", _growth_samples),
)

# metric -> span names whose outermost calls it times
SPAN_SECONDS = {
    "cli.main.s": ("cli.main",),
    "series.values_at.s": ("series.values_at",),
    "series.cayley.s": ("series.cayley",),
    "series.multiply.s": ("series.multiply",),
    "pairing.measure_check.s": ("pairing.measure_check",),
    "pairing.integral.s": ("pairing.integral",),
    "optuple.herglotz_taylor.s": ("optuple.herglotz_taylor",),
    "optuple.transform_many.s": ("optuple.transform_many",),
    "optuple.predicates.s": ("optuple.is_row_contraction",
                             "optuple.is_weak_row_contraction", "optuple.is_commuting"),
    "fock.sweep.s": ("fock.sweep",),
    "fock.basis.s": ("fock.basis",),
    "classes.duality_sweep.s": ("classes.duality_sweep",),
    "classes.sample_pairs.s": ("classes.sample_pairs",),
    "classes.gram.s": ("classes.splus_test", "classes.schur_test"),
    "growth.profile.s": ("growth.profile",),
}
SUMMED = ("series.values_at.points", "series.monomial_evals", "pairing.qr_pair.calls",
          "optuple.herglotz_taylor.calls", "fock.iters", "classes.pair_evals",
          "classes.gram.count", "growth.samples")
WORST = {"fock.residual_max": max, "fock.closed_form_err_max": max,
         "classes.min_eig_margin": min}


def per_layer(tracer, records, warmup_task: int) -> dict:
    """Per-layer metrics of the traced ``records`` (values only)."""
    tasks = {r.task for r in records}
    n = len(tasks)
    spans = [s for s in tracer.spans if s.task in tasks]
    out = {name: outermost_seconds(spans, names) / n for name, names in SPAN_SECONDS.items()}
    own = self_times(spans)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(own[s.id] for s in spans if s.layer == layer) / n
    counters = [tracer.counters.get(t, {}) for t in tasks]
    for key in SUMMED:
        out[key] = sum(c.get(key, 0.0) for c in counters) / n
    for key, pick in WORST.items():
        seen = [c[key] for c in counters if key in c]
        out[key] = pick(seen) if seen else 0.0

    cold = [s for s in tracer.spans if s.task == warmup_task and s.name == "series.cayley"]
    out["series.cayley.cold_s"] = cold[0].duration if cold else 0.0
    out["fock.s_per_iter"] = out["fock.sweep.s"] / out["fock.iters"] if out["fock.iters"] else 0.0
    out["growth.points_per_s"] = (out["growth.samples"] / out["growth.profile.s"]
                                  if out["growth.profile.s"] else 0.0)

    results = [r.result for r in records if r.result is not None]
    out["cli.report_bytes"] = sum(r.get("report_bytes", 0) for r in results) / n
    z = [r["integral_z"] for r in results if "integral_z" in r]
    out["pairing.integral.z"] = max(z) if z else 0.0
    return out
