"""Correctness gates, one set per workload.

Each gate takes the result a task returned and gives back a list of
problems; an empty list means the task passed.  Tolerances are fixed here
and listed, with the error the program reaches on them, in README.md.
"""

from __future__ import annotations

import math

FOCK_L_SWEEP = tuple(range(4, 12))
# Power iteration stops on a relative eigenvalue change of 1e-10 and
# lands up to 1.1e-9 below the closed form at L = 11.
FOCK_CLOSED_FORM_TOL = 1e-8

BALL_IDENTITY_TOL = 1e-12       # Cayley round trip and product identity
BALL_VALUES_TOL = 1e-12         # values_at against herglotz_transform_many
BALL_MEASURE_TOL = 1e-10        # pairing_vs_measure_check residual
BALL_INTEGRAL_Z = 5.0           # |integral - series| in standard errors

DUALITY_MIN_RE = -1e-9
RS_IDENTITY_TOL = 1e-10


def dp_closed_form(L: int) -> float:
    """Restriction norm of (z1 + z1 z2)^sym on words of length <= L."""
    return math.sqrt(1.5 + math.cos(math.pi / (L + 2)))


def check_fock_norms(result: dict) -> list:
    if result["rc"] != 0:
        return [f"davidson-pitts exited {result['rc']}"]
    rep = result["report"]
    rows = rep["sweep"]
    problems = []
    if tuple(row["L"] for row in rows) != FOCK_L_SWEEP:
        problems.append(f"sweep rows {[row['L'] for row in rows]}")
    norms = [row["norm_sym_calculus"] for row in rows]
    for row in rows:
        err = abs(row["norm_sym_calculus"] - dp_closed_form(row["L"]))
        if not err <= FOCK_CLOSED_FORM_TOL:
            problems.append(f"L={row['L']}: off the closed form by {err:.3g}")
    if any(b < a for a, b in zip(norms, norms[1:])):
        problems.append("rows decrease")
    if not rep["norm_sym_shift"] < math.sqrt(2.0) < norms[-1]:
        problems.append(f"no separation: shift {rep['norm_sym_shift']!r}, "
                        f"words {norms[-1]!r}")
    return problems


def check_ball_series(result: dict) -> list:
    limits = {
        "cayley_roundtrip": BALL_IDENTITY_TOL,
        "cayley_product": BALL_IDENTITY_TOL,
        "values_vs_transform": BALL_VALUES_TOL,
        "measure_residual": BALL_MEASURE_TOL,
        "integral_z": BALL_INTEGRAL_Z,
    }
    return [f"{key} = {result[key]:.3g} > {tol:g}"
            for key, tol in limits.items() if not result[key] <= tol]


def check_class_sweeps(result: dict) -> list:
    problems = [f"{name} exited {rc}" for name, rc in result["rc"].items() if rc != 0]
    if problems:
        return problems
    dual = result["duality"]
    for side in ("om", "sr"):
        if not dual[side]["min_re"] >= DUALITY_MIN_RE:
            problems.append(f"duality {side} min_re {dual[side]['min_re']!r}")
    if not dual["rs_identity_max_residual"] <= RS_IDENTITY_TOL:
        problems.append(f"rs identity residual {dual['rs_identity_max_residual']!r}")
    if result["membership"]["all_pass"] is not True:
        problems.append("membership: not all_pass")
    for key, want in (("growth_p1", "bounded"), ("growth_p3", "divergent")):
        got = result[key]["profile"]["verdict"]
        if got != want:
            problems.append(f"{key}: verdict {got!r}, expected {want!r}")
    herg = result["herglotz"]
    if herg["predicates"]["row_contraction"]["ok"] is not True:
        problems.append("herglotz: datum not a row contraction")
    if not herg["re_min_sampled"] >= 0.0:
        problems.append(f"herglotz: re_min_sampled {herg['re_min_sampled']!r}")
    if herg["pointwise_failures"] != 0:
        problems.append(f"herglotz: {herg['pointwise_failures']} pointwise failures")
    return problems
