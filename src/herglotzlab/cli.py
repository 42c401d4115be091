"""Experiment orchestration: reproducible runs with JSON configuration and
machine-readable reports.

One executable with subcommands; configuration comes from an optional JSON
file plus flag overrides (--seed, --out, --csv).  Reports embed the
config, the tool version, and the tolerance constants, and are identical
for identical configs apart from the timing field.  Exit codes: 0 success,
2 malformed input or an input outside a function's domain, 3 resource cap
exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .classes import (
    GRAM_TOL_SCALE,
    BoundaryKernel,
    boundary_biased_pointset,
    duality_sweep,
    generate_member,
    random_pointset,
    sample_duality_pairs,
    schur_test,
    splus_test,
    values_at,
)
from .fock import (
    DP_LIMIT_NORM,
    LANCZOS_TOL,
    SizeCapError,
    davidson_pitts_sweep,
)
from .growth import DEFAULT_R_GRID, DEFAULT_SAMPLES, growth_profile
from .optuple import (
    HerglotzDatum,
    SingularPencilError,
    herglotz_kernel,
    herglotz_taylor,
    herglotz_transform_many,
    is_commuting,
    is_row_contraction,
    is_weak_row_contraction,
    rs_duality_residual,
)
from .pairing import (
    AtomicMeasure,
    R_GRID,
    h2d_inner_series,
    pairing_vs_measure_check,
    qr_pair,
)
from .series import (
    DEFAULT_DEGREE,
    SeriesDomainError,
    TruncatedSeries,
    simplex_size,
)

TOLERANCES = {
    "gram_tol_scale": GRAM_TOL_SCALE,
    "lanczos_tol": LANCZOS_TOL,
    "duality_min_re": -1e-9,
}


class InputError(ValueError):
    """Malformed or missing command input."""


@dataclass
class RunConfig:
    """Everything that determines a run's outputs byte for byte."""

    command: str
    seed: int = 0
    out: str = ""
    csv: str = ""
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"command": self.command, "seed": self.seed, "out": self.out,
                "csv": self.csv, "params": self.params}


def _load_json_value(spec):
    """Accept an inline object, a path, or '-' for stdin."""
    if isinstance(spec, dict):
        return spec
    if spec == "-":
        return json.loads(sys.stdin.read())
    with open(spec, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _series_from(spec) -> TruncatedSeries:
    return TruncatedSeries.from_json(_load_json_value(spec))


def _c2(v: complex) -> list:
    return [float(v.real), float(v.imag)]


# -- subcommands ------------------------------------------------------------


def cmd_pair(cfg: RunConfig) -> dict:
    p = cfg.params
    if "f" not in p or "g" not in p:
        raise InputError("pair needs series inputs 'f' and 'g'")
    f = _series_from(p["f"])
    g = _series_from(p["g"])
    grid = p.get("r_grid", list(R_GRID))
    q_values, identity_res, hermitian_res = [], 0.0, 0.0
    for r in grid:
        q = qr_pair(f, g, r)
        q_values.append(_c2(q))
        sr = math.sqrt(r)
        N = min(f.N, g.N)
        ft, gt = f.truncate(N).dilate(sr), g.truncate(N).dilate(sr)
        ident = h2d_inner_series(ft, gt) + f.constant_term * np.conj(g.constant_term)
        identity_res = max(identity_res, abs(q - ident))
        hermitian_res = max(hermitian_res, abs(q - np.conj(qr_pair(g, f, r))))
    results = {
        "r_grid": list(grid),
        "q_values": q_values,
        "identity_residual_max": identity_res,
        "hermitian_residual_max": hermitian_res,
    }
    if "measure" in p:
        mu = AtomicMeasure.from_json(_load_json_value(p["measure"]))
        mode = p.get("mode", "full")
        res = max(pairing_vs_measure_check(f, mu, r, mode=mode)
                  for r in grid if r < 1.0)
        results["measure_residual_max"] = res
    return results


def cmd_herglotz(cfg: RunConfig) -> dict:
    p = cfg.params
    if "datum" not in p:
        raise InputError("herglotz needs a 'datum' input")
    D = HerglotzDatum.from_json(_load_json_value(p["datum"]))
    N = int(p.get("N", DEFAULT_DEGREE))
    n_points = int(p.get("points", 200))
    row_ok, row_eig = is_row_contraction(D.tuple)
    weak = is_weak_row_contraction(D.tuple, seed=cfg.seed)
    comm_ok, comm_norm = is_commuting(D.tuple)
    pts = random_pointset(D.d, n_points, seed=cfg.seed).points
    failures = 0
    re_min = math.inf
    fact_res = 0.0
    try:
        vals = herglotz_transform_many(D, pts)
        re_min = float(vals.real.min())
    except (SingularPencilError, np.linalg.LinAlgError):
        failures += 1
    for z in pts[: min(20, len(pts))]:
        try:
            H = herglotz_kernel(z, D.tuple)
            A = D.tuple.zeta_dot(z)
            eye = np.eye(D.tuple.n, dtype=complex)
            inv = np.linalg.solve(eye - A, eye)
            target = 2.0 * inv @ (eye - A @ A.conj().T) @ inv.conj().T
            fact_res = max(fact_res, float(np.linalg.norm(H + H.conj().T - target, 2)))
        except (SingularPencilError, np.linalg.LinAlgError):
            failures += 1
    series = herglotz_taylor(D, N)
    return {
        "predicates": {
            "row_contraction": {"ok": bool(row_ok), "min_eig": row_eig},
            "weak_row_contraction": {"ok": bool(weak.is_weak),
                                     "sup_estimate": weak.sup_estimate,
                                     "worst_zeta": [_c2(v) for v in weak.worst_zeta]},
            "commuting": {"ok": bool(comm_ok), "max_commutator": comm_norm},
        },
        "taylor": series.to_json(),
        "re_min_sampled": re_min,
        "factorization_residual_max": fact_res,
        "pointwise_failures": failures,
    }


def cmd_davidson_pitts(cfg: RunConfig) -> dict:
    p = cfg.params
    N_sym = int(p.get("N_sym", 16))
    sweep_values = p.get("L_sweep", list(range(4, int(p.get("L_full", 16)) + 1)))
    if not isinstance(sweep_values, list):
        raise InputError(f"L_sweep must be a JSON list of word lengths, "
                         f"got {sweep_values!r}")
    table = davidson_pitts_sweep(sweep_values, N_sym)
    norms = [row["norm_sym_calculus"] for row in table["rows"]]
    last = table["rows"][-1]
    gap = last["norm_sym_calculus"] - table["norm_sym_shift"]
    return {
        "L_full": max(row["L"] for row in table["rows"]),
        "N_sym": N_sym,
        "norm_sym_shift": table["norm_sym_shift"],
        "norm_sym_calculus": last["norm_sym_calculus"],
        "iters": last["iters"],
        "residual": last["residual"],
        "converged": all(row["converged"] for row in table["rows"]),
        "sweep": table["rows"],
        "nondecreasing": bool(all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))),
        "gap": gap,
        "gap_exceeds_sqrt2": bool(last["norm_sym_calculus"] > math.sqrt(2.0)
                                  > table["norm_sym_shift"]),
        "limit_norm_note": (
            f"word-side target is sqrt(5/2) = {DP_LIMIT_NORM:.6f}; the squared "
            f"norm of the symmetrized polynomial is 5/2"),
    }


def cmd_duality(cfg: RunConfig) -> dict:
    p = cfg.params
    trials = int(p.get("trials", 200))
    d = int(p.get("d", 2))
    grid = p.get("r_grid", list(R_GRID))
    if trials < 1 or not grid:
        raise InputError(f"duality needs trials >= 1 and a non-empty r_grid, "
                         f"got trials={trials}, r_grid={grid!r}")
    om = duality_sweep(sample_duality_pairs("O+", "M+", trials, cfg.seed, d=d), grid)
    sr = duality_sweep(sample_duality_pairs("S+", "R+", trials, cfg.seed + 10 ** 6, d=d), grid)
    rng = np.random.default_rng(cfg.seed)
    worst_ident = 0.0
    m = simplex_size(d, 6)
    for k in range(int(p.get("identity_trials", 20))):
        member = generate_member("R+", cfg.seed + 31 * k + 7, d=d, n=4)
        f = TruncatedSeries(d, 6, rng.standard_normal(m) + 1j * rng.standard_normal(m))
        for r in grid:
            worst_ident = max(worst_ident,
                              rs_duality_residual(f, member.datum, r))
    return {
        "om": {"min_re": om["min_re"], "argmin": om["argmin"]},
        "sr": {"min_re": sr["min_re"], "argmin": sr["argmin"]},
        "rs_identity_max_residual": worst_ident,
        "trials": trials,
    }


def _target_function(p: dict, seed: int):
    spec = p.get("target", {"kind": "extreme", "zeta": [[1.0, 0.0], [0.0, 0.0]]})
    kind = spec.get("kind")
    if kind == "extreme":
        zeta = np.array([complex(re, im) for re, im in spec["zeta"]])
        return BoundaryKernel(zeta), None
    if kind == "series":
        return _series_from(spec["series"]), None
    if kind == "datum":
        D = HerglotzDatum.from_json(_load_json_value(spec["datum"]))
        return D, D
    if kind == "sample":
        member = generate_member(spec.get("class", "S+"), seed,
                                 d=int(spec.get("d", 2)))
        return member.evaluator, member.datum
    raise InputError(f"unknown target kind {kind!r}")


def cmd_membership(cfg: RunConfig) -> dict:
    p = cfg.params
    func, _ = _target_function(p, cfg.seed)
    n_points = int(p.get("points", 25))
    trials = int(p.get("trials", 8))
    reports = []
    all_pass = True
    for k in range(trials):
        maker = random_pointset if k % 2 == 0 else boundary_biased_pointset
        pts = maker(func.d, n_points, seed=cfg.seed + k)
        rep = splus_test(func, pts)
        reports.append(rep.to_json())
        all_pass &= rep.verdict == "pass"
        pts2 = maker(func.d, n_points, seed=cfg.seed + 1000 + k)

        class _Cayley:
            d = func.d

            @staticmethod
            def values_at(points):
                v = values_at(func, points)
                return (v - 1.0) / (v + 1.0)

        rep2 = schur_test(_Cayley, pts2)
        reports.append(rep2.to_json())
        all_pass &= rep2.verdict == "pass"
    return {"reports": reports, "all_pass": bool(all_pass)}


def cmd_growth(cfg: RunConfig) -> dict:
    p = cfg.params
    func, _ = _target_function(p, cfg.seed)
    profile = growth_profile(
        func,
        p=float(p.get("p", 1.0)),
        r_grid=p.get("grid", list(DEFAULT_R_GRID)),
        n=int(p.get("samples", DEFAULT_SAMPLES)),
        seed=cfg.seed,
    )
    out = profile.to_json()
    return {"profile": out, "clamp_count": int(getattr(func, "clamps", 0))}


COMMANDS = {
    "pair": cmd_pair,
    "herglotz": cmd_herglotz,
    "davidson-pitts": cmd_davidson_pitts,
    "duality": cmd_duality,
    "membership": cmd_membership,
    "growth": cmd_growth,
}


def _write_csv(path: str, command: str, results: dict) -> None:
    lines = []
    if command == "davidson-pitts":
        lines.append("L,norm_sym_calculus,norm_sym_shift,iters,residual")
        for row in results["sweep"]:
            lines.append(f"{row['L']},{row['norm_sym_calculus']!r},"
                         f"{results['norm_sym_shift']!r},{row['iters']},"
                         f"{row['residual']!r}")
    elif command == "growth":
        prof = results["profile"]
        lines.append("r,mean,stderr")
        for r, m, e in zip(prof["grid"], prof["means"], prof["stderr"]):
            lines.append(f"{r!r},{m!r},{e!r}")
    else:
        raise InputError(f"no CSV export for command {command!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="herglotzlab",
        description="Reproducible experiments on positive-real-part functions "
                    "on the complex unit ball",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None,
                        help="JSON config file ('-' for stdin)")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None, help="report output path")
        sp.add_argument("--csv", default=None, help="tabular export path")
        sp.add_argument("--param", action="append", default=[],
                        metavar="KEY=JSON",
                        help="override a single config parameter")
    return parser


def _config_from_args(args) -> RunConfig:
    params = {}
    seed, out, csv = 0, "", ""
    if args.config:
        obj = _load_json_value(args.config)
        params = dict(obj.get("params", {}))
        for key in obj:
            if key not in ("command", "seed", "out", "csv", "params"):
                params[key] = obj[key]
        seed = int(obj.get("seed", 0))
        out = obj.get("out", "")
        csv = obj.get("csv", "")
    for spec in args.param:
        if "=" not in spec:
            raise InputError(f"--param needs KEY=JSON, got {spec!r}")
        key, raw = spec.split("=", 1)
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    if args.seed is not None:
        seed = args.seed
    if args.out is not None:
        out = args.out
    if args.csv is not None:
        csv = args.csv
    return RunConfig(args.command, seed, out, csv, params)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        start = time.time()
        results = COMMANDS[cfg.command](cfg)
        elapsed = time.time() - start
    except (InputError, json.JSONDecodeError, FileNotFoundError, KeyError,
            ValueError, SeriesDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, SizeCapError) else 2

    report = {
        "command": cfg.command,
        "version": __version__,
        "config": cfg.to_json(),
        "tolerances": TOLERANCES,
        "timing_s": elapsed,
        "results": results,
    }
    payload = json.dumps(report, indent=2, sort_keys=True)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    if cfg.csv:
        _write_csv(cfg.csv, cfg.command, results)
    return 0
