"""Experiment orchestration: reproducible runs with JSON configuration and
machine-readable reports.

One executable with subcommands; configuration comes from an optional JSON
file plus flag overrides (--seed, --out, --csv).  Reports embed the
config, the tool version, and the tolerance constants, and are identical
for identical configs apart from the timing field.  Each ``cmd_*`` takes the
seed and its params as keyword arguments: its signature is the param schema.
Exit codes: 0 success; 2 malformed input, an unknown or missing param, or an
input outside a function's domain; 3 a resource cap (SizeCapError) exceeded.
Any other exit, such as 1 with a traceback, is a bug.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field

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
from .fock import DP_LIMIT_NORM, LANCZOS_TOL, davidson_pitts_sweep
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
    SizeCapError,
    TruncatedSeries,
    _check_caps,
    _json_int,
    _json_keys,
    simplex_size,
)

TOLERANCES = {
    "gram_tol_scale": GRAM_TOL_SCALE,
    "lanczos_tol": LANCZOS_TOL,
    "duality_min_re": -1e-9,
}

DEFAULT_TARGET = {"kind": "extreme", "zeta": ((1.0, 0.0), (0.0, 0.0))}


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


def _is_scalar(value) -> bool:
    """A string or a finite number: what int() and float() take without a
    TypeError or an OverflowError."""
    return isinstance(value, str) or (isinstance(value, (int, float))
                                      and abs(value) <= sys.float_info.max)


def _check_types(command: str, signature: inspect.Signature, params: dict) -> None:
    """A param whose default is a number takes a scalar, integral if the
    default is an int, one whose default is a tuple a list of numbers; the
    commands parse the others themselves."""
    for name, value in params.items():
        default = signature.parameters[name].default
        if isinstance(default, tuple):
            want = "a list of numbers"
            ok = isinstance(value, list) and all(isinstance(v, (int, float)) for v in value)
        elif isinstance(default, int) and isinstance(value, float):
            want, ok = "an integer", value.is_integer()
        elif isinstance(default, (int, float)):
            want, ok = "a number", _is_scalar(value)
        else:
            continue
        if not ok:
            raise InputError(f"{command}: param {name!r} must be {want}, got {value!r}")


def _load_json_value(spec) -> dict:
    """Accept an inline object, a path, or '-' for stdin."""
    if spec == "-":
        spec = json.loads(sys.stdin.read())
    elif isinstance(spec, str):
        with open(spec, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    if not isinstance(spec, dict):
        raise InputError(f"expected a JSON object, a path or '-', got {spec!r}")
    return spec


def _parse(cls, spec):
    """cls.from_json of the object in spec; a TypeError there (a number
    where a list belongs) is malformed input."""
    obj = _load_json_value(spec)
    try:
        return cls.from_json(obj)
    except TypeError as exc:
        raise InputError(f"malformed {cls.__name__} input: {exc}") from None


def _c2(v: complex) -> list:
    return [float(v.real), float(v.imag)]


# -- subcommands ------------------------------------------------------------


def cmd_pair(seed, f, g, r_grid=R_GRID, measure=None, mode="full"):
    f = _parse(TruncatedSeries, f)
    g = _parse(TruncatedSeries, g)
    q_values, identity_res, hermitian_res = [], 0.0, 0.0
    for r in r_grid:
        q = qr_pair(f, g, r)
        q_values.append(_c2(q))
        sr = math.sqrt(r)
        N = min(f.N, g.N)
        ft, gt = f.truncate(N).dilate(sr), g.truncate(N).dilate(sr)
        ident = h2d_inner_series(ft, gt) + f.constant_term * np.conj(g.constant_term)
        identity_res = max(identity_res, abs(q - ident))
        hermitian_res = max(hermitian_res, abs(q - np.conj(qr_pair(g, f, r))))
    results = {
        "r_grid": list(r_grid),
        "q_values": q_values,
        "identity_residual_max": identity_res,
        "hermitian_residual_max": hermitian_res,
    }
    if measure is not None:
        mu = _parse(AtomicMeasure, measure)
        res = max(pairing_vs_measure_check(f, mu, r, mode=mode)
                  for r in r_grid if r < 1.0)
        results["measure_residual_max"] = res
    return results


def cmd_herglotz(seed, datum, N=DEFAULT_DEGREE, points=200):
    D = _parse(HerglotzDatum, datum)
    _check_caps(D.d, int(N))
    row_ok, row_eig = is_row_contraction(D.tuple)
    weak = is_weak_row_contraction(D.tuple, seed=seed)
    comm_ok, comm_norm = is_commuting(D.tuple)
    pts = random_pointset(D.d, int(points), seed=seed).points
    failures = 0
    re_min = None           # stays null when the batched transform fails
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
    series = herglotz_taylor(D, int(N))
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


def cmd_davidson_pitts(seed, N_sym=16, L_full=16, L_sweep=None):
    if L_sweep is None:
        L_sweep = list(range(4, int(L_full) + 1))
    table = davidson_pitts_sweep(L_sweep, N_sym)
    norms = [row["norm_sym_calculus"] for row in table["rows"]]
    last = table["rows"][-1]
    gap = last["norm_sym_calculus"] - table["norm_sym_shift"]
    return {
        "L_full": max(row["L"] for row in table["rows"]),
        "N_sym": table["N_sym"],
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


def cmd_duality(seed, trials=200, d=2, r_grid=R_GRID, identity_trials=20):
    trials, d = int(trials), int(d)
    if trials < 1 or not r_grid or not all(0.0 <= r <= 1.0 for r in r_grid):
        raise InputError(f"duality needs trials >= 1 and a non-empty r_grid in "
                         f"[0, 1], got trials={trials}, r_grid={r_grid!r}")
    om = duality_sweep(sample_duality_pairs("O+", "M+", trials, seed, d=d), r_grid)
    sr = duality_sweep(sample_duality_pairs("S+", "R+", trials, seed + 10 ** 6, d=d), r_grid)
    rng = np.random.default_rng(seed)
    worst_ident = 0.0
    m = simplex_size(d, 6)
    for k in range(int(identity_trials)):
        member = generate_member("R+", seed + 31 * k + 7, d=d, n=4)
        f = TruncatedSeries(d, 6, rng.standard_normal(m) + 1j * rng.standard_normal(m))
        worst_ident = max(worst_ident, rs_duality_residual(f, member.datum, r_grid))
    return {
        "om": {"min_re": om["min_re"], "argmin": om["argmin"]},
        "sr": {"min_re": sr["min_re"], "argmin": sr["argmin"]},
        "rs_identity_max_residual": worst_ident,
        "trials": trials,
    }


# the keys each target kind takes besides "kind"
TARGET_KEYS = {"extreme": ("zeta",), "series": ("series",), "datum": ("datum",),
               "sample": ("class", "d")}


def _target_function(spec, seed: int):
    if not isinstance(spec, dict):
        raise InputError(f"target must be a JSON object, got {spec!r}")
    kind = spec.get("kind")
    if kind not in TARGET_KEYS:
        raise InputError(f"unknown target kind {kind!r}")
    _json_keys(spec, ("kind",) + TARGET_KEYS[kind], f"{kind} target")
    if kind == "extreme":
        zeta = spec.get("zeta")
        if not (isinstance(zeta, (list, tuple)) and all(
                isinstance(z, (list, tuple)) and len(z) == 2 and all(map(_is_scalar, z)) for z in zeta)):
            raise InputError(f"an extreme target needs [re, im] pairs 'zeta', got {spec!r}")
        return BoundaryKernel(np.array([complex(float(re), float(im)) for re, im in zeta]))
    if kind == "series":
        return _parse(TruncatedSeries, spec["series"])
    if kind == "datum":
        return _parse(HerglotzDatum, spec["datum"])
    return generate_member(spec.get("class", "S+"), seed,
                           d=_json_int(spec.get("d", 2), "d")).evaluator


def cmd_membership(seed, target=DEFAULT_TARGET, points=25, trials=8):
    func = _target_function(target, seed)

    class _Cayley:
        d = func.d

        @staticmethod
        def values_at(points):
            v = values_at(func, points)
            return (v - 1.0) / (v + 1.0)

    reports = []
    all_pass = True
    for k in range(int(trials)):
        maker = random_pointset if k % 2 == 0 else boundary_biased_pointset
        pts = maker(func.d, int(points), seed=seed + k)
        rep = splus_test(func, pts)
        reports.append(rep.to_json())
        all_pass &= rep.verdict == "pass"
        pts2 = maker(func.d, int(points), seed=seed + 1000 + k)
        rep2 = schur_test(_Cayley, pts2)
        reports.append(rep2.to_json())
        all_pass &= rep2.verdict == "pass"
    return {"reports": reports, "all_pass": bool(all_pass)}


def cmd_growth(seed, target=DEFAULT_TARGET, p=1.0, grid=DEFAULT_R_GRID,
               samples=DEFAULT_SAMPLES):
    func = _target_function(target, seed)
    profile = growth_profile(func, p=float(p), r_grid=grid, n=int(samples), seed=seed)
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


def _davidson_pitts_csv(results: dict):
    yield "L,norm_sym_calculus,norm_sym_shift,iters,residual"
    for row in results["sweep"]:
        yield (f"{row['L']},{row['norm_sym_calculus']!r},"
               f"{results['norm_sym_shift']!r},{row['iters']},{row['residual']!r}")


def _growth_csv(results: dict):
    prof = results["profile"]
    yield "r,mean,stderr"
    for r, m, e in zip(prof["grid"], prof["means"], prof["stderr"]):
        yield f"{r!r},{m!r},{e!r}"


CSV_EXPORTS = {"davidson-pitts": _davidson_pitts_csv, "growth": _growth_csv}


def _write_csv(path: str, command: str, results: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(CSV_EXPORTS[command](results)) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="herglotzlab",
        description="Reproducible experiments on positive-real-part functions "
                    "on the complex unit ball",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        params = list(inspect.signature(cmd).parameters.values())[1:]
        sp = sub.add_parser(name, epilog="params (--param KEY=JSON): " + ", ".join(
            p.name if p.default is p.empty else f"{p.name}={json.dumps(p.default)}"
            for p in params))
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
        params, seed = obj.get("params", {}), obj.get("seed", 0)
        out, csv = obj.get("out", ""), obj.get("csv", "")
        if not (isinstance(params, dict) and _is_scalar(seed)
                and isinstance(out, str) and isinstance(csv, str)):
            raise InputError("config needs an object 'params', a number 'seed' "
                             "and strings 'out' and 'csv'")
        params = dict(params)
        for key in obj:
            if key not in ("command", "seed", "out", "csv", "params"):
                params[key] = obj[key]
        seed = int(seed)
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
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if cfg.csv and cfg.command not in CSV_EXPORTS:
            raise InputError(f"no CSV export for command {cfg.command!r}")
        cmd = COMMANDS[cfg.command]
        signature = inspect.signature(cmd)
        try:
            bound = signature.bind(cfg.seed, **cfg.params)
        except TypeError as exc:
            raise InputError(f"{cfg.command}: {exc}") from None
        _check_types(cfg.command, signature, cfg.params)
        start = time.time()
        results = cmd(*bound.args, **bound.kwargs)
        elapsed = time.time() - start
        report = {
            "command": cfg.command,
            "version": __version__,
            "config": asdict(cfg),
            "tolerances": TOLERANCES,
            "timing_s": elapsed,
            "results": results,
        }
        payload = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        else:
            print(payload)
        if cfg.csv:
            _write_csv(cfg.csv, cfg.command, results)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (KeyError, OSError, ValueError, SeriesDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
