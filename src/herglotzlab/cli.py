"""Experiment orchestration: reproducible runs with JSON configuration and
machine-readable reports.

One executable with subcommands; configuration comes from an optional JSON
file plus flag overrides (--seed, --out, --csv).  Reports embed the
config, the tool version, and the tolerance constants, and are identical
for identical configs apart from the timing field.  Each ``cmd_*`` takes the
seed and its params as keyword arguments: its signature is the param schema,
and each annotation is a param kind that ``main`` applies to the JSON value,
default included, before any work, so the commands get typed values.
A command splits its seed once (``SeedSequence.spawn``) into one Generator
per sampled role; each sampler draws only from the Generator it is handed.
Exit codes: 0 success; 2 malformed input, an unknown or missing param, or an
input outside a function's domain; 3 a resource cap (SizeCapError) exceeded.
Any other exit, such as 1 with a traceback, is a bug.
"""

import argparse
import functools
import inspect
import json
import math
import sys
import textwrap
import time
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace

import numpy as np

from . import __version__
from .classes import (
    GRAM_TOL_SCALE,
    MEMBER_KINDS,
    boundary_biased_pointset,
    boundary_kernel,
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
    _check_dimension,
    _json_complex,
    _json_float as Float,
    _json_int as Int,
    _json_keys,
    _json_list,
    simplex_size,
)

TOLERANCES = {
    "gram_tol_scale": GRAM_TOL_SCALE,
    "lanczos_tol": LANCZOS_TOL,
    "duality_min_re": -1e-9,
}

# duality builds 2 trials + identity_trials members, in chunks of bounded bytes
DUALITY_MEMBER_CAP = 16384
# a datum pair's resolvent stack holds one (n^2 x n^2) matrix per radius
RADII_CAP = 1024
# the byte cap of the membership Gram matrix, the herglotz pencils, the growth directions
ARRAY_BYTES_CAP = 2 ** 27

DEFAULT_TARGET = {"kind": "extreme", "zeta": ((1.0, 0.0), (0.0, 0.0))}


@dataclass
class RunConfig:
    """Everything that determines a run's outputs byte for byte."""

    command: str
    seed: int = 0
    out: str = ""
    csv: str = ""
    params: dict = field(default_factory=dict)


def _load_json_value(spec, what: str) -> dict:
    """Accept an inline object, a path, or '-' for stdin."""
    if spec == "-":
        spec = json.loads(sys.stdin.read())
    elif isinstance(spec, str):
        with open(spec, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError(f"{what} must be a JSON object, a path or '-', got {spec!r}")
    return spec


def _c2(v: complex) -> list:
    return [float(v.real), float(v.imag)]


# -- param kinds (with Int and Float from series): each takes a JSON value
# and a name, and returns the typed value or a ValueError that names it ---


def Count(value, what: str, least: int = 1) -> int:
    n = Int(value, what)
    if n < least:
        raise ValueError(f"{what} must be >= {least}, got {n}")
    return n


def Seed(value, what: str) -> int:
    """A non-negative integer: the entropy of ``np.random.SeedSequence``."""
    return Count(value, what, 0)


def _streams(seed: int, roles: int) -> list:
    """One independent Generator for each of a command's sampled roles."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(roles)]


def _check_bytes(what: str, nbytes: int, param: str) -> None:
    if nbytes > ARRAY_BYTES_CAP:
        raise SizeCapError(f"{what} would take {nbytes} bytes, over the cap of "
                           f"{ARRAY_BYTES_CAP}: lower {param!r}")


def Dimension(value, what: str) -> int:
    """An integer within the dimension cap of the series layer."""
    d = Int(value, what)
    _check_dimension(d, what)
    return d


def Radii(value, what: str) -> tuple:
    """A non-empty list of at most RADII_CAP finite numbers in [0, 1]."""
    if len(value := _json_list(value, what)) > RADII_CAP:
        raise SizeCapError(f"{what} has {len(value)} radii, over the cap of {RADII_CAP}")
    radii = tuple(Float(r, what) for r in value)
    if not radii or not all(0.0 <= r <= 1.0 for r in radii):
        raise ValueError(f"{what} must be a non-empty list of radii in [0, 1], got {value!r}")
    return radii


def Lengths(value, what: str) -> list:
    return [Count(L, f"{what}: a word length") for L in _json_list(value, what)]


def Mode(value, what: str) -> str:
    if value not in ("full", "half"):
        raise ValueError(f"{what} must be \"full\" or \"half\", got {value!r}")
    return value


def ClassKind(value, what: str) -> str:
    if value not in MEMBER_KINDS:
        raise ValueError(f"{what} must be one of {list(MEMBER_KINDS)}, got {value!r}")
    return value


def _object(cls):
    return lambda value, what: cls.from_json(_load_json_value(value, what))


Series, Measure, Datum = map(_object, (TruncatedSeries, AtomicMeasure, HerglotzDatum))


# the keys each target kind takes besides "kind", all required but a sample's
TARGET_KEYS = {"extreme": ("zeta",), "series": ("series",), "datum": ("datum",),
               "sample": ("class", "d")}


def Target(value, what: str):
    """The target's d and ``draw``, the function of a Generator that gives a
    measure, a datum, a series, or a class sample drawn from it."""
    kind = value.get("kind") if isinstance(value, dict) else None
    if kind not in TARGET_KEYS:
        raise ValueError(f"{what} must be an object whose kind is one of "
                         f"{sorted(TARGET_KEYS)}, got {value!r}")
    _json_keys(value, ("kind",) + TARGET_KEYS[kind], f"{kind} target",
               () if kind == "sample" else TARGET_KEYS[kind])
    if kind == "sample":
        cls = ClassKind(value.get("class", "S+"), "class")
        d = Dimension(value.get("d", 2), "d")
        return SimpleNamespace(d=d, draw=lambda rng: generate_member(cls, rng, d=d))
    if kind == "extreme":
        func = boundary_kernel(_json_complex(value["zeta"], "zeta", 1))
    else:
        func = {"series": Series, "datum": Datum}[kind](value[kind], kind)
    return SimpleNamespace(d=func.d, draw=lambda rng: func)


# the JSON format of each object kind, listed by a command's --help; each
# but a target is an inline object, a path, or '-' for stdin
FORMATS = {
    Series: 'series format: {"d": int, "N": int, "coeffs": [{"alpha": [int, ...], "re": float, '
            '"im": float}, ...]}',
    Measure: 'measure format: {"points": [[[re, im] x d], ...], "weights": [float, ...], '
             '"support": "boundary" | "interior"}',
    Datum: 'datum format: {"d": int, "n": int, "matrices": [[[[re, im], ...], ...], ...], '
           '"xi": [[re, im], ...], "t": float}',
    Target: 'target format (inline JSON only): {"kind": "extreme", "zeta": [[re, im] x d]}, {"kind": '
            '"series", "series": <series>}, {"kind": "datum", "datum": <datum>} or {"kind": '
            '"sample", "class": "M+" | "R+" | "S+", "d": int}, with <series> and <datum> '
            'as listed by pair --help and herglotz --help',
}
_fill = functools.partial(textwrap.fill, width=79, break_long_words=False,
                          break_on_hyphens=False)


# -- subcommands ------------------------------------------------------------


def cmd_pair(seed: Seed, f: Series, g: Series, r_grid: Radii = R_GRID,
             measure: Measure = None, mode: Mode = "full"):
    if measure is not None and min(r_grid) >= 1.0:
        raise ValueError(f"pair: 'measure' needs a radius below 1 in 'r_grid', got {r_grid}")
    q = qr_pair(f, g, r_grid)
    fN, gN = f.truncate(g.N), g.truncate(f.N)         # both of degree min(f.N, g.N)
    ident = [h2d_inner_series(fN.dilate(math.sqrt(r)), gN.dilate(math.sqrt(r)))
             + f.constant_term * np.conj(g.constant_term) for r in r_grid]
    results = {
        "r_grid": list(r_grid),
        "q_values": [_c2(v) for v in q],
        "identity_residual_max": float(np.abs(q - ident).max()),
        "hermitian_residual_max": float(np.abs(q - np.conj(qr_pair(g, f, r_grid))).max()),
    }
    if measure is not None:
        res = max(pairing_vs_measure_check(f, measure, r, mode=mode)
                  for r in r_grid if r < 1.0)
        results["measure_residual_max"] = res
    return results


def cmd_herglotz(seed: Seed, datum: Datum, N: Int = DEFAULT_DEGREE, points: Count = 200):
    _check_caps(datum.d, N)
    _check_bytes(f"herglotz: {points} pencils", 16 * points * datum.tuple.n ** 2, "points")
    weak_rng, points_rng = _streams(seed, 2)
    row_ok, row_eig = is_row_contraction(datum.tuple)
    weak = is_weak_row_contraction(datum.tuple, weak_rng)
    comm_ok, comm_norm = is_commuting(datum.tuple)
    pts = random_pointset(datum.d, points, points_rng)
    failures = 0
    re_min = None           # stays null when the batched transform fails
    fact_res = 0.0
    try:
        vals = herglotz_transform_many(datum, pts)
        re_min = float(vals.real.min())
    except (SingularPencilError, np.linalg.LinAlgError):
        failures += 1
    for z in pts[: min(20, len(pts))]:
        try:
            H = herglotz_kernel(z, datum.tuple)
            A = datum.tuple.zeta_dot(z)
            eye = np.eye(datum.tuple.n, dtype=complex)
            inv = np.linalg.solve(eye - A, eye)
            target = 2.0 * inv @ (eye - A @ A.conj().T) @ inv.conj().T
            fact_res = max(fact_res, float(np.linalg.norm(H + H.conj().T - target, 2)))
        except (SingularPencilError, np.linalg.LinAlgError):
            failures += 1
    series = herglotz_taylor(datum, N)
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


def cmd_davidson_pitts(seed: Seed, N_sym: Int = 16, L_full: Int = 16, L_sweep: Lengths = None):
    if L_sweep is None:
        if L_full < 4:
            raise ValueError(f"davidson-pitts: 'L_full' must be >= 4 when no 'L_sweep' is "
                             f"given, got {L_full}")
        L_sweep = list(range(4, L_full + 1))
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


def cmd_duality(seed: Seed, trials: Count = 200, d: Dimension = 2, r_grid: Radii = R_GRID,
                identity_trials: Count = 20):
    if (need := 2 * trials + identity_trials) > DUALITY_MEMBER_CAP:
        raise SizeCapError(f"{need} duality members (2 trials + identity_trials) are over "
                           f"the cap of {DUALITY_MEMBER_CAP}: lower trials or identity_trials")
    om_rng, sr_rng, rng = _streams(seed, 3)       # rng: the identity members
    om = duality_sweep(sample_duality_pairs("O+", "M+", trials, om_rng, d=d), r_grid)
    sr = duality_sweep(sample_duality_pairs("S+", "R+", trials, sr_rng, d=d), r_grid)
    worst_ident = 0.0
    m = simplex_size(d, 6)
    for _ in range(identity_trials):
        datum = generate_member("R+", rng, d=d)
        f = TruncatedSeries(d, 6, rng.standard_normal(m) + 1j * rng.standard_normal(m))
        worst_ident = max(worst_ident, rs_duality_residual(f, datum, r_grid))
    return {
        "om": {"min_re": om["min_re"], "argmin": om["argmin"]},
        "sr": {"min_re": sr["min_re"], "argmin": sr["argmin"]},
        "rs_identity_max_residual": worst_ident,
        "trials": trials,
    }


def cmd_membership(seed: Seed, target: Target = DEFAULT_TARGET, points: Count = 25,
                   trials: Count = 8):
    _check_bytes(f"membership: the {points} x {points} Gram matrix", 16 * points ** 2, "points")
    target_rng, points_rng = _streams(seed, 2)
    func = target.draw(target_rng)

    def cayley_values(points):
        v = values_at(func, points)
        return (v - 1.0) / (v + 1.0)

    cayley = SimpleNamespace(values_at=cayley_values)       # the Schur transform of func
    reports = []
    for k in range(trials):
        maker = random_pointset if k % 2 == 0 else boundary_biased_pointset
        for test, f in ((splus_test, func), (schur_test, cayley)):
            reports.append(test(f, maker(func.d, points, points_rng)).to_json())
    return {"reports": reports, "all_pass": all(r["verdict"] == "pass" for r in reports)}


def cmd_growth(seed: Seed, target: Target = DEFAULT_TARGET, p: Float = 1.0,
               grid: Radii = DEFAULT_R_GRID, samples: Count = DEFAULT_SAMPLES):
    _check_bytes(f"growth: {samples} directions", 16 * samples * target.d, "samples")
    target_rng, directions_rng = _streams(seed, 2)
    profile = growth_profile(target.draw(target_rng), p, directions_rng, r_grid=grid, n=samples)
    return {"profile": profile.to_json()}


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged,
    since the ``append`` action copies its default list before adding."""
    parser = argparse.ArgumentParser(
        prog="herglotzlab",
        description="Reproducible experiments on positive-real-part functions "
                    "on the complex unit ball",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        params = list(inspect.signature(cmd).parameters.values())[1:]
        epilog = [_fill("params (--param KEY=JSON): " + ", ".join(
            p.name if p.default is p.empty else f"{p.name}={json.dumps(p.default)}"
            for p in params))]
        epilog += [_fill(FORMATS[k], subsequent_indent="  ")
                   for k in dict.fromkeys(p.annotation for p in params) if k in FORMATS]
        sp = sub.add_parser(name, epilog="\n\n".join(epilog),
                            formatter_class=argparse.RawDescriptionHelpFormatter)
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
        obj = _load_json_value(args.config, "--config")
        params, seed = obj.get("params", {}), obj.get("seed", 0)
        out, csv = obj.get("out", ""), obj.get("csv", "")
        if not (isinstance(params, dict) and isinstance(out, str) and isinstance(csv, str)):
            raise ValueError("config needs an object 'params' and strings 'out' and 'csv'")
        params = dict(params)
        for key in obj:
            if key not in ("command", "seed", "out", "csv", "params"):
                params[key] = obj[key]
    for spec in args.param:
        if "=" not in spec:
            raise ValueError(f"--param needs KEY=JSON, got {spec!r}")
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


def typed_call(command: str, seed, params: dict) -> inspect.BoundArguments:
    """The call of ``command`` with the seed, params and defaults each
    converted by its kind; None stays None where it is the default."""
    signature = inspect.signature(COMMANDS[command])
    try:
        bound = signature.bind(seed, **params)
    except TypeError as exc:
        raise ValueError(f"{command}: {exc}") from None
    bound.apply_defaults()
    for name, value in bound.arguments.items():
        param = signature.parameters[name]
        if not (value is None and param.default is None):
            bound.arguments[name] = param.annotation(value, f"{command}: {name!r}")
    return bound


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if cfg.csv and cfg.command not in CSV_EXPORTS:
            raise ValueError(f"no CSV export for command {cfg.command!r}")
        bound = typed_call(cfg.command, cfg.seed, cfg.params)
        start = time.time()
        results = COMMANDS[cfg.command](*bound.args, **bound.kwargs)
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
