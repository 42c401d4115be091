"""The three workloads: seeded inputs and the program calls of one task.

Inputs are drawn here from the task seed with NumPy's PCG64 generator, so
the program under test only ever receives the generated data (and, for the
commands that sample internally, the task seed as ``--seed``).

fock-norms    davidson-pitts through cli.main, L_sweep = 4..11, N_sym = 16.
ball-series   library calls at the largest simplex the caps allow
              (d = 4, N = 16: 4845 coefficients), plus a d = 3, N = 12
              inner-product cross-check.
class-sweeps  five cli.main commands: duality, membership, growth at
              p = 1 (default grid) and p = 3 (grid ending at 0.99),
              herglotz on an inline-JSON datum.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from herglotzlab import cli, optuple, pairing, series

from . import gates

# fock-norms
FOCK_N_SYM = 16

# ball-series
BALL_D, BALL_N, BALL_ORDER = 4, 16, 8       # datum in d variables, n x n matrices
BALL_POINTS, BALL_RADIUS = 4096, 0.3
BALL_MEASURE_RADII = (0.3, 0.6, 0.9)
BALL_MAX_ATOMS = 8
INNER_D, INNER_N, INNER_ORDER = 3, 12, 4

# class-sweeps
DUALITY_TRIALS = 200
MEMBERSHIP_POINTS, MEMBERSHIP_TRIALS = 100, 8
GROWTH_SAMPLES = 200000
# At p = 3 the Monte Carlo mean of |h|^3 at r = 0.999 is heavy-tailed: on
# the default grid 2 of 100 seeds give "inconclusive" (tail slope below
# 0.3, true slope 1).  Ending the grid at r = 0.99 gives slopes 1.01-1.26.
GROWTH_P3_GRID = (0.5, 0.9, 0.99)
HERGLOTZ_D, HERGLOTZ_ORDER, HERGLOTZ_N = 2, 8, 10


def _sphere(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _row_contraction_datum(rng: np.random.Generator, d: int, n: int):
    """(matrices, xi): a Gaussian tuple scaled so the row [T_1 ... T_d] has
    norm uniform in [0.3, 1.0], and a Gaussian vector with E|xi|^2 = 2."""
    mats = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
    mats *= rng.uniform(0.3, 1.0) / np.linalg.norm(np.concatenate(list(mats), axis=1), 2)
    xi = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(n)
    return mats, xi


def _datum(rng: np.random.Generator, d: int, n: int) -> optuple.HerglotzDatum:
    mats, xi = _row_contraction_datum(rng, d, n)
    return optuple.HerglotzDatum(optuple.OperatorTuple(mats), xi, 0.0)


def _datum_json(rng: np.random.Generator, d: int, n: int) -> dict:
    mats, xi = _row_contraction_datum(rng, d, n)
    pair = lambda v: [float(v.real), float(v.imag)]
    return {"d": d, "n": n, "t": 0.0, "xi": [pair(v) for v in xi],
            "matrices": [[[pair(v) for v in row] for row in m] for m in mats]}


def _run_cli(argv: list, out: str):
    """cli.main with the report written to ``out``: (exit code, report text)."""
    rc = cli.main(argv + ["--out", out])
    if rc != 0:
        return rc, ""
    with open(out, "r", encoding="utf-8") as fh:
        return rc, fh.read()


class FockNorms:
    name = "fock-norms"
    check = staticmethod(gates.check_fock_norms)

    def __init__(self, tmpdir: str):
        self.out = os.path.join(tmpdir, "davidson-pitts.json")

    def make_inputs(self, seed: int) -> list:
        return ["davidson-pitts", "--seed", str(seed),
                "--param", f"L_sweep={json.dumps(list(gates.FOCK_L_SWEEP))}",
                "--param", f"N_sym={FOCK_N_SYM}"]

    def run(self, argv: list) -> dict:
        rc, text = _run_cli(argv, self.out)
        return {"rc": rc, "report_bytes": len(text),
                "report": json.loads(text)["results"] if rc == 0 else None}


class BallSeries:
    name = "ball-series"
    check = staticmethod(gates.check_ball_series)

    def __init__(self, tmpdir: str):
        pass

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        n_atoms = int(rng.integers(1, BALL_MAX_ATOMS + 1))
        return {
            "seed": seed,
            "datum": _datum(rng, BALL_D, BALL_ORDER),
            "points": BALL_RADIUS * _sphere(rng, BALL_POINTS, BALL_D),
            "measure": pairing.AtomicMeasure(_sphere(rng, n_atoms, BALL_D),
                                             rng.uniform(0.2, 1.0, n_atoms), "boundary"),
            "inner": (_datum(rng, INNER_D, INNER_ORDER), _datum(rng, INNER_D, INNER_ORDER)),
        }

    def run(self, inp: dict) -> dict:
        D = inp["datum"]
        f = optuple.herglotz_taylor(D, BALL_N)
        scale = max(1.0, float(np.abs(f.coeffs).max()))
        phi = series.cayley(f, "herglotz_to_schur")
        back = series.cayley(phi, "schur_to_herglotz")
        one = series.TruncatedSeries.constant(f.d, f.N, 1.0)
        product = phi.multiply(f + one).coeffs - (f - one).coeffs

        vals = f.values_at(inp["points"])
        ref = optuple.herglotz_transform_many(D, inp["points"])

        measure = max(pairing.pairing_vs_measure_check(f, inp["measure"], r)
                      for r in BALL_MEASURE_RADII)

        g1, g2 = (optuple.herglotz_taylor(Di, INNER_N) for Di in inp["inner"])
        est = pairing.h2d_inner_integral(g1, g2, pairing.QuadratureSpec(seed=inp["seed"]))
        exact = pairing.h2d_inner_series(g1, g2)
        return {
            "cayley_roundtrip": float(np.abs(back.coeffs - f.coeffs).max()) / scale,
            "cayley_product": float(np.abs(product).max()) / scale,
            "values_vs_transform": float(np.abs(vals - ref).max())
                                   / max(1.0, float(np.abs(ref).max())),
            "measure_residual": measure,
            "integral_z": abs(est.value - exact) / est.stderr,
        }


class ClassSweeps:
    name = "class-sweeps"
    check = staticmethod(gates.check_class_sweeps)

    def __init__(self, tmpdir: str):
        self.out = os.path.join(tmpdir, "report.json")

    def make_inputs(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        datum = _datum_json(rng, HERGLOTZ_D, HERGLOTZ_ORDER)
        common = ["--seed", str(seed)]
        return [
            ("duality", ["duality", *common, "--param", f"trials={DUALITY_TRIALS}",
                         "--param", "d=2"]),
            ("membership", ["membership", *common,
                            "--param", f"points={MEMBERSHIP_POINTS}",
                            "--param", f"trials={MEMBERSHIP_TRIALS}"]),
            ("growth_p1", ["growth", *common, "--param", "p=1.0",
                           "--param", f"samples={GROWTH_SAMPLES}"]),
            ("growth_p3", ["growth", *common, "--param", "p=3.0",
                           "--param", f"samples={GROWTH_SAMPLES}",
                           "--param", f"grid={json.dumps(GROWTH_P3_GRID)}"]),
            ("herglotz", ["herglotz", *common, "--param", f"datum={json.dumps(datum)}",
                          "--param", f"N={HERGLOTZ_N}"]),
        ]

    def run(self, commands: list) -> dict:
        out = {"rc": {}, "report_bytes": 0}
        for key, argv in commands:
            rc, text = _run_cli(argv, self.out)
            out["rc"][key] = rc
            out["report_bytes"] += len(text)
            if rc == 0:
                out[key] = json.loads(text)["results"]
        return out


WORKLOADS = {w.name: w for w in (FockNorms, BallSeries, ClassSweeps)}
