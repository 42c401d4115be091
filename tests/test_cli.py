import functools
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from herglotzlab import cli, optuple
from herglotzlab.cli import build_parser, main
from herglotzlab.optuple import SingularPencilError
from herglotzlab.series import SizeCapError, TruncatedSeries

from test_series import coordinate

README = Path(__file__).resolve().parent.parent / "README.md"
# a child interpreter imports the package under test, installed or not
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]))}


def run_cli(args, tmp_path, out_name="report.json"):
    out = tmp_path / out_name
    code = main(list(args) + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def series_file(tmp_path, name, series):
    path = tmp_path / name
    path.write_text(json.dumps(series.to_json()))
    return str(path)


def json_file(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def traced_main(args):
    """Exit code, wall seconds and tracemalloc peak bytes of one CLI run."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(args)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, elapsed, peak


# nine variables: over the dimension cap of the series layer
D9_POINT = [[1.0, 0.0]] + [[0.0, 0.0]] * 8

# a one-dimensional row contraction in two variables, as an inline param
SMALL_DATUM = json.dumps({"d": 2, "n": 1, "matrices": [[[[0.1, 0.0]]], [[[0.1, 0.0]]]],
                          "xi": [[1.0, 0.0]], "t": 0.0})


def reject_constant(name):
    raise ValueError(f"report is not strict JSON: {name}")


class TestPairCommand:
    def test_constants_give_doubled_column(self, tmp_path):
        one = TruncatedSeries.constant(2, 4, 1.0)
        f = series_file(tmp_path, "f.json", one)
        code, report = run_cli(
            ["pair", "--param", f"f=\"{f}\"", "--param", f"g=\"{f}\""], tmp_path)
        assert code == 0
        qs = [complex(re, im) for re, im in report["results"]["q_values"]]
        assert all(abs(q - 2.0) < 1e-13 for q in qs)
        assert report["results"]["identity_residual_max"] < 1e-12
        assert report["results"]["hermitian_residual_max"] < 1e-13

    def test_coordinate_column_equals_grid(self, tmp_path):
        z1 = coordinate(2, 4, 0)
        f = series_file(tmp_path, "f.json", z1)
        code, report = run_cli(
            ["pair", "--param", f"f=\"{f}\"", "--param", f"g=\"{f}\""], tmp_path)
        assert code == 0
        grid = report["results"]["r_grid"]
        qs = [complex(re, im) for re, im in report["results"]["q_values"]]
        assert all(abs(q - r) < 1e-13 for q, r in zip(qs, grid))

    def test_measure_residual_column(self, tmp_path):
        z1 = coordinate(2, 6, 0)
        f = series_file(tmp_path, "f.json", z1)
        measure = {"points": [[[1.0, 0.0], [0.0, 0.0]]], "weights": [1.0],
                   "support": "boundary"}
        mfile = tmp_path / "mu.json"
        mfile.write_text(json.dumps(measure))
        code, report = run_cli(
            ["pair", "--param", f"f=\"{f}\"", "--param", f"g=\"{f}\"",
             "--param", f"measure=\"{mfile}\""], tmp_path)
        assert code == 0
        assert report["results"]["measure_residual_max"] <= 1e-10

    def test_measure_needs_a_radius_below_one(self, tmp_path, capsys, monkeypatch):
        # every radius at 1 used to exit 2 with "max() arg is an empty sequence"
        def no_pairing(*args, **kwargs):
            raise AssertionError("paired before the radii were checked")
        monkeypatch.setattr(cli, "qr_pair", no_pairing)
        f = series_file(tmp_path, "f.json", coordinate(2, 4, 0))
        mfile = json_file(tmp_path, "mu.json", {
            "points": [[[1.0, 0.0], [0.0, 0.0]]], "weights": [1.0], "support": "boundary"})
        code, report = run_cli(
            ["pair", "--param", f"f=\"{f}\"", "--param", f"g=\"{f}\"",
             "--param", f"measure=\"{mfile}\"", "--param", "r_grid=[1.0]"], tmp_path)
        assert code == 2 and report is None
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'measure'" in err and "'r_grid'" in err

    def test_malformed_input_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["pair", "--param", f"f=\"{bad}\"",
                     "--param", f"g=\"{bad}\""])
        assert code == 2

    def test_missing_input_exit_2(self):
        assert main(["pair"]) == 2

    def test_measure_dimension_checked_before_any_work(self, tmp_path):
        f = series_file(tmp_path, "f.json", coordinate(2, 6, 0))
        mfile = json_file(tmp_path, "mu.json", {
            "points": [D9_POINT], "weights": [1.0], "support": "boundary"})
        code, elapsed, peak = traced_main(
            ["pair", "--param", f"f=\"{f}\"", "--param", f"g=\"{f}\"",
             "--param", f"measure=\"{mfile}\"", "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert elapsed < 1.0
        assert peak < 4 * 2 ** 20

    def test_radius_outside_ball_exit_2(self, tmp_path, capsys):
        # qr_pair's SeriesDomainError used to escape main as a traceback
        f = series_file(tmp_path, "f.json", coordinate(2, 4, 0))
        code, report = run_cli(
            ["pair", "--param", f"f=\"{f}\"", "--param", f"g=\"{f}\"",
             "--param", "r_grid=[1.5]"], tmp_path)
        assert code == 2 and report is None
        assert capsys.readouterr().err.startswith("error: ")

    def test_coefficient_beyond_declared_degree_exit_2(self, tmp_path):
        f = json_file(tmp_path, "f.json", {"d": 2, "N": 2, "coeffs": [
            {"alpha": [3, 0], "re": 1.0, "im": 0.0}]})
        code, report = run_cli(
            ["pair", "--param", f"f=\"{f}\"", "--param", f"g=\"{f}\""], tmp_path)
        assert code == 2 and report is None

    def test_series_caps_checked_before_any_work(self, tmp_path):
        f = json_file(tmp_path, "f.json", {"d": 9, "N": 16, "coeffs": [
            {"alpha": [1] + [0] * 8, "re": 1.0, "im": 0.0}]})
        code, elapsed, peak = traced_main(
            ["pair", "--param", f"f=\"{f}\"", "--param", f"g=\"{f}\"",
             "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert elapsed < 1.0
        assert peak < 4 * 2 ** 20


class TestHerglotzCommand:
    def test_dimension_cap_checked_before_any_taylor_table(self, tmp_path):
        datum = {"d": 9, "n": 1, "matrices": [[[[0.1, 0.0]]]] * 9,
                 "xi": [[1.0, 0.0]], "t": 0.0}
        dfile = json_file(tmp_path, "datum.json", datum)
        code, elapsed, peak = traced_main(
            ["herglotz", "--param", f"datum=\"{dfile}\"",
             "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert elapsed < 2.0
        assert peak < 8 * 2 ** 20

    def test_degree_cap_checked_before_the_predicates(self, tmp_path, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("predicate ran before the degree cap was checked")
        monkeypatch.setattr(cli, "is_weak_row_contraction", no_work)
        code, report = run_cli(
            ["herglotz", "--param", f"datum={SMALL_DATUM}", "--param", "N=17"], tmp_path)
        assert code == 3 and report is None

    def _datum_file(self, tmp_path):
        e12 = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        datum = {"d": 2, "n": 2, "matrices": [e12, zero],
                 "xi": [[2 ** -0.5, 0.0], [2 ** -0.5, 0.0]], "t": 0.0}
        path = tmp_path / "datum.json"
        path.write_text(json.dumps(datum))
        return str(path)

    def test_no_points_exit_2(self, tmp_path):
        # no sample points: the report would carry "re_min_sampled": Infinity
        code, report = run_cli(
            ["herglotz", "--param", f"datum=\"{self._datum_file(tmp_path)}\"",
             "--param", "points=0"], tmp_path)
        assert code == 2 and report is None

    def test_singular_pencil_counts_as_pointwise_failure(self, tmp_path, monkeypatch):
        def singular(z, T):
            raise SingularPencilError("I - <z, T> is numerically singular")
        monkeypatch.setattr(cli, "herglotz_kernel", singular)
        code, report = run_cli(
            ["herglotz", "--param", f"datum=\"{self._datum_file(tmp_path)}\"",
             "--param", "points=5"], tmp_path)
        assert code == 0
        assert report["results"]["pointwise_failures"] == 5

    def test_failed_transform_reports_null_minimum(self, tmp_path, monkeypatch):
        # the minimum over no values used to be written as Infinity
        def singular(D, points):
            raise SingularPencilError("I - <z, T> is numerically singular")
        monkeypatch.setattr(cli, "herglotz_transform_many", singular)
        out = tmp_path / "report.json"
        code = main(["herglotz", "--param", f"datum=\"{self._datum_file(tmp_path)}\"",
                     "--param", "points=5", "--out", str(out)])
        assert code == 0
        res = json.loads(out.read_text(), parse_constant=reject_constant)["results"]
        assert res["re_min_sampled"] is None
        assert res["pointwise_failures"] >= 1

    @pytest.mark.parametrize("name", ["herglotz_transform_many", "herglotz_kernel"])
    def test_internal_errors_propagate(self, tmp_path, monkeypatch, name):
        # a bug in the evaluation is not a pointwise failure of the datum
        def broken(*args):
            raise TypeError("broken")
        monkeypatch.setattr(cli, name, broken)
        with pytest.raises(TypeError):
            main(["herglotz", "--param", f"datum=\"{self._datum_file(tmp_path)}\"",
                  "--out", str(tmp_path / "x.json")])

    def test_nilpotent_report(self, tmp_path):
        code, report = run_cli(
            ["herglotz", "--param", f"datum=\"{self._datum_file(tmp_path)}\"",
             "--param", "N=4"], tmp_path)
        assert code == 0
        res = report["results"]
        assert res["predicates"]["row_contraction"]["ok"]
        assert res["predicates"]["weak_row_contraction"]["ok"]
        coeffs = {tuple(e["alpha"]): complex(e["re"], e["im"])
                  for e in res["taylor"]["coeffs"]}
        assert abs(coeffs[(0, 0)] - 1.0) < 1e-13
        assert abs(coeffs[(1, 0)] - 1.0) < 1e-13
        assert len(coeffs) == 2
        assert res["re_min_sampled"] >= -1e-10
        assert res["factorization_residual_max"] < 1e-12


class TestDavidsonPittsCommand:
    def test_small_run_with_csv(self, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code, report = run_cli(
            ["davidson-pitts", "--param", "L_full=8", "--param", "N_sym=8",
             "--csv", str(csv_path)], tmp_path)
        assert code == 0
        res = report["results"]
        assert res["norm_sym_shift"] < 1.41421
        assert res["nondecreasing"]
        assert res["gap_exceeds_sqrt2"]
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("L,")
        assert len(lines) == 1 + len(res["sweep"])

    def test_report_carries_convergence(self, tmp_path):
        code, report = run_cli(
            ["davidson-pitts", "--param", "L_sweep=[4, 6]", "--param", "N_sym=4"],
            tmp_path)
        assert code == 0
        res = report["results"]
        assert res["converged"] is True
        assert [row["converged"] for row in res["sweep"]] == [True, True]
        assert [row["iters"] for row in res["sweep"]] == [5, 7]
        assert "lanczos_tol" in report["tolerances"]

    def test_empty_sweep_exit_2(self, tmp_path):
        code = main(["davidson-pitts", "--param", "L_sweep=[]",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_bad_sweep_values_exit_2(self, tmp_path):
        for spec in ("L_sweep=[0, 4]", "L_sweep=5"):
            code = main(["davidson-pitts", "--param", spec,
                         "--out", str(tmp_path / "x.json")])
            assert code == 2, spec

    @pytest.mark.parametrize("L_full", [3, 0])
    def test_L_full_below_first_length_named(self, tmp_path, capsys, L_full):
        # used to blame "a non-empty list of word lengths", naming no param
        code, report = run_cli(["davidson-pitts", "--param", f"L_full={L_full}"], tmp_path)
        assert code == 2 and report is None
        assert "'L_full'" in capsys.readouterr().err

    def test_cap_exceeded_exit_3(self, tmp_path):
        code = main(["davidson-pitts", "--param", "L_full=25",
                     "--out", str(tmp_path / "x.json")])
        assert code == 3

    def test_shift_cap_checked_before_any_work(self, tmp_path):
        # N_sym = 150 would need about 4.4 GB of dense shift matrices
        code, elapsed, peak = traced_main(
            ["davidson-pitts", "--param", "N_sym=150", "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert elapsed < 1.0
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("spec,message", [
        ("N_sym=-1", "N_sym"),      # used to end in an IndexError traceback
        ("N_sym=-2", "N_sym"),      # used to blame "d >= 1, N >= 1"
        ('L_sweep=[4.5, "6"]', "word length"),    # used to run L = 4 and 6
    ])
    def test_bad_degree_or_length_exit_2(self, tmp_path, capsys, spec, message):
        code, report = run_cli(["davidson-pitts", "--param", spec], tmp_path)
        assert code == 2 and report is None
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_constant_domain_gives_sqrt_three_halves(self, tmp_path):
        # A 1 = z1 + z1 z2, and ||z1||^2 + ||z1 z2||^2 = 1 + 1/2
        code, report = run_cli(
            ["davidson-pitts", "--param", "N_sym=0", "--param", "L_sweep=[4]"], tmp_path)
        assert code == 0
        assert abs(report["results"]["norm_sym_shift"] - 1.5 ** 0.5) <= 1e-15

    def test_largest_degree_is_fast(self, tmp_path):
        # the dense shifts took 6.6 s at N_sym = 60
        code, elapsed, _ = traced_main(
            ["davidson-pitts", "--param", "N_sym=60", "--param", "L_sweep=[4]",
             "--out", str(tmp_path / "x.json")])
        assert code == 0
        assert elapsed < 1.0

    def test_l_full_is_the_largest_swept_length(self, tmp_path):
        code, report = run_cli(
            ["davidson-pitts", "--param", "L_sweep=[4, 6]", "--param", "N_sym=4"],
            tmp_path)
        assert code == 0
        assert report["results"]["L_full"] == 6


class TestDualityCommand:
    def test_small_sweep(self, tmp_path):
        code, report = run_cli(
            ["duality", "--param", "trials=10", "--param", "identity_trials=3",
             "--seed", "5"], tmp_path)
        assert code == 0
        res = report["results"]
        assert res["om"]["min_re"] >= -1e-9
        assert res["sr"]["min_re"] >= -1e-9
        assert res["rs_identity_max_residual"] <= 1e-10

    def test_no_pairs_or_radii_exit_2(self, tmp_path):
        # a sweep over no pairs or no radii has no minimum; the report would
        # carry "min_re": Infinity, which is not JSON
        for bad in ("trials=0", "trials=-1", "r_grid=[]"):
            code, report = run_cli(["duality", "--param", bad], tmp_path)
            assert code == 2 and report is None

    def test_radius_outside_ball_exit_2(self, tmp_path, capsys):
        code, report = run_cli(
            ["duality", "--param", "trials=2", "--param", "r_grid=[1.5]"], tmp_path)
        assert code == 2 and report is None
        assert capsys.readouterr().err.startswith("error: ")

    def test_radii_checked_before_any_sampling(self, tmp_path, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("pairs sampled before the radii were checked")
        monkeypatch.setattr(cli, "sample_duality_pairs", no_sampling)
        code, report = run_cli(["duality", "--param", "r_grid=[-0.5]"], tmp_path)
        assert code == 2 and report is None
        assert capsys.readouterr().err.startswith("error: ")

    def test_dimension_cap_checked_before_any_sampling(self, tmp_path, capsys):
        # used to run both sweeps before TruncatedSeries(5, 6) exited 3
        start = time.perf_counter()
        code, report = run_cli(["duality", "--param", "d=5", "--param", "trials=100000"],
                               tmp_path)
        assert code == 3 and report is None
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == "error: duality: 'd' = 5 exceeds the cap 4\n"

    @pytest.mark.parametrize("spec", ["trials=1000000", "identity_trials=1000000"])
    def test_trials_capped_in_bytes_before_any_member(self, tmp_path, capsys, monkeypatch,
                                                      spec):
        # trials=1000000 used to build 1.6 GB of pairs before the first sweep
        def no_members(*args, **kwargs):
            raise AssertionError("a member was built before the cap was checked")
        monkeypatch.setattr(cli, "generate_member", no_members)
        monkeypatch.setattr(cli, "sample_duality_pairs", no_members)
        code, elapsed, peak = traced_main(
            ["duality", "--param", spec, "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert elapsed < 1.0
        assert peak < 1 * 2 ** 20
        assert "duality members" in capsys.readouterr().err

    def test_cap_counts_members(self, monkeypatch):
        # 2 trials + identity_trials <= 16384: 8182 trials with the default
        # 20 identity members reach the sampler, 8183 stop before it
        class Sampled(Exception):
            pass

        def sampler(*args, **kwargs):
            raise Sampled
        monkeypatch.setattr(cli, "sample_duality_pairs", sampler)
        with pytest.raises(Sampled):
            cli.cmd_duality(0, trials=8182)
        with pytest.raises(SizeCapError, match="duality members"):
            cli.cmd_duality(0, trials=8183)
        with pytest.raises(SizeCapError):
            cli.cmd_duality(0, trials=1, identity_trials=16383)

    def test_radii_capped_before_any_sampling(self, tmp_path, capsys, monkeypatch):
        # RADII_CAP = 1024 radii pass the kind check and reach the sampler;
        # one more exits 3 before it
        class Sampled(Exception):
            pass

        def sampler(*args, **kwargs):
            raise Sampled
        monkeypatch.setattr(cli, "sample_duality_pairs", sampler)
        radii = [0.5] * cli.RADII_CAP
        with pytest.raises(Sampled):
            run_cli(["duality", "--param", f"r_grid={json.dumps(radii)}"], tmp_path)
        code, report = run_cli(
            ["duality", "--param", f"r_grid={json.dumps(radii + [0.5])}"], tmp_path)
        assert code == 3 and report is None
        assert "over the cap of 1024" in capsys.readouterr().err

    @pytest.mark.parametrize("args, nbytes", [
        (["membership", "--param", "points=1000000"], 16 * 10 ** 12),
        (["membership", "--param", "points=2897"], 16 * 2897 ** 2),
        (["herglotz", "--param", "points=8388609"], 16 * 8388609),
        (["growth", "--param", "samples=1000000000", "--param",
          'target={"kind": "sample", "class": "S+", "d": 2}'], 16 * 10 ** 9 * 2),
        (["growth", "--param", "samples=2097153", "--param",
          'target={"kind": "sample", "class": "M+", "d": 4}'], 16 * 2097153 * 4),
    ])
    def test_array_bytes_capped_before_any_draw(self, tmp_path, capsys, monkeypatch,
                                                args, nbytes):
        # the Gram matrix, the pencils or the directions over ARRAY_BYTES_CAP
        # exit 3 before the command splits its seed, so before any draw
        def streams(*_):
            raise AssertionError("drew before the cap check")
        monkeypatch.setattr(cli, "_streams", streams)
        if args[0] == "herglotz":
            args = args + ["--param", f"datum={SMALL_DATUM}"]
        code, report = run_cli(args, tmp_path)
        err = capsys.readouterr().err
        assert code == 3 and report is None
        assert err.startswith("error: ") and f"would take {nbytes} bytes" in err

    def test_array_bytes_cap_admits_the_largest_sizes(self, monkeypatch):
        # the largest size each cap allows, and the README and benchmark settings, reach the draw
        class Drawn(Exception):
            pass

        def streams(*_):
            raise Drawn
        monkeypatch.setattr(cli, "_streams", streams)
        datum = cli.Datum(json.loads(SMALL_DATUM), "datum")
        sample = lambda d: cli.Target({"kind": "sample", "class": "S+", "d": d}, "target")
        for call in (lambda: cli.cmd_membership(0, points=2896),
                     lambda: cli.cmd_membership(0, points=100),
                     lambda: cli.cmd_herglotz(0, datum, points=8388608),
                     lambda: cli.cmd_growth(0, sample(4), samples=2097152),
                     lambda: cli.cmd_growth(0, sample(4), samples=200000)):
            with pytest.raises(Drawn):
                call()

    @pytest.mark.parametrize("command, key", [("pair", "r_grid"), ("growth", "grid")])
    def test_radii_cap_covers_pair_and_growth(self, tmp_path, capsys, command, key):
        radii = [0.5] * (cli.RADII_CAP + 1)
        fg = series_file(tmp_path, "f.json", coordinate(2, 4, 0))
        extra = ["--param", f"f=\"{fg}\"", "--param", f"g=\"{fg}\""] if command == "pair" else []
        code, report = run_cli([command, *extra, "--param", f"{key}={json.dumps(radii)}"],
                               tmp_path)
        assert code == 3 and report is None
        assert f"'{key}' has 1025 radii" in capsys.readouterr().err

    def test_peak_memory_flat_in_trials(self):
        # pairs are streamed, so 16 times the trials hold no more members
        def peak(trials):
            tracemalloc.start()
            try:
                cli.cmd_duality(3, trials=trials)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        cli.cmd_duality(3, trials=5)        # fill the caches first
        assert peak(800) - peak(50) < 256 * 2 ** 10

    def test_taylor_built_once_per_identity_member(self, monkeypatch):
        calls = []
        taylor = optuple.herglotz_taylor
        monkeypatch.setattr(optuple, "herglotz_taylor",
                            lambda D, N: calls.append(N) or taylor(D, N))
        cli.cmd_duality(4, trials=3)
        # identity_trials = 20 members, each checked on all 20 radii
        assert len(calls) == 20


class TestMembershipCommand:
    def test_boundary_kernel_passes(self, tmp_path):
        code, report = run_cli(
            ["membership", "--param", "trials=2", "--param", "points=15"],
            tmp_path)
        assert code == 0
        assert report["results"]["all_pass"]

    def test_no_points_exit_2(self, tmp_path):
        # an empty Gram used to end in a ZeroDivisionError traceback
        code, report = run_cli(["membership", "--param", "points=0"], tmp_path)
        assert code == 2 and report is None


class TestGrowthCommand:
    def test_default_boundary_kernel_bounded(self, tmp_path):
        code, report = run_cli(
            ["growth", "--param", "samples=20000", "--param", "p=1.0"],
            tmp_path)
        assert code == 0
        prof = report["results"]["profile"]
        assert prof["verdict"] == "bounded"
        assert set(prof) == {"p", "grid", "means", "stderr", "slope", "verdict",
                             "estimator", "budget"}
        assert prof["estimator"] == "series"
        assert set(prof["budget"]) == {"terms", "tail_bound"}
        assert set(report["results"]) == {"profile"}

    def test_csv_export(self, tmp_path):
        csv_path = tmp_path / "growth.csv"
        code, _ = run_cli(
            ["growth", "--param", "samples=5000", "--csv", str(csv_path)],
            tmp_path)
        assert code == 0
        assert csv_path.read_text().startswith("r,mean,stderr")

    @pytest.mark.parametrize("grid", ["[0.5, 0.5]", "[0.5, 0.5, 0.9]", "[0.9, 0.5]"])
    def test_repeated_or_decreasing_radii_exit_2(self, tmp_path, capsys, grid):
        # [0.5, 0.5] used to end in a ZeroDivisionError traceback from the
        # tail slope over the last segment
        code, report = run_cli(["growth", "--param", f"grid={grid}"], tmp_path)
        assert code == 2 and report is None
        assert "radius grid must be increasing" in capsys.readouterr().err


class TestContract:
    @pytest.mark.parametrize("args", [
        ["pair", "--param", "f=5", "--param", "g=5"],
        ["herglotz", "--param", "datum=[1]"],
        ["membership", "--param", "target=5"],
    ])
    def test_input_that_is_not_an_object_exit_2(self, tmp_path, capsys, args):
        code, report = run_cli(args, tmp_path)
        assert code == 2 and report is None
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("args,name", [
        (["davidson-pitts", "--param", "L_ful=5"], "L_ful"),
        (["duality", "--param", "seed=3"], "seed"),
        (["pair", "--param", "f={}"], "g"),
    ])
    def test_param_outside_the_signature_exit_2(self, tmp_path, capsys, args, name):
        code, report = run_cli(args, tmp_path)
        assert code == 2 and report is None
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{name}'" in err

    @pytest.mark.parametrize("args", [
        ["duality", "--param", "trials=[1]"],
        ["duality", "--param", "trials=Infinity"],
        ["duality", "--param", "r_grid=0.5"],
        ["duality", "--param", 'r_grid=[0.5,"a"]'],
        ["growth", "--param", 'grid="abc"'],
        ["herglotz", "--param", f"datum={SMALL_DATUM}", "--param", "N=null"],
        ["duality", "--config", {"seed": [1]}],
        ["duality", "--config", {"params": 5}],
        ["growth", "--config", {"csv": [1]}],
        ["davidson-pitts", "--param", "L_sweep=[[4]]"],
        ["membership", "--param", 'target={"kind": "extreme", "zeta": 5}'],
        # an integer of 401 digits: past what float() takes without overflow
        ["growth", "--param", "p=1" + "0" * 400],
    ])
    def test_value_of_the_wrong_json_type_exit_2(self, tmp_path, capsys, args):
        args = [json_file(tmp_path, "cfg.json", a) if isinstance(a, dict) else a
                for a in args]
        code, report = run_cli(args, tmp_path)
        assert code == 2 and report is None
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("args", [
        ["pair", "--param", 'f={"d": [2], "N": 3}', "--param", 'g={"d": 2, "N": 3}'],
        ["pair", "--param", 'f={"d": 2, "N": 3, "coeffs": [{"alpha": 5}]}',
         "--param", 'g={"d": 2, "N": 3}'],
        ["herglotz", "--param", 'datum={"matrices": 5, "xi": []}'],
        ["pair", "--param", 'f={"d": 2, "N": 3}', "--param", 'g={"d": 2, "N": 3}',
         "--param", 'measure={"points": [[1, 2]], "weights": [1], "support": "boundary"}'],
        ["membership", "--param", 'target={"kind": "datum", "datum": '
         '{"matrices": [[[1]]], "xi": [[1, 0]]}}'],
    ])
    def test_malformed_json_object_exit_2(self, tmp_path, capsys, args):
        # each used to end in a TypeError traceback inside a from_json, exit 1
        code, report = run_cli(args, tmp_path)
        assert code == 2 and report is None
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("f", [
        {"d": 2.5, "N": 3},
        {"d": 2, "N": 3, "coeffs": [{"alpha": [1.7, 0], "re": 1.0}]},
        {"d": 2, "N": 3, "coeffs": [{"alpha": [1, 0, 0], "re": 1.0}]},
        {"d": 2, "N": 3, "coeffs": [{"alpha": [1, 0], "c": [1, 0]}]},
        {"d": 2, "N": 3, "coeffs": [{"alpha": [1, 0], "re": 1.0},
                                    {"alpha": [1, 0], "re": 2.0}]},
    ])
    def test_ill_formed_series_exit_2(self, tmp_path, capsys, f):
        # the first two used to run as d = 2 and alpha = (1, 0), the fourth
        # as a zero coefficient, the last with the later entry winning
        code, report = run_cli(["pair", "--param", f"f={json.dumps(f)}",
                                "--param", 'g={"d": 2, "N": 3}'], tmp_path)
        assert code == 2 and report is None
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("args", [
        ["pair", "--param", 'f={"d": 2, "N": 2}', "--param", 'g={"d": 2, "N": 2}',
         "--param", 'measure={"points": [[[1, 0], [0, 0]]], "weights": [1], '
         '"support": "boundary", "weight": 2}'],
        ["herglotz", "--param", "datum=" + SMALL_DATUM[:-1] + ', "tt": 5}'],
        ["herglotz", "--param", "datum=" + SMALL_DATUM.replace('"t": 0.0', '"t": true')],
        ["membership", "--param",
         'target={"kind": "extreme", "zeta": [[1, 0], [0, 0]], "colour": "red"}'],
        ["membership", "--param", 'target={"kind": "sample", "d": 2.7}'],
        ["herglotz", "--param", "datum=" + SMALL_DATUM.replace('"n": 1', '"n": 2')],
        ["pair", "--param", 'f={"d": 2, "N": 2, "coefs": []}', "--param", 'g={"d": 2, "N": 2}'],
    ])
    def test_ill_formed_measure_datum_or_target_exit_2(self, tmp_path, capsys, args):
        # the first five used to exit 0: the unknown key was ignored, "tt"
        # left t at 0, true ran as t = 1, and d = 2.7 sampled with d = 2
        code, report = run_cli(args, tmp_path)
        assert code == 2 and report is None
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("args,message", [
        (["herglotz", "--param", 'datum={"xi": [[1, 0]]}'], "datum: missing key 'matrices'"),
        (["pair", "--param", 'f={"d": 2, "N": 2}', "--param", 'g={"d": 2, "N": 2}',
          "--param", 'measure={"points": [[[1, 0], [0, 0]]], "weights": [1]}'],
         "measure: missing key 'support'"),
        (["pair", "--param", 'f={"d": 2, "N": 2, "coeffs": [{"re": 1}]}',
          "--param", 'g={"d": 2, "N": 2}'], "coefficient: missing key 'alpha'"),
        (["pair", "--param", 'f={"N": 2}', "--param", 'g={"d": 2, "N": 2}'],
         "series: missing key 'd'"),
        (["growth", "--param", 'target={"kind": "series"}'],
         "series target: missing key 'series'"),
    ])
    def test_missing_key_named_exit_2(self, tmp_path, capsys, args, message):
        # each used to print the bare key alone, e.g. "error: 'matrices'"
        code, report = run_cli(args, tmp_path)
        assert code == 2 and report is None
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_integer_param_must_be_integral(self, tmp_path, capsys):
        # trials=2.9 used to run 2 trials and echo 2.9 in the config
        code, report = run_cli(["duality", "--param", "trials=2.9"], tmp_path)
        assert code == 2 and report is None
        assert "'trials' must be an integer" in capsys.readouterr().err
        for value in ("3", "3.0"):
            code, report = run_cli(["duality", "--param", f"trials={value}",
                                    "--param", "identity_trials=1"], tmp_path)
            assert code == 0 and report["results"]["trials"] == 3

    @pytest.mark.parametrize("args,name", [
        # each used to run: a string or a boolean read as a number
        (["herglotz", "--param", f"datum={SMALL_DATUM}", "--param", 'points="3"'], "'points'"),
        (["herglotz", "--param", f"datum={SMALL_DATUM}", "--param", "N=true"], "'N'"),
        (["davidson-pitts", "--param", 'L_full="5"'], "'L_full'"),
        (["duality", "--param", "r_grid=[true]"], "'r_grid'"),
        (["pair", "--param", 'f={"d": 2, "N": 2, "coeffs": [{"alpha": [1, 0], "re": "1.5"}]}',
          "--param", 'g={"d": 2, "N": 2}'], "re/im"),
        (["pair", "--param", 'f={"d": 2, "N": 2, "coeffs": [{"alpha": [1, 0], "re": true}]}',
          "--param", 'g={"d": 2, "N": 2}'], "re/im"),
        (["membership", "--param", 'target={"kind": "extreme", "zeta": [["1", "0"], [false, 0]]}'],
         "zeta"),
        (["pair", "--param", 'f={"d": 2, "N": 2}', "--param", 'g={"d": 2, "N": 2}', "--param",
          'measure={"points": [[[1, 0], [0, 0]]], "weights": [true], "support": "boundary"}'],
         "weights"),
        (["herglotz", "--param", "datum=" + SMALL_DATUM.replace("[[1.0, 0.0]]", "[[true, 0]]")],
         "xi"),
        # used to run: only a measure reads mode
        (["pair", "--param", 'f={"d": 2, "N": 2}', "--param", 'g={"d": 2, "N": 2}',
          "--param", 'mode="bogus"'], "'mode'"),
        # used to run: all_pass over zero reports, a residual over no member
        (["membership", "--param", "trials=0"], "'trials'"),
        (["duality", "--param", "identity_trials=-5"], "'identity_trials'"),
        # used to run seed int(seed)
        (["duality", "--config", {"seed": 2.5}], "'seed'"),
        (["duality", "--config", {"seed": True}], "'seed'"),
        # exited 2, blaming complex() rather than the field
        (["pair", "--param", 'f={"d": 2, "N": 2}', "--param", 'g={"d": 2, "N": 2}', "--param",
          'measure={"points": [[["1", 0], [0, 0]]], "weights": [1], "support": "boundary"}'],
         "points"),
        (["herglotz", "--param", "datum=" + SMALL_DATUM.replace("[[1.0, 0.0]]", '[[1, "0"]]')],
         "xi"),
        # used to end in an OverflowError traceback, exit 1
        (["herglotz", "--param", "datum=" + SMALL_DATUM.replace('"t": 0.0', '"t": 1' + "0" * 400)],
         "t must be"),
        # exited 2 with numpy's "need at least one array to concatenate" or
        # "negative dimensions are not allowed", naming no field
        (["duality", "--param", "d=0"], "'d' must be >= 1"),
        (["duality", "--param", "d=-1"], "'d' must be >= 1"),
        (["membership", "--param", 'target={"kind": "sample", "d": 0}'], "d must be >= 1"),
        # exited 2 with numpy's "inhomogeneous shape" text, naming no field:
        # points of different lengths, matrices of different sizes, and rows
        # of different lengths in one matrix
        (["pair", "--param", 'f={"d": 2, "N": 2}', "--param", 'g={"d": 2, "N": 2}', "--param",
          'measure={"points": [[[1, 0], [0, 0]], [[1, 0]]], "weights": [1, 1], '
          '"support": "boundary"}'], "points is ragged"),
        (["herglotz", "--param", 'datum={"matrices": [[[[0.1, 0]]], '
          '[[[0, 0], [0, 0]], [[0, 0], [0, 0]]]], "xi": [[1, 0]]}'], "matrices is ragged"),
        (["herglotz", "--param", 'datum={"matrices": [[[[0.1, 0], [0, 0]], [[0, 0]]], '
          '[[[0, 0], [0, 0]], [[0, 0], [0, 0]]]], "xi": [[1, 0], [0, 0]]}'], "matrices is ragged"),
    ])
    def test_value_of_the_wrong_kind_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                           args, name):
        command = cli.COMMANDS[args[0]]

        @functools.wraps(command)
        def no_work(*a, **k):
            raise AssertionError("the command ran on a value of the wrong kind")
        monkeypatch.setitem(cli.COMMANDS, args[0], no_work)
        args = [json_file(tmp_path, "cfg.json", a) if isinstance(a, dict) else a
                for a in args]
        code, report = run_cli(args, tmp_path)
        assert code == 2 and report is None
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err

    def test_stray_config_key_exit_2(self, tmp_path):
        cfg = json_file(tmp_path, "cfg.json", {"seed": 3, "threads": 4,
                                               "params": {"trials": 2}})
        code, report = run_cli(["duality", "--config", cfg], tmp_path)
        assert code == 2 and report is None

    @pytest.mark.parametrize("args,expected", [
        (["duality", "--param", "d=5"], 3),
        # used to run: the sample target's d had no cap
        (["growth", "--param", 'target={"kind": "sample", "d": 5}'], 3),
        (["herglotz", "--param", f"datum={SMALL_DATUM}", "--param", "N=17"], 3),
        (["herglotz", "--param", f"datum={SMALL_DATUM}", "--param", "N=-1"], 2),
    ])
    def test_caps_exit_3_and_bad_values_exit_2(self, tmp_path, args, expected):
        code, report = run_cli(args, tmp_path)
        assert code == expected and report is None

    def test_non_finite_report_exit_2(self, tmp_path):
        # |f|^1000 overflows to inf, and the stderr of the means to nan
        code, report = run_cli(
            ["growth", "--param", "p=1000", "--param", "samples=1000"], tmp_path)
        assert code == 2 and report is None

    def test_out_into_missing_directory_exit_2(self, tmp_path, capsys):
        code = main(["duality", "--param", "trials=2", "--param", "identity_trials=1",
                     "--out", str(tmp_path / "missing" / "r.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_csv_without_export_rejected_before_any_work(self, tmp_path):
        csv_path = tmp_path / "x.csv"
        code, report = run_cli(["duality", "--csv", str(csv_path)], tmp_path)
        assert code == 2 and report is None
        assert not csv_path.exists()

    def test_help_lists_params_off_the_signature(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["duality", "--help"])
        epilog = " ".join(capsys.readouterr().out.split()).split("KEY=JSON): ")[-1]
        assert epilog.startswith("trials=200, d=2, r_grid=[0.05, 0.1,")
        assert epilog.endswith("0.99], identity_trials=20")

    @pytest.mark.parametrize("command,formats", [
        ("pair", ["series", "measure"]), ("herglotz", ["datum"]),
        ("membership", ["target"]), ("growth", ["target"]),
        ("duality", []), ("davidson-pitts", [])])
    def test_help_lists_the_object_formats_of_its_kinds(self, capsys, command, formats):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        listed = out.partition("KEY=JSON): ")[2]
        assert [name for name in ("series", "measure", "datum", "target")
                if re.search(rf" {name} format( \(inline JSON only\))?: {{", listed)] == formats
        if command == "pair":
            assert '"coeffs": [{"alpha": [int, ...], "re": float, "im": float}, ...]' in listed
            assert '"support": "boundary" | "interior"' in listed

    def test_params_do_not_carry_over_between_calls(self, tmp_path):
        # main reuses one parser, whose --param default list is shared
        code, first = run_cli(["davidson-pitts", "--param", "N_sym=2",
                               "--param", "L_sweep=[4]"], tmp_path, "first.json")
        config = json_file(tmp_path, "config.json", {"params": {"L_sweep": [5]}})
        code2, second = run_cli(["davidson-pitts", "--config", config], tmp_path,
                                "second.json")
        assert code == code2 == 0
        assert first["config"]["params"] == {"N_sym": 2, "L_sweep": [4]}
        assert second["config"]["params"] == {"L_sweep": [5]}
        assert second["results"]["N_sym"] == 16
        assert build_parser() is build_parser()
        assert build_parser().parse_args(["davidson-pitts"]).param == []


    @pytest.mark.parametrize("command", ["growth", "membership"])
    @pytest.mark.parametrize("kind,shown", [('"X+"', "'X+'"), ('["S+"]', "['S+']"),
                                             ('"O+"', "'O+'")])
    def test_sample_class_typed_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                command, kind, shown):
        # used to exit 2 from inside generate_member, with no field named
        monkeypatch.setattr(cli, "generate_member", lambda *a, **k: 1 / 0)
        code, report = run_cli(
            [command, "--param", f'target={{"kind": "sample", "class": {kind}}}'], tmp_path)
        assert code == 2 and report is None
        assert capsys.readouterr().err == (
            f"error: class must be one of ['M+', 'R+', 'S+'], got {shown}\n")


    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_negative_seed_exit_2_naming_seed_before_any_work(self, tmp_path, capsys,
                                                              monkeypatch, command, how):
        # SeedSequence takes a non-negative integer: membership and duality
        # used to exit 2 with numpy's text, naming no field, and pair,
        # davidson-pitts and growth on its default target exited 0
        @functools.wraps(cli.COMMANDS[command])
        def no_work(*a, **k):
            raise AssertionError("the command ran on a negative seed")
        monkeypatch.setitem(cli.COMMANDS, command, no_work)
        required = {"pair": ["--param", 'f={"d": 2, "N": 2}', "--param", 'g={"d": 2, "N": 2}'],
                    "herglotz": ["--param", f"datum={SMALL_DATUM}"]}.get(command, [])
        args = [command, *required] + (["--seed", "-1"] if how == "flag" else
                                       ["--config", json_file(tmp_path, "cfg.json", {"seed": -1})])
        code, report = run_cli(args, tmp_path)
        assert code == 2 and report is None
        assert capsys.readouterr().err == f"error: {command}: 'seed' must be >= 0, got -1\n"


class TestRoleStreams:
    """A command splits its seed once: each sampled role draws from its own
    Generator, and every draw of a role comes from that one Generator."""

    @staticmethod
    def spy(monkeypatch, roles, name, pick):
        """Record, under ``name``, the Generator each call of cli.<name> gets."""
        original = getattr(cli, name)

        def spied(*args, **kwargs):
            roles.setdefault(name, []).append(pick(*args, **kwargs))
            return original(*args, **kwargs)
        monkeypatch.setattr(cli, name, spied)

    @staticmethod
    def assert_one_generator_per_role(roles, names):
        assert sorted(roles) == sorted(names)
        firsts = [roles[name][0] for name in names]
        assert all(isinstance(rng, np.random.Generator) for rng in firsts)
        assert len({id(rng) for rng in firsts}) == len(names)
        for name in names:
            assert all(rng is roles[name][0] for rng in roles[name])

    def test_duality(self, tmp_path, monkeypatch):
        roles = {}
        original = cli.sample_duality_pairs

        def pairs(kind_f, kind_g, trials, rng, d=2):
            roles.setdefault(kind_f + kind_g, []).append(rng)
            return original(kind_f, kind_g, trials, rng, d=d)
        monkeypatch.setattr(cli, "sample_duality_pairs", pairs)
        self.spy(monkeypatch, roles, "generate_member", lambda kind, rng, **k: rng)
        code, _ = run_cli(["duality", "--param", "trials=4", "--param", "identity_trials=3"],
                          tmp_path)
        assert code == 0 and len(roles["generate_member"]) == 3
        self.assert_one_generator_per_role(roles, ["O+M+", "S+R+", "generate_member"])

    def test_herglotz(self, tmp_path, monkeypatch):
        roles = {}
        self.spy(monkeypatch, roles, "is_weak_row_contraction", lambda T, rng, **k: rng)
        self.spy(monkeypatch, roles, "random_pointset", lambda d, n, rng, **k: rng)
        code, _ = run_cli(["herglotz", "--param", f"datum={SMALL_DATUM}", "--param", "N=2",
                           "--param", "points=5"], tmp_path)
        assert code == 0
        self.assert_one_generator_per_role(roles, ["is_weak_row_contraction",
                                                   "random_pointset"])

    def test_membership(self, tmp_path, monkeypatch):
        roles = {}
        self.spy(monkeypatch, roles, "generate_member", lambda kind, rng, **k: rng)
        for name in ("random_pointset", "boundary_biased_pointset"):
            self.spy(monkeypatch, roles, name, lambda d, n, rng, **k: rng)
        code, _ = run_cli(["membership", "--param", 'target={"kind": "sample"}',
                           "--param", "points=4", "--param", "trials=3"], tmp_path)
        assert code == 0
        roles["point sets"] = roles.pop("random_pointset") + roles.pop("boundary_biased_pointset")
        assert len(roles["point sets"]) == 2 * 3
        self.assert_one_generator_per_role(roles, ["generate_member", "point sets"])

    def test_growth(self, tmp_path, monkeypatch):
        roles = {}
        self.spy(monkeypatch, roles, "generate_member", lambda kind, rng, **k: rng)
        self.spy(monkeypatch, roles, "growth_profile", lambda f, p, rng, **k: rng)
        code, _ = run_cli(["growth", "--param", 'target={"kind": "sample"}',
                           "--param", "samples=50"], tmp_path)
        assert code == 0
        self.assert_one_generator_per_role(roles, ["generate_member", "growth_profile"])


class TestReproducibility:
    def test_same_seed_same_results_any_thread_count(self, tmp_path):
        args = ["duality", "--param", "trials=6", "--param", "identity_trials=2",
                "--seed", "11"]
        _, rep1 = run_cli(args, tmp_path, "a.json")
        _, rep2 = run_cli(args, tmp_path, "b.json")
        assert rep1["results"] == rep2["results"]
        _, rep3 = run_cli(args, tmp_path, "c.json")
        for rep in (rep1, rep3):
            del rep["timing_s"]
            del rep["config"]["out"]
        assert rep1 == rep3

    def test_config_file_and_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "params": {"trials": 5,
                                                         "identity_trials": 2}}))
        code, report = run_cli(["duality", "--config", str(cfg)], tmp_path)
        assert code == 0
        assert report["config"]["seed"] == 3
        assert report["config"]["params"]["trials"] == 5

    def test_report_envelope(self, tmp_path):
        code, report = run_cli(
            ["duality", "--param", "trials=2", "--param", "identity_trials=1"],
            tmp_path)
        assert code == 0
        assert set(report) == {"command", "version", "config", "tolerances",
                               "timing_s", "results"}


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "r.json"
        proc = subprocess.run(
            [sys.executable, "-m", "herglotzlab", "duality",
             "--param", "trials=2", "--param", "identity_trials=1",
             "--out", str(out)],
            capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0
        assert json.loads(out.read_text())["command"] == "duality"

    def test_import_loads_no_scipy(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, herglotzlab.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
            capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        # numpy is the only runtime dependency: with scipy blocked, so that
        # importing it raises, every command runs at small settings
        series = '{"d": 2, "N": 3, "coeffs": [{"alpha": [1, 0], "re": 0.5}]}'
        runs = [
            ["pair", "--param", f"f={series}", "--param", f"g={series}", "--param",
             'measure={"points": [[[1, 0], [0, 0]]], "weights": [1], "support": "boundary"}'],
            ["herglotz", "--param", f"datum={SMALL_DATUM}", "--param", "N=4",
             "--param", "points=10"],
            ["davidson-pitts", "--param", "L_sweep=[4, 5]", "--param", "N_sym=4"],
            ["duality", "--param", "trials=2", "--param", "identity_trials=1"],
            ["membership", "--param", "trials=1", "--param", "points=5"],
            ["growth", "--param", "samples=1000"],
            ["growth", "--param", 'target={"kind": "sample"}', "--param", "samples=1000"],
        ]
        runs = [argv + ["--out", str(tmp_path / f"{k}.json")] for k, argv in enumerate(runs)]
        proc = subprocess.run(
            [sys.executable, "-c",
             "import json, sys; sys.modules['scipy'] = None; "
             "from herglotzlab.cli import main; "
             "print([main(argv) for argv in json.loads(sys.argv[1])])", json.dumps(runs)],
            capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str([0] * len(runs)), proc.stderr

    def test_stdin_series(self, tmp_path):
        one = TruncatedSeries.constant(2, 3, 1.0)
        payload = json.dumps(one.to_json())
        proc = subprocess.run(
            [sys.executable, "-m", "herglotzlab", "pair",
             "--param", 'f="-"', "--param",
             f"g={json.dumps(one.to_json())}"],
            input=payload, capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0


def test_readme_commands_parse():
    # every line of a fenced README block that runs the executable
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("herglotzlab ")]
    assert lines
    parser = build_parser()
    for line in lines:
        try:
            args = parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README names a command the parser rejects: {line}")
        keys = [spec.split("=", 1)[0] for spec in args.param]
        signature = inspect.signature(cli.COMMANDS[args.command])
        try:
            signature.bind(0, **dict.fromkeys(keys))
        except TypeError as exc:
            pytest.fail(f"README params do not bind to {args.command}: {line}: {exc}")
        # every inline value through its param's kind; a path stays unread
        for key, value in cli._config_from_args(args).params.items():
            if not isinstance(value, str):
                signature.parameters[key].annotation(value, f"README {key}")
