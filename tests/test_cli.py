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

import pytest

from herglotzlab import cli, optuple
from herglotzlab.cli import build_parser, main
from herglotzlab.optuple import SingularPencilError
from herglotzlab.series import TruncatedSeries

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
        z1 = TruncatedSeries.coordinate(2, 4, 0)
        f = series_file(tmp_path, "f.json", z1)
        code, report = run_cli(
            ["pair", "--param", f"f=\"{f}\"", "--param", f"g=\"{f}\""], tmp_path)
        assert code == 0
        grid = report["results"]["r_grid"]
        qs = [complex(re, im) for re, im in report["results"]["q_values"]]
        assert all(abs(q - r) < 1e-13 for q, r in zip(qs, grid))

    def test_measure_residual_column(self, tmp_path):
        z1 = TruncatedSeries.coordinate(2, 6, 0)
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

    def test_malformed_input_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["pair", "--param", f"f=\"{bad}\"",
                     "--param", f"g=\"{bad}\""])
        assert code == 2

    def test_missing_input_exit_2(self):
        assert main(["pair"]) == 2

    def test_measure_dimension_checked_before_any_work(self, tmp_path):
        f = series_file(tmp_path, "f.json", TruncatedSeries.coordinate(2, 6, 0))
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
        f = series_file(tmp_path, "f.json", TruncatedSeries.coordinate(2, 4, 0))
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
        assert "clamp_count" in report["results"]

    def test_csv_export(self, tmp_path):
        csv_path = tmp_path / "growth.csv"
        code, _ = run_cli(
            ["growth", "--param", "samples=5000", "--csv", str(csv_path)],
            tmp_path)
        assert code == 0
        assert csv_path.read_text().startswith("r,mean,stderr")


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

    def test_integer_param_must_be_integral(self, tmp_path, capsys):
        # trials=2.9 used to run 2 trials and echo 2.9 in the config
        code, report = run_cli(["duality", "--param", "trials=2.9"], tmp_path)
        assert code == 2 and report is None
        assert "'trials' must be an integer" in capsys.readouterr().err
        for value in ("3", "3.0"):
            code, report = run_cli(["duality", "--param", f"trials={value}",
                                    "--param", "identity_trials=1"], tmp_path)
            assert code == 0 and report["results"]["trials"] == 3

    def test_stray_config_key_exit_2(self, tmp_path):
        cfg = json_file(tmp_path, "cfg.json", {"seed": 3, "threads": 4,
                                               "params": {"trials": 2}})
        code, report = run_cli(["duality", "--config", cfg], tmp_path)
        assert code == 2 and report is None

    @pytest.mark.parametrize("args,expected", [
        (["duality", "--param", "d=5"], 3),
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

    def test_import_loads_no_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, herglotzlab.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
            capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

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
        try:
            inspect.signature(cli.COMMANDS[args.command]).bind(0, **dict.fromkeys(keys))
        except TypeError as exc:
            pytest.fail(f"README params do not bind to {args.command}: {line}: {exc}")
