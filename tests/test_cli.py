import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import balmet
from balmet import DiagonalMetric, OperatorKind, build_trajectory
from balmet.cli import build_parser, main
from balmet.tables import trajectory_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


class TestIterate:
    def test_tk_benchmark_rows(self, capsys):
        code, out, _ = run_cli(capsys, "iterate", "--op", "TK", "--k", "2",
                               "--coeffs", "1,17,36", "--steps", "5",
                               "--normalize", "balanced")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[:4] == ["r", "a0", "a1", "a2"]
        assert len(rows) == 6
        want = (0.9738, 12.6377, 35.0561, 0.0640, 0.3027)
        assert np.allclose(rows[1][1:6], want, atol=1e-4)

    def test_round_metric_constant(self, capsys):
        code, out, _ = run_cli(capsys, "iterate", "--op", "Tnu", "--k", "3",
                               "--family", "round", "--steps", "2")
        assert code == 0
        _, rows = parse_csv(out)
        coeffs = np.array([row[1:5] for row in rows])
        assert np.allclose(coeffs, coeffs[0], rtol=1e-9)

    @pytest.mark.parametrize("argv, header, start, fixed", [
        (["--op", "T", "--k", "3", "--family", "binomial", "--alpha", "3", "--c", "2",
          "--normalize", "none"], ["a0", "a1", "a2", "a3"], [3.0, 18.0, 36.0, 24.0], True),
        (["--op", "Tnu", "--n", "2", "--k", "2", "--family", "round"], ["a1", "a2"],
         [1.0, 2.0], True),
        (["--op", "TK", "--k", "2", "--coeffs", "1,17,36", "--normalize", "none"],
         ["a0", "a1", "a2"], [1.0, 17.0, 36.0], False),
    ], ids=["binomial-alpha-c", "cp2-round", "raw"])
    def test_start_and_normalization_flags(self, capsys, argv, header, start, fixed):
        code, out, err = run_cli(capsys, "iterate", *argv, "--steps", "1")
        assert code == 0, err
        got_header, rows = parse_csv(out)
        assert got_header == ["r"] + header + ["err", "bnd", "sigma_tilde"]
        assert rows[0][1:len(start) + 1] == pytest.approx(start, rel=1e-14)
        if fixed:
            assert rows[1][1:len(start) + 1] == pytest.approx(start, rel=1e-12)

    @pytest.mark.parametrize("command", ["iterate", "sigma"])
    @pytest.mark.parametrize("argv, flag", [
        (["--k", "2", "--family", "round", "--c", "2"], "--c"),
        (["--k", "2", "--coeffs", "1,2,1", "--alpha", "5"], "--alpha"),
        (["--k", "2", "--coeffs", "1,2,1", "--c", "2"], "--c"),
        (["--n", "3", "--k", "4", "--class-coeffs", "1,20,30,40,50", "--alpha", "5"],
         "--alpha"),
        (["--n", "2", "--k", "2", "--family", "round", "--c", "2"], "--c"),
        (["--k", "2", "--alpha", "5"], "--alpha"),
    ], ids=["round-c", "coeffs-alpha", "coeffs-c", "class-alpha", "cp2-round-c",
            "no-start-alpha"])
    def test_rejects_family_flags_it_does_not_read(self, capsys, command, argv, flag):
        steps = ["--steps", "0"] if command == "iterate" else []
        code, out, err = run_cli(capsys, command, "--op", "Tnu", *argv, *steps)
        assert code == 1
        assert out == ""
        assert flag in err

    def test_cpn_class_run_has_sigma_column(self, capsys):
        code, out, _ = run_cli(capsys, "iterate", "--op", "Tnu", "--n", "3",
                               "--k", "4", "--class-coeffs", "1,20,30,40,50",
                               "--steps", "8", "--normalize", "first")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["r", "a1", "a2", "a5", "a6", "a15", "err", "bnd",
                          "sigma_tilde"]
        assert rows[8][header.index("sigma_tilde")] == pytest.approx(0.1667, abs=5e-4)
        assert rows[1][2] == pytest.approx(4.3071170, abs=1e-4)

    def test_csv_round_trip_is_exact(self, capsys):
        code, out, _ = run_cli(capsys, "iterate", "--op", "TK", "--k", "2",
                               "--coeffs", "1,17,36", "--steps", "3")
        assert code == 0
        _, rows = parse_csv(out)
        traj = build_trajectory("TK", DiagonalMetric(np.array([1.0, 17.0, 36.0])),
                                steps=3)
        shown = traj.display_iterates()
        for r, row in enumerate(rows):
            assert row[1:4] == [float(v) for v in shown[r].coeffs]
            assert row[4] == traj.err[r]

    def test_json_schema(self, capsys, tmp_path):
        out_path = tmp_path / "run.json"
        code, _, _ = run_cli(capsys, "iterate", "--op", "Tnu", "--k", "3",
                             "--coeffs", "1,25,0.07,13", "--steps", "2",
                             "--format", "json", "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["meta"]["operator"] == "Tnu"
        assert payload["meta"]["n"] == 1
        assert payload["meta"]["k"] == 3
        assert payload["meta"]["normalization"] == "balanced"
        assert payload["meta"]["tolerances"] == {"apply": 1e-11, "conv": 1e-13}
        assert len(payload["rows"]) == 3
        row0 = payload["rows"][0]
        assert set(row0) == {"r", "coeffs", "err", "sigma_tilde", "bnd"}
        assert row0["sigma_tilde"] is None
        assert len(row0["coeffs"]) == 4

    def test_deterministic_output(self, capsys):
        args = ("iterate", "--op", "T", "--k", "2", "--coeffs", "1,17,36",
                "--steps", "3")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_cp1_multi_index_run_is_labelled_by_its_type(self):
        # a MultiIndexMetric is labelled from a1 on CP^1 too, like every CP^n run
        basis = balmet.build_basis(1, 2)
        traj = build_trajectory("Tnu", balmet.MultiIndexMetric(basis, (1.0, 3.0, 2.0)), 1)
        header, rows = trajectory_table(traj)
        assert header == ["r", "a1", "a2", "a3", "err", "bnd", "sigma_tilde"]
        assert len(rows) == 2
        diagonal = build_trajectory("Tnu", DiagonalMetric(np.array([1.0, 3.0, 2.0])), 1)
        assert trajectory_table(diagonal)[0][1:4] == ["a0", "a1", "a2"]

    def test_tnu_degree_zero(self, capsys):
        # T_nu is defined at k=0, where both of its sigma laws are 0
        code, out, err = run_cli(capsys, "iterate", "--op", "Tnu", "--k", "0",
                                 "--coeffs", "3", "--steps", "2")
        assert code == 0, err
        header, rows = parse_csv(out)
        assert header[:2] == ["r", "a0"]
        assert len(rows) == 3


class TestValidationErrors:
    def test_wrong_coeff_count(self, capsys):
        code, _, err = run_cli(capsys, "iterate", "--op", "T", "--k", "2",
                               "--coeffs", "1,2", "--steps", "1")
        assert code == 1
        assert "expected 3" in err

    def test_nonpositive_coeff(self, capsys):
        code, _, _ = run_cli(capsys, "iterate", "--op", "T", "--k", "2",
                             "--coeffs", "1,-2,3", "--steps", "1")
        assert code == 1

    def test_tk_odd_degree(self, capsys):
        code, _, _ = run_cli(capsys, "iterate", "--op", "TK", "--k", "3",
                             "--coeffs", "1,2,2,1", "--steps", "1")
        assert code == 1

    def test_unknown_operator(self, capsys):
        code, _, _ = run_cli(capsys, "iterate", "--op", "Q", "--k", "2",
                             "--coeffs", "1,2,1", "--steps", "1")
        assert code == 1

    def test_usage_error_exits_1(self, capsys):
        # argparse's own report: the usage, then "prog: error: ..."
        code, out, err = run_cli(capsys, "iterate", "--op", "T")
        assert code == 1
        assert out == ""
        assert err.startswith("usage: balmet iterate ")
        assert err.endswith("\nbalmet iterate: error: the following arguments are required:"
                            " --k, --steps\n")

    @pytest.mark.parametrize("argv", [["--version"], ["iterate", "--help"]],
                             ids=["version", "iterate-help"])
    def test_version_and_help_exit_0(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert out.startswith("balmet " if argv == ["--version"] else "usage: balmet iterate ")
        assert err == ""

    @pytest.mark.parametrize("argv", [
        ["--op", "TK", "--k", "3", "--coeffs", "1,2,3,4"],
        ["--op", "T", "--k", "0", "--coeffs", "1"],
    ], ids=["TK-odd-degree", "T-degree-zero"])
    def test_profile_checks_the_map_at_zero_steps(self, capsys, argv):
        code, out, err = run_cli(capsys, "profile", *argv, "--steps", "0")
        assert code == 1
        assert out == ""
        assert err.startswith("error: T")

    def test_numerical_failure_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sigma", "--op", "T", "--k", "2",
                               "--coeffs", "1,1e100,1")
        assert code == 2
        assert "numerical failure" in err

    def test_numerical_failure_names_run_and_step(self, capsys):
        code, out, err = run_cli(capsys, "iterate", "--op", "T", "--k", "2",
                                 "--coeffs", "1,1e100,1", "--steps", "2")
        assert code == 2
        assert out == ""
        # the map, n and k come from the error, the step from the CLI, each once
        assert err.startswith("numerical failure (step 0): T, n=1, k=2: no convergence")
        assert err.count("n=1") == 1

    def test_tnu_spread_1e13_is_a_numerical_failure(self, capsys):
        # one decade past the widest CP^1 spread the ladder certifies (1e12)
        code, out, err = run_cli(capsys, "iterate", "--op", "Tnu", "--k", "2",
                                 "--coeffs", "1,1e13,1", "--steps", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure (step 0): Tnu, n=1, k=2: no convergence"
                              " to rel_tol=1e-11 within node cap 2048")

    def test_missed_density_mass_is_a_numerical_failure(self, capsys):
        # both rule levels miss the same peaks of rho and agree; the mass does not
        code, out, err = run_cli(capsys, "iterate", "--op", "T", "--k", "4",
                                 "--coeffs", "1,1e40,1,1e40,1", "--steps", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure (step 0): T, n=1, k=4: density mass")
        assert "max a / min a = 1e+40" in err

    def test_overflowing_image_is_a_numerical_failure(self, capsys):
        # a valid start whose image leaves floating-point range: the map
        # fails, not the input, and numpy emits no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "iterate", "--op", "Tnu", "--k", "2",
                                     "--coeffs", "1.7e308,1,1.7e308", "--steps", "1")
        assert code == 2
        assert out == ""
        assert err == ("numerical failure (step 0): Tnu, n=1, k=2: the image of a valid"
                       " metric leaves floating-point range\n")

    def test_unconverged_limit_names_the_map_once(self, capsys):
        # the ConvergenceError names the canonical map, n and k itself; a
        # limit is not an application, so there is no step
        code, out, err = run_cli(capsys, "iterate", "--op", "tk", "--k", "2",
                                 "--coeffs", "1,17,36", "--steps", "1", "--max-iter", "2")
        assert code == 2
        assert out == ""
        assert err == ("numerical failure: TK, n=1, k=2: no balanced limit within 2"
                       " iterations (last step size 1.286e-02)\n")

    @pytest.mark.parametrize("op", ["Tnu", "TK"])
    def test_integrands_past_floating_range_are_a_numerical_failure(self, capsys, op):
        # a spread of 1e600 underflows Q at some nodes: exit 2, no numpy warning.
        # Its first-normalized coefficients overflow too, so an orbit that
        # measures steps from the start (--steps 0, sigma) must not normalize
        # it before its image exists
        coeffs = ",".join(["1e-300"] + ["1"] * 15 + ["1e300"])
        start = ["--op", op, "--k", "16", "--coeffs", coeffs]
        for argv in (["iterate", *start, "--steps", "1"], ["iterate", *start, "--steps", "0"],
                     ["sigma", *start]):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err == (f"numerical failure (step 0): {op}, n=1, k=16: the integrands leave"
                           " floating-point range (coefficient spread max a / min a = inf)\n")

    @pytest.mark.parametrize("argv, message", [
        (["iterate", "--op", "T", "--k", "2", "--coeffs", "1,x,3", "--steps", "1"],
         "could not parse coefficient list '1,x,3'"),
        (["sigma", "--op", "Tnu", "--k", "2", "--palindromic", "maybe"],
         "argument --palindromic: invalid _bool_flag value: 'maybe'"),
    ], ids=["coeffs", "palindromic"])
    def test_unparseable_value(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("argv, message", [
        (["sigma", "--op", "TK", "--k", "2", "--coeffs", "1,17,36", "--steps", "-1"],
         "max_steps must be >= 2 (a ratio needs three step sizes), got -1"),
        (["sigma", "--op", "TK", "--k", "2", "--coeffs", "1,17,36", "--steps", "1"],
         "max_steps must be >= 2 (a ratio needs three step sizes), got 1"),
        (["iterate", "--op", "TK", "--k", "2", "--coeffs", "1,17,36", "--steps", "2",
          "--max-iter", "-1"], "max_iter must be >= 1, got -1"),
        # no step is measured before a cap of 0, so not even a fixed point meets it
        (["iterate", "--op", "Tnu", "--k", "2", "--family", "round", "--steps", "0",
          "--max-iter", "0"], "max_iter must be >= 1, got 0"),
        (["profile", "--op", "T", "--k", "2", "--coeffs", "1,2,1", "--steps", "-1"],
         "steps must be >= 0, got -1"),
        (["iterate", "--op", "T", "--k", "2", "--coeffs", "1,2,1", "--steps", "-1"],
         "steps must be >= 0, got -1"),
        # no step size falls below such a conv_tol: fail at once, not after max_iter
        (["iterate", "--op", "TK", "--k", "2", "--coeffs", "1,17,36", "--steps", "1",
          "--conv-tol", "-1", "--max-iter", "5"], "conv_tol must be > 0, got -1.0"),
        (["iterate", "--op", "TK", "--k", "2", "--coeffs", "1,17,36", "--steps", "1",
          "--conv-tol", "nan"], "conv_tol must be > 0, got nan"),
        # sigma finds no balanced limit, so it takes no conv_tol at all
        (["sigma", "--op", "TK", "--k", "2", "--coeffs", "1,17,36", "--conv-tol", "-1"],
         "unrecognized arguments: --conv-tol -1"),
        (["sigma", "--op", "TK", "--k", "2", "--coeffs", "1,17,36", "--conv-tol", "nan"],
         "unrecognized arguments: --conv-tol nan"),
        (["sigma", "--op", "TK", "--k", "2", "--coeffs", "1,17,36", "--err-floor", "nan"],
         "err_floor must be >= 0, got nan"),
        # an infinite conv_tol would take the start itself as the limit
        (["iterate", "--op", "Tnu", "--k", "3", "--coeffs", "1,25,0.07,13", "--steps", "1",
          "--conv-tol", "inf"], "conv_tol must be finite, got inf"),
        (["iterate", "--op", "TK", "--k", "2", "--coeffs", "1,17,36", "--steps", "1",
          "--conv-tol", "inf"], "conv_tol must be finite, got inf"),
        (["sigma", "--op", "TK", "--k", "2", "--coeffs", "1,17,36", "--conv-tol", "inf"],
         "unrecognized arguments: --conv-tol inf"),
        (["sigma", "--op", "TK", "--k", "2", "--coeffs", "1,17,36", "--err-floor", "inf"],
         "err_floor must be finite, got inf"),
        # distances are in natural-log units: a limit of 1 or more is met by
        # the first steps, which would be taken as the limit
        (["iterate", "--op", "Tnu", "--k", "3", "--coeffs", "1,25,0.07,13", "--steps", "1",
          "--conv-tol", "1e300"], "conv_tol must be < 1 (distances are in natural-log units), "
         "got 1e+300"),
        (["iterate", "--op", "TK", "--k", "2", "--coeffs", "1,17,36", "--steps", "1",
          "--conv-tol", "1"], "conv_tol must be < 1 (distances are in natural-log units), got 1.0"),
        (["sigma", "--op", "TK", "--k", "2", "--coeffs", "1,17,36", "--err-floor", "1e300"],
         "err_floor must be < 1 (distances are in natural-log units), got 1e+300"),
        # checked before np.geomspace, which warns on a non-positive end point
        (["profile", "--op", "T", "--k", "2", "--coeffs", "1,2,1", "--x-min", "-1"],
         "--x-min must be finite and positive, got -1.0"),
        (["profile", "--op", "T", "--k", "2", "--coeffs", "1,2,1", "--x-max", "0"],
         "--x-max must be finite and positive, got 0.0"),
    ], ids=["sigma-steps", "sigma-one-step", "iterate-max-iter", "iterate-max-iter-zero",
            "profile-steps", "iterate-steps", "iterate-conv-tol-negative", "iterate-conv-tol-nan",
            "sigma-conv-tol-negative", "sigma-conv-tol-nan", "sigma-err-floor-nan",
            "iterate-conv-tol-inf-tnu", "iterate-conv-tol-inf-tk", "sigma-conv-tol-inf",
            "sigma-err-floor-inf", "iterate-conv-tol-huge", "iterate-conv-tol-one",
            "sigma-err-floor-huge",
            "profile-x-min", "profile-x-max"])
    def test_run_limit_out_of_range(self, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("argv, message", [
        (["--n", "2", "--k", "2", "--coeffs", "1,2,2"],
         "expected 6 coefficients for n=2, k=2, got 3"),
        (["--k", "2", "--class-coeffs", "1,2"], "--class-coeffs applies to CP^n with n >= 2"),
        (["--k", "2"], "provide --coeffs or --family for the start metric"),
        (["--n", "2", "--k", "2"], "provide --coeffs, --class-coeffs, or --family round"),
        (["--n", "2", "--k", "2", "--family", "binomial"],
         "--family binomial applies to CP^1 (n=1) only"),
        (["--k", "-1", "--coeffs", "1"], "k must be nonnegative"),
        (["--n", "2", "--k", "0", "--family", "round"],
         "a metric over CP^2 needs k >= 1, got k=0"),
        (["--n", "3", "--k", "0", "--coeffs", "1"],
         "a metric over CP^3 needs k >= 1, got k=0"),
    ], ids=["cp2-coeff-count", "cp1-class-coeffs", "cp1-no-start", "cp2-no-start",
            "cp2-binomial", "negative-k", "cp2-degree-zero", "cp3-degree-zero"])
    def test_bad_start(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "iterate", "--op", "Tnu", *argv, "--steps", "1")
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_cp2_full_coefficient_start(self, capsys):
        code, out, err = run_cli(capsys, "iterate", "--op", "Tnu", "--n", "2", "--k", "2",
                                 "--coeffs", "1,2,2,1,2,1", "--steps", "1")
        assert code == 0, err
        header, rows = parse_csv(out)
        assert header == ["r", "a1", "a2", "a3", "a4", "a5", "a6", "err", "bnd",
                          "sigma_tilde"]
        assert rows[0][1:7] == pytest.approx([1, 2, 2, 1, 2, 1], rel=1e-14)

    def test_profile_checks_operator_without_steps(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "--op", "Q", "--k", "2",
                               "--coeffs", "1,2,1")
        assert code == 1
        assert out == ""

    def test_sigma_at_degree_zero(self, capsys):
        # T_nu at k=0 is the identity: there is no ratio to estimate
        code, out, err = run_cli(capsys, "sigma", "--op", "Tnu", "--k", "0",
                                 "--coeffs", "3")
        assert code == 1
        assert out == ""
        assert "k=0" in err

    @pytest.mark.parametrize("argv, message", [
        (["--op", "T", "--k", "1", "--coeffs", "1,3"],
         "T at k=1 fixes every metric"),
        # a generated start: its one coefficient is palindromic, so the
        # generic draw takes its fallback before the check
        (["--op", "Tnu", "--k", "0"], "Tnu at k=0 fixes every metric"),
        (["--op", "Tnu", "--k", "1", "--palindromic", "true"],
         "--palindromic true at k=1 generates only the round metric"),
        (["--op", "Tnu", "--n", "2", "--k", "1", "--symmetric", "true"],
         "--symmetric true at k=1 generates only the round metric"),
    ], ids=["T-degree-one", "Tnu-degree-zero-generated", "palindromic-degree-one",
            "symmetric-degree-one"])
    def test_sigma_without_a_contracting_mode(self, capsys, argv, message):
        # every start these give is its own limit: a validation error, not
        # a numerical failure
        code, out, err = run_cli(capsys, "sigma", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message}")


class TestSigmaCommand:
    def test_predicted_value_T6(self, capsys):
        # no explicit start: the command generates a seeded random metric
        code, out, _ = run_cli(capsys, "sigma", "--op", "T", "--k", "6",
                               "--err-floor", "1e-8")
        assert code == 0
        report = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert float(report["sigma_predicted"]) == pytest.approx(60 / 72, rel=1e-12)
        assert float(report["sigma_hat"]) == pytest.approx(60 / 72, abs=0.01)
        assert int(report["iterations_used"]) > 3

    def test_palindromic_generated_start(self, capsys):
        code, out, _ = run_cli(capsys, "sigma", "--op", "Tnu", "--k", "4",
                               "--palindromic", "true", "--seed", "1",
                               "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["regime"] == "palindromic"
        assert report["sigma_predicted"] == pytest.approx(2 / 7, rel=1e-12)
        assert report["abs_difference"] < 0.01

    def test_cpn_symmetric_prediction(self, capsys):
        code, out, _ = run_cli(capsys, "sigma", "--op", "Tnu", "--n", "2",
                               "--k", "2", "--symmetric", "true",
                               "--err-floor", "1e-8", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["sigma_predicted"] == pytest.approx(1 / 15, rel=1e-12)
        assert report["regime"] == "generally symmetric"
        assert abs(report["abs_difference"]) < 0.01

    def test_cpn_generic_prediction(self, capsys):
        code, out, _ = run_cli(capsys, "sigma", "--op", "Tnu", "--n", "2",
                               "--k", "3", "--symmetric", "false",
                               "--err-floor", "1e-7", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["sigma_predicted"] == pytest.approx(0.50, rel=1e-12)
        assert report["regime"] == "generic"
        assert abs(report["abs_difference"]) < 0.01

    @pytest.mark.parametrize("argv, law", [
        (["--op", "T", "--k", "4", "--seed", "1"], 5 / 7),
        (["--op", "Tnu", "--n", "3", "--k", "2", "--seed", "3"], 1 / 3),
    ], ids=["T-k4", "Tnu-cp3-k2"])
    def test_default_estimate_is_within_2e_7_of_the_law(self, capsys, argv, law):
        # step ratios down to the default floor of 1e-8 read 1.5e-8 and
        # 1.1e-7 off these laws
        code, out, _ = run_cli(capsys, "sigma", *argv, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["sigma_predicted"] == pytest.approx(law, rel=1e-15)
        assert report["abs_difference"] < 2e-7

    @pytest.mark.parametrize("argv, used", [
        (["--op", "Tnu", "--k", "2", "--coeffs", "1,3,1", "--steps", "2", "--err-floor", "0"], 2),
        (["--op", "T", "--k", "6", "--err-floor", "1e-8"], 87),
    ], ids=["capped", "floor-reached"])
    def test_says_when_the_step_cap_ended_the_orbit(self, capsys, argv, used):
        # a floor of 0 is never reached, so the estimate is read at the cap:
        # one line on stderr, the report and the exit code as always
        code, out, err = run_cli(capsys, "sigma", *argv)
        assert code == 0
        report = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert list(report) == ["operator", "n", "k", "regime", "sigma_hat",
                                "sigma_predicted", "abs_difference", "iterations_used"]
        assert int(report["iterations_used"]) == used
        if used == 2:
            assert err == ("warning: no step size reached --err-floor 0 within --steps 2;"
                           " sigma_hat may not have settled\n")
        else:
            assert err == ""

    @pytest.mark.parametrize("flag, value", [("--conv-tol", "1e-13"), ("--max-iter", "2000")],
                             ids=["--conv-tol", "--max-iter"])
    def test_rejects_flags_it_does_not_read(self, capsys, flag, value):
        # sigma reads the orbit's step sizes and finds no balanced limit
        code, out, err = run_cli(capsys, "sigma", "--op", "TK", "--k", "2",
                                 "--coeffs", "1,17,36", flag, value)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err

    def test_generated_start_checks_dimension_first(self, capsys):
        # rejected before any (n+1)! permutation scan
        code, out, err = run_cli(capsys, "sigma", "--op", "Tnu", "--n", "8", "--k", "1")
        assert code == 1
        assert out == ""
        assert "expected 1..3" in err

    @pytest.mark.parametrize("argv, flag", [
        (["--k", "2", "--coeffs", "1,3,1", "--palindromic", "false"], "--palindromic"),
        (["--n", "2", "--k", "2", "--palindromic", "true"], "--palindromic"),
        (["--k", "2", "--symmetric", "true"], "--symmetric"),
    ], ids=["explicit-start", "palindromic-cp2", "symmetric-cp1"])
    def test_rejects_generator_flags_it_does_not_read(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "sigma", "--op", "Tnu", *argv)
        assert code == 1
        assert out == ""
        assert flag in err


class TestReproduceCommand:
    def test_tk_table_passes(self, capsys, tmp_path):
        out_path = tmp_path / "tk.csv"
        code, out, _ = run_cli(capsys, "reproduce", "tk-k2", "--out", str(out_path))
        assert code == 0
        assert "RESULT: PASS" in out
        header, rows = parse_csv(out_path.read_text())
        assert header == ["r", "a0", "a1", "a2", "dist", "bnd"]
        assert len(rows) == 6

    @pytest.mark.parametrize("table_id", balmet.TABLE_IDS)
    def test_readme_row_names_the_declared_run(self, table_id):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Benchmark tables", 1)[1].split("\n#", 1)[0]
        runs = dict(re.findall(r"^\| `([\w-]+)` +\| `([^`]+)`", section, flags=re.M))
        assert sorted(runs) == sorted(balmet.TABLE_IDS)
        args = build_parser().parse_args(["iterate"] + runs[table_id].split())
        op, n, k, start, steps, mode = balmet.golden_table(table_id).run
        assert (OperatorKind.parse(args.op), args.n, args.k, args.steps, args.normalize) == \
            (OperatorKind.parse(op), n, k, steps, mode)
        given = args.class_coeffs if n > 1 else args.coeffs
        assert [float(v) for v in given.split(",")] == [float(v) for v in start]

    def test_json_output_matches_csv(self, capsys, tmp_path):
        # every table, whose header is its golden columns
        for table_id in balmet.TABLE_IDS:
            for fmt in ("csv", "json"):
                code, _, _ = run_cli(capsys, "reproduce", table_id, "--format", fmt,
                                     "--out", str(tmp_path / f"{table_id}.{fmt}"))
                assert code == 0
            header, rows = parse_csv((tmp_path / f"{table_id}.csv").read_text())
            table = balmet.golden_table(table_id)
            assert header == ["r"] + [col.name for col in table.columns]
            assert [int(row[0]) for row in rows] == [int(g[0]) for g in table.rows]
            payload = json.loads((tmp_path / f"{table_id}.json").read_text())
            assert payload["meta"] == {"table": table_id, "columns": header}
            assert [[row[name] for name in header] for row in payload["rows"]] == rows

    @pytest.mark.parametrize("flag", ["--tol", "--conv-tol", "--max-iter"])
    def test_rejects_flags_it_does_not_read(self, capsys, flag):
        code, out, err = run_cli(capsys, "reproduce", "tk-k2", flag, "1e-3")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err

    def test_unknown_table(self, capsys):
        code, _, _ = run_cli(capsys, "reproduce", "nope")
        assert code == 1

    @pytest.mark.parametrize("argv, to_file", [
        # reproduce prints its elapsed time, so its output file is compared
        (["reproduce", "tk-k2"], True),
        (["iterate", "--op", "Tnu", "--n", "2", "--k", "2",
          "--coeffs", "1,2,2,1,2,1", "--steps", "2"], False),
        (["iterate", "--op", "Tnu", "--n", "3", "--k", "4", "--class-coeffs",
          "1,20,30,40,50", "--steps", "2", "--normalize", "first"], False),
        # k=8 with spread 1e8 certifies at m=1024, where the table products are large
        (["iterate", "--op", "T", "--k", "8", "--coeffs", "1,1e8,1,1e8,1,1e8,1,1e8,1",
          "--steps", "2"], False),
        # a generic CP^2 start: every application contracts its first pair as one stack
        (["sigma", "--op", "Tnu", "--n", "2", "--k", "5", "--seed", "2"], False),
    ], ids=["tk-k2", "cpn-tnu", "cp3-tnu", "cp1-t-wide", "cp2-tnu-generic"])
    def test_output_independent_of_blas_threads(self, tmp_path, argv, to_file):
        src = str(Path(balmet.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            out_path = tmp_path / f"out_{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            cmd = [sys.executable, "-m", "balmet.cli"] + argv
            proc = subprocess.run(cmd + (["--out", str(out_path)] if to_file else []),
                                  env=env, check=True, capture_output=True, timeout=120)
            outputs.append(out_path.read_bytes() if to_file else proc.stdout)
        assert outputs[0]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("table_id", balmet.TABLE_IDS)
    def test_table_is_its_iterate_run(self, capsys, table_id):
        # the table's declared run as an iterate command, cut to its golden
        # rows and columns
        table = balmet.golden_table(table_id)
        op, n, k, start, steps, mode = table.run
        code, out, err = run_cli(capsys, "iterate", "--op", op, "--n", str(n), "--k", str(k),
                                 "--class-coeffs" if n > 1 else "--coeffs",
                                 ",".join(map(repr, start)), "--steps", str(steps),
                                 "--normalize", mode)
        assert code == 0, err
        header, rows = parse_csv(out)
        cols = [header.index("err" if c.name == "dist" else c.name) for c in table.columns]
        want = [[rows[int(g[0])][0]] + [rows[int(g[0])][j] for j in cols]
                for g in table.rows]
        assert [list(row) for row in balmet.generate_table(table_id)] == want

    def test_unknown_table_id(self):
        with pytest.raises(ValueError, match=r"^unknown table 'nope'; expected one of "):
            balmet.golden_table("nope")

    def test_mismatch_exits_3(self, capsys, monkeypatch):
        import balmet.tables as tables

        bad = [list(r) for r in tables.golden_table("tk-k2").rows]
        bad[0][1] += 0.5  # corrupt one golden cell

        real = tables.golden_table

        def fake(table_id):
            t = real(table_id)
            if table_id == "tk-k2":
                return dataclasses.replace(t, rows=tuple(tuple(r) for r in bad))
            return t

        monkeypatch.setattr(tables, "golden_table", fake)
        monkeypatch.setattr("balmet.cli.golden_table", fake)
        code, out, _ = run_cli(capsys, "reproduce", "tk-k2")
        assert code == 3
        assert "RESULT: FAIL" in out


class TestProfileCommand:
    def test_writes_one_file_per_iterate(self, capsys, tmp_path):
        out_path = tmp_path / "prof.csv"
        code, _, _ = run_cli(capsys, "profile", "--op", "T", "--k", "4",
                             "--coeffs", "1,300,300,300,1", "--steps", "4",
                             "--out", str(out_path), "--x-count", "32")
        assert code == 0
        files = sorted(tmp_path.glob("prof_r*.csv"))
        assert [f.name for f in files] == [f"prof_r{r}.csv" for r in range(5)]
        for f in files:
            _, rows = parse_csv(f.read_text())
            assert len(rows) == 32
            assert all(row[1] >= 0 for row in rows)

    @pytest.mark.parametrize("out, names", [
        ("p{r}.csv", ["p0.csv", "p1.csv"]),
        ("prof", ["prof_r0", "prof_r1"]),
    ], ids=["template", "extensionless"])
    def test_out_path_forms(self, capsys, tmp_path, out, names):
        code, _, _ = run_cli(capsys, "profile", "--op", "T", "--k", "2",
                             "--coeffs", "1,3,1", "--steps", "1",
                             "--out", str(tmp_path / out), "--x-count", "3")
        assert code == 0
        assert sorted(f.name for f in tmp_path.iterdir()) == names

    def test_stdout_long_format(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "--op", "Tnu", "--k", "1",
                               "--coeffs", "1,1", "--x-count", "5")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["r", "x", "rho"]
        assert len(rows) == 5

    def test_round_profile_inversion_symmetric(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "--op", "Tnu", "--k", "4",
                               "--family", "round",
                               "--xs", "0.25,4.0")
        assert code == 0
        _, rows = parse_csv(out)
        # rho(1/x) = x^2 rho(x) pairs the two sample points
        assert rows[1][2] == pytest.approx(rows[0][2] / 16.0, rel=1e-11)

    @pytest.mark.parametrize("flag, value", [
        ("--conv-tol", "1e-3"), ("--max-iter", "5"), ("--format", "json")])
    def test_rejects_flags_it_does_not_read(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "profile", "--op", "T", "--k", "2",
                                 "--coeffs", "1,2,1", flag, value)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err

    def test_rejects_cpn(self, capsys):
        code, _, _ = run_cli(capsys, "profile", "--op", "Tnu", "--n", "2",
                             "--k", "2", "--family", "round")
        assert code == 1
