"""Command-line interface tests.

Every invocation goes through ``cumica.cli.main`` in-process so exit
codes, stdout, and stderr can be asserted exactly; one subprocess test
covers the installed entry point.
"""

import argparse
import contextlib
import io
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cumica.estimators
from cumica.cli import _SIMULATE_KEYS, _build_parser, main
from cumica.estimators import SolverOptions, all_cumulant, compound_cumulant
from cumica.simulation import mdi


CONTOUR = ["contour", "--family-x", "gamma", "--range-x", "0.5:8",
           "--family-y", "ep", "--range-y", "0.5:4", "--steps", "3"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def data_rows(text):
    return [line for line in text.splitlines()
            if line and not line.startswith("#")]


def parse_matrix(text):
    return np.array([[float(v) for v in line.split(",")]
                     for line in data_rows(text)])


class TestAsv:
    def test_symmetric_example_value(self):
        code, out, err = run(["asv", "--method", "symmetric", "--alpha",
                              "1.0", "--sources", "gamma:1,gamma:1"])
        assert code == 0, err
        assert out.startswith("# cumica asv:")
        rows = [r.split(",") for r in data_rows(out)[1:]]
        table = {(r[4], r[5]): float(r[7]) for r in rows}
        assert table[("0", "1")] == 0.75
        assert table[("1", "0")] == 0.75
        assert table[("0", "0")] == 2.0

    def test_jade_alias_resolves(self):
        code, out, _ = run(["asv", "--method", "jade", "--alpha", "0.5",
                            "--sources", "gamma:1,gamma:2"])
        assert code == 0
        assert "method=all_cumulant" in out.splitlines()[0]

    def test_numerical_error_exit_2(self):
        code, _, err = run(["asv", "--method", "compound", "--alpha", "1.0",
                            "--sources", "gamma:2,gamma:2"])
        assert code == 2
        assert "ZeroDenominator" in err

    def test_underflowing_denominator_exit_2(self):
        # gamma = 1.9e-124 for this mixture: the criterion is nonzero but
        # its square underflows to 0.0
        code, out, err = run(["asv", "--method", "deflation", "--alpha", "1",
                              "--sources", "mix:0.3:1e-108,gamma:2"])
        assert (code, out) == (2, "")
        assert err.startswith("ZeroDenominator: deflation criterion vanishes "
                              "for component(s) [0]")

    @pytest.mark.parametrize("shape", ["1e-300", "1e-80", "1e300"])
    def test_unrepresentable_gamma_shape_exit_2(self, shape):
        code, out, err = run(["asv", "--method", "deflation", "--alpha",
                              "0.5", "--sources", f"gamma:{shape},gamma:2"])
        assert (code, out) == (2, "")
        assert err.startswith(f"InvalidSpec: gamma:{float(shape)!r} ")


class TestOptimalAlpha:
    def test_symmetric_mixture_forces_zero(self):
        code, out, err = run(["optimal-alpha", "--pi", "0.5", "--mu", "5"])
        assert code == 0, err
        assert "# alpha_star = 0.0" in out
        star, value = data_rows(out)[-1].split(",")
        assert float(star) == 0.0 and float(value) > 0

    def test_interior_weight(self):
        code, out, _ = run(["optimal-alpha", "--pi", "0.3", "--mu", "5",
                            "--grid", "0.01"])
        assert code == 0
        star = float(data_rows(out)[-1].split(",")[0])
        assert 0.6 < star < 0.8

    def test_grid_step_below_the_floor_exit_2(self):
        assert run(["optimal-alpha", "--pi", "0.3", "--mu", "5", "--grid",
                    "1e-300"]) == (2, "", "InvalidParams: grid_tol must be "
                                          "in [1e-6, 0.5], got 1e-300\n")


class TestCheckAssumptions:
    def test_pass_and_fail(self):
        code, out, _ = run(["check-assumptions", "--sources",
                            "gamma:1,gamma:2", "--method", "deflation",
                            "--alpha", "1.0"])
        assert code == 0 and data_rows(out)[-1] == "3,true"
        code, _, err = run(["check-assumptions", "--sources", "ep:1,ep:4",
                            "--method", "deflation", "--alpha", "1.0"])
        assert code == 2 and "AssumptionViolated" in err


class TestUsageErrors:
    def test_missing_flags_print_grammar(self):
        code, _, err = run(["estimate"])
        assert code == 1 and "usage: cumica" in err
        code, _, err = run([])
        assert code == 1
        code, _, err = run(["simulate", "--sources", "gamma:1,gamma:2",
                            "--method", "symmetric"])
        assert code == 1 and "missing required flags" in err

    def test_bad_range_and_choice(self):
        code, _, err = run(["contour", "--family-x", "gamma", "--range-x",
                            "oops", "--family-y", "gamma", "--range-y",
                            "1:2", "--method", "compound", "--alpha", "0.5"])
        assert code == 1
        code, _, err = run(["estimate", "--in", "x.csv", "--method",
                            "fastica", "--alpha", "1"])
        assert code == 1
        code, _, err = run(["contour", "--family-x", "gamma", "--range-x",
                            "a:b", "--family-y", "gamma", "--range-y",
                            "1:2", "--method", "compound", "--alpha", "0.5"])
        assert code == 1
        assert err.endswith("error: argument --range-x: expected numeric "
                            "LO:HI, got 'a:b'\n")

    @pytest.mark.parametrize("flags", [["asv"], ["simulate", "--n", "100",
                                                 "--reps", "2"]])
    def test_empty_sources(self, flags):
        code, out, err = run([*flags, "--sources", " , ", "--method", "jade",
                              "--alpha", "0.8"])
        assert (code, out) == (1, "")
        assert err.endswith(
            "error: --sources needs at least one distribution spec\n")

    def test_missing_input_file(self):
        code, _, err = run(["estimate", "--in", "/nonexistent/data.csv",
                            "--method", "symmetric", "--alpha", "1"])
        assert code == 1

    def test_alpha_required_unless_fixed(self):
        code, _, err = run(["asv", "--method", "symmetric", "--sources",
                            "gamma:1,gamma:2"])
        assert code == 1 and "--alpha" in err

    def test_weight_outside_unit_interval_exit_2(self, tmp_path):
        path = tmp_path / "x.csv"
        np.savetxt(path, np.random.default_rng(0).gamma(2.0, size=(200, 2)),
                   delimiter=",")
        code, out, err = run(["estimate", "--in", str(path), "--method",
                              "symmetric", "--alpha", "1.5"])
        assert (code, out) == (2, "")
        assert err.startswith("InvalidParams: alpha must be in [0, 1]")
        code, out, err = run(CONTOUR + ["--method", "compound", "--alpha",
                                        "1.5"])
        assert (code, out) == (2, "") and err.startswith("InvalidParams")

    @pytest.mark.parametrize("flags, message", [
        (["--seed", "-2"], "InvalidParams: seed must be a non-negative "
                           "integer, got -2"),
        (["--tol", "-1"], "InvalidParams: tol must be positive, got -1.0"),
        (["--restarts", "0"], "InvalidParams: restarts must be >= 1, got 0"),
        (["--tol", "inf"], "InvalidParams: tol must be a finite float, "
                           "got inf"),
    ])
    def test_bad_solver_values_exit_2(self, tmp_path, flags, message):
        path = tmp_path / "x.csv"
        np.savetxt(path, np.random.default_rng(0).gamma(2.0, size=(200, 2)),
                   delimiter=",")
        code, out, err = run(["estimate", "--in", str(path), "--method",
                              "symmetric", "--alpha", "0.5", *flags])
        assert (code, out, err) == (2, "", message + "\n")

    @pytest.mark.parametrize("flags", [
        ["--emit-data"], ["--emit-data", "--mixing", "random"],
        ["--method", "jade", "--alpha", "0.5", "--reps", "4"],
        ["--method", "jade", "--alpha", "0.5", "--reps", "4",
         "--mixing", "random"],
    ])
    def test_negative_seed_exit_2(self, flags):
        code, out, err = run(["simulate", "--sources", "gamma:1,gamma:2",
                              "--n", "300", "--seed", "-1", "--threads", "1",
                              *flags])
        assert (code, out) == (2, "")
        assert err == ("InvalidSpec: seed must be a non-negative integer, "
                       "got -1\n")

    def test_contour_family_must_be_one_parameter(self):
        argv = CONTOUR + ["--method", "compound", "--alpha", "0.5"]
        argv[argv.index("--family-x") + 1] = "foo"
        code, out, err = run(argv)
        assert (code, out) == (2, "") and err.startswith("InvalidSpec")

    @pytest.mark.parametrize("axis, text, bounds", [
        ("x", "1:inf", "(1.0, inf)"), ("y", "nan:8", "(nan, 8.0)")])
    def test_contour_range_must_be_finite(self, axis, text, bounds):
        argv = CONTOUR + ["--method", "symmetric", "--alpha", "0.5"]
        argv[argv.index(f"--range-{axis}") + 1] = text
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == (2, "", f"InvalidParams: range_{axis} must "
                                        f"be finite, got {bounds}\n")

    def test_non_finite_data_exit_2(self, tmp_path):
        path = tmp_path / "x.csv"
        X = np.random.default_rng(0).gamma(2.0, size=(200, 2))
        X[3, 0] = np.nan
        np.savetxt(path, X, delimiter=",")
        code, out, err = run(["estimate", "--in", str(path), "--method",
                              "jade", "--alpha", "0.8"])
        assert (code, out) == (2, "")
        assert err == ("NonFiniteInput: data matrix has non-finite entries "
                       "(1 in all, first at row 3, column 0)\n")

    @pytest.mark.parametrize("text,where", [
        ("s1,s2\n1.5,2.5\n3.5,abc\n4.5,5.5\n",
         "line 3, column 2: 'abc' is not a number"),
        ("1.5,2.5\n3.5,4.5 # note\n\n5.5,\n", "line 4, column 2: '' is not "
         "a number"),
        ("1.5,2.5\n3.5,4.5\n5.5\n6.5,7.5\n",
         "line 3: expected 2 columns, got 1"),
        # a first line with a number in it is data, not a header
        ("1.5,abc\n" + "".join(f"{i % 7}.5,{i % 11}.25\n"
                              for i in range(300)),
         "line 1, column 2: 'abc' is not a number"),
    ], ids=["non-numeric", "empty-cell", "ragged", "bad-first-row"])
    def test_malformed_data_exit_2(self, tmp_path, text, where):
        # one line naming the file, line and column, not a traceback
        path = tmp_path / "x.csv"
        path.write_text(text)
        code, out, err = run(["estimate", "--in", str(path), "--method",
                              "jade", "--alpha", "0.8"])
        assert (code, out) == (2, "")
        assert err == f"MalformedInput: {path}: {where}\n"

    def test_unreadable_number_exit_2(self, tmp_path):
        # "1_0" is a Python float but not a number of the CSV reader
        path = tmp_path / "x.csv"
        path.write_text("1_0,2\n3,4\n")
        code, out, err = run(["estimate", "--in", str(path), "--method",
                              "jade", "--alpha", "0.8"])
        assert (code, out) == (2, "")
        assert err == (f"MalformedInput: {path}: not a comma-separated "
                       f"matrix of numbers\n")

    @pytest.mark.parametrize("method", ["symmetric", "jade", "fobi"])
    def test_degenerate_data_exit_2(self, tmp_path, method):
        X = np.random.default_rng(0).gamma(2.0, size=(200, 3))
        X[:, 1] = 4.5
        cases = [(X, "column 1 is constant"),
                 (X[:2, [0, 2]], "2 observations of 2 variables")]
        for data, cause in cases:
            path = tmp_path / "x.csv"
            np.savetxt(path, data, delimiter=",")
            code, out, err = run(["estimate", "--in", str(path), "--method",
                                  method, "--alpha", "0.8"])
            assert (code, out) == (2, "")
            assert err.startswith("NotPositiveDefinite: sample covariance is "
                                  f"singular: {cause}"), err

    def test_standardizer_restricted_to_compound(self):
        code, _, err = run(["estimate", "--in", "x.csv", "--method",
                            "symmetric", "--alpha", "1", "--standardizer",
                            "fobi"])
        assert code == 1 and "compound" in err

    def test_fobi_rejects_another_standardizer(self):
        code, out, err = run(["estimate", "--in", "x.csv", "--method",
                              "fobi", "--standardizer", "symmetric"])
        assert (code, out) == (1, "")
        assert err.endswith(
            "error: method fobi takes --standardizer fobi only\n")

    @pytest.mark.parametrize("text", ["", "# a comment\n\n", "a,b\n"],
                             ids=["empty", "comments-only", "header-only"])
    def test_no_data_rows_exit_2(self, tmp_path, text):
        path = tmp_path / "x.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's own warning stays out
            code, out, err = run(["estimate", "--in", str(path), "--method",
                                  "jade", "--alpha", "0.8"])
        assert (code, out) == (2, "")
        assert err == f"MalformedInput: {path}: no data rows\n"


class TestSimulateAndEstimate:
    def emit(self, tmp_path, extra=()):
        path = tmp_path / "data.csv"
        code, _, err = run(["simulate", "--sources", "gamma:1,gamma:2,gamma:4",
                            "--n", "2500", "--seed", "11", "--emit-data",
                            "--out", str(path), *extra])
        assert code == 0, err
        return path

    def test_emit_data_round_trips_bitwise(self, tmp_path):
        path = self.emit(tmp_path)
        X = np.loadtxt(path, delimiter=",", comments="#")
        assert X.shape == (2500, 3)
        code, out, err = run(["estimate", "--in", str(path), "--method",
                              "jade", "--alpha", "0.8", "--seed", "3"])
        assert code == 0, err
        W_cli = parse_matrix(out)
        est = all_cumulant(X, 0.8, SolverOptions(seed=3))
        assert np.array_equal(W_cli, est.W)

    def test_estimate_recovers_random_mixing(self, tmp_path):
        path = self.emit(tmp_path, extra=("--mixing", "random"))
        omega_line = next(l for l in path.read_text().splitlines()
                          if l.startswith("# omega:"))
        omega = np.array([float(v) for v in
                          omega_line.split(":", 1)[1].split(",")])
        omega = omega.reshape(3, 3)
        code, out, err = run(["estimate", "--in", str(path), "--method",
                              "jade", "--alpha", "0"])
        assert code == 0, err
        assert mdi(parse_matrix(out), omega) < 0.1

    def test_estimate_tolerates_header_row(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 2)) ** 3
        path = tmp_path / "h.csv"
        with open(path, "w") as fh:
            fh.write("s1,s2\n")
            np.savetxt(fh, X, delimiter=",")
        code, out, err = run(["estimate", "--in", str(path), "--method",
                              "jade", "--alpha", "0"])
        assert code == 0, err
        assert parse_matrix(out).shape == (2, 2)

    @pytest.mark.filterwarnings("ignore::cumica.errors.NearDegenerateSpectrum")
    def test_fobi_alias_banner(self, tmp_path):
        path = self.emit(tmp_path)
        code, out, _ = run(["estimate", "--in", str(path), "--method",
                            "fobi", "--alpha", "0.7"])
        assert code == 0
        assert "method=compound alpha=0.0 standardizer=fobi" in out.splitlines()[0]

    @pytest.mark.filterwarnings("ignore::cumica.errors.NearDegenerateSpectrum")
    def test_compound_takes_the_fobi_standardizer(self, tmp_path):
        path = self.emit(tmp_path)
        code, out, err = run(["estimate", "--in", str(path), "--method",
                              "compound", "--alpha", "0.5",
                              "--standardizer", "fobi"])
        assert code == 0, err
        assert " standardizer=fobi " in out.splitlines()[0]
        X = np.loadtxt(path, delimiter=",", comments="#")
        est = compound_cumulant(X, 0.5, standardizer="fobi")
        assert np.array_equal(parse_matrix(out), est.W)

    def test_emit_data_is_replication_zero(self, tmp_path, monkeypatch):
        # the sample replication 0 of a Monte Carlo run with the same
        # seed fits, drawn through the same seed contract
        fitted = []
        standardize = cumica.estimators.standardize

        def record(X, *args, **kwargs):
            fitted.append(X.copy())
            return standardize(X, *args, **kwargs)
        monkeypatch.setattr(cumica.estimators, "standardize", record)
        common = ["simulate", "--sources", "gamma:1,gamma:2,gamma:4",
                  "--n", "1000", "--seed", "6"]
        code, _, err = run([*common, "--method", "symmetric", "--alpha",
                            "0.8", "--reps", "2", "--threads", "1"])
        assert code == 0, err
        path = tmp_path / "data.csv"
        code, _, err = run([*common, "--mixing", "identity", "--emit-data",
                            "--out", str(path)])
        assert code == 0, err
        X = np.loadtxt(path, delimiter=",", comments="#")
        assert len(fitted) == 2
        assert X.tobytes() == fitted[0].tobytes()

    @pytest.mark.filterwarnings("ignore::cumica.errors.NearDegenerateSpectrum")
    def test_fobi_takes_its_own_standardizer(self, tmp_path):
        argv = ["estimate", "--in", str(self.emit(tmp_path)), "--method",
                "fobi"]
        code, out, err = run(argv)
        assert code == 0, err
        assert run([*argv, "--standardizer", "fobi"]) == (0, out, "")

    def test_monte_carlo_deterministic_output(self):
        argv = ["simulate", "--sources", "gamma:1,gamma:2,gamma:4",
                "--method", "jade", "--alpha", "0.8", "--n", "1200",
                "--reps", "10", "--seed", "4", "--threads", "1"]
        code, out1, err = run(argv)
        assert code == 0, err
        code, out2, _ = run(argv)
        assert out1 == out2
        assert out1.startswith("# cumica simulate:")
        assert len(data_rows(out1)) == 1 + 9

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("sources = gamma:1,gamma:2,gamma:4\nmethod = jade\n"
                       "alpha = 0.8\nn = 1200\nreps = 6\nseed = 4\n")
        code, out_cfg, err = run(["simulate", "--config", str(cfg),
                                  "--threads", "1"])
        assert code == 0, err
        assert "reps=6" in out_cfg.splitlines()[0]
        code, out_override, _ = run(["simulate", "--config", str(cfg),
                                     "--reps", "8", "--threads", "1"])
        assert "reps=8" in out_override.splitlines()[0]
        code, _, err = run(["simulate", "--config", "/nonexistent.cfg"])
        assert code == 1

    def test_bad_thread_variable_exit_2(self, monkeypatch):
        monkeypatch.setenv("CUMICA_THREADS", "abc")
        code, out, err = run(["simulate", "--sources", "gamma:1,gamma:2",
                              "--method", "jade", "--alpha", "0.8",
                              "--n", "500", "--reps", "4", "--seed", "1"])
        assert code == 2 and out == ""
        assert err == ("InvalidSpec: CUMICA_THREADS must be an integer, "
                       "got 'abc'\n")

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run(["simulate", "--config", str(cfg)])
        assert code == 1 and "unknown config keys" in err

    @pytest.mark.parametrize("line, message", [
        ("emit_data = maybe", ": emit_data must be yes, no, true, false, 1 "
                              "or 0, got 'maybe'"),
        ("just words", ":6: expected 'key = value', got 'just words'"),
        ("reps = 5", ":6: repeated key 'reps'")])
    def test_config_file_fault_is_a_usage_error(self, tmp_path, line,
                                                 message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sources = gamma:1,gamma:2\nmethod = jade\n"
                       f"alpha = 0.8\nn = 500\nreps = 4\n{line}\n")
        code, out, err = run(["simulate", "--config", str(cfg),
                              "--threads", "1"])
        assert (code, out) == (1, "")
        assert err.endswith(f"\nerror: {cfg}{message}\n")

    def test_config_keys_are_the_simulate_flags(self):
        parser = _build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {s for a in sub.choices["simulate"]._actions
                 for s in a.option_strings}
        assert flags - {"-h", "--help", "--config"} == {
            "--" + key.replace("_", "-") for key in _SIMULATE_KEYS}

    @pytest.mark.parametrize("emit", [False, True], ids=["mc", "emit-data"])
    def test_config_file_matches_flags(self, tmp_path, emit):
        values = {"sources": "gamma:1,gamma:2,gamma:4", "method": "jade",
                  "alpha": "0.8", "n": "1200", "reps": "6", "seed": "4",
                  "mixing": "random", "threads": "1"}
        assert set(values) | {"emit_data", "out"} == set(_SIMULATE_KEYS)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items())
                       + f"emit_data = {'yes' if emit else 'no'}\n"
                       + f"out = {tmp_path / 'cfg.csv'}\n")
        assert run(["simulate", "--config", str(cfg)]) == (0, "", "")
        flags = [f"--{k}={v}" for k, v in values.items()]
        flags += ["--emit-data"] * emit
        code, _, err = run(["simulate", *flags, "--out",
                            str(tmp_path / "flags.csv")])
        assert code == 0, err
        text = (tmp_path / "flags.csv").read_bytes()
        assert text.startswith(b"# cumica simulate:")
        assert (b"emit_data=True" in text) == emit
        assert (tmp_path / "cfg.csv").read_bytes() == text

    @pytest.mark.parametrize("key, value, code", [
        ("method", "fastica", 1), ("n", "1e4", 1), ("mixing", "Random", 1),
        ("seed", "-1", 2)])
    def test_bad_config_value_fails_as_the_flag_does(self, tmp_path, key,
                                                      value, code):
        values = {"sources": "gamma:1,gamma:2", "method": "jade",
                  "alpha": "0.8", "n": "500", "reps": "4", key: value}
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        by_file = run(["simulate", "--config", str(cfg), "--threads", "1"])
        by_flag = run(["simulate", *(f"--{k}={v}" for k, v in values.items()),
                       "--threads", "1"])
        assert by_file == by_flag
        assert by_file[:2] == (code, "")
        if code == 1:
            assert f"error: argument --{key}: invalid" in by_file[2]


class TestFobiAlias:
    SOURCES = ["--sources", "gamma:1,gamma:2,gamma:4"]

    @pytest.mark.parametrize("argv", [
        ["asv", "--method", "fobi", *SOURCES],
        [*CONTOUR, "--method", "fobi"],
        ["check-assumptions", "--method", "fobi", *SOURCES],
        ["simulate", "--method", "fobi", "--n", "1000", "--reps", "4",
         "--threads", "1", *SOURCES],
    ])
    def test_alpha_optional_and_forced_to_zero(self, argv):
        code, out, err = run(argv)
        assert code == 0, err
        for alpha in ("0", "0.7"):
            assert run(argv + ["--alpha", alpha]) == (0, out, err)

    @pytest.mark.filterwarnings(
        "ignore::cumica.errors.NearDegenerateSpectrum")
    def test_estimate_alpha_optional(self, tmp_path):
        path = TestSimulateAndEstimate().emit(tmp_path)
        argv = ["estimate", "--in", str(path), "--method", "fobi"]
        code, out, err = run(argv)
        assert code == 0, err
        assert run(argv + ["--alpha", "0.7"])[1] == out

    def test_contour_matches_compound_at_zero(self):
        fobi = run([*CONTOUR, "--method", "fobi", "--alpha", "0.5"])
        compound = run([*CONTOUR, "--method", "compound", "--alpha", "0"])
        assert fobi[0] == 0 and fobi == compound

    def test_check_assumptions_reports_kurtosis_assumption(self):
        code, out, _ = run(["check-assumptions", "--method", "fobi",
                            "--alpha", "1", "--sources", "ep:1,ep:4"])
        assert code == 0 and data_rows(out)[-1] == "6,true"


class TestContourCli:
    def test_grid_output(self):
        code, out, err = run(["contour", "--family-x", "gamma", "--range-x",
                              "0.5:8", "--family-y", "gamma", "--range-y",
                              "0.5:8", "--method", "compound", "--alpha",
                              "0.5", "--steps", "5"])
        assert code == 0, err
        assert len(data_rows(out)) == 1 + 25
        assert "range_x=0.5:8.0" in out.splitlines()[0]


class TestOutputFile:
    def test_out_matches_stdout(self, tmp_path):
        argv = ["asv", "--method", "deflation", "--alpha", "0.5",
                "--sources", "gamma:1,gamma:2"]
        code, out, _ = run(argv)
        path = tmp_path / "table.csv"
        code2, silent, _ = run(argv + ["--out", str(path)])
        assert code == code2 == 0
        assert silent == ""
        assert path.read_text() == out


def test_module_entry_point():
    # the child gets src/ on its path, so an uninstalled checkout works
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cumica.cli", "optimal-alpha", "--pi", "0.5",
         "--mu", "5"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "# alpha_star = 0.0" in proc.stdout


@pytest.mark.filterwarnings(
    "ignore:'cumica.cli' found in sys.modules:RuntimeWarning")
def test_module_main_in_process(monkeypatch, capsys):
    # the subprocess run above is not traced, so this runs the __main__
    # check in this process: its exit code is main()'s
    monkeypatch.setattr(sys, "argv", ["cumica", "optimal-alpha", "--pi",
                                      "0.5", "--mu", "5"])
    with pytest.raises(SystemExit) as info:
        runpy.run_module("cumica.cli", run_name="__main__")
    assert info.value.code == 0
    assert "# alpha_star = 0.0" in capsys.readouterr().out
