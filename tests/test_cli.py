import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsuperpose
from qsuperpose import CavityConfig, DomainError, cli, params, qgrid, verification
from qsuperpose.cli import main, report_payload
from qsuperpose.verification import run_verification

REPORT_KEYS = [
    "kappa",
    "eps1",
    "eps2",
    "a",
    "b",
    "mean_photon",
    "mean_photon_out",
    "var_plus",
    "var_minus",
    "var_plus_out",
    "var_minus_out",
    "squeezing",
    "squeezing_out",
    "combined_mean_amp",
    "combined_mean_sq",
    "combined_mean_photon",
    "combined_var_plus",
    "combined_var_minus",
    "combined_coherent_term",
    "coherent_mean_photon",
]


class TestReport:
    def test_json_to_stdout(self, capsys):
        assert main(["report", "--eps1", "0.3", "--eps2", "0.2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload.keys()) == REPORT_KEYS
        assert payload["squeezing"] == pytest.approx(0.142857143, abs=1e-9)
        assert payload["mean_photon"] == pytest.approx(0.455238095, abs=1e-9)
        assert payload["combined_mean_photon"] == pytest.approx(0.278911565, abs=1e-9)
        # the procedural criticism is visible side by side
        assert payload["combined_coherent_term"] == pytest.approx(
            0.183673469, abs=1e-9
        )
        assert payload["coherent_mean_photon"] == pytest.approx(0.36, abs=1e-9)

    def test_nine_significant_digits(self, capsys):
        main(["report", "--eps1", "0.3", "--eps2", "0.2"])
        payload = json.loads(capsys.readouterr().out)
        for key, value in payload.items():
            assert value == float(f"{value:.9g}"), key

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["report", "--eps1", "0.3", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["a"] == 0.6

    def test_csv_format(self, capsys):
        assert main(["report", "--eps1", "0.3", "--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1
        assert float(rows[0]["mean_photon"]) == pytest.approx(0.36, abs=1e-9)

    def test_stability_error_exit_code(self, capsys):
        assert main(["report", "--eps2", "0.6"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "StabilityError"

    @pytest.mark.parametrize(
        "argv, field",
        (
            (["report", "--kappa", "1e-300", "--eps1", "0.5"], "mean_photon"),
            (["report", "--kappa", str(sys.float_info.max), "--eps1", "1e3",
              "--eps2", "0.5"], "var_plus_out"),
            (["sweep", "--kappa", "1e-300", "--sweep", "eps1:0.5:0.6:2"],
             "mean_photon"),
            (["sweep", "--kappa", str(sys.float_info.max), "--eps1", "1e3",
              "--sweep", "eps2:0.5:0.25:2", "--format", "json"], "var_plus_out"),
        ),
    )
    def test_overflowing_field_exit_code(self, argv, field, capsys):
        # a = 1e300 overflows a^2, and kappa var_plus overflows at the
        # largest kappa: JSON has no infinity, so the field is named with
        # its config in one JSON line, and nothing is written
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "DomainError"
        assert error["message"].startswith(field)
        assert "for CavityConfig(kappa=" in error["message"]

    @pytest.mark.parametrize("eps2", ("1e-20", "5e-11", "1e-9"))
    def test_squeezing_of_a_tiny_pump(self, eps2, capsys):
        # S = b/(2(1 + b)) exactly, from the float input eps2 with b = 2 eps2
        # at kappa = 1, to 9 significant digits: (2 - var_plus)/2 printed
        # 5.00000041e-11 at eps2 = 5e-11, and 0 at 1e-20
        assert main(["report", "--eps1", "0.3", "--eps2", eps2]) == 0
        payload = json.loads(capsys.readouterr().out)
        b = 2 * Fraction(float(eps2))
        exact = b / (2 * (1 + b))
        want = float(f"{Decimal(exact.numerator) / Decimal(exact.denominator):.9g}")
        assert payload["squeezing"] == payload["squeezing_out"] == want

    def test_no_infinity_is_written(self, monkeypatch):
        # the JSON writer refuses what the payload's own check would miss
        monkeypatch.setattr(cli, "report_payload", lambda c: {"a": math.inf})
        with pytest.raises(ValueError, match="JSON compliant"):
            main(["report"])


class TestSweep:
    def test_squeezing_monotone_in_pump(self, capsys):
        assert main(["sweep", "--sweep", "eps2:0:0.49:25"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 25
        s = [float(r["squeezing"]) for r in rows]
        assert all(x < y for x, y in zip(s, s[1:]))
        assert s[0] == 0.0
        assert s[-1] == pytest.approx(0.98 / (2 * 1.98), abs=1e-9)  # b = 0.98

    def test_rows_recompute_bit_for_bit(self, capsys):
        assert main(["sweep", "--sweep", "eps2:0:0.37:7", "--eps1", "0.23"]) == 0
        text = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(text)))
        for row in rows:
            config = CavityConfig(
                float(row["kappa"]), float(row["eps1"]), float(row["eps2"])
            )
            again = report_payload(config)
            for key, value in again.items():
                assert row[key] == f"{value:.9g}", key

    def test_json_format(self, capsys):
        assert main(["sweep", "--sweep", "eps1:0:1:3", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["eps1"] for r in rows] == [0.0, 0.5, 1.0]

    def test_kappa_sweep(self, capsys):
        assert main(["sweep", "--sweep", "kappa:1:4:4", "--eps2", "0.4"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [float(r["b"]) for r in rows] == pytest.approx(
            [0.8, 0.4, 0.8 / 3, 0.2], abs=1e-9
        )

    def test_sweep_validation(self, capsys):
        assert main(["sweep", "--sweep", "eps2:0:0.6:5"]) == 2  # leaves stability
        assert main(["sweep", "--sweep", "eps2:0:0.4:1"]) == 2  # too few steps
        assert main(["sweep", "--sweep", "detuning:0:1:5"]) == 2  # unknown param
        assert main(["sweep", "--sweep", "eps2:0:0.4"]) == 2  # malformed
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert all(json.loads(line)["error"] == "DomainError" for line in err_lines[1:])

    def test_unstable_endpoint_named(self, capsys):
        # the stop point is checked before any row is computed
        assert main(["sweep", "--sweep", "eps2:0:1:3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "StabilityError"
        assert "eps2=1.0" in error["message"]

    #: wide values, and values so small that stop - start is subnormal
    bounds = st.floats(-1e300, 1e300) | st.floats(-1e-305, 1e-305)

    @settings(max_examples=300, deadline=None)
    @given(start=bounds, stop=bounds, steps=st.integers(2, 2000))
    @example(start=0.25, stop=0.25, steps=7)  # start == stop
    @example(start=-0.0, stop=-0.0, steps=2)
    @example(start=0.49, stop=0.0, steps=9)  # stop < start
    @example(start=0.0, stop=5e-324, steps=2000)  # the step underflows to 0
    @example(start=1e-310, stop=3e-310, steps=1000)  # subnormal stop - start
    def test_grid_is_numpys_linspace(self, start, stop, steps):
        want = np.linspace(start, stop, steps).tolist()
        got = params.linspace(start, stop, steps)
        assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_non_numeric_bound_rejected(self, capsys):
        assert main(["sweep", "--sweep", "eps2:a:0.4:3"]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "DomainError"
        assert "bad sweep specification" in error["message"]

    def test_steps_read_by_the_size_rule(self, capsys, monkeypatch, tmp_path):
        # a sweep builds all its rows before it writes any: one step above
        # the cap is refused before the grid of points is made
        cap = cli.SWEEP_CAP
        assert cap == 32768
        monkeypatch.setattr(cli, "linspace", None)
        assert main(["sweep", "--sweep", f"eps2:0:0.4:{cap + 1}"]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error == {
            "error": "DomainError",
            "message": f"steps must be from 2 to {cap} (the cap), got {cap + 1}",
        }
        # the cap itself runs, here with each row cut to its sweep column
        monkeypatch.undo()
        monkeypatch.setattr(cli, "report_payload", lambda c: {"eps2": c.eps2})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--sweep", f"eps2:0:0.4:{cap}", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == cap + 1


class TestQGrid:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(
            ["qgrid", "--eps1", "0.3", "--eps2", "0.2", "--grid-n", "32",
             "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0] == ["re", "im", "q"]
        assert len(rows) == 32 * 32 + 1

    def test_json_output(self, capsys):
        code = main(
            ["qgrid", "--kind", "squeezed", "--eps2", "0.2", "--grid-n", "16",
             "--grid-extent", "5", "--format", "json"]
        )
        assert code == 0
        env = json.loads(capsys.readouterr().out)
        assert env["kind"] == "squeezed"
        assert env["n"] == 16
        assert env["extent"] == 5.0
        assert len(env["values"]) == 256

    def test_grid_validation(self, capsys, monkeypatch):
        assert main(["qgrid", "--grid-n", "4"]) == 2
        assert main(["qgrid", "--grid-extent", "wide"]) == 2
        for extent in ("nan", "inf"):
            assert main(["qgrid", "--grid-extent", extent]) == 2
            error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert error == {
                "error": "DomainError",
                "message": f"extent must be finite, got {extent}",
            }
        # one point per axis above the memory cap; with the closed form
        # removed, a missing cap fails at once instead of allocating the grid
        monkeypatch.setattr(qgrid, "gaussian_form", None)
        too_many = math.isqrt(params.ARRAY_BYTES_CAP // 16) + 1
        assert main(["qgrid", "--grid-n", str(too_many)]) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "DomainError" and "cap" in error["message"]

    def test_overflowing_drive_exit_code(self, capsys):
        # a = 27 overflows exp(a^2); the grid is refused, nothing is written
        code = main(["qgrid", "--eps1", "13.5", "--eps2", "0", "--format", "json"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err.strip().splitlines()[-1])
        assert error["error"] == "DomainError"

    @pytest.mark.parametrize("eps1, a", (("14", "28"), ("1e200", "2e+200")))
    def test_underflowing_drive_exit_code(self, capsys, eps1, a):
        # the prefactor exp(-cx a^2) underflows to 0; forming a^2 at
        # a = 2e200 once raised an untyped OverflowError (exit 1)
        assert main(["qgrid", "--eps1", eps1, "--grid-n", "16"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err.strip().splitlines()[-1]) == {
            "error": "DomainError",
            "message": f"closed-form Q underflows at this drive (a = {a})",
        }

    def test_overflowing_drive_blames_the_closed_form(self, capsys):
        # any warning would turn into an exception and escape main
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["qgrid", "--eps1", "13.5", "--eps2", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "DomainError"
        assert "overflows" in error["message"] and "grid" not in error["message"]


    def test_warning_is_one_json_line(self, capsys):
        # pinned to "always" so that an earlier identical warning in this
        # process cannot hide it
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            code = main(["qgrid", "--grid-n", "16", "--grid-extent", "1.5"])
        assert code == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 16 * 16 + 1
        assert captured.err.endswith("\n") and captured.err.count("\n") == 1
        record = json.loads(captured.err)
        assert list(record) == ["warning", "message"]
        assert record["warning"] == "NormalizationWarning"
        assert "normalization" in record["message"]
        assert ".py" not in captured.err and qgrid.__file__ not in captured.err


class TestVerify:
    def test_all_checks_pass(self, capsys, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--out", str(out)]) == 0
        table = capsys.readouterr().out
        assert "13/13 checks passed" in table
        assert "FAIL" not in table
        # each row's note is printed too: the doubling row names the lab N
        # that the solve used
        rows = {line.split()[0]: line for line in table.splitlines()}
        assert rows["check"].endswith("status  note")
        doubling = rows["oracle_truncation_doubling"]
        assert doubling.endswith("PASS    N 22/44, frame 9/18")
        assert rows["halving_identity"].endswith("PASS")
        results = json.loads(out.read_text())
        assert len(results) == 13
        assert all(r["passed"] for r in results)
        for r in results:
            assert list(r) == ["name", "max_deviation", "tolerance", "passed", "note"]
            assert r["max_deviation"] == float(f"{r['max_deviation']:.9g}")

    @pytest.mark.parametrize("trunc", ("abc", "8.5", "100000"))
    def test_non_integer_truncation_rejected(self, trunc, capsys):
        assert main(["verify", "--trunc", trunc]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "DomainError"

    @pytest.mark.parametrize("tol", ("nan", "-1", "0", "inf"))
    def test_bad_tolerance_rejected(self, tol, capsys):
        # bad input, not an oracle failure: exit 2 before any check runs
        with pytest.raises(DomainError, match="tol must be finite and positive"):
            run_verification(CavityConfig(1.0, 0.3, 0.2), tol=float(tol))
        assert main(["verify", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "DomainError"

    def test_deterministic(self, capsys):
        assert main(["verify"]) == 0
        first = capsys.readouterr().out
        assert main(["verify"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_impossible_truncation_exit_code(self, capsys):
        # b = 0.93: the tail asks 203 levels, beyond the oracle's cap
        assert main(["verify", "--eps2", "0.465"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TruncationError"

    def test_overflowing_drive_is_out_of_reach(self, capsys):
        # a = 4e298: the tail bound compares delta with the cap before
        # squaring it
        argv = ["--kappa", "50", "--eps1", "1e300", "--eps2", "0.49999999999999"]
        assert main(["verify", *argv]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TruncationError"
        assert "exceeds the cap 200" in err["message"]

    @pytest.mark.parametrize(
        "eps1, eps2, cause",
        (
            # a = 40: the frame basis on 8 lab levels underflows to zeros
            ("1e3", "1", "to trace 0 on lab N = 8 levels"),
            # a = 4e298: the frame generator's diagonals overflow
            ("1e300", "5e-324", "overflows the generator on 8 levels"),
        ),
    )
    def test_drive_beyond_an_explicit_truncation_exit_code(
        self, eps1, eps2, cause, capsys
    ):
        # refused before anything divides by the trace or solves, so no
        # RuntimeWarning line precedes the error
        argv = ["--kappa", "50", "--eps1", eps1, "--eps2", eps2, "--trunc", "8"]
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert main(["verify", *argv]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "TruncationError"
        assert cause in record["message"] and "eps1=" in record["message"]

    def test_frame_beyond_the_dense_solve_exit_code(self, capsys, monkeypatch):
        # b = 0.9986 at an explicit lab cutoff asks for n_f = 261 frame
        # levels, beyond the 256 whose block solve fits ARRAY_BYTES_CAP:
        # refused before any frame system is built, with the oracle's exit code
        def refuse(config, dim):
            pytest.fail("the frame system was built")

        monkeypatch.setattr(qsuperpose.fock, "frame_generator", refuse)
        args = ["--trunc", "200", "--kappa", "1", "--eps1", "0.1", "--eps2", "0.4993"]
        assert main(["verify", *args]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TruncationError"
        assert "exceeds the cap 256" in err["message"]

    def test_csv_artifact(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        assert main(["verify", "--format", "csv", "--out", str(out)]) == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 13
        assert {r["passed"] for r in rows} == {"True"}


#: each command and format that writes --out
OUT_COMMANDS = (
    ["report"],
    ["sweep", "--sweep", "eps2:0:0.45:5"],
    ["qgrid", "--grid-n", "16"],
    ["qgrid", "--grid-n", "16", "--format", "json"],
    ["verify"],
)


class TestOutPath:
    """An --out path that cannot be opened or written is invalid input: exit
    2 with one JSON line naming it, not a traceback."""

    @pytest.mark.parametrize("argv", OUT_COMMANDS, ids=" ".join)
    @pytest.mark.parametrize("where", ("missing-directory", "directory"))
    def test_unwritable_path_refused(self, argv, where, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "x.out" if where != "directory" else tmp_path
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "DomainError"
        assert str(out) in record["message"]

    def test_missing_directory_refused_before_verify_runs(
        self, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            pytest.fail("run_verification ran")

        monkeypatch.setattr(verification, "run_verification", refuse)
        out = tmp_path / "no" / "such" / "x.json"
        assert main(["verify", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "DomainError"
        assert not out.parent.exists()

    def test_refused_grid_leaves_no_file(self, tmp_path, capsys):
        # the grid is refused before --out is opened
        out = tmp_path / "grid.csv"
        assert main(["qgrid", "--eps1", "14", "--out", str(out)]) == 2
        assert not out.exists()
        assert json.loads(capsys.readouterr().err)["error"] == "DomainError"


class TestArgumentErrors:
    """argparse's own errors are DomainErrors: exit 2 with one JSON line on
    stderr, like every other invalid input."""

    @pytest.mark.parametrize(
        "argv,message",
        (
            (["report", "--kappa", "abc"], "argument --kappa: invalid float value"),
            (["qgrid", "--grid-n", "1e3"], "argument --grid-n: invalid int value"),
            (["qgrid", "--kind", "husimi"], "argument --kind: invalid choice"),
            (["sweep"], "the following arguments are required: --sweep"),
            ([], "the following arguments are required: command"),
        ),
    )
    def test_one_json_line(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "DomainError"
        assert error["message"].startswith(message)

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["sweep", "--help"])
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qsuperpose sweep")


#: run in a fresh interpreter: which modules do report, qgrid and verify load?
COLD_PATH_SCRIPT = """
import contextlib, io, json, sys
import qsuperpose.cli

def loaded(package):
    return any(m.split(".")[0] == package for m in sys.modules)

codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(qsuperpose.cli.main(["report"]))
    codes.append(qsuperpose.cli.main(["sweep", "--sweep", "eps2:0:0.45:5"]))
    numpy_before_qgrid = loaded("numpy")
    codes.append(qsuperpose.cli.main(["qgrid", "--grid-n", "16"]))
    numpy_after_qgrid = loaded("numpy")
    before_verify = loaded("scipy")
    codes.append(qsuperpose.cli.main(["verify"]))
print(json.dumps({"codes": codes, "numpy_before_qgrid": numpy_before_qgrid,
                  "numpy_after_qgrid": numpy_after_qgrid,
                  "before_verify": before_verify, "after_verify": loaded("scipy")}))
"""

#: the closed-form commands through main, printing each exit code and
#: stdout; the first %s is True to make numpy unimportable beforehand
CLOSED_FORM_SCRIPT = """
import contextlib, io, json, sys
if %s:
    sys.modules["numpy"] = None  # any import of numpy now fails
from qsuperpose.cli import main
runs = []
for argv in %r:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps(runs))
"""

CLOSED_FORM_RUNS = (
    ["report", "--eps1", "0.3", "--eps2", "0.2"],
    ["report", "--eps1", "0.3", "--eps2", "0.2", "--format", "csv"],
    ["sweep", "--sweep", "eps2:0:0.45:5", "--eps1", "0.7"],
    ["sweep", "--sweep", "kappa:2:0.5:4", "--eps2", "0.2", "--format", "json"],
    ["qgrid", "--eps1", "0.3", "--eps2", "0.2", "--grid-n", "17"],
    ["qgrid", "--kind", "squeezed", "--eps2", "0.4", "--grid-n", "16", "--format", "json"],
    # the corner rows underflow to 0.0 and to subnormals
    ["qgrid", "--eps1", "0.3", "--grid-n", "33", "--grid-extent", "40"],
    ["qgrid", "--eps1", "0.3", "--grid-n", "33", "--grid-extent", "40", "--format", "json"],
)

#: the names the package serves lazily, by the module that defines them
LAZY_NAMES = {
    "fock": (
        "DensityMatrix", "expect", "propagate", "steady_state",
        "superposition_oracle",
    ),
    "qfunctions": (
        "QuadratureSpec", "char_fn_antinormal", "q_coherent", "q_from_char_fn",
        "q_squeezed", "q_superposed", "superpose_q_numeric",
    ),
    "qgrid": ("QGrid", "q_grid"),
}


#: the Fock oracle's library calls and every CLI command with scipy made
#: unimportable, verify at each smoke configuration of the CI workflow
NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now fails
import qsuperpose, qsuperpose.cli

config = qsuperpose.CavityConfig(1.0, 0.3, 0.2)
qsuperpose.steady_state(config)
qsuperpose.propagate(config, 1.0)
qsuperpose.superposition_oracle(config)
runs = [["report"], ["qgrid", "--grid-n", "16"]] + [["verify", *args] for args in %r]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [qsuperpose.cli.main(run) for run in runs]
print(json.dumps(codes))
"""

#: the drives of the CI workflow's verify smoke steps
VERIFY_SMOKE = (
    ["--kappa", "1", "--eps1", "0.3", "--eps2", "0.2"],
    ["--kappa", "1", "--eps1", "0.1", "--eps2", "0.4"],
    ["--kappa", "1", "--eps1", "0.1", "--eps2", "0.405"],
    ["--kappa", "1", "--eps1", "0.1", "--eps2", "0.44"],
    ["--kappa", "1", "--eps1", "1.1", "--eps2", "0.445"],
    ["--kappa", "1", "--eps1", "1.1", "--eps2", "0"],
    ["--trunc", "64"],
)


def run_fresh(script: str) -> subprocess.CompletedProcess:
    src = str(Path(qsuperpose.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestColdPath:
    def test_no_command_loads_scipy(self):
        proc = run_fresh(COLD_PATH_SCRIPT)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["codes"] == [0, 0, 0, 0]
        assert result["numpy_before_qgrid"] is False  # report and sweep: no numpy
        assert result["numpy_after_qgrid"] is False  # nor qgrid
        assert result["before_verify"] is False  # report, sweep, qgrid: no scipy
        assert result["after_verify"] is False  # nor verify's Fock oracle

    def test_report_and_sweep_run_without_numpy(self):
        procs = [
            run_fresh(CLOSED_FORM_SCRIPT % (block, CLOSED_FORM_RUNS))
            for block in (True, False)
        ]
        for proc in procs:
            assert proc.returncode == 0, proc.stderr
        without_numpy, with_numpy = (json.loads(proc.stdout) for proc in procs)
        assert [code for code, _ in without_numpy] == [0] * len(CLOSED_FORM_RUNS)
        assert without_numpy == with_numpy

    def test_everything_runs_without_scipy(self):
        proc = run_fresh(NO_SCIPY_SCRIPT % (VERIFY_SMOKE,))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0] * (2 + len(VERIFY_SMOKE))

    def test_verify_leaves_numpy_random_unloaded(self):
        # the frame solve's uniqueness probe is a fixed vector: a full
        # verify never imports numpy.random
        proc = run_fresh(
            "import contextlib, io, sys\n"
            "from qsuperpose.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['verify'])\n"
            "sys.exit(code or 'numpy.random' in sys.modules)"
        )
        assert proc.returncode == 0, proc.stderr

    def test_package_import_loads_no_submodule(self):
        # every public name is served from its home module on first use
        proc = run_fresh(
            "import sys, qsuperpose\n"
            "sys.exit(any(m.startswith('qsuperpose.') for m in sys.modules))"
        )
        assert proc.returncode == 0, proc.stderr

    def test_fock_leaves_qfunctions_unloaded(self):
        proc = run_fresh(
            "import sys, qsuperpose.fock\n"
            "sys.exit('qsuperpose.qfunctions' in sys.modules)"
        )
        assert proc.returncode == 0, proc.stderr

    def test_lazy_oracle_names(self):
        assert qsuperpose.steady_state is qsuperpose.fock.steady_state
        for name in qsuperpose.__all__:
            assert getattr(qsuperpose, name) is not None
        namespace = {}
        exec("from qsuperpose import *", namespace)
        assert set(qsuperpose.__all__) <= set(namespace)
        for module_name, names in LAZY_NAMES.items():
            module = importlib.import_module(f"qsuperpose.{module_name}")
            for name in names:
                assert getattr(qsuperpose, name) is getattr(module, name)
                assert namespace[name] is getattr(module, name)
                assert name in dir(qsuperpose)
        with pytest.raises(AttributeError):
            qsuperpose.no_such_name
