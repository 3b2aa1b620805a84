import argparse
import contextlib
import csv
import dataclasses
import gc
import importlib
import importlib.util
import io
import json
import math
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import cuspspec
from cuspspec import cli, fuchsian, trace_terms
from cuspspec.trace_terms import CuspFamily


# a two-resonance scattering model in the --model file format
SCATTER_MODEL = {"q": 2.0, "phi_half": 1.0, "trace_c_half": 1.0,
                 "resonances": [{"re": -0.3, "im": 1.0, "order": 1},
                                {"re": -0.3, "im": -1.0, "order": 1}]}
# --model and --config file contents behind the "{...}" placeholders of
# TestErrorChannel.test_bad_input_refused
INPUT_FILES = {"{model}": json.dumps(SCATTER_MODEL),
               "{model-missing-key}": json.dumps({"q": 2.0}),
               "{model-array}": "[1]",
               "{config-not-object}": "[1]",
               "{config-null-t-max}": json.dumps({"t_max": None}),
               "{config-list-max-length}": json.dumps({"max_length": [1, 2]}),
               "{config-misspelt-key}": json.dumps({"eps_trunk": 0.5}),
               "{config-repeated-pinch-index}": json.dumps(
                   {"pinch_index": [0, 0]}),
               "{config-empty-pinch-index}": json.dumps({"pinch_index": []}),
               # lists one item past the bound, too long for one argv
               # string (128 KB)
               "{config-long-t}": json.dumps(
                   {"t": ",".join(["1"] * (cli.MAX_ELL_NUM + 1))}),
               "{config-long-ell-grid}": json.dumps({"ell_grid": ",".join(
                   "%.6f" % (k * 1e-6)
                   for k in range(cli.MAX_ELL_NUM + 1, 0, -1))}),
               "{config-help}": json.dumps({"help": True}),
               "{config-format-xml}": json.dumps({"format": "xml"}),
               "{model-order-0}": json.dumps(
                   {"q": 2.0, "resonances": [
                       {"re": -0.3, "im": 0.0, "order": 0}]}),
               "{model-far-resonance}": json.dumps(
                   {"q": 2.0, "resonances": [
                       {"re": -1e160, "im": im, "order": 1}
                       for im in (1.0, -1.0)]})}


# `python -m cuspspec.cli ARGV` through runpy, with an atexit hook
# registered before the import: hooks run last-registered first, so it
# runs after cli's own and reports the frozen count as stderr's last line
FROZEN_PROBE = """
import atexit, gc, os, runpy
atexit.register(lambda: os.write(2, b"frozen %d" % gc.get_freeze_count()))
runpy.run_module("cuspspec.cli", run_name="__main__", alter_sys=True)
"""
# run one command in process and list the modules it imported beyond
# numpy's own (numpy 2 loads numpy.fft and numpy.polynomial on first use)
IMPORT_PROBE = """
import contextlib, io, json, sys
import numpy
base = set(sys.modules)
from cuspspec import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        rc = cli.main(sys.argv[1:])
    except SystemExit as exc:
        rc = exc.code
print(json.dumps([rc, sorted(set(sys.modules) - base)]))
"""


# run one command in process; print its exit code, the cuspspec modules
# whose source has run by its end and those run when the walk starts (a
# lazily loaded module keeps the loader's class until its source runs)
RUN_PROBE = """
import contextlib, io, json, sys, types
from cuspspec import cli
def run():
    return sorted(n for n, m in sys.modules.items()
                  if n.startswith("cuspspec.") and type(m) is types.ModuleType)
at_walk = []
def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "enumerate_length_spectrum":
        at_walk.append(run())
sys.setprofile(profile)
with contextlib.redirect_stdout(io.StringIO()):
    try:
        rc = cli.main(sys.argv[1:])
    except SystemExit as exc:
        rc = exc.code
sys.setprofile(None)
print(json.dumps([rc, run(), at_walk]))
"""


def run_cli(*argv):
    # a hung command fails the test instead of stalling the suite
    return subprocess.run(
        [sys.executable, "-m", "cuspspec.cli", *argv],
        capture_output=True, text=True, timeout=120)


def csv_records(stdout):
    """The data rows of a CSV output, keyed by the column line."""
    return list(csv.DictReader(
        ln for ln in stdout.splitlines() if not ln.startswith("#")))


class TestSpectrumCommand:
    def test_first_length(self):
        out = run_cli("spectrum", "--group", "thrice-punctured-sphere",
                      "--max-length", "6")
        assert out.returncode == 0
        data = [ln for ln in out.stdout.splitlines()
                if ln and not ln.startswith("#")]
        assert data[0] == "length,mult,pinched"
        first = float(data[1].split(",")[0])
        assert abs(first - 3.5254943) < 1e-6

    def test_csv_round_trips(self):
        out = run_cli("spectrum", "--group", "thrice-punctured-sphere",
                      "--max-length", "6")
        first = csv_records(out.stdout)[0]
        assert abs(float(first["length"]) - 2.0 * math.acosh(3.0)) < 1e-12
        assert first["mult"] == "6" and first["pinched"] == "0"

    def test_json_format_round_trips(self):
        out = run_cli("spectrum", "--group", "thrice-punctured-sphere",
                      "--max-length", "6", "--format", "json")
        obj = json.loads(out.stdout)
        assert abs(obj["entries"][0]["length"]
                   - 2.0 * math.acosh(3.0)) < 1e-12
        spec = fuchsian.enumerate_length_spectrum(
            fuchsian.builtin_group("thrice-punctured-sphere"), 6.0)
        assert list(obj) == ["surface", "cutoff", "entries", "word_radius"]
        assert obj == json.loads(json.dumps(dataclasses.asdict(spec)))

    def test_deterministic_byte_identical(self):
        a = run_cli("spectrum", "--group", "thrice-punctured-sphere",
                    "--max-length", "7")
        b = run_cli("spectrum", "--group", "thrice-punctured-sphere",
                    "--max-length", "7")
        assert a.stdout == b.stdout

    def test_provenance_header_lists_defaults(self):
        out = run_cli("spectrum", "--group", "thrice-punctured-sphere",
                      "--max-length", "6")
        comments = [ln for ln in out.stdout.splitlines()
                    if ln.startswith("#")]
        joined = "\n".join(comments)
        assert "merge_tolerance" in joined and "word_radius" in joined


class TestTraceCommand:
    def test_columns_and_values(self):
        out = run_cli("trace", "--group", "thrice-punctured-sphere",
                      "--max-length", "8", "--t", "0.5,1")
        assert out.returncode == 0
        data = [ln for ln in out.stdout.splitlines()
                if ln and not ln.startswith("#")]
        header = data[0].split(",")
        assert header == ["t", "identity", "hyperbolic", "parabolic",
                          "cusp_start", "relative_trace"]
        row = [float(x) for x in data[1].split(",")]
        assert abs(sum(row[1:5]) - row[5]) < 1e-12


    def test_relative_trace_is_relative_heat_trace(self):
        out = run_cli("trace", "--group", "thrice-punctured-sphere",
                      "--max-length", "8", "--t", "1e-8,0.5,30",
                      "--cusp-starts", "2,1.5,3.3")
        assert out.returncode == 0
        group = fuchsian.builtin_group("thrice-punctured-sphere")
        spec = fuchsian.enumerate_length_spectrum(group, 8.0)
        ts = np.array([1e-8, 0.5, 30.0])
        theta = trace_terms.relative_heat_trace(
            spec, CuspFamily((2.0, 1.5, 3.3)), ts)
        # 17 significant digits print every double exactly
        assert [float(r["relative_trace"])
                for r in csv_records(out.stdout)] == list(theta)

    def test_row_independent_of_the_t_list(self):
        # every column at a t is computed from that t alone
        rows = []
        for ts in ("2", "1,2,8"):
            out = run_cli("trace", "--group", "once-punctured-torus(3.47)",
                          "--max-length", "12", "--t", ts)
            assert out.returncode == 0
            rows.append([r for r in csv_records(out.stdout)
                         if r["t"] == "2"])
        assert len(rows[0]) == 1 and rows[0] == rows[1]


class TestDetCommand:
    def test_positive_determinant(self):
        out = run_cli("det", "--group", "thrice-punctured-sphere",
                      "--cutoff", "12", "--t-max", "8")
        assert out.returncode == 0
        obj = json.loads(out.stdout)
        assert obj["determinant"] > 0.0
        assert abs(obj["determinant"] - math.exp(-obj["zeta_prime_zero"])) \
            < 1e-10 * obj["determinant"]

    @pytest.mark.parametrize("group, cusps", [
        ("thrice-punctured-sphere", 3), ("once-punctured-torus(3.47)", 1)])
    def test_det_hyp_is_closed_form(self, group, cusps):
        # determinant/det_hyp = e^{-m c} = 2^{3m/2} with the per-cusp
        # constant c = -(3/2) log 2; the ratio of the printed doubles is
        # taken exactly, so r^2/2^{3m} - 1 is twice its relative error
        out = run_cli("det", "--group", group, "--cutoff", "8",
                      "--t-max", "4")
        assert out.returncode == 0
        obj = json.loads(out.stdout)
        r = Fraction(obj["determinant"]) / Fraction(obj["det_hyp"])
        assert float(abs(r * r / 2 ** (3 * cusps) - 1)) / 2 <= 4e-16

    def test_truncation_refused(self):
        out = run_cli("det", "--group", "thrice-punctured-sphere",
                      "--cutoff", "6", "--t-max", "50")
        assert out.returncode == 2
        err = json.loads(out.stderr)
        assert err["error"] == "TruncationError"

    def test_truncation_refused_before_the_walk(self, monkeypatch, capsys):
        def walk(*args):
            raise AssertionError("the length spectrum was enumerated")

        monkeypatch.setattr(fuchsian, "enumerate_length_spectrum", walk)
        rc = cli.main(["det", "--group", "thrice-punctured-sphere",
                       "--cutoff", "6", "--t-max", "50"])
        err = json.loads(capsys.readouterr().err)
        assert (rc, err["error"]) == (2, "TruncationError")
        assert "a cutoff of at least 28 is required" in err["message"]

    @pytest.mark.parametrize("t_max", ["inf", "nan", "1", "-1"])
    def test_engine_window_refused_before_the_walk(self, t_max, monkeypatch,
                                                   capsys):
        def walk(*args):
            raise AssertionError("the length spectrum was enumerated")

        monkeypatch.setattr(fuchsian, "enumerate_length_spectrum", walk)
        rc = cli.main(["det", "--group", "thrice-punctured-sphere",
                       "--cutoff", "12", "--t-max", t_max])
        err = json.loads(capsys.readouterr().err)
        assert (rc, err["error"]) == (2, "DomainError")
        assert err["message"] == "t_max must be finite and >= 1 + 1e-09"

    @pytest.mark.parametrize("argv, cusps", [
        (["det", "--group", "thrice-punctured-sphere", "--cutoff", "14",
          "--t-max", "8", "--cusp-starts", "1,1"], 3),
        (["trace", "--group", "once-punctured-torus(3.5)", "--max-length",
          "6", "--t", "1", "--cusp-starts", "1,1"], 1),
    ])
    def test_cusp_count_refused_before_the_walk(self, argv, cusps,
                                                monkeypatch, capsys):
        def walk(*args):
            raise AssertionError("the length spectrum was enumerated")

        monkeypatch.setattr(fuchsian, "enumerate_length_spectrum", walk)
        rc = cli.main(argv)
        err = json.loads(capsys.readouterr().err)
        assert (rc, err["error"]) == (2, "DomainError")
        assert err["message"] == ("2 cut heights for a surface with %d cusps"
                                  % cusps)


class TestScatterCheckCommand:
    def test_residuals(self, tmp_path):
        p = tmp_path / "model.json"
        p.write_text(json.dumps(SCATTER_MODEL))
        out = run_cli("scatter-check", "--model", str(p),
                      "--t", "0.5,1,2")
        assert out.returncode == 0
        data = [ln for ln in out.stdout.splitlines()
                if ln and not ln.startswith("#")]
        resid = [float(ln.split(",")[3]) for ln in data[1:]]
        assert max(resid) <= 1e-6

    def test_vanished_integral_is_positive_zero(self, tmp_path):
        # at t = 3000 both sides underflow to zero; a "-0" cell would
        # read as a sign the integral does not have
        p = tmp_path / "model.json"
        p.write_text(json.dumps(
            {"q": 3.0, "resonances": [{"re": -0.3, "im": 1.0, "order": 1},
                                      {"re": -0.3, "im": -1.0, "order": 1},
                                      {"re": -0.7, "im": 0.0, "order": 2}]}))
        out = run_cli("scatter-check", "--model", str(p), "--t", "3000")
        assert out.returncode == 0
        assert out.stdout.splitlines()[-1] == "3000,0,0,0"


class TestPinchSweepCommand:
    def test_csv_round_trips(self):
        out = run_cli("pinch-sweep", "--group", "thrice-punctured-sphere",
                      "--cutoff", "6", "--ell-num", "4")
        assert out.returncode == 0
        rows = csv_records(out.stdout)
        assert len(rows) == 4
        ests = [float(r["log_det_estimate"]) for r in rows]
        assert all(b < a for a, b in zip(ests, ests[1:]))

    def test_csv_layout(self):
        out = run_cli("pinch-sweep", "--group", "thrice-punctured-sphere",
                      "--cutoff", "6", "--ell-grid", "0.1,0.05")
        lines = out.stdout.strip().split("\n")
        comments = [ln for ln in lines if ln.startswith("# ")]
        assert lines[:len(comments)] == comments
        assert "# command: pinch-sweep" in comments
        data = lines[len(comments):]
        assert data[0] == ("ell,wolpert_sum,wolpert_asymptotic,"
                           "small_eig_logsum,log_det_estimate,baseline")
        assert len(data) == 3
        assert float(data[1].split(",")[0]) == 0.1

    def test_tiny_ell_in_closed_form(self):
        # about 1/ell terms of the Wolpert series would never finish here
        out = run_cli("pinch-sweep", "--group", "thrice-punctured-sphere",
                      "--cutoff", "6", "--ell-grid", "1e-12")
        assert out.returncode == 0
        (row,) = csv_records(out.stdout)
        assert all(math.isfinite(float(v)) for v in row.values())


class TestSelfcheck:
    def test_passes(self):
        out = run_cli("selfcheck")
        assert out.returncode == 0
        assert [ln.rsplit(None, 1) for ln in out.stdout.splitlines()] == [
            [name, "pass"] for name in (
                "quadrature: gaussian integral",
                "bessel K half-integer closed form",
                "cusp trace quadrature oracle",
                "dtn symbol limit at s=1",
                "scattering identity",
                "zeta engine two-eigenvalue oracle",
                "wolpert asymptotic agreement")]

    def test_failing_check_fails_the_run(self, monkeypatch, capsys):
        # a check that raises reads FAIL on its own line, and the run
        # exits as a numeric failure
        def fail(ell):
            raise ArithmeticError("made to fail")

        monkeypatch.setattr(cli.degeneration, "wolpert_asymptotic", fail)
        rc = cli.main(["selfcheck"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 3
        assert [ln.rsplit(None, 1)[1] for ln in lines] == ["pass"] * 6 + [
            "FAIL"]
        assert lines[-1].startswith("wolpert asymptotic agreement ")


class TestConfigAndEnvironment:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max-length": 6.0, "word-radius": 6}))
        out = run_cli("--config", str(cfg), "spectrum",
                      "--group", "thrice-punctured-sphere")
        assert out.returncode == 0
        assert "3.5254943" in out.stdout

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max-length": 6.0}))
        out = run_cli("--config", str(cfg), "spectrum",
                      "--group", "thrice-punctured-sphere",
                      "--max-length", "4")
        data = [ln for ln in out.stdout.splitlines()
                if ln and not ln.startswith("#")]
        assert len(data) == 2  # header plus the systole only

    def test_config_equals_form(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps_trunc": 0.5}))
        argv = ["det", "--group", "thrice-punctured-sphere", "--cutoff", "6",
                "--t-max", "4"]
        spaced = run_cli("--config", str(cfg), *argv)
        joined = run_cli("--config=%s" % cfg, *argv)
        # the default eps_trunc of 0.02 refuses t_max 4 at cutoff 6
        assert run_cli(*argv).returncode == 2
        assert spaced.returncode == joined.returncode == 0
        assert spaced.stdout == joined.stdout

    def test_flags_replace_config_list(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pinch_index": 0}))
        argv = ["--config", str(cfg), "pinch-sweep", "--group",
                "thrice-punctured-sphere", "--cutoff", "6", "--ell-num", "2"]
        for flags, indices in (([], "0"), (["--pinch-index", "1"], "1"),
                               (["--pinch-index", "1", "--pinch-index", "2"],
                                "1,2")):
            out = run_cli(*argv, *flags)
            assert out.returncode == 0
            assert "# pinch_indices: %s\n" % indices in out.stdout

    def test_config_keyed_by_option_name(self, tmp_path):
        # det's --cutoff has the destination max_length; either key works,
        # and a key of another subcommand (spectrum's format) is accepted
        argv = ["det", "--group", "thrice-punctured-sphere", "--t-max", "2"]
        outs = []
        for key in ("cutoff", "max_length", "max-length"):
            cfg = tmp_path / ("%s.json" % key)
            cfg.write_text(json.dumps({key: 6, "format": "json"}))
            outs.append(run_cli("--config", str(cfg), *argv))
        ref = run_cli(*argv, "--cutoff", "6")
        assert ref.returncode == 0
        assert all(o.returncode == 0 and o.stdout == ref.stdout for o in outs)

    def test_config_value_read_through_option_type(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_max": None}))
        out = run_cli("--config", str(cfg), "det", "--group",
                      "thrice-punctured-sphere", "--cutoff", "6")
        assert out.returncode == 2
        assert json.loads(out.stderr)["message"] == (
            "--config value for t_max: invalid float value 'null'")

    def test_missing_config_is_io_error(self):
        out = run_cli("--config", "/nonexistent/cfg.json", "selfcheck")
        assert out.returncode == 4

    def test_non_utf8_config_is_io_error(self, tmp_path):
        # JSON text is UTF-8: a file that does not decode is not JSON
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'\xff\xfe{"t_max": 1}')
        out = run_cli("--config", str(cfg), "selfcheck")
        assert out.returncode == 4
        assert json.loads(out.stderr)["error"] == "UnicodeDecodeError"
        assert out.stdout == ""

    @pytest.mark.parametrize("content, error", [
        (None, "FileNotFoundError"), (b"not json", "JSONDecodeError"),
        (b'\xff\xfe{"q": 2}', "UnicodeDecodeError")],
        ids=["missing", "not-json", "not-utf8"])
    def test_unreadable_model_is_io_error(self, content, error, tmp_path):
        # a --model file is read as a --config file is
        model = tmp_path / "model.json"
        if content is not None:
            model.write_bytes(content)
        out = run_cli("scatter-check", "--model", str(model), "--t", "1")
        assert out.returncode == 4
        assert json.loads(out.stderr)["error"] == error
        assert out.stdout == ""


class TestErrorChannel:
    def test_unknown_group(self):
        out = run_cli("spectrum", "--group", "nope", "--max-length", "5")
        assert out.returncode == 2
        err = json.loads(out.stderr)
        assert err["error"] == "UnknownGroupError"
        assert "nope" in err["message"]

    def test_trace_nan_t_refused(self):
        out = run_cli("trace", "--group", "thrice-punctured-sphere",
                      "--max-length", "6", "--t", "0.5,nan")
        assert out.returncode == 2
        assert json.loads(out.stderr)["error"] == "DomainError"

    @pytest.mark.parametrize("argv, message", [
        *((["trace", "--max-length", "16", "--t", ts],
           "--t requires a nonempty t with finite values > 0")
          for ts in ("nan", "0,1")),
        *((["pinch-sweep", "--cutoff", "16", *flags],
           "ell grid must be decreasing")
          for flags in (["--ell-grid", "0.1,0.2"], ["--ell-grid", "0.1,0.1"],
                        ["--ell-start", "0.1", "--ell-stop", "0.1",
                         "--ell-num", "2"])),
    ])
    def test_refused_before_the_walk(self, argv, message, monkeypatch,
                                     capsys):
        # --t with the trace terms' own rule, and the ell grid with
        # pinch_sweep's
        def walk(*args):
            raise AssertionError("the length spectrum was enumerated")

        monkeypatch.setattr(fuchsian, "enumerate_length_spectrum", walk)
        rc = cli.main([*argv, "--group", "thrice-punctured-sphere"])
        err = json.loads(capsys.readouterr().err)
        assert (rc, err["error"], err["message"]) == (2, "DomainError",
                                                      message)

    def test_trace_infinite_t_refused(self):
        out = run_cli("trace", "--group", "thrice-punctured-sphere",
                      "--max-length", "6", "--t", "inf")
        assert out.returncode == 2
        assert json.loads(out.stderr)["error"] == "DomainError"

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--group", "thrice-punctured-sphere",
         "--max-length", "nan"],
        ["spectrum", "--group", "thrice-punctured-sphere",
         "--max-length", "inf"],
        ["det", "--group", "thrice-punctured-sphere", "--cutoff", "nan",
         "--t-max", "8"],
        ["spectrum", "--group", "once-punctured-torus(nan)",
         "--max-length", "6"],
        ["spectrum", "--group", "once-punctured-torus(inf)",
         "--max-length", "6"],
        ["det", "--group", "thrice-punctured-sphere", "--cutoff", "6",
         "--t-max", "2", "--eps-trunc", "0"],
        ["det", "--group", "thrice-punctured-sphere", "--cutoff", "6",
         "--t-max", "2", "--eps-trunc", "1"],
        ["det", "--group", "thrice-punctured-sphere", "--cutoff", "6",
         "--t-max", "2", "--eps-trunc", "2"],
        ["det", "--group", "thrice-punctured-sphere", "--cutoff", "6",
         "--t-max", "2", "--eps-trunc", "nan"],
        ["pinch-sweep", "--group", "thrice-punctured-sphere",
         "--cutoff", "6", "--ell-num", "0"],
        ["pinch-sweep", "--group", "thrice-punctured-sphere",
         "--cutoff", "6", "--ell-grid", ","],
        ["pinch-sweep", "--group", "thrice-punctured-sphere",
         "--cutoff", "6", "--ell-grid", "1e-200"],
        ["pinch-sweep", "--group", "thrice-punctured-sphere",
         "--cutoff", "6", "--ell-num", "-1"],
        ["pinch-sweep", "--group", "thrice-punctured-sphere",
         "--cutoff", "6", "--ell-start", "0"],
        ["pinch-sweep", "--group", "thrice-punctured-sphere",
         "--cutoff", "6", "--ell-start", "-0.1"],
        ["pinch-sweep", "--group", "thrice-punctured-sphere",
         "--cutoff", "6", "--ell-stop", "inf"],
        ["pinch-sweep", "--group", "thrice-punctured-sphere",
         "--cutoff", "6", "--ell-grid", "nan"],
        ["pinch-sweep", "--group", "thrice-punctured-sphere",
         "--cutoff", "6", "--ell-grid", "0.1,abc"],
        ["trace", "--group", "thrice-punctured-sphere", "--max-length", "6",
         "--t", "1,x"],
        ["trace", "--group", "thrice-punctured-sphere", "--max-length", "6",
         "--t", "1", "--cusp-starts", "nan,1,1"],
        ["trace", "--group", "thrice-punctured-sphere", "--max-length", "6",
         "--t", "1", "--cusp-starts", "2"],
        ["det", "--group", "thrice-punctured-sphere", "--cutoff", "6",
         "--t-max", "2", "--cusp-starts", "1,1,inf"],
        ["scatter-check", "--model", "{model}", "--t", ","],
        ["scatter-check", "--model", "{model}", "--t", "nan"],
        ["scatter-check", "--model", "{model-missing-key}", "--t", "1"],
        ["scatter-check", "--model", "{model-array}", "--t", "1"],
        # values argparse itself refuses
        ["spectrum", "--group", "thrice-punctured-sphere",
         "--max-length", "6", "--word-radius", "abc"],
        ["spectrum", "--group", "thrice-punctured-sphere",
         "--max-length", "6", "--word-radius", "1e3"],
        ["det", "--group", "thrice-punctured-sphere", "--cutoff", "6",
         "--t-max", "abc"],
        ["spectrum", "--max-length", "6"],
        ["no-such-command"],
        # t refused before any term is evaluated, with no numpy warning
        ["trace", "--group", "thrice-punctured-sphere", "--max-length", "6",
         "--t=-1,1"],
        ["trace", "--group", "thrice-punctured-sphere", "--max-length", "6",
         "--t", "0,1"],
        ["--config", "{config-not-object}", "selfcheck"],
        ["--config", "{config-null-t-max}", "det", "--group",
         "thrice-punctured-sphere", "--cutoff", "6"],
        ["--config", "{config-list-max-length}", "spectrum", "--group",
         "thrice-punctured-sphere"],
        ["selfcheck", "--config"],
        # z - 2 is about 4 / tau^2, while the walk rounds the commutator
        # trace by about eps tau^4
        *(["spectrum", "--group", "once-punctured-torus(%s)" % tau,
           "--max-length", "6"] for tau in ("1e4", "1e5", "1e9", "1e30",
                                             "1e200")),
        ["--config", "{config-misspelt-key}", "det", "--group",
         "thrice-punctured-sphere", "--cutoff", "6", "--t-max", "4"],
        ["det", "--group", "thrice-punctured-sphere", "--cutoff", "6",
         "--t-max", "1"],
        ["pinch-sweep", "--group", "thrice-punctured-sphere",
         "--cutoff", "6", "--ell-num", "100001"],
        *(["pinch-sweep", "--group", "thrice-punctured-sphere",
           "--cutoff", "6", "--baseline", b] for b in ("nan", "inf")),
        # resonances past erfcx's range, and an ell whose ell^2 is not a
        # normal double
        ["scatter-check", "--model", "{model-far-resonance}", "--t", "1"],
        ["pinch-sweep", "--group", "thrice-punctured-sphere",
         "--cutoff", "6", "--ell-grid", "1e-160"],
        ["pinch-sweep", "--group", "thrice-punctured-sphere",
         "--cutoff", "6", "--ell-grid", "1e300"],
        ["pinch-sweep", "--group", "thrice-punctured-sphere",
         "--cutoff", "6", "--ell-start", "1e200"],
        # a geodesic pinched twice, and a subnormal truncation tolerance,
        # whose 1/eps_trunc overflows
        ["pinch-sweep", "--group", "thrice-punctured-sphere",
         "--cutoff", "6", "--pinch-index", "0", "--pinch-index", "0"],
        ["--config", "{config-repeated-pinch-index}", "pinch-sweep",
         "--group", "thrice-punctured-sphere", "--cutoff", "6"],
        ["det", "--group", "thrice-punctured-sphere", "--cutoff", "12",
         "--t-max", "8", "--eps-trunc", "1e-320"],
        ["--config", "{config-long-t}", "trace", "--group",
         "thrice-punctured-sphere", "--max-length", "6"],
        ["--config", "{config-long-ell-grid}", "pinch-sweep", "--group",
         "thrice-punctured-sphere", "--cutoff", "6"],
        # -h takes no default, so "help" names no option
        ["--config", "{config-help}", "selfcheck"],
        # a --config value outside the option's choices, and a resonance
        # of order 0
        ["--config", "{config-format-xml}", "spectrum", "--group",
         "thrice-punctured-sphere", "--max-length", "6"],
        ["scatter-check", "--model", "{model-order-0}", "--t", "1"],
        # t-max values the engine refuses, refused before the walk with
        # its message, ahead of an unknown group
        *(["det", "--group", "thrice-punctured-sphere", "--cutoff", cutoff,
           "--t-max", t_max] for cutoff, t_max in (
               ("12", "inf"), ("14", "nan"), ("14", "1"))),
        ["det", "--group", "nope", "--cutoff", "14", "--t-max", "nan"],
        # an empty list of pinch indices, as an empty --t or --ell-grid
        ["--config", "{config-empty-pinch-index}", "pinch-sweep", "--group",
         "thrice-punctured-sphere", "--cutoff", "6"],
    ])
    def test_bad_input_refused(self, argv, tmp_path):
        # a "{...}" argument stands for a file holding INPUT_FILES[argument]
        def arg(a):
            if a not in INPUT_FILES:
                return a
            path = tmp_path / "input.json"
            path.write_text(INPUT_FILES[a])
            return str(path)
        out = run_cli(*map(arg, argv))
        assert out.returncode == 2
        assert json.loads(out.stderr)["error"] == "DomainError"
        assert out.stdout == ""

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--group", "thrice-punctured-sphere",
         "--max-length", "6", "--word-radius", "1200"],
        ["spectrum", "--group", "thrice-punctured-sphere",
         "--max-length", "6", "--word-radius", "100000000"],
        ["det", "--group", "thrice-punctured-sphere", "--cutoff", "6",
         "--t-max", "2", "--word-radius", "5000"],
    ])
    def test_word_radius_past_budget_refused(self, argv):
        out = run_cli(*argv)
        assert out.returncode == 3
        assert json.loads(out.stderr)["error"] == "BudgetExceededError"
        assert out.stdout == ""

    def test_huge_cut_heights_refused(self):
        # each cut height a moves zeta'(0) by -(log a)/2, so the
        # determinant exp(-zeta'(0)) is past the largest double
        out = run_cli("det", "--group", "thrice-punctured-sphere",
                      "--cutoff", "12", "--t-max", "8",
                      "--cusp-starts", "1e300,1e300,1e300")
        assert out.returncode == 3
        assert json.loads(out.stderr)["error"] == "OverflowRangeError"
        assert out.stdout == ""

    @pytest.mark.parametrize("tau", [3.47, 40.0, 400.0])
    def test_torus_trace_accepted(self, tau):
        # the short curve of trace z has length 2 acosh(z / 2), with z
        # from the cancellation-free form 4 / (1 + sqrt(1 - 8 / tau^2))
        out = run_cli("spectrum", "--group", "once-punctured-torus(%r)" % tau,
                      "--max-length", "6", "--word-radius", "4")
        assert out.returncode == 0 and out.stderr == ""
        z = 4.0 / (1.0 + math.sqrt(1.0 - 8.0 / tau ** 2))
        short = 2.0 * math.acosh(z / 2.0)
        assert any(abs(float(r["length"]) / short - 1.0) < 1e-6
                   and r["mult"] == "2" for r in csv_records(out.stdout))

    def test_det_nan_t_max_refused(self):
        out = run_cli("det", "--group", "thrice-punctured-sphere",
                      "--cutoff", "6", "--t-max", "nan")
        assert out.returncode == 2
        assert json.loads(out.stderr)["error"] == "DomainError"

    def test_help_is_not_an_error(self):
        out = run_cli("--help")
        assert out.returncode == 0
        assert out.stdout.startswith("usage: cuspspec")
        assert out.stderr == ""

    def test_output_path_failure(self):
        out = run_cli("spectrum", "--group", "thrice-punctured-sphere",
                      "--max-length", "5", "--out", "/nonexistent/dir/x.csv")
        assert out.returncode == 4

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--group", "thrice-punctured-sphere",
         "--max-length", "8"],
        ["spectrum", "--group", "thrice-punctured-sphere",
         "--max-length", "8", "--format", "json"],
        ["det", "--group", "thrice-punctured-sphere", "--cutoff", "8",
         "--t-max", "4"],
    ])
    def test_output_path_written(self, argv, tmp_path):
        # --out FILE holds the bytes the command prints to stdout
        path = tmp_path / "out"
        out = run_cli(*argv, "--out", str(path))
        assert (out.returncode, out.stdout, out.stderr) == (0, "", "")
        assert path.read_bytes() == run_cli(*argv).stdout.encode()

    @pytest.mark.parametrize("flags", [[], ["-W", "error"]])
    @pytest.mark.parametrize("t_max", ["1e153", "1e155"])
    def test_huge_t_max_refused_cleanly(self, flags, t_max):
        # a t-max whose tail fit would square samples past the largest
        # double is refused by the window check, before the walk; below
        # it the flat fit is refused with its decay, which reads 0, not -0
        out = subprocess.run(
            [sys.executable, *flags, "-m", "cuspspec.cli", "det", "--group",
             "thrice-punctured-sphere", "--cutoff", "1e200", "--t-max", t_max,
             "--word-radius", "3"],
            capture_output=True, text=True, timeout=120)
        assert out.returncode in (2, 3) and out.stdout == ""
        err = json.loads(out.stderr)
        assert err["error"] in ("DomainError", "TailFitError")
        assert "-0" not in err["message"]


class TestProcessExit:
    ARGVS = [
        (["--help"], 0, None),
        (["trace", "--group", "thrice-punctured-sphere", "--max-length", "6",
          "--t", "nan"], 2, "DomainError"),
        (["spectrum", "--group", "thrice-punctured-sphere",
          "--max-length", "6"], 0, None),
    ]

    @pytest.mark.parametrize("argv,code,error", ARGVS)
    def test_fresh_process_frozen_before_teardown(self, argv, code, error):
        out = subprocess.run([sys.executable, "-c", FROZEN_PROBE, *argv],
                             capture_output=True, text=True, timeout=120)
        stderr, _, frozen = out.stderr.rpartition("frozen ")
        # the heap the imports built, not a handful of objects
        assert int(frozen) > 10_000
        plain = run_cli(*argv)
        assert (out.returncode, out.stdout, stderr) == (
            plain.returncode, plain.stdout, plain.stderr)
        assert out.returncode == code
        if error is None:
            assert stderr == ""
        else:
            assert json.loads(stderr)["error"] == error

    def test_in_process_main_leaves_gc_alone(self, capsys):
        before = gc.get_freeze_count(), gc.isenabled()
        for argv, code, _ in self.ARGVS:
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            assert rc == code
            assert (gc.get_freeze_count(), gc.isenabled()) == before

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["spectrum", "--group", "thrice-punctured-sphere",
         "--max-length", "6"],
        ["pinch-sweep", "--group", "thrice-punctured-sphere",
         "--cutoff", "6", "--ell-num", "20"],
    ])
    def test_commands_without_erfcx_skip_its_set_up(self, argv):
        # neither numpy.fft (erfcx's table is literal) nor
        # numpy.polynomial is needed; every layer is still in sys.modules,
        # for the benchmark shim to wrap
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv],
                             capture_output=True, text=True, timeout=120)
        rc, modules = json.loads(out.stdout.splitlines()[-1])
        assert rc == 0
        assert "numpy.fft" not in modules
        assert "numpy.polynomial" not in modules
        assert {"cuspspec." + m.name for m in pkgutil.iter_modules(
            cuspspec.__path__)} <= set(modules)

    @pytest.mark.parametrize("argv", [
        ["det", "--group", "thrice-punctured-sphere", "--cutoff", "6",
         "--t-max", "2"],
        ["trace", "--group", "thrice-punctured-sphere", "--max-length", "6",
         "--t", "1e-8,0.5,2"],
        ["scatter-check", "--model", "{model}", "--t", "0.5,1,2"],
        ["selfcheck"],
    ])
    def test_erfcx_commands_import_no_fft(self, argv, tmp_path):
        # these run erfcx (P(t) or the scattering sum) on its literal
        # Weideman table
        model = tmp_path / "model.json"
        model.write_text(INPUT_FILES["{model}"])
        argv = [str(model) if a == "{model}" else a for a in argv]
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv],
                             capture_output=True, text=True, timeout=120)
        rc, modules = json.loads(out.stdout.splitlines()[-1])
        assert rc == 0
        assert "numpy.fft" not in modules

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs Linux /proc/self/task")
    @pytest.mark.parametrize("preset,value", [(None, "1"), ("2", "2")])
    def test_one_blas_thread(self, preset, value):
        # importing the CLI sets OPENBLAS_NUM_THREADS=1 before numpy
        # loads, unless the caller set it, so OpenBLAS starts no worker;
        # numpy loads on first use, here after the CLI's import
        probe = ("import os, cuspspec.cli; cuspspec.cli.np.zeros; "
                 "print(len(os.listdir('/proc/self/task')), "
                 "os.environ['OPENBLAS_NUM_THREADS'])")
        env = dict(os.environ)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, timeout=120)
        tasks, seen = out.stdout.split()
        assert seen == value
        if preset is None:
            assert tasks == "1"


class TestLayersRun:
    """Each command runs (compiles) only the layers it lists, and a bare
    import of the CLI runs none; every layer is still in sys.modules."""

    SPHERE = ["--group", "thrice-punctured-sphere"]

    @staticmethod
    def probe(*argv):
        out = subprocess.run([sys.executable, "-c", RUN_PROBE, *argv],
                             capture_output=True, text=True, timeout=120)
        rc, run, at_walk = json.loads(out.stdout.splitlines()[-1])
        return rc, set(run) - {"cuspspec.cli"}, at_walk

    COMMANDS = [
        (["--help"], set()),
        (["spectrum", *SPHERE, "--max-length", "6"], {"fuchsian"}),
        (["trace", *SPHERE, "--max-length", "6", "--t", "0.5"],
         {"specfun", "fuchsian", "trace_terms"}),
        (["det", *SPHERE, "--cutoff", "6", "--t-max", "2"],
         {"specfun", "fuchsian", "trace_terms", "zeta_engine"}),
        # zeta_engine binds specfun and trace_terms as modules and reaches
        # them only inside the Mellin engine, which pinch-sweep never calls
        (["pinch-sweep", *SPHERE, "--cutoff", "6", "--ell-num", "3"],
         {"fuchsian", "zeta_engine", "degeneration"}),
        (["scatter-check", "--model", "{model}", "--t", "1"],
         {"specfun", "cusp_model"}),
        (["selfcheck"], {"specfun", "cusp_model", "trace_terms",
                         "zeta_engine", "degeneration"}),
    ]

    @pytest.mark.parametrize("argv,layers", COMMANDS)
    def test_command_runs_only_its_layers(self, argv, layers, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(INPUT_FILES["{model}"])
        rc, run, _ = self.probe(*[str(model) if a == "{model}" else a
                                  for a in argv])
        assert rc == 0
        assert run == {"cuspspec.errors"} | {"cuspspec." + m for m in layers}

    def test_every_subcommand_lists_its_layers(self):
        # a command left out of COMMAND_LAYERS would compile its layers
        # inside the command
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(cli.COMMAND_LAYERS) == set(sub.choices) == {
            argv[0] for argv, _ in self.COMMANDS[1:]}

    def test_det_runs_its_engine_before_the_walk(self):
        # compiled during the walk, the engine would add to its peak RSS
        rc, _, at_walk = self.probe("det", *self.SPHERE, "--cutoff", "6",
                                    "--t-max", "2")
        assert rc == 0
        assert len(at_walk) == 1
        assert {"cuspspec.trace_terms", "cuspspec.zeta_engine"} <= set(
            at_walk[0])

    def test_import_registers_the_bench_layers(self):
        # the shim reads each layer it wraps from sys.modules
        probe = "import sys, cuspspec.cli; print(' '.join(sys.modules))"
        out = subprocess.run([sys.executable, "-c", probe],
                             capture_output=True, text=True, timeout=120)
        assert {"cuspspec." + m for m, _ in bench_shim_layers()} <= set(
            out.stdout.split())

    def test_layer_imported_before_cli_stays_one_object(self):
        # a second module object would leave tests that patch a layer
        # patching a copy the CLI does not call
        probe = ("import sys, cuspspec, cuspspec.trace_terms\n"
                 "from cuspspec import cli\n"
                 "import cuspspec.zeta_engine as z\n"
                 "print(cli.trace_terms is sys.modules['cuspspec.trace_terms']"
                 " is cuspspec.trace_terms,"
                 " z is cli.zeta_engine is cuspspec.zeta_engine,"
                 " z.trace_terms is cli.trace_terms)")
        out = subprocess.run([sys.executable, "-c", probe],
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split() == ["True"] * 3

    def test_import_and_help_run_no_numpy(self):
        # numpy and dataclasses (which imports inspect) are bound but
        # their source has not run
        probe = ("import contextlib, io, sys\n"
                 "from cuspspec import cli\n"
                 "def unrun():\n"
                 "    return not {'numpy._core', 'inspect'} & set(sys.modules)\n"
                 "print(unrun())\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    try:\n"
                 "        cli.main(['--help'])\n"
                 "    except SystemExit as exc:\n"
                 "        code = exc.code\n"
                 "print(code == 0 and unrun())")
        out = subprocess.run([sys.executable, "-c", probe],
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split() == ["True"] * 2

    @pytest.mark.parametrize("numpy_first", [True, False])
    def test_numpy_before_or_after_cli_stays_one_object(self, numpy_first):
        # one numpy, fully run, whichever of it and the CLI comes first
        imports = ["import numpy", "from cuspspec import cli"]
        probe = "\n".join([
            "import sys, types",
            *(imports if numpy_first else imports[::-1]),
            "print(cli.np is numpy is sys.modules['numpy'],"
            " type(numpy) is types.ModuleType,"
            " 'numpy._core' in sys.modules,"
            " cli.np.zeros(2).tolist() == [0.0, 0.0])"])
        out = subprocess.run([sys.executable, "-c", probe],
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split() == ["True"] * 4


# zero, negatives, NaN, the infinities, the smallest subnormal and huge
# values: the edge cases of every numeric option, by name
EDGES = [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300,
         1e300, 1.7e308]
# every kind of --t item: any double (NaN, infinities, subnormals and
# the largest finite values among them) plus the edge cases
T_ITEMS = st.one_of(st.floats(), st.sampled_from(EDGES))


@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(T_ITEMS, min_size=1, max_size=4))
def test_trace_accepts_or_refuses_any_t(ts):
    """trace exits 0 or 2 on any --t list, without a warning or a NaN,
    and every refusal is one JSON object on stderr."""
    accepts_or_refuses(["trace", "--group", "thrice-punctured-sphere",
                        "--max-length", "4",
                        "--t=" + ",".join(map(repr, ts))])


def accepts_or_refuses(argv, codes=(0, 2)):
    """cli.main(argv), run in process with warnings as errors, exits with
    one of codes, writes no NaN value (a word: "determinant" holds the
    letters), and a failure is one JSON object on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    assert code in codes
    assert not re.search(r"\bnan\b", out.getvalue() + err.getvalue(),
                         re.IGNORECASE)
    if code:
        assert out.getvalue() == ""
        assert set(json.loads(err.getvalue())) == {"error", "message"}


@pytest.fixture(scope="module")
def scatter_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("scatter") / "model.json"
    path.write_text(json.dumps(SCATTER_MODEL))
    return str(path)


@settings(max_examples=150, deadline=None, database=None)
@given(ts=st.lists(T_ITEMS, min_size=1, max_size=4))
def test_scatter_check_accepts_or_refuses_any_t(scatter_model, ts):
    """scatter-check exits 0 or 2 on any --t list, without a warning or
    a NaN, and every refusal is one JSON object on stderr."""
    accepts_or_refuses(["scatter-check", "--model", scatter_model,
                        "--t=" + ",".join(map(repr, ts))])


GROUPS = st.sampled_from(["thrice-punctured-sphere",
                          "once-punctured-torus(3.47)"])
# any double or an edge case: the draw of an option meant to be broken
BAD = st.one_of(st.floats(), st.sampled_from(EDGES))
# (accepted, broken) word radii: a walk to radius 10 is quick, and from 18
# on it is refused before it starts; None leaves max(6, ceil(cutoff))
RADIUS = (st.one_of(st.none(), st.integers(1, 10)),
          st.one_of(st.integers(-2, 0), st.integers(18, 10 ** 12)))


def draw_options(data, options):
    """One value per option flag, from the flag's (accepted, broken)
    strategies: up to two flags, chosen at random, draw from the broken
    one.  None leaves a flag out; a list repeats it."""
    broken = data.draw(st.sets(st.sampled_from(list(options)), max_size=2))
    return {flag: data.draw(bad if flag in broken else good)
            for flag, (good, bad) in options.items()}


def as_argv(values):
    # "--flag=value", so that a value such as -inf is not read as a flag
    return ["%s=%s" % (flag, v) for flag, value in values.items()
            for v in (value if isinstance(value, list) else [value])
            if v is not None]


def quick_walk(values, length_flag):
    """The default radius max(6, ceil(length)) walks quickly at most to
    10 and is refused from 18 on."""
    length = values[length_flag]
    return values["--word-radius"] is not None or not 10.0 < length <= 17.0


@settings(max_examples=60, deadline=None, database=None)
@given(GROUPS, st.data())
def test_det_accepts_or_refuses(group, data):
    """det exits 0, 2 or 3 on any numbers, without a warning or a NaN."""
    cusps = fuchsian.builtin_group(group).surface.cusps

    def heights(x):
        # one cut height per cusp, as the flag's comma list
        return st.lists(x, min_size=cusps, max_size=cusps).map(
            lambda a: ",".join(map(repr, a)))

    values = draw_options(data, {
        "--cutoff": (st.floats(4.0, 8.0), st.one_of(
            st.floats(max_value=8.0), st.sampled_from(EDGES[:8]))),
        # every tail-fit sample at t = 1 used to give an arbitrary tail
        "--t-max": (st.floats(1.0, 4.0, exclude_min=True),
                    st.one_of(st.just(1.0), BAD)),
        "--eps-trunc": (st.one_of(st.none(), st.floats(1e-3, 0.5)), BAD),
        "--word-radius": RADIUS,
        "--cusp-starts": (st.one_of(st.none(), heights(st.floats(1.0, 4.0))),
                          heights(BAD))})
    accepts_or_refuses(["det", "--group", group, *as_argv(values)],
                       codes=(0, 2, 3))


ELL = st.floats(1e-6, 1.0)


@settings(max_examples=60, deadline=None, database=None)
@given(GROUPS, st.booleans(), st.data())
def test_pinch_sweep_accepts_or_refuses(group, grid, data):
    """pinch-sweep exits 0, 2 or 3 on any numbers, without a warning or
    a NaN."""
    if grid:
        ells = {"--ell-grid": tuple(
            st.lists(x, min_size=1, max_size=3, unique=True).map(
                lambda g: ",".join(map(str, sorted(g, reverse=True))))
            for x in (ELL, BAD))}
    else:
        ells = {"--ell-start": (ELL, BAD), "--ell-stop": (ELL, BAD),
                "--ell-num": (st.integers(1, 300), st.one_of(
                    st.integers(-2, 0),
                    st.sampled_from([cli.MAX_ELL_NUM + 1, 10 ** 30])))}
    values = draw_options(data, {
        "--cutoff": (st.floats(3.0, 8.0), BAD), "--word-radius": RADIUS,
        **ells, "--baseline": (st.floats(-10.0, 10.0), BAD),
        "--pinch-index": (st.lists(st.integers(0, 1), max_size=2),
                          st.lists(st.one_of(st.integers(max_value=-1),
                                             st.integers(50, 10 ** 20)),
                                   min_size=1, max_size=2))})
    assume(quick_walk(values, "--cutoff"))
    accepts_or_refuses(["pinch-sweep", "--group", group, *as_argv(values)],
                       codes=(0, 2, 3))


@settings(max_examples=60, deadline=None, database=None)
@given(GROUPS, st.sampled_from(["csv", "json"]), st.data())
def test_spectrum_accepts_or_refuses(group, fmt, data):
    """spectrum exits 0, 2 or 3 on any numbers, without a warning or a
    NaN."""
    values = draw_options(data, {
        "--max-length": (st.floats(0.1, 10.0), BAD), "--word-radius": RADIUS})
    assume(quick_walk(values, "--max-length"))
    accepts_or_refuses(["spectrum", "--group", group, "--format", fmt,
                        *as_argv(values)], codes=(0, 2, 3))


def bench_shim_layers():
    """The (module, function) pairs the benchmark's tracing shim wraps,
    read from its source file."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench/shim.py"
    spec = importlib.util.spec_from_file_location("bench_shim", path)
    shim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shim)
    return shim.LAYERS


def test_bench_layer_names_resolve():
    """Every (module, function) the benchmark's tracing shim wraps must
    exist, or a traced benchmark run fails."""
    for module, name in bench_shim_layers():
        mod = importlib.import_module("cuspspec." + module)
        assert callable(getattr(mod, name))


@pytest.mark.parametrize("module", ["cuspspec"] + [
    "cuspspec." + m.name for m in pkgutil.iter_modules(cuspspec.__path__)])
def test_star_import_resolves(module):
    """Every name in a module's __all__ (and every name the package
    imports) must exist; a stale entry makes "import *" fail."""
    exec("from %s import *" % module, {})


def test_each_test_file_names_a_module():
    """tests/test_<m>.py tests module <m>, so a test file cannot outlive
    its module; the acceptance suite spans all of them."""
    modules = {m.name for m in pkgutil.iter_modules(cuspspec.__path__)}
    tests = pathlib.Path(__file__).resolve().parent
    orphans = [p.name for p in sorted(tests.glob("test_*.py"))
               if p.name != "test_acceptance.py"
               and p.stem[len("test_"):] not in modules]
    assert orphans == []
