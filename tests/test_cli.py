import contextlib
import csv
import dataclasses
import importlib
import importlib.util
import io
import json
import math
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
from cuspspec.cusp_model import CuspFamily


# a two-resonance scattering model in the --model file format
SCATTER_MODEL = {"q": 2.0, "phi_half": 1.0, "trace_c_half": 1.0,
                 "resonances": [{"re": -0.3, "im": 1.0, "order": 1},
                                {"re": -0.3, "im": -1.0, "order": 1}]}
# --model and --config file contents behind the "{...}" placeholders of
# TestErrorChannel.test_bad_input_refused
INPUT_FILES = {"{model}": json.dumps(SCATTER_MODEL),
               "{model-missing-key}": json.dumps({"q": 2.0}),
               "{model-not-json}": "not json",
               "{config-not-object}": "[1]",
               "{config-null-t-max}": json.dumps({"t_max": None}),
               "{config-list-max-length}": json.dumps({"max_length": [1, 2]}),
               "{config-misspelt-key}": json.dumps({"eps_trunk": 0.5})}


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

    def test_missing_config_is_io_error(self):
        out = run_cli("--config", "/nonexistent/cfg.json", "selfcheck")
        assert out.returncode == 4


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
        ["scatter-check", "--model", "{model-not-json}", "--t", "1"],
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


def test_bench_layer_names_resolve():
    """Every (module, function) the benchmark's tracing shim wraps must
    exist, or a traced benchmark run fails."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench/shim.py"
    spec = importlib.util.spec_from_file_location("bench_shim", path)
    shim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shim)
    for module, name in shim.LAYERS:
        mod = importlib.import_module("cuspspec." + module)
        assert callable(getattr(mod, name))


@pytest.mark.parametrize("module", ["cuspspec"] + [
    "cuspspec." + m.name for m in pkgutil.iter_modules(cuspspec.__path__)])
def test_star_import_resolves(module):
    """Every name in a module's __all__ (and every name the package
    imports) must exist; a stale entry makes "import *" fail."""
    exec("from %s import *" % module, {})
