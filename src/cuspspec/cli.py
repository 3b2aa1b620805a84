"""Command-line front end.

Subcommands: spectrum, trace, det, scatter-check, pinch-sweep, selfcheck.
All outputs are deterministic: floats are printed with 17 significant
digits, and no timestamps or machine data enter the files.

Exit codes: 0 success, 2 precondition violation, 3 numeric
non-convergence, 4 I/O failure.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import cusp_model, degeneration, dtn_cusp, fuchsian, specfun
from . import trace_terms, zeta_engine
from .errors import DomainError, NumericsError, PreconditionError

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4
# exit code of each error family; every one is reported as a JSON object
EXIT_CODES = {PreconditionError: EXIT_PRECONDITION,
              NumericsError: EXIT_NUMERIC,
              OSError: EXIT_IO,
              json.JSONDecodeError: EXIT_IO}
# pinch-sweep rows a --ell-num may ask for; a row holds about 0.7 KB
# while the sweep runs, so 1e5 rows take about 100 MB
MAX_ELL_NUM = 100_000


def _fmt(x):
    return format(float(x), ".17g")


def _json_dump(obj, indent=0):
    """JSON writer with fixed 17-significant-digit float formatting."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            '%s  "%s": %s' % (pad, k, _json_dump(v, indent + 1))
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n%s}" % pad
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ["%s  %s" % (pad, _json_dump(v, indent + 1)) for v in obj]
        return "[\n" + ",\n".join(items) + "\n%s]" % pad
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(obj)


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _parse_float(item):
    try:
        return float(item)
    except ValueError:
        raise DomainError("not a number: %r" % item.strip()) from None


def _parse_floats(text):
    """Comma-separated numbers; a list with no item is refused."""
    values = [_parse_float(x) for x in text.split(",") if x.strip()]
    if not values:
        raise DomainError("empty list: %r" % text)
    return values


def _spectrum_args(args):
    """The length spectrum and the provenance lines that name it."""
    spec = fuchsian.enumerate_length_spectrum(
        fuchsian.builtin_group(args.group), args.max_length,
        args.word_radius)
    return spec, ["group: %s" % args.group,
                  "max_length: %s" % _fmt(args.max_length),
                  "word_radius: %d" % spec.word_radius]


def _cusp_family(args, spectrum):
    """--cusp-starts, by default 1 for every cusp; theta checks the count."""
    if args.cusp_starts:
        return cusp_model.CuspFamily(tuple(_parse_floats(args.cusp_starts)))
    return cusp_model.CuspFamily((1.0,) * spectrum.surface.cusps)


def _csv(args, provenance, columns, rows):
    """CSV text: '# ' provenance lines, the column line, then one line of
    17-digit cells per row."""
    lines = ["# cuspspec %s" % __version__, "# command: %s" % args.command]
    lines += ["# %s" % s for s in provenance]
    lines.append(",".join(columns))
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def cmd_spectrum(args):
    spec, provenance = _spectrum_args(args)
    if args.format == "json":
        obj = dataclasses.asdict(spec)
        obj = {k: obj[k] for k in ("surface", "cutoff", "entries",
                                   "word_radius")}
        _write(args.out, _json_dump(obj) + "\n")
    else:
        _write(args.out, _csv(
            args, provenance + [
                "merge_tolerance: %s" % _fmt(fuchsian.MERGE_TOL),
                "node_budget: %d" % fuchsian.NODE_BUDGET],
            ["length", "mult", "pinched"],
            [(e.length, e.mult, e.pinched) for e in spec.entries]))
    return EXIT_OK


def cmd_trace(args):
    ts = np.array(_parse_floats(args.t))
    spec, provenance = _spectrum_args(args)
    fam = _cusp_family(args, spec)
    cols = trace_terms.heat_trace_columns(spec, fam, ts)
    _write(args.out, _csv(
        args, provenance + [
            "cusp_starts: %s" % ",".join(_fmt(a) for a in fam.starts)],
        ["t", "identity", "hyperbolic", "parabolic", "cusp_start",
         "relative_trace"],
        zip(ts, *cols, sum(cols))))
    return EXIT_OK


def cmd_det(args):
    spec, _ = _spectrum_args(args)
    res = zeta_engine.relative_determinant(
        spec, _cusp_family(args, spec), args.t_max,
        eps_trunc=args.eps_trunc)
    obj = dict(dataclasses.asdict(res.zeta), det_hyp=res.det_hyp)
    _write(args.out, _json_dump(obj) + "\n")
    return EXIT_OK


def cmd_scatter_check(args):
    ts = _parse_floats(args.t)
    with open(args.model) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise DomainError("--model is not JSON: %s" % exc) from None
    model = trace_terms.model_from_json(obj)
    rows = []
    for t in ts:
        a = trace_terms.scattering_integral(model, t)
        b = trace_terms.scattering_erfc_sum(model, t)
        rows.append((t, a, b, abs(a - b) / (1.0 + abs(b))))
    quad = trace_terms.SCATTERING_SPEC
    _write(args.out, _csv(
        args, ["model: %s" % os.path.basename(args.model),
               "quad_abs_tol: %s" % _fmt(quad.abs_tol),
               "quad_rel_tol: %s" % _fmt(quad.rel_tol)],
        ["t", "integral", "erfc_sum", "residual"], rows))
    sys.stderr.write("max residual: %s\n" % _fmt(max(r[3] for r in rows)))
    return EXIT_OK


def cmd_pinch_sweep(args):
    if args.ell_grid:
        grid = _parse_floats(args.ell_grid)
    else:
        if not 1 <= args.ell_num <= MAX_ELL_NUM:
            raise DomainError("--ell-num must lie in [1, %d]" % MAX_ELL_NUM)
        if not all(math.isfinite(x) and x > 0
                   for x in (args.ell_start, args.ell_stop)):
            raise DomainError("--ell-start and --ell-stop must be finite "
                              "and positive")
        grid = list(np.geomspace(args.ell_start, args.ell_stop,
                                 args.ell_num))
        grid.sort(reverse=True)
    spec, provenance = _spectrum_args(args)
    indices = args.pinch_index if args.pinch_index else [0]
    rows = degeneration.pinch_sweep(spec, indices, grid, args.baseline)
    _write(args.out, _csv(
        args, provenance + [
            "pinch_indices: %s" % ",".join(str(i) for i in indices),
            "baseline: %s" % _fmt(args.baseline),
            "small_eig_model: ell^2 per pinched geodesic (synthetic)"],
        [f.name for f in dataclasses.fields(degeneration.PinchSweepRow)],
        map(dataclasses.astuple, rows)))
    return EXIT_OK


def cmd_selfcheck(args):
    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except Exception:
            ok = False
        checks.append(ok)
        print("%-42s %s" % (name, "pass" if ok else "FAIL"))

    check("quadrature: gaussian integral",
          lambda: abs(2.0 * specfun.integrate(lambda x: np.exp(-x * x),
                                              0.0, np.inf).value
                      - math.sqrt(math.pi)) < 1e-10)
    check("bessel K half-integer closed form",
          lambda: abs(specfun.bessel_k_scaled(0.5, 3.0)
                      - math.sqrt(math.pi / 6.0)) < 1e-10)
    check("cusp trace quadrature oracle", _selfcheck_cusp)
    check("dtn symbol limit at s=1", lambda: abs(
        dtn_cusp.n2_symbol(1.0 + 1e-7, 1, 1.5)
        - dtn_cusp.n2_zero_symbol(1, 1.5)) < 1e-5)
    check("scattering identity", _selfcheck_scatter)
    check("zeta engine two-eigenvalue oracle", _selfcheck_zeta)
    check("wolpert asymptotic agreement", lambda: abs(
        degeneration.wolpert_sum(0.01)
        - degeneration.wolpert_asymptotic(0.01)) < 1.0)
    return EXIT_OK if all(checks) else EXIT_NUMERIC


def _selfcheck_cusp():
    a, t = math.e, 1.0

    def integrand(y):
        return (cusp_model.cusp_heat_kernel(a, y, y, t)
                - cusp_model.cusp_heat_kernel(1.0, y, y, t)) / (y * y)

    # the integrand has a kink at y = a; split there
    val = (specfun.integrate(integrand, 1.0, a).value
           + specfun.integrate(integrand, a, np.inf).value)
    cut = trace_terms.cut_height_term(cusp_model.CuspFamily((a,)), t)
    return abs(val + cut) < 1e-8


def _selfcheck_scatter():
    model = trace_terms.ScatteringModel(
        ((complex(-0.3, 1.0), 1), (complex(-0.3, -1.0), 1)), 2.0)
    a = trace_terms.scattering_integral(model, 1.0)
    b = trace_terms.scattering_erfc_sum(model, 1.0)
    return abs(a - b) <= 1e-6 * (1.0 + abs(b))


def _selfcheck_zeta():
    terms = tuple((float(j), 0, ((-1.0) ** j + (-2.0) ** j)
                   / math.factorial(j)) for j in range(10))
    res = zeta_engine.mellin_zeta_prime0(
        lambda t: np.exp(-t) + np.exp(-2.0 * t), terms, 0.0, t_max=40.0)
    return abs(res.determinant - 2.0) < 1e-8


class _Append(argparse.Action):
    """action="append", except that explicit flags replace a --config list."""

    def __call__(self, parser, namespace, values, option_string=None):
        old = getattr(namespace, self.dest)
        setattr(namespace, self.dest,
                [values] if old is self.default else old + [values])


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a DomainError, so it reaches
    the one JSON error channel; subparsers are built from this class.
    An option that `config` names by one of its _config_keys takes its
    default from there (a list of values for a repeatable option)."""

    config = {}

    def error(self, message):
        raise DomainError("%s: %s" % (self.prog, message))

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        keys = [k for k in _config_keys(action) if k in self.config]
        if keys:
            value = self.config[keys[0]]
            if kwargs.get("action") is not _Append:
                action.default = _config_value(action, value)
            else:
                action.default = [_config_value(action, v) for v in (
                    value if isinstance(value, list) else [value])]
            action.required = False
        return action


def _config_keys(action):
    """An option's --config keys: its destination and flags, '-' as '_'."""
    return [action.dest] + [s.lstrip("-").replace("-", "_")
                            for s in action.option_strings]


def _config_value(action, value):
    """A --config value read as its JSON text would be read on the
    command line: through the option's type, within its choices."""
    text = value if isinstance(value, str) else json.dumps(value)
    try:
        value = (action.type or str)(text)
    except ValueError:
        raise DomainError("--config value for %s: invalid %s value %r"
                          % (action.dest, action.type.__name__, text)
                          ) from None
    if action.choices is not None and value not in action.choices:
        raise DomainError("--config value for %s: %r is not one of %s"
                          % (action.dest, value, ", ".join(action.choices)))
    return value


def build_parser(config=None):
    p = _Parser(
        prog="cuspspec",
        description="Spectral invariants of hyperbolic surfaces with cusps")
    p.add_argument("--config", help="JSON file with default parameter values")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, length_flag=None):
        """A subcommand; one with a length_flag (the spectrum cutoff)
        also takes the group and the word radius."""
        sp = sub.add_parser(name)
        sp.config = config or {}
        sp.set_defaults(func=fn)
        if length_flag:
            sp.add_argument("--group", required=True,
                            help="built-in group name")
            sp.add_argument(length_flag, dest="max_length", type=float,
                            required=True)
            sp.add_argument("--word-radius", type=int, default=None)
        return sp

    sp = add("spectrum", cmd_spectrum, "--max-length")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None)

    sp = add("trace", cmd_trace, "--max-length")
    sp.add_argument("--t", required=True, help="comma-separated t values")
    sp.add_argument("--cusp-starts", default=None)
    sp.add_argument("--out", default=None)

    sp = add("det", cmd_det, "--cutoff")
    sp.add_argument("--t-max", type=float, required=True)
    sp.add_argument("--eps-trunc", type=float, default=0.02)
    sp.add_argument("--cusp-starts", default=None)
    sp.add_argument("--out", default=None)

    sp = add("scatter-check", cmd_scatter_check)
    sp.add_argument("--model", required=True)
    sp.add_argument("--t", required=True)
    sp.add_argument("--out", default=None)

    sp = add("pinch-sweep", cmd_pinch_sweep, "--cutoff")
    sp.add_argument("--pinch-index", type=int, action=_Append)
    sp.add_argument("--ell-grid", default=None)
    sp.add_argument("--ell-start", type=float, default=0.1)
    sp.add_argument("--ell-stop", type=float, default=0.001)
    sp.add_argument("--ell-num", type=int, default=20)
    sp.add_argument("--baseline", type=float, default=0.0)
    sp.add_argument("--out", default=None)

    add("selfcheck", cmd_selfcheck)
    known = {k for sp in sub.choices.values() for a in sp._actions
             if a.default is not argparse.SUPPRESS for k in _config_keys(a)}
    for key in config or {}:
        if key not in known:
            raise DomainError("--config key %r is not an option of any "
                              "subcommand" % key)
    return p


def _error(exc, code):
    """Report exc as one JSON object on stderr; return the exit code."""
    sys.stderr.write(_json_dump(
        {"error": type(exc).__name__, "message": str(exc)}) + "\n")
    return code


def _read_config(argv):
    """The option defaults of a --config FILE (or --config=FILE) in
    argv, keyed by destination, and argv without that option.  Config
    values override built-in defaults; explicit flags override them."""
    pre = _Parser(prog="cuspspec", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, argv = pre.parse_known_args(argv)
    if known.config is None:
        return {}, argv
    with open(known.config) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise DomainError("--config must hold a JSON object, not %s"
                          % type(config).__name__)
    return {k.replace("-", "_"): v for k, v in config.items()}, argv


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config, argv = _read_config(argv)
        args = build_parser(config).parse_args(argv)
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        return _error(exc, next(code for cls, code in EXIT_CODES.items()
                                if isinstance(exc, cls)))


if __name__ == "__main__":
    sys.exit(main())
