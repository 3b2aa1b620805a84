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
              OSError: EXIT_IO}


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
    group = fuchsian.builtin_group(args.group)
    return group, fuchsian.enumerate_length_spectrum(
        group, args.max_length, args.word_radius)


def _cusp_family(args, group):
    cusps = group.surface.cusps
    if args.cusp_starts:
        starts = _parse_floats(args.cusp_starts)
    else:
        starts = [1.0] * cusps
    if len(starts) != cusps:
        raise DomainError("--cusp-starts needs %d heights (one per cusp), "
                          "got %d" % (cusps, len(starts)))
    return cusp_model.CuspFamily(tuple(starts))


def _csv(args, provenance, columns, rows):
    """CSV text: '# ' provenance lines, the column line, then one line of
    17-digit cells per row."""
    lines = ["# cuspspec %s" % __version__, "# command: %s" % args.command]
    lines += ["# %s" % s for s in provenance]
    lines.append(",".join(columns))
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def cmd_spectrum(args):
    _, spec = _spectrum_args(args)
    if args.format == "json":
        _write(args.out, _json_dump(fuchsian.spectrum_to_json(spec)) + "\n")
    else:
        _write(args.out, _csv(
            args, ["group: %s" % args.group,
                   "max_length: %s" % _fmt(args.max_length),
                   "word_radius: %d" % spec.word_radius,
                   "merge_tolerance: %s" % _fmt(fuchsian.MERGE_TOL),
                   "node_budget: %d" % fuchsian.NODE_BUDGET],
            ["length", "mult", "pinched"],
            [(e.length, e.mult, e.pinched) for e in spec.entries]))
    return EXIT_OK


def cmd_trace(args):
    ts = np.array(_parse_floats(args.t))
    group, spec = _spectrum_args(args)
    fam = _cusp_family(args, group)
    surface = group.surface
    ident = trace_terms.identity_term(surface.area, ts)
    hyp = trace_terms.hyperbolic_trace(spec, ts)
    para = surface.cusps * trace_terms.cusp_term(ts)
    cusp = np.exp(-ts / 4.0) / np.sqrt(4.0 * math.pi * ts) * fam.log_sum
    _write(args.out, _csv(
        args, ["group: %s" % args.group,
               "max_length: %s" % _fmt(args.max_length),
               "word_radius: %d" % spec.word_radius,
               "cusp_starts: %s" % ",".join(_fmt(a) for a in fam.starts)],
        ["t", "identity", "hyperbolic", "parabolic", "cusp_start",
         "relative_trace"],
        zip(ts, ident, hyp, para, cusp, ident + hyp + para + cusp)))
    return EXIT_OK


def cmd_det(args):
    group, spec = _spectrum_args(args)
    fam = _cusp_family(args, group)
    res = zeta_engine.relative_determinant(
        group.surface, spec, fam, args.t_max, eps_trunc=args.eps_trunc)
    obj = zeta_engine.zeta_result_to_json(res.zeta)
    obj["det_hyp"] = res.det_hyp
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
        if args.ell_num < 1:
            raise DomainError("--ell-num must be at least 1")
        if not all(math.isfinite(x) and x > 0
                   for x in (args.ell_start, args.ell_stop)):
            raise DomainError("--ell-start and --ell-stop must be finite "
                              "and positive")
        grid = list(np.geomspace(args.ell_start, args.ell_stop,
                                 args.ell_num))
        grid.sort(reverse=True)
    group, spec = _spectrum_args(args)
    indices = args.pinch_index if args.pinch_index else [0]
    rows = degeneration.pinch_sweep(
        spec, indices, grid, args.baseline, group.surface)
    _write(args.out, _csv(
        args, ["group: %s" % args.group,
               "max_length: %s" % _fmt(args.max_length),
               "word_radius: %d" % spec.word_radius,
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
        return np.array([
            (cusp_model.cusp_heat_kernel(a, yi, yi, t)
             - cusp_model.cusp_heat_kernel(1.0, yi, yi, t)) / (yi * yi)
            for yi in np.atleast_1d(y)])

    # the integrand has a kink at y = a; split there
    val = (specfun.integrate(integrand, 1.0, a).value
           + specfun.integrate(integrand, a, np.inf).value)
    return abs(val - cusp_model.relative_cusp_trace(a, t)) < 1e-8


def _selfcheck_scatter():
    model = trace_terms.ScatteringModel(
        ((complex(-0.3, 1.0), 1), (complex(-0.3, -1.0), 1)), 2.0, 1.0)
    a = trace_terms.scattering_integral(model, 1.0)
    b = trace_terms.scattering_erfc_sum(model, 1.0)
    return abs(a - b) <= 1e-6 * (1.0 + abs(b))


def _selfcheck_zeta():
    terms = tuple((float(j), 0, ((-1.0) ** j + (-2.0) ** j)
                   / math.factorial(j)) for j in range(10))
    desc = zeta_engine.ExpansionDescriptor(terms, h=0.0)
    res = zeta_engine.mellin_zeta_prime0(
        lambda t: np.exp(-t) + np.exp(-2.0 * t), desc, t_max=40.0)
    return abs(res.determinant - 2.0) < 1e-8


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a DomainError, so it reaches
    the one JSON error channel; subparsers are built from this class."""

    def error(self, message):
        raise DomainError("%s: %s" % (self.prog, message))


def build_parser(config=None):
    config = config or {}
    p = _Parser(
        prog="cuspspec",
        description="Spectral invariants of hyperbolic surfaces with cusps")
    p.add_argument("--config", help="JSON file with default parameter values")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn):
        sp = sub.add_parser(name)
        sp.set_defaults(func=fn)
        return sp

    common_group = dict(required=True,
                        help="built-in group name")

    sp = add("spectrum", cmd_spectrum)
    sp.add_argument("--group", **common_group)
    sp.add_argument("--max-length", type=float, required=True)
    sp.add_argument("--word-radius", type=int, default=None)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None)

    sp = add("trace", cmd_trace)
    sp.add_argument("--group", **common_group)
    sp.add_argument("--max-length", type=float, required=True)
    sp.add_argument("--word-radius", type=int, default=None)
    sp.add_argument("--t", required=True, help="comma-separated t values")
    sp.add_argument("--cusp-starts", default=None)
    sp.add_argument("--out", default=None)

    sp = add("det", cmd_det)
    sp.add_argument("--group", **common_group)
    sp.add_argument("--cutoff", dest="max_length", type=float, required=True)
    sp.add_argument("--word-radius", type=int, default=None)
    sp.add_argument("--t-max", type=float, required=True)
    sp.add_argument("--eps-trunc", type=float, default=0.02)
    sp.add_argument("--cusp-starts", default=None)
    sp.add_argument("--out", default=None)

    sp = add("scatter-check", cmd_scatter_check)
    sp.add_argument("--model", required=True)
    sp.add_argument("--t", required=True)
    sp.add_argument("--out", default=None)

    sp = add("pinch-sweep", cmd_pinch_sweep)
    sp.add_argument("--group", **common_group)
    sp.add_argument("--cutoff", dest="max_length", type=float, required=True)
    sp.add_argument("--word-radius", type=int, default=None)
    sp.add_argument("--pinch-index", type=int, action="append")
    sp.add_argument("--ell-grid", default=None)
    sp.add_argument("--ell-start", type=float, default=0.1)
    sp.add_argument("--ell-stop", type=float, default=0.001)
    sp.add_argument("--ell-num", type=int, default=20)
    sp.add_argument("--baseline", type=float, default=0.0)
    sp.add_argument("--out", default=None)

    add("selfcheck", cmd_selfcheck)

    # config-file values override built-in defaults; explicit flags
    # override the config file
    if config:
        wanted = {k.replace("-", "_"): v for k, v in config.items()}
        for sub_parser in sub.choices.values():
            for action in sub_parser._actions:
                if action.dest in wanted:
                    action.default = wanted[action.dest]
                    action.required = False
    return p


def _error(exc, code):
    """Report exc as one JSON object on stderr; return the exit code."""
    sys.stderr.write(_json_dump(
        {"error": type(exc).__name__, "message": str(exc)}) + "\n")
    return code


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    config = {}
    if "--config" in argv:
        try:
            i = argv.index("--config")
            cfg_path = argv[i + 1]
            with open(cfg_path) as fh:
                config = json.load(fh)
        except (IndexError, OSError, json.JSONDecodeError) as exc:
            return _error(exc, EXIT_IO)
        # --config may appear before or after the subcommand; the
        # values were consumed above, so remove the flag either way
        del argv[i:i + 2]
    parser = build_parser(config)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        return _error(exc, next(code for cls, code in EXIT_CODES.items()
                                if isinstance(exc, cls)))


if __name__ == "__main__":
    sys.exit(main())
