"""Traced entry point: one cuspspec CLI job with a span around each layer call.

Usage: python3 perfbench/shim.py SPANS_FILE JOB_ID ARGV...

The shim wraps the public functions listed in LAYERS from outside, in every
cuspspec module that holds them under that name (``zeta_engine`` binds
``integrate`` by name; ``relative_determinant`` calls ``xi_prime0`` as a
module global), runs ``cuspspec.cli.main(ARGV)``, keeps the spans in memory
and writes them as JSON when the job ends.  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, counters]``; ``parent`` is the index
of the enclosing span (-1 for the root) and ``counters`` holds the layer's
work counts (integrand and theta evaluations, points, classes, failures).
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

# (module, function) pairs; the span name is "module.function"
LAYERS = (
    ("cli", "main"),
    ("fuchsian", "enumerate_length_spectrum"),
    ("trace_terms", "relative_heat_trace"),
    ("trace_terms", "hyperbolic_trace"),
    ("trace_terms", "identity_term"),
    ("trace_terms", "parabolic_p"),
    ("specfun", "integrate"),
    ("specfun", "digamma"),
    ("zeta_engine", "mellin_zeta_prime0"),
    ("zeta_engine", "xi_prime0"),
    ("degeneration", "wolpert_sum"),
)


def _counting(fn, counters, evals, points):
    """Wrap a callable argument so each completed call is counted."""

    def g(x):
        y = fn(x)
        counters[evals] += 1
        counters[points] += int(np.size(x))
        return y

    return g


def _before(name, args, counters):
    """Install the counters a layer reports; returns the (possibly
    wrapped) positional arguments."""
    if name == "specfun.integrate":
        counters.update(evals=0, points=0, failures=0)
        return (_counting(args[0], counters, "evals", "points"),) + args[1:]
    if name == "zeta_engine.mellin_zeta_prime0":
        counters.update(theta_evals=0, theta_points=0)
        return (_counting(args[0], counters, "theta_evals",
                          "theta_points"),) + args[1:]
    if name == "specfun.digamma":
        counters["points"] = int(np.size(args[0]))
    return args


def _after(name, out, counters):
    if name == "fuchsian.enumerate_length_spectrum":
        counters["classes"] = sum(e.mult for e in out.entries)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]

    def open(self, name, start, counters=None):
        self.spans.append([name, start, None, self._stack[-1], counters])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            counters = {}
            rec = self.open(name, clock(), counters)
            try:
                args = _before(name, args, counters)
                out = fn(*args, **kwargs)
            except BaseException:
                if "failures" in counters:
                    counters["failures"] += 1
                raise
            finally:
                self.close(rec)
            _after(name, out, counters)
            return out

        return traced


def install(tracer):
    """Patch every LAYERS function wherever a cuspspec module binds it."""
    import cuspspec.cli  # noqa: F401  (imports every layer)

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "cuspspec" or n.startswith("cuspspec.")]
    for modname, fname in LAYERS:
        orig = getattr(sys.modules["cuspspec." + modname], fname)
        wrapped = tracer.wrap("%s.%s" % (modname, fname), orig)
        for m in modules:
            if m.__dict__.get(fname) is orig:
                setattr(m, fname, wrapped)
    return sys.modules["cuspspec.cli"].main


def main():
    spans_file, job_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    root = tracer.open("shim.process", _T0)
    imp = tracer.open("shim.import", _T0)
    cli_main = install(tracer)
    tracer.close(imp)
    try:
        rc = cli_main(argv)
    finally:
        sys.stdout.flush()
        tracer.close(root)
        with open(spans_file, "w") as fh:
            json.dump({"job": job_id, "spans": tracer.spans}, fh,
                      separators=(",", ":"))
    return rc


if __name__ == "__main__":
    sys.exit(main())
