"""Workloads and the output checks of the cuspspec benchmark.

Each workload maps a seed to an endless stream of ``(argv, check)`` pairs.
``check(stdout)`` raises :class:`CheckFailed` on a wrong output and returns
the job's ``oracle_digits``: -log10 of the relative error against an exact
value the program does not compute itself.

- ``det``, ``pinch``: the per-cusp constant c, read back from the output,
  against the exact -(3/2) log 2.
- ``spectrum``: every 2 cosh(l/2) against the nearest integer, since the
  traces of Gamma(2) are integers = 2 (mod 4).

The checks accept a better answer: a spectrum may hold more classes than
the reference run found, and zeta'(0) may move within the error the job
reports itself.
"""

import csv
import functools
import io
import itertools
import json
import math
import random
from pathlib import Path

import numpy as np

REF = Path(__file__).resolve().parent / "ref"
XI_EXACT = -1.5 * math.log(2.0)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# det: generic once-punctured tori; tau = 3.0 is avoided on purpose (its
# integer traces collapse the spectrum and hide the hyperbolic sum)
DET_TAUS = tuple(round(3.40 + 0.01 * i, 2) for i in range(21))
DET_ARGS = ["--cutoff", "12", "--t-max", "8"]
PINCH_ARGV = ["pinch-sweep", "--group", "thrice-punctured-sphere",
              "--cutoff", "6", "--ell-num", "200", "--ell-stop", "1e-5"]
PINCH_GRID = (0.1, 1e-5, 200)  # --ell-start default, --ell-stop, --ell-num
PINCH_CUSPS = 3
# the shortest closed geodesics of the thrice-punctured sphere (trace 6)
# form 6 classes; pinching index 0 pinches all of them
PINCH_MULT = 6
SPECTRUM_MAX_LENGTH = 14.0
SPECTRUM_ARGV = ["spectrum", "--group", "thrice-punctured-sphere",
                 "--max-length", "14"]


class CheckFailed(Exception):
    """A job's output is wrong."""


def _require(cond, msg, *args):
    if not cond:
        raise CheckFailed(msg % args)


def _digits(rel_err):
    return -math.log10(max(rel_err, 1e-17))


def _xi_digits(c):
    return _digits(abs(c - XI_EXACT) / abs(XI_EXACT))


def _close(x, y, rel):
    return abs(x - y) <= rel * max(1.0, abs(y))


def csv_rows(stdout, header):
    lines = [ln for ln in stdout.decode().splitlines()
             if ln and not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    _require(rows and rows[0] == header, "unexpected CSV header %r",
             rows[0] if rows else None)
    return [[float(x) for x in r] for r in rows[1:]]


# ----------------------------------------------------------------------
# det
# ----------------------------------------------------------------------

def check_det(stdout, cusps, ref_zeta=None):
    """determinant = exp(-zeta'(0)); determinant/det_hyp = exp(-m c) with
    c = -(3/2) log 2; zeta'(0) within its own reported error of the
    reference value, when one is given."""
    try:
        out = json.loads(stdout)
        zp, det = float(out["zeta_prime_zero"]), float(out["determinant"])
        err = float(out["small_t_error"]) + float(out["large_t_error"])
        det_hyp = float(out["det_hyp"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed("unreadable det output: %s" % exc)
    _require(all(map(math.isfinite, (zp, det, err, det_hyp))) and err >= 0
             and det_hyp > 0, "non-finite or negative det output")
    _require(_close(det, math.exp(-zp), 1e-12),
             "determinant %r != exp(-zeta'(0)) %r", det, math.exp(-zp))
    ratio = det / det_hyp
    _require(abs(ratio / 2.0 ** (1.5 * cusps) - 1.0) <= 1e-6,
             "determinant/det_hyp %r != 2^(3m/2)", ratio)
    if ref_zeta is not None:
        _require(abs(zp - ref_zeta) <= err,
                 "zeta'(0) %r is %g from the reference %r, beyond its "
                 "reported error %g", zp, abs(zp - ref_zeta), ref_zeta, err)
    return _xi_digits(-math.log(ratio) / cusps)


def det_jobs(seed):
    ref = {}
    with open(REF / "torus_zeta.csv") as fh:
        for row in csv.DictReader(fh):
            ref[float(row["tau"])] = float(row["zeta_prime_zero"])
    u = random.Random(seed).random()
    for i in itertools.count():
        # a golden-ratio sequence: consecutive jobs spread over the band
        tau = DET_TAUS[int(((u + i * GOLDEN) % 1.0) * len(DET_TAUS))]
        argv = ["det", "--group", "once-punctured-torus(%.2f)" % tau]
        yield argv + DET_ARGS, functools.partial(
            check_det, cusps=1, ref_zeta=ref[tau])


# ----------------------------------------------------------------------
# pinch
# ----------------------------------------------------------------------

def wolpert_oracle(ell, dps=30):
    """sum_n e^{-n l}/(n(1-e^{-n l})) = -log prod_k (1-q^k), q = e^{-l},
    through the modular transformation of Dedekind's eta:
    pi^2/(6l) + log(l/2pi)/2 - l/24 - log prod_k (1 - e^{-4 pi^2 k/l})."""
    import mpmath

    with mpmath.workdps(dps):
        l = mpmath.mpf(ell)
        qt = mpmath.exp(-4 * mpmath.pi ** 2 / l)
        tail, k = mpmath.mpf(0), 1
        while qt ** k > mpmath.mpf(10) ** (-dps - 5):
            tail += mpmath.log(1 - qt ** k)
            k += 1
        return float(mpmath.pi ** 2 / (6 * l) + mpmath.log(l / (2 * mpmath.pi)) / 2
                     - l / 24 - tail)


def check_pinch(stdout, grid, wolpert, cusps=PINCH_CUSPS, mult=PINCH_MULT):
    """The ell grid, the ell^2 eigenvalue model and the asymptotic column
    against their closed forms; the Wolpert column at the sampled rows
    against ``wolpert`` (row -> exact value); and the per-cusp constant
    c = (baseline - wolpert_sum + small_eig_logsum - log_det_estimate)/m
    of every row against -(3/2) log 2."""
    rows = csv_rows(stdout, ["ell", "wolpert_sum", "wolpert_asymptotic",
                              "small_eig_logsum", "log_det_estimate",
                              "baseline"])
    _require(len(rows) == len(grid), "%d rows for a grid of %d",
             len(rows), len(grid))
    digits = []
    for i, (ell, wsum, wasym, logsum, est, base) in enumerate(rows):
        _require(all(map(math.isfinite, rows[i])), "row %d not finite", i)
        _require(_close(ell, grid[i], 1e-12), "row %d: ell %r != %r",
                 i, ell, grid[i])
        _require(_close(logsum, 2 * mult * math.log(ell), 1e-12),
                 "row %d: small_eig_logsum %r", i, logsum)
        if ell <= 0.5:
            exact = mult * (math.pi ** 2 / (6 * ell)
                            + 0.5 * math.log(-math.expm1(-ell)))
            _require(_close(wasym, exact, 1e-12),
                     "row %d: wolpert_asymptotic %r != %r", i, wasym, exact)
        if i in wolpert:
            _require(abs(wsum / (mult * wolpert[i]) - 1) <= 1e-10,
                     "row %d: wolpert_sum %r != %r", i, wsum,
                     mult * wolpert[i])
        c = (base - wsum + logsum - est) / cusps
        _require(abs(c / XI_EXACT - 1) <= 1e-6,
                 "row %d: cusp constant %r != -(3/2) log 2", i, c)
        digits.append(_xi_digits(c))
    return float(np.median(digits))


def pinch_jobs(seed):
    grid = list(np.geomspace(*PINCH_GRID))
    n = len(grid)
    # three seed-drawn rows plus the smallest ell, the longest Wolpert sum
    sampled = sorted(random.Random(seed).sample(range(n - 1), 3)) + [n - 1]
    wolpert = {i: wolpert_oracle(grid[i]) for i in sampled}
    check = functools.partial(check_pinch, grid=grid, wolpert=wolpert)
    while True:
        yield list(PINCH_ARGV), check


# ----------------------------------------------------------------------
# spectrum
# ----------------------------------------------------------------------

def load_sphere_traces():
    """trace -> multiplicity of the thrice-punctured sphere's classes up
    to length 14, as the enumerator found them when the benchmark was
    defined (``make_ref.py``)."""
    with open(REF / "sphere_traces.csv") as fh:
        return {int(r["trace"]): int(r["mult"]) for r in csv.DictReader(fh)}


def check_spectrum(stdout, max_length, ref):
    """Sorted lengths in (0, max_length], integer traces = 2 (mod 4), and
    at least the reference's classes at every trace up to max_length."""
    rows = csv_rows(stdout, ["length", "mult", "pinched"])
    _require(rows, "empty spectrum")
    found = {}
    worst = 0.0
    prev = 0.0
    for ell, mult, pinched in rows:
        _require(prev < ell <= max_length + 1e-12,
                 "length %r unsorted or beyond the cutoff", ell)
        _require(mult >= 1 and mult == int(mult) and pinched == 0,
                 "bad multiplicity or pinched flag at %r", ell)
        prev = ell
        tr = 2.0 * math.cosh(ell / 2.0)
        n = round(tr)
        _require(abs(tr - n) <= 1e-9 and n % 4 == 2,
                 "2cosh(l/2) = %r is not an integer = 2 mod 4", tr)
        worst = max(worst, abs(tr - n) / n)
        found[n] = found.get(n, 0) + int(mult)
    for n, mult in ref.items():
        if 2.0 * math.acosh(n / 2.0) <= max_length:
            _require(found.get(n, 0) >= mult,
                     "trace %d: %d classes, the reference has %d",
                     n, found.get(n, 0), mult)
    return _digits(worst)


def spectrum_jobs(seed):
    # one fixed argv: the Lyndon search cost depends only on the cutoff
    check = functools.partial(check_spectrum, max_length=SPECTRUM_MAX_LENGTH,
                              ref=load_sphere_traces())
    while True:
        yield list(SPECTRUM_ARGV), check


WORKLOADS = {"det": det_jobs, "pinch": pinch_jobs, "spectrum": spectrum_jobs}
