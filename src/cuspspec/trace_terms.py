"""Additive terms of the trace formula and the assembled relative heat trace.

Geometric side: identity term (area times the hyperbolic plane heat kernel
on the diagonal), hyperbolic term (sum over closed geodesics), parabolic
term P(t), and the cusp cut-height correction with its cut heights
(:class:`CuspFamily`).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError

__all__ = [
    "identity_term", "hyperbolic_trace",
    "P_EXPANSION", "expansion_value",
    "parabolic_p", "cusp_term",
    "CuspFamily", "cut_height_term", "check_cusp_count",
    "heat_trace_columns", "relative_heat_trace", "t_array",
]

_SQRT_PI = math.sqrt(math.pi)

# Small-t expansion of P(t) = int e^{-t(1/4+r^2)} Re psi(1+ir) dr as
# (alpha, k, c) terms c t^alpha (log t)^k, up to O(t^{3/2} log t); checked
# against the defining integral in high precision (tests/test_trace_terms.py
# TestParabolicP.test_mpmath_oracle, and acceptance criterion 4).
P_EXPANSION = (
    (-0.5, 1, -_SQRT_PI / 2.0),
    (-0.5, 0, -_SQRT_PI / 2.0 * (np.euler_gamma + 2.0 * math.log(2.0))),
    (0.0, 0, math.pi / 2.0),
    (0.5, 1, _SQRT_PI / 8.0),
    (0.5, 0, (_SQRT_PI / 8.0
              * (np.euler_gamma + 2.0 * math.log(2.0) - 4.0 / 3.0))),
    (1.0, 0, -math.pi / 8.0),
)


def expansion_value(terms, t):
    """Sum of (alpha, k, c) terms c t^alpha (log t)^k at t (vectorized)."""
    t = np.asarray(t, dtype=float)
    lt = np.log(t)
    return sum((c * t ** a * lt ** k for a, k, c in terms), np.zeros_like(t))


# Every trace term takes t as a scalar or an array: a scalar returns a
# float, an array returns an array of the same shape.  The value at each
# t is the same, bit for bit, whatever other t share the call.

# elements per block of the ragged (row, k) sums below, and about the
# (class, k) pairs per x-window of the geodesic sum
_BLOCK = 1 << 18


# t range of the trace terms: below it area/(4 pi t) overflows, above it
# t lam^2 and 16 pi t do (every term is 0 in double from t = 3000 on)
_T_RANGE = (1e-300, 1e300)


def t_array(t, name):
    """t as a flat float array plus its original shape; trace terms
    require finite t > 0, within _T_RANGE.  name, the caller or option,
    opens the refusal, so a command can check its t before the walk."""
    arr = np.asarray(t, dtype=float)
    if arr.size == 0 or not np.all(np.isfinite(arr) & (arr > 0.0)):
        raise DomainError(
            "%s requires a nonempty t with finite values > 0" % name)
    if np.any((arr < _T_RANGE[0]) | (arr > _T_RANGE[1])):
        raise DomainError("%s requires t within [%g, %g]"
                          % ((name,) + _T_RANGE))
    return arr.ravel(), arr.shape


def _shaped(values, shape):
    return float(values[0]) if shape == () else values.reshape(shape)


def _ragged_blocks(counts):
    """Yield (row, k) index arrays that together run through
    k = 1..counts[row] for every row, a block of whole rows at a time:
    as many as fit in _BLOCK entries, or one longer row alone (P(t)'s
    rows have at most 12/sqrt(3e-7) + 10 entries, fewer than _BLOCK).
    So no other row decides where a row's sum is split."""
    ends = np.cumsum(counts)
    lo = 0
    while lo < counts.size:
        hi = max(lo + 1, int(np.searchsorted(
            ends, ends[lo] - counts[lo] + _BLOCK, side="right")))
        size = counts[lo:hi]
        row = np.repeat(np.arange(lo, hi), size)
        yield row, np.arange(1, row.size + 1) - np.repeat(
            np.cumsum(size) - size, size)
        lo = hi


# int_0^inf e^{-t lam^2} lam/(e^{2 pi lam} + 1) dlam on one composite
# 15-point Kronrod grid shared by every t.  The panels are graded towards
# lam = 0, where the Gaussian concentrates at large t; beyond 7.2 the
# Fermi factor is below e^{-45}.
_FERMI_EDGES = (0.0, 0.04, 0.08, 0.13, 0.2, 0.3, 0.45, 0.65, 0.9, 1.2,
                1.6, 2.1, 2.8, 3.6, 4.6, 5.8, 7.2)
_FERMI_LAM, _FERMI_W = specfun.kronrod_grid(_FERMI_EDGES)
_FERMI_W = _FERMI_W * _FERMI_LAM / (np.exp(2.0 * math.pi * _FERMI_LAM) + 1.0)
_FERMI_LAM2 = _FERMI_LAM * _FERMI_LAM
# t rows per (t, lam) block in identity_term, which bounds its buffer;
# each row is summed on its own, so the block size moves no bit
_FERMI_ROWS = 64


def identity_term(area, t):
    """(area/4pi) * int_R e^{-t(1/4+lam^2)} lam tanh(pi lam) dlam.

    With tanh(pi lam) = 1 - 2/(e^{2 pi lam} + 1) this is
    (area/4pi) e^{-t/4} [1/t - 4 int_0^inf e^{-t lam^2} lam/(e^{2 pi lam}+1)
    dlam]; the remaining integral decays like e^{-2 pi lam} and runs on
    the fixed grid above, one row of the grid per t, summed on its own.
    """
    if not (math.isfinite(area) and area > 0.0):
        raise DomainError("identity_term requires finite area > 0")
    t, shape = t_array(t, "identity_term")
    fermi = np.concatenate([
        (np.exp(-np.multiply.outer(t[i:i + _FERMI_ROWS], _FERMI_LAM2))
         * _FERMI_W).sum(axis=1) for i in range(0, t.size, _FERMI_ROWS)])
    out = area / (4.0 * math.pi) * np.exp(-t / 4.0) * (1.0 / t - 4.0 * fermi)
    return _shaped(out, shape)


def hyperbolic_trace(spectrum, t):
    """Geodesic sum e^{-t/4}/sqrt(16 pi t) * sum_k sum_gamma
    mult * l / sinh(k l / 2) * e^{-(k l)^2 / 4t}.

    One cut per t: with x = k l, l_1 the shortest length and
    c(t)^2 = 172 log(10) min(t, 3000), t sums exactly the (class, k)
    pairs with x^2 <= l_1^2 + c(t)^2, beyond which the Gaussian factor is
    below 1e-43 of the leading pair's (l_1, k = 1); beyond t = 3000 the
    prefactor e^{-t/4} is 0 in double.  Terms take the overflow-safe form
    2 l e^{-x/2} / (1 - e^{-x}).  The pairs are built in x-windows that
    the spectrum alone fixes, about _BLOCK pairs each, sorted by x; at
    each t every window's prefix within the cut is contracted in one dot
    and the window totals added in order, so the value at t does not
    depend on the other t of the call.
    """
    t, shape = t_array(t, "hyperbolic_trace")
    ell, mult = spectrum.length_arrays
    total = np.zeros_like(t)
    if ell.size:
        cut = np.minimum(t, 3000.0)
        cut *= 172.0 * math.log(10.0)
        cut += ell[0] * ell[0]
        np.sqrt(cut, out=cut)
        top = cut.max()
        coef = mult * 2.0 * ell
        # window j is [j width, (j + 1) width): the mean count of pairs
        # in a window is sum(width / l) = _BLOCK
        width = _BLOCK / np.sum(1.0 / ell)
        lo, j = 0.0, 0
        while lo <= top:
            hi = (j + 1) * width
            x, w = _geodesic_window(ell, coef, lo, hi, top)
            _contract(x, w, t, cut, total)
            lo, j = hi, j + 1
    out = np.exp(-t / 4.0) / np.sqrt(16.0 * math.pi * t) * total
    return _shaped(out, shape)


def _geodesic_window(ell, coef, lo, hi, top):
    """x = k l and weights coef / (1 - e^{-x}) of the (class, k) pairs
    with lo <= x < hi and x <= top, sorted by x (ties in class and k
    order)."""
    end = min(hi, top)
    m = int(np.searchsorted(ell, end, side="right"))
    k_lo = np.maximum(np.floor(lo / ell[:m]), 1.0)
    size = (np.floor(end / ell[:m]) + 2.0 - k_lo).astype(np.int64)
    x = np.arange(float(size.sum())) + np.repeat(
        k_lo - (np.cumsum(size) - size), size)
    x *= np.repeat(ell[:m], size)
    keep = (x >= lo) & (x < hi) & (x <= top)
    x, w = x[keep], np.repeat(coef[:m], size)[keep]
    order = np.argsort(x, kind="stable")
    x, w = x[order], w[order]
    w /= -np.expm1(-x)
    return x, w


def _contract(x, w, t, cut, total):
    """Add to total[i] the dot of w against e^{-x/2 - x^2/4t_i} over
    x <= cut[i], x sorted."""
    half, sq = -0.5 * x, x * x
    ends = np.searchsorted(x, cut, side="right").tolist()
    for i, (n, four_t) in enumerate(zip(ends, (4.0 * t).tolist())):
        if n:
            e = np.divide(sq[:n], four_t)
            np.subtract(half[:n], e, out=e)
            total[i] += np.exp(e, out=e) @ w[:n]


# Asymptotic series erfcx(x) ~ (1/(x sqrt(pi))) sum_m c_m x^{-2m},
# c_m = (-1)^m (2m-1)!!/2^m, m = 1..10; at x >= 12 the last term is
# below 2e-16 relative.
_ERFCX_ASYMPTOTIC = tuple(
    (-1.0) ** m * math.prod(range(1, 2 * m, 2)) / 2.0 ** m
    for m in range(1, 11))
# B_{2j}/(2j)! for the Euler-Maclaurin form of the Hurwitz zeta function
_EM_WEIGHTS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0,
               1.0 / 47900160.0, -691.0 / 1307674368000.0,
               1.0 / 74724249600.0, -3617.0 / 10670622842880000.0)


def _hurwitz_zeta(s, a):
    """zeta(s, a) = sum_{n>=0} (n+a)^{-s} by Euler-Maclaurin at n = 0;
    double precision for integer-valued float s >= 3 and a >= 11
    (vectorized in s and a: a column of orders against a row of a gives
    one row per order)."""
    out = a ** (1.0 - s) / (s - 1.0) + 0.5 * a ** (-s)
    rising = s  # s (s+1) ... (s+2j-2)
    power = a ** (-s - 1.0)
    for j, weight in enumerate(_EM_WEIGHTS):
        out = out + weight * rising * power
        rising = rising * ((s + 2 * j + 1) * (s + 2 * j + 2))
        power = power / (a * a)
    return out


# Below this t the small-t ladder, whose truncation error is O(t^2)
# relative, is more accurate than the series (both are 4e-15 relative
# to mpmath at 3e-7), and the direct sum, which needs 12/sqrt(t) terms,
# grows past 2.2e4 terms per t (0.9 s at t = 1e-10, 7.7 s at 1e-12).
_SERIES_MIN_T = 3e-7


def parabolic_p(t):
    """P(t) = int_R e^{-t(1/4+r^2)} psi(1+ir) dr, real part.

    Re psi(1+ir) = -gamma + sum_n r^2/(n(n^2+r^2)) (DLMF 5.7.6) and
    int_0^inf e^{-t r^2}/(n^2+r^2) dr = (pi/2n) erfcx(n sqrt(t)) give

        P(t) = 2 e^{-t/4} [-gamma sqrt(pi)/(2 sqrt(t))
               + sum_n (sqrt(pi)/(2 n sqrt(t)) - (pi/2) erfcx(n sqrt(t)))].

    The series is summed directly up to N = ceil(12/sqrt(t)) + 10; beyond
    N each power x^{-(2m+1)} of the asymptotic expansion of the summand
    sums to t^{-(2m+1)/2} zeta(2m+1, N+1).  Below t = 3e-7 the full
    small-t ladder P_EXPANSION is summed instead.
    """
    t, shape = t_array(t, "parabolic_p")
    out = np.piecewise(t, [t < _SERIES_MIN_T], [
        lambda s: expansion_value(P_EXPANSION, s), _parabolic_series])
    return _shaped(out, shape)


def _parabolic_series(t):
    rt = np.sqrt(t)
    n_direct = np.ceil(12.0 / rt).astype(np.int64) + 10
    series = np.zeros_like(t)
    for row, n in _ragged_blocks(n_direct):
        x = n * rt[row]
        f = _SQRT_PI / (2.0 * x) - 0.5 * math.pi * specfun.erfcx(x)
        series += np.bincount(row, weights=f, minlength=t.size)
    # summand ~ -(sqrt(pi)/2) sum_m c_m x^{-(2m+1)} for x > 12: one
    # row per order m, added in order of m
    s = np.arange(3.0, 22.0, 2.0)[:, None]  # s = 2m + 1
    tail = (np.array(_ERFCX_ASYMPTOTIC)[:, None] * rt ** -s
            * _hurwitz_zeta(s, n_direct + 1.0))
    series -= 0.5 * _SQRT_PI * sum(tail, np.zeros_like(t))
    return 2.0 * np.exp(-t / 4.0) * (
        -np.euler_gamma * _SQRT_PI / (2.0 * rt) + series)


def cusp_term(t):
    """Parabolic contribution of one cusp to the relative heat trace,
    -P(t)/pi - log(2) e^{-t/4}/sqrt(4 pi t) + e^{-t/4}/2."""
    t, shape = t_array(t, "cusp_term")
    damp = np.exp(-t / 4.0)
    out = (-parabolic_p(t) / math.pi
           - math.log(2.0) * damp / np.sqrt(4.0 * math.pi * t) + damp / 2.0)
    return _shaped(out, shape)


@dataclass(frozen=True)
class CuspFamily:
    """One finite Dirichlet cut height a_j >= 1 per cusp."""

    starts: tuple

    def __post_init__(self):
        starts = tuple(float(a) for a in self.starts)
        object.__setattr__(self, "starts", starts)
        if not starts:
            raise DomainError("CuspFamily needs at least one cusp")
        if not all(math.isfinite(a) and a >= 1.0 for a in starts):
            raise DomainError("cusp start heights must be finite and >= 1")

    @property
    def log_sum(self):
        return sum(math.log(a) for a in self.starts)


def cut_height_term(cusp_starts, t):
    """e^{-t/4}/sqrt(4 pi t) * sum_j log a_j, the trace of the model
    operators cut at 1 minus those cut at the heights a_j (criterion 1)."""
    t, shape = t_array(t, "cut_height_term")
    out = np.exp(-t / 4.0) / np.sqrt(4.0 * math.pi * t) * cusp_starts.log_sum
    return _shaped(out, shape)


def check_cusp_count(surface, cusp_starts):
    """Refuse cusp_starts unless it holds one cut height per cusp of the
    surface; the spectrum is not needed, so a caller can check before the
    walk."""
    if surface.cusps != len(cusp_starts.starts):
        raise DomainError("%d cut heights for a surface with %d cusps"
                          % (len(cusp_starts.starts), surface.cusps))


def heat_trace_columns(spectrum, cusp_starts, t):
    """The four terms of the geometric-side relative heat trace of the
    spectrum's surface against the reference model operator with cut
    heights cusp_starts, each of the shape of t: identity_term,
    hyperbolic_trace, m cusp_term(t) and cut_height_term.
    """
    surface = spectrum.surface
    check_cusp_count(surface, cusp_starts)
    return (identity_term(surface.area, t),  # refuses a bad t first
            hyperbolic_trace(spectrum, t),
            surface.cusps * cusp_term(t), cut_height_term(cusp_starts, t))


def relative_heat_trace(spectrum, cusp_starts, t):
    """theta(t), the sum of :func:`heat_trace_columns`."""
    return sum(heat_trace_columns(spectrum, cusp_starts, t))

