"""Additive terms of the trace formula and the assembled relative heat trace.

Geometric side: identity term (area times the hyperbolic plane heat kernel
on the diagonal), hyperbolic term (sum over closed geodesics), parabolic
term P(t), and the cusp cut-height correction.  The synthetic scattering
model supplies the spectral-side counterpart through its resonance set.

The central cross-check of this module is the identity between the
scattering integral and its closed-form resonance sum
(:func:`scattering_integral` vs :func:`scattering_erfc_sum`).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .errors import DomainError, PoleError
from .specfun import QuadratureSpec

__all__ = [
    "ScatteringModel",
    "identity_term", "hyperbolic_trace",
    "P_EXPANSION", "expansion_value",
    "parabolic_p", "cusp_term",
    "phi_log_deriv", "scattering_integral", "scattering_erfc_sum",
    "cut_height_term", "heat_trace_columns", "relative_heat_trace",
    "cusp_term_expansion", "heat_trace_expansion", "model_from_json",
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


@dataclass(frozen=True)
class ScatteringModel:
    """Synthetic determinant of the scattering matrix.

    phi(s) = +-q^{s-1/2} * prod_rho ((s-1+conj(rho))/(s-rho))^{n(rho)}

    resonances: list of (rho, order) with Re rho < 1/2, closed under
    conjugation with equal orders so phi is real on the real axis.  The
    sign phi(1/2) = +-1 drops out of phi'/phi and is not stored.
    """

    resonances: tuple = field(default_factory=tuple)
    q: float = 1.0

    def __post_init__(self):
        res = tuple((complex(r), int(n)) for r, n in self.resonances)
        object.__setattr__(self, "resonances", res)
        if not (math.isfinite(self.q) and self.q > 0.0):
            raise DomainError("ScatteringModel.q must be finite and positive")
        bag = {}
        for rho, n in res:
            if n == 0:
                raise DomainError("resonance orders must be nonzero")
            if not (math.isfinite(rho.real) and math.isfinite(rho.imag)):
                raise DomainError("resonances must be finite")
            if rho.real >= 0.5:
                raise DomainError("resonances must satisfy Re rho < 1/2")
            key = (round(rho.real, 9), round(abs(rho.imag), 9))
            bag[key] = bag.get(key, 0) + (n if rho.imag >= 0 else -n)
        if any(v != 0 for k, v in bag.items() if k[1] != 0):
            raise DomainError(
                "resonances must be closed under conjugation with "
                "equal orders")


# Every trace term takes t as a scalar or an array: a scalar returns a
# float, an array returns an array of the same shape.

# elements per block of the ragged (row, k) sums below
_BLOCK = 1 << 18


# t range of the trace terms: below it area/(4 pi t) overflows, above it
# t lam^2 and 16 pi t do (every term is 0 in double from t = 3000 on)
_T_RANGE = (1e-300, 1e300)


def _t_array(t, name):
    """t as a flat float array plus its original shape; trace terms
    require finite t > 0, within _T_RANGE."""
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


def _ragged_blocks(counts, block=_BLOCK):
    """Yield (row, k) index arrays of at most `block` entries that
    together run through k = 1..counts[row] for every row."""
    ends = np.cumsum(counts)
    starts = ends - counts
    for lo in range(0, int(ends[-1]), block):
        pos = np.arange(lo, min(lo + block, int(ends[-1])))
        row = np.searchsorted(ends, pos, side="right")
        yield row, pos - starts[row] + 1


# int_0^inf e^{-t lam^2} lam/(e^{2 pi lam} + 1) dlam on one composite
# 15-point Kronrod grid shared by every t.  The panels are graded towards
# lam = 0, where the Gaussian concentrates at large t; beyond 7.2 the
# Fermi factor is below e^{-45}.
_FERMI_EDGES = (0.0, 0.04, 0.08, 0.13, 0.2, 0.3, 0.45, 0.65, 0.9, 1.2,
                1.6, 2.1, 2.8, 3.6, 4.6, 5.8, 7.2)
_FERMI_LAM, _FERMI_W = specfun.kronrod_grid(_FERMI_EDGES)
_FERMI_W = _FERMI_W * _FERMI_LAM / (np.exp(2.0 * math.pi * _FERMI_LAM) + 1.0)
_FERMI_LAM2 = _FERMI_LAM * _FERMI_LAM


def identity_term(area, t):
    """(area/4pi) * int_R e^{-t(1/4+lam^2)} lam tanh(pi lam) dlam.

    With tanh(pi lam) = 1 - 2/(e^{2 pi lam} + 1) this is
    (area/4pi) e^{-t/4} [1/t - 4 int_0^inf e^{-t lam^2} lam/(e^{2 pi lam}+1)
    dlam]; the remaining integral decays like e^{-2 pi lam} and runs on
    the fixed grid above.
    """
    if not (math.isfinite(area) and area > 0.0):
        raise DomainError("identity_term requires finite area > 0")
    t, shape = _t_array(t, "identity_term")
    fermi = np.exp(-np.multiply.outer(t, _FERMI_LAM2)) @ _FERMI_W
    out = area / (4.0 * math.pi) * np.exp(-t / 4.0) * (1.0 / t - 4.0 * fermi)
    return _shaped(out, shape)


def hyperbolic_trace(spectrum, t):
    """Geodesic sum e^{-t/4}/sqrt(16 pi t) * sum_k sum_gamma
    mult * l / sinh(k l / 2) * e^{-(k l)^2 / 4t}.

    The k-sum is cut where the Gaussian factor at the largest t
    certifies a relative tail below 1e-18; for short geodesics with
    tiny l this pushes k far out, so terms are evaluated in the
    overflow-safe form 2 l e^{-k l/2} / (1 - e^{-k l}).  The weights
    mult * 2 l / (1 - e^{-k l}) of every (class, k) pair are contracted
    against e^{-k l/2 - (k l)^2/4t} in blocks of bounded size.
    """
    t, shape = _t_array(t, "hyperbolic_trace")
    entries = spectrum.entries
    total = np.zeros_like(t)
    if entries:
        ell = np.array([e.length for e in entries])
        mult = np.array([e.mult for e in entries], dtype=float)
        # (k_max * ell)^2 / 4t >= 43 log(10) certifies the Gaussian tail;
        # beyond t = 3000 the prefactor e^{-t/4} is zero in double precision
        t_top = min(float(t.max()), 3000.0)
        k_max = np.ceil(2.0 * math.sqrt(43.0 * math.log(10.0) * t_top)
                        / ell).astype(np.int64) + 1
        four_t = (4.0 * t)[:, None]
        for row, k in _ragged_blocks(k_max, max(1, _BLOCK // t.size)):
            x = k * ell[row]
            w = mult[row] * 2.0 * ell[row] / (-np.expm1(-x))
            total += np.exp(-0.5 * x - x * x / four_t) @ w
    out = np.exp(-t / 4.0) / np.sqrt(16.0 * math.pi * t) * total
    return _shaped(out, shape)


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
    double precision for integer s >= 3 and a >= 11 (vectorized in a)."""
    out = a ** (1.0 - s) / (s - 1.0) + 0.5 * a ** (-s)
    rising = float(s)  # s (s+1) ... (s+2j-2)
    power = a ** (-s - 1.0)
    for j, weight in enumerate(_EM_WEIGHTS):
        out = out + weight * rising * power
        rising *= (s + 2 * j + 1) * (s + 2 * j + 2)
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
    t, shape = _t_array(t, "parabolic_p")
    small = t < _SERIES_MIN_T
    out = np.empty_like(t)
    if np.any(small):
        out[small] = expansion_value(P_EXPANSION, t[small])
    if not np.all(small):
        out[~small] = _parabolic_series(t[~small])
    return _shaped(out, shape)


def _parabolic_series(t):
    rt = np.sqrt(t)
    n_direct = np.ceil(12.0 / rt).astype(np.int64) + 10
    series = np.zeros_like(t)
    for row, n in _ragged_blocks(n_direct):
        x = n * rt[row]
        f = _SQRT_PI / (2.0 * x) - 0.5 * math.pi * specfun.erfcx(x).real
        series += np.bincount(row, weights=f, minlength=t.size)
    # summand ~ -(sqrt(pi)/2) sum_m c_m x^{-(2m+1)} for x > 12
    tail = np.zeros_like(t)
    for m, c in enumerate(_ERFCX_ASYMPTOTIC, start=1):
        s = 2 * m + 1
        tail += c * rt ** (-s) * _hurwitz_zeta(s, n_direct + 1.0)
    series -= 0.5 * _SQRT_PI * tail
    return 2.0 * np.exp(-t / 4.0) * (
        -np.euler_gamma * _SQRT_PI / (2.0 * rt) + series)


def cusp_term(t):
    """Parabolic contribution of one cusp to the relative heat trace,
    -P(t)/pi - log(2) e^{-t/4}/sqrt(4 pi t) + e^{-t/4}/2."""
    t, shape = _t_array(t, "cusp_term")
    damp = np.exp(-t / 4.0)
    out = (-parabolic_p(t) / math.pi
           - math.log(2.0) * damp / np.sqrt(4.0 * math.pi * t) + damp / 2.0)
    return _shaped(out, shape)


def phi_log_deriv(model, s):
    """phi'/phi(s) = log q + sum n(rho) [1/(s-1+conj(rho)) - 1/(s-rho)].

    s is a complex scalar (complex result) or an array (complex array of
    its shape).
    """
    s = np.asarray(s, dtype=complex)
    out = np.full_like(s, math.log(model.q))
    for rho, n in model.resonances:
        zero = 1.0 - np.conj(rho)
        if np.any((np.abs(s - rho) < 1e-12) | (np.abs(s - zero) < 1e-12)):
            raise PoleError("phi'/phi evaluated at a pole or zero")
        out += n * (1.0 / (s - zero) - 1.0 / (s - rho))
    return complex(out) if s.ndim == 0 else out


# tolerances of the scattering integral
SCATTERING_SPEC = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11,
                                 max_subdivisions=4000)
# the scattering identity's t range: the integral drifts below, 0 = 0 above
_SCATTER_T = (1e-20, 3000.0)


def scattering_integral(model, t):
    """-(1/4pi) int_R e^{-(1/4+lam^2)t} phi'/phi(1/2 + i lam) dlam.

    For a conjugation-closed model the integrand's real part is even and
    its imaginary part odd, so twice the half-line real part suffices.
    """
    if not _SCATTER_T[0] <= t <= _SCATTER_T[1]:
        raise DomainError("scattering_integral: t outside [%g, %g]"
                          % _SCATTER_T)
    for rho, _ in model.resonances:
        if abs(rho.real - 0.5) < 1e-9:
            raise DomainError("resonance on the critical line")

    def f(lam):
        return (np.exp(-(0.25 + lam * lam) * t)
                * np.real(phi_log_deriv(model, 0.5 + 1j * lam)))

    half = specfun.integrate(f, 0.0, np.inf, spec=SCATTERING_SPEC).value
    return -1.0 / (4.0 * math.pi) * 2.0 * half


def scattering_erfc_sum(model, t):
    """Resonance-sum form of the scattering integral:

    -log(q) e^{-t/4} / sqrt(16 pi t)
      + (1/4) sum_rho n(rho) { e^{-t rho(1-rho)} Erfc(sqrt(t)(1/2-rho))
                             + (conjugate term) }.

    Each summand is evaluated in the scaled form
    e^{-t/4} erfcx(sqrt(t)(1/2-rho)), which is exact (the two exponents
    differ by exactly t(1/2-rho)^2) and free of overflow for resonances
    far left of the critical line.
    """
    if not _SCATTER_T[0] <= t <= _SCATTER_T[1]:
        raise DomainError("scattering_erfc_sum: t outside [%g, %g]"
                          % _SCATTER_T)
    rt = math.sqrt(t)
    damp = math.exp(-t / 4.0)
    out = -math.log(model.q) * damp / math.sqrt(16.0 * math.pi * t)
    acc = 0.0 + 0.0j
    for rho, n in model.resonances:
        acc += n * (specfun.erfcx(rt * (0.5 - rho))
                    + specfun.erfcx(rt * (0.5 - np.conj(rho))))
    return out + 0.25 * damp * acc.real


def cut_height_term(cusp_starts, t):
    """e^{-t/4}/sqrt(4 pi t) * sum_j log a_j, the trace of the model
    operators cut at 1 minus those cut at the heights a_j (criterion 1)."""
    t, shape = _t_array(t, "cut_height_term")
    out = np.exp(-t / 4.0) / np.sqrt(4.0 * math.pi * t) * cusp_starts.log_sum
    return _shaped(out, shape)


def heat_trace_columns(spectrum, cusp_starts, t):
    """The four terms of the geometric-side relative heat trace of the
    spectrum's surface against the reference model operator with cut
    heights cusp_starts, each of the shape of t: identity_term,
    hyperbolic_trace, m cusp_term(t) and cut_height_term.
    """
    surface = spectrum.surface
    if surface.cusps != len(cusp_starts.starts):
        raise DomainError("%d cut heights for a surface with %d cusps"
                          % (len(cusp_starts.starts), surface.cusps))
    return (identity_term(surface.area, t),  # refuses a bad t first
            hyperbolic_trace(spectrum, t),
            surface.cusps * cusp_term(t), cut_height_term(cusp_starts, t))


def relative_heat_trace(spectrum, cusp_starts, t):
    """theta(t), the sum of :func:`heat_trace_columns`."""
    return sum(heat_trace_columns(spectrum, cusp_starts, t))


def _gaussian_expansion(x):
    """x e^{-t/4}/sqrt(4 pi t) through O(sqrt(t)) as (alpha, k, c) terms."""
    return ((-0.5, 0, x / (2.0 * _SQRT_PI)), (0.5, 0, -x / (8.0 * _SQRT_PI)))


def cusp_term_expansion():
    """Small-t expansion of :func:`cusp_term` as (alpha, k, c) terms: the
    half-integer powers of -P_EXPANSION/pi, then the log 2 Gaussian; the
    integer ones cancel e^{-t/4}/2 = 1/2 - t/8 + ... exactly."""
    return (tuple((a, k, -c / math.pi) for a, k, c in P_EXPANSION if a % 1.0)
            + _gaussian_expansion(-math.log(2.0)))


def heat_trace_expansion(surface, cusp_starts):
    """Small-t expansion of :func:`relative_heat_trace` as (alpha, k, c)
    terms, column by column and unmerged (the Mellin engine sums repeated
    powers): the heat coefficients of the identity term, the cut-height
    Gaussian, and m copies of :func:`cusp_term_expansion`; the geodesic
    sum is exponentially small and contributes nothing.
    """
    area = surface.area
    return (
        # identity term: (area/4pi)(1/t - 1/3 + t/15 + ...)
        (-1.0, 0, area / (4.0 * math.pi)),
        (0.0, 0, -area / (12.0 * math.pi)),
        (1.0, 0, area / (60.0 * math.pi)),
        *_gaussian_expansion(cusp_starts.log_sum),
        *((a, k, surface.cusps * c) for a, k, c in cusp_term_expansion()))


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def model_from_json(obj):
    """ScatteringModel from a parsed --model file; a missing key, a
    non-numeric field or a fractional order raises DomainError.  Keys
    other than q and resonances are ignored."""
    try:
        res = []
        for r in obj["resonances"]:
            if r["order"] != int(r["order"]):
                raise ValueError("fractional order %r" % r["order"])
            res.append((complex(r["re"], r["im"]), int(r["order"])))
        q = float(obj["q"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError("malformed scattering model: %s: %s"
                          % (type(exc).__name__, exc)) from None
    return ScatteringModel(resonances=res, q=q)
