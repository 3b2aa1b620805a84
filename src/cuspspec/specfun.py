"""Special functions and adaptive quadrature used throughout the package.

Everything here is self-contained on top of numpy: complex digamma
(Stirling plus recurrence), the scaled complementary error function
erfcx (Faddeeva rational approximation), modified Bessel K of real
order, and a deterministic adaptive Gauss-Kronrod integrator with a
double-exponential substitution for infinite ranges.

All routines raise typed errors from :mod:`cuspspec.errors` instead of
returning NaN.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    OverflowRangeError,
    PoleError,
    QuadratureError,
)

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "integrate",
    "kronrod_grid",
    "digamma",
    "erfcx",
    "bessel_k",
    "BESSEL_K_CROSSOVER",
]

_EULER_GAMMA = 0.5772156649015329

# ----------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature
# ----------------------------------------------------------------------

# 15-point Kronrod nodes/weights with embedded 7-point Gauss rule
# (QUADPACK dqk15 constants).
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767,
    0.3818300505051189, 0.4179591836734694,
])

# full symmetric node/weight vectors, ordered left to right
_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_WK_FULL = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_WG_FULL = np.zeros(15)
_WG_FULL[1:14:2] = np.concatenate([_WG[:3], [_WG[3]], _WG[2::-1]])


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for :func:`integrate`."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise DomainError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error: float


def _gk15(g, a, b):
    """One Gauss-Kronrod panel on [a, b]; returns (integral, error, resabs)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _NODES
    fx = np.asarray(g(x))
    ik = half * np.sum(_WK_FULL * fx)
    ig = half * np.sum(_WG_FULL * fx)
    resabs = abs(half) * float(np.sum(_WK_FULL * np.abs(fx)))
    # QUADPACK-style error rescaling based on deviation from the mean
    mean = ik / (b - a)
    resasc = abs(half) * float(np.sum(_WK_FULL * np.abs(fx - mean)))
    diff = abs(ik - ig)
    if resasc != 0.0 and diff != 0.0:
        err = resasc * min(1.0, (200.0 * diff / resasc) ** 1.5)
    else:
        err = diff
    return ik, err, resabs


def _wrap_integrand(f):
    """Integrands are array-valued: one call per panel on all 15 nodes."""

    def g(x):
        y = np.asarray(f(x))
        if y.shape != x.shape:
            raise DomainError(
                "integrand must return an array of the node shape %s, "
                "got shape %s" % (x.shape, y.shape))
        return y

    return g


def kronrod_grid(edges):
    """Nodes and weights of the composite 15-point Kronrod rule on the
    panels between consecutive edges."""
    edges = np.asarray(edges, dtype=float)
    a = edges[:-1, None]
    b = edges[1:, None]
    half = 0.5 * (b - a)
    return ((0.5 * (a + b) + half * _NODES).ravel(),
            (half * _WK_FULL).ravel())


def _transformed(f, a, b):
    """Map f on (a, b) to an integrand on a finite interval in u.

    Infinite ranges go through a double-exponential substitution
    truncated at |u| = 4.
    """
    a_inf = math.isinf(a)
    b_inf = math.isinf(b)
    if not a_inf and not b_inf:
        return f, a, b

    if a_inf and b_inf:
        # x = sinh(2 sinh u); truncation at |u|=4 reaches |x| ~ 2.6e23
        def g(u):
            sh = 2.0 * np.sinh(u)
            return f(np.sinh(sh)) * 2.0 * np.cosh(u) * np.cosh(sh)
        return g, -4.0, 4.0

    if a_inf:
        # reflect (-inf, b) to (-b, inf)
        return _transformed(lambda x: f(-x), -b, math.inf)

    # x = a + exp(2 sinh u); |u|<=4 spans x-a in [2e-24, 5e23]
    def g(u):
        w = np.exp(2.0 * np.sinh(u))
        return f(a + w) * 2.0 * np.cosh(u) * w
    return g, -4.0, 4.0


def integrate(f, a, b, spec=None):
    """Adaptive Gauss-Kronrod integral of f over (a, b).

    Endpoints may be +-inf; infinite ranges go through a
    double-exponential substitution.  Returns a
    :class:`QuadratureResult`; raises :class:`QuadratureError`
    (carrying the best estimate) if the tolerance cannot be met within
    the subdivision budget.
    """
    if spec is None:
        spec = QuadratureSpec()
    if a == b:
        return QuadratureResult(0.0, 0.0)
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    g, lo, hi = _transformed(_wrap_integrand(f), a, b)

    val, err, _ = _gk15(g, lo, hi)
    heap = [(-err, lo, hi, val, err)]
    total = val
    total_err = err
    for _ in range(spec.max_subdivisions):
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            return QuadratureResult(sign * total, total_err)
        neg_err, ia, ib, ival, ierr = heapq.heappop(heap)
        im = 0.5 * (ia + ib)
        v1, e1, _ = _gk15(g, ia, im)
        v2, e2, _ = _gk15(g, im, ib)
        total += (v1 + v2) - ival
        total_err += (e1 + e2) - ierr
        heapq.heappush(heap, (-e1, ia, im, v1, e1))
        heapq.heappush(heap, (-e2, im, ib, v2, e2))
    if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
        return QuadratureResult(sign * total, total_err)
    raise QuadratureError(
        "adaptive quadrature did not converge within %d subdivisions "
        "(achieved %.3e)" % (spec.max_subdivisions, total_err),
        estimate=sign * total,
        achieved=total_err,
    )


# ----------------------------------------------------------------------
# digamma
# ----------------------------------------------------------------------

# B_{2n}/(2n) for the Stirling series of digamma
_STIRLING_PSI = [
    1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0,
    1.0 / 132.0, -691.0 / 32760.0, 1.0 / 12.0,
]
_SHIFT_RADIUS = 16.0


def _is_nonpositive_int(z):
    zr = np.real(z)
    zi = np.imag(z)
    return (zi == 0) & (zr <= 0) & (zr == np.round(zr))


def _cot_pi(z):
    """cot(pi z) with the real part reduced mod 1 to keep sin/cos tame."""
    zr = np.real(z) - np.floor(np.real(z))
    w = np.pi * (zr + 1j * np.imag(z))
    return np.cos(w) / np.sin(w)


def digamma(z):
    """Digamma function for complex scalars or arrays.

    Reflection into Re z >= 0.5, recurrence out to |z| >= 16, then the
    Stirling series.  Scalars in, scalar out.
    """
    z_in = np.asarray(z, dtype=complex)
    scalar = z_in.ndim == 0
    z_arr = np.atleast_1d(z_in).copy()
    if np.any(_is_nonpositive_int(z_arr)):
        raise PoleError("digamma pole at nonpositive integer")
    reflected = z_arr.real < 0.5
    w = np.where(reflected, 1.0 - z_arr, z_arr)
    acc = np.zeros_like(w)
    small = np.abs(w) < _SHIFT_RADIUS
    while np.any(small):
        acc[small] += 1.0 / w[small]
        w[small] += 1.0
        small = np.abs(w) < _SHIFT_RADIUS
    w2 = 1.0 / (w * w)
    series = np.zeros_like(w)
    p = w2.copy()
    for c in _STIRLING_PSI:
        series += c * p
        p *= w2
    out = np.log(w) - 0.5 / w - series - acc
    if np.any(reflected):
        out[reflected] -= np.pi * _cot_pi(z_arr[reflected])
    return complex(out[0]) if scalar else out.reshape(z_in.shape)


# ----------------------------------------------------------------------
# complementary error function (Faddeeva / Weideman)
# ----------------------------------------------------------------------

def _weideman_coeffs(n):
    """Taylor coefficients of the Faddeeva rational approximation."""
    m = 2 * n
    ell = math.sqrt(n / math.sqrt(2.0))
    k = np.arange(-m + 1, m)
    t = ell * np.tan(k * math.pi / (2 * m))
    fvals = np.concatenate([[0.0], np.exp(-t * t) * (ell * ell + t * t)])
    a = np.real(np.fft.fft(np.fft.fftshift(fvals))) / (2 * m)
    return ell, a[1:n + 1][::-1]


_FADDEEVA_N = 64
_FADDEEVA_L, _FADDEEVA_A = _weideman_coeffs(_FADDEEVA_N)


def _faddeeva_upper(z):
    """w(z) = e^{-z^2} erfc(-iz) for Im z >= 0 (vectorized)."""
    z = np.asarray(z, dtype=complex)
    iz = 1j * z
    zz = (_FADDEEVA_L + iz) / (_FADDEEVA_L - iz)
    p = np.polynomial.polynomial.polyval(zz, _FADDEEVA_A[::-1])
    return (2.0 * p / (_FADDEEVA_L - iz) ** 2
            + (1.0 / math.sqrt(math.pi)) / (_FADDEEVA_L - iz))


def erfcx(z):
    """Scaled complementary error function e^{z^2} erfc(z), complex z.

    Scalars in, complex scalar out; arrays in, complex arrays of the same
    shape out.  The reflection to Re z < 0 multiplies by e^{z^2}, which
    is refused (typed overflow error) once it exceeds the double range.
    """
    z_in = np.asarray(z, dtype=complex)
    left = z_in.real < 0
    zz = np.where(left, z_in * z_in, 0.0)
    if np.any(zz.real > 705.0):
        raise OverflowRangeError(
            "erfcx reflection overflows for z = %s"
            % z_in[zz.real > 705.0].flat[0])
    # erfcx(z) = w(iz) with Im(iz) >= 0 on the right half-plane
    w = _faddeeva_upper(np.where(left, -1j * z_in, 1j * z_in))
    out = np.where(left, 2.0 * np.exp(zz) - w, w)
    return complex(out) if z_in.ndim == 0 else out


# ----------------------------------------------------------------------
# modified Bessel function of the second kind
# ----------------------------------------------------------------------

# Switch between the Temme small-x series and the Steed continued
# fraction; chosen by measuring both against the integral-representation
# oracle (the series loses digits above ~2, the CF below ~2).
BESSEL_K_CROSSOVER = 2.0

_BESSEL_EPS = 1e-16
_BESSEL_MAXIT = 10000


def _temme_pair(mu, x):
    """(K_mu, K_{mu+1}) for |mu| <= 1/2, 0 < x <= crossover (Temme series)."""
    x1 = 0.5 * x
    pimu = math.pi * mu
    fact = pimu / math.sin(pimu) if abs(pimu) > 1e-15 else 1.0
    d = -math.log(x1)
    e = mu * d
    fact2 = math.sinh(e) / e if abs(e) > 1e-15 else 1.0
    if abs(mu) > 1e-5:
        rg_plus = 1.0 / math.gamma(1.0 + mu)
        rg_minus = 1.0 / math.gamma(1.0 - mu)
        gam1 = (rg_minus - rg_plus) / (2.0 * mu)
        gam2 = (rg_minus + rg_plus) / 2.0
    else:
        # Taylor series of 1/Gamma(1 +- mu) around mu = 0
        g = _EULER_GAMMA
        a2 = g * g / 2.0 - math.pi ** 2 / 12.0
        a3 = g ** 3 / 6.0 - g * math.pi ** 2 / 12.0 + 1.2020569031595943 / 3.0
        gam1 = -(g + a3 * mu * mu)
        gam2 = 1.0 + a2 * mu * mu
    gampl = gam2 - mu * gam1  # 1/Gamma(1+mu)
    gammi = gam2 + mu * gam1  # 1/Gamma(1-mu)
    ff = fact * (gam1 * math.cosh(e) + gam2 * fact2 * d)
    total = ff
    e2 = math.exp(e)
    p = 0.5 * e2 / gampl
    q = 0.5 / (e2 * gammi)
    c = 1.0
    d2 = x1 * x1
    total1 = p
    for i in range(1, _BESSEL_MAXIT):
        ff = (i * ff + p + q) / (i * i - mu * mu)
        c *= d2 / i
        p /= (i - mu)
        q /= (i + mu)
        delta = c * ff
        total += delta
        total1 += c * (p - i * ff)
        if abs(delta) < abs(total) * _BESSEL_EPS:
            return total, total1 * 2.0 / x
    raise QuadratureError("Temme series for K failed to converge")


def _steed_pair(mu, x):
    """e^x (K_mu, K_{mu+1}) for |mu| <= 1/2, x > crossover (Steed CF2)."""
    a1 = 0.25 - mu * mu
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1, q2 = 0.0, 1.0
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, _BESSEL_MAXIT):
        a -= 2 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels / s) < _BESSEL_EPS:
            break
    else:
        raise QuadratureError("Steed continued fraction for K failed")
    h = a1 * h
    kmu = math.sqrt(math.pi / (2.0 * x)) / s
    k1 = kmu * (mu + x + 0.5 - h) / x
    return kmu, k1


def bessel_k(nu, x):
    """Modified Bessel function K_nu(x), real order nu in [0, 50], x in (0, 700)."""
    if x <= 0.0:
        raise DomainError("bessel_k requires x > 0")
    if x >= 700.0:
        raise DomainError("bessel_k limited to x < 700")
    if nu < 0.0 or nu > 50.0:
        raise DomainError("bessel_k limited to 0 <= nu <= 50")
    # refuse where the result would overflow: K_nu ~ Gamma(nu)/2 (2/x)^nu
    if nu > 1.0:
        log_est = math.lgamma(nu) - math.log(2.0) + nu * math.log(2.0 / x)
        if log_est > 705.0:
            raise OverflowRangeError(
                "K_%g(%g) exceeds the double range" % (nu, x))
    return math.exp(-x) * bessel_k_scaled(nu, x)


def bessel_k_scaled(nu, x):
    """e^x K_nu(x) for real order; usable far beyond the e^{-x} underflow."""
    if x <= 0.0:
        raise DomainError("bessel_k_scaled requires x > 0")
    if nu < 0.0 or nu > 50.0:
        raise DomainError("bessel_k_scaled limited to 0 <= nu <= 50")
    n = int(nu + 0.5)
    mu = nu - n  # mu in [-1/2, 1/2]
    if x <= BESSEL_K_CROSSOVER:
        kmu, kmu1 = _temme_pair(mu, x)
        scale = math.exp(x)
        kmu, kmu1 = kmu * scale, kmu1 * scale
    else:
        kmu, kmu1 = _steed_pair(mu, x)
    for j in range(n):
        kmu, kmu1 = kmu1, kmu + 2.0 * (mu + j + 1.0) / x * kmu1
        if kmu1 > 1e300:
            raise OverflowRangeError(
                "scaled K recurrence overflow at nu=%g, x=%g" % (nu, x))
    return kmu
