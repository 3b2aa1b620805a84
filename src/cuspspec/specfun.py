"""Special functions and adaptive quadrature used throughout the package.

Everything here is self-contained on top of numpy: complex digamma
(Stirling plus recurrence), the scaled complementary error function
erfcx on the right half-plane (Faddeeva rational approximation), the
scaled modified Bessel K of real order for x >= 2 (Steed's continued
fraction), and a deterministic adaptive Gauss-Kronrod integrator from a
finite lower limit, with a double-exponential substitution for [a, inf).

All routines raise typed errors from :mod:`cuspspec.errors` instead of
returning NaN.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError, QuadratureError

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "integrate",
    "kronrod_grid",
    "digamma",
    "erfcx",
    "bessel_k_scaled",
]

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
    value: float
    error: float


def _gk15(g, a, b):
    """One Gauss-Kronrod panel on [a, b]; returns (integral, error)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _NODES
    fx = np.asarray(g(x))
    ik = half * np.sum(_WK_FULL * fx)
    ig = half * np.sum(_WG_FULL * fx)
    # QUADPACK-style error rescaling based on deviation from the mean
    mean = ik / (b - a)
    resasc = abs(half) * float(np.sum(_WK_FULL * np.abs(fx - mean)))
    diff = abs(ik - ig)
    if resasc != 0.0 and diff != 0.0:
        err = resasc * min(1.0, (200.0 * diff / resasc) ** 1.5)
    else:
        err = diff
    return ik, err


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
    """Map f on (a, b), a finite, to an integrand on a finite interval.

    A finite range is kept; [a, inf) goes through a double-exponential
    substitution truncated at |u| = 4.
    """
    if not math.isinf(b):
        return f, a, b

    # x = a + exp(2 sinh u); |u|<=4 spans x-a in [2e-24, 5e23]
    def g(u):
        w = np.exp(2.0 * np.sinh(u))
        return f(a + w) * 2.0 * np.cosh(u) * w
    return g, -4.0, 4.0


def integrate(f, a, b, spec=None):
    """Adaptive Gauss-Kronrod integral of a real f over (a, b).

    a must be finite and a <= b; b may be +inf, which goes through a
    double-exponential substitution.  Returns a
    :class:`QuadratureResult`; raises :class:`QuadratureError`
    (carrying the best estimate) if the tolerance cannot be met within
    the subdivision budget.
    """
    if spec is None:
        spec = QuadratureSpec()
    if not (math.isfinite(a) and a <= b):
        raise DomainError("integrate requires a finite a <= b, got "
                          "(%r, %r)" % (a, b))
    if a == b:
        return QuadratureResult(0.0, 0.0)
    g, lo, hi = _transformed(_wrap_integrand(f), a, b)

    val, err = _gk15(g, lo, hi)
    heap = [(-err, lo, hi, val, err)]
    total = val
    total_err = err
    for _ in range(spec.max_subdivisions):
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            return QuadratureResult(total, total_err)
        neg_err, ia, ib, ival, ierr = heapq.heappop(heap)
        im = 0.5 * (ia + ib)
        v1, e1 = _gk15(g, ia, im)
        v2, e2 = _gk15(g, im, ib)
        total += (v1 + v2) - ival
        total_err += (e1 + e2) - ierr
        heapq.heappush(heap, (-e1, ia, im, v1, e1))
        heapq.heappush(heap, (-e2, im, ib, v2, e2))
    if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
        return QuadratureResult(total, total_err)
    raise QuadratureError(
        "adaptive quadrature did not converge within %d subdivisions "
        "(achieved %.3e)" % (spec.max_subdivisions, total_err))


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
    """cot(pi z) as cos w / sin w, w = pi z with its real part reduced to
    [-pi/2, pi/2] and its imaginary part clipped to [-20, 20]: beyond
    that cot w = -i sign(Im w) to within 2 e^{-40} < eps / 2, while cos w
    and sin w overflow once |Im z| > 226."""
    w = (np.pi * (np.real(z) - np.rint(np.real(z)))
         + 1j * np.clip(np.pi * np.imag(z), -20.0, 20.0))
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
    """Scaled complementary error function e^{z^2} erfc(z) for Re z >= 0.

    Scalars in, complex scalar out; arrays in, complex arrays of the same
    shape out.  Every caller stays on the right half-plane (n sqrt(t) in
    P(t), sqrt(t)(1/2 - rho) with Re rho < 1/2 in the scattering sum),
    so Re z < 0 is refused.
    """
    z_in = np.asarray(z, dtype=complex)
    if not np.all(z_in.real >= 0):
        raise DomainError("erfcx requires Re z >= 0")
    # erfcx(z) = w(iz) with Im(iz) >= 0 on the right half-plane
    out = _faddeeva_upper(1j * z_in)
    return complex(out) if z_in.ndim == 0 else out


# ----------------------------------------------------------------------
# modified Bessel function of the second kind
# ----------------------------------------------------------------------

_BESSEL_EPS = 1e-16
_BESSEL_MAXIT = 10000


def _steed_pair(mu, x):
    """e^x (K_mu, K_{mu+1}) for |mu| <= 1/2, x >= 2 (Steed CF2)."""
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


def bessel_k_scaled(nu, x):
    """e^x K_nu(x) for real order 0 <= nu <= 50 and finite x >= 2.

    Steed's continued fraction gives K_mu and K_{mu+1}, |mu| <= 1/2,
    and the upward recurrence reaches nu.  CF2 loses digits below
    x = 2; the only caller, the cusp DtN symbol, has x = 2 pi |n| beta^2
    >= 2 pi.  On this domain every recurrence value, up to
    e^2 K_51(2) ~ 1.1e65, is far inside the double range.
    """
    if not 2.0 <= x < math.inf:
        raise DomainError("bessel_k_scaled requires finite x >= 2, "
                          "got %r" % (x,))
    if not 0.0 <= nu <= 50.0:
        raise DomainError("bessel_k_scaled limited to 0 <= nu <= 50")
    n = int(nu + 0.5)
    mu = nu - n  # mu in [-1/2, 1/2]
    kmu, kmu1 = _steed_pair(mu, x)
    for j in range(n):
        kmu, kmu1 = kmu1, kmu + 2.0 * (mu + j + 1.0) / x * kmu1
    return kmu
