"""Special functions and adaptive quadrature used throughout the package.

Everything here is self-contained on top of numpy: complex digamma
(Stirling plus recurrence), the scaled complementary error function
erfcx on the right half-plane (Faddeeva rational approximation), and a
deterministic adaptive Gauss-Kronrod integrator from a finite lower
limit, with a double-exponential substitution for [a, inf).

All routines raise typed errors from :mod:`cuspspec.errors` instead of
returning NaN.
"""

import heapq
import math

import numpy as np

from .errors import DomainError, PoleError, QuadratureError

__all__ = [
    "integrate",
    "kronrod_grid",
    "digamma",
    "erfcx",
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


def _gk15(f, lo, hi, origin):
    """One Gauss-Kronrod panel on [lo, hi]; returns (integral, error).

    The one place the integrand f is called: on the panel's 15 nodes,
    or, for an origin a, on x = a + exp(2 sinh u) at the nodes u, times
    that substitution's Jacobian.  f must return an array of the nodes'
    shape.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    x = u = mid + half * _NODES
    if origin is not None:
        w = np.exp(2.0 * np.sinh(u))
        x = origin + w
    fx = np.asarray(f(x))
    if fx.shape != x.shape:
        raise DomainError(
            "integrand must return an array of the node shape %s, "
            "got shape %s" % (x.shape, fx.shape))
    if origin is not None:
        fx = fx * 2.0 * np.cosh(u) * w
    ik = half * np.sum(_WK_FULL * fx)
    ig = half * np.sum(_WG_FULL * fx)
    # QUADPACK-style error rescaling based on deviation from the mean
    mean = ik / (hi - lo)
    resasc = abs(half) * float(np.sum(_WK_FULL * np.abs(fx - mean)))
    diff = abs(ik - ig)
    if resasc != 0.0 and diff != 0.0:
        err = resasc * min(1.0, (200.0 * diff / resasc) ** 1.5)
    else:
        err = diff
    return ik, err


def kronrod_grid(edges):
    """Nodes and weights of the composite 15-point Kronrod rule on the
    panels between consecutive edges."""
    edges = np.asarray(edges, dtype=float)
    a = edges[:-1, None]
    b = edges[1:, None]
    half = 0.5 * (b - a)
    return ((0.5 * (a + b) + half * _NODES).ravel(),
            (half * _WK_FULL).ravel())


def integrate(f, a, b, *, abs_tol=1e-10, rel_tol=1e-10,
              max_subdivisions=2000):
    """Adaptive Gauss-Kronrod integral of a real f over (a, b).

    a must be finite and a <= b; b may be +inf, which goes through the
    double-exponential substitution x = a + exp(2 sinh u), |u| <= 4
    (x - a in [2e-24, 5e23]).  Returns (value, error estimate).  Raises
    :class:`QuadratureError` once the running total or its error
    estimate is not finite, or when the tolerance is not met within
    max_subdivisions (that message gives the error estimate reached, no
    value).
    """
    if abs_tol <= 0 or rel_tol <= 0:
        raise DomainError("quadrature tolerances must be positive")
    if max_subdivisions < 1:
        raise DomainError("max_subdivisions must be >= 1")
    if not (math.isfinite(a) and a <= b):
        raise DomainError("integrate requires a finite a <= b, got "
                          "(%r, %r)" % (a, b))
    if a == b:
        return 0.0, 0.0
    lo, hi, origin = (a, b, None) if math.isfinite(b) else (-4.0, 4.0, a)

    val, err = _gk15(f, lo, hi, origin)
    heap = [(-err, lo, hi, val, err)]
    total, total_err = val, err
    while True:
        # no later panel brings back an inf or NaN total or error
        if not (math.isfinite(total) and math.isfinite(total_err)):
            raise QuadratureError(
                "quadrature on (%s, %s) is not finite: total %.3e, "
                "error %.3e" % (a, b, total, total_err))
        if total_err <= max(abs_tol, rel_tol * abs(total)):
            return total, total_err
        if len(heap) > max_subdivisions:  # one panel per subdivision
            raise QuadratureError("adaptive quadrature did not converge "
                                  "within %d subdivisions (achieved %.3e)"
                                  % (max_subdivisions, total_err))
        neg_err, ia, ib, ival, ierr = heapq.heappop(heap)
        im = 0.5 * (ia + ib)
        v1, e1 = _gk15(f, ia, im, origin)
        v2, e2 = _gk15(f, im, ib, origin)
        total += (v1 + v2) - ival
        total_err += (e1 + e2) - ierr
        heapq.heappush(heap, (-e1, ia, im, v1, e1))
        heapq.heappush(heap, (-e2, im, ib, v2, e2))


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

# Weideman's rational approximation to the Faddeeva function w with
# N = 64 terms (SIAM J. Numer. Anal. 31, 1994): L = sqrt(N / sqrt 2) and
# the polynomial's coefficients, highest power first.  Each literal is
# the double that Weideman's FFT construction gives with numpy's FFT
# (tests/test_specfun.py rebuilds it), so no process imports numpy.fft.
_WEIDEMAN_L = 6.727171322029716
_WEIDEMAN_COEFFS = (
    -1.1102230246251565e-16, -1.942890293094024e-16, -1.6653345369377348e-16,
    0.0, -8.326672684688674e-17, 0.0,
    -2.0816681711721685e-16, -2.8449465006019636e-16, -1.1102230246251565e-16,
    -2.0122792321330962e-16, -5.551115123125783e-17, -1.734723475976807e-17,
    0.0, 9.627715291671279e-17, 2.3418766925686896e-17,
    3.165870343657673e-17, 7.654467337747661e-17, 7.03376159399971e-17,
    9.717161970901333e-17, -6.197909481649166e-17, 1.5863825959241615e-16,
    4.865099962770973e-16, -8.855116948707824e-16, -4.417626009263682e-15,
    -2.6578462531507983e-16, 3.288807271621852e-14, 5.911638969536339e-14,
    -1.5497006588478766e-13, -7.920773182343549e-13, -3.9390109339467e-13,
    5.8326306509782436e-12, 1.7501411697665753e-11, -6.470633436423956e-12,
    -1.7560602473733885e-10, -4.5339138480823207e-10, 2.4434796065217287e-10,
    5.186955758228821e-09, 1.5926813974737932e-08, 7.435710901039703e-09,
    -1.361026123703508e-07, -6.650424120290089e-07, -1.554772278284668e-06,
    -7.564244114006555e-08, 1.7901801586069494e-05, 0.00010227006798914739,
    0.0003962745103980934, 0.0012549788049981303, 0.0034602079481075333,
    0.008565381413175907, 0.019380399024538263, 0.04055284652958008,
    0.0791165506760257, 0.14477859973586413, 0.24963969994535562,
    0.4070443030398735, 0.6293868343374367, 0.9249760252638086,
    1.294437751717516, 1.727506085787117, 2.20125657128641,
    2.680732639559084, 3.1224481894020366, 3.480496103985042,
    3.7141697931977022,
)


def _horner(zz):
    """Weideman's polynomial at zz, in place by Horner's rule in
    numpy.polynomial.polynomial.polyval's order, so the values are its
    bits, without importing numpy.polynomial."""
    p = _WEIDEMAN_COEFFS[0] + zz * 0
    for c in _WEIDEMAN_COEFFS[1:]:
        p *= zz
        p += c
    return p


def erfcx(z):
    """Scaled complementary error function e^{z^2} erfc(z) for Re z >= 0.

    Real in, real out: a real scalar gives a float and a real array a
    float array of its shape, equal bit for bit to the real part of the
    complex evaluation.  A complex scalar gives a complex scalar and a
    complex array a complex array.  Every caller stays on the right
    half-plane (n sqrt(t) in P(t), sqrt(t)(1/2 - rho) with Re rho < 1/2
    in the scattering sum), so Re z < 0 is refused, and so are a
    non-finite part and |z| > 1e154, past which (ell + z)^2 overflows.
    """
    z = np.asarray(z)
    real = not np.iscomplexobj(z)
    z = np.asarray(z, dtype=float if real else complex)
    if not np.all(np.isfinite(z) & (z.real >= 0) & (np.abs(z) <= 1e154)):
        raise DomainError("erfcx requires finite z, Re z >= 0, |z| <= 1e154")
    # erfcx(z) = w(iz) for w(u) = e^{-u^2} erfc(-iu), Im u >= 0, whose
    # rational approximation runs in (ell + iu) / (ell - iu), iu = -z
    ell = _WEIDEMAN_L
    den = ell + z
    if real:
        # numpy divides by a complex d + 0j by Smith's method, which
        # rounds as a * (1.0 / d): each real quotient is written so
        p = _horner((ell - z) * (1.0 / den))
        out = ((2.0 * p) * (1.0 / (den * den))
               + (1.0 / math.sqrt(math.pi)) * (1.0 / den))
        return float(out) if z.ndim == 0 else out
    p = _horner((ell - z) / den)
    out = 2.0 * p / den ** 2 + (1.0 / math.sqrt(math.pi)) / den
    return complex(out) if z.ndim == 0 else out
