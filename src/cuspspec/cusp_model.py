"""Model cusp machinery of acceptance criteria 1-3.

cusp_heat_kernel: the Dirichlet model operator on [a, inf) x S^1 on the
zero Fourier mode; the trace of the difference of two, cut at a and at
1, is trace_terms.cut_height_term.  n2_symbol: the cusp
Dirichlet-to-Neumann multipliers on the Fourier modes of the circle at
height beta, a ratio of scaled Bessel K values (bessel_k_scaled, by
Steed's continued fraction).  ScatteringModel: a synthetic scattering
determinant, whose scattering integral equals its closed-form resonance
sum (scattering_integral vs scattering_erfc_sum).
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError, PoleError, QuadratureError

__all__ = [
    "cusp_heat_kernel", "bessel_k_scaled", "n2_symbol", "n2_zero_symbol",
    "ScatteringModel", "phi_log_deriv", "scattering_integral",
    "scattering_erfc_sum", "model_from_json",
]


def cusp_heat_kernel(a, y, yp, t):
    """Heat kernel p_a(y, y', t) of the Dirichlet model cusp operator.

    p_a(y,y',t) = e^{-t/4}/sqrt(4 pi t) * sqrt(y y')
                  * (e^{-(log(y/y'))^2/4t} - e^{-(log(y y'/a^2))^2/4t})

    for y, y' > a, and identically 0 once either point lies at or below
    the cut height a (the kernel vanishes there together with the
    Dirichlet extension by zero).  y and y' are scalars (a float out) or
    arrays of one shape (an array of that shape out).
    """
    if not (math.isfinite(a) and a >= 1.0):
        raise DomainError("cut height a must be finite and >= 1")
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError("cusp_heat_kernel requires a finite t > 0")
    y, yp = np.asarray(y, dtype=float), np.asarray(yp, dtype=float)
    if y.shape != yp.shape:
        raise DomainError("cusp_heat_kernel requires y, y' of one shape")
    if not np.all(np.isfinite(y) & np.isfinite(yp) & (y > 0.0) & (yp > 0.0)):
        raise DomainError("cusp_heat_kernel requires finite y, y' > 0")
    pref = math.exp(-t / 4.0) / math.sqrt(4.0 * math.pi * t)
    u = np.log(y / yp)
    v = np.log(y * yp) - 2.0 * math.log(a)
    out = np.where((y > a) & (yp > a), pref * np.sqrt(y * yp) * (
        np.exp(-u * u / (4.0 * t)) - np.exp(-v * v / (4.0 * t))), 0.0)
    return float(out) if out.ndim == 0 else out


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


def n2_zero_symbol(n, beta):
    """Mode-n eigenvalue 2 pi |n| beta^2 of the model operator beta*sqrt(Laplacian)
    on the circle of circumference 1/beta; n must be an integer."""
    if not float(n).is_integer():
        raise DomainError("Fourier mode n must be an integer, got %r" % (n,))
    if not (math.isfinite(beta) and beta >= 1.0):
        raise DomainError("n2_zero_symbol requires a finite beta >= 1")
    return 2.0 * math.pi * abs(n) * beta * beta


def n2_symbol(s, n, beta):
    """Multiplier of Fourier mode n under the cusp DtN at real parameter s.

    For n != 0:  -s + 2 pi |n| beta^2 * K_{s+1/2}(x)/K_{s-1/2}(x) with
    x = 2 pi |n| beta^2.  For n = 0 the harmonic extension is an explicit
    power of y and the multiplier is s-1 for s > 1/2, -s for s < 1/2;
    at s = 1/2 the zero mode has no decaying extension and the call is
    refused.  A non-integer n is refused by n2_zero_symbol, and for
    n != 0 so is |s| > 49.5, whose Bessel orders |s +- 1/2| pass 50.
    """
    if not (math.isfinite(beta) and beta >= 1.0):
        raise DomainError("n2_symbol requires a finite beta >= 1")
    s = float(s)
    if not math.isfinite(s):
        raise DomainError("n2_symbol requires a finite s")
    if n == 0:
        if s > 0.5:
            return s - 1.0
        if s < 0.5:
            return -s
        raise DomainError("mode 0 has no DtN multiplier on the critical line")
    x = n2_zero_symbol(n, beta)
    if abs(s) > 49.5:
        raise DomainError("n2_symbol requires |s| <= 49.5 for a mode n != 0, "
                          "got s = %r" % (s,))
    # K_{-nu} = K_nu; scaled values cancel the e^{-x} factor so large x
    # (big |n| or beta) stays representable, and e^x K_nu(x) > 0 there
    return -s + x * (bessel_k_scaled(abs(s + 0.5), x)
                     / bessel_k_scaled(abs(s - 0.5), x))


@dataclass(frozen=True)
class ScatteringModel:
    """Synthetic determinant of the scattering matrix.

    phi(s) = +-q^{s-1/2} * prod_rho ((s-1+conj(rho))/(s-rho))^{n(rho)}

    resonances: list of (rho, order) with Re rho < 1/2, closed under
    conjugation with equal orders so phi is real on the real axis.  The
    sign phi(1/2) = +-1 drops out of phi'/phi and is not stored.
    """

    resonances: tuple
    q: float

    def __post_init__(self):
        if not all(isinstance(r, numbers.Complex) for r, _ in self.resonances):
            raise DomainError("resonances must be numbers")
        if not all(isinstance(n, numbers.Real) and float(n).is_integer()
                   for _, n in self.resonances):
            raise DomainError("resonance orders must be integers")
        res = tuple((complex(r), int(n)) for r, n in self.resonances)
        object.__setattr__(self, "resonances", res)
        if not (isinstance(self.q, numbers.Real) and math.isfinite(self.q)
                and self.q > 0.0):
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


# tolerances of the scattering integral, which scatter-check prints
SCATTERING_ABS_TOL, SCATTERING_REL_TOL = 1e-12, 1e-11
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

    half, _ = specfun.integrate(f, 0.0, np.inf,
                                abs_tol=SCATTERING_ABS_TOL,
                                rel_tol=SCATTERING_REL_TOL,
                                max_subdivisions=4000)
    # + 0.0: an integral that underflows to zero is +0, not -0
    return -1.0 / (4.0 * math.pi) * 2.0 * half + 0.0


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


def model_from_json(obj):
    """ScatteringModel from a parsed --model file; a missing key or a
    field that is not a number (a JSON boolean included) raises
    DomainError, as the model's own checks do.  Keys other than q and
    resonances are ignored."""

    def number(v):  # Python reads true as 1; a model file does not
        if isinstance(v, bool):
            raise TypeError("a boolean is not a number")
        return v

    try:
        return ScatteringModel(
            resonances=[(complex(number(r["re"]), number(r["im"])),
                         number(r["order"])) for r in obj["resonances"]],
            q=float(number(obj["q"])))
    except DomainError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError("malformed scattering model: %s: %s"
                          % (type(exc).__name__, exc)) from None
