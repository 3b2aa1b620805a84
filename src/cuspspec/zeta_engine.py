"""Zeta regularization of relative heat traces via the Mellin transform.

The relative zeta function is zeta(s) = (1/Gamma(s)) int_0^inf
(theta(t) - h) t^{s-1} dt.  Near s = 0 write 1/Gamma(s) = s(1 + gamma*s + ...)
and split the integral at t = 1.  On (0, 1] the declared small-t expansion
is subtracted termwise; a term c t^alpha (log t)^k integrates to
c (-1)^k k!/(s+alpha)^{k+1}, so its contribution to zeta'(0) is the value
at s=0 for alpha != 0, while the alpha = 0 constant c0 contributes
gamma*(c0 - h) through the 1/Gamma expansion.  On [1, t_max] the integral
of (theta - h)/t enters directly, and the tail beyond t_max is estimated
from a fitted exponential C e^{-mu t}.

All Gamma-factor bookkeeping is done symbolically before any numerics;
only the expansion remainder and the mid-range integral are quadratures.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import trace_terms
from .errors import (
    DomainError,
    ExpansionMismatchError,
    OverflowRangeError,
    TailFitError,
    TruncationError,
)
from .specfun import QuadratureSpec, integrate

__all__ = [
    "ZetaResult", "RelativeDeterminantResult",
    "mellin_zeta_prime0", "xi_prime0", "relative_determinant",
]

# log of the largest double: exp(-zeta'(0)) overflows above it
_LOG_MAX_DOUBLE = math.log(sys.float_info.max)


@dataclass(frozen=True)
class ZetaResult:
    """zeta'(0) with the error estimates of its small-t and large-t
    parts; determinant = exp(-zeta'(0)) is derived, not passed."""

    zeta_prime_zero: float
    determinant: float = field(init=False)
    small_t_error: float
    large_t_error: float

    def __post_init__(self):
        if self.small_t_error < 0 or self.large_t_error < 0:
            raise DomainError("error estimates must be >= 0")
        det = (math.exp(-self.zeta_prime_zero)
               if -self.zeta_prime_zero <= _LOG_MAX_DOUBLE else math.inf)
        if not math.isfinite(det) or det <= 0:
            raise OverflowRangeError("determinant not representable")
        object.__setattr__(self, "determinant", det)


@dataclass(frozen=True)
class RelativeDeterminantResult:
    zeta: ZetaResult
    det_hyp: float


# tolerances of the small-t remainder and mid-range integrals
_MELLIN_SPEC = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10,
                              max_subdivisions=4000)
# tolerances of the tail integral int_{t_max}^inf e^{-mu t}/t dt
_TAIL_SPEC = QuadratureSpec(abs_tol=1e-16, rel_tol=1e-10)
# samples of theta on the last decade for the tail fit
_TAIL_POINTS = 8
# narrowest tail-fit window [1, t_max]; a decay fitted a few ulps wide is
# rounding noise (the sphere's zeta'(0) reads -5.3623 at t_max = 1 + 2^-52
# and -5.4665 from 1 + 1e-12 on)
_TAIL_MIN_WIDTH = 1e-9


def _tail_estimate(theta, h, t_max, min_decay):
    """Fit C e^{-mu t} on the last decade and integrate the tail at s=0.

    Returns (tail_value, tail_error).  A tail already below the noise
    floor contributes zero.
    """
    t_lo = max(1.0, t_max / 10.0)
    ts = np.geomspace(t_lo, t_max, _TAIL_POINTS)
    ys = theta(ts) - h
    ay = np.abs(ys)
    if np.max(ay) < 1e-280:
        return 0.0, 0.0
    if np.min(ay) < 1e-290 or len(set(np.sign(ys[ay > 0]))) > 1:
        # sign changes or underflow inside the window: bound by the
        # largest sample decaying at min_decay
        bound = float(np.max(ay)) * math.exp(-min_decay * (t_max - ts[0]))
        return 0.0, bound
    logy = np.log(ay)
    slope, intercept = np.polyfit(ts, logy, 1)
    mu = -slope
    if mu <= min_decay:
        raise TailFitError(
            "fitted large-t decay mu=%.4g is not above the required "
            "threshold %.4g" % (mu, min_decay), fitted_mu=mu)
    resid = float(np.max(np.abs(logy - (slope * ts + intercept))))
    c = math.copysign(math.exp(intercept), ys[0])
    # int_{t_max}^inf e^{-mu t}/t dt, computed by quadrature
    e1 = integrate(lambda u: np.exp(-mu * u) / u, t_max, np.inf,
                   spec=_TAIL_SPEC).value
    tail = c * e1
    return tail, abs(tail) * max(resid, 0.05)


def mellin_zeta_prime0(theta, terms, h, t_max, t_lo=0.0, min_decay=0.2):
    """zeta'(0) and determinant exp(-zeta'(0)) of a trace function.

    theta: array-valued callable t -> Tr(relative heat operator); it is
    called once per 15-node quadrature panel with the panel's nodes and
    must return an array of their shape.
    terms: declared small-t expansion of theta as (alpha, k, c) terms
    c t^alpha (log t)^k (trace_terms.expansion_value); their order and
    repeats do not matter, and the alpha = 0 terms may carry no log.
    h: large-t limit of theta (dimension of the kernel difference).
    t_max: end of the numerically trusted window (finite, at least
    1 + _TAIL_MIN_WIDTH).
    t_lo: optional positive cut below which the expansion remainder is
    not evaluated numerically, for a theta whose remainder is lost to
    cancellation as t -> 0 (a surface trace of order area/(4 pi t)
    minus its expansion leaves rounding noise of that order); the
    dropped piece is bounded from the local power of the remainder and
    charged to small_t_error.
    min_decay: lower bound demanded of the fitted tail decay rate.
    """
    if not (math.isfinite(t_max) and t_max - 1.0 >= _TAIL_MIN_WIDTH):
        raise DomainError("t_max must be finite and >= 1 + %g"
                          % _TAIL_MIN_WIDTH)
    if not 0.0 <= t_lo < 1.0:
        raise DomainError("t_lo must lie in [0, 1)")

    if any(a == 0.0 and k > 0 for a, k, _ in terms):
        raise DomainError("the alpha = 0 term may not carry a log factor")

    # analytic Mellin images of the declared terms at s = 0
    analytic = np.euler_gamma * (sum(c for a, _, c in terms if a == 0.0) - h)
    for a, k, c in terms:
        if a != 0.0:
            analytic += c * (-1.0) ** k * math.factorial(k) / a ** (k + 1)

    # one theta call for the probes: the remainder at probe_hi and
    # probe_lo, the scale theta(1) and the remainder at the cut t_lo
    probe_hi = 1e-2
    probe_lo = max(1e-3, 2.0 * t_lo) if t_lo > 0 else 1e-3
    probes = np.array([probe_hi, probe_lo, 1.0, t_lo if t_lo > 0 else 1.0])
    theta_probes = np.asarray(theta(probes), dtype=float)
    if theta_probes.shape != probes.shape:
        raise DomainError("theta must return an array of the shape of t")
    r_hi, r_lo, _, r_cut = (theta_probes
                            - trace_terms.expansion_value(terms, probes))
    scale = 1.0 + abs(theta_probes[2])
    # remainder decay check: the subtracted theta must vanish with a
    # positive local power as t -> 0
    if abs(r_lo) > 1e-9 * scale:
        p_hat = (math.log(abs(r_hi) / abs(r_lo))
                 / math.log(probe_hi / probe_lo)) if r_hi != 0 else -1.0
        if p_hat <= 0.05:
            raise ExpansionMismatchError(
                "expansion remainder does not vanish towards t=0 "
                "(local power %.3f)" % p_hat)

    # small-t remainder integral int_{t_lo}^1 R(t)/t dt with t = u^2
    u_lo = math.sqrt(t_lo)

    def small_integrand(u):
        t = u * u
        return (theta(t) - trace_terms.expansion_value(terms, t)) * 2.0 / u

    small = integrate(small_integrand, u_lo, 1.0, spec=_MELLIN_SPEC)
    small_err = small.error
    if t_lo > 0.0:
        # charge the dropped piece int_0^{t_lo} |R|/t ~ |R(t_lo)|/p
        small_err += abs(r_cut) / 0.5

    mid = integrate(lambda t: (theta(t) - h) / t, 1.0, t_max,
                    spec=_MELLIN_SPEC)

    tail, tail_err = _tail_estimate(theta, h, t_max, min_decay)

    zp = analytic + small.value + mid.value + tail
    return ZetaResult(zp, small_err, mid.error + tail_err)


def xi_prime0(num_cusps):
    """m c for m cusps, c = -(3/2) log 2 the per-cusp constant (zeta'(0)
    of trace_terms.cusp_term), so det = e^{-m c} det_hyp.  Termwise c =
    -zeta_P'(0)/pi + (log 2)/2 + log 2, zeta_P(s) = int_R (1/4+r^2)^{-s}
    Re psi(1+ir) dr = -B'(s)/2 + H(s), B(s) = sqrt(pi) 2^{2s-1}
    Gamma(s-1/2)/Gamma(s), H the same integral of h(r) = Re psi(1+ir) -
    log(1/4+r^2)/2 = O(r^-2): zeta_P'(0) = 2 pi + H'(0), H'(0) = pi (3 log
    2 - 2) (20-digit mpmath check in the tests, TestCuspConstant).  Rounded
    once as -(3m/2) log 2: m times the rounded c puts 5.6e-16 into e^{-3c}
    = 2^{9/2}."""
    if num_cusps < 0:
        raise DomainError("cusp count must be >= 0")
    return -1.5 * num_cusps * math.log(2.0)


# ----------------------------------------------------------------------
# relative determinant of a surface
# ----------------------------------------------------------------------

def max_t_for_cutoff(cutoff, eps_trunc):
    """Largest trusted t for a spectrum truncated at the given length;
    the truncation tolerance must lie in (0, 1)."""
    if not 0.0 < eps_trunc < 1.0:
        raise DomainError("eps_trunc must lie in (0, 1)")
    return cutoff * cutoff / (4.0 * math.log(1.0 / eps_trunc))


def relative_determinant(spectrum, cusp_starts, t_max, eps_trunc=0.02):
    """Relative determinant of the Laplacian of the spectrum's surface
    against the reference cusp model, through the Mellin engine.

    The truncated length spectrum only represents the heat trace up to
    t_max <= cutoff^2 / (4 log(1/eps_trunc)); beyond that the missing
    geodesics would contribute more than eps_trunc through the Gaussian
    factor, and the call is refused with the required cutoff.
    """
    bound = max_t_for_cutoff(spectrum.cutoff, eps_trunc)
    if t_max > bound:
        need = math.sqrt(4.0 * t_max * math.log(1.0 / eps_trunc))
        raise TruncationError(
            "t_max=%.3g exceeds the trusted window %.3g for cutoff %.3g; "
            "a cutoff of at least %.3g is required"
            % (t_max, bound, spectrum.cutoff, need),
            required_cutoff=need)

    # the identity term's area/(4 pi t) cancels against the expansion in
    # floating point, so the remainder is cut at t = 1e-5.  At cutoff 12,
    # t-max 8 the dropped piece is charged 2.3e-8 on the sphere and
    # 7.7e-9 on torus(3.47), against 1.5e-5 and 5.0e-6 at a cut of 1e-3.
    # A cut of 1e-6 gives -5.535969711006 and -2.203095249203, inside
    # those bars; at 1e-7 the small-t integral fails after 4000
    # subdivisions (8002 theta calls, 370 s on a 2-core Xeon)
    zeta = mellin_zeta_prime0(
        lambda t: trace_terms.relative_heat_trace(spectrum, cusp_starts, t),
        trace_terms.heat_trace_expansion(spectrum.surface, cusp_starts),
        float(spectrum.surface.components), t_max, t_lo=1e-5)
    det_hyp = zeta.determinant / math.exp(-xi_prime0(spectrum.surface.cusps))
    return RelativeDeterminantResult(zeta=zeta, det_hyp=det_hyp)

