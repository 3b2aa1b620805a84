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
only the expansion remainder, the mid-range integral and the tail's E1
integral int_{t_max}^inf e^{-mu t}/t dt are quadratures, plus, in
relative_determinant, the model columns' share of [1, inf) on a fixed
grid of 120 Kronrod nodes.
"""

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import specfun, trace_terms
from .errors import (
    DomainError,
    ExpansionMismatchError,
    OverflowRangeError,
    TailFitError,
    TruncationError,
)

__all__ = [
    "ZetaResult", "RelativeDeterminantResult",
    "mellin_zeta_prime0", "xi_prime0", "identity_zeta_prime0",
    "relative_determinant",
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
        if not (self.small_t_error >= 0 and self.large_t_error >= 0):
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


# samples of theta on the last decade for the tail fit
_TAIL_POINTS = 8
# narrowest tail-fit window [1, t_max]; a decay fitted a few ulps wide is
# rounding noise (the sphere's zeta'(0) reads -5.3623 at t_max = 1 + 2^-52
# and -5.4665 from 1 + 1e-12 on)
_TAIL_MIN_WIDTH = 1e-9
# widest window: the tail fit sums the squares of its samples
_TAIL_MAX_T = math.sqrt(sys.float_info.max / _TAIL_POINTS)


def _check_window(t_max):
    """Refuse a t_max outside [1 + _TAIL_MIN_WIDTH, _TAIL_MAX_T] or NaN."""
    if not (math.isfinite(t_max) and t_max - 1.0 >= _TAIL_MIN_WIDTH):
        raise DomainError("t_max must be finite and >= 1 + %g"
                          % _TAIL_MIN_WIDTH)
    if t_max > _TAIL_MAX_T:
        raise DomainError("t_max must be <= %.3g" % _TAIL_MAX_T)


def _tail_estimate(theta, h, t_max, min_decay):
    """Fit C e^{-mu t} on the last decade and integrate the tail at s=0.

    Returns (tail_value, tail_error).  A tail already below the noise
    floor contributes zero.
    """
    ts = np.geomspace(max(1.0, t_max / 10.0), t_max, _TAIL_POINTS)
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
    mu = 0.0 - slope  # a flat fit reads mu = 0, not -0
    if mu <= min_decay:
        raise TailFitError(
            "fitted large-t decay mu=%.4g is not above the required "
            "threshold %.4g" % (mu, min_decay))
    resid = float(np.max(np.abs(logy - (slope * ts + intercept))))
    c = math.copysign(math.exp(intercept), ys[0])
    # int_{t_max}^inf e^{-mu t}/t dt, computed by quadrature
    e1, _ = specfun.integrate(lambda u: np.exp(-mu * u) / u, t_max,
                              np.inf, abs_tol=1e-16)
    tail = c * e1
    return tail, abs(tail) * max(resid, 0.05)


def mellin_zeta_prime0(theta, terms, h, t_max, min_decay=0.2):
    """zeta'(0) and determinant exp(-zeta'(0)) of a trace function.

    theta: array-valued callable t -> Tr(relative heat operator); it is
    called once per 15-node quadrature panel with the panel's nodes and
    must return an array of their shape.
    terms: declared small-t expansion of theta as (alpha, k, c) terms
    c t^alpha (log t)^k (trace_terms.expansion_value); their order and
    repeats do not matter, and the alpha = 0 terms may carry no log.
    h: large-t limit of theta (dimension of the kernel difference).
    t_max: end of the numerically trusted window, within
    [1 + _TAIL_MIN_WIDTH, _TAIL_MAX_T].
    min_decay: lower bound demanded of the fitted tail decay rate.
    """
    _check_window(t_max)

    if any(a == 0.0 and k > 0 for a, k, _ in terms):
        raise DomainError("the alpha = 0 term may not carry a log factor")

    # analytic Mellin images of the declared terms at s = 0
    analytic = np.euler_gamma * (sum(c for a, _, c in terms if a == 0.0) - h)
    for a, k, c in terms:
        if a != 0.0:
            analytic += c * (-1.0) ** k * math.factorial(k) / a ** (k + 1)

    # one theta call for the probes: the remainder at probe_hi and
    # probe_lo, and the scale theta(1)
    probe_hi, probe_lo = 1e-2, 1e-3
    probes = np.array([probe_hi, probe_lo, 1.0])
    theta_probes = np.asarray(theta(probes), dtype=float)
    if theta_probes.shape != probes.shape:
        raise DomainError("theta must return an array of the shape of t")
    r_hi, r_lo, _ = theta_probes - trace_terms.expansion_value(terms, probes)
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

    # small-t remainder integral int_0^1 R(t)/t dt with t = u^2
    small, small_err = specfun.integrate(
        lambda u: (theta(u * u) - trace_terms.expansion_value(terms, u * u))
        * 2.0 / u, 0.0, 1.0, max_subdivisions=4000)

    mid, mid_err = specfun.integrate(lambda t: (theta(t) - h) / t, 1.0,
                                     t_max, max_subdivisions=4000)

    tail, tail_err = _tail_estimate(theta, h, t_max, min_decay)

    zp = analytic + small + mid + tail
    return ZetaResult(zp, small_err, mid_err + tail_err)


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


# zeta'(-1) = -0.16542114370045092921..., the nearest double
_ZETA_PRIME_M1 = -0.16542114370045093


def identity_zeta_prime0(area):
    """zeta'(0) of trace_terms.identity_term(area, t): -(area/2pi)
    (2 zeta'(-1) - 1/4 + log(2 pi)/2), the constant of D'Hoker-Phong
    (CMP 1986) and Sarnak (CMP 1987)."""
    return -area / (2.0 * math.pi) * (
        2.0 * _ZETA_PRIME_M1 - 0.25 + 0.5 * math.log(2.0 * math.pi))


def _integral_from_one(f):
    """int_1^inf f(t)/t dt for f = O(e^{-t/4}) on 8 doubling Kronrod
    panels [2^j, 2^{j+1}]; past 256, e^{-t/4} < 1.6e-28.  Built per call:
    arrays kept at import move the commands' peak resident set."""
    t, w = specfun.kronrod_grid(2.0 ** np.arange(9))
    return float((w / t) @ f(t))


# ----------------------------------------------------------------------
# relative determinant of a surface
# ----------------------------------------------------------------------

def max_t_for_cutoff(cutoff, eps_trunc):
    """Largest trusted t for a spectrum truncated at the given length;
    eps_trunc must be a normal double below 1, or 1/eps_trunc overflows."""
    if not sys.float_info.min <= eps_trunc < 1.0:
        raise DomainError("eps_trunc must be a normal double in (0, 1)")
    return cutoff * cutoff / (4.0 * math.log(1.0 / eps_trunc))


def check_t_max(cutoff, t_max, eps_trunc):
    """Refuse a t_max the engine refuses, or one past max_t_for_cutoff
    with the cutoff it needs; a caller can check before the walk."""
    bound = max_t_for_cutoff(cutoff, eps_trunc)
    _check_window(t_max)
    if t_max > bound:
        need = math.sqrt(4.0 * t_max * math.log(1.0 / eps_trunc))
        raise TruncationError(
            "t_max=%.3g exceeds the trusted window %.3g for cutoff %.3g; "
            "a cutoff of at least %.3g is required"
            % (t_max, bound, cutoff, need))


def relative_determinant(spectrum, cusp_starts, t_max, eps_trunc):
    """Relative determinant of the Laplacian of the spectrum's surface
    against the reference cusp model, through the Mellin engine.

    The engine sees theta only from t = 1 on and its geodesic column
    below 1, which vanishes there faster than any power; the other
    columns' share of (0, 1) is their exact zeta'(0) less their integral
    over [1, inf), since zeta'(0) is linear in theta.

    The truncated length spectrum only represents the heat trace up to
    t_max <= cutoff^2 / (4 log(1/eps_trunc)); beyond that the missing
    geodesics would contribute more than eps_trunc through the Gaussian
    factor, and the call is refused with the required cutoff.
    """
    check_t_max(spectrum.cutoff, t_max, eps_trunc)

    def theta(t):
        return np.piecewise(t, [t < 1.0], [
            lambda s: trace_terms.hyperbolic_trace(spectrum, s),
            lambda s: trace_terms.relative_heat_trace(
                spectrum, cusp_starts, s)])

    surface = spectrum.surface
    zeta = mellin_zeta_prime0(theta, (), float(surface.components), t_max)
    model = (identity_zeta_prime0(surface.area) + xi_prime0(surface.cusps)
             - 0.5 * cusp_starts.log_sum) - _integral_from_one(
        lambda t: (trace_terms.identity_term(surface.area, t)
                   + surface.cusps * trace_terms.cusp_term(t)
                   + trace_terms.cut_height_term(cusp_starts, t)))
    zeta = replace(zeta, zeta_prime_zero=zeta.zeta_prime_zero + model)
    det_hyp = zeta.determinant / math.exp(-xi_prime0(surface.cusps))
    return RelativeDeterminantResult(zeta=zeta, det_hyp=det_hyp)
