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
from dataclasses import dataclass

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
    "ExpansionDescriptor", "ZetaResult", "RelativeDeterminantResult",
    "mellin_zeta_prime0", "xi_prime0", "relative_determinant",
]



@dataclass(frozen=True)
class ExpansionDescriptor:
    """Small-t expansion sum_j c_j t^{alpha_j} (log t)^{k_j} of a trace
    function, plus its large-t constant h (dimension of the kernel
    difference)."""

    terms: tuple
    h: float = 0.0

    def __post_init__(self):
        terms = tuple((float(a), int(k), float(c)) for a, k, c in self.terms)
        object.__setattr__(self, "terms", terms)
        seen = set()
        prev_alpha = -math.inf
        for a, k, c in terms:
            if k < 0:
                raise DomainError("log powers must be >= 0")
            if a == 0.0 and k > 0:
                raise DomainError(
                    "the alpha = 0 term may not carry a log factor")
            if (a, k) in seen:
                raise DomainError("duplicate (alpha, k) expansion term")
            if a < prev_alpha:
                raise DomainError("expansion exponents must be sorted")
            seen.add((a, k))
            prev_alpha = a

    def evaluate(self, t):
        """Sum of the declared terms at t (vectorized)."""
        return trace_terms.expansion_value(self.terms, t)

    @property
    def constant_term(self):
        for a, k, c in self.terms:
            if a == 0.0:
                return c
        return 0.0


@dataclass(frozen=True)
class ZetaResult:
    zeta_prime_zero: float
    determinant: float
    small_t_error: float
    large_t_error: float

    def __post_init__(self):
        if self.small_t_error < 0 or self.large_t_error < 0:
            raise DomainError("error estimates must be >= 0")
        expected = math.exp(-self.zeta_prime_zero)
        if not math.isfinite(expected) or expected <= 0:
            raise OverflowRangeError("determinant not representable")
        if abs(self.determinant - expected) > 1e-12 * expected:
            raise DomainError("determinant must equal exp(-zeta_prime_zero)")

    @classmethod
    def from_zeta_prime(cls, zp, small_err, large_err):
        return cls(zp, math.exp(-zp), small_err, large_err)


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


def mellin_zeta_prime0(theta, expansion, t_max, t_lo=0.0, min_decay=0.2):
    """zeta'(0) and determinant exp(-zeta'(0)) of a trace function.

    theta: array-valued callable t -> Tr(relative heat operator); it is
    called once per 15-node quadrature panel with the panel's nodes and
    must return an array of their shape.
    expansion: declared small-t behavior of theta plus the constant h.
    t_max: end of the numerically trusted window (finite, >= 1).
    t_lo: optional positive cut below which the expansion remainder is
    not evaluated numerically, for a theta whose remainder is lost to
    cancellation as t -> 0 (a surface trace of order area/(4 pi t)
    minus its expansion leaves rounding noise of that order); the
    dropped piece is bounded from the local power of the remainder and
    charged to small_t_error.
    min_decay: lower bound demanded of the fitted tail decay rate.
    """
    if not (math.isfinite(t_max) and t_max >= 1.0):
        raise DomainError("t_max must be finite and >= 1")
    if not 0.0 <= t_lo < 1.0:
        raise DomainError("t_lo must lie in [0, 1)")
    h = expansion.h

    # analytic Mellin images of the declared terms at s = 0
    analytic = np.euler_gamma * (expansion.constant_term - h)
    for a, k, c in expansion.terms:
        if a != 0.0:
            analytic += c * (-1.0) ** k * math.factorial(k) / a ** (k + 1)

    def remainder(t):
        return theta(t) - expansion.evaluate(t)

    # one theta call for the probes: the remainder at probe_hi and
    # probe_lo, the scale theta(1) and the remainder at the cut t_lo
    probe_hi = 1e-2
    probe_lo = max(1e-3, 2.0 * t_lo) if t_lo > 0 else 1e-3
    probes = np.array([probe_hi, probe_lo, 1.0, t_lo if t_lo > 0 else 1.0])
    theta_probes = np.asarray(theta(probes), dtype=float)
    if theta_probes.shape != probes.shape:
        raise DomainError("theta must return an array of the shape of t")
    r_hi, r_lo, _, r_cut = theta_probes - expansion.evaluate(probes)
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
        return remainder(u * u) * 2.0 / u

    small = integrate(small_integrand, u_lo, 1.0, spec=_MELLIN_SPEC)
    small_err = small.error
    if t_lo > 0.0:
        # charge the dropped piece int_0^{t_lo} |R|/t ~ |R(t_lo)|/p
        small_err += abs(r_cut) / 0.5

    mid = integrate(lambda t: (theta(t) - h) / t, 1.0, t_max,
                    spec=_MELLIN_SPEC)

    tail, tail_err = _tail_estimate(theta, h, t_max, min_decay)

    zp = analytic + small.value + mid.value + tail
    return ZetaResult.from_zeta_prime(zp, small_err,
                                      mid.error + tail_err)


def xi_prime0(num_cusps):
    """m trace_terms.CUSP_CONSTANT, rounded once as -(3m/2) log 2 (m times
    the rounded constant puts 5.6e-16 into e^{-3c} = 2^{9/2})."""
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


def relative_determinant(surface, spectrum, cusp_starts, t_max,
                         eps_trunc=0.02):
    """Relative determinant of the surface Laplacian against the
    reference cusp model, through the Mellin engine.

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

    def theta(t):
        return trace_terms.relative_heat_trace(
            surface, spectrum, cusp_starts, t)

    expansion = ExpansionDescriptor(
        trace_terms.heat_trace_expansion(surface, cusp_starts),
        h=float(surface.components))
    # the identity term's area/(4 pi t) cancels against the expansion in
    # floating point; without the cut the remainder at t = 1e-9 reads
    # 6e-8 and the small-t integral does not converge
    zeta = mellin_zeta_prime0(theta, expansion, t_max, t_lo=1e-3)
    det_hyp = zeta.determinant / math.exp(-xi_prime0(surface.cusps))
    return RelativeDeterminantResult(zeta=zeta, det_hyp=det_hyp)

