"""Pinching degeneration at desk scale.

The log-determinant of a degenerating family is assembled from a fixed
baseline, the cusp constant, Wolpert's series over the pinched
geodesics (in closed form through the modular transformation of
Dedekind's eta), and the synthetic small eigenvalues:

    log_det_estimate = baseline - m*c - wolpert_sum + small_eig_logsum

The unquantified o(1) offset of the underlying limit formula is *not*
folded in; sweeps demonstrate trends (signs and slopes), not absolute
values.
"""

import math
from dataclasses import dataclass, fields

from . import zeta_engine
from .errors import DomainError, OverflowRangeError

__all__ = ["PinchSweepRow", "wolpert_sum", "wolpert_asymptotic",
           "pinch_sweep"]


@dataclass(frozen=True)
class PinchSweepRow:
    ell: float
    wolpert_sum: float
    wolpert_asymptotic: float
    small_eig_logsum: float
    log_det_estimate: float
    baseline: float

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise DomainError("PinchSweepRow.%s must be finite" % f.name)


# below the crossover the nome e^{-4 pi^2/ell} of the eta-transformed
# product is at most e^{-4 pi^2}; above it e^{-ell} <= e^{-1}, and 40
# factors leave a tail below e^{-40} relative
_ETA_CROSSOVER = 1.0
_FACTORS = 40


def _log_euler(x):
    """-log prod_{k>=1} (1 - e^{-k x}) for x >= 1, to _FACTORS factors."""
    return math.fsum(-math.log1p(-math.exp(-k * x))
                     for k in range(1, _FACTORS + 1))


def wolpert_sum(ell):
    """sum_{n>=1} e^{-n ell} / (n (1 - e^{-n ell})) = -log (q; q)_inf.

    With q = e^{-ell} = e^{2 pi i tau}, Dedekind's eta(-1/tau) =
    sqrt(-i tau) eta(tau) gives, below the crossover,

        pi^2/(6 ell) - log(2 pi/ell)/2 - ell/24
            - sum_k log(1 - e^{-4 pi^2 k/ell});

    above it the product itself converges as fast.
    """
    if not (math.isfinite(ell) and ell > 0.0):
        raise DomainError("wolpert_sum requires a finite ell > 0")
    if ell >= _ETA_CROSSOVER:
        return _log_euler(ell)
    total = (math.pi ** 2 / (6.0 * ell)
             + 0.5 * (math.log(ell) - math.log(2.0 * math.pi))
             - ell / 24.0 + _log_euler(4.0 * math.pi ** 2 / ell))
    if not math.isfinite(total):
        raise OverflowRangeError("wolpert_sum(%g) exceeds the double range"
                                 % ell)
    return total


def wolpert_asymptotic(ell):
    """Small-ell form pi^2/(6 ell) + log(1 - e^{-ell})/2."""
    if not 0.0 < ell <= 0.5:
        raise DomainError("wolpert_asymptotic requires 0 < ell <= 0.5")
    return math.pi ** 2 / (6.0 * ell) + 0.5 * math.log(-math.expm1(-ell))


def pinch_sweep(base, pinch_indices, ell_grid, baseline_logdet_hyp_alpha):
    """One PinchSweepRow per value of a nonempty, decreasing ell grid,
    for the surface of the base spectrum.

    The small eigenvalues are synthetic: one eigenvalue ell^2 per pinched
    geodesic.  True small eigenvalues of a degenerating surface require a
    PDE solver; the quadratic rate keeps the +sum(log lambda) term
    subordinate to the Wolpert term.
    """
    grid = [float(x) for x in ell_grid]
    if not grid:
        raise DomainError("ell grid must not be empty")
    if not all(math.isfinite(x) and x > 0 for x in grid):
        raise DomainError("ell grid must be finite and positive")
    if any(b - a <= 0 for a, b in zip(grid[1:], grid[:-1])):
        raise DomainError("ell grid must be decreasing")
    indices = list(pinch_indices)
    for i in indices:
        if not 0 <= i < len(base.entries):
            raise DomainError("pinch index %d out of range" % i)
    num_pinched = sum(base.entries[i].mult for i in indices)
    mc = zeta_engine.xi_prime0(base.surface.cusps)
    rows = []
    for ell in grid:
        eigs = [ell * ell] * num_pinched
        # ell^2 underflows to 0 below ell ~ 2e-162, where its log is -inf
        if any(v <= 0 for v in eigs):
            raise DomainError("small eigenvalues must be positive")
        wsum = num_pinched * wolpert_sum(ell) if indices else 0.0
        wasym = (num_pinched * wolpert_asymptotic(ell)
                 if indices and ell <= 0.5 else 0.0)
        logsum = float(sum(math.log(v) for v in eigs))
        est = baseline_logdet_hyp_alpha - mc - wsum + logsum
        rows.append(PinchSweepRow(ell, wsum, wasym, logsum, est,
                                  baseline_logdet_hyp_alpha))
    return rows
