"""Model cusp operators on [a, inf) x S^1: cut heights and heat kernel.

The model operator with Dirichlet condition at y = a acts on the zero
Fourier mode of the cusp; its heat kernel is an explicit difference of
Gaussians in log y.  A single model operator is not trace class; the
trace of the difference of two, cut at a and at 1, is the cut-height
column of the relative heat trace (trace_terms.cut_height_term).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["CuspFamily", "cusp_heat_kernel"]


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
