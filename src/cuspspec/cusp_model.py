"""Model cusp operators on [a, inf) x S^1 and their exact heat traces.

The model operator with Dirichlet condition at y = a acts on the zero
Fourier mode of the cusp; its heat kernel is an explicit difference of
Gaussians in log y.  Only traces of *differences* of two model operators
are exposed: a single model operator is not trace class.
"""

import math
from dataclasses import dataclass, field

from .errors import DomainError

__all__ = ["CuspFamily", "cusp_heat_kernel", "relative_cusp_trace"]


@dataclass(frozen=True)
class CuspFamily:
    """One finite Dirichlet cut height a_j >= 1 per cusp."""

    starts: tuple = field(default_factory=tuple)

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
    Dirichlet extension by zero).
    """
    if not (math.isfinite(a) and a >= 1.0):
        raise DomainError("cut height a must be finite and >= 1")
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError("cusp_heat_kernel requires a finite t > 0")
    if not (math.isfinite(y) and math.isfinite(yp) and y > 0.0 and yp > 0.0):
        raise DomainError("cusp_heat_kernel requires finite y, y' > 0")
    if y <= a or yp <= a:
        return 0.0
    pref = math.exp(-t / 4.0) / math.sqrt(4.0 * math.pi * t)
    u = math.log(y / yp)
    v = math.log(y * yp) - 2.0 * math.log(a)
    return (pref * math.sqrt(y * yp)
            * (math.exp(-u * u / (4.0 * t)) - math.exp(-v * v / (4.0 * t))))


def relative_cusp_trace(a, t):
    """Tr(e^{-t D_a} - e^{-t D_1}) = -(4 pi t)^{-1/2} e^{-t/4} log a.

    Closed form for the trace of the difference of the two Dirichlet
    model heat operators with cuts at a and at 1; linear in log a.
    """
    if not (math.isfinite(a) and a >= 1.0):
        raise DomainError("cut height a must be finite and >= 1")
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError("relative_cusp_trace requires a finite t > 0")
    return -math.exp(-t / 4.0) / math.sqrt(4.0 * math.pi * t) * math.log(a)

