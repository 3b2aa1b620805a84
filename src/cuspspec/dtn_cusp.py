"""Cusp part of the Dirichlet-to-Neumann operator and the determinant
splitting identity.

The cusp DtN acts diagonally on Fourier modes of the separating circle at
height beta.  For mode n != 0 the multiplier is a ratio of modified Bessel
functions; the zero mode reduces to an explicit one-dimensional ODE whose
multiplier is s-1 on one side of the critical line and -s on the other.
"""

import math
from dataclasses import dataclass

from . import specfun
from .errors import DomainError, SingularityError

__all__ = ["SplitInputs", "n2_symbol", "n2_zero_symbol", "splitting_det"]


@dataclass(frozen=True)
class SplitInputs:
    """Externally supplied factors of the determinant splitting identity.

    det_compact and det_cusp_modes come from the compact core and the
    nonzero cusp modes; detstar_R is the modified determinant of the DtN
    difference.  None of these are computable at this level; they are
    opaque positive inputs.
    """

    det_compact: float
    det_cusp_modes: float
    detstar_R: float
    area: float
    boundary_length: float

    def __post_init__(self):
        for name in ("det_compact", "det_cusp_modes", "detstar_R",
                     "area", "boundary_length"):
            if getattr(self, name) <= 0.0:
                raise DomainError("SplitInputs.%s must be positive" % name)


def n2_zero_symbol(n, beta):
    """Mode-n eigenvalue 2 pi |n| beta^2 of the model operator beta*sqrt(Laplacian)
    on the circle of circumference 1/beta."""
    if beta < 1.0:
        raise DomainError("n2_zero_symbol requires beta >= 1")
    return 2.0 * math.pi * abs(n) * beta * beta


def _k_ratio_real(nu_plus, nu_minus, x):
    """K_{nu_plus}(x) / K_{nu_minus}(x) for real orders, scaled evaluation."""
    # K_{-nu} = K_nu; scaled values cancel the e^{-x} factor so large x
    # (big |n| or beta) stays representable
    kp = specfun.bessel_k_scaled(abs(nu_plus), x)
    km = specfun.bessel_k_scaled(abs(nu_minus), x)
    if km == 0.0:
        raise SingularityError("K_{s-1/2}(%g) vanished" % x)
    return kp / km


def n2_symbol(s, n, beta):
    """Multiplier of Fourier mode n under the cusp DtN at parameter s.

    For n != 0:  -s + 2 pi |n| beta^2 * K_{s+1/2}(x)/K_{s-1/2}(x) with
    x = 2 pi |n| beta^2.  For n = 0 the harmonic extension is an explicit
    power of y and the multiplier is s-1 for Re s > 1/2, -s for Re s < 1/2;
    on the critical line the zero mode has no decaying extension and the
    call is refused.
    """
    if beta < 1.0:
        raise DomainError("n2_symbol requires beta >= 1")
    s = complex(s)
    if n == 0:
        if s.real > 0.5:
            out = s - 1.0
        elif s.real < 0.5:
            out = -s
        else:
            raise DomainError(
                "mode 0 has no DtN multiplier on the critical line")
        return out if s.imag != 0.0 else out.real
    x = n2_zero_symbol(n, beta)
    if s.imag == 0.0:
        ratio = _k_ratio_real(s.real + 0.5, s.real - 0.5, x)
        return -s.real + x * ratio
    if abs(s.imag) > 10.0:
        raise DomainError("n2_symbol limited to |Im s| <= 10")
    kp = specfun.bessel_k_complex_order(s + 0.5, x)
    km = specfun.bessel_k_complex_order(s - 0.5, x)
    if abs(km) < 1e-280:
        raise SingularityError("K_{s-1/2} vanished at s=%s, x=%g" % (s, x))
    return -s + x * kp / km


def splitting_det(inputs):
    """Assembled relative determinant from the splitting identity:

    det = (area / boundary_length) * detstar_R * det_compact * det_cusp_modes.

    Exactly multiplicative in each factor.
    """
    return (inputs.area / inputs.boundary_length
            * inputs.detstar_R * inputs.det_compact * inputs.det_cusp_modes)
