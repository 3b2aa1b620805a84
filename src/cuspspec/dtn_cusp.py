"""Cusp part of the Dirichlet-to-Neumann operator.

The cusp DtN acts diagonally on Fourier modes of the separating circle at
height beta.  For mode n != 0 the multiplier is a ratio of modified Bessel
functions; the zero mode reduces to an explicit one-dimensional ODE whose
multiplier is s-1 on one side of the critical line and -s on the other.
"""

import math

from . import specfun
from .errors import DomainError

__all__ = ["n2_symbol", "n2_zero_symbol"]


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
    refused.  A non-integer n is refused by n2_zero_symbol.
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
    # K_{-nu} = K_nu; scaled values cancel the e^{-x} factor so large x
    # (big |n| or beta) stays representable, and e^x K_nu(x) > 0 there
    return -s + x * (specfun.bessel_k_scaled(abs(s + 0.5), x)
                     / specfun.bessel_k_scaled(abs(s - 0.5), x))
