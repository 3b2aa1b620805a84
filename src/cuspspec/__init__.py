"""Spectral invariants of finite-area hyperbolic surfaces with cusps.

Subpackages: specfun (quadrature and special functions), cusp_model
(model heat kernels on a cusp), dtn_cusp (Dirichlet-to-Neumann symbols),
fuchsian (groups and length spectra), trace_terms (heat trace pieces),
zeta_engine (zeta-regularized determinants), degeneration (pinching
sweeps), cli (command-line front end).
"""

__version__ = "0.1.0"

from .cusp_model import CuspFamily, cusp_heat_kernel, relative_cusp_trace
from .dtn_cusp import n2_symbol, n2_zero_symbol
from .fuchsian import (
    GroupPresentation,
    LengthSpectrum,
    Mobius,
    SpectrumEntry,
    SurfaceData,
    builtin_group,
    enumerate_length_spectrum,
)
from .trace_terms import (
    ScatteringModel,
    hyperbolic_trace,
    identity_term,
    parabolic_p,
    relative_heat_trace,
    scattering_erfc_sum,
    scattering_integral,
)
from .zeta_engine import (
    ExpansionDescriptor,
    ZetaResult,
    max_t_for_cutoff,
    mellin_zeta_prime0,
    relative_determinant,
    surface_expansion,
    xi_prime0,
)
from .degeneration import pinch_sweep, wolpert_asymptotic, wolpert_sum
