"""Spectral invariants of finite-area hyperbolic surfaces with cusps.

The API is the modules, imported by path: specfun (quadrature and
special functions), cusp_model (the model cusp heat kernel,
Dirichlet-to-Neumann symbols and synthetic scattering model of
acceptance criteria 1-3), fuchsian (groups and length spectra),
trace_terms (the relative heat trace, its terms and the cut heights),
zeta_engine (zeta-regularized determinants), degeneration (pinching
sweeps), cli (command-line front end and every output format).
"""

__version__ = "0.1.0"
