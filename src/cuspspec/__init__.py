"""Spectral invariants of finite-area hyperbolic surfaces with cusps.

The API is the modules, imported by path: specfun (quadrature and
special functions), cusp_model (model heat kernels on a cusp), dtn_cusp
(Dirichlet-to-Neumann symbols), fuchsian (groups and length spectra),
trace_terms (the relative heat trace, its terms and its small-t
expansion), zeta_engine (zeta-regularized determinants), degeneration
(pinching sweeps), cli (command-line front end and every output format).
"""

__version__ = "0.1.0"
