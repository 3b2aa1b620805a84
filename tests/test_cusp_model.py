import math

import numpy as np
import pytest

from cuspspec import cusp_model, specfun
from cuspspec.cusp_model import CuspFamily, cusp_heat_kernel
from cuspspec.cusp_model import relative_cusp_trace
from cuspspec.errors import DomainError


def _trace_by_quadrature(a, t):
    """int_1^inf (p_a - p_1)(y, y, t) y^-2 dy, split at the kink y = a."""

    def integrand(y):
        return np.array([
            (cusp_heat_kernel(a, yi, yi, t)
             - cusp_heat_kernel(1.0, yi, yi, t)) / (yi * yi)
            for yi in np.atleast_1d(y)])

    lo = specfun.integrate(integrand, 1.0, a).value
    hi = specfun.integrate(integrand, a, np.inf).value
    return float(lo + hi)


class TestKernel:
    def test_vanishes_at_and_below_cut(self):
        assert cusp_heat_kernel(2.0, 2.0, 3.0, 1.0) == 0.0
        assert cusp_heat_kernel(2.0, 1.5, 3.0, 1.0) == 0.0
        assert cusp_heat_kernel(2.0, 3.0, 1.9, 1.0) == 0.0

    def test_symmetric_in_endpoints(self):
        v1 = cusp_heat_kernel(1.5, 2.0, 5.0, 0.7)
        v2 = cusp_heat_kernel(1.5, 5.0, 2.0, 0.7)
        assert abs(v1 - v2) < 1e-15

    def test_dirichlet_boundary_value(self):
        # kernel tends to 0 as the free point approaches the cut
        eps = 1e-8
        val = cusp_heat_kernel(2.0, 2.0 + eps, 4.0, 1.0)
        assert abs(val) < 1e-6

    def test_positive_on_diagonal(self):
        assert cusp_heat_kernel(1.5, 3.0, 3.0, 0.5) > 0.0

    def test_domain_errors(self):
        for args in [(0.5, 2.0, 2.0, 1.0), (1.5, 2.0, 2.0, 0.0),
                     (1.5, -1.0, 2.0, 1.0), (math.nan, 2.0, 2.0, 1.0),
                     (1.0, 2.0, 2.0, math.nan), (math.inf, 2.0, 2.0, 1.0),
                     (1.0, 2.0, 2.0, math.inf), (1.0, math.nan, 2.0, 1.0),
                     (1.0, 2.0, math.inf, 1.0)]:
            with pytest.raises(DomainError):
                cusp_heat_kernel(*args)


class TestRelativeTrace:
    def test_matches_quadrature(self):
        # spot combination; the full 3x3 grid runs in the acceptance suite
        a, t = 2.0, 1.0
        assert abs(_trace_by_quadrature(a, t)
                   - relative_cusp_trace(a, t)) < 1e-8

    def test_linear_in_log_a(self):
        t = 0.7
        v2 = relative_cusp_trace(2.0, t)
        v4 = relative_cusp_trace(4.0, t)
        assert abs(v4 - 2.0 * v2) < 1e-14

    def test_zero_at_reference_cut(self):
        assert relative_cusp_trace(1.0, 3.0) == 0.0

    def test_closed_form_value(self):
        a, t = math.e, 2.0
        ref = -math.exp(-0.5) / math.sqrt(8.0 * math.pi)
        assert abs(relative_cusp_trace(a, t) - ref) < 1e-15

    def test_domain_errors(self):
        for a, t in [(0.9, 1.0), (2.0, -1.0), (math.nan, 1.0),
                     (2.0, math.nan), (math.inf, 1.0), (2.0, math.inf)]:
            with pytest.raises(DomainError):
                relative_cusp_trace(a, t)


class TestCuspFamily:
    def test_log_sum(self):
        fam = CuspFamily((1.0, math.e, math.e ** 2))
        assert abs(fam.log_sum - 3.0) < 1e-14

    def test_validation(self):
        with pytest.raises(DomainError):
            CuspFamily(())
        with pytest.raises(DomainError):
            CuspFamily((0.5,))
