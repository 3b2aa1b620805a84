import math

import numpy as np
import pytest

from cuspspec import specfun
from cuspspec.cusp_model import CuspFamily, cusp_heat_kernel
from cuspspec.errors import DomainError
from cuspspec.trace_terms import cut_height_term


def _trace_by_quadrature(a, t):
    """int_1^inf (p_a - p_1)(y, y, t) y^-2 dy, split at the kink y = a."""

    def integrand(y):
        return (cusp_heat_kernel(a, y, y, t)
                - cusp_heat_kernel(1.0, y, y, t)) / (y * y)

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

    def test_array_matches_scalars(self):
        y = np.array([[1.2, 1.5, 2.0], [3.0, 7.0, 40.0]])
        yp = np.array([[3.0, 1.6, 2.0], [1.4, 9.0, 41.0]])
        out = cusp_heat_kernel(1.5, y, yp, 0.7)
        assert out.shape == y.shape
        # a point at or below the cut gives 0, the others the scalar value
        assert out[0, 0] == out[0, 1] == out[1, 0] == 0.0
        one = cusp_heat_kernel(1.5, 7.0, 9.0, 0.7)
        assert isinstance(one, float) and one > 0.0 and out[1, 1] == one
        assert out[1, 2] == cusp_heat_kernel(1.5, 40.0, 41.0, 0.7)

    def test_domain_errors(self):
        for args in [(0.5, 2.0, 2.0, 1.0), (1.5, 2.0, 2.0, 0.0),
                     (1.5, -1.0, 2.0, 1.0), (math.nan, 2.0, 2.0, 1.0),
                     (1.0, 2.0, 2.0, math.nan), (math.inf, 2.0, 2.0, 1.0),
                     (1.0, 2.0, 2.0, math.inf), (1.0, math.nan, 2.0, 1.0),
                     (1.0, 2.0, math.inf, 1.0),
                     (1.0, np.array([2.0, -1.0]), np.array([2.0, 2.0]), 1.0),
                     (1.0, np.array([2.0, 3.0]), np.array([2.0]), 1.0)]:
            with pytest.raises(DomainError):
                cusp_heat_kernel(*args)


def _relative_trace(a, t):
    """Tr(e^{-t D_a} - e^{-t D_1}): minus theta's cut-height column for
    the one height a."""
    return -cut_height_term(CuspFamily((a,)), t)


class TestRelativeTrace:
    def test_matches_quadrature(self):
        # spot combination; the full 3x3 grid runs in the acceptance suite
        a, t = 2.0, 1.0
        assert abs(_trace_by_quadrature(a, t) - _relative_trace(a, t)) < 1e-8

    def test_linear_in_log_a(self):
        t = 0.7
        v2 = _relative_trace(2.0, t)
        v4 = _relative_trace(4.0, t)
        assert abs(v4 - 2.0 * v2) < 1e-14
        both = cut_height_term(CuspFamily((2.0, 2.0)), t)
        assert abs(both - cut_height_term(CuspFamily((4.0,)), t)) < 1e-14

    def test_zero_at_reference_cut(self):
        assert _relative_trace(1.0, 3.0) == 0.0

    def test_closed_form_value(self):
        a, t = math.e, 2.0
        ref = -math.exp(-0.5) / math.sqrt(8.0 * math.pi)
        assert abs(_relative_trace(a, t) - ref) < 1e-15

    def test_domain_errors(self):
        for a, t in [(0.9, 1.0), (2.0, -1.0), (math.nan, 1.0),
                     (2.0, math.nan), (math.inf, 1.0), (2.0, math.inf)]:
            with pytest.raises(DomainError):
                _relative_trace(a, t)


class TestCuspFamily:
    def test_log_sum(self):
        fam = CuspFamily((1.0, math.e, math.e ** 2))
        assert abs(fam.log_sum - 3.0) < 1e-14

    def test_validation(self):
        with pytest.raises(DomainError):
            CuspFamily(())
        with pytest.raises(DomainError):
            CuspFamily((0.5,))
