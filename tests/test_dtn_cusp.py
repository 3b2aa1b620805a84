import math

import pytest

from cuspspec.dtn_cusp import n2_symbol, n2_zero_symbol
from cuspspec.errors import DomainError


class TestZeroModel:
    def test_value(self):
        assert abs(n2_zero_symbol(2, 1.5)
                   - 2.0 * math.pi * 2.0 * 1.5 ** 2) < 1e-14

    def test_mode_sign_independent(self):
        assert n2_zero_symbol(-3, 2.0) == n2_zero_symbol(3, 2.0)

    def test_beta_below_one_rejected(self):
        for beta in (0.9, math.nan, math.inf):
            with pytest.raises(DomainError, match="beta"):
                n2_zero_symbol(1, beta)
            with pytest.raises(DomainError, match="beta"):
                n2_symbol(0.3, 1, beta)


class TestNonzeroModes:
    def test_limits_at_one_and_zero(self):
        for n in (1, 2, 3):
            for beta in (1.0, 1.5, 3.0):
                ref = n2_zero_symbol(n, beta)
                for s in (1.0 + 1e-6, 1.0 - 1e-6, 1e-6, -1e-6):
                    assert abs(n2_symbol(s, n, beta) - ref) < 1e-5 * ref

    def test_error_shrinks_monotonically(self):
        ref = n2_zero_symbol(1, 1.5)
        errs = [abs(n2_symbol(1.0 + eps, 1, 1.5) - ref)
                for eps in (1e-2, 1e-3, 1e-4, 1e-5)]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_large_argument_no_underflow(self):
        # x = 2 pi * 3 * 9 ~ 170 is far past the e^{-x} underflow of the
        # unscaled Bessel product route
        val = n2_symbol(0.7, 3, 3.0)
        assert math.isfinite(val)
        assert abs(val - n2_zero_symbol(3, 3.0)) < 1.0

    @pytest.mark.parametrize("n", [0.5, -1.5, math.nan, math.inf])
    def test_non_integer_mode_refused(self, n):
        # a Fourier mode of the separating circle is an integer
        with pytest.raises(DomainError):
            n2_symbol(0.8, n, 1.2)
        with pytest.raises(DomainError):
            n2_zero_symbol(n, 1.2)

    def test_negative_mode_symmetric(self):
        assert abs(n2_symbol(0.8, -2, 1.2) - n2_symbol(0.8, 2, 1.2)) < 1e-13


class TestZeroMode:
    def test_two_branches(self):
        assert n2_symbol(2.0, 0, 1.5) == 1.0
        assert n2_symbol(0.2, 0, 1.5) == -0.2

    def test_critical_line_refused(self):
        with pytest.raises(DomainError):
            n2_symbol(0.5, 0, 1.5)
        # a non-finite s is refused before any mode's branch is taken
        for s in (math.nan, math.inf, -math.inf):
            for n in (0, 1):
                with pytest.raises(DomainError, match="finite s"):
                    n2_symbol(s, n, 1.5)
