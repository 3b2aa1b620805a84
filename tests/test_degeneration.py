import math

import numpy as np
import pytest

from conftest import wolpert_series
from cuspspec import degeneration, zeta_engine
from cuspspec.degeneration import (
    PinchSweepRow,
    pinch_sweep,
    wolpert_asymptotic,
    wolpert_sum,
)
from cuspspec.errors import DomainError, OverflowRangeError
from cuspspec.fuchsian import builtin_group, enumerate_length_spectrum


class TestWolpertSum:
    def test_matches_extended_precision_oracle(self):
        # rows on both sides of the crossover between the eta-transformed
        # and the direct product
        for ell, n in ((1e-3, 200000), (0.01, 40000), (0.1, 4000),
                       (1.0, 200), (2.0, 100), (6.0, 40), (10.0, 40)):
            mine = wolpert_sum(ell)
            ref = float(wolpert_series(ell, n))
            assert abs(mine - ref) < 1e-10 * abs(ref)

    def test_asymptotic_bounded_difference(self):
        for ell in np.geomspace(1e-4, 1e-1, 10):
            d = abs(wolpert_sum(ell) - wolpert_asymptotic(ell))
            assert d <= 1.0

    def test_monotone_in_ell(self):
        vals = [wolpert_sum(e) for e in (0.01, 0.02, 0.05, 0.1)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(DomainError):
            wolpert_sum(0.0)
        with pytest.raises(DomainError):
            wolpert_sum(math.nan)
        with pytest.raises(DomainError):
            wolpert_sum(math.inf)
        # pi^2/(6 ell) exceeds the double range for subnormal ell
        with pytest.raises(OverflowRangeError):
            wolpert_sum(1e-310)
        with pytest.raises(DomainError):
            wolpert_asymptotic(0.7)


class TestPinchSweep:
    def _base(self):
        return enumerate_length_spectrum(
            builtin_group("thrice-punctured-sphere"), 6.0, 6)

    def test_rows_finite_and_decreasing(self):
        spec = self._base()
        grid = sorted(np.geomspace(1e-3, 1e-1, 8), reverse=True)
        rows = pinch_sweep(spec, [0], grid, 2.0)
        assert len(rows) == len(grid)
        ests = [r.log_det_estimate for r in rows]
        assert all(b < a for a, b in zip(ests, ests[1:]))

    def test_wolpert_contribution_scales_with_multiplicity(self):
        spec = self._base()
        grid = [0.01]
        one = pinch_sweep(spec, [0], grid, 0.0)[0]
        # pinching two classes of the same multiplicity at equal length
        # doubles the Wolpert column exactly
        two = pinch_sweep(spec, [0, 1], grid, 0.0)[0]
        p0 = spec.entries[0].mult
        p1 = spec.entries[1].mult
        assert abs(one.wolpert_sum / p0
                   - two.wolpert_sum / (p0 + p1)) < 1e-12

    def test_estimate_assembly(self):
        spec = self._base()
        row = pinch_sweep(spec, [0], [0.02], 4.0)[0]
        mc = zeta_engine.xi_prime0(spec.surface.cusps)
        ref = 4.0 - mc - row.wolpert_sum + row.small_eig_logsum
        assert abs(row.log_det_estimate - ref) < 1e-12

    def test_grid_validation(self):
        spec = self._base()
        with pytest.raises(DomainError):
            pinch_sweep(spec, [0], [0.01, 0.1], 0.0)
        with pytest.raises(DomainError):
            pinch_sweep(spec, [0], [-0.1], 0.0)
        with pytest.raises(DomainError):
            pinch_sweep(spec, [99], [0.1], 0.0)
        with pytest.raises(DomainError, match="empty"):
            pinch_sweep(spec, [0], [], 0.0)

    def test_subnormal_eigenvalue_refused(self):
        # ell^2 below the least normal double loses digits in its log
        # (ell = 1e-161 read 0.07 off 2 log ell); just above it the log
        # sum is mult * 2 log ell
        spec = self._base()
        for ell in (1e-160, 1.49e-154):
            with pytest.raises(DomainError):
                pinch_sweep(spec, [0], [ell], 0.0)
        row = pinch_sweep(spec, [0], [1.5e-154], 0.0)[0]
        exact = spec.entries[0].mult * 2.0 * math.log(1.5e-154)
        assert abs(row.small_eig_logsum / exact - 1.0) < 1e-15

    def test_overflowing_eigenvalue_refused(self):
        # ell^2 past the largest double is refused as an eigenvalue, not
        # later as a non-finite row column; just below it the log sum is
        # mult * 2 log ell
        spec = self._base()
        for ell in (1e300, 1.35e154):
            with pytest.raises(DomainError, match="normal doubles"):
                pinch_sweep(spec, [0], [ell], 0.0)
        row = pinch_sweep(spec, [0], [1.34e154], 0.0)[0]
        exact = spec.entries[0].mult * 2.0 * math.log(1.34e154)
        assert abs(row.small_eig_logsum / exact - 1.0) < 1e-15

    def test_nothing_pinched(self):
        # with no pinched geodesic there is no small eigenvalue to check,
        # even where ell^2 would underflow or overflow, and each pinching
        # column is 0
        spec = self._base()
        mc = zeta_engine.xi_prime0(spec.surface.cusps)
        for ell in (1e300, 0.1, 1e-200):
            row = pinch_sweep(spec, [], [ell], 2.0)[0]
            assert (row.wolpert_sum, row.wolpert_asymptotic,
                    row.small_eig_logsum) == (0.0, 0.0, 0.0)
            assert row.log_det_estimate == 2.0 - mc

    def test_repeated_index_refused(self):
        # a geodesic pinched twice would count its Wolpert term and its
        # small eigenvalues twice
        spec = self._base()
        for indices in ([0, 0], [1, 0, 1]):
            with pytest.raises(DomainError, match="distinct"):
                pinch_sweep(spec, indices, [0.1], 0.0)

    def test_row_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            PinchSweepRow(0.1, math.inf, 0.0, 0.0, 0.0, 0.0)
