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

    def test_row_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            PinchSweepRow(0.1, math.inf, 0.0, 0.0, 0.0, 0.0)
