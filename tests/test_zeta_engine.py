import dataclasses
import json
import math

import mpmath as mp
import numpy as np
import pytest

from conftest import engine_cusp_constant
from cuspspec.cusp_model import CuspFamily
from cuspspec.errors import (
    DomainError,
    ExpansionMismatchError,
    OverflowRangeError,
    TailFitError,
    TruncationError,
)
from cuspspec.fuchsian import builtin_group, enumerate_length_spectrum
from cuspspec.trace_terms import (
    expansion_value,
    heat_trace_expansion,
    relative_heat_trace,
)
from cuspspec.zeta_engine import (
    ZetaResult,
    max_t_for_cutoff,
    mellin_zeta_prime0,
    relative_determinant,
    xi_prime0,
)

# the Mellin engine's value of the per-cusp constant, frozen as a
# regression pin of the engine; the mpmath continuation below and the
# closed form -3/2 log 2 serve as the independent oracles
FROZEN_CUSP_CONSTANT = -1.0397207707791534
CLOSED_FORM_CUSP_CONSTANT = -1.5 * math.log(2.0)


# small-t terms of e^{-t/4}/sqrt(4 pi t) up to t^{3/2}
GAUSSIAN_TERMS = (
    (-0.5, 0, 1.0 / (2.0 * math.sqrt(math.pi))),
    (0.5, 0, -1.0 / (8.0 * math.sqrt(math.pi))),
    (1.5, 0, 1.0 / (64.0 * math.sqrt(math.pi))),
)


def _finite_spectrum_terms(n):
    return ((0.0, 0, float(n)),)


class TestZetaResult:
    def test_invariant_enforced(self):
        # the determinant is derived from zeta'(0), never passed
        r = ZetaResult(-math.log(2.0), 1e-12, 1e-12)
        assert r.determinant == math.exp(math.log(2.0))
        with pytest.raises(TypeError):
            ZetaResult(1.0, 5.0, 0.0, 0.0)

    def test_overflow_refused(self):
        # exp(-zeta'(0)) underflows to 0 or overflows the doubles
        for zeta_prime_zero in (800.0, -800.0):
            with pytest.raises(OverflowRangeError):
                ZetaResult(zeta_prime_zero, 0.0, 0.0)

    def test_json_round_trip(self):
        # the det command writes dataclasses.asdict of the result, with
        # the determinant in second place
        r = ZetaResult(0.3, 1e-10, 1e-9)
        obj = json.loads(json.dumps(dataclasses.asdict(r)))
        assert list(obj) == ["zeta_prime_zero", "determinant",
                             "small_t_error", "large_t_error"]
        obj.pop("determinant")
        assert ZetaResult(**obj) == r


class TestMellinEngine:
    def test_single_eigenvalue_identity(self):
        res = mellin_zeta_prime0(lambda t: np.exp(-t),
                                 _finite_spectrum_terms(1), 0.0, t_max=40.0)
        assert abs(res.zeta_prime_zero) < 1e-10
        assert abs(res.determinant - 1.0) < 1e-10

    def test_two_eigenvalues(self):
        res = mellin_zeta_prime0(
            lambda t: np.exp(-t) + np.exp(-2.0 * t),
            _finite_spectrum_terms(2), 0.0, t_max=40.0)
        assert abs(res.determinant - 2.0) < 1e-9

    def test_zero_mode_h_subtraction(self):
        # theta = 1 + e^{-3t}; h = 1 removes the kernel dimension and the
        # determinant is the product over nonzero eigenvalues
        res = mellin_zeta_prime0(lambda t: 1.0 + np.exp(-3.0 * t),
                                 ((0.0, 0, 2.0),), 1.0, t_max=40.0)
        assert abs(res.determinant - 3.0) < 1e-9

    def test_gaussian_cusp_term_value(self):
        # Mellin value of e^{-t/4}/sqrt(4 pi t) at s=0 is exactly -1/2
        res = mellin_zeta_prime0(
            lambda t: np.exp(-t / 4.0) / np.sqrt(4.0 * math.pi * t),
            GAUSSIAN_TERMS, 0.0, t_max=60.0)
        assert abs(res.zeta_prime_zero + 0.5) < 1e-8

    def test_term_order_and_repeats_immaterial(self):
        # theta = e^{-t/4}/sqrt(4 pi t) + e^{-t} + e^{-2t}, zeta'(0) =
        # -1/2 - log 2; its terms shuffled and split (the constant 2 as
        # 1 + 1) give the value of the merged, sorted terms
        def theta(t):
            return (np.exp(-t / 4.0) / np.sqrt(4.0 * math.pi * t)
                    + np.exp(-t) + np.exp(-2.0 * t))

        (a0, k0, c0), (a1, k1, c1), (a2, k2, c2) = GAUSSIAN_TERMS
        merged = ((a0, k0, c0), (0.0, 0, 2.0), (a1, k1, c1), (a2, k2, c2))
        split = ((a2, k2, c2), (0.0, 0, 1.0), (a0, k0, c0 / 4.0),
                 (a1, k1, c1), (0.0, 0, 1.0), (a0, k0, 3.0 * c0 / 4.0))
        ref = mellin_zeta_prime0(theta, merged, 0.0, t_max=60.0)
        res = mellin_zeta_prime0(theta, split, 0.0, t_max=60.0)
        assert abs(ref.zeta_prime_zero + 0.5 + math.log(2.0)) < 1e-8
        assert abs(res.zeta_prime_zero - ref.zeta_prime_zero) < 1e-13
        assert res.small_t_error <= 1e-8 and res.large_t_error <= 1e-8

    def test_log_on_constant_rejected(self):
        with pytest.raises(DomainError):
            mellin_zeta_prime0(lambda t: np.exp(-t), ((0.0, 1, 1.0),), 0.0,
                               t_max=40.0)

    def test_expansion_mismatch_detected(self):
        with pytest.raises(ExpansionMismatchError):
            mellin_zeta_prime0(lambda t: np.exp(-t),
                               ((0.0, 0, 5.0),), 0.0,  # wrong c0
                               t_max=10.0)

    def test_tail_fit_error_for_slow_decay(self):
        with pytest.raises(TailFitError) as info:
            mellin_zeta_prime0(lambda t: np.exp(-0.05 * t),
                               _finite_spectrum_terms(1), 0.0,
                               t_max=30.0, min_decay=0.2)
        assert info.value.fitted_mu < 0.2

    def test_min_decay_override_allows_slow_modes(self):
        res = mellin_zeta_prime0(lambda t: np.exp(-0.1 * t),
                                 _finite_spectrum_terms(1), 0.0,
                                 t_max=400.0, min_decay=0.02)
        assert abs(res.determinant - 0.1) < 1e-8 * 0.1

    def test_t_max_validation(self):
        # at t_max = 1 every tail-fit sample sits at t = 1, and one ulp
        # above it the fitted decay is rounding noise
        for t_max in (0.5, 1.0, 1.0 + 2.0 ** -52):
            with pytest.raises(DomainError):
                mellin_zeta_prime0(lambda t: np.exp(-t),
                                   _finite_spectrum_terms(1), 0.0,
                                   t_max=t_max)

    @pytest.mark.parametrize("t_max", [math.nan, math.inf])
    def test_nonfinite_t_max_refused(self, t_max):
        with pytest.raises(DomainError):
            mellin_zeta_prime0(lambda t: np.exp(-t),
                               _finite_spectrum_terms(1), 0.0, t_max=t_max)

    def test_theta_called_once_per_panel(self):
        sizes = []

        def theta(t):
            sizes.append(np.size(t))
            return np.exp(-t) + np.exp(-2.0 * t)

        res = mellin_zeta_prime0(theta, _finite_spectrum_terms(2), 0.0,
                                 t_max=40.0)
        assert abs(res.determinant - 2.0) < 1e-9
        assert sizes.count(15) >= len(sizes) - 2
        assert sum(sizes) / len(sizes) >= 10.0

    def test_scalar_valued_theta_refused(self):
        with pytest.raises(DomainError):
            mellin_zeta_prime0(lambda t: 1.0 + 0.0 * float(np.sum(t)),
                               _finite_spectrum_terms(1), 0.0, t_max=40.0)


class TestCuspConstant:
    def test_regression_value(self):
        zp = engine_cusp_constant().zeta_prime_zero
        assert abs(zp - FROZEN_CUSP_CONSTANT) < 1e-9

    def test_engine_within_its_error(self):
        res = engine_cusp_constant()
        gap = abs(res.zeta_prime_zero - xi_prime0(1))
        assert gap <= res.small_t_error + res.large_t_error

    def test_mpmath_oracle(self):
        # c = -zeta_P'(0)/pi + (3/2) log 2, where zeta_P(s) =
        # int_R (1/4+r^2)^{-s} Re psi(1+ir) dr = -B'(s)/2 + H(s) with
        # B(s) = sqrt(pi) Gamma(s-1/2)/Gamma(s) 2^{2s-1} and H(s) the
        # integral against h(r) = Re psi(1+ir) - log(1/4+r^2)/2; h is
        # integrated on dyadic panels up to R = 2^30, beyond which
        # h ~ -1/(24 r^2) gives the tail of H'(0) in closed form (an
        # infinite last panel silently returns a wrong H(0))
        with mp.workdps(20):
            def h(r):
                return (mp.re(mp.digamma(1 + 1j * r))
                        - mp.log(mp.mpf(1) / 4 + r * r) / 2)

            def b(s):
                return (mp.sqrt(mp.pi) * mp.gamma(s - mp.mpf(1) / 2)
                        * mp.rgamma(s) * mp.mpf(2) ** (2 * s - 1))

            big = mp.mpf(2) ** 30
            panels = [mp.mpf(0)] + [mp.mpf(2) ** j for j in range(-4, 31)]
            h_0 = 2 * mp.quad(h, panels) - 1 / (12 * big)
            dh_0 = (-2 * mp.quad(lambda r: mp.log(mp.mpf(1) / 4 + r * r)
                                 * h(r), panels)
                    + (mp.log(big) + 1) / (6 * big))
            zeta_p = -mp.diff(b, 0, 2) / 2 + dh_0
            ref = -zeta_p / mp.pi + 3 * mp.log(2) / 2
        assert abs(h_0) < 1e-15
        assert abs(xi_prime0(1) - ref) < 1e-15

    def test_closed_form_oracle(self):
        assert xi_prime0(1) == CLOSED_FORM_CUSP_CONSTANT
        for m in range(1, 7):
            assert abs(math.exp(-xi_prime0(m)) / 2.0 ** (1.5 * m) - 1.0) \
                < 4e-16

    def test_linear_in_cusp_count(self):
        assert abs(xi_prime0(3) - 3.0 * xi_prime0(1)) < 1e-14
        assert xi_prime0(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            xi_prime0(-1)


class TestSurfaceExpansion:
    def test_matches_trace_at_small_t(self):
        g = builtin_group("thrice-punctured-sphere")
        spec = enumerate_length_spectrum(g, 8.0, 8)
        fam = CuspFamily((1.0, 2.0, 1.5))
        terms = heat_trace_expansion(g.surface, fam)
        for t in (1e-2, 1e-3):
            theta = relative_heat_trace(spec, fam, t)
            approx = float(expansion_value(terms, t))
            assert abs(theta - approx) < 5e-2 * abs(theta) * t ** 0.5 + 1e-4

    def test_h_counts_components(self):
        # relative_determinant subtracts h = 1, the one component of the
        # surface, as its large-t constant
        g = builtin_group("thrice-punctured-sphere")
        spec = enumerate_length_spectrum(g, 6.0, 6)
        fam = CuspFamily((1.0, 1.0, 1.0))
        ref = mellin_zeta_prime0(
            lambda t: relative_heat_trace(spec, fam, t),
            heat_trace_expansion(g.surface, fam), 1.0, 2.0, t_lo=1e-5)
        assert relative_determinant(spec, fam, 2.0).zeta == ref

    def test_leading_term_is_area_over_4pi(self):
        g = builtin_group("thrice-punctured-sphere")
        a, k, c = heat_trace_expansion(g.surface,
                                       CuspFamily((1.0, 1.0, 1.0)))[0]
        assert (a, k) == (-1.0, 0)
        assert abs(c - g.surface.area / (4.0 * math.pi)) < 1e-14


class TestRelativeDeterminant:
    @pytest.mark.parametrize("name, cutoff, t_max", [
        ("thrice-punctured-sphere", 6.0, 2.0),
        ("once-punctured-torus(3.47)", 8.0, 3.0)])
    def test_small_t_cut_charged(self, name, cutoff, t_max):
        # the piece below the small-t cut, against the engine cut ten
        # times closer to t = 0: small_t_error covers the gap (7.6e-9 on
        # the sphere, 2.5e-9 on the torus) and stays below 1e-7
        g = builtin_group(name)
        spec = enumerate_length_spectrum(g, cutoff)
        fam = CuspFamily((1.0,) * g.surface.cusps)
        res = relative_determinant(spec, fam, t_max).zeta
        ref = mellin_zeta_prime0(
            lambda t: relative_heat_trace(spec, fam, t),
            heat_trace_expansion(g.surface, fam), 1.0, t_max, t_lo=1e-6)
        assert res.small_t_error < 1e-7
        assert abs(res.zeta_prime_zero - ref.zeta_prime_zero) \
            <= res.small_t_error

    def test_truncation_rule(self):
        assert abs(max_t_for_cutoff(12.0, 1e-4)
                   - 144.0 / (4.0 * math.log(1e4))) < 1e-12

    def test_truncation_refused_with_required_cutoff(self):
        g = builtin_group("thrice-punctured-sphere")
        spec = enumerate_length_spectrum(g, 6.0, 6)
        fam = CuspFamily((1.0, 1.0, 1.0))
        with pytest.raises(TruncationError) as info:
            relative_determinant(spec, fam, 50.0)
        assert info.value.required_cutoff > spec.cutoff

    def test_cut_height_shift_of_zeta_prime(self):
        # raising each cut height from 1 to e adds 3 * (-1/2) to
        # zeta'(0) exactly; the numerical shift must agree within the
        # reported error budgets
        g = builtin_group("thrice-punctured-sphere")
        spec = enumerate_length_spectrum(g, 10.0, 10)
        r1 = relative_determinant(spec,
                                  CuspFamily((1.0, 1.0, 1.0)), 5.0)
        r2 = relative_determinant(spec,
                                  CuspFamily((math.e,) * 3), 5.0)
        shift = r2.zeta.zeta_prime_zero - r1.zeta.zeta_prime_zero
        budget = (r1.zeta.small_t_error + r1.zeta.large_t_error
                  + r2.zeta.small_t_error + r2.zeta.large_t_error)
        assert abs(shift + 1.5) < budget + 1e-6

    def test_det_hyp_factorization(self):
        g = builtin_group("thrice-punctured-sphere")
        spec = enumerate_length_spectrum(g, 10.0, 10)
        fam = CuspFamily((1.0, 1.0, 1.0))
        res = relative_determinant(spec, fam, 5.0)
        a_tilde = math.exp(-xi_prime0(g.surface.cusps))
        assert abs(res.zeta.determinant
                   - a_tilde * res.det_hyp) < 1e-12 * res.zeta.determinant

    def test_deterministic(self):
        g = builtin_group("thrice-punctured-sphere")
        spec = enumerate_length_spectrum(g, 10.0, 10)
        fam = CuspFamily((1.0, 1.0, 1.0))
        a = relative_determinant(spec, fam, 5.0)
        b = relative_determinant(spec, fam, 5.0)
        assert a.zeta == b.zeta and a.det_hyp == b.det_hyp
