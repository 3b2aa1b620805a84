import dataclasses
import itertools
import json
import math
import re
import sys

import mpmath as mp
import numpy as np
import pytest

from conftest import CUSP_TERM_LADDER, engine_cusp_constant
from cuspspec import trace_terms, zeta_engine
from cuspspec.errors import (
    DomainError,
    ExpansionMismatchError,
    OverflowRangeError,
    QuadratureError,
    TailFitError,
    TruncationError,
)
from cuspspec.fuchsian import builtin_group, enumerate_length_spectrum
from cuspspec.trace_terms import (
    CuspFamily,
    cusp_term,
    cut_height_term,
    expansion_value,
    identity_term,
    relative_heat_trace,
)
from cuspspec.zeta_engine import (
    ZetaResult,
    identity_zeta_prime0,
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


def _identity_terms(area):
    """Heat coefficients of identity_term: (area/4pi)(1/t - 1/3 + t/15)."""
    return ((-1.0, 0, area / (4.0 * math.pi)),
            (0.0, 0, -area / (12.0 * math.pi)),
            (1.0, 0, area / (60.0 * math.pi)))


class TestZetaResult:
    def test_invariant_enforced(self):
        # the determinant is derived from zeta'(0), never passed
        r = ZetaResult(-math.log(2.0), 1e-12, 1e-12)
        assert r.determinant == math.exp(math.log(2.0))
        with pytest.raises(TypeError):
            ZetaResult(1.0, 5.0, 0.0, 0.0)
        for errors in ((-1e-12, 0.0), (0.0, -1e-12), (math.nan, 0.0)):
            with pytest.raises(DomainError):
                ZetaResult(0.3, *errors)

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

    def test_theta_equal_to_h(self):
        # theta - h vanishes at every t: the tail samples are below the
        # noise floor and contribute 0, so zeta'(0) is exactly 0
        res = mellin_zeta_prime0(lambda t: np.full_like(t, 2.0),
                                 ((0.0, 0, 2.0),), 2.0, t_max=40.0)
        assert (res.zeta_prime_zero, res.determinant) == (0.0, 1.0)

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
        mu = float(re.search(r"mu=(\S+)", str(info.value)).group(1))
        assert mu < 0.2

    def test_min_decay_override_allows_slow_modes(self):
        res = mellin_zeta_prime0(lambda t: np.exp(-0.1 * t),
                                 _finite_spectrum_terms(1), 0.0,
                                 t_max=400.0, min_decay=0.02)
        assert abs(res.determinant - 0.1) < 1e-8 * 0.1

    def test_t_max_validation(self):
        # at t_max = 1 every tail-fit sample sits at t = 1, and one ulp
        # above it the fitted decay is rounding noise; past 4.7e153 the
        # fit's sum of squared samples overflows
        for t_max in (0.5, 1.0, 1.0 + 2.0 ** -52, 4.75e153, 1e300):
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

    def test_nan_theta_refused_at_first_panel(self):
        # the probe call reads NaN without a verdict; the small-t
        # integral's first panel then raises
        calls = []

        def theta(t):
            calls.append(t)
            return np.full_like(t, np.nan)

        with pytest.raises(QuadratureError, match=r"\(0\.0, 1\.0\)"):
            mellin_zeta_prime0(theta, _finite_spectrum_terms(1), 0.0,
                               t_max=40.0)
        assert len(calls) == 2

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


class TestModelColumns:
    """zeta'(0) of theta's identity, cusp and cut-height columns in closed
    form, and their integrals over [1, inf) on relative_determinant's
    fixed grid."""

    def test_zeta_prime_minus_one(self):
        with mp.workdps(40):
            ref = mp.zeta(-1, derivative=1)
            gap = abs(mp.mpf(zeta_engine._ZETA_PRIME_M1) - ref)
        assert gap <= math.ulp(zeta_engine._ZETA_PRIME_M1)

    def test_identity_closed_form_against_engine(self):
        # the engine on the identity term alone, with no small-t cut
        # (gap 2.6e-11)
        area = 2.0 * math.pi
        res = mellin_zeta_prime0(lambda t: identity_term(area, t),
                                 _identity_terms(area), 0.0, t_max=60.0)
        assert abs(res.zeta_prime_zero - identity_zeta_prime0(area)) < 1e-10

    def test_identity_share_from_one(self):
        # int_1^inf e^{-tx}/t dt = E1(x) under the defining integral
        share = zeta_engine._integral_from_one(lambda t: identity_term(1.0, t))
        with mp.workdps(25):
            ref = mp.quad(lambda lam: lam * mp.tanh(mp.pi * lam)
                          * mp.e1(mp.mpf(1) / 4 + lam * lam),
                          [0, 1, 2, 4, mp.inf]) / (2 * mp.pi)
        assert abs(share / ref - 1.0) < 1e-14

    def test_cusp_share_from_one(self):
        share = zeta_engine._integral_from_one(cusp_term)
        with mp.workdps(25):
            quarter = mp.mpf(1) / 4
            p_part = mp.quad(lambda r: mp.re(mp.digamma(1 + 1j * r))
                             * mp.e1(quarter + r * r), [0, 1, 2, 4, mp.inf])
            gauss = mp.quad(lambda t: mp.exp(-t / 4) * t ** -1.5,
                            [1, 4, 16, mp.inf]) / mp.sqrt(4 * mp.pi)
            ref = (-2 / mp.pi * p_part - mp.log(2) * gauss
                   + mp.e1(quarter) / 2)
        assert abs(share / ref - 1.0) < 1e-14

    def test_cut_height_share_from_one(self):
        # int_1^inf e^{-t/4} t^{-3/2} dt = 2 e^{-1/4} - sqrt(pi) erfc(1/2)
        share = zeta_engine._integral_from_one(
            lambda t: cut_height_term(CuspFamily((math.e,)), t))
        with mp.workdps(25):
            half = mp.mpf(1) / 2
            ref = ((2 * mp.exp(-half / 2) - mp.sqrt(mp.pi) * mp.erfc(half))
                   / (2 * mp.sqrt(mp.pi)))
        assert abs(share / ref - 1.0) < 1e-14


class TestSmallTShare:
    @pytest.mark.parametrize("name", ["once-punctured-torus(3.47)",
                                      "thrice-punctured-sphere"])
    def test_geodesic_share_closed_form(self, name):
        # det's theta below t = 1 alone (its geodesic column there, 0
        # from 1 on, h = 0) gives int_0^1 theta/t dt; a pair (gamma, k)
        # puts mult/(4k sinh(x)) [e^-x erfc(x - 1/2) + e^x erfc(x + 1/2)]
        # into it, x = k l/2, summed in 30 digits until a class's terms
        # fall below 1e-40 of the total (1629 and 232 pairs; relative
        # gaps 2.0e-16 and 3.0e-16, against small_t_error 5.4e-11 and
        # 1.9e-12)
        spec = enumerate_length_spectrum(builtin_group(name), 12.0)
        res = mellin_zeta_prime0(lambda t: np.piecewise(t, [t < 1.0], [
            lambda s: trace_terms.hyperbolic_trace(spec, s), 0.0]),
            (), 0.0, 2.0)
        with mp.workdps(30):
            total = mp.mpf(0)
            for entry in spec.entries:
                for k in itertools.count(1):
                    x = k * mp.mpf(entry.length) / 2
                    term = entry.mult / (4 * k * mp.sinh(x)) * (
                        mp.exp(-x) * mp.erfc(x - 0.5)
                        + mp.exp(x) * mp.erfc(x + 0.5))
                    total += term
                    if term < 1e-40 * total:
                        break
            gap = abs(res.zeta_prime_zero - total)
        assert gap <= 1e-13 * total
        assert gap <= res.small_t_error


class TestRelativeDeterminant:
    @pytest.mark.parametrize("name, cutoff, t_max, starts", [
        ("thrice-punctured-sphere", 6.0, 2.0, None),
        ("once-punctured-torus(3.47)", 8.0, 3.0, None),
        ("thrice-punctured-sphere", 6.0, 2.0, (2.0, 1.5, 3.3))])
    def test_matches_full_theta_reference(self, name, cutoff, t_max, starts):
        # the engine on the whole of theta with h = 1 and theta's ladder
        # written out here; below 1e-6, where area/(4 pi t) leaves only
        # rounding noise in the remainder, theta is replaced by its
        # ladder.  The gaps are 3.7e-10, 9.8e-11 and 3.7e-10; a small-t
        # cut at 1e-5 gave 7.6e-9, 2.6e-9 and 7.2e-9
        g = builtin_group(name)
        spec = enumerate_length_spectrum(g, cutoff)
        fam = CuspFamily(starts or (1.0,) * g.surface.cusps)
        terms = (_identity_terms(g.surface.area)
                 + tuple((a, k, fam.log_sum * c) for a, k, c in GAUSSIAN_TERMS)
                 + tuple((a, k, g.surface.cusps * c)
                         for a, k, c in CUSP_TERM_LADDER))

        def theta(t):
            out = expansion_value(terms, t)
            keep = t >= 1e-6
            if keep.any():
                out[keep] = relative_heat_trace(spec, fam, t[keep])
            return out

        ref = mellin_zeta_prime0(theta, terms, 1.0, t_max)
        res = relative_determinant(spec, fam, t_max, 0.02).zeta
        assert res.small_t_error <= 1e-9
        assert abs(res.zeta_prime_zero - ref.zeta_prime_zero) <= 1e-9

    def test_truncation_rule(self):
        assert abs(max_t_for_cutoff(12.0, 1e-4)
                   - 144.0 / (4.0 * math.log(1e4))) < 1e-12

    def test_subnormal_tolerance_refused(self):
        # below the least normal double 1/eps_trunc overflows, and the
        # trusted window would read 0 with a required cutoff of inf
        for eps in (sys.float_info.min / 2.0, 1e-320, 5e-324):
            with pytest.raises(DomainError, match="normal double"):
                max_t_for_cutoff(12.0, eps)
        least = max_t_for_cutoff(12.0, sys.float_info.min)
        assert least == 144.0 / (4.0 * math.log(1.0 / sys.float_info.min))

    def test_truncation_refused_with_required_cutoff(self):
        g = builtin_group("thrice-punctured-sphere")
        spec = enumerate_length_spectrum(g, 6.0, 6)
        fam = CuspFamily((1.0, 1.0, 1.0))
        with pytest.raises(TruncationError) as info:
            relative_determinant(spec, fam, 50.0, 0.02)
        need = re.search(r"at least (\S+) is required", str(info.value))
        assert float(need.group(1)) > spec.cutoff

    def test_window_check_needs_no_spectrum(self):
        # the trusted window itself passes; the next double past it is
        # refused with the same error relative_determinant raises
        bound = max_t_for_cutoff(6.0, 0.02)
        zeta_engine.check_t_max(6.0, bound, 0.02)
        with pytest.raises(TruncationError, match="at least 6 is required"):
            zeta_engine.check_t_max(6.0, math.nextafter(bound, math.inf),
                                    0.02)

    def test_cut_height_shift_of_zeta_prime(self):
        # raising each cut height from 1 to e adds 3 * (-1/2) to
        # zeta'(0) exactly; the numerical shift must agree within the
        # reported error budgets
        g = builtin_group("thrice-punctured-sphere")
        spec = enumerate_length_spectrum(g, 10.0, 10)
        r1 = relative_determinant(spec,
                                  CuspFamily((1.0, 1.0, 1.0)), 5.0, 0.02)
        r2 = relative_determinant(spec,
                                  CuspFamily((math.e,) * 3), 5.0, 0.02)
        shift = r2.zeta.zeta_prime_zero - r1.zeta.zeta_prime_zero
        budget = (r1.zeta.small_t_error + r1.zeta.large_t_error
                  + r2.zeta.small_t_error + r2.zeta.large_t_error)
        assert abs(shift + 1.5) < budget + 1e-6

    def test_det_hyp_factorization(self):
        g = builtin_group("thrice-punctured-sphere")
        spec = enumerate_length_spectrum(g, 10.0, 10)
        fam = CuspFamily((1.0, 1.0, 1.0))
        res = relative_determinant(spec, fam, 5.0, 0.02)
        a_tilde = math.exp(-xi_prime0(g.surface.cusps))
        assert abs(res.zeta.determinant
                   - a_tilde * res.det_hyp) < 1e-12 * res.zeta.determinant

    def test_theta_split_at_one(self, monkeypatch):
        # theta is the geodesic column alone below t = 1 and the whole
        # relative heat trace from 1 on: each gets only its side's t and
        # never an empty array, and recording them moves no bit
        g = builtin_group("thrice-punctured-sphere")
        spec = enumerate_length_spectrum(g, 6.0, 6)
        fam = CuspFamily((1.0, 1.0, 1.0))
        ref = relative_determinant(spec, fam, 2.0, 0.02)
        hyperbolic = trace_terms.hyperbolic_trace
        heat = trace_terms.relative_heat_trace
        seen = {"hyperbolic": [], "heat": []}
        inside_heat = []

        def record_hyperbolic(spectrum, t):
            if not inside_heat:  # relative_heat_trace's own column
                seen["hyperbolic"].append(np.array(t))
            return hyperbolic(spectrum, t)

        def record_heat(spectrum, cusp_starts, t):
            seen["heat"].append(np.array(t))
            inside_heat.append(True)
            try:
                return heat(spectrum, cusp_starts, t)
            finally:
                inside_heat.pop()

        monkeypatch.setattr(trace_terms, "hyperbolic_trace",
                            record_hyperbolic)
        monkeypatch.setattr(trace_terms, "relative_heat_trace", record_heat)
        assert relative_determinant(spec, fam, 2.0, 0.02) == ref
        assert seen["hyperbolic"] and seen["heat"]
        assert all(t.size and np.all(t < 1.0) for t in seen["hyperbolic"])
        assert all(t.size and np.all(t >= 1.0) for t in seen["heat"])

    def test_deterministic(self):
        g = builtin_group("thrice-punctured-sphere")
        spec = enumerate_length_spectrum(g, 10.0, 10)
        fam = CuspFamily((1.0, 1.0, 1.0))
        a = relative_determinant(spec, fam, 5.0, 0.02)
        b = relative_determinant(spec, fam, 5.0, 0.02)
        assert a.zeta == b.zeta and a.det_hyp == b.det_hyp
