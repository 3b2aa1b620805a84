import math

import mpmath as mp
import numpy as np
import pytest

from cuspspec import trace_terms
from cuspspec.cusp_model import CuspFamily
from cuspspec.errors import DomainError, PoleError
from cuspspec.fuchsian import (
    LengthSpectrum,
    SpectrumEntry,
    builtin_group,
    enumerate_length_spectrum,
)
from cuspspec.trace_terms import (
    P_EXPANSION,
    ScatteringModel,
    cusp_term,
    cusp_term_expansion,
    cut_height_term,
    expansion_value,
    hyperbolic_trace,
    identity_term,
    model_from_json,
    parabolic_p,
    phi_log_deriv,
    relative_heat_trace,
    scattering_erfc_sum,
    scattering_integral,
)


def _random_model(rng):
    n_pairs = int(rng.integers(1, 4))
    res = []
    for _ in range(n_pairs):
        re = float(rng.uniform(-2.0, 0.4))
        im = float(rng.uniform(0.1, 3.0))
        order = int(rng.integers(1, 3))
        res.append((complex(re, im), order))
        res.append((complex(re, -im), order))
    if rng.integers(0, 2):
        res.append((complex(float(rng.uniform(-2.0, 0.4)), 0.0),
                    int(rng.integers(1, 3))))
    q = float(rng.uniform(0.5, 4.0))
    return ScatteringModel(tuple(res), q)


def _shortened(spec, ell):
    """spec with its shortest class replaced by a geodesic of length ell."""
    first = spec.entries[0]
    return LengthSpectrum((SpectrumEntry(ell, first.mult),) + spec.entries[1:],
                          spec.cutoff, spec.surface)


class TestScatteringModel:
    def test_conjugate_closure_enforced(self):
        with pytest.raises(DomainError):
            ScatteringModel(((complex(-0.3, 1.0), 1),), 1.0)

    def test_mismatched_orders_rejected(self):
        with pytest.raises(DomainError):
            ScatteringModel(((complex(-0.3, 1.0), 1),
                             (complex(-0.3, -1.0), 2)), 1.0)

    def test_real_resonance_needs_no_partner(self):
        ScatteringModel(((complex(-0.3, 0.0), 2),), 1.0)

    def test_half_plane_enforced(self):
        with pytest.raises(DomainError):
            ScatteringModel(((complex(0.6, 0.0), 1),), 1.0)

    def test_json_round_trip(self):
        m = ScatteringModel(((complex(-0.3, 1.0), 1),
                             (complex(-0.3, -1.0), 1)), 2.0)
        obj = {"q": 2.0, "phi_half": -1.0,
               "resonances": [{"re": -0.3, "im": 1.0, "order": 1},
                              {"re": -0.3, "im": -1.0, "order": 1}]}
        assert model_from_json(obj) == m
        # older model files carry an unread "trace_c_half"; still accepted
        assert model_from_json(dict(obj, trace_c_half=1.0)) == m

    @pytest.mark.parametrize("obj", [
        {"q": 2.0},
        {"q": "abc", "phi_half": 1.0, "trace_c_half": 1.0, "resonances": []},
        {"q": math.nan, "phi_half": 1.0, "trace_c_half": 1.0,
         "resonances": []},
        {"q": 2.0, "phi_half": 1.0, "trace_c_half": 1.0,
         "resonances": [{"re": math.nan, "im": 0.0, "order": 1}]},
        {"q": 2.0, "phi_half": 1.0, "trace_c_half": 1.0,
         "resonances": [{"re": -0.3, "im": 0.0, "order": 1.5}]},
        {"q": 2.0, "phi_half": 1.0, "trace_c_half": 1.0,
         "resonances": [{"re": -0.3, "im": 0.0, "order": math.inf}]},
        [2.0],
    ])
    def test_malformed_json_refused(self, obj):
        with pytest.raises(DomainError):
            model_from_json(obj)


class TestPhiLogDeriv:
    def test_real_on_real_axis(self):
        rng = np.random.default_rng(3)
        m = _random_model(rng)
        v = phi_log_deriv(m, 0.75)
        assert abs(v.imag) < 1e-12

    def test_pole_raises(self):
        m = ScatteringModel(((complex(-0.3, 0.0), 1),), 1.0)
        with pytest.raises(PoleError):
            phi_log_deriv(m, -0.3)


class TestScatteringIdentity:
    def test_random_models(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(4):
            m = _random_model(rng)
            for t in (0.3, 1.0, 5.0):
                a = scattering_integral(m, t)
                b = scattering_erfc_sum(m, t)
                worst = max(worst, abs(a - b) / (1.0 + abs(b)))
        assert worst < 1e-9

    def test_pure_q_model(self):
        # with no resonances both sides reduce to the log q Gaussian
        m = ScatteringModel((), 3.0)
        t = 0.7
        ref = -math.log(3.0) * math.exp(-t / 4.0) / math.sqrt(16.0 * math.pi * t)
        assert abs(scattering_erfc_sum(m, t) - ref) < 1e-15
        assert abs(scattering_integral(m, t) - ref) < 1e-10

    def test_critical_line_resonance_refused(self):
        m = ScatteringModel(((complex(0.5 - 1e-12, 1.0), 1),
                             (complex(0.5 - 1e-12, -1.0), 1)), 1.0)
        with pytest.raises(DomainError):
            scattering_integral(m, 1.0)

    # also t outside [1e-20, 3000]: below it the integral drifts from the
    # resonance sum, above it both sides are 0, and towards 1e300 the
    # integrand overflows
    @pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, 5e-324, 1e-60,
                                   1e-21, 3000.5, 1e300])
    def test_non_finite_t_refused(self, t):
        m = ScatteringModel((), 3.0)
        with pytest.raises(DomainError):
            scattering_integral(m, t)
        with pytest.raises(DomainError):
            scattering_erfc_sum(m, t)

    def test_far_left_resonance_no_overflow(self):
        # e^{t(1/2-rho)^2} would overflow unscaled at rho.re = -60, t = 5
        m = ScatteringModel(((complex(-60.0, 0.0), 1),), 1.0)
        v = scattering_erfc_sum(m, 5.0)
        assert math.isfinite(v)


class TestIdentityTerm:
    def test_small_t_expansion(self):
        # (A/4pi)(1/t - 1/3 + t/15 + O(t^2))
        area = 2.0 * math.pi
        t = 1e-3
        ref = area / (4.0 * math.pi) * (1.0 / t - 1.0 / 3.0 + t / 15.0)
        assert abs(identity_term(area, t) - ref) < 1e-4

    def test_linear_in_area(self):
        t = 0.9
        assert abs(identity_term(4.0 * math.pi, t)
                   - 2.0 * identity_term(2.0 * math.pi, t)) < 1e-12

    @pytest.mark.parametrize("t", [1e-4, 1e-2, 1.0, 8.0, 60.0])
    def test_mpmath_oracle(self, t):
        # 30-digit quadrature of the defining integral with tanh on the
        # half-line, split at 0, 1/2, 1, 2, 4, ... and cut where the
        # Gaussian factor is below e^-144 (or, for large t, at 40)
        area = 2.0 * math.pi
        with mp.workdps(30):
            tm = mp.mpf(t)
            end = max(mp.mpf(40), 12 / mp.sqrt(tm))
            points = [mp.mpf(0)]
            b = mp.mpf(1) / 2
            while b < end:
                points.append(b)
                b *= 2
            points.append(end)
            ref = area / (4 * mp.pi) * 2 * mp.quad(
                lambda lam: mp.exp(-tm * (mp.mpf(1) / 4 + lam * lam))
                * lam * mp.tanh(mp.pi * lam), points)
        assert abs(identity_term(area, t) - ref) <= 1e-13 * abs(ref)

    def test_validation(self):
        with pytest.raises(DomainError):
            identity_term(-1.0, 1.0)
        with pytest.raises(DomainError):
            identity_term(1.0, 0.0)
        with pytest.raises(DomainError):
            identity_term(math.nan, 1.0)


class TestHyperbolicTrace:
    def test_single_geodesic_direct_sum(self):
        g = builtin_group("thrice-punctured-sphere")
        spec = enumerate_length_spectrum(g, 4.0, 6)
        e = spec.entries[0]
        t = 1.0
        direct = 0.0
        for k in range(1, 40):
            x = k * e.length
            direct += e.mult * e.length / math.sinh(x / 2.0) * math.exp(
                -x * x / (4.0 * t))
        direct *= math.exp(-t / 4.0) / math.sqrt(16.0 * math.pi * t)
        assert abs(hyperbolic_trace(spec, t) - direct) < 1e-14

    def test_tiny_length_no_overflow(self):
        g = builtin_group("thrice-punctured-sphere")
        spec = _shortened(enumerate_length_spectrum(g, 6.0, 6), 1e-6)
        v = hyperbolic_trace(spec, 0.5)
        assert math.isfinite(v) and v > 0.0


class TestParabolicP:
    def test_asymptotic_full_ladder(self):
        t = 1e-3
        rel = abs(parabolic_p(t) - expansion_value(P_EXPANSION, t)) \
            / abs(parabolic_p(t))
        assert rel < 1e-6

    def test_asymptotic_two_terms_example(self):
        # the leading log(t)/sqrt(t) term and the next two
        t = 1e-4
        rel = abs(parabolic_p(t) - expansion_value(P_EXPANSION[:3], t)) \
            / abs(parabolic_p(t))
        assert rel < 1e-3

    def test_expansion_value(self):
        terms = ((-0.5, 1, 2.0), (1.0, 0, 3.0))
        t = 0.25
        ref = 2.0 * t ** -0.5 * math.log(t) + 3.0 * t
        assert abs(float(expansion_value(terms, t)) - ref) < 1e-14

    def test_ladder_improves_with_terms(self):
        t = 1e-2
        p = parabolic_p(t)
        errs = [abs(p - expansion_value(P_EXPANSION[:n], t))
                for n in (2, 4, 6)]
        assert errs[2] < errs[1] < errs[0]

    @pytest.mark.parametrize("t", [1e-10, 1e-4, 1e-3, 1e-2, 1.0, 8.0, 60.0])
    def test_mpmath_oracle(self, t):
        # 25-digit quadrature of the defining integral on the half-line,
        # split at 0, 1, 4, 16, ... and cut at r = 12/sqrt(t), where the
        # Gaussian factor is below e^-144
        with mp.workdps(25):
            tm = mp.mpf(t)
            end = 12 / mp.sqrt(tm)
            points = [mp.mpf(0)]
            b = mp.mpf(1)
            while b < end:
                points.append(b)
                b *= 4
            points.append(end)
            ref = 2 * mp.quad(
                lambda r: mp.exp(-tm * (mp.mpf(1) / 4 + r * r))
                * mp.re(mp.digamma(1 + 1j * r)), points)
        assert abs(parabolic_p(t) - ref) <= 1e-12 * abs(ref)

    def test_cusp_term_ladder(self):
        # the integer powers of -P/pi cancel e^{-t/4}/2 = 1/2 - t/8 + ...
        # exactly; what is left matches cusp_term to O(t^{3/2} log t)
        damp = {0.0: 0.5, 1.0: -0.125}
        assert [-c / math.pi + damp[a] for a, k, c in P_EXPANSION
                if a in damp] == [0.0, 0.0]
        terms = cusp_term_expansion()
        assert all(a % 1.0 for a, k, c in terms)
        for t in (1e-6, 1e-3, 1e-2):
            gap = abs(cusp_term(t) - expansion_value(terms, t))
            assert gap <= 0.02 * t ** 1.5 * abs(math.log(t))

    def test_ladder_and_series_meet(self):
        # below t = 3e-7 P(t) is the small-t ladder, above it the series
        t = 3.0001e-7
        assert abs(expansion_value(P_EXPANSION, t) - parabolic_p(t)) \
            <= 1e-14 * abs(parabolic_p(t))

    def test_validation(self):
        with pytest.raises(DomainError):
            parabolic_p(0.0)


def _sphere():
    return enumerate_length_spectrum(
        builtin_group("thrice-punctured-sphere"), 8.0, 8)


def _assert_array_matches_scalars(fn, ts):
    out = fn(ts)
    assert isinstance(out, np.ndarray) and out.shape == ts.shape
    for ti, oi in zip(ts.ravel(), out.ravel()):
        ref = fn(float(ti))
        assert isinstance(ref, float)
        assert abs(oi - ref) <= 1e-14 * abs(ref)


class TestArrayContract:
    """Each trace term on a 15-point t-array equals its scalar values."""

    TS = np.geomspace(1e-3, 8.0, 15)

    def test_parabolic_p(self):
        _assert_array_matches_scalars(parabolic_p, self.TS)

    def test_identity_term(self):
        _assert_array_matches_scalars(
            lambda t: identity_term(2.0 * math.pi, t), self.TS)

    def test_cusp_term(self):
        _assert_array_matches_scalars(cusp_term, self.TS)

    def test_hyperbolic_trace(self):
        spec = _sphere()
        _assert_array_matches_scalars(
            lambda t: hyperbolic_trace(spec, t), self.TS)

    def test_hyperbolic_trace_pinched(self):
        # l = 1e-6 needs 4.4e6 k-terms at t = 0.05, 6.6e7 (t, k) pairs
        # over the array: the (class, k) axis is processed in blocks
        spec = _sphere()
        spec = _shortened(spec, 1e-6)
        ts = np.geomspace(0.005, 0.05, 15)
        _assert_array_matches_scalars(
            lambda t: hyperbolic_trace(spec, t), ts)

    def test_relative_heat_trace(self):
        spec = _sphere()
        fam = CuspFamily((1.0, 2.0, 1.5))
        _assert_array_matches_scalars(
            lambda t: relative_heat_trace(spec, fam, t), self.TS)

    def test_shape_preserved(self):
        ts = self.TS.reshape(3, 5)
        assert parabolic_p(ts).shape == (3, 5)
        assert cusp_term(ts[:1]).shape == (1, 5)

    # 5e-324 and 1.7e308 lie outside the range where the terms are
    # representable: the identity term's 1/t and t lam^2 overflow there
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0,
                                     5e-324, 1.7e308])
    def test_nonfinite_or_nonpositive_t_refused(self, bad):
        spec = _sphere()
        fam = CuspFamily((1.0, 1.0, 1.0))
        ts = np.array([0.5, bad])
        for fn in (parabolic_p, cusp_term,
                   lambda t: identity_term(1.0, t),
                   lambda t: hyperbolic_trace(spec, t),
                   lambda t: cut_height_term(fam, t),
                   lambda t: relative_heat_trace(spec, fam, t)):
            with pytest.raises(DomainError):
                fn(bad)
            with pytest.raises(DomainError):
                fn(ts)

    def test_empty_t_refused(self):
        with pytest.raises(DomainError):
            parabolic_p(np.array([]))


class TestRelativeHeatTrace:
    def test_affine_in_cut_heights(self):
        g = builtin_group("thrice-punctured-sphere")
        spec = enumerate_length_spectrum(g, 8.0, 8)
        t = 0.6
        f1 = CuspFamily((1.0, 1.0, 1.0))
        f2 = CuspFamily((2.0, 3.0, 1.5))
        v1 = relative_heat_trace(spec, f1, t)
        v2 = relative_heat_trace(spec, f2, t)
        gauss = math.exp(-t / 4.0) / math.sqrt(4.0 * math.pi * t)
        assert abs((v2 - v1) - gauss * f2.log_sum) < 1e-13

    def test_cusp_count_mismatch(self):
        g = builtin_group("thrice-punctured-sphere")
        spec = enumerate_length_spectrum(g, 6.0, 6)
        with pytest.raises(DomainError):
            relative_heat_trace(spec, CuspFamily((1.0,)), 1.0)
