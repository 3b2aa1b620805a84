import math

import mpmath as mp
import numpy as np
import pytest

from cuspspec import cusp_model, specfun
from cuspspec.cusp_model import (
    ScatteringModel,
    bessel_k_scaled,
    cusp_heat_kernel,
    model_from_json,
    n2_symbol,
    n2_zero_symbol,
    phi_log_deriv,
    scattering_erfc_sum,
    scattering_integral,
)
from cuspspec.errors import DomainError, PoleError, QuadratureError
from cuspspec.trace_terms import CuspFamily, cut_height_term


def _trace_by_quadrature(a, t):
    """int_1^inf (p_a - p_1)(y, y, t) y^-2 dy, split at the kink y = a."""

    def integrand(y):
        return (cusp_heat_kernel(a, y, y, t)
                - cusp_heat_kernel(1.0, y, y, t)) / (y * y)

    lo = specfun.integrate(integrand, 1.0, a)[0]
    hi = specfun.integrate(integrand, a, np.inf)[0]
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


# Bessel K arguments: the lower end of the supported range, the
# smallest argument of the cusp DtN symbol (2 pi), and far beyond the
# e^{-x} underflow of the unscaled function
BESSEL_XS = (2.0, 2.0 * math.pi, 5.0, 12.0, 2000.0)


class TestBesselK:
    def test_half_integer_closed_forms(self):
        for x in BESSEL_XS:
            pref = math.sqrt(math.pi / (2.0 * x))
            val = bessel_k_scaled(0.5, x)
            assert abs(val - pref) < 1e-12 * pref
            ref32 = pref * (1.0 + 1.0 / x)
            val32 = bessel_k_scaled(1.5, x)
            assert abs(val32 - ref32) < 1e-12 * ref32

    def test_recurrence(self):
        # K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x); the scaling
        # e^x is common to all three terms
        for nu in (1.3, 1.7, 1.2):
            for x in BESSEL_XS:
                lhs = bessel_k_scaled(nu + 1.0, x)
                rhs = (bessel_k_scaled(nu - 1.0, x)
                       + 2.0 * nu / x * bessel_k_scaled(nu, x))
                assert abs(lhs - rhs) < 1e-11 * abs(lhs)

    def test_scaled_consistency(self):
        for nu in (0.0, 0.5, 1.2, 7.3):
            for x in BESSEL_XS:
                ref = mp.exp(x) * mp.besselk(nu, x)
                scaled = bessel_k_scaled(nu, x)
                assert abs(scaled - ref) < 1e-11 * abs(scaled)

    def test_mpmath_sweep(self):
        # the documented domain 0 <= nu <= 50, 2 <= x < inf (the worst
        # measured relative error is 2.1e-15, at nu = 50)
        with mp.workdps(30):
            for nu in (*np.linspace(0.0, 50.0, 11), 1.0 / 3.0, 49.5):
                for x in (2.0, *np.geomspace(2.0001, 1e4, 11)):
                    ref = mp.exp(x) * mp.besselk(nu, x)
                    val = bessel_k_scaled(float(nu), float(x))
                    assert abs(val - ref) <= 5e-15 * ref

    def test_scaled_survives_huge_argument(self):
        # unscaled K underflows near x ~ 740; the scaled form must not
        val = bessel_k_scaled(1.5, 2000.0)
        ref = math.sqrt(math.pi / 4000.0) * (1.0 + 1.0 / 2000.0)
        assert abs(val - ref) < 1e-12 * ref

    def test_nonpositive_argument_rejected(self):
        with pytest.raises(DomainError):
            bessel_k_scaled(0.5, 0.0)
        # and an order past the recurrence's bound of 50
        with pytest.raises(DomainError):
            bessel_k_scaled(51.0, 3.0)
        with pytest.raises(DomainError):
            bessel_k_scaled(0.5, -1.0)

    @pytest.mark.parametrize("x", [1.9, math.nan, math.inf])
    def test_outside_continued_fraction_range_refused(self, x):
        # Steed's continued fraction loses digits below x = 2
        with pytest.raises(DomainError):
            bessel_k_scaled(0.5, x)

    def test_unconverged_continued_fraction_raises(self, monkeypatch):
        # at x = 2, the slowest end of the domain, mu = 0.3 needs more
        # than one step of the continued fraction; at mu = 1/2 its first
        # correction is exactly 0
        monkeypatch.setattr(cusp_model, "_BESSEL_MAXIT", 3)
        with pytest.raises(QuadratureError, match="Steed"):
            bessel_k_scaled(0.3, 2.0)
        assert bessel_k_scaled(0.5, 2.0) == math.sqrt(math.pi / 4.0)


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


class TestSymbolParameterRange:
    @pytest.mark.parametrize("s", [49.5, -49.5])
    def test_edge_of_order_range_accepted(self, s):
        # the orders |s +- 1/2| reach the Bessel recurrence's bound of 50
        x = n2_zero_symbol(1, 1.5)
        with mp.workdps(30):
            ref = -s + x * (mp.besselk(abs(s + 0.5), x)
                            / mp.besselk(abs(s - 0.5), x))
        assert abs(n2_symbol(s, 1, 1.5) - ref) < 1e-13 * abs(ref)

    @pytest.mark.parametrize("s", [49.6, -50.0, 1e300])
    def test_past_order_range_refused_in_terms_of_s(self, s):
        with pytest.raises(DomainError, match=r"\|s\| <= 49\.5"):
            n2_symbol(s, 1, 1.5)
        # mode 0 has no Bessel order and takes any finite s
        assert n2_symbol(s, 0, 1.5) == (s - 1.0 if s > 0.5 else -s)


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

    @pytest.mark.parametrize("order", [2.5, 0.5, -1.5])
    def test_fractional_order_refused(self, order):
        # not truncated: int() would read 2.5 as 2, and 0.5 as 0
        with pytest.raises(DomainError, match="must be integers"):
            ScatteringModel(((complex(-0.3, 1.0), order),
                             (complex(-0.3, -1.0), order)), 2.0)

    @pytest.mark.parametrize("order", [math.nan, math.inf])
    def test_non_finite_order_refused(self, order):
        # int() of these raised ValueError and OverflowError
        with pytest.raises(DomainError, match="must be integers"):
            ScatteringModel(((complex(-0.3, 0.0), order),), 1.0)

    def test_integral_float_order_accepted(self):
        m = ScatteringModel(((complex(-0.3, 0.0), 2.0),), 1.0)
        assert m.resonances == ((complex(-0.3, 0.0), 2),)

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
        {"q": 2.0, "resonances": [{"re": -0.3, "im": 0.0, "order": "x"}]},
        # a JSON boolean is no number, though Python reads true as 1
        {"q": True, "resonances": [{"re": -0.3, "im": 1.0, "order": True},
                                   {"re": -0.3, "im": -1.0, "order": True}]},
        *({"q": 2.0, "resonances": [dict({"re": -0.3, "im": 0.0,
                                          "order": 1}, **{key: flag})]}
          for key in ("re", "im", "order") for flag in (True, False)),
        {"q": False, "resonances": []},
    ])
    def test_malformed_json_refused(self, obj):
        with pytest.raises(DomainError):
            model_from_json(obj)

    @pytest.mark.parametrize("resonances, q", [
        ((("x", 1),), 1.0),
        (((None, 1),), 1.0),
        ((("-0.3", 1),), 1.0),
        ((), "x"),
        ((), None),
        ((), "2.0"),
    ])
    def test_malformed_model_refused(self, resonances, q):
        # the JSON reader converts its fields before the model sees them;
        # built directly, these raised a bare ValueError or TypeError
        with pytest.raises(DomainError):
            ScatteringModel(resonances, q)


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
