import math

import mpmath as mp
import numpy as np
import pytest

from cuspspec import specfun
from cuspspec.errors import DomainError, PoleError, QuadratureError
from cuspspec.specfun import QuadratureSpec

# Bessel K arguments: the lower end of the supported range, the
# smallest argument of the cusp DtN symbol (2 pi), and far beyond the
# e^{-x} underflow of the unscaled function
BESSEL_XS = (2.0, 2.0 * math.pi, 5.0, 12.0, 2000.0)


class TestIntegrate:
    def test_gaussian_half_line(self):
        res = specfun.integrate(lambda x: np.exp(-x * x), 0.0, np.inf)
        assert abs(res.value - math.sqrt(math.pi) / 2.0) < 1e-12
        assert res.error < 1e-8

    def test_lorentzian_half_line(self):
        res = specfun.integrate(lambda x: 1.0 / (1.0 + x * x),
                                0.0, np.inf)
        assert abs(res.value - math.pi / 2.0) < 1e-10

    def test_half_line_exponential(self):
        res = specfun.integrate(lambda x: np.exp(-3.0 * x), 0.0, np.inf)
        assert abs(res.value - 1.0 / 3.0) < 1e-12

    def test_finite_interval_polynomial_exact(self):
        res = specfun.integrate(lambda x: x ** 3 - x, -1.0, 2.0)
        assert abs(res.value - (15.0 / 4.0 - 3.0 / 2.0)) < 1e-13

    def test_integrable_endpoint_singularity(self):
        res = specfun.integrate(lambda x: 1.0 / np.sqrt(x), 1e-30, 1.0)
        assert abs(res.value - 2.0) < 1e-7

    def test_de_transform_tail(self):
        res = specfun.integrate(lambda x: np.exp(-x) / np.sqrt(x),
                                1.0, np.inf)
        # int_1^inf e^-x/sqrt(x) = sqrt(pi) erfc(1)
        ref = math.sqrt(math.pi) * math.erfc(1.0)
        assert abs(res.value - ref) < 1e-10

    def test_budget_exhaustion_raises(self):
        spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300,
                              max_subdivisions=4)
        with pytest.raises(QuadratureError):
            specfun.integrate(lambda x: np.sin(50.0 * x) / (1e-3 + x * x),
                              0.0, 10.0, spec=spec)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=0.0)

    @pytest.mark.parametrize("a, b", [(-np.inf, 1.0), (2.0, 1.0),
                                      (0.0, np.nan)])
    def test_bad_limits_refused(self, a, b):
        # the lower limit is finite and no larger than the upper one
        with pytest.raises(DomainError):
            specfun.integrate(lambda x: np.exp(-x * x), a, b)

    def test_scalar_valued_integrand_rejected(self):
        # integrands are called once per panel on all 15 nodes and must
        # return an array of the nodes' shape
        with pytest.raises(DomainError):
            specfun.integrate(lambda x: 1.0, 0.0, 1.0)

    def test_kronrod_grid_exact_on_polynomials(self):
        x, w = specfun.kronrod_grid((0.0, 0.5, 2.0))
        assert x.shape == w.shape == (30,)
        assert abs(np.sum(w * x ** 9) - 2.0 ** 10 / 10.0) < 1e-12


class TestDigamma:
    def test_value_at_one(self):
        assert abs(specfun.digamma(1.0).real
                   + 0.5772156649015329) < 1e-13

    def test_recurrence(self):
        for z in (0.3, 2.0 + 1.5j, -0.7 + 0.2j):
            lhs = specfun.digamma(z + 1.0)
            rhs = specfun.digamma(z) + 1.0 / z
            assert abs(lhs - rhs) < 1e-11

    def test_vectorized(self):
        z = np.array([1.0, 2.0, 3.0])
        out = specfun.digamma(z)
        assert out.shape == z.shape
        assert abs(out[1].real - (1.0 - 0.5772156649015329)) < 1e-12

    def test_pole_rejected(self):
        with pytest.raises(PoleError):
            specfun.digamma(-2.0)

    def test_reflection_far_from_real_axis(self):
        # cos and sin of pi z overflow here; mpmath gives 6.9078+1.5720j
        # and 5.7038+1.5715j
        for z in (-0.7 + 1000j, 0.3 + 300j, -0.7 - 1000j):
            ref = complex(mp.digamma(z))
            assert abs(specfun.digamma(z) - ref) <= 1e-15 * abs(ref)

    def test_mpmath_sweep(self):
        # the whole plane off the poles, Re z in [-50.3, 1e3] and |Im z|
        # up to 1e3; the error is taken against max(1, |psi|) since psi
        # has zeros (the worst measured is 1.2e-15)
        xs = np.concatenate([-0.3 - np.geomspace(1e-3, 50.0, 9),
                             [-7.5, -0.5, 0.0, 0.25, 0.5, 1.0,
                              1.4616321449683622],
                             np.geomspace(2.0, 1e3, 6)])
        ys = np.geomspace(1e-3, 1e3, 13)
        z = (xs[:, None] + 1j * np.concatenate([[0.0], ys, -ys])).ravel()
        z = z[(z.imag != 0.0) | (z.real != np.rint(z.real))
              | (z.real > 0.0)]
        out = specfun.digamma(z)
        with mp.workdps(30):
            ref = np.array([complex(mp.digamma(zi)) for zi in z])
        assert np.all(np.abs(out - ref) <= 4e-15 * np.maximum(1.0,
                                                              np.abs(ref)))


class TestErfc:
    def test_erfcx_consistency(self):
        for x in (0.1, 1.0, 4.0, 10.0):
            lhs = specfun.erfcx(x).real
            rhs = math.exp(x * x) * math.erfc(x)
            assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    def test_erfcx_large_argument(self):
        # erfcx(x) ~ 1/(x sqrt(pi)) with no overflow
        x = 1e4
        val = specfun.erfcx(x).real
        assert abs(val * x * math.sqrt(math.pi) - 1.0) < 1e-6

    def test_erfcx_array_matches_scalar(self):
        z = np.array([[0.0, 0.1, 2.0 + 1.0j, 0.5 + 0.3j],
                      [12.0, 1e3, 3.0 - 2.0j, 2.0j]])
        out = specfun.erfcx(z)
        assert out.shape == z.shape
        for zi, oi in zip(z.ravel(), out.ravel()):
            ref = specfun.erfcx(complex(zi))
            assert isinstance(ref, complex)
            assert abs(oi - ref) <= 1e-15 * abs(ref)

    def test_erfcx_mpmath_sweep(self):
        # the closed right half-plane out to |x| = 1e4 and |y| = 60 (the
        # worst measured relative error is 1.4e-15)
        ys = np.geomspace(1e-6, 60.0, 15)
        z = (np.concatenate([[0.0], np.geomspace(1e-6, 1e4, 21)])[:, None]
             + 1j * np.concatenate([[0.0], ys, -ys])).ravel()
        out = specfun.erfcx(z)
        with mp.workdps(30):
            ref = np.array([complex(mp.exp(mp.mpc(zi) ** 2)
                                    * mp.erfc(mp.mpc(zi))) for zi in z])
        assert np.all(np.abs(out - ref) <= 4e-15 * np.abs(ref))

    @pytest.mark.parametrize("z", [-0.5, np.array([1.0, -30.0]), np.nan])
    def test_erfcx_left_half_plane_refused(self, z):
        with pytest.raises(DomainError):
            specfun.erfcx(z)


class TestBesselK:
    def test_half_integer_closed_forms(self):
        for x in BESSEL_XS:
            pref = math.sqrt(math.pi / (2.0 * x))
            val = specfun.bessel_k_scaled(0.5, x)
            assert abs(val - pref) < 1e-12 * pref
            ref32 = pref * (1.0 + 1.0 / x)
            val32 = specfun.bessel_k_scaled(1.5, x)
            assert abs(val32 - ref32) < 1e-12 * ref32

    def test_recurrence(self):
        # K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x); the scaling
        # e^x is common to all three terms
        for nu in (1.3, 1.7, 1.2):
            for x in BESSEL_XS:
                lhs = specfun.bessel_k_scaled(nu + 1.0, x)
                rhs = (specfun.bessel_k_scaled(nu - 1.0, x)
                       + 2.0 * nu / x * specfun.bessel_k_scaled(nu, x))
                assert abs(lhs - rhs) < 1e-11 * abs(lhs)

    def test_scaled_consistency(self):
        for nu in (0.0, 0.5, 1.2, 7.3):
            for x in BESSEL_XS:
                ref = mp.exp(x) * mp.besselk(nu, x)
                scaled = specfun.bessel_k_scaled(nu, x)
                assert abs(scaled - ref) < 1e-11 * abs(scaled)

    def test_mpmath_sweep(self):
        # the documented domain 0 <= nu <= 50, 2 <= x < inf (the worst
        # measured relative error is 2.1e-15, at nu = 50)
        with mp.workdps(30):
            for nu in (*np.linspace(0.0, 50.0, 11), 1.0 / 3.0, 49.5):
                for x in (2.0, *np.geomspace(2.0001, 1e4, 11)):
                    ref = mp.exp(x) * mp.besselk(nu, x)
                    val = specfun.bessel_k_scaled(float(nu), float(x))
                    assert abs(val - ref) <= 5e-15 * ref

    def test_scaled_survives_huge_argument(self):
        # unscaled K underflows near x ~ 740; the scaled form must not
        val = specfun.bessel_k_scaled(1.5, 2000.0)
        ref = math.sqrt(math.pi / 4000.0) * (1.0 + 1.0 / 2000.0)
        assert abs(val - ref) < 1e-12 * ref

    def test_nonpositive_argument_rejected(self):
        with pytest.raises(DomainError):
            specfun.bessel_k_scaled(0.5, 0.0)
        with pytest.raises(DomainError):
            specfun.bessel_k_scaled(0.5, -1.0)

    @pytest.mark.parametrize("x", [1.9, math.nan, math.inf])
    def test_outside_continued_fraction_range_refused(self, x):
        # Steed's continued fraction loses digits below x = 2
        with pytest.raises(DomainError):
            specfun.bessel_k_scaled(0.5, x)
