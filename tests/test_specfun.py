import math

import mpmath as mp
import numpy as np
import pytest

from cuspspec import specfun
from cuspspec.errors import DomainError, PoleError, QuadratureError

def weideman_fft(n=64):
    """L and the coefficients of Weideman's N-term Faddeeva approximation
    (SIAM J. Numer. Anal. 31, 1994), highest power first, built by his
    FFT construction with numpy's FFT."""
    m = 2 * n
    ell = math.sqrt(n / math.sqrt(2.0))
    k = np.arange(-m + 1, m)
    t = ell * np.tan(k * math.pi / (2 * m))
    fvals = np.concatenate([[0.0], np.exp(-t * t) * (ell * ell + t * t)])
    a = np.real(np.fft.fft(np.fft.fftshift(fvals))) / (2 * m)
    return ell, a[1:n + 1][::-1]


class TestIntegrate:
    def test_gaussian_half_line(self):
        value, error = specfun.integrate(lambda x: np.exp(-x * x),
                                         0.0, np.inf)
        assert abs(value - math.sqrt(math.pi) / 2.0) < 1e-12
        assert error < 1e-8

    def test_lorentzian_half_line(self):
        value, _ = specfun.integrate(lambda x: 1.0 / (1.0 + x * x),
                                     0.0, np.inf)
        assert abs(value - math.pi / 2.0) < 1e-10

    def test_half_line_exponential(self):
        value, _ = specfun.integrate(lambda x: np.exp(-3.0 * x), 0.0, np.inf)
        assert abs(value - 1.0 / 3.0) < 1e-12

    def test_finite_interval_polynomial_exact(self):
        value, _ = specfun.integrate(lambda x: x ** 3 - x, -1.0, 2.0)
        assert abs(value - (15.0 / 4.0 - 3.0 / 2.0)) < 1e-13

    def test_integrable_endpoint_singularity(self):
        value, _ = specfun.integrate(lambda x: 1.0 / np.sqrt(x), 1e-30, 1.0)
        assert abs(value - 2.0) < 1e-7

    def test_de_transform_tail(self):
        value, _ = specfun.integrate(lambda x: np.exp(-x) / np.sqrt(x),
                                     1.0, np.inf)
        # int_1^inf e^-x/sqrt(x) = sqrt(pi) erfc(1)
        ref = math.sqrt(math.pi) * math.erfc(1.0)
        assert abs(value - ref) < 1e-10

    def test_budget_exhaustion_raises(self):
        with pytest.raises(QuadratureError):
            specfun.integrate(lambda x: np.sin(50.0 * x) / (1e-3 + x * x),
                              0.0, 10.0, abs_tol=1e-300, rel_tol=1e-300,
                              max_subdivisions=4)

    def test_converges_on_last_subdivision(self):
        # the tolerance is first met after the second and last allowed
        # subdivision, so the result comes from the last convergence test
        def f(x):
            return np.sqrt(x + 0.1)

        value, _ = specfun.integrate(f, 0.0, 1.0, max_subdivisions=2)
        ref = 2.0 / 3.0 * (1.1 ** 1.5 - 0.1 ** 1.5)
        assert abs(value - ref) < 1e-15
        with pytest.raises(QuadratureError):
            specfun.integrate(f, 0.0, 1.0, max_subdivisions=1)

    def test_nan_integrand_never_converges(self):
        # no later panel brings back a NaN total, so the first panel's
        # raises instead of the subdivision budget running out
        calls = []

        def f(x):
            calls.append(x)
            return np.full_like(x, np.nan)

        with pytest.raises(QuadratureError,
                           match=r"quadrature on \(0\.0, 1\.0\) is not "
                                 r"finite: total nan, error nan"):
            specfun.integrate(f, 0.0, 1.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("b", [1.0, np.inf])
    def test_infinite_integrand_refused_at_once(self, sign, b):
        # an infinite node value makes the panel's total or error
        # non-finite, on a finite range and through the DE map alike;
        # numpy warns first at the Gauss rule's zero weights (0 * inf)
        calls = []

        def f(x):
            calls.append(x)
            return np.where(x < 0.5, sign * np.inf, 1.0)

        with pytest.raises(QuadratureError, match=r"is not finite"), \
                np.errstate(invalid="ignore"):
            specfun.integrate(f, 0.0, b)
        assert len(calls) == 1

    def test_bad_tolerance_rejected(self):
        f = lambda x: np.exp(-x * x)  # noqa: E731
        for kw in ({"abs_tol": 0.0}, {"rel_tol": -1e-10},
                   {"max_subdivisions": 0}):
            with pytest.raises(DomainError):
                specfun.integrate(f, 0.0, 1.0, **kw)

    def test_tolerances_keyword_only(self):
        with pytest.raises(TypeError):
            specfun.integrate(lambda x: x, 0.0, 1.0, 1e-10)

    def test_empty_interval(self):
        assert specfun.integrate(lambda x: np.exp(-x * x), 1.0, 1.0) == (
            0.0, 0.0)

    @pytest.mark.parametrize("a, b", [(-np.inf, 1.0), (2.0, 1.0),
                                      (0.0, np.nan)])
    def test_bad_limits_refused(self, a, b):
        # the lower limit is finite and no larger than the upper one
        with pytest.raises(DomainError):
            specfun.integrate(lambda x: np.exp(-x * x), a, b)

    def test_scalar_valued_integrand_rejected(self):
        # integrands are called once per panel on all 15 nodes and must
        # return an array of the nodes' shape, checked before the DE
        # map's Jacobian could broadcast a scalar to it
        for b in (1.0, np.inf):
            with pytest.raises(DomainError):
                specfun.integrate(lambda x: 1.0, 0.0, b)

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

    def test_weideman_table_is_fft_build(self):
        # the literals are the FFT construction's doubles, bit for bit
        ell, coeffs = weideman_fft()
        assert specfun._WEIDEMAN_L == ell
        assert len(specfun._WEIDEMAN_COEFFS) == 64
        np.testing.assert_array_equal(
            np.array(specfun._WEIDEMAN_COEFFS).view(np.uint64),
            coeffs.view(np.uint64))

    @pytest.mark.parametrize("z", [
        np.geomspace(1e-8, 1e4, 300_000),
        np.random.default_rng(17).uniform(0.0, 40.0, 100_000)
        + 1j * np.random.default_rng(18).uniform(-40.0, 40.0, 100_000)])
    def test_horner_is_polyval_bit_for_bit(self, z):
        # the Faddeeva formula with numpy's own polynomial evaluator: the
        # Horner loop must reproduce it exactly, on the real line and off
        from numpy.polynomial.polynomial import polyval
        ell, coeffs = weideman_fft()
        # erfcx(z) = w(iz), and w's formula takes i times its argument
        iz = 1j * (1j * z)
        ref = (2.0 * polyval((ell + iz) / (ell - iz), coeffs[::-1])
               / (ell - iz) ** 2 + (1.0 / math.sqrt(math.pi)) / (ell - iz))
        np.testing.assert_array_equal(specfun.erfcx(z), ref)

    @pytest.mark.parametrize("x", [
        np.geomspace(1e-8, 1e4, 300_000),
        np.random.default_rng(19).uniform(0.0, 50.0, 100_000), 0.0])
    def test_real_path_is_complex_real_part(self, x):
        # a real argument takes the real path; its values are the real
        # parts of the complex path's, bit for bit
        out = specfun.erfcx(x)
        ref = specfun.erfcx(np.asarray(x).astype(complex))
        if np.ndim(x) == 0:
            assert type(out) is float and type(ref) is complex
        else:
            assert out.dtype == np.float64 and out.shape == x.shape
            assert ref.dtype == np.complex128
        np.testing.assert_array_equal(out, ref.real)

    # Re z < 0 or NaN, an infinite part, and |z| past 1e154, where
    # (ell + z)^2 overflows
    @pytest.mark.parametrize("z", [-0.5, np.array([1.0, -30.0]), np.nan,
                                   -0.5 + 0.0j, complex(np.nan, 0.0),
                                   math.inf, complex(1.0, math.inf),
                                   complex(math.inf, 1.0),
                                   complex(1.0, math.nan), 1.4e154, 1e155j,
                                   np.array([1.0, math.inf])])
    def test_erfcx_left_half_plane_refused(self, z):
        with pytest.raises(DomainError):
            specfun.erfcx(z)
