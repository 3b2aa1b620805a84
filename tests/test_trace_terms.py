import itertools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import CUSP_TERM_LADDER
from cuspspec.errors import DomainError
from cuspspec.fuchsian import (
    LengthSpectrum,
    SpectrumEntry,
    builtin_group,
    enumerate_length_spectrum,
)
from cuspspec.trace_terms import (
    P_EXPANSION,
    CuspFamily,
    _parabolic_series,
    cusp_term,
    cut_height_term,
    expansion_value,
    hyperbolic_trace,
    identity_term,
    parabolic_p,
    relative_heat_trace,
)


def _shortened(spec, ell):
    """spec with its shortest class replaced by a geodesic of length ell."""
    first = spec.entries[0]
    return LengthSpectrum((SpectrumEntry(ell, first.mult),) + spec.entries[1:],
                          spec.cutoff, spec.surface)


def _tiny_length_spectrum():
    """The sphere's length-6 spectrum with its shortest class at 1e-6."""
    return _shortened(enumerate_length_spectrum(
        builtin_group("thrice-punctured-sphere"), 6.0, 6), 1e-6)


class TestCuspFamily:
    def test_log_sum(self):
        fam = CuspFamily((1.0, math.e, math.e ** 2))
        assert abs(fam.log_sum - 3.0) < 1e-14

    def test_validation(self):
        with pytest.raises(DomainError):
            CuspFamily(())
        with pytest.raises(DomainError):
            CuspFamily((0.5,))


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
        v = hyperbolic_trace(_tiny_length_spectrum(), 0.5)
        assert math.isfinite(v) and v > 0.0

    def test_tiny_length_matches_fsum(self):
        # 1.4e7 (class, k) pairs at t = 0.5, summed in windows, against
        # the correctly rounded sum of the same terms, taken a chunk of
        # k at a time; k runs one step past the Gaussian cut, whose
        # terms are below 1e-43 relative
        spec, t = _tiny_length_spectrum(), 0.5
        cut = 2.0 * math.sqrt(43.0 * math.log(10.0) * t)

        def terms():
            for e in spec.entries:
                k_max = int(cut / e.length) + 1
                for k0 in range(1, k_max + 1, 1 << 20):
                    x = np.arange(k0, min(k0 + (1 << 20), k_max + 1)) \
                        * e.length
                    yield (e.mult * e.length / np.sinh(x / 2.0)
                           * np.exp(-x * x / (4.0 * t))).tolist()

        ref = (math.fsum(itertools.chain.from_iterable(terms()))
               * math.exp(-t / 4.0) / math.sqrt(16.0 * math.pi * t))
        assert abs(hyperbolic_trace(spec, t) - ref) <= 1e-14 * ref

    def test_leading_term_at_small_t(self):
        # at t = 1e-3 every class is longer than c(t), and the cut
        # x^2 <= l_1^2 + c(t)^2 still keeps the leading pair (l_1, k = 1):
        # the column is 3.8e-297, not 0
        spec = enumerate_length_spectrum(
            builtin_group("once-punctured-torus(3.2)"), 10.0, 10)
        ref = 3.8159717755763392e-297
        for ts in (1e-3, np.array([1e-6, 1e-5, 1e-4, 1e-3])):
            v = np.ravel(hyperbolic_trace(spec, ts))[-1]
            assert abs(v - ref) <= 1e-14 * ref

    # 5.16e-3 is where c(t) = l_1 = 1.4292
    @pytest.mark.parametrize("t", [1e-3, 5e-3, 5.16e-3, 0.0766, 1.0, 8.0])
    def test_cut_free_oracle(self, t):
        # every (class, k) pair in 40 digits, with no cut: each class is
        # summed until its terms fall below 1e-45 of its first, and the
        # Gaussian makes the rest smaller still.  Below t = 0.017 the bound
        # is the rounding of the leading exponent a = l_1/2 + l_1^2/4t
        # (a = 511 at t = 1e-3, where rounding a alone to a double can
        # move the term by 2.8e-14 relative)
        with mp.workdps(40):
            ref = mp.mpf(0)
            for e in _BATCH_SPECTRUM.entries:
                ell = mp.mpf(e.length)
                first = None
                for k in itertools.count(1):
                    x = k * ell
                    term = ell / mp.sinh(x / 2) * mp.exp(-x * x / (4 * t))
                    first = first or term
                    if term < first * mp.mpf(10) ** -45:
                        break
                    ref += e.mult * term
            ref *= mp.exp(-mp.mpf(t) / 4) / mp.sqrt(16 * mp.pi * t)
        ell = _BATCH_SPECTRUM.entries[0].length
        a = ell / 2.0 + ell * ell / (4.0 * t)
        assert abs(hyperbolic_trace(_BATCH_SPECTRUM, t) - ref) \
            <= max(1e-14, 3.0 * 2.0 ** -53 * a) * ref

    @pytest.mark.parametrize("spec, ts", [
        ("tiny", [0.5]),
        ("torus4000", [3000.0]),
        ("torus4000", [0.01, 1.0, 10.0, 100.0, 1000.0, 3000.0])])
    def test_memory_bounded(self, spec, ts):
        # the pairs are built a window at a time, never as one table or
        # a (t, pairs) rectangle: the torus(4000) curve of length 1e-3
        # has 1.1e6 pairs at t = 3000
        if spec == "tiny":
            spec = _tiny_length_spectrum()
        else:
            spec = enumerate_length_spectrum(
                builtin_group("once-punctured-torus(4000)"), 6.0, 4)
        spec.length_arrays
        tracemalloc.start()
        try:
            hyperbolic_trace(spec, np.array(ts))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20e6


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
        assert all(a % 1.0 for a, k, c in CUSP_TERM_LADDER)
        for t in (1e-6, 1e-3, 1e-2):
            gap = abs(cusp_term(t) - expansion_value(CUSP_TERM_LADDER, t))
            assert gap <= 0.02 * t ** 1.5 * abs(math.log(t))

    def test_ladder_and_series_meet(self):
        # below t = 3e-7 P(t) is the small-t ladder, above it the series
        t = 3.0001e-7
        assert abs(expansion_value(P_EXPANSION, t) - parabolic_p(t)) \
            <= 1e-14 * abs(parabolic_p(t))

    def test_split_side_of_each_t(self):
        # 3e-7 itself takes the series and the double below it the
        # ladder, bit for bit, alone or side by side in one call
        below = float(np.nextafter(3e-7, 0.0))
        series = _parabolic_series(np.array([3e-7]))[0]
        ladder = expansion_value(P_EXPANSION, np.array([below]))[0]
        assert parabolic_p(3e-7) == series
        assert parabolic_p(below) == ladder
        assert parabolic_p(np.array([below, 3e-7])).tolist() == [ladder,
                                                                 series]

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


_BATCH_SPECTRUM = enumerate_length_spectrum(
    builtin_group("once-punctured-torus(3.47)"), 8.0, 8)
_BATCH_TERMS = (
    lambda t: identity_term(2.0 * math.pi, t),
    lambda t: hyperbolic_trace(_BATCH_SPECTRUM, t),
    parabolic_p,
    lambda t: relative_heat_trace(_BATCH_SPECTRUM, CuspFamily((1.5,)), t))
_BATCH_RNG = np.random.default_rng(27)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.one_of(st.floats(3e-7, 1e-3), st.floats(1e-3, 60.0),
                          st.floats(60.0, 3000.0)),
                min_size=2, max_size=40))
@example(_BATCH_RNG.uniform(1e-3, 60.0, 3000).tolist())
# P(t)'s direct sums run to 8.5e3-2.2e4 terms a t here, about 3.6e6 in
# all: 14 blocks of 2^18 elements
@example(_BATCH_RNG.uniform(3e-7, 2e-6, 300).tolist())
def test_batch_matches_single_t(ts):
    # the value at each t is bit for bit the single-t call's, whatever
    # other t share the call and in whatever order
    ts = np.array(ts)
    for fn in _BATCH_TERMS:
        single = np.array([fn(t) for t in ts.tolist()])
        assert np.array_equal(fn(ts).view(np.int64), single.view(np.int64))


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
