"""Acceptance suite: one test per criterion, each reporting a single
pass/fail line in the terminal summary.

Criterion 4 checks the leading small-t coefficients of the parabolic
integral P(t) = int_R e^{-t(1/4+r^2)} Re psi(1+ir) dr.  Inserting
Re psi(1+ir) = log|r| + 1/(12 r^2) + O(r^-4) (DLMF 5.11.2), substituting
u = sqrt(t) r and using int_0^inf e^{-u^2} log u du
= -(sqrt(pi)/4)(gamma + 2 log 2) gives

    P(t) = -(sqrt(pi)/2) log t / sqrt(t)
           - (sqrt(pi)/2)(gamma + 2 log 2) / sqrt(t) + O(1).

An earlier target, -(pi/2) log t / t, was dropped: since
|Re psi(1+ir)| <= log(1+|r|) + C, P(t) is O(|log t|/sqrt(t)) and has no
1/t term at all (at t = 1e-5, P = 2.7e3 while (pi/2)|log t|/t = 1.8e6).
The defining integral itself is checked against mpmath quadrature in
tests/test_trace_terms.py.
"""

import math
import time

import mpmath as mp
import numpy as np

from conftest import engine_cusp_constant, record_criterion, wolpert_series
from cuspspec import degeneration, dtn_cusp, specfun
from cuspspec import trace_terms, zeta_engine
from cuspspec.cusp_model import CuspFamily, cusp_heat_kernel
from cuspspec.fuchsian import builtin_group, enumerate_length_spectrum


def test_criterion_1_cusp_trace_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for a in (2.0, math.e, 10.0):
        for t in (0.1, 1.0, 10.0):
            def integrand(y, a=a, t=t):
                return (cusp_heat_kernel(a, y, y, t)
                        - cusp_heat_kernel(1.0, y, y, t)) / (y * y)

            quad = (specfun.integrate(integrand, 1.0, a).value
                    + specfun.integrate(integrand, a, np.inf).value)
            # minus theta's cut-height column for the one height a
            ref = -trace_terms.cut_height_term(CuspFamily((a,)), t)
            worst = max(worst, abs(float(quad) - ref))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    record_criterion(1, ok, "cut-height column vs kernel quadrature, "
                     "worst %.2e, %.1fs"
                     % (worst, elapsed))
    assert ok


def test_criterion_2_dtn_limits():
    worst = 0.0
    monotone = True
    for n in (1, 2, 3):
        for beta in (1.0, 1.5, 3.0):
            ref = dtn_cusp.n2_zero_symbol(n, beta)
            for target in (1.0, 0.0):
                for sign in (1.0, -1.0):
                    worst = max(worst, abs(
                        dtn_cusp.n2_symbol(target + sign * 1e-6, n, beta)
                        - ref))
                errs = [abs(dtn_cusp.n2_symbol(target + eps, n, beta) - ref)
                        for eps in (1e-3, 1e-4, 1e-5, 1e-6)]
                monotone &= all(b < a for a, b in zip(errs, errs[1:]))
    ok = worst <= 1e-6 and monotone
    record_criterion(2, ok, "DtN limit worst %.2e, monotone=%s"
                     % (worst, monotone))
    assert ok


def test_criterion_3_scattering_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        res = []
        for _ in range(int(rng.integers(1, 4))):
            re = float(rng.uniform(-3.0, 0.4))
            im = float(rng.uniform(0.05, 4.0))
            order = int(rng.integers(1, 3))
            res.append((complex(re, im), order))
            res.append((complex(re, -im), order))
        model = trace_terms.ScatteringModel(
            tuple(res), float(rng.uniform(0.5, 4.0)))
        for t in (0.3, 1.0, 5.0):
            a = trace_terms.scattering_integral(model, t)
            b = trace_terms.scattering_erfc_sum(model, t)
            worst = max(worst, abs(a - b) / (1.0 + abs(b)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    record_criterion(3, ok, "identity residual worst %.2e, %.1fs"
                     % (worst, elapsed))
    assert ok


def test_criterion_4_parabolic_leading_coefficient():
    # leading term -(sqrt(pi)/2) log t/sqrt(t), next -(sqrt(pi)/2)(gamma +
    # 2 log 2)/sqrt(t); targets are written out here rather than taken from
    # cuspspec so the check stays independent of the constants it guards
    ts = np.geomspace(1e-5, 1e-3, 7)
    ps = np.array([trace_terms.parabolic_p(float(t)) for t in ts])
    # least-squares fit of P(t) = A log(t)/sqrt(t) + B/sqrt(t) + C
    # + D sqrt(t) log(t) on the window; the last two columns absorb the
    # O(1) and O(sqrt(t) log t) corrections so they do not bias A and B
    rt, lt = np.sqrt(ts), np.log(ts)
    basis = np.column_stack([lt / rt, 1.0 / rt, np.ones_like(ts), rt * lt])
    coef, *_ = np.linalg.lstsq(basis, ps, rcond=None)
    a_fit, b_fit = float(coef[0]), float(coef[1])
    euler_gamma = 0.5772156649015329
    target_a = -math.sqrt(math.pi) / 2.0
    target_b = -math.sqrt(math.pi) / 2.0 * (euler_gamma + 2.0 * math.log(2.0))
    ok_a = abs(a_fit - target_a) <= 1e-3 * abs(target_a)
    ok_b = abs(b_fit - target_b) <= 1e-3 * abs(target_b)
    ok = ok_a and ok_b
    record_criterion(4, ok,
                     "P(t) fit A=%.6g vs -sqrt(pi)/2, B=%.6g vs "
                     "-(sqrt(pi)/2)(gamma+2log2)" % (a_fit, b_fit))
    assert ok


def test_criterion_4_companion_observed_ladder():
    # the expansion that does hold: leading term -(sqrt(pi)/2) log t/sqrt t
    t = 1e-4
    p = trace_terms.parabolic_p(t)
    approx = trace_terms.expansion_value(trace_terms.P_EXPANSION, t)
    ok = abs(p - approx) <= 1e-6 * abs(p)
    record_criterion(4, ok, "companion: half-integer ladder rel %.2e"
                     % (abs(p - approx) / abs(p)))
    assert ok


def test_criterion_5_zeta_engine_oracle():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 21))
        lam = np.sort(rng.uniform(0.1, 50.0, n))

        def theta(t, lam=lam):
            t = np.atleast_1d(np.asarray(t, dtype=float))
            return np.sum(np.exp(-np.multiply.outer(t, lam)), axis=1)

        t_max = min(500.0, max(40.0, 45.0 / float(lam[0])))
        res = zeta_engine.mellin_zeta_prime0(
            theta, ((0.0, 0, float(n)),), 0.0, t_max=t_max, min_decay=0.02)
        ref_log = float(np.sum(np.log(lam)))
        worst = max(worst, abs(res.zeta_prime_zero + ref_log))

    # h-subtraction: one zero mode on top of a finite spectrum
    lam = np.array([0.5, 2.0, 7.0])

    def theta0(t, lam=lam):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return 1.0 + np.sum(np.exp(-np.multiply.outer(t, lam)), axis=1)

    res0 = zeta_engine.mellin_zeta_prime0(theta0, ((0.0, 0, 4.0),), 1.0,
                                          t_max=90.0)
    worst = max(worst, abs(res0.zeta_prime_zero
                           + float(np.sum(np.log(lam)))))
    ok = worst <= 1e-8
    record_criterion(5, ok, "finite-spectrum dets, worst |dlog| %.2e"
                     % worst)
    assert ok


def test_criterion_6_length_spectrum():
    g = builtin_group("thrice-punctured-sphere")
    spec = enumerate_length_spectrum(g, 6.0, 6)
    systole_ok = abs(spec.entries[0].length - 2.0 * math.acosh(3.0)) <= 1e-12
    # exhaustive oracle at word radius 6 gives multiplicity 6 for the
    # systole (three cyclic words and their inverses)
    mult_ok = spec.entries[0].mult == 6
    gaps_ok = all(b.length - a.length > 1e-9
                  for a, b in zip(spec.entries, spec.entries[1:]))
    ok = systole_ok and mult_ok and gaps_ok
    record_criterion(6, ok, "systole %.12f mult %d" %
                     (spec.entries[0].length, spec.entries[0].mult))
    assert ok


def test_criterion_7_wolpert():
    sup = 0.0
    for ell in np.geomspace(1e-4, 1e-1, 13):
        sup = max(sup, abs(degeneration.wolpert_sum(float(ell))
                           - degeneration.wolpert_asymptotic(float(ell))))
    worst_rel = 0.0
    with mp.workdps(30):
        for ell, n_terms in ((1e-4, 500000), (1e-3, 400000),
                             (0.01, 40000), (0.1, 4000)):
            ref = wolpert_series(ell, n_terms)
            mine = degeneration.wolpert_sum(ell)
            worst_rel = max(worst_rel, float(abs(mine - ref) / abs(ref)))
    ok = sup <= 1.0 and worst_rel <= 1e-10
    record_criterion(7, ok, "sup diff %.3f, oracle rel %.2e"
                     % (sup, worst_rel))
    assert ok


def test_criterion_8_degeneration_sweep():
    start = time.perf_counter()
    from cuspspec.fuchsian import LengthSpectrum, SpectrumEntry, SurfaceData
    surface = SurfaceData(genus=0, cusps=3)
    base = LengthSpectrum((SpectrumEntry(2.5, 1), SpectrumEntry(3.5, 1)),
                          6.0, surface)
    grid = sorted(np.geomspace(1e-3, 1e-1, 15), reverse=True)

    rows1 = degeneration.pinch_sweep(base, [0], grid, 0.0)
    ests1 = [r.log_det_estimate for r in rows1]
    dec1 = all(b < a for a, b in zip(ests1, ests1[1:]))
    x = np.array([1.0 / r.ell for r in rows1])
    slope1 = float(np.polyfit(x, ests1, 1)[0])
    rel1 = abs(slope1 + math.pi ** 2 / 6.0) / (math.pi ** 2 / 6.0)

    rows2 = degeneration.pinch_sweep(base, [0, 1], grid, 0.0)
    ests2 = [r.log_det_estimate for r in rows2]
    slope2 = float(np.polyfit(x, ests2, 1)[0])
    rel2 = abs(slope2 + math.pi ** 2 / 3.0) / (math.pi ** 2 / 3.0)

    # exp underflows to exactly 0 deep into the sweep; monotone
    # non-increasing with an overall strict drop captures the vanishing
    dets = [math.exp(r.log_det_estimate) for r in rows1 if r.ell < 0.05]
    vanish = (all(b <= a for a, b in zip(dets, dets[1:]))
              and dets[-1] < dets[0])

    elapsed = time.perf_counter() - start
    ok = dec1 and rel1 <= 0.05 and rel2 <= 0.05 and vanish and elapsed < 60.0
    record_criterion(8, ok,
                     "slopes %.4f/%.4f (rel %.3f/%.3f), vanishing=%s, %.1fs"
                     % (slope1, slope2, rel1, rel2, vanish, elapsed))
    assert ok


def test_criterion_9_relative_determinant_convergence():
    g = builtin_group("thrice-punctured-sphere")
    fam = CuspFamily((1.0, 1.0, 1.0))
    eps = 1e-4
    radius = 13  # common word ball so the comparison varies cutoff only
    res = {}
    for cutoff in (12.0, 14.0):
        spec = enumerate_length_spectrum(g, cutoff, radius)
        t_max = zeta_engine.max_t_for_cutoff(12.0, eps)
        res[cutoff] = zeta_engine.relative_determinant(
            spec, fam, t_max, eps_trunc=eps)
    d12 = res[12.0].zeta.determinant
    d14 = res[14.0].zeta.determinant
    rel = abs(d12 - d14) / abs(d14)

    a_tilde = math.exp(-zeta_engine.xi_prime0(g.surface.cusps))
    factor_ok = all(
        abs(r.zeta.determinant - a_tilde * r.det_hyp)
        <= 1e-12 * r.zeta.determinant for r in res.values())

    # the Mellin engine run on the cusp term reproduces the closed form
    engine_c = engine_cusp_constant().zeta_prime_zero
    a_tilde_again = math.exp(-g.surface.cusps * engine_c)
    repro = abs(a_tilde - a_tilde_again) <= 1e-6 * a_tilde

    ok = rel <= 1e-3 and factor_ok and repro
    record_criterion(9, ok, "cutoff 12 vs 14 rel %.2e, factorization=%s, "
                     "constant repro=%s" % (rel, factor_ok, repro))
    assert ok
