import mpmath as mp

from cuspspec import trace_terms
from cuspspec.zeta_engine import mellin_zeta_prime0

CRITERION_RESULTS = []


def record_criterion(number, ok, detail):
    CRITERION_RESULTS.append((number, bool(ok), detail))
    return ok


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, ok, detail in sorted(CRITERION_RESULTS):
        terminalreporter.write_line(
            "criterion %d: %s  (%s)" % (number,
                                        "pass" if ok else "FAIL", detail))


def wolpert_series(ell, n_terms):
    """30-digit partial sum sum_{n<=n_terms} q^n/(n(1 - q^n)), q = e^{-ell},
    of the Wolpert series W(ell); q^n is kept as a running product."""
    with mp.workdps(30):
        q = mp.exp(-mp.mpf(ell))
        qn = mp.mpf(1)
        total = mp.mpf(0)
        for n in range(1, n_terms + 1):
            qn *= q
            total += qn / (n * (1 - qn))
        return total


def engine_cusp_constant():
    """The per-cusp constant as the Mellin engine computes it from
    cusp_term and its small-t expansion (a ZetaResult)."""
    return mellin_zeta_prime0(
        trace_terms.cusp_term, trace_terms.cusp_term_expansion(), 0.0,
        t_max=60.0)
