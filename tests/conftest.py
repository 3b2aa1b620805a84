import functools
import math
from collections import Counter

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


def _mul(m, n):
    (a, b, c, d), (e, f, g, h) = m, n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _power(m, k):
    return functools.reduce(_mul, (m,) * k)


def arithmetic_spectrum(name, max_length):
    """Exhaustive spectrum {trace: classes} to max_length of an
    arithmetic built-in group, "thrice-punctured-sphere" (Gamma(2)) or
    "once-punctured-torus(3.0)" (the commutator subgroup of PSL2(Z)).

    Every primitive hyperbolic class of PSL2(Z) is one Lyndon word over
    R = [[1,1],[0,1]] < L = [[1,0],[1,1]] that uses both letters (the
    cutting-sequence coding).  Entries are >= 0 and each letter is >= I
    entrywise, so a prefix's trace bounds every extension's and the
    prenecklace tree is pruned at trace > 2 cosh(max_length/2); R^n L
    has trace n + 2, which bounds the run R^n.  Both groups are normal of
    index 6: for a class g of order k in the quotient (the order of g mod
    2 for Gamma(2), 6/gcd(#L - #R, 6) for the torus), g^k is primitive in
    the subgroup and its class splits into 6/k classes there.
    """
    cap = 2.0 * math.cosh(max_length / 2.0)
    letters = ((1, 1, 0, 1), (1, 0, 1, 1))
    classes = Counter()
    # (prenecklace, length of its longest Lyndon prefix, product)
    stack = [((0,), 1, letters[0])]
    while stack:
        word, p, m = stack.pop()
        n = len(word)
        if m[0] + m[3] > cap or (1 not in word and n + 2 > cap):
            continue
        if p == n and 1 in word:
            if name == "thrice-punctured-sphere":
                k = next(j for j in (1, 2, 3) if tuple(
                    x % 2 for x in _power(m, j)) == (1, 0, 0, 1))
            else:
                k = 6 // math.gcd(2 * sum(word) - n, 6)
            power = _power(m, k)
            if power[0] + power[3] <= cap:
                classes[power[0] + power[3]] += 6 // k
        # a child repeats the letter one period back, or (after R) is L
        stack.append((word + (word[n - p],), p, _mul(m, letters[word[n - p]])))
        if word[n - p] == 0:
            stack.append((word + (1,), n + 1, _mul(m, letters[1])))
    return classes


def engine_cusp_constant():
    """The per-cusp constant as the Mellin engine computes it from
    cusp_term and its small-t expansion (a ZetaResult)."""
    return mellin_zeta_prime0(
        trace_terms.cusp_term, trace_terms.cusp_term_expansion(), 0.0,
        t_max=60.0)
