"""Self-tests of the benchmark on tiny inputs.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Checks that the oracles accept right outputs and refuse wrong ones, that
traced jobs print byte-identical output, that every count of the traced run
repeats exactly across two runs, and that the self times of the span tree
add up to the traced wall time.
"""

import math
import unittest

import oracles
import run

# wall time of a traced job not covered by its root span: interpreter
# start-up before the shim's first statement, the span dump and exit
SPAN_GAP_S = 0.15
SPAN_GAP_FRAC = 0.05

TINY = {
    "spectrum": (["spectrum", "--group", "thrice-punctured-sphere",
                  "--max-length", "4"],
                 lambda out: oracles.check_spectrum(
                     out, 4.0, oracles.load_sphere_traces())),
    "pinch": (["pinch-sweep", "--group", "thrice-punctured-sphere",
               "--cutoff", "4", "--ell-num", "3"],
              lambda out: oracles.check_pinch(
                  out, [0.1, 0.01, 0.001],
                  {2: oracles.wolpert_oracle(0.001)})),
    "det": (["det", "--group", "thrice-punctured-sphere", "--cutoff", "6",
             "--t-max", "2"],
            lambda out: oracles.check_det(out, cusps=3)),
}


def wolpert_direct(ell, dps=30):
    """The sum of oracles.wolpert_oracle as -sum_k log(1 - e^{-k l}),
    summed term by term."""
    import mpmath

    with mpmath.workdps(dps):
        l = mpmath.mpf(ell)
        total, k = mpmath.mpf(0), 1
        while True:
            term = -mpmath.log(1 - mpmath.exp(-k * l))
            total += term
            if term < mpmath.mpf(10) ** (-dps - 5):
                return float(total)
            k += 1


def counts(stats):
    """Every statistic of a span summary except the timings."""
    return {(name, k): v for name, s in stats.items() for k, v in s.items()
            if not k.endswith("_s")}


class OracleTest(unittest.TestCase):
    def test_wolpert_oracle_matches_direct_sum(self):
        for ell in (0.1, 0.03):
            self.assertLess(abs(oracles.wolpert_oracle(ell)
                                / wolpert_direct(ell) - 1), 1e-14)

    def test_spectrum_check_refuses_missing_and_wrong_classes(self):
        ref = oracles.load_sphere_traces()
        good = (b"length,mult,pinched\n3.5254943480781722,6,0\n"
                b"4.5848633391223554,12,0\n")
        self.assertGreater(oracles.check_spectrum(good, 5.0, ref), 12)
        for bad in (b"length,mult,pinched\n3.5254943480781722,6,0\n",
                    good.replace(b",12,", b",11,"),
                    good.replace(b"4.58486", b"4.58487"),
                    good + b"5.5,2,0\n"):
            with self.assertRaises(oracles.CheckFailed):
                oracles.check_spectrum(bad, 5.0, ref)

    def test_det_check_refuses_inconsistent_outputs(self):
        zp = -2.1936785323261661
        det = math.exp(-zp)
        fmt = ('{"zeta_prime_zero": %r, "determinant": %r, '
               '"small_t_error": 1e-6, "large_t_error": 0.09, '
               '"det_hyp": %r}')
        good = (fmt % (zp, det, det / 2 ** 1.5)).encode()
        self.assertGreater(oracles.check_det(good, 1, zp + 0.05), 15)
        for bad, ref in (((fmt % (zp, det * 1.001, det / 2 ** 1.5)), zp),
                         ((fmt % (zp, det, det / 2 ** 1.5 * 1.0001)), zp),
                         ((fmt % (zp, det, det / 2 ** 1.5)), zp + 0.1)):
            with self.assertRaises(oracles.CheckFailed):
                oracles.check_det(bad.encode(), 1, ref)


class TracedJobTest(unittest.TestCase):
    def check_job(self, name):
        argv, check = TINY[name]
        plain = run.run_child(argv, job_id=1)
        self.assertEqual(plain.rc, 0)
        check(plain.stdout)
        runs = [run.run_child(argv, traced=True, job_id=1) for _ in range(2)]
        for job in runs:
            self.assertEqual(job.rc, 0)
            self.assertEqual(job.stdout, plain.stdout)
            self.assertEqual(run.span_tree_errors(job.spans), [])
            stats = run.span_stats(job.spans)
            self_sum = sum(s["self_s"] for s in stats.values())
            root = job.spans[0]
            self.assertAlmostEqual(self_sum, root[2] - root[1], delta=1e-6)
            self.assertLessEqual(self_sum, job.wall)
            self.assertLessEqual(job.wall - self_sum,
                                 SPAN_GAP_S + SPAN_GAP_FRAC * job.wall)
        first, second = (counts(run.span_stats(j.spans)) for j in runs)
        self.assertEqual(first, second)
        return first

    def test_spectrum(self):
        c = self.check_job("spectrum")
        self.assertEqual(c[("fuchsian.enumerate_length_spectrum",
                            "classes")], 6)

    def test_pinch(self):
        c = self.check_job("pinch")
        self.assertEqual(c[("degeneration.wolpert_sum", "calls")], 3)
        self.assertEqual(c[("zeta_engine.xi_prime0", "calls")], 1)

    def test_det(self):
        c = self.check_job("det")
        self.assertGreater(c[("specfun.integrate", "evals")], 0)
        self.assertGreater(c[("zeta_engine.mellin_zeta_prime0",
                              "theta_points")], 0)


if __name__ == "__main__":
    unittest.main()
