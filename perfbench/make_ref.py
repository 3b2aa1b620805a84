"""Write the reference data of the output checks into perfbench/ref/.

Usage: python3 perfbench/make_ref.py

- sphere_traces.csv: trace and multiplicity of every class the enumerator
  finds on the thrice-punctured sphere up to length 14; the spectrum check
  accepts any superset of it.
- torus_zeta.csv: zeta'(0) of ``det`` at every tau the det workload draws;
  the det check accepts a value within the job's own reported error of it.

These are outputs of the program at the commit that defined the benchmark,
kept only as floors and loose bounds; the exact checks are in oracles.py.
"""

import csv
import json
import math
import sys

import oracles
import run


def main():
    oracles.REF.mkdir(exist_ok=True)
    job = run.run_child(oracles.SPECTRUM_ARGV)
    rows = oracles.csv_rows(job.stdout, ["length", "mult", "pinched"])
    traces = {}
    for ell, mult, _ in rows:
        n = round(2.0 * math.cosh(ell / 2.0))
        traces[n] = traces.get(n, 0) + int(mult)
    with open(oracles.REF / "sphere_traces.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["trace", "mult"])
        w.writerows(sorted(traces.items()))
    with open(oracles.REF / "torus_zeta.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["tau", "zeta_prime_zero"])
        for tau in oracles.DET_TAUS:
            job = run.run_child(["det", "--group", "once-punctured-torus(%.2f)"
                                 % tau] + oracles.DET_ARGS)
            if job.rc != 0:
                return 1
            zp = json.loads(job.stdout)["zeta_prime_zero"]
            w.writerow(["%.2f" % tau, format(zp, ".17g")])
            fh.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
