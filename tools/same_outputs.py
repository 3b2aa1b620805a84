"""Compare the CLI outputs of two source trees, argv by argv.

Usage: python tools/same_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a `cuspspec` package (the
`src/` of two checkouts).  Each argv of ARGVS runs as a fresh
`python -m cuspspec.cli` process on each tree, in one scratch directory
that also holds the three scatter-check model files (one not JSON) and
two --config files.
Every argv whose stdout, stderr or exit code differs is printed; the
exit code is 1 if any does.
"""

import json
import os
import subprocess
import sys
import tempfile

SPHERE = ["--group", "thrice-punctured-sphere"]
MODEL = {"q": 2.0, "phi_half": 1.0,
         "resonances": [{"re": -0.3, "im": 1.0, "order": 1},
                        {"re": -0.3, "im": -1.0, "order": 1}]}
# the conjugate pair and a real resonance of order 2
MODEL2 = {"q": 3.0,
          "resonances": [{"re": -0.3, "im": 1.0, "order": 1},
                         {"re": -0.3, "im": -1.0, "order": 1},
                         {"re": -0.7, "im": 0.0, "order": 2}]}
CONFIG = {"t_max": 10.0, "eps_trunc": 0.1}
# a --config key that is no option of any subcommand
UNKNOWN_CONFIG = {"t_max": 10.0, "cut_off": 12}
ARGVS = [
    *(["det", "--group", group, "--cutoff", "12", "--t-max", "8"]
      for group in ("thrice-punctured-sphere", "once-punctured-torus(3.47)",
                    "once-punctured-torus(3.50)")),
    ["det", *SPHERE, "--cutoff", "10", "--t-max", "4",
     "--cusp-starts", "2,1.5,3.3"],
    ["pinch-sweep", *SPHERE, "--cutoff", "6", "--ell-num", "200",
     "--ell-stop", "1e-5"],
    ["spectrum", *SPHERE, "--max-length", "14"],
    ["spectrum", *SPHERE, "--max-length", "14", "--format", "json"],
    ["trace", *SPHERE, "--max-length", "10", "--t", "0.5,1,2"],
    ["trace", *SPHERE, "--max-length", "10", "--t", "1e-8,0.5,1,2,30",
     "--cusp-starts", "2,1.5,3.3"],
    ["trace", "--group", "once-punctured-torus(3.2)", "--max-length", "10",
     "--t", "0.05,0.5,4"],
    ["scatter-check", "--model", "model.json", "--t", "0.5,1,2"],
    ["selfcheck"],
    ["--help"],
    # the torus construction: a large trace and a bench-band one
    ["spectrum", "--group", "once-punctured-torus(400.0)", "--max-length", "6",
     "--word-radius", "4"],
    ["det", "--group", "once-punctured-torus(3.41)", "--cutoff", "12",
     "--t-max", "8"],
    # a short curve (length 0.100), and cut heights whose determinant
    # is past the largest double (exit 3)
    ["det", "--group", "once-punctured-torus(40.0)", "--cutoff", "12",
     "--t-max", "8"],
    ["det", *SPHERE, "--cutoff", "12", "--t-max", "8",
     "--cusp-starts", "1e300,1e300,1e300"],
    # P(t)'s longest direct erfcx sums (below t = 3e-7 the ladder runs)
    ["trace", "--group", "once-punctured-torus(3.2)", "--max-length", "10",
     "--t", "1e-6,1e-5,1e-4,1e-3"],
    # the ends of the bench torus band
    *(["det", "--group", "once-punctured-torus(%s)" % tau, "--cutoff", "12",
       "--t-max", "8"] for tau in ("3.40", "3.60")),
    # the geodesic column alone refused at the probes (exit 3), and one
    # cut height on a torus
    ["det", "--group", "once-punctured-torus(100.0)", "--cutoff", "12",
     "--t-max", "8"],
    ["det", "--group", "once-punctured-torus(3.47)", "--cutoff", "12",
     "--t-max", "8", "--cusp-starts", "2.5"],
    # two pinched geodesics, and det's t-max and eps-trunc from --config
    # (at the default eps-trunc of 0.02, t-max 10 is refused)
    ["pinch-sweep", *SPHERE, "--cutoff", "6", "--pinch-index", "0",
     "--pinch-index", "1"],
    ["--config", "config.json", "det", *SPHERE, "--cutoff", "12"],
    # a t-max past the trusted window (exit 2, with the required cutoff),
    # and det's --config keys accepted and unused by another command
    ["det", *SPHERE, "--cutoff", "6", "--t-max", "50"],
    ["--config", "config.json", "pinch-sweep", *SPHERE, "--cutoff", "6",
     "--ell-num", "3"],
    # refused at parse time or before the walk, with no layer needed
    ["det", "--help"],
    ["det", *SPHERE],
    ["spectrum", "--group", "nope", "--max-length", "6"],
    ["--config", "unknown.json", "det", *SPHERE, "--cutoff", "12"],
    # a wrong count of cut heights, refused before the walk
    ["det", *SPHERE, "--cutoff", "14", "--t-max", "8", "--cusp-starts", "1,1"],
    # a deep walk on non-integer entries
    ["spectrum", "--group", "once-punctured-torus(40.0)", "--max-length", "8",
     "--word-radius", "14"],
    # the scattering identity from its lower to its upper end of t
    ["scatter-check", "--model", "model2.json", "--t",
     "1e-20,1e-6,0.05,1,40,3000"],
    # t-max values the engine refuses, refused before the walk
    *(["det", *SPHERE, "--cutoff", cutoff, "--t-max", t_max]
      for cutoff, t_max in (("12", "inf"), ("14", "nan"), ("14", "1"))),
    ["det", "--group", "nope", "--cutoff", "14", "--t-max", "nan"],
    # each row computed from its t alone: the t = 2 row is the same in
    # both lists; and a curve of length 1e-3 summed to t = 3000
    *(["trace", "--group", "once-punctured-torus(3.47)", "--max-length", "12",
       "--t", ts] for ts in ("2", "1,2,8")),
    ["trace", "--group", "once-punctured-torus(4000)", "--max-length", "6",
     "--word-radius", "4", "--t", "3000"],
    # the geodesic sum's cut x^2 <= l_1^2 + c(t)^2: two t with classes
    # (lengths 5.53-5.69) between c(t) and the cut, and a short systole
    # (length 0.100) at tiny t
    ["trace", "--group", "once-punctured-torus(3.47)", "--max-length", "12",
     "--t", "0.076592048706033214,0.07665837545288251"],
    ["trace", "--group", "once-punctured-torus(40.0)", "--max-length", "8",
     "--t", "1e-4,1e-3,5e-3,0.05,0.5"],
    # a t-max whose tail fit would overflow, refused before the walk
    ["det", *SPHERE, "--cutoff", "1e200", "--t-max", "1e155",
     "--word-radius", "3"],
    # P(t)'s split: the double below 3e-7 takes the ladder, 3e-7 the series
    ["trace", *SPHERE, "--max-length", "6", "--t",
     "2.9999999999999993e-07,3e-07"],
    # a --t and an ell grid refused before the walk (the grid ahead of a
    # word radius the walk refuses), and a model file that is not JSON,
    # an I/O failure as a --config file is (exit 4)
    ["trace", *SPHERE, "--max-length", "16", "--t", "nan"],
    ["pinch-sweep", *SPHERE, "--cutoff", "16", "--word-radius", "5000",
     "--ell-grid", "0.1,0.2"],
    ["scatter-check", "--model", "notjson.json", "--t", "1"],
]


def run(src, argv, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-m", "cuspspec.cli", *argv],
                         capture_output=True, cwd=cwd, env=env, timeout=600)
    return out.returncode, out.stdout, out.stderr


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    old, new = sys.argv[1:]
    differ = 0
    with tempfile.TemporaryDirectory() as cwd:
        for name, text in (("model.json", json.dumps(MODEL)),
                           ("model2.json", json.dumps(MODEL2)),
                           ("notjson.json", "not json"),
                           ("config.json", json.dumps(CONFIG)),
                           ("unknown.json", json.dumps(UNKNOWN_CONFIG))):
            with open(os.path.join(cwd, name), "w") as fh:
                fh.write(text)
        for args in ARGVS:
            if run(old, args, cwd) != run(new, args, cwd):
                differ += 1
                print("differs:", " ".join(args))
    print("%d of %d argvs differ" % (differ, len(ARGVS)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
