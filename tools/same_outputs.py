"""Compare the CLI outputs of two source trees, argv by argv.

Usage: python tools/same_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a `cuspspec` package (the
`src/` of two checkouts).  Each argv of ARGVS runs as a fresh
`python -m cuspspec.cli` process on each tree, in one scratch directory
that also holds the scatter-check model file.  Every argv whose stdout,
stderr or exit code differs is printed; the exit code is 1 if any does.
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
        with open(os.path.join(cwd, "model.json"), "w") as fh:
            json.dump(MODEL, fh)
        for args in ARGVS:
            if run(old, args, cwd) != run(new, args, cwd):
                differ += 1
                print("differs:", " ".join(args))
    print("%d of %d argvs differ" % (differ, len(ARGVS)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
