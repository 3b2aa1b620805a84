"""cuspspec benchmark driver.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload det|pinch|spectrum --seed N \
        --seconds S --trace 0|1

Each job is a fresh ``cuspspec`` process (``python3 -m cuspspec.cli`` on the
checkout's ``src``), run one at a time: a closed loop with one client.  New
jobs start while the projected end of the next job stays within ``--seconds``
(at least one job runs).  Every output is checked against an independent
oracle (see ``oracles.py``); a nonzero exit or a failed check counts as a
failed job.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each job a
second time through ``shim.py``, which records spans around every layer, and
reports the per-layer metrics and the tracing overhead; the traced stdout must
be byte-identical to the untraced one.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment (Python and numpy versions, nproc, CPU model, commit, seed).
A copy of both, with every per-job sample, goes to ``.bench_out/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402

ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_MIN = 5
# the fresh-process set-up probe: import cuspspec.cli and build the parser
SETUP_ARGV = ["--help"]


@dataclass
class Job:
    """One finished child process."""

    argv: list
    rc: int
    stdout: bytes
    wall: float
    cpu: float
    rss_mb: float
    spans: list = None


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, traced=False, job_id=0):
    """Run one cuspspec job in a fresh process; wall time covers the
    whole process, memory and CPU come from os.wait4."""
    OUT.mkdir(exist_ok=True)
    out_path = OUT / ("stdout-%d-%d.txt" % (job_id, traced))
    err_path = OUT / ("stderr-%d-%d.txt" % (job_id, traced))
    spans_path = OUT / ("spans-%d.json" % job_id)
    if traced:
        cmd = [sys.executable, str(HERE / "shim.py"), str(spans_path),
               str(job_id)] + argv
    else:
        cmd = [sys.executable, "-m", "cuspspec.cli"] + argv
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(),
                                cwd=str(ROOT))
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    spans = None
    if traced and spans_path.exists():
        spans = json.loads(spans_path.read_text())["spans"]
        spans_path.unlink()
    stdout = out_path.read_bytes()
    if proc.returncode != 0:
        sys.stderr.write("job %d %s exited %d: %s\n" % (
            job_id, argv, proc.returncode,
            err_path.read_text(errors="replace")[-500:]))
    return Job(argv, proc.returncode, stdout, wall,
               usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
               spans)


# ----------------------------------------------------------------------
# per-layer statistics from spans
# ----------------------------------------------------------------------

# the per-layer metrics "<span>.<stat>", in report order
LAYER_METRICS = (
    ("fuchsian.enumerate_length_spectrum", "calls"),
    ("fuchsian.enumerate_length_spectrum", "self_s"),
    ("fuchsian.enumerate_length_spectrum", "classes"),
    ("trace_terms.hyperbolic_trace", "calls"),
    ("trace_terms.hyperbolic_trace", "self_s"),
    ("trace_terms.parabolic_p", "calls"),
    ("trace_terms.parabolic_p", "total_s"),
    ("trace_terms.identity_term", "calls"),
    ("trace_terms.identity_term", "total_s"),
    ("trace_terms.relative_heat_trace", "calls"),
    ("specfun.digamma", "calls"),
    ("specfun.digamma", "points"),
    ("specfun.digamma", "self_s"),
    ("specfun.integrate", "calls"),
    ("specfun.integrate", "self_s"),
    ("specfun.integrate", "evals"),
    ("specfun.integrate", "points_per_eval"),
    ("specfun.integrate", "failures"),
    ("zeta_engine.mellin_zeta_prime0", "calls"),
    ("zeta_engine.mellin_zeta_prime0", "self_s"),
    ("zeta_engine.mellin_zeta_prime0", "theta_evals"),
    ("zeta_engine.mellin_zeta_prime0", "theta_points"),
    ("zeta_engine.xi_prime0", "total_s"),
    ("degeneration.wolpert_sum", "calls"),
    ("degeneration.wolpert_sum", "self_s"),
    ("cli.main", "self_s"),
)
UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "classes": "count",
         "points": "count", "evals": "count", "failures": "count",
         "theta_evals": "count", "theta_points": "count",
         "points_per_eval": "points/eval"}


def span_stats(spans):
    """Per span name: calls, total_s, self_s and summed counters.

    A span's self time is its duration minus the durations of its direct
    children; spans of one process nest strictly, so the self times of
    all spans add up to the root span's duration."""
    stats = defaultdict(lambda: defaultdict(float))
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, parent, counters) in enumerate(spans):
        s = stats[name]
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - child[i]
        for k, v in (counters or {}).items():
            s[k] += v
    for s in stats.values():
        if "evals" in s:
            s["points_per_eval"] = s["points"] / s["evals"] if s["evals"] else 0.0
    return stats


def span_tree_errors(spans):
    """Spans that leave their parent's interval or close before they open."""
    bad = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end is None or end < start:
            bad.append("%d %s: not closed" % (i, name))
        elif parent >= 0:
            p = spans[parent]
            if start < p[1] or end > p[2]:
                bad.append("%d %s: outside parent %s" % (i, name, p[0]))
    return bad


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def environment(workload, seed):
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.exists() else ref
        commit = ref
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
            "workload": workload, "seed": seed}


def measure(workload, seed, seconds, trace):
    jobs = oracles.WORKLOADS[workload](seed)
    # warm-up: a first process writes the bytecode cache; not counted
    warm = run_child(SETUP_ARGV, job_id=0)
    if warm.rc != 0 or b"usage: cuspspec" not in warm.stdout:
        raise SystemExit("cuspspec --help failed; is src/cuspspec present?")
    samples = defaultdict(list)
    attempted = failed = 0
    layer = defaultdict(list)
    t_start = time.perf_counter()
    last = 0.0
    while attempted == 0 or time.perf_counter() - t_start + last <= seconds:
        t_job = time.perf_counter()
        if not trace:
            # one set-up probe per job spreads the probes over the run
            samples["setup_s"].append(run_child(SETUP_ARGV, job_id=0).wall)
        argv, check = next(jobs)
        attempted += 1
        job = run_child(argv, job_id=attempted)
        ok = job.rc == 0
        digits = None
        if ok:
            try:
                digits = check(job.stdout)
            except Exception as exc:  # any unreadable output fails the job
                sys.stderr.write("job %d %s: %s: %s\n" % (
                    attempted, argv, type(exc).__name__, exc))
                ok = False
        if trace:
            tjob = run_child(argv, traced=True, job_id=attempted)
            if tjob.rc != job.rc or tjob.stdout != job.stdout:
                sys.stderr.write("job %d: traced output differs\n" % attempted)
                ok = False
            elif tjob.spans is None or span_tree_errors(tjob.spans):
                sys.stderr.write("job %d: bad span tree\n" % attempted)
                ok = False
            else:
                stats = span_stats(tjob.spans)
                for span, stat in LAYER_METRICS:
                    layer[(span, stat)].append(
                        stats[span][stat] if span in stats else 0.0)
                layer[("cli.job", "cpu_s")].append(job.cpu)
                layer[("trace", "overhead_frac")].append(
                    tjob.wall / job.wall - 1)
        failed += not ok
        samples["wall_s"].append(job.wall)
        samples["peak_rss_mb"].append(job.rss_mb)
        samples["cpu_s"].append(job.cpu)
        if digits is not None:
            samples["oracle_digits"].append(digits)
        last = time.perf_counter() - t_job
    while not trace and len(samples["setup_s"]) < SETUP_MIN:
        samples["setup_s"].append(run_child(SETUP_ARGV, job_id=0).wall)

    if trace:
        metrics = {span + "." + stat: metric(median(layer[(span, stat)]),
                                             UNITS[stat])
                   for span, stat in LAYER_METRICS}
        metrics["cli.job.cpu_s"] = metric(
            median(layer[("cli.job", "cpu_s")]), "s")
        metrics["trace.overhead_frac"] = metric(
            median(layer[("trace", "overhead_frac")]), "ratio")
    else:
        metrics = {
            "wall_s": metric(median(samples["wall_s"]), "s"),
            "setup_s": metric(median(samples["setup_s"]), "s"),
            "peak_rss_mb": metric(median(samples["peak_rss_mb"]), "MB"),
            "ok_frac": metric(1.0 - failed / attempted, "ratio"),
            "oracle_digits": metric(median(samples["oracle_digits"]),
                                    "digits"),
        }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, dict(samples), {
        "%s.%s" % key: values for key, values in layer.items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(oracles.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "cuspspec" / "cli.py").is_file():
        sys.stderr.write("no cuspspec source under %s\n" % (ROOT / "src"))
        return 2
    env = environment(args.workload, args.seed)
    result, samples, layer = measure(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    OUT.mkdir(exist_ok=True)
    record = OUT / ("result-%s-%d-%d.json" % (args.workload, args.seed,
                                               args.trace))
    record.write_text(json.dumps({"env": env, "result": result,
                                  "samples": samples, "layer": layer},
                                 indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
