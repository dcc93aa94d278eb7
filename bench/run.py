"""tuttekit benchmark: four closed-loop workloads through `tuttekit.cli.main`.

Usage, from the root of a checkout:

    python3 bench/run.py --workload engines|lattice|pointcount|auto \
        --seed N --seconds S --trace 0|1

One process, one thread, one job at a time: each job is one CLI command line
run in-process, and the next starts when it returns.  Whole rounds of the
workload's jobs run until S seconds have passed, so every run attempts the
same jobs in the same proportions.  Every job is timed raw and rescaled by a
reference kernel timed right before and after it (see kernels.py).  After
the timed rounds, every output is checked against oracles computed apart
from tuttekit (see oracles.py); checking counts in no metric.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics of the traced ones (see
tracing.py) plus the tracing overhead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The line before it
gives raw seconds, kernel times and failure codes.  Results and trace spans
are also written under .bench_out/ in the checkout.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from kernels import Kernel  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

SETUP_SAMPLES = 9

# Imports tuttekit.cli in a fresh interpreter and times it, then times the
# python reference kernel in the same process.  numpy is imported first and
# timed apart: its import (0.07-0.17 s on the reference host, in two regimes
# that neither kernel tracks) would otherwise be most of the figure and hide
# tuttekit's own import cost.
_SETUP_CODE = r"""
import json, sys, time
sys.path[:0] = [%r, %r]
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import tuttekit.cli
t2 = time.perf_counter()
from kernels import Kernel
print(json.dumps([t2 - t1, t1 - t0, Kernel("python").measure()]))
"""


def measure_setup(src):
    """Median rescaled time to import tuttekit.cli in a fresh process:
    (rescaled, raw, raw numpy import) seconds."""
    code = _SETUP_CODE % (src, BENCH_DIR)
    kernel = Kernel("python")
    raw, rescaled, numpy_s = [], [], []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-I", "-c", code],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("set-up import failed: %s" % proc.stderr.strip())
        import_s, np_s, kernel_s = json.loads(proc.stdout)
        if i == 0:
            continue  # the first import may compile bytecode
        raw.append(import_s)
        numpy_s.append(np_s)
        rescaled.append(kernel.rescale(import_s, kernel_s, kernel_s))
    return (statistics.median(rescaled), statistics.median(raw),
            statistics.median(numpy_s))


def run_job(cli, argv):
    """Run one command line in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback escaping main is a failure
            print("traceback: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
            code = -1
    return code, out.getvalue(), err.getvalue()


def error_code(code, stderr):
    if code == 0:
        return None
    line = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if line.startswith("error: "):
        return line.split(":")[1].strip()
    return "exit %d" % code


class Round:
    def __init__(self):
        self.raw = []
        self.rescaled = []
        self.kernel = []
        self.results = []
        self.auto_engines = []    # engine chosen by each auto tutte/coboundary job


def run_round(cli, jobs, kernel, tracer=None):
    rnd = Round()
    k_prev = kernel.measure()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.begin_job(i)
        t0 = time.perf_counter()
        result = run_job(cli, job.argv)
        raw = time.perf_counter() - t0
        k_next = kernel.measure()
        rnd.raw.append(raw)
        rnd.kernel.append((k_prev + k_next) / 2)
        rnd.rescaled.append(kernel.rescale(raw, k_prev, k_next))
        rnd.results.append(result)
        if tracer is not None:
            engines = tracer.job_engines
            if job.auto and job.verb in ("tutte", "coboundary"):
                rnd.auto_engines.append("ffm" if "ffm" in engines else
                                        "subset" if "subset" in engines else None)
        k_prev = k_next
    return rnd


def warm_up(cli, workdir):
    """One tiny job per code path, so lazy imports are not timed."""
    cfg = os.path.join(workdir, "warm.txt")
    with open(cfg, "w") as f:
        f.write("dim 2\n1 0\n0 1\n1 1\n")
    for argv in (["family", "braid", "--n", "3", "tutte"],
                 ["family", "braid", "--n", "3", "tutte", "--method", "finite-field"],
                 ["family", "braid", "--n", "3", "coboundary"],
                 ["family", "braid", "--n", "3", "invariants"],
                 ["family", "braid", "--n", "3", "poset"],
                 ["family", "braid", "--n", "3", "multivariate"],
                 ["family", "braid", "--n", "3", "check"],
                 ["arith", "tutte", "--input", cfg],
                 ["arith", "zonotope", "--input", cfg],
                 ["toric", "--input", cfg, "--q", "2"]):
        run_job(cli, argv)


def check_outputs(jobs, subjects, rounds):
    """Returns (errors, failed jobs of one round as (label, code, expected)).

    Failed jobs are not checked; every other output of the first round is,
    and later rounds must repeat the first byte for byte.
    """
    from oracles import check_subject
    errors = []
    first = rounds[0].results
    for rnd in rounds[1:]:
        for job, a, b in zip(jobs, first, rnd.results):
            if a != b:
                errors.append("%s: output differs between rounds" % job.label())
    failed = []
    per_subject = {}
    for job, (code, out, err) in zip(jobs, first):
        ec = error_code(code, err)
        if ec is not None:
            failed.append((job.label(), ec, job.expect_error == ec))
            continue
        per_subject.setdefault(job.subject, []).append((job.verb, job.label(), out))
    for key, outputs in per_subject.items():
        try:
            errors += check_subject(subjects[key], outputs)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            errors.append("%s: output could not be checked: %s: %s"
                          % (key, type(exc).__name__, exc))
    return errors, failed


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def timed(cli, jobs, kernel, seconds):
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(run_round(cli, jobs, kernel))
    return rounds


def per_job(rounds, field="rescaled"):
    """Each job's median time over the rounds of the run.

    Rescaled times scatter both ways (a kernel timing can be slow as well as
    fast), so the median is steadier than the minimum: over ten seeds the
    median-based solve_s spread 2-7% between runs, the minimum-based 6-10%.
    """
    return [statistics.median(vals) for vals in zip(*(getattr(r, field) for r in rounds))]


def end_to_end(rounds, setup, peak_kb):
    jobs_s = per_job(rounds)
    raw = per_job(rounds, "raw")
    metrics = {
        "solve_s": (sum(jobs_s), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "setup_s": (setup[0], "s"),
    }
    # Per-job percentiles are reported but not gated: over ten seeds their
    # interquartile range reached 12-15% of the median, too wide for a bound.
    info = {
        "job_p50_s": statistics.median(jobs_s),
        "job_p90_s": _p90(jobs_s),
        "raw_solve_s": sum(raw),
        "raw_job_p50_s": statistics.median(raw),
        "raw_job_p90_s": _p90(raw),
        "kernel_s": statistics.median([v for r in rounds for v in r.kernel]),
        "raw_setup_s": setup[1],
        "raw_numpy_import_s": setup[2],
        "job_samples": len(jobs_s),
    }
    return metrics, info


def traced(cli, jobs, kernel, seconds, tuttekit, span_path):
    from tracing import Tracer
    tracer = Tracer(tuttekit)
    plain, traced_rounds, layer = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced_rounds) < 1 or time.perf_counter() < deadline:
        plain.append(run_round(cli, jobs, kernel))
        tracer.reset()
        tracer.spans = []
        tracer.install()
        try:
            rnd = run_round(cli, jobs, kernel, tracer)
        finally:
            tracer.uninstall()
        if not traced_rounds:
            tracer.write_spans(span_path)
        traced_rounds.append(rnd)
        figures = tracer.metrics(rnd.auto_engines.count("subset"),
                                 rnd.auto_engines.count("ffm"))
        # layer times are raw inside the round: rescale by the round's factor
        factor = sum(rnd.rescaled) / sum(rnd.raw)
        layer.append({k: (v * factor if u == "s" else v / factor if u == "1/s" else v, u)
                      for k, (v, u) in figures.items()})
    metrics, repeat_ok = {}, True
    for name, (value, unit) in layer[0].items():
        values = [m[name][0] for m in layer]
        if unit in ("s", "1/s"):
            metrics[name] = (statistics.median(values), unit)
        else:
            metrics[name] = (value, unit)
            repeat_ok &= all(v == value for v in values)
    t_solve = sum(per_job(traced_rounds))
    p_solve = sum(per_job(plain))
    metrics["trace.overhead_s"] = (t_solve - p_solve, "s")
    metrics["trace.overhead_ratio"] = (t_solve / p_solve, "ratio")
    info = {"traced_rounds": len(traced_rounds), "counts_repeat": repeat_ok,
            "traced_solve_s": t_solve, "untraced_solve_s": p_solve,
            "spans_file": os.path.relpath(span_path), "spans": len(tracer.spans)}
    return plain + traced_rounds, metrics, info


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tuttekit", "cli.py")):
        print("error: no tuttekit sources under %s; run from the root of a "
              "checkout" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        setup = None if args.trace else measure_setup(src)
        import tuttekit
        import tuttekit.cli as cli
        if not os.path.abspath(tuttekit.__file__).startswith(src + os.sep):
            raise RuntimeError("imported tuttekit from %s" % tuttekit.__file__)
        kernel_kind = WORKLOADS[args.workload][0]
        kernel = Kernel(kernel_kind)
        jobs, subjects = build(args.workload, args.seed, workdir)
        warm_up(cli, workdir)
        tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
        if args.trace:
            rounds, metrics, info = traced(
                cli, jobs, kernel, args.seconds, tuttekit,
                os.path.join(out_dir, "spans-%s.jsonl" % tag))
        else:
            rounds = timed(cli, jobs, kernel, args.seconds)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics, info = end_to_end(rounds, setup, peak_kb)
        errors, failed = check_outputs(jobs, subjects, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    codes = {}
    for _, ec, _ in failed:
        codes[ec] = codes.get(ec, 0) + len(rounds)
    info.update({"workload": args.workload, "seed": args.seed,
                 "kernel": kernel_kind, "rounds": len(rounds),
                 "jobs_per_round": len(jobs), "failures": codes,
                 "unexpected_failures": [(lb, ec) for lb, ec, ok in failed if not ok],
                 "wrong": errors[:20]})
    # Rounds repeat the first byte for byte (checked above), so each failed
    # job of the first round failed in every round.
    result = {"correct": not errors,
              "attempted": len(jobs) * len(rounds),
              "failed": len(failed) * len(rounds),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    job_times = {job.label(): [r.rescaled[i] for r in rounds]
                 for i, job in enumerate(jobs)}
    with open(os.path.join(out_dir, "result-%s.json" % tag), "w") as f:
        json.dump({"info": info, "result": result, "rescaled_job_s": job_times}, f,
                  indent=1)
    for line in errors:
        print("WRONG: " + line, file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
