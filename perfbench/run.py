"""vermaspin benchmark: seeded CLI job lists run in one process.

    python3 perfbench/run.py --workload classify-cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the package is imported from ``src/``).
Each job is one call of ``vermaspin.cli.main(argv)``, which builds its own
Context as a CLI call does; jobs run one after another with no threads.
The job list is run in passes until ``--seconds`` would be exceeded (at
least two passes).  Every execution is checked: exit code, the report's own
check, and the sha256 of the report against the digest recorded at the seed
commit (``references.json``).  Times are reported in seconds at a reference
machine speed, measured with ``calibrate()`` around and during each job.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  The last line
of standard output is the result object; the line before it records the
seed, the job list, the per-job times and the run's metadata.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2
SETUP_PROBES = 9

# The machine's speed is sampled with calibrate(), a fixed exact-arithmetic
# kernel that does not use vermaspin.  On a machine shared with other tenants
# the CPU speed drifts by up to +-30% within seconds, for every process alike.
# Each job (and each set-up probe) is bracketed by SAMPLES_AROUND kernel runs
# and, while it runs, interrupted every SAMPLE_EVERY_S for one more; its time,
# minus the kernel runs inside it, is rescaled by CALIBRATION_S over the mean
# kernel time, so the reported times are the ones at the reference speed.
CALIBRATION_S = 0.01  # calibrate() at the reference speed: about its fastest
                      # on a 2-core Intel Xeon VM with Python 3.11.7
SAMPLES_AROUND = 4
SAMPLE_EVERY_S = 0.2


def _cpu_seconds():
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def calibrate():
    """Wall time of a fixed exact-arithmetic kernel that does not use vermaspin."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(1, 1250):
        x = Fraction(i, 7) * Fraction(3, i + 2) - Fraction(i % 5, 11)
        acc[i % 97] = acc.get(i % 97, 0) + x
    return time.perf_counter() - t0


def setup(workload, seed):
    """Import the package, generate the jobs and load the references."""
    sys.path.insert(0, str(ROOT / "src"))
    import vermaspin.cli  # noqa: F401  (imports every module of the package)

    return workloads.jobs(workload, seed), workloads.load_references()


def timed(fn, tracer=None):
    """Run fn() while sampling the machine's speed.

    Returns (fn's result, wall s, cpu s, scale): wall and cpu leave out the
    kernel runs made inside fn, and scale turns them into seconds at the
    reference speed.  The kernel runs are left out of the tracer's spans too.
    """
    samples = [calibrate() for _ in range(SAMPLES_AROUND)]
    inside = []

    def sample(signum, frame):
        inside.append(calibrate())
        if tracer is not None:
            tracer.exclude(inside[-1])

    previous = signal.signal(signal.SIGALRM, sample)
    c0, t0 = _cpu_seconds(), time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - c0
        signal.signal(signal.SIGALRM, previous)
    samples += inside + [calibrate() for _ in range(SAMPLES_AROUND)]
    spent = sum(inside)
    return result, wall - spent, cpu - spent, CALIBRATION_S / statistics.fmean(samples)


def measure_setup(workload, seed):
    """Median time from process start to ready-for-the-first-job, over fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]

    def start():
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
        return proc, proc.stdout.readline()

    times = []
    for _ in range(SETUP_PROBES):
        (proc, line), wall, _, scale = timed(start)
        with proc:
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError("setup probe failed with exit code %r" % proc.returncode)
        times.append(wall * scale)
    return statistics.median(times)


def execute(argv, tracer=None):
    """Run one CLI job; returns (exit code, report text, wall s, cpu s, scale)."""
    from vermaspin import cli

    gc.collect()
    out = io.StringIO()

    def job():
        with contextlib.redirect_stdout(out):
            try:
                return cli.main(argv)
            except Exception as exc:  # a crash fails the job, not the benchmark
                return "raised %s: %s" % (type(exc).__name__, exc)

    code, wall, cpu, scale = timed(job, tracer)
    return code, out.getvalue(), wall, cpu, scale


def check(argv, code, text, references):
    """(digest, failure reason or None) for one execution."""
    digest = workloads.report_digest(text)
    reason = workloads.self_check(argv, code, text)
    if reason is None and references is not None:
        want = references.get(workloads.job_key(argv))
        if want is None:
            reason = "no recorded digest for this job"
        elif want != digest:
            reason = "report digest differs from the recorded one"
    return digest, reason


def run_pass(jobs, references, tracer=None):
    """One pass over the job list; returns one record per job."""
    if tracer is not None:
        tracer.reset()
        tracer.install()
    records = []
    try:
        for argv in jobs:
            since = tracer.snapshot() if tracer is not None else None
            code, text, wall, cpu, scale = execute(argv, tracer)
            if tracer is not None:
                tracer.rescale(since, scale)
            digest, reason = check(argv, code, text, references)
            records.append({"wall": wall * scale, "cpu": cpu * scale, "raw_wall": wall,
                            "digest": digest, "failure": reason})
    finally:
        if tracer is not None:
            tracer.uninstall()
    return records


def job_medians(passes, key):
    """Per-job medians of a record field over the given passes."""
    return [statistics.median(p[j][key] for p in passes) for j in range(len(passes[0]))]


def source_identity():
    """Commit (when the checkout has git metadata) and a digest of src/."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                commit = loose.read_text().strip()
            elif (ROOT / ".git" / "packed-refs").is_file():
                for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + name):
                        commit = line.split()[0]
    return {"commit": commit, "src_sha256": h.hexdigest()}


def metadata():
    from vermaspin import exact

    return {
        "backend": "%s.%s" % (exact._Q.__module__, exact._Q.__qualname__),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        **source_identity(),
    }


def measure(jobs, references, seconds, trace):
    """Run passes until the time is up; returns (untraced, traced, tracers' metrics)."""
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    untraced, traced, layer_metrics = [], [], []
    durations = []
    start = time.perf_counter()
    while True:
        traced_pass = trace and len(untraced) > len(traced)
        t0 = time.perf_counter()
        records = run_pass(jobs, references, tracer if traced_pass else None)
        durations.append(time.perf_counter() - t0)
        if traced_pass:
            traced.append(records)
            layer_metrics.append(tracer.metrics())
        else:
            untraced.append(records)
        elapsed = time.perf_counter() - start
        if (len(durations) >= MIN_PASSES
                and elapsed + statistics.median(durations) > seconds):
            return untraced, traced, layer_metrics


def layer_summary(layer_metrics, untraced, traced):
    """Median per-layer metrics over traced passes, and the counts that did not repeat."""
    out, unsteady = {}, []
    for name, (_, unit) in layer_metrics[0].items():
        values = [m[name][0] for m in layer_metrics]
        if unit == "count" and len(set(values)) != 1:
            unsteady.append(name)
        out[name] = (statistics.median(values), unit)
    out["trace_overhead_s"] = (
        sum(job_medians(traced, "wall")) - sum(job_medians(untraced, "wall")), "s")
    return out, unsteady


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vermaspin" / "cli.py").is_file():
        sys.stderr.write("error: %s is not a vermaspin checkout (no src/vermaspin)\n" % ROOT)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    jobs, references = setup(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    untraced, traced, layer_metrics = measure(jobs, references, args.seconds, args.trace)

    executions = [r for p in untraced + traced for r in p]
    failures = [(j, r["failure"]) for p in untraced + traced
                for j, r in enumerate(p) if r["failure"]]
    digests_agree = all(len({p[j]["digest"] for p in untraced + traced}) == 1
                        for j in range(len(jobs)))
    attempted, failed = len(executions), len(failures)
    problems = [] if digests_agree else ["a job's report digest differs between passes"]

    if args.trace:
        summary, unsteady = layer_summary(layer_metrics, untraced, traced)
        problems += ["count metric %s differs between traced passes" % n for n in unsteady]
        summary["failed_ratio"] = (failed / attempted, "ratio")
    else:
        summary = {
            "wall_s": (sum(job_medians(untraced, "wall")), "s"),
            "cpu_s": (sum(job_medians(untraced, "cpu")), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": [workloads.job_key(j) for j in jobs],
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "job_wall_s": job_medians(untraced, "wall"),
        "raw_wall_s": sum(job_medians(untraced, "raw_wall")),
        "failures": [{"job": workloads.job_key(jobs[j]), "reason": r} for j, r in failures],
        "problems": problems,
        **metadata(),
    }
    print(json.dumps({"meta": meta}, sort_keys=True))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in summary.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
