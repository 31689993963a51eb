"""Run the benchmark over several seeds and report the spread of each metric.

    python3 perfbench/spread.py --workload scan-warm --seeds 1-10 [--sets 2] [--trace 1]
                                [--out results.json]

Run from the root of a checkout.  Runs ``run.py`` once per (set, workload,
seed), one process at a time, for BENCHMARK.json's ``run_seconds``.  For each
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``), the spread (Q3 - Q1) / median and the
metric's bound; with two sets it also prints how much the second set's median
is worse than the first's.  With ``--trace 1`` it prints the per-layer
medians, checks that every count metric repeats exactly for the same seed
across sets, and lists the counts that differ between seeds.  Exits 1 if a
run fails, is incorrect, or a count does not repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d: exit %d\n%s" % (workload, seed, proc.returncode,
                                                        proc.stderr))
    meta = json.loads(lines[-2])["meta"] if len(lines) > 1 else None
    return meta, json.loads(lines[-1])


def _worse(metric, first, second):
    """How much worse the second median is than the first, as a share of the first."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run's result and metadata here")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    specs = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    runs, ok = [], True
    for workload in args.workload:
        values = [{} for _ in range(args.sets)]   # set -> metric -> [per seed]
        counts = {}                                # (seed, metric) -> values over sets
        for s in range(args.sets):
            for seed in _seeds(args.seeds):
                t0 = time.perf_counter()
                meta, result = run_once(workload, seed, seconds, args.trace)
                elapsed = time.perf_counter() - t0
                runs.append({"workload": workload, "seed": seed, "set": s, "elapsed_s": elapsed,
                             "meta": meta, "result": result})
                print("  set %d seed %-3d %5.1fs passes %s  %s" % (
                    s, seed, elapsed, meta and meta["passes"],
                    "  ".join("%s=%.4g" % (spec["name"], result["metrics"][spec["name"]]["value"])
                              for spec in specs if spec["unit"] != "count")), flush=True)
                if not result["correct"] or result["failed"]:
                    ok = False
                    print("INCORRECT %s seed %d: %s" % (workload, seed,
                                                        meta and meta["failures"]))
                for spec in specs:
                    value = result["metrics"][spec["name"]]["value"]
                    values[s].setdefault(spec["name"], []).append(value)
                    if spec["unit"] == "count":
                        counts.setdefault((seed, spec["name"]), set()).add(value)
        print("== %s  (trace %d, seeds %s, %d set(s))" % (workload, args.trace, args.seeds,
                                                          args.sets))
        for spec in specs:
            name = spec["name"]
            line = "%-40s" % name
            for s in range(args.sets):
                vals = values[s][name]
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else 0.0
                line += "  med %-12.6g spread %6.2f%%" % (med, 100 * spread)
            if "bound" in spec:
                line += "  bound %4.1f%%" % (100 * spec["bound"])
                if args.sets > 1:
                    first = statistics.median(values[0][name])
                    last = statistics.median(values[-1][name])
                    line += "  second worse by %6.2f%%" % (100 * _worse(spec, first, last))
            print(line)
        bad = sorted({name for (seed, name), seen in counts.items() if len(seen) != 1})
        if bad:
            ok = False
            print("counts that differ between sets: %s" % ", ".join(bad))
        if counts:
            by_name = {}
            for (seed, name), seen in counts.items():
                by_name.setdefault(name, set()).update(seen)
            varying = sorted(name for name, seen in by_name.items() if len(seen) != 1)
            print("counts that differ between seeds: %s" % (", ".join(varying) or "none"))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(runs, fh, indent=1, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
