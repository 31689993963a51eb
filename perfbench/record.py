"""Record the report digest of every job any seed can draw.

    python3 perfbench/record.py

Run from the root of a checkout.  Runs each job once, requires it to pass
its own check, and writes ``references.json`` beside this file.  Digests
already recorded for jobs still in a pool are kept, so after a pool changes
only the new jobs run; digests of jobs no longer in any pool are dropped.
Recording at a new commit means deleting ``references.json`` first.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    sys.path.insert(0, str(run.ROOT / "src"))

    try:
        old = workloads.load_references()
    except FileNotFoundError:
        old = {}
    wanted = {workloads.job_key(job): job
              for name in workloads.WORKLOADS for job in workloads.all_jobs(name)}
    digests = {key: value for key, value in old.items() if key in wanted}
    for key in sorted(set(wanted) - set(digests)):
        code, text, wall, _, _ = run.execute(wanted[key])
        digest, reason = run.check(wanted[key], code, text, None)
        if reason is not None:
            sys.stderr.write("error: %s: %s\n" % (key, reason))
            return 1
        digests[key] = digest
        print("%7.2fs  %s" % (wall, key), flush=True)
        _write(digests)
    _write(digests)
    return 0


def _write(digests):
    payload = {"source": run.source_identity(), "digests": dict(sorted(digests.items()))}
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    raise SystemExit(main())
