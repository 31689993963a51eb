"""Every benchmark job's report is byte-identical to its recorded digest.

``perfbench/references.json`` holds the sha256 of each report the benchmark
can draw (``generated_at`` removed).  Running every job of every workload
here makes "byte-identical reports" a tier-1 check rather than a claim made
by hand.  The workload module is loaded by path and only files under
``perfbench/`` are read.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from vermaspin import cli

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_job_reproduces_its_recorded_report(workload):
    references = workloads.load_references()
    failures = []
    for argv in workloads.all_jobs(workload):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        text = out.getvalue()
        reason = workloads.self_check(argv, code, text)
        if reason is None and workloads.report_digest(text) != references.get(
                workloads.job_key(argv)):
            reason = "report digest differs from the recorded one"
        if reason is not None:
            failures.append((workloads.job_key(argv), reason))
    assert failures == []
