"""Tracer coverage test for the benchmark.

    python3 -m pytest -q perfbench/check_tracer.py

The file name keeps it out of the package's default test collection; pass
the path explicitly.  It runs tiny job lists shaped like each workload,
untraced and traced, and checks that:

* every traced callable is replaced under every name a vermaspin module
  binds it to, and restored after the pass;
* every span fires on a workload predicted to use it;
* the mod-p certificate never runs on the fischer and intertwine workloads;
* traced and untraced passes give identical report digests.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))

import tracer as tracing  # noqa: E402

# Tiny job lists with the commands and cases of each workload.
TINY = {
    "classify-cold": [
        ["classify", "--p", "2", "--q", "1", "--lambda", "1/5", "--dmax", "3"],
        ["classify", "--p", "2", "--q", "1", "--lambda", "3/2", "--dmax", "3"],
        ["classify", "--p", "3", "--q", "1", "--lambda", "-1/2", "--dmax", "2"],
    ],
    "scan-warm": [
        ["scan", "--p", "2", "--q", "1", "--lambda-grid", "-20/7..1/14:1/2",
         "--dmax", "3", "--format", "json"],
    ],
    "fischer-n6": [
        ["fischer", "--p", "3", "--q", "3", "--dmax", "2"],
    ],
    "intertwine": [
        ["intertwiner", "--p", "2", "--q", "1", "--kind", "dirac", "--a", "1",
         "--test-degree", "2"],
        ["intertwiner", "--p", "2", "--q", "1", "--kind", "twistor", "--a", "1",
         "--test-degree", "2"],
    ],
}

# span -> workloads predicted to open it
PREDICTED = {
    "cli": ["classify-cold", "scan-warm", "fischer-n6", "intertwine"],
    "context.build": ["classify-cold", "scan-warm", "fischer-n6", "intertwine"],
    "realization.spec": ["classify-cold", "intertwine"],
    "polyspinor.assemble": ["classify-cold", "fischer-n6", "intertwine"],
    "exact.modp_cert": ["classify-cold", "scan-warm"],
    "exact.nullspace": ["classify-cold", "fischer-n6"],
    "exact.rref": ["classify-cold", "fischer-n6"],
    "exact.express_in_span": ["classify-cold", "intertwine"],
    "exact.matmul": ["classify-cold", "intertwine"],
    "exact.mul_vec": ["classify-cold", "scan-warm", "fischer-n6"],
    "singular.special_conformal_matrices": ["classify-cold", "scan-warm"],
    "singular.singular_vectors": ["classify-cold", "scan-warm"],
    "singular.isotypic_split": ["classify-cold", "scan-warm"],
    "singular.classify": ["classify-cold", "scan-warm"],
    "fischer.monogenic_basis": ["classify-cold", "fischer-n6", "intertwine"],
    "equivariant.build": ["intertwine"],
    "equivariant.operator_matrix": ["intertwine"],
    "equivariant.verify_intertwining": ["intertwine"],
}

_RESULTS = {}


def _traced(workload):
    """(untraced records, traced records, tracer) for a tiny workload, run once."""
    if workload not in _RESULTS:
        t = tracing.Tracer()
        untraced = run.run_pass(TINY[workload], None)
        traced = run.run_pass(TINY[workload], None, t)
        _RESULTS[workload] = untraced, traced, t
    return _RESULTS[workload]


def _bindings(original):
    return [(name, attr) for name, module in sorted(sys.modules.items())
            if name == "vermaspin" or name.startswith("vermaspin.")
            for attr, value in vars(module).items() if value is original]


def test_every_binding_is_wrapped_and_restored():
    t = tracing.Tracer()
    t.install()
    try:
        originals = t.originals()
        replaced = {(id(owner), attr) for owner, attr, _ in originals}
        for owner, attr, original in originals:
            assert getattr(owner, attr) is not original
            assert not _bindings(original), "unwrapped binding of %s" % attr
        names = {attr for _, attr, _ in originals}
        for expected in ("nullspace", "_canonical_basis", "assemble", "__matmul__",
                         "mul_vec", "__init__", "assemble_cached", "main"):
            assert expected in names
        # modules that bind these names themselves
        from vermaspin import context, fischer, singular
        for module, attr in [(singular, "nullspace"), (singular, "_canonical_basis"),
                             (singular, "assemble"), (fischer, "assemble"),
                             (fischer, "nullspace"), (context, "assemble")]:
            assert (id(module), attr) in replaced, "%s.%s" % (module.__name__, attr)
    finally:
        t.uninstall()
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original


def test_every_span_fires_on_a_predicted_workload():
    assert set(PREDICTED) == set(tracing.SPANS)
    for span, names in PREDICTED.items():
        for workload in names:
            assert span in _traced(workload)[2].fired(), (span, workload)


def test_no_certificate_on_fischer_or_intertwine():
    for workload in ("fischer-n6", "intertwine"):
        assert _traced(workload)[2].metrics()["exact.modp_cert_calls"][0] == 0, workload
    assert _traced("fischer-n6")[2].metrics()["exact.nullspace_calls"][0] > 0


def test_traced_and_untraced_reports_are_identical():
    for workload in TINY:
        untraced, traced, _ = _traced(workload)
        assert [r["failure"] for r in untraced + traced] == [None] * (2 * len(TINY[workload]))
        assert [r["digest"] for r in untraced] == [r["digest"] for r in traced]


if __name__ == "__main__":
    import pytest

    raise SystemExit(pytest.main(["-q", __file__]))
