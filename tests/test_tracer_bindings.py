"""The names ``perfbench/tracer.py`` wraps must exist, and it must restore them.

The tracer looks each traced function up by name (``owner.__dict__[attr]``),
so renaming or deleting one breaks ``perfbench/run.py --trace 1``; this test
makes that a tier-1 failure.
"""

import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_binding():
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        originals = tracer.originals()
        for owner, attr, original in originals:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    assert {attr for _, attr, _ in originals} >= {
        "isotypic_split", "xd_matrix", "singular_vectors", "classify",
        "kernel_is_trivial_hint", "operator_matrix", "nullspace",
        "function_action", "verma_action", "osp_generators"}
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, attr
