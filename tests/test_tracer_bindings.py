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
        "function_action", "verma_action", "osp_generators", "verify_intertwining"}
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, attr


def test_exact_spans_fire_on_a_tiny_intertwiner(capsys):
    # the traced spans an intertwiner run fires: its products fire
    # exact.matmul, and the named families' rotations are read off pivot rows
    # and derived from the l_1j, so no exact.express_in_span fires
    from vermaspin import cli

    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["intertwiner", "--p", "3", "--kind", "dirac", "--a", "1",
                         "--test-degree", "1"])
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr()
    assert "exact.matmul" in tracer.fired()
    assert "exact.express_in_span" not in tracer.fired()


def test_kernel_dim_total_counts_the_kernel_rows_of_a_fischer_run(capsys, monkeypatch):
    # the tracer counts a kernel by len(nullspace(m)), one entry per kernel
    # vector: on classify with no block certified by g_1, whose block solves
    # are then the only nullspace calls (monogenic bases are built by
    # extension), that is the sum of the found dims
    import json

    from vermaspin import cli, singular

    monkeypatch.setattr(singular, "_certified", lambda ctx, lam, degree, k: False)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["classify", "--p", "2", "--q", "2", "--lambda", "3/2", "--dmax", "5"])
    finally:
        tracer.uninstall()
    out = capsys.readouterr().out
    assert code == 0
    assert "exact.nullspace" in tracer.fired()
    dims = [component["dim"] for component in json.loads(out)["found"]]
    assert dims == [4, 12, 4]
    assert tracer.metrics()["exact.kernel_dim_total"][0] == sum(dims)
