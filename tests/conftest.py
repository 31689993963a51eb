import os
import re
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from vermaspin import clifford
from vermaspin.context import Context
from vermaspin.fischer import x_power_matrix

_CONTEXTS = {}


@pytest.fixture
def ctx_factory():
    """Shared, cache-preserving Context factory (contexts are immutable)."""

    def get(p, q, variant="standard"):
        key = (p, q, variant)
        if key not in _CONTEXTS:
            _CONTEXTS[key] = Context(p, q, variant=variant)
        return _CONTEXTS[key]

    return get


@pytest.fixture(scope="session")
def optimized_controls():
    """{group: "ok" or "failed: <error>"} for each group of
    ``test_premises.OPTIMIZED``, run once per session in one python -O
    subprocess, where asserts are compiled out."""
    script = textwrap.dedent("""
        import sys

        if __debug__:
            raise SystemExit("expected python -O")
        sys.path.insert(0, sys.argv[1])
        import test_premises
        test_premises._run_optimized()
    """)
    tests = Path(__file__).resolve().parent
    src = str(tests.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", script, str(tests)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return dict(line.split(" ", 1) for line in proc.stdout.splitlines())


@pytest.fixture
def twist_offset():
    """Copy of an operator with lambda_source and lambda_target lowered by
    ``source`` and ``target``: verify_intertwining then checks the realization
    parameters of its two sides offset by those amounts."""

    def shifted(op, source=0, target=0):
        return replace(op, lambda_source=op.lambda_source - source,
                       lambda_target=op.lambda_target - target)

    return shifted


def apply_x_power(ctx, k, poly):
    """X^k applied to a homogeneous polynomial, by ``x_power_matrix``.

    The package works on coordinate columns; the tests build X^k M_m as
    polynomials with this.  Test modules that ``runpy`` runs in a subprocess
    import it inside the tests that use it, since ``tests/`` is not on that
    path.
    """
    d = poly.homogeneous_degree()
    if d is None:
        if poly.is_zero():
            return poly
        raise ValueError("non-homogeneous input")
    out = x_power_matrix(ctx, k, d).mul_vec(ctx.graded_basis(d).coordinates(poly))
    return ctx.graded_basis(d + k).from_coordinates(out)


def fresh_models(patches, check):
    """Run ``check()`` on a fresh map of gamma models with the (module, name,
    value) ``patches`` in place, restoring both afterwards."""
    saved = clifford._MODELS, [(m, name, getattr(m, name)) for m, name, _ in patches]
    clifford._MODELS = clifford.Memo()
    for m, name, value in patches:
        setattr(m, name, value)
    try:
        return check()
    finally:
        clifford._MODELS = saved[0]
        for m, name, value in saved[1]:
            setattr(m, name, value)


def refused(run, message):
    """Check that ``run()`` refuses with an ArithmeticError whose text
    matches the regex ``message``.  Raises instead of asserting, so it also
    checks under python -O."""
    try:
        run()
    except ArithmeticError as exc:
        if not re.fullmatch(message, str(exc)):
            raise AssertionError("refused with %r, expected %r" % (str(exc), message))
        return
    raise AssertionError("not refused, expected %r" % message)
