from dataclasses import replace

import pytest

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
