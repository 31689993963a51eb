from dataclasses import replace

import pytest

from vermaspin.context import Context

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
