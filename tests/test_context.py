import ast
from pathlib import Path

import pytest

import vermaspin
from vermaspin import clifford
from vermaspin.clifford import Memo, Signature, build_gamma_rep
from vermaspin.context import Context

SRC = Path(vermaspin.__file__).parent


def _cache_lines(node):
    return [a.lineno for a in ast.walk(node) if isinstance(a, ast.Attribute) and a.attr == "cache"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_only_context_cached_touches_the_cache(module):
    # every memo, of a Context, of a gamma model, of its blade table and of
    # the map of models, goes through Memo.cached, the one get-or-build,
    # which no class redefines; only Memo.__init__ creates the dict
    tree = ast.parse((SRC / module).read_text())
    memo = [cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "Memo"]
    assert len(memo) == (module == "clifford.py")
    allowed = [line for cls in memo for fn in cls.body
               if isinstance(fn, ast.FunctionDef) and fn.name in ("__init__", "cached")
               for line in _cache_lines(fn)]
    assert sorted(_cache_lines(tree)) == sorted(allowed)
    assert [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            and fn.name == "cached"] == ["cached"] * len(memo)
    stores = [Context(3, 0), build_gamma_rep(Signature(3, 0)),
              build_gamma_rep(Signature(3, 0)).table, clifford._MODELS]
    assert all(isinstance(s, Memo) and type(s).cached is Memo.cached for s in stores)


@pytest.mark.parametrize("value", [None, False, 0, [], "x"])
def test_cached_builds_each_key_once(value):
    ctx = Context(2, 1)
    built = []

    def build():
        built.append(value)
        return value

    assert ctx.cached(("probe",), build) is value
    assert ctx.cached(("probe",), build) is value
    assert built == [value]
    assert ctx.cache[("probe",)] is value


def test_graded_bases_are_cache_entries():
    ctx = Context(3, 0)
    basis = ctx.graded_basis(2)
    assert ctx.graded_basis(2, ctx.spinor_dim) is basis
    assert ctx.cache[("basis", 2, ctx.spinor_dim)] is basis
    assert ctx.graded_basis(2, 1) is not basis
