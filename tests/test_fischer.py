import json
import math
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from vermaspin import cli, clifford, fischer
from vermaspin.context import Context
from vermaspin.exact import (SparseMatrix, qi, rational, express_in_span, nullspace, kernel_vectors,
                            _canonical_basis)
from vermaspin.polyspinor import OperatorSpec, SpinorPoly, assemble, monomials
from vermaspin.realization import verma_action
from vermaspin.fischer import (
    monogenic_basis,
    monogenic_dim,
    dirac_matrix,
    x_mult_matrix,
    x_power_matrix,
)


def polydim(n, d):
    if d < 0:
        return 0
    return math.comb(d + n - 1, n - 1)


@dataclass
class FischerComponent:
    """One summand X^k (part) with part a monogenic polynomial of degree m."""

    k: int
    m: int
    part: SpinorPoly


def fischer_decompose(ctx, poly):
    """Oracle: the exact components of a homogeneous polynomial in the sum of
    X^k M_(d-k), solved in the span of all blocks at once.

    Returns FischerComponent entries with nonzero parts; their reconstruction
    sum_k X^k part_k equals the input exactly.
    """
    d = poly.homogeneous_degree()
    if d is None:
        if poly.is_zero():
            return []
        raise ValueError("non-homogeneous input")
    basis = ctx.graded_basis(d)
    blocks = []
    slots = []
    for k in range(d + 1):
        m = d - k
        mono = monogenic_basis(ctx, m)
        blocks.append(x_power_matrix(ctx, k, m)
                      @ SparseMatrix.from_columns(ctx.graded_basis(m).size, mono.vectors))
        slots.extend((k, m, j) for j in range(len(mono.vectors)))
    coeffs = express_in_span(SparseMatrix.hstack(blocks),
                             SparseMatrix.from_columns(basis.size, [basis.coordinates(poly)]))
    if coeffs is None:
        raise ValueError("polynomial escapes the monogenic decomposition")
    parts = {}
    for slot, c in sorted(coeffs.columns().get(0, {}).items()):
        k, m, j = slots[slot]
        mono = monogenic_basis(ctx, m)
        cur = parts.get((k, m))
        add = mono.elements[j].scale(c)
        parts[(k, m)] = add if cur is None else cur + add
    return [FischerComponent(k=k, m=m, part=part)
            for (k, m), part in sorted(parts.items())]


def test_monogenic_degree_zero_is_whole_fiber(ctx_factory):
    for (p, q) in [(3, 0), (2, 2)]:
        ctx = ctx_factory(p, q)
        basis = monogenic_basis(ctx, 0)
        assert len(basis.elements) == ctx.spinor_dim


def test_monogenic_degree_one_n3(ctx_factory):
    ctx = ctx_factory(3, 0)
    assert monogenic_dim(ctx, 1) == 3 * 2 - 2


def test_monogenic_annihilated_and_homogeneous(ctx_factory):
    ctx = ctx_factory(2, 1)
    for a in range(0, 5):
        basis = monogenic_basis(ctx, a)
        mat = dirac_matrix(ctx, a).matrix
        for el in basis.elements:
            assert el.homogeneous_degree() == a or (a == 0 and el.homogeneous_degree() == 0)
            assert not mat.mul_vec(ctx.graded_basis(a).coordinates(el))


def test_chirality_halves_equal_n4(ctx_factory):
    ctx = ctx_factory(2, 2)
    basis = monogenic_basis(ctx, 2)
    plus = sum(1 for t in basis.chirality if t == "+")
    minus = sum(1 for t in basis.chirality if t == "-")
    assert plus == minus == len(basis.elements) // 2


def _projected_monogenic_basis(ctx, a):
    """Oracle: project ker D onto each half with the fiber projectors
    (I +- volume)/2, then RREF."""
    basis = ctx.graded_basis(a)
    kernel = kernel_vectors(nullspace(dirac_matrix(ctx, a).matrix))
    elements, tags = [], []
    eye, half = SparseMatrix.identity(ctx.spinor_dim), qi(rational(1, 2))
    plus = (eye + ctx.chirality.volume).scale(half)
    minus = (eye - ctx.chirality.volume).scale(half)
    for proj, tag in ((plus, "+"), (minus, "-")):
        projected = []
        for v in kernel:
            coords = {basis.index(mono, i): w
                      for mono, vec in basis.from_coordinates(v).terms.items()
                      for i, w in proj.mul_vec(vec).items()}
            if coords:
                projected.append(coords)
        for v in _canonical_basis(projected, basis.size):
            elements.append(basis.from_coordinates(v))
            tags.append(tag)
    return elements, tags


@pytest.mark.parametrize("n,dmax", [(4, 4), (6, 3)])
def test_chirality_tags_match_projection_oracle(ctx_factory, n, dmax):
    for p in range(n + 1):
        for variant in ("standard", "alt"):
            ctx = ctx_factory(p, n - p, variant)
            for a in range(dmax + 1):
                basis = monogenic_basis(ctx, a)
                elements, tags = _projected_monogenic_basis(ctx, a)
                assert basis.elements == elements, (p, variant, a)
                assert basis.chirality == tags, (p, variant, a)


def test_monogenic_basis_rejects_a_kernel_vector_touching_both_halves(monkeypatch):
    ctx = Context(2, 2)
    kernel = nullspace(dirac_matrix(ctx, 1).matrix)
    sides = [{ctx.chirality.half(i % ctx.spinor_dim) for i in v} for v in kernel]
    plus, minus = kernel[sides.index({"+"})], kernel[sides.index({"-"})]
    mixed = {**plus, **minus}  # disjoint supports: the sum of the two
    monkeypatch.setattr(fischer, "_extension_rows", lambda table, basis: [mixed])
    with pytest.raises(ArithmeticError, match="degree 1: .*both chirality halves"):
        monogenic_basis(ctx, 1)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_extension_rows_match_nullspace_and_the_projection_oracle(ctx_factory, n):
    # the extension in x_n gives nullspace's rows, in their Gaussian-integer
    # normalisation and, within each chirality half, in order; for even n
    # the elements and tags are the projection oracle's
    for p in range(n + 1):
        for variant in ("standard", "alt"):
            ctx = ctx_factory(p, n - p, variant)
            for m in range(5):
                basis = monogenic_basis(ctx, m)
                kernel = nullspace(dirac_matrix(ctx, m).matrix)
                if ctx.chirality is None:
                    assert basis.rows == kernel, (p, variant, m)
                    assert basis.chirality == [None] * len(kernel)
                else:
                    assert sorted(basis.rows, key=min) == kernel, (p, variant, m)
                    elements, tags = _projected_monogenic_basis(ctx, m)
                    assert basis.elements == elements, (p, variant, m)
                    assert basis.chirality == tags, (p, variant, m)


def test_only_a_model_without_a_blade_table_eliminates(monkeypatch):
    # every gamma model is a blade table, so every M_m is built by
    # extension, with no nullspace
    solved = []
    monkeypatch.setattr(fischer, "nullspace", lambda m: solved.append(m.cols) or nullspace(m))
    ctx = Context(3, 2)
    rows = [monogenic_basis(ctx, m).rows for m in range(4)]
    assert solved == [] and [len(r) for r in rows] == [4, 16, 40, 80]


def _square_flipped_context(p, q):
    """A Context whose model has G_n times i: every anticommutation holds,
    but G_n^2 = eps_n I, so the extension in x_n has lost its premise."""
    ctx = Context(p, q)
    rows = list(ctx.rep.table.rows)
    rows[-1] = clifford._times_i(rows[-1])
    ctx.rep = replace(ctx.rep, variant="gamma-n-times-i", table=clifford.BladeTable(ctx.sig, rows))
    return ctx


def _corrupted_extension(ctx, degree, row):
    """monogenic_basis(ctx, degree) with the last entry of the extension's
    row ``row`` doubled."""
    build = fischer._extension_rows

    def corrupted(table, basis):
        rows = build(table, basis)
        w = rows[row]
        a, b = w[max(w)]
        w[max(w)] = (2 * a, 2 * b)
        return rows

    fischer._extension_rows = corrupted
    try:
        return monogenic_basis(ctx, degree)
    finally:
        fischer._extension_rows = build


def test_extension_checks_its_premise_and_its_rows():
    # G_n^2 != -eps_n I raises before any row is built (degree 0 reads no
    # gamma); a corrupted row fails the kernel check, naming the degree
    ctx = _square_flipped_context(2, 2)
    assert len(monogenic_basis(ctx, 0).rows) == 4
    with pytest.raises(ArithmeticError, match=r"^signature \(2,2\): G_4 G_4 is not 1 I$"):
        monogenic_basis(ctx, 1)
    message = "degree 2: kernel vector of free column 3 is not annihilated by the 6x12 matrix"
    with pytest.raises(ArithmeticError, match="^" + message + "$"):
        _corrupted_extension(Context(3, 0), 2, 3)


def test_extension_rejects_a_row_leading_elsewhere(monkeypatch):
    # each row must lead at its own initial monomial; losing the lead entry
    # of every row is caught, naming the degree
    monkeypatch.setattr(fischer, "_divide_content", lambda row: row.pop(min(row)))
    with pytest.raises(ArithmeticError,
                       match="^degree 1: the extension of column 0 leads at column 5$"):
        monogenic_basis(Context(3, 0), 1)


def test_extension_checks_run_under_optimize_flag():
    script = textwrap.dedent("""
        import runpy
        import sys

        if __debug__:
            raise SystemExit("expected python -O")
        ns = runpy.run_path(sys.argv[1])
        for broken in (lambda: ns["monogenic_basis"](ns["_square_flipped_context"](2, 2), 1),
                       lambda: ns["_corrupted_extension"](ns["Context"](3, 0), 2, 3)):
            try:
                broken()
            except ArithmeticError as exc:
                print(exc)
            else:
                raise SystemExit("a broken extension passed its checks")
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", script, __file__], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == ("signature (2,2): G_4 G_4 is not 1 I\n"
                           "degree 2: kernel vector of free column 3 is not annihilated by "
                           "the 6x12 matrix\n"), proc.stdout


def test_selftest_compares_the_monogenic_basis_with_an_elimination(monkeypatch):
    # doubled rows are still kernel vectors leading at their own columns, and
    # their count is right, so only the comparison with nullspace of D fails
    build = fischer._extension_rows
    monkeypatch.setattr(fischer, "_extension_rows", lambda table, basis: [
        {c: (2 * x, 2 * y) for c, (x, y) in w.items()} for w in build(table, basis)])
    check = dict(cli._selftest_checks())["monogenic sum rule"]
    with pytest.raises(AssertionError, match=r"^signature \(3,0\), degree 0: the monogenic "
                                             r"basis is not the RREF kernel of D$"):
        check()


@pytest.mark.parametrize("p,q", [(3, 0), (2, 1), (4, 0), (2, 2), (5, 0), (2, 3)])
def test_sum_rule(ctx_factory, p, q):
    ctx = ctx_factory(p, q)
    for d in range(0, 7):
        total = sum(monogenic_dim(ctx, m) for m in range(d + 1))
        assert total == polydim(ctx.n, d) * ctx.spinor_dim


def test_sum_rule_n6(ctx_factory):
    ctx = ctx_factory(3, 3)
    for d in range(0, 7):
        total = sum(monogenic_dim(ctx, m) for m in range(d + 1))
        assert total == polydim(6, d) * 8


def test_telescoping(ctx_factory):
    for (p, q) in [(3, 0), (2, 2), (5, 0)]:
        ctx = ctx_factory(p, q)
        for d in range(1, 7):
            assert monogenic_dim(ctx, d) == \
                (polydim(ctx.n, d) - polydim(ctx.n, d - 1)) * ctx.spinor_dim


def test_signature_independence_n4(ctx_factory):
    dims = {}
    for p in range(5):
        ctx = ctx_factory(p, 4 - p)
        dims[p] = [monogenic_dim(ctx, m) for m in range(5)]
    assert len({tuple(v) for v in dims.values()}) == 1


def test_rotation_invariance(ctx_factory):
    # the rotation action preserves each monogenic space and commutes with
    # multiplication by the Clifford vector variable
    ctx = ctx_factory(2, 1)
    lam = rational(1)
    basis2 = ctx.graded_basis(2)
    mono2 = monogenic_basis(ctx, 2)
    family = SparseMatrix.from_columns(
        basis2.size, [basis2.coordinates(el) for el in mono2.elements])
    for i in range(1, 4):
        for j in range(i + 1, 4):
            spec = verma_action(("l", i, j), lam, ctx.rep)
            rot = assemble(spec, 2, ctx.graded_basis).matrix
            assert express_in_span(family, rot @ family) is not None
            rot3 = assemble(spec, 3, ctx.graded_basis).matrix
            x2 = x_mult_matrix(ctx, 2).matrix
            assert rot3 @ x2 == x2 @ rot


def test_decompose_constant_and_vector(ctx_factory):
    ctx = ctx_factory(3, 0)
    v = SpinorPoly.constant(3, 2, 1)
    comps = fischer_decompose(ctx, v)
    assert [(c.k, c.m) for c in comps] == [(0, 0)]
    assert comps[0].part == v

    from vermaspin.realization import osp_generators
    _, _, X = osp_generators(ctx.rep)
    xv = X.apply(v)
    comps = fischer_decompose(ctx, xv)
    assert [(c.k, c.m) for c in comps] == [(1, 0)]
    assert comps[0].part == v


def test_decompose_coordinate_times_spinor(ctx_factory):
    # x_1 (x) v splits into a monogenic degree-1 part plus X times -G_1 v / n
    from conftest import apply_x_power
    ctx = ctx_factory(3, 0)
    v = SpinorPoly.monomial(3, 2, (1, 0, 0), 0)
    comps = fischer_decompose(ctx, v)
    assert [(c.k, c.m) for c in comps] == [(0, 1), (1, 0)]
    by_key = {(c.k, c.m): c.part for c in comps}
    g1col = dict(ctx.rep.gamma(1).columns()[0])
    expect_vector_part = SpinorPoly(3, 2, {(0, 0, 0): g1col}).scale(rational(-1, 3))
    assert by_key[(1, 0)] == expect_vector_part
    recon = by_key[(0, 1)] + apply_x_power(ctx, 1, by_key[(1, 0)])
    assert recon == v


def test_decompose_reconstruction_random(ctx_factory):
    from conftest import apply_x_power
    rng = random.Random(5)
    for (p, q) in [(2, 1), (2, 2)]:
        ctx = ctx_factory(p, q)
        for d in range(0, 5):
            terms = {}
            for mono in monomials(ctx.n, d):
                for s in range(ctx.spinor_dim):
                    if rng.random() < 0.3:
                        terms.setdefault(mono, {})[s] = qi(rng.randint(-4, 4))
            poly = SpinorPoly(ctx.n, ctx.spinor_dim, terms)
            comps = fischer_decompose(ctx, poly)
            recon = SpinorPoly.zero(ctx.n, ctx.spinor_dim)
            seen = set()
            for c in comps:
                assert c.k + c.m == d
                assert (c.k, c.m) not in seen
                seen.add((c.k, c.m))
                recon = recon + apply_x_power(ctx, c.k, c.part)
            assert recon == poly


def test_decompose_rejects_mixed_degrees(ctx_factory):
    ctx = ctx_factory(3, 0)
    poly = SpinorPoly.constant(3, 2, 0) + SpinorPoly.monomial(3, 2, (1, 0, 0), 0)
    with pytest.raises(ValueError, match="non-homogeneous"):
        fischer_decompose(ctx, poly)


def test_dirac_chain_on_ladder(ctx_factory):
    # applying the Dirac operator k+1 times to X^k M_m gives zero; k times a
    # nonzero multiple of the monogenic part, with the ladder scalars,
    # for all k + m <= 6
    from conftest import apply_x_power
    ctx = ctx_factory(2, 1)
    for m in range(0, 7):
        basis = monogenic_basis(ctx, m)
        for k in range(0, 7 - m):
            scalar = qi(1)
            for j in range(k, 0, -1):
                step = qi(-j) if j % 2 == 0 else qi(-(2 * m + ctx.n + j - 1))
                scalar = scalar * step
            for el in basis.elements:
                cur = apply_x_power(ctx, k, el)
                deg = m + k
                for _ in range(k):
                    vec = dirac_matrix(ctx, deg).matrix.mul_vec(
                        ctx.graded_basis(deg).coordinates(cur))
                    cur = ctx.graded_basis(deg - 1).from_coordinates(vec)
                    deg -= 1
                assert cur == el.scale(scalar)
                assert not scalar == qi(0)
                vec = dirac_matrix(ctx, deg).matrix.mul_vec(
                    ctx.graded_basis(deg).coordinates(cur))
                assert not vec


def test_wrong_shape_polynomials_and_negative_powers_are_rejected(ctx_factory):
    # the basis of (3,0) has 3 variables and 2-dimensional values
    from conftest import apply_x_power
    ctx = ctx_factory(3, 0)
    wide = SpinorPoly.monomial(3, 4, (1, 0, 0), 3)
    shapes = "3 variables with 4-dimensional values is not in the basis of 3 variables " \
             "with 2-dimensional values"
    with pytest.raises(ValueError, match=shapes):
        fischer_decompose(ctx, wide)
    with pytest.raises(ValueError, match=shapes):
        apply_x_power(ctx, 1, wide)
    with pytest.raises(ValueError, match="4 variables with 2-dimensional values is not in the "
                                         "basis of 3 variables"):
        apply_x_power(ctx, 1, SpinorPoly.monomial(4, 2, (1, 0, 0, 0), 0))
    with pytest.raises(ValueError, match=r"X\^-1: the power must be at least 0"):
        apply_x_power(ctx, -1, SpinorPoly.monomial(3, 2, (1, 0, 0), 0))
    with pytest.raises(ValueError, match=r"X\^-2"):
        x_power_matrix(ctx, -2, 1)


@pytest.mark.parametrize("dmax", ["0", "2"])
def test_fischer_on_a_fresh_gamma_model_composes_no_product(monkeypatch, capsys, dmax):
    # dirac_matrix and x_mult_matrix need only D and X, so D^2, X^2 and X D
    # are composed only when a special-conformal formula first reads them;
    # nor is any product read off the blade table.  Its relations are
    # checked only by the extension of each M_m with m >= 1, once per degree
    checks = ["check"] * int(dmax)
    monkeypatch.setattr(clifford, "_MODELS", clifford.Memo())
    composed, read = [], []
    compose = OperatorSpec.compose
    monkeypatch.setattr(OperatorSpec, "compose",
                        lambda self, other: composed.append(1) or compose(self, other))
    for name in ("check", "product"):
        monkeypatch.setattr(clifford.BladeTable, name,
                            lambda self, *args, _name=name, _f=getattr(clifford.BladeTable, name):
                            read.append(_name) or _f(self, *args))
    assert cli.main(["fischer", "--p", "4", "--q", "1", "--dmax", dmax]) == 0
    assert json.loads(capsys.readouterr().out)["spaces"][0]["dim"] == 4
    assert composed == [] and read == checks
    (rep,) = clifford._MODELS.cache.values()
    table, products = rep.table, rep.cache["osp"]
    assert (table._omega is None) == (not checks)
    assert not [key for key in table.cache if key[0] == "product"]
    assert not {"DD", "XX", "XD"} & set(vars(products))
    xd = products.XD
    assert len(composed) == 1 and products.XD is xd
    assert read[len(checks):len(checks) + 2] == ["product", "check"] and table._omega is not None
