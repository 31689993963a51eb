import json
import math
import os
import random

import pytest

from vermaspin.exact import SparseMatrix, qi, rational, QI_ONE
from vermaspin.polyspinor import (
    monomials,
    SpinorPoly,
    GradedBasis,
    OpTerm,
    OperatorSpec,
    assemble,
    _falling,
)
from vermaspin.context import Context
from vermaspin.equivariant import dirac_power, twistor
from vermaspin.realization import function_action, generators, verma_action
from vermaspin.singular import special_conformal_matrices

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_monomials_count_and_order():
    for n in range(1, 6):
        for d in range(0, 8):
            monos = monomials(n, d)
            assert len(monos) == math.comb(d + n - 1, n - 1)
            assert list(monos) == sorted(monos, reverse=True)
            assert all(sum(m) == d for m in monos)
    assert monomials(3, -1) == ()


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_graded_basis_dimension(n):
    dim = 1 << (n // 2)
    for d in range(9):
        basis = GradedBasis(n, dim, d)
        assert basis.size == math.comb(d + n - 1, n - 1) * dim


def test_graded_basis_deterministic():
    b1 = GradedBasis(3, 2, 4)
    b2 = GradedBasis(3, 2, 4)
    assert b1.monos == b2.monos
    assert b1.monos[0] == (4, 0, 0)
    v = SpinorPoly.monomial(3, 2, (1, 2, 1), 1)
    assert b2.from_coordinates(b1.coordinates(v)) == v


def test_assemble_coordinate_multiplication():
    ctx = Context(3, 0)
    spec = OperatorSpec.coordinate(3, 2, 1)
    op = assemble(spec, 0)
    assert op.matrix.rows == 3 * 2 and op.matrix.cols == 2
    basis0 = ctx.graded_basis(0)
    basis1 = ctx.graded_basis(1)
    for s in range(2):
        out = op.matrix.mul_vec({basis0.index((0, 0, 0), s): QI_ONE})
        assert out == {basis1.index((1, 0, 0), s): QI_ONE}


def test_apply_derivative_calculus():
    spec = OperatorSpec.derivative(3, 2, 1)
    poly = SpinorPoly.monomial(3, 2, (2, 0, 0), 0)
    assert spec.apply(poly) == SpinorPoly.monomial(3, 2, (1, 0, 0), 0, qi(2))


def test_clifford_weighted_derivative():
    ctx = Context(3, 0)
    spec = OperatorSpec.fiber(3, ctx.rep.gamma(1)).compose(
        OperatorSpec.derivative(3, 2, 1))
    poly = SpinorPoly.monomial(3, 2, (1, 0, 0), 0)
    out = spec.apply(poly)
    expect = SpinorPoly((3), 2, {(0, 0, 0): dict(ctx.rep.gamma(1).columns()[0])})
    assert out == expect


def test_apply_zero_and_euler():
    ctx = Context(2, 1)
    from vermaspin.realization import osp_generators
    D, E, X = osp_generators(ctx.rep)
    zero = SpinorPoly.zero(3, 2)
    assert E.apply(zero).is_zero()
    rng = random.Random(3)
    for d in (0, 1, 3):
        poly = _random_poly(rng, ctx, d)
        assert E.apply(poly) == poly.scale(d)


def test_vector_mult_square():
    # X^2 on a constant spinor equals -(x1^2+x2^2+x3^2) (x) v in (3,0)
    ctx = Context(3, 0)
    from vermaspin.realization import osp_generators
    _, _, X = osp_generators(ctx.rep)
    v = SpinorPoly.constant(3, 2, 0)
    out = X.apply(X.apply(v))
    expect = SpinorPoly(3, 2, {
        (2, 0, 0): {0: qi(-1)},
        (0, 2, 0): {0: qi(-1)},
        (0, 0, 2): {0: qi(-1)},
    })
    assert out == expect


def _random_poly(rng, ctx, degree):
    terms = {}
    for mono in monomials(ctx.n, degree):
        for s in range(ctx.spinor_dim):
            if rng.random() < 0.4:
                terms.setdefault(mono, {})[s] = qi(rng.randint(-5, 5), rng.randint(-2, 2))
    return SpinorPoly(ctx.n, ctx.spinor_dim, terms)


def _random_spec(rng, ctx, shift):
    terms = OperatorSpec.zero(ctx.n, ctx.spinor_dim)
    for _ in range(3):
        deriv_deg = rng.randint(0, 2)
        mono_deg = deriv_deg + shift
        if mono_deg < 0:
            continue
        mono = rng.choice(monomials(ctx.n, mono_deg))
        deriv = rng.choice(monomials(ctx.n, deriv_deg))
        mat = ctx.rep.gamma(rng.randint(1, ctx.n)) if rng.random() < 0.5 else None
        piece = OperatorSpec(ctx.n, ctx.spinor_dim, [])
        from vermaspin.polyspinor import OpTerm
        piece = OperatorSpec(ctx.n, ctx.spinor_dim, [
            OpTerm(mono, deriv, mat, qi(rng.randint(-4, 4), rng.randint(-1, 1)))])
        terms = terms + piece
    return terms


def test_assemble_apply_agreement_random():
    # apply on a mixed-degree polynomial against the per-monomial oracle,
    # one homogeneous part at a time
    rng = random.Random(23)
    ctx = Context(2, 1)
    for _ in range(12):
        spec = _random_spec(rng, ctx, rng.choice([-2, -1, 0, 1]))
        shifts = spec.shifts()
        shift = shifts[0] if shifts else 0
        poly = SpinorPoly.zero(ctx.n, ctx.spinor_dim)
        want = SpinorPoly.zero(ctx.n, ctx.spinor_dim)
        for d in range(0, 5):
            part = _random_poly(rng, ctx, d)
            poly = poly + part
            image = _assemble_per_monomial(spec, d, ctx.graded_basis).mul_vec(
                ctx.graded_basis(d).coordinates(part))
            want = want + ctx.graded_basis(d + shift).from_coordinates(image)
        assert len(poly.degrees()) > 1
        assert spec.apply(poly) == want


def test_apply_mixed_shift_spec():
    # x_1 + d_1 on x_1^2 (x) e_0 + e_1
    spec = OperatorSpec.coordinate(3, 2, 1) + OperatorSpec.derivative(3, 2, 1)
    poly = SpinorPoly(3, 2, {(2, 0, 0): {0: QI_ONE}, (0, 0, 0): {1: QI_ONE}})
    assert spec.apply(poly) == SpinorPoly(3, 2, {
        (3, 0, 0): {0: QI_ONE}, (1, 0, 0): {0: qi(2), 1: QI_ONE}})


def test_rectangular_spec_shapes():
    z = (0, 0, 0)
    d1 = (1, 0, 0)
    mat = SparseMatrix.from_entries(3, 2, [(2, 0, qi(5)), (0, 1, QI_ONE)])
    spec = OperatorSpec(3, 2, [OpTerm(z, d1, mat, QI_ONE)], tdim=3)
    assert (spec.dim, spec.tdim) == (2, 3)
    fib = OperatorSpec.fiber(3, mat)
    assert (fib.dim, fib.tdim) == (2, 3)
    op = assemble(spec, 2)
    assert (op.matrix.rows, op.matrix.cols) == (3 * 3, 6 * 2)
    assert (op.source.dim, op.target.dim) == (2, 3)
    poly = SpinorPoly(3, 2, {(2, 0, 0): {0: QI_ONE, 1: qi(0, 1)}})
    assert spec.apply(poly) == SpinorPoly(3, 3, {(1, 0, 0): {2: qi(10), 0: qi(0, 2)}})
    with pytest.raises(ValueError, match="shape"):
        OperatorSpec(3, 2, [OpTerm(z, d1, mat, QI_ONE)])
    with pytest.raises(ValueError, match="shape"):
        OperatorSpec(3, 2, [OpTerm(z, d1, None, QI_ONE)], tdim=3)
    with pytest.raises(ValueError, match="shape mismatch"):
        spec + OperatorSpec.derivative(3, 2, 1)
    with pytest.raises(ValueError, match="shape mismatch"):
        spec.compose(OperatorSpec.derivative(3, 2, 1))


def test_compose_matches_matrix_product():
    rng = random.Random(29)
    ctx = Context(2, 1)
    for _ in range(8):
        s1 = _random_spec(rng, ctx, rng.choice([-1, 0, 1]))
        s2 = _random_spec(rng, ctx, rng.choice([-1, 0, 1]))
        comp = s2.compose(s1)
        for d in (2, 3):
            m1 = assemble(s1, d, ctx.graded_basis)
            sh = s1.shifts()
            sh = sh[0] if sh else 0
            m2 = assemble(s2, d + sh, ctx.graded_basis)
            mc = assemble(comp, d, ctx.graded_basis)
            assert mc.matrix == m2.matrix @ m1.matrix


def test_assemble_rejects_mixed_shift():
    spec = OperatorSpec.coordinate(3, 2, 1) + OperatorSpec.derivative(3, 2, 1)
    with pytest.raises(ValueError, match="non-homogeneous spec"):
        assemble(spec, 2)


def test_assemble_negative_target_is_empty():
    spec = OperatorSpec.derivative(3, 2, 1)
    op = assemble(spec, 0)
    assert op.matrix.rows == 0 and op.matrix.cols == 2
    assert op.matrix.is_zero()


def _assemble_per_monomial(spec, src_degree, bases):
    """Oracle of assemble: every fiber product is recomputed per source monomial."""
    shifts = spec.shifts()
    shift = shifts[0] if shifts else 0
    src, tgt = bases(src_degree, spec.dim), bases(src_degree + shift, spec.tdim)
    entries = []
    for t in spec.terms:
        cols = t.mat.columns() if t.mat is not None else None
        for mono in src.monos:
            ff = _falling(mono, t.deriv)
            if ff is None:
                continue
            target_mono = tuple(a - b + c for a, b, c in zip(mono, t.deriv, t.mono))
            scale = t.coeff if ff == 1 else t.coeff * qi(ff)
            col_base = src.index(mono, 0)
            row_base = tgt.index(target_mono, 0)
            for i in range(spec.dim):
                if cols is None:
                    entries.append((row_base + i, col_base + i, scale))
                    continue
                for r, w in cols.get(i, {}).items():
                    entries.append((row_base + r, col_base + i, w * scale))
    return SparseMatrix.from_entries(tgt.size, src.size, entries)


def _layout(m):
    """Row order, and column order within each row, of a sparse matrix."""
    return [(r, list(row)) for r, row in m.data.items()]


def _action_specs(ctx, lam):
    """Every generator's verma_action and function_action spec.

    The function picture runs on the spinor and the dual-spinor fibers, and on
    the dualised rotations of the first-order twistor family, whose fiber
    dimension differs from the spinor dimension.
    """
    family = twistor(1, ctx, verify=False)
    dual_rot = {key: m.transpose().scale(-1) for key, m in family.family_rotations.items()}
    for gen in generators(ctx.n):
        yield verma_action(gen, lam, ctx.rep)
        yield function_action(gen, lam, ctx.rep, module="spinor")
        yield function_action(gen, lam, ctx.rep, module="dual-spinor")
        yield function_action(gen, lam, ctx.rep, fiber_matrices=dual_rot,
                              fiber_dim=family.target_dim)


def _operator_specs(ctx):
    """The rectangular specs of two Dirac powers and the first twistor operator."""
    for op in (dirac_power(1, ctx, verify=False), dirac_power(3, ctx, verify=False),
               twistor(1, ctx, verify=False)):
        yield op.spec


@pytest.mark.parametrize("lam", [rational(-3, 2), rational(0)])
@pytest.mark.parametrize("p,q", [(3, 0), (2, 1), (2, 2), (3, 2)])
def test_assemble_matches_per_monomial_oracle(p, q, lam):
    ctx = Context(p, q)
    dims = set()
    shapes = set()
    for spec in [*_action_specs(ctx, lam), *_operator_specs(ctx)]:
        dims.add(spec.dim)
        shapes.add((spec.tdim, spec.dim))
        for d in range(5):
            got = assemble(spec, d, ctx.graded_basis).matrix
            want = _assemble_per_monomial(spec, d, ctx.graded_basis)
            assert got == want, (spec, d)
            assert _layout(got) == _layout(want), (spec, d)
    assert len(dims) == 2
    assert any(tdim != dim for tdim, dim in shapes)


def test_special_conformal_matrices_cold_and_warm():
    warm = Context(2, 2)
    for lam in (rational(0), rational(7, 3), rational(-1, 2)):
        for d in range(4):
            cold = special_conformal_matrices(Context(2, 2), lam, d)
            hot = special_conformal_matrices(warm, lam, d)
            assert cold == hot
            assert [_layout(m) for m in cold] == [_layout(m) for m in hot]
    assert all(("sc-spec", i) in warm.cache for i in range(1, warm.n + 1))


def test_spinor_poly_json_roundtrip():
    poly = SpinorPoly(3, 2, {
        (2, 0, 0): {0: qi(rational(1, 2), rational(-1, 3))},
        (0, 1, 1): {1: qi(4)},
    })
    assert SpinorPoly.from_json(poly.to_json()) == poly


def test_golden_files():
    poly = SpinorPoly(3, 2, {
        (1, 0, 0): {0: qi(1), 1: qi(0, 1)},
        (0, 1, 0): {1: qi(rational(-2, 3))},
    })
    golden_poly = json.load(open(os.path.join(DATA, "spinor_poly.json")))
    assert poly.to_json() == golden_poly

    ctx = Context(3, 0)
    from vermaspin.realization import osp_generators
    D, _, _ = osp_generators(ctx.rep)
    op = assemble(D, 1, ctx.graded_basis)
    golden_op = json.load(open(os.path.join(DATA, "dirac_degree1.json")))
    assert op.to_json() == golden_op
