import json
import math
import os
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from vermaspin import clifford
from vermaspin.exact import SparseMatrix, qi, rational, QI_ONE
from vermaspin.polyspinor import (
    monomials,
    SpinorPoly,
    GradedBasis,
    OpTerm,
    OperatorSpec,
    assemble,
    _falling,
    _leibniz,
    _merged,
    _product_sum,
    _reorder_1d,
)
from vermaspin.context import Context
from vermaspin.equivariant import _completed_rotations, _pi_star_specs, dirac_power, twistor
from vermaspin.fischer import monogenic_basis, x_power_matrix
from vermaspin.realization import (
    contraction_at_zero, dual_fiber, function_action, generators, invariant_contractions,
    osp_generators, spinor_fiber, verma_action)
from vermaspin.singular import (
    _closed_forms_sound, _sc_spec, contraction_identity_residual, contraction_lambda_residual,
    special_conformal_matrices, xd_matrix)

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
    # compose needs self.dim == other.tdim: spec after d/dx_1 is 2 -> 3
    after = spec.compose(OperatorSpec.derivative(3, 2, 1))
    assert (after.dim, after.tdim) == (2, 3)
    with pytest.raises(ValueError, match="shape mismatch"):
        OperatorSpec.derivative(3, 2, 1).compose(spec)


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


def test_rectangular_compose_matches_matrix_product():
    # twistor op.spec is rectangular (spinor -> family); the function-picture
    # actions are square on either side of it
    for sig in [(3, 0), (2, 1)]:
        ctx = Context(*sig)
        mk = ctx.graded_basis
        op = twistor(1, ctx)
        src, tgt = _pi_star_specs(op, ctx)
        spec = op.spec
        assert spec.dim != spec.tdim
        for gen in generators(ctx.n):
            shift = src[gen].shifts()[0]
            after = spec.compose(src[gen])
            before = tgt[gen].compose(spec)
            assert (after.dim, after.tdim) == (before.dim, before.tdim) == (spec.dim, spec.tdim)
            for d in range(4):
                assert assemble(after, d, mk).matrix == \
                    assemble(spec, d + shift, mk).matrix @ assemble(src[gen], d, mk).matrix
                assert assemble(before, d, mk).matrix == \
                    assemble(tgt[gen], d - op.order, mk).matrix @ assemble(spec, d, mk).matrix


def _term_by_term(spec, degree):
    """shift -> sum of the single-term matrices at that shift, zero sums dropped."""
    out = {}
    for t in spec.terms:
        mat = assemble(OperatorSpec(spec.n, spec.dim, [t], spec.tdim), degree).matrix
        out[t.shift] = mat + out[t.shift] if t.shift in out else mat
    return {shift: mat for shift, mat in out.items() if not mat.is_zero()}


def test_combined_groups_by_matrix_object():
    ctx = Context(2, 1)
    g1, g2 = ctx.rep.gamma(1), ctx.rep.gamma(2)
    g1_copy = g1.scale(1)
    assert g1_copy == g1 and g1_copy is not g1
    m, d = (1, 0, 0), (0, 1, 1)
    z = (0, 0, 0)
    cancelling = [
        OpTerm(m, d, g1, qi(3, 1)), OpTerm(m, d, g1, qi(-3, -1)),   # on one object
        OpTerm(z, d, g1, qi(2)), OpTerm(z, d, g1_copy, qi(-2)),      # by value
        OpTerm(z, d, g2, qi(1, 2)), OpTerm(z, d, g2, qi(-1, -2)),
        OpTerm(m, z, None, qi(4)), OpTerm(m, z, None, qi(-4)),
    ]
    assert OperatorSpec(3, 2, cancelling).combined().terms == []
    zero = SparseMatrix.zero(2, 2)
    spec = OperatorSpec(3, 2, cancelling + [
        OpTerm(m, z, g2, qi(1, 5)), OpTerm(m, z, g2, qi(-1, 5)),     # lone matrix, sum 10i
        OpTerm(z, z, g1, QI_ONE), OpTerm(z, z, g2, qi(0, 1)),        # two matrices summed
        OpTerm(m, m, None, qi(2)), OpTerm(m, m, g1, QI_ONE),         # identity folded in
        OpTerm(d, d, zero, qi(5)),                                   # lone zero matrix
    ])
    lone, pair, mixed = spec.combined().terms
    assert (lone.mono, lone.deriv, lone.coeff) == (m, z, qi(0, 10)) and lone.mat is g2
    assert (pair.mono, pair.deriv, pair.coeff) == (z, z, QI_ONE)
    assert pair.mat == g1 + g2.scale(qi(0, 1))
    assert (mixed.mono, mixed.deriv, mixed.coeff) == (m, m, QI_ONE)
    assert mixed.mat == SparseMatrix.identity(2, qi(2)) + g1
    _assert_canonical(spec)
    lone_zero = OperatorSpec(3, 2, [OpTerm(d, d, zero, qi(5))])
    assert lone_zero.combined().terms == [] and lone_zero.is_zero()
    assert lone_zero.nonzero_keys() == 0
    for degree in range(4):
        expect = _term_by_term(spec, degree)
        assert _term_by_term(spec.combined(), degree) == expect
        assert set(expect) <= {0, 1}
    # every generator spec of both pictures, and the six prefilter residuals,
    # are built in canonical form: the residuals with no term at all
    for ctx in (Context(3, 0), Context(2, 2)):
        for spec in _action_specs(ctx, rational(-3, 2)):
            _assert_canonical(spec)
            assert spec.combined().terms == spec.terms
        for idx in (1, 2, 3):
            for residual in (contraction_identity_residual(ctx, idx),
                             contraction_lambda_residual(ctx, idx)):
                assert residual.terms == [] and residual.is_zero(), idx


def _scalar_matrix_terms(spec):
    """The terms whose fiber matrix is s I, found by comparing the matrix with
    the identity scaled by its (0, 0) entry, not by ``as_scalar``."""
    return [t for t in spec.terms if t.mat is not None and t.mat.rows == t.mat.cols
            and t.mat == SparseMatrix.identity(t.mat.rows, t.mat.get(0, 0))]


def test_fold_stores_a_scalar_total_as_the_identity():
    # several matrices of one key whose total is s I leave the identity
    # with coefficient s; a lone input matrix is kept as it came, s I or not
    z, m = (0, 0, 0), (1, 0, 0)
    g1 = Context(2, 1).rep.gamma(1)
    minus_i = SparseMatrix.identity(2, qi(0, -1))
    spec = OperatorSpec(3, 2, [
        OpTerm(z, z, g1, qi(2)), OpTerm(z, z, SparseMatrix.identity(2, qi(3)) - g1.scale(2), QI_ONE),
        OpTerm(m, z, None, QI_ONE), OpTerm(m, z, minus_i, qi(2)),
        OpTerm(m, m, minus_i, qi(5))])
    total, with_identity, lone = spec.combined().terms
    assert total == OpTerm(z, z, None, qi(3))
    assert with_identity == OpTerm(m, z, None, qi(1, -2))
    assert lone.mat is minus_i and lone.coeff == qi(5)
    _assert_canonical(spec)


@pytest.mark.parametrize("p,q", [(3, 0), (2, 2), (3, 3)])
def test_scalar_fiber_products_match_the_product_of_assembled_factors(p, q):
    # D D, X X, X D and gamma_j g_j(0): the composed spec, whose scalar fiber
    # products ride in the coefficient, assembles to the product of its
    # factors' matrices, which no fold touches
    ctx = Context(p, q)
    mk = ctx.graded_basis
    D, _, X = osp_generators(ctx.rep)
    pairs = [(D, D), (X, X), (X, D)]
    pairs += [(OperatorSpec.fiber(ctx.n, ctx.rep.gamma(j)), _sc_spec(ctx, j))
              for j in range(1, ctx.n + 1)]
    for a, b in pairs:
        composed = a.compose(b)
        assert not _scalar_matrix_terms(composed)
        shift = b.shifts()[0]
        for d in range(4):
            assert assemble(composed, d, mk).matrix == \
                assemble(a, d + shift, mk).matrix @ assemble(b, d, mk).matrix, (a, b, d)
    # D D and X X are scalar on every key: gamma_a gamma_a = -eps_a I
    for spec in (D.compose(D), X.compose(X)):
        assert spec.terms and all(t.mat is None for t in spec.terms)
    # nor does any generator spec of either picture, or a prefilter residual,
    # keep a matrix that is s I
    for spec in _action_specs(ctx, rational(-3, 2)):
        assert not _scalar_matrix_terms(spec)
    for idx in (1, 2, 3):
        for residual in (contraction_identity_residual(ctx, idx),
                         contraction_lambda_residual(ctx, idx)):
            assert not _scalar_matrix_terms(residual)


@pytest.mark.parametrize("p,q", [(3, 3), (5, 0)])
def test_c2_check_multiplies_no_fiber_matrix(monkeypatch, p, q):
    # with the g_i(0) specs and the osp(1|2) products in hand, every fiber
    # product of the C2 closed-form check is a scalar times the identity,
    # so the check runs without one matrix product; a fresh model makes the
    # check run here rather than read a verdict an earlier test stored
    monkeypatch.setattr(clifford, "_MODELS", clifford.Memo())
    ctx = Context(p, q)
    for j in range(1, ctx.n + 1):
        _sc_spec(ctx, j)
    contraction_at_zero(2, ctx.rep)
    calls = []
    matmul = SparseMatrix.__matmul__

    def counting(self, other):
        calls.append((self.rows, other.cols))
        return matmul(self, other)

    monkeypatch.setattr(SparseMatrix, "__matmul__", counting)
    assert _closed_forms_sound(ctx, (2,))
    assert calls == []
    # D D itself reads every product of two gammas off the blade table, so
    # it multiplies no matrix either, and keeps no matrix
    D = osp_generators(ctx.rep)[0]
    DD = D.compose(D)
    assert calls == []
    assert len(DD.terms) == ctx.n and all(t.mat is None for t in DD.terms)


def test_compose_drops_zero_fiber_products():
    # a fiber product that vanishes leaves no term, so a residual that
    # cancels is empty and verify_intertwining assembles nothing for it
    a = SparseMatrix.from_entries(2, 2, [(0, 0, QI_ONE)])
    b = SparseMatrix.from_entries(2, 2, [(1, 1, QI_ONE)])
    left = OperatorSpec.fiber(3, a).compose(OperatorSpec.derivative(3, 2, 1))
    x1 = OperatorSpec.coordinate(3, 2, 1)
    assert left.compose(x1.compose(OperatorSpec.fiber(3, b))).terms == []
    # a d_1 x_1 a = a x_1 d_1 + a: both Leibniz terms survive
    assert len(left.compose(x1.compose(OperatorSpec.fiber(3, a))).terms) == 2
    ctx = Context(4, 0)
    op = twistor(1, ctx)
    src, tgt = _pi_star_specs(op, ctx)
    for gen in generators(ctx.n):
        residual = _product_sum([(op.spec, src[gen]), (tgt[gen].scale(-1), op.spec)])
        assert residual.terms == [], gen


def _compose_terms_oracle(n, t1, t2):
    """Normal order (x^m1 M1 d^d1)(x^m2 M2 d^d2) by recursion over all n
    coordinates, one OpTerm per Leibniz term and one fiber product per pair."""
    mat = None
    if t1.mat is not None and t2.mat is not None:
        mat = t1.mat @ t2.mat
    elif t1.mat is not None:
        mat = t1.mat
    elif t2.mat is not None:
        mat = t2.mat
    base = t1.coeff * t2.coeff
    if not base or (mat is not None and mat.is_zero()):
        return []
    choices = [_reorder_1d(t1.deriv[k], t2.mono[k]) for k in range(n)]
    out = []

    def rec(k, coeff, sub):
        if k == n:
            mono = tuple(t1.mono[i] + t2.mono[i] - sub[i] for i in range(n))
            deriv = tuple(t1.deriv[i] + t2.deriv[i] - sub[i] for i in range(n))
            out.append(OpTerm(mono, deriv, mat, coeff))
            return
        for s, c in choices[k]:
            sub[k] = s
            rec(k + 1, coeff if c == 1 else coeff * qi(c), sub)
        sub[k] = 0

    rec(0, base, [0] * n)
    return out


def _product_sum_oracle(pairs):
    a0, b0 = pairs[0]
    raw = (t for a, b in pairs for t1 in a.terms for t2 in b.terms
           for t in _compose_terms_oracle(a.n, t1, t2))
    return _merged(a0.n, b0.dim, a0.tdim, raw)


def _by_shift(spec, degree):
    """shift -> assembled matrix of the terms of that shift, zero ones dropped."""
    out = {}
    for shift in spec.shifts():
        part = OperatorSpec(spec.n, spec.dim, [t for t in spec.terms if t.shift == shift],
                            spec.tdim)
        mat = assemble(part, degree).matrix
        if not mat.is_zero():
            out[shift] = mat
    return out


def _sparse_matrix(rng, rows, cols):
    """One to three random nonzero entries, so that products often vanish."""
    entries = [(rng.randrange(rows), rng.randrange(cols),
                qi(rng.choice([-2, -1, 1, 2]), rng.randint(-1, 1))) for _ in range(rng.randint(1, 3))]
    return SparseMatrix.from_entries(rows, cols, entries)


def _random_factor(rng, n, rows, cols, pool):
    """A spec rows x cols: identity terms when square, matrices drawn from a
    shared pool so that one object sits in several terms."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        mono = tuple(rng.randint(0, 2) for _ in range(n))
        deriv = tuple(rng.randint(0, 2) if rng.random() < 0.5 else 0 for _ in range(n))
        mats = pool[(rows, cols)]
        mat = None if rows == cols and rng.random() < 0.3 else rng.choice(mats)
        terms.append(OpTerm(mono, deriv, mat, qi(rng.randint(-3, 3) or 1, rng.randint(-1, 1))))
    return OperatorSpec(n, cols, terms, rows)


def test_leibniz_kernel_matches_recursive_oracle():
    n, src, tgt = 3, 2, 3
    rng = random.Random(41)
    # two interacting coordinates: d_1^2 d_2 after x_1^2 x_2 M
    g = SparseMatrix.from_entries(3, 2, [(0, 0, QI_ONE), (2, 1, qi(0, 1))])
    dd = OperatorSpec(n, 3, [OpTerm((0, 0, 1), (2, 1, 0), None, qi(2))])
    xm = OperatorSpec(n, 2, [OpTerm((2, 1, 0), (0, 0, 1), g, QI_ONE)], 3)
    cases = [[(dd, xm)]]
    for _ in range(30):
        pool = {(r, c): [_sparse_matrix(rng, r, c) for _ in range(2)]
                + [SparseMatrix.zero(r, c)] for r in (2, 3) for c in (2, 3)}
        pairs = []
        for _ in range(rng.randint(1, 3)):
            mid = rng.choice([2, 3])
            pairs.append((_random_factor(rng, n, tgt, mid, pool),
                          _random_factor(rng, n, mid, src, pool)))
        cases.append(pairs)
    seen = set()
    for pairs in cases:
        got, want = _product_sum(pairs), _product_sum_oracle(pairs)
        assert (got.dim, got.tdim) == (want.dim, want.tdim) == (src, tgt)
        assert got.is_zero() == want.is_zero()
        assert got.nonzero_keys() == want.nonzero_keys()
        for degree in range(4):
            assert _by_shift(got, degree) == _by_shift(want, degree), degree
        for a, b in pairs:
            for t1 in a.terms:
                for t2 in b.terms:
                    inter = sum(1 for k in range(n) if t1.deriv[k] and t2.mono[k])
                    zero = any(m is not None and m.is_zero() for m in (t1.mat, t2.mat)) or (
                        None not in (t1.mat, t2.mat) and (t1.mat @ t2.mat).is_zero())
                    seen.add((min(inter, 2), t1.mat is None or t2.mat is None, zero))
    # every kind of pair occurred: 0, 1 and 2+ interacting coordinates,
    # identity terms, zero matrices and zero products
    assert {(i, ident, z) for i in range(3) for ident in (False, True)
            for z in (False, True)} <= seen


def _unlabelled(m):
    """A plain SparseMatrix equal to m, which no blade table labels."""
    return SparseMatrix.from_entries(m.rows, m.cols, m.entries())


def _gamma_pair_specs(g1, g2):
    a = OperatorSpec(3, 2, [OpTerm((1, 0, 0), (1, 0, 0), g1, QI_ONE),
                            OpTerm((0, 1, 0), (0, 0, 0), g1, qi(2)),
                            OpTerm((0, 0, 0), (0, 1, 0), g2, QI_ONE),
                            OpTerm((0, 0, 0), (0, 0, 0), None, QI_ONE)])
    b = OperatorSpec(3, 2, [OpTerm((1, 0, 0), (0, 0, 0), g2, QI_ONE),
                            OpTerm((0, 1, 0), (0, 0, 1), g2, qi(0, 1)),
                            OpTerm((0, 0, 1), (0, 0, 0), g1, QI_ONE)])
    return a, b


def _counting_matmul(monkeypatch):
    calls = []
    matmul = SparseMatrix.__matmul__

    def counting(self, other):
        calls.append((id(self), id(other)))
        return matmul(self, other)

    monkeypatch.setattr(SparseMatrix, "__matmul__", counting)
    return calls


def test_leibniz_kernel_multiplies_each_fiber_pair_once(monkeypatch):
    # unlabelled copies of gamma_1 and gamma_2 take the generic path: one
    # matrix product per distinct pair of fiber matrices
    rep = Context(2, 1).rep
    g1, g2 = _unlabelled(rep.gamma(1)), _unlabelled(rep.gamma(2))
    zero = SparseMatrix.zero(2, 2)
    a, b = _gamma_pair_specs(g1, g2)
    calls = _counting_matmul(monkeypatch)
    got = _product_sum([(a, b), (b, a)])
    distinct = {(id(t1.mat), id(t2.mat)) for x, y in [(a, b), (b, a)]
                for t1 in x.terms for t2 in y.terms if None not in (t1.mat, t2.mat)}
    assert sorted(calls) == sorted(distinct) and len(calls) == 4
    monkeypatch.undo()
    for degree in range(4):
        assert _by_shift(got, degree) == _by_shift(_product_sum_oracle([(a, b), (b, a)]), degree)
    # a zero fiber matrix, alone or in a product, contributes no term
    x1 = OperatorSpec.coordinate(3, 2, 1)
    zero_fiber = OperatorSpec.fiber(3, zero)
    assert list(_leibniz([(zero_fiber, x1)])) == []
    assert list(_leibniz([(x1, zero_fiber), (zero_fiber, a)])) == []
    assert len(list(_leibniz([(x1, zero_fiber), (x1, x1)]))) == 1


def test_leibniz_kernel_reads_blade_pairs_off_the_table(monkeypatch):
    # the model's own gamma_1 and gamma_2, and a scaled and a transposed
    # copy that keep their labels: every product is read off the blade
    # table, with no matrix product, and equals the oracle's
    rep = Context(2, 1).rep
    g1, g2 = rep.gamma(1), rep.gamma(2)
    pairs = [_gamma_pair_specs(g1, g2), _gamma_pair_specs(g2.scale(qi(1, 2)), g1.transpose())]
    pairs += [(b, a) for a, b in pairs]
    calls = _counting_matmul(monkeypatch)
    got = _product_sum(pairs)
    assert calls == []
    monkeypatch.undo()
    want = _product_sum_oracle(pairs)
    assert got.nonzero_keys() == want.nonzero_keys()
    for degree in range(4):
        assert _by_shift(got, degree) == _by_shift(want, degree)


def test_is_zero_folds_identity_terms_into_matrix_sums():
    # C3 at (3,2): eps_j d_j^2 puts gamma_j^2 = -eps_j on the fiber as a
    # matrix, the closed form keeps identity terms, and combined() folds
    # each identity term into its key's matrices, where they cancel
    ctx = Context(3, 2)
    defining, closed = invariant_contractions(rational(4), ctx.rep)[2]
    residual = (defining - closed).combined()
    assert not residual.terms
    assert residual.is_zero()
    for degree in (2, 3, 4):
        assert assemble(residual, degree, ctx.graded_basis).matrix.is_zero(), degree
    z = (0, 0, 0)
    assert not OperatorSpec.scalar(3, 2, qi(0, 1)).is_zero()
    assert not OperatorSpec.coordinate(3, 2, 2, qi(-1)).is_zero()
    g1, g2 = Context(2, 1).rep.gamma(1), Context(2, 1).rep.gamma(2)
    assert not OperatorSpec(3, 2, [OpTerm(z, z, g1, QI_ONE), OpTerm(z, z, g2, qi(-1))]).is_zero()
    assert OperatorSpec(3, 2, [OpTerm(z, z, g1, qi(2)), OpTerm(z, z, g1.scale(-2), QI_ONE)]).is_zero()
    # an identity term and a matrix that is minus the identity cancel
    minus_one = SparseMatrix.identity(2, qi(-1))
    assert OperatorSpec(3, 2, [OpTerm(z, z, None, QI_ONE),
                               OpTerm(z, z, minus_one, QI_ONE)]).is_zero()
    assert not OperatorSpec(3, 2, [OpTerm(z, z, None, qi(2)),
                                   OpTerm(z, z, minus_one, QI_ONE)]).is_zero()
    assert OperatorSpec.zero(3, 2).is_zero()


def _term_operator(t, dim):
    """The fiber operator coeff * mat of one term, the identity as a matrix."""
    return (SparseMatrix.identity(dim) if t.mat is None else t.mat).scale(t.coeff)


def _key_sums(spec):
    """(mono, deriv) -> the nonzero sum of the raw terms' fiber operators on
    that key: one combination per key, with no grouping by matrix object."""
    by_key = {}
    for t in spec.terms:
        by_key.setdefault((t.mono, t.deriv), []).append((_term_operator(t, spec.dim), QI_ONE))
    sums = {key: SparseMatrix.combination(pairs) for key, pairs in by_key.items()}
    return {key: mat for key, mat in sums.items() if not mat.is_zero()}


def _assert_canonical(spec):
    """combined() holds one nonzero term per key, each the key's summed
    operator; is_zero and nonzero_keys read it."""
    canon = spec.combined().terms
    sums = _key_sums(spec)
    assert {(t.mono, t.deriv): _term_operator(t, spec.dim) for t in canon} == sums
    assert len(canon) == len(sums) == spec.nonzero_keys()
    assert spec.is_zero() == (not canon)


_FOLD_KEYS = [((0, 0, 0), (0, 0, 0)), ((1, 0, 0), (0, 0, 0)), ((0, 1, 0), (1, 0, 0))]


def _fold_pool():
    """Fiber matrices of a 2-dim fiber: the identity (None), gamma_1 twice as
    one object, gamma_2, minus the identity, -2 gamma_1 as another object,
    and the zero matrix."""
    rep = Context(2, 1).rep
    g1, g2 = rep.gamma(1), rep.gamma(2)
    return [None, g1, g2, g1, SparseMatrix.identity(2, qi(-1)), g1.scale(-2),
            SparseMatrix.zero(2, 2)]


@st.composite
def _fold_cases(draw):
    """Raw terms (key, pool index, coefficient) and the positions of terms
    whose negation is appended, so some keys cancel exactly."""
    coeff = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any)
    raw = draw(st.lists(st.tuples(st.integers(0, len(_FOLD_KEYS) - 1), st.integers(0, 6), coeff),
                        max_size=8))
    return raw, draw(st.lists(st.integers(0, 7), max_size=6))


@given(_fold_cases())
@example(([(0, 1, (1, 0)), (0, 0, (2, 1)), (0, 0, (1, 0))], [0, 1, 2]))  # all of key 0 cancels
@example(([(1, 0, (1, 0)), (1, 4, (1, 0))], []))  # identity + (-identity) cancel
@example(([(2, 1, (2, 0)), (2, 5, (1, 0)), (0, 2, (0, 1))], []))  # 2 g1 - 2 g1 cancel
@settings(max_examples=200, deadline=None)
def test_one_pass_fold_matches_combined_then_fold(case):
    raw, cancel = case
    pool = _fold_pool()
    terms = [OpTerm(*_FOLD_KEYS[k], pool[m], qi(*c)) for k, m, c in raw]
    terms += [t._replace(coeff=-t.coeff) for t in (terms[i] for i in cancel if i < len(terms))]
    spec = OperatorSpec(3, 2, terms)
    _assert_canonical(spec)
    assert spec.is_zero() == (spec.nonzero_keys() == 0)


def test_one_pass_fold_of_an_all_cancelling_key_is_zero():
    # every coefficient of the only key cancels: the fold counts 0 and never
    # asks for the empty combination
    z = (0, 0, 0)
    g1 = Context(2, 1).rep.gamma(1)
    spec = OperatorSpec(3, 2, [OpTerm(z, z, g1, qi(2)), OpTerm(z, z, None, QI_ONE),
                               OpTerm(z, z, g1, qi(-2)), OpTerm(z, z, None, qi(-1))])
    assert spec.nonzero_keys() == 0 and spec.is_zero()
    assert spec.combined().terms == []


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
    the dualised completed rotations of the first-order twistor family, whose
    fiber dimension differs from the spinor dimension.
    """
    family = twistor(1, ctx)
    spinor = spinor_fiber(ctx.rep)
    fibers = [spinor, dual_fiber(spinor), dual_fiber(_completed_rotations(family, ctx))]
    for gen in generators(ctx.n):
        yield verma_action(gen, lam, ctx.rep)
        for fiber in fibers:
            yield function_action(gen, lam, ctx.rep, fiber)


def _operator_specs(ctx):
    """The rectangular specs of two Dirac powers and the first twistor operator."""
    for op in (dirac_power(1, ctx), dirac_power(3, ctx), twistor(1, ctx)):
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


def _drop_columns(m, keep):
    """m, at its shape, with every column outside ``keep`` zero."""
    return SparseMatrix.from_entries(m.rows, m.cols,
                                     ((r, c, v) for r, c, v in m.entries() if c in keep))


@pytest.mark.parametrize("lam", [rational(-3, 2), rational(0)])
@pytest.mark.parametrize("p,q", [(3, 0), (2, 1), (2, 2), (3, 2)])
def test_restricted_assemble_is_the_full_matrix_on_its_columns(p, q, lam):
    # on the specs of the per-monomial oracle test, assemble on a set of source
    # monomials (random halves, none, all) equals the full matrix with every
    # other column dropped
    ctx = Context(p, q)
    rng = random.Random("%d/%d/%s" % (p, q, lam))
    for spec in [*_action_specs(ctx, lam), *_operator_specs(ctx)]:
        for d in range(5):
            full = assemble(spec, d, ctx.graded_basis).matrix
            src = ctx.graded_basis(d, spec.dim)
            for monos in (set(), set(src.monos), {m for m in src.monos if rng.random() < 0.5}):
                keep = {src.index(m, 0) + i for m in monos for i in range(spec.dim)}
                got = assemble(spec, d, ctx.graded_basis, monos).matrix
                assert got == _drop_columns(full, keep), (spec, d, sorted(monos))


def test_special_conformal_matrices_cold_and_warm():
    warm = Context(2, 2)
    for lam in (rational(0), rational(7, 3), rational(-1, 2)):
        for d in range(4):
            cold = special_conformal_matrices(Context(2, 2), lam, d)
            hot = special_conformal_matrices(warm, lam, d)
            assert cold == hot
            assert [_layout(m) for m in cold] == [_layout(m) for m in hot]
    assert all(("sc-spec", i) in warm.rep.cache for i in range(1, warm.n + 1))
    assert all(("sc-base", i, d) in warm.cache and ("sc-del", i, d) in warm.cache
               for i in range(1, warm.n + 1) for d in range(4))
    # every other key perfbench/tracer.py probes to count cache hits is
    # stored under that name, and a warm lookup returns the stored object
    probes = {("monogenic", 2): lambda: monogenic_basis(warm, 2),
              ("xd", 2): lambda: xd_matrix(warm, 2),
              ("xpow", 2, 1): lambda: x_power_matrix(warm, 2, 1)}
    for key, lookup in probes.items():
        first = lookup()
        assert warm.cache[key] is first and lookup() is first, key
    for key in [("assemble", "dirac", 2), ("assemble", "xmult", 1), ("assemble", "xmult", 2),
                ("xpow", 1, 1), ("xpow", 0, 1)]:
        assert key in warm.cache, key


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
