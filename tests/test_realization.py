import random

import pytest

from vermaspin import realization
from vermaspin.clifford import Signature, so_generator
from vermaspin.exact import SparseMatrix, qi, rational, QI_ONE
from vermaspin.polyspinor import SpinorPoly, OperatorSpec, assemble, monomials
from vermaspin.realization import (
    generators,
    conformal_matrix,
    structure_constants,
    bracket_multiple,
    osp_generators,
    verma_action,
    function_action,
    spinor_fiber,
    dual_fiber,
    invariant_contractions,
    contraction_numerator,
    _osp_cached,
)
from vermaspin.fischer import monogenic_basis, x_power_matrix

from conftest import apply_x_power


def split_form(n, eps):
    N = n + 2
    entries = [(0, N - 1, QI_ONE), (N - 1, 0, QI_ONE)]
    entries += [(i, i, qi(eps[i - 1])) for i in range(1, n + 1)]
    return SparseMatrix.from_entries(N, N, entries)


@pytest.mark.parametrize("p,q", [(3, 0), (2, 1), (2, 2), (3, 2)])
def test_conformal_matrices_preserve_form(ctx_factory, p, q):
    ctx = ctx_factory(p, q)
    J = split_form(ctx.n, [ctx.sig.eps(i) for i in range(1, ctx.n + 1)])
    for gen in generators(ctx.n):
        X = conformal_matrix(gen, ctx.sig)
        assert (X.transpose() @ J + J @ X).is_zero(), gen


def test_generator_count():
    n = 4
    assert len(generators(n)) == (n + 2) * (n + 1) // 2


def test_structure_constants_basic():
    from vermaspin.clifford import Signature
    sc = structure_constants(Signature(2, 1))
    # translations and special generators each commute among themselves
    assert sc.bracket(("f", 1), ("f", 2)) == []
    assert sc.bracket(("g", 1), ("g", 3)) == []
    # grading element weights
    assert sc.bracket(("h",), ("f", 1)) == [(("f", 1), qi(-1))]
    assert sc.bracket(("h",), ("g", 2)) == [(("g", 2), qi(1))]
    # the diagonal translation/special bracket is minus the grading element
    assert sc.bracket(("f", 1), ("g", 1)) == [(("h",), qi(-1))]


@pytest.mark.parametrize("p,q", [(2, 1), (1, 3)])
def test_bracket_multiple_matches_structure_constants(p, q):
    # c for every triple (a, b, y) exactly when [a, b] expands to c y alone
    sig = Signature(p, q)
    sc = structure_constants(sig)
    for a in sc.gens:
        for b in sc.gens:
            expansion = sc.bracket(a, b)
            for y in sc.gens:
                expect = expansion[0][1] if [g for g, _ in expansion] == [y] else None
                assert bracket_multiple(a, b, y, sig) == expect, (a, b, y)


def test_bracket_multiple_compares_the_whole_matrix(monkeypatch):
    # a model where l_12 carries one more entry: [f_2, g_1] = -l_12 still
    # matches l_12 on the entry c is read off, but no longer everywhere
    sig = Signature(3, 0)
    assert bracket_multiple(("f", 2), ("g", 1), ("l", 1, 2), sig) == qi(-1)
    # a zero commutator is a zero multiple of any generator, so no c
    assert bracket_multiple(("f", 1), ("f", 2), ("f", 1), sig) is None
    model = realization.conformal_matrix

    def extended(gen, sig):
        m = model(gen, sig)
        if gen == ("l", 1, 2):
            m = m + SparseMatrix.from_entries(m.rows, m.cols, [(m.rows - 1, m.cols - 1, QI_ONE)])
        return m

    monkeypatch.setattr(realization, "conformal_matrix", extended)
    assert bracket_multiple(("f", 2), ("g", 1), ("l", 1, 2), sig) is None


def _assemble_all(ctx, act, degree):
    return {g: assemble(act[g], degree, ctx.graded_basis).matrix
            for g in act}


def _bracket_check(ctx, act, sc, degrees):
    mk = ctx.graded_basis
    for d in degrees:
        for a in sc.gens:
            for b in sc.gens:
                sa = act[a].shifts()
                sb = act[b].shifts()
                sa = sa[0] if sa else 0
                sb = sb[0] if sb else 0
                lhs = assemble(act[a], d + sb, mk).matrix @ assemble(act[b], d, mk).matrix \
                    - assemble(act[b], d + sa, mk).matrix @ assemble(act[a], d, mk).matrix
                rhs = SparseMatrix.zero(lhs.rows, lhs.cols)
                for g2, c in sc.bracket(a, b):
                    rhs = rhs + assemble(act[g2], d, mk).matrix.scale(c)
                assert lhs == rhs, (a, b, d)


@pytest.mark.parametrize("p,q,lam", [(2, 1, rational(4, 7)), (1, 2, rational(-3, 2))])
def test_verma_action_is_representation(ctx_factory, p, q, lam):
    ctx = ctx_factory(p, q)
    sc = structure_constants(ctx.sig)
    act = {g: verma_action(g, lam, ctx.rep) for g in sc.gens}
    _bracket_check(ctx, act, sc, [0, 1, 2])


@pytest.mark.parametrize("module", ["spinor", "dual-spinor"])
def test_function_action_is_representation(ctx_factory, module):
    ctx = ctx_factory(2, 1)
    lam = rational(5, 3)
    sc = structure_constants(ctx.sig)
    fiber = spinor_fiber(ctx.rep)
    if module == "dual-spinor":
        fiber = dual_fiber(fiber)
    act = {g: function_action(g, lam, ctx.rep, fiber) for g in sc.gens}
    _bracket_check(ctx, act, sc, [0, 1, 2])


def _function_action_g_chain(i, lam, rep, fiber):
    """g_i of the function picture summed one composition at a time, as
    before it was normal-ordered by one product sum."""
    n, sig = rep.n, rep.sig
    dim = fiber[(1, 2)].cols
    half_eps = qi(sig.eps(i) * rational(1, 2))
    euler = OperatorSpec.zero(n, dim)
    for j in range(1, n + 1):
        euler = euler + OperatorSpec.coordinate(n, dim, j).compose(
            OperatorSpec.derivative(n, dim, j))
    out = OperatorSpec.zero(n, dim)
    for j in range(1, n + 1):
        out = out + OperatorSpec.monomial_mult(n, dim, j, 2, -half_eps * sig.eps(j)) \
            .compose(OperatorSpec.derivative(n, dim, i))
    out = out + OperatorSpec.coordinate(n, dim, i).compose(euler)
    out = out + OperatorSpec.coordinate(n, dim, i, qi(lam + n * rational(1, 2)))
    for j in range(1, n + 1):
        if j != i:
            pair = fiber[(i, j)] if i < j else fiber[(j, i)].scale(-sig.eps(i) * sig.eps(j))
            out = out + OperatorSpec.coordinate(n, dim, j).compose(OperatorSpec.fiber(n, pair))
    return out.combined()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_function_action_g_matches_the_composition_chain(ctx_factory, n):
    for p in range(n, -1, -1):
        rep = ctx_factory(p, n - p).rep
        spinor = spinor_fiber(rep)
        for fiber in (spinor, dual_fiber(spinor)):
            for lam in (rational(0), rational(-5, 3)):
                for i in range(1, n + 1):
                    new = function_action(("g", i), lam, rep, fiber)
                    assert (new - _function_action_g_chain(i, lam, rep, fiber)).is_zero(), \
                        ((p, n - p), i, str(lam))
                    assert not new.is_zero()


def _verma_action_g_chain(i, lam, rep):
    """g_i of the polynomial model as three compositions summed and merged,
    as before it was normal-ordered by one product sum."""
    n, dim = rep.n, rep.spinor_dim
    o = _osp_cached(rep)
    half_eps = qi(rep.sig.eps(i) * rational(1, 2))
    term1 = OperatorSpec.coordinate(n, dim, i, half_eps).compose(o.DD)
    inner = o.E + OperatorSpec.scalar(n, dim, qi(-lam + n * rational(1, 2) + rational(1, 2)))
    term2 = OperatorSpec.derivative(n, dim, i).compose(inner)
    term3 = OperatorSpec.fiber(n, rep.gamma(i), half_eps).compose(o.D)
    return (term1 + term2 + term3).combined()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_verma_action_g_matches_the_composition_chain(ctx_factory, n):
    for p in range(n, -1, -1):
        rep = ctx_factory(p, n - p).rep
        for lam in (rational(0), rational(-5, 3)):
            for i in range(1, n + 1):
                new = verma_action(("g", i), lam, rep)
                assert (new - _verma_action_g_chain(i, lam, rep)).is_zero(), \
                    ((p, n - p), i, str(lam))
                assert not new.is_zero()


def _osp_chain(rep):
    """D and X composed term by term, as before their normal-ordered terms
    were written out."""
    n, dim = rep.n, rep.spinor_dim
    D = X = OperatorSpec.zero(n, dim)
    for j in range(1, n + 1):
        D = D + OperatorSpec.fiber(n, rep.gamma(j)).compose(OperatorSpec.derivative(n, dim, j))
        X = X + OperatorSpec.fiber(n, rep.gamma(j)).compose(
            OperatorSpec.coordinate(n, dim, j)).scale(rep.sig.eps(j))
    return D, X


def _rotation_chain(i, j, rep, fiber=None):
    """l_ij composed term by term: the polynomial model's when ``fiber`` is
    None, else the function picture's on that fiber."""
    n = rep.n
    eij = qi(rep.sig.eps(i) * rep.sig.eps(j))
    if fiber is None:
        dim = rep.spinor_dim
        spec = OperatorSpec.coordinate(n, dim, i, eij).compose(OperatorSpec.derivative(n, dim, j))
        spec = spec + OperatorSpec.coordinate(n, dim, j, qi(-1)).compose(
            OperatorSpec.derivative(n, dim, i))
        return spec + OperatorSpec.fiber(n, so_generator(i, j, rep))
    dim = fiber[(1, 2)].cols
    spec = OperatorSpec.coordinate(n, dim, j, -eij).compose(OperatorSpec.derivative(n, dim, i))
    spec = spec + OperatorSpec.coordinate(n, dim, i).compose(OperatorSpec.derivative(n, dim, j))
    return spec + OperatorSpec.fiber(n, fiber[(i, j)])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_normal_ordered_generators_match_the_composition_chain(ctx_factory, n):
    # D, X and every l_ij are written as their normal-ordered terms; each
    # equals the operator composed term by term, in both pictures
    for p in range(n, -1, -1):
        rep = ctx_factory(p, n - p).rep
        D, _, X = osp_generators(rep)
        old_d, old_x = _osp_chain(rep)
        assert (D - old_d).is_zero() and (X - old_x).is_zero(), (p, n - p)
        assert not D.is_zero() and not X.is_zero()
        spinor = spinor_fiber(rep)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                new = verma_action(("l", i, j), rational(0), rep)
                assert (new - _rotation_chain(i, j, rep)).is_zero(), ((p, n - p), i, j)
                assert not new.is_zero()
                for fiber in (spinor, dual_fiber(spinor)):
                    new = function_action(("l", i, j), rational(0), rep, fiber)
                    assert (new - _rotation_chain(i, j, rep, fiber)).is_zero(), \
                        ((p, n - p), i, j)
                    assert not new.is_zero()


def test_osp_examples(ctx_factory):
    ctx = ctx_factory(3, 0)
    D, E, X = osp_generators(ctx.rep)
    v = SpinorPoly.constant(3, 2, 0)
    assert D.apply(v).is_zero()
    # D^2 = -(sum of second derivatives) in the definite signature
    poly = SpinorPoly.monomial(3, 2, (2, 1, 0), 1)
    dd = D.apply(D.apply(poly))
    lap = SpinorPoly.monomial(3, 2, (0, 1, 0), 1, qi(-2))
    assert dd == lap
    # {D, X} on a constant equals -(2E + n) on it, i.e. -n v
    anti = D.apply(X.apply(v)) + X.apply(D.apply(v))
    assert anti == v.scale(-3)


def test_osp_relations_on_components(ctx_factory):
    for (p, q) in [(3, 0), (1, 2), (2, 2)]:
        ctx = ctx_factory(p, q)
        D, E, X = osp_generators(ctx.rep)
        mk = ctx.graded_basis
        for d in range(0, 5):
            Dd = assemble(D, d, mk).matrix
            Ed = assemble(E, d, mk).matrix
            Xd = assemble(X, d, mk).matrix
            assert assemble(E, d - 1, mk).matrix @ Dd - Dd @ Ed == Dd.scale(-1)
            anti = assemble(D, d + 1, mk).matrix @ Xd + assemble(X, d - 1, mk).matrix @ Dd
            assert anti == Ed.scale(-2) - SparseMatrix.identity(Ed.rows).scale(ctx.n)
            assert assemble(E, d + 1, mk).matrix @ Xd - Xd @ Ed == Xd


def test_verma_action_examples(ctx_factory):
    ctx = ctx_factory(3, 0)
    lam = rational(7, 4)
    v = SpinorPoly.constant(3, 2, 1)
    f1 = verma_action(("f", 1), lam, ctx.rep)
    assert f1.apply(v) == SpinorPoly.monomial(3, 2, (1, 0, 0), 1, qi(-1))
    for i in (1, 2, 3):
        gi = verma_action(("g", i), lam, ctx.rep)
        assert gi.apply(v).is_zero()
    # grading element: scalar -d + lam - n/2 - 1 on degree-d elements
    # (the -1 is pinned by exact bracket closure; see the ledger/README note)
    h = verma_action(("h",), lam, ctx.rep)
    for d in (0, 1, 3):
        poly = SpinorPoly.monomial(3, 2, monomials(3, d)[0], 0)
        expect = poly.scale(qi(-d + lam - rational(3, 2) - 1))
        assert h.apply(poly) == expect


def test_function_action_examples(ctx_factory):
    ctx = ctx_factory(3, 0)
    lam = rational(2, 5)
    fiber = spinor_fiber(ctx.rep)
    f1 = function_action(("f", 1), lam, ctx.rep, fiber)
    x1v = SpinorPoly.monomial(3, 2, (1, 0, 0), 0)
    assert f1.apply(x1v) == SpinorPoly.constant(3, 2, 0, qi(-1))
    h = function_action(("h",), lam, ctx.rep, fiber)
    v = SpinorPoly.constant(3, 2, 0)
    assert h.apply(v) == v.scale(qi(lam + rational(3, 2)))


def test_derivative_vector_power_commutators(ctx_factory):
    # [d_j, X^k] closed forms, as exact matrix identities for k <= 6
    ctx = ctx_factory(2, 1)
    n, dim = ctx.n, ctx.spinor_dim
    _, _, X = osp_generators(ctx.rep)
    mk = ctx.graded_basis
    d0 = 2
    for k in range(1, 7):
        xk = _power(X, k)
        for j in range(1, n + 1):
            dj = OperatorSpec.derivative(n, dim, j)
            comm = dj.compose(xk) - xk.compose(dj)
            eps = qi(ctx.sig.eps(j))
            if k % 2 == 0:
                expect = OperatorSpec.coordinate(n, dim, j, eps.__neg__() * qi(k)).compose(
                    _power(X, k - 2))
            else:
                expect = OperatorSpec.fiber(n, ctx.rep.gamma(j), eps).compose(_power(X, k - 1))
                if k > 1:
                    expect = expect + OperatorSpec.coordinate(
                        n, dim, j, -eps * qi(k - 1)).compose(_power(X, k - 2))
            lhs = assemble(comm, d0, mk).matrix
            rhs = assemble(expect, d0, mk).matrix
            assert lhs == rhs, (k, j)


def _power(spec, k):
    out = OperatorSpec.scalar(spec.n, spec.dim, QI_ONE)
    for _ in range(k):
        out = spec.compose(out)
    return out


@pytest.mark.parametrize("p,q", [(3, 0), (1, 2)])
def test_contraction_sums_equal_closed_forms(ctx_factory, p, q):
    ctx = ctx_factory(p, q)
    for lam in (rational(1), rational(-2, 3)):
        mk = ctx.graded_basis
        for defining, closed in invariant_contractions(lam, ctx.rep):
            for d in range(0, 5):
                assert assemble(defining, d, mk).matrix == assemble(closed, d, mk).matrix


def _old_chains(lam, rep):
    """g_i(lam) and the closed forms C1, C2, C3, each composed step by step
    from a fresh D, E, X, as before the products D^2, X^2, X D were stored."""
    n, dim = rep.n, rep.spinor_dim
    D, E, X = osp_generators(rep)
    half = rational(1, 2)
    g = []
    for i in range(1, n + 1):
        half_eps = qi(rep.sig.eps(i) * rational(1, 2))
        g.append((OperatorSpec.coordinate(n, dim, i, half_eps).compose(D).compose(D)
                  + OperatorSpec.derivative(n, dim, i).compose(
                      E + OperatorSpec.scalar(n, dim, qi(-lam + n * half + half)))
                  + OperatorSpec.fiber(n, rep.gamma(i), half_eps).compose(D)).combined())
    c1 = (E + OperatorSpec.scalar(n, dim, qi(-lam + 3 * half)) + X.compose(D).scale(qi(half))) \
        .compose(D)
    c2 = (X.compose(X).compose(D.compose(D)).scale(qi(-half))
          + (E + OperatorSpec.scalar(n, dim, qi(-lam + n * half + half))).compose(E)
          + X.compose(D).scale(qi(half)))
    c3 = (OperatorSpec.scalar(n, dim, qi(lam - 2)) + E.scale(qi(-half))).compose(D).compose(D)
    return g, (c1, c2, c3)


@pytest.mark.parametrize("p,q", [(3, 0), (2, 2), (3, 2), (3, 3)])
def test_stored_osp_products_match_the_old_chains(ctx_factory, p, q):
    # D^2, X^2 and X D are composed once per gamma model; every operator
    # built from them equals the step-by-step composition
    rep = ctx_factory(p, q).rep
    o = _osp_cached(rep)
    assert (o.DD - o.D.compose(o.D)).is_zero() and (o.XX - o.X.compose(o.X)).is_zero()
    assert (o.XD - o.X.compose(o.D)).is_zero()
    g, _ = _old_chains(rational(0), rep)
    for i, old in enumerate(g, start=1):
        assert (verma_action(("g", i), rational(0), rep) - old).is_zero(), i
    for lam in (rational(0), rational(7, 3)):
        new = [closed for _, closed in invariant_contractions(lam, rep)]
        for idx, (a, b) in enumerate(zip(new, _old_chains(lam, rep)[1]), start=1):
            assert (a - b).is_zero(), (idx, str(lam))
            assert not a.is_zero()


def contraction_eigenvalue(idx, k, m, lam, n):
    """Exact scalar of contraction ``idx`` on the component X^k M_m: the
    integer ``contraction_numerator`` over its common denominator 2b at
    lam = a/b.  The tests below check it against the contractions' actions,
    which makes it the oracle of ``contraction_numerator``."""
    lam = rational(lam)
    b = lam.denominator
    return qi(rational(contraction_numerator(idx, k, m, lam.numerator, b, n), 2 * b))


def test_contraction_eigenvalue_instance():
    # coordinate contraction on X^2 M_1 at n = 3, lam = 0: scalar 9
    assert contraction_eigenvalue(2, 2, 1, rational(0), 3) == qi(9)


def test_contraction_eigenvalues_on_ladder(ctx_factory):
    ctx = ctx_factory(2, 1)
    lams = [rational(0), rational(5, 2), rational(-1, 3)]
    mk = ctx.graded_basis
    for lam in lams:
        cons = invariant_contractions(lam, ctx.rep)
        for m in range(0, 3):
            basis = monogenic_basis(ctx, m)
            for k in range(0, 4):
                d = k + m
                for el in basis.elements:
                    xkv = apply_x_power(ctx, k, el)
                    for idx, (spec, _) in enumerate(cons, start=1):
                        out = spec.apply(xkv)
                        scalar = contraction_eigenvalue(idx, k, m, lam, ctx.n)
                        drop = {1: 1, 2: 0, 3: 2}[idx]
                        if k - drop < 0:
                            expect = SpinorPoly.zero(ctx.n, ctx.spinor_dim)
                        else:
                            expect = apply_x_power(ctx, k - drop, el).scale(scalar)
                        assert out == expect, (idx, k, m, str(lam))


def test_coordinate_contraction_ladder_n6(ctx_factory):
    # classify skips degrees by this scalar at n = 6 as well; at 11/2 the
    # block X^0 M_2 has scalar zero
    ctx = ctx_factory(3, 3)
    for lam in (rational(0), rational(11, 2), rational(-2, 7)):
        c2 = invariant_contractions(lam, ctx.rep)[1][0]
        for m in range(3):
            mbasis = ctx.graded_basis(m)
            cols = [mbasis.coordinates(el) for el in monogenic_basis(ctx, m).elements]
            basis_matrix = SparseMatrix.from_entries(
                mbasis.size, len(cols),
                ((r, j, v) for j, col in enumerate(cols) for r, v in col.items()))
            for k in range(3):
                ladder = x_power_matrix(ctx, k, m) @ basis_matrix
                out = assemble(c2, k + m, ctx.graded_basis).matrix @ ladder
                scalar = contraction_eigenvalue(2, k, m, lam, ctx.n)
                assert out == ladder.scale(scalar), (str(lam), k, m)


def test_clifford_and_derivative_contraction_ladder_n6(ctx_factory):
    # classify also skips degrees by the C1 and C3 scalars: C1 maps X^k M_m
    # to X^(k-1) M_m and C3 to X^(k-2) M_m, each by its scalar
    ctx = ctx_factory(3, 3)
    lam = rational(-2, 7)
    cons = invariant_contractions(lam, ctx.rep)
    for m in range(3):
        mbasis = ctx.graded_basis(m)
        cols = [mbasis.coordinates(el) for el in monogenic_basis(ctx, m).elements]
        basis_matrix = SparseMatrix.from_entries(
            mbasis.size, len(cols),
            ((r, j, v) for j, col in enumerate(cols) for r, v in col.items()))
        for k in range(3):
            ladder = x_power_matrix(ctx, k, m) @ basis_matrix
            for idx, drop in ((1, 1), (3, 2)):
                out = assemble(cons[idx - 1][0], k + m, ctx.graded_basis).matrix @ ladder
                if k < drop:
                    assert out.is_zero(), (idx, k, m)
                    continue
                scalar = contraction_eigenvalue(idx, k, m, lam, ctx.n)
                assert scalar
                expect = (x_power_matrix(ctx, k - drop, m) @ basis_matrix).scale(scalar)
                assert out == expect, (idx, k, m)


def test_derivative_contraction_kills_dirac_square_kernel(ctx_factory):
    # the derivative contraction has a right factor D^2
    ctx = ctx_factory(3, 0)
    _, closed = invariant_contractions(rational(2), ctx.rep)[2]
    _, _, X = osp_generators(ctx.rep)
    for m in (0, 1):
        for el in monogenic_basis(ctx, m).elements:
            assert closed.apply(el).is_zero()
            assert closed.apply(X.apply(el)).is_zero()
