import pytest

from vermaspin.exact import qi, rational, QI_ONE, SparseMatrix
from vermaspin.polyspinor import SpinorPoly
from vermaspin.fischer import apply_x_power, monogenic_basis, monogenic_dim
from vermaspin.singular import singular_vectors
from vermaspin.equivariant import (
    from_singular_vector,
    verify_intertwining,
    dirac_power,
    twistor,
    dual_dirac_symbol,
)

HALF = rational(1, 2)


def test_first_power_is_dirac_symbol(ctx_factory):
    ctx = ctx_factory(3, 0)
    op = dirac_power(1, ctx)
    assert op.order == 1
    assert op.lambda_source == rational(0) and op.lambda_target == rational(-1)
    # coefficient of d_j is eps_j times the transposed Clifford generator
    for j in range(1, 4):
        deriv = tuple(1 if k == j - 1 else 0 for k in range(3))
        assert op.coefficients[deriv] == ctx.rep.gamma(j).transpose()
    assert op.dirac_symbol_ratio == QI_ONE


def test_pi_star_pair_values(ctx_factory):
    for (p, q) in [(3, 0), (2, 2)]:
        ctx = ctx_factory(p, q)
        for a in (1, 3):
            op = dirac_power(a, ctx)
            src, tgt = op.pi_star_pair()
            assert src == -rational(a + 2, 2)
            assert tgt == rational(a - 2, 2)
            n = ctx.n
            assert op.lambda_source == -rational(n - 2 - a, 2)
            assert op.lambda_target == -rational(n - 2 + a, 2)


def test_dirac_power_rejects_even_order(ctx_factory):
    ctx = ctx_factory(3, 0)
    with pytest.raises(ValueError, match="odd"):
        dirac_power(2, ctx)


def test_intertwining_dirac_and_cube(ctx_factory):
    ctx = ctx_factory(3, 0)
    for a in (1, 3):
        op = dirac_power(a, ctx)
        report = verify_intertwining(op, max(3, a), ctx)
        assert report.residual_zero
        assert op.dirac_symbol_ratio == QI_ONE


def test_intertwining_twistor(ctx_factory):
    ctx = ctx_factory(2, 1)
    for a in (1, 2):
        op = twistor(a, ctx)
        assert op.target_dim == monogenic_dim(ctx, a)
        assert op.lambda_source == rational(a) + HALF
        report = verify_intertwining(op, max(3, a), ctx)
        assert report.residual_zero


def test_intertwining_n5_full_degree(ctx_factory):
    # residual exactly zero through test degree 5 in dimension five as well
    ctx = ctx_factory(5, 0)
    for op in (dirac_power(1, ctx), dirac_power(3, ctx),
               twistor(1, ctx), twistor(2, ctx)):
        assert verify_intertwining(op, 5, ctx).residual_zero


def test_no_other_twist_variant_passes(ctx_factory):
    ctx = ctx_factory(3, 0)
    op = dirac_power(1, ctx)
    for s_off, t_off in [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1),
                         (HALF, 0), (0, HALF)]:
        report = verify_intertwining(op, 2, ctx,
                                     source_offset=s_off, target_offset=t_off)
        assert not report.residual_zero, (s_off, t_off)


def test_perturbation_is_detected(ctx_factory):
    ctx = ctx_factory(3, 0)
    op = dirac_power(1, ctx)
    deriv = next(iter(sorted(op.coefficients)))
    bad = op.perturbed(deriv, 0, 0, qi(rational(1, 7)))
    report = verify_intertwining(bad, 2, ctx)
    assert not report.residual_zero
    assert report.first_failure is not None


def test_order_zero_operator_is_identity(ctx_factory):
    ctx = ctx_factory(3, 0)
    family = singular_vectors(ctx, rational(4, 3), 0)
    op = from_singular_vector(family, rational(4, 3) - rational(3, 2), ctx)
    assert op.order == 0
    (deriv, mat), = op.coefficients.items()
    assert deriv == (0, 0, 0)
    assert mat == SparseMatrix.identity(ctx.spinor_dim)
    report = verify_intertwining(op, 2, ctx)
    assert report.residual_zero


def test_from_singular_vector_rejects_non_singular(ctx_factory):
    ctx = ctx_factory(3, 0)
    poly = SpinorPoly.monomial(3, 2, (1, 0, 0), 0)
    with pytest.raises(ValueError, match="singular"):
        from_singular_vector([poly], rational(1, 3), ctx)


def test_from_singular_vector_rejects_non_singular_member(ctx_factory):
    # a Dirac family plus a member that g_i does not kill
    ctx = ctx_factory(3, 0)
    lam_thm = -rational(ctx.n - 3, 2)
    family = [apply_x_power(ctx, 1, SpinorPoly.constant(3, 2, b)) for b in range(2)]
    assert from_singular_vector(family, lam_thm, ctx).order == 1
    bad = SpinorPoly.monomial(3, 2, (0, 1, 0), 0)
    with pytest.raises(ValueError, match="^family member is not a singular vector$"):
        from_singular_vector(family + [bad], lam_thm, ctx)


def test_from_singular_vector_rejects_non_rotation_closed(ctx_factory):
    # one member of the multi-dimensional first-order twistor family is
    # singular but spans no submodule
    ctx = ctx_factory(3, 0)
    family = monogenic_basis(ctx, 1).elements
    assert len(family) > 1
    lam_thm = rational(1) + HALF
    with pytest.raises(ValueError, match="^family is not rotation-closed$"):
        from_singular_vector(family[:1], lam_thm, ctx, kind="twistor")


def test_from_solver_output_matches_canonical_family(ctx_factory):
    # building from the solver's leading-one kernel basis intertwines too
    ctx = ctx_factory(2, 1)
    lam_thm = -rational(ctx.n - 3, 2)
    svs = singular_vectors(ctx, lam_thm + rational(ctx.n, 2), 1)
    op = from_singular_vector(svs, lam_thm, ctx, kind="dirac-power")
    report = verify_intertwining(op, 3, ctx)
    assert report.residual_zero


def test_apply_shapes(ctx_factory):
    ctx = ctx_factory(3, 0)
    op = twistor(1, ctx)
    f = SpinorPoly.monomial(3, 2, (2, 0, 0), 1)
    out = op.apply(f)
    assert out.dim == op.target_dim
    assert out.homogeneous_degree() == 1


def test_dual_symbol_power_order():
    from vermaspin.context import Context
    ctx = Context(3, 0)
    sym = dual_dirac_symbol(2, ctx)
    # the square of the dual Dirac symbol is minus the metric Laplacian symbol
    for deriv, mat in sym.items():
        if max(deriv) == 2:
            j = deriv.index(2) + 1
            assert mat == SparseMatrix.identity(2, qi(-ctx.sig.eps(j)))
        else:
            assert mat.is_zero() or not any(mat.entries())
    assert all(sum(d) == 2 for d in sym)
