"""Acceptance suite: every criterion exact, one summary line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.  Tolerances are exact equality in Q(i) throughout; there
is no floating point anywhere in the package.
"""

import random

import pytest

from vermaspin import cli
from vermaspin.exact import SparseMatrix, qi, rational, QI_ONE
from vermaspin.polyspinor import assemble
from vermaspin.realization import (
    osp_generators,
    verma_action,
    function_action,
    spinor_fiber,
    structure_constants,
    invariant_contractions,
)
from vermaspin.fischer import (
    monogenic_basis,
    monogenic_dim,
    x_power_matrix,
)
from vermaspin.singular import classify, scan
from vermaspin.equivariant import dirac_power, twistor, verify_intertwining
from test_realization import contraction_eigenvalue


def all_signatures(n):
    return [(p, n - p) for p in range(n + 1)]


def _ok(name):
    print("ACCEPTANCE %s: PASS" % name)


# ---------------------------------------------------------------------------
# 1. osp(1|2) relations, exact, d <= 6, n in {3,4,5,6}, all signatures
# ---------------------------------------------------------------------------


def test_criterion_1_osp_relations(ctx_factory):
    for n in (3, 4, 5, 6):
        for (p, q) in all_signatures(n):
            ctx = ctx_factory(p, q)
            D, E, X = osp_generators(ctx.rep)
            mk = ctx.graded_basis
            for d in range(0, 7):
                Dd = assemble(D, d, mk).matrix
                Ed = assemble(E, d, mk).matrix
                Xd = assemble(X, d, mk).matrix
                # [E, D] + D = 0
                assert assemble(E, d - 1, mk).matrix @ Dd - Dd @ Ed + Dd \
                    == SparseMatrix.zero(Dd.rows, Dd.cols)
                # {D, X} + 2E + n = 0
                anti = assemble(D, d + 1, mk).matrix @ Xd \
                    + assemble(X, d - 1, mk).matrix @ Dd
                zero = anti + Ed.scale(2) + SparseMatrix.identity(Ed.rows).scale(n)
                assert zero.is_zero()
                # [E, X] - X = 0
                assert assemble(E, d + 1, mk).matrix @ Xd - Xd @ Ed == Xd
    _ok("1 (osp relations, n in {3,4,5,6}, all signatures, d <= 6, exact)")


# ---------------------------------------------------------------------------
# 2. representation property against independent structure constants
# ---------------------------------------------------------------------------


def _random_rationals(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        num = rng.randint(-12, 12)
        den = rng.randint(1, 9)
        lam = rational(num, den)
        if lam not in out:
            out.append(lam)
    return out


def test_criterion_2_representation_property(ctx_factory):
    for (p, q) in [(3, 0), (2, 1), (4, 0), (2, 2)]:
        ctx = ctx_factory(p, q)
        sc = structure_constants(ctx.sig)
        fiber = spinor_fiber(ctx.rep)
        for lam in _random_rationals(41 + ctx.n, 3):
            for picture in ("verma", "function"):
                act = {}
                for g in sc.gens:
                    act[g] = (verma_action(g, lam, ctx.rep) if picture == "verma"
                              else function_action(g, lam, ctx.rep, fiber))
                mk = ctx.graded_basis
                mats = {}

                def at(g, d):
                    key = (g, d)
                    if key not in mats:
                        mats[key] = assemble(act[g], d, mk).matrix
                    return mats[key]

                for d in (0, 1, 2):
                    for a in sc.gens:
                        for b in sc.gens:
                            sa = act[a].shifts()
                            sb = act[b].shifts()
                            sa = sa[0] if sa else 0
                            sb = sb[0] if sb else 0
                            lhs = at(a, d + sb) @ at(b, d) - at(b, d + sa) @ at(a, d)
                            rhs = SparseMatrix.zero(lhs.rows, lhs.cols)
                            for g2, c in sc.bracket(a, b):
                                rhs = rhs + at(g2, d).scale(c)
                            assert lhs == rhs, (p, q, str(lam), picture, a, b, d)
    _ok("2 (representation property, both pictures, n in {3,4}, 3 random twists, exact)")


# ---------------------------------------------------------------------------
# 3. contraction defining sums equal closed forms, d <= 6
# ---------------------------------------------------------------------------


def test_criterion_3_contraction_equivalence(ctx_factory):
    cases = [(3, 0), (1, 2), (2, 2), (5, 0)]
    lams = [rational(0), rational(7, 2), rational(-4, 3)]
    for (p, q) in cases:
        ctx = ctx_factory(p, q)
        mk = ctx.graded_basis
        for lam in lams:
            for defining, closed in invariant_contractions(lam, ctx.rep):
                for d in range(0, 7):
                    assert assemble(defining, d, mk).matrix \
                        == assemble(closed, d, mk).matrix, (p, q, str(lam), d)
    _ok("3 (invariant contraction sums equal closed forms, d <= 6, exact)")


# ---------------------------------------------------------------------------
# 4. eigenvalue formulas on the ladder components, k + m <= 5
# ---------------------------------------------------------------------------


def test_criterion_4_eigenvalue_formulas(ctx_factory):
    drops = {1: 1, 2: 0, 3: 2}
    for n in (3, 4, 5):
        ctx = ctx_factory(n, 0)
        for lam in [rational(0), rational(5, 2), rational(-2, 7)]:
            cons = invariant_contractions(lam, ctx.rep)
            mk = ctx.graded_basis
            for m in range(0, 6):
                mono = monogenic_basis(ctx, m)
                mbasis = ctx.graded_basis(m)
                cols = [mbasis.coordinates(el) for el in mono.elements]
                basis_matrix = SparseMatrix.from_entries(
                    mbasis.size, len(cols),
                    ((r, j, v) for j, col in enumerate(cols) for r, v in col.items()))
                for k in range(0, 6 - m):
                    d = k + m
                    ladder = x_power_matrix(ctx, k, m) @ basis_matrix
                    for idx, (spec, _) in enumerate(cons, start=1):
                        out = assemble(spec, d, mk).matrix @ ladder
                        drop = drops[idx]
                        scalar = contraction_eigenvalue(idx, k, m, lam, n)
                        if k - drop < 0:
                            assert out.is_zero(), (n, str(lam), k, m, idx)
                        else:
                            expect = (x_power_matrix(ctx, k - drop, m) @ basis_matrix) \
                                .scale(scalar)
                            assert out == expect, (n, str(lam), k, m, idx)
    _ok("4 (ladder eigenvalue formulas, k+m <= 5, both parities, n in {3,4,5}, exact)")


# ---------------------------------------------------------------------------
# 5. Fischer sum rule and signature independence
# ---------------------------------------------------------------------------


def test_criterion_5_fischer_sum_rule(ctx_factory):
    import math
    for n in (4, 5):
        dims_by_sig = {}
        for (p, q) in all_signatures(n):
            ctx = ctx_factory(p, q)
            dims = [monogenic_dim(ctx, m) for m in range(0, 7)]
            dims_by_sig[(p, q)] = dims
            for d in range(0, 7):
                assert sum(dims[: d + 1]) \
                    == math.comb(d + n - 1, n - 1) * ctx.spinor_dim, (p, q, d)
        assert len({tuple(v) for v in dims_by_sig.values()}) == 1, dims_by_sig
    _ok("5 (Fischer sum rule d <= 6 and signature independence, n in {4,5}, exact)")


# ---------------------------------------------------------------------------
# 6. classification sweep
# ---------------------------------------------------------------------------


SWEEP = [rational(j, 2) for j in range(-8, 9)] + [rational(1, 5), rational(-3, 7)]


def test_criterion_6_classification_sweep(ctx_factory):
    mismatches = []
    for n in (3, 4, 5):
        ctx = ctx_factory(n, 0)
        for report in scan(ctx, SWEEP, 6):
            if not report.match:
                mismatches.append((n, str(report.lam_thm), report.to_text()))
    assert not mismatches, mismatches
    # the same sweep through the command line returns exit code 0
    code = cli.main(["scan", "--p", "3", "--q", "0",
                     "--lambda-grid", "-4..4:1/2", "--dmax", "6",
                     "--output", "/dev/null"])
    assert code == 0
    _ok("6 (classification sweep, n in {3,4,5}, 19 twists, d_max = 6, all match)")


# ---------------------------------------------------------------------------
# 7. intertwining of the named operators
# ---------------------------------------------------------------------------


def test_criterion_7_intertwining(ctx_factory, twist_offset):
    for n in (3, 4):
        ctx = ctx_factory(n, 0)
        for a in (1, 3):
            op = dirac_power(a, ctx)
            assert op.pi_star_pair() == (-rational(a + 2, 2), rational(a - 2, 2))
            report = verify_intertwining(op, 5, ctx)
            assert report.residual_zero, (n, "dirac", a)
            if a == 1:
                assert op.dirac_symbol_ratio == QI_ONE
            else:
                assert op.dirac_symbol_ratio is not None
        for a in (1, 2):
            op = twistor(a, ctx)
            assert op.target_dim == monogenic_dim(ctx, a)
            report = verify_intertwining(op, 5, ctx)
            assert report.residual_zero, (n, "twistor", a)
    # no shifted twist variant passes
    ctx = ctx_factory(3, 0)
    op = dirac_power(1, ctx)
    for off in (rational(1), rational(-1), rational(1, 2)):
        assert not verify_intertwining(twist_offset(op, source=off), 2, ctx).residual_zero
        assert not verify_intertwining(twist_offset(op, target=off), 2, ctx).residual_zero
    _ok("7 (intertwining of D_1, D_3, T_1, T_2 for n in {3,4}; twist pair exact)")


# ---------------------------------------------------------------------------
# 8. negative controls
# ---------------------------------------------------------------------------


def test_criterion_8_negative_controls(ctx_factory):
    ctx = ctx_factory(3, 0)
    op = dirac_power(1, ctx)
    for deriv in sorted(op.coefficients):
        for r in range(op.target_dim):
            for c in range(op.source_dim):
                bad = op.perturbed(deriv, r, c, qi(rational(1, 3)))
                report = verify_intertwining(bad, 2, ctx)
                assert not report.residual_zero, (deriv, r, c)
    # shifting a special twist off the lattice by 1/3 gives the generic case
    for special in (rational(5, 2), rational(1)):
        report = classify(ctx, special + rational(1, 3), 6)
        assert report.case == "generic" and report.match
        assert [c.label() for c in report.found] == [(0, 0, 0, 2)]
    _ok("8 (negative controls: every single-coefficient perturbation detected; "
        "off-lattice twist is generic)")
