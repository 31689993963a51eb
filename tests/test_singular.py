import os
import re
import subprocess
import sys
import textwrap
from dataclasses import dataclass, replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from vermaspin import clifford, exact, polyspinor, realization, singular
from vermaspin.context import Context
from vermaspin.exact import (
    SparseMatrix, QI_ONE, QI_ZERO, qi, rational, rank, express_in_span, nullspace,
    kernel_vectors, _canonical_basis)
from vermaspin.polyspinor import OperatorSpec, SpinorPoly, assemble
from vermaspin.realization import (
    verma_action, invariant_contractions, contraction_slope,
    contraction_sum, osp_generators, _osp_cached)
from vermaspin.fischer import monogenic_basis, monogenic_dim, dirac_matrix
from vermaspin.singular import (
    ClassificationReport,
    ComponentRecord,
    singular_vectors,
    special_conformal_matrices,
    isotypic_split,
    predicted_components,
    classify,
    contraction_identity_residual,
    contraction_lambda_residual,
    scan,
    xd_eigenvalue,
    xd_matrix,
)

from conftest import refused
from test_clifford import _flipped_table, _negated

HALF = rational(1, 2)


def _combine(vectors, coeffs):
    """The sparse vector sum_j coeffs[j] * vectors[j]."""
    out = {}
    for vec, c in zip(vectors, coeffs):
        if not c:
            continue
        for idx, v in vec.items():
            w = out.get(idx)
            nv = v * c if w is None else w + v * c
            if nv:
                out[idx] = nv
            elif idx in out:
                del out[idx]
    return out


def _eigensplit(ctx, polys, degree):
    """Oracle for ``isotypic_split``: a general exact eigensplit of X D on the kernel.

    X D is written in the kernel basis with ``express_in_span``, each
    eigenspace (R - c I) is one exact nullspace, and each piece is put back
    in RREF form.
    """
    if not polys:
        return []
    basis = ctx.graded_basis(degree)
    vecs = [basis.coordinates(p) for p in polys]
    family = SparseMatrix.from_columns(basis.size, vecs)
    coeffs = express_in_span(family, xd_matrix(ctx, degree) @ family)
    if coeffs is None:
        raise ValueError("kernel is not X D invariant")  # impossible for true kernels
    kdim = len(vecs)
    pieces = []
    total = 0
    for k in range(degree + 1):
        c = xd_eigenvalue(k, degree - k, ctx.n)
        shifted = coeffs - SparseMatrix.identity(kdim, c)
        sub = kernel_vectors(nullspace(shifted))
        if not sub:
            continue
        piece_vecs = _canonical_basis(
            [_combine(vecs, [s.get(j, qi(0)) for j in range(kdim)]) for s in sub],
            basis.size)
        polys_piece = [basis.from_coordinates(v) for v in piece_vecs]
        pieces.append((k, degree - k, polys_piece))
        total += len(polys_piece)
    if total != kdim:
        raise ValueError("isotypic refinement lost dimensions (%d of %d)" % (total, kdim))
    return pieces


@dataclass(frozen=True)
class IsotypicLabel:
    """Component tag: v in X^k M_m, with optional chirality of the M_m part."""

    k: int
    m: int
    chirality: str | None = None


def label_isotypic(ctx, poly):
    """Oracle label of a single vector lying in one component X^k M_m.

    k is found by exact repeated application of the Dirac matrix; a vector
    mixing several components raises ValueError("not isotypic").
    """
    d = poly.homogeneous_degree()
    if d is None:
        raise ValueError("not homogeneous")
    basis = ctx.graded_basis(d)
    vec = basis.coordinates(poly)
    if not vec:
        raise ValueError("zero polynomial has no isotypic label")
    chain = [vec]
    cur = vec
    deg = d
    while cur:
        cur = dirac_matrix(ctx, deg).matrix.mul_vec(cur)
        chain.append(cur)
        deg -= 1
    k = len(chain) - 2  # number of applications before reaching zero, minus one
    m = d - k
    # consistency: the ladder scalar structure pins membership in X^k M_m
    ev = xd_eigenvalue(k, m, ctx.n)
    xdv = xd_matrix(ctx, d).mul_vec(vec)
    expect = {i: v * ev for i, v in vec.items() if v * ev}
    if xdv != expect:
        raise ValueError("not isotypic")
    chirality = None
    if ctx.chirality is not None:
        sides = {ctx.chirality.half(i % ctx.spinor_dim) for i in chain[k]}
        chirality = sides.pop() if len(sides) == 1 else "mixed"
    return IsotypicLabel(k=k, m=m, chirality=chirality)


def test_degree_zero_kernel_is_everything(ctx_factory):
    for (p, q) in [(3, 0), (2, 2)]:
        ctx = ctx_factory(p, q)
        for lam in (rational(0), rational(9, 4)):
            svs = singular_vectors(ctx, lam, 0)
            assert len(svs) == ctx.spinor_dim


def test_first_order_vector_family(ctx_factory):
    # at realization parameter 3/2 the degree-1 kernel is X applied to constants
    ctx = ctx_factory(3, 0)
    svs = singular_vectors(ctx, rational(3, 2), 1)
    assert len(svs) == 2
    for sv in svs:
        label = label_isotypic(ctx, sv)
        assert (label.k, label.m) == (1, 0)


def test_first_order_monogenic_family(ctx_factory):
    # at realization parameter m + n/2 + 1/2 = 3 (m = 1, n = 3) the degree-1
    # kernel is the monogenic space M_1, dimension 4
    ctx = ctx_factory(3, 0)
    svs = singular_vectors(ctx, rational(3), 1)
    assert len(svs) == 4 == monogenic_dim(ctx, 1)
    for sv in svs:
        label = label_isotypic(ctx, sv)
        assert (label.k, label.m) == (0, 1)


def test_generic_parameter_kernels_empty(ctx_factory):
    ctx = ctx_factory(2, 1)
    for d in (1, 2, 3):
        assert singular_vectors(ctx, rational(22, 7), d) == []


def _iterated_singular_vectors(ctx, lam, degree):
    """Oracle: the joint kernel by iterated intersection, one g_i at a time."""
    basis = ctx.graded_basis(degree)
    vectors = [{c: QI_ONE} for c in range(basis.size)]
    for mat in special_conformal_matrices(ctx, lam, degree):
        restricted = SparseMatrix.from_entries(
            mat.rows, len(vectors),
            ((r, j, v) for j, vec in enumerate(vectors)
             for r, v in mat.mul_vec(vec).items()),
        )
        vectors = [
            _combine(vectors, [coeffs.get(j, QI_ZERO) for j in range(len(vectors))])
            for coeffs in kernel_vectors(nullspace(restricted))
        ]
    return [basis.from_coordinates(v) for v in _canonical_basis(vectors, basis.size)]


def test_stacked_and_iterated_agree(ctx_factory):
    cells = [((2, 1), rational(3, 2), 1), ((2, 1), rational(3), 1),
             ((2, 1), rational(2), 1), ((2, 1), rational(5, 2), 3),
             ((2, 1), rational(4), 2), ((2, 2), rational(7, 2), 1)]
    for (p, q), lam, d in cells:
        ctx = ctx_factory(p, q)
        a = singular_vectors(ctx, lam, d)
        b = _iterated_singular_vectors(ctx, lam, d)
        assert [x.terms for x in a] == [x.terms for x in b]


def test_label_examples(ctx_factory):
    from conftest import apply_x_power
    ctx = ctx_factory(3, 0)
    const = SpinorPoly.constant(3, 2, 0)
    assert label_isotypic(ctx, const) == label_isotypic(ctx, const.scale(qi(3)))
    lab = label_isotypic(ctx, const)
    assert (lab.k, lab.m) == (0, 0)
    x3 = apply_x_power(ctx, 3, const)
    lab = label_isotypic(ctx, x3)
    assert (lab.k, lab.m) == (3, 0)
    m1 = monogenic_basis(ctx, 1).elements[0]
    lab = label_isotypic(ctx, m1)
    assert (lab.k, lab.m) == (0, 1)


def _chirality_dims(ctx, piece_polys, k, degree):
    """Oracle: the +/- dimensions of the M_m part of a piece, read off its supports.

    The g_i and X D commute with the volume element, which is diagonal +-1 in
    the fiber, so every RREF piece vector lies in one fiber half.  X
    anticommutes with it, so X^k u lies in the half of u for even k and in
    the other half for odd k.
    """
    if ctx.chirality is None:
        return None
    dims = {"+": 0, "-": 0}
    for poly in piece_polys:
        fiber = (i for vec in poly.terms.values() for i in vec)
        dims[ctx.chirality.half_of(fiber, degree)] += 1
    return dims if k % 2 == 0 else {"+": dims["-"], "-": dims["+"]}


def _chirality_dims_by_rank(ctx, piece_polys, k, m, degree):
    """Oracle: strip X^k off with D^k, then the rank of each half's coordinates."""
    if ctx.chirality is None:
        return None
    stripped = []
    for poly in piece_polys:
        vec = ctx.graded_basis(degree).coordinates(poly)
        deg = degree
        for _ in range(k):
            vec = dirac_matrix(ctx, deg).matrix.mul_vec(vec)
            deg -= 1
        stripped.append(vec)
    dims = {}
    for tag in ("+", "-"):
        rows = [{i: v for i, v in vec.items() if ctx.chirality.half(i % ctx.spinor_dim) == tag}
                for vec in stripped]
        rows = [row for row in rows if row]
        dims[tag] = rank(SparseMatrix(len(rows), ctx.graded_basis(m).size, dict(enumerate(rows))))
    return dims


def test_chirality_of_labels_and_piece_dims(ctx_factory):
    # X^k applied to one chirality half of M_m keeps that half's tag; a sum of
    # both halves is mixed, and the piece dimensions count each half.  For odd
    # k, X^k moves the vector into the other fiber half, and the tag stays.
    from conftest import apply_x_power
    ctx = ctx_factory(2, 2)
    mono = monogenic_basis(ctx, 1)
    halves = {tag: [el for el, t in zip(mono.elements, mono.chirality) if t == tag]
              for tag in ("+", "-")}
    for k in (0, 1, 2, 3):
        for tag, els in halves.items():
            piece = [apply_x_power(ctx, k, el) for el in els]
            assert {label_isotypic(ctx, v).chirality for v in piece} == {tag}
            other = "-" if tag == "+" else "+"
            want = {tag: len(els), other: 0}
            assert _chirality_dims(ctx, piece, k, k + 1) == want
            assert _chirality_dims_by_rank(ctx, piece, k, 1, k + 1) == want
        both = apply_x_power(ctx, k, halves["+"][0] + halves["-"][0])
        assert label_isotypic(ctx, both).chirality == "mixed"
        with pytest.raises(ArithmeticError, match="degree %d: .*both chirality halves" % (k + 1)):
            _chirality_dims(ctx, [both], k, k + 1)


def test_label_rejects_mixed_component(ctx_factory):
    from conftest import apply_x_power
    ctx = ctx_factory(3, 0)
    v = SpinorPoly.constant(3, 2, 0)
    mixed = apply_x_power(ctx, 2, v) + monogenic_basis(ctx, 2).elements[0]
    with pytest.raises(ValueError, match="not isotypic"):
        label_isotypic(ctx, mixed)
    with pytest.raises(ValueError, match="degree 2: .*not an X D eigenvector"):
        isotypic_split(ctx, [mixed], 2)


def test_xd_eigenvalues_separate_components():
    for n in (3, 4, 5):
        for d in range(0, 8):
            vals = [xd_eigenvalue(k, d - k, n) for k in range(d + 1)]
            assert len(set((str(v.re), str(v.im)) for v in vals)) == len(vals)


def test_isotypic_split_counts(ctx_factory):
    ctx = ctx_factory(2, 2)
    # lam_thm = 3/2 -> realization parameter 7/2; degree 1 holds M_1
    svs = singular_vectors(ctx, rational(7, 2), 1)
    pieces = isotypic_split(ctx, svs, 1)
    assert [(k, m, len(b)) for k, m, b in pieces] == [(0, 1, monogenic_dim(ctx, 1))]
    assert [(k, m, len(b)) for k, m, b in _eigensplit(ctx, svs, 1)] == \
        [(0, 1, monogenic_dim(ctx, 1))]


def test_isotypic_split_runs_no_elimination(monkeypatch):
    # the tag pass is X D products and scalar checks only
    ctx = Context(2, 2)
    svs = singular_vectors(ctx, rational(7, 2), 1)
    expect = isotypic_split(ctx, svs, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("isotypic_split eliminated")

    for module, name in [(exact, "nullspace"), (exact, "rref"), (exact, "_canonical_basis"),
                         (exact, "express_in_span"), (singular, "nullspace")]:
        monkeypatch.setattr(module, name, refuse)
    ctx.cache.pop(("xd", 1))
    assert isotypic_split(ctx, svs, 1) == expect


def test_isotypic_split_rejects_a_polynomial_of_the_wrong_degree():
    # a degree-2 monomial offered as a degree-1 vector names both degrees
    poly = SpinorPoly.monomial(3, 2, (2, 0, 0), 0)
    with pytest.raises(ValueError, match="^a polynomial of degree 2 is not in the basis of "
                                         "degree 1$"):
        isotypic_split(Context(3, 0), [poly], 1)
    mixed = poly + SpinorPoly.monomial(3, 2, (1, 0, 0), 1)
    with pytest.raises(ValueError, match="^a polynomial of mixed degree is not in the basis "
                                         "of degree 1$"):
        Context(3, 0).graded_basis(1).coordinates(mixed)


def test_weight_consistency(ctx_factory):
    # singular vectors are exact eigenvectors of the grading action with the
    # coherent eigenvalue -d + lam - n/2 - 1
    ctx = ctx_factory(3, 0)
    lam = rational(3, 2)
    h = verma_action(("h",), lam, ctx.rep)
    for sv in singular_vectors(ctx, lam, 1):
        assert h.apply(sv) == sv.scale(qi(-1 + lam - rational(3, 2) - 1))


def test_rotation_invariance_of_kernel(ctx_factory):
    ctx = ctx_factory(3, 0)
    lam = rational(3)
    svs = singular_vectors(ctx, lam, 1)
    basis = ctx.graded_basis(1)
    family = SparseMatrix.from_columns(basis.size, [basis.coordinates(sv) for sv in svs])
    for i in range(1, 4):
        for j in range(i + 1, 4):
            rot = assemble(verma_action(("l", i, j), lam, ctx.rep), 1,
                           ctx.graded_basis).matrix
            assert express_in_span(family, rot @ family) is not None


def test_solution_space_inside_contraction_kernels(ctx_factory):
    # solutions annihilate all three invariant contractions, and conversely
    # every contraction-kernel component surviving the case analysis is a
    # genuine solution
    from conftest import apply_x_power
    ctx = ctx_factory(2, 1)
    n = ctx.n
    for lam, d in [(rational(3, 2), 1), (rational(3), 1), (rational(5, 2), 3)]:
        svs = singular_vectors(ctx, lam, d)
        cons = invariant_contractions(lam, ctx.rep)
        for sv in svs:
            for spec, _ in cons:
                assert spec.apply(sv).is_zero()
        # surviving candidates: components X^k M_m of degree d whose scalars
        # under all three contractions vanish
        for k in range(d + 1):
            m = d - k
            from test_realization import contraction_eigenvalue
            scalars = [contraction_eigenvalue(i, k, m, lam, n) for i in (1, 2, 3)]
            if any(bool(s) for s in scalars):
                continue
            for el in monogenic_basis(ctx, m).elements:
                candidate = apply_x_power(ctx, k, el)
                for i in range(1, n + 1):
                    gi = verma_action(("g", i), lam, ctx.rep)
                    assert gi.apply(candidate).is_zero()


def test_predicted_components_tables():
    case, comps, unch = predicted_components(rational(5, 2), 3, 6)
    assert case == "twistor" and comps == [(0, 0, 0), (2, 0, 2)] and unch == []
    case, comps, unch = predicted_components(rational(1), 3, 6)
    assert case == "dirac-power" and comps == [(0, 0, 0), (3, 3, 0)]
    case, comps, unch = predicted_components(rational(4), 3, 6)
    assert case == "dirac-power" and comps == [(0, 0, 0)] and unch == [(9, 9, 0)]
    case, comps, unch = predicted_components(rational(3, 2), 4, 6)
    assert case == "both" and comps == [(0, 0, 0), (1, 0, 1), (5, 5, 0)]
    case, comps, _ = predicted_components(rational(1, 5), 3, 6)
    assert case == "generic" and comps == [(0, 0, 0)]
    # negative and zero twists: membership in the natural numbers excludes 0
    case, comps, _ = predicted_components(rational(-1), 3, 6)
    assert case == "generic"
    case, comps, _ = predicted_components(rational(0), 3, 6)
    assert case == "dirac-power" and comps == [(0, 0, 0), (1, 1, 0)]


def _branching_case_table(lam_thm, n, d_max):
    """Oracle: the case table as the per-parity branches it was first written as."""
    def _is_natural(x):
        return x.denominator == 1 and x >= 1

    lam = rational(lam_thm)
    comps = [(0, 0, 0)]
    twistor_cond = _is_natural(lam - HALF)
    dirac_cond = _is_natural(lam + rational(n, 2) - HALF)
    if n % 2 == 1:
        if twistor_cond:
            case = "twistor"
            m = int(lam - HALF)
            comps.append((m, 0, m))
        elif dirac_cond:
            case = "dirac-power"
            k = int(2 * lam + n - 2)
            comps.append((k, k, 0))
        else:
            case = "generic"
    else:
        if twistor_cond:
            case = "both"
            m = int(lam - HALF)
            comps.append((m, 0, m))
            k = int(2 * lam + n - 2)
            comps.append((k, k, 0))
        elif dirac_cond:
            case = "dirac-power"
            k = int(2 * lam + n - 2)
            comps.append((k, k, 0))
        else:
            case = "generic"
    checkable = sorted(c for c in comps if c[0] <= d_max)
    uncheckable = sorted(c for c in comps if c[0] > d_max)
    return case, checkable, uncheckable


def test_case_table_matches_the_branching_oracle():
    twists = sorted({rational(a, b) for a in range(-40, 41) for b in (1, 2, 3, 4)})
    cases = set()
    for n in range(3, 17):
        for lam in twists:
            for d_max in (0, 1, 4, 9, 30):
                got = predicted_components(lam, n, d_max)
                assert got == _branching_case_table(lam, n, d_max), (n, str(lam), d_max)
                cases.add(got[0])
    assert cases == {"generic", "twistor", "dirac-power", "both"}


def test_classify_examples(ctx_factory):
    ctx = ctx_factory(3, 0)
    rep = classify(ctx, rational(5, 2), 6)
    assert rep.match and rep.case == "twistor"
    assert sorted(c.label() for c in rep.found) == [(0, 0, 0, 2), (2, 0, 2, 6)]

    rep = classify(ctx, rational(1), 6)
    assert rep.match and rep.case == "dirac-power"
    assert sorted(c.label() for c in rep.found) == [(0, 0, 0, 2), (3, 3, 0, 2)]

    rep = classify(ctx, rational(1, 5), 6)
    assert rep.match and rep.case == "generic"
    assert [c.label() for c in rep.found] == [(0, 0, 0, 2)]


def test_classify_uncheckable_cutoff(ctx_factory):
    ctx = ctx_factory(3, 0)
    rep = classify(ctx, rational(4), 6)
    assert rep.match
    assert rep.uncheckable == [(9, 9, 0)]


def test_classify_even_dimension_with_chirality(ctx_factory):
    ctx = ctx_factory(2, 2)
    rep = classify(ctx, rational(3, 2), 6)
    assert rep.match and rep.case == "both"
    labels = sorted(c.label() for c in rep.found)
    assert labels == [(0, 0, 0, 4), (1, 0, 1, 12), (5, 5, 0, 4)]
    for c in rep.found:
        assert c.chirality_dims is not None
        assert c.chirality_dims["+"] + c.chirality_dims["-"] == c.dim


def test_classify_off_lattice_shift_is_generic(ctx_factory):
    # shifting a special twist by 1/3 leaves every special lattice
    ctx = ctx_factory(3, 0)
    rep = classify(ctx, rational(5, 2) + rational(1, 3), 5)
    assert rep.case == "generic" and rep.match
    assert [c.label() for c in rep.found] == [(0, 0, 0, 2)]


def test_scan_order_and_json(ctx_factory):
    ctx = ctx_factory(3, 0)
    lams = [rational(1), rational(3, 2)]
    reports = scan(ctx, lams, 4)
    assert [str(r.lam_thm) for r in reports] == ["1", "3/2"]
    payload = reports[0].to_json()
    assert payload["lambda"] == "1" and payload["match"] is True
    assert payload["found"][0] == {
        "degree": 0, "k": 0, "m": 0, "dim": 2, "chirality_dims": None}


def test_gamma_construction_independence(ctx_factory):
    # the two distinct gamma constructions give identical downstream results
    a = ctx_factory(2, 2)
    b = ctx_factory(2, 2, "alt")
    assert [monogenic_dim(a, m) for m in range(4)] == \
        [monogenic_dim(b, m) for m in range(4)]
    ra = classify(a, rational(3, 2), 5)
    rb = classify(b, rational(3, 2), 5)
    assert sorted(c.label() for c in ra.found) == sorted(c.label() for c in rb.found)
    assert ra.match and rb.match
    from vermaspin.equivariant import dirac_power, verify_intertwining
    assert verify_intertwining(dirac_power(1, b), 3, b).residual_zero


def _classify_unfiltered(ctx, lam_thm, d_max):
    """Oracle: classify with every degree solved, no contraction prefilter.

    Each degree is split by the general eigensplit, and ``isotypic_split``
    must give the same pieces, also at the degrees the prefilter skips.
    """
    lam_thm = rational(lam_thm)
    case, checkable, uncheckable = predicted_components(lam_thm, ctx.n, d_max)
    predicted = [(d, k, m, monogenic_dim(ctx, m)) for d, k, m in checkable]
    found = []
    for degree in range(d_max + 1):
        polys = singular_vectors(ctx, lam_thm + rational(ctx.n, 2), degree)
        pieces = _eigensplit(ctx, polys, degree)
        # the production tag pass gives the same pieces, vector for vector
        assert isotypic_split(ctx, polys, degree) == pieces, (str(lam_thm), degree)
        for k, m, piece in pieces:
            found.append(ComponentRecord(
                degree=degree, k=k, m=m, dim=len(piece),
                chirality_dims=_chirality_dims_by_rank(ctx, piece, k, m, degree)))
    match = sorted(c.label() for c in found) == sorted(predicted)
    return ClassificationReport(
        n=ctx.n, p=ctx.sig.p, q=ctx.sig.q, lam_thm=lam_thm, d_max=d_max, case=case,
        found=found, predicted=predicted, uncheckable=uncheckable, match=match)


# one twist per special case of each n, and two generic twists
_ORACLE_TWISTS = {
    3: [rational(5, 2), rational(1)],       # twistor, dirac-power
    4: [rational(3, 2), rational(1, 2)],    # both, dirac-power
    5: [rational(3, 2), rational(-1)],      # twistor, dirac-power
}
_GENERIC = [rational(1, 5), rational(-2, 7)]


def _oracle_sweep(n):
    """(signatures, twists, d_max) of the oracle sweep at n; n = 6 is a smaller spot check."""
    if n == 6:
        # dirac-power (X^1 M_0), both (M_1, X^5 M_0 beyond d_max), dirac-power (X^3 M_0)
        return [(6, 0), (4, 2), (3, 3)], [rational(-3, 2), rational(3, 2), rational(-1, 2)], 3
    return [(p, n - p) for p in range(n + 1)], _ORACLE_TWISTS[n] + _GENERIC, 4


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_classify_matches_unfiltered_oracle(ctx_factory, n):
    signatures, twists, d_max = _oracle_sweep(n)
    for p, q in signatures:
        ctx = ctx_factory(p, q)
        for twist in twists:
            expect = _classify_unfiltered(ctx, twist, d_max).to_json()
            assert classify(ctx, twist, d_max).to_json() == expect, ((p, q), str(twist))


def test_prefilter_keeps_a_degree_with_empty_kernel(ctx_factory):
    # at (3,0), lambda 5/2, C2 has a zero block at degree 4 but nothing there
    # is singular: the filter keeps the degree and the solver finds it empty
    ctx = ctx_factory(3, 0)
    lam_real = rational(5, 2) + rational(3, 2)
    kept = [d for d in range(5) if singular._zero_blocks(lam_real, d, 3, (2,))]
    assert kept == [0, 2, 4]
    assert singular_vectors(ctx, lam_real, 4) == []
    assert classify(ctx, rational(5, 2), 4).to_json() \
        == _classify_unfiltered(ctx, rational(5, 2), 4).to_json()


@st.composite
def _classify_cases(draw):
    n = draw(st.sampled_from((3, 4)))
    p = draw(st.integers(0, n))
    den = draw(st.integers(1, 4))
    num = draw(st.integers(-4 * den, 4 * den))
    return (p, n - p), rational(num, den), draw(st.integers(1, 3))


@given(_classify_cases())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_classify_matches_unfiltered_oracle_random(ctx_factory, case):
    (p, q), lam_thm, d_max = case
    ctx = ctx_factory(p, q)
    report = classify(ctx, lam_thm, d_max)
    assert report.match, report.to_text()
    assert report.to_json() == _classify_unfiltered(ctx, lam_thm, d_max).to_json()


def _spy_solve_block(monkeypatch):
    """Record (degree, k) of every block solve."""
    solved = []
    solve = singular._solve_block

    def counted(ctx, lam, degree, k):
        solved.append((degree, k))
        return solve(ctx, lam, degree, k)

    monkeypatch.setattr(singular, "_solve_block", counted)
    return solved


def _closed_form_off_by_one(idx):
    """A patch for ``fresh_models``: ``_CONTRACTIONS`` with the scalar 1
    added to C_idx(0) at its source."""
    entry = realization._CONTRACTIONS[idx]

    def at_zero(o):
        one = OperatorSpec.scalar(o.E.n, o.E.dim, 1)
        return entry.at_zero(o) + [(one, one)]

    return realization, "_CONTRACTIONS", {**realization._CONTRACTIONS,
                                          idx: entry._replace(at_zero=at_zero)}


def _break_closed_form(monkeypatch, idx):
    """Apply :func:`_closed_form_off_by_one` and start from a fresh map of
    gamma models, so that no verdict stored before the change is read."""
    monkeypatch.setattr(*_closed_form_off_by_one(idx))
    monkeypatch.setattr(clifford, "_MODELS", clifford.Memo())


def _tampered_classify(lam, d_max):
    """classify on a (2,2) Context whose table's gamma_1 has its (2, 0)
    entry negated, so that gamma_1^2 = diag(1, -1, 1, -1) is diagonal but
    not a multiple of the identity: the table's relation check fails before
    any closed form is read, and the model is refused.  Raises instead of
    asserting.

    The tampered model is a copy with its own variant name and its own
    store, so its osp(1|2) products never meet those of the true model.
    """
    ctx = Context(2, 2)
    ctx.rep = replace(ctx.rep, variant="gamma-1-tampered", table=_flipped_table(ctx.sig, 0, 2))
    g1 = ctx.rep.gamma(1)
    square = g1 @ g1
    if square != SparseMatrix.from_dense([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0],
                                          [0, 0, 0, -1]]):
        raise AssertionError("gamma_1^2 is %r" % square.data)
    refused(lambda: classify(ctx, lam, d_max), r"signature \(2,2\): G_1 G_1 is not -1 I")


def test_non_scalar_diagonal_square_fails_the_closed_form():
    # a gamma_1 whose square is diagonal but not scalar must not pass as
    # -eps_1 I: the table's relation check fails, and classify refuses the
    # model
    _tampered_classify(rational(-1, 2), 3)


def test_non_scalar_diagonal_square_fails_under_optimize_flag(optimized_controls):
    # the same refusal, and the three closed-form refusals of
    # tests/test_premises.py, with asserts compiled out
    assert optimized_controls["closed-forms"] == "ok"


def test_a_copy_with_other_gammas_builds_its_own_model_state():
    # a dataclasses.replace copy that keeps the variant name but whose table
    # negates gamma_1 gets D, E, X and g_i(0) built from its own gammas, and
    # the genuine model's entries are the same objects afterwards
    genuine = Context(2, 2)
    o = _osp_cached(genuine.rep)
    specs = [singular._sc_spec(genuine, i) for i in range(1, 5)]
    ctx = Context(2, 2)
    rows = ctx.rep.table.rows
    ctx.rep = replace(ctx.rep, table=clifford.BladeTable(ctx.sig, [_negated(rows[0])] + rows[1:]))
    assert ctx.rep.variant == genuine.rep.variant
    copy = _osp_cached(ctx.rep)
    D, E, X = osp_generators(ctx.rep)
    assert [(a - b).is_zero() for a, b in zip((copy.D, copy.E, copy.X), (D, E, X))] == [True] * 3
    assert not (copy.D - o.D).is_zero() and not (copy.X - o.X).is_zero()
    for i in range(1, 5):
        half_eps = qi(ctx.rep.sig.eps(i) * HALF)
        chain = (OperatorSpec.coordinate(4, 4, i, half_eps).compose(D.compose(D))
                 + OperatorSpec.derivative(4, 4, i).compose(
                     E + OperatorSpec.scalar(4, 4, qi(5 * HALF)))
                 + OperatorSpec.fiber(4, ctx.rep.gamma(i), half_eps).compose(D))
        spec = singular._sc_spec(ctx, i)
        assert (spec - chain).is_zero() and not (spec - specs[i - 1]).is_zero(), i
    assert _osp_cached(genuine.rep) is o and all(
        singular._sc_spec(genuine, i) is specs[i - 1] for i in range(1, 5))
    assert singular._closed_forms_sound(genuine, (2,))


def test_a_fresh_context_reuses_its_gamma_model(monkeypatch):
    # a second fresh Context of a model runs no closed-form check and builds
    # no g_i(0)
    lam = rational(5, 2)
    expect = classify(Context(3, 0), lam, 4).to_json()
    calls = []
    for name in ("contraction_identity_residual", "contraction_lambda_residual"):
        def spy(ctx, idx, _name=name, _build=getattr(singular, name)):
            calls.append((_name, idx))
            return _build(ctx, idx)

        monkeypatch.setattr(singular, name, spy)
    build = realization.verma_action
    for module in (realization, singular):
        monkeypatch.setattr(module, "verma_action",
                            lambda gen, *args: calls.append(gen) or build(gen, *args))
    assert classify(Context(3, 0), lam, 4).to_json() == expect
    assert calls == []


def test_classify_solves_blocks_not_whole_degrees(monkeypatch):
    # classify never runs the full-degree solve or the X D tag pass

    def refuse(*args, **kwargs):
        raise AssertionError("classify called a full-degree solver")

    monkeypatch.setattr(singular, "singular_vectors", refuse)
    monkeypatch.setattr(singular, "isotypic_split", refuse)
    monkeypatch.setattr(singular, "xd_matrix", refuse)
    solved = _spy_solve_block(monkeypatch)
    report = classify(Context(2, 2), rational(3, 2), 6)
    assert report.match
    assert solved == [(0, 0), (1, 0), (5, 5)]


def _force_fallback(monkeypatch):
    """Certify no block, so that every block solve runs the all-g_i nullspace."""
    monkeypatch.setattr(singular, "_certified", lambda ctx, lam, degree, k: False)


def test_block_solve_has_the_blocks_columns(monkeypatch):
    # at (4,0), lambda 3/2 the kept degree 5 is solved on X^5 M_0 alone:
    # 4 columns, not the 224 of the whole degree
    _force_fallback(monkeypatch)
    ctx = Context(4, 0)
    assert ctx.graded_basis(5).size == 224
    shapes = []
    solve = singular.nullspace

    def spied(m):
        shapes.append(m.cols)
        return solve(m)

    monkeypatch.setattr(singular, "nullspace", spied)
    report = classify(ctx, rational(3, 2), 5)
    assert report.match
    assert [c.label() for c in report.found] == [(0, 0, 0, 4), (1, 0, 1, 12), (5, 5, 0, 4)]
    assert shapes == [4, monogenic_dim(ctx, 1), 4]


def test_block_solve_covers_the_whole_degree_on_all_blocks(ctx_factory):
    # solving each block of a degree on its own finds the full-degree
    # kernel, split by the oracle
    for (p, q), lam_thm, degree in [((3, 0), rational(1), 3), ((2, 2), rational(3, 2), 1),
                                    ((2, 2), rational(1, 2), 3), ((2, 1), rational(5, 2), 2)]:
        ctx = ctx_factory(p, q)
        lam = lam_thm + rational(ctx.n, 2)
        pieces = _eigensplit(ctx, singular_vectors(ctx, lam, degree), degree)
        expect = [(degree, k, m, len(piece), _chirality_dims_by_rank(ctx, piece, k, m, degree))
                  for k, m, piece in pieces]
        records = [r for r in (singular._solve_block(ctx, lam, degree, k)
                               for k in range(degree + 1)) if r.dim]
        assert [c.label() + (c.chirality_dims,) for c in records] == expect, (p, q)
        assert records


def _mixed_kernel(m):
    """A nullspace stand-in: one vector on the first and the last column."""
    return [{0: QI_ONE, m.cols - 1: QI_ONE}]


@pytest.mark.parametrize("sig, degree, k, names", [
    ((2, 2), 0, 0, "X^0 M_0+, X^0 M_0-"),
], ids=["two-halves"])
def test_block_solve_rejects_a_vector_touching_two_slots(monkeypatch, sig, degree, k, names):
    _force_fallback(monkeypatch)
    monkeypatch.setattr(singular, "nullspace", _mixed_kernel)
    message = "degree %d: a kernel vector touches the blocks %s" % (degree, names)
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        singular._solve_block(Context(*sig), rational(3), degree, k)


def test_block_solve_guard_runs_under_optimize_flag():
    script = textwrap.dedent("""
        from vermaspin import singular
        from vermaspin.context import Context
        from vermaspin.exact import QI_ONE, rational

        if __debug__:
            raise SystemExit("expected python -O")
        singular._certified = lambda ctx, lam, degree, k: False
        singular.nullspace = lambda m: [{0: QI_ONE, m.cols - 1: QI_ONE}]
        singular._solve_block(Context(2, 2), rational(3), 0, 0)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "ArithmeticError: degree 0: a kernel vector touches the blocks X^0 M_0+, X^0 M_0-" \
        in proc.stderr


def _support(polys):
    return {mono for poly in polys for mono in poly.terms}


def test_certified_blocks_need_no_nullspace(monkeypatch):
    # at (4,0), lambda 3/2 every kept block is certified by g_1 alone: no
    # nullspace, no whole-degree g_i, and at degree 5 g_1 is assembled only
    # on the monomials of X^5 M_0's support.  The fallback stacks g_1..g_n
    # on its blocks (_g_on_block) and calls nullspace; the certificate reads
    # g_1 alone
    from conftest import apply_x_power

    def refuse(*args):
        raise AssertionError("a certified block reached the fallback")

    on_block = singular._g_on_block

    def g1_only(ctx, degree, k, i):
        if i != 1:
            refuse()
        return on_block(ctx, degree, k, i)

    monkeypatch.setattr(singular, "nullspace", refuse)
    monkeypatch.setattr(singular, "_g_on_block", g1_only)
    monkeypatch.setattr(singular, "special_conformal_matrices", refuse)
    restricted = []
    build = singular.assemble

    def spied(spec, degree, bases=None, monos=None):
        restricted.append((degree, monos))
        return build(spec, degree, bases, monos)

    monkeypatch.setattr(singular, "assemble", spied)
    ctx = Context(4, 0)
    report = classify(ctx, rational(3, 2), 5)
    assert [c.label() for c in report.found] == [(0, 0, 0, 4), (1, 0, 1, 12), (5, 5, 0, 4)]
    x5m0 = _support(apply_x_power(ctx, 5, el) for el in monogenic_basis(ctx, 0).elements)
    assert len(x5m0) < len(ctx.graded_basis(5).monos)
    assert restricted == [(1, _support(monogenic_basis(ctx, 1).elements))] * 2 + [(5, x5m0)] * 2
    assert ctx.rep.cache["block-certificate"] is True


def _doubled_multiples(rotations_only=False):
    """A patch for ``fresh_models``: ``singular.bracket_multiple`` with its c
    doubled, for every bracket or, ``rotations_only``, for those whose Y is
    an l_ij with i >= 2, so that the certificate's [l_1j, g_1] - c_j g_j, or
    the rotations' [l_1i, l_1j] - c_ij l_ij, is no longer zero."""
    bracket = singular.bracket_multiple

    def doubled(a, b, y, sig):
        c = bracket(a, b, y, sig)
        return c * 2 if c is not None and (not rotations_only or y[0] == "l" and y[1] > 1) \
            else c

    return singular, "bracket_multiple", doubled


def _classify_with_perturbed_g1(lam, d_max, block):
    """(classify report, nullspace column counts) at (2,2) with one entry
    added to g_1(0) V on the block (degree, k) ``block`` alone, so that
    g_1 V != 0 there."""
    saved = singular._g1_on_block, singular.nullspace
    shapes = []

    def perturbed(ctx, degree, k):
        base, slope = saved[0](ctx, degree, k)
        if (degree, k) == block:
            base = base + SparseMatrix.from_entries(base.rows, base.cols, [(0, 0, QI_ONE)])
        return base, slope

    def spied(m):
        shapes.append(m.cols)
        return saved[1](m)

    singular._g1_on_block, singular.nullspace = perturbed, spied
    try:
        return classify(Context(2, 2), lam, d_max), shapes
    finally:
        singular._g1_on_block, singular.nullspace = saved


def test_g1_off_on_one_block_falls_back_on_that_block_only():
    # g_1 V != 0 on X^5 M_0 alone: its 4 columns go to nullspace, which finds
    # the block singular after all, and M_1 stays certified
    lam = rational(3, 2)
    report, shapes = _classify_with_perturbed_g1(lam, 5, (5, 5))
    assert shapes == [4]
    assert report.to_json() == _classify_unfiltered(Context(2, 2), lam, 5).to_json()
    assert [c.label() for c in report.found] == [(0, 0, 0, 4), (1, 0, 1, 12), (5, 5, 0, 4)]


def test_certificate_fallbacks_run_under_optimize_flag(optimized_controls):
    # the perturbed-g_1 block and classify's refusal of a broken block
    # certificate, with asserts compiled out
    assert optimized_controls["block-certificate"] == "ok"


def _check_refusals(ctx, idx, part):
    """Every closed-form check that holds ``idx`` refuses the model, naming
    the signature and ``part`` of C_idx, and every other check passes."""
    what = re.escape(singular._CLOSED_FORMS[idx][part])
    for idxs in ((1,), (2,), (3,), (1, 3), (2, 1, 3)):
        if idx in idxs:
            refused(lambda: singular._closed_forms_sound(ctx, idxs),
                     r"signature \(%d,%d\): %s leaves \d+ terms" % (ctx.sig.p, ctx.sig.q, what))
        else:
            assert singular._closed_forms_sound(ctx, idxs) is True, (ctx.sig, idxs)


@pytest.mark.parametrize("idx", [1, 2, 3])
def test_closed_form_check_catches_a_wrong_lambda_slope(monkeypatch, ctx_factory, idx):
    # a wrong slope for C_idx alone fails the check of exactly the sets that
    # hold idx; classify at (3,0), lambda 5/2 needs C2 and, at degree 4, C1
    # and C3, so it refuses the model in each case
    ctx = ctx_factory(2, 1)
    for i in (1, 2, 3):
        assert contraction_lambda_residual(ctx, i).is_zero()
    entry = realization._CONTRACTIONS[idx]
    monkeypatch.setitem(realization._CONTRACTIONS, idx,
                        entry._replace(slope=lambda o: entry.slope(o).scale(2)))
    monkeypatch.setattr(clifford, "_MODELS", clifford.Memo())
    for sig in ((2, 1), (3, 0)):
        ctx = Context(*sig)
        assert contraction_identity_residual(ctx, idx).is_zero()
        assert not contraction_lambda_residual(ctx, idx).is_zero()
        _check_refusals(ctx, idx, 1)
    with pytest.raises(ArithmeticError, match=r"^signature \(3,0\): lambda part of C%d" % idx):
        classify(Context(3, 0), rational(5, 2), 4)


def _closed_form_at_zero_chain(idx, rep):
    """C_idx(0) composed and summed one product at a time, then merged, as
    the closed forms were built before they became product pairs."""
    o = _osp_cached(rep)
    n, dim = rep.n, rep.spinor_dim

    def shifted(c):
        return o.E + OperatorSpec.scalar(n, dim, qi(c))

    if idx == 1:
        spec = shifted(3 * HALF).compose(o.D) + o.X.compose(o.DD).scale(HALF)
    elif idx == 2:
        spec = (o.XX.compose(o.DD).scale(-HALF) + o.XD.scale(HALF)
                + shifted((n + 1) * HALF).compose(o.E))
    else:
        spec = shifted(4).compose(o.DD).scale(-HALF)
    return spec.combined()


def _residuals_three_step(ctx, idx, lam):
    """Defining sum at ``lam`` minus C(0), and the slope residual, each
    merged on its own and subtracted with one more merge."""
    n, dim = ctx.n, ctx.spinor_dim
    g = {j: verma_action(("g", j), lam, ctx.rep) for j in range(1, n + 1)}
    identity = (contraction_sum(idx, ctx.rep, g.get)
                - _closed_form_at_zero_chain(idx, ctx.rep)).combined()
    slope = (contraction_sum(idx, ctx.rep, lambda j: OperatorSpec.derivative(n, dim, j, qi(-1)))
             - contraction_slope(idx, ctx.rep)).combined()
    return identity, slope


@pytest.mark.parametrize("n", [3, 4, 5])
def test_one_stream_residuals_match_the_three_step_form(ctx_factory, n):
    # lambda 0 is the checked residual, which is zero; at lambda -5/3 the
    # defining sum less C(0) is lambda times the slope, a nonzero residual
    for p in range(n, -1, -1):
        ctx = ctx_factory(p, n - p)
        lam = rational(-5, 3)
        g = {j: verma_action(("g", j), lam, ctx.rep) for j in range(1, n + 1)}
        for idx in (1, 2, 3):
            old_identity, old_slope = _residuals_three_step(ctx, idx, rational(0))
            new_identity = contraction_identity_residual(ctx, idx)
            new_slope = contraction_lambda_residual(ctx, idx)
            assert (new_identity - old_identity).is_zero(), ((p, n - p), idx)
            assert (new_slope - old_slope).is_zero(), ((p, n - p), idx)
            assert new_identity.is_zero() and new_slope.is_zero()
            old_at_lam, _ = _residuals_three_step(ctx, idx, lam)
            new_at_lam = contraction_sum(idx, ctx.rep, g.get,
                                         realization.contraction_at_zero(idx, ctx.rep))
            assert (new_at_lam - old_at_lam).is_zero(), ((p, n - p), idx)
            assert not new_at_lam.is_zero()


@pytest.mark.parametrize("idx", [1, 2, 3])
def test_closed_form_check_catches_a_wrong_closed_form_at_zero(monkeypatch, idx):
    # C_idx(0) off by the scalar 1 fails the check of exactly the sets that hold idx
    _break_closed_form(monkeypatch, idx)
    for sig in ((2, 1), (3, 0), (2, 2)):
        ctx = Context(*sig)
        assert not contraction_identity_residual(ctx, idx).is_zero()
        assert contraction_lambda_residual(ctx, idx).is_zero()
        _check_refusals(ctx, idx, 0)


@pytest.mark.parametrize("sig", [(3, 0), (2, 2), (3, 2)])
def test_c2_check_merges_once_per_product_sum(monkeypatch, sig):
    # with D, E, X and their products stored, the C2 check of a fresh gamma
    # model merges n times for the g_j(0), once for the identity residual and
    # once for the slope residual; is_zero merges nothing
    monkeypatch.setattr(clifford, "_MODELS", clifford.Memo())
    ctx = Context(*sig)
    o = _osp_cached(ctx.rep)
    assert all(spec.terms for spec in (o.DD, o.XX, o.XD))
    calls = []
    merged = polyspinor._merged

    def counted(*args):
        calls.append(args[:3])
        return merged(*args)

    monkeypatch.setattr(polyspinor, "_merged", counted)
    assert singular._closed_forms_sound(ctx, (2,))
    assert len(calls) == ctx.n + 2


def _special_twists(n):
    """Twists of the twistor and Dirac-power cases of the case table, and a
    few generic ones near them."""
    twists = {rational(2 * m + 1, 2) for m in range(1, 6)}          # lam - 1/2 natural
    twists |= {rational(2 * k - n + 1, 2) for k in range(1, 9)}     # lam + n/2 - 1/2 natural
    twists |= {t + rational(1, 3) for t in list(twists)}
    twists |= {rational(num, den) for den in (1, 2, 5) for num in range(-6 * den, 6 * den + 1)}
    return sorted(twists)


def test_integer_prefilter_matches_the_exact_scalars():
    from test_realization import contraction_eigenvalue

    cases = set()
    for n in range(3, 9):
        for lam_thm in _special_twists(n):
            cases.add(predicted_components(lam_thm, n, 8)[0])
            lam_real = lam_thm + rational(n, 2)
            for d in range(9):
                for idxs in ((2,), (2, 1, 3), (1, 3)):
                    expect = [k for k in range(d + 1) if all(
                        not contraction_eigenvalue(i, k, d - k, lam_real, n) for i in idxs)]
                    assert singular._zero_blocks(lam_real, d, n, idxs) == expect, \
                        (n, str(lam_thm), d, idxs)
    assert cases == {"generic", "twistor", "dirac-power", "both"}


def test_sharp_prefilter_keeps_exactly_the_predicted_degrees():
    # scalars only: the degrees where some block has C1, C2 and C3 all zero
    # are the degrees of the case table; C2 alone keeps more of them, with
    # at most one zero block per degree
    wider = 0
    for n in range(3, 9):
        for den in (1, 2, 3, 4, 5, 7):
            for num in range(-40, 41):
                lam_thm = rational(num, den)
                lam_real = lam_thm + rational(n, 2)
                _, checkable, _ = predicted_components(lam_thm, n, 10)
                kept = [d for d in range(11)
                        if singular._zero_blocks(lam_real, d, n, (2, 1, 3))]
                assert kept == sorted({d for d, _, _ in checkable}), (n, str(lam_thm))
                c2 = [singular._zero_blocks(lam_real, d, n, (2,)) for d in range(11)]
                assert all(len(ks) <= 1 for ks in c2), (n, str(lam_thm))
                wider += kept != [d for d, ks in enumerate(c2) if ks]
    assert wider > 0


def test_classify_never_calls_the_certificate(monkeypatch):
    from vermaspin import exact

    def refuse(m):
        raise AssertionError("certificate called on a %dx%d system" % (m.rows, m.cols))

    monkeypatch.setattr(exact, "kernel_is_trivial_hint", refuse)
    report = classify(Context(4, 0), rational(3, 2), 6)
    assert report.match
    assert sorted(c.label()[:3] for c in report.found) == [(0, 0, 0), (1, 0, 1), (5, 5, 0)]
