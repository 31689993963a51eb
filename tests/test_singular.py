import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from vermaspin import singular
from vermaspin.context import Context
from vermaspin.exact import (
    SparseMatrix, QI_ONE, QI_ZERO, qi, rational, rank, express_in_span, nullspace,
    _canonical_basis)
from vermaspin.polyspinor import OperatorSpec, SpinorPoly, assemble
from vermaspin.realization import verma_action, invariant_contractions
from vermaspin.fischer import monogenic_basis, monogenic_dim, apply_x_power, dirac_matrix
from vermaspin.singular import (
    ClassificationReport,
    ComponentRecord,
    _chirality_dims,
    _combine,
    singular_vectors,
    special_conformal_matrices,
    isotypic_split,
    label_isotypic,
    predicted_components,
    classify,
    contraction_identity_residual,
    contraction_lambda_residual,
    scan,
    xd_eigenvalue,
)

HALF = rational(1, 2)


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
            for coeffs in nullspace(restricted)
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
    ctx = ctx_factory(3, 0)
    v = SpinorPoly.constant(3, 2, 0)
    mixed = apply_x_power(ctx, 2, v) + monogenic_basis(ctx, 2).elements[0]
    with pytest.raises(ValueError, match="not isotypic"):
        label_isotypic(ctx, mixed)


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
    vecs = [basis.coordinates(sv) for sv in svs]
    for i in range(1, 4):
        for j in range(i + 1, 4):
            rot = assemble(verma_action(("l", i, j), lam, ctx.rep), 1,
                           ctx.graded_basis).matrix
            images = [rot.mul_vec(v) for v in vecs]
            assert express_in_span(vecs, images, basis.size) is not None


def test_solution_space_inside_contraction_kernels(ctx_factory):
    # solutions annihilate all three invariant contractions, and conversely
    # every contraction-kernel component surviving the case analysis is a
    # genuine solution
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
            from vermaspin.realization import contraction_eigenvalue
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
    """Oracle: classify with every degree solved, no contraction prefilter."""
    lam_thm = rational(lam_thm)
    case, checkable, uncheckable = predicted_components(lam_thm, ctx.n, d_max)
    predicted = [(d, k, m, monogenic_dim(ctx, m)) for d, k, m in checkable]
    found = []
    for degree in range(d_max + 1):
        polys = singular_vectors(ctx, lam_thm + rational(ctx.n, 2), degree)
        for k, m, piece in isotypic_split(ctx, polys, degree):
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


@pytest.mark.parametrize("n", [3, 4, 5])
def test_classify_matches_unfiltered_oracle(ctx_factory, n):
    for p in range(n + 1):
        ctx = ctx_factory(p, n - p)
        for twist in _ORACLE_TWISTS[n] + _GENERIC:
            expect = _classify_unfiltered(ctx, twist, 4).to_json()
            assert classify(ctx, twist, 4).to_json() == expect, ((p, n - p), str(twist))


def test_prefilter_keeps_a_degree_with_empty_kernel(ctx_factory):
    # at (3,0), lambda 5/2, C2 has a zero block at degree 4 but nothing there
    # is singular: the filter keeps the degree and the solver finds it empty
    ctx = ctx_factory(3, 0)
    lam_real = rational(5, 2) + rational(3, 2)
    kept = [d for d in range(5) if singular._c2_has_zero_block(lam_real, d, 3)]
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


def test_prefilter_falls_back_when_identity_fails(monkeypatch):
    lam = rational(5, 2)
    solved = []
    solve = singular.singular_vectors

    def counted(ctx, lam, degree):
        solved.append(degree)
        return solve(ctx, lam, degree)

    monkeypatch.setattr(singular, "singular_vectors", counted)
    expect = classify(Context(3, 0), lam, 4).to_json()
    assert solved == [0, 2]

    closed = singular.coordinate_contraction
    monkeypatch.setattr(singular, "coordinate_contraction", lambda lam, rep: closed(lam, rep)
                        + OperatorSpec.scalar(rep.n, rep.spinor_dim, 1))
    ctx = Context(3, 0)
    assert contraction_identity_residual(ctx).terms
    solved.clear()
    assert classify(ctx, lam, 4).to_json() == expect
    assert solved == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("closed_form", ["clifford_contraction", "derivative_contraction"])
def test_prefilter_falls_back_to_c2_when_c1_or_c3_identity_fails(monkeypatch, closed_form):
    # a wrong C1 or C3 closed form leaves the C2 skips standing: degree 4 at
    # (3,0), lambda 5/2 is kept by C2 and solved again, with the same report
    lam = rational(5, 2)
    expect = classify(Context(3, 0), lam, 4).to_json()
    solved = []
    solve = singular.singular_vectors

    def counted(ctx, lam, degree):
        solved.append(degree)
        return solve(ctx, lam, degree)

    monkeypatch.setattr(singular, "singular_vectors", counted)
    closed = getattr(singular, closed_form)
    monkeypatch.setattr(singular, closed_form, lambda lam, rep: closed(lam, rep)
                        + OperatorSpec.scalar(rep.n, rep.spinor_dim, 1))
    ctx = Context(3, 0)
    idx = 1 if closed_form == "clifford_contraction" else 3
    assert not contraction_identity_residual(ctx, idx).is_zero()
    assert classify(ctx, lam, 4).to_json() == expect
    assert solved == [0, 2, 4]


def test_lambda_residuals_catch_a_wrong_lambda_coefficient(monkeypatch, ctx_factory):
    ctx = ctx_factory(2, 1)
    for idx in (1, 3):
        assert contraction_lambda_residual(ctx, idx).is_zero()
    D = singular._osp_cached(ctx.rep)[0]
    monkeypatch.setattr(singular, "_osp_cached", lambda rep: (D.scale(2),) + (None, None))
    for idx in (1, 3):
        assert not contraction_lambda_residual(Context(2, 1), idx).is_zero()
    ctx = Context(2, 1)
    assert not singular._closed_forms_sound(ctx, (1, 3))
    assert singular._closed_forms_sound(ctx, (2,))


def test_sharp_prefilter_keeps_exactly_the_predicted_degrees():
    # scalars only: the degrees where some block has C1, C2 and C3 all zero
    # are the degrees of the case table; C2 alone keeps more of them
    wider = 0
    for n in range(3, 9):
        for den in (1, 2, 3, 4, 5, 7):
            for num in range(-40, 41):
                lam_thm = rational(num, den)
                lam_real = lam_thm + rational(n, 2)
                _, checkable, _ = predicted_components(lam_thm, n, 10)
                kept = [d for d in range(11)
                        if singular._zero_block(lam_real, d, n, (2, 1, 3))]
                assert kept == sorted({d for d, _, _ in checkable}), (n, str(lam_thm))
                wider += kept != [d for d in range(11)
                                  if singular._c2_has_zero_block(lam_real, d, n)]
    assert wider > 0


def test_classify_never_calls_the_certificate(monkeypatch):
    from vermaspin import exact

    def refuse(m):
        raise AssertionError("certificate called on a %dx%d system" % (m.rows, m.cols))

    monkeypatch.setattr(exact, "kernel_is_trivial_hint", refuse)
    report = classify(Context(4, 0), rational(3, 2), 6)
    assert report.match
    assert sorted(c.label()[:3] for c in report.found) == [(0, 0, 0), (1, 0, 1), (5, 5, 0)]
