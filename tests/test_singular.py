import pytest

from vermaspin.exact import (
    SparseMatrix, QI_ONE, QI_ZERO, qi, rational, express_in_span, nullspace, _canonical_basis)
from vermaspin.polyspinor import SpinorPoly, assemble
from vermaspin.realization import verma_action, invariant_contractions
from vermaspin.fischer import monogenic_basis, monogenic_dim, apply_x_power
from vermaspin.singular import (
    _combine,
    singular_vectors,
    special_conformal_matrices,
    isotypic_split,
    label_isotypic,
    predicted_components,
    classify,
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
            for coeffs in nullspace(restricted, modular_shortcut=False)
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
