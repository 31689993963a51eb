import pytest

from vermaspin.exact import SparseMatrix, qi, rational, QI_ONE
from vermaspin.clifford import (
    Signature,
    CliffordElement,
    blade_product,
    build_gamma_rep,
    so_generator,
    chirality_split,
)
from vermaspin.realization import structure_constants


def unit(n, *indices):
    return CliffordElement.blade(n, indices)


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(1, 1)
    with pytest.raises(ValueError):
        Signature(-1, 5)
    assert Signature(2, 1).eps(1) == 1 and Signature(2, 1).eps(3) == -1


def test_blade_square_convention():
    sig = Signature(3, 0)
    sq = blade_product(unit(3, 1), unit(3, 1), sig)
    assert sq == CliffordElement.scalar(3, qi(-1))
    sig_mixed = Signature(1, 2)
    assert blade_product(unit(3, 2), unit(3, 2), sig_mixed) == CliffordElement.scalar(3, qi(1))


def test_blade_anticommutation():
    sig = Signature(3, 0)
    e12 = blade_product(unit(3, 1), unit(3, 2), sig)
    e21 = blade_product(unit(3, 2), unit(3, 1), sig)
    assert e12 == unit(3, 1, 2)
    assert e21 == unit(3, 1, 2).scale(-1)


def test_blade_product_expansion():
    # (e1 + e2)(e1 - e2) = -2 e12 in signature (2, 0)... with n >= 3 ambient
    sig = Signature(2, 1)
    a = unit(3, 1) + unit(3, 2)
    b = unit(3, 1) - unit(3, 2)
    assert blade_product(a, b, sig) == unit(3, 1, 2).scale(-2)


def test_blade_associativity():
    sig = Signature(2, 2)
    elems = [unit(4, 1), unit(4, 2, 3), unit(4, 1, 4), CliffordElement.scalar(4, qi(2, 1))]
    for a in elems:
        for b in elems:
            for c in elems:
                left = blade_product(blade_product(a, b, sig), c, sig)
                right = blade_product(a, blade_product(b, c, sig), sig)
                assert left == right


def test_blade_index_range():
    with pytest.raises(IndexError):
        CliffordElement.generator(3, 4)
    with pytest.raises(IndexError):
        blade_product(unit(4, 4), unit(4, 1), Signature(3, 0))


def all_signatures(n):
    return [(p, n - p) for p in range(n + 1)]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_gamma_defining_relations(n):
    for p, q in all_signatures(n):
        rep = build_gamma_rep(Signature(p, q))
        N = rep.spinor_dim
        assert N == 1 << (n // 2)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                anti = rep.gamma(i) @ rep.gamma(j) + rep.gamma(j) @ rep.gamma(i)
                if i == j:
                    assert anti == SparseMatrix.identity(N, qi(-2 * rep.sig.eps(i)))
                else:
                    assert anti.is_zero()
        for g in rep.gammas:
            for _, _, v in g.entries():
                assert v in (qi(1), qi(-1), qi(0, 1), qi(0, -1))


def test_gamma_n3_shapes():
    rep = build_gamma_rep(Signature(3, 0))
    assert all(g.rows == 2 for g in rep.gammas)
    rep12 = build_gamma_rep(Signature(1, 2))
    eye = SparseMatrix.identity(2)
    assert rep12.gamma(1) @ rep12.gamma(1) == eye.scale(-1)
    assert rep12.gamma(2) @ rep12.gamma(2) == eye
    assert rep12.gamma(3) @ rep12.gamma(3) == eye


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_blade_gamma_homomorphism_low_degree(n):
    sig = Signature(n - 1, 1)
    rep = build_gamma_rep(sig)
    blades = [0] + [1 << i for i in range(n)] + [
        (1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
    for b1 in blades:
        for b2 in blades:
            prod = blade_product(CliffordElement(n, {b1: QI_ONE}),
                                 CliffordElement(n, {b2: QI_ONE}), sig)
            assert rep.element_matrix(prod) == rep.blade_matrix(b1) @ rep.blade_matrix(b2)


def test_so_generator_diagonal_vanishes():
    rep = build_gamma_rep(Signature(2, 1))
    for i in (1, 2, 3):
        assert so_generator(i, i, rep).is_zero()


def test_so_generator_commutators_close():
    # [sigma(A), sigma(B)] must match the bracket of the abstract rotations
    sig = Signature(2, 2)
    rep = build_gamma_rep(sig)
    sc = structure_constants(sig)
    pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    mats = {(i, j): so_generator(i, j, rep) for i, j in pairs}
    for a in pairs:
        for b in pairs:
            comm = mats[a] @ mats[b] - mats[b] @ mats[a]
            expect = SparseMatrix.zero(rep.spinor_dim, rep.spinor_dim)
            for gen, c in sc.bracket(("l",) + a, ("l",) + b):
                assert gen[0] == "l"
                expect = expect + mats[(gen[1], gen[2])].scale(c)
            assert comm == expect


def test_chirality_split():
    rep = build_gamma_rep(Signature(4, 0))
    ch = chirality_split(rep)
    eye = SparseMatrix.identity(4)
    assert ch.volume @ ch.volume == eye
    assert ch.plus + ch.minus == eye
    assert ch.plus @ ch.plus == ch.plus
    assert (ch.plus @ ch.minus).is_zero()
    assert rank_of(ch.plus) == 2 and rank_of(ch.minus) == 2
    # rotation generators commute with the projectors
    for i in range(1, 5):
        for j in range(i + 1, 5):
            g = so_generator(i, j, rep)
            assert g @ ch.plus == ch.plus @ g
    with pytest.raises(ValueError):
        chirality_split(build_gamma_rep(Signature(3, 0)))


def test_chirality_index_set_every_even_signature():
    # both gamma models have a diagonal +-1 volume element at n = 4, 6, 8,
    # so each half is spanned by fiber basis vectors
    for n in (4, 6, 8):
        for p in range(n + 1):
            for variant in ("standard", "alt"):
                ch = chirality_split(build_gamma_rep(Signature(p, n - p), variant=variant))
                assert len(ch.plus_index) == 2 ** (n // 2 - 1)
                for r in range(2 ** (n // 2)):
                    sign = QI_ONE if ch.half(r) == "+" else -QI_ONE
                    assert ch.volume.data[r] == {r: sign}


def test_chirality_split_rejects_non_diagonal_volume():
    class StubRep:
        # G_1 = diag(1, -1), G_2 = [[0, 1], [1, 0]]: G_1 G_2 squares to -I
        n, spinor_dim, variant = 2, 2, "stub"
        gammas = [SparseMatrix.from_dense([[qi(1), qi(0)], [qi(0), qi(-1)]]),
                  SparseMatrix.from_dense([[qi(0), qi(1)], [qi(1), qi(0)]])]

    with pytest.raises(ValueError, match="not diagonal"):
        chirality_split(StubRep())


def rank_of(m):
    from vermaspin.exact import rank
    return rank(m)


def test_two_constructions_differ_but_both_work():
    r1 = build_gamma_rep(Signature(4, 0))
    r2 = build_gamma_rep(Signature(4, 0), variant="alt")
    assert any(r1.gamma(i) != r2.gamma(i) for i in range(1, 5))
    N = r2.spinor_dim
    for i in range(1, 5):
        for j in range(i, 5):
            anti = r2.gamma(i) @ r2.gamma(j) + r2.gamma(j) @ r2.gamma(i)
            if i == j:
                assert anti == SparseMatrix.identity(N, qi(-2))
            else:
                assert anti.is_zero()
