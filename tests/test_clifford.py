import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from functools import reduce
from operator import matmul
from pathlib import Path

import pytest

from vermaspin import cli, clifford
from vermaspin.exact import SparseMatrix, qi, rational, QI_ONE
from vermaspin.clifford import (
    Signature,
    BladeMatrix,
    BladeTable,
    build_gamma_rep,
    so_generator,
    chirality_split,
)
from vermaspin.realization import dual_fiber, spinor_fiber, structure_constants


def _ordered_product(rep, mask):
    """The ordered product of the gammas in the blade by plain ``@``."""
    return reduce(matmul, [g for i, g in enumerate(rep.gammas) if mask >> i & 1],
                  SparseMatrix.identity(rep.spinor_dim))


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(1, 1)
    with pytest.raises(ValueError):
        Signature(-1, 5)
    assert Signature(2, 1).eps(1) == 1 and Signature(2, 1).eps(3) == -1


def test_blade_square_convention():
    # G_i G_i = -eps_i I: the table gives the empty blade times -eps_i
    for p, q in ((3, 0), (1, 2)):
        rep = build_gamma_rep(Signature(p, q))
        for i in range(rep.n):
            eps = rep.sig.eps(i + 1)
            assert rep.table.product(1 << i, 1 << i) == (0, -eps)
            assert rep.gamma(i + 1) @ rep.gamma(i + 1) \
                == SparseMatrix.identity(rep.spinor_dim, qi(-eps))


def test_blade_anticommutation():
    # G_1 G_2 = -G_2 G_1 on the table; at n = 3 both products are stored by
    # the complement of e_12, a unit times G_3
    rep = build_gamma_rep(Signature(3, 0))
    table, g1, g2 = rep.table, rep.gamma(1), rep.gamma(2)
    (m12, s12), (m21, s21) = table.product(1, 2), table.product(2, 1)
    assert m12 == m21 == 4 and s21 == -s12
    assert table.blade(m12).scale(s12) == g1 @ g2 == -(g2 @ g1) == _ordered_product(rep, 3)


def test_blade_associativity():
    # (Gamma_a Gamma_b) Gamma_c = Gamma_a (Gamma_b Gamma_c) for every triple of
    # blades, read off the table; odd n stores high blades by their complement
    for p, q in ((2, 2), (3, 2)):
        rep = build_gamma_rep(Signature(p, q))
        table, full = rep.table, 1 << rep.n

        def times(x, y):
            mask, s = table.product(x[0], y[0])
            return mask, x[1] * y[1] * s

        plain = [_ordered_product(rep, mask) for mask in range(full)]
        for a in range(full):
            for b in range(full):
                ab = times((a, 1), (b, 1))
                pair = plain[a] @ plain[b]
                for c in range(full):
                    left = times(ab, (c, 1))
                    assert left == times((a, 1), times((b, 1), (c, 1))), (p, q, a, b, c)
                    assert table.blade(left[0]).scale(left[1]) == pair @ plain[c], (p, q, a, b, c)


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
    rep = build_gamma_rep(Signature(n - 1, 1))
    blades = [0] + [1 << i for i in range(n)] + [
        (1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
    plain = {b: _ordered_product(rep, b) for b in blades}
    for b1 in blades:
        for b2 in blades:
            mask, s = rep.table.product(b1, b2)
            assert rep.table.blade(mask).scale(s) == plain[b1] @ plain[b2], (b1, b2)


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


def half_projectors(ch):
    """(I + volume)/2 and (I - volume)/2, the projectors onto the two halves."""
    eye = SparseMatrix.identity(ch.volume.rows)
    half = qi(rational(1, 2))
    return (eye + ch.volume).scale(half), (eye - ch.volume).scale(half)


def test_chirality_split():
    rep = build_gamma_rep(Signature(4, 0))
    ch = chirality_split(rep)
    eye = SparseMatrix.identity(4)
    plus, minus = half_projectors(ch)
    assert ch.volume @ ch.volume == eye
    assert plus + minus == eye
    assert plus @ plus == plus
    assert (plus @ minus).is_zero()
    assert rank_of(plus) == 2 and rank_of(minus) == 2
    # the + projector fixes exactly the fiber basis vectors of plus_index
    assert {r for r in range(4) if plus.get(r, r) == QI_ONE} == ch.plus_index
    # rotation generators commute with the projectors
    for i in range(1, 5):
        for j in range(i + 1, 5):
            g = so_generator(i, j, rep)
            assert g @ plus == plus @ g
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
    # a table with G_2 = G_3 = G_1: the volume G_1 G_1 G_1 G_4 = -G_1 G_4
    # is not diagonal
    rep = build_gamma_rep(Signature(4, 0))
    rows = rep.table.rows
    stub = replace(rep, variant="stub", table=BladeTable(rep.sig, [rows[0]] * 3 + [rows[3]]))
    with pytest.raises(ValueError, match="the volume element of the stub gamma model at n = 4 "
                                         "is not diagonal"):
        chirality_split(stub)


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


# -- oracle: the GaussianRational Kronecker recursion the tables replaced ---

_P1 = ((qi(0), qi(1)), (qi(1), qi(0)))
_P2 = ((qi(0), qi(0, -1)), (qi(0, 1), qi(0)))
_P3 = ((qi(1), qi(0)), (qi(0), qi(-1)))
_I2 = ((qi(1), qi(0)), (qi(0), qi(1)))


def _recursive_kron(mats):
    dim = 1 << len(mats)
    entries = []

    def rec(r, c, coeff, k):
        if not coeff:
            return
        if k == len(mats):
            entries.append((r, c, coeff))
            return
        m = mats[k]
        for i in range(2):
            for j in range(2):
                v = m[i][j]
                if v:
                    rec(r * 2 + i, c * 2 + j, coeff * v, k + 1)

    rec(0, 0, QI_ONE, 0)
    return SparseMatrix.from_entries(dim, dim, entries)


def _recursive_gammas(sig, variant):
    n, m = sig.n, sig.n // 2
    i_s1 = tuple(tuple(v * qi(0, 1) for v in row) for row in _P1)
    i_s2 = tuple(tuple(v * qi(0, 1) for v in row) for row in _P2)
    gammas = []
    for k in range(1, m + 1):
        if variant == "standard":
            pre, post = [_P3] * (k - 1), [_I2] * (m - k)
            first, second = i_s1, i_s2
        else:
            pre, post = [_I2] * (k - 1), [_P3] * (m - k)
            first, second = i_s2, i_s1
        gammas.append(_recursive_kron(pre + [first] + post))
        gammas.append(_recursive_kron(pre + [second] + post))
    if n % 2 == 1:
        prod = SparseMatrix.identity(1 << m)
        for g in gammas:
            prod = prod @ g
        if prod @ prod == SparseMatrix.identity(1 << m):
            prod = prod.scale(qi(0, 1))
        gammas.append(prod)
    return [g.scale(qi(0, 1)) if sig.eps(i + 1) < 0 else g for i, g in enumerate(gammas)]


@pytest.mark.parametrize("n", range(3, 13))
def test_gamma_tables_match_the_gaussian_rational_recursion(n):
    # every signature and both constructions: 170 models for n = 3..12
    for p, q in all_signatures(n):
        for variant in ("standard", "alt"):
            sig = Signature(p, q)
            got = build_gamma_rep(sig, variant).gammas
            expect = _recursive_gammas(sig, variant)
            assert [(g.rows, g.cols, g.den, g.num) for g in got] \
                == [(g.rows, g.cols, g.den, g.num) for g in expect], (p, q, variant)


def test_gamma_build_multiplies_no_gaussian_rational(monkeypatch):
    from vermaspin.exact import GaussianRational
    calls = []
    mul = GaussianRational.__mul__

    def spy(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(GaussianRational, "__mul__", spy)
    rep = build_gamma_rep(Signature(16, 0))
    assert len(rep.gammas) == 16 and rep.spinor_dim == 256
    assert calls == []


def test_unknown_gamma_construction_rejected():
    with pytest.raises(ValueError, match="unknown gamma construction 'other'"):
        build_gamma_rep(Signature(3, 0), variant="other")


# -- the blade table against plain matrix products ---------------------------


def _check_table_against_matrix_products(p, q, variant):
    """Assert that every blade of the model's table, and the table's product
    of every pair of blades, equals the plain ``@`` product of the gammas."""
    rep = build_gamma_rep(Signature(p, q), variant)
    table, n = rep.table, rep.n
    blades = {mask: _ordered_product(rep, mask) for mask in range(1 << n)}
    for mask, mat in blades.items():
        assert table.blade(mask) == mat, mask
    for a in range(1 << n):
        for b in range(1 << n):
            mask, s = table.product(a, b)
            assert s in (1, -1, qi(0, 1), qi(0, -1))
            assert table.blade(mask).scale(s) == blades[a] @ blades[b], (a, b)
            # odd n stores a blade of more than n/2 generators by its complement
            blade = a ^ b
            if n % 2 and 2 * bin(blade).count("1") > n:
                assert mask == blade ^ ((1 << n) - 1), (a, b)
            else:
                assert mask == blade, (a, b)


@pytest.mark.parametrize("variant", ["standard", "alt"])
@pytest.mark.parametrize("p,q", [(3, 0), (2, 1), (2, 2), (3, 2), (4, 0)])
def test_blade_table_products_match_matrix_products(p, q, variant):
    _check_table_against_matrix_products(p, q, variant)


def test_a_flipped_blade_sign_fails_both_product_oracles(monkeypatch):
    # with the sign of Gamma_1 Gamma_2 flipped in _blade_mul, a fresh (2,2)
    # model's table disagrees with the plain products, and both the
    # selftest's blade check and the comparison above say so
    blade_mul = clifford._blade_mul

    def flipped(a, b, eps):
        sign, mask = blade_mul(a, b, eps)
        return (-sign if (a, b) == (1, 2) else sign), mask

    monkeypatch.setattr(clifford, "_MODELS", clifford.Memo())
    monkeypatch.setattr(clifford, "_blade_mul", flipped)
    check = dict(cli._selftest_checks())["blade/gamma homomorphism"]
    with pytest.raises(AssertionError, match=r"signature \(2,2\): blades \d+ \* \d+"):
        check()
    with pytest.raises(AssertionError):
        _check_table_against_matrix_products(2, 2, "standard")


@pytest.mark.parametrize("p,q", [(2, 2), (3, 2), (2, 1)])
def test_blade_labels_survive_scale_and_transpose(p, q):
    # a labelled matrix x equals scalar * Gamma_mask after scale and transpose
    rep = build_gamma_rep(Signature(p, q), "alt")
    table, n = rep.table, rep.n
    mats = [table.blade(table.product(0, mask)[0]) for mask in range(1, 1 << n)]
    mats += [so_generator(i, j, rep) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    for x in mats:
        for y in (x, x.scale(qi(rational(-3, 2), 1)), x.transpose(), x.transpose().scale(-1),
                  x.scale(qi(0, 1)).transpose(), -x):
            assert y.__class__ is BladeMatrix and y.table is table
            assert y == table.blade(y.mask).scale(y.scalar)
            assert y.transpose().transpose() == y
    assert so_generator(1, 1, rep).is_zero()
    # any other operation gives a plain matrix
    g1, g2 = rep.gamma(1), rep.gamma(2)
    for y in (g1 + g2, g1 @ g2, g1 - g1.scale(2), g1.scale(0)):
        assert y.__class__ is SparseMatrix


def _flipped_table(sig, generator, row):
    """The standard model's tables with one entry of one gamma negated."""
    rows = list(build_gamma_rep(sig).table.rows)
    rows[generator] = tuple((c, (e + 2) & 3 if r == row else e)
                            for r, (c, e) in enumerate(rows[generator]))
    return BladeTable(sig, rows)


_euclidean_gammas = clifford._euclidean_gammas


def _conjugated_gammas(n, variant):
    """``clifford._euclidean_gammas`` conjugated by P = diag(1, i, 1, ..., 1):
    the Clifford relations hold, but for n >= 4 the entry pairs of G_1 at
    (0, 2) and (1, 3) become one symmetric and one antisymmetric, so G_1 is
    neither symmetric nor antisymmetric."""
    out = []
    for rows in _euclidean_gammas(n, variant):
        phase = [0, 1] + [0] * (len(rows) - 2)
        out.append(tuple((c, (e + phase[r] - phase[c]) & 3) for r, (c, e) in enumerate(rows)))
    return out


@pytest.mark.parametrize("p,q,generator,row", [(3, 0, 0, 0), (2, 2, 2, 3), (3, 2, 4, 1)])
def test_flipped_gamma_sign_fails_the_relation_check(p, q, generator, row):
    # one negated entry breaks a relation: reading a product raises, naming a pair
    table = _flipped_table(Signature(p, q), generator, row)
    with pytest.raises(ArithmeticError, match=r"signature \(%d,%d\): G_\d G_\d" % (p, q)):
        table.product(1, 2)
    with pytest.raises(ArithmeticError):
        table.check()


def test_flipped_gamma_sign_fails_under_optimize_flag():
    script = textwrap.dedent("""
        import runpy
        import sys

        from vermaspin.clifford import Signature

        if __debug__:
            raise SystemExit("expected python -O")
        ns = runpy.run_path(sys.argv[1])
        try:
            ns["_flipped_table"](Signature(2, 2), 2, 3).product(1, 2)
        except ArithmeticError as exc:
            print(exc)
        else:
            raise SystemExit("a flipped gamma passed the relation check")
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", script, __file__], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("signature (2,2): G_"), proc.stdout


def test_gamma_models_share_one_table():
    # every model of one signature and construction holds the same gamma
    # objects, its table's generators; a copy with another table has that
    # table's gammas and an empty store
    r1, r2 = build_gamma_rep(Signature(3, 1)), build_gamma_rep(Signature(3, 1))
    assert r1.table is r2.table and all(a is b for a, b in zip(r1.gammas, r2.gammas))
    assert r1.gammas == r1.table.gammas and r1.gamma(2) is r1.table.gammas[1]
    assert build_gamma_rep(Signature(3, 1), "alt").table is not r1.table
    negated = BladeTable(r1.sig, [_negated(r1.table.rows[0])] + list(r1.table.rows[1:]))
    other = replace(r1, table=negated)
    assert other.gammas == negated.gammas and other.gamma(1) == r1.gamma(1).scale(-1)
    assert other.cache == {} and replace(r1, variant="x").table is r1.table


def _negated(rows):
    """The unit-per-row table of -G for the table ``rows`` of G."""
    return tuple((c, (e + 2) & 3) for c, e in rows)


def test_every_model_has_known_transpose_signs():
    # every gamma model with n = 3..12 has G_i^T = +-G_i for each i, and for
    # even n a diagonal +-1 volume element; for n <= 8 every dual rotation
    # keeps its blade label
    for n, p in ((n, p) for n in range(3, 13) for p in range(n + 1)):
        for variant in ("standard", "alt"):
            rep = build_gamma_rep(Signature(p, n - p), variant)
            for i, g in enumerate(rep.gammas):
                t = rep.table.transpose_sign(1 << i)
                assert t in (1, -1) and SparseMatrix.transpose(g) == g.scale(t), (p, variant, i)
            if n % 2 == 0:
                volume = chirality_split(rep).volume
                assert all(row.keys() == {r} and row[r] in (QI_ONE, -QI_ONE)
                           for r, row in volume.data.items()), (p, variant)
            if n <= 8:
                assert all(m.__class__ is BladeMatrix
                           for m in dual_fiber(spinor_fiber(rep)).values()), (p, variant)
