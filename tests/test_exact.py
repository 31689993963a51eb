import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vermaspin import exact
from vermaspin.exact import (
    GaussianRational,
    SparseMatrix,
    qi,
    rational,
    rational_from_string,
    rref,
    rank,
    nullspace,
    kernel_vectors,
    kernel_is_trivial_hint,
    express_in_span,
    QI_ONE,
    QI_ZERO,
)

# A 31-bit prime, 1 (mod 4): the modulus of the former mod-p kernel
# certificate.  Draws with it as a denominator keep huge denominators in the
# elimination tests.
_CERT_P = 2147483629


def small_rationals():
    return st.builds(rational,
                     st.integers(min_value=-10, max_value=10),
                     st.integers(min_value=1, max_value=10))


def gaussians():
    return st.builds(qi, small_rationals(), small_rationals())


@given(gaussians(), gaussians(), gaussians())
@settings(max_examples=60, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if b:
        assert (a / b) * b == a
    assert a + QI_ZERO == a
    assert a * QI_ONE == a


def big_gaussians():
    """Parts with numerators to 10^6 and denominators to 10^4, or _CERT_P."""
    den = st.one_of(st.integers(min_value=1, max_value=10 ** 4), st.just(_CERT_P))
    part = st.builds(rational, st.integers(min_value=-10 ** 6, max_value=10 ** 6), den)
    return st.builds(qi, part, part)


@given(st.one_of(gaussians(), big_gaussians()))
@settings(max_examples=100, deadline=None)
def test_string_roundtrip(a):
    assert GaussianRational.from_string(a.to_string()) == a


@given(st.one_of(st.text(max_size=10),
                 st.text(alphabet="0123456789+-*/i ", max_size=12)))
@settings(max_examples=300, deadline=None)
def test_from_string_fuzz(s):
    # any text parses to a value that round-trips, or raises ValueError
    try:
        z = GaussianRational.from_string(s)
    except ValueError:
        return
    assert GaussianRational.from_string(z.to_string()) == z


def test_string_forms():
    assert qi(rational(1, 2), rational(-3, 4)).to_string() == "1/2-3/4*i"
    assert qi(0, 1).to_string() == "1*i"
    assert qi(-2).to_string() == "-2"
    assert qi(0).to_string() == "0"
    assert GaussianRational.from_string("i") == qi(0, 1)
    assert GaussianRational.from_string("1-i") == qi(1, -1)
    # multi-digit imaginary parts are never split into a real and an imaginary part
    assert GaussianRational.from_string("12*i") == qi(0, 12)
    assert GaussianRational.from_string("1/10*i") == qi(0, rational(1, 10))
    with pytest.raises(ValueError):
        GaussianRational.from_string("0.5")
    with pytest.raises(ValueError):
        rational_from_string("1e-3")
    for zero_den in ("1/0", "2-1/0*i", "1/00i"):
        with pytest.raises(ValueError, match="zero denominator"):
            GaussianRational.from_string(zero_den)
    for zero_den in ("1/0", "-3/000"):
        with pytest.raises(ValueError, match="zero denominator: '%s'" % zero_den):
            rational_from_string(zero_den)


# -- scalars against an oracle of (Fraction, Fraction) pairs ------------------
#
# The oracle shares no arithmetic with the package; the elimination tests
# below use it too.

_Z = (Fraction(0), Fraction(0))


def _pair(z):
    return (Fraction(int(z.re.numerator), int(z.re.denominator)),
            Fraction(int(z.im.numerator), int(z.im.denominator)))


def _mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _inv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def _triple(z):
    return z._a, z._b, z._d


def _assert_canonical(z):
    a, b, d = _triple(z)
    assert d > 0 and gcd(a, b, d) == 1


@given(big_gaussians(), big_gaussians())
@settings(max_examples=200, deadline=None)
def test_scalar_ops_match_pair_oracle(z, w):
    x, y = _pair(z), _pair(w)
    expected = {
        "+": (x[0] + y[0], x[1] + y[1]),
        "-": (x[0] - y[0], x[1] - y[1]),
        "*": _mul(x, y),
        "neg": (-x[0], -x[1]),
        "conj": (x[0], -x[1]),
        "1-z": (1 - x[0], -x[1]),
        "-2z": (-2 * x[0], -2 * x[1]),
    }
    got = {"+": z + w, "-": z - w, "*": z * w, "neg": -z, "conj": z.conjugate(),
           "1-z": 1 - z, "-2z": -2 * z}
    if y != _Z:
        expected["/"] = _mul(x, _inv(y))
        got["/"] = z / w
    if x != _Z:
        expected["inverse"] = _inv(x)
        got["inverse"] = 1 / z
    for op, v in got.items():
        assert _pair(v) == expected[op], op
        _assert_canonical(v)
        # equal values have equal triples, however they were reached
        assert _triple(v) == _triple(qi(*expected[op])), op
    assert bool(z) == (x != _Z)
    assert _triple((z + w) - w) == _triple(z)
    assert _triple(z * w) == _triple(w * z)


@given(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
       st.one_of(st.integers(min_value=1, max_value=10 ** 4), st.just(_CERT_P)))
@settings(max_examples=100, deadline=None)
def test_real_scalars_compare_and_hash_like_int_and_fraction(num, den):
    q = Fraction(num, den)
    z = qi(q)
    _assert_canonical(z)
    assert z == q and q == z and hash(z) == hash(q)
    assert (z == q.numerator) == (q.denominator == 1)
    w = qi(num)
    assert w == num and num == w and hash(w) == hash(num) == hash(Fraction(num))
    assert qi(q, 1) != q


def test_division_by_zero_raises():
    z = qi(rational(1, 2), 3)
    for zero in (QI_ZERO, 0, rational(0), qi(0, 0) * z):
        with pytest.raises(ZeroDivisionError):
            z / zero
    with pytest.raises(ZeroDivisionError):
        1 / QI_ZERO


def test_as_scalar_detects_exactly_the_multiples_of_the_identity():
    # s I with a non-integer and a non-real s; the read goes over den
    for s in (qi(0, 1), qi(rational(-1, 2)), qi(3), qi(rational(2, 3), rational(-5, 7))):
        m = SparseMatrix.identity(3, s)
        assert m.as_scalar() == s and m.as_scalar().__class__ is GaussianRational
    assert SparseMatrix.identity(1, qi(-2)).as_scalar() == qi(-2)
    assert SparseMatrix.from_dense([[qi(0, 1), 0], [0, qi(rational(-1, 2))]]).as_scalar() is None
    half = qi(rational(1, 2))
    not_scalar = {
        "diag(1, -1)": SparseMatrix.from_dense([[1, 0], [0, -1]]),
        "a missing row": SparseMatrix.from_entries(3, 3, [(0, 0, half), (2, 2, half)]),
        "a missing first row": SparseMatrix.from_entries(2, 2, [(1, 1, half)]),
        "non-square": SparseMatrix.from_entries(2, 3, [(0, 0, QI_ONE), (1, 1, QI_ONE)]),
        "one off-diagonal entry": SparseMatrix.identity(3, half)
        + SparseMatrix.from_entries(3, 3, [(0, 2, QI_ONE)]),
        "an entry moved off the diagonal": SparseMatrix.from_dense([[1, 0], [1, 0]]),
        "a permutation": SparseMatrix.from_dense([[0, 1], [1, 0]]),
        "zero": SparseMatrix.zero(2, 2),
        "empty": SparseMatrix.zero(0, 0),
    }
    for what, m in not_scalar.items():
        assert m.as_scalar() is None, what


def test_multiple_of_reads_the_ratio_then_compares_the_whole_matrix():
    other = SparseMatrix.from_dense([[0, qi(rational(1, 3), 2)], [qi(0, -1), 5]])
    c = qi(2, -3)
    ratio = other.scale(c).multiple_of(other)
    assert ratio == c and ratio.__class__ is GaussianRational
    # c is read off the first entry; a difference at a later entry is caught
    later = other.scale(c) + SparseMatrix.from_entries(2, 2, [(1, 1, QI_ONE)])
    assert later.multiple_of(other) is None
    assert SparseMatrix.from_dense([[0, 1], [0, 0]]).multiple_of(other) is None
    assert SparseMatrix.zero(2, 2).multiple_of(other) == QI_ZERO
    assert SparseMatrix.zero(2, 3).multiple_of(SparseMatrix.identity(2)) is None
    for zero in (SparseMatrix.zero(2, 2), SparseMatrix.zero(0, 0)):
        with pytest.raises(ValueError, match="^no multiple of the zero matrix is determined$"):
            other.multiple_of(zero)


def test_rref_identity():
    m = SparseMatrix.identity(2)
    red, piv = rref(m)
    assert red == m and piv == [0, 1]


def test_rref_zero():
    m = SparseMatrix.zero(3, 3)
    red, piv = rref(m)
    assert red.is_zero() and piv == []


def test_rref_rank_one_complex():
    # second row is -i times the first
    m = SparseMatrix.from_dense([[qi(1), qi(0, 1)], [qi(0, -1), qi(1)]])
    red, piv = rref(m)
    assert piv == [0]
    assert red.get(0, 0) == QI_ONE and red.get(0, 1) == qi(0, 1)
    assert red.get(1, 0) == QI_ZERO and red.get(1, 1) == QI_ZERO


def test_nullspace_identity_and_zero():
    assert nullspace(SparseMatrix.identity(3)) == []
    basis = kernel_vectors(nullspace(SparseMatrix.zero(2, 2)))
    assert basis == [{0: QI_ONE}, {1: QI_ONE}]


def test_nullspace_complex_line():
    # x + i y = 0, leading-one normalized solution (1, i)
    basis = kernel_vectors(nullspace(SparseMatrix.from_dense([[qi(1), qi(0, 1)]])))
    assert basis == [{0: QI_ONE, 1: qi(0, 1)}]


def _random_matrix(rng, rows, cols, density=0.5):
    entries = []
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                entries.append((r, c, qi(
                    rational(rng.randint(-10, 10), rng.randint(1, 10)),
                    rational(rng.randint(-10, 10), rng.randint(1, 10)))))
    return SparseMatrix.from_entries(rows, cols, entries)


def test_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        m = _random_matrix(rng, rows, cols)
        basis = kernel_vectors(nullspace(m))
        assert rank(m) + len(basis) == cols
        for v in basis:
            assert not m.mul_vec(v)
            first = min(v)
            assert v[first] == QI_ONE


def test_rref_idempotent_random():
    rng = random.Random(11)
    for _ in range(15):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        red, piv = rref(m)
        red2, piv2 = rref(red)
        assert red == red2 and piv == piv2


def test_modular_certificate_is_sound():
    rng = random.Random(13)
    for _ in range(20):
        m = _random_matrix(rng, rng.randint(1, 8), rng.randint(1, 6))
        if kernel_is_trivial_hint(m):
            assert nullspace(m) == []


def test_express_in_span():
    b1 = {0: qi(1), 1: qi(2)}
    b2 = {1: qi(0, 1)}
    target = {0: qi(3), 1: qi(6, -2)}
    basis = SparseMatrix.from_columns(2, [b1, b2])
    coeffs = express_in_span(basis, SparseMatrix.from_columns(2, [target]))
    assert coeffs is not None and (coeffs.rows, coeffs.cols) == (2, 1)
    c1, c2 = coeffs.get(0, 0), coeffs.get(1, 0)
    assert c1 == qi(3) and c2 == qi(-2)
    recon = {0: c1 * b1[0], 1: c1 * b1[1] + c2 * b2[1]}
    assert recon == target
    assert basis @ coeffs == SparseMatrix.from_columns(2, [target])
    assert express_in_span(SparseMatrix.from_columns(3, [b1]),
                           SparseMatrix.from_columns(3, [{2: qi(1)}])) is None


def test_express_in_span_rejects_mismatched_row_counts():
    basis = SparseMatrix.from_columns(2, [{0: qi(1)}])
    with pytest.raises(ValueError, match="row mismatch"):
        express_in_span(basis, SparseMatrix.from_columns(3, [{0: qi(1)}]))


def test_mul_vec_rejects_an_index_outside_the_matrix():
    # the vector becomes a column through from_columns, which checks bounds
    m = SparseMatrix.from_dense([[qi(1), qi(2)]])
    with pytest.raises(IndexError, match=r"entry \(5, 0\) outside 2x1"):
        m.mul_vec({5: qi(1)})
    with pytest.raises(IndexError):
        SparseMatrix.from_columns(2, [{0: qi(1)}, {-1: qi(1)}])


def test_matrix_algebra():
    a = SparseMatrix.from_dense([[qi(1), qi(2)], [qi(0), qi(1)]])
    b = SparseMatrix.from_dense([[qi(0, 1), qi(0)], [qi(1), qi(-1)]])
    assert (a @ b).get(0, 0) == qi(2, 1)
    assert (a + b - b) == a
    assert a.transpose().transpose() == a
    assert a.stack_below(b).rows == 4
    v = {0: qi(1), 1: qi(0, 1)}
    assert a.mul_vec(v) == {0: qi(1, 2), 1: qi(0, 1)}


def test_every_construction_drops_stored_zeros():
    # the raw constructor normalizes like from_entries: no zero entry, no empty row
    m = SparseMatrix(2, 2, {0: {0: QI_ZERO}})
    assert m.is_zero() and m == SparseMatrix.zero(2, 2) and m.num_entries() == 0
    line = SparseMatrix(1, 2, {0: {0: QI_ZERO, 1: qi(1)}})
    red, piv = rref(line)
    assert piv == [1] and red == SparseMatrix.from_dense([[QI_ZERO, QI_ONE]])
    assert express_in_span(SparseMatrix.from_columns(2, [{0: qi(1), 1: QI_ZERO}]),
                           SparseMatrix.from_columns(2, [{0: qi(2)}])) \
        == SparseMatrix.from_dense([[qi(2)]])
    assert kernel_vectors(nullspace(line)) == [{0: QI_ONE}]


# -- SparseMatrix against a dict-of-GaussianRational oracle -------------------
#
# The reference of a matrix is its shape and a map (row, col) -> nonzero
# GaussianRational; every operation is recomputed on it entry by entry.


def _ref_sum(triples):
    out = {}
    for r, c, v in triples:
        out[(r, c)] = out.get((r, c), QI_ZERO) + v
    return {k: v for k, v in out.items() if v}


def _assert_matches(m, rows, cols, ref):
    """m has the shape and values of ref, and is in canonical form."""
    assert (m.rows, m.cols) == (rows, cols)
    assert m.den > 0 and (m.den == 1 or m.num)
    for r, row in m.num.items():
        assert row and 0 <= r < rows
        for c, (a, b) in row.items():
            assert (a or b) and 0 <= c < cols
    assert gcd(m.den, *(x for row in m.num.values() for v in row.values() for x in v)) == 1
    assert list(m.entries()) == [(r, c, ref[(r, c)]) for r, c in sorted(ref)]
    assert all(m.get(r, c) == ref.get((r, c), QI_ZERO) for r in range(rows) for c in range(cols))
    assert m.data == {r: {c: v for (r2, c), v in ref.items() if r2 == r} for r, _ in ref}
    assert m.num_entries() == len(ref) and m.is_zero() == (not ref)


@st.composite
def entry_lists(draw, rows, cols):
    """(row, col, value) triples with repeated and cancelling positions."""
    pos = st.tuples(st.integers(min_value=0, max_value=rows - 1),
                    st.integers(min_value=0, max_value=cols - 1))
    value = st.one_of(gaussians(), big_gaussians())
    out = [(r, c, v) for (r, c), v in draw(st.lists(st.tuples(pos, value), max_size=rows * cols + 2))]
    if out:
        out += [(r, c, -v) for r, c, v in draw(st.lists(st.sampled_from(out), max_size=2))]
    return draw(st.permutations(out))


def scalars():
    """Real, imaginary, zero and general scalars, with denominators."""
    return st.one_of(st.builds(qi, small_rationals()), st.builds(qi, st.just(0), small_rationals()),
                     st.just(QI_ZERO), gaussians(), big_gaussians())


@st.composite
def oracle_cases(draw):
    rows, inner, cols = (draw(st.integers(min_value=1, max_value=4)) for _ in range(3))
    a, b = draw(entry_lists(rows, inner)), draw(entry_lists(rows, inner))
    c = draw(entry_lists(inner, cols))
    vec = {k: draw(scalars()) for k in draw(st.sets(st.integers(min_value=0, max_value=inner - 1)))}
    return rows, inner, cols, a, b, c, vec, draw(scalars())


@given(oracle_cases())
@settings(max_examples=120, deadline=None)
def test_sparse_matrix_matches_dict_oracle(case):
    rows, inner, cols, a_list, b_list, c_list, vec, s = case
    A = SparseMatrix.from_entries(rows, inner, a_list)
    B = SparseMatrix.from_entries(rows, inner, b_list)
    C = SparseMatrix.from_entries(inner, cols, c_list)
    a, b, c = _ref_sum(a_list), _ref_sum(b_list), _ref_sum(c_list)
    for m, ref, shape in ((A, a, (rows, inner)), (B, b, (rows, inner)), (C, c, (inner, cols))):
        _assert_matches(m, *shape, ref)
    _assert_matches(A + B, rows, inner, _ref_sum([(r, x, v) for (r, x), v in (*a.items(), *b.items())]))
    _assert_matches(A - B, rows, inner, _ref_sum([(r, x, v) for (r, x), v in a.items()]
                                                 + [(r, x, -v) for (r, x), v in b.items()]))
    _assert_matches(-A, rows, inner, {k: -v for k, v in a.items()})
    _assert_matches(A.scale(s), rows, inner, {k: v * s for k, v in a.items() if v * s})
    _assert_matches(A @ C, rows, cols, _ref_sum(
        [(r, y, v * w) for (r, k), v in a.items() for (k2, y), w in c.items() if k == k2]))
    _assert_matches(A.transpose(), inner, rows, {(x, r): v for (r, x), v in a.items()})
    _assert_matches(A.stack_below(B), 2 * rows, inner,
                    {**a, **{(r + rows, x): v for (r, x), v in b.items()}})
    _assert_matches(SparseMatrix.hstack([A, B]), rows, 2 * inner,
                    {**a, **{(r, x + inner): v for (r, x), v in b.items()}})
    _assert_matches(SparseMatrix.identity(rows, s), rows, rows,
                    {(r, r): s for r in range(rows) if s})
    dense = {r: {x: a.get((r, x), QI_ZERO) for x in range(inner)} for r in range(rows)}
    _assert_matches(SparseMatrix(rows, inner, dense), rows, inner, a)
    _assert_matches(SparseMatrix(rows, inner, {r: {} for r in range(rows)}), rows, inner, {})
    product = _ref_sum([(r, 0, v * vec[k]) for (r, k), v in a.items() if k in vec])
    assert A.mul_vec(vec) == {r: v for (r, _), v in product.items()}
    V = SparseMatrix.from_columns(inner, [vec, {}])
    _assert_matches(V, inner, 2, {(k, 0): v for k, v in vec.items() if v})
    _assert_matches(A @ V, rows, 2, product)
    assert A.columns() == {x: {r: v for (r, x2), v in a.items() if x2 == x} for _, x in a}
    assert (A == B) == (a == b) and (A != B) == (a != b)
    assert A == SparseMatrix.from_entries(rows, inner, [(r, x, v) for (r, x), v in reversed(a.items())])


# -- the elimination engine against a dense Fraction oracle -----------------
#
# Scalars of the oracle are the (re, im) pairs of Fractions above.

def _dense_rref(rows, ncols):
    """Textbook Gauss-Jordan: first nonzero row pivots, columns left to right."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        top = len(pivots)
        r = next((i for i in range(top, len(rows)) if rows[i][c] != _Z), None)
        if r is None:
            continue
        rows[top], rows[r] = rows[r], rows[top]
        inv = _inv(rows[top][c])
        rows[top] = [_mul(inv, x) for x in rows[top]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != top and f != _Z:
                rows[i] = [(x[0] - y[0], x[1] - y[1])
                           for x, y in zip(rows[i], (_mul(f, z) for z in rows[top]))]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def _dense_kernel(rows, ncols):
    """RREF basis of the kernel: free-column vectors, then RREF of their span."""
    red, pivots = _dense_rref(rows, ncols)
    vectors = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [_Z] * ncols
        v[f] = (Fraction(1), Fraction(0))
        for i, c in enumerate(pivots):
            v[c] = (-red[i][f][0], -red[i][f][1])
        vectors.append(v)
    return _dense_rref(vectors, ncols)[0]


def _dense(m):
    return [[_pair(m.get(r, c)) for c in range(m.cols)] for r in range(m.rows)]


def _densify(vec, ncols):
    return [_pair(vec.get(c, QI_ZERO)) for c in range(ncols)]


@st.composite
def sparse_matrices(draw, big=False):
    """Sparse Q(i) matrices with dependent and duplicate rows, rows shuffled.

    Denominators are small, or the 31-bit prime ``_CERT_P``.  With ``big``,
    numerators reach 10^6 and denominators 10^4, so rows grow large integer
    contents and lcm scalings inside the elimination.
    """
    top_num, top_den = (10 ** 6, 10 ** 4) if big else (4, 6)
    den = st.one_of(st.integers(min_value=1, max_value=top_den), st.just(_CERT_P))
    part = st.builds(rational, st.integers(min_value=-top_num, max_value=top_num), den)
    entry = st.builds(qi, part, part)
    cols = draw(st.integers(min_value=1, max_value=6))
    col = st.integers(min_value=0, max_value=cols - 1)
    rows = [{c: draw(entry) for c in draw(st.sets(col, max_size=cols))}
            for _ in range(draw(st.integers(min_value=0, max_value=5)))]
    base = list(rows)
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if base else 0):
        combo = {}
        for row in draw(st.lists(st.sampled_from(base), min_size=1, max_size=3)):
            f = draw(entry)
            for c, v in row.items():
                combo[c] = combo.get(c, QI_ZERO) + f * v
        rows.append(combo)
    for _ in range(draw(st.integers(min_value=0, max_value=2)) if rows else 0):
        rows.append(dict(draw(st.sampled_from(rows))))
    order = draw(st.permutations(range(len(rows))))
    return SparseMatrix.from_entries(
        len(rows), cols, ((i, c, v) for i, j in enumerate(order) for c, v in rows[j].items()))


@given(sparse_matrices())
@settings(max_examples=150, deadline=None)
def test_engine_matches_dense_oracle(m):
    red, pivots = _dense_rref(_dense(m), m.cols)
    kernel = _dense_kernel(_dense(m), m.cols)
    got, got_pivots = rref(m)
    assert got_pivots == pivots
    assert [_densify(got.data[i], m.cols) for i in range(len(pivots))] == red
    assert sorted(got.data) == list(range(len(pivots)))
    assert rank(m) == len(pivots)
    assert [_densify(v, m.cols) for v in kernel_vectors(nullspace(m))] == kernel
    assert kernel_is_trivial_hint(m) == (kernel == [])


@given(sparse_matrices(big=True))
@settings(max_examples=100, deadline=None)
def test_engine_matches_dense_oracle_large_entries(m):
    # large contents and row lcms inside the Gaussian-integer elimination
    test_engine_matches_dense_oracle.hypothesis.inner_test(m)


def _check_integer_kernel_rows(m):
    """nullspace(m) against the dense oracle: row j is L_j v_j, with v_j the
    oracle's RREF kernel vector and L_j the least positive integer that
    clears its denominators.  Explicit raises, so it also checks under -O."""
    oracle = _dense_kernel(_dense(m), m.cols)
    rows = nullspace(m)
    if len(rows) != len(oracle):
        raise AssertionError("%d kernel rows, the oracle has %d" % (len(rows), len(oracle)))
    for j, (w, v) in enumerate(zip(rows, oracle)):
        L = lcm(*(x.denominator for pair in v for x in pair))
        want = {c: (int(re * L), int(im * L)) for c, (re, im) in enumerate(v) if re or im}
        if w != want:
            raise AssertionError("row %d is %s, expected %s" % (j, w, want))
        if gcd(*(x for pair in w.values() for x in pair)) != 1:
            raise AssertionError("row %d has integer content: %s" % (j, w))
        if w[min(w)] != (L, 0):
            raise AssertionError("row %d leads with %s, not (%d, 0)" % (j, w[min(w)], L))
    if [_densify(v, m.cols) for v in kernel_vectors(rows)] != oracle:
        raise AssertionError("kernel_vectors differ from the oracle's RREF kernel")


_KERNEL_ROW_CASES = {
    "gaussian-pivot": [[qi(2), qi(1, 1)]],
    "gaussian-pivots": [[qi(1, 1), qi(2), qi(0, 3)], [qi(0, 1), qi(1, -1), qi(1)]],
    "non-unit-pivots": [[qi(3), qi(1), qi(2), qi(0)], [qi(0), qi(5), qi(7), qi(4)]],
    # the step row1 - row0 leaves the row (0, -2, 0): content 2, kept
    "unit-pivot-row-with-content": [[qi(0), qi(1), qi(1)], [qi(0), qi(-1), qi(1)]],
    "denominators": [[qi(rational(1, 2)), qi(0, rational(1, 3))]],
    "denominators-3": [[qi(rational(1, 6)), qi(rational(1, 4)), qi(rational(1, 9))]],
    "cert-prime": [[qi(rational(1, _CERT_P)), qi(1)], [qi(1), qi(_CERT_P)]],
    "zero": [[qi(0), qi(0), qi(0)]],
}


@pytest.mark.parametrize("rows", list(_KERNEL_ROW_CASES.values()), ids=list(_KERNEL_ROW_CASES))
def test_kernel_rows_are_canonical_gaussian_integers(rows):
    _check_integer_kernel_rows(SparseMatrix.from_dense(rows))


def test_unit_pivots_skip_the_content_pass(monkeypatch):
    # the fast path: a pivot already 1 is not normalized, a step with
    # multiplier 1 runs no content pass, and the rows still match the oracle
    def refuse(row):
        raise AssertionError("content pass on an all-unit-pivot elimination")

    monkeypatch.setattr(exact, "_divide_content", refuse)
    # every pivot is 1, and every row step has multiplier 1
    m = SparseMatrix.from_dense([[qi(2), qi(3), qi(1), qi(1)], [qi(5), qi(7), qi(0), qi(1)]])
    assert nullspace(m) == [{0: (1, 0), 3: (-5, 0), 2: (3, 0)},
                            {1: (1, 0), 3: (-7, 0), 2: (4, 0)}]
    _check_integer_kernel_rows(m)


@given(sparse_matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_rows_match_the_dense_oracle(m):
    _check_integer_kernel_rows(m)


def test_kernel_row_check_runs_under_optimize_flag():
    # the canonical-row check holds under python -O, and still catches a
    # kernel row that is off by a factor 2 there
    script = textwrap.dedent("""
        import runpy
        import sys

        if __debug__:
            raise SystemExit("expected python -O")
        ns = runpy.run_path(sys.argv[1])
        m = ns["SparseMatrix"].from_dense(ns["_KERNEL_ROW_CASES"]["denominators-3"])
        ns["_check_integer_kernel_rows"](m)
        check_globals = ns["_check_integer_kernel_rows"].__globals__
        exact_nullspace = check_globals["nullspace"]
        check_globals["nullspace"] = lambda m: [
            {c: (2 * a, 2 * b) for c, (a, b) in w.items()} for w in exact_nullspace(m)]
        try:
            ns["_check_integer_kernel_rows"](m)
        except AssertionError as exc:
            print("caught:", exc)
        else:
            raise SystemExit("a doubled kernel row passed the check")
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", script, __file__], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("caught: row 0 is {0: (4, 0), 2: (-6, 0)}"), proc.stdout


def test_integer_rows_keep_content_and_denominators_exact():
    # non-unit Gaussian pivots and rows with denominators: the pivot row is
    # multiplied by its conjugate pivot, rows by the lcm of their denominators
    assert kernel_vectors(nullspace(SparseMatrix.from_dense([[qi(2), qi(1, 1)]]))) \
        == [{0: QI_ONE, 1: qi(-1, 1)}]
    red, piv = rref(SparseMatrix.from_dense([[qi(1, 1), qi(2)], [qi(3, 3), qi(6)]]))
    assert piv == [0] and red.data == {0: {0: QI_ONE, 1: qi(1, -1)}}
    half, third = qi(rational(1, 2)), qi(0, rational(1, 3))
    assert kernel_vectors(nullspace(SparseMatrix.from_dense([[half, third]]))) \
        == [{0: QI_ONE, 1: qi(0, rational(3, 2))}]
    big = qi(rational(10 ** 6 + 1, 9999), rational(-7, 10 ** 4))
    m = SparseMatrix.from_dense([[big, qi(1)], [big * big, big]])
    assert rank(m) == 1
    assert kernel_vectors(nullspace(m)) == [{0: QI_ONE, 1: -big}]


def test_denominator_divisible_by_cert_prime():
    # p divides a denominator: the kernel and the triviality test stay exact
    tiny = qi(rational(1, _CERT_P))
    invertible = SparseMatrix.from_dense([[tiny, qi(0)], [qi(0), qi(1)]])
    assert kernel_is_trivial_hint(invertible)
    assert nullspace(invertible) == []
    # second row is p times the first
    singular = SparseMatrix.from_dense([[tiny, qi(1)], [qi(1), qi(_CERT_P)]])
    assert not kernel_is_trivial_hint(singular)
    assert kernel_vectors(nullspace(singular)) == [{0: QI_ONE, 1: -tiny}]


def test_imaginary_denominator_divisible_by_cert_prime():
    # p divides only the denominator of the imaginary part
    tiny = qi(0, rational(1, _CERT_P))
    line = SparseMatrix.from_dense([[tiny, qi(1)]])
    assert not kernel_is_trivial_hint(line)
    assert kernel_vectors(nullspace(line)) == [{0: QI_ONE, 1: -tiny}]
    invertible = SparseMatrix.from_dense([[tiny + qi(1), qi(0)], [qi(0), qi(1)]])
    assert kernel_is_trivial_hint(invertible)
    assert nullspace(invertible) == []


def test_kernel_check_runs_under_optimize_flag():
    # an elimination that corrupts one entry per row operation must be caught
    # by the explicit M v = 0 check, also when asserts are compiled out
    script = textwrap.dedent("""
        from vermaspin import exact
        from vermaspin.exact import SparseMatrix, nullspace, qi

        if __debug__:
            raise SystemExit("expected python -O")
        sub = exact._sub_scaled_row_gauss

        def corrupted(target, source, col):
            sub(target, source, col)
            for k, (a, b) in target.items():
                target[k] = (2 * a, 2 * b)
                break

        exact._sub_scaled_row_gauss = corrupted
        m = SparseMatrix.from_dense([[qi(1), qi(1), qi(1)], [qi(1), qi(2), qi(3)]])
        print(nullspace(m))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "ArithmeticError: kernel vector of free column 0" in proc.stderr
    assert "2x3 matrix" in proc.stderr


def _nullspace_with_off_pivot_increment():
    """nullspace of [[1, 2, 3], [0, 1, 5]] with every normalized pivot row
    given +1 at its first non-pivot entry."""
    normalize = exact._normalize_row_gauss

    def corrupted(row, c):
        row = normalize(row, c)
        for k, (a, b) in row.items():
            if k != c:
                row[k] = (a + 1, b)
                break
        return row

    exact._normalize_row_gauss = corrupted
    try:
        return nullspace(SparseMatrix.from_dense([[qi(1), qi(2), qi(3)], [qi(0), qi(1), qi(5)]]))
    finally:
        exact._normalize_row_gauss = normalize


def test_kernel_check_names_the_first_failing_free_column():
    # the one-product kernel check must catch the corruption, in process
    # and under python -O
    message = "kernel vector of free column 0 is not annihilated by the 2x3 matrix"
    m = SparseMatrix.from_dense([[qi(1), qi(2), qi(3)], [qi(0), qi(1), qi(5)]])
    assert kernel_vectors(nullspace(m)) \
        == [{0: QI_ONE, 1: qi(rational(-5, 7)), 2: qi(rational(1, 7))}]
    with pytest.raises(ArithmeticError, match=message):
        _nullspace_with_off_pivot_increment()
    script = textwrap.dedent("""
        import runpy
        import sys

        if __debug__:
            raise SystemExit("expected python -O")
        runpy.run_path(sys.argv[1])["_nullspace_with_off_pivot_increment"]()
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", script, __file__], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "ArithmeticError: " + message in proc.stderr
