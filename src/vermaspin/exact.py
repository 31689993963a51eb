"""Exact Gaussian-rational scalars and sparse linear algebra over Q(i).

Everything downstream (Clifford matrices, operator assembly, kernel
computations) runs on the two types defined here: :class:`GaussianRational`,
an element of Q(i) stored as one canonical integer triple (a + b i) / d, and
:class:`SparseMatrix`, a row-major map of nonzero entries.  There is no
floating point anywhere in this package.

Elimination (``rref``, ``rank``, ``nullspace`` and what is built on them)
runs internally on Gaussian-integer rows: each row is cleared of its
denominators on the way in, pivot rows are normalized by the conjugate of
their pivot, rows are combined fraction-free and kept free of integer
content, and results become GaussianRational only on the way out.  One
Gauss-Jordan loop does all of it; there is no modular or floating-point
shortcut.  Kernel vectors are checked exactly against the matrix, in
integers.

Q(i) arithmetic runs on Python ints alone.  The plain rationals of
``rational()`` and ``rational_from_string`` (the twists) are
``fractions.Fraction``.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction as _Q
from math import gcd as _gcd, lcm as _lcm

__all__ = [
    "GaussianRational",
    "SparseMatrix",
    "QI_ZERO",
    "QI_ONE",
    "QI_I",
    "qi",
    "rational",
    "rational_from_string",
    "rational_to_string",
    "rref",
    "rank",
    "nullspace",
    "kernel_is_trivial_hint",
    "column_product",
    "express_in_span",
]


def rational(num, den=1):
    """An exact rational with reduced, positive denominator."""
    return _Q(num, den)


def rational_from_string(s):
    """Parse 'a' or 'a/b' into an exact rational; floats and b = 0 are rejected."""
    s = s.strip()
    if not _re.fullmatch(r"[+-]?\d+(/\d+)?", s):
        raise ValueError("not an exact rational: %r" % (s,))
    if "/" in s:
        num, den = s.split("/")
        if not int(den):
            raise ValueError("zero denominator: %r" % (s,))
        return _Q(int(num), int(den))
    return _Q(int(s))


def rational_to_string(q):
    q = _Q(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


class GaussianRational:
    """An element (a + b i) / d of Q(i); immutable, hashable, exact.

    Stored as one triple of Python ints with d > 0 and gcd(a, b, d) == 1.
    That form is unique, so equal values have equal triples; ``re`` and
    ``im`` are the exact rationals a/d and b/d.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if re.__class__ is int and im.__class__ is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = _Q(re), _Q(im)
        rn, rd = re.numerator, re.denominator
        imn, imd = im.numerator, im.denominator
        # both parts are reduced, so gcd(a, b, lcm) is already 1
        d = _lcm(rd, imd)
        self._a, self._b, self._d = rn * (d // rd), imn * (d // imd), d

    @property
    def re(self):
        return _Q(self._a, self._d)

    @property
    def im(self):
        return _Q(self._b, self._d)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
        d, f = self._d, other._d
        if d == f:
            if d == 1:
                return _canonical(self._a + other._a, self._b + other._b, 1)
            return _gaussian(self._a + other._a, self._b + other._b, d)
        return _gaussian(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
        d, f = self._d, other._d
        if d == f:
            if d == 1:
                return _canonical(self._a - other._a, self._b - other._b, 1)
            return _gaussian(self._a - other._a, self._b - other._b, d)
        return _gaussian(self._a * f - other._a * d, self._b * f - other._b * d, d * f)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __mul__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        d = self._d * other._d
        if d == 1:
            return _canonical(a * c - b * e, a * e + b * c, 1)
        return _gaussian(a * c - b * e, a * e + b * c, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
        # (a + b i)/d / ((c + e i)/f) = (a + b i)(c - e i) f / (d (c^2 + e^2))
        a, b, d, c, e, f = self._a, self._b, self._d, other._a, other._b, other._d
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero in Q(i)")
            return _gaussian(a * f, b * f, d * c)
        return _gaussian((a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e))

    def __rtruediv__(self, other):
        return _coerce(other).__truediv__(self)

    def __neg__(self):
        return _canonical(-self._a, -self._b, self._d)

    def conjugate(self):
        return _canonical(self._a, -self._b, self._d)

    def inverse(self):
        return QI_ONE / self

    # -- predicates / hashing --------------------------------------------

    def __bool__(self):
        return bool(self._a or self._b)

    def __eq__(self, other):
        if other.__class__ is GaussianRational:
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, _Q):
            return (not self._b and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        # a real value hashes like the int or rational it equals
        if not self._b:
            return hash(self._a) if self._d == 1 else hash(_Q(self._a, self._d))
        return hash((self._a, self._b, self._d))

    # -- formatting -------------------------------------------------------

    def to_string(self):
        """Canonical form: 'a/b', 'c/d*i' or 'a/b+c/d*i' / 'a/b-c/d*i'."""
        if not self._b:
            return rational_to_string(self.re)
        if not self._a:
            return rational_to_string(self.im) + "*i"
        sign = "+" if self._b > 0 else "-"
        return rational_to_string(self.re) + sign + rational_to_string(abs(self.im)) + "*i"

    @staticmethod
    def from_string(s):
        s = s.strip().replace(" ", "")
        if _re.fullmatch(r"[+-]?\d+(?:/\d+)?", s):
            re_part, im_part = s, "0"
        else:
            # a real part is only split off before a sign, so "12*i" stays 12i
            m = _re.fullmatch(
                r"(?:(?P<re>[+-]?\d+(?:/\d+)?)(?=[+-]))?"
                r"(?P<im>[+-]?(?:\d+(?:/\d+)?\*?)?)i",
                s,
            )
            if not m:
                raise ValueError("not a Gaussian rational: %r" % (s,))
            re_part = m.group("re") or "0"
            im_part = m.group("im").rstrip("*")
            if im_part in ("", "+", "-"):
                im_part += "1"
        return GaussianRational(rational_from_string(re_part), rational_from_string(im_part))

    def __repr__(self):
        return "GaussianRational(%s)" % self.to_string()


def _canonical(a, b, d):
    """(a + b i) / d from a triple already in canonical form."""
    z = object.__new__(GaussianRational)
    z._a = a
    z._b = b
    z._d = d
    return z


def _gaussian(a, b, d):
    """(a + b i) / d as a GaussianRational: d != 0, reduced to canonical form."""
    g = _gcd(a, b, d)
    if d < 0:
        g = -g
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _canonical(a, b, d)


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(x)


QI_ZERO = GaussianRational(0)
QI_ONE = GaussianRational(1)
QI_I = GaussianRational(0, 1)


def qi(re, im=0):
    """Shorthand constructor used throughout the package and the tests."""
    return GaussianRational(re, im)


# ---------------------------------------------------------------------------
# sparse matrices
# ---------------------------------------------------------------------------


class SparseMatrix:
    """Immutable-by-convention sparse matrix over Q(i), row-major.

    ``data`` maps row -> {col -> GaussianRational}; zero entries and empty
    rows are never stored.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        self.data = data if data is not None else {}

    @classmethod
    def from_entries(cls, rows, cols, entries):
        data = {}
        for r, c, v in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise IndexError("entry (%d, %d) outside %dx%d" % (r, c, rows, cols))
            v = _coerce(v)
            if v:
                row = data.setdefault(r, {})
                w = row.get(c)
                nv = v if w is None else w + v
                if nv:
                    row[c] = nv
                elif c in row:
                    del row[c]
        for r in [r for r, row in data.items() if not row]:
            del data[r]
        return cls(rows, cols, data)

    @classmethod
    def from_dense(cls, rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        return cls.from_entries(
            rows, cols,
            ((r, c, v) for r, row in enumerate(rows_list) for c, v in enumerate(row)),
        )

    @classmethod
    def identity(cls, n, scale=QI_ONE):
        scale = _coerce(scale)
        data = {i: {i: scale} for i in range(n)} if scale else {}
        return cls(n, n, data)

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, {})

    # -- access -----------------------------------------------------------

    def get(self, r, c):
        return self.data.get(r, _EMPTY).get(c, QI_ZERO)

    def entries(self):
        """Sorted (row, col, value) triples."""
        for r in sorted(self.data):
            row = self.data[r]
            for c in sorted(row):
                yield r, c, row[c]

    def num_entries(self):
        return sum(len(row) for row in self.data.values())

    def is_zero(self):
        return not self.data

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.data == other.data

    def __repr__(self):
        return "SparseMatrix(%dx%d, %d entries)" % (self.rows, self.cols, self.num_entries())

    # -- algebra ----------------------------------------------------------

    def __add__(self, other):
        self._check_shape(other)
        data = {r: dict(row) for r, row in self.data.items()}
        for r, row in other.data.items():
            tgt = data.setdefault(r, {})
            for c, v in row.items():
                w = tgt.get(c)
                nv = v if w is None else w + v
                if nv:
                    tgt[c] = nv
                elif c in tgt:
                    del tgt[c]
            if not tgt:
                del data[r]
        return SparseMatrix(self.rows, self.cols, data)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s):
        s = _coerce(s)
        if not s:
            return SparseMatrix.zero(self.rows, self.cols)
        return SparseMatrix(
            self.rows, self.cols,
            {r: {c: v * s for c, v in row.items()} for r, row in self.data.items()},
        )

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch: %dx%d @ %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        data = {}
        odata = other.data
        for r, row in self.data.items():
            acc = {}
            for k, v in row.items():
                orow = odata.get(k)
                if not orow:
                    continue
                for c, w in orow.items():
                    x = acc.get(c)
                    nv = v * w if x is None else x + v * w
                    acc[c] = nv
            acc = {c: v for c, v in acc.items() if v}
            if acc:
                data[r] = acc
        return SparseMatrix(self.rows, other.cols, data)

    def transpose(self):
        data = {}
        for r, row in self.data.items():
            for c, v in row.items():
                data.setdefault(c, {})[r] = v
        return SparseMatrix(self.cols, self.rows, data)

    def columns(self):
        """col -> {row -> value} view (computed, not cached)."""
        out = {}
        for r, row in self.data.items():
            for c, v in row.items():
                out.setdefault(c, {})[r] = v
        return out

    def mul_vec(self, vec):
        """Matrix times sparse column vector (dict col -> value)."""
        out = {}
        for r, row in self.data.items():
            acc = None
            for c, v in row.items():
                w = vec.get(c)
                if w is None:
                    continue
                t = v * w
                acc = t if acc is None else acc + t
            if acc is not None and acc:
                out[r] = acc
        return out

    def stack_below(self, other):
        """Vertical stack [self; other]."""
        if self.cols != other.cols:
            raise ValueError("column mismatch in vertical stack")
        data = {r: dict(row) for r, row in self.data.items()}
        for r, row in other.data.items():
            data[r + self.rows] = dict(row)
        return SparseMatrix(self.rows + other.rows, self.cols, data)

    def _check_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def to_json(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[r, c, v.to_string()] for r, c, v in self.entries()],
        }

    @classmethod
    def from_json(cls, obj):
        return cls.from_entries(
            obj["rows"], obj["cols"],
            ((r, c, GaussianRational.from_string(s)) for r, c, s in obj["entries"]),
        )


_EMPTY = {}


# ---------------------------------------------------------------------------
# elimination: one Gauss-Jordan loop over Gaussian-integer rows
# ---------------------------------------------------------------------------


def _eliminate(rows, order):
    """Gauss-Jordan on a list of Gaussian-integer rows, in place; returns
    [(col, row index)].

    Columns are pivoted in the given order.  A column's pivot is its sparsest
    holder row (lowest index on ties); ``_normalize_row_gauss`` rescales it
    and ``_sub_scaled_row_gauss`` clears the column from every other row,
    earlier pivot rows included.  A column index lists the holders of each
    column and gains a row whenever fill-in appears, so no step scans every
    row.  Entries that cancelled are skipped when their column comes up, and
    a column leaves the index once it is pivoted.
    """
    normalize, sub_scaled = _normalize_row_gauss, _sub_scaled_row_gauss
    holders = {}
    for i, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, []).append(i)
    pivoted = set()
    pivots = []
    for c in order:
        hold = {i for i in holders.pop(c, ()) if c in rows[i]}
        cand = hold - pivoted
        if not cand:
            continue
        r = min(cand, key=lambda i: (len(rows[i]), i))
        pivoted.add(r)
        hold.discard(r)
        row = rows[r] = normalize(rows[r], c)
        for r2 in hold:
            row2 = rows[r2]
            fill = [k for k in row if k not in row2]
            sub_scaled(row2, row, c)
            for k in fill:
                holders[k].append(r2)
        pivots.append((c, r))
    return pivots


# Q(i) runs on Gaussian-integer rows {col: (re, im)} of Python ints.  Each
# row of the matrix is multiplied by the lcm of its denominators on the way
# in, and a row is only ever replaced by an integer combination of rows, so
# pivots, row spaces and kernels are exactly those over Q(i).  A normalized
# pivot is a positive integer N, and every row is divided by its integer
# content after each step.  Values become GaussianRational only on the way
# out: an RREF row is divided by its pivot N, a kernel entry is -x/N.


def _gauss_rows(m: SparseMatrix):
    """The rows of m as Gaussian-integer rows, each cleared of its denominators."""
    out = []
    for row in m.data.values():
        den = _lcm(*(v._d for v in row.values()))
        if den == 1:
            out.append({c: (v._a, v._b) for c, v in row.items()})
        else:
            out.append({c: (v._a * (den // v._d), v._b * (den // v._d))
                        for c, v in row.items()})
    return out


def _divide_content(row):
    """Divide a Gaussian-integer row, in place, by the gcd of all its parts."""
    g = 0
    for a, b in row.values():
        g = _gcd(g, a, b)
        if g == 1:
            return
    if g > 1:
        for k, (a, b) in row.items():
            row[k] = (a // g, b // g)


def _normalize_row_gauss(row, c):
    """row times the conjugate of its pivot, over its content: pivot N > 0."""
    p, q = row[c]
    if q or p < 0:
        row = {k: (a * p + b * q, b * p - a * q) for k, (a, b) in row.items()}
    _divide_content(row)
    return row


def _sub_scaled_row_gauss(target, source, c):
    """target := N target - target[c] source, over its content, in place.

    N = source[c] is the normalized pivot of source, so column c cancels.
    """
    n = source[c][0]
    fre, fim = target[c]
    g = _gcd(n, fre, fim)
    if g != 1:
        n, fre, fim = n // g, fre // g, fim // g
    if n != 1:
        for k, (a, b) in target.items():
            target[k] = (n * a, n * b)
    for k, (a, b) in source.items():
        tre = fre * a - fim * b
        tim = fre * b + fim * a
        w = target.get(k)
        if w is None:
            target[k] = (-tre, -tim)
        else:
            nre = w[0] - tre
            nim = w[1] - tim
            if nre or nim:
                target[k] = (nre, nim)
            else:
                del target[k]
    _divide_content(target)


def rref(m: SparseMatrix):
    """The unique reduced row-echelon form of m and its pivot columns."""
    rows = _gauss_rows(m)
    pivots = _eliminate(rows, range(m.cols))
    data = {}
    for i, (c, r) in enumerate(pivots):
        n = rows[r][c][0]
        data[i] = {k: _gaussian(a, b, n) for k, (a, b) in rows[r].items()}
    return SparseMatrix(m.rows, m.cols, data), [c for c, _ in pivots]


def rank(m: SparseMatrix) -> int:
    rows = _gauss_rows(m)
    return len(_eliminate(rows, reversed(range(m.cols))))


def kernel_is_trivial_hint(m: SparseMatrix):
    """True exactly when the kernel of m is {0}: ``rank(m) == m.cols``.

    No production path calls this.  It stays only because
    ``perfbench/tracer.py`` wraps it through ``owner.__dict__[attr]``: without
    the name, ``run.py --trace 1`` and ``check_tracer.py`` raise KeyError.  It
    goes together with the tracer's ``exact.modp_cert`` span.
    """
    return rank(m) == m.cols


def nullspace(m: SparseMatrix):
    """Exact basis of {v : m v = 0}, canonical (RREF of the kernel).

    Each vector is a dict col -> GaussianRational with first nonzero entry 1;
    vectors are ordered by leading index.  Pivoting from the last column
    first leaves every pivot row with entries only in free columns left of
    its pivot, so e_f - sum_c (row_c[f] / N_c) e_c is already the RREF basis
    vector of free column f.  Every vector is checked against m before it is
    returned, in integers: L times the vector, with L the lcm of the pivots
    N_c it uses, must be annihilated by the integer rows of m.
    """
    rows = _gauss_rows(m)
    cols = _gauss_columns(rows)
    pivots = _eliminate(rows, reversed(range(m.cols)))
    pivot_cols = {c for c, _ in pivots}
    terms = {f: [] for f in range(m.cols) if f not in pivot_cols}  # f -> [(c, N_c, row_c[f])]
    for c, r in pivots:
        n = rows[r][c][0]
        for f, x in rows[r].items():
            if f != c:
                terms[f].append((c, n, x))
    kernel = []
    for f, fterms in terms.items():
        lcm = _lcm(*(n for _, n, _ in fterms))
        w = {f: (lcm, 0)}
        for c, n, (a, b) in fterms:
            s = lcm // n
            w[c] = (-a * s, -b * s)
        if not _annihilates(cols, w):
            raise ArithmeticError("kernel vector of free column %d is not annihilated by "
                                  "the %dx%d matrix" % (f, m.rows, m.cols))
        kernel.append({c: _gaussian(a, b, lcm) for c, (a, b) in w.items()})
    return kernel


def _gauss_columns(rows):
    """col -> {row index -> (re, im)} of a list of Gaussian-integer rows."""
    out = {}
    for i, row in enumerate(rows):
        for c, v in row.items():
            out.setdefault(c, {})[i] = v
    return out


def _annihilates(cols, vec):
    """m @ vec == 0 in Gaussian integers, from the columns of m's integer rows."""
    re, im = {}, {}
    for c, (wr, wi) in vec.items():
        for r, (a, b) in cols.get(c, _EMPTY).items():
            re[r] = re.get(r, 0) + a * wr - b * wi
            im[r] = im.get(r, 0) + a * wi + b * wr
    return not any(re.values()) and not any(im.values())


def column_product(cols, vec):
    """m @ vec from cols = m.columns(), walking only the columns vec touches.

    Compute cols once per matrix and reuse it for every vector; the cost is
    then the nnz of the touched columns, not of the whole matrix.
    """
    out = {}
    for c, w in vec.items():
        for r, v in cols.get(c, _EMPTY).items():
            x = out.get(r)
            out[r] = v * w if x is None else x + v * w
    return {r: v for r, v in out.items() if v}


def _canonical_basis(vectors, dim):
    """RREF the span of the given vectors: unique leading-one basis."""
    mat = SparseMatrix.from_entries(
        len(vectors), dim,
        ((i, c, v) for i, vec in enumerate(vectors) for c, v in vec.items()),
    )
    red, pivots = rref(mat)
    return [dict(red.data[i]) for i in range(len(pivots))]


def express_in_span(basis, targets, dim):
    """Solve sum_j x_j basis[j] = t exactly for each target t.

    basis and targets are sparse vectors (dict index -> GaussianRational) in a
    space of dimension ``dim``.  Returns a list of coefficient lists, or None
    if some target is outside the span.
    """
    k = len(basis)
    nt = len(targets)
    rows = {}
    for j, vec in enumerate(basis):
        for i, v in vec.items():
            rows.setdefault(i, {})[j] = v
    for t, vec in enumerate(targets):
        for i, v in vec.items():
            rows.setdefault(i, {})[k + t] = v
    mat = SparseMatrix(len(rows), k + nt,
                       {ri: row for ri, row in enumerate(rows.values())})
    red, pivots = rref(mat)
    if any(p >= k for p in pivots):
        return None
    piv_of_col = {c: i for i, c in enumerate(pivots)}
    out = []
    for t in range(nt):
        coeffs = [QI_ZERO] * k
        for c, i in piv_of_col.items():
            coeffs[c] = red.data.get(i, _EMPTY).get(k + t, QI_ZERO)
        out.append(coeffs)
    return out
