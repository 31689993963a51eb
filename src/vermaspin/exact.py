"""Exact Gaussian-rational scalars and sparse linear algebra over Q(i).

Everything downstream (Clifford matrices, operator assembly, kernel
computations) runs on the two types defined here: :class:`GaussianRational`,
an element of Q(i) stored as one canonical integer triple (a + b i) / d, and
:class:`SparseMatrix`, Gaussian-integer rows {row: {col: (a, b)}} of Python
ints over one denominator per matrix, in canonical form.  There is no
floating point anywhere in this package.

Every matrix operation runs on those integer rows: construction, sums,
scaling, products, transposes, stacks and products with vectors bring their
operands to a common denominator and divide the result by its content once.
GaussianRational is the boundary type: values go in through the constructor
and ``from_entries``, and come out of ``get``, ``entries``, ``columns``,
``mul_vec``, kernel vectors and coefficient lists.

Elimination (``rref``, ``rank``, ``nullspace`` and what is built on them)
copies the integer rows, normalizes pivot rows by the conjugate of their
pivot, combines rows fraction-free and keeps them free of integer content.
One Gauss-Jordan loop does all of it; there is no modular or floating-point
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
_MINUS_ONE = GaussianRational(-1)


def qi(re, im=0):
    """Shorthand constructor used throughout the package and the tests."""
    return GaussianRational(re, im)


# ---------------------------------------------------------------------------
# sparse matrices
# ---------------------------------------------------------------------------


class SparseMatrix:
    """Immutable-by-convention sparse matrix over Q(i), row-major.

    Stored as Gaussian-integer rows ``num`` = {row: {col: (a, b)}} of Python
    ints over one denominator ``den`` > 0: the entry at (row, col) is
    (a + b i) / den.  The form is canonical: no zero entry and no empty row
    is stored, gcd(den, every a and b) == 1, and the zero matrix has
    den == 1.  Equal matrices therefore have equal (rows, cols, den, num),
    and every operation runs on Python ints.

    ``GaussianRational`` is the boundary type.  The constructor takes
    ``data`` = {row: {col: value}} and ``from_entries`` takes
    (row, col, value) triples; both drop zeros.  ``get``, ``entries``,
    ``columns``, ``mul_vec`` and the read-only ``data`` view give
    GaussianRational values.
    """

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, rows, cols, data=None):
        m = _from_values(
            rows, cols, ((r, c, v) for r, row in (data or _EMPTY).items() for c, v in row.items()))
        self.rows, self.cols, self.num, self.den = rows, cols, m.num, m.den

    @classmethod
    def from_entries(cls, rows, cols, entries):
        """The matrix of (row, col, value) triples; repeated positions are summed."""
        return _from_values(rows, cols, entries)

    @classmethod
    def from_int_blocks(cls, rows, cols, placed, den):
        """The matrix of (row offset, col offset, block) triples, each block a
        list of (row, col, a, b) entries meaning (a + b i) / den at the offset
        position.

        Every a + b i must be nonzero and every position inside the shape;
        repeated positions are summed.
        """
        return _reduced(rows, cols, _accumulate(placed), den)

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
        if not (scale and n):
            return cls.zero(n, n)
        v = (scale._a, scale._b)
        return _matrix(n, n, {i: {i: v} for i in range(n)}, scale._d)

    @classmethod
    def zero(cls, rows, cols):
        return _matrix(rows, cols, {}, 1)

    @classmethod
    def combination(cls, pairs):
        """The sum of c * m over the (m, c) pairs, matrices of one shape, in
        one pass over their integer rows."""
        if not pairs:
            raise ValueError("empty linear combination")
        rows, cols = pairs[0][0].rows, pairs[0][0].cols
        live = []
        den = 1
        for m, c in pairs:
            if m.rows != rows or m.cols != cols:
                raise ValueError("shape mismatch")
            if c.__class__ is not GaussianRational:
                c = _coerce(c)
            if m.num and (c._a or c._b):
                live.append((m, c))
                den = _lcm(den, m.den * c._d)
        num = {}
        for m, c in live:
            s = den // (m.den * c._d)
            p, q = c._a * s, c._b * s
            for r, row in m.num.items():
                tgt = num.get(r)
                if tgt is None:
                    num[r] = dict(row) if p == 1 and not q else \
                        {k: (a * p - b * q, a * q + b * p) for k, (a, b) in row.items()}
                    continue
                for k, (a, b) in row.items():
                    x, y = a * p - b * q, a * q + b * p
                    w = tgt.get(k)
                    if w is not None:
                        x += w[0]
                        y += w[1]
                        if not (x or y):
                            del tgt[k]
                            continue
                    tgt[k] = (x, y)
        if len(live) > 1:
            for r in [r for r, row in num.items() if not row]:
                del num[r]
        return _reduced(rows, cols, num, den)

    @classmethod
    def hstack(cls, blocks):
        """Horizontal stack [b_0 b_1 ...] of matrices with equal row counts."""
        if not blocks:
            raise ValueError("empty horizontal stack")
        rows = blocks[0].rows
        if any(b.rows != rows for b in blocks):
            raise ValueError("row mismatch in horizontal stack")
        den = _lcm(*(b.den for b in blocks))
        num = {}
        offset = 0
        for b in blocks:
            s = den // b.den
            for r, row in b.num.items():
                num.setdefault(r, {}).update(
                    {offset + c: (a * s, x * s) for c, (a, x) in row.items()})
            offset += b.cols
        # canonical: for each prime of den, the block holding its highest power has
        # a part that the prime does not divide
        return _matrix(rows, offset, num, den)

    # -- access -----------------------------------------------------------

    @property
    def data(self):
        """Read-only view {row: {col: GaussianRational}}, built on every access."""
        den = self.den
        return {r: {c: _gaussian(a, b, den) for c, (a, b) in row.items()}
                for r, row in self.num.items()}

    def get(self, r, c):
        w = self.num.get(r, _EMPTY).get(c)
        return QI_ZERO if w is None else _gaussian(w[0], w[1], self.den)

    def entries(self):
        """Sorted (row, col, value) triples."""
        den = self.den
        for r in sorted(self.num):
            row = self.num[r]
            for c in sorted(row):
                a, b = row[c]
                yield r, c, _gaussian(a, b, den)

    def num_entries(self):
        return sum(len(row) for row in self.num.values())

    def is_zero(self):
        return not self.num

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.den, self.num) \
            == (other.rows, other.cols, other.den, other.num)


    def __repr__(self):
        return "SparseMatrix(%dx%d, %d entries)" % (self.rows, self.cols, self.num_entries())

    # -- algebra ----------------------------------------------------------

    def __add__(self, other):
        return SparseMatrix.combination([(self, QI_ONE), (other, QI_ONE)])

    def __sub__(self, other):
        return SparseMatrix.combination([(self, QI_ONE), (other, _MINUS_ONE)])

    def __neg__(self):
        return self.scale(_MINUS_ONE)

    def scale(self, s):
        return SparseMatrix.combination([(self, s)])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch: %dx%d @ %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        num = {}
        onum = other.num
        for r, row in self.num.items():
            acc = {}
            for k, (a, b) in row.items():
                orow = onum.get(k)
                if orow is None:
                    continue
                for c, (x, y) in orow.items():
                    w = acc.get(c)
                    if w is None:
                        acc[c] = (a * x - b * y, a * y + b * x)
                    else:
                        acc[c] = (w[0] + a * x - b * y, w[1] + a * y + b * x)
            acc = {c: w for c, w in acc.items() if w[0] or w[1]}
            if acc:
                num[r] = acc
        return _reduced(self.rows, other.cols, num, self.den * other.den)

    def transpose(self):
        num = {}
        for r, row in self.num.items():
            for c, v in row.items():
                num.setdefault(c, {})[r] = v
        return _matrix(self.cols, self.rows, num, self.den)

    def columns(self):
        """col -> {row -> value} view (computed, not cached)."""
        den = self.den
        out = {}
        for r, row in self.num.items():
            for c, (a, b) in row.items():
                out.setdefault(c, {})[r] = _gaussian(a, b, den)
        return out

    def mul_vec(self, vec):
        """Matrix times sparse column vector (dict col -> value)."""
        vden, ivec = _int_vector(vec)
        den = self.den * vden
        out = {}
        for r, row in self.num.items():
            re = im = 0
            for c, (a, b) in row.items():
                w = ivec.get(c)
                if w is not None:
                    x, y = w
                    re += a * x - b * y
                    im += a * y + b * x
            if re or im:
                out[r] = _gaussian(re, im, den)
        return out

    def stack_below(self, other):
        """Vertical stack [self; other]."""
        if self.cols != other.cols:
            raise ValueError("column mismatch in vertical stack")
        den = _lcm(self.den, other.den)
        num = _scaled_rows(self.num, den // self.den)
        for r, row in _scaled_rows(other.num, den // other.den).items():
            num[r + self.rows] = row
        # canonical: for each prime of den, the half holding its highest power has
        # a part that the prime does not divide
        return _matrix(self.rows + other.rows, self.cols, num, den)

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


def _matrix(rows, cols, num, den):
    """A SparseMatrix of Gaussian-integer rows already in canonical form."""
    m = object.__new__(SparseMatrix)
    m.rows = rows
    m.cols = cols
    m.num = num
    m.den = den
    return m


def _reduced(rows, cols, num, den):
    """A SparseMatrix of nonzero Gaussian-integer rows over den > 0, divided
    in place by the gcd of den and every part."""
    g = 1 if den == 1 else _common_factor(num, den)
    if g != 1:
        for r, row in num.items():
            num[r] = {c: (a // g, b // g) for c, (a, b) in row.items()}
        den //= g
    return _matrix(rows, cols, num, den)


def _common_factor(num, g):
    """The gcd of g and every part of the rows, found once it reaches 1."""
    for row in num.values():
        for a, b in row.values():
            g = _gcd(g, a, b)
            if g == 1:
                return 1
    return g


def _scaled_rows(num, s):
    """A copy of Gaussian-integer rows times the integer s."""
    if s == 1:
        return {r: dict(row) for r, row in num.items()}
    return {r: {c: (a * s, b * s) for c, (a, b) in row.items()} for r, row in num.items()}


def _from_values(rows, cols, entries):
    """The SparseMatrix of (row, col, value) triples: values coerced to Q(i),
    brought to their common denominator and summed; zeros are dropped."""
    items = []
    den = 1
    for r, c, v in entries:
        if not (0 <= r < rows and 0 <= c < cols):
            raise IndexError("entry (%d, %d) outside %dx%d" % (r, c, rows, cols))
        if v.__class__ is not GaussianRational:
            v = _coerce(v)
        if v._a or v._b:
            items.append((r, c, v))
            if den % v._d:
                den = _lcm(den, v._d)
    if den == 1:
        block = [(r, c, v._a, v._b) for r, c, v in items]
    else:
        block = [(r, c, v._a * (den // v._d), v._b * (den // v._d)) for r, c, v in items]
    return _reduced(rows, cols, _accumulate([(0, 0, block)]), den)


def _accumulate(placed):
    """Rows {row: {col: (a, b)}} of blocks of nonzero Gaussian-integer
    (row, col, a, b) entries, each block placed at its (row, col) offset,
    summed at repeated positions; cancelled entries and rows left empty are
    dropped."""
    num = {}
    for r0, c0, block in placed:
        for r, c, a, b in block:
            r += r0
            row = num.get(r)
            if row is None:
                num[r] = {c + c0: (a, b)}
                continue
            c += c0
            w = row.get(c)
            if w is None:
                row[c] = (a, b)
                continue
            a += w[0]
            b += w[1]
            if a or b:
                row[c] = (a, b)
            else:
                del row[c]
    for r in [r for r, row in num.items() if not row]:
        del num[r]
    return num


def _int_vector(vec):
    """(den, {index: (a, b)}) of a sparse vector of values over their common
    denominator; zeros are dropped."""
    vals = [(c, v if v.__class__ is GaussianRational else _coerce(v)) for c, v in vec.items()]
    den = _lcm(*{v._d for _, v in vals})
    return den, {c: (v._a * (den // v._d), v._b * (den // v._d))
                 for c, v in vals if v._a or v._b}


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


# Elimination runs on copies of the matrix's Gaussian-integer rows
# {col: (re, im)}, which are den times the rows over Q(i).  A row is only
# ever replaced by an integer combination of rows, so pivots, row spaces and
# kernels are exactly those over Q(i).  A normalized pivot is a positive
# integer N, and every row is divided by its integer content after each
# step.  An RREF row is divided by its pivot N, a kernel entry is -x/N.


def _gauss_rows(m: SparseMatrix):
    """The rows of m as Gaussian-integer rows: copies of its numerator rows."""
    return [dict(row) for row in m.num.values()]


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
    den = _lcm(*(rows[r][c][0] for c, r in pivots))
    num = {}
    for i, (c, r) in enumerate(pivots):
        row, s = rows[r], den // rows[r][c][0]
        num[i] = row if s == 1 else {k: (a * s, b * s) for k, (a, b) in row.items()}
    return _reduced(m.rows, m.cols, num, den), [c for c, _ in pivots]


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
    cols = _gauss_columns(enumerate(rows))
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
    """col -> {row -> (re, im)} of (row, Gaussian-integer row) pairs."""
    out = {}
    for i, row in rows:
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


def column_product(m: SparseMatrix, vecs):
    """[m @ v for v in vecs], each walking only the columns v touches.

    The integer columns of m are built once for all the vectors; the cost
    is then the nnz of the touched columns, not of the whole matrix.
    """
    cols = _gauss_columns(m.num.items())
    out = []
    for vec in vecs:
        vden, ivec = _int_vector(vec)
        den = m.den * vden
        re, im = {}, {}
        for c, (x, y) in ivec.items():
            for r, (a, b) in cols.get(c, _EMPTY).items():
                re[r] = re.get(r, 0) + a * x - b * y
                im[r] = im.get(r, 0) + a * y + b * x
        out.append({r: _gaussian(a, im[r], den) for r, a in re.items() if a or im[r]})
    return out


def _canonical_basis(vectors, dim):
    """RREF the span of the given vectors: unique leading-one basis."""
    mat = SparseMatrix.from_entries(
        len(vectors), dim,
        ((i, c, v) for i, vec in enumerate(vectors) for c, v in vec.items()),
    )
    red, pivots = rref(mat)
    den = red.den
    return [{c: _gaussian(a, b, den) for c, (a, b) in red.num[i].items()}
            for i in range(len(pivots))]


def express_in_span(basis, targets, dim):
    """Solve sum_j x_j basis[j] = t exactly for each target t.

    basis and targets are sparse vectors (dict index -> GaussianRational) in a
    space of dimension ``dim``.  Returns a list of coefficient lists, or None
    if some target is outside the span.
    """
    k = len(basis)
    vectors = list(basis) + list(targets)
    # row i of the system is coordinate i of every vector
    mat = SparseMatrix.from_entries(
        dim, len(vectors),
        ((i, j, v) for j, vec in enumerate(vectors) for i, v in vec.items()))
    red, pivots = rref(mat)
    if pivots and pivots[-1] >= k:
        return None
    den = red.den
    out = []
    for t in range(k, len(vectors)):
        coeffs = [QI_ZERO] * k
        for i, c in enumerate(pivots):
            w = red.num[i].get(t)
            if w is not None:
                coeffs[c] = _gaussian(w[0], w[1], den)
        out.append(coeffs)
    return out
