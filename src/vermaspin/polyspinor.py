"""Spinor-valued polynomials, graded bases, and operator assembly.

A :class:`SpinorPoly` is a finite map from exponent tuples to sparse fiber
vectors.  A :class:`GradedBasis` fixes the deterministic ordering
(descending lex on exponents, then fiber index) used to turn operators into
matrices, so that every assembled matrix is reproducible bit for bit.

An :class:`OperatorSpec` is a symbolic sum of terms

    coeff * x^mono * M * d^deriv

with M a fiber matrix (None for the identity).  A spec maps polynomials
with values in a ``dim``-dimensional fiber to polynomials with values in a
``tdim``-dimensional one, so every M is tdim x dim.  Specs are closed under
sum, scaling and composition.  One fold, ``_fold``, is the normal form: it
leaves at most one nonzero term per (mono, deriv), folding identity terms
into the matrices of their key.  A fiber matrix that the engine creates, a
product or a folded total, is stored as the identity with its scalar in the
coefficient whenever it is a scalar multiple of the identity.  A product of
two fiber matrices labelled by one Clifford blade table
(:class:`vermaspin.clifford.BladeMatrix`), and a lone labelled matrix, is
read off the table instead: the table's shared Gamma_S object, or the
identity, with the label's scalar in the coefficient.  So gamma_a gamma_b
and gamma_b gamma_a land on one object, and the fold cancels them by
summing coefficients.  ``combined()``
returns the fold, ``is_zero`` and ``nonzero_keys`` read it, and composition
streams the terms of one Leibniz kernel, ``_leibniz``, into it through
``_merged``.
:func:`assemble` is the one routine that turns a spec into an exact sparse
matrix between graded components; :meth:`OperatorSpec.apply` goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import lcm
from operator import add, itemgetter
from typing import NamedTuple

from .clifford import BladeMatrix
from .exact import (
    GaussianRational,
    SparseMatrix,
    QI_ONE,
    qi,
)

__all__ = [
    "monomials",
    "SpinorPoly",
    "GradedBasis",
    "OpTerm",
    "OperatorSpec",
    "LinearOperator",
    "assemble",
]


@lru_cache(maxsize=None)
def monomials(n, degree):
    """All exponent tuples of length n and total degree d, descending lex."""
    if degree < 0:
        return ()
    if n == 1:
        return ((degree,),)
    out = []
    for first in range(degree, -1, -1):
        for rest in monomials(n - 1, degree - first):
            out.append((first,) + rest)
    return tuple(out)


def mono_degree(mono):
    return sum(mono)


class SpinorPoly:
    """Polynomial with values in a fiber of dimension ``dim``.

    terms: exponent tuple -> {fiber index -> GaussianRational}; zero vectors
    are never stored.
    """

    __slots__ = ("n", "dim", "terms")

    def __init__(self, n, dim, terms=None):
        self.n = n
        self.dim = dim
        self.terms = {}
        if terms:
            for mono, vec in terms.items():
                vec = {i: v for i, v in vec.items() if v}
                if vec:
                    self.terms[mono] = vec

    @classmethod
    def zero(cls, n, dim):
        return cls(n, dim)

    @classmethod
    def constant(cls, n, dim, fiber_index, coeff=QI_ONE):
        return cls(n, dim, {(0,) * n: {fiber_index: coeff}})

    @classmethod
    def monomial(cls, n, dim, mono, fiber_index, coeff=QI_ONE):
        return cls(n, dim, {tuple(mono): {fiber_index: coeff}})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = {m: dict(v) for m, v in self.terms.items()}
        for m, vec in other.terms.items():
            tgt = out.setdefault(m, {})
            for i, v in vec.items():
                w = tgt.get(i)
                nv = v if w is None else w + v
                if nv:
                    tgt[i] = nv
                elif i in tgt:
                    del tgt[i]
            if not tgt:
                del out[m]
        return SpinorPoly(self.n, self.dim, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s):
        s = s if isinstance(s, GaussianRational) else qi(s)
        if not s:
            return SpinorPoly.zero(self.n, self.dim)
        return SpinorPoly(self.n, self.dim,
                          {m: {i: v * s for i, v in vec.items()}
                           for m, vec in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, SpinorPoly) and self.n == other.n \
            and self.dim == other.dim and self.terms == other.terms

    def degrees(self):
        return sorted({mono_degree(m) for m in self.terms})

    def homogeneous_degree(self):
        """The common degree of all terms, or None for mixed/zero."""
        degs = self.degrees()
        return degs[0] if len(degs) == 1 else None

    def __repr__(self):
        return "SpinorPoly(n=%d, dim=%d, %d terms)" % (self.n, self.dim, len(self.terms))


class GradedBasis:
    """Ordered basis of the degree-d component: (monomial, fiber index) pairs."""

    __slots__ = ("n", "dim", "degree", "monos", "_mono_index")

    def __init__(self, n, dim, degree):
        self.n = n
        self.dim = dim
        self.degree = degree
        self.monos = monomials(n, degree) if degree >= 0 else ()
        self._mono_index = {m: k for k, m in enumerate(self.monos)}

    @property
    def size(self):
        return len(self.monos) * self.dim

    def index(self, mono, fiber_index):
        return self._mono_index[mono] * self.dim + fiber_index

    def element(self, idx):
        return self.monos[idx // self.dim], idx % self.dim

    def coordinates(self, poly: SpinorPoly):
        """Sparse coordinate vector of a homogeneous polynomial."""
        if (poly.n, poly.dim) != (self.n, self.dim):
            raise ValueError("a polynomial in %d variables with %d-dimensional values is not in "
                             "the basis of %d variables with %d-dimensional values"
                             % (poly.n, poly.dim, self.n, self.dim))
        out = {}
        try:
            for m, vec in poly.terms.items():
                base = self._mono_index[m] * self.dim
                for i, v in vec.items():
                    out[base + i] = v
        except KeyError:
            degree = poly.homogeneous_degree()
            raise ValueError("a polynomial of %s is not in the basis of degree %d"
                             % ("mixed degree" if degree is None else "degree %d" % degree,
                                self.degree)) from None
        return out

    def from_coordinates(self, coords):
        terms = {}
        for idx, v in coords.items():
            if not v:
                continue
            m, i = self.element(idx)
            terms.setdefault(m, {})[i] = v
        return SpinorPoly(self.n, self.dim, terms)


class OpTerm(NamedTuple):
    """One summand coeff * x^mono * mat * d^deriv."""

    mono: tuple
    deriv: tuple
    mat: SparseMatrix | None
    coeff: GaussianRational

    @property
    def shift(self):
        return mono_degree(self.mono) - mono_degree(self.deriv)


class OperatorSpec:
    """Symbolic differential operator from dim- to tdim-valued polynomials.

    ``tdim`` defaults to ``dim``.  Every term matrix is tdim x dim, and an
    identity term (mat None) needs tdim == dim.
    """

    __slots__ = ("n", "dim", "tdim", "terms")

    def __init__(self, n, dim, terms=(), tdim=None):
        self.n = n
        self.dim = dim
        self.tdim = dim if tdim is None else tdim
        self.terms = [t for t in terms if t.coeff]
        for t in self.terms:
            shape = (self.dim, self.dim) if t.mat is None else (t.mat.rows, t.mat.cols)
            if shape != (self.tdim, self.dim):
                raise ValueError("term of shape %dx%d in a %dx%d operator spec"
                                 % (shape + (self.tdim, self.dim)))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n, dim):
        return cls(n, dim)

    @classmethod
    def scalar(cls, n, dim, value):
        value = value if isinstance(value, GaussianRational) else qi(value)
        z = (0,) * n
        return cls(n, dim, [OpTerm(z, z, None, value)])

    @classmethod
    def coordinate(cls, n, dim, i, coeff=QI_ONE):
        """Multiplication by x_i (1-based)."""
        return cls.monomial_mult(n, dim, i, 1, coeff)

    @classmethod
    def monomial_mult(cls, n, dim, i, power, coeff=QI_ONE):
        """Multiplication by x_i^power (1-based)."""
        z = (0,) * n
        coeff = coeff if isinstance(coeff, GaussianRational) else qi(coeff)
        mono = tuple(power if k == i - 1 else 0 for k in range(n))
        return cls(n, dim, [OpTerm(mono, z, None, coeff)])

    @classmethod
    def derivative(cls, n, dim, i, coeff=QI_ONE):
        """d/dx_i (1-based)."""
        z = (0,) * n
        coeff = coeff if isinstance(coeff, GaussianRational) else qi(coeff)
        deriv = tuple(1 if k == i - 1 else 0 for k in range(n))
        return cls(n, dim, [OpTerm(z, deriv, None, coeff)])

    @classmethod
    def fiber(cls, n, mat: SparseMatrix, coeff=QI_ONE):
        z = (0,) * n
        coeff = coeff if isinstance(coeff, GaussianRational) else qi(coeff)
        return cls(n, mat.cols, [OpTerm(z, z, mat, coeff)], mat.rows)

    # -- algebra -------------------------------------------------------------

    def __add__(self, other):
        if (self.n, self.dim, self.tdim) != (other.n, other.dim, other.tdim):
            raise ValueError("operator spec shape mismatch")
        return OperatorSpec(self.n, self.dim, self.terms + other.terms, self.tdim)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s):
        s = s if isinstance(s, GaussianRational) else qi(s)
        return OperatorSpec(self.n, self.dim,
                            [OpTerm(t.mono, t.deriv, t.mat, t.coeff * s)
                             for t in self.terms], self.tdim)

    def compose(self, other):
        """self after other, normal-ordered exactly (Leibniz reordering).

        other maps dim- to other.tdim-valued polynomials and self continues
        from there, so self.dim == other.tdim; the result maps other.dim- to
        self.tdim-valued polynomials.  The result is already merged.
        """
        return _product_sum([(self, other)])

    def combined(self):
        """The canonical form: at most one term per (mono, deriv), none zero.

        Per key the coefficients of each matrix object are summed.  A lone
        surviving object keeps its summed coefficient and is stored as it
        came; several, the identity among them as ``SparseMatrix.identity``,
        become one ``SparseMatrix.combination``, stored as the identity (None)
        with s as its coefficient when it equals s times the identity.  A key
        whose operator is zero, a lone zero fiber matrix included, is dropped.
        """
        return _merged(self.n, self.dim, self.tdim, self.terms)

    def nonzero_keys(self):
        """How many (mono, deriv) keys carry a nonzero fiber operator: the
        length of the canonical form.  Normal-ordered terms of distinct keys
        are independent."""
        return len(_fold(self.dim, self.terms))

    def is_zero(self):
        """Whether the spec is the zero operator: its canonical form is empty."""
        return not _fold(self.dim, self.terms)

    def shifts(self):
        return sorted({t.shift for t in self.terms})

    # -- action --------------------------------------------------------------

    def apply(self, poly: SpinorPoly) -> SpinorPoly:
        """Exact application, one assembled matrix per degree and shift.

        Supports mixed-degree polynomials and mixed-shift specs.
        """
        if poly.n != self.n or poly.dim != self.dim:
            raise ValueError("polynomial shape mismatch")
        by_degree = {}
        for mono, vec in poly.terms.items():
            by_degree.setdefault(mono_degree(mono), {})[mono] = vec
        out = SpinorPoly.zero(self.n, self.tdim)
        for shift in self.shifts():
            part = OperatorSpec(self.n, self.dim,
                                [t for t in self.terms if t.shift == shift], self.tdim)
            for degree, terms in by_degree.items():
                op = assemble(part, degree)
                coords = op.source.coordinates(SpinorPoly(self.n, self.dim, terms))
                out = out + op.target.from_coordinates(op.matrix.mul_vec(coords))
        return out

    def __repr__(self):
        return "OperatorSpec(n=%d, dim=%d, tdim=%d, %d terms)" % (
            self.n, self.dim, self.tdim, len(self.terms))


def _falling(mono, deriv):
    """Product of falling factorials d^deriv x^mono -> coefficient, or None."""
    out = 1
    for a, b in zip(mono, deriv):
        if b == 0:
            continue
        if a < b:
            return None
        for k in range(a, a - b, -1):
            out *= k
    return out


@lru_cache(maxsize=None)
def _reorder_1d(d, m):
    """d^d x^m = sum_s C(d,s) m!/(m-s)! x^(m-s) d^(d-s); list of (s, coeff)."""
    from math import comb
    out = []
    top = min(d, m)
    for s in range(top + 1):
        c = comb(d, s)
        for k in range(m, m - s, -1):
            c *= k
        out.append((s, c))
    return tuple(out)


def _fold(dim, terms):
    """The canonical OpTerms of (mono, deriv, mat, coeff) tuples (see combined):
    a combined total equal to s times the identity becomes the identity (None)
    with coefficient s; a lone input matrix is kept as it is."""
    folded = {}
    for mono, deriv, mat, coeff in terms:
        by_mat = folded.setdefault((mono, deriv), {})
        cur = by_mat.get(id(mat))
        by_mat[id(mat)] = (mat, coeff if cur is None else cur[1] + coeff)
    out = []
    for (mono, deriv), by_mat in folded.items():
        live = [(m, c) for m, c in by_mat.values() if c]
        if len(live) == 1:
            mat = live[0][0]
            if mat is None or not mat.is_zero():
                out.append(OpTerm(mono, deriv, *live[0]))
        elif live:
            total = SparseMatrix.combination(
                [(SparseMatrix.identity(dim) if m is None else m, c) for m, c in live])
            if not total.is_zero():
                s = total.as_scalar()
                out.append(OpTerm(mono, deriv, total, QI_ONE) if s is None
                           else OpTerm(mono, deriv, None, s))
    return out


def _merged(n, dim, tdim, terms):
    """The spec of (mono, deriv, mat, coeff) tuples in canonical form."""
    return OperatorSpec(n, dim, _fold(dim, terms), tdim)


def _product_sum(pairs):
    """Sum of a after b over the (a, b) pairs, normal-ordered and merged once.

    Every pair must map the same source to the same target.  The Leibniz
    terms of all products stream into one merge, so no product is merged
    on its own first.
    """
    a0, b0 = pairs[0]
    for a, b in pairs:
        if (a.n, a.dim, a.tdim, b.dim) != (b.n, b.tdim, a0.tdim, b0.dim):
            raise ValueError("operator spec shape mismatch")
    return _merged(a0.n, b0.dim, a0.tdim, _leibniz(pairs))


def _commutator(a, b, y=None, c=0):
    """[a, b] - c y, one :func:`_product_sum` stream merged once."""
    extra = [] if y is None else [(y.scale(-c), OperatorSpec.scalar(y.n, y.dim, QI_ONE))]
    return _product_sum([(a, b), (b.scale(-1), a)] + extra)


def _fiber_product(M1, M2):
    """(M1 M2, None), with None for the identity; (None, s) when the product
    is s times the identity, and (False, None) when it is zero.

    A product of two matrices one blade table labels, or a lone labelled
    matrix, is read off the table as (Gamma, s): the table's shared Gamma
    object (None for the identity) and the scalar s, with no matrix product.
    """
    if M1 is None or M2 is None:
        mat = M2 if M1 is None else M1
        if mat.__class__ is BladeMatrix:
            return _blade_term(mat.table, mat.mask, mat.scalar)
    elif M1.__class__ is BladeMatrix and M2.__class__ is BladeMatrix and M1.table is M2.table:
        return _blade_term(M1.table, *M1.table.times(M1, M2))
    else:
        mat = M1 @ M2
        s = mat.as_scalar()
        if s is not None:
            return None, s
    return (False if mat is not None and mat.is_zero() else mat), None


def _blade_term(table, mask, s):
    return (table.blade(mask) if mask else None), s


def _leibniz(pairs):
    """Normal-ordered (mono, deriv, mat, coeff) terms of a after b, over the pairs.

    (x^m1 M1 d^d1)(x^m2 M2 d^d2) is the sum over s of the Leibniz factors
    times x^(m1+m2-s) M1 M2 d^(d1+d2-s), s running only over the coordinates
    where d1 and m2 are both nonzero.  Each fiber product is computed once
    per call, keyed by the operands' ids (all alive for the whole call); a
    zero fiber matrix or product yields no term (None is the identity), and
    a product equal to s times the identity is yielded as None with s moved
    into the coefficient, so no later product or fold handles it as a matrix.
    Blade-labelled matrices are read off their table (``_fiber_product``).
    """
    products = {}
    for a, b in pairs:
        for m1, d1, M1, c1 in a.terms:
            moving = [k for k, e in enumerate(d1) if e]
            for m2, d2, M2, c2 in b.terms:
                key = (id(M1), id(M2))
                try:
                    mat, s = products[key]
                except KeyError:
                    mat, s = products[key] = _fiber_product(M1, M2)
                if mat is False:
                    continue
                mono = tuple(map(add, m1, m2))
                deriv = tuple(map(add, d1, d2))
                coeff = c1 * c2 if s is None else c1 * c2 * s
                inter = [k for k in moving if m2[k]]
                if not inter:
                    yield mono, deriv, mat, coeff
                    continue
                for choice in product(*[_reorder_1d(d1[k], m2[k]) for k in inter]):
                    mo, de, f = list(mono), list(deriv), 1
                    for k, (s, c) in zip(inter, choice):
                        mo[k] -= s
                        de[k] -= s
                        f *= c
                    yield tuple(mo), tuple(de), mat, coeff if f == 1 else coeff * f


@dataclass
class LinearOperator:
    """Assembled exact matrix between graded components."""

    matrix: SparseMatrix
    source: GradedBasis
    target: GradedBasis

    def to_json(self):
        obj = self.matrix.to_json()
        obj["source_degree"] = self.source.degree
        obj["target_degree"] = self.target.degree
        obj["fiber_dim"] = self.source.dim
        return obj


def _fiber_block(mat, dim, p, q):
    """(row, col, a, b) Gaussian-integer entries of (p + q i) times the
    numerator rows of M on one monomial's fiber block.

    ``mat`` is M, or None for the identity.  Entries come in fiber column
    order, then in the column's own order.
    """
    if mat is None:
        return [(i, i, p, q) for i in range(dim)]
    block = [(r, i, p * x - q * y, p * y + q * x)
             for r, row in mat.num.items() for i, (x, y) in row.items()]
    block.sort(key=itemgetter(1))
    return block


def assemble(spec: OperatorSpec, src_degree, bases=None, monos=None) -> LinearOperator:
    """Exact matrix of a uniform-shift spec on the degree-d component.

    ``bases(degree, dim)`` supplies the graded bases (a Context passes its
    cached ``graded_basis``); by default fresh ones are built.  A spec with
    mixed degree shifts is rejected ("non-homogeneous spec"); a negative
    target degree yields a valid empty-codomain matrix.  The matrix is built
    as Gaussian-integer entries over one denominator, the lcm over the terms
    of coeff's denominator times M's.  Given a set ``monos`` of source
    monomials, only their columns are built: the matrix keeps its full shape
    and is the whole one with every other column zero.
    """
    shifts = spec.shifts()
    if len(shifts) > 1:
        raise ValueError("non-homogeneous spec: degree shifts %s" % shifts)
    shift = shifts[0] if shifts else 0
    if bases is None:
        def bases(degree, dim):
            return GradedBasis(spec.n, dim, degree)
    src = bases(src_degree, spec.dim)
    tgt = bases(src_degree + shift, spec.tdim)
    term_dens = [t.coeff._d * (1 if t.mat is None else t.mat.den) for t in spec.terms]
    den = lcm(*term_dens)
    columns = [(k, mono) for k, mono in enumerate(src.monos) if monos is None or mono in monos]
    falls = {}  # deriv -> the falling factor of every built source monomial
    placed = []
    for t, term_den in zip(spec.terms, term_dens):
        s = den // term_den
        p, q = t.coeff._a * s, t.coeff._b * s
        ffs = falls.get(t.deriv)
        if ffs is None:
            ffs = falls[t.deriv] = [_falling(mono, t.deriv) for _, mono in columns]
        move = tuple(c - b for b, c in zip(t.deriv, t.mono))
        blocks = {}
        for (k, mono), ff in zip(columns, ffs):
            if ff is None:
                continue
            block = blocks.get(ff)
            if block is None:
                block = blocks[ff] = _fiber_block(t.mat, spec.dim, p * ff, q * ff)
            col_base = k * spec.dim
            row_base = tgt.index(tuple(map(add, mono, move)), 0)
            placed.append((row_base, col_base, block))
    matrix = SparseMatrix.from_int_blocks(tgt.size, src.size, placed, den)
    return LinearOperator(matrix, src, tgt)
