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
sum, scaling and composition; composition streams the terms of one
Leibniz kernel, ``_leibniz``, into ``_merged``, the merge of ``combined()``.
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

from .exact import (
    GaussianRational,
    SparseMatrix,
    QI_ONE,
    QI_ZERO,
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

    def to_json(self):
        terms = []
        for m in sorted(self.terms, reverse=True):
            vec = self.terms[m]
            terms.append({
                "exponents": list(m),
                "vector": [[i, vec[i].to_string()] for i in sorted(vec)],
            })
        return {"n": self.n, "fiber_dim": self.dim, "terms": terms}

    @classmethod
    def from_json(cls, obj):
        terms = {}
        for t in obj["terms"]:
            terms[tuple(t["exponents"])] = {
                int(i): GaussianRational.from_string(s) for i, s in t["vector"]
            }
        return cls(obj["n"], obj["fiber_dim"], terms)

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
        """Merge like terms, one (mono, deriv) at a time.

        Identity-fiber terms sum their coefficients.  Matrix terms first sum
        the coefficients of each matrix object; a lone surviving matrix keeps
        its summed coefficient, and several become one
        ``SparseMatrix.combination``.  Terms that cancel are dropped.
        """
        return _merged(self.n, self.dim, self.tdim, self.terms)

    def nonzero_keys(self):
        """How many (mono, deriv) keys carry a nonzero fiber operator.

        Normal-ordered terms of distinct keys are independent.  The raw terms
        are folded in one pass, with no ``combined()`` first: per key, the
        coefficients of each matrix object are summed, identity terms as the
        one ``SparseMatrix.identity``, and the live pairs become one
        ``SparseMatrix.combination``.  A key whose coefficients all cancel,
        or whose matrices sum to zero, is not counted.
        """
        ident = SparseMatrix.identity(self.dim)
        folded = {}
        for mono, deriv, mat, coeff in self.terms:
            if mat is None:
                mat = ident
            by_mat = folded.setdefault((mono, deriv), {})
            cur = by_mat.get(id(mat))
            by_mat[id(mat)] = (mat, coeff if cur is None else cur[1] + coeff)
        count = 0
        for by_mat in folded.values():
            live = [(m, c) for m, c in by_mat.values() if c]
            if live and not SparseMatrix.combination(live).is_zero():
                count += 1
        return count

    def is_zero(self):
        """Whether the spec is the zero operator: no key is nonzero."""
        return self.nonzero_keys() == 0

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


def _merged(n, dim, tdim, terms):
    """The spec of (mono, deriv, mat, coeff) tuples, like terms merged (see combined)."""
    scalars = {}
    matrices = {}
    for mono, deriv, mat, coeff in terms:
        key = (mono, deriv)
        if mat is None:
            scalars[key] = scalars.get(key, QI_ZERO) + coeff
        else:
            by_mat = matrices.setdefault(key, {})
            cur = by_mat.get(id(mat))
            by_mat[id(mat)] = (mat, coeff if cur is None else cur[1] + coeff)
    out = [OpTerm(key[0], key[1], None, c) for key, c in scalars.items() if c]
    for key, by_mat in matrices.items():
        live = [(m, c) for m, c in by_mat.values() if c]
        if len(live) == 1:
            out.append(OpTerm(key[0], key[1], *live[0]))
            continue
        if live:
            total = SparseMatrix.combination(live)
            if not total.is_zero():
                out.append(OpTerm(key[0], key[1], total, QI_ONE))
    return OperatorSpec(n, dim, out, tdim)


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


def _leibniz(pairs):
    """Normal-ordered (mono, deriv, mat, coeff) terms of a after b, over the pairs.

    (x^m1 M1 d^d1)(x^m2 M2 d^d2) is the sum over s of the Leibniz factors
    times x^(m1+m2-s) M1 M2 d^(d1+d2-s), s running only over the coordinates
    where d1 and m2 are both nonzero.  Each fiber product is computed once
    per call, keyed by the operands' ids (all alive for the whole call); a
    zero fiber matrix or product yields no term (None is the identity).
    """
    products = {}
    for a, b in pairs:
        for m1, d1, M1, c1 in a.terms:
            moving = [k for k, e in enumerate(d1) if e]
            for m2, d2, M2, c2 in b.terms:
                key = (id(M1), id(M2))
                try:
                    mat = products[key]
                except KeyError:
                    mat = M2 if M1 is None else M1 if M2 is None else M1 @ M2
                    mat = products[key] = mat if mat is None or not mat.is_zero() else False
                if mat is False:
                    continue
                mono = tuple(map(add, m1, m2))
                deriv = tuple(map(add, d1, d2))
                coeff = c1 * c2
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


def assemble(spec: OperatorSpec, src_degree, bases=None) -> LinearOperator:
    """Exact matrix of a uniform-shift spec on the degree-d component.

    ``bases(degree, dim)`` supplies the graded bases (a Context passes its
    cached ``graded_basis``); by default fresh ones are built.  A spec with
    mixed degree shifts is rejected ("non-homogeneous spec"); a negative
    target degree yields a valid empty-codomain matrix.  The matrix is built
    as Gaussian-integer entries over one denominator, the lcm over the terms
    of coeff's denominator times M's.
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
    falls = {}  # deriv -> the falling factor of every source monomial
    placed = []
    for t, term_den in zip(spec.terms, term_dens):
        s = den // term_den
        p, q = t.coeff._a * s, t.coeff._b * s
        ffs = falls.get(t.deriv)
        if ffs is None:
            ffs = falls[t.deriv] = [_falling(mono, t.deriv) for mono in src.monos]
        move = tuple(c - b for b, c in zip(t.deriv, t.mono))
        blocks = {}
        for k, (mono, ff) in enumerate(zip(src.monos, ffs)):
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
