"""Monogenic spaces and the Fischer decomposition.

M_a is the kernel of the Dirac operator D = sum_j G_j d_j on the degree-a
component of the spinor-valued polynomials; the whole polynomial space
decomposes exactly as the direct sum of X^b M_a over a, b >= 0.  Each M_a is
built by the Cauchy-Kovalevskaya extension in x_n (Delanghe, Sommen and
Soucek 1992), and no dimension formula is assumed anywhere: writing
F = sum_k x_n^k F_k with F_k free of x_n, DF = 0 is the recursion
(k+1) F_(k+1) = A F_k with A = sum_(j<n) B_j d_j, B_j = eps_n G_n G_j, as G_n
is invertible (G_n^2 = -eps_n I).  So restriction to x_n = 0 is injective on
M_a, and each x_n-free f (x) e_s of degree a extends to exactly one element
of M_a; together they are a basis.  The premises are the Clifford relations,
which the model's blade table checks, and every extension is then checked
exactly against D, so no M_a is found by elimination.  Dimensions are later
*checked* against the telescoping rule, not produced by it.

For even n, M_a = M_a^+ + M_a^- splits by chirality: D anticommutes with
the volume element, and in both gamma models that element is diagonal +-1,
so each kernel vector is tagged by the half its support lies in; no
projection or second elimination is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import factorial, gcd

from .clifford import _UNITS
# nullspace and assemble are not called here; perfbench/check_tracer.py
# checks that this module binds them
from .exact import (SparseMatrix, nullspace, check_kernel,  # noqa: F401
                    kernel_vectors, _divide_content)
from .polyspinor import GradedBasis, assemble, monomials  # noqa: F401
from .realization import _osp_cached
from .context import Context

__all__ = [
    "MonogenicBasis",
    "monogenic_basis",
    "monogenic_dim",
    "dirac_matrix",
    "x_mult_matrix",
    "x_power_matrix",
]


@dataclass
class MonogenicBasis:
    """Canonical basis of M_a, with per-element chirality tags for even n.

    ``rows`` are the RREF basis of the kernel as Gaussian-integer coordinate
    dicts in the degree-a graded basis, each a positive integer multiple of
    its basis vector and free of integer content: the rows ``nullspace`` of D
    would return, built without elimination, and for even n grouped by
    chirality half.  The ``vectors`` (their GaussianRational coordinate
    dicts, leading entry 1) and the ``elements`` polynomials are built from
    them on first use.
    """

    degree: int
    rows: list
    chirality: list  # '+', '-' or None per element
    basis: GradedBasis = field(repr=False, compare=False)

    @cached_property
    def vectors(self):
        return kernel_vectors(self.rows)

    @cached_property
    def elements(self):
        return [self.basis.from_coordinates(v) for v in self.vectors]


def dirac_matrix(ctx: Context, degree):
    """Assembled Dirac operator on the degree-d component (cached)."""
    return ctx.assemble_cached("dirac", _osp_cached(ctx.rep).D, degree)


def x_mult_matrix(ctx: Context, degree):
    return ctx.assemble_cached("xmult", _osp_cached(ctx.rep).X, degree)


def x_power_matrix(ctx: Context, k, degree):
    """Matrix of multiplication by X^k from degree d to degree d + k."""
    if k < 0:
        raise ValueError("X^%d: the power must be at least 0" % k)

    def build():
        if k == 0:
            return SparseMatrix.identity(ctx.graded_basis(degree).size)
        return x_mult_matrix(ctx, degree + k - 1).matrix @ x_power_matrix(ctx, k - 1, degree)
    return ctx.cached(("xpow", k, degree), build)


def _laplacian(poly, weights):
    """sum_j weights[j] d_j^2 of a scalar polynomial {exponents: int}."""
    out = {}
    for g, c in poly.items():
        for j, e in enumerate(g):
            if e > 1:
                h = g[:j] + (e - 2,) + g[j + 1:]
                out[h] = out.get(h, 0) + weights[j] * e * (e - 1) * c
    return {h: c for h, c in out.items() if c}


def _extension_rows(table, basis: GradedBasis):
    """The kernel rows of D in degree a, by Cauchy-Kovalevskaya extension in x_n.

    For each x_n-free monomial f of degree a, in basis order, and each fiber
    index s, the row is a! sum_k x_n^k A^k (f (x) e_s) / k!, over its
    integer content.  With L = -eps_n sum_(j<n) eps_j d_j^2 = A^2 on scalar
    polynomials, the even and odd parts are

        x_n^(2l) (L^l f) (x) e_s  and  x_n^(2l+1) sum_(j<n) (d_j L^l f) (x) B_j e_s,

    and the scalar polynomials L^l f and d_j L^l f are computed once per f,
    with their common integer factor divided out.
    B_j e_s is one unit entry, read off the model's unit-per-row tables.
    ``table.check()`` verifies the Clifford relations (A^2 = L) and
    G_n^2 = -eps_n I first; degree 0 gives the identity rows and reads no
    gamma.  Raises ArithmeticError, naming the degree, if a row does not
    lead at its own f (x) e_s.
    """
    n, dim, a = basis.n, basis.dim, basis.degree
    if a == 0:
        return [{s: (1, 0)} for s in range(dim)]
    table.check()
    eps = [table.sig.eps(j) for j in range(1, n + 1)]
    flip = 0 if eps[-1] > 0 else 2
    # units[j][s] = (r, u): B_(j+1) e_s = u e_r
    units = []
    for gj in table.rows[:-1]:
        column = [None] * dim
        for r, (c, e) in enumerate(table.rows[-1]):
            c2, e2 = gj[c]
            column[c2] = (r, _UNITS[(e + e2 + flip) & 3])
        units.append(column)
    lap = [-eps[-1] * e for e in eps[:-1]]
    weights = [factorial(a) // factorial(k) for k in range(a + 1)]
    rows = []
    for f in monomials(n - 1, a):
        # the scalar parts, keyed by the column of their monomial times e_0:
        # even [(col, c)], odd {col: [(j, c)]} for the terms c x^g (x) B_(j+1)
        even, odd = [], {}
        poly, k = {f: 1}, 0
        while poly:
            even.extend((basis.index(g + (k,), 0), c * weights[k]) for g, c in poly.items())
            for j in range(n - 1):
                for g, c in poly.items():
                    e = g[j]
                    if e:
                        col = basis.index(g[:j] + (e - 1,) + g[j + 1:] + (k + 1,), 0)
                        odd.setdefault(col, []).append((j, c * e * weights[k + 1]))
            poly, k = _laplacian(poly, lap), k + 2
        content = gcd(*(c for _, c in even), *(c for terms in odd.values() for _, c in terms))
        if content > 1:
            even = [(col, c // content) for col, c in even]
            odd = {col: [(j, c // content) for j, c in terms] for col, terms in odd.items()}
        lead = basis.index(f + (0,), 0)
        for s in range(dim):
            row = {col + s: (c, 0) for col, c in even}
            for col, terms in odd.items():
                for j, c in terms:
                    r, (x, y) = units[j][s]
                    old = row.get(col + r)
                    if old is None:
                        row[col + r] = (c * x, c * y)
                    elif old[0] + c * x or old[1] + c * y:
                        row[col + r] = (old[0] + c * x, old[1] + c * y)
                    else:
                        del row[col + r]
            _divide_content(row)
            if min(row) != lead + s:
                raise ArithmeticError("degree %d: the extension of column %d leads at column %d"
                                      % (a, lead + s, min(row)))
            rows.append(row)
    return rows


def monogenic_basis(ctx: Context, a) -> MonogenicBasis:
    """Exact basis of M_a = ker D in degree a, chirality-refined for even n.

    The basis is the RREF basis of the kernel, built by
    :func:`_extension_rows`: ``nullspace`` pivots from the last column, so
    its free columns are the x_n-free monomials, and the extension of each
    is its RREF row.  Every row is checked against D by ``check_kernel``,
    whose ArithmeticError names the degree.  For even n, D
    anticommutes with the volume element, which is diagonal in the fiber,
    so every kernel vector lies in one half: the + rows come first, then
    the - rows, each in kernel order (together the RREF bases of M_a^+ and
    M_a^-).  The tags are read off the supports of the integer rows.
    """
    if a < 0:
        raise ValueError("degree must be nonnegative")

    def build():
        basis = ctx.graded_basis(a)
        kernel = _extension_rows(ctx.rep.table, basis)
        check_kernel(kernel, dirac_matrix(ctx, a).matrix, "degree %d: " % a)
        if ctx.chirality is None:
            rows, tags = kernel, [None] * len(kernel)
        else:
            halves = {"+": [], "-": []}
            for w in kernel:
                halves[ctx.chirality.half_of((i % basis.dim for i in w), a)].append(w)
            rows = halves["+"] + halves["-"]
            tags = ["+"] * len(halves["+"]) + ["-"] * len(halves["-"])
        return MonogenicBasis(degree=a, rows=rows, chirality=tags, basis=basis)
    return ctx.cached(("monogenic", a), build)


def monogenic_dim(ctx: Context, a) -> int:
    return len(monogenic_basis(ctx, a).rows)

