"""Monogenic spaces and the Fischer decomposition.

M_a is the kernel of the Dirac operator on the degree-a component of the
spinor-valued polynomials; the whole polynomial space decomposes exactly as
the direct sum of X^b M_a over a, b >= 0.  Everything here is computed by
exact kernel extraction and exact linear solves; no dimension formula is
assumed anywhere (dimensions are later *checked* against the telescoping
rule, not produced by it).

For even n, M_a = M_a^+ + M_a^- splits by chirality (Delanghe, Sommen and
Soucek 1992): D anticommutes with the volume element, and in both gamma
models that element is diagonal +-1, so each kernel vector is tagged by the
half its support lies in; no projection or second elimination is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .exact import SparseMatrix, nullspace, kernel_vectors, express_in_span
from .polyspinor import GradedBasis, SpinorPoly, assemble
from .realization import _osp_cached
from .context import Context

__all__ = [
    "MonogenicBasis",
    "FischerComponent",
    "monogenic_basis",
    "monogenic_dim",
    "fischer_decompose",
    "apply_x_power",
    "dirac_matrix",
    "x_mult_matrix",
    "x_power_matrix",
]


@dataclass
class MonogenicBasis:
    """Canonical basis of M_a, with per-element chirality tags for even n.

    ``rows`` are the kernel rows ``nullspace`` returns, in chirality order:
    Gaussian-integer coordinate dicts in the degree-a graded basis, each a
    positive integer multiple of its basis vector.  The ``vectors`` (their
    GaussianRational coordinate dicts, leading entry 1) and the ``elements``
    polynomials are built from them on first use.
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


@dataclass
class FischerComponent:
    """One summand X^k (part) with part a monogenic polynomial of degree m."""

    k: int
    m: int
    part: SpinorPoly


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


def monogenic_basis(ctx: Context, a) -> MonogenicBasis:
    """Exact basis of M_a = ker D in degree a, chirality-refined for even n.

    The basis is the RREF basis of the kernel.  For even n, D anticommutes
    with the volume element, which is diagonal in the fiber, so elimination
    never mixes the two halves and every RREF kernel vector lies in one of
    them: the + vectors come first, then the - vectors, each in kernel order
    (together the RREF bases of M_a^+ and M_a^-).  The tags are read off the
    supports of ``nullspace``'s integer rows, which the basis keeps.
    """
    if a < 0:
        raise ValueError("degree must be nonnegative")

    def build():
        basis = ctx.graded_basis(a)
        kernel = nullspace(dirac_matrix(ctx, a).matrix)
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


def fischer_decompose(ctx: Context, poly: SpinorPoly):
    """Exact components of a homogeneous polynomial in the sum of X^k M_(d-k).

    Returns FischerComponent entries with nonzero parts; their reconstruction
    sum_k X^k part_k equals the input exactly.
    """
    d = poly.homogeneous_degree()
    if d is None:
        if poly.is_zero():
            return []
        raise ValueError("non-homogeneous input")
    basis = ctx.graded_basis(d)
    blocks = []
    slots = []
    for k in range(d + 1):
        m = d - k
        mono = monogenic_basis(ctx, m)
        blocks.append(x_power_matrix(ctx, k, m)
                      @ SparseMatrix.from_columns(ctx.graded_basis(m).size, mono.vectors))
        slots.extend((k, m, j) for j in range(len(mono.vectors)))
    coeffs = express_in_span(SparseMatrix.hstack(blocks),
                             SparseMatrix.from_columns(basis.size, [basis.coordinates(poly)]))
    if coeffs is None:
        raise ValueError("polynomial escapes the monogenic decomposition")
    parts = {}
    for slot, c in sorted(coeffs.columns().get(0, {}).items()):
        k, m, j = slots[slot]
        mono = monogenic_basis(ctx, m)
        cur = parts.get((k, m))
        add = mono.elements[j].scale(c)
        parts[(k, m)] = add if cur is None else cur + add
    return [FischerComponent(k=k, m=m, part=part)
            for (k, m), part in sorted(parts.items())]


def apply_x_power(ctx: Context, k, poly: SpinorPoly) -> SpinorPoly:
    """X^k applied to a homogeneous polynomial."""
    d = poly.homogeneous_degree()
    if d is None:
        if poly.is_zero():
            return poly
        raise ValueError("non-homogeneous input")
    basis = ctx.graded_basis(d)
    out = x_power_matrix(ctx, k, d).mul_vec(basis.coordinates(poly))
    return ctx.graded_basis(d + k).from_coordinates(out)
