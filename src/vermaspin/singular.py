"""Singular vectors of the conformal Verma modules and their classification.

A singular vector of homogeneity d at realization parameter ``lam`` is an
element of the degree-d component annihilated by the whole special-conformal
system; the solver computes that joint kernel as one exact nullspace of the
stacked system (the mod-p certificate skips provably trivial kernels),
refines it into isotypic components by exact eigensplitting of the X*D
operator, and the classifier compares the outcome against the case table of
the classification theorems.

Theorem statements are parameterized by a twist ``lam_thm``; the translation
to the realization parameter is ``lam_real = lam_thm + n/2`` and happens in
exactly one place (:func:`classify`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from .exact import (
    SparseMatrix,
    nullspace,
    express_in_span,
    rational,
    rational_to_string,
    qi,
)
from .exact import _canonical_basis
from .polyspinor import SpinorPoly, assemble, OperatorSpec
from .realization import verma_action
from .fischer import monogenic_dim, dirac_matrix, x_mult_matrix
from .context import Context

__all__ = [
    "IsotypicLabel",
    "ComponentRecord",
    "ClassificationReport",
    "singular_vectors",
    "special_conformal_matrices",
    "isotypic_split",
    "label_isotypic",
    "predicted_components",
    "classify",
    "scan",
    "xd_eigenvalue",
]

HALF = rational(1, 2)


@dataclass(frozen=True)
class IsotypicLabel:
    """Component tag: v in X^k M_m, with optional chirality of the M_m part."""

    k: int
    m: int
    chirality: str | None = None


@dataclass
class ComponentRecord:
    degree: int
    k: int
    m: int
    dim: int
    chirality_dims: dict | None = None  # {'+': d1, '-': d2} for even n

    def label(self):
        return (self.degree, self.k, self.m, self.dim)


@dataclass
class ClassificationReport:
    n: int
    p: int
    q: int
    lam_thm: object
    d_max: int
    case: str
    found: list = field(default_factory=list)        # ComponentRecord
    predicted: list = field(default_factory=list)    # (degree, k, m, dim)
    uncheckable: list = field(default_factory=list)  # (degree, k, m)
    match: bool = False

    def to_json(self):
        return {
            "n": self.n,
            "p": self.p,
            "q": self.q,
            "lambda": rational_to_string(self.lam_thm),
            "d_max": self.d_max,
            "case": self.case,
            "found": [
                {
                    "degree": c.degree,
                    "k": c.k,
                    "m": c.m,
                    "dim": c.dim,
                    "chirality_dims": c.chirality_dims,
                }
                for c in self.found
            ],
            "predicted": [
                {"degree": d, "k": k, "m": m, "dim": dim}
                for d, k, m, dim in self.predicted
            ],
            "uncheckable": [
                {"degree": d, "k": k, "m": m} for d, k, m in self.uncheckable
            ],
            "match": self.match,
        }

    def to_text(self):
        lines = [
            "classification  n=%d (p=%d, q=%d)  lambda=%s  d_max=%d"
            % (self.n, self.p, self.q, rational_to_string(self.lam_thm), self.d_max),
            "predicted case: %s" % self.case,
        ]
        for d, k, m, dim in self.predicted:
            lines.append("  predicted: degree %d  X^%d M_%d  dim %d" % (d, k, m, dim))
        for d, k, m in self.uncheckable:
            lines.append("  predicted: degree %d  X^%d M_%d  (uncheckable at this cutoff)" % (d, k, m))
        for c in self.found:
            chir = ""
            if c.chirality_dims:
                chir = "  [%s]" % ", ".join(
                    "%s:%d" % (t, c.chirality_dims[t]) for t in sorted(c.chirality_dims))
            lines.append("  found:     degree %d  X^%d M_%d  dim %d%s"
                         % (c.degree, c.k, c.m, c.dim, chir))
        lines.append("match: %s" % ("yes" if self.match else "NO"))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def special_conformal_matrices(ctx: Context, lam, degree):
    """Assembled matrices of the special-conformal system at one degree.

    The lambda-independent part is cached per (i, degree), and its spec per
    i; only a scaled derivative matrix depends on lambda.
    """
    n = ctx.n
    out = []
    for i in range(1, n + 1):
        base_key = ("sc-base", i, degree)
        del_key = ("sc-del", i, degree)
        base = ctx.cache.get(base_key)
        delta = ctx.cache.get(del_key)
        if base is None:
            spec_key = ("sc-spec", i)
            spec0 = ctx.cache.get(spec_key)
            if spec0 is None:
                spec0 = verma_action(("g", i), rational(0), ctx.rep)
                ctx.cache[spec_key] = spec0
            base = assemble(spec0, degree, ctx.graded_basis).matrix
            ctx.cache[base_key] = base
            dspec = OperatorSpec.derivative(ctx.n, ctx.spinor_dim, i, qi(-1))
            delta = assemble(dspec, degree, ctx.graded_basis).matrix
            ctx.cache[del_key] = delta
        mat = base if not lam else base + delta.scale(qi(lam))
        out.append(mat)
    return out


def _combine(vectors, coeffs):
    out = {}
    for vec, c in zip(vectors, coeffs):
        if not c:
            continue
        for idx, v in vec.items():
            w = out.get(idx)
            nv = v * c if w is None else w + v * c
            if nv:
                out[idx] = nv
            elif idx in out:
                del out[idx]
    return out


def singular_vectors(ctx: Context, lam, degree):
    """Canonical basis of the joint kernel: one nullspace of the stacked system."""
    stacked = reduce(SparseMatrix.stack_below, special_conformal_matrices(ctx, lam, degree))
    return [ctx.graded_basis(degree).from_coordinates(v) for v in nullspace(stacked)]


# ---------------------------------------------------------------------------
# isotypic structure
# ---------------------------------------------------------------------------


def xd_eigenvalue(k, m, n):
    """Exact scalar of X D on the component X^k M_m."""
    if k % 2 == 0:
        return qi(-k)
    return qi(-(2 * m + n + k - 1))


def xd_matrix(ctx: Context, degree):
    key = ("xd", degree)
    m = ctx.cache.get(key)
    if m is None:
        m = x_mult_matrix(ctx, degree - 1).matrix @ dirac_matrix(ctx, degree).matrix
        ctx.cache[key] = m
    return m


def isotypic_split(ctx: Context, polys, degree):
    """Split a joint-kernel basis into isotypic pieces X^k M_(degree-k).

    The kernel is a direct sum of such pieces, on each of which X D acts by
    a known integer scalar, so the refinement is a sequence of exact
    nullspace computations of (R - c I) on the coefficient space.
    """
    if not polys:
        return []
    basis = ctx.graded_basis(degree)
    vecs = [basis.coordinates(p) for p in polys]
    xd = xd_matrix(ctx, degree)
    images = [xd.mul_vec(v) for v in vecs]
    coeffs = express_in_span(vecs, images, basis.size)
    if coeffs is None:
        raise ValueError("kernel is not X D invariant")  # impossible for true kernels
    kdim = len(vecs)
    pieces = []
    total = 0
    for k in range(degree + 1):
        c = xd_eigenvalue(k, degree - k, ctx.n)
        shifted = SparseMatrix.from_entries(
            kdim, kdim,
            [(r, j, coeffs[j][r]) for j in range(kdim) for r in range(kdim) if coeffs[j][r]]
            + [(j, j, -c) for j in range(kdim)],
        )
        sub = nullspace(shifted, modular_shortcut=False)
        if not sub:
            continue
        piece_vecs = _canonical_basis(
            [_combine(vecs, [s.get(j, qi(0)) for j in range(kdim)]) for s in sub],
            basis.size)
        polys_piece = [basis.from_coordinates(v) for v in piece_vecs]
        pieces.append((k, degree - k, polys_piece))
        total += len(polys_piece)
    if total != kdim:
        raise ValueError("isotypic refinement lost dimensions (%d of %d)" % (total, kdim))
    return pieces


def label_isotypic(ctx: Context, poly: SpinorPoly) -> IsotypicLabel:
    """Label a single vector lying in one component X^k M_m.

    k is found by exact repeated application of the Dirac matrix; a vector
    mixing several components raises ValueError("not isotypic").
    """
    d = poly.homogeneous_degree()
    if d is None:
        raise ValueError("not homogeneous")
    basis = ctx.graded_basis(d)
    vec = basis.coordinates(poly)
    if not vec:
        raise ValueError("zero polynomial has no isotypic label")
    chain = [vec]
    cur = vec
    deg = d
    while cur:
        cur = dirac_matrix(ctx, deg).matrix.mul_vec(cur)
        chain.append(cur)
        deg -= 1
    k = len(chain) - 2  # number of applications before reaching zero, minus one
    m = d - k
    # consistency: the ladder scalar structure pins membership in X^k M_m
    ev = xd_eigenvalue(k, m, ctx.n)
    xdv = xd_matrix(ctx, d).mul_vec(vec)
    expect = {i: v * ev for i, v in vec.items() if v * ev}
    if xdv != expect:
        raise ValueError("not isotypic")
    chirality = None
    if ctx.chirality is not None:
        stripped = ctx.graded_basis(m).from_coordinates(chain[k])
        plus = stripped.fiber_map(ctx.chirality.plus)
        minus = stripped.fiber_map(ctx.chirality.minus)
        if minus.is_zero() and not plus.is_zero():
            chirality = "+"
        elif plus.is_zero() and not minus.is_zero():
            chirality = "-"
        else:
            chirality = "mixed"
    return IsotypicLabel(k=k, m=m, chirality=chirality)


def _chirality_dims(ctx: Context, piece_polys, k, m, degree):
    """Dimensions of the +/- halves of an isotypic piece (even n only)."""
    if ctx.chirality is None:
        return None
    mbasis = ctx.graded_basis(m)
    stripped = []
    for poly in piece_polys:
        vec = ctx.graded_basis(degree).coordinates(poly)
        deg = degree
        for _ in range(k):
            vec = dirac_matrix(ctx, deg).matrix.mul_vec(vec)
            deg -= 1
        stripped.append(mbasis.from_coordinates(vec))
    dims = {}
    for proj, tag in ((ctx.chirality.plus, "+"), (ctx.chirality.minus, "-")):
        projected = [mbasis.coordinates(s.fiber_map(proj)) for s in stripped]
        projected = [v for v in projected if v]
        dims[tag] = len(_canonical_basis(projected, mbasis.size))
    return dims


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _is_natural(x):
    """x in {1, 2, 3, ...} for an exact rational x."""
    return x.denominator == 1 and x >= 1


def predicted_components(lam_thm, n, d_max):
    """Case table of the classification theorems.

    Returns (case_id, checkable, uncheckable) where checkable entries are
    (degree, k, m) with degree <= d_max and uncheckable those beyond.
    """
    lam = rational(lam_thm)
    comps = [(0, 0, 0)]
    twistor_cond = _is_natural(lam - HALF)
    dirac_cond = _is_natural(lam + rational(n, 2) - HALF)
    if n % 2 == 1:
        if twistor_cond:
            case = "twistor"
            m = int(lam - HALF)
            comps.append((m, 0, m))
        elif dirac_cond:
            case = "dirac-power"
            k = int(2 * lam + n - 2)
            comps.append((k, k, 0))
        else:
            case = "generic"
    else:
        if twistor_cond:
            case = "both"
            m = int(lam - HALF)
            comps.append((m, 0, m))
            k = int(2 * lam + n - 2)
            comps.append((k, k, 0))
        elif dirac_cond:
            case = "dirac-power"
            k = int(2 * lam + n - 2)
            comps.append((k, k, 0))
        else:
            case = "generic"
    checkable = sorted(c for c in comps if c[0] <= d_max)
    uncheckable = sorted(c for c in comps if c[0] > d_max)
    return case, checkable, uncheckable


def classify(ctx: Context, lam_thm, d_max) -> ClassificationReport:
    """Solve every degree up to d_max and compare with the theorem table."""
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    lam_thm = rational(lam_thm)
    lam_real = lam_thm + rational(ctx.n, 2)
    case, checkable, uncheckable = predicted_components(lam_thm, ctx.n, d_max)
    predicted = [(d, k, m, monogenic_dim(ctx, m)) for d, k, m in checkable]
    found = []
    for degree in range(0, d_max + 1):
        polys = singular_vectors(ctx, lam_real, degree)
        for k, m, piece in isotypic_split(ctx, polys, degree):
            found.append(ComponentRecord(
                degree=degree, k=k, m=m, dim=len(piece),
                chirality_dims=_chirality_dims(ctx, piece, k, m, degree),
            ))
    match = sorted(c.label() for c in found) == sorted(predicted)
    return ClassificationReport(
        n=ctx.n, p=ctx.sig.p, q=ctx.sig.q, lam_thm=lam_thm, d_max=d_max,
        case=case, found=found, predicted=predicted, uncheckable=uncheckable,
        match=match,
    )


def scan(ctx: Context, lam_values, d_max):
    """Classify each lambda in turn; deterministic order of reports."""
    return [classify(ctx, lam, d_max) for lam in lam_values]
