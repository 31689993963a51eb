"""Singular vectors of the conformal Verma modules and their classification.

A singular vector of homogeneity d at realization parameter ``lam`` is an
element of the degree-d component annihilated by the whole special-conformal
system; the solver computes that joint kernel as one exact nullspace of the
stacked system, refines it into isotypic components by exact eigensplitting
of the X*D operator, and the classifier compares the outcome against the
case table of the classification theorems.

Contraction prefilter: a singular vector is also killed by the three
invariant contractions C1 = sum_j gamma_j g_j, C2 = sum_j x_j g_j and
C3 = sum_j eps_j d_j g_j.  On a Fischer block X^k M_m, C2 acts by the scalar
``contraction_eigenvalue(2, k, m, lam, n)``, and C1 and C3 are scalars times
the ladder maps into X^(k-1) M_m and X^(k-2) M_m.  The images of distinct
blocks land in distinct blocks, so a degree where no block has all three
scalars zero has no singular vectors, and :func:`classify` skips it without
assembling or eliminating anything.  The skip rests on the closed forms of
the contractions, which are checked symbolically once per Context
(:func:`contraction_identity_residual`, :func:`contraction_lambda_residual`):
if the C2 check fails, ``classify`` solves every degree; if the C1/C3 check
fails, it solves every degree that C2 keeps.  The C1/C3 check runs only when
C2 keeps a degree that C1 or C3 would drop.  :func:`singular_vectors` is
never filtered.

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
from .polyspinor import SpinorPoly, assemble, OperatorSpec, _product_sum
from .realization import (
    verma_action,
    contraction_eigenvalue,
    clifford_contraction,
    coordinate_contraction,
    derivative_contraction,
    _osp_cached,
)
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
    "contraction_identity_residual",
    "contraction_lambda_residual",
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
            base = assemble(_sc_spec(ctx, i), degree, ctx.graded_basis).matrix
            ctx.cache[base_key] = base
            dspec = OperatorSpec.derivative(ctx.n, ctx.spinor_dim, i, qi(-1))
            delta = assemble(dspec, degree, ctx.graded_basis).matrix
            ctx.cache[del_key] = delta
        mat = base if not lam else base + delta.scale(qi(lam))
        out.append(mat)
    return out


def _sc_spec(ctx: Context, i):
    """The lambda-free special-conformal generator g_i(0), cached per Context."""
    key = ("sc-spec", i)
    spec = ctx.cache.get(key)
    if spec is None:
        spec = verma_action(("g", i), rational(0), ctx.rep)
        ctx.cache[key] = spec
    return spec


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
    """Canonical basis of the joint kernel: one exact nullspace of the stacked system."""
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
        sub = nullspace(shifted)
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
        sides = {ctx.chirality.half(i % ctx.spinor_dim) for i in chain[k]}
        chirality = sides.pop() if len(sides) == 1 else "mixed"
    return IsotypicLabel(k=k, m=m, chirality=chirality)


def _chirality_dims(ctx: Context, piece_polys, k, degree):
    """Dimensions of the +/- halves of the M_m part of an isotypic piece (even n only).

    The g_i and X D commute with the volume element, which is diagonal +-1 in
    the fiber, so every RREF piece vector lies in one fiber half.  X
    anticommutes with it, so X^k u lies in the half of u for even k and in
    the other half for odd k.
    """
    if ctx.chirality is None:
        return None
    dims = {"+": 0, "-": 0}
    for poly in piece_polys:
        fiber = (i for vec in poly.terms.values() for i in vec)
        dims[ctx.chirality.half_of(fiber, degree)] += 1
    return dims if k % 2 == 0 else {"+": dims["-"], "-": dims["+"]}


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


def contraction_identity_residual(ctx: Context, idx=2):
    """Defining sum minus closed form of contraction ``idx`` at lambda 0.

    The residual is normal-ordered; it is the zero operator (``is_zero()``)
    when the closed form holds at lambda 0.  g_j(lam) = g_j(0) - lam d_j, so
    both sides are affine in lambda: for C2 they move by the same -lam E,
    for C1 and C3 by the multiples of lambda that
    :func:`contraction_lambda_residual` compares.
    """
    n, dim = ctx.n, ctx.spinor_dim
    left, closed = {
        1: (lambda j: OperatorSpec.fiber(n, ctx.rep.gamma(j)), clifford_contraction),
        2: (lambda j: OperatorSpec.coordinate(n, dim, j), coordinate_contraction),
        3: (lambda j: OperatorSpec.derivative(n, dim, j, qi(ctx.sig.eps(j))),
            derivative_contraction),
    }[idx]
    pairs = [(left(j), _sc_spec(ctx, j)) for j in range(1, n + 1)]
    return (_product_sum(pairs) - closed(rational(0), ctx.rep)).combined()


def contraction_lambda_residual(ctx: Context, idx):
    """The lambda coefficient of C1 (idx 1) or C3 (idx 3), defining sum minus closed form.

    The defining sums move by -lam sum_j gamma_j d_j and -lam sum_j eps_j d_j^2,
    the closed forms by -lam D and +lam D^2; the residuals are
    sum_j gamma_j d_j - D and sum_j eps_j d_j^2 + D^2.
    """
    n, dim = ctx.n, ctx.spinor_dim
    D = _osp_cached(ctx.rep)[0]
    if idx == 1:
        pairs = [(OperatorSpec.fiber(n, ctx.rep.gamma(j)), OperatorSpec.derivative(n, dim, j))
                 for j in range(1, n + 1)]
        return (_product_sum(pairs) - D).combined()
    if idx == 3:
        pairs = [(OperatorSpec.derivative(n, dim, j, qi(ctx.sig.eps(j))),
                  OperatorSpec.derivative(n, dim, j)) for j in range(1, n + 1)]
        return _product_sum(pairs + [(D, D)]).combined()
    raise ValueError("only C1 and C3 have a lambda residual")


def _closed_forms_sound(ctx: Context, idxs):
    """Whether the closed forms of the contractions ``idxs`` passed their
    symbolic checks; once per Context and set of contractions."""
    key = ("contraction-identity", idxs)
    ok = ctx.cache.get(key)
    if ok is None:
        ok = all(contraction_identity_residual(ctx, i).is_zero()
                 and (i == 2 or contraction_lambda_residual(ctx, i).is_zero()) for i in idxs)
        ctx.cache[key] = ok
    return ok


def _zero_block(lam_real, degree, n, idxs):
    """Some block X^k M_(degree-k) on which every contraction in ``idxs`` acts by zero.

    C1 vanishes on k = 0 and C3 on k < 2, where their scalars are 0.
    """
    return any(all(not contraction_eigenvalue(i, k, degree - k, lam_real, n) for i in idxs)
               for k in range(degree + 1))


def _c2_has_zero_block(lam_real, degree, n):
    """Some block X^k M_(degree-k) on which C2 acts by zero."""
    return _zero_block(lam_real, degree, n, (2,))


def classify(ctx: Context, lam_thm, d_max) -> ClassificationReport:
    """Find the singular vectors up to d_max and compare with the theorem table.

    A degree is solved only when some block X^k M_m there has all three
    contraction scalars zero; every other degree has no singular vectors.
    Skips by C2 are taken only after the closed form of C2 passed its
    symbolic check on this Context, else every degree is solved.  Further
    skips by C1 and C3 are taken only after their closed forms passed theirs,
    else every degree C2 keeps is solved.  The C1/C3 check runs only when a
    degree could be skipped by it.
    """
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    lam_thm = rational(lam_thm)
    lam_real = lam_thm + rational(ctx.n, 2)
    case, checkable, uncheckable = predicted_components(lam_thm, ctx.n, d_max)
    predicted = [(d, k, m, monogenic_dim(ctx, m)) for d, k, m in checkable]
    filtered = _closed_forms_sound(ctx, (2,))
    found = []
    for degree in range(0, d_max + 1):
        if filtered and not _c2_has_zero_block(lam_real, degree, ctx.n):
            continue
        if filtered and not _zero_block(lam_real, degree, ctx.n, (2, 1, 3)) \
                and _closed_forms_sound(ctx, (1, 3)):
            continue
        polys = singular_vectors(ctx, lam_real, degree)
        for k, m, piece in isotypic_split(ctx, polys, degree):
            found.append(ComponentRecord(
                degree=degree, k=k, m=m, dim=len(piece),
                chirality_dims=_chirality_dims(ctx, piece, k, degree),
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
