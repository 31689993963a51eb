"""Singular vectors of the conformal Verma modules and their classification.

A singular vector of homogeneity d at realization parameter ``lam`` is an
element of the degree-d component annihilated by the whole special-conformal
system.  :func:`classify` solves that system only on the Fischer blocks
X^k M_m a singular vector can lie in: the columns of block k are X^k applied
to the monogenic basis of M_m, one exact nullspace solves the stacked g_i on
all kept blocks at once, and each kernel vector is labelled by the block
(and, for even n, the chirality half of M_m) its support lies in.  The
outcome is compared against the case table of the classification theorems.
:func:`singular_vectors` solves a whole degree, and :func:`isotypic_split`
sorts such a kernel into blocks by exact X*D eigenvalues; ``classify`` calls
neither.

Contraction prefilter: a singular vector is also killed by the three
invariant contractions C1 = sum_j gamma_j g_j, C2 = sum_j x_j g_j and
C3 = sum_j eps_j d_j g_j.  On a Fischer block X^k M_m, C2 acts by the scalar
``contraction_eigenvalue(2, k, m, lam, n)``, and C1 and C3 are scalars times
the ladder maps into X^(k-1) M_m and X^(k-2) M_m.  The images of distinct
blocks land in distinct blocks, so a degree where no block has all three
scalars zero has no singular vectors, and :func:`classify` skips it without
assembling or eliminating anything; at a kept degree a singular vector has
no part in a block where C2's scalar is nonzero, so only the blocks where it
is zero are solved; the scalars are tested as the integer numerators of
``contraction_numerator``.  Both rest on the closed forms of the
contractions, which are affine in lambda, C(lam) = C(0) + lam * slope.  Both
parts of each closed form used are checked symbolically once per Context:
C(0) against the defining sum at lambda 0
(:func:`contraction_identity_residual`) and the slope against the defining
sum's (:func:`contraction_lambda_residual`).  Each residual is one
normal-ordered stream: the defining products and the negated closed-form
products go through one ``_product_sum``, merged once, and ``is_zero``
folds the result in one more pass.  If the C2 check fails, ``classify``
solves every degree on all of its blocks; if the C1/C3 check fails, it
solves every degree that C2 keeps.  The C1/C3 check runs only when C2 keeps
a degree that C1 or C3 would drop.

Theorem statements are parameterized by a twist ``lam_thm``; the translation
to the realization parameter is ``lam_real = lam_thm + n/2`` and happens in
exactly one place (:func:`classify`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from .exact import (SparseMatrix, QI_ONE, QI_ZERO, nullspace, kernel_vectors, rational,
                    rational_to_string, qi)
from .polyspinor import assemble, OperatorSpec
from .realization import (
    verma_action,
    contraction_numerator,
    contraction_sum,
    contraction_at_zero,
    contraction_slope,
)
from .fischer import monogenic_basis, monogenic_dim, dirac_matrix, x_mult_matrix
from .context import Context

__all__ = [
    "ComponentRecord",
    "ClassificationReport",
    "singular_vectors",
    "special_conformal_matrices",
    "isotypic_split",
    "predicted_components",
    "contraction_identity_residual",
    "contraction_lambda_residual",
    "classify",
    "scan",
    "xd_eigenvalue",
]

HALF = rational(1, 2)


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
    n, dim = ctx.n, ctx.spinor_dim
    out = []
    for i in range(1, n + 1):
        base = ctx.cached(("sc-base", i, degree),
                          lambda: assemble(_sc_spec(ctx, i), degree, ctx.graded_basis).matrix)
        delta = ctx.cached(("sc-del", i, degree), lambda: assemble(
            OperatorSpec.derivative(n, dim, i, qi(-1)), degree, ctx.graded_basis).matrix)
        out.append(SparseMatrix.combination([(base, QI_ONE), (delta, qi(lam))]) if lam else base)
    return out


def _sc_spec(ctx: Context, i):
    """The lambda-free special-conformal generator g_i(0), cached per Context."""
    return ctx.cached(("sc-spec", i), lambda: verma_action(("g", i), rational(0), ctx.rep))


def singular_vectors(ctx: Context, lam, degree):
    """Canonical basis of the whole degree's joint kernel: one exact nullspace
    of the stacked system.  :func:`classify` solves on Fischer blocks instead
    (:func:`_solve_blocks`); this full-degree solve is its reference."""
    stacked = reduce(SparseMatrix.stack_below, special_conformal_matrices(ctx, lam, degree))
    return [ctx.graded_basis(degree).from_coordinates(v)
            for v in kernel_vectors(nullspace(stacked))]


def _solve_blocks(ctx: Context, lam, degree, ks):
    """The joint kernel on the Fischer blocks X^k M_(degree-k), k in ``ks``,
    as one ComponentRecord per block where it is nonzero, in ascending k.

    The columns of block k are X^k applied to the kernel rows of M_(degree-k)
    (``MonogenicBasis.rows``, positive integer multiples of its basis
    vectors, which leaves every kernel support unchanged); the stacked g_i
    are multiplied onto all columns at once and solved by one exact
    nullspace, whose rows give the slots.  The joint kernel is
    Spin-invariant, and the blocks of one degree, and for even n the
    chirality halves of each M_m, are pairwise non-isomorphic, so every
    canonical kernel vector lies in the columns of one (block, half) slot.
    A vector touching two slots raises ArithmeticError naming the degree and
    the slots.  The half counted is that of the M_m part, its monogenic tag;
    X^k moves it into the other fiber half for odd k.  Solving all blocks of
    a degree requires their columns to number the degree's whole basis.
    """
    rows = ctx.graded_basis(degree).size
    blocks = []
    slots = []  # column -> (k, chirality tag of the M_m part)
    for k in ks:
        m = degree - k
        mono = monogenic_basis(ctx, m)
        block = SparseMatrix.from_int_rows(ctx.graded_basis(m).size, mono.rows).transpose()
        for t in range(k):
            block = x_mult_matrix(ctx, m + t).matrix @ block
        blocks.append(block)
        slots.extend((k, tag) for tag in mono.chirality)
    if len(ks) == degree + 1 and len(slots) != rows:
        raise ArithmeticError("degree %d: the Fischer blocks give %d columns, the degree has %d"
                              % (degree, len(slots), rows))
    columns = SparseMatrix.hstack(blocks)
    stacked = reduce(SparseMatrix.stack_below,
                     [g @ columns for g in special_conformal_matrices(ctx, lam, degree)])
    dims = {}
    for vec in nullspace(stacked):
        touched = {slots[c] for c in vec}
        if len(touched) != 1:
            raise ArithmeticError("degree %d: a kernel vector touches the blocks %s" % (
                degree, ", ".join("X^%d M_%d%s" % (k, degree - k, tag or "")
                                  for k, tag in sorted(touched, key=str))))
        slot = touched.pop()
        dims[slot] = dims.get(slot, 0) + 1
    out = []
    for k in ks:
        halves = {tag: dims.get((k, tag), 0) for tag in ("+", "-")}
        dim = dims.get((k, None), 0) + halves["+"] + halves["-"]
        if dim:
            out.append(ComponentRecord(
                degree=degree, k=k, m=degree - k, dim=dim,
                chirality_dims=None if ctx.chirality is None else halves))
    return out


# ---------------------------------------------------------------------------
# isotypic structure
# ---------------------------------------------------------------------------


def xd_eigenvalue(k, m, n):
    """Exact scalar of X D on the component X^k M_m."""
    if k % 2 == 0:
        return qi(-k)
    return qi(-(2 * m + n + k - 1))


def xd_matrix(ctx: Context, degree):
    return ctx.cached(("xd", degree), lambda: (x_mult_matrix(ctx, degree - 1).matrix
                                              @ dirac_matrix(ctx, degree).matrix))


def isotypic_split(ctx: Context, polys, degree):
    """Group a joint-kernel basis into its isotypic pieces X^k M_(degree-k).

    X D acts on X^k M_(degree-k) by ``xd_eigenvalue(k, degree-k, n)``, and
    these scalars are distinct within a degree, so each vector is tagged by
    the scalar read off its leading entry, after an exact check that X D maps
    it to that multiple of itself.  The pieces keep the given order; a
    sub-list of an RREF basis is the RREF basis of its own span.
    """
    if not polys:
        return []
    basis = ctx.graded_basis(degree)
    xd = xd_matrix(ctx, degree)
    k_of = {xd_eigenvalue(k, degree - k, ctx.n): k for k in range(degree + 1)}
    pieces = {}
    for poly in polys:
        vec = basis.coordinates(poly)
        image = xd.mul_vec(vec)
        lead = min(vec)
        c = image.get(lead, QI_ZERO) / vec[lead]
        if c not in k_of or image != {i: v * c for i, v in vec.items() if v * c}:
            raise ValueError("degree %d: a kernel vector is not an X D eigenvector "
                             "of any component X^k M_m" % degree)
        pieces.setdefault(k_of[c], []).append(poly)
    return [(k, degree - k, pieces[k]) for k in sorted(pieces)]


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

    One ``_product_sum`` stream of the defining pairs (left_j, g_j(0)) and
    the negated closed-form pairs of ``contraction_at_zero``, merged once;
    it is the zero operator (``is_zero()``) when the closed form holds at
    lambda 0.  Both sides are affine in lambda;
    :func:`contraction_lambda_residual` compares their slopes.
    """
    return contraction_sum(idx, ctx.rep, lambda j: _sc_spec(ctx, j),
                           contraction_at_zero(idx, ctx.rep))


def contraction_lambda_residual(ctx: Context, idx):
    """The lambda slope of contraction ``idx``, defining sum minus closed form:
    g_j(lam) = g_j(0) - lam d_j, so the sum's slope is sum_j left_j (-d_j).
    One ``_product_sum`` stream of (left_j, -d_j) and (-slope, 1)."""
    n, dim = ctx.n, ctx.spinor_dim
    return contraction_sum(idx, ctx.rep, lambda j: OperatorSpec.derivative(n, dim, j, qi(-1)),
                           [(contraction_slope(idx, ctx.rep), OperatorSpec.scalar(n, dim, QI_ONE))])


def _closed_forms_sound(ctx: Context, idxs):
    """Whether both parts of the closed forms of the contractions ``idxs``
    passed their symbolic checks; once per Context and set of contractions."""
    return ctx.cached(("contraction-identity", idxs), lambda: all(
        contraction_identity_residual(ctx, i).is_zero()
        and contraction_lambda_residual(ctx, i).is_zero() for i in idxs))


def _zero_blocks(lam_real, degree, n, idxs):
    """The k of the blocks X^k M_(degree-k) on which every contraction in
    ``idxs`` acts by zero, tested on the integer numerators of the scalars.

    C1 vanishes on k = 0 and C3 on k < 2, where their scalars are 0.
    """
    a, b = lam_real.numerator, lam_real.denominator
    return [k for k in range(degree + 1)
            if all(contraction_numerator(i, k, degree - k, a, b, n) == 0 for i in idxs)]


def classify(ctx: Context, lam_thm, d_max) -> ClassificationReport:
    """Find the singular vectors up to d_max and compare with the theorem table.

    A degree is solved only when some block X^k M_m there has all three
    contraction scalars zero; every other degree has no singular vectors.
    A kept degree is solved by :func:`_solve_blocks` on the blocks where the
    C2 scalar is zero.  Skips by C2, of degrees and of blocks, are taken only
    after the closed form of C2 passed its symbolic check on this Context,
    else every degree is solved on all of its blocks.  Further skips by C1
    and C3 are taken only after their closed forms passed theirs, else every
    degree C2 keeps is solved.  The C1/C3 check runs only when a degree could
    be skipped by it.
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
        ks = list(range(degree + 1))
        if filtered:
            ks = _zero_blocks(lam_real, degree, ctx.n, (2,))
            if not ks:
                continue
            if not _zero_blocks(lam_real, degree, ctx.n, (2, 1, 3)) \
                    and _closed_forms_sound(ctx, (1, 3)):
                continue
        found.extend(_solve_blocks(ctx, lam_real, degree, ks))
    match = sorted(c.label() for c in found) == sorted(predicted)
    return ClassificationReport(
        n=ctx.n, p=ctx.sig.p, q=ctx.sig.q, lam_thm=lam_thm, d_max=d_max,
        case=case, found=found, predicted=predicted, uncheckable=uncheckable,
        match=match,
    )


def scan(ctx: Context, lam_values, d_max):
    """Classify each lambda in turn; deterministic order of reports."""
    return [classify(ctx, lam, d_max) for lam in lam_values]
