"""Singular vectors of the conformal Verma modules and their classification.

A singular vector of homogeneity d at realization parameter ``lam`` is an
element of the degree-d component annihilated by the whole special-conformal
system.  :func:`classify` solves that system only on the Fischer blocks
X^k M_m a singular vector can lie in; the columns of block k are X^k applied
to the monogenic basis of M_m.  Most blocks are certified by g_1 alone: if
g_1 kills the block's columns, every g_j does, under premises checked
symbolically once per gamma model (:func:`certificate_premises`), and the
whole block is singular.  The blocks g_1 does not kill, if any, are solved
by one exact nullspace of the stacked g_i on their columns, and each kernel
vector is labelled by the block (and, for even n, the chirality half of M_m)
its support lies in.  Each g_i is assembled on the columns' support alone, as
``equivariant.from_singular_vector`` does for the families it certifies.
The outcome is compared against the case table of the classification
theorems.  :func:`singular_vectors` solves a whole degree, the only
whole-degree assembly of the g_i, and :func:`isotypic_split` sorts such a
kernel into blocks by exact X*D eigenvalues; ``classify`` calls neither.

Contraction prefilter: a singular vector is also killed by the three
invariant contractions C1 = sum_j gamma_j g_j, C2 = sum_j x_j g_j and
C3 = sum_j eps_j d_j g_j.  On a Fischer block X^k M_m, C2 acts by a scalar,
and C1 and C3 are scalars times the ladder maps into X^(k-1) M_m and
X^(k-2) M_m (``contraction_numerator`` gives each scalar's numerator).  The
images of distinct blocks land in distinct blocks, so a degree where no block has all three
scalars zero has no singular vectors, and :func:`classify` skips it without
assembling or eliminating anything; at a kept degree a singular vector has
no part in a block where C2's scalar is nonzero, so only the blocks where it
is zero are solved; the scalars are tested as the integer numerators of
``contraction_numerator``.  Both rest on the closed forms of the
contractions, which are affine in lambda, C(lam) = C(0) + lam * slope.  Both
parts of each closed form used are checked symbolically once per gamma model
per process: C(0) against the defining sum at lambda 0
(:func:`contraction_identity_residual`) and the slope against the defining
sum's (:func:`contraction_lambda_residual`).  Each residual is one
normal-ordered stream: the defining products and the negated closed-form
products go through one ``_product_sum``, merged once, and ``is_zero``
folds the result in one more pass.  The C1/C3 check runs only when C2
keeps a degree that C1 or C3 would drop.

Every premise is checked, never branched on: :func:`require` refuses a
gamma model that fails one with an ArithmeticError naming the signature,
the premise and its entry, and the selftest reports its failures through
the same helper.

Theorem statements are parameterized by a twist ``lam_thm``; the translation
to the realization parameter is ``lam_real = lam_thm + n/2`` and happens in
exactly two places: :func:`classify` and ``equivariant.from_singular_vector``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import reduce

from .exact import (SparseMatrix, QI_ONE, QI_ZERO, nullspace, kernel_vectors, rational,
                    rational_to_string, qi)
from .polyspinor import assemble, OperatorSpec, _commutator, _product_sum
from .realization import (
    verma_action,
    bracket_multiple,
    contraction_numerator,
    contraction_sum,
    contraction_at_zero,
    contraction_slope,
    _osp_cached,
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
    "closed_form_premises",
    "certificate_premises",
    "rotation_premises",
    "require",
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
        out = asdict(self)
        out["lambda"] = rational_to_string(out.pop("lam_thm"))
        out["predicted"] = [{"degree": d, "k": k, "m": m, "dim": dim}
                            for d, k, m, dim in self.predicted]
        out["uncheckable"] = [{"degree": d, "k": k, "m": m} for d, k, m in self.uncheckable]
        return out

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
    """Assembled matrices g_i(lam) of the special-conformal system on a whole
    degree: g_i(0), cached per (i, degree) and its spec per i, plus lam (-d_i)."""
    out = []
    for i in range(1, ctx.n + 1):
        base = ctx.cached(("sc-base", i, degree),
                          lambda: assemble(_sc_spec(ctx, i), degree, ctx.graded_basis).matrix)
        delta = ctx.cached(("sc-del", i, degree),
                           lambda: assemble(_minus_d(ctx, i), degree, ctx.graded_basis).matrix)
        out.append(_at((base, delta), lam))
    return out


def on_support(ctx: Context, spec, degree, columns):
    """spec @ columns for a degree-d matrix, spec assembled only on the
    monomials of the columns' support, all of its columns that they meet."""
    basis = ctx.graded_basis(degree)
    support = {basis.monos[r // basis.dim] for r in columns.num}
    return assemble(spec, degree, ctx.graded_basis, support).matrix @ columns


def special_conformal_on(ctx: Context, i, degree, columns):
    """(g_i(0) V, -d_i V) for the columns V of a degree-d matrix, each part
    assembled on V's support alone; :func:`_at` gives g_i(lam) V."""
    return tuple(on_support(ctx, spec, degree, columns)
                 for spec in (_sc_spec(ctx, i), _minus_d(ctx, i)))


def _at(parts, lam):
    """g_i(lam) V = g_i(0) V + lam (-d_i V) from the parts (g_i(0) V, -d_i V)."""
    return SparseMatrix.combination([(parts[0], QI_ONE), (parts[1], lam)])


def _sc_spec(ctx: Context, i):
    """The lambda-free g_i(0), built once per gamma model per process."""
    return ctx.rep.cached(("sc-spec", i), lambda: verma_action(("g", i), rational(0), ctx.rep))


def _minus_d(ctx: Context, i):
    """-d_i, the lambda slope of g_i(lam) = g_i(0) - lam d_i."""
    return OperatorSpec.derivative(ctx.n, ctx.spinor_dim, i, qi(-1))


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

    The columns V of block k are X^k applied to the kernel rows of
    M_(degree-k) (``MonogenicBasis.rows``, positive integer multiples of its
    basis vectors, which leaves every kernel support unchanged).  A block
    that :func:`_certified_blocks` certifies by g_1 alone is wholly
    singular, and each of its columns counts in the slot (block, chirality
    tag of its M_m row).  The other blocks are solved by one exact nullspace
    of the stacked g_i V (:func:`_g_on_block`, cached per block and
    generator), whose rows give the slots.  The kernel splits over
    the blocks, since g_i V = 0 on a certified block.  The joint kernel is
    Spin-invariant, and the blocks of one degree, and for even n the
    chirality halves of each M_m, are pairwise non-isomorphic, so every
    canonical kernel vector lies in the columns of one (block, half) slot.
    A vector touching two slots raises ArithmeticError naming the degree and
    the slots.  The half counted is that of the M_m part, its monogenic tag;
    X^k moves it into the other fiber half for odd k.  Solving all blocks of
    a degree requires their columns to number the degree's whole basis,
    also when every block is certified.
    """
    rows = ctx.graded_basis(degree).size
    tags = {k: monogenic_basis(ctx, degree - k).chirality for k in ks}
    cols = sum(map(len, tags.values()))
    if len(ks) == degree + 1 and cols != rows:
        raise ArithmeticError("degree %d: the Fischer blocks give %d columns, the degree has %d"
                              % (degree, cols, rows))
    certified = _certified_blocks(ctx, lam, degree, ks)
    dims = Counter((k, tag) for k in ks if k in certified for tag in tags[k])
    unsure = [k for k in ks if k not in certified]
    if unsure:
        slots = [(k, tag) for k in unsure for tag in tags[k]]  # column -> slot
        stacked = reduce(SparseMatrix.stack_below, [
            SparseMatrix.hstack([_at(_g_on_block(ctx, degree, k, i), lam) for k in unsure])
            for i in range(1, ctx.n + 1)])
        for vec in nullspace(stacked):
            touched = {slots[c] for c in vec}
            if len(touched) != 1:
                raise ArithmeticError("degree %d: a kernel vector touches the blocks %s" % (
                    degree, ", ".join("X^%d M_%d%s" % (k, degree - k, tag or "")
                                      for k, tag in sorted(touched, key=str))))
            dims[touched.pop()] += 1
    out = []
    for k in ks:
        halves = {tag: dims[k, tag] for tag in ("+", "-")}
        dim = dims[k, None] + halves["+"] + halves["-"]
        if dim:
            out.append(ComponentRecord(
                degree=degree, k=k, m=degree - k, dim=dim,
                chirality_dims=None if ctx.chirality is None else halves))
    return out


def _block_columns(ctx: Context, degree, k):
    """The columns of the block X^k M_(degree-k): X^k applied to the kernel
    rows of M_(degree-k), by chained X products, once per Context."""
    def build():
        m = degree - k
        block = SparseMatrix.from_int_rows(ctx.graded_basis(m).size,
                                           monogenic_basis(ctx, m).rows).transpose()
        for t in range(k):
            block = x_mult_matrix(ctx, m + t).matrix @ block
        return block
    return ctx.cached(("block", degree, k), build)


def _g_on_block(ctx: Context, degree, k, i):
    """:func:`special_conformal_on` of g_i on the block X^k M_(degree-k), once
    per Context, so that a later twist costs one combination."""
    return ctx.cached(("sc-block", degree, k, i), lambda: special_conformal_on(
        ctx, i, degree, _block_columns(ctx, degree, k)))


def _g1_on_block(ctx: Context, degree, k):
    """The certificate's product, g_1 on the block (:func:`_g_on_block`)."""
    return _g_on_block(ctx, degree, k, 1)


def _certified_blocks(ctx: Context, lam, degree, ks):
    """The k in ``ks`` whose whole block X^k M_(degree-k) is singular, read
    off g_1 alone.

    At degree 0 that is every block: each g_j maps into degree -1, which is
    zero.  Above it, a block with g_1(lam) V = 0 is certified under the
    premises of :func:`certificate_premises`, and a gamma model that fails
    one is refused (:func:`_certificate_sound`).  Each l_1j, j >= 2,
    commutes with X and D, so it maps V = X^k M_m into itself (the rows of
    ``monogenic_basis`` span all of M_m); and
    [l_1j, g_1] = c_j g_j with c_j != 0, so g_j V = (l_1j g_1 V - g_1 l_1j V)
    / c_j = 0.  The block's columns are independent: the rows of M_m lead at
    distinct columns, and X^k is injective, X^2 being the nonzero scalar
    polynomial -sum_j eps_j x_j^2.
    """
    if degree == 0:
        return set(ks)
    _certificate_sound(ctx)
    return {k for k in ks if _at(_g1_on_block(ctx, degree, k), lam).is_zero()}


def require(sig, premises):
    """True when every premise holds, else the model is refused: the first
    (where, residual) of ``premises`` whose residual is not zero raises
    ArithmeticError naming the signature, ``where`` (the premise and its
    entry) and the residual's live terms.  A residual is None when no
    constant c makes the premise an identity of the checked form."""
    for where, residual in premises:
        head = "signature (%d,%d)%s" % (sig.p, sig.q, where)
        if residual is None:
            raise ArithmeticError("%s has no residual of the checked form" % head)
        if not residual.is_zero():
            live = (residual.nonzero_keys() if isinstance(residual, OperatorSpec)
                    else residual.num_entries())
            raise ArithmeticError("%s leaves %d terms" % (head, live))
    return True


def certificate_premises(ctx: Context):
    """The premises of the block certificate, for :func:`require`.

    X^2 + sum_j eps_j x_j^2 = 0, and for each j = 2..n: [l_1j, X] = 0,
    [l_1j, D] = 0, and [l_1j, g_1] = c_j g_j with c_j the constant of
    ``bracket_multiple`` in the abstract model, split like g_1 into its
    lambda-free part [l_1j, g_1(0)] - c_j g_j(0) and its slope
    [l_1j, -d_1] - c_j (-d_j).  Each residual is one ``_product_sum``
    stream; it is None when [l_1j, g_1] is no nonzero multiple of g_j.
    """
    n, dim, rep = ctx.n, ctx.spinor_dim, ctx.rep
    o = _osp_cached(rep)
    one = OperatorSpec.scalar(n, dim, QI_ONE)
    square = [(OperatorSpec.monomial_mult(n, dim, j, 2, rep.sig.eps(j)), one)
              for j in range(1, n + 1)]
    out = [(": X^2 + sum_j eps_j x_j^2", _product_sum([(o.X, o.X)] + square))]
    g1, d1 = _sc_spec(ctx, 1), _minus_d(ctx, 1)
    for j in range(2, n + 1):
        l1j = verma_action(("l", 1, j), rational(0), rep)
        at = ", j = %d: " % j
        out += [(at + "[l_1j, X]", _commutator(l1j, o.X)),
                (at + "[l_1j, D]", _commutator(l1j, o.D))]
        c = bracket_multiple(("l", 1, j), ("g", 1), ("g", j), rep.sig)
        for what, a, b in (("[l_1j, g_1(0)] - c_j g_j(0)", g1, _sc_spec(ctx, j)),
                           ("[l_1j, -d_1] - c_j (-d_j)", d1, _minus_d(ctx, j))):
            out.append((at + what, None if c is None else _commutator(l1j, a, b, c)))
    return out


def _certificate_sound(ctx: Context):
    """True once every premise of the block certificate holds, else refused;
    once per gamma model."""
    return ctx.rep.cached("block-certificate",
                          lambda: require(ctx.sig, certificate_premises(ctx)))


def _rotation_multiples(sig):
    """{(i, j): c_ij} for 2 <= i < j, [l_1i, l_1j] = c_ij l_ij in the
    abstract model (``bracket_multiple``), or None without a c."""
    return {(i, j): bracket_multiple(("l", 1, i), ("l", 1, j), ("l", i, j), sig)
            for i in range(2, sig.n + 1) for j in range(i + 1, sig.n + 1)}


def rotation_premises(ctx: Context):
    """The premises under which ``equivariant`` derives a family's rotations
    from the l_1j, for :func:`require`: [l_1i, l_1j] - c_ij l_ij for
    2 <= i < j, c_ij from :func:`_rotation_multiples`."""
    l = {(i, j): verma_action(("l", i, j), rational(0), ctx.rep)
         for i in range(1, ctx.n + 1) for j in range(i + 1, ctx.n + 1)}
    return [(", (i, j) = (%d, %d): [l_1i, l_1j] - c_ij l_ij" % (i, j),
             None if c is None else _commutator(l[1, i], l[1, j], l[i, j], c))
            for (i, j), c in _rotation_multiples(ctx.sig).items()]


def _rotation_constants(ctx: Context):
    """{(i, j): c_ij} for 2 <= i < j once every :func:`rotation_premises`
    holds, else refused; once per gamma model."""
    return ctx.rep.cached("rotation-relations", lambda: require(
        ctx.sig, rotation_premises(ctx)) and _rotation_multiples(ctx.sig))


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


# (twistor, dirac-power) -> case; for odd n the two conditions never hold
# together, and for even n the first implies the second
_CASES = {(False, False): "generic", (True, False): "twistor",
          (False, True): "dirac-power", (True, True): "both"}


def predicted_components(lam_thm, n, d_max):
    """Case table of the classification theorems.

    Twistor means lam - 1/2 in N, with the component X^0 M_m, m = lam - 1/2;
    Dirac power means lam + n/2 - 1/2 in N, with X^k M_0, k = 2 lam + n - 2.
    Returns (case_id, checkable, uncheckable) where checkable entries are
    (degree, k, m) with degree <= d_max and uncheckable those beyond.
    """
    lam = rational(lam_thm)
    twistor = _is_natural(lam - HALF)
    dirac = _is_natural(lam + rational(n, 2) - HALF)
    comps = [(0, 0, 0)]
    if twistor:
        m = int(lam - HALF)
        comps.append((m, 0, m))
    if dirac:
        k = int(2 * lam + n - 2)
        comps.append((k, k, 0))
    checkable = sorted(c for c in comps if c[0] <= d_max)
    uncheckable = sorted(c for c in comps if c[0] > d_max)
    return _CASES[twistor, dirac], checkable, uncheckable


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
    return contraction_sum(idx, ctx.rep, lambda j: _minus_d(ctx, j),
                           [(contraction_slope(idx, ctx.rep),
                             OperatorSpec.scalar(ctx.n, ctx.spinor_dim, QI_ONE))])


_CLOSED_FORMS = {1: ("sum_j gamma_j g_j(0) - C1(0)", "lambda part of C1: sum_j gamma_j d_j - D"),
                 2: ("sum_j x_j g_j(0) - C2(0)", "lambda part of C2: sum_j x_j d_j - E"),
                 3: ("sum_j eps_j d_j g_j(0) - C3(0)",
                     "lambda part of C3: sum_j eps_j d_j^2 + D^2")}


def closed_form_premises(ctx: Context, idxs):
    """Both checks of the closed form of each contraction in ``idxs``, for
    :func:`require`: its value at lambda 0 and its lambda slope."""
    for i in idxs:
        at_zero, slope = _CLOSED_FORMS[i]
        yield ": " + at_zero, contraction_identity_residual(ctx, i)
        yield ": " + slope, contraction_lambda_residual(ctx, i)


def _closed_forms_sound(ctx: Context, idxs):
    """True once the closed forms of the contractions ``idxs`` passed both
    checks, else refused; once per gamma model."""
    return ctx.rep.cached(("contraction-identity", idxs),
                          lambda: require(ctx.sig, closed_form_premises(ctx, idxs)))


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
    C2 scalar is zero; a block killed by g_1 is certified singular with no
    elimination, and the whole-degree g_i are assembled only for a block
    that is not.  The skips rest on the closed forms of the contractions,
    checked symbolically once per gamma model per process: C2's before the
    first degree, C1's and C3's only when a degree could be skipped by them.
    A gamma model that fails a check is refused with ArithmeticError
    (:func:`require`).
    """
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    lam_thm = rational(lam_thm)
    lam_real = lam_thm + rational(ctx.n, 2)
    case, checkable, uncheckable = predicted_components(lam_thm, ctx.n, d_max)
    predicted = [(d, k, m, monogenic_dim(ctx, m)) for d, k, m in checkable]
    _closed_forms_sound(ctx, (2,))
    found = []
    for degree in range(0, d_max + 1):
        ks = _zero_blocks(lam_real, degree, ctx.n, (2,))
        if not ks:
            continue
        if not _zero_blocks(lam_real, degree, ctx.n, (2, 1, 3)):
            _closed_forms_sound(ctx, (1, 3))
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
