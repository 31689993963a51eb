"""Equivariant differential operators built from singular vectors.

A family of singular vectors spanning one isotypic component, the columns
of a coordinate matrix, dualizes via the jet pairing <x^a (x) s, f> =
(d^a <s, f>)(0) to a constant-coefficient operator on dual-spinor-valued
polynomials.  It is checked singular by g_1 alone, as ``classify``
certifies a Fischer block, with each l_1j V = V R_1j read off pivot rows;
the family stores those and any R_ij it solves alike (``from_singular_vector``).
The operator intertwines the function-picture actions of the two twists of
the component; the verifier checks that exactly on a Lie generating set.
Both sides are constant-coefficient differential operators, so the residual
op . pi_src(Y) - pi_tgt(Y) . op is normal-ordered symbolically (Weyl
algebra tensor fiber matrices) into one OperatorSpec for the seeds
f_1..f_n, h and g_1; every other generator Y is reached by one bracket
[A, B] = c Y and needs no residual of its own when op intertwines A and B
and both actions satisfy that bracket: checked once per gamma model on the
dual spinor fiber, and per operator only on the relations of a stored R_ij,
as the rest hold by construction (see ``verify_intertwining``).  Only a
residual that does not cancel is assembled, on every polynomial test
degree, to report its size.

Twist bookkeeping.  The operator stores the theorem twists of its source and
target inducing modules (lambda_source, lambda_target = lambda_source -
order).  The function-picture parameter that realizes the contragredient of
the degree-shifted polynomial model at realization parameter mu is 1 - mu,
so the verifier runs the non-hatted realization at

    source: 1 - (lambda_source + n/2),  target: source + order,

with the dual fiber actions.  In contragredient subscripts these are
-(lambda_source + n/2) and -(lambda_target + n/2); both are reported, and
the tests assert that no shifted variant passes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from .exact import (
    GaussianRational,
    SparseMatrix,
    express_in_span,
    nullspace,
    rational,
    rational_to_string,
    QI_ONE,
)
from .polyspinor import OperatorSpec, OpTerm, assemble, _commutator, _product_sum
from .realization import (verma_action, function_action, generators, spinor_fiber, dual_fiber,
                          bracket_multiple, _unit)
from .fischer import monogenic_basis, x_power_matrix
from .singular import (kills, on_support, special_conformal_on, _at, _certificate_sound,
                       _rotation_constants)
from .context import Context

__all__ = [
    "EquivariantOperator",
    "IntertwiningReport",
    "from_singular_vector",
    "verify_intertwining",
    "bracket_premises",
    "dirac_power",
    "twistor",
    "dual_dirac_symbol",
]

HALF = rational(1, 2)


@dataclass
class EquivariantOperator:
    """Constant-coefficient operator from dual-spinor fields to dual-family fields.

    coefficients maps a derivative multi-index to the (target_dim x
    spinor_dim) matrix applied to that derivative of the argument; ``spec``
    is the same operator as a rectangular :class:`OperatorSpec`.
    """

    n: int
    order: int
    lambda_source: object
    lambda_target: object
    source_dim: int
    target_dim: int
    coefficients: dict
    family_rotations: dict  # (i, j), i < j -> R_ij solved on the family
    kind: str = "generic"
    dirac_symbol_ratio: GaussianRational | None = None

    def pi_star_pair(self):
        """Contragredient-picture subscripts of the verified twist pair."""
        nh = rational(self.n, 2)
        return (-(rational(self.lambda_source) + nh),
                -(rational(self.lambda_target) + nh))

    @property
    def spec(self) -> OperatorSpec:
        z = (0,) * self.n
        return OperatorSpec(self.n, self.source_dim,
                            [OpTerm(z, deriv, mat, QI_ONE)
                             for deriv, mat in self.coefficients.items()],
                            self.target_dim)

    def perturbed(self, deriv, row, col, delta=QI_ONE):
        """Copy with one coefficient entry shifted (negative-control helper)."""
        mat = self.coefficients[deriv]
        bump = SparseMatrix.from_entries(mat.rows, mat.cols, [(row, col, delta)])
        return replace(self, coefficients={**self.coefficients, deriv: mat + bump})

    def to_json(self):
        src, tgt = self.pi_star_pair()
        return {
            "kind": self.kind,
            "order": self.order,
            "twists": {
                "lambda_source": rational_to_string(rational(self.lambda_source)),
                "lambda_target": rational_to_string(rational(self.lambda_target)),
                "pi_star_source": rational_to_string(src),
                "pi_star_target": rational_to_string(tgt),
            },
            "source_dim": self.source_dim,
            "target_dim": self.target_dim,
            "dirac_symbol_ratio": (
                self.dirac_symbol_ratio.to_string()
                if self.dirac_symbol_ratio is not None else None
            ),
            "coefficients": {
                ",".join(map(str, deriv)): mat.to_json()["entries"]
                for deriv, mat in sorted(self.coefficients.items(), reverse=True)
            },
        }


@dataclass
class IntertwiningReport:
    residual_zero: bool
    generators_checked: int
    test_elements: int
    max_residual_terms: int
    first_failure: tuple | None = None

    def to_json(self):
        out = asdict(self)
        if self.first_failure is not None:
            gen, degree = self.first_failure
            out["first_failure"] = {"generator": str(gen), "element": str(degree)}
        return out


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def from_singular_vector(family, degree, lam_thm, ctx: Context,
                         kind="generic") -> EquivariantOperator:
    """Dualize a singular-vector family into a differential operator.

    The columns V of the SparseMatrix ``family`` are coordinate vectors in
    the degree-d basis, spanning one isotypic component at theorem twist
    lam_thm; entry x^a (x) e_b of column r becomes entry (r, b) of the
    coefficient matrix of d^a.  V is checked singular with g_1 and the
    l_1j, j >= 2, alone, assembled on V's support: g_1(lam) V = 0 and l_1j V
    = V R_1j (:func:`_rotation`); with the block certificate's premise
    [l_1j, g_1] = c_j g_j (``_certificate_sound``), g_j V = -g_1 V R_1j / c_j
    = 0.  If an l_1j V is outside V's span or a premise fails, every g_i is
    checked (``singular.kills``) before the rotations raise.

    ``family_rotations`` keeps the R_1j, and R_ij solved alike for each pair
    2 <= i < j without a Verma-side [l_1i, l_1j] = c_ij l_ij
    (``singular._rotation_constants``); :func:`_completed_rotations` derives
    the rest.  Raises if V is not rotation-closed.
    """
    if not family.cols:
        raise ValueError("empty singular family")
    lam_thm = rational(lam_thm)
    lam_real = lam_thm + rational(ctx.n, 2)
    if not _at(special_conformal_on(ctx, 1, degree, family), lam_real).is_zero():
        raise ValueError("family member is not a singular vector")
    rotations = {(1, j): _rotation(ctx, 1, j, degree, family) for j in range(2, ctx.n + 1)}
    if (None in rotations.values() or not _certificate_sound(ctx)) \
            and not kills(ctx, lam_real, degree, family):
        raise ValueError("family member is not a singular vector")
    c_ij = _rotation_constants(ctx)
    rotations.update(((i, j), _rotation(ctx, i, j, degree, family))
                     for i in range(2, ctx.n + 1) for j in range(i + 1, ctx.n + 1)
                     if (i, j) not in c_ij)
    if None in rotations.values():
        raise ValueError("family is not rotation-closed")
    coeffs, basis = {}, ctx.graded_basis(degree)
    for row, r, v in family.entries():
        mono, b = basis.element(row)
        coeffs.setdefault(mono, []).append((r, b, v))
    coefficients = {mono: SparseMatrix.from_entries(family.cols, ctx.spinor_dim, entries)
                    for mono, entries in coeffs.items()}
    return EquivariantOperator(
        n=ctx.n, order=degree,
        lambda_source=lam_thm, lambda_target=lam_thm - degree,
        source_dim=ctx.spinor_dim, target_dim=family.cols,
        coefficients=coefficients, family_rotations=rotations, kind=kind,
    )


def _rotation(ctx: Context, i, j, degree, family):
    """R with l_ij V = V R, V the columns of ``family``, or None off V's span:
    each rotation :func:`from_singular_vector` stores; l_ij is assembled on
    V's support.  A pivot row p_c, where V's one entry is in column c, gives
    R[c, :] = (l_ij V)[p_c, :] / V[p_c, c], as any solution has; one product
    checks R.  Else ``express_in_span``."""
    image = on_support(ctx, verma_action(("l", i, j), rational(0), ctx.rep), degree, family)
    pivots = {next(iter(row)): r for r, row in family.num.items() if len(row) == 1}
    if len(pivots) < family.cols:
        return express_in_span(family, image)
    rotation = SparseMatrix.from_entries(family.cols, family.rows, [
        (c, r, 1 / family.get(r, c)) for c, r in pivots.items()]) @ image
    return rotation if family @ rotation == image else None


def _completed_rotations(op: EquivariantOperator, ctx: Context):
    """(i, j) -> R_ij with l_ij V = V R_ij for every pair i < j: the stored
    rotations, and [R_1i, R_1j] / c_ij for each other pair, c_ij from
    ``singular._rotation_constants``, since l_ij V = [l_1i, l_1j] V / c_ij =
    V [R_1i, R_1j] / c_ij."""
    stored, c_ij = op.family_rotations, _rotation_constants(ctx)

    def rotation(i, j):
        if (i, j) in stored:
            return stored[i, j]
        a, b = stored[1, i], stored[1, j]
        return (a @ b - b @ a).scale(1 / c_ij[i, j])

    return {(i, j): rotation(i, j) for i in range(1, ctx.n + 1) for j in range(i + 1, ctx.n + 1)}


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _pi_star_specs(op: EquivariantOperator, ctx: Context, gens=None, rotations=None):
    """Function-picture actions on both sides of the operator, at realization
    parameters 1 + ``op.pi_star_pair()``: the operator's twists fix the pair.
    Built for ``gens``, every generator by default, with the target fiber
    dual to ``rotations``, by default :func:`_completed_rotations`."""
    lam_pi_src, lam_pi_tgt = (nu + 1 for nu in op.pi_star_pair())
    src_fiber = dual_fiber(spinor_fiber(ctx.rep))
    tgt_fiber = dual_fiber(_completed_rotations(op, ctx) if rotations is None else rotations)
    gens = generators(ctx.n) if gens is None else gens
    return ({gen: function_action(gen, lam_pi_src, ctx.rep, src_fiber) for gen in gens},
            {gen: function_action(gen, lam_pi_tgt, ctx.rep, tgt_fiber) for gen in gens})


def operator_matrix(op: EquivariantOperator, degree, ctx: Context):
    """Matrix of the operator from the degree-d source component."""
    return assemble(op.spec, degree, ctx.graded_basis).matrix


def _generating_plan(n):
    """Every generator with the bracket that reaches it, parents first.

    Entries are (Y, A, B).  The seeds f_1..f_n, h and g_1 carry A = B = None;
    then l_1j comes from [f_j, g_1], g_j from [l_1j, g_1] and l_ij from
    [l_1i, l_1j], each a nonzero multiple of Y (:func:`bracket_multiple`).
    """
    seeds = [("f", i) for i in range(1, n + 1)] + [("h",), ("g", 1)]
    plan = [(gen, None, None) for gen in seeds]
    plan += [(("l", 1, j), ("f", j), ("g", 1)) for j in range(2, n + 1)]
    plan += [(("g", j), ("l", 1, j), ("g", 1)) for j in range(2, n + 1)]
    plan += [(("l", i, j), ("l", 1, i), ("l", 1, j))
             for i in range(2, n + 1) for j in range(i + 1, n + 1)]
    return plan


def _plan_constants(sig, plan):
    """The derived entries of ``plan`` as (Y, A, B, c), c from ``bracket_multiple``."""
    return tuple((y, a, b, bracket_multiple(a, b, y, sig)) for y, a, b in plan if a is not None)


def _multiplied(a, b, n):
    """The (i, j) of every rho_(1,i) rho_(1,j) in [pi(a), pi(b)], or None if a or b
    holds another rotation: pi(l_ij) holds rho_(i,j), pi(g_i) every rho_(i,k)."""
    ones = [{g[2]} if g[:2] == ("l", 1) else set(range(2, n + 1)) if g == ("g", 1)
            else set() if g[0] in "fh" else None for g in (a, b)]
    if None in ones:
        return None
    return {(min(i, j), max(i, j)) for i in ones[0] for j in ones[1] if i != j}


def _relation(fiber, i, j, c):
    """[rho_(1,i), rho_(1,j)] - c rho_(i,j) on ``fiber``; None without a c."""
    a, b = fiber[(1, i)], fiber[(1, j)]
    return None if c is None else a @ b - b @ a - fiber[(i, j)].scale(c)


def bracket_premises(rep, entries):
    """(what, part, residual) for each premise of :func:`verify_intertwining`'s
    brackets on sigma, the dual spinor fiber, holding when the residual is not
    None and zero: per entry (Y, A, B) its residual at lambda 0 and its slope
    (None without a c, when :func:`_multiplied` is, or for the slope when A
    depends on lambda), per (i, j, c_ij) the relation, and the kernel of I and
    the sigma_m."""
    n, dim, sigma = rep.n, rep.spinor_dim, dual_fiber(spinor_fiber(rep))
    pi, at_one = ({gen: function_action(gen, lam, rep, sigma) for gen in generators(n)}
                  for lam in (0, 1))
    slope = {gen: (at_one[gen] - pi[gen]).combined() for gen in pi}
    out = []
    for y, a, b, c in entries:
        ok = c is not None and _multiplied(a, b, n) is not None
        out += [((y, a, b), "lambda-free", _commutator(pi[a], pi[b], pi[y], c) if ok else None),
                ((y, a, b), "slope", _commutator(pi[a], slope[b], slope[y], c)
                 if ok and slope[a].is_zero() else None)]
    for i in range(2, n + 1):
        for j in range(i + 1, n + 1):
            c = bracket_multiple(("l", 1, i), ("l", 1, j), ("l", i, j), rep.sig)
            out.append(((i, j, c), "relation", _relation(sigma, i, j, c)))
    mats = [SparseMatrix.identity(dim)] + [sigma[key] for key in sorted(sigma)]
    stack = SparseMatrix.from_columns(
        dim * dim, [{r * dim + col: v for r, col, v in m.entries()} for m in mats])
    return out + [(None, "independence", SparseMatrix.from_int_rows(len(mats), nullspace(stack)))]


def _model_verdict(rep, entries):
    """(the Y of ``entries`` established on every fiber meeting the relations,
    {(i, j): c_ij}), both empty if sigma fails those; once per model and c."""
    def build():
        premises = bracket_premises(rep, entries)
        failed = [(what, part) for what, part, r in premises if r is None or not r.is_zero()]
        if any(part in ("relation", "independence") for _, part in failed):
            return frozenset(), {}
        return (frozenset(y for y, _, _, _ in entries) - {what[0] for what, _ in failed},
                {what[:2]: what[2] for what, part, _ in premises if part == "relation"})
    return rep.cached(("function-brackets", entries), build)


def verify_intertwining(op: EquivariantOperator, test_degree,
                        ctx: Context) -> IntertwiningReport:
    """Check op . pi*_src(Y) - pi*_tgt(Y) . op = 0 exactly.

    The twist pair is the operator's own (:func:`_pi_star_specs`).  The
    generators are taken in the order of :func:`_generating_plan`.  A
    generator Y = [A, B] / c is established without a residual of its own
    when R_A and R_B are zero and [pi(A), pi(B)] = c pi(Y) for both actions:
    then c op pi_src(Y) = op [pi_src(A), pi_src(B)] = [pi_tgt(A), pi_tgt(B)] op
    = c pi_tgt(Y) op.  In ``function_action`` lambda enters only in the
    constant of pi(h), and the fiber matrices rho_m linearly, in zero-derivative
    terms with coefficient 1 or x_j; each entry's A is lambda-free.  So the
    bracket's residual is U0 + lambda U1 + sum_m W_m rho_m + sum C^A_k C^B_l
    [rho_k, rho_l], U0, U1 and W_m free of the fiber, or U0 + lambda U1 +
    sum_m Z_m rho_m on a fiber that meets the relations [rho_(1,i), rho_(1,j)]
    = c_ij rho_(i,j) it multiplies (:func:`_multiplied`).  On the dual spinor
    fiber sigma it is zero at lambda 0 and in its slope, sigma meets every
    relation, and I and the sigma_m are independent, so U0 = U1 = Z_m = 0
    (:func:`_model_verdict`, once per gamma model).  Per operator only the
    relations are checked, on the family rotations R (the dual fiber -R^T
    meets one exactly when R does), and only for a stored R_ij: the rest are
    [R_1i, R_1j] / c_ij (:func:`_completed_rotations`), with c_ij from the
    same ``bracket_multiple``; a sound gamma model stores none.  Where the
    model verdict, a relation the entry multiplies, c or a parent fails, Y is
    normal-ordered.

    The seeds f_1..f_n, h and g_1, and every generator not so established,
    have pi built and the residual normal-ordered into one spec R_Y: the
    seeds read only the stored R_1j, and any other generator the completed
    fiber, built once and only when one is normal-ordered.  R_Y holds the
    Leibniz terms of both products, the second negated, merged in one pass.
    A zero R_Y vanishes on every degree.  Otherwise R_Y is assembled on every
    graded component of degree <= test_degree; since assemble(A . B, d)
    equals assemble(A, d + shift) @ assemble(B, d), that is exactly the
    matrix of the residual on every monomial test function up to that
    degree.  A nonzero residual is reported, not raised: ``first_failure`` is
    the first failing generator in :func:`generators` order, and
    ``max_residual_terms`` the largest residual, which is always one computed
    directly.  ``generators_checked`` counts every generator.
    """
    if test_degree < op.order:
        raise ValueError("test degree below operator order")
    gens = generators(ctx.n)
    plan = _generating_plan(ctx.n)
    if len(plan) != len(gens) or {y for y, _, _ in plan} != set(gens):
        raise ValueError("the generating plan does not list every generator once")
    model, c_ij = _model_verdict(ctx.rep, ctx.rep.cached(
        ("plan-constants", tuple(plan)), lambda: _plan_constants(ctx.sig, plan)))
    stored = op.family_rotations
    meets = {r: r not in stored or _relation(stored, *r, c).is_zero() for r, c in c_ij.items()}
    spec = op.spec
    per_generator = sum(ctx.graded_basis(d, spec.dim).size for d in range(test_degree + 1))
    src, tgt = _pi_star_specs(op, ctx, [gen for gen, a, _ in plan if a is None], stored)
    completed = None
    zero = set()
    failures = {}
    max_terms = 0
    for gen, a, b in plan:
        if (a in zero and b in zero and gen in model
                and all(meets[r] for r in _multiplied(a, b, ctx.n))):
            zero.add(gen)
            continue
        if gen not in src:
            if completed is None:
                completed = _completed_rotations(op, ctx)
            for pi, more in zip((src, tgt), _pi_star_specs(op, ctx, [gen], completed)):
                pi.update(more)
        residual = _product_sum([(spec, src[gen]), (tgt[gen].scale(-1), spec)])
        if residual.is_zero():
            zero.add(gen)
            continue
        for d in range(test_degree + 1):
            terms = assemble(residual, d, ctx.graded_basis).matrix.num_entries()
            if terms:
                max_terms = max(max_terms, terms)
                failures.setdefault(gen, d)
    first = next(((gen, failures[gen]) for gen in gens if gen in failures), None)
    return IntertwiningReport(
        residual_zero=first is None,
        generators_checked=len(gens),
        test_elements=len(gens) * per_generator,
        max_residual_terms=max_terms,
        first_failure=first,
    )


# ---------------------------------------------------------------------------
# the named operator families
# ---------------------------------------------------------------------------


def dirac_power(a, ctx: Context) -> EquivariantOperator:
    """Order-a conformal power of the Dirac operator (a odd).

    Built from the canonical singular family X^a applied to the spinor basis,
    the columns of ``x_power_matrix(ctx, a, 0)``, at theorem twist
    -(n - 2 - a)/2; the coefficient matrices are compared entrywise with the
    a-th symbolic power of the first-order dual Dirac symbol and the exact
    ratio is recorded.
    """
    if a < 1 or a % 2 == 0:
        raise ValueError("order of a Dirac power must be odd")
    lam_thm = -rational(ctx.n - 2 - a, 2)
    op = from_singular_vector(x_power_matrix(ctx, a, 0), a, lam_thm, ctx, kind="dirac-power")
    naive = dual_dirac_symbol(a, ctx)
    op.dirac_symbol_ratio = _proportionality(op.coefficients, naive)
    return op


def twistor(a, ctx: Context) -> EquivariantOperator:
    """Order-a twistor operator with target the dual of the monogenic space."""
    if a < 1:
        raise ValueError("twistor order must be a positive integer")
    family = SparseMatrix.from_columns(ctx.graded_basis(a).size, monogenic_basis(ctx, a).vectors)
    return from_singular_vector(family, a, rational(a) + HALF, ctx, kind="twistor")


def dual_dirac_symbol(a, ctx: Context):
    """Coefficients of (sum_j eps_j G_j^T d_j)^a as a constant-coefficient map:
    the a-th ``compose`` power of that spec, each term read back as its
    matrix times its coefficient (identity terms as ``SparseMatrix.identity``)."""
    n, dim = ctx.n, ctx.spinor_dim
    first = OperatorSpec(n, dim, [
        OpTerm((0,) * n, _unit(n, j), ctx.rep.gamma(j).transpose().scale(ctx.sig.eps(j)),
               QI_ONE) for j in range(1, n + 1)])
    power = OperatorSpec.scalar(n, dim, QI_ONE)
    for _ in range(a):
        power = first.compose(power)
    return {t.deriv: SparseMatrix.identity(dim, t.coeff) if t.mat is None
            else t.mat.scale(t.coeff) for t in power.terms}


def _proportionality(coeffs_a, coeffs_b):
    """The exact c with A = c * B on every key, or None (also when the key
    sets differ or are empty): ``multiple_of`` of the keys side by side."""
    keys = sorted(coeffs_a)
    if not keys or set(coeffs_b) != set(keys):
        return None
    return SparseMatrix.hstack([coeffs_a[k] for k in keys]).multiple_of(
        SparseMatrix.hstack([coeffs_b[k] for k in keys]))
