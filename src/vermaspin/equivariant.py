"""Equivariant differential operators built from singular vectors.

A family of singular vectors spanning one isotypic component dualizes, via
the jet pairing <x^a (x) s, f> = (d^a <s, f>)(0), to a constant-coefficient
differential operator acting on dual-spinor-valued polynomials.  The
operator intertwines the function-picture actions of the two twists
attached to the component; the verifier checks that property exactly on a
Lie generating set.  Both sides are constant-coefficient differential
operators, so the residual op . pi_src(Y) - pi_tgt(Y) . op is normal-ordered
symbolically (Weyl algebra tensor fiber matrices) into one OperatorSpec for
the seeds f_1..f_n, h and g_1; every other generator Y is reached by one
bracket [A, B] = c Y and needs no residual of its own when op intertwines A
and B and both actions satisfy that bracket exactly (see
``verify_intertwining``).  Only a residual that does not cancel is
assembled, on every polynomial test degree, to report its size.

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

from dataclasses import dataclass, replace

from .exact import (
    GaussianRational,
    SparseMatrix,
    express_in_span,
    rational,
    rational_to_string,
    QI_ONE,
)
from .polyspinor import SpinorPoly, OperatorSpec, OpTerm, assemble, _product_sum
from .realization import (verma_action, function_action, generators, spinor_fiber, dual_fiber,
                          bracket_multiple)
from .fischer import apply_x_power, monogenic_basis
from .singular import special_conformal_matrices
from .context import Context

__all__ = [
    "EquivariantOperator",
    "IntertwiningReport",
    "from_singular_vector",
    "verify_intertwining",
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
    p: int
    q: int
    order: int
    lambda_source: object
    lambda_target: object
    source_dim: int
    target_dim: int
    coefficients: dict
    family_rotations: dict  # (i, j), i < j -> action on the singular family
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

    def apply(self, poly: SpinorPoly) -> SpinorPoly:
        return self.spec.apply(poly)

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
        return {
            "residual_zero": self.residual_zero,
            "generators_checked": self.generators_checked,
            "test_elements": self.test_elements,
            "max_residual_terms": self.max_residual_terms,
            "first_failure": (
                None if self.first_failure is None
                else {"generator": str(self.first_failure[0]),
                      "element": str(self.first_failure[1])}
            ),
        }


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def from_singular_vector(svs, lam_thm, ctx: Context, kind="generic") -> EquivariantOperator:
    """Dualize a singular-vector family into a differential operator.

    ``svs`` is one SpinorPoly or a list spanning a single isotypic component
    at theorem twist lam_thm; each monomial x^a (x) w of the r-th family
    member becomes row r of the coefficient matrix of d^a.  Every member is
    checked exactly to be singular first.
    """
    if isinstance(svs, SpinorPoly):
        svs = [svs]
    if not svs:
        raise ValueError("empty singular family")
    lam_thm = rational(lam_thm)
    degrees = {p.homogeneous_degree() for p in svs}
    if len(degrees) != 1 or None in degrees:
        raise ValueError("family must be homogeneous of one degree")
    degree = degrees.pop()
    lam_real = lam_thm + rational(ctx.n, 2)
    basis = ctx.graded_basis(degree)
    family = SparseMatrix.from_columns(basis.size, [basis.coordinates(sv) for sv in svs])
    for mat in special_conformal_matrices(ctx, lam_real, degree):
        if not (mat @ family).is_zero():
            raise ValueError("family member is not a singular vector")
    dim_s = ctx.spinor_dim
    coeffs = {}
    for r, sv in enumerate(svs):
        for mono, vec in sv.terms.items():
            entries = coeffs.setdefault(mono, [])
            for b, v in vec.items():
                entries.append((r, b, v))
    coefficients = {
        mono: SparseMatrix.from_entries(len(svs), dim_s, entries)
        for mono, entries in coeffs.items()
    }
    rotations = _family_rotations(family, degree, lam_real, ctx)
    return EquivariantOperator(
        n=ctx.n, p=ctx.sig.p, q=ctx.sig.q, order=degree,
        lambda_source=lam_thm, lambda_target=lam_thm - degree,
        source_dim=dim_s, target_dim=len(svs),
        coefficients=coefficients, family_rotations=rotations, kind=kind,
    )


def _family_rotations(family, degree, lam_real, ctx: Context):
    """Rotation action on the family span, solved exactly per generator pair.

    ``family`` is the matrix whose columns are the family's coordinate
    vectors at ``degree``; the action of l_ij is the X with
    l_ij @ family == family @ X.  Raises if the family is not closed under
    the rotation action (i.e. is not an isotypic submodule).
    """
    out = {}
    for i in range(1, ctx.n + 1):
        for j in range(i + 1, ctx.n + 1):
            spec = verma_action(("l", i, j), lam_real, ctx.rep)
            rotation = express_in_span(
                family, assemble(spec, degree, ctx.graded_basis).matrix @ family)
            if rotation is None:
                raise ValueError("family is not rotation-closed")
            out[(i, j)] = rotation
    return out


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _pi_star_specs(op: EquivariantOperator, ctx: Context, source_offset=0,
                   target_offset=0):
    """Function-picture actions on both sides of the operator.

    The offsets shift the realization parameters away from the derived ones;
    nonzero offsets are used only by the negative controls.
    """
    nu_src, nu_tgt = op.pi_star_pair()
    lam_pi_src = nu_src + 1 + source_offset
    lam_pi_tgt = nu_tgt + 1 + target_offset
    src_fiber = dual_fiber(spinor_fiber(ctx.rep))
    tgt_fiber = dual_fiber(op.family_rotations)
    src = {}
    tgt = {}
    for gen in generators(ctx.n):
        src[gen] = function_action(gen, lam_pi_src, ctx.rep, src_fiber)
        tgt[gen] = function_action(gen, lam_pi_tgt, ctx.rep, tgt_fiber)
    return src, tgt


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


def _bracket_closes(pi, a, b, y, c):
    """Whether [pi(a), pi(b)] - c pi(y) normal-orders to zero."""
    one = OperatorSpec.scalar(pi[y].n, pi[y].dim, QI_ONE)
    return _product_sum([(pi[a], pi[b]), (pi[b].scale(-1), pi[a]),
                         (pi[y].scale(-c), one)]).is_zero()


def verify_intertwining(op: EquivariantOperator, test_degree, ctx: Context,
                        source_offset=0, target_offset=0) -> IntertwiningReport:
    """Check op . pi*_src(Y) - pi*_tgt(Y) . op = 0 exactly.

    The generators are taken in the order of :func:`_generating_plan`.  A
    generator Y = [A, B] / c is established without a residual of its own
    when three things hold: R_A and R_B are zero operators; the abstract
    model gives [A, B] = c Y with c != 0 and no other generator; and
    [pi(A), pi(B)] - c pi(Y) normal-orders to zero for the source and for
    the target action.  Then

        c op pi_src(Y) = op [pi_src(A), pi_src(B)]
                       = [pi_tgt(A), pi_tgt(B)] op = c pi_tgt(Y) op,

    so R_Y is zero as an operator.  Every other generator, the seeds
    f_1..f_n, h and g_1 among them, has its residual normal-ordered into
    one spec R_Y: the Leibniz terms of both products, the second negated,
    are merged in one pass.  A zero R_Y vanishes on every degree.
    Otherwise R_Y is assembled on every graded component of degree <=
    test_degree; since assemble(A . B, d) equals assemble(A, d + shift) @
    assemble(B, d), that is exactly the matrix of the residual on every
    monomial test function up to that degree.  A nonzero residual is
    reported, not raised: ``first_failure`` is the first failing generator
    in :func:`generators` order, and ``max_residual_terms`` the largest
    residual, which is always one computed directly.  ``generators_checked``
    counts every generator, established directly or by a bracket identity.
    """
    if test_degree < op.order:
        raise ValueError("test degree below operator order")
    src, tgt = _pi_star_specs(op, ctx, source_offset, target_offset)
    gens = generators(ctx.n)
    plan = _generating_plan(ctx.n)
    if len(plan) != len(gens) or {y for y, _, _ in plan} != set(gens):
        raise ValueError("the generating plan does not list every generator once")
    spec = op.spec
    per_generator = sum(ctx.graded_basis(d, spec.dim).size for d in range(test_degree + 1))
    zero = set()
    failures = {}
    max_terms = 0
    for gen, a, b in plan:
        if a in zero and b in zero:
            c = bracket_multiple(a, b, gen, ctx.sig)
            if c is not None and _bracket_closes(src, a, b, gen, c) \
                    and _bracket_closes(tgt, a, b, gen, c):
                zero.add(gen)
                continue
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

    Built from the canonical singular family X^a applied to the spinor basis
    at theorem twist -(n - 2 - a)/2; the coefficient matrices are compared
    entrywise with the a-th symbolic power of the first-order dual Dirac
    symbol and the exact ratio is recorded.
    """
    if a < 1 or a % 2 == 0:
        raise ValueError("order of a Dirac power must be odd")
    n = ctx.n
    lam_thm = -rational(n - 2 - a, 2)
    family = [apply_x_power(ctx, a, SpinorPoly.constant(n, ctx.spinor_dim, b))
              for b in range(ctx.spinor_dim)]
    op = from_singular_vector(family, lam_thm, ctx, kind="dirac-power")
    naive = dual_dirac_symbol(a, ctx)
    op.dirac_symbol_ratio = _proportionality(op.coefficients, naive)
    return op


def twistor(a, ctx: Context) -> EquivariantOperator:
    """Order-a twistor operator with target the dual of the monogenic space."""
    if a < 1:
        raise ValueError("twistor order must be a positive integer")
    lam_thm = rational(a) + HALF
    family = monogenic_basis(ctx, a).elements
    if not family:
        raise ValueError("no singular vectors at this order")
    return from_singular_vector(family, lam_thm, ctx, kind="twistor")


def dual_dirac_symbol(a, ctx: Context):
    """Coefficients of (sum_j eps_j G_j^T d_j)^a as a constant-coefficient map."""
    n, dim = ctx.n, ctx.spinor_dim
    first = {}
    for j in range(1, n + 1):
        deriv = tuple(1 if k == j - 1 else 0 for k in range(n))
        first[deriv] = ctx.rep.gamma(j).transpose().scale(ctx.sig.eps(j))
    out = { (0,) * n: SparseMatrix.identity(dim) }
    for _ in range(a):
        nxt = {}
        for d1, m1 in out.items():
            for d2, m2 in first.items():
                d = tuple(x + y for x, y in zip(d1, d2))
                m = m2 @ m1
                cur = nxt.get(d)
                nxt[d] = m if cur is None else cur + m
        out = {d: m for d, m in nxt.items() if not m.is_zero()}
    return out


def _proportionality(coeffs_a, coeffs_b):
    """The exact constant c with A = c * B entrywise, or None.

    c is read off the first entry of A, and then every key is compared
    exactly.
    """
    first = next(((key, r, c, v) for key, a in coeffs_a.items() for r, c, v in a.entries()),
                 None)
    if first is None or set(coeffs_a) != set(coeffs_b):
        return None
    key, r, c, v = first
    w = coeffs_b[key].get(r, c)
    if not w:
        return None
    ratio = v / w
    return ratio if all(coeffs_b[k].scale(ratio) == a for k, a in coeffs_a.items()) else None
