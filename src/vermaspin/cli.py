"""Command-line interface: classify, scan, fischer, intertwiner, selftest.

Exit codes: 0 = success (and every requested check matched); 2 = a
theorem mismatch or nonzero residual was found (a first-class scientific
outcome, not a crash); 1 = usage or configuration error, or a failed
exact check (an ArithmeticError, such as a gamma model refused because it
fails a premise), reported as ``error: <message>``.

All report bytes are deterministic for a fixed configuration; JSON reports
additionally carry a ``generated_at`` timestamp field, which is the only
field that varies between runs.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache, reduce
from operator import matmul

from .exact import rational, rational_from_string, rational_to_string, qi
from .context import Context
from .fischer import dirac_matrix, monogenic_basis, monogenic_dim, x_power_matrix
from .singular import classify, scan, ClassificationReport
from .equivariant import dirac_power, twistor, verify_intertwining

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(1)


def _rational_arg(s):
    try:
        return rational_from_string(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            "expected an exact rational like 5/2 (floats are not accepted); %s" % exc)


# Past these caps a command exits 1 at once, in place of hanging or raising
# MemoryError.  MAX_COMPONENT_DIM bounds the top graded component a command
# assembles (README examples and benchmark jobs stay below 2100; n = 6 at
# degree 8 is 10296); MAX_GRID_POINTS bounds a scan grid's length.
MAX_COMPONENT_DIM = 50_000
MAX_GRID_POINTS = 10_000


def component_dim(n, degree):
    """Dimension of the degree-d component of spinor-valued polynomials in n variables."""
    return math.comb(max(degree, 0) + n - 1, n - 1) * 2 ** (n // 2)


def grid_points(a, b, step):
    """Number of points a, a + step, ... <= b, computed without building them."""
    return math.floor((b - a) / step) + 1


def _parse_grid(s):
    m = re.fullmatch(
        r"(?P<a>[+-]?\d+(?:/\d+)?)\.\.(?P<b>[+-]?\d+(?:/\d+)?):(?P<s>\d+(?:/\d+)?)",
        s.strip())
    if not m:
        raise argparse.ArgumentTypeError(
            "expected a grid like -4..4:1/2 with exact rational bounds and step")
    try:
        a = rational_from_string(m.group("a"))
        b = rational_from_string(m.group("b"))
        step = rational_from_string(m.group("s"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("grid %r: %s" % (s, exc))
    if step <= 0 or b < a:
        raise argparse.ArgumentTypeError("grid must have positive step and a <= b")
    count = grid_points(a, b, step)
    if count > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            "grid has %d points; at most %d are allowed" % (count, MAX_GRID_POINTS))
    out = []
    x = a
    while x <= b:
        out.append(x)
        x = x + step
    return out


@lru_cache(maxsize=None)
def build_parser():
    """The vermaspin argument parser, built once per process and reused by ``main``."""
    parser = _Parser(prog="vermaspin",
                     description="Exact singular-vector classification and "
                                 "equivariant spinor operators")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--p", type=int, required=True, help="positive signature count")
        p.add_argument("--q", type=int, default=0, help="negative signature count")
        p.add_argument("--variant", choices=["standard", "alt"], default="standard",
                       help="gamma-matrix construction")
        p.add_argument("--output", help="write the report here instead of stdout")

    c = sub.add_parser("classify", help="classify singular vectors at one twist")
    common(c)
    c.add_argument("--lambda", dest="lam", type=_rational_arg, required=True,
                   help="theorem twist, an exact rational like 5/2")
    c.add_argument("--dmax", type=int, default=6)
    c.add_argument("--format", choices=["json", "text"], default="json")

    s = sub.add_parser("scan", help="sweep a twist grid and classify each point")
    common(s)
    s.add_argument("--lambda-grid", dest="grid", type=_parse_grid, required=True,
                   help="grid like -4..4:1/2")
    s.add_argument("--dmax", type=int, default=6)
    s.add_argument("--format", choices=["csv", "json"], default="csv")

    f = sub.add_parser("fischer", help="monogenic dimensions and decomposition scheme")
    common(f)
    f.add_argument("--dmax", type=int, default=6)
    f.add_argument("--format", choices=["json", "csv"], default="json")

    i = sub.add_parser("intertwiner", help="build and verify an equivariant operator")
    common(i)
    i.add_argument("--kind", choices=["dirac", "twistor"], required=True)
    i.add_argument("--a", type=int, required=True, help="operator order")
    i.add_argument("--test-degree", dest="test_degree", type=int, default=5)

    t = sub.add_parser("selftest", help="run the invariant suite")
    t.add_argument("--verbose", action="store_true")
    return parser


def _context(args, degree):
    """The Context of the signature, once the top degree's size passes the cap."""
    for name, count in (("p", args.p), ("q", args.q)):
        if count < 0:
            raise SystemExit(_fail("--%s must be nonnegative, got %d" % (name, count)))
    n = args.p + args.q
    if n < 3:
        raise SystemExit(_fail("n >= 3 required"))
    if n // 2 >= MAX_COMPONENT_DIM.bit_length():
        # the fiber 2^(n // 2) alone is past the cap; do not compute it
        raise SystemExit(_fail("n = %d has a 2^%d-dimensional spinor fiber; at most %d is allowed"
                               % (n, n // 2, MAX_COMPONENT_DIM)))
    size = component_dim(n, degree)
    if size > MAX_COMPONENT_DIM:
        raise SystemExit(_fail(
            "degree %d in n = %d has a %d-dimensional component; at most %d is allowed"
            % (degree, n, size, MAX_COMPONENT_DIM)))
    return Context(args.p, args.q, variant=args.variant)


def _fail(message):
    sys.stderr.write("error: %s\n" % message)
    return 1


def _emit(text, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


SCHEMA_VERSION = 1


def _json_dump(obj):
    obj = dict(obj)
    obj["schema_version"] = SCHEMA_VERSION
    obj["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_classify(args):
    if args.dmax < 1:
        return _fail("dmax must be at least 1")
    ctx = _context(args, args.dmax)
    report = classify(ctx, args.lam, args.dmax)
    if args.format == "json":
        _emit(_json_dump(report.to_json()), args.output)
    else:
        _emit(report.to_text() + "\n", args.output)
    return 0 if report.match else 2


CSV_HEADER = "n,p,q,lambda,degree,label_k,label_m,chirality,dim,predicted,match"


def report_csv_rows(report: ClassificationReport):
    base = [report.n, report.p, report.q, rational_to_string(report.lam_thm)]
    match = "true" if report.match else "false"
    rows = []
    for c in report.found:
        if c.chirality_dims is None:
            rows.append(base + [c.degree, c.k, c.m, "none", c.dim, report.case, match])
        else:
            for tag in ("+", "-"):
                d = c.chirality_dims.get(tag, 0)
                if d:
                    rows.append(base + [c.degree, c.k, c.m, tag, d, report.case, match])
    return rows


def cmd_scan(args):
    if args.dmax < 1:
        return _fail("dmax must be at least 1")
    ctx = _context(args, args.dmax)
    reports = scan(ctx, args.grid, args.dmax)
    all_match = all(r.match for r in reports)
    if args.format == "json":
        payload = {
            "reports": [r.to_json() for r in reports],
            "all_match": all_match,
        }
        _emit(_json_dump(payload), args.output)
    else:
        lines = [CSV_HEADER]
        for r in reports:
            for row in report_csv_rows(r):
                lines.append(",".join(str(x) for x in row))
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if all_match else 2


def cmd_fischer(args):
    if args.dmax < 0:
        return _fail("dmax must be nonnegative")
    ctx = _context(args, args.dmax)
    spaces = []
    for d in range(args.dmax + 1):
        basis = monogenic_basis(ctx, d)
        entry = {"d": d, "dim": len(basis.rows)}
        if ctx.chirality is not None:
            entry["components"] = {
                "+": sum(1 for t in basis.chirality if t == "+"),
                "-": sum(1 for t in basis.chirality if t == "-"),
            }
        spaces.append(entry)
    if args.format == "json":
        payload = {
            "n": ctx.n, "p": ctx.sig.p, "q": ctx.sig.q, "d_max": args.dmax,
            "spaces": spaces,
        }
        _emit(_json_dump(payload), args.output)
    else:
        lines = ["degree,x_power,monogenic_degree,dim"]
        for d in range(args.dmax + 1):
            for k in range(d + 1):
                lines.append("%d,%d,%d,%d" % (d, k, d - k, monogenic_dim(ctx, d - k)))
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_intertwiner(args):
    if args.test_degree < 0:
        return _fail("--test-degree must be nonnegative, got %d" % args.test_degree)
    ctx = _context(args, max(args.a, args.test_degree))
    try:
        if args.kind == "dirac":
            op = dirac_power(args.a, ctx)
        else:
            op = twistor(args.a, ctx)
    except ValueError as exc:
        return _fail(str(exc))
    test_degree = max(args.test_degree, op.order)
    report = verify_intertwining(op, test_degree, ctx)
    payload = op.to_json()
    payload["test_degree"] = test_degree
    payload["verification"] = report.to_json()
    payload["residual_zero"] = report.residual_zero
    _emit(_json_dump(payload), args.output)
    return 0 if report.residual_zero else 2


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def _check(cond, msg=""):
    """Raise AssertionError when cond is false, also under python -O."""
    if not cond:
        raise AssertionError(msg)


def _selftest_checks():
    """Bounded invariant suite; each yielded callable raises on failure."""
    from .exact import GaussianRational, SparseMatrix, nullspace, kernel_vectors, rref
    from .clifford import Signature, build_gamma_rep
    from .polyspinor import assemble
    from .realization import (osp_generators, verma_action, function_action, spinor_fiber,
                              dual_fiber, structure_constants, invariant_contractions,
                              bracket_multiple)
    from .equivariant import _generating_plan, _plan_constants, bracket_premises
    from .singular import (singular_vectors, closed_form_premises, certificate_premises,
                           rotation_premises, require, xd_eigenvalue)

    def scalars():
        a = qi(rational(-3, 4), rational(1, 2))
        _check(GaussianRational.from_string(a.to_string()) == a,
               "string round trip of %s" % a.to_string())
        _check(a * a / a == a, "a * a / a != a for a = %s" % a.to_string())
        # one canonical integer triple (a + b i) / d per scalar
        b = qi(rational(1, 2), rational(1, 3))
        _check(b._d == 6, "qi(1/2, 1/3) stores d = %d, not 6" % b._d)
        one = qi(rational(1, 2)) * 2
        _check(one._d == 1 and one == 1 and one == Fraction(1)
               and hash(one) == hash(1) == hash(Fraction(1)),
               "qi(1/2) * 2 = %r is not the integer 1" % one)
        m = SparseMatrix.from_dense([[qi(1), qi(0, 1)], [qi(0, -1), qi(1)]])
        red, piv = rref(m)
        _check(piv == [0] and red.get(0, 1) == qi(0, 1),
               "rref of [[1, i], [-i, 1]]: pivots %s" % piv)
        # the kernel as Gaussian-integer rows L v, and its vectors v
        ker = nullspace(SparseMatrix.from_dense([[qi(1), qi(0, 1)]]))
        _check(ker == [{0: (1, 0), 1: (0, 1)}], "nullspace of [[1, i]]: %s" % ker)
        _check(kernel_vectors(ker) == [{0: qi(1), 1: qi(0, 1)}],
               "kernel vectors of [[1, i]]: %s" % kernel_vectors(ker))
        # a non-unit Gaussian pivot, and a row with denominators
        ker = nullspace(SparseMatrix.from_dense([[qi(2), qi(1, 1)]]))
        _check(ker == [{0: (1, 0), 1: (-1, 1)}], "nullspace of [[2, 1+i]]: %s" % ker)
        _check(kernel_vectors(ker) == [{0: qi(1), 1: qi(-1, 1)}],
               "kernel vectors of [[2, 1+i]]: %s" % kernel_vectors(ker))
        ker = nullspace(SparseMatrix.from_dense([[qi(rational(1, 2)), qi(0, rational(1, 3))]]))
        _check(ker == [{0: (2, 0), 1: (0, 3)}], "nullspace of [[1/2, i/3]]: %s" % ker)
        _check(kernel_vectors(ker) == [{0: qi(1), 1: qi(0, rational(3, 2))}],
               "kernel vectors of [[1/2, i/3]]: %s" % kernel_vectors(ker))

    def gamma_relations():
        for (p, q) in [(3, 0), (1, 2), (2, 2), (5, 0), (3, 3)]:
            rep = build_gamma_rep(Signature(p, q))
            N = rep.spinor_dim
            for i in range(1, rep.n + 1):
                for j in range(i, rep.n + 1):
                    anti = rep.gamma(i) @ rep.gamma(j) + rep.gamma(j) @ rep.gamma(i)
                    expect = (SparseMatrix.identity(N, qi(-2 * rep.sig.eps(i))) if i == j
                              else SparseMatrix.zero(N, N))
                    _check(anti == expect, "signature (%d,%d): {G_%d, G_%d}" % (p, q, i, j))

    def blades():
        # the blade table's blades and products against plain products of the gammas
        rep = build_gamma_rep(Signature(2, 2))
        table = rep.table
        plain = [reduce(matmul, [g for i, g in enumerate(rep.gammas) if b >> i & 1],
                        SparseMatrix.identity(rep.spinor_dim)) for b in range(16)]
        for b1 in range(16):
            _check(table.blade(b1) == plain[b1], "signature (2,2): blade %d" % b1)
            for b2 in range(16):
                mask, s = table.product(b1, b2)
                _check(plain[b1] @ plain[b2] == table.blade(mask).scale(s),
                       "signature (2,2): blades %d * %d" % (b1, b2))

    def osp_relations():
        for (p, q) in [(2, 1), (2, 2)]:
            ctx = Context(p, q)
            D, E, X = osp_generators(ctx.rep)
            mk = ctx.graded_basis
            for d in range(0, 4):
                Dd = assemble(D, d, mk).matrix
                Ed = assemble(E, d, mk).matrix
                Xd = assemble(X, d, mk).matrix
                where = "signature (%d,%d), degree %d: " % (p, q, d)
                lhs = assemble(E, d - 1, mk).matrix @ Dd - Dd @ Ed
                _check(lhs == Dd.scale(-1), where + "[E, D] = -D")
                anti = assemble(D, d + 1, mk).matrix @ Xd + assemble(X, d - 1, mk).matrix @ Dd
                _check(anti == Ed.scale(-2) - SparseMatrix.identity(Ed.rows).scale(ctx.n),
                       where + "{D, X} = -2E - n")
                _check(assemble(E, d + 1, mk).matrix @ Xd - Xd @ Ed == Xd, where + "[E, X] = X")

    def brackets():
        ctx = Context(2, 1)
        lam = rational(2, 5)
        sc = structure_constants(ctx.sig)
        fiber = dual_fiber(spinor_fiber(ctx.rep))
        for picture in ("verma", "function"):
            act = {}
            for g in sc.gens:
                act[g] = (verma_action(g, lam, ctx.rep) if picture == "verma"
                          else function_action(g, lam, ctx.rep, fiber))
            mk = ctx.graded_basis
            for d in (0, 1, 2):
                for a in sc.gens:
                    for b in sc.gens:
                        sa = act[a].shifts(); sb = act[b].shifts()
                        sa = sa[0] if sa else 0
                        sb = sb[0] if sb else 0
                        lhs = assemble(act[a], d + sb, mk).matrix @ assemble(act[b], d, mk).matrix \
                            - assemble(act[b], d + sa, mk).matrix @ assemble(act[a], d, mk).matrix
                        rhs = SparseMatrix.zero(lhs.rows, lhs.cols)
                        for g2, c in sc.bracket(a, b):
                            rhs = rhs + assemble(act[g2], d, mk).matrix.scale(c)
                        _check(lhs == rhs, "signature (2,1), %s picture, lambda 2/5: "
                               "[%s, %s] at degree %d" % (picture, a, b, d))

    def generating_plan():
        # every generator the verifier derives is one bracket of earlier ones
        for (p, q) in [(3, 0), (2, 1), (1, 2), (2, 2), (5, 0), (3, 3)]:
            sig = Signature(p, q)
            for y, a, b in _generating_plan(sig.n):
                if a is not None:
                    _check(bracket_multiple(a, b, y, sig) is not None,
                           "signature (%d,%d): [%s, %s] is not a nonzero multiple of %s"
                           % (p, q, a, b, y))

    def function_brackets():
        # the premises of verify_intertwining's bracket identities, per gamma model
        for (p, q) in [(3, 0), (2, 1), (1, 2), (2, 2), (5, 0), (3, 3)]:
            ctx = Context(p, q)
            entries = _plan_constants(ctx.sig, _generating_plan(ctx.n))
            require(ctx.sig, bracket_premises(ctx.rep, entries))

    def contractions():
        ctx = Context(3, 0)
        for lam in (rational(2), rational(-1, 3)):
            cons = invariant_contractions(lam, ctx.rep)
            mk = ctx.graded_basis
            for d in range(0, 5):
                for k, (s, c) in enumerate(cons, 1):
                    _check(assemble(s, d, mk).matrix == assemble(c, d, mk).matrix,
                           "signature (3,0), lambda %s: contraction C%d at degree %d"
                           % (rational_to_string(lam), k, d))

    def ladder():
        # D X^k V = xd_eigenvalue(k, m) X^(k-1) V on the columns V of M_m
        ctx = Context(2, 1)
        for m in (0, 1, 2):
            v = SparseMatrix.from_columns(ctx.graded_basis(m).size, monogenic_basis(ctx, m).vectors)
            for k in range(0, 4):
                img = dirac_matrix(ctx, m + k).matrix @ x_power_matrix(ctx, k, m) @ v
                expect = x_power_matrix(ctx, k - 1, m).scale(xd_eigenvalue(k, m, ctx.n)) @ v \
                    if k else SparseMatrix.zero(img.rows, img.cols)
                _check(img == expect, "signature (2,1): D X^%d on M_%d" % (k, m))

    def fischer_rule():
        # the extension makes the telescoping count hold by construction, so
        # each basis is also compared with an independent elimination of D
        for (p, q) in [(3, 0), (2, 2)]:
            ctx = Context(p, q)
            for d in range(0, 5):
                _check(sorted(monogenic_basis(ctx, d).rows, key=min)
                       == nullspace(dirac_matrix(ctx, d).matrix),
                       "signature (%d,%d), degree %d: the monogenic basis is not the RREF "
                       "kernel of D" % (p, q, d))
                total = sum(monogenic_dim(ctx, m) for m in range(d + 1))
                expect = math.comb(d + ctx.n - 1, ctx.n - 1) * ctx.spinor_dim
                _check(total == expect, "signature (%d,%d), degree %d: sum of dim M_m is %d, "
                       "expected %d" % (p, q, d, total, expect))
        for m in range(4):
            _check(monogenic_dim(Context(4, 0), m) == monogenic_dim(Context(2, 2), m),
                   "dim M_%d differs between signatures (4,0) and (2,2)" % m)

    def classification():
        ctx = Context(3, 0)
        rep = classify(ctx, rational(5, 2), 6)
        where = "signature (3,0), lambda 5/2, dmax 6: "
        _check(rep.match and rep.case == "twistor",
               where + "case %s, match %s" % (rep.case, rep.match))
        labels = sorted(c.label() for c in rep.found)
        _check(labels == [(0, 0, 0, 2), (2, 0, 2, 6)], where + "labels %s" % labels)
        case = classify(ctx, rational(1), 6).case
        _check(case == "dirac-power", "signature (3,0), lambda 1, dmax 6: case %s" % case)
        case = classify(ctx, rational(1, 5), 4).case
        _check(case == "generic", "signature (3,0), lambda 1/5, dmax 4: case %s" % case)
        # at realization parameter 3 the degree-1 kernel is M_1, and both
        # sides are its canonical basis
        a = singular_vectors(ctx, rational(3), 1)
        b = monogenic_basis(ctx, 1).elements
        _check([x.terms for x in a] == [x.terms for x in b],
               "signature (3,0), degree 1: singular vectors at parameter 3 are not M_1")

    def prefilter_identity():
        for (p, q) in [(3, 0), (2, 1), (2, 2)]:
            ctx = Context(p, q)
            require(ctx.sig, closed_form_premises(ctx, (2, 1, 3)))

    def block_certificate():
        # the premises of the g_1-alone certificates and the derived rotations
        for (p, q) in [(3, 0), (2, 1), (2, 2), (5, 0), (3, 3)]:
            ctx = Context(p, q)
            require(ctx.sig, certificate_premises(ctx) + rotation_premises(ctx))

    def intertwining():
        ctx = Context(2, 1)
        op = dirac_power(1, ctx)
        _check(op.dirac_symbol_ratio == qi(1),
               "signature (2,1): Dirac power 1 symbol ratio %s" % op.dirac_symbol_ratio)

        def expect(operator, test_degree, zero, what):
            report = verify_intertwining(operator, test_degree, ctx)
            _check(report.residual_zero == zero,
                   "signature (2,1), %s, test degree %d: residual_zero %s, first failure "
                   "%s, max residual terms %d" % (what, test_degree, report.residual_zero,
                                                  report.first_failure,
                                                  report.max_residual_terms))

        expect(op, 3, True, "Dirac power 1")
        expect(replace(op, lambda_source=op.lambda_source - 1), 2, False,
               "Dirac power 1, source offset 1")
        deriv = next(iter(op.coefficients))
        expect(op.perturbed(deriv, 0, 0), 2, False,
               "Dirac power 1 perturbed at d^%s entry (0, 0)" % (deriv,))
        expect(twistor(1, ctx), 3, True, "twistor 1")

    return [
        ("exact scalars and kernels", scalars),
        ("gamma defining relations", gamma_relations),
        ("blade/gamma homomorphism", blades),
        ("osp(1|2) relations", osp_relations),
        ("representation brackets", brackets),
        ("generating-set plan", generating_plan),
        ("function-picture brackets", function_brackets),
        ("contraction closed forms", contractions),
        ("monogenic ladder scalars", ladder),
        ("monogenic sum rule", fischer_rule),
        ("classification spot checks", classification),
        ("contraction prefilter identity", prefilter_identity),
        ("block certificate premises", block_certificate),
        ("equivariant intertwining", intertwining),
    ]


def cmd_selftest(args):
    failures = 0
    for name, check in _selftest_checks():
        t0 = time.time()
        try:
            check()
        except Exception as exc:
            failures += 1
            print("FAIL %-31s %s: %s" % (name, type(exc).__name__, exc))
            continue
        suffix = " (%.1fs)" % (time.time() - t0) if args.verbose else ""
        print("PASS %-31s%s" % (name, suffix))
    if failures:
        print("%d check(s) failed" % failures)
        return 1
    print("all checks passed")
    return 0


def _prejoin(argv):
    """Glue values onto --lambda/--lambda-grid so leading '-' parses."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--lambda", "--lambda-grid") and i + 1 < len(argv):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(_prejoin(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    handlers = {
        "classify": cmd_classify,
        "scan": cmd_scan,
        "fischer": cmd_fischer,
        "intertwiner": cmd_intertwiner,
        "selftest": cmd_selftest,
    }
    try:
        code = handlers[args.command](args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except (ValueError, ArithmeticError, OSError) as exc:
        code = _fail(str(exc))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
