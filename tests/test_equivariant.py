import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from vermaspin import clifford, equivariant, realization, singular
from vermaspin.context import Context
from vermaspin.exact import qi, rational, QI_ONE, SparseMatrix, express_in_span
from vermaspin.polyspinor import OperatorSpec, OpTerm, SpinorPoly, assemble, _commutator, _product_sum
from vermaspin.fischer import monogenic_basis, monogenic_dim, x_power_matrix
from vermaspin.realization import (bracket_multiple, dual_fiber, function_action, generators,
                                  spinor_fiber, verma_action)
from vermaspin.singular import singular_vectors, special_conformal_matrices, special_conformal_on
from vermaspin.equivariant import (
    IntertwiningReport,
    _completed_rotations,
    _generating_plan,
    _pi_star_specs,
    from_singular_vector,
    operator_matrix,
    verify_intertwining,
    dirac_power,
    twistor,
    dual_dirac_symbol,
)

HALF = rational(1, 2)


def test_first_power_is_dirac_symbol(ctx_factory):
    ctx = ctx_factory(3, 0)
    op = dirac_power(1, ctx)
    assert op.order == 1
    assert op.lambda_source == rational(0) and op.lambda_target == rational(-1)
    # coefficient of d_j is eps_j times the transposed Clifford generator
    for j in range(1, 4):
        deriv = tuple(1 if k == j - 1 else 0 for k in range(3))
        assert op.coefficients[deriv] == ctx.rep.gamma(j).transpose()
    assert op.dirac_symbol_ratio == QI_ONE
    # the ratio is read off one entry, then every key is compared exactly
    ratio = equivariant._proportionality
    coeffs = op.coefficients
    keys = list(coeffs)
    c = qi(2, -3)
    assert ratio({k: m.scale(c) for k, m in coeffs.items()}, coeffs) == c
    off = {k: m.scale(c if k != keys[-1] else c * 2) for k, m in coeffs.items()}
    assert ratio(off, coeffs) is None
    assert ratio({k: coeffs[k] for k in keys[:-1]}, coeffs) is None
    assert ratio({}, {}) is None


def test_pi_star_pair_values(ctx_factory):
    for (p, q) in [(3, 0), (2, 2)]:
        ctx = ctx_factory(p, q)
        for a in (1, 3):
            op = dirac_power(a, ctx)
            src, tgt = op.pi_star_pair()
            assert src == -rational(a + 2, 2)
            assert tgt == rational(a - 2, 2)
            n = ctx.n
            assert op.lambda_source == -rational(n - 2 - a, 2)
            assert op.lambda_target == -rational(n - 2 + a, 2)


def test_dirac_power_rejects_even_order(ctx_factory):
    ctx = ctx_factory(3, 0)
    with pytest.raises(ValueError, match="odd"):
        dirac_power(2, ctx)


def test_intertwining_dirac_and_cube(ctx_factory):
    ctx = ctx_factory(3, 0)
    for a in (1, 3):
        op = dirac_power(a, ctx)
        report = verify_intertwining(op, max(3, a), ctx)
        assert report.residual_zero
        assert op.dirac_symbol_ratio == QI_ONE


def test_intertwining_twistor(ctx_factory):
    ctx = ctx_factory(2, 1)
    for a in (1, 2):
        op = twistor(a, ctx)
        assert op.target_dim == monogenic_dim(ctx, a)
        assert op.lambda_source == rational(a) + HALF
        report = verify_intertwining(op, max(3, a), ctx)
        assert report.residual_zero


def test_intertwining_n5_full_degree(ctx_factory):
    # residual exactly zero through test degree 5 in dimension five as well
    ctx = ctx_factory(5, 0)
    for op in (dirac_power(1, ctx), dirac_power(3, ctx),
               twistor(1, ctx), twistor(2, ctx)):
        assert verify_intertwining(op, 5, ctx).residual_zero


def test_no_other_twist_variant_passes(ctx_factory, twist_offset):
    ctx = ctx_factory(3, 0)
    op = dirac_power(1, ctx)
    for s_off, t_off in [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1),
                         (HALF, 0), (0, HALF)]:
        report = verify_intertwining(twist_offset(op, s_off, t_off), 2, ctx)
        assert not report.residual_zero, (s_off, t_off)


def test_perturbation_is_detected(ctx_factory):
    ctx = ctx_factory(3, 0)
    op = dirac_power(1, ctx)
    deriv = next(iter(sorted(op.coefficients)))
    bad = op.perturbed(deriv, 0, 0, qi(rational(1, 7)))
    report = verify_intertwining(bad, 2, ctx)
    assert not report.residual_zero
    assert report.first_failure is not None


def test_failing_report_json_golden(ctx_factory, twist_offset):
    # the bytes the CLI writes for a failing report (sort_keys, indent 2)
    ctx = ctx_factory(2, 1)
    report = verify_intertwining(twist_offset(dirac_power(1, ctx), source=1), 2, ctx)
    assert json.dumps(report.to_json(), sort_keys=True, indent=2) == textwrap.dedent("""\
        {
          "first_failure": {
            "element": "1",
            "generator": "('h',)"
          },
          "generators_checked": 10,
          "max_residual_terms": 24,
          "residual_zero": false,
          "test_elements": 200
        }""")


def _matrix_product_report(op, test_degree, ctx):
    """Brute-force oracle: op_(d+s) pi_src(Y)_d - pi_tgt(Y)_(d-order) op_d as
    two assembled matrix products per generator Y and degree d."""
    src, tgt = _pi_star_specs(op, ctx)
    gens = generators(ctx.n)
    max_terms, first, tested = 0, None, 0
    for gen in gens:
        shifts = src[gen].shifts()
        shift = shifts[0] if shifts else 0
        for d in range(test_degree + 1):
            s_mat = assemble(src[gen], d, ctx.graded_basis).matrix
            lhs = operator_matrix(op, d + shift, ctx) @ s_mat
            t_mat = assemble(tgt[gen], d - op.order, ctx.graded_basis).matrix
            res = lhs - t_mat @ operator_matrix(op, d, ctx)
            tested += lhs.cols
            if not res.is_zero():
                max_terms = max(max_terms, res.num_entries())
                if first is None:
                    first = (gen, d)
    return IntertwiningReport(first is None, len(gens), tested, max_terms, first)


@pytest.mark.parametrize("sig", [(3, 0), (2, 1), (2, 2), (4, 1)])
def test_symbolic_residual_matches_matrix_product_oracle(ctx_factory, twist_offset, sig):
    # the same report as the matrix-product verifier, on the operators and on
    # negative controls that leave a residual on some generator
    ctx = ctx_factory(*sig)
    offsets = [(s, 0) for s in (1, -1)] + [(0, t) for t in (1, -1)]
    for op in (dirac_power(1, ctx), dirac_power(3, ctx), twistor(1, ctx), twistor(2, ctx)):
        deriv = sorted(op.coefficients)[0]
        cases = [(op, None, 4 if ctx.n == 3 else 3)]
        # the controls fail at low degree already; keep their oracle cheap
        low = max(op.order, 2)
        cases.append((op.perturbed(deriv, 0, 0, qi(rational(1, 7))), None, low))
        cases += [(twist_offset(op, *o), o, low) for o in offsets]
        for k, (variant, o, test_degree) in enumerate(cases):
            report = verify_intertwining(variant, test_degree, ctx).to_json()
            oracle = _matrix_product_report(variant, test_degree, ctx).to_json()
            assert report == oracle, (op.kind, op.order, k, o)
            assert report["residual_zero"] == (k == 0)
            assert (report["max_residual_terms"] > 0) == (k > 0)


def _verify_all_generators(op, test_degree, ctx):
    """Oracle: the residual op . pi_src(Y) - pi_tgt(Y) . op normal-ordered
    directly for every generator Y, with no bracket identity."""
    if test_degree < op.order:
        raise ValueError("test degree below operator order")
    src, tgt = _pi_star_specs(op, ctx)
    gens = generators(ctx.n)
    spec = op.spec
    per_generator = sum(ctx.graded_basis(d, spec.dim).size for d in range(test_degree + 1))
    max_terms, first = 0, None
    for gen in gens:
        residual = _product_sum([(spec, src[gen]), (tgt[gen].scale(-1), spec)])
        if not residual.terms:
            continue
        for d in range(test_degree + 1):
            terms = assemble(residual, d, ctx.graded_basis).matrix.num_entries()
            if terms:
                max_terms = max(max_terms, terms)
                if first is None:
                    first = (gen, d)
    return IntertwiningReport(first is None, len(gens), len(gens) * per_generator,
                              max_terms, first)


def _direct_generators(op, test_degree, ctx):
    """verify_intertwining's report, and the generators whose residual it
    normal-ordered: the _product_sum calls that take op.spec, whose
    coefficient matrices are the very objects of op.coefficients."""
    coefficients = {id(m) for m in op.coefficients.values()}
    names = {}
    direct = []
    pi_star_specs, product_sum = equivariant._pi_star_specs, equivariant._product_sum

    def spy_specs(*args, **kwargs):
        src, tgt = pi_star_specs(*args, **kwargs)
        names.update((id(spec), gen) for gen, spec in src.items())
        return src, tgt

    def spy_sum(pairs):
        operands = [x for pair in pairs for x in pair]
        if any(id(t.mat) in coefficients for x in operands for t in x.terms):
            direct.append(next(names[id(x)] for x in operands if id(x) in names))
        return product_sum(pairs)

    equivariant._pi_star_specs, equivariant._product_sum = spy_specs, spy_sum
    try:
        report = verify_intertwining(op, test_degree, ctx)
    finally:
        equivariant._pi_star_specs, equivariant._product_sum = pi_star_specs, product_sum
    return report, direct


def _seeds(n):
    return [("f", i) for i in range(1, n + 1)] + [("h",), ("g", 1)]


_SIGNATURES = [(p, n - p) for n in (3, 4, 5) for p in range(n, -1, -1)]


@pytest.mark.parametrize("sig", _SIGNATURES, ids="{0[0]},{0[1]}".format)
def test_generating_set_matches_all_generators_oracle(ctx_factory, twist_offset, sig):
    # every report field equals the oracle's, for the operators and for
    # negative controls that leave a residual on some generator; a failing
    # seed leaves every generator to be normal-ordered, so the twist offsets
    # run on the first-order operators only, where that is cheap
    ctx = ctx_factory(*sig)
    offsets = [(s, 0) for s in (1, -1, HALF, -HALF)] + [(0, t) for t in (1, -1, HALF, -HALF)]
    for op in (dirac_power(1, ctx), dirac_power(3, ctx), twistor(1, ctx), twistor(2, ctx)):
        deriv = sorted(op.coefficients)[0]
        # the controls fail at low degree already; keep their oracle cheap
        low = max(op.order, 2)
        cases = [(op, None, 3), (op.perturbed(deriv, 0, 0, qi(rational(1, 7))), None, low)]
        cases += [(twist_offset(op, *o), o, low) for o in offsets if op.order == 1]
        for k, (variant, o, test_degree) in enumerate(cases):
            report = verify_intertwining(variant, test_degree, ctx)
            assert report == _verify_all_generators(variant, test_degree, ctx), \
                (op.kind, op.order, k, o)
            assert report.residual_zero == (k == 0)


def test_only_the_seeds_are_normal_ordered(ctx_factory):
    ctx = ctx_factory(3, 2)
    op = dirac_power(3, ctx)
    report, direct = _direct_generators(op, 3, ctx)
    assert report.residual_zero
    assert report == _verify_all_generators(op, 3, ctx)
    assert sorted(direct) == sorted(_seeds(ctx.n))


def _doubled_rotation(op, ctx):
    """A copy of ``op`` that stores its completed (2, 3) rotation doubled."""
    rotations = dict(op.family_rotations)
    rotations[(2, 3)] = _completed_rotations(op, ctx)[(2, 3)].scale(2)
    return replace(op, family_rotations=rotations)


def _doubled_rotation_case(ctx):
    """Double the (2, 3) rotation of the target family, so that the target
    action is no longer a representation: the bracket identities that reach
    l_23, g_2 and g_3 use that matrix and fail, so exactly those generators
    join the seeds in being normal-ordered, and the report is the oracle's.
    Raises instead of asserting, so it also checks under python -O."""
    bad = _doubled_rotation(twistor(1, ctx), ctx)
    report, direct = _direct_generators(bad, 3, ctx)
    oracle = _verify_all_generators(bad, 3, ctx)
    expect = _seeds(ctx.n) + [("l", 2, 3), ("g", 2), ("g", 3)]
    if sorted(direct) != sorted(expect):
        raise AssertionError("normal-ordered %s, expected %s" % (direct, expect))
    if report != oracle or report.residual_zero:
        raise AssertionError("report %s, oracle %s" % (report, oracle))


def test_a_broken_target_representation_is_normal_ordered(ctx_factory):
    _doubled_rotation_case(ctx_factory(2, 1))


def test_broken_representation_check_runs_under_optimize_flag():
    script = textwrap.dedent("""
        import runpy
        import sys

        from vermaspin.context import Context

        if __debug__:
            raise SystemExit("expected python -O")
        tests = runpy.run_path(sys.argv[1])
        tests["_doubled_rotation_case"](Context(2, 1))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", script, __file__], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_a_wrong_plan_entry_is_normal_ordered(monkeypatch, ctx_factory):
    # g_2 "derived" from [f_2, g_1] = -l_12 fails the abstract-model check,
    # so its residual is normal-ordered and the report is unchanged
    ctx = ctx_factory(3, 0)
    plan = [(("g", 2), ("f", 2), ("g", 1)) if y == ("g", 2) else (y, a, b)
            for y, a, b in _generating_plan(ctx.n)]
    monkeypatch.setattr(equivariant, "_generating_plan", lambda n: plan)
    op = twistor(1, ctx)
    report, direct = _direct_generators(op, 3, ctx)
    assert report.residual_zero and report == _verify_all_generators(op, 3, ctx)
    assert sorted(direct) == sorted(_seeds(ctx.n) + [("g", 2)])
    monkeypatch.setattr(equivariant, "_generating_plan", lambda n: plan[:-1])
    with pytest.raises(ValueError, match="^the generating plan does not list every "
                                         "generator once$"):
        verify_intertwining(op, 3, ctx)


def _commutator_rule(op, ctx):
    """Oracle: the generators the per-operator rule establishes with no
    residual of their own.  Y = [A, B] / c is established when A and B are,
    c exists, and [pi(A), pi(B)] - c pi(Y) normal-orders to zero for the
    source and for the target action; every other generator is established
    when its residual normal-orders to zero."""
    src, tgt = _pi_star_specs(op, ctx)
    spec = op.spec
    zero, by_bracket = set(), set()
    for gen, a, b in _generating_plan(ctx.n):
        if a in zero and b in zero:
            c = bracket_multiple(a, b, gen, ctx.sig)
            if c is not None and all(_commutator(pi[a], pi[b], pi[gen], c).is_zero()
                                     for pi in (src, tgt)):
                zero.add(gen)
                by_bracket.add(gen)
                continue
        if _product_sum([(spec, src[gen]), (tgt[gen].scale(-1), spec)]).is_zero():
            zero.add(gen)
    return by_bracket


@pytest.mark.parametrize("sig", _SIGNATURES, ids="{0[0]},{0[1]}".format)
def test_bracket_established_generators_match_the_commutator_rule(ctx_factory, twist_offset,
                                                                  sig):
    # the generators established without a residual are the ones the two
    # per-operator commutators establish, on the operators, with a doubled
    # target rotation and with a failing seed
    ctx = ctx_factory(*sig)
    derived = {y for y, a, _ in _generating_plan(ctx.n) if a is not None}
    for op in (dirac_power(1, ctx), dirac_power(3, ctx), twistor(1, ctx), twistor(2, ctx)):
        variants = [op, _doubled_rotation(op, ctx), twist_offset(op, 1, 0)]
        for k, variant in enumerate(variants):
            _, direct = _direct_generators(variant, max(op.order, 2), ctx)
            established = set(generators(ctx.n)) - set(direct)
            assert established == _commutator_rule(variant, ctx), (op.kind, op.order, k)
            if k == 0:
                assert established == derived, (op.kind, op.order)


def test_multiplied_relations_and_slopes_are_read_off_function_action(ctx_factory):
    # the rotations pi(gen) carries, read off function_action one fiber
    # matrix at a time, only in zero-derivative terms, and none in its
    # lambda-slope; _multiplied lists the rho_(1,i) rho_(1,j) products of
    # every bracket, and refuses a pair that holds any other rotation
    for sig in [(3, 0), (2, 2), (3, 2)]:
        rep = ctx_factory(*sig).rep
        n, dim = rep.n, rep.spinor_dim
        sigma = dual_fiber(spinor_fiber(rep))
        zero = {key: SparseMatrix.zero(dim, dim) for key in sigma}
        rotations = {}
        for gen in generators(n):
            bare = function_action(gen, 0, rep, zero)
            rotations[gen] = {key for key in sigma if not (
                function_action(gen, 0, rep, {**zero, key: sigma[key]}) - bare).is_zero()}
            pi = function_action(gen, 0, rep, sigma)
            assert all(t.mat is None or not any(t.deriv) for t in pi.terms), gen
            slope = function_action(gen, 1, rep, sigma) - pi
            assert (slope - (function_action(gen, 1, rep, zero) - bare)).is_zero(), gen
        for a in generators(n):
            for b in generators(n):
                held = rotations[a] | rotations[b]
                expect = None if any(p[0] != 1 for p in held) else {
                    tuple(sorted((p[1], q[1]))) for p in rotations[a] for q in rotations[b]
                    if p != q}
                assert equivariant._multiplied(a, b, n) == expect, (sig, a, b)


def _fresh_models(patches, check):
    """Run ``check()`` on a fresh map of gamma models with the (module, name,
    value) ``patches`` in place, restoring both afterwards."""
    saved = clifford._MODELS, [(m, name, getattr(m, name)) for m, name, _ in patches]
    clifford._MODELS = clifford.Memo()
    for m, name, value in patches:
        setattr(m, name, value)
    try:
        return check()
    finally:
        clifford._MODELS = saved[0]
        for m, name, value in saved[1]:
            setattr(m, name, value)


def _refused_parts(ctx):
    entries = equivariant._plan_constants(ctx.sig, _generating_plan(ctx.n))
    return ({part for _, part, r in equivariant.bracket_premises(ctx.rep, entries)
             if r is None or not r.is_zero()},
            equivariant._model_verdict(ctx.rep, entries)[0])


def _check_against_oracle(ctx):
    for op in (twistor(1, ctx), dirac_power(1, ctx)):
        report = verify_intertwining(op, 2, ctx)
        oracle = _verify_all_generators(op, 2, ctx)
        if report != oracle:
            raise AssertionError("report %s, oracle %s" % (report, oracle))


def _dependent_fiber_case(sig):
    """A stub spinor fiber of zero matrices meets every relation, but its
    sigma_m are dependent: the model verdict refuses every entry, and the
    reports are the oracle's.  Raises instead of asserting."""
    def check():
        ctx = Context(*sig)
        parts, model = _refused_parts(ctx)
        if parts != {"independence"} or model:
            raise AssertionError("refused %s, established %s" % (parts, sorted(model)))
        _check_against_oracle(ctx)

    def stub(rep):
        return {(i, j): SparseMatrix.zero(rep.spinor_dim, rep.spinor_dim)
                for i in range(1, rep.n + 1) for j in range(i + 1, rep.n + 1)}

    _fresh_models([(equivariant, "spinor_fiber", stub)], check)


def _tampered_slope_case(sig):
    """pi(h) with lambda-slope 1 + x_1 d_1: the lambda-free parts still
    hold, the slope of every g_j entry, j >= 2, does not, so the model
    verdict refuses exactly those, and the reports are the oracle's.  Raises
    instead of asserting."""
    function_action = realization.function_action

    def tampered(gen, lam, rep, fiber):
        spec = function_action(gen, lam, rep, fiber)
        if gen != ("h",):
            return spec
        e1 = (1,) + (0,) * (rep.n - 1)
        return spec + OperatorSpec(rep.n, spec.dim, [OpTerm(e1, e1, None, qi(lam))])

    def check():
        ctx = Context(*sig)
        parts, model = _refused_parts(ctx)
        refused = {y for y, a, _ in _generating_plan(ctx.n) if a is not None} - model
        expect = {("g", j) for j in range(2, ctx.n + 1)}
        if parts != {"slope"} or refused != expect:
            raise AssertionError("refused %s: %s, expected slope: %s"
                                 % (parts, sorted(refused), sorted(expect)))
        _check_against_oracle(ctx)

    _fresh_models([(realization, "function_action", tampered),
                   (equivariant, "function_action", tampered)], check)


def _tampered_rotation_case(sig):
    """pi(l_23) with an extra x_1 d_1 on both sides: the lambda-free part of
    the l_23 entry fails, so the model verdict refuses l_23 alone, which is
    then normal-ordered, and the reports are the oracle's, failing at l_23.
    Raises instead of asserting."""
    function_action = realization.function_action

    def tampered(gen, lam, rep, fiber):
        spec = function_action(gen, lam, rep, fiber)
        if gen != ("l", 2, 3):
            return spec
        e1 = (1,) + (0,) * (rep.n - 1)
        return spec + OperatorSpec(rep.n, spec.dim, [OpTerm(e1, e1, None, QI_ONE)])

    def check():
        ctx = Context(*sig)
        parts, model = _refused_parts(ctx)
        refused = {y for y, a, _ in _generating_plan(ctx.n) if a is not None} - model
        if parts != {"lambda-free"} or refused != {("l", 2, 3)}:
            raise AssertionError("refused %s: %s" % (parts, sorted(refused)))
        _check_against_oracle(ctx)
        report = verify_intertwining(twistor(1, ctx), 2, ctx)
        if report.first_failure is None or report.first_failure[0] != ("l", 2, 3):
            raise AssertionError("first failure %s" % (report.first_failure,))

    _fresh_models([(realization, "function_action", tampered),
                   (equivariant, "function_action", tampered)], check)


@pytest.mark.parametrize("sig", [(2, 1), (2, 2)], ids="{0[0]},{0[1]}".format)
def test_a_dependent_model_fiber_is_refused(sig):
    _dependent_fiber_case(sig)


@pytest.mark.parametrize("sig", [(2, 1), (2, 2)], ids="{0[0]},{0[1]}".format)
def test_a_tampered_lambda_slope_is_refused(sig):
    _tampered_slope_case(sig)


@pytest.mark.parametrize("sig", [(2, 1), (2, 2)], ids="{0[0]},{0[1]}".format)
def test_a_tampered_rotation_is_refused_and_normal_ordered(sig):
    _tampered_rotation_case(sig)


def test_model_verdict_controls_run_under_optimize_flag():
    script = textwrap.dedent("""
        import runpy
        import sys

        if __debug__:
            raise SystemExit("expected python -O")
        tests = runpy.run_path(sys.argv[1])
        tests["_dependent_fiber_case"]((2, 1))
        tests["_tampered_slope_case"]((2, 1))
        tests["_tampered_rotation_case"]((2, 1))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", script, __file__], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _columns(ctx, degree, polys):
    """The matrix whose columns are the coordinates of ``polys`` at ``degree``."""
    basis = ctx.graded_basis(degree)
    return SparseMatrix.from_columns(basis.size, [basis.coordinates(p) for p in polys])


def test_order_zero_operator_is_identity(ctx_factory):
    ctx = ctx_factory(3, 0)
    family = _columns(ctx, 0, singular_vectors(ctx, rational(4, 3), 0))
    op = from_singular_vector(family, 0, rational(4, 3) - rational(3, 2), ctx)
    assert op.order == 0
    (deriv, mat), = op.coefficients.items()
    assert deriv == (0, 0, 0)
    assert mat == SparseMatrix.identity(ctx.spinor_dim)
    report = verify_intertwining(op, 2, ctx)
    assert report.residual_zero


def test_from_singular_vector_rejects_non_singular(ctx_factory):
    ctx = ctx_factory(3, 0)
    poly = SpinorPoly.monomial(3, 2, (1, 0, 0), 0)
    with pytest.raises(ValueError, match="singular"):
        from_singular_vector(_columns(ctx, 1, [poly]), 1, rational(1, 3), ctx)


def test_from_singular_vector_rejects_non_singular_member(ctx_factory):
    # a Dirac family plus a member that g_i does not kill
    from conftest import apply_x_power
    ctx = ctx_factory(3, 0)
    lam_thm = -rational(ctx.n - 3, 2)
    family = [apply_x_power(ctx, 1, SpinorPoly.constant(3, 2, b)) for b in range(2)]
    assert from_singular_vector(_columns(ctx, 1, family), 1, lam_thm, ctx).order == 1
    bad = SpinorPoly.monomial(3, 2, (0, 1, 0), 0)
    with pytest.raises(ValueError, match="^family member is not a singular vector$"):
        from_singular_vector(_columns(ctx, 1, family + [bad]), 1, lam_thm, ctx)


def test_from_singular_vector_rejects_non_rotation_closed(ctx_factory):
    # one member of the multi-dimensional first-order twistor family is
    # singular but spans no submodule
    ctx = ctx_factory(3, 0)
    family = monogenic_basis(ctx, 1).elements
    assert len(family) > 1
    lam_thm = rational(1) + HALF
    with pytest.raises(ValueError, match="^family is not rotation-closed$"):
        from_singular_vector(_columns(ctx, 1, family[:1]), 1, lam_thm, ctx, kind="twistor")


def test_from_solver_output_matches_canonical_family(ctx_factory):
    # building from the solver's leading-one kernel basis intertwines too
    ctx = ctx_factory(2, 1)
    lam_thm = -rational(ctx.n - 3, 2)
    svs = singular_vectors(ctx, lam_thm + rational(ctx.n, 2), 1)
    op = from_singular_vector(_columns(ctx, 1, svs), 1, lam_thm, ctx, kind="dirac-power")
    report = verify_intertwining(op, 3, ctx)
    assert report.residual_zero


def _families(ctx):
    """(name, family, degree, lam_thm): the Dirac families a = 1, 3 and the
    twistor families a = 1, 2 at their twists, then negative controls.  The
    last is one monogenic member of degree 1 free of x_1, at the Dirac twist:
    g_1 kills it, g_2 does not, and it is not rotation-closed."""
    n = ctx.n
    dirac = -rational(n - 3, 2)
    x1 = _columns(ctx, 1, [SpinorPoly.monomial(n, ctx.spinor_dim, (1,) + (0,) * (n - 1), 0)])
    x2 = _columns(ctx, 1, [SpinorPoly.monomial(n, ctx.spinor_dim, (0, 1) + (0,) * (n - 2), 0)])
    x1_free = next(el for el in monogenic_basis(ctx, 1).elements
                   if all(mono[0] == 0 for mono in el.terms))
    out = [("dirac %d" % a, x_power_matrix(ctx, a, 0), a, -rational(n - 2 - a, 2))
           for a in (1, 3)]
    out += [("twistor %d" % a, _columns(ctx, a, monogenic_basis(ctx, a).elements), a,
             a + HALF) for a in (1, 2)]
    return out + [
        ("x_1 e_0 at 1/3", x1, 1, rational(1, 3)),
        ("dirac 1 and x_2 e_0", SparseMatrix.hstack([x_power_matrix(ctx, 1, 0), x2]), 1, dirac),
        ("dirac 1 at the twistor twist", x_power_matrix(ctx, 1, 0), 1, 1 + HALF),
        ("one column of M_1", _columns(ctx, 1, monogenic_basis(ctx, 1).elements[:1]), 1,
         1 + HALF),
        ("x_1-free member of M_1 at the Dirac twist", _columns(ctx, 1, [x1_free]), 1, dirac),
    ]


def _whole_degree_verdict(family, degree, lam_thm, ctx):
    """What from_singular_vector's checks decide with every g_i and l_ij
    assembled on the whole degree: None (accepted) or the error message."""
    lam_real = lam_thm + rational(ctx.n, 2)
    if any(not (g @ family).is_zero()
           for g in special_conformal_matrices(ctx, lam_real, degree)):
        return "family member is not a singular vector"
    for i in range(1, ctx.n + 1):
        for j in range(i + 1, ctx.n + 1):
            l_ij = assemble(verma_action(("l", i, j), lam_real, ctx.rep), degree,
                            ctx.graded_basis).matrix
            if express_in_span(family, l_ij @ family) is None:
                return "family is not rotation-closed"
    return None


@pytest.mark.parametrize("n", [3, 4, 5])
def test_family_check_matches_the_whole_degree_check(ctx_factory, n):
    # the g_i on the family's support give the whole-degree products, and
    # from_singular_vector accepts and rejects, with the same message, as
    # the whole-degree check does; the last family passes g_1 alone
    for p in range(n, -1, -1):
        ctx = ctx_factory(p, n - p)
        verdicts = []
        for name, family, degree, lam_thm in _families(ctx):
            lam_real = lam_thm + rational(n, 2)
            whole = special_conformal_matrices(ctx, lam_real, degree)
            for i in range(1, n + 1):
                assert singular._at(special_conformal_on(ctx, i, degree, family), lam_real) \
                    == whole[i - 1] @ family, (p, name, i)
            expect = _whole_degree_verdict(family, degree, lam_thm, ctx)
            try:
                from_singular_vector(family, degree, lam_thm, ctx)
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == expect, (p, name)
            verdicts.append(got)
        assert verdicts == [None] * 4 + ["family member is not a singular vector"] * 3 \
            + ["family is not rotation-closed", "family member is not a singular vector"], p
        name, family, degree, lam_thm = _families(ctx)[-1]
        lam_real = lam_thm + rational(n, 2)
        assert singular._at(special_conformal_on(ctx, 1, 1, family), lam_real).is_zero(), p
        assert not singular._at(special_conformal_on(ctx, 2, 1, family), lam_real).is_zero(), p


def _operators_json(sig, broken):
    """(certificate verdict, to_json() of dirac_power 1, 3 and twistor 1, 2)
    at ``sig``, on a fresh map of gamma models; ``broken`` doubles every c_j
    of the block certificate, so that [l_1j, g_1] - c_j g_j is no longer
    zero."""
    saved = clifford._MODELS, singular.bracket_multiple

    def doubled(*args):
        c = saved[1](*args)
        return None if c is None else c * 2

    clifford._MODELS = clifford.Memo()
    if broken:
        singular.bracket_multiple = doubled
    try:
        ctx = Context(*sig)
        ops = [dirac_power(1, ctx), dirac_power(3, ctx), twistor(1, ctx), twistor(2, ctx)]
        return singular._certificate_sound(ctx), [op.to_json() for op in ops]
    finally:
        clifford._MODELS, singular.bracket_multiple = saved


def _check_broken_premise_operators(sig):
    # from_singular_vector checks every g_i, so the certificate's premises
    # do not decide which operators it builds
    sound, ops = _operators_json(sig, broken=False)
    broken_sound, broken_ops = _operators_json(sig, broken=True)
    if (sound, broken_sound) != (True, False):
        raise AssertionError("premise verdicts %s, %s" % (sound, broken_sound))
    if broken_ops != ops:
        raise AssertionError("broken premises built other operators")


@pytest.mark.parametrize("sig", [(3, 0), (2, 2)], ids="{0[0]},{0[1]}".format)
def test_broken_certificate_premise_builds_the_same_operators(sig):
    _check_broken_premise_operators(sig)


def test_broken_certificate_premise_operators_under_optimize_flag():
    script = textwrap.dedent("""
        import runpy
        import sys

        if __debug__:
            raise SystemExit("expected python -O")
        tests = runpy.run_path(sys.argv[1])
        for sig in ((3, 0), (2, 2)):
            tests["_check_broken_premise_operators"](sig)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", script, __file__], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("n", [3, 4, 5])
def test_family_rotations_match_the_whole_degree_solve(ctx_factory, n):
    # every rotation of the completed fiber, read off pivot rows or derived
    # from the l_1j, is the exact solution of l_ij V = V R with l_ij
    # assembled on the whole degree
    for p in range(n, -1, -1):
        ctx = ctx_factory(p, n - p)
        accepted = [f for f in _families(ctx) if _whole_degree_verdict(*f[1:], ctx) is None]
        assert [name for name, *_ in accepted] == [
            "dirac 1", "dirac 3", "twistor 1", "twistor 2"], p
        for name, family, degree, lam_thm in accepted:
            op = from_singular_vector(family, degree, lam_thm, ctx)
            completed = _completed_rotations(op, ctx)
            assert list(completed) == [
                (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)], (p, name)
            for (i, j), rotation in completed.items():
                l_ij = assemble(verma_action(("l", i, j), rational(0), ctx.rep), degree,
                                ctx.graded_basis).matrix
                assert rotation == express_in_span(family, l_ij @ family), (p, name, i, j)


def _spied(module, name, check):
    """(check(), the number of calls of module.name while it ran)."""
    calls = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    return _fresh_models([(module, name, spy)], check), len(calls)


def _check_broken_rotation_premise(sig):
    """A doubled c_ij breaks the Verma-side [l_1i, l_1j] = c_ij l_ij: then
    every l_ij is solved directly, not only the l_1j, and the operators and
    their completed rotations are unchanged.  Raises instead of asserting."""
    bracket = singular.bracket_multiple

    def doubled(a, b, y, sig):
        c = bracket(a, b, y, sig)
        return c * 2 if c is not None and y[0] == "l" and y[1] > 1 else c

    def build():
        ctx = Context(*sig)
        ops = [dirac_power(1, ctx), dirac_power(3, ctx), twistor(1, ctx), twistor(2, ctx)]
        return (len(singular._rotation_constants(ctx)),
                [(op.to_json(), _completed_rotations(op, ctx)) for op in ops])

    n = sum(sig)
    sound, solved = _spied(equivariant, "_rotation", build)
    broken, broken_solved = _fresh_models(
        [(singular, "bracket_multiple", doubled)], lambda: _spied(equivariant, "_rotation", build))
    if (sound[0], broken[0]) != ((n - 1) * (n - 2) // 2, 0):
        raise AssertionError("%d and %d premises hold" % (sound[0], broken[0]))
    if (solved, broken_solved) != (4 * (n - 1), 4 * n * (n - 1) // 2):
        raise AssertionError("solved %d and %d rotations" % (solved, broken_solved))
    if broken[1] != sound[1]:
        raise AssertionError("a broken rotation premise built other operators")


def _check_family_without_pivot_rows(sig):
    """The Dirac family times a unit upper-bidiagonal T has no pivot row for
    its first column, so its rotations are solved by express_in_span; it is
    accepted and intertwines.  Raises instead of asserting."""
    def build():
        ctx = Context(*sig)
        v = x_power_matrix(ctx, 1, 0)
        t = SparseMatrix.from_entries(v.cols, v.cols, [(c, c, QI_ONE) for c in range(v.cols)]
                                      + [(c, c + 1, QI_ONE) for c in range(v.cols - 1)])
        op = from_singular_vector(v @ t, 1, -rational(ctx.n - 3, 2), ctx, kind="dirac-power")
        return verify_intertwining(op, 3, ctx).residual_zero

    zero, spans = _spied(equivariant, "express_in_span", build)
    if not zero or spans != sum(sig) - 1:
        raise AssertionError("residual_zero %s after %d spans" % (zero, spans))


def _check_broken_certificate_checks_every_g(sig):
    """With the block certificate's premises broken (:func:`_operators_json`),
    from_singular_vector checks every g_i of each of its four families, and
    with them sound none.  Raises instead of asserting."""
    (sound, _), sound_kills = _spied(equivariant, "kills", lambda: _operators_json(sig, False))
    (broken, _), broken_kills = _spied(equivariant, "kills", lambda: _operators_json(sig, True))
    if (sound, broken, sound_kills, broken_kills) != (True, False, 0, 4):
        raise AssertionError("premises %s, %s: kills ran %d and %d times"
                             % (sound, broken, sound_kills, broken_kills))


def _check_rotation_work(sig, doubled):
    """At ``sig``, Dirac powers a = 1, 3 and twistor operators a = 1, 2 store
    exactly the n - 1 R_1j, and verify_intertwining at their order forms no
    rotation commutator: it completes no fiber and checks no relation on
    their rotations.  ``doubled`` doubles the l-pair constants of
    singular.bracket_multiple: then every pair is stored, and each stored
    relation with i >= 2 is checked.  Raises instead of asserting."""
    relation, completed, bracket = (equivariant._relation, equivariant._completed_rotations,
                                    singular.bracket_multiple)
    calls = []

    def spy_relation(fiber, *args):
        calls.append(("relation", fiber))
        return relation(fiber, *args)

    def spy_completed(op, ctx):
        calls.append(("completed", op.family_rotations))
        return completed(op, ctx)

    def doubled_bracket(a, b, y, sig):
        c = bracket(a, b, y, sig)
        return c * 2 if c is not None and y[0] == "l" and y[1] > 1 else c

    def check():
        ctx = Context(*sig)
        n = ctx.n
        pairs = [(1, j) for j in range(2, n + 1)]
        if doubled:
            pairs += [(i, j) for i in range(2, n + 1) for j in range(i + 1, n + 1)]
        for op in (dirac_power(1, ctx), dirac_power(3, ctx), twistor(1, ctx), twistor(2, ctx)):
            if list(op.family_rotations) != pairs:
                raise AssertionError("%s %d stores %s" % (op.kind, op.order,
                                                          list(op.family_rotations)))
            del calls[:]
            report = verify_intertwining(op, op.order, ctx)
            formed = [what for what, fiber in calls if fiber is op.family_rotations]
            if not report.residual_zero or formed != ["relation"] * (len(pairs) - n + 1):
                raise AssertionError("%s %d: residual_zero %s, formed %s"
                                     % (op.kind, op.order, report.residual_zero, formed))

    patches = [(equivariant, "_relation", spy_relation),
               (equivariant, "_completed_rotations", spy_completed)]
    _fresh_models(patches + [(singular, "bracket_multiple", doubled_bracket)] * doubled, check)


@pytest.mark.parametrize("doubled", [False, True], ids=["sound", "doubled"])
@pytest.mark.parametrize("sig", _SIGNATURES, ids="{0[0]},{0[1]}".format)
def test_families_store_and_verify_only_the_solved_rotations(sig, doubled):
    _check_rotation_work(sig, doubled)


@pytest.mark.parametrize("sig", [(3, 0), (2, 2)], ids="{0[0]},{0[1]}".format)
def test_broken_rotation_premise_solves_every_rotation(sig):
    _check_broken_rotation_premise(sig)


@pytest.mark.parametrize("sig", [(2, 1), (2, 2)], ids="{0[0]},{0[1]}".format)
def test_a_family_without_pivot_rows_falls_back_to_express_in_span(sig):
    _check_family_without_pivot_rows(sig)


@pytest.mark.parametrize("sig", [(3, 0), (2, 2)], ids="{0[0]},{0[1]}".format)
def test_broken_certificate_premise_checks_every_g(sig):
    _check_broken_certificate_checks_every_g(sig)


def test_rotation_controls_run_under_optimize_flag():
    script = textwrap.dedent("""
        import runpy
        import sys

        if __debug__:
            raise SystemExit("expected python -O")
        tests = runpy.run_path(sys.argv[1])
        tests["_check_broken_rotation_premise"]((3, 0))
        tests["_check_family_without_pivot_rows"]((2, 1))
        tests["_check_broken_certificate_checks_every_g"]((3, 0))
        tests["_check_rotation_work"]((3, 0), False)
        tests["_check_rotation_work"]((2, 2), True)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", script, __file__], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_apply_shapes(ctx_factory):
    ctx = ctx_factory(3, 0)
    op = twistor(1, ctx)
    f = SpinorPoly.monomial(3, 2, (2, 0, 0), 1)
    out = op.spec.apply(f)
    assert out.dim == op.target_dim
    assert out.homogeneous_degree() == 1


def _dual_symbol_oracle(a, ctx):
    """(sum_j eps_j G_j^T d_j)^a by a dict merge: each step multiplies every
    matrix on the left by each eps_j G_j^T and sums the products per key."""
    n, dim = ctx.n, ctx.spinor_dim
    first = {}
    for j in range(1, n + 1):
        deriv = tuple(1 if k == j - 1 else 0 for k in range(n))
        first[deriv] = ctx.rep.gamma(j).transpose().scale(ctx.sig.eps(j))
    out = {(0,) * n: SparseMatrix.identity(dim)}
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


@pytest.mark.parametrize("variant", ["standard", "alt"])
@pytest.mark.parametrize("sig", [(3, 0), (2, 1), (2, 2), (3, 2), (3, 3)],
                         ids="{0[0]},{0[1]}".format)
def test_dual_symbol_matches_the_dict_merge_oracle(ctx_factory, sig, variant):
    ctx = ctx_factory(*sig, variant=variant)
    for a in range(6):
        assert dual_dirac_symbol(a, ctx) == _dual_symbol_oracle(a, ctx), a


def test_dual_symbol_power_order():
    from vermaspin.context import Context
    ctx = Context(3, 0)
    sym = dual_dirac_symbol(2, ctx)
    # the square of the dual Dirac symbol is minus the metric Laplacian symbol
    for deriv, mat in sym.items():
        if max(deriv) == 2:
            j = deriv.index(2) + 1
            assert mat == SparseMatrix.identity(2, qi(-ctx.sig.eps(j)))
        else:
            assert mat.is_zero() or not any(mat.entries())
    assert all(sum(d) == 2 for d in sym)
