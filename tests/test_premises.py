"""A gamma model that fails a premise is refused, and every supported model
passes every premise.

Each premise is checked once per gamma model and either holds or raises
ArithmeticError naming the signature, the premise and its entry
(``singular.require``); no check selects a code path.  The tampering
helpers live with the tests of the code that needs each premise.
"""

import io
from contextlib import redirect_stdout
from itertools import chain

import pytest

from vermaspin import cli, clifford, equivariant
from vermaspin.context import Context
from vermaspin.equivariant import (_generating_plan, _plan_constants, bracket_premises,
                                   dirac_power, twistor, verify_intertwining)
from vermaspin.exact import rational
from vermaspin.singular import (certificate_premises, classify, closed_form_premises, require,
                                rotation_premises)

from conftest import fresh_models, refused
from test_equivariant import (_check_family_without_pivot_rows, _dependent_fiber_case,
                              _doubled_rotation_case, _tampered_action, _tampered_slope_case)
from test_singular import (_classify_with_perturbed_g1, _closed_form_off_by_one,
                           _doubled_multiples, _tampered_classify)


def _classify(sig, lam, d_max):
    return lambda: classify(Context(*sig), lam, d_max)


def _intertwiners(sig):
    """Build and verify the Dirac power and the twistor operator of order 1."""
    def run():
        ctx = Context(*sig)
        for op in (dirac_power(1, ctx), twistor(1, ctx)):
            verify_intertwining(op, 2, ctx)
    return run


def _wrong_plan(n):
    """The generating plan with g_2 taken from [f_2, g_1] = -l_12, no multiple of g_2."""
    return [(y, ("f", 2), b) if y == ("g", 2) else (y, a, b) for y, a, b in _generating_plan(n)]


# name -> (patches, the command that needs the premise, the refusal it raises).
# At (3,0), lambda 5/2, C2 keeps degree 4 and C1 and C3 drop it, so classify
# checks all three closed forms.
REFUSALS = {
    "c2-closed-form": (
        [_closed_form_off_by_one(2)], _classify((3, 0), rational(5, 2), 4),
        r"signature \(3,0\): sum_j x_j g_j\(0\) - C2\(0\) leaves 1 terms"),
    "c1-closed-form": (
        [_closed_form_off_by_one(1)], _classify((3, 0), rational(5, 2), 4),
        r"signature \(3,0\): sum_j gamma_j g_j\(0\) - C1\(0\) leaves \d+ terms"),
    "c3-closed-form": (
        [_closed_form_off_by_one(3)], _classify((3, 0), rational(5, 2), 4),
        r"signature \(3,0\): sum_j eps_j d_j g_j\(0\) - C3\(0\) leaves 1 terms"),
    "certificate-classify": (
        [_doubled_multiples()], _classify((2, 2), rational(3, 2), 5),
        r"signature \(2,2\), j = 2: \[l_1j, g_1\(0\)\] - c_j g_j\(0\) leaves \d+ terms"),
    **{"certificate-intertwiner-%d,%d" % sig: (
        [_doubled_multiples()], _intertwiners(sig),
        r"signature \(%d,%d\), j = 2: \[l_1j, g_1\(0\)\] - c_j g_j\(0\) leaves \d+ terms" % sig)
       for sig in ((3, 0), (2, 2))},
    **{"rotations-intertwiner-%d,%d" % sig: (
        [_doubled_multiples(rotations_only=True)], _intertwiners(sig),
        r"signature \(%d,%d\), \(i, j\) = \(2, 3\): \[l_1i, l_1j\] - c_ij l_ij "
        r"leaves \d+ terms" % sig)
       for sig in ((3, 0), (2, 2))},
    "brackets-plan-entry": (
        [(equivariant, "_generating_plan", _wrong_plan)], _intertwiners((3, 0)),
        r"signature \(3,0\), \('g', 2\) = \[\('f', 2\), \('g', 1\)\]: lambda-free has no "
        r"residual of the checked form"),
    "brackets-l23-action": (
        _tampered_action(("l", 2, 3), lambda lam: 1), _intertwiners((2, 1)),
        r"signature \(2,1\), \('l', 2, 3\) = \[\('l', 1, 2\), \('l', 1, 3\)\]: lambda-free "
        r"leaves \d+ terms"),
}


def _check_refusal(name):
    patches, run, message = REFUSALS[name]
    fresh_models(patches, lambda: refused(run, message))


@pytest.mark.parametrize("name", list(REFUSALS))
def test_a_model_failing_a_premise_is_refused(name):
    _check_refusal(name)


def _perturbed_block():
    _, shapes = _classify_with_perturbed_g1(rational(3, 2), 5, (5, 5))
    if shapes != [4]:
        raise AssertionError("the perturbed block solved %s columns" % shapes)


# group -> (refusal cases, other checks): every refusal case, and the second
# paths a sound model can still take (a block g_1 does not kill, a family
# with no pivot rows, a doubled R_12 that the seeds catch), for one
# python -O run.  The tests named in each group's comment read its result
# through the ``optimized_controls`` fixture.
OPTIMIZED = {
    # test_singular::test_non_scalar_diagonal_square_fails_under_optimize_flag
    "closed-forms": (["c2-closed-form", "c1-closed-form", "c3-closed-form"],
                     [lambda: _tampered_classify(rational(-1, 2), 3)]),
    # test_singular::test_certificate_fallbacks_run_under_optimize_flag
    "block-certificate": (["certificate-classify"], [_perturbed_block]),
    # test_equivariant::test_broken_representation_check_runs_under_optimize_flag
    "doubled-r12": ([], [lambda: _doubled_rotation_case(Context(2, 1))]),
    # test_equivariant::test_model_verdict_controls_run_under_optimize_flag
    "function-brackets": (["brackets-plan-entry", "brackets-l23-action"],
                          [lambda: _dependent_fiber_case((2, 1)),
                           lambda: _tampered_slope_case((2, 1))]),
    # test_equivariant::test_broken_certificate_premise_operators_under_optimize_flag
    "intertwiner-certificate": (["certificate-intertwiner-3,0", "certificate-intertwiner-2,2"],
                                []),
    # test_equivariant::test_rotation_controls_run_under_optimize_flag
    "rotations": (["rotations-intertwiner-3,0", "rotations-intertwiner-2,2"],
                  [lambda: _check_family_without_pivot_rows((2, 1))]),
}


def _run_optimized():
    """Print "<group> ok", or "<group> failed: <error>", for each group of
    OPTIMIZED in turn."""
    for group, (names, checks) in OPTIMIZED.items():
        try:
            for name in names:
                _check_refusal(name)
            for check in checks:
                check()
        except Exception as exc:
            print(group, "failed:", repr(exc))
        else:
            print(group, "ok")


def test_refusals_and_second_paths_run_under_optimize_flag(optimized_controls):
    # one python -O run covers every refusal case once, and every group passes
    cases = [name for names, _ in OPTIMIZED.values() for name in names]
    assert sorted(cases) == sorted(REFUSALS)
    assert optimized_controls == dict.fromkeys(OPTIMIZED, "ok")


def test_every_supported_model_passes_every_premise():
    # every signature with n = 3..8 in both gamma constructions: the
    # evidence that no supported model needs a path for a failed premise
    def check():
        for n in range(3, 9):
            for p in range(n, -1, -1):
                for variant in ("standard", "alt"):
                    ctx = Context(p, n - p, variant=variant)
                    entries = _plan_constants(ctx.sig, _generating_plan(n))
                    assert require(ctx.sig, chain(
                        closed_form_premises(ctx, (2, 1, 3)), certificate_premises(ctx),
                        rotation_premises(ctx), bracket_premises(ctx.rep, entries)))

    fresh_models([], check)


_PREMISES = {("contraction-identity", (2,)), ("contraction-identity", (1, 3)),
             "block-certificate", "rotation-relations", "function-brackets"}
_C2, _C13 = ("contraction-identity", (2,)), ("contraction-identity", (1, 3))
_CLASSIFY = {_C2, _C13, "block-certificate"}
_INTERTWINER = {"block-certificate", "rotation-relations", "function-brackets"}

# each job with the premises it checks: the same as when a failed premise
# still selected a second path
_JOBS = [
    (["classify", "--p", "3", "--lambda", "5/2", "--dmax", "4"], _CLASSIFY),
    (["classify", "--p", "3", "--lambda", "1/5", "--dmax", "4"], {_C2}),
    (["classify", "--p", "2", "--q", "2", "--lambda", "-1/2", "--dmax", "3"],
     {_C2, "block-certificate"}),
    (["scan", "--p", "2", "--q", "1", "--lambda-grid", "-1..2:1/2", "--dmax", "4"], _CLASSIFY),
    (["fischer", "--p", "3", "--q", "1", "--dmax", "4"], set()),
    (["intertwiner", "--p", "2", "--q", "1", "--kind", "dirac", "--a", "3",
      "--test-degree", "3"], _INTERTWINER),
    (["intertwiner", "--p", "2", "--q", "2", "--kind", "twistor", "--a", "2",
      "--test-degree", "2"], _INTERTWINER),
]


def test_a_job_checks_the_premises_it_checked_before():
    # the premises stay lazy: a job checks no premise it did not check before
    for argv, expect in _JOBS:
        def run():
            with redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
            rep, = clifford._MODELS.cache.values()
            return {key[0] if key[0] == "function-brackets" else key for key in rep.cache}

        assert fresh_models([], run) & _PREMISES == expect, argv
