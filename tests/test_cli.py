import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from vermaspin import cli, clifford, equivariant, realization, singular
from vermaspin.exact import SparseMatrix, rational
from vermaspin.polyspinor import OperatorSpec
from vermaspin.singular import ClassificationReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_json_and_exit_zero(capsys, tmp_path):
    code, out, _ = run(capsys, "classify", "--p", "3", "--q", "0",
                       "--lambda", "5/2", "--dmax", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["case"] == "twistor"
    assert payload["lambda"] == "5/2"
    found = {(c["degree"], c["k"], c["m"], c["dim"]) for c in payload["found"]}
    assert found == {(0, 0, 0, 2), (2, 0, 2, 6)}
    assert "generated_at" in payload


def test_classify_text_format(capsys):
    code, out, _ = run(capsys, "classify", "--p", "3", "--q", "0",
                       "--lambda", "1", "--dmax", "4", "--format", "text")
    assert code == 0
    assert "match: yes" in out
    assert "X^3 M_0" in out


def test_classify_negative_lambda_parses(capsys):
    code, out, _ = run(capsys, "classify", "--p", "2", "--q", "1",
                       "--lambda", "-5/2", "--dmax", "2")
    assert code == 0
    assert json.loads(out)["case"] == "generic"


def test_byte_determinism_modulo_timestamp(capsys):
    _, out1, _ = run(capsys, "classify", "--p", "3", "--q", "0",
                     "--lambda", "3/2", "--dmax", "3")
    _, out2, _ = run(capsys, "classify", "--p", "3", "--q", "0",
                     "--lambda", "3/2", "--dmax", "3")
    p1, p2 = json.loads(out1), json.loads(out2)
    p1.pop("generated_at")
    p2.pop("generated_at")
    assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)


def test_small_dimension_rejected(capsys):
    code, _, err = run(capsys, "classify", "--p", "1", "--q", "1", "--lambda", "1")
    assert code == 1
    assert "n >= 3 required" in err


@pytest.mark.parametrize("argv, message", [
    (["classify", "--p", "4", "--q", "-1", "--lambda", "1"], "error: --q must be nonnegative, got -1\n"),
    (["fischer", "--p", "-2", "--q", "5"], "error: --p must be nonnegative, got -2\n"),
])
def test_negative_signature_count_rejected(capsys, monkeypatch, argv, message):
    # p + q >= 3 here, so the message names the negative count, not n
    monkeypatch.setattr(cli, "Context", _no_context)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == message


def test_float_lambda_rejected(capsys):
    code, _, err = run(capsys, "classify", "--p", "3", "--q", "0", "--lambda", "0.5")
    assert code == 1
    assert "exact rational" in err


@pytest.mark.parametrize("argv, bad", [
    (["classify", "--p", "3", "--lambda", "1/0"], "1/0"),
    (["scan", "--p", "3", "--lambda-grid", "0..1:1/0"], "1/0"),
    (["scan", "--p", "3", "--lambda-grid", "-1/0..1:1"], "-1/0"),
])
def test_zero_denominator_rejected(capsys, monkeypatch, argv, bad):
    monkeypatch.setattr(cli, "Context", _no_context)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "zero denominator: '%s'" % bad in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["classify", "--p", "3", "--lambda", "1", "--dmax", "0"],
    ["scan", "--p", "3", "--lambda-grid", "0..1:1", "--dmax", "-1"],
    ["fischer", "--p", "3", "--dmax", "-1"],
])
def test_bad_dmax_rejected_before_the_context(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "Context", _no_context)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "dmax must be" in err


def test_unknown_command_rejected(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_usage_error_then_valid_command_in_one_process(capsys):
    # the parser is built once per process; a usage error must not leave
    # state behind for the next call
    code, _, err = run(capsys, "classify", "--p", "3", "--q", "0", "--lambda", "1.5",
                       "--dmax", "2")
    assert code == 1 and "floats are not accepted" in err
    code, out, _ = run(capsys, "classify", "--p", "3", "--q", "0", "--lambda", "5/2",
                       "--dmax", "2")
    assert code == 0 and json.loads(out)["case"] == "twistor"
    assert cli.build_parser() is cli.build_parser()


def test_fischer_at_n26_finishes():
    # a hang guard for the Context build at a large signature, not a timing test
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "vermaspin", "fischer", "--p", "26",
                           "--dmax", "0"], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n"] == 26


def test_scan_csv(capsys):
    code, out, _ = run(capsys, "scan", "--p", "2", "--q", "1",
                       "--lambda-grid", "-1..2:1/2", "--dmax", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == cli.CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    lambdas = {r[3] for r in rows}
    assert lambdas == {"-1", "-1/2", "0", "1/2", "1", "3/2", "2"}
    assert all(r[-1] == "true" for r in rows)
    # every lambda contributes at least its degree-0 row
    zero_rows = [r for r in rows if r[4] == "0"]
    assert {r[3] for r in zero_rows} == lambdas


def test_scan_even_dimension_chirality_rows(capsys):
    code, out, _ = run(capsys, "scan", "--p", "2", "--q", "2",
                       "--lambda-grid", "3/2..3/2:1", "--dmax", "2")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert {r[7] for r in rows} == {"+", "-"}


def test_fischer_json(capsys):
    code, out, _ = run(capsys, "fischer", "--p", "2", "--q", "1", "--dmax", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    dims = [s["dim"] for s in payload["spaces"]]
    assert dims == [2, 4, 6, 8]


def test_fischer_csv_scheme(capsys):
    code, out, _ = run(capsys, "fischer", "--p", "3", "--q", "0",
                       "--dmax", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,x_power,monogenic_degree,dim"
    assert lines[1:] == ["0,0,0,2", "1,0,1,4", "1,1,0,2",
                         "2,0,2,6", "2,1,1,4", "2,2,0,2"]


def test_intertwiner_json(capsys):
    code, out, _ = run(capsys, "intertwiner", "--p", "3", "--q", "0",
                       "--kind", "dirac", "--a", "1", "--test-degree", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["residual_zero"] is True
    assert payload["order"] == 1
    assert payload["twists"]["pi_star_source"] == "-3/2"
    assert payload["twists"]["pi_star_target"] == "-1/2"
    assert payload["dirac_symbol_ratio"] == "1"


def test_intertwiner_even_order_config_error(capsys):
    code, _, err = run(capsys, "intertwiner", "--p", "3", "--q", "0",
                       "--kind", "dirac", "--a", "2")
    assert code == 1
    assert "odd" in err


@pytest.mark.parametrize("kind, a, message", [
    ("dirac", "2", "order of a Dirac power must be odd"),
    ("twistor", "0", "twistor order must be a positive integer"),
])
def test_intertwiner_bad_order_rejected(capsys, kind, a, message):
    code, out, err = run(capsys, "intertwiner", "--p", "3", "--kind", kind, "--a", a)
    assert code == 1
    assert out == ""
    assert err == "error: %s\n" % message


def test_negative_test_degree_rejected_before_the_context(capsys, monkeypatch):
    monkeypatch.setattr(cli, "Context", _no_context)
    code, out, err = run(capsys, "intertwiner", "--p", "3", "--kind", "dirac", "--a", "1",
                         "--test-degree", "-1")
    assert code == 1
    assert out == ""
    assert err == "error: --test-degree must be nonnegative, got -1\n"


def test_no_whole_degree_g_or_l_is_assembled_by_classify_scan_or_intertwiner(
        capsys, monkeypatch):
    # every g_i and l_ij these commands assemble is restricted to the
    # monomials of a support; the only whole-degree assemblies are of D and X
    from vermaspin import clifford, polyspinor
    from vermaspin.context import Context

    build = polyspinor.assemble
    calls = []

    def spied(spec, degree, bases=None, monos=None):
        calls.append((spec, monos))
        return build(spec, degree, bases, monos)

    for name, module in list(sys.modules.items()):
        if name.startswith("vermaspin") and getattr(module, "assemble", None) is build:
            monkeypatch.setattr(module, "assemble", spied)
    monkeypatch.setattr(clifford, "_MODELS", clifford.Memo())
    commands = [
        ["classify", "--p", "3", "--lambda", "3/2", "--dmax", "4"],
        ["scan", "--p", "2", "--q", "2", "--lambda-grid", "-1..2:1/2", "--dmax", "4"],
        ["intertwiner", "--p", "2", "--q", "1", "--kind", "dirac", "--a", "3",
         "--test-degree", "3"],
        ["intertwiner", "--p", "2", "--q", "2", "--kind", "twistor", "--a", "2",
         "--test-degree", "2"],
    ]
    for argv in commands:
        assert run(capsys, *argv)[0] == 0, argv
    osp = [realization._osp_cached(Context(*sig).rep) for sig in ((3, 0), (2, 1), (2, 2))]
    whole = {id(spec) for spec, monos in calls if monos is None}
    assert whole and whole <= {id(x) for o in osp for x in (o.D, o.X)}
    assert sum(monos is not None for _, monos in calls) > 0


def test_output_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "classify", "--p", "3", "--q", "0",
                       "--lambda", "1/5", "--dmax", "2", "--output", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["case"] == "generic"


def test_unwritable_output_file_is_an_error(capsys, tmp_path):
    path = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "classify", "--p", "3", "--q", "0",
                         "--lambda", "1/5", "--dmax", "2", "--output", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_mismatch_exit_code(capsys, monkeypatch):
    # a theorem mismatch is a first-class outcome with its own exit code
    fake = ClassificationReport(n=3, p=3, q=0, lam_thm=rational(1), d_max=2,
                                case="generic", found=[], predicted=[],
                                uncheckable=[], match=False)
    monkeypatch.setattr(cli, "classify", lambda ctx, lam, dmax: fake)
    code, out, _ = run(capsys, "classify", "--p", "3", "--q", "0",
                       "--lambda", "1", "--dmax", "2")
    assert code == 2
    assert json.loads(out)["match"] is False


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "all checks passed" in out
    assert out.count("PASS") == 14


def test_selftest_passes_under_optimize_flag(capsys):
    # the checks raise without assert, so -O runs and passes them all alike
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-m", "vermaspin", "selftest"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == out
    assert [line for line in out.splitlines() if line.startswith("PASS ")] == \
        ["PASS %-31s" % name for name, _ in cli._selftest_checks()]
    assert out.count("PASS") == 14


def test_selftest_fails_under_optimize_flag():
    # a wrong rref, and a rotation read-off that gives zero rotations, must
    # fail the selftest also when asserts are compiled out
    script = textwrap.dedent("""
        from vermaspin import cli, equivariant, exact
        from vermaspin.exact import SparseMatrix

        if __debug__:
            raise SystemExit("expected python -O")
        exact.rref = lambda m: (SparseMatrix.zero(m.rows, m.cols), [])
        equivariant._rotation = lambda ctx, i, j, degree, v: SparseMatrix.zero(v.cols, v.cols)
        raise SystemExit(cli.main(["selftest"]))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL exact scalars and kernels" in proc.stdout
    # a failing intertwining check names the signature, the test degree and
    # the report's first failure and residual size
    assert re.search(r"^FAIL equivariant intertwining +AssertionError: signature \(2,1\), "
                     r".*test degree \d+: residual_zero False, first failure "
                     r"\(\('[a-z]'(, \d+)*\), \d+\), max residual terms [1-9]",
                     proc.stdout, re.M), proc.stdout
    # a check that raises something other than AssertionError is reported
    # too, and the remaining checks still run
    lines = proc.stdout.splitlines()
    for name, _ in cli._selftest_checks():
        assert any(line.startswith(("PASS " + name, "FAIL " + name)) for line in lines), name


def test_selftest_prefilter_check_names_the_signature(monkeypatch):
    # a closed form off by the scalar 1, broken at its source _CONTRACTIONS
    def broken(idx):
        entry = realization._CONTRACTIONS[idx]

        def at_zero(o):
            one = OperatorSpec.scalar(o.E.n, o.E.dim, 1)
            return entry.at_zero(o) + [(one, one)]

        return entry._replace(at_zero=at_zero)

    monkeypatch.setitem(realization._CONTRACTIONS, 2, broken(2))
    check = dict(cli._selftest_checks())["contraction prefilter identity"]
    with pytest.raises(AssertionError, match=r"^signature \(3,0\): .* leaves 1 terms$"):
        check()
    monkeypatch.undo()
    monkeypatch.setitem(realization._CONTRACTIONS, 3, broken(3))
    check = dict(cli._selftest_checks())["contraction prefilter identity"]
    with pytest.raises(AssertionError, match=r"^signature \(3,0\): sum_j eps_j d_j g_j\(0\) "
                                             r"- C3\(0\) leaves 1 terms$"):
        check()
    monkeypatch.undo()
    # a wrong lambda slope of C2 fails its lambda part, which names it
    entry = realization._CONTRACTIONS[2]
    monkeypatch.setitem(realization._CONTRACTIONS, 2,
                        entry._replace(slope=lambda o: entry.slope(o).scale(2)))
    check = dict(cli._selftest_checks())["contraction prefilter identity"]
    with pytest.raises(AssertionError, match=r"^signature \(3,0\): lambda part of C2: "
                                             r"sum_j x_j d_j - E leaves 3 terms$"):
        check()


def test_selftest_certificate_check_names_the_signature_and_j(capsys, monkeypatch):
    # every c_j of the block certificate doubled: [l_12, g_1(0)] - c_2 g_2(0)
    # is the first premise left nonzero, and the selftest exits 1
    bracket_multiple = singular.bracket_multiple
    monkeypatch.setattr(singular, "bracket_multiple", lambda *args: bracket_multiple(*args) * 2)
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert re.search(r"^FAIL block certificate premises +AssertionError: signature \(3,0\), "
                     r"j = 2: \[l_1j, g_1\(0\)\] - c_j g_j\(0\) leaves [1-9]\d* terms$",
                     out, re.M), out
    assert out.count("FAIL") == 1 and out.endswith("1 check(s) failed\n")


def test_selftest_certificate_check_names_the_rotation_pair(monkeypatch):
    # only the c_ij of [l_1i, l_1j] = c_ij l_ij doubled: the block certificate
    # holds, and (2, 3) is the first derived-rotation premise left nonzero
    bracket_multiple = singular.bracket_multiple

    def doubled(a, b, y, sig):
        c = bracket_multiple(a, b, y, sig)
        return c * 2 if y[0] == "l" else c

    monkeypatch.setattr(singular, "bracket_multiple", doubled)
    check = dict(cli._selftest_checks())["block certificate premises"]
    with pytest.raises(AssertionError, match=r"^signature \(3,0\), \(i, j\) = \(2, 3\): "
                                             r"\[l_1i, l_1j\] - c_ij l_ij leaves [1-9]\d* terms$"):
        check()


def test_selftest_plan_check_names_the_signature_and_generator(monkeypatch):
    # g_2 planned from [f_2, g_1] = -l_12 is no multiple of g_2
    plan = equivariant._generating_plan

    def wrong(n):
        return [(y, ("f", 2), b) if y == ("g", 2) else (y, a, b) for y, a, b in plan(n)]

    monkeypatch.setattr(equivariant, "_generating_plan", wrong)
    check = dict(cli._selftest_checks())["generating-set plan"]
    with pytest.raises(AssertionError, match=r"^signature \(3,0\): \[\('f', 2\), \('g', 1\)\] "
                                             r"is not a nonzero multiple of \('g', 2\)$"):
        check()


def test_selftest_function_bracket_check_names_the_signature_entry_and_part(capsys,
                                                                           monkeypatch):
    # every c doubled where the verifier reads it: the lambda-free part of
    # the first plan entry is the first premise left nonzero, the selftest
    # exits 1, and the intertwining check, which then normal-orders every
    # generator, still passes
    bracket_multiple = equivariant.bracket_multiple

    def doubled(*args):
        c = bracket_multiple(*args)
        return None if c is None else c * 2

    monkeypatch.setattr(equivariant, "bracket_multiple", doubled)
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert re.search(r"^FAIL function-picture brackets +AssertionError: signature \(3,0\), "
                     r"\('l', 1, 2\) = \[\('f', 2\), \('g', 1\)\]: lambda-free fails$",
                     out, re.M), out
    assert out.count("FAIL") == 1 and out.endswith("1 check(s) failed\n")
    # a spinor fiber of zero matrices meets every relation and fails the
    # independence alone
    monkeypatch.undo()
    monkeypatch.setattr(clifford, "_MODELS", clifford.Memo())
    monkeypatch.setattr(equivariant, "spinor_fiber", lambda rep: {
        key: SparseMatrix.zero(rep.spinor_dim, rep.spinor_dim)
        for key in realization.spinor_fiber(rep)})
    check = dict(cli._selftest_checks())["function-picture brackets"]
    with pytest.raises(AssertionError, match=r"^signature \(3,0\): independence fails$"):
        check()


def _no_context(*args, **kwargs):
    raise AssertionError("a Context was built past the size guard")


def test_size_estimates_and_caps():
    assert cli.component_dim(3, 6) == 28 * 2
    assert cli.component_dim(6, 5) == 252 * 8
    assert cli.component_dim(6, -1) == 8
    # the README examples, the benchmark jobs and n = 6 at degree 8 fit
    assert cli.component_dim(6, 8) < cli.MAX_COMPONENT_DIM
    assert cli.component_dim(4, 6) < cli.MAX_COMPONENT_DIM
    huge = cli.grid_points(rational(0), rational(10**9), rational(1, 1000))
    assert huge == 10**12 + 1
    assert cli.grid_points(rational(-1), rational(2), rational(1, 2)) == 7
    assert cli.grid_points(rational(3, 2), rational(3, 2), rational(1)) == 1
    assert cli.grid_points(rational(0), rational(1), rational(2, 3)) == 2


@pytest.mark.parametrize("argv", [
    ["classify", "--p", "3", "--lambda", "1", "--dmax", "1000000"],
    ["scan", "--p", "2", "--q", "1", "--lambda-grid", "0..1:1", "--dmax", "1000000"],
    ["fischer", "--p", "3", "--q", "3", "--dmax", "1000000"],
    ["intertwiner", "--p", "3", "--kind", "dirac", "--a", "1", "--test-degree", "1000000"],
    ["classify", "--p", "200", "--lambda", "1", "--dmax", "1"],
    ["classify", "--p", "0", "--q", "1000000000000", "--lambda", "1", "--dmax", "1"],
])
def test_component_size_guard(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "Context", _no_context)
    size = cli.component_dim

    def bounded(n, degree):
        # a huge n is rejected before its 2^(n // 2) fiber is computed
        if n > 64:
            raise AssertionError("component_dim called at n = %d" % n)
        return size(n, degree)

    monkeypatch.setattr(cli, "component_dim", bounded)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "at most %d is allowed" % cli.MAX_COMPONENT_DIM in err


def test_grid_size_guard(capsys, monkeypatch):
    monkeypatch.setattr(cli, "Context", _no_context)
    top = cli.MAX_GRID_POINTS
    code, _, err = run(capsys, "scan", "--p", "3", "--lambda-grid", "1..%d:1" % (top + 1))
    assert code == 1
    assert "grid has %d points; at most %d are allowed" % (top + 1, top) in err
