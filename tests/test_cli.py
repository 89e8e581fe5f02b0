import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from lagtp import checks, cli, digraphs, matrices, srpaths
from lagtp.banded import check_banded_criterion, random_spec
from lagtp.laguerre import EdgeWeights, LaguerreParams, VertexWeights, monic_laguerre
from lagtp.matrices import (Mismatch, TPReport, Truncation, XorShift64, hankel_truncation,
                            sfraction_word, tp_check_symbolic)
from lagtp.polyring import Poly


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_package_runs_as_a_module():
    # an uninstalled checkout reaches the command line as python -m lagtp
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "lagtp", "oracle", "first-mv", "--n", "2"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_gen_laguerre_coeff_json(capsys):
    code, out, _ = run(capsys, ["gen", "laguerre-coeff", "--alpha", "sym", "--n", "5"])
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"] == obj["cols"] == 5
    entry = Poly.from_json_obj(obj["entries"][3][1])
    assert str(entry) == "18+15*a+3*a^2"  # 3*(2+a)*(3+a), expanded


def test_gen_is_deterministic(capsys):
    _, out1, _ = run(capsys, ["gen", "second-mv", "--n", "4", "--flat"])
    _, out2, _ = run(capsys, ["gen", "second-mv", "--n", "4", "--flat"])
    assert out1 == out2


def test_gen_prodmat_alpha_minus_one(capsys):
    code, out, _ = run(capsys, ["gen", "prodmat:P", "--alpha", "-1", "--n", "4",
                                "--format", "csv"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[1][0] == "2*x"          # p_{1,0} = 1*(1-1) + 2x
    assert rows[2][1] == "2+4*x"        # p_{2,1} = 2*(2-1) + 4x
    assert rows[2][0] == "2*x"          # p_{2,0} = 2*1*x


def test_gen_smj_family(capsys):
    code, out, _ = run(capsys, ["gen", "smj", "--m", "2", "--j", "1",
                                "--family", "j1a0", "--n", "4"])
    assert code == 0
    obj = json.loads(out)
    assert Poly.from_json_obj(obj["entries"][1][1]) == 3 + Poly.var("x")


@pytest.mark.parametrize("kappa", ["sym", "abc", "1/0", "2", "-1", "3/2"])
def test_gen_smj_bad_kappa_exits_2(capsys, kappa):
    # not an exact rational, or outside [0, 1] (kappa = 2 makes D(2) = 0,
    # kappa = -1 a negative alpha)
    code, out, err = run(capsys, ["gen", "smj", "--family", "j0am1", "--kappa", kappa])
    assert (code, out) == (2, "")
    assert "--kappa" in err


@pytest.mark.parametrize("kappa", ["0", "1", "1/2"])
def test_gen_smj_kappa_in_unit_interval(capsys, kappa):
    assert run(capsys, ["gen", "smj", "--family", "j2a1", "--kappa", kappa, "--n", "3"])[0] == 0


def test_gen_csv_of_polynomials(capsys):
    code, out, _ = run(capsys, ["gen", "laguerre-coeff", "--alpha", "-1", "--n", "4",
                                "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[3] == "0,6,6,1"


def test_gen_reproduces_the_display_families(capsys):
    # monic family with symbolic alpha: rows are the coefficient lists
    _, out, _ = run(capsys, ["gen", "laguerre-coeff", "--n", "4", "--format", "csv"])
    assert out == ("1,0,0,0\n"
                   "1+a,1,0,0\n"
                   "2+3*a+a^2,4+2*a,1,0\n"
                   "6+11*a+6*a^2+a^3,18+15*a+3*a^2,9+3*a,1\n")
    # rook rows at alpha = 0 (reversed reading) and Lah rows at alpha = -1
    _, rook, _ = run(capsys, ["gen", "laguerre-coeff", "--alpha", "0", "--n", "5",
                              "--format", "csv"])
    assert rook == ("1,0,0,0,0\n"
                    "1,1,0,0,0\n"         # reversed: 1 + x
                    "2,4,1,0,0\n"         # reversed: 1 + 4x + 2x^2
                    "6,18,9,1,0\n"        # reversed: 1 + 9x + 18x^2 + 6x^3
                    "24,96,72,16,1\n")    # reversed: 1 + 16x + 72x^2 + 96x^3 + 24x^4
    _, lah, _ = run(capsys, ["gen", "laguerre-coeff", "--alpha", "-1", "--n", "5",
                             "--format", "csv"])
    assert lah == ("1,0,0,0,0\n"
                   "0,1,0,0,0\n"
                   "0,2,1,0,0\n"
                   "0,6,6,1,0\n"
                   "0,24,36,12,1\n")


@pytest.mark.parametrize("selector", ["first-mv", "quad-general", "quad-variant"])
def test_gen_other_selectors_run(capsys, selector):
    code, out, _ = run(capsys, ["gen", selector, "--n", "3"])
    assert code == 0
    assert json.loads(out)["rows"] == 3


def test_gen_bad_selector_exits_2(capsys):
    assert run(capsys, ["gen", "bogus", "--n", "3"])[0] == 2


def test_gen_bad_alpha_exits_2(capsys):
    assert run(capsys, ["gen", "laguerre-coeff", "--alpha", "wat"])[0] == 2


def _oracle_rows(rows, cols, mode, weights, divisor=None):
    """The oracle's matrix in gen's csv form: rows 0..rows-1, zero above the
    diagonal, each entry over divisor^k when a divisor is given."""
    def entry(i, k):
        if k > i:
            return Poly.zero()
        value = digraphs.oracle_entry(i, k, weights, mode)
        return value.exact_div(divisor ** k) if divisor is not None else value
    return [[str(entry(i, k)) for k in range(cols)] for i in range(rows)]


def _gen_rows(out, fmt):
    if fmt == "csv":
        return [line.split(",") for line in out.splitlines()]
    return [[str(Poly.from_json_obj(e)) for e in row] for row in json.loads(out)["entries"]]


def test_gen_second_mv_rational_alpha_matches_the_oracle(capsys):
    # built at a symbolic alpha and substituted: (1,0) = 10/3*yfp passes
    # through, which the integrality guard would refuse at alpha = 7/3 itself
    w = VertexWeights.symbolic()
    weights = w.oracle_weights(LaguerreParams.of("7/3").lam)
    for flat in (False, True):
        want = _oracle_rows(7, 7, "second_mv_general", weights, w.zp if flat else None)
        assert want[1][0] == "10/3*yfp"
        for fmt in ("json", "csv"):
            argv = ["gen", "second-mv", "--alpha", "7/3", "--n", "7", "--format", fmt]
            code, out, err = run(capsys, argv + ["--flat"] * flat)
            assert (code, err) == (0, "")
            assert _gen_rows(out, fmt) == want
    assert run(capsys, ["gen", "second-mv", "--alpha", "4/2", "--n", "3"])[0] == 0


def test_gen_first_mv_is_not_capped_by_the_oracle(capsys):
    code, out, err = run(capsys, ["gen", "first-mv", "--n", "12", "--format", "csv"])
    assert (code, err) == (0, "")
    got = _gen_rows(out, "csv")
    assert len(got) == 12
    weights = EdgeWeights.symbolic().oracle_weights(LaguerreParams.symbolic().lam)
    assert got[:8] == _oracle_rows(8, 12, "first_mv", weights)


def test_oracle_cap_exits_2(capsys):
    # one cap at the boundary, under symbolic weights too: n = 8 is answered
    # and n = 9 refused
    assert run(capsys, ["oracle", "cyclic", "--n", "8"])[0] == 0
    code, out, err = run(capsys, ["oracle", "first-mv", "--n", "9"])
    assert (code, out) == (2, "")
    assert "capped at n <= 8" in err


def test_gen_out_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    code, out, _ = run(capsys, ["gen", "laguerre-coeff", "--n", "3", "--out", str(path)])
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["rows"] == 3


def test_tp_check_pass(tmp_path, capsys):
    lah = LaguerreParams.of(-1)
    seq = [monic_laguerre(n, lah, Poly.var("x")) for n in range(7)]
    h = hankel_truncation(seq, 4)
    path = tmp_path / "hankel.json"
    path.write_text(h.to_json())
    code, out, _ = run(capsys, ["tp-check", str(path), "--order", "3"])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_tp_check_fail_with_witness(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(Truncation([[1, 2], [3, 1]]).to_json())
    code, out, _ = run(capsys, ["tp-check", str(path), "--order", "2"])
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert Poly.from_json_obj(report["witness"]["minor"]) == Poly.const(-5)


def test_tp_check_sampled_mode(tmp_path, capsys):
    path = tmp_path / "sym.json"
    x = Poly.var("x")
    path.write_text(Truncation([[1 + x, 1], [x, 1 + x]]).to_json())
    code, out, _ = run(capsys, ["tp-check", str(path), "--order", "2",
                                "--mode", "sampled", "--seed", "5", "--samples", "20"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and report["seed"] == 5


def test_tp_check_sampled_rational_entries_exit_2(tmp_path, capsys):
    path = tmp_path / "half.json"
    path.write_text(Truncation([[Poly.var("x").scale(Fraction(1, 2))]]).to_json())
    code, out, err = run(capsys, ["tp-check", str(path), "--order", "1", "--mode", "sampled"])
    assert (code, out) == (2, "")
    assert "integer-valued entries" in err


def test_tp_check_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(capsys, ["tp-check", str(path)])[0] == 2


@pytest.mark.parametrize("exp", [-3, 40000])
def test_tp_check_bad_exponent_exits_2(tmp_path, capsys, exp):
    # x^-3 is no polynomial, and x^40000 is past the exponent limit when read
    entry = {"vars": ["x"], "terms": [{"exp": [exp], "coef": "1"}]}
    path = tmp_path / "bad_exp.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [[entry, entry], [entry, entry]]}))
    code, out, err = run(capsys, ["tp-check", str(path), "--order", "2"])
    assert (code, out) == (2, "")
    assert "exponent" in err


def test_tp_check_minor_past_the_exponent_limit_is_certified(tmp_path, capsys):
    # the terms of the 2x2 minor of x^20000 entries pass the key limit, but
    # the minor is 0, and the scan's plan indexes x^40000 exactly
    entry = {"vars": ["x"], "terms": [{"exp": [20000], "coef": "1"}]}
    path = tmp_path / "big_exp.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [[entry, entry], [entry, entry]]}))
    code, out, err = run(capsys, ["tp-check", str(path), "--order", "2"])
    assert (code, err) == (0, "")
    assert out == ('{"checked":5,"cols":2,"mode":"symbolic","ok":true,"order":2,"rows":2,'
                   '"witness":null}\n')


def test_tp_check_failing_minor_past_the_exponent_limit_exits_1(tmp_path, capsys):
    # the 2x2 minor x^40000 - 1 fails; no Poly holds it, so the witness has
    # its rows and columns and a null minor
    big = {"vars": ["x"], "terms": [{"exp": [20000], "coef": "1"}]}
    one = {"vars": [], "terms": [{"exp": [], "coef": "1"}]}
    path = tmp_path / "big_exp.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [[big, one], [one, big]]}))
    code, out, err = run(capsys, ["tp-check", str(path), "--order", "2"])
    assert (code, err) == (1, "")
    assert out == ('{"checked":5,"cols":2,"mode":"symbolic","ok":false,"order":2,"rows":2,'
                   '"witness":{"cols":[0,1],"minor":null,"rows":[0,1]}}\n')


def test_tp_check_exponent_true_exits_2(tmp_path, capsys):
    # a JSON true is no exponent, not x^1
    entry = {"vars": ["x"], "terms": [{"exp": [True], "coef": "1"}]}
    path = tmp_path / "bool_exp.json"
    path.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [[entry]]}))
    code, out, err = run(capsys, ["tp-check", str(path), "--order", "1"])
    assert (code, out) == (2, "")
    assert "exponent" in err


def test_tp_check_zero_denominator_exits_2(tmp_path, capsys):
    entry = {"vars": ["x"], "terms": [{"exp": [1], "coef": "1/0"}]}
    path = tmp_path / "zero_den.json"
    path.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [[entry]]}))
    code, out, err = run(capsys, ["tp-check", str(path), "--order", "1"])
    assert (code, out) == (2, "")
    assert "1/0" in err


@pytest.mark.parametrize("mode", ["symbolic", "sampled"])
def test_tp_check_non_string_variable_name_exits_2(tmp_path, capsys, mode):
    # an int name beside a str one used to crash sorting the names (exit 1)
    named = [{"vars": [name], "terms": [{"exp": [1], "coef": "1"}]} for name in (1, "x")]
    path = tmp_path / "int_name.json"
    path.write_text(json.dumps({"rows": 1, "cols": 2, "entries": [named]}))
    code, out, err = run(capsys, ["tp-check", str(path), "--order", "2", "--mode", mode])
    assert (code, out) == (2, "")
    assert err == "error: cannot read matrix JSON: variable names must be identifiers, got 1\n"


@pytest.mark.parametrize("entry, field", [
    ({"vars": "xy", "terms": [{"exp": [1, 1], "coef": "1"}]}, "vars"),
    ({"vars": ["x"], "terms": [{"exp": [1], "coef": "1_000"}]}, "coef"),
    ({"vars": ["x"], "terms": [{"exp": [1], "coef": " 3 "}]}, "coef"),
    ({"vars": ["x"], "terms": [{"exp": [1], "coef": "\u0661\u0662"}]}, "coef"),
    ({"vars": ["x"], "terms": [{"exp": [1], "coef": 1}]}, "coef"),
    ({"vars": ["x"], "terms": [{"exp": 5, "coef": "1"}]}, "exp"),
    ({"vars": ["x"], "terms": [{"exp": "12", "coef": "1"}]}, "exp"),
    ({"vars": ["x"], "terms": [{"exp": [True], "coef": "1"}]}, "exp"),
], ids=["vars-string", "underscore-digits", "padded", "arabic-indic-digits", "numeric-coef",
        "int-exp", "string-exp", "bool-exp"])
def test_tp_check_lenient_polynomial_json_exits_2(tmp_path, capsys, entry, field):
    path = tmp_path / "lenient.json"
    path.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [[entry]]}))
    code, out, err = run(capsys, ["tp-check", str(path), "--order", "1"])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read matrix JSON: {field} must be")


def test_tp_check_bool_entries_round_trip(tmp_path, capsys):
    m = Truncation([[True, 0], [1, 1]])
    path = tmp_path / "bool.json"
    path.write_text(m.to_json())
    assert '"True"' not in path.read_text()
    code, out, _ = run(capsys, ["tp-check", str(path), "--order", "2"])
    assert code == 0 and json.loads(out)["ok"] is True


def test_tp_check_bool_shape_exits_2(tmp_path, capsys):
    # a JSON true is no row or column count, although True == 1
    obj = {"rows": True, "cols": True, "entries": [[Poly.one().to_json_obj()]]}
    path = tmp_path / "bool_shape.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, ["tp-check", str(path), "--order", "1"])
    assert (code, out) == (2, "")
    assert "rows and cols" in err


def _assert_tp_check_reports(capsys, path, matrix, order):
    """`lagtp tp-check` on the JSON at path prints the report of the matrix
    built in memory, with the matching exit code."""
    expected = tp_check_symbolic(matrix, order)
    code, out, err = run(capsys, ["tp-check", str(path), "--order", str(order)])
    assert (code, out, err) == (0 if expected.ok else 1, expected.to_json() + "\n", "")


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("selector", cli.GEN_SELECTORS)
def test_gen_then_tp_check_reports_the_in_memory_matrix(tmp_path, capsys, selector, seed):
    rng = random.Random(f"{selector}/{seed}")
    alphas = ["sym", "-1", "2"] + ([] if selector == "second-mv" else ["1/2"])
    argv = ["gen", selector, "--alpha", rng.choice(alphas), "--n", str(rng.randint(1, 4))]
    path = tmp_path / "gen.json"
    assert run(capsys, argv + ["--out", str(path)])[0] == 0
    matrix = cli._gen_matrix(cli.build_parser().parse_args(argv))
    _assert_tp_check_reports(capsys, path, matrix, rng.randint(1, 4))


_y = Poly.var("y")
ENTRY_POOL = [True, False, 0, 1, -2, Fraction(1, 2), Fraction(-3, 4), Poly.var("x"),
              Poly.var("x") * _y + 1, _y.scale(Fraction(1, 3)) - 1]


@pytest.mark.parametrize("seed", range(30))
def test_seeded_matrix_then_tp_check_reports_the_in_memory_matrix(tmp_path, capsys, seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 4), rng.randint(1, 4)
    matrix = Truncation([[rng.choice(ENTRY_POOL) for _ in range(cols)] for _ in range(rows)])
    path = tmp_path / "m.json"
    path.write_text(matrix.to_json())
    _assert_tp_check_reports(capsys, path, matrix, rng.randint(1, 4))


@pytest.mark.parametrize("flag", ["--order", "--samples"])
@pytest.mark.parametrize("mode", ["symbolic", "sampled"])
def test_tp_check_nonpositive_order_or_samples_exits_2(tmp_path, capsys, flag, mode):
    path = tmp_path / "one.json"
    path.write_text(Truncation([[1]]).to_json())
    for value in ("0", "-1"):
        code, out, err = run(capsys, ["tp-check", str(path), "--mode", mode, flag, value])
        assert (code, out) == (2, "")
        assert flag in err


def test_verify_suite(capsys):
    code, out, _ = run(capsys, ["verify", "banded", "--seed", "42"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert [c["name"] for c in report["checks"]] == [
        "pcirc_banded_criterion", "banded_random_agreement"]
    assert all("seconds" not in c for c in report["checks"])


def test_verify_deterministic_bytes(capsys):
    _, out1, _ = run(capsys, ["verify", "banded", "--seed", "42"])
    _, out2, _ = run(capsys, ["verify", "banded", "--seed", "42"])
    assert out1 == out2


def test_verify_timings_flag(capsys):
    code, out, _ = run(capsys, ["verify", "banded", "--timings"])
    assert code == 0
    assert all("seconds" in c for c in json.loads(out)["checks"])


def test_verify_timings_resolve_microseconds(capsys, monkeypatch):
    # only the clock run_suite reads is faked: every check takes 0.0001234 s
    ticks = iter([0.0, 0.0001234] * len(checks.CHECKS))
    monkeypatch.setattr(checks, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    code, out, _ = run(capsys, ["verify", "banded", "--timings"])
    assert code == 0
    assert [c["seconds"] for c in json.loads(out)["checks"]] == [0.000123] * len(
        [s for s, _, _ in checks.CHECKS if s == "banded"])


def _boom(ctx):
    raise RuntimeError("internal fault")


def _counterexample(ctx):
    return False


@pytest.mark.parametrize("extra,code", [
    ((_boom,), 3),
    ((_boom, _counterexample), 1),
])
def test_verify_error_is_not_a_failure(capsys, monkeypatch, extra, code):
    monkeypatch.setattr(checks, "CHECKS",
                        checks.CHECKS + tuple(("banded", fn, None) for fn in extra))
    got, out, _ = run(capsys, ["verify", "banded"])
    assert got == code
    report = json.loads(out)
    assert report["ok"] is False
    entries = {c["name"]: c for c in report["checks"]}
    assert entries["pcirc_banded_criterion"] == {
        "suite": "banded", "name": "pcirc_banded_criterion", "ok": True}
    assert entries["_boom"]["ok"] is False
    assert entries["_boom"]["error"] == "RuntimeError: internal fault"
    if _counterexample in extra:
        assert entries["_counterexample"] == {
            "suite": "banded", "name": "_counterexample", "ok": False}


@pytest.mark.parametrize("exc", [AssertionError, KeyError])
def test_verify_unwraps_only_a_route_mismatch(capsys, monkeypatch, exc):
    # a plain AssertionError, the base of RouteMismatchError, is an error as
    # any other exception is: it carries no Mismatch
    def fault(ctx):
        raise exc("internal fault")

    monkeypatch.setattr(checks, "CHECKS", checks.CHECKS + (("banded", fault, None),))
    code, entry = _verify_check(capsys, "banded", "fault")
    assert code == 3
    assert entry == {"suite": "banded", "name": "fault", "ok": False,
                     "error": f"{exc.__name__}: {exc('internal fault')}"}


def _verify_check(capsys, suite, name):
    """Exit code of `lagtp verify suite` and the report entry of one check."""
    code, out, _ = run(capsys, ["verify", suite])
    return code, {c["name"]: c for c in json.loads(out)["checks"]}[name]


def _plant_m2_formula(monkeypatch):
    """The explicit m = 2 formulas of ``prodmat_smj``, wrong by ``bug`` at (2, 1)."""
    real, bug = srpaths._p2_explicit, Poly.var("bug")
    monkeypatch.setattr(srpaths, "_p2_explicit", lambda coeffs, j, n, k: real(coeffs, j, n, k)
                        + (bug if (n, k) == (2, 1) else 0))
    return real, bug


def test_verify_witness_names_the_entry_of_a_failed_m2_cross_check(capsys, monkeypatch):
    _, bug = _plant_m2_formula(monkeypatch)
    code, entry = _verify_check(capsys, "srpaths", "smj_output_matches_triangle")
    assert code == 1 and entry["ok"] is False and "error" not in entry
    witness = entry["witness"]
    assert witness["what"] == "bidiagonal product and explicit m=2 formula"
    assert witness["where"] == [2, 1]
    got, want = (Poly.from_json_obj(witness[key]) for key in ("got", "want"))
    assert want - got == bug


def test_verify_witness_names_the_entry_of_a_first_mv_matrix_that_is_not_homogeneous(
        capsys, monkeypatch):
    # the first_mv oracle entry (3, 1) one degree too high in the edge
    # weights: the builder's cross-check against the Riordan route sees it
    real = digraphs.oracle_entry

    def planted(n, k, weights, mode):
        value = real(n, k, weights, mode)
        return value * weights["v_minus"] if (n, k, mode) == (3, 1, "first_mv") else value

    monkeypatch.setattr(digraphs, "oracle_entry", planted)
    code, entry = _verify_check(capsys, "multivariate", "first_mv_uniform_scaling")
    assert code == 1 and entry["ok"] is False and "error" not in entry
    witness = entry["witness"]
    assert witness["what"] == "Riordan route and digraph oracle"
    assert witness["where"] == [3, 1]
    got, want = (Poly.from_json_obj(witness[key]) for key in ("got", "want"))
    assert want == got * Poly.var("v")


def test_verify_reports_a_first_mv_count_table_with_an_extra_edge(capsys, plant_count):
    # one digraph of the (3, 1) table counted with a third edge, a decreasing one
    # (a path peak counted as a double descent): each check that builds the
    # first_mv matrix fails, under numeric weights too
    plant_count(3, 1, "ddpa", less="ppa")
    code, out, _ = run(capsys, ["verify", "multivariate"])
    entries = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1
    for name in ("first_mv_stirling_identities", "first_mv_uniform_scaling",
                 "first_mv_rooks_decreasing"):
        entry = entries[name]
        assert entry["ok"] is False and "error" not in entry
        assert entry["witness"] == {"what": "edges per digraph in the first_mv count table",
                                    "where": [3, 1], "got": [2, 3], "want": [2]}


def test_oracle_reports_a_count_table_with_an_extra_edge(capsys, plant_count):
    plant_count(3, 1, "ddpa", less="ppa")
    mismatch = Mismatch("edges per digraph in the first_mv count table", (3, 1), [2, 3], [2])
    assert run(capsys, ["oracle", "first-mv", "--n", "3", "--k", "1"]) == (
        1, "", f"error: {mismatch}\n")


def test_verify_reports_a_second_mv_count_table_with_an_extra_vertex_kind(capsys, plant_count):
    # one digraph of the (2, 1) table counted with a third vertex, a cycle peak
    plant_count(2, 1, "pcyc")
    code, entry = _verify_check(capsys, "multivariate", "second_mv_riordan_vs_oracle")
    assert code == 1 and entry["ok"] is False and "error" not in entry
    assert entry["witness"] == {
        "what": "vertex kinds per digraph in the second_mv_general count table",
        "where": [2, 1], "got": [2, 3], "want": [2]}


def test_verify_compares_row_7_of_the_oracle(capsys, plant_count):
    # one digraph of the (7, 3) table counted with a path valley for a path
    # peak: its kinds still sum to 7, but its first_mv edges do not, and the
    # flat second_mv cross-check, which reaches row 7, cannot divide its entry
    plant_count(7, 3, "vpa", less="ppa")
    code, out, _ = run(capsys, ["verify", "multivariate"])
    entries = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1
    assert [name for name, c in entries.items() if not c["ok"]] == [
        "first_mv_stirling_identities", "first_mv_rooks_decreasing", "second_mv_riordan_vs_oracle"]
    for name in ("first_mv_stirling_identities", "first_mv_rooks_decreasing"):
        assert entries[name]["witness"] == {"what": "edges per digraph in the first_mv count table",
                                            "where": [7, 3], "got": [4, 6], "want": [4]}
    entry = entries["second_mv_riordan_vs_oracle"]
    assert "error" not in entry and entry["witness"]["where"] == [7, 3]


def test_the_checks_ask_the_oracle_every_row_they_cross_check(monkeypatch):
    reached = {}
    real = digraphs.oracle_entry

    def spy(n, k, weights, mode):
        reached[mode] = max(reached.get(mode, n), n)
        return real(n, k, weights, mode)

    monkeypatch.setattr(digraphs, "oracle_entry", spy)
    assert all(r[2] for r in checks.run_suite("all"))
    assert reached == {"first_mv": 7, "second_mv_general": 7, "second_mv": 5}


def test_verify_witness_names_an_oracle_entry_that_y_p_k_does_not_divide(capsys, monkeypatch):
    # the second_mv oracle entry (2, 1) plus 1, which y_p does not divide
    real = digraphs.oracle_entry

    def planted(n, k, weights, mode):
        return real(n, k, weights, mode) + ((n, k, mode) == (2, 1, "second_mv"))

    monkeypatch.setattr(digraphs, "oracle_entry", planted)
    code, entry = _verify_check(capsys, "multivariate", "second_mv_peak_divisibility")
    assert code == 1 and entry["ok"] is False and "error" not in entry
    witness = entry["witness"]
    assert witness["what"] == "oracle entries vs flat Riordan route * y_p^k"
    assert witness["where"] == [2, 1]
    got, want = (Poly.from_json_obj(witness[key]) for key in ("got", "want"))
    assert got - want == Poly.one()


def test_gen_reports_a_failed_cross_check_without_a_traceback(capsys, monkeypatch):
    real, bug = _plant_m2_formula(monkeypatch)
    code, out, err = run(capsys, ["gen", "smj", "--m", "2", "--n", "4"])
    coeffs = srpaths.SRCoeffs.symbolic(2)
    mismatch = Mismatch("bidiagonal product and explicit m=2 formula", (2, 1),
                        sfraction_word(coeffs.alpha, 2, 0).truncate(4)[2, 1],
                        real(coeffs, 0, 2, 1) + bug)
    assert (code, out, err) == (1, "", f"error: {mismatch}\n")


def test_verify_witness_names_the_entry_of_a_matrix_mismatch(capsys, monkeypatch):
    # a coefficient matrix wrong at (3, 1) alone
    real, bug = checks.coeff_matrix_uni, Poly.var("bug")

    def planted(params, n):
        m = real(params, n)
        return Truncation.from_fn(n, n, lambda i, k: m[i, k] + (bug if (i, k) == (3, 1) else 0))

    monkeypatch.setattr(checks, "coeff_matrix_uni", planted)
    code, entry = _verify_check(capsys, "univariate", "tridiagonal_output_is_coeff_matrix")
    assert code == 1 and entry["ok"] is False and "error" not in entry
    witness = entry["witness"]
    assert witness["where"] == [3, 1]
    got, want = (Poly.from_json_obj(witness[key]) for key in ("got", "want"))
    assert want - got == bug


def test_verify_witness_names_the_failing_minor_of_a_tp_check(capsys, monkeypatch):
    # the Hankel matrix with a zero at (1, 1): its leading 2x2 minor is -h_1^2
    hankel = checks._univariate_hankel()
    planted = Truncation.from_fn(5, 5, lambda i, k: 0 if (i, k) == (1, 1) else hankel[i, k])
    monkeypatch.setattr(checks, "_univariate_hankel", lambda: planted)
    code, entry = _verify_check(capsys, "univariate", "univariate_hankel_tp")
    assert code == 1 and entry["ok"] is False and "error" not in entry
    report = entry["witness"]
    assert report["ok"] is False and report["mode"] == "symbolic"
    assert (report["witness"]["rows"], report["witness"]["cols"]) == ([0, 1], [0, 1])
    assert Poly.from_json_obj(report["witness"]["minor"]) == -(hankel[0, 1] ** 2)


def test_verify_witness_names_which_of_several_scanned_matrices_failed(capsys, monkeypatch):
    # modified_hankel_tp scans the Hankels of j = 0, 1, 2; the third gets a zero at (1, 1)
    real, built = checks.hankel_truncation, []

    def planted(seq, n):
        h = real(seq, n)
        built.append(h)
        return h if len(built) < 3 else Truncation.from_fn(
            n, n, lambda i, k: 0 if (i, k) == (1, 1) else h[i, k])

    monkeypatch.setattr(checks, "hankel_truncation", planted)
    code, entry = _verify_check(capsys, "srpaths", "modified_hankel_tp")
    assert code == 1 and entry["ok"] is False and "error" not in entry
    report = entry["witness"]
    assert report["what"] == "type-2 modified Hankel, 4x4"
    assert (report["witness"]["rows"], report["witness"]["cols"]) == ([0, 1], [0, 1])
    assert Poly.from_json_obj(report["witness"]["minor"]) == -(built[2][0, 1] ** 2)


def test_verify_witness_names_the_spec_whose_band_disagrees_with_the_degree_test(capsys,
                                                                                monkeypatch):
    # every conjugate gets a 1 at (n-1, 0), so its lower bandwidth is n - 1 = 8
    real = checks.conjugate_by_binomial

    def planted(p, xi, n):
        conj = real(p, xi, n)
        return Truncation.from_fn(n, n, lambda i, k: 1 if (i, k) == (n - 1, 0) else conj[i, k])

    monkeypatch.setattr(checks, "conjugate_by_binomial", planted)
    code, entry = _verify_check(capsys, "banded", "banded_random_agreement")
    assert code == 1 and entry["ok"] is False and "error" not in entry
    # the first spec of the default seed that passes the degree test is the one reported
    rng = XorShift64(42)
    spec = next(s for s in (random_spec(rng) for _ in range(20)) if check_banded_criterion(s))
    assert entry["witness"] == {
        "what": f"conjugate of {spec} (lower bandwidth 8) vs degree test: "
                f"[bandwidth <= {spec.r}, condition (b)]",
        "where": 0, "got": False, "want": True}
    assert f"conjugate of spec r={spec.r}, f_-1..f_{spec.r} by coefficients in n: [" in \
        entry["witness"]["what"]


def test_verify_witness_names_the_index_of_a_sequence_mismatch(capsys, monkeypatch):
    # L_5 wrong by one term
    real, bug = checks.monic_laguerre, Poly.var("bug")
    monkeypatch.setattr(checks, "monic_laguerre",
                        lambda n, params, x: real(n, params, x) + (bug if n == 5 else 0))
    code, entry = _verify_check(capsys, "multivariate", "laguerre_egf_check")
    assert code == 1 and entry["ok"] is False and "error" not in entry
    witness = entry["witness"]
    assert witness["where"] == 5
    got, want = (Poly.from_json_obj(witness[key]) for key in ("got", "want"))
    assert want - got == bug


def test_verify_witness_names_the_entry_of_a_second_mv_matrix_that_is_not_homogeneous(
        capsys, monkeypatch):
    # a stray degree-1 term y_p at (3, 1) of the flat matrix, whose entries there have degree 2
    real = checks.coeff_matrix_second_mv

    def planted(params, w, n, flat=False, oracle_rows=None):
        m = real(params, w, n, flat=flat, oracle_rows=oracle_rows)
        return Truncation.from_fn(
            n, n, lambda i, k: m[i, k] + (w.y_p if flat and (i, k) == (3, 1) else 0))

    monkeypatch.setattr(checks, "coeff_matrix_second_mv", planted)
    code, entry = _verify_check(capsys, "multivariate", "second_mv_homogeneity")
    assert code == 1 and entry["ok"] is False and "error" not in entry
    assert entry["witness"] == {"what": "vertex-weight degrees of the flat entries",
                                "where": [3, 1], "got": [1, 2], "want": [2]}


def test_verify_witness_names_the_m_whose_hankel_shows_no_tp2_failure(capsys, monkeypatch):
    real = srpaths.find_hankel_tp2_failure
    monkeypatch.setattr(srpaths, "find_hankel_tp2_failure", lambda m: None if m == 2 else real(m))
    code, entry = _verify_check(capsys, "srpaths", "hankel_tp2_failure_beyond_type_m")
    assert code == 1 and entry["ok"] is False and "error" not in entry
    assert entry["witness"] == {
        "what": "negative 2x2 minor found in the type-(m+1) Hankel matrix, by m",
        "where": 2, "got": False, "want": True}


def test_verify_witness_names_an_inadmissible_cell_that_was_accepted(capsys, monkeypatch):
    monkeypatch.setattr(srpaths, "ADMISSIBLE_CELLS", srpaths.ADMISSIBLE_CELLS + ((0, 1),))
    code, entry = _verify_check(capsys, "srpaths", "inadmissible_cells_rejected")
    assert code == 1 and entry["ok"] is False and "error" not in entry
    assert entry["witness"] == {"what": "InadmissibleCellError raised, by cell (j, alpha)",
                                "where": [0, 1], "got": False, "want": True}


def test_verify_witness_names_a_tp_scan_that_passes_the_negative_control(capsys, monkeypatch):
    monkeypatch.setattr(checks, "tp_check_symbolic",
                        lambda m, order: TPReport(True, order, "symbolic", 0))
    code, entry = _verify_check(capsys, "riordan", "tp_negative_control")
    assert code == 1 and entry["ok"] is False and "error" not in entry
    assert entry["witness"] == {"what": "TP2 scan of [[1,2],[3,1]]: [ok, witness minor]",
                                "where": 0, "got": True, "want": False}


def test_negative_control_fails_when_the_sampled_scan_stops_at_order_1(monkeypatch):
    # the planted PFlat block has no negative entry, so a scan cut to 1 x 1
    # minors passes it and the control must report that
    real = checks.tp_check_sampled
    monkeypatch.setattr(checks, "tp_check_sampled", lambda m, order, **kw: real(m, 1, **kw))
    outcome = checks.tp_negative_control(checks.Ctx())
    assert not outcome
    assert outcome.what.startswith("sampled TP4 scan of the planted PFlat block")
    assert (outcome.where, outcome.got, outcome.want) == (0, True, False)


@pytest.mark.parametrize("mutant", ["lane-0-only", "last-block-dropped"])
def test_negative_control_catches_a_lane_scan_that_skips_lanes_or_blocks(mutant, monkeypatch):
    # the planted PFlat block fails in lane 0 outside the last column block,
    # so only the second sampled control sees these two mutants
    assert checks.tp_negative_control(checks.Ctx())
    real = matrices._first_negative_lane
    if mutant == "lane-0-only":
        scan = lambda grid, order: real([[e[:1] for e in row] for row in grid], order)
    else:
        scan = lambda grid, order: real([row[:-1] for row in grid], order)
    monkeypatch.setattr(matrices, "_first_negative_lane", scan)
    outcome = checks.tp_negative_control(checks.Ctx())
    assert not outcome
    assert outcome.what.startswith("sampled TP2 scan of [[1,1],[1,2+x(x-1)(x-3)]]")


@pytest.mark.parametrize("mutant", ["last-pair-dropped", "first-coefficient-only"])
def test_negative_control_catches_a_sparse_scan_that_drops_terms_or_signs(mutant, monkeypatch):
    # the planted band is scanned on the sparse plan and first fails at a
    # 3 x 3 minor whose negative term is not its first coefficient
    assert checks.tp_negative_control(checks.Ctx())
    if mutant == "last-pair-dropped":
        real = matrices._terms_dot
        monkeypatch.setattr(matrices, "_terms_dot", lambda pairs: real(list(pairs)[:-1]))
    else:
        monkeypatch.setattr(matrices, "_terms_nonneg",
                            lambda minor: next(iter(minor.values()), 0) >= 0)
    outcome = checks.tp_negative_control(checks.Ctx())
    assert not outcome and isinstance(outcome, Mismatch)
    assert outcome.what.startswith("TP3 scan of the u_i v_k band beside w_i")
    assert (outcome.where, outcome.got) == (0, True)


def test_verify_max_n(capsys):
    code, out, _ = run(capsys, ["verify", "srpaths", "--max-n", "5"])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_oracle_second_mv(capsys):
    code, out, _ = run(capsys, ["oracle", "second-mv", "--n", "1", "--k", "1",
                                "--format", "str"])
    assert code == 0
    assert out.strip() == "yp"


def test_oracle_cyclic_json(capsys):
    code, out, _ = run(capsys, ["oracle", "cyclic", "--n", "1"])
    assert code == 0
    assert Poly.from_json_obj(json.loads(out)) == Poly.var("lam") * Poly.var("yfp")


def test_oracle_sr_path(capsys):
    code, out, _ = run(capsys, ["oracle", "sr-path", "--m", "2", "--j", "0",
                                "--n", "1", "--k", "0", "--format", "str"])
    assert code == 0
    assert out.strip() == "al2"


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_malformed_limit_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("LAGTP_LIMIT", value)
    code, out, err = run(capsys, ["oracle", "first-mv", "--n", "3", "--k", "1"])
    assert (code, out) == (2, "")
    assert "LAGTP_LIMIT" in err


def test_second_mv_cross_check_follows_a_lowered_oracle_cap(capsys, monkeypatch):
    # the oracle cross-checks as many rows as LAGTP_LIMIT lets it; the
    # Riordan route builds the rest without it
    argv = ["gen", "second-mv", "--n", "5", "--flat"]
    code, want, _ = run(capsys, argv)
    assert code == 0
    monkeypatch.setenv("LAGTP_LIMIT", "3")
    assert run(capsys, argv) == (0, want, "")


def test_the_default_digraph_cap_passes_the_path_oracle_checks(capsys, monkeypatch):
    # LAGTP_LIMIT caps digraph vertices; the 10-step walks stay allowed
    monkeypatch.setenv("LAGTP_LIMIT", "9")
    code, out, _ = run(capsys, ["verify", "srpaths"])
    assert code == 0
    checks_run = json.loads(out)["checks"]
    assert checks_run and all(c["ok"] and "error" not in c for c in checks_run)


@pytest.mark.parametrize("value", ["0", "3", "6"])
def test_a_lower_digraph_cap_checks_fewer_rows_and_refuses_no_check(capsys, monkeypatch, value):
    monkeypatch.setenv("LAGTP_LIMIT", value)
    code, out, _ = run(capsys, ["verify", "multivariate"])
    assert code == 0
    checks_run = json.loads(out)["checks"]
    assert checks_run and all(c["ok"] and "error" not in c for c in checks_run)


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_verify_with_malformed_limit_exits_2_before_any_check(capsys, monkeypatch, value):
    monkeypatch.setenv("LAGTP_LIMIT", value)
    ran = []
    monkeypatch.setattr(checks, "run_suite", lambda *a: ran.append(a) or [])
    code, out, err = run(capsys, ["verify", "multivariate"])
    assert (code, out, ran) == (2, "", [])
    assert "LAGTP_LIMIT" in err


@pytest.mark.parametrize("kind", ["first-mv", "second-mv", "second-mv-general",
                                  "cyclic", "linear00", "sr-path"])
def test_oracle_negative_n_exits_2(capsys, kind):
    code, out, err = run(capsys, ["oracle", kind, "--n", "-2"])
    assert (code, out) == (2, "")
    assert "--n" in err


def test_oracle_k_beyond_n_is_zero(capsys):
    code, out, _ = run(capsys, ["oracle", "first-mv", "--n", "2", "--k", "5"])
    assert code == 0
    assert Poly.from_json_obj(json.loads(out)).is_zero()


@pytest.mark.parametrize("argv", [
    ["--family", "j1a0", "--kappa", "abc"],   # a cell without kappa
    ["--family", "j2a0", "--kappa", "1/2"],
    ["--kappa", "1/2"],                       # no --family
])
def test_gen_smj_kappa_without_kappa_cell_exits_2(capsys, argv):
    code, out, err = run(capsys, ["gen", "smj"] + argv)
    assert (code, out) == (2, "")
    assert "--kappa" in err


@pytest.mark.parametrize("argv", [["--m", "0"], ["--m", "-1"], ["--j", "5"], ["--j", "-1"],
                                  ["--m", "1", "--j", "2"]])
def test_gen_smj_bad_order_or_type_exits_2(capsys, argv):
    code, out, err = run(capsys, ["gen", "smj"] + argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [["--m", "0"], ["--m", "-1"], ["--j", "-1"]])
def test_oracle_sr_path_bad_order_or_type_exits_2(capsys, argv):
    code, out, err = run(capsys, ["oracle", "sr-path", "--n", "2"] + argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_oracle_sr_path_k_below_zero_is_zero(capsys):
    # type 3 > m = 2 has paths to height (m+1)k + j = 0 at k = -1: no entry
    code, out, _ = run(capsys, ["oracle", "sr-path", "--m", "2", "--j", "3", "--n", "0",
                                "--k", "-1", "--format", "str"])
    assert (code, out) == (0, "0\n")


def test_oracle_sr_path_type_beyond_m_runs(capsys):
    # types j > m are defined (the submatrix identity); only j < 0 is refused
    code, out, _ = run(capsys, ["oracle", "sr-path", "--m", "1", "--j", "3", "--n", "1",
                                "--format", "str"])
    assert code == 0
    assert out.strip() == "al1+al2+al3+al4"


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_verify_max_n_below_one_exits_2(capsys, max_n):
    code, out, err = run(capsys, ["verify", "univariate", "--max-n", max_n])
    assert (code, out) == (2, "")
    assert "--max-n" in err


def test_verify_all_at_max_n_one_passes(capsys):
    code, out, _ = run(capsys, ["verify", "all", "--max-n", "1"])
    assert code == 0
    assert json.loads(out)["ok"] is True
