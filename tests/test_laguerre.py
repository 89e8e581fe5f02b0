import json
import math
from dataclasses import replace
from fractions import Fraction

import pytest

from lagtp import checks, cli, digraphs, laguerre, matrices, polyring
from lagtp.checks import Ctx
from lagtp.laguerre import (EdgeWeights, LaguerreParams, RouteMismatchError,
                            VertexWeights, binomial_rowgen_matrix, coeff_matrix_first_mv,
                            coeff_matrix_second_mv, coeff_matrix_uni,
                            monic_laguerre, monic_laguerre_reversed, prodmat,
                            rowgen_shifted_family_check, rowgen_polys)
from lagtp.matrices import (TPWitness, Truncation, conjugate_by_binomial, hankel_truncation,
                            output_matrix, production_of, tp_check_symbolic)
from lagtp.polyring import Poly, rising
from lagtp.series import solve_logderiv, solve_riccati

x = Poly.var("x")
a = Poly.var("a")
SYM = LaguerreParams.symbolic()
ROOK = LaguerreParams.of(0)
LAH = LaguerreParams.of(-1)


def test_monic_laguerre_small():
    assert monic_laguerre(0, SYM, x) == Poly.one()
    assert monic_laguerre(1, SYM, x) == (1 + a) + x
    assert monic_laguerre(2, SYM, x) == (1 + a) * (2 + a) + 2 * (2 + a) * x + x ** 2
    assert monic_laguerre(3, SYM, x) == ((1 + a) * (2 + a) * (3 + a)
                                         + 3 * (2 + a) * (3 + a) * x
                                         + 3 * (3 + a) * x ** 2 + x ** 3)


def test_reversed_rook_polynomials():
    want = [Poly.one(), 1 + x, 1 + 4 * x + 2 * x ** 2,
            1 + 9 * x + 18 * x ** 2 + 6 * x ** 3,
            1 + 16 * x + 72 * x ** 2 + 96 * x ** 3 + 24 * x ** 4]
    for n in range(5):
        assert monic_laguerre_reversed(n, ROOK, x) == want[n]


def test_lah_polynomials():
    want = [Poly.one(), x, 2 * x + x ** 2, 6 * x + 6 * x ** 2 + x ** 3,
            24 * x + 36 * x ** 2 + 12 * x ** 3 + x ** 4]
    for n in range(5):
        assert monic_laguerre(n, LAH, x) == want[n]


def test_coeff_matrix_entries():
    m = coeff_matrix_uni(SYM, 5)
    assert m[3, 1] == 3 * (2 + a) * (3 + a)
    assert all(m[n, n] == Poly.one() for n in range(5))
    lah = coeff_matrix_uni(LAH, 5)
    assert all(lah[n, 0].is_zero() for n in range(1, 5))


def test_prodmat_rows():
    pcirc = prodmat(SYM, "Pcirc")
    assert [pcirc(2, k) for k in (1, 2, 3)] == [2 * (2 + a), 5 + a, Poly.one()]
    p = prodmat(SYM, "P", x=x)
    assert p(2, 0) == 2 * x
    w = VertexWeights.symbolic()
    pflat = prodmat(SYM, "PFlat", weights=w, x=x)
    assert pflat(1, 0) == (1 + a) * w.y_p * w.y_v + (w.y_da + w.y_dd) * x


def test_symbolic_weights_use_the_default_variable_names():
    seen = set()
    for w in (EdgeWeights.symbolic(), VertexWeights.symbolic(with_z=True)):
        got = w.oracle_weights(Poly.var("lam"))
        assert got == {k: Poly.var(digraphs.DEFAULT_VAR_NAMES[k]) for k in got}
        seen |= set(got)
    assert seen == set(digraphs.DEFAULT_VAR_NAMES)
    assert VertexWeights.symbolic() == replace(VertexWeights.symbolic(with_z=True), z_p=None,
                                               z_v=None, z_da=None, z_dd=None)


def test_params_take_exact_values_and_refuse_a_float():
    half = LaguerreParams(Poly.const(Fraction(1, 2)))
    assert LaguerreParams.of("1/2") == LaguerreParams.of(Fraction(1, 2)) == half
    assert LaguerreParams.of(2).alpha == 2 and LaguerreParams.of(a).alpha == a
    with pytest.raises(TypeError, match="float"):
        LaguerreParams.of(0.5)


def test_prodmat_unknown_variant():
    with pytest.raises(ValueError):
        prodmat(SYM, "Pbogus")


def test_quadridiagonal_output_and_shifted_families():
    n = 8
    got = output_matrix(prodmat(SYM, "P", x=x), n)
    assert got == binomial_rowgen_matrix(coeff_matrix_uni(SYM, n), x)
    assert rowgen_shifted_family_check(SYM, n, x)
    # zeroth column of the row-generating output = the monic polynomials
    col = output_matrix(prodmat(SYM, "P", x=x), 9, 1)
    for i in range(9):
        assert col[i, 0] == monic_laguerre(i, SYM, x)


def test_rowgen_shifted_family_spot_entry():
    lb = binomial_rowgen_matrix(coeff_matrix_uni(SYM, 4), x)
    shifted = LaguerreParams(a + 1)
    assert lb[3, 1] == 3 * monic_laguerre(2, shifted, x)


def test_rowgen_polys():
    assert rowgen_polys(coeff_matrix_uni(LAH, 4), x)[3] == 6 * x + 6 * x ** 2 + x ** 3
    rev = rowgen_polys(coeff_matrix_uni(ROOK, 3), x, reversed_form=True)
    assert rev[2] == 1 + 4 * x + 2 * x ** 2


ALPHAS = [SYM, ROOK, LAH, LaguerreParams.of(Fraction(3, 2))]


def _coeff_reference(params, n, k):
    """Test-only closed form C(n,k) (1+alpha+k)^{rising n-k}, one rising
    factorial per entry."""
    return rising(params.alpha + (k + 1), n - k) * math.comb(n, k)


@pytest.mark.parametrize("params", ALPHAS, ids=["sym", "0", "-1", "3/2"])
def test_coeff_matrix_uni_matches_rising_closed_form(params):
    for n in (0, 1, 2, 7):
        want = Truncation.from_fn(
            n, n, lambda i, k: _coeff_reference(params, i, k) if k <= i else 0)
        assert coeff_matrix_uni(params, n) == want


@pytest.mark.parametrize("params", ALPHAS, ids=["sym", "0", "-1", "3/2"])
@pytest.mark.parametrize("xv", [x, x + a, Fraction(1, 2) * x])
def test_laguerre_polynomials_match_per_term_formula(params, xv):
    for n in range(7):
        terms = [(_coeff_reference(params, n, k), k) for k in range(n + 1)]
        assert monic_laguerre(n, params, xv) == sum((c * xv ** k for c, k in terms),
                                                    Poly.zero())
        assert monic_laguerre_reversed(n, params, xv) == sum(
            (c * xv ** (n - k) for c, k in terms), Poly.zero())


@pytest.mark.parametrize("reversed_form", [False, True])
def test_rowgen_polys_match_per_term_formula(reversed_form):
    m = Truncation.from_fn(5, 3, lambda i, k: Poly.var(f"m{i}{k}"))
    got = rowgen_polys(m, x + 1, reversed_form)
    for i in range(5):
        want = sum((m[i, k] * (x + 1) ** (i - k if reversed_form else k)
                    for k in range(min(i, 2) + 1)), Poly.zero())
        assert got[i] == want
    assert rowgen_polys(coeff_matrix_uni(SYM, 6), x) == [monic_laguerre(i, SYM, x)
                                                       for i in range(6)]


def test_first_mv_stirling_examples():
    m = coeff_matrix_first_mv(ROOK, EdgeWeights(Poly.one(), Poly.zero(), Poly.zero()), 5)
    assert m[4, 2] == Poly.const(7)  # S(4,2)
    m2 = coeff_matrix_first_mv(ROOK, EdgeWeights(Poly.one(), Poly.one(), Poly.zero()), 4)
    assert m2[3, 1] == Poly.const(7)  # S(4,2) again via the shifted triangle


def test_first_mv_uniform_scaling_entry():
    v = Poly.var("v")
    m = coeff_matrix_first_mv(SYM, EdgeWeights(v, v, v), 4)
    uni = coeff_matrix_uni(SYM, 4)
    assert m[3, 1] == uni[3, 1] * v ** 2


@pytest.mark.parametrize("value", [Poly.var("vm") + 1, Poly.var("vm") ** 2, a],
                         ids=["vm+1", "vm^2", "alpha-variable"])
def test_first_mv_takes_any_edge_weight(value):
    """Weights other than distinct bare edge variables (the last one is
    alpha's own variable) give the generic matrix with vm substituted."""
    generic = EdgeWeights.symbolic()
    got = coeff_matrix_first_mv(SYM, EdgeWeights(value, generic.v_zero, generic.v_plus), 5)
    want = coeff_matrix_first_mv(SYM, generic, 5)
    assert got == Truncation.from_fn(5, 5, lambda i, k: want[i, k].substitute({"vm": value}))


def test_second_mv_small_entries():
    w = VertexWeights.symbolic()
    full = coeff_matrix_second_mv(SYM, w, 3, flat=False)
    assert full[1, 0] == (1 + a) * w.y_fp
    assert full[1, 1] == w.y_p
    flat = coeff_matrix_second_mv(SYM, w, 3, flat=True)
    assert flat[1, 1] == Poly.one()


def test_second_mv_matrix_kernel_call_count(monkeypatch):
    # a guard against per-operation overhead creeping back: the 9 x 9 matrix
    # takes 400 kernel calls, 381 products (416 while the zero entries above
    # the diagonal of the Riordan array were scaled by n!/k! too) plus the 19
    # sums of two nonzero Polys, which go through the kernel as well
    calls = []
    mul_into = polyring._mul_into
    monkeypatch.setattr(polyring, "_mul_into", lambda *args: calls.append(1) or mul_into(*args))
    coeff_matrix_second_mv(SYM, VertexWeights.symbolic(), 9)
    assert len(calls) == 400


@pytest.mark.parametrize("flat", [False, True])
def test_second_mv_cross_check_builds_no_entry_from_a_number(monkeypatch, flat):
    # the oracle side of the cross-check answers Polys, the zeros above the
    # diagonal included, so Truncation coerces none of its entries
    coerced = []
    coerce = matrices._p
    monkeypatch.setattr(matrices, "_p", lambda x: coerced.append(x) or coerce(x))
    coeff_matrix_second_mv(SYM, VertexWeights.symbolic(with_z=True), 6, flat=flat)
    assert [x for x in coerced if not isinstance(x, Poly)] == []


@pytest.mark.parametrize("w", [VertexWeights.symbolic(), VertexWeights.symbolic(with_z=True)],
                         ids=["y", "z"])
@pytest.mark.parametrize("flat", [False, True])
def test_second_mv_matrix_of_size_zero_is_empty(w, flat):
    # as the univariate matrix: the pair is asked for to order 0, not -1
    assert coeff_matrix_second_mv(SYM, w, 0, flat=flat) == Truncation([]) == coeff_matrix_uni(SYM, 0)


def test_flat_conjugation():
    w = VertexWeights.symbolic()
    conj = conjugate_by_binomial(prodmat(SYM, "PcircFlat", weights=w), x, 6)
    assert conj == prodmat(SYM, "PFlat", weights=w, x=x).truncate(6)


def _sabotage_oracle_at_2_1(monkeypatch):
    # the second multivariate oracle (the Riordan route's cross-check) only
    real = digraphs.oracle_entry

    def lying(n, k, weights, mode):
        value = real(n, k, weights, mode)
        return value + weights["z_p"] if (n, k, mode) == (2, 1, "second_mv_general") else value

    monkeypatch.setattr(laguerre.digraphs, "oracle_entry", lying)


def test_route_mismatch_raises(monkeypatch):
    # sabotage the oracle: the constructor must notice the disagreement, and
    # run_suite reports it as a failed check with its witness, not as an error
    _sabotage_oracle_at_2_1(monkeypatch)
    with pytest.raises(RouteMismatchError):
        coeff_matrix_second_mv(SYM, VertexWeights.symbolic(), 4, flat=True)
    results = {r[1]: r for r in checks.run_suite("multivariate", Ctx(max_n=4))}
    _, _, ok, _, error, witness = results["second_mv_riordan_vs_oracle"]
    assert not ok and error is None and witness["where"] == (2, 1)
    got, want = (Poly.from_json_obj(witness[key]) for key in ("got", "want"))
    assert want - got == Poly.one()  # the planted z_p, over z_p^k


def test_verify_reports_a_sabotaged_oracle_in_a_check_that_builds_through_it(capsys,
                                                                             monkeypatch):
    # first_specializations compares the second matrix with the first; its
    # construction of the second one fails the oracle cross-check first
    _sabotage_oracle_at_2_1(monkeypatch)
    code = cli.main(["verify", "multivariate"])
    entry = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}[
        "first_specializations"]
    assert code == 1 and entry["ok"] is False and "error" not in entry
    witness = entry["witness"]
    assert witness["what"] == "Riordan route and digraph oracle" and witness["where"] == [2, 1]
    got, want = (Poly.from_json_obj(witness[key]) for key in ("got", "want"))
    assert want - got == Poly.var("vm")  # the planted z_p, which is y_p = v_- there


def test_route_mismatch_raises_under_a_lowered_oracle_cap(monkeypatch):
    # with LAGTP_LIMIT = 3 the default cross-check covers rows 0..2
    monkeypatch.setenv("LAGTP_LIMIT", "3")
    _sabotage_oracle_at_2_1(monkeypatch)
    with pytest.raises(RouteMismatchError):
        coeff_matrix_second_mv(SYM, VertexWeights.symbolic(), 5, flat=True)


def _oracle_matrix(n, weights, mode, divisor=None):
    def entry(i, k):
        if k > i:
            return Poly.zero()
        value = digraphs.oracle_entry(i, k, weights, mode)
        return value.exact_div(divisor ** k) if divisor is not None else value
    return Truncation.from_fn(n, n, entry)


@pytest.mark.parametrize("name", ["a", "alpha"])
def test_a_rational_alpha_is_substituted_through_a_name_no_weight_uses(name):
    # y_p named like alpha's own variable, or like the first name the route
    # tries: substituting alpha through it would rewrite y_p too, and with
    # oracle_rows=0 nothing inside the builder would notice
    yp = Poly.var(name)
    w = replace(VertexWeights.symbolic(), y_p=yp)
    half = LaguerreParams.of(Fraction(1, 2))
    got = coeff_matrix_second_mv(half, w, 5, flat=True, oracle_rows=0)
    assert got == _oracle_matrix(5, w.oracle_weights(half.lam), "second_mv_general", yp)


def test_first_mv_at_a_rational_alpha_equals_the_oracle():
    params, w = LaguerreParams.of(Fraction(7, 3)), EdgeWeights.symbolic()
    got = coeff_matrix_first_mv(params, w, 7)
    assert got == _oracle_matrix(7, w.oracle_weights(params.lam), "first_mv")
    assert got[1, 0] == Fraction(10, 3) * w.v_zero


@pytest.mark.parametrize("alpha", ["-1", "4/2", "sym"])
def test_an_integral_alpha_is_built_without_substitution(monkeypatch, alpha):
    calls = []
    substitute = Poly.substitute
    monkeypatch.setattr(Poly, "substitute",
                        lambda self, env: calls.append(env) or substitute(self, env))
    params = cli._parse_alpha(alpha)
    coeff_matrix_first_mv(params, EdgeWeights.symbolic(), 5)
    for flat in (False, True):
        coeff_matrix_second_mv(params, VertexWeights.symbolic(), 5, flat=flat)
    assert calls == []


INT_WEIGHTS = VertexWeights(*(Poly.const(c) for c in (2, 3, 1, 4, 5)))
WEIGHTED_KINDS = ("PcircFlat", "PFlat", "PcircY", "PY")


def _coefficient_matrix(params, which, w, n):
    if which in ("Pcirc", "P"):
        return coeff_matrix_uni(params, n)
    return coeff_matrix_second_mv(params, w, n, flat="Flat" in which, oracle_rows=0)


@pytest.mark.parametrize("params", [SYM, LaguerreParams.of(2)], ids=["sym", "2"])
@pytest.mark.parametrize("w", [VertexWeights.symbolic(), INT_WEIGHTS], ids=["sym", "int"])
@pytest.mark.parametrize("which", ["Pcirc", "P"] + list(WEIGHTED_KINDS))
def test_output_of_each_prodmat_is_its_coefficient_matrix(params, w, which):
    # O(P-circ) is the coefficient matrix; O(P) is that matrix times B_x
    n = 6
    want = _coefficient_matrix(params, which, w, n)
    if "circ" not in which:
        want = binomial_rowgen_matrix(want, x)
    assert output_matrix(prodmat(params, which, weights=w), n) == want


def test_coefficient_matrices_refuse_a_negative_size_before_any_work(monkeypatch):
    work = []
    for module, name in ((laguerre, "_laguerre_coeffs"), (laguerre, "riordan_pair"),
                         (digraphs, "oracle_entry")):
        monkeypatch.setattr(module, name, lambda *args: work.append(args))
    for make in (lambda: coeff_matrix_uni(SYM, -1),
                 lambda: coeff_matrix_first_mv(SYM, EdgeWeights.symbolic(), -1),
                 lambda: coeff_matrix_second_mv(SYM, VertexWeights.symbolic(), -1)):
        with pytest.raises(ValueError, match=r"^requested a -1x-1 block$"):
            make()
    assert work == []


def _prodmat_reference(params, which, w, x_value, n):
    """The n x n block of prodmat's old hand-written entry function, kept
    as a test oracle: each entry is built from the row index on every call."""
    w = laguerre.UNIT_WEIGHTS if which in ("Pcirc", "P") else w
    s, t = (Poly.one(), w.y_p * w.y_v) if which.endswith("Flat") else (w.y_p, w.y_v)
    fp, d = w.y_fp, w.y_da + w.y_dd
    quad = "circ" not in which
    xv = (x if x_value is None else Poly.const(x_value)) if quad else Poly.zero()
    al = params.alpha
    diag0, dx, tx = params.lam * fp + s * xv, d * xv, t * xv

    def fn(n, k):
        if k == n + 1:
            return s
        if k == n:
            return diag0 + d * n
        if k == n - 1:
            return t * ((al + n) * n) + dx * n
        if k == n - 2:
            return tx * (n * (n - 1))
        return 0

    return Truncation.from_fn(n, n, fn)


@pytest.mark.parametrize("params", [SYM, LaguerreParams.of(2)], ids=["sym", "2"])
@pytest.mark.parametrize("w", [VertexWeights.symbolic(), INT_WEIGHTS], ids=["sym", "int"])
@pytest.mark.parametrize("x_value", [None, 3], ids=["x", "x=3"])
@pytest.mark.parametrize("which", ["Pcirc", "P"] + list(WEIGHTED_KINDS))
def test_each_prodmat_matches_the_entry_function_reference(params, w, x_value, which):
    got = prodmat(params, which, weights=w, x=x_value)
    assert got.truncate(12) == _prodmat_reference(params, which, w, x_value, 12)


@pytest.mark.parametrize("which", WEIGHTED_KINDS)
def test_weighted_prodmat_needs_vertex_weights(which):
    with pytest.raises(ValueError, match="needs vertex weights"):
        prodmat(SYM, which)


# -- the Riordan pair of the five-variable family -------------------------------


def _reference_pair(params, w, order, flat):
    """The two-solve formulas: G from its own Riccati equation in the z
    weights, F from the y-block G_y = y_p H."""
    if flat:
        g = solve_riccati(Poly.one(), w.zda + w.zdd, w.zp * w.zv, order)
    else:
        g = solve_riccati(w.zp, w.zda + w.zdd, w.zv, order)
    g_y = solve_riccati(w.y_p, w.y_da + w.y_dd, w.y_v, order)
    return solve_logderiv([w.y_fp, w.y_v], g_y, params.lam, order), g


PAIR_PARAMS = {"sym": SYM, "int": LaguerreParams.of(2),
               "lam-1": LaguerreParams(Poly.var("lam") - 1)}
PAIR_WEIGHTS = {
    "sym": VertexWeights.symbolic(),
    "z-block": VertexWeights.symbolic(with_z=True),
    "unit": laguerre.UNIT_WEIGHTS,
    "edge": EdgeWeights.symbolic().vertex_weights(),
    "yp=0": replace(VertexWeights.symbolic(), y_p=Poly.zero()),
}


@pytest.mark.parametrize("flat", [False, True], ids=["full", "flat"])
@pytest.mark.parametrize("wname", sorted(PAIR_WEIGHTS))
@pytest.mark.parametrize("pname", sorted(PAIR_PARAMS))
def test_riordan_pair_matches_the_two_solve_formulas(pname, wname, flat):
    params, w = PAIR_PARAMS[pname], PAIR_WEIGHTS[wname]
    assert laguerre.riordan_pair(params, w, 6, flat) == _reference_pair(params, w, 6, flat)


def test_edge_vertex_weights_are_the_edge_specialization():
    vm, v0, vp = Poly.var("vm"), Poly.var("v0"), Poly.var("vp")
    assert (EdgeWeights(vm, v0, vp).vertex_weights()
            == VertexWeights(y_p=vm, y_v=vp, y_da=vp, y_dd=vm, y_fp=v0))


def _count_riccati_solves(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_riccati(*args)

    monkeypatch.setattr(laguerre, "solve_riccati", counted)
    return calls


@pytest.mark.parametrize("w,flat,solves", [
    (VertexWeights.symbolic(), False, 1),
    (VertexWeights.symbolic(), True, 1),
    (VertexWeights.symbolic(with_z=True), False, 2),
    (VertexWeights.symbolic(with_z=True), True, 2),
], ids=["full", "flat", "z-full", "z-flat"])
def test_second_mv_matrix_solves_each_riccati_equation_once(monkeypatch, w, flat, solves):
    calls = _count_riccati_solves(monkeypatch)
    coeff_matrix_second_mv(SYM, w, 6, flat=flat, oracle_rows=0)
    assert len(calls) == solves


def test_laguerre_egf_solves_one_riccati_equation(monkeypatch):
    calls = _count_riccati_solves(monkeypatch)
    laguerre.laguerre_rowgen_egf(SYM, x, 8)
    assert len(calls) == 1


# -- the paper's restrictions and the identities behind its two claims ----------


@pytest.mark.parametrize("weights,order,checked,witness", [
    # free weights: TP6 but not TP7, a failure no 6 x 6 or smaller scan sees
    ((2, 4, 1, 1, 5), 6, 12804, None),
    ((2, 4, 1, 1, 5), 7, 12861,
     TPWitness((1, 2, 3, 4, 5, 6, 7), (0, 1, 2, 3, 4, 5, 6), Poly.const(-268017664))),
    # the split point y_fp = y_p + 1, y_da = y_p + 2, y_dd = y_v + 1: TP at all orders
    ((1, 2, 3, 3, 2), 8, 12869, None),
], ids=["free-tp6", "free-not-tp7", "split-all-orders"])
def test_the_flat_triangle_at_integer_weights_needs_the_restriction(weights, order, checked,
                                                                    witness):
    w = VertexWeights(*map(Poly.const, weights))
    t = coeff_matrix_second_mv(LaguerreParams.of(3), w, 8, flat=True)
    report = tp_check_symbolic(t, order)
    assert (report.ok, report.checked, report.witness) == (witness is None, checked, witness)


def test_the_first_mv_matrix_is_the_output_of_an_lu_production_matrix():
    e = EdgeWeights.symbolic()
    vm, v0, vp = e.v_minus, e.v_zero, e.v_plus
    p = prodmat(SYM, "PcircFlat", weights=e.vertex_weights())
    assert output_matrix(p, 7) == coeff_matrix_first_mv(SYM, e, 7)
    # P = L U + (1+alpha)(v0 - v+) I, L unit lower bidiagonal with
    # subdiagonal n v-, U with diagonal (n+1+alpha) v+ and unit superdiagonal
    low = Truncation.from_fn(7, 7, lambda i, k: {i: 1, i - 1: vm * i}.get(k, 0))
    up = Truncation.from_fn(7, 7, lambda i, k: {i: vp * (i + 1 + a), i + 1: 1}.get(k, 0))
    assert p.truncate(7) == low * up + Truncation.identity(7).scale((1 + a) * (v0 - vp))


def test_hankel_of_the_five_weight_row_polynomials_factors_through_the_output_matrices():
    # H(O_0(P)) = O(P) O(P^T)^T on the five-weight quadridiagonal PFlat
    p, n = prodmat(SYM, "PFlat", weights=VertexWeights.symbolic()), 4
    col0 = [output_matrix(p, 2 * n - 1, 1)[i, 0] for i in range(2 * n - 1)]
    got = output_matrix(p, n) * output_matrix(lambda i, k: p(k, i), n, n).transpose()
    assert hankel_truncation(col0, n) == got


def _tp_summary(report):
    """(ok, minors checked, and the witness's rows and columns, or None)."""
    w = report.witness
    return report.ok, report.checked, w and (w.rows, w.cols)


def _row_polynomial_hankel(t):
    """The 4 x 4 Hankel of the row-generating polynomials in x of a 7-row t."""
    return hankel_truncation(rowgen_polys(t, x), 4)


_Y = VertexWeights.symbolic()
# the split restriction of the triangle claim, and the quad restriction of the
# flat quadridiagonal production matrix
SPLIT = replace(_Y, y_fp=_Y.y_p + Poly.var("u"), y_da=_Y.y_p + Poly.var("w1"),
                y_dd=_Y.y_v + Poly.var("w2"))
QUAD = replace(_Y, y_fp=_Y.y_p, y_da=_Y.y_p, y_dd=_Y.y_v + Poly.var("w"))


@pytest.mark.parametrize("flat", [False, True], ids=["full", "flat"])
def test_the_triangle_under_the_split_restriction_is_tp_at_all_orders(flat):
    t = coeff_matrix_second_mv(SYM, SPLIT, 6, flat=flat, oracle_rows=0)
    assert _tp_summary(tp_check_symbolic(t, 6)) == (True, 923, None)


@pytest.mark.parametrize("flat", [False, True], ids=["full", "flat"])
def test_the_row_polynomial_hankel_under_the_quad_restriction_is_tp_at_all_orders(flat):
    t = coeff_matrix_second_mv(SYM, QUAD, 7, flat=flat, oracle_rows=0)
    assert _tp_summary(tp_check_symbolic(_row_polynomial_hankel(t), 4)) == (True, 69, None)


@pytest.mark.parametrize("v_zero,production,hankel", [
    ("v_plus+w", (True, 923, None), (True, 69, None)),
    ("free", (False, 37, ((0, 1), (0, 1))), (False, 19, ((0, 1), (1, 2)))),
])
def test_the_first_mv_production_matrix_and_hankel_are_tp_with_v0_above_v_plus(
        v_zero, production, hankel):
    # a measured fact on the 6 x 6 block of P and the 4 x 4 Hankel, with
    # v_0 = v_+ + w against the control with v_0 free
    e = EdgeWeights.symbolic()
    if v_zero != "free":
        e = replace(e, v_zero=e.v_plus + Poly.var("w"))
    t = coeff_matrix_first_mv(SYM, e, 7)
    assert _tp_summary(tp_check_symbolic(production_of(t).truncate(6), 6)) == production
    assert _tp_summary(tp_check_symbolic(_row_polynomial_hankel(t), 4)) == hankel
