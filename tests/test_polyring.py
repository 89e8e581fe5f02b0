import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lagtp import polyring
from lagtp.series import Series
from lagtp.polyring import (MAX_EXPONENT, ExactDivisionError, Poly, _mul_add, _p, _power_sum,
                            _sparse, _values, power_table, rising)

x = Poly.var("x")
a = Poly.var("a")


def test_binomial_square():
    assert (1 + x) * (1 + x) == 1 + 2 * x + x ** 2


def test_laguerre_constant_product():
    assert (1 + a) * (2 + a) == 2 + 3 * a + a ** 2


def test_difference_of_squares():
    vp, vm = Poly.var("vp"), Poly.var("vm")
    assert (vp - vm) * (vp + vm) == vp ** 2 - vm ** 2


def test_coeffwise_nonneg():
    assert (1 + 2 * x + x ** 2).is_coeffwise_nonneg()
    assert not ((1 - x) ** 2).is_coeffwise_nonneg()
    assert Poly.zero().is_coeffwise_nonneg()


def test_substitute_numeric():
    assert (x ** 2).substitute({"x": 2}) == Poly.const(4)


def test_substitute_shift():
    lam = Poly.var("lam")
    assert (1 + a).substitute({"a": lam - 1}) == lam


def test_substitute_renaming_product():
    yp, yv = Poly.var("yp"), Poly.var("yv")
    vm, vp = Poly.var("vm"), Poly.var("vp")
    assert (yp * yv).substitute({"yp": vm, "yv": vp}) == vm * vp


def test_substitute_unmapped_pass_through():
    p = a * x + x ** 2
    assert p.substitute({"a": 3}) == 3 * x + x ** 2


def test_substitute_numbers_gives_a_constant():
    p = 2 + a * x ** 2
    assert p.substitute({"a": 3, "x": 2}).as_constant() == 14
    with pytest.raises(ValueError):
        p.substitute({"a": 1}).as_constant()


def test_values_under_many_assignments():
    half = Fraction(1, 2)
    polys = [2 + a * x ** 2, (x ** 2 + x).scale(half), x.scale(half), Poly.zero(), Poly.const(7)]
    envs = [{"a": 3, "x": 2}, {"a": 0, "x": 1}, {"a": 1, "x": 3}]
    assert _values(polys, envs) == [[14, 2, 11], [3, 1, 6], [1, half, Fraction(3, 2)],
                                    [0, 0, 0], [7, 7, 7]]
    # an integral value of a rational Poly comes back as an int
    assert [type(v) for v in _values(polys[1:2], envs)[0]] == [int, int, int]
    assert _values(polys, []) == [[]] * len(polys)
    with pytest.raises(KeyError):
        _values([a * x], [{"x": 1}])
    # variables registered after 60 other names sit in high fields, and a
    # monomial may set a low field and a high one
    for i in range(60):
        Poly.var(f"values_pad{i}")
    u, w = Poly.var("values_high_u"), Poly.var("values_high_w")
    assert polyring._offsets["values_high_w"] >= 61 * polyring.FIELD_BITS
    polys = [Poly.zero(), Poly.const(-4), Poly.const(Fraction(5, 3)), u, -3 * w ** 2,
             x * u ** 2 * w, (u * w - a).scale(Fraction(1, 2)),
             (2 * u ** 3 + x * w + 5).scale(Fraction(-1, 6)), 2 + a * x ** 2 - u * w]
    polys += polys[::3]  # the same objects again, as a Hankel grid repeats them
    envs = [dict(zip(("a", "x", "values_high_u", "values_high_w"), point))
            for point in itertools.product((0, 3), (1, -2), (0, 1, 2), (3, -1))]
    got = _values(polys, envs)
    expected = [[p.substitute(env).as_constant() for env in envs] for p in polys]
    assert got == expected
    assert [[type(v) for v in row] for row in got] == [[type(v) for v in row] for row in expected]


def test_exact_div():
    p = (1 + x) ** 3
    assert p.exact_div(1 + x) == (1 + x) ** 2
    with pytest.raises(ExactDivisionError):
        (1 + x * x).exact_div(1 + x)
    assert (2 * x).exact_div(Poly.const(2)) == x
    # over Q: a quotient coefficient need not be an integer
    assert (1 + 2 * x).exact_div(Poly.const(2)) == x + Fraction(1, 2)
    assert Poly.one().exact_div(Poly.const(2)) == Poly.const(Fraction(1, 2))
    assert (1 + 2 * x).exact_div(2 + 4 * x) == Poly.const(Fraction(1, 2))
    assert (x + a).exact_div(2 * x + 2 * a).as_constant() == Fraction(1, 2)
    with pytest.raises(ExactDivisionError):
        (x + 2 * a).exact_div(2 * x + 2 * a)


def test_rising():
    assert rising(a, 3) == a * (a + 1) * (a + 2)
    assert rising(a, 0) == Poly.one()


def test_rational_coefficients_normalize():
    p = x.scale(Fraction(1, 2))
    assert (p + p) == x
    assert not p.is_integral()
    assert (p * 2).is_integral()


def test_zero_handling():
    assert (x - x).is_zero()
    assert (x - x) == Poly.zero()
    assert (x * 0).is_zero()


def test_coeff_of_var():
    p = 1 + 2 * x * a + x ** 2 * a
    assert p.coeff_of_var("x", 1) == 2 * a
    assert p.coeff_of_var("x", 2) == a
    assert p.coeff_of_var("u", 0) == p
    assert p.coeff_of_var("u", 1).is_zero()


def test_str_canonical():
    assert str(3 * (2 + a) * (3 + a)) == "18+15*a+3*a^2"
    assert str(Poly.zero()) == "0"
    assert str(x - 1) == "-1+x"
    assert str(-x) == "-x"
    assert str(x.scale(Fraction(1, 2))) == "1/2*x"


def test_json_round_trip_bit_exact():
    p = (1 + a) * (2 + a) * x - x ** 3
    obj = p.to_json_obj()
    assert Poly.from_json_obj(obj) == p
    assert json.dumps(obj, sort_keys=True) == json.dumps(
        Poly.from_json_obj(obj).to_json_obj(), sort_keys=True)
    q = x.scale(Fraction(2, 3))
    assert Poly.from_json_obj(q.to_json_obj()) == q


def test_json_term_order_is_graded_lex():
    p = x ** 2 + a + 1 + a * x
    exps = [t["exp"] for t in p.to_json_obj()["terms"]]
    # vars are (a, x); degree ascending, then lex descending within a degree
    assert exps == [[0, 0], [1, 0], [1, 1], [0, 2]]


def test_json_any_var_order_is_canonical():
    y = Poly.var("y")
    obj = {"vars": ["y", "x"], "terms": [{"exp": [1, 1], "coef": "2"}, {"exp": [2, 0], "coef": "1"}]}
    p = Poly.from_json_obj(obj)
    assert p == 2 * x * y + y ** 2
    assert p.to_json_obj() == (2 * x * y + y ** 2).to_json_obj()


def test_json_repeated_var_merges():
    p = Poly.from_json_obj({"vars": ["x", "x"], "terms": [{"exp": [1, 1], "coef": "1"}]})
    assert str(p) == "x^2"
    assert p == x ** 2


def test_bool_coefficients_are_stored_as_int():
    from lagtp.matrices import Truncation
    m = Truncation([[True, 0], [1, 1]])
    values = [Poly.const(True), Poly(("x",), {(1,): True}), x * True, x + True,
              Poly.dot([(x, True)]), m[0, 0], m[1, 0]]
    for p in values:
        assert all(type(c) is int for c in p.coefficients()), p
    assert str(m[0, 0]) == "1" and m[0, 0].to_json_obj()["terms"][0]["coef"] == "1"
    assert Poly.const(False).is_zero()


def test_zero_denominator_coefficient_is_a_value_error():
    with pytest.raises(ValueError):
        Poly.from_json_obj({"vars": ["x"], "terms": [{"exp": [1], "coef": "1/0"}]})


@pytest.mark.parametrize("exp", [-3, 1.5, "2", True])
def test_bad_exponent_rejected(exp):
    with pytest.raises(ValueError):
        Poly.from_json_obj({"vars": ["x"], "terms": [{"exp": [exp], "coef": "1"}]})
    with pytest.raises(ValueError):
        Poly(("x",), {(exp,): 1})
    with pytest.raises(ValueError):
        x ** exp


@pytest.mark.parametrize("name", [1, True, None, ["x"], "", "x^2", "a*b", "2x", "x y"])
def test_non_identifier_variable_name_rejected(name):
    with pytest.raises(ValueError, match="variable names must be identifiers"):
        Poly.from_json_obj({"vars": [name], "terms": [{"exp": [1], "coef": "1"}]})
    with pytest.raises(ValueError, match="variable names must be identifiers"):
        Poly((name,), {(1,): 1})
    with pytest.raises(ValueError, match="variable names must be identifiers"):
        Poly.var(name)


def test_identifier_variable_names_accepted():
    for name in ("x", "y_p", "al10", "_t", "ζ"):
        assert Poly.var(name).vars == (name,)


def test_exponent_past_field_limit_overflows():
    y = Poly.var("y")
    top = x ** MAX_EXPONENT * y
    assert [dict(zip(top.vars, e)) for e, _ in top.sorted_terms()] == [
        {"x": MAX_EXPONENT, "y": 1}]
    with pytest.raises(OverflowError):
        top * x
    with pytest.raises(OverflowError):
        x ** (MAX_EXPONENT + 1)
    with pytest.raises(OverflowError):
        Poly(("x",), {(MAX_EXPONENT + 1,): 1})
    with pytest.raises(OverflowError):
        Poly(("x", "y", "x"), {(MAX_EXPONENT, 0, 1): 1})


def test_dot_overflow_is_seen_before_cancellation():
    # the two products cancel, but each one is past the exponent limit
    big = x ** 20000
    with pytest.raises(OverflowError):
        Poly.dot([(big, big), (-big, big)])
    with pytest.raises(OverflowError):
        Poly.dot([(big + 1, big + a), (-(big + 1), big + a)])


def test_operand_guard_is_exact():
    # OR-of-keys 16385 + 16383 reaches the guard bit, but no product does
    p = (x ** 16384 + x) * (x ** 16383 + 1)
    assert p == x ** MAX_EXPONENT + 2 * x ** 16384 + x
    assert p.sorted_terms()[-1] == ((MAX_EXPONENT,), 1)


def test_power_overflow_is_refused_before_any_product(monkeypatch):
    base, poly = x + x ** 2, x ** 20000 + 1
    calls = []

    def refuse(*args):
        calls.append(args)
        raise AssertionError("a product was made before the overflow was seen")

    monkeypatch.setattr(polyring, "_mul_into", refuse)
    with pytest.raises(OverflowError, match=f"^exponent of x exceeds {MAX_EXPONENT}$"):
        base ** 20000
    with pytest.raises(OverflowError, match=f"^exponent of x exceeds {MAX_EXPONENT}$"):
        poly.substitute({"x": base})
    assert calls == []
    monkeypatch.undo()
    # the test is exact: n times the top exponent of x reaches MAX_EXPONENT, no further
    assert (x ** 3) ** (MAX_EXPONENT // 3) == x ** (MAX_EXPONENT - MAX_EXPONENT % 3)
    with pytest.raises(OverflowError, match="^exponent of a exceeds"):
        (1 + a ** 3 * x) ** 11000  # a reaches 33000, x only 11000
    assert Poly.zero() ** 40000 == Poly.zero() and (x + 1) ** 0 == Poly.one()


def test_monomial_times_polynomial():
    h = Fraction(1, 2)
    half_sum = x.scale(h) + h  # x/2 + 1/2
    for p in (half_sum * 2, 2 * half_sum, half_sum * Poly.const(2)):
        assert p.terms == (x + 1).terms and p.is_integral()
    third = x.scale(Fraction(2, 3))
    for p in (third * (x + 3), (x + 3) * third):  # Fraction times int, either order
        assert p == (x ** 2).scale(Fraction(2, 3)) + 2 * x
        assert [type(c) for _, c in p.sorted_terms()] == [int, Fraction]
    for p in (2 * x * (x.scale(h) + a.scale(Fraction(1, 3))),
              (x.scale(h) + a.scale(Fraction(1, 3))) * (2 * x)):  # int times Fraction
        assert p == x ** 2 + (a * x).scale(Fraction(2, 3))
        assert _canonical_coefficients(p)
    for p in (Poly.zero() * (x + 1), (x + 1) * 0, x * Poly.zero(), Poly.zero() * Poly.zero()):
        assert p.is_zero() and p.terms == {}
    for p, q in ((x ** 16000, x ** 17000 + 1), (x ** 17000 + 1, x ** 16000)):
        with pytest.raises(OverflowError, match=f"^exponent of x exceeds {MAX_EXPONENT}$"):
            p * q


def test_rational_products_over_a_common_denominator():
    h, t = Fraction(1, 2), Fraction(1, 3)
    p = x.scale(h) + a.scale(t)
    assert p * p == ((x ** 2).scale(Fraction(1, 4)) + (x * a).scale(t)
                     + (a ** 2).scale(Fraction(1, 9)))
    # summed over the common denominator 6, the coefficients come out integral
    q = Poly.dot([(x.scale(h), 1), (x.scale(t), 1), (x.scale(Fraction(1, 6)), 7)])
    assert q == 2 * x and q.is_integral()


def test_every_product_goes_through_the_one_kernel(monkeypatch):
    # one kernel call per nonzero pair, a monomial side included
    m, p, q = 3 * x * a, x + 2 * a + 1, x ** 2 - a.scale(Fraction(1, 2))
    ops = {"p * m": lambda: p * m, "p * q": lambda: p * q, "p.scale(3)": lambda: p.scale(3),
           "_mul_add(p, m, q)": lambda: _mul_add(p, m, q),
           "_mul_add(p, q, q)": lambda: _mul_add(p, q, q),
           "dot of two pairs": lambda: Poly.dot([(p, q), (q, p)]),
           "p + q": lambda: p + q, "p - q": lambda: p - q, "q - p": lambda: q - p,
           "p + 0": lambda: p + 0, "p - 0": lambda: p - 0}
    calls = []
    mul_into = polyring._mul_into
    monkeypatch.setattr(polyring, "_mul_into", lambda *args: calls.append(1) or mul_into(*args))
    counts = {}
    for name, op in ops.items():
        calls.clear()
        op()
        counts[name] = len(calls)
    assert counts == {"p * m": 1, "p * q": 1, "p.scale(3)": 1, "_mul_add(p, m, q)": 1,
                      "_mul_add(p, q, q)": 1, "dot of two pairs": 2,
                      "p + q": 1, "p - q": 1, "q - p": 1, "p + 0": 0, "p - 0": 0}


def test_a_difference_builds_no_negated_copy(monkeypatch):
    p, q = x + 2 * a + 1, x ** 2 - a.scale(Fraction(1, 2))
    built = []
    finish = polyring._finish
    monkeypatch.setattr(polyring, "_finish", lambda *args: built.append(1) or finish(*args))
    difference = p - q
    assert len(built) == 1
    monkeypatch.undo()
    assert difference == p + -q and difference - p == -q


def test_a_reflected_difference_builds_no_negated_copy(monkeypatch):
    p, q = x + 2 * a + 1, x ** 2 - a.scale(Fraction(1, 2))
    s = Series([1, x, x ** 2], 2)
    ops = {"3 - p": lambda: 3 - p, "p.__rsub__(q)": lambda: p.__rsub__(q),
           "2 - s": lambda: 2 - s}
    built = []
    finish = polyring._finish
    monkeypatch.setattr(polyring, "_finish", lambda *args: built.append(1) or finish(*args))
    counts, results = {}, {}
    for name, op in ops.items():
        built.clear()
        results[name] = op()
        counts[name] = len(built)
    monkeypatch.undo()
    # one Poly for the constant operand where it is made, then one per difference
    assert counts == {"3 - p": 2, "p.__rsub__(q)": 1, "2 - s": 4}
    assert results == {"3 - p": 3 + -p, "p.__rsub__(q)": q + -p,
                       "2 - s": Series([1, -x, -x ** 2], 2)}
    assert p.__rsub__(Poly.zero()) == -p and Poly.zero().__rsub__(p) is p
    assert p.__rsub__(1.5) is NotImplemented


def test_subtraction_from_a_foreign_operand_is_refused_by_python():
    for other, name in ((1.5, "float"), (None, "NoneType")):
        message = rf"^unsupported operand type\(s\) for -: '{name}' and 'Poly'$"
        with pytest.raises(TypeError, match=message):
            other - x
    assert 3 - x == 3 + -x and Fraction(1, 2) - x == (1 - 2 * x).scale(Fraction(1, 2))


@pytest.mark.parametrize("make", [
    lambda: _p(0.1), lambda: Poly.const(0.5), lambda: x.scale(0.5), lambda: x * 0.5,
    lambda: x + 0.5, lambda: Poly.dot([(x, 0.5)]), lambda: Poly(["x"], {(1,): 0.5})],
    ids=["_p", "const", "scale", "mul", "add", "dot", "terms"])
def test_a_float_is_refused_not_read_as_its_binary_fraction(make):
    # _p(0.1) once gave 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match="float"):
        make()


def test_exact_scalars_still_coerce():
    assert _p(True) == 1 and _p(False).is_zero()
    assert Poly.const(Fraction(4, 2)).terms == {0: 2}
    assert Poly.const(Fraction(1, 3)).as_constant() == Fraction(1, 3)


# -- property tests -----------------------------------------------------------

names = st.sampled_from(["x", "y", "z"])


def _canonical_coefficients(p):
    return all(type(c) is int or type(c) is Fraction and c.denominator > 1
               for c in p.coefficients())


@st.composite
def polys(draw, max_terms=6, coeff_min=-4, coeff_max=4):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        exp = (draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        c = draw(st.integers(coeff_min, coeff_max))
        terms[exp] = Fraction(c, draw(st.integers(1, 6))) if draw(st.booleans()) else c
    p = Poly(("x", "y", "z"), terms)
    # any order of the names, in the constructor or in JSON, is the same polynomial
    order = draw(st.permutations(range(3)))
    permuted = {tuple(e[i] for i in order): c for e, c in terms.items()}
    assert Poly(tuple("xyz"[i] for i in order), permuted) == p
    obj = p.to_json_obj()
    order = draw(st.permutations(range(len(obj["vars"]))))
    shuffled = {"vars": [obj["vars"][i] for i in order],
                "terms": [{"exp": [t["exp"][i] for i in order], "coef": t["coef"]}
                          for t in obj["terms"]]}
    assert Poly.from_json_obj(shuffled) == p
    assert _canonical_coefficients(p)
    return p


@st.composite
def nonneg_polys(draw):
    p = draw(polys(coeff_min=0))
    return p


@settings(max_examples=50, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert all(map(_canonical_coefficients, (p * q, p + q, p - q, p.scale(Fraction(3, 2)))))


def _monomial_terms(p):
    """p as {frozenset of (name, exponent): coefficient}, read through names."""
    return {frozenset((v, e) for v, e in zip(p.vars, exps) if e): c
            for exps, c in p.sorted_terms()}


def _operand_terms(v):
    """A Poly's ``_monomial_terms``; an exact scalar as a constant term."""
    if type(v) is Poly:
        return _monomial_terms(v)
    return {frozenset(): Fraction(v)} if v else {}


def _reference_dot(pairs):
    """Sum of products on name-keyed monomials with Fraction arithmetic,
    independent of the packed-key kernel; an operand may be an exact scalar."""
    out = Counter()
    for u, v in pairs:
        for ma, ca in _operand_terms(u).items():
            for mb, cb in _operand_terms(v).items():
                out[frozenset((Counter(dict(ma)) + Counter(dict(mb))).items())] += Fraction(ca) * cb
    return {m: c for m, c in out.items() if c}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(polys(), polys()), max_size=5))
def test_dot_and_sum_equal_the_naive_fold(pairs):
    dot = Poly.dot(pairs)
    assert _monomial_terms(dot) == _reference_dot(pairs)
    fold = Poly.zero()
    for u, v in pairs:
        fold = fold + u * v
    assert dot == fold
    # cancellation: the negated pairs take every product back out
    assert Poly.dot(pairs + [(-u, v) for u, v in pairs]).is_zero()
    firsts = [u for u, _ in pairs]
    total = Poly.dot((u, 1) for u in firsts)
    assert _monomial_terms(total) == _reference_dot([(u, Poly.one()) for u in firsts])
    assert Poly.dot((u, 1) for u in firsts + [-u for u in firsts]).is_zero()
    assert _canonical_coefficients(dot) and _canonical_coefficients(total)


@settings(max_examples=50, deadline=None)
@given(polys(), polys())
def test_mul_agrees_with_numeric_evaluation(p, q):
    env = {"x": 2, "y": 3, "z": 5}
    value = lambda poly: poly.substitute(env).as_constant()
    assert value(p * q) == value(p) * value(q)


@settings(max_examples=50, deadline=None)
@given(st.lists(polys(), max_size=4),
       st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=1, max_size=5))
def test_values_agree_with_substitution(ps, points):
    envs = [dict(zip("xyz", point)) for point in points]
    expected = [[p.substitute(env).as_constant() for env in envs] for p in ps]
    got = _values(ps, envs)
    assert got == expected
    assert [[type(v) for v in row] for row in got] == [[type(v) for v in row] for row in expected]


@settings(max_examples=40, deadline=None)
@given(nonneg_polys(), nonneg_polys())
def test_coeffwise_order_closure(p, q):
    assert (p + q).is_coeffwise_nonneg()
    assert (p * q).is_coeffwise_nonneg()


@settings(max_examples=40, deadline=None)
@given(polys())
def test_substitution_composes_for_renamings(p):
    sigma = {"x": Poly.var("u"), "y": Poly.var("v"), "z": Poly.var("w")}
    tau = {"u": Poly.var("s"), "v": Poly.var("t")}
    composed = {k: v.substitute(tau) for k, v in sigma.items()}
    assert p.substitute(sigma).substitute(tau) == p.substitute(composed)


@settings(max_examples=40, deadline=None)
@given(polys(), polys(), polys())
def test_exact_division_inverts_multiplication(p, q, r):
    prod = p * q
    if not q.is_zero():
        assert prod.exact_div(q) == p
        # a division that does not raise is exact
        try:
            s = (prod + r).exact_div(q)
        except ExactDivisionError:
            pass
        else:
            assert s * q == prod + r


@settings(max_examples=40, deadline=None)
@given(polys())
def test_json_round_trip(p):
    # polys() also round-trips each polynomial through JSON with its vars permuted
    assert Poly.from_json_obj(p.to_json_obj()) == p


def _reference_power_sum(items, values):
    """The sum of start * v**e products, folded one term at a time."""
    total = Poly.zero()
    for exps, start in items:
        term = _p(start)
        for v, e in zip(values, exps):
            term = term * _p(v) ** e
        total = total + term
    return total


coefficients = st.one_of(st.integers(-3, 3).filter(bool),
                         st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(2, 4)))


@st.composite
def monomials(draw):
    exps = tuple(draw(st.integers(0, 2)) for _ in "xyz")
    return Poly(("x", "y", "z"), {exps: draw(coefficients)})


weights = st.one_of(monomials(), polys(max_terms=3), st.just(Poly.zero()), st.just(0),
                    coefficients)


@settings(max_examples=80, deadline=None)
@given(st.lists(weights, min_size=1, max_size=4).flatmap(lambda values: st.tuples(
    st.just(values),
    st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * len(values)),
                       st.one_of(monomials(), coefficients, st.just(0))), max_size=6))),
    st.booleans())
def test_power_sum_equals_the_reference_fold(case, cancel):
    values, items = case
    if cancel:  # every term again with its start negated: the sum is zero
        items = items + [(exps, -start) for exps, start in items]
    got = _power_sum([(_sparse(exps), start) for exps, start in items], values)
    assert got == _reference_power_sum(items, values)
    assert _canonical_coefficients(got)
    assert not cancel or got.is_zero()


@settings(max_examples=60, deadline=None)
@given(polys(), weights)
def test_substitute_equals_the_reference_fold(p, value):
    # p in x with coefficients in y, z: one monomial start per term of p
    items = []
    for exps, c in p.sorted_terms():
        e = dict(zip(p.vars, exps))
        items.append(((e.get("x", 0),), Poly(("y", "z"), {(e.get("y", 0), e.get("z", 0)): c})))
    got = p.substitute({"x": value})
    assert got == _reference_power_sum(items, [value])
    assert _canonical_coefficients(got)


def test_power_sum_monomial_power_overflow():
    with pytest.raises(OverflowError, match=f"^exponent of x exceeds {MAX_EXPONENT}$"):
        _power_sum([(((0, 2),), 1)], [x ** 20000])
    with pytest.raises(OverflowError, match=f"^exponent of x exceeds {MAX_EXPONENT}$"):
        _power_sum([(((0, 1), (1, 1)), x ** 20000)], [a, x ** 20000])


def test_power_sum_overflows_only_where_one_class_does():
    # x^20000 twice: the largest exponents of the two values add past the
    # limit, but no class raises x past it
    items = [(((0, 20000),), 1), (((1, 20000),), 1)]
    assert _power_sum(items, [x, x]) == 2 * x ** 20000
    with pytest.raises(OverflowError, match=f"^exponent of x exceeds {MAX_EXPONENT}$"):
        _power_sum([(((0, 20000), (1, 20000)), 1)], [x, x])
    # a class raising a zero weight is zero, but its monomials are tested first
    with pytest.raises(OverflowError, match=f"^exponent of x exceeds {MAX_EXPONENT}$"):
        _power_sum([(((0, 2), (1, 1)), 1)], [x ** 20000, 0])


@settings(max_examples=80, deadline=None)
@given(polys(), st.one_of(monomials(), polys(max_terms=3), st.just(Poly.zero())), polys(),
       st.booleans())
def test_mul_add_equals_the_reference_sum(p, c, q, cancel):
    # a + c * b: one _mul_into call into a copy of a's numerators
    start = -(c * q) if cancel else p
    got = _mul_add(start, c, q)
    assert _monomial_terms(got) == _reference_dot([(start, Poly.one()), (c, q)])
    assert got == start + c * q and _canonical_coefficients(got)
    assert not cancel or got.is_zero()
    # the operands are not changed
    assert start == (-(c * q) if cancel else p)


def test_mul_add_overflow():
    for c, q in ((x ** 20000, x ** 16000 + a), (x ** 16000 + 1, x ** 17000)):
        with pytest.raises(OverflowError, match=f"^exponent of x exceeds {MAX_EXPONENT}$"):
            _mul_add(a, c, q)
    # at the limit, and a product that cancels a term of a
    assert _mul_add(x ** MAX_EXPONENT, -x, x ** (MAX_EXPONENT - 1)).is_zero()


def test_mul_add_normalizes_integral_fractions():
    h, t = Fraction(1, 2), Fraction(1, 3)
    for got, want in ((_mul_add(x, 2 * a, x.scale(h) + 1), x + a * x + 2 * a),
                      (_mul_add(x.scale(t), Poly.one(), x.scale(2 * t)), x),
                      (_mul_add(a.scale(h), x, a.scale(h)), (a + a * x).scale(h))):
        assert got == want and _canonical_coefficients(got)


# -- the numerator / denominator form ---------------------------------------------


def _canonical_form(p):
    """num / den in lowest terms (zero has den 1), den 1 exactly when every
    coefficient of the terms view is an int."""
    nums = list(p.num.values())
    return (all(type(c) is int and c for c in nums) and type(p.den) is int and p.den >= 1
            and math.gcd(p.den, *nums) == 1
            and (p.den == 1) == p.is_integral() == all(type(c) is int for c in p.terms.values()))


@st.composite
def rational_polys(draw):
    """A Poly in x, y with Fraction coefficients, and its terms keyed by sets
    of (name, exponent), taken from the drawn Fractions alone."""
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        exps = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        terms[exps] = draw(st.fractions(-4, 4, max_denominator=12))
    named = {frozenset((v, e) for v, e in zip("xy", exps) if e): c
             for exps, c in terms.items() if c}
    return Poly(("x", "y"), terms), named


def _fold(pairs):
    """The sum of products of name-keyed term maps, one Fraction product per term pair."""
    out = Counter()
    for ta, tb in pairs:
        for ma, ca in ta.items():
            for mb, cb in tb.items():
                out[frozenset((Counter(dict(ma)) + Counter(dict(mb))).items())] += ca * cb
    return {m: c for m, c in out.items() if c}


@settings(max_examples=80, deadline=None)
@given(st.lists(rational_polys(), min_size=2, max_size=6),
       st.fractions(-3, 3, max_denominator=10))
def test_rational_arithmetic_equals_a_fraction_fold(drawn, s):
    polys_, named = zip(*drawn)
    (p, q), (tp, tq) = polys_[:2], named[:2]
    one = {frozenset(): 1}
    cases = [(p * q, _fold([(tp, tq)])),
             (p + q, _fold([(tp, one), (tq, one)])),
             (p - q, _fold([(tp, one), (tq, {frozenset(): -1})])),
             (p.scale(s), _fold([(tp, {frozenset(): s})])),
             (Poly.dot(zip(polys_[0::2], polys_[1::2])), _fold(zip(named[0::2], named[1::2])))]
    for got, want in cases:
        assert _monomial_terms(got) == want
        assert _canonical_form(got) and _canonical_coefficients(got)


def test_rational_form_is_canonical():
    half = x.scale(Fraction(1, 2))
    assert (half.num, half.den) == (x.num, 2)
    total = half + half
    assert total == x and (total.num, total.den) == (x.num, 1)
    p = half + 3 * a
    for q in (-p, p - p, p, p * p, Poly.dot([(p, 2)])):
        assert _canonical_form(q) and _canonical_coefficients(q)
        assert all(type(c) is int or type(c) is Fraction and c.denominator > 1
                   for c in q.terms.values())
    assert (-p).terms == {k: -c for k, c in p.terms.items()}
    assert {type(c) for c in (-p).terms.values()} == {int, Fraction}
    assert ((p - p).num, (p - p).den) == ({}, 1)


def test_rational_arithmetic_builds_no_fraction(monkeypatch):
    p = x.scale(Fraction(1, 2)) + a.scale(Fraction(1, 3)) + 1
    q = (x * a).scale(Fraction(2, 5)) - x.scale(Fraction(1, 3))
    s = Series([p, q, p * q], 2)
    made = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return Fraction(*args, **kwargs)

    monkeypatch.setattr(polyring, "Fraction", Counted)
    dot, product, total, square = Poly.dot([(p, q), (q, p), (p, 3)]), p * q, p + q, s * s
    difference = p - q
    assert made == []
    monkeypatch.undo()
    assert _monomial_terms(dot) == _reference_dot([(p, q), (q, p), (p, Poly.const(3))])
    assert (product, total) == (p * q, p + q) and square.coefs[2] == 2 * p * p * q + q * q
    assert _monomial_terms(difference) == _reference_dot([(p, 1), (q, -1)])


@pytest.mark.parametrize("entry, field", [
    ({"vars": "xy", "terms": [{"exp": [1, 1], "coef": "1"}]}, "vars"),
    ({"vars": ["x"], "terms": [{"exp": [1], "coef": "1_000"}]}, "coef"),
    ({"vars": ["x"], "terms": [{"exp": [1], "coef": " 3 "}]}, "coef"),
    ({"vars": ["x"], "terms": [{"exp": [1], "coef": "\u0661\u0662"}]}, "coef"),
    ({"vars": ["x"], "terms": [{"exp": [1], "coef": 1}]}, "coef"),
], ids=["vars-string", "underscore-digits", "padded", "arabic-indic-digits", "numeric-coef"])
def test_json_accepts_only_canonical_text(entry, field):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        Poly.from_json_obj(entry)


def test_json_canonical_coefficients_still_read():
    terms = [{"exp": [e], "coef": c} for e, c in enumerate(["-3", "0", "7/2", "-1/6", "010"])]
    p = Poly.from_json_obj({"vars": ["x"], "terms": terms})
    assert p == -3 + (x ** 2).scale(Fraction(7, 2)) - (x ** 3).scale(Fraction(1, 6)) + 10 * x ** 4


# -- the kernel on exact scalars and one-term operands --------------------------


def _random_scalar(rng):
    n = rng.randint(-5, 5)
    return Fraction(n, rng.randint(2, 6)) if rng.random() < 0.4 else n


def _random_poly(rng):
    terms = {}
    for _ in range(rng.choice((0, 1, 1, 1, 2, 3, 5))):
        exps = tuple(rng.randint(0, 3) for _ in "axy")
        terms[exps] = terms.get(exps, 0) + _random_scalar(rng)
    return Poly(("a", "x", "y"), terms)


def _random_operand(rng):
    return _random_scalar(rng) if rng.random() < 0.3 else _random_poly(rng)


@pytest.mark.parametrize("seed", range(8))
def test_kernel_operations_equal_the_term_pair_reference(seed):
    # ints, Fractions and Polys of 0..5 terms (one-term sides, constants and
    # rational denominators among them), each operation against the reference
    rng = random.Random(seed)
    for _ in range(40):
        p, q, c = _random_poly(rng), _random_operand(rng), _random_scalar(rng)
        for got in (p * q, q * p):
            assert _monomial_terms(got) == _reference_dot([(p, q)])
            assert _canonical_coefficients(got)
        got = p.scale(c)
        assert _monomial_terms(got) == _reference_dot([(p, c)]) and _canonical_coefficients(got)
        pairs = [(_random_operand(rng), _random_operand(rng)) for _ in range(rng.randint(0, 5))]
        got = Poly.dot(pairs)
        assert _monomial_terms(got) == _reference_dot(pairs) and _canonical_coefficients(got)
        # the negated pairs take every product back out
        assert Poly.dot(pairs + [(u, -v) for u, v in pairs]).is_zero()
        b, m = _random_poly(rng), _random_poly(rng)
        for start in (p, -(m * b)):
            got = _mul_add(start, m, b)
            assert _monomial_terms(got) == _reference_dot([(start, 1), (m, b)])
            assert _canonical_coefficients(got)
        assert _mul_add(-(m * b), m, b).is_zero()


def test_one_term_products_still_refuse_an_overflow():
    big = x ** 20000
    for p, q in ((big, big), (big, big + 1), (big + 1, big), (big, x ** 12768 * a)):
        with pytest.raises(OverflowError, match=f"^exponent of x exceeds {MAX_EXPONENT}$"):
            p * q
        with pytest.raises(OverflowError, match=f"^exponent of x exceeds {MAX_EXPONENT}$"):
            Poly.dot([(a, 1), (p, q)])
    # up to the limit, and through a constant (key 0) on either side
    assert x ** 16384 * x ** 16383 == x ** MAX_EXPONENT
    assert (x ** MAX_EXPONENT * 3).scale(Fraction(1, 3)) == x ** MAX_EXPONENT


def test_no_operation_changes_the_shared_zero_and_one():
    zero, one = Poly.zero(), Poly.one()
    assert zero is Poly.zero() and one is Poly.one()
    p = x.scale(Fraction(1, 2)) + a
    results = [zero + p, p + zero, one * p, p * one, zero * p, p * 0, p.scale(1), p.scale(0),
               one.scale(3), zero.scale(2), -zero, -one, one - one, one + one, one * one,
               Poly.dot([]), Poly.dot([(one, one), (one, -1)]), Poly.dot([(zero, p), (p, 0)]),
               _mul_add(zero, p, p), _mul_add(one, p, one), _mul_add(one, zero, p),
               p ** 0, one ** 5, zero ** 3, rising(p, 0), rising(p, 3), Poly.const(0),
               Poly.const(1), one.substitute({"x": p}), one.coeff_of_var("x", 0), p.exact_div(one),
               zero.exact_div(p), *power_table(p, 3), *power_table(one, 3),
               *(Series.one(3) * Series([one, p, zero, one])).coefs]
    assert all(type(r) is Poly for r in results)
    assert zero.num == {} and zero.den == 1
    assert one.num == {0: 1} and one.den == 1
    assert Poly.zero() == 0 and Poly.one() == 1


# -- wide keys: every reader on the earliest and the latest fields -------------

WIDE = tuple(f"wide{i}" for i in range(96))


@pytest.fixture
def wide_names():
    """Two of the earliest registered names and the last two of 96 names
    registered after them, so keys over them span at least 96 fields (a
    `family_build` pass registers 89 names)."""
    for name in WIDE:
        Poly.var(name)
    early = [v for v in polyring._names if v not in WIDE][:2]
    names = (early[0], WIDE[-2], early[1], WIDE[-1])
    assert polyring._offsets[WIDE[-1]] >= 95 * polyring.FIELD_BITS
    return names


def _wide_poly(rng, names):
    """A Poly over ``names`` and its reference: exponent tuple -> coefficient."""
    ref = {}
    for _ in range(rng.randint(1, 6)):
        e = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in names)
        ref[e] = ref.get(e, 0) + _random_scalar(rng)
    ref = {e: c for e, c in ref.items() if c}
    return Poly(names, ref), ref


def _reference_str(vars, terms):
    """The text of (exponent tuple over ``vars``, coefficient) pairs in order."""
    parts = []
    for e, c in terms:
        mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(vars, e) if k)
        parts.append(str(c) if not mono else mono if c == 1 else f"-{mono}" if c == -1
                     else f"{c}*{mono}")
    return "+".join(parts).replace("+-", "-") or "0"


@pytest.mark.parametrize("seed", range(4))
def test_wide_key_readers_equal_the_exponent_tuple_reference(wide_names, seed):
    names, rng = wide_names, random.Random(seed)
    for _ in range(15):
        (p, ref), (q, _) = _wide_poly(rng, names), _wide_poly(rng, names)
        used = sorted(v for i, v in enumerate(names) if any(e[i] for e in ref))
        assert p.vars == tuple(used)
        pos = [names.index(v) for v in used]
        terms = sorted([(tuple(e[i] for i in pos), c) for e, c in ref.items()],
                       key=lambda ec: (sum(ec[0]), [-k for k in ec[0]]))
        assert p.sorted_terms() == terms
        assert str(p) == _reference_str(used, terms)
        env = {names[0]: Poly.var(names[3]) + 2, names[3]: Poly.var(names[0]).scale(
            Fraction(1, 3)) - 1, names[1]: 5}
        assert p.substitute(env) == sum(
            (c * math.prod([_p(env.get(v, Poly.var(v))) ** k for v, k in zip(names, e)])
             for e, c in ref.items()), Poly.zero())
        for i, v in enumerate(names):
            for k in range(4):
                assert p.coeff_of_var(v, k) == Poly(names, {
                    e[:i] + (0,) + e[i + 1:]: c for e, c in ref.items() if e[i] == k})
        assert polyring._degrees(p, {names[0], names[3]}) == sorted({e[0] + e[3] for e in ref})
        if q:
            assert (p * q).exact_div(q) == p
            if not q.is_constant():
                with pytest.raises(ExactDivisionError):
                    (p * q + 1).exact_div(q)
        envs = [dict(zip(names, point)) for point in ((1, 2, 3, 4), (-1, 0, Fraction(1, 2), 3))]
        values = [sum(c * math.prod([Fraction(env[v]) ** k for v, k in zip(names, e)])
                      for e, c in ref.items()) for env in envs]
        assert _values([p, p], envs) == [values, values]


def test_a_wide_key_overflow_names_the_variable_of_the_last_field(wide_names):
    first, last = Poly.var(wide_names[0]), Poly.var(wide_names[3])
    message = f"^exponent of {wide_names[3]} exceeds {MAX_EXPONENT}$"
    top = first ** MAX_EXPONENT * last ** MAX_EXPONENT
    for overflow in (lambda: top * last, lambda: Poly.dot([(top, last + 1)]),
                     lambda: (first * last ** 3) ** 11000,
                     lambda: Poly((wide_names[3], wide_names[0], wide_names[3]),
                                  {(MAX_EXPONENT, 1, 1): 1}),
                     lambda: (first * last ** MAX_EXPONENT).substitute({wide_names[0]: last})):
        with pytest.raises(OverflowError, match=message):
            overflow()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fields_and_vectors_return_the_exponents_that_built_a_key(data):
    for name in WIDE:
        Poly.var(name)
    names = data.draw(st.lists(st.sampled_from(list(polyring._names)), unique=True,
                               max_size=8))
    exps = data.draw(st.lists(st.integers(0, MAX_EXPONENT), min_size=len(names),
                              max_size=len(names)))
    [key] = Poly(names, {tuple(exps): 1}).num
    offsets = [polyring._offsets[v] for v in names]
    assert polyring._fields(key) == sorted((off // polyring.FIELD_BITS, e)
                                           for off, e in zip(offsets, exps) if e)
    assert polyring._vectors([key, 0], offsets) == [tuple(exps), (0,) * len(names)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exponents_returns_the_names_used_and_vectors_that_rebuild_every_key(data):
    for name in WIDE:
        Poly.var(name)
    # names registered after at least 96 others, or any registered name
    late = [v for v in polyring._names if polyring._offsets[v] >= 96 * polyring.FIELD_BITS]
    assert late
    pool = data.draw(st.sampled_from([late, list(polyring._names)]))
    names = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=6))
    exps = st.lists(st.integers(0, MAX_EXPONENT), min_size=len(names), max_size=len(names))
    terms = st.dictionaries(exps.map(tuple), st.integers(-3, 3).filter(bool), max_size=5)
    polys = [Poly(names, t) for t in data.draw(st.lists(terms, max_size=4))]
    got, vectors, indices = polyring._exponents(polys)
    assert got == polyring._vars_of(polys)
    assert len(set(vectors)) == len(vectors)
    for p, index in zip(polys, indices, strict=True):
        assert [next(iter(Poly(got, {vectors[i]: 1}).num)) for i in index] == list(p.num)
