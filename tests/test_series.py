import math
from fractions import Fraction

import pytest

from lagtp import polyring
from lagtp.polyring import Poly, rising
from lagtp.series import (Series, series_pow_sym, series_reciprocal,
                          solve_logderiv, solve_riccati)


def test_geometric_reciprocal():
    s = Series([1, -1], 6)
    assert series_reciprocal(s) == Series([1] * 7, 6)


def test_reciprocal_of_one():
    assert Series.one(5).reciprocal() == Series.one(5)


def test_reciprocal_requires_invertible_constant():
    with pytest.raises(ValueError):
        Series.t(4).reciprocal()
    with pytest.raises(ValueError):
        Series([Poly.var("a"), 1], 4).reciprocal()


def test_sfraction_tail_relation():
    # f = 1/(1 - a t g) satisfies f (1 - a t g) = 1
    a = Poly.var("a")
    g = Series([1, Poly.var("b"), Poly.var("c")], 5)
    rhs = Series.one(5) - (Series.t(5) * g) * a
    f = rhs.reciprocal()
    assert f * rhs == Series.one(5)


def test_riccati_geometric():
    one = Poly.one()
    g = solve_riccati(one, Poly.const(2), one, 6)
    assert g == Series([0, 1, 1, 1, 1, 1, 1], 6)


def test_riccati_linear():
    assert solve_riccati(Poly.one(), Poly.zero(), Poly.zero(), 4) == Series([0, 1], 4)


def test_riccati_symbolic_second_coefficient():
    zp, zv = Poly.var("zp"), Poly.var("zv")
    zsum = Poly.var("zda") + Poly.var("zdd")
    g = solve_riccati(zp, zsum, zv, 4)
    assert g[1] == zp
    assert g[2] == (zp * zsum).scale(Fraction(1, 2))


def test_logderiv_laguerre():
    one = Poly.one()
    a = Poly.var("a")
    g = solve_riccati(one, Poly.const(2), one, 6)
    f = solve_logderiv([1, 1], g, 1 + a, 6)
    for n in range(7):
        assert f[n].scale(math.factorial(n)) == rising(1 + a, n)


def test_logderiv_zero_is_one():
    g = solve_riccati(Poly.one(), Poly.const(2), Poly.one(), 5)
    assert solve_logderiv([], g, Poly.one(), 5) == Series.one(5)


def test_logderiv_cycle_second_coefficient():
    yp, yv, yfp = Poly.var("yp"), Poly.var("yv"), Poly.var("yfp")
    g = solve_riccati(yp, Poly.var("yda") + Poly.var("ydd"), yv, 4)
    f = solve_logderiv([yfp, yv], g, 1, 4)
    assert f[2] == (yfp * yfp + yp * yv).scale(Fraction(1, 2))


def test_pow_sym_of_one():
    assert series_pow_sym(Series.one(5), Poly.var("lam"), 5) == Series.one(5)


def test_pow_sym_rising_factorials():
    lam = Poly.var("lam")
    f1 = Series([1] * 7, 6)
    f = series_pow_sym(f1, lam, 6)
    for n in range(7):
        assert f[n].scale(math.factorial(n)) == rising(lam, n)


def test_pow_sym_exponent_one():
    f1 = Series([1, 2, 3, 4], 3)
    assert series_pow_sym(f1, 1, 3) == f1


def test_solvers_refuse_input_truncated_below_the_order():
    lam = Poly.var("lam")
    # 1 + t known mod t^2 fixes (1 + t)^lam only mod t^2
    with pytest.raises(ValueError, match="truncated below"):
        series_pow_sym(Series([1, 1], 1), lam, 3)
    with pytest.raises(ValueError, match="truncated below"):
        series_pow_sym(Series([1], 0), lam, 1)
    with pytest.raises(ValueError, match="truncated below"):
        solve_logderiv([1, 1], solve_riccati(1, 2, 1, 1), lam, 3)


def test_solvers_accept_input_to_one_below_the_order():
    lam = Poly.var("lam")
    assert series_pow_sym(Series([1, 1], 1), lam, 1) == Series([1, lam], 1)
    # G to order 2 fixes F to order 3
    assert (solve_logderiv([1, 1], solve_riccati(1, 2, 1, 2), lam, 3)
            == solve_logderiv([1, 1], solve_riccati(1, 2, 1, 3), lam, 3))
    # a constant Z needs no coefficient of G
    assert solve_logderiv([1], solve_riccati(1, 2, 1, 1), lam, 3) == (Series.t(3) * lam).exp()
    assert Series([], 0).exp() == Series.one(0)
    # order 0 needs no coefficient of W: f1'/f1 is never formed
    assert series_pow_sym(Series([1], 0), lam, 0) == Series.one(0)
    assert series_pow_sym(Series([1, 1], 1), lam, 0) == Series.one(0)


def test_truncation_commutes_with_operations():
    a = Series([1, Poly.var("a"), 2, Poly.var("b"), 1], 4)
    b = Series([1, 3, Poly.var("a"), 1, 2], 4)
    assert (a * b).truncate(2) == a.truncate(2) * b.truncate(2)
    assert (a + b).truncate(3) == a.truncate(3) + b.truncate(3)
    assert (a - b).truncate(3) == a.truncate(3) - b.truncate(3) == a - b.truncate(3)
    assert a.reciprocal().truncate(2) == a.truncate(2).reciprocal()


def test_derivative():
    a = Poly.var("a")
    assert Series([0, 1, a, 5], 3).derivative() == Series([1, 2 * a, 15], 2)
    with pytest.raises(ValueError):
        Series([7], 0).derivative()


def test_exp_exponential():
    x = Poly.var("x")
    e = (Series.t(5) * x).exp()
    for n in range(6):
        assert e[n] == (x ** n).scale(Fraction(1, math.factorial(n)))


def test_compose_and_reversion():
    g = Series([0, 1, 1, 1, 1, 1, 1], 6)  # t/(1-t)
    ginv = g.reversion()
    assert g.compose(ginv) == Series.t(6)
    assert ginv.compose(g) == Series.t(6)
    # t/(1+t) explicitly
    assert ginv == Series([0, 1, -1, 1, -1, 1, -1], 6)


def _reversion_reference(g):
    """H with g(H) = t by recomposing g with the partial H for every
    coefficient: [t^n] g(h_1 t + ... + h_{n-1} t^(n-1)) = -g_1 h_n."""
    inv1 = 1 / Fraction(g[1].as_constant())
    h = [Poly.zero(), Poly.const(inv1)]
    for n in range(2, g.order + 1):
        h.append((-g.compose(Series(h + [Poly.zero()], n))[n]).scale(inv1))
    return Series(h, g.order)


def _reversion_cases(order):
    x, y = Poly.var("x"), Poly.var("y")
    symbolic = [Poly.var(f"g{i}") for i in range(order + 1)]
    return {
        "symbolic": Series([0, 1] + symbolic[2:], order),
        "symbolic-g1=-2": Series([0, -2] + [c * (x + 1) for c in symbolic[2:]], order),
        "rational": Series([0, Fraction(3, 2)] + [Fraction((-1) ** i * i, i + 1)
                                                  for i in range(2, order + 1)], order),
        "rational-poly": Series([0, Fraction(1, 3)] + [x.scale(Fraction(1, i)) - y * i
                                                       for i in range(2, order + 1)], order),
        "sparse": Series([0, 1, 0, x, 0, 0, y, 0, 0, 1][:order + 1], order),
    }


@pytest.mark.parametrize("order", range(1, 10))
def test_reversion_equals_the_compose_reference(order):
    for name, g in _reversion_cases(order).items():
        h = g.reversion()
        assert h == _reversion_reference(g), name
        assert g.compose(h) == Series.t(order), name


def test_reversion_of_an_order_0_series_is_refused():
    # order 0 fixes no linear coefficient to invert (the series read coefs[1])
    for g in (Series([0], 0), Series([0, 1], 0)):
        with pytest.raises(ValueError, match="order-0"):
            g.reversion()


def test_reversion_builds_each_power_once(monkeypatch):
    # order 8, g_1 = 1: [t^n] H^k for 2 <= k <= n <= 8 is one product per
    # h_j (84 in all) and h_n one per g_k (28); recomposing g for every
    # coefficient made 350 kernel calls
    g = _reversion_cases(8)["symbolic"]
    calls = []
    mul_into = polyring._mul_into
    monkeypatch.setattr(polyring, "_mul_into", lambda *args: calls.append(1) or mul_into(*args))
    g.reversion()
    assert len(calls) == 112


def test_compose_requires_zero_constant():
    with pytest.raises(ValueError):
        Series.t(3).compose(Series.one(3))
