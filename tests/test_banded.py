import collections.abc
import math

import pytest

from lagtp.banded import (DiagonalPolySpec, check_banded_criterion,
                          conjugate_and_measure_band, random_spec)
from lagtp.checks import _degree_test_vs_band
from lagtp.laguerre import LaguerreParams, prodmat
from lagtp.matrices import Mismatch, Truncation, XorShift64, conjugate_by_binomial
from lagtp.polyring import Poly

a = Poly.var("a")
one, zero = Poly.one(), Poly.zero()


def pcirc_spec():
    # f_-1 = 1, f_0 = 1+a+2n, f_1 = a+n, f_2 = 0
    return DiagonalPolySpec(2, ((one,), (1 + a, Poly.const(2)), (a, one), (zero,)))


def test_pcirc_satisfies_condition_c():
    assert check_banded_criterion(pcirc_spec())


def test_pcirc_spec_builds_the_tridiagonal():
    assert pcirc_spec().truncate(7) == prodmat(
        LaguerreParams.symbolic(), "Pcirc").truncate(7)


def test_pcirc_conjugate_is_the_quadridiagonal():
    conj = conjugate_by_binomial(pcirc_spec(), Poly.var("xi"), 7)
    want = prodmat(LaguerreParams.symbolic(), "P", x=Poly.var("xi")).truncate(7)
    assert conj == want
    assert conjugate_and_measure_band(pcirc_spec(), 7) == 2


def test_cubic_diagonal_fails_and_band_grows():
    bad = DiagonalPolySpec(2, ((one,), (zero, zero, zero, one), (zero,), (zero,)))
    assert not check_banded_criterion(bad)
    assert conjugate_and_measure_band(bad, 7) >= 3
    # condition (b), read from the conjugate: its 3rd subdiagonal does not vanish
    conj = conjugate_by_binomial(bad, Poly.var("xi"), 7)
    assert not all(conj[k + 3, k].is_zero() for k in range(7 - 3))


def test_linear_superdiagonal_allowed():
    spec = DiagonalPolySpec(1, ((zero, one), (one,), (zero,)))
    assert check_banded_criterion(spec)
    assert conjugate_and_measure_band(spec, 8) <= 1


def test_delta_spec_band_zero():
    spec = DiagonalPolySpec(0, ((one,), (zero,)))
    assert conjugate_and_measure_band(spec, 6) == 0


def test_spec_shape_validation():
    with pytest.raises(ValueError):
        DiagonalPolySpec(2, ((one,), (one,)))


def test_poly_degree_reporting():
    spec = DiagonalPolySpec(1, ((zero, one), (one, zero), (zero,)))
    assert spec.poly_degree(-1) == 1
    assert spec.poly_degree(0) == 0
    assert spec.poly_degree(1) == -1


def test_random_specs_cover_both_outcomes():
    rng = XorShift64(2024)
    outcomes = {check_banded_criterion(random_spec(rng)) for _ in range(20)}
    assert outcomes == {True, False}


def _eval_f(spec, m, n):
    """f_m(n), term by term: the reference for the folded weights of an entry."""
    return sum((c * n ** d for d, c in enumerate(spec.fs[m + 1])), Poly.zero())


def test_spec_entry_scales_each_subdiagonal_by_the_falling_factorial():
    rng = XorShift64(5)
    for _ in range(6):
        spec = random_spec(rng)
        for n in range(8):
            assert spec(n, n + 1) == _eval_f(spec, -1, n)
            for m in range(spec.r + 1):
                if n >= m:
                    want = _eval_f(spec, m, n) * math.perm(n, m)
                    assert spec(n, n - m) == want
            assert all(spec(n, k).is_zero() for k in range(n - spec.r))
            assert all(spec(n, k).is_zero() for k in range(n + 2, n + 5))
            # no entry above row 0 or left of column 0
            assert spec(-1, 0).is_zero() and spec(-1, n).is_zero()
            assert spec(n, -1).is_zero() and spec(0, -1).is_zero()


def test_spec_truncate_reads_only_the_band():
    # each diagonal is cached by row, so its misses are the rows it evaluated
    rng = XorShift64(6)
    for _ in range(6):
        drawn = random_spec(rng)
        for rows, cols in ((0, None), (1, None), (7, None), (7, 3), (3, 7), (5, 0)):
            spec = DiagonalPolySpec(drawn.r, drawn.fs)
            got = spec.truncate(rows, cols)
            cols = rows if cols is None else cols
            assert {m: f.cache_info().misses for m, f in spec.diags.items()} == {
                m: sum(0 <= n - m < cols for n in range(rows)) for m in range(-1, spec.r + 1)}
            assert got == Truncation.from_fn(rows, cols, spec)


@pytest.mark.parametrize("r,count", [(-2, 0), (-5, 0), (1.0, 3), (True, 3), ("1", 3), (None, 3)])
def test_spec_refuses_an_order_that_is_not_an_int_at_least_minus_one(r, count):
    # count is the number of polynomials f_-1..f_r that the order asks for (none below -1)
    with pytest.raises(ValueError, match="order r"):
        DiagonalPolySpec(r, ((one,),) * count)


def test_spec_of_order_minus_one_is_its_superdiagonal():
    spec = DiagonalPolySpec(-1, ((zero, one),))
    assert spec.truncate(3, 4) == Truncation([[0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    assert not check_banded_criterion(spec)
    assert conjugate_and_measure_band(spec, 5) == 1


def test_spec_is_unhashable_as_it_says():
    spec = pcirc_spec()
    assert not isinstance(spec, collections.abc.Hashable)
    with pytest.raises(TypeError, match="unhashable"):
        hash(spec)


def test_spec_prints_its_order_and_coefficient_lists():
    assert str(pcirc_spec()) == "spec r=2, f_-1..f_2 by coefficients in n: [1]; [1+a, 2]; [a, 1]; [0]"


def test_degree_test_vs_band_names_the_spec_and_both_sides():
    xi = Poly.var("xi")
    good, bad = pcirc_spec(), DiagonalPolySpec(2, ((one,), (zero, zero, zero, one), (zero,), (zero,)))
    conj = conjugate_by_binomial(good, xi, 7)
    assert _degree_test_vs_band(good, conj) is True
    assert _degree_test_vs_band(bad, conjugate_by_binomial(bad, xi, 7)) is True
    # a band the degree test does not allow
    wide = Truncation.from_fn(7, 7, lambda i, k: 1 if (i, k) == (5, 1) else conj[i, k])
    assert _degree_test_vs_band(good, wide) == Mismatch(
        f"conjugate of {good} (lower bandwidth 4) vs degree test: [bandwidth <= 2, condition (b)]",
        0, False, True)
    # a band the degree test says must grow
    assert _degree_test_vs_band(bad, conj) == Mismatch(
        f"conjugate of {bad} (lower bandwidth 2) vs degree test: [bandwidth <= 2, condition (b)]",
        0, True, False)
    # a wide band whose (r+1)-st subdiagonal vanishes: condition (b) disagrees
    gap = Truncation.from_fn(7, 7, lambda i, k: 1 if i - k == 4 else (0 if i - k == 3 else conj[i, k]))
    assert _degree_test_vs_band(bad, gap) == Mismatch(
        f"conjugate of {bad} (lower bandwidth 4) vs degree test: [bandwidth <= 2, condition (b)]",
        1, True, False)
