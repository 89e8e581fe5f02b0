import collections
import functools
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lagtp import matrices, polyring
from lagtp.banded import DiagonalPolySpec, random_spec
from lagtp.laguerre import (LaguerreParams, VertexWeights, coeff_matrix_uni, monic_laguerre,
                            prodmat)
from lagtp.matrices import (SAMPLE_VALUES, Banded, Mismatch, NonUnitDiagonalError,
                            RiordanIntegralityError, TPReport, Truncation, TPWitness,
                            XorShift64, _SAMPLE_BLOCK, _first_negative_minor, binomial_truncation,
                            bx_conjugate_eaz_identity_check, conjugate_by_binomial,
                            delta_matrix, diagonal, eaz_matrix, first_difference,
                            hankel_truncation, lower_bidiagonal, output_matrix, production_of,
                            riordan_matrix, sfraction_word, tp_check_sampled, tp_check_symbolic,
                            tp_check_tridiagonal, unit_lower_inverse, upper_bidiagonal)
from lagtp.polyring import Poly, _p
from lagtp.quadtp import (QuadFactorParams, QuadVariantParams, build_general_quad,
                          build_variant_quad, general_quad_factors, variant_quad_factors)
from lagtp.series import Series
from lagtp.srpaths import SRCoeffs, SRTriangles

x = Poly.var("x")
y = Poly.var("y")
a = Poly.var("a")


def _hess(p):
    """Test-local Hessenberg reader: entry (n, k) of p as a Poly on and
    below the superdiagonal, zero above it and at negative indices.  p is
    an entry function or a Truncation; a Truncation raises IndexError past
    its stored block."""
    def at(n, k):
        if k > n + 1 or k < 0 or n < 0:
            return Poly.zero()
        if not isinstance(p, Truncation):
            return _p(p(n, k))
        if n < p.rows and k < p.cols:
            return p[n, k]
        raise IndexError(f"entry ({n},{k}) outside stored {p.rows}x{p.cols} block")
    return at


def test_first_difference_is_true_on_equal_inputs():
    x = Poly.var("x")
    assert first_difference(binomial_truncation(x, 4), binomial_truncation(x, 4), "B_x") is True
    assert first_difference([x, 1], (x, Poly.one()), "seq") is True


def test_first_difference_names_the_first_differing_entry():
    x = Poly.var("x")
    got = Truncation([[1, 0, 0], [x, 1, 0], [x, x, 2]])
    want = Truncation([[1, 0, 0], [x, 1, 0], [x, 2 * x, 1]])
    mismatch = first_difference(got, want, "rows")
    assert not mismatch
    assert mismatch == Mismatch("rows", (2, 1), x, 2 * x)
    assert str(mismatch) == "rows disagree at (2,1): x vs 2*x"
    assert json.loads(json.dumps(mismatch.to_json_obj())) == {
        "what": "rows", "where": [2, 1], "got": x.to_json_obj(), "want": (2 * x).to_json_obj()}
    assert first_difference([x, x, 1], [x, x], "seq") == Mismatch("seq", "shape", 3, 2)
    assert first_difference([x, 1], [x, 2], "seq") == Mismatch("seq", 1, Poly.one(), 2)
    assert first_difference(got, got.truncate(2, 3), "rows") == Mismatch(
        "rows", "shape", (3, 3), (2, 3))


def test_first_difference_names_the_key_of_a_dict_mismatch():
    x = Poly.var("x")
    got, want = {(0, -1): x, (2, 0, 1): 1, 5: 2}, {(0, -1): x, (2, 0, 1): 3, 5: 2}
    assert first_difference(got, dict(got), "keyed") is True
    mismatch = first_difference(got, want, "keyed")
    assert mismatch == Mismatch("keyed", (2, 0, 1), 1, 3)
    assert str(mismatch) == "keyed disagree at (2,0,1): 1 vs 3"
    assert first_difference({1: True}, {1: True, 2: True}, "by m") == Mismatch(
        "by m", "shape", [1], [1, 2])


def test_first_difference_ignores_the_insertion_order_of_dict_keys():
    assert first_difference({1: "a", 2: "b"}, {2: "b", 1: "a"}, "x") is True
    assert first_difference({1: "a", 2: "b"}, {2: "c", 1: "a"}, "x") == Mismatch("x", 2, "b", "c")
    assert first_difference({1: "a", 2: "b"}, {3: "b", 1: "a"}, "x") == Mismatch(
        "x", "shape", [1, 2], [3, 1])


def test_tp_report_is_truthy_exactly_when_ok():
    assert tp_check_symbolic(Truncation([[1, 1], [1, 2]]), 2)
    assert not tp_check_symbolic(Truncation([[1, 2], [3, 1]]), 2)


def test_output_of_bidiagonal_toeplitz_is_binomial():
    p = _hess(lambda n, k: x if k == n else (1 if k == n + 1 else 0))
    assert output_matrix(p, 6) == binomial_truncation(x, 6)


def test_output_of_zero():
    o = output_matrix(_hess(lambda n, k: 0), 4)
    assert o[0, 0] == Poly.one()
    assert all(o[i, j].is_zero() for i in range(1, 4) for j in range(4))


def test_output_of_no_rows_is_empty():
    p = prodmat(LaguerreParams.symbolic(), "Pcirc")
    assert (output_matrix(p, 0).rows, output_matrix(p, 0).cols) == (0, 0)
    assert output_matrix(p, 1) == Truncation.identity(1)


def test_output_pcirc_column_zero():
    o = output_matrix(prodmat(LaguerreParams.symbolic(), "Pcirc"), 4)
    assert o[3, 0] == (1 + a) * (2 + a) * (3 + a)


def test_production_of_identity_is_delta():
    assert production_of(Truncation.identity(5)) == delta_matrix().truncate(4, 5)


def test_production_of_binomial():
    got = production_of(binomial_truncation(x, 6))
    want = Truncation.from_fn(5, 6, lambda n, k: x if k == n else (1 if k == n + 1 else 0))
    assert got == want


def test_production_of_laguerre_coeff_matrix():
    params = LaguerreParams.symbolic()
    got = production_of(coeff_matrix_uni(params, 6))
    assert got == prodmat(params, "Pcirc").truncate(5, 6)


def test_production_of_rejects_non_unit_diagonal():
    with pytest.raises(NonUnitDiagonalError):
        production_of(Truncation([[1, 0], [0, 2]]))


def test_conjugate_delta():
    xi = Poly.var("xi")
    got = conjugate_by_binomial(delta_matrix(), xi, 5)
    want = Truncation.from_fn(5, 5, lambda n, k: xi if k == n else (1 if k == n + 1 else 0))
    assert got == want


def test_conjugate_pcirc_gives_quadridiagonal():
    params = LaguerreParams.symbolic()
    xi = Poly.var("xi")
    got = conjugate_by_binomial(prodmat(params, "Pcirc"), xi, 6)
    assert got == prodmat(params, "P", x=xi).truncate(6)


def test_conjugate_identity_matrix():
    eye = DiagonalPolySpec(0, ((0,), (1,)))
    assert conjugate_by_binomial(eye, Poly.var("xi"), 4) == Truncation.identity(4)


def _substitute(m, env):
    """m with env substituted into every entry."""
    return Truncation([[e.substitute(env) for e in row] for row in m.data])


def _leibniz_det(m):
    """Test-only reference determinant: the Leibniz sum over permutations,
    folded with + and - (the minors compared here are at most 5x5)."""
    total = Poly.zero()
    for perm in itertools.permutations(range(m.rows)):
        inversions = sum(1 for i, j in itertools.combinations(perm, 2) if i > j)
        term = Poly.one()
        for i, j in enumerate(perm):
            term = term * m[i, j]
        total = total - term if inversions % 2 else total + term
    return total


def test_leibniz_reference_det():
    b, c = Poly.var("b"), Poly.var("c")
    assert _leibniz_det(Truncation([[1, 1], [x, 1 + x]])) == Poly.one()
    assert _leibniz_det(Truncation([[1, x], [x, 2 * x + x ** 2]])) == 2 * x
    assert _leibniz_det(Truncation([[a, 0, 0], [0, b, 0], [0, 0, c]])) == a * b * c
    # one transposition among rows 1, 2: sign -1
    assert _leibniz_det(Truncation([[a, 0, 0], [0, 0, b], [0, c, 0]])) == -(a * b * c)
    assert _leibniz_det(Truncation([])) == Poly.one()


def test_tp_binomial_matrix_passes():
    assert tp_check_symbolic(binomial_truncation(x, 5), 3).ok


def test_tp_fails_with_witness():
    report = tp_check_symbolic(Truncation([[1, 2], [3, 1]]), 2)
    assert not report.ok
    assert report.witness.minor == Poly.const(-5)
    assert report.witness.rows == (0, 1) and report.witness.cols == (0, 1)


def test_tp_sfraction_production_factorization():
    m = sfraction_word(lambda i: Poly.var(f"al{i}") if i >= 1 else Poly.zero(), 1, 0).truncate(5)
    assert tp_check_symbolic(m, 4).ok


def test_tp_sampled_flat_quadridiagonal_passes():
    yp, yv, yda, ydd = (Poly.var(v) for v in ("yp", "yv", "yda", "ydd"))
    w = VertexWeights(y_p=yp, y_v=yv, y_da=yda, y_dd=ydd, y_fp=yp)
    # substitute y_da -> y_p + s, y_dd -> y_v + t to satisfy the constraint
    m = prodmat(LaguerreParams.symbolic(), "PFlat", weights=w, x=x).truncate(7)
    m = _substitute(m, {"yda": yp + Poly.var("s"), "ydd": yv + Poly.var("t"),
                        "a": Poly.var("lam") - 1})
    assert tp_check_sampled(m, 4, seed=11, samples=50).ok


def test_tp_sampled_detects_violated_constraint():
    one, zero = Poly.one(), Poly.zero()
    w = VertexWeights(y_p=one, y_v=one, y_da=zero, y_dd=zero, y_fp=one)
    m = prodmat(LaguerreParams.of(0), "PFlat", weights=w, x=x).truncate(7)
    report = tp_check_sampled(m, 4, seed=7, samples=50)
    assert not report.ok
    assert report.witness.assignment is not None
    # the witness substitution really does produce a negative minor
    grid = _substitute(m, {k: Poly.const(v) for k, v in report.witness.assignment.items()})
    sub = grid.submatrix(report.witness.rows, report.witness.cols)
    assert _leibniz_det(sub).as_constant() == report.witness.minor < 0


def test_tp_sampled_zero_matrix():
    assert tp_check_sampled(Truncation.zero(3, 3), 2, seed=1, samples=5).ok


def test_tp_check_colex_short_circuit_order():
    # first failing minor in colex order is reported
    m = Truncation([[0, 5, 1], [1, 0, 2], [0, 1, 0]])
    report = tp_check_symbolic(m, 2)
    assert not report.ok
    assert report.witness.rows == (0, 1) and report.witness.cols == (0, 1)


def test_eaz_entries():
    a_seq = [Poly.var(f"a{i}") for i in range(4)]
    z_seq = [Poly.var(f"z{i}") for i in range(4)]
    m = eaz_matrix(a_seq, z_seq)
    assert m(2, 1) == 2 * (Poly.var("z1") + Poly.var("a2"))
    assert m(3, 4) == Poly.var("a0")
    assert eaz_matrix([0], [0]).truncate(4) == Truncation.zero(4, 4)


def test_eaz_reproduces_pcirc():
    params = LaguerreParams.symbolic()
    lam = params.lam
    m = eaz_matrix([1, 2, 1], [lam, lam])
    assert m.truncate(7) == prodmat(params, "Pcirc").truncate(7)


def _eaz_reference(a_seq, z_seq):
    """eaz_matrix's old hand-written entry function, kept as a test oracle:
    (n!/k!) (z_{n-k} + k a_{n-k+1}), a_0 on the superdiagonal."""
    def at(seq, i):
        return _p(seq[i]) if 0 <= i < len(seq) else Poly.zero()

    def fn(n, k):
        if k == n + 1:
            return at(a_seq, 0)
        return (at(z_seq, n - k) + at(a_seq, n - k + 1) * k) * math.perm(n, n - k)

    return _hess(fn)


def _syms(prefix, count):
    return [Poly.var(f"{prefix}{i}") for i in range(count)]


@pytest.mark.parametrize("a_seq,z_seq", [
    (_syms("a", 12), _syms("z", 12)), (_syms("a", 3), _syms("z", 7)),
    (_syms("a", 7), _syms("z", 2)), (_syms("a", 1), []), ([], _syms("z", 1)), ([], []),
    ([1, 2, 1], [3, 3]), ([2, -1, 0, 5], [Fraction(1, 2), 0, 4]), ([0], [0])],
    ids=["sym-12", "sym-z-longer", "sym-a-longer", "a0-only", "z0-only", "empty",
         "pcirc-at-alpha-2", "int-and-rational", "zero"])
def test_eaz_matches_the_entry_function_reference(a_seq, z_seq):
    assert eaz_matrix(a_seq, z_seq).truncate(12) == Truncation.from_fn(
        12, 12, _eaz_reference(a_seq, z_seq))


def test_bx_conjugate_eaz_identity():
    a_seq = [Poly.var(f"a{i}") for i in range(6)]
    z_seq = [Poly.var(f"z{i}") for i in range(6)]
    assert bx_conjugate_eaz_identity_check(a_seq, z_seq, 6)


def test_riordan_laguerre_pair():
    # the five-variable cycle and path EGFs at y = 1
    from lagtp.laguerre import UNIT_WEIGHTS, riordan_pair
    params = LaguerreParams.symbolic()
    f, g = riordan_pair(params, UNIT_WEIGHTS, 5)
    assert riordan_matrix(f, g, 5) == coeff_matrix_uni(params, 5)


def test_riordan_binomial_and_identity():
    xi = Poly.var("xi")
    ex = (Series.t(5) * xi).exp()
    assert riordan_matrix(ex, Series.t(5), 5) == binomial_truncation(xi, 5)
    assert riordan_matrix(Series.one(5), Series.t(5), 5) == Truncation.identity(5)


def test_riordan_rejects_non_integer_entries():
    from fractions import Fraction
    f = Series([1, Fraction(1, 2)], 4)
    with pytest.raises(RiordanIntegralityError):
        riordan_matrix(f, Series.t(4), 4)


def test_unit_lower_inverse():
    params = LaguerreParams.symbolic()
    m = coeff_matrix_uni(params, 5)
    assert m * unit_lower_inverse(m) == Truncation.identity(5)


def test_hankel_truncation_shape():
    seq = [Poly.const(i) for i in range(9)]
    h = hankel_truncation(seq, 5)
    assert h[2, 2] == Poly.const(4)
    with pytest.raises(ValueError):
        hankel_truncation(seq[:3], 5)


def test_matrix_json_round_trip():
    m = binomial_truncation(x, 3)
    obj = json.loads(m.to_json())
    assert Truncation.from_json_obj(obj) == m


@pytest.mark.parametrize("rows,cols", [(True, True), (True, 1), (1, True), (1.0, 1)])
def test_matrix_json_rejects_non_integer_shape(rows, cols):
    obj = {"rows": rows, "cols": cols, "entries": [[Poly.one().to_json_obj()]]}
    with pytest.raises(ValueError):
        Truncation.from_json_obj(obj)


@pytest.mark.parametrize("seed", range(6))
def test_product_matches_a_fold_over_every_pair(seed):
    # sparse operands (zero rows, zero columns, isolated entries) of several shapes
    rng = random.Random(seed)
    n, k, m = rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(1, 6)
    lhs = _random_matrix(rng, n, k, 0.3)
    rhs = _random_matrix(rng, k, m, 0.3)
    want = [[Poly.zero()] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            for t in range(k):
                want[i][j] = want[i][j] + lhs[i, t] * rhs[t, j]
    assert lhs * rhs == Truncation(want)


def test_tp_report_json_fields():
    report = tp_check_symbolic(Truncation([[1, 2], [3, 1]]), 2)
    obj = report.to_json_obj()
    assert obj["ok"] is False and obj["order"] == 2
    assert obj["witness"]["rows"] == [0, 1] and obj["witness"]["cols"] == [0, 1]
    assert Poly.from_json_obj(obj["witness"]["minor"]) == Poly.const(-5)


@pytest.mark.parametrize("seed, first", [
    (1, [1082269761, 1152992998833853505, 11177516664432764457, 17678023832001937445,
         9659130143999365733, 17775799001133815809, 11693034620340510321,
         14279964170112293133]),
    (42, [45454805674, 11532217803599905471, 10021416941527320954, 2899061411254629736,
          5661411637479084162, 10094803945545275427, 11439985393877029075,
          10624261412083704114])])
def test_xorshift_first_states_are_pinned(seed, first):
    # recorded from the generator before its draws shared one loop
    rng = XorShift64(seed)
    assert [rng.next_u64() for _ in range(8)] == first


def test_xorshift_is_deterministic():
    rng1, rng2 = XorShift64(9), XorShift64(9)
    assert [rng1.next_small() for _ in range(20)] == [rng2.next_small() for _ in range(20)]
    rng = XorShift64(3)
    assert {rng.next_small() for _ in range(200)} == {0, 1, 2, 3}


@pytest.mark.parametrize("seed", [0, 1, 42, 2 ** 63, 2 ** 64 - 1])
def test_block_draws_continue_the_next_small_stream(seed):
    rng, ref = XorShift64(seed), XorShift64(seed)
    for count in (0, 1, 55, 660):
        assert matrices._draws(rng, count, 62) == [ref.next_small() for _ in range(count)]
        assert rng.state == ref.state


# -- the minor scan against per-minor references ---------------------------------


def _colex(n, size):
    return sorted(itertools.combinations(range(n), size), key=lambda c: c[::-1])


def _minors_in_scan_order(n_rows, n_cols, order):
    for size in range(1, min(order, n_rows, n_cols) + 1):
        for rows in _colex(n_rows, size):
            for cols in _colex(n_cols, size):
                yield rows, cols


def _fraction_det(grid):
    """Gaussian elimination over Fraction."""
    g = [[Fraction(v) for v in row] for row in grid]
    det = Fraction(1)
    for k in range(len(g)):
        pivot = next((i for i in range(k, len(g)) if g[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            g[k], g[pivot] = g[pivot], g[k]
            det = -det
        det *= g[k][k]
        for i in range(k + 1, len(g)):
            f = g[i][k] / g[k][k]
            for j in range(k, len(g)):
                g[i][j] -= f * g[k][j]
    return det


def _reference_symbolic(m, order):
    """The per-minor scan: the Leibniz determinant of each submatrix in colex order."""
    checked = 0
    for rows, cols in _minors_in_scan_order(m.rows, m.cols, order):
        minor = _leibniz_det(m.submatrix(rows, cols))
        checked += 1
        if not minor.is_coeffwise_nonneg():
            return False, checked, (rows, cols, minor, None, None)
    return True, checked, None


def _evaluate(m, env):
    """The entries of m under env, by substitution: an independent route
    from the sampled scan's own evaluation."""
    return [[e.substitute(env).as_constant() for e in row] for row in m.data]


def _reference_sampled(m, order, seed, samples):
    """The per-minor sampled scan, sample by sample, with a Fraction
    determinant per minor."""
    names = tuple(sorted({v for row in m.data for e in row for v in e.vars}))
    rng = XorShift64(seed)
    checked = 0
    for s_index in range(samples):
        env = {v: SAMPLE_VALUES[rng.next_small()] for v in names}
        grid = _evaluate(m, env)
        if any(type(v) is not int for row in grid for v in row):
            raise ValueError("sampled TP check needs integer-valued entries")
        for rows, cols in _minors_in_scan_order(m.rows, m.cols, order):
            val = _fraction_det([[grid[i][j] for j in cols] for i in rows])
            checked += 1
            if val < 0:
                return False, checked, (rows, cols, val, env, s_index)
    return True, checked, None


def _summary(report):
    w = report.witness
    if w is None:
        return report.ok, report.checked, None
    return report.ok, report.checked, (w.rows, w.cols, w.minor, w.assignment, w.sample_index)


_POOL = [Poly.one(), x, a, Poly.var("y"), x * a, x + 1]


def _rand_poly(rng, negative_odds):
    acc = Poly.zero()
    for _ in range(rng.randrange(3)):
        c = rng.randrange(1, 4)
        if rng.random() < negative_odds:
            c = -c
        acc = acc + rng.choice(_POOL) * c
    return acc


def _random_matrix(rng, n_rows, n_cols, negative_odds):
    return Truncation([[_rand_poly(rng, negative_odds) for _ in range(n_cols)]
                       for _ in range(n_rows)])


def _bidiagonal_product(rng, n):
    """Lower times upper times lower bidiagonal, nonnegative entries: TP (LGV)."""
    prod = Truncation.identity(n)
    for f in range(3):
        entries = {}
        for i in range(n):
            entries[i, i] = _rand_poly(rng, 0) + 1
            if i:
                entries[(i, i - 1) if f % 2 == 0 else (i - 1, i)] = _rand_poly(rng, 0)
        prod = prod * Truncation.from_fn(n, n, lambda i, j: entries.get((i, j), 0))
    return prod


def _swap_adjacent_rows(m, i):
    rows = list(range(m.rows))
    rows[i], rows[i + 1] = rows[i + 1], rows[i]
    return m.submatrix(rows, range(m.cols))


CATALAN = (1, 1, 2, 5, 14, 42, 132)  # its 4x4 Hankel matrix is TP

# {kind: (index, value, planted, first)}: lowering the Catalan number at
# ``index`` to ``value`` makes the minor on ``planted`` (rows, cols)
# negative; ``first``, its copy shifted up one row and right one column
# or its transpose, comes before it in colex order and fails first
PLANTED_HANKELS = {
    "shifted": (5, 24, ((1, 3), (0, 2)), ((0, 2), (1, 3))),
    "transposed": (4, 9, ((1, 3), (0, 1)), ((0, 1), (1, 3))),
}


def _planted_hankel(index, value):
    seq = list(CATALAN)
    seq[index] = value
    return hankel_truncation(seq, 4)


def _scan_cases():
    rng = random.Random(20231)
    cases = []
    for n_rows, n_cols, order in [(3, 3, 3), (4, 4, 4), (3, 5, 3), (5, 3, 4), (4, 6, 5),
                                  (5, 5, 4), (2, 4, 7), (1, 4, 2)]:
        for odds in (0.0, 0.1, 0.5):
            cases.append((f"random{n_rows}x{n_cols}-odds{odds}",
                          _random_matrix(rng, n_rows, n_cols, odds), order))
    for n in (4, 5):
        b = _bidiagonal_product(rng, n)
        cases.append((f"bidiagonal{n}", b, 4))
        cases.append((f"bidiagonal{n}-swapped", _swap_adjacent_rows(b, rng.randrange(n - 1)), 3))
        perturbed = [list(row) for row in b.data]
        perturbed[rng.randrange(n)][rng.randrange(n)] -= x
        cases.append((f"bidiagonal{n}-perturbed", Truncation(perturbed), 4))
    zero_row = [list(row) for row in _bidiagonal_product(rng, 4).data]
    zero_row[2] = [Poly.zero()] * 4
    cases.append(("zero-row", Truncation(zero_row), 4))
    cases.append(("zero-col", Truncation(zero_row).transpose(), 4))
    cases.append(("zero-matrix", Truncation.zero(3, 4), 3))
    cases.append(("no-rows", Truncation([]), 2))
    cases.append(("no-cols", Truncation([[], [], []]), 2))
    cases.append(("non-tp-2x2", Truncation([[1, 2], [3, 1]]), 2))
    # TP2 but not TP3, and (tridiagonal, 3 on the diagonal, 2 beside it) TP3
    # but not TP4; scaling row i by u_i and column j by v_j keeps every sign
    tp2 = [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 1], [0, 0, 1, 1]]
    tp3 = [[3 if i == j else 2 if abs(i - j) == 1 else 0 for j in range(5)] for i in range(5)]
    for name, grid, order in (("tp2-not-tp3", tp2, 4), ("tp3-not-tp4", tp3, 4)):
        cases.append((name, Truncation.from_fn(
            len(grid), len(grid),
            lambda i, j: grid[i][j] * Poly.var(f"u{i}") * Poly.var(f"v{j}")), order))
    # the determinant is 5 - x^2, so sampled mode fails at the first x = 3
    y = Poly.var("y")
    cases.append(("fails-at-x3", Truncation([[1, 1, 0], [y, 1 + y, x], [0, x, 5]]), 3))
    for m in (1, 2):
        tri = SRTriangles(SRCoeffs.symbolic(m), max_j=m + 1)
        seq = [tri.value(m + 1, i, 0) for i in range(5)]
        cases.append((f"type-{m + 1}-hankel-m{m}", hankel_truncation(seq, 3), 3))
    # Hankel grids, where the scan computes each distinct minor once
    for odds in (0.0, 0.1, 0.5):
        seq = [_rand_poly(rng, odds) for _ in range(9)]
        cases.append((f"hankel5-odds{odds}", hankel_truncation(seq, 5), 4))
    for name, (index, value, _, _) in PLANTED_HANKELS.items():
        cases.append((f"hankel4-planted-{name}", _planted_hankel(index, value), 4))
    # banded grids, where the top-size minors with a zero block are certified
    quad = build_general_quad(QuadFactorParams.symbolic()).truncate(5)
    cases.append(("general-quad5-tp3", quad, 3))
    cases.append(("general-quad5-tp4", quad, 4))
    cases.append(("laguerre-lower5", coeff_matrix_uni(LaguerreParams.symbolic(), 5), 3))
    # a 4 x 6 block of a product of bidiagonals with nonnegative entries: TP
    banded = (lower_bidiagonal(lambda i: 1 + x, lambda i: y + i)
              * upper_bidiagonal(lambda i: 1 + a, lambda i: x + i)
              * lower_bidiagonal(lambda i: 1 + y, lambda i: a)).truncate(4, 6)
    cases.append(("banded4x6", banded, 4))
    # tridiagonal, 2 + x on the diagonal and 1 beside it, but 1 + x on the
    # last two rows: only the last minor, on rows and columns (2, 3, 4), has
    # a negative coefficient (-1 + 3x + 4x^2 + x^3), and certified minors
    # such as rows (0, 1, 2) on columns (0, 1, 3) come before it
    cases.append(("tridiagonal5-planted-last", Truncation.from_fn(
        5, 5, lambda i, j: (1 if i > 2 else 2) + x if i == j else int(abs(i - j) == 1)), 3))
    return cases


SCAN_CASES = _scan_cases()


def _scanned_minors(grid, order, dot):
    """(checked, every minor the scan hands to its sign test, in scan
    order), collected by a sign test that records each minor and passes it."""
    seen = []
    checked, bad = _first_negative_minor(grid, order, dot,
                                         lambda minor: seen.append(minor) or True)
    assert bad is None
    return checked, seen


def _zero_block(m, rows, cols):
    """The least k, 0 < k < size, at which the submatrix on rows and cols
    has a zero block in its natural order (rows[:k] on cols[k:], or
    rows[k:] on cols[:k]), or None."""
    zero = lambda rs, cs: not any(m[i, j] for i in rs for j in cs)
    return next((k for k in range(1, len(rows))
                 if zero(rows[:k], cols[k:]) or zero(rows[k:], cols[:k])), None)


def _is_hankel(m):
    return m.rows == m.cols and all(m[i, k] == m[i + 1, k - 1]
                                    for i in range(m.rows - 1) for k in range(1, m.cols))


@pytest.mark.parametrize("name,m,order", SCAN_CASES, ids=[c[0] for c in SCAN_CASES])
def test_minor_scan_yields_every_minor_in_colex_order(name, m, order):
    # every minor handed to the sign test is its Leibniz determinant, in
    # colex order; every other counted minor is a top-size minor of a grid
    # that is not Hankel, with a zero block in its natural order, and so
    # the product of its two diagonal blocks' determinants
    top, hankel = min(order, m.rows, m.cols), _is_hankel(m)
    want, certified = [], 0
    for rows, cols in _minors_in_scan_order(m.rows, m.cols, order):
        sub = m.submatrix(rows, cols)
        k = None if hankel or len(rows) < top else _zero_block(m, rows, cols)
        if k is None:
            want.append(_leibniz_det(sub))
        else:
            certified += 1
            a11, a22 = (sub.submatrix(part, part) for part in (range(k), range(k, top)))
            assert _leibniz_det(sub) == _leibniz_det(a11) * _leibniz_det(a22)
    checked, got = _scanned_minors(m.data, order, Poly.dot)
    assert checked == len(want) + certified
    assert got == want


@pytest.mark.parametrize("name,m,order", SCAN_CASES, ids=[c[0] for c in SCAN_CASES])
def test_symbolic_scan_matches_per_minor_reference(name, m, order):
    assert _summary(tp_check_symbolic(m, order)) == _reference_symbolic(m, order)


@pytest.mark.parametrize("name,m,order", SCAN_CASES, ids=[c[0] for c in SCAN_CASES])
def test_sampled_scan_matches_fraction_reference(name, m, order):
    report = tp_check_sampled(m, order, seed=7, samples=8)
    assert _summary(report) == _reference_sampled(m, order, seed=7, samples=8)
    if report.witness is not None:
        assert type(report.witness.minor) is int


@st.composite
def _planted_grids(draw, kind):
    """(matrix, order, seed, samples): a random integer grid in x and y,
    Hankel or not, the grid (j + 1 + x)^i, all of whose minors are
    positive at x >= 0, or a grid with a negative minor planted in the
    first or the last column block of a row set.  The plants negate an
    entry of (j + 1 + x)^i in its first or last column (size 1), or swap
    its first or last two columns (size 2: the minor on them turns
    negative), or build a square tridiagonal grid, TP apart from a 3 x 3
    block with 1 + x on its diagonal and 1 beside it, placed first or
    last, whose determinant is negative at x = 0 only (size 3)."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    low = draw(st.sampled_from([-1, 0]))  # 0: no entry is negative at any sample
    entry = lambda: Poly.dot((v, draw(st.integers(low, 3))) for v in (Poly.one(), x, y))
    last = draw(st.booleans())
    if kind == "hankel":
        seq = [entry() for _ in range(2 * rows - 1)]
        grid = [[seq[i + j] for j in range(rows)] for i in range(rows)]
    elif kind == "random":
        grid = [[entry() for _ in range(cols)] for _ in range(rows)]
    elif kind == "tridiagonal":
        n = max(rows, 3 + last)
        block = lambda i: i >= n - 3 if last else i < 3
        grid = [[(1 + x if block(i) else 2) if i == j else
                 int(abs(i - j) == 1 and block(i) == block(j)) for j in range(n)]
                for i in range(n)]
    else:
        grid = [[(j + 1 + x) ** i for j in range(cols)] for i in range(rows)]
        j = cols - 2 if last else 0
        if kind == "swap" and cols > 1:
            for row in grid:
                row[j], row[j + 1] = row[j + 1], row[j]
        elif kind != "tp":
            grid[draw(st.integers(0, rows - 1))][cols - 1 if last else 0] *= -1
    # mixed 64-bit seeds: the first draw of every seed below 2^32 is 0
    seeds = (random.Random(k).getrandbits(64)
             for k in itertools.count(draw(st.integers(0, 10 ** 6))))
    order, samples = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    if kind == "tridiagonal" and draw(st.booleans()):
        def late(seed):  # sample 0 has x != 0 and a later one x = 0: only a later lane fails
            first, *rest = [env["x"] == 0 for env in _draws(("x",), seed, 3)]
            return not first and any(rest)
        samples, seed = 3, next(filter(late, seeds))
    else:
        seed = next(seeds)
    return Truncation(grid), order, seed, samples


@pytest.mark.parametrize("kind", ["random", "hankel", "tp", "entry", "swap", "tridiagonal"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_both_scans_match_the_per_minor_references_on_planted_grids(kind, data):
    m, order, seed, samples = data.draw(_planted_grids(kind))
    assert _summary(tp_check_sampled(m, order, seed, samples)) == \
        _reference_sampled(m, order, seed, samples)
    assert _summary(tp_check_symbolic(m, order)) == _reference_symbolic(m, order)


# -- each distinct Hankel minor computed once -------------------------------------


@pytest.mark.parametrize("kind", sorted(PLANTED_HANKELS))
def test_hankel_scan_names_the_colex_first_copy_of_a_planted_minor(kind):
    index, value, planted, first = PLANTED_HANKELS[kind]
    rows, cols = planted
    if kind == "shifted":
        assert first == (tuple(i - 1 for i in rows), tuple(j + 1 for j in cols))
    else:
        assert first == (cols, rows)
    m = _planted_hankel(index, value)
    minor = _leibniz_det(m.submatrix(rows, cols))
    assert minor.as_constant() < 0
    assert _leibniz_det(m.submatrix(*first)) == minor
    scan_order = list(_minors_in_scan_order(4, 4, 4))
    assert scan_order.index(first) < scan_order.index(planted)
    report = tp_check_symbolic(m, 4)
    assert (report.witness.rows, report.witness.cols, report.witness.minor) == (*first, minor)
    assert report.to_json() == _reference_report(m, 4).to_json() == _dict_path_json(m, 4)
    sampled = tp_check_sampled(m, 4, seed=1, samples=3)
    assert (sampled.witness.rows, sampled.witness.cols) == first
    assert _summary(sampled) == _reference_sampled(m, 4, seed=1, samples=3)


def _counting_dot(calls):
    def dot(pairs):
        calls.append(1)
        return sum(a * b for a, b in pairs)
    return dot


@pytest.mark.parametrize("n,order,checked,distinct",
                         [(4, 3, 68, 35), (5, 3, 225, 98), (6, 3, 661, 251), (7, 4, 2940, 1104)])
def test_hankel_scan_computes_each_distinct_minor_once(n, order, checked, distinct):
    # the 2n - 1 distinct entries are read; every other distinct minor is one dot
    grid = [[i + k for k in range(n)] for i in range(n)]
    calls = []
    scan = lambda: _first_negative_minor(grid, order, _counting_dot(calls), lambda v: True)
    assert scan() == (checked, None)
    assert len(calls) + 2 * n - 1 == distinct
    # off the Hankel structure every minor of size > 1 is computed
    grid[n - 1][0] += 1
    calls.clear()
    assert scan() == (checked, None)
    assert len(calls) == checked - n * n


def test_zero_block_certificate_saves_the_top_size_dots_of_a_banded_grid():
    # a quadridiagonal grid (nonzero at -1 <= i - k <= 2) at TP4: every
    # minor of sizes 2 and 3 is one dot (441 + 1225), since they feed the
    # next size, but 1181 of the 1225 of size 4 have a zero block in their
    # natural order and are counted without one (without the certificate
    # every minor of size > 1 would be a dot, 2891 in all)
    grid = [[i + k + 1 if -1 <= i - k <= 2 else 0 for k in range(7)] for i in range(7)]
    calls = []
    assert _first_negative_minor(grid, 4, _counting_dot(calls), lambda v: True) == (2940, None)
    assert len(calls) == 441 + 1225 + 1225 - 1181 == 1710


def test_first_failure_after_certified_minors_is_named():
    m = next(m for name, m, _ in SCAN_CASES if name == "tridiagonal5-planted-last")
    report = tp_check_symbolic(m, 3)
    assert (report.checked, report.witness.rows, report.witness.cols) == (225, (2, 3, 4), (2, 3, 4))
    assert report.witness.minor == -1 + 3 * x + 4 * x ** 2 + x ** 3
    assert _zero_block(m, (2, 3, 4), (2, 3, 4)) is None
    # the top-size minors before it include certified ones
    assert _zero_block(m, (0, 1, 2), (0, 1, 3)) == 2


@st.composite
def _zero_pattern_grids(draw):
    """(matrix, order): a grid of up to 5 x 6 entries in x and y with zeros.
    Either each entry is zero at random or off a random band, the rest with
    coefficients in [low, 3]; or the grid is the top-left block of a product
    of bidiagonals whose entries may be zero (TP, banded or sparser), with
    one entry raised by x y half the time, which can turn minors negative."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        n = max(rows, cols)
        pick = lambda: draw(st.sampled_from([Poly.zero(), Poly.one(), x, y, 1 + x, 2 + y]))
        m = Truncation.identity(n)
        for _ in range(draw(st.integers(1, 4))):
            factor = lower_bidiagonal if draw(st.booleans()) else upper_bidiagonal
            diag, off = [pick() for _ in range(n)], [pick() for _ in range(n)]
            m = m * factor(diag.__getitem__, off.__getitem__).truncate(n)
        grid = [list(row[:cols]) for row in m.data[:rows]]
        if draw(st.booleans()):
            grid[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] += x * y
    else:
        low = draw(st.sampled_from([-1, 0]))
        if draw(st.booleans()):
            below, above = draw(st.integers(0, 3)), draw(st.integers(0, 3))
            live = lambda i, j: -above <= i - j <= below
        else:
            zeros = draw(st.sets(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))))
            live = lambda i, j: (i, j) not in zeros
        entry = lambda: Poly.dot((v, draw(st.integers(low, 3))) for v in (Poly.one(), x, y))
        grid = [[entry() if live(i, j) else Poly.zero() for j in range(cols)] for i in range(rows)]
    return Truncation(grid), draw(st.integers(1, 5))


@settings(max_examples=80, deadline=None)
@given(case=_zero_pattern_grids())
def test_symbolic_scan_matches_the_reference_on_random_zero_patterns(case):
    m, order = case
    assert _summary(tp_check_symbolic(m, order)) == _reference_symbolic(m, order)


def test_minor_scan_reads_its_shape_off_the_grid():
    # a 3 x 5 grid at order 3: 15 entries, 3 * 10 minors of size 2, 10 of size 3
    grid = [[i + k for k in range(5)] for i in range(3)]
    assert _first_negative_minor(grid, 3, _counting_dot([]), lambda v: True) == (55, None)
    # every entry and the minors on columns (0, 1) and (0, 2) pass; only the
    # last column set of a 2 x 3 grid fails, which a 2 x 2 scan never meets
    grid = [[1, 1, 2], [0, 3, 1]]
    assert _first_negative_minor(grid, 2, _counting_dot([]), lambda v: v >= 0) == (
        9, ((0, 1), (1, 2), -5))


def test_lane_scan_reads_the_lane_count_off_the_grid():
    # the 2 x 2 minor is 1, 1 and -1 in the three lanes
    grid = [[[1, 1, 1], [1, 1, 1]], [[1, 1, 1], [2, 2, 0]]]
    assert matrices._first_negative_lane(grid, 2) == (5, ((0, 1), (0, 1), [1, 1, -1]))
    assert matrices._first_negative_lane([[e[:2] for e in row] for row in grid], 2) == (5, None)


# -- the sampled scan on distinct assignments -------------------------------------


def _repeated_assignment_cases():
    """{name: matrix whose only negative minor is negative at one assignment
    of the sample values}: f is -2 at x = 2 and 0 at x = 0, 1, 3; g is 6 at
    y = 3 and 0 at y = 0, 1, 2."""
    y = Poly.var("y")
    f = x * (x - 1) * (x - 3)
    g = y * (y - 1) * (y - 2)
    return {
        "one-variable": Truncation([[1, 1], [1, 2 + f]]),  # the 2x2 minor 1 + f
        # the 2x2 minor on rows and columns 0, 1 is 11 + fg
        "two-variable": Truncation([[1, 1, 0], [1, 12 + f * g, 0], [0, 0, 1 + y]]),
    }


def _draws(names, seed, samples):
    rng = XorShift64(seed)
    return [{v: SAMPLE_VALUES[rng.next_small()] for v in names} for _ in range(samples)]


@pytest.mark.parametrize("name", ["one-variable", "two-variable"])
def test_sampled_scan_of_repeated_assignments_matches_the_reference(name):
    m = _repeated_assignment_cases()[name]
    samples, repeated = 100, 0
    for seed in range(1, 51):
        report = tp_check_sampled(m, 3, seed, samples)
        assert _summary(report) == _reference_sampled(m, 3, seed, samples)
        assert not report.ok
        s = report.witness.sample_index
        draws = _draws(m.variables(), seed, samples)
        # the failing assignment first appears at s > 0 (sample 0 has x = 0)
        assert s > 0 and draws.index(report.witness.assignment) == s
        block_end = (s // _SAMPLE_BLOCK + 1) * _SAMPLE_BLOCK
        repeated += report.witness.assignment in draws[s + 1:block_end]
    # almost every failing assignment repeats later in its block
    assert repeated >= 45


def test_sampled_scan_evaluates_each_distinct_assignment_once(monkeypatch):
    y = Poly.var("y")
    m = Truncation([[1 + x, y], [0, 1 + y]])
    seen = []
    values = matrices._values
    monkeypatch.setattr(matrices, "_values",
                        lambda entries, envs: seen.append(envs) or values(entries, envs))
    samples = 2 * _SAMPLE_BLOCK + 22
    report = tp_check_sampled(m, 2, seed=3, samples=samples)
    assert report.ok and report.checked == samples * 5
    draws = _draws(("x", "y"), 3, samples)
    want = []
    for start in range(0, samples, _SAMPLE_BLOCK):
        want.append([])
        for env in draws[start:start + _SAMPLE_BLOCK]:
            if env not in want[-1]:
                want[-1].append(env)
    assert seen == want
    assert all(len(envs) <= 16 for envs in seen)


def test_sampled_scan_of_repeated_assignments_raises_only_after_earlier_samples_pass():
    # the 2x2 minor 1 + f fails at x = 2; y/2 is not an integer at odd y
    y = Poly.var("y")
    f = x * (x - 1) * (x - 3)
    m = Truncation([[1, 1, 0], [1, 2 + f, 0], [0, 0, y.scale(Fraction(1, 2))]])
    seen = collections.Counter()
    for seed in range(1, 51):
        got = _sampled_agrees(m, 3, seed, 100)
        first_rational = _first_sample_where(m, seed, 100, lambda env: env["y"] % 2)
        first_failing = _first_sample_where(m, seed, 100, lambda env: env["x"] == 2)
        if got[0] == "ValueError":  # a sample with both raises
            assert first_failing is None or first_rational <= first_failing
            seen["raises at sample 0" if first_rational == 0 else "raises later"] += 1
        else:
            assert got[2][4] == first_failing
            assert first_rational is None or first_failing < first_rational
            seen["witness"] += 1
    assert set(seen) == {"raises at sample 0", "raises later", "witness"}, seen


# -- the sampled scan's block structure -------------------------------------------


def _sampled_outcome(run):
    """The summary a sampled scan returns, or the ValueError it raises."""
    try:
        return run()
    except ValueError as exc:
        return "ValueError", str(exc)


def _first_sample_where(m, seed, samples, pred):
    """Index of the first sample whose assignment satisfies pred, or None."""
    names = m.variables()
    rng = XorShift64(seed)
    for s_index in range(samples):
        if pred({v: SAMPLE_VALUES[rng.next_small()] for v in names}):
            return s_index
    return None


def _sampled_agrees(m, order, seed, samples):
    got = _sampled_outcome(lambda: _summary(tp_check_sampled(m, order, seed, samples)))
    assert got == _sampled_outcome(lambda: _reference_sampled(m, order, seed, samples))
    return got


@pytest.mark.parametrize("check", [tp_check_symbolic, tp_check_sampled])
def test_tp_checks_refuse_an_order_below_one(check):
    for order in (0, -1):
        with pytest.raises(ValueError, match="order"):
            check(Truncation([[1, 2], [3, 1]]), order)
    assert check(Truncation([]), 1).ok  # an empty matrix is TP of every order


@pytest.mark.parametrize("samples", [0, -3])
def test_tp_check_sampled_refuses_fewer_than_one_sample(samples):
    with pytest.raises(ValueError, match="samples"):
        tp_check_sampled(Truncation([[1, 2], [3, 1]]), 2, samples=samples)


def test_sampled_scan_with_rational_entries():
    half = Fraction(1, 2)
    y = Poly.var("y")
    # x/2 is an integer at even x only; the determinant 6y + x/2 - 6 is
    # negative at y = 0, x even
    may_fail = Truncation([[1, 2], [3, 6 * y + x.scale(half)]])
    passes_when_integral = Truncation([[1, x.scale(half)], [0, 1]])
    seen = collections.Counter()
    # large seeds: the first draws of a small seed are all 0
    seeds = [random.Random(i).getrandbits(64) for i in range(30)]
    for m in (may_fail, passes_when_integral):
        for seed in seeds:
            got = _sampled_agrees(m, 2, seed, 10)
            first_rational = _first_sample_where(m, seed, 10, lambda env: env["x"] % 2)
            if got[0] == "ValueError":
                seen["raises at sample 0" if first_rational == 0 else "raises later"] += 1
            elif not got[0] and first_rational is not None:
                assert got[2][4] < first_rational
                seen["witness before a rational sample"] += 1
    assert set(seen) == {"raises at sample 0", "raises later",
                         "witness before a rational sample"}, seen
    # integer-valued at every sample: x(x+1)/2, with det 1 and det (x^2+x)/2 - 1
    tri = (x ** 2 + x).scale(half)
    assert _sampled_agrees(Truncation([[1, tri], [x, 1 + x * tri]]), 2, 3, 40)[0]
    assert not _sampled_agrees(Truncation([[tri, 1], [1, 1]]), 2, 3, 40)[0]


@pytest.mark.parametrize("n_rows,n_cols,order", [(3, 4, 2), (4, 4, 4), (5, 3, 9), (1, 1, 1)])
@pytest.mark.parametrize("samples", [1, _SAMPLE_BLOCK, _SAMPLE_BLOCK + 1, 2 * _SAMPLE_BLOCK + 2])
def test_passing_sampled_scan_counts_every_minor_of_every_sample(n_rows, n_cols, order,
                                                                 samples):
    m = _bidiagonal_product(random.Random(n_rows * 10 + n_cols), max(n_rows, n_cols))
    m = m.truncate(n_rows, n_cols)
    report = tp_check_sampled(m, order, seed=5, samples=samples)
    per_sample = sum(math.comb(n_rows, s) * math.comb(n_cols, s) for s in range(1, order + 1))
    assert report.ok and report.checked == samples * per_sample


def _rare(names):
    """1 when every named variable is 3, else 0, at the sample values."""
    out = Poly.one()
    for v in names:
        v = Poly.var(v)
        out = out * (v * (v - 1) * (v - 2)).scale(Fraction(1, 6))
    return out


def _rare_failure_matrix(rng, rational):
    """[[1, 1], [1, 2 - 3R]] beside a seeded 1 x 1 TP block, R = 1 when u0..u2
    are all 3 (else 0), rows and columns scaled by seeded integers 1..3;
    with ``rational``, the TP block then gains R'/2, R' = 1 when w0..w2 are
    all 3."""
    r = _rare([f"u{i}" for i in range(3)])
    grid = [[1, 1, 0], [1, 2 - 3 * r, 0], [0, 0, _bidiagonal_product(rng, 1)[0, 0]]]
    row_f = [rng.randrange(1, 4) for _ in range(3)]
    col_f = [rng.randrange(1, 4) for _ in range(3)]
    grid = [[grid[i][j] * (row_f[i] * col_f[j]) for j in range(3)] for i in range(3)]
    if rational:
        grid[2][2] = grid[2][2] + _rare([f"w{i}" for i in range(3)]).scale(Fraction(1, 2))
    return Truncation(grid)


@pytest.mark.parametrize("rational", [False, True])
def test_sampled_scan_finds_a_first_failure_in_a_later_block(rational):
    """Seeds whose first failing or rational sample lies past the first
    block: the blocked scan agrees with the sample-by-sample reference."""
    rng = random.Random(404)
    samples = 2 * _SAMPLE_BLOCK + 10
    u3 = lambda env: all(env[f"u{i}"] == 3 for i in range(3))
    w3 = lambda env: rational and all(env[f"w{i}"] == 3 for i in range(3))
    outcomes = []
    for _ in range(2):
        m = _rare_failure_matrix(rng, rational)
        found = 0
        for seed in range(1, 1000):
            first = _first_sample_where(m, seed, samples, lambda env: u3(env) or w3(env))
            if first is None or first < _SAMPLE_BLOCK:
                continue
            got = _sampled_agrees(m, 3, seed, samples)
            outcomes.append(got[0])
            if got[0] != "ValueError":
                assert not got[0] and got[2][4] == first
            found += 1
            if found == 2:
                break
        assert found == 2
    if rational:  # both endings occur: a later rational sample, a later failure
        assert "ValueError" in outcomes and False in outcomes, outcomes


def test_sampled_scan_rescans_the_samples_before_a_later_first_failure():
    # sample 0 (x = y = 0) fails only at the 2x2 minor, the fifth in scan
    # order; sample 1 (x = 2, y = 3) fails earlier, at the fourth, x - y.
    # The scan of the block meets sample 1's failure first, so only the
    # rescan of sample 0 finds the earliest failing sample.
    y = Poly.var("y")
    m = Truncation([[1, 1], [1, x - y]])
    rng = XorShift64(1)
    envs = [{v: SAMPLE_VALUES[rng.next_small()] for v in ("x", "y")} for _ in range(2)]
    assert envs == [{"x": 0, "y": 0}, {"x": 2, "y": 3}]
    report = tp_check_sampled(m, 2, seed=1, samples=8)
    w = report.witness
    assert (report.checked, w.sample_index, w.minor) == (5, 0, -1)
    assert _summary(report) == _reference_sampled(m, 2, seed=1, samples=8)


def test_symbolic_scan_looks_its_product_up_at_call_time(monkeypatch):
    # the row with a Fraction coefficient is scaled and the matrix packed;
    # its failing 2x2 minor is then recomputed as Polys, one Poly.dot
    m = Truncation([[x, Fraction(1, 2)], [1, x]])
    calls = []
    dot = Poly.dot
    monkeypatch.setattr(Poly, "dot", staticmethod(lambda pairs: calls.append(1) or dot(pairs)))
    assert _plan_kind(_plan(m, 2)) == "dense"
    assert calls


# -- the tridiagonal criterion against the full symbolic scan -------------------


def _tridiagonal_cases():
    """Seeded symbolic tridiagonals with nonnegative off-diagonals; a small
    diagonal against large off-diagonal products makes some contiguous
    principal minor negative."""
    rng = random.Random(4242)
    cases = []
    for trial in range(16):
        n = 3 + trial % 3
        big = trial % 2 == 1

        def entry(i, j):
            if i == j:
                return _rand_poly(rng, 0) + (0 if big else rng.randrange(2, 5))
            if abs(i - j) == 1:
                return _rand_poly(rng, 0) + (rng.randrange(1, 4) if big else 0)
            return 0

        cases.append(Truncation.from_fn(n, n, entry))
    # contiguous 2x2 minors 1 and x, but the 3x3 minor is -x
    cases.append(Truncation([[1, 1, 0], [1, 2, 3 * x], [0, 1, 2 * x]]))
    return cases


TRIDIAGONAL_CASES = _tridiagonal_cases()


def test_tridiagonal_cases_include_negative_contiguous_minors():
    def contiguous_ok(m):
        return all(_leibniz_det(m.submatrix(range(s, e), range(s, e))).is_coeffwise_nonneg()
                   for s in range(m.rows) for e in range(s + 1, m.rows + 1))

    verdicts = [contiguous_ok(m) for m in TRIDIAGONAL_CASES]
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("index", range(len(TRIDIAGONAL_CASES)))
def test_tridiagonal_criterion_matches_symbolic_scan(index):
    m = TRIDIAGONAL_CASES[index]
    for order in (1, 2, 3, m.rows):
        assert tp_check_tridiagonal(m, order) == tp_check_symbolic(m, order).ok, order


def test_tridiagonal_criterion_refuses_an_order_below_one():
    for order in (0, -1):
        with pytest.raises(ValueError, match="order must be at least 1"):
            tp_check_tridiagonal(Truncation([[-1]]), order)
    assert tp_check_tridiagonal(Truncation([]), 1)  # an empty matrix is TP of every order


def test_tridiagonal_criterion_rejects_negative_off_diagonal_and_non_tridiagonal():
    assert not tp_check_tridiagonal(Truncation([[1, 1 - x], [1, 1]]), 2)
    with pytest.raises(ValueError):
        tp_check_tridiagonal(Truncation([[1, 0, 1], [0, 1, 0], [0, 0, 1]]), 2)


# -- binomial matrices, conjugation and output matrices against the direct forms --


def _binomial_reference(xv, n, yv=1):
    """Test-only C(i,j) x^(i-j) y^j, two powers and a product per entry."""
    xv, yv = _p(xv), _p(yv)
    return Truncation.from_fn(
        n, n, lambda i, j: xv ** (i - j) * yv ** j * math.comb(i, j) if j <= i else 0)


@pytest.mark.parametrize("xv,yv", [
    (x, 1), (x, a), (0, 1), (0, a), (x + a + 1, 1), (x + a + 1, a - 2),
    (Fraction(3, 2), 1), (Fraction(3, 2) * x, Fraction(-1, 3)), (-x, 1)])
@pytest.mark.parametrize("n", [0, 1, 2, 6])
def test_binomial_truncation_matches_entrywise_formula(xv, yv, n):
    got = binomial_truncation(xv, n, yv)
    assert got == _binomial_reference(xv, n, yv)
    assert (got.rows, got.cols) == (n, n)


def _conjugate_reference(p, xi, n):
    """The full (n+2)-block product B_{-xi} P B_xi, cut back to n x n."""
    w = n + 2
    product = _binomial_reference(-xi, w) * p.truncate(w, w) * _binomial_reference(xi, w)
    return product.truncate(n, n)


def _conjugation_inputs():
    params, w = LaguerreParams.symbolic(), VertexWeights.symbolic()
    return [
        ("delta", delta_matrix()),
        *((kind, prodmat(params, kind, weights=w, x=x))
          for kind in ("Pcirc", "P", "PcircFlat", "PFlat", "PcircY", "PY")),
        # degree-4 diagonals, far from the degree criterion: the most Taylor layers
        ("degree-4-spec", DiagonalPolySpec(2, (
            (a, 0, 0, 0, 1), (1, 0, 0, 0, 1), (0, -2, 0, 0, 1), (0, 0, a, 0, 3)))),
        ("eaz", eaz_matrix([Poly.var(f"a{i}") for i in range(12)],
                           [Poly.var(f"z{i}") for i in range(12)])),
        # only a superdiagonal, f_-1 = 1 + a n
        ("superdiagonal-only", DiagonalPolySpec(-1, ((1, a),))),
        # empty coefficient lists are the zero polynomial
        ("empty-coefficients", DiagonalPolySpec(1, ((), (a, 2), ()))),
    ]


CONJUGATION_INPUTS = _conjugation_inputs()
CONJUGATION_XIS = [Poly.var("xi"), x + 1, Fraction(1, 2), 0]


@pytest.mark.parametrize("name,p", CONJUGATION_INPUTS, ids=[c[0] for c in CONJUGATION_INPUTS])
@pytest.mark.parametrize("xi", CONJUGATION_XIS)
def test_conjugate_matches_full_block_product(name, p, xi):
    # the reference's n x n corner is the reference at n: it reads rows < n of P only
    want = _conjugate_reference(p, xi, 9)
    for n in range(10):
        assert conjugate_by_binomial(p, xi, n) == want.truncate(n), n


@pytest.mark.parametrize("xi", CONJUGATION_XIS)
def test_conjugate_of_random_specs_matches_full_block_product(xi):
    # seed 42 is the default seed of banded_random_agreement, which checks the first 20
    rng = XorShift64(42)
    for i in range(30):
        p = random_spec(rng)
        want = _conjugate_reference(p, xi, 9)
        for n in range(10):
            assert conjugate_by_binomial(p, xi, n) == want.truncate(n), (i, n)


def test_conjugation_makes_no_block_product(monkeypatch):
    # B_x^-1 P-circ-flat B_x at n = 9: the full-block product made 598 kernel calls,
    # the Taylor layers taken entry by entry on the n x (n+2) block 172
    params, w = LaguerreParams.symbolic(), VertexWeights.symbolic()
    p, want = prodmat(params, "PcircFlat", weights=w), prodmat(params, "PFlat", weights=w, x=x)
    calls, products = [], []
    mul_into = polyring._mul_into
    monkeypatch.setattr(polyring, "_mul_into", lambda *args: calls.append(1) or mul_into(*args))
    monkeypatch.setattr(matrices, "binomial_truncation", lambda *args: products.append(args))
    monkeypatch.setattr(Truncation, "__mul__", lambda *args: products.append(args))
    got = conjugate_by_binomial(p, x, 9)
    assert (len(calls), products) == (55, [])
    monkeypatch.undo()
    assert got == want.truncate(9)


def _output_reference(p, rows, cols=None):
    """O(P) by the direct row loop: every output row reads every entry of
    each live row of P over the working width."""
    entry = _hess(p) if isinstance(p, Truncation) else p
    cols = rows if cols is None else cols
    width = rows + cols
    prev = [Poly.one()] + [Poly.zero()] * (width - 1)
    out = [prev[:cols]] if rows else []
    for _ in range(1, rows):
        cur = [Poly.zero()] * width
        for i, a_i in enumerate(prev):
            if a_i:
                for k in range(width):
                    cur[k] = cur[k] + a_i * entry(i, k)
        out.append(cur[:cols])
        prev = cur
    return Truncation(out, cols)


def _output_inputs():
    params = LaguerreParams.symbolic()
    p_sym = _hess(lambda n, k: Poly.var(f"p{n}_{k}"))
    rng = random.Random(11)
    hess = Truncation.from_fn(6, 6, lambda i, j: _rand_poly(rng, 0.3) if j <= i + 1 else 0)
    return [
        ("P", prodmat(params, "P", x=x)),
        ("PcircY", prodmat(params, "PcircY", weights=VertexWeights.symbolic())),
        ("symbolic-hessenberg", p_sym),
        ("hessenberg-truncation", hess),
        ("raw-transpose", lambda i, k: p_sym(k, i)),
        ("raw-ints", lambda i, k: (i + 2 * k) % 3 if k <= i + 1 else 0),
    ]


OUTPUT_INPUTS = _output_inputs()


@pytest.mark.parametrize("name,p", OUTPUT_INPUTS, ids=[c[0] for c in OUTPUT_INPUTS])
def test_output_matrix_matches_direct_row_loop(name, p):
    for rows, cols in ((0, 0), (0, 1), (1, 0), (1, 1), (0, None), (1, None), (2, 1),
                       (6, None), (6, 1), (4, 6)):
        got = output_matrix(p, rows, cols)
        assert got == _output_reference(p, rows, cols), (rows, cols)


def test_output_matrix_of_too_small_truncation_raises_as_the_row_loop():
    small = Truncation([[1, 1], [1, 1]])
    with pytest.raises(IndexError):
        _output_reference(small, 4)
    with pytest.raises(IndexError):
        output_matrix(small, 4)


@pytest.mark.parametrize("name,p", OUTPUT_INPUTS, ids=[c[0] for c in OUTPUT_INPUTS])
def test_output_matrix_evaluates_each_entry_of_p_at_most_once(name, p):
    if isinstance(p, Truncation):
        p = _hess(p)
    for rows, cols in ((6, None), (6, 1), (4, 6)):
        calls = collections.Counter()

        def counted(i, k):
            calls[i, k] += 1
            return p(i, k)

        output_matrix(counted, rows, cols)
        assert calls and max(calls.values()) == 1
        if name != "raw-transpose":
            # for a Hessenberg P, row n of O(P) reads rows 0..n-1 of P only
            assert max(i for i, _ in calls) <= rows - 2


# -- the symbolic scan on wide keys ----------------------------------------------

PADDING_NAMES = 200


def _wide(m, tag):
    """m with each variable renamed to a fresh name, registered after the
    padding names, so that its keys are wide in the process key space.
    The fresh names are registered in the order of the old ones, so both
    matrices have the same plan."""
    for i in range(PADDING_NAMES):
        Poly.var(f"pad{i}")
    names = sorted(m.variables(), key=polyring._offsets.__getitem__)
    return _substitute(m, {v: Poly.var(f"{tag}_{v}") for v in names})


def _reference_report(m, order):
    ok, checked, bad = _reference_symbolic(m, order)
    witness = TPWitness(*bad[:3]) if bad else None
    return TPReport(ok, order, "symbolic", checked, witness,
                    meta={"rows": m.rows, "cols": m.cols})


@functools.lru_cache(maxsize=None)
def _wide_scan_cases():
    """{name: (matrix on fresh wide names, order, the matrix it renames)};
    built on first use, so that the padding names are registered only
    when these tests run."""
    rng = random.Random(808)
    cases = []
    for n in (4, 5):
        b = _bidiagonal_product(rng, n)
        cases.append((f"bidiagonal{n}", b, 4))
        cases.append((f"bidiagonal{n}-swapped", _swap_adjacent_rows(b, rng.randrange(n - 1)), 3))
    lam = Poly.var("lam")
    seq = [monic_laguerre(i, LaguerreParams(lam - 1), x) for i in range(7)]
    hankel = hankel_truncation(seq, 4)
    cases.append(("laguerre-hankel", hankel, 3))
    cases.append(("laguerre-hankel-swapped", _swap_adjacent_rows(hankel, 1), 2))
    tri = SRTriangles(SRCoeffs.symbolic(2), max_j=2)
    sr = hankel_truncation([tri.value(1, i, 0) for i in range(5)], 3)
    cases.append(("sr-hankel", sr, 3))
    cases.append(("sr-hankel-swapped", _swap_adjacent_rows(sr, 0), 3))
    return {name: (_wide(m, f"wide{i}"), order, m) for i, (name, m, order) in enumerate(cases)}


WIDE_SCAN_NAMES = [f"{kind}{suffix}" for kind in ("bidiagonal4", "bidiagonal5", "laguerre-hankel",
                                                  "sr-hankel") for suffix in ("", "-swapped")]


@pytest.mark.parametrize("name", WIDE_SCAN_NAMES)
def test_symbolic_scan_on_wide_keys_matches_leibniz_reference(name):
    m, order, _ = _wide_scan_cases()[name]
    report = tp_check_symbolic(m, order)
    want = _reference_report(m, order)
    assert report.to_json() == want.to_json()
    assert report.ok == (not name.endswith("-swapped"))
    if report.witness is not None:
        assert report.witness.minor.vars == want.witness.minor.vars
        assert str(report.witness.minor) == str(want.witness.minor)
        assert report.witness.minor == want.witness.minor


@pytest.mark.parametrize("name", WIDE_SCAN_NAMES)
def test_symbolic_scan_multiplies_keys_no_wider_than_the_matrix_variables(name, monkeypatch):
    # on the sparse plan, forced by a zero size cap (the dense plan has no
    # keys): every key of every product is a monomial index below
    # prod(dims), however many names the process has registered
    m, order, _ = _wide_scan_cases()[name]
    monkeypatch.setattr(matrices, "_PACK_BITS", 0)
    keys = _record_term_keys(monkeypatch)
    plans = _record_plans(monkeypatch)
    report = tp_check_symbolic(m, order)
    [(width, dims)] = plans
    assert width is None and keys
    assert 0 <= min(keys) and max(keys) < math.prod(dims)
    assert math.prod(dims).bit_length() <= polyring.FIELD_BITS * len(m.variables())
    assert report.to_json() == _dict_path_json(m, order)


def _record_term_keys(mp):
    """The list of the monomial indices of every factor and product of the
    sparse plan's ``_terms_dot`` from now on."""
    keys = []
    dot = matrices._terms_dot

    def recording(pairs):
        pairs = list(pairs)
        out = dot(pairs)
        keys.extend(itertools.chain(out, *itertools.chain(*pairs)))
        return out

    mp.setattr(matrices, "_terms_dot", recording)
    return keys


def _record_plans(mp):
    """The list of the plans, (width, dims), the symbolic scan draws up
    from now on (width None: the sparse plan)."""
    plans = []
    packing = matrices._packing

    def recording(grid, top):
        plan = packing(grid, top)
        plans.append(plan[:2])
        return plan

    mp.setattr(matrices, "_packing", recording)
    return plans


def _plan(m, order):
    with pytest.MonkeyPatch.context() as mp:
        plans = _record_plans(mp)
        tp_check_symbolic(m, order)
    [plan] = plans
    return plan


def _plan_kind(plan):
    return "sparse" if plan[0] is None else "dense"


@pytest.mark.parametrize("name", WIDE_SCAN_NAMES)
def test_packing_plan_does_not_depend_on_the_name_registry(name):
    wide, order, m = _wide_scan_cases()[name]
    plan = _plan(m, order)
    assert _plan(wide, order) == plan
    assert _plan_kind(plan) == ("sparse" if name.startswith("sr-hankel") else "dense")


def test_symbolic_scan_overflow_names_the_real_variable(tmp_path, capsys, monkeypatch):
    from lagtp import cli
    for i in range(40):
        Poly.var(f"pad{i}")
    zeta = Poly.var("zeta")
    assert polyring._offsets["zeta"] >= 40 * polyring.FIELD_BITS
    m = Truncation([[zeta ** 20000, 1], [1, zeta ** 20000]])
    plans = _record_plans(monkeypatch)
    with pytest.raises(OverflowError, match="^exponent of zeta exceeds 32767$"):
        tp_check_symbolic(m, 2)
    # the scan runs on its sparse plan, past the key limit; the witness
    # rebuild, its one Poly product, raises
    assert plans == [(None, (40001,))]
    path = tmp_path / "m.json"
    path.write_text(m.to_json())
    assert cli.main(["tp-check", str(path), "--order", "2"]) == 2
    assert capsys.readouterr().err == "error: exponent of zeta exceeds 32767\n"


@pytest.mark.parametrize("rows", [[[x ** 20000, x ** 20000], [x ** 20000, x ** 20000]],
                                  [[x ** 20000, 0], [1, x ** 20000]]], ids=["zero", "x^40000"])
def test_symbolic_scan_certifies_minors_past_the_exponent_limit(rows):
    # the 2x2 minors, 0 and x^40000, pass the key limit but not the plan's index
    report = tp_check_symbolic(Truncation(rows), 2)
    assert (report.ok, report.checked, report.witness) == (True, 5, None)


def test_symbolic_scan_index_passes_two_to_the_64(monkeypatch):
    # five variables of bound 40000 in a 2x2 minor: a box of 40001^5 > 2^64
    # indices, each key of each product still below it
    m = math.prod([Poly.var(v) for v in "xyzuv"]) ** 20000
    keys = _record_term_keys(monkeypatch)
    plans = _record_plans(monkeypatch)
    report = tp_check_symbolic(Truncation([[m, m], [m, m]]), 2)
    assert (report.ok, report.checked, report.witness) == (True, 5, None)
    assert plans == [(None, (40001,) * 5)]
    assert 0 <= min(keys) and 2 ** 64 < max(keys) < 40001 ** 5


def test_symbolic_scan_witness_past_the_exponent_limit_raises():
    # the failing minor x^40000 - 1 is rebuilt as a Poly, past the key limit
    with pytest.raises(OverflowError, match="^exponent of x exceeds 32767$"):
        tp_check_symbolic(Truncation([[x ** 20000, 1], [1, x ** 20000]]), 2)


# -- the symbolic scan on packed integers ----------------------------------------

# large enough to pack every scan case but the m = 2 type-3 Hankel (2^29 bits)
# and the 39-variable general quadridiagonal block (a box of 9.4e12 slots)
FORCED_PACK_BITS = 1 << 24
UNPACKED_SCAN_CASES = {"type-3-hankel-m2", "general-quad5-tp3", "general-quad5-tp4"}


def _dict_path_json(m, order):
    """The report JSON of the library's own scan run on the Polys."""
    checked, bad = _first_negative_minor(m.data, min(order, m.rows, m.cols), Poly.dot,
                                         Poly.is_coeffwise_nonneg)
    return TPReport(bad is None, order, "symbolic", checked, bad and TPWitness(*bad),
                    meta={"rows": m.rows, "cols": m.cols}).to_json()


def _packed_path_json(m, order):
    """The report JSON with the size cap raised and the occupancy rule
    lifted, and whether the scan packed (took the dense plan)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrices, "_PACK_BITS", FORCED_PACK_BITS)
        mp.setattr(matrices, "_PACK_SLOTS_PER_TERM", FORCED_PACK_BITS)
        plans = _record_plans(mp)
        report = tp_check_symbolic(m, order).to_json()
    [plan] = plans
    return report, _plan_kind(plan) == "dense"


@pytest.mark.parametrize("name,m,order", SCAN_CASES, ids=[c[0] for c in SCAN_CASES])
def test_symbolic_scan_reports_the_same_on_both_paths(name, m, order):
    packed, packs = _packed_path_json(m, order)
    assert packed == _dict_path_json(m, order) == tp_check_symbolic(m, order).to_json()
    assert packs == (name not in UNPACKED_SCAN_CASES)


@pytest.mark.parametrize("name", WIDE_SCAN_NAMES)
def test_symbolic_scan_on_wide_keys_reports_the_same_on_both_paths(name):
    m, order, _ = _wide_scan_cases()[name]
    packed, packs = _packed_path_json(m, order)
    assert packed == _dict_path_json(m, order)
    assert packs


@functools.lru_cache(maxsize=None)
def _path_cases():
    """{name: (matrix, order, the plan the size rule takes)}"""
    lam = Poly.var("lam")
    laguerre = hankel_truncation(
        [monic_laguerre(i, LaguerreParams(lam - 1), x) for i in range(7)], 4)
    tri = SRTriangles(SRCoeffs.symbolic(2), max_j=2)
    return {
        "bidiagonal5": ({c[0]: c[1] for c in SCAN_CASES}["bidiagonal5"], 3, "dense"),
        "laguerre-hankel4": (laguerre, 4, "dense"),
        "sr-hankel-m2": (hankel_truncation([tri.value(1, i, 0) for i in range(5)], 3), 3, "sparse"),
        "sr-hankel-m2-swapped": (_swap_adjacent_rows(
            hankel_truncation([tri.value(1, i, 0) for i in range(5)], 3), 0), 3, "sparse"),
        "fraction-entry": (Truncation([[x, Fraction(1, 2)], [1, x]]), 2, "dense"),
    }


@pytest.mark.parametrize("name", ["bidiagonal5", "laguerre-hankel4", "sr-hankel-m2",
                                  "sr-hankel-m2-swapped", "fraction-entry"])
def test_symbolic_scan_packs_small_integer_matrices_only(name, monkeypatch):
    # small boxes pack (a matrix with a Fraction scaled to integers first),
    # the rest scan as index maps, and neither makes a Poly product: only a
    # failing minor is recomputed as Polys, by the Poly scan of its own
    # submatrix
    m, order, kind = _path_cases()[name]
    assert _plan_kind(_plan(m, order)) == kind
    calls = []
    mul_into = polyring._mul_into
    monkeypatch.setattr(polyring, "_mul_into", lambda *args: calls.append(1) or mul_into(*args))
    report = tp_check_symbolic(m, order)
    scan_calls, witness = len(calls), report.witness
    assert report.ok == (witness is None) == (name not in ("sr-hankel-m2-swapped",
                                                           "fraction-entry"))
    if witness is None:
        assert scan_calls == 0
    else:
        calls.clear()
        sub = m.submatrix(witness.rows, witness.cols)
        assert json.loads(_dict_path_json(sub, sub.rows))["witness"]["minor"] == \
            witness.minor.to_json_obj()
        assert scan_calls == len(calls) > 0


QUIET = [Poly.var(f"q{i}") for i in range(10)]


def _sparse_product(rng, n):
    """Lower times upper times lower bidiagonal in ten variables, each
    weight 1 + c q or c q: TP (LGV), and too many variables to pack."""
    prod = Truncation.identity(n)
    for f in range(3):
        entries = {}
        for i in range(n):
            entries[i, i] = 1 + rng.choice(QUIET) * rng.randint(1, 3)
            if i:
                entries[(i, i - 1) if f % 2 == 0 else (i - 1, i)] = (
                    rng.choice(QUIET) * rng.randint(1, 3))
        prod = prod * Truncation.from_fn(n, n, lambda i, j: entries.get((i, j), 0))
    return prod


def _with_fraction_rows(rng, m):
    """m with each row times 1/k, k drawn from 2..4 but 1 on one row: each
    minor changes by a positive factor, so its signs do not."""
    ks = [rng.randint(2, 4) for _ in range(m.rows)]
    ks[rng.randrange(m.rows)] = 1
    return Truncation([[e.scale(Fraction(1, k)) for e in row] for row, k in zip(m.data, ks)])


def _band(rng):
    """A band of u_i v_k beside a diagonal d_i, with seeded coefficients:
    every 2x2 minor is >= 0, and the first 3x3 minor has a negative term,
    which is not its first one."""
    u, v, d = QUIET[:4], QUIET[4:8], QUIET[8:] * 2
    return Truncation.from_fn(4, 4, lambda i, k: (
        u[i] * v[k] * rng.randint(1, 3) if abs(i - k) <= 1 else 0) + (d[i] if i == k else 0))


def _plan_cases(seed):
    """(box, tp, matrix, order): TP and not, on a dense and on a sparse box,
    each with integer and with Fraction rows."""
    rng = random.Random(seed)
    cases = []
    for box, build in (("dense", _bidiagonal_product), ("sparse", _sparse_product)):
        m = build(rng, 4)
        for tp, order in ((True, 4), (False, 3)):
            grid = m if tp else _swap_adjacent_rows(m, rng.randrange(3))
            cases += [(box, tp, grid, order), (box, tp, _with_fraction_rows(rng, grid), order)]
    band = _band(rng)
    return cases + [("sparse", False, band, 3), ("sparse", False, _with_fraction_rows(rng, band), 3)]


@pytest.mark.parametrize("seed", range(3))
def test_every_plan_reports_as_the_poly_path_and_the_leibniz_reference(seed):
    for box, tp, m, order in _plan_cases(seed):
        assert _plan_kind(_plan(m, order)) == box
        report = tp_check_symbolic(m, order)
        assert report.ok == tp
        assert report.to_json() == _dict_path_json(m, order) == \
            _reference_report(m, order).to_json()


def test_a_fraction_row_witness_is_the_unscaled_minor():
    m = Truncation([[x * Fraction(1, 2), 1], [1, x * Fraction(1, 3)]])
    assert _plan_kind(_plan(m, 2)) == "dense"
    report = tp_check_symbolic(m, 2)
    assert report.witness.minor == -1 + x ** 2 * Fraction(1, 6)
    assert report.to_json() == _dict_path_json(m, 2) == _reference_report(m, 2).to_json()


def test_a_rational_hankel_scans_as_the_hankel_scaled_to_integers(monkeypatch):
    # one factor for the whole matrix: the plan grid stays Hankel, so the
    # scan reads repeated minors back as on the matrix scaled by hand
    seq = [monic_laguerre(i, LaguerreParams.of(Fraction(1, 2)), x) for i in range(9)]
    scale = math.lcm(*[p.den for p in seq])
    assert scale > 1
    m, scaled = hankel_truncation(seq, 5), hankel_truncation([p.scale(scale) for p in seq], 5)
    plan = matrices._packing(m.data, 5)
    width, _, grid = plan
    assert width is not None
    assert all(grid[i][k] == grid[i + 1][k - 1] for i in range(4) for k in range(1, 5))
    assert plan == matrices._packing(scaled.data, 5)
    int_dot = matrices._int_dot
    calls = []
    monkeypatch.setattr(matrices, "_int_dot", lambda pairs: calls.append(1) or int_dot(pairs))
    report = tp_check_symbolic(m, 5)
    rational_calls, calls[:] = len(calls), []
    assert report.ok and report.checked == 251
    assert tp_check_symbolic(scaled, 5).to_json() == report.to_json()
    assert rational_calls == len(calls) > 0
    assert report.to_json() == _dict_path_json(m, 5)


@pytest.mark.parametrize("tp", [True, False])
def test_packed_coefficient_bound_holds_at_its_edge(tp):
    # the 2x2 minor is +-15*x*y: magnitude 3 * 5 = 2^4 - 1, the product of
    # the row L1 norms, of the column L1 norms and of the row sums of
    # ceil(L2 norm) alike, and the largest value a slot of width 5 holds
    y = Poly.var("y")
    m = Truncation([[3 * x, 0], [0, 5 * y]] if tp else [[0, 3 * x], [5 * y, 0]])
    width, dims = _plan(m, 2)
    assert (width, dims) == (5, (2, 2))
    report = tp_check_symbolic(m, 2)
    assert report.ok == tp
    if not tp:
        assert report.witness.minor == -15 * x * y
    assert report.to_json() == _dict_path_json(m, 2)


def _slots_off(width, box):
    """OFF: 2^(width-1) in each of ``box`` slots of ``width`` bits."""
    return ((1 << width * box) - 1) // ((1 << width) - 1) << (width - 1)


@pytest.mark.parametrize("name,coeffs", [
    ("borrow", (-3, 1, 2)),  # a negative lowest slot under positive higher slots
    ("negative-top", (3, 0, -1)),  # the packed integer is negative
    ("zero", (0, 0, 0)),
    ("all-positive", (3, 1, 2)),
])
def test_one_and_sign_test_agrees_with_the_offset_test(name, coeffs):
    width = 3  # every coefficient below 2^(width-1) = 4 in magnitude
    off = _slots_off(width, len(coeffs))
    v = sum(c << width * i for i, c in enumerate(coeffs))
    assert (v < 0) == (name == "negative-top") and (v == 0) == (name == "zero")
    assert (not v & off) == ((v + off) & off == off) == (min(coeffs) >= 0)
    # and on every packed value of three slots of that width
    for cs in itertools.product(range(-3, 4), repeat=3):
        v = sum(c << width * i for i, c in enumerate(cs))
        assert (not v & off) == ((v + off) & off == off) == (min(cs) >= 0), cs


@pytest.mark.parametrize("entries,order,ok", [
    ([[-1 + 2 * x]], 1, False),  # the borrow case
    ([[1 - x]], 1, False),  # a negative top slot
    ([[x, x], [x, x]], 2, True),  # a zero 2x2 minor
    ([[1 + x, x], [1, 1 + x]], 2, True),  # the 2x2 minor 1 + x + x^2
])
def test_packed_sign_test_reports_as_the_dict_path(entries, order, ok):
    m = Truncation(entries)
    assert _plan(m, order) is not None
    report = tp_check_symbolic(m, order)
    assert report.ok == ok
    assert report.to_json() == _dict_path_json(m, order)


def test_packed_witness_decodes_its_first_and_last_slots():
    # the 2x2 minor is -1 - 3*x*y - x^2*y^2: slot 0 and the last slot of
    # the 3 x 3 box both hold a negative coefficient
    y = Poly.var("y")
    m = Truncation([[1, 2 + x * y], [1 + x * y, 1]])
    assert _plan(m, 2)[1] == (3, 3)
    report = tp_check_symbolic(m, 2)
    assert report.witness.minor == -1 - 3 * x * y - x ** 2 * y ** 2
    assert report.to_json() == _dict_path_json(m, 2)


def _reference_plan(m, top):
    """(width, {variable: dim}): the packing bounds of ``_packing``,
    recomputed from exponent tuples and coefficients.  dim - 1 is the
    lesser of the top-sums of the row and of the column maxima of the
    exponent; width is 1 plus the bit length of the least of the products
    of the top row L1 norms, of the top column L1 norms, and of the top - 2
    row L1 norms with the top 2 row sums of ceil(L2 norm), every factor
    taken as at least 1."""
    cols = list(zip(*m.data))

    def top_sum(values):
        return sum(sorted(values, reverse=True)[:top])

    def top_product(values, k):
        return math.prod(sorted([max(1, v) for v in values], reverse=True)[:max(k, 0)])

    def maximum(line, v):
        return max([dict(zip(e.vars, exp)).get(v, 0) for e in line for exp, _ in e.sorted_terms()],
                   default=0)

    def l2(e):  # ceil(sqrt(q)) as an integer
        q = sum(c * c for _, c in e.sorted_terms())
        return math.isqrt(q - 1) + 1 if q else 0

    dims = {v: 1 + min(top_sum([maximum(r, v) for r in m.data]), top_sum([maximum(c, v) for c in cols]))
            for v in m.variables()}
    l1 = lambda e: sum(abs(c) for _, c in e.sorted_terms())
    row_l1, col_l1 = [sum(map(l1, r)) for r in m.data], [sum(map(l1, c)) for c in cols]
    bound = min(top_product(row_l1, top), top_product(col_l1, top),
                top_product(row_l1, top - 2) * top_product([sum(map(l2, r)) for r in m.data],
                                                           min(top, 2)))
    return bound.bit_length() + 1, dims


def _cancelling_matrix(rng):
    """A random integer matrix in x, y and a, 2x2 to 5x5, with negative
    coefficients and, half the time, a row that is a signed sum of two
    others (so minors cancel to zero or in part)."""
    n_rows, n_cols = rng.randint(2, 5), rng.randint(2, 5)
    pool = [Poly.one(), x, y, a, x * y, x * x, a * a * y]
    grid = [[sum((rng.choice(pool) * rng.randint(-3, 200) for _ in range(rng.randrange(4))),
                 Poly.zero()) for _ in range(n_cols)] for _ in range(n_rows)]
    if n_rows > 2 and rng.random() < 0.5:
        i, j, k = rng.sample(range(n_rows), 3)
        grid[i] = [u - rng.choice((1, -1)) * v for u, v in zip(grid[j], grid[k])]
    return Truncation(grid)


@pytest.mark.parametrize("seed", range(4))
def test_packing_bounds_hold_on_every_minor(seed, monkeypatch):
    monkeypatch.setattr(matrices, "_PACK_BITS", FORCED_PACK_BITS)
    monkeypatch.setattr(matrices, "_PACK_SLOTS_PER_TERM", FORCED_PACK_BITS)
    rng = random.Random(seed)
    for _ in range(40):
        m, order = _cancelling_matrix(rng), rng.randint(1, 4)
        top = min(order, m.rows, m.cols)
        width, dims = _plan(m, order)
        ref_width, ref_dims = _reference_plan(m, top)
        assert (width, dims) == (ref_width, tuple(sorted(ref_dims.values(), reverse=True)))
        for rows, cols in _minors_in_scan_order(m.rows, m.cols, order):
            minor = _leibniz_det(m.submatrix(rows, cols))
            for exps, c in minor.sorted_terms():
                assert abs(c) < 1 << (width - 1)
                assert all(e < ref_dims[v] for v, e in zip(minor.vars, exps))
        assert tp_check_symbolic(m, order).to_json() == _dict_path_json(m, order)


def test_packing_plan_takes_the_least_of_the_row_column_and_l2_bounds():
    p, q, r = (Poly.var(v) for v in "pqr")
    m = (lower_bidiagonal(lambda i: 2 + p, lambda i: q ** 2 if i == 4 else q).truncate(5)
         * upper_bidiagonal(lambda i: 1 + q, lambda i: 3 + p).truncate(5)
         * lower_bidiagonal(lambda i: 1 + p, lambda i: r ** 2 if i == 1 else p + q).truncate(5))
    # p: the row and column maxima both sum to 12; q: the rows (11) beat the
    # columns (12); r: only column 0 holds r^2, so the columns (2) beat the
    # rows (6).  The L2 product needs 25 bits, the row and column L1
    # products 26 each.
    assert _reference_plan(m, 4) == (26, {"p": 13, "q": 12, "r": 3})
    assert _plan(m, 4) == (26, (13, 12, 3))
    assert tp_check_symbolic(m, 4).ok


def _univariate_hankel(n):
    return hankel_truncation(
        [monic_laguerre(i, LaguerreParams.symbolic(), x) for i in range(2 * n - 1)], n)


def test_packing_rule_weighs_how_full_the_box_is(monkeypatch):
    # dense boxes pack: the univariate Hankels in a and x at TP4, whose
    # packed scans beat the sparse plan past the old 2^16-bit cap
    for n in (6, 7):
        assert _plan_kind(matrices._packing(_univariate_hankel(n).data, 4)) == "dense"
    plans = _record_plans(monkeypatch)
    assert tp_check_symbolic(_univariate_hankel(6), 4).ok
    assert _plan_kind(plans[0]) == "dense"
    # sparse boxes scan as index maps: a 12-variable quad_variant block ...
    ints = lambda c, start=0: lambda i: Poly.zero() if i < start else Poly.const(c + i % 2)
    names = lambda prefix: lambda i: Poly.var(f"{prefix}{i}")
    quad = build_variant_quad(QuadVariantParams(
        a, Poly.var("beta"), Poly.const(1), Poly.const(2), names("s"), ints(1, 1), ints(2, 1),
        names("t"), ints(1), ints(3))).truncate(5)
    assert len(quad.variables()) == 12
    assert _plan_kind(matrices._packing(quad.data, 3)) == "sparse"
    # ... and the 5-variable S-R Hankel, whose 84 000-bit box fits the size
    # cap but holds 350 slots per term of its largest entry
    tri = SRTriangles(SRCoeffs.symbolic(1), max_j=1)
    sr = hankel_truncation([tri.value(1, i, 0) for i in range(5)], 3)
    assert len(sr.variables()) == 5
    assert _plan_kind(matrices._packing(sr.data, 3)) == "sparse"
    # an exponent bound past MAX_EXPONENT has a plan too: x^20000 on the
    # diagonal bounds x by 20000 in one entry, by 40000 in a 2x2 minor
    big = Truncation([[x ** 20000, 1], [1, x ** 20000]]).data
    assert _plan_kind(matrices._packing(big, 1)) == "sparse"
    assert matrices._packing(big, 2)[:2] == (None, (40001,))
    monkeypatch.setattr(matrices, "_PACK_SLOTS_PER_TERM", FORCED_PACK_BITS)
    width, dims, _ = matrices._packing(sr.data, 3)
    assert math.prod(dims) * width == 84000


# -- conjugation reads no entry of P ----------------------------------------------


@pytest.mark.parametrize("name,p", CONJUGATION_INPUTS, ids=[c[0] for c in CONJUGATION_INPUTS])
def test_conjugate_evaluates_no_row_of_p_at_or_past_n(name, p, monkeypatch):
    # the conjugate is taken on the polynomials of P's diagonals, so no
    # diagonal of P is evaluated at any row
    reads = []
    truncate = DiagonalPolySpec.truncate
    monkeypatch.setattr(DiagonalPolySpec, "truncate",
                        lambda s, *size: (s is p and reads.append(size)) or truncate(s, *size))
    before = _diagonal_reads(p)
    for n in (1, 3, 5):
        conjugate_by_binomial(p, Poly.var("xi"), n)
    assert reads == []
    assert _diagonal_reads(p) == before


# -- Banded expressions: the working block -------------------------------------


def _diagonal_reads(m):
    """The calls made so far to the row functions of m's diagonals, per
    diagonal (each is cached by row, so a second call of a row is a hit)."""
    return {d: f.cache_info()[:2] for d, f in getattr(m, "diags", {}).items()}


def _sym(prefix):
    return lambda i: Poly.var(f"{prefix}{i}")


def _guarded(fn, limit, row=lambda i: i):
    """fn, raising for every index whose row is ``limit`` or more."""
    def at(i):
        if row(i) >= limit:
            raise IndexError(f"index {i} is on row {row(i)}, past the working block {limit}")
        return fn(i)
    return at


def _plain_leaves(w):
    """The diagonal, lower- and upper-bidiagonal builders as plain w x w
    truncations: the reference the expressions are checked against."""
    def diag(d):
        return Truncation.from_fn(w, w, lambda i, j: d(i) if j == i else 0)

    def lower(d, s):
        return Truncation.from_fn(w, w, lambda i, j: d(i) if j == i else (s(i) if j == i - 1 else 0))

    def upper(d, s):
        return Truncation.from_fn(w, w, lambda i, j: d(i) if j == i else (s(i) if j == i + 1 else 0))

    return diag, lower, upper


# name -> (upper bandwidth, the expression from leaf builders and a sequence maker)
BANDED_CASES = {
    "LUL": (1, lambda dg, lo, up, s: lo(s("a"), s("b")) * up(s("c"), s("d")) * lo(s("e"), s("f"))),
    "UU": (2, lambda dg, lo, up, s: up(s("a"), s("b")) * up(s("c"), s("d"))),
    "mixed-sum": (2, lambda dg, lo, up, s: lo(s("a"), s("b")) + up(s("c"), s("d")) * dg(s("g"))
                  + up(s("e"), s("f")) * up(s("h"), s("k")) + dg(s("m"))),
}


@pytest.mark.parametrize("name", sorted(BANDED_CASES))
@pytest.mark.parametrize("n", [0, 1, 4])
def test_block_reads_n_plus_up_rows_and_matches_a_larger_product(name, n):
    # row i of a product meets rows up to i + (its upper bandwidth) of the
    # factors on its right, so the n x n block reads no row from n + up on
    up, build = BANDED_CASES[name]
    expr = build(diagonal, lower_bidiagonal, upper_bidiagonal,
                 lambda prefix: _guarded(_sym(prefix), n + up))
    assert expr.truncate(n) == build(*_plain_leaves(n + up + 3), _sym).truncate(n)


def _quad_general(seq):
    return QuadFactorParams(*(seq(name) for name in "abcdefgh"))


def _quad_variant(seq):
    return QuadVariantParams(*(Poly.var(name) for name in ("alpha", "beta", "x", "y")),
                             *(seq(name) for name in "abcdef"))


def _general_quad_plain(w):
    """P = L1 U L2 + L1 D1 + D2 L2 as a product of plain w x w truncations
    of symbolic factors: exact on its first w - 1 rows."""
    dg, lo, upb = _plain_leaves(w)
    a, b, c, d, e, f, g, h = _quad_general(_sym).fns()
    l1, l2 = lo(a, b), lo(e, f)
    return l1 * upb(d, lambda i: c(i + 1)) * l2 + l1 * dg(g) + dg(h) * l2


def _variant_quad_plain(w):
    """P = L1 L2 U + L1 D1 + L2 D2 as a product of plain w x w truncations
    of symbolic factors: exact on its first w - 1 rows."""
    dg, lo, upb = _plain_leaves(w)
    p = _quad_variant(_sym)
    a, b, c, d, e, f = p.fns()
    ell, eye = lo(a, b), Truncation.identity(w)
    l1, l2 = eye.scale(p.alpha) + ell.scale(p.x), eye.scale(p.beta) + ell.scale(p.y)
    return l1 * l2 * upb(d, lambda i: c(i + 1)) + l1 * dg(e) + l2 * dg(f)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_general_quad_expression_reads_n_plus_one_rows(n):
    # U's superdiagonal on row i reads c_{i+1}, still below the guard
    m = general_quad_factors(_quad_general(lambda prefix: _guarded(_sym(prefix), n + 1)))
    assert m["P"].truncate(n) == _general_quad_plain(n + 4).truncate(n)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_a_lone_leaf_reads_no_row_past_its_block(n):
    # the closed forms have upper bandwidth 1: row i reads c_{i+1}, e_{i+1},
    # f_{i+1} and no more, so the guard at row n + 1 stays untouched
    def guarded(prefix):
        return _guarded(_sym(prefix), n + 1)

    general = build_general_quad(_quad_general(guarded))
    variant = build_variant_quad(_quad_variant(guarded))
    assert general.truncate(n) == _general_quad_plain(n + 4).truncate(n)
    assert variant.truncate(n) == _variant_quad_plain(n + 4).truncate(n)
    # a sum of leaves reads its block only
    dg, _, upb = _plain_leaves(n + 1)
    got = (upper_bidiagonal(guarded("c"), guarded("d")) + diagonal(guarded("a"))).truncate(n + 1)
    assert got == upb(_sym("c"), _sym("d")) + dg(_sym("a"))


def test_block_evaluates_a_shared_leaf_once_per_width():
    # L1 and L2 each appear in two terms of P = L1 U L2 + L1 D1 + D2 L2,
    # yet each sequence index is read once: truncate(6) reads a_0..a_5,
    # e_0..e_5, b_1..b_5 and f_1..f_6 (U's superdiagonal reaches row 6 of L2)
    reads = collections.Counter()

    def counted(prefix):
        def at(i):
            reads[prefix, i] += 1
            return Poly.var(f"{prefix}{i}")
        return at

    p = general_quad_factors(_quad_general(counted))["P"]
    got = p.truncate(6)
    want = {("a", i) for i in range(6)} | {("e", i) for i in range(6)} \
        | {("b", i) for i in range(1, 6)} | {("f", i) for i in range(1, 7)}
    assert {key for key in reads if key[0] in "abef"} == want
    assert set(reads.values()) == {1}
    assert got == general_quad_factors(_quad_general(_sym))["P"].truncate(6)
    before = reads.copy()
    assert p.truncate(6) == got and p.truncate(4) == got.truncate(4)
    assert reads == before  # a second block, or a smaller one, reads nothing new


@pytest.mark.parametrize("n", [0, 1, 5])
def test_variant_quad_expression_reads_n_plus_one_rows(n):
    m = variant_quad_factors(_quad_variant(lambda prefix: _guarded(_sym(prefix), n + 1)))
    assert m["P"].truncate(n) == _variant_quad_plain(n + 4).truncate(n)


@pytest.mark.parametrize("m,j", [(m, j) for m in (1, 2, 3) for j in range(m + 1)])
@pytest.mark.parametrize("unit", [1, Poly.var("u")])
def test_sfraction_word_reads_n_plus_one_rows(m, j, unit):
    n = 4
    # alpha_i sits on row i // (m+1) of its factor
    word = sfraction_word(_guarded(_sym("al"), n + 1, lambda i: i // (m + 1)), m, j, unit)
    dg, lo, upb = _plain_leaves(n + m + 3)
    al = _sym("al")

    def l_factor(r):
        return lo(lambda i: unit, lambda i: al((m + 1) * i + r - 1))

    want = upb(lambda i: al((m + 1) * (i + 1) - 1), lambda i: unit)
    for r in range(m, j, -1):
        want = l_factor(r) * want
    for r in range(1, j + 1):
        want = want * l_factor(r)
    assert word.truncate(n) == want.truncate(n)


def test_sfraction_word_refuses_a_type_outside_0_to_m():
    for j in (-1, 3):
        with pytest.raises(ValueError, match="type j"):
            sfraction_word(_sym("al"), 2, j)


@pytest.mark.parametrize("m", [0, -1])
def test_sfraction_word_refuses_a_branch_order_below_1(m):
    # m = 0 once returned the upper bidiagonal U_0 alone
    with pytest.raises(ValueError, match="branch order m"):
        sfraction_word(_sym("al"), m, 0)


def test_output_matrix_and_conjugate_refuse_a_negative_size_before_any_read():
    reads = []
    delta = delta_matrix()
    p = _hess(lambda n, k: reads.append((n, k)) or delta(n, k))
    for rows, cols in ((3, -1), (-2, None), (-1, 2), (-1, -1)):
        with pytest.raises(ValueError, match="^requested"):
            output_matrix(p, rows, cols)
    with pytest.raises(ValueError, match="^requested"):
        conjugate_by_binomial(delta, x, -1)
    assert reads == []


class _ReadRecorder(collections.UserList):
    """A sequence that records every read of its length or an entry."""

    def __init__(self, data, reads):
        super().__init__(data)
        self.reads = reads

    def __len__(self):
        self.reads.append("len")
        return super().__len__()

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)


def test_truncation_refuses_a_float_entry():
    with pytest.raises(TypeError, match="float"):
        Truncation([[0.5, 1], [2, 3]])


def test_binomial_and_hankel_refuse_a_negative_size_before_any_read(monkeypatch):
    reads = []
    real = matrices.power_table
    monkeypatch.setattr(matrices, "power_table", lambda *args: reads.append(args) or real(*args))
    for n in (-1, -2):
        with pytest.raises(ValueError, match=rf"^requested a {n}x{n} binomial matrix$"):
            binomial_truncation(x, n)
    seq = _ReadRecorder([Poly.const(i) for i in range(9)], reads)
    for n in (-1, -3):
        with pytest.raises(ValueError, match=rf"^requested a {n}x{n} Hankel matrix$"):
            hankel_truncation(seq, n)
    assert reads == []
    # size zero is still the empty matrix
    assert binomial_truncation(x, 0) == hankel_truncation(seq, 0) == Truncation([])


# -- the truncate protocol: every matrix type answers truncate(rows, cols) ---------


def _t_entry(n, k):
    return Poly.var(f"t{n}_{k}")


SPEC_FS = ((1, a), (x,), (0, a), (1, 0, 2))  # f_-1 .. f_2 by coefficients in n


def _spec_entry(n, k):
    """Entry (n, k) of DiagonalPolySpec(2, SPEC_FS) from its definition."""
    m = n - k
    if not -1 <= m <= 2:
        return Poly.zero()
    f = sum((_p(c) * n ** d for d, c in enumerate(SPEC_FS[m + 1])), Poly.zero())
    return f * math.perm(n, m) if m >= 0 else f


def _sum_entry(n, k):
    """Entry (n, k) of lower_bidiagonal(a, b) + diagonal(d)."""
    a, b, d = _sym("a"), _sym("b"), _sym("d")
    return a(n) + d(n) if k == n else (b(n) if k == n - 1 else Poly.zero())


def _product_entry(n, k):
    """Entry (n, k) of upper_bidiagonal(c, d) lower_bidiagonal(a, b): row n
    of U meets rows n and n + 1 of L."""
    a, b, c, d = _sym("a"), _sym("b"), _sym("c"), _sym("d")
    lower = {(j, j): a(j) for j in (n, n + 1)} | {(j, j - 1): b(j) for j in (n, n + 1)}
    zero = Poly.zero()
    return c(n) * lower.get((n, k), zero) + d(n) * lower.get((n + 1, k), zero)


def _lower_entry(n, k):
    """Entry (n, k) of lower_bidiagonal(a, b)."""
    return _sym("a")(n) if k == n else (_sym("b")(n) if k == n - 1 else Poly.zero())


def _upper_entry(n, k):
    """Entry (n, k) of upper_bidiagonal(c, d)."""
    return _sym("c")(n) if k == n else (_sym("d")(n) if k == n + 1 else Poly.zero())


def _times(left, right):
    """Entry function of left * right, for entry functions that vanish past
    the superdiagonal: row n of left meets rows 0..n+1 of right."""
    return lambda n, k: Poly.dot((left(n, j), right(j, k)) for j in range(n + 2))


def _plain_entry(plain):
    """Entry function of a plain 10 x 10 product, exact on its first 9 rows."""
    block = functools.cache(lambda: plain(10))
    return lambda n, k: block()[n, k]


# name -> (the matrix built from a sequence maker, its entrywise reference)
PROTOCOL_CASES = {
    "truncation": (lambda seq: Truncation.from_fn(7, 7, _t_entry), _t_entry),
    "spec": (lambda seq: DiagonalPolySpec(2, SPEC_FS), _spec_entry),
    "leaf": (lambda seq: upper_bidiagonal(seq("c"), seq("d")),
             lambda n, k: _sym("c")(n) if k == n else (_sym("d")(n) if k == n + 1 else 0)),
    "sum": (lambda seq: lower_bidiagonal(seq("a"), seq("b")) + diagonal(seq("d")), _sum_entry),
    "product": (lambda seq: upper_bidiagonal(seq("c"), seq("d"))
                * lower_bidiagonal(seq("a"), seq("b")), _product_entry),
    "spec+lower": (lambda seq: DiagonalPolySpec(2, SPEC_FS) + lower_bidiagonal(seq("a"), seq("b")),
                   lambda n, k: _spec_entry(n, k) + _lower_entry(n, k)),
    "spec*upper": (lambda seq: DiagonalPolySpec(2, SPEC_FS) * upper_bidiagonal(seq("c"), seq("d")),
                   _times(_spec_entry, _upper_entry)),
    "upper*spec": (lambda seq: upper_bidiagonal(seq("c"), seq("d")) * DiagonalPolySpec(2, SPEC_FS),
                   _times(_upper_entry, _spec_entry)),
    "quad-general": (lambda seq: build_general_quad(_quad_general(seq)),
                     _plain_entry(_general_quad_plain)),
    "quad-variant": (lambda seq: build_variant_quad(_quad_variant(seq)),
                     _plain_entry(_variant_quad_plain)),
}


@pytest.mark.parametrize("name", sorted(PROTOCOL_CASES))
@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0), (2, 5), (5, 2), (4, None),
                                       (6, 6), (7, 1)])
def test_truncate_matches_an_entrywise_reference(name, rows, cols):
    build, entry = PROTOCOL_CASES[name]
    got = build(_sym).truncate(rows, cols)
    assert got == Truncation.from_fn(rows, rows if cols is None else cols, entry)


@pytest.mark.parametrize("name", sorted(PROTOCOL_CASES))
def test_truncate_refuses_a_negative_size_before_any_read(name, monkeypatch):
    reads = []

    def recorded(prefix):
        return lambda i: reads.append((prefix, i)) or _sym(prefix)(i)

    m = PROTOCOL_CASES[name][0](recorded)
    init = Truncation.__init__
    # a read is a sequence value, a row of a diagonal or a new Truncation
    monkeypatch.setattr(Truncation, "__init__",
                        lambda t, *args: reads.append("build") or init(t, *args))
    before = _diagonal_reads(m)
    for rows, cols in ((-1, None), (2, -1), (-1, 2), (-2, -3)):
        shape = f"{rows}x{rows if cols is None else cols}"
        with pytest.raises(ValueError, match=rf"^requested a {shape} block$"):
            m.truncate(rows, cols)
    assert reads == [] and _diagonal_reads(m) == before
    m.truncate(2, 3)
    assert reads  # the recorders see a read
    monkeypatch.undo()
    # size zero is still the empty matrix
    assert m.truncate(0) == Truncation([])
    assert m.truncate(2, 0).rows == 2


# name -> a block with no rows and 3 columns
NO_ROW_BLOCKS = {
    "zero": lambda: Truncation.zero(0, 3),
    "from_fn": lambda: Truncation.from_fn(0, 3, _t_entry),
    "identity": lambda: Truncation.identity(3).truncate(0, 3),
    "output": lambda: output_matrix(delta_matrix(), 0, 3),
    "production": lambda: production_of(Truncation([[1, 0, 0]])),
    "json": lambda: Truncation.from_json_obj({"rows": 0, "cols": 3, "entries": []}),
    **{f"lazy-{name}": lambda build=build: build(_sym).truncate(0, 3)
       for name, (build, _) in PROTOCOL_CASES.items()},
}


@pytest.mark.parametrize("name", sorted(NO_ROW_BLOCKS))
def test_a_block_with_no_rows_keeps_its_column_count(name):
    t = NO_ROW_BLOCKS[name]()
    assert (t.rows, t.cols) == (0, 3)
    assert json.loads(t.to_json()) == {"rows": 0, "cols": 3, "entries": []}
    assert Truncation.from_json_obj(t.to_json_obj()) == t
    assert t.transpose().transpose() == t and (t.transpose().rows, t.transpose().cols) == (3, 0)
    assert t != Truncation([])


def test_truncation_refuses_columns_that_disagree_with_its_rows():
    with pytest.raises(ValueError, match="ragged"):
        Truncation([[1, 2]], 3)
    with pytest.raises(ValueError, match="^requested a 0x-1 block$"):
        Truncation([], -1)
    with pytest.raises(ValueError, match="shape mismatch"):
        Truncation.from_json_obj({"rows": 0, "cols": 2, "entries": [[]]})


def test_truncation_refuses_a_block_past_its_stored_one():
    eye = Truncation.identity(3)
    for rows, cols in ((4, None), (3, 4), (4, 1)):
        with pytest.raises(ValueError, match="^requested [0-9]+x[0-9]+ block of a 3x3 matrix$"):
            eye.truncate(rows, cols)
    assert eye.truncate(3) == eye


def test_constructors_refuse_a_negative_size_before_any_read():
    reads = []

    class Untouchable:
        """A series that records every read of an attribute or a coefficient."""

        def __getattr__(self, name):
            reads.append(name)

        def __getitem__(self, i):
            reads.append(i)

    for make, shape in ((lambda: Truncation.from_fn(-1, 2, lambda n, k: reads.append((n, k))),
                         "-1x2"),
                        (lambda: Truncation.zero(2, -1), "2x-1"),
                        (lambda: Truncation.identity(-1), "-1x-1"),
                        (lambda: riordan_matrix(Untouchable(), Untouchable(), -1), "-1x-1")):
        with pytest.raises(ValueError, match=rf"^requested a {shape} block$"):
            make()
    assert reads == []


def test_leaves_build_their_zeros_without_coercion(monkeypatch):
    # an off-band zero of a leaf is the shared Poly zero, not an int for
    # Truncation to coerce
    coerced, real = [], matrices._p

    def counted(v):
        if type(v) is not Poly:
            coerced.append(v)
        return real(v)

    monkeypatch.setattr(matrices, "_p", counted)
    al, u = _sym("al"), Poly.var("u")
    for m in (diagonal(al), lower_bidiagonal(al, al), upper_bidiagonal(al, al),
              Banded({d: lambda n, d=d: al(2 * n - d) for d in (-1, 0, 1)}),
              sfraction_word(al, 1, 0, Poly.one()),
              sfraction_word(al, 2, 1, u)):
        m.truncate(6)
    Truncation.zero(3, 4)
    Truncation.identity(4)
    assert coerced == []
