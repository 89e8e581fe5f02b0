import random
from fractions import Fraction
from math import comb

import pytest

from lagtp import polyring, srpaths
from lagtp.digraphs import LimitExceeded
from lagtp.matrices import Truncation, output_matrix
from lagtp.polyring import Poly, rising
from lagtp.series import Series
from lagtp.srpaths import (ADMISSIBLE_CELLS, KAPPA_CELLS, InadmissibleCellError,
                           KappaFamily, SRCoeffs, SRTriangles,
                           find_hankel_tp2_failure, kappa_family_coeffs,
                           prodmat_smj, sfrac_tail_series, sr_path_oracle,
                           sr_path_oracle_row, sr_poly, verify_factorization_cell)

CO1 = SRCoeffs.symbolic(1)
CO2 = SRCoeffs.symbolic(2)


def al(i):
    return Poly.var(f"al{i}")


def test_subdiagonal_sum():
    for n in (1, 2, 3):
        want = Poly.zero()
        for i in range(1, 2 * n):
            want = want + al(i)
        assert sr_poly(CO1, 0, n, n - 1) == want


def test_diagonal_is_one():
    for m, co in ((1, CO1), (2, CO2)):
        for j in range(m + 1):
            for n in range(5):
                assert sr_poly(co, j, n, n) == Poly.one()


def test_m2_first_value():
    assert sr_poly(CO2, 0, 1, 0) == al(2)


def test_oracle_two_dyck_paths():
    assert sr_path_oracle(CO1, 0, 2, 0) == al(1) ** 2 + al(1) * al(2)


def test_the_path_oracle_reads_only_the_alphas_of_heights_paths_fall_from():
    # the two Dyck paths of 4 steps, UUDD and UDUD, fall from heights 1 and 2:
    # alpha_1 alpha_2 + alpha_1^2 = 2*3 + 2*2, and no path falls from height 4
    coeffs = SRCoeffs.from_fn(1, lambda i: (1, 2, 3, 4)[i])
    assert sr_path_oracle(coeffs, 0, 2, 0) == sr_poly(coeffs, 0, 2, 0) == Poly.const(10)
    assert sr_path_oracle_row(coeffs, 0, 2) == [sr_poly(coeffs, 0, 2, k) for k in range(3)]
    read = []
    spy = SRCoeffs.from_fn(2, lambda i: read.append(i) or i)
    sr_path_oracle_row(spy, 1, 2)   # 7 steps, to heights 1, 4 and 7
    assert read == [h for h in range(8) if any(
        h in dict(falls) for items in srpaths._path_table(2, 1, 2, 0, 2) for falls, _ in items)]


def test_oracle_empty_path():
    assert sr_path_oracle(CO2, 0, 0, 0) == Poly.one()


def test_oracle_row_consistent_with_single_entries():
    row = sr_path_oracle_row(CO2, 1, 3)
    for k in range(4):
        assert row[k] == sr_path_oracle(CO2, 1, 3, k)


def test_oracle_limit():
    with pytest.raises(LimitExceeded):
        sr_path_oracle(CO1, 0, 13, 0)


def test_sfraction_production_m1():
    p = prodmat_smj(CO1, 0, 4)
    assert p[0, 0] == al(1)
    assert p[1, 0] == al(1) * al(2)
    assert p[1, 1] == al(2) + al(3)
    assert p[0, 1] == Poly.one()


def test_m2_explicit_subsubdiagonal():
    p = prodmat_smj(CO2, 0, 5)
    assert p[2, 0] == al(2) * al(4) * al(6)


def test_smj_output_is_triangle():
    for j in range(3):
        o = output_matrix(prodmat_smj(CO2, j, 6), 6)
        tri = SRTriangles(CO2, max_j=2).triangle(j, 6)
        assert o == tri


def test_j_shift_identity():
    lhs = prodmat_smj(CO2, 0, 5)
    rhs = prodmat_smj(CO2.shifted_up(), 1, 5)
    assert lhs == rhs


def test_tail_series_euler():
    lam = Poly.var("lam")
    euler = SRCoeffs.from_fn(
        1, lambda i: lam + (i + 1) // 2 - 1 if i % 2 == 1 else Poly.const(i // 2))
    f0 = sfrac_tail_series(euler, 0, 6)
    assert all(f0[n] == rising(lam, n) for n in range(7))


def test_tail_series_zero_coefficients():
    zero = SRCoeffs.from_fn(2, lambda i: 0)
    assert sfrac_tail_series(zero, 1, 5) == Series.one(5)


def test_tail_series_alternate_form():
    # (f0 - 1)/(alpha_m t), then alpha_m..alpha_{2m-j-1} -> 0 and
    # alpha_i -> alpha_{i-(m-j)}, equals the type-j generating function
    m = 2
    f0 = sfrac_tail_series(CO2, 0, 5)
    for j in range(m + 1):
        ell = m - j
        direct = sfrac_tail_series(CO2, j, 4)
        for n in range(5):
            q = f0[n + 1].exact_div(al(m))
            env = {f"al{i}": Poly.zero() for i in range(m, m + ell)}
            env.update({f"al{i}": al(i - ell) for i in range(m + ell, 3 * (n + 3))})
            assert q.substitute(env) == direct[n]


def test_kappa_family_alphas():
    fam = KappaFamily(0, -1, Fraction(1))
    co = kappa_family_coeffs(fam)
    x = Poly.var("x")
    assert [co.alpha(i) for i in range(2, 11)] == [
        x, Poly.one(), Poly.one(), x, Poly.const(2), Poly.const(2),
        x, Poly.const(3), Poly.const(3)]
    fam0 = KappaFamily(0, -1, Fraction(0))
    co0 = kappa_family_coeffs(fam0)
    assert [co0.alpha(i) for i in range(2, 8)] == [
        x, Poly.zero(), Poly.const(2), x, Poly.one(), Poly.const(3)]


def test_j1a0_family_and_spot_entry():
    fam = KappaFamily(1, 0)
    co = kappa_family_coeffs(fam)
    x = Poly.var("x")
    assert [co.alpha(i) for i in (2, 3, 4, 5, 6, 7)] == [
        x, Poly.one(), Poly.one(), x, Poly.const(2), Poly.const(2)]
    p = prodmat_smj(co, 1, 4)
    assert p[1, 1] == 3 + x  # alpha_4 + alpha_5 + alpha_6


@pytest.mark.parametrize("cell", sorted(ADMISSIBLE_CELLS))
def test_factorization_table_cells(cell):
    j, a = cell
    kappas = [None]
    if cell in KAPPA_CELLS:
        kappas = [Fraction(1), Fraction(1, 2), Fraction(0), Poly.var("kappa")]
    for kappa in kappas:
        assert verify_factorization_cell(KappaFamily(j, a, kappa), 6)


def test_rook_cell_at_larger_truncation():
    assert verify_factorization_cell(KappaFamily(1, 0), 7)


@pytest.mark.parametrize("cell", sorted(KAPPA_CELLS))
def test_scaled_check_refuses_an_alpha_perturbed_by_kappa(cell, monkeypatch):
    # the C-scaled symbolic-kappa check is no tautology: alpha_i + kappa for
    # any one index i that reaches the 4x4 block makes it fail
    kappa = Poly.var("kappa")
    fam = KappaFamily(*cell, kappa)
    assert verify_factorization_cell(fam, 4)
    exact = srpaths._cell_coeffs
    for index in range(2, 11):
        def perturbed(f, unit, index=index):
            alpha = exact(f, unit).alpha
            return SRCoeffs(2, lambda i: alpha(i) + kappa * unit if i == index else alpha(i))

        monkeypatch.setattr(srpaths, "_cell_coeffs", perturbed)
        assert not verify_factorization_cell(fam, 4), index


def test_cell_mismatch_names_the_kappa_it_checked(monkeypatch):
    # a rook-type cell ignores the kappa it is given and checks kappa = 1
    exact = srpaths._cell_coeffs
    monkeypatch.setattr(srpaths, "_cell_coeffs", lambda f, unit: SRCoeffs(
        2, lambda i: exact(f, unit).alpha(i) + (i == 4)))
    got = verify_factorization_cell(KappaFamily(1, 0, Fraction(7, 2)), 4)
    assert not got
    assert "(j=1, alpha=0, kappa=1) vs Laguerre P" in got.what


def test_symbolic_kappa_alphas_are_not_polynomials():
    with pytest.raises(ValueError):
        kappa_family_coeffs(KappaFamily(0, -1, Poly.var("kappa")))
    # an exact kappa may also come as a constant Poly
    co = kappa_family_coeffs(KappaFamily(0, -1, Poly.const(Fraction(1, 2))))
    # c_2 * 2 = 2 D(1)/D(2) = 2/(2 - kappa)
    assert co.alpha(6) == Poly.const(Fraction(4, 3))


@pytest.mark.parametrize("kappa", [Fraction(-1), Fraction(2), Fraction(3, 2), -1,
                                   Poly.const(2)])
def test_kappa_outside_unit_interval_rejected(kappa):
    with pytest.raises(ValueError):
        KappaFamily(0, -1, kappa)


@pytest.mark.parametrize("kappa", [0, 1, Fraction(1, 3)])
def test_kappa_in_unit_interval_accepted(kappa):
    assert verify_factorization_cell(KappaFamily(2, 1, kappa), 5)


@pytest.mark.parametrize("cell", [(0, 0), (0, 1), (1, 1)])
def test_inadmissible_cells(cell):
    with pytest.raises(InadmissibleCellError):
        KappaFamily(*cell)


def test_hankel_tp2_failure_witness():
    w = find_hankel_tp2_failure(1)
    assert w is not None
    assert any(c < 0 for c in w.minor.coefficients())
    # first offending minor for m=1 also involves only the leading entries
    assert w.rows == (0, 1) and w.cols == (0, 1)


@pytest.mark.parametrize("m", [0, -1])
def test_branch_order_below_one_is_refused(m):
    with pytest.raises(ValueError, match="branch order"):
        SRCoeffs.symbolic(m)
    with pytest.raises(ValueError, match="branch order"):
        SRCoeffs.from_fn(m, lambda i: 1)


def test_path_oracle_refuses_negative_type():
    with pytest.raises(ValueError, match="type j"):
        sr_path_oracle(CO2, -1, 2, 0)


@pytest.mark.parametrize("call", [
    lambda: sr_poly(CO2, -1, 2, 0),
    lambda: SRTriangles(CO2).value(-3, 2, 0),
    lambda: SRTriangles(CO2).value(-1, 2, 5),
    lambda: SRTriangles(CO1, max_j=3).triangle(-1, 3),
    lambda: SRTriangles(CO1).triangle(-2, 0),
    lambda: sr_path_oracle_row(CO2, -1, 2),
    lambda: sfrac_tail_series(CO1, -1, 3),
], ids=["sr_poly", "value", "value-outside-row", "triangle", "empty-triangle", "oracle-row",
        "tail-series"])
def test_recurrence_refuses_negative_type(call):
    # a negative j once read another type through Python's negative indexing
    with pytest.raises(ValueError, match="type j"):
        call()


def test_sr_poly_reduces_types_beyond_m():
    # S^(m;j) for j > m is the (n + ell, k + ell) entry of type j mod (m+1)
    tri = SRTriangles(CO2, max_j=7)
    for j in range(8):
        for n in range(4):
            for k in range(n + 1):
                assert sr_poly(CO2, j, n, k) == tri.value(j, n, k)


def test_the_recurrence_multiplies_no_zero_operand(monkeypatch):
    # the last entry of a row reads one entry of an earlier row, not a
    # product with the zero past its end; most of the row work is done by
    # _mul_add, so its operands are recorded too
    sizes = []
    product, mul_add = polyring._product, srpaths._mul_add

    def recorded(a, b):
        sizes.append((len(a.num), len(b.num)))
        return product(a, b)

    def recorded_mul_add(a, c, b):
        sizes.append((len(a.terms), len(c.terms), len(b.terms)))
        return mul_add(a, c, b)

    monkeypatch.setattr(polyring, "_product", recorded)
    monkeypatch.setattr(srpaths, "_mul_add", recorded_mul_add)
    for m in (1, 2, 3):
        tri = SRTriangles(SRCoeffs.symbolic(m), max_j=m + 1)
        tri.value(0, 8, 0)
        tri.triangle(m + 1, 6)
    assert any(len(s) == 2 for s in sizes) and any(len(s) == 3 for s in sizes)
    assert all(all(s) for s in sizes)


def test_each_alpha_is_read_once_per_triangle():
    reads = []

    def alpha_fn(i):
        reads.append(i)
        return al(i)

    coeffs = SRCoeffs(2, alpha_fn)
    for _ in range(2):
        reads.clear()
        tri = SRTriangles(coeffs, max_j=4)
        tri.value(0, 5, 0)
        tri.triangle(2, 6)
        tri.value(7, 3, 1)
        tri.value(4, 7, 2)
        assert reads and len(reads) == len(set(reads))
        assert tri.value(1, 4, 1) == sr_path_oracle(CO2, 1, 4, 1)


def test_triangle_walks_only_the_cones_of_its_last_row(monkeypatch):
    # at m = 1 the cones of S(0; 5, k) are both types at rows 0..4 and type 0
    # at row 5: 11 blocks, walked once for the whole triangle; every other
    # entry is then a memo hit.  For m < j <= max_j the rows below the last
    # need types <= j as well: at m = 2, j = 3 that is 4 types at rows 0..4
    # and at row 5, 24 blocks (the cones of the last row made 21 walks).
    # Past max_j the triangle is a block of the type-(j mod (m+1)) one, at m = 2,
    # j = 5 the 7 x 7 type-2 triangle: 3 types at rows 0..6, 21 blocks.
    walks = []
    fill = SRTriangles._fill

    def recording(self, blocks):
        blocks = list(blocks)
        walks.append(len(blocks))
        fill(self, blocks)

    monkeypatch.setattr(SRTriangles, "_fill", recording)
    cases = [(CO1, 0, 0, [11]), (CO2, 3, 3, [24]), (CO2, 0, 5, [21])]
    got = []
    for coeffs, max_j, j, want in cases:
        walks.clear()
        got.append(SRTriangles(coeffs, max_j=max_j).triangle(j, 6))
        assert walks == want, (coeffs.m, j)
    monkeypatch.undo()
    for (coeffs, max_j, j, _), tri in zip(cases, got):
        assert tri == Truncation.from_fn(
            6, 6, lambda i, k: SRTriangles(coeffs, max_j=max_j).value(j, i, k))


def test_prodmat_smj_refuses_a_negative_size():
    with pytest.raises(ValueError, match="requested"):
        prodmat_smj(SRCoeffs.symbolic(2), 0, -1)


def test_triangle_refuses_a_negative_size():
    for j in (0, 5):
        with pytest.raises(ValueError, match="requested"):
            SRTriangles(CO2).triangle(j, -1)
    assert SRTriangles(CO2).triangle(5, 0).rows == 0


# -- on-demand entries --------------------------------------------------------


def _eager(coeffs, top, n_max):
    """{(j, n): [S(j; n, 0), ..., S(j; n, n)]} for j <= top and n <= n_max,
    every row built in full from the two recurrences of the module
    docstring, with zeros outside the triangle."""
    m, al, zero = coeffs.m, coeffs.alpha, Poly.zero()
    rows = {(j, 0): [Poly.one()] for j in range(top + 1)}
    for n in range(1, n_max + 1):
        below = [zero] + rows[m, n - 1] + [zero]  # below[k + 1] = S(m; n-1, k)
        rows[0, n] = [below[k] + al((m + 1) * k + m) * below[k + 1] for k in range(n + 1)]
        for j in range(top):
            base = rows[j, n] + [zero]
            rows[j + 1, n] = [base[k] + al((m + 1) * (k + 1) + j) * base[k + 1]
                              for k in range(n + 1)]
    return rows


def _reads(m, t, r, k):
    """The entries that S(t; r, k) reads in the recurrence, inside their triangles."""
    if t == 0:
        cand = [(m, r - 1, k - 1), (m, r - 1, k)] if r else []
    else:
        cand = [(t - 1, r, k), (t - 1, r, k + 1)]
    return [(tt, rr, kk) for tt, rr, kk in cand if 0 <= kk <= rr]


def _cone(m, j, n, k):
    """Every entry S(j; n, k) depends on, itself included, by the recurrence."""
    seen, todo = set(), [(j, n, k)]
    while todo:
        entry = todo.pop()
        if entry not in seen:
            seen.add(entry)
            todo.extend(_reads(m, *entry))
    return seen


def _is_row_step(m, t, r, k):
    """Whether the entry is a multiply-add of two entries (not at a row end)."""
    return len(_reads(m, t, r, k)) == 2


_COEFFS = {
    "symbolic": SRCoeffs.symbolic,
    # zeros, ones and twos among symbolic alphas
    "mixed": lambda m: SRCoeffs.from_fn(m, lambda i: (0, 2, al(i), 1, al(i))[i % 5]),
    "rational": lambda m: SRCoeffs.from_fn(
        m, lambda i: Fraction(1, i) if i % 3 == 0 else al(i)),
}


@pytest.mark.parametrize("kind", sorted(_COEFFS))
@pytest.mark.parametrize("m", [1, 2, 3])
def test_on_demand_entries_equal_the_eager_rows(kind, m, monkeypatch):
    coeffs = _COEFFS[kind](m)
    top = m + 2
    want = _eager(coeffs, top, 8)
    queries = [(j, n, k) for j in range(top + 1) for n in range(8) for k in range(n + 1)]
    random.Random(m).shuffle(queries)
    steps = []
    mul_add = srpaths._mul_add
    monkeypatch.setattr(srpaths, "_mul_add", lambda *ops: steps.append(ops) or mul_add(*ops))
    # the types past m directly, and by the submatrix identity
    for tri in (SRTriangles(coeffs, max_j=top), SRTriangles(coeffs)):
        steps.clear()
        for j, n, k in queries:
            assert tri.value(j, n, k) == want[j, n][k], (j, n, k)
        # every entry was computed once
        assert len(steps) == sum(_is_row_step(m, *e) for e in tri._memo)
        for j in range(top + 1):
            block = Truncation.from_fn(8, 8, lambda i, k: want[j, i][k] if k <= i else 0)
            assert tri.triangle(j, 8) == block, j


@pytest.mark.parametrize("m", [1, 2, 3])
def test_a_request_computes_exactly_its_cone(m, monkeypatch):
    steps = []
    mul_add = srpaths._mul_add
    monkeypatch.setattr(srpaths, "_mul_add", lambda *ops: steps.append(ops) or mul_add(*ops))
    coeffs = SRCoeffs.from_fn(m, lambda i: 1)
    for j in range(m + 3):
        for n in range(7):
            for k in range(n + 1):
                tri = SRTriangles(coeffs, max_j=m + 2)
                steps.clear()
                tri.value(j, n, k)
                cone = _cone(m, j, n, k)
                assert set(tri._memo) == cone, (j, n, k)
                assert len(steps) == sum(_is_row_step(m, *e) for e in cone)
                # asked again, nothing is computed
                tri.value(j, n, k)
                assert len(steps) == sum(_is_row_step(m, *e) for e in cone)


def test_a_deep_request_is_not_recursive():
    # Fuss-Catalan: (1/(3n+1)) binom(4n, n) 3-Dyck paths of length 4n
    tri = SRTriangles(SRCoeffs.from_fn(3, lambda i: 1))
    assert tri.value(0, 300, 0) == comb(1200, 300) // 901


# -- path tables ----------------------------------------------------------------


def test_the_path_oracle_walks_each_argument_tuple_once():
    counts = SRCoeffs.from_fn(1, lambda i: i)
    srpaths._path_table.cache_clear()
    calls = [(CO1, 0, 3, 1), (CO2, 1, 2, 0), (CO1, 0, 3, 1), (counts, 0, 3, 1), (CO2, 1, 2, 0)]
    for call in calls:
        assert sr_path_oracle(*call) == sr_poly(*call)
    for _ in range(2):
        assert sr_path_oracle_row(CO2, 1, 2) == [sr_poly(CO2, 1, 2, k) for k in range(3)]
    # (m, j, n, k_lo, k_hi) = (1, 0, 3, 1, 1), (2, 1, 2, 0, 0) and (2, 1, 2, 0, 2)
    info = srpaths._path_table.cache_info()
    assert (info.misses, info.hits) == (3, 4)


def test_a_lower_limit_refuses_a_cached_walk(monkeypatch):
    assert sr_path_oracle(CO1, 0, 3, 0) == sr_poly(CO1, 0, 3, 0)
    assert len(sr_path_oracle_row(CO1, 0, 3)) == 4
    monkeypatch.setattr(srpaths, "PATH_ORACLE_STEP_LIMIT", 5)  # the paths have 6 steps
    with pytest.raises(LimitExceeded):
        sr_path_oracle(CO1, 0, 3, 0)
    with pytest.raises(LimitExceeded):
        sr_path_oracle_row(CO1, 0, 3)


def test_the_digraph_cap_does_not_cap_the_path_oracle(monkeypatch):
    monkeypatch.setenv("LAGTP_LIMIT", "0")
    assert sr_path_oracle(CO1, 0, 3, 0) == sr_poly(CO1, 0, 3, 0)


def test_a_cached_path_table_is_immutable():
    table = srpaths._path_table(2, 1, 2, 0, 2)
    assert srpaths._path_table(2, 1, 2, 0, 2) is table
    assert type(table) is tuple and len(table) == 3
    for items in table:
        assert type(items) is tuple
        for falls, count in items:
            assert type(falls) is tuple and type(count) is int
    with pytest.raises(TypeError):
        table[0] = ()
    # a caller's row is its own list
    row = sr_path_oracle_row(CO2, 1, 2)
    row.clear()
    assert sr_path_oracle_row(CO2, 1, 2) == [sr_poly(CO2, 1, 2, k) for k in range(3)]
