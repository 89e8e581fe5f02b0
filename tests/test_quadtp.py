from dataclasses import replace

from lagtp import quadtp
from lagtp.checks import Ctx, general_quad_tp_desk_scale
from lagtp.matrices import Truncation
from lagtp.polyring import Poly
from lagtp.quadtp import (QuadFactorParams, QuadVariantParams, build_general_quad,
                          build_variant_quad, general_quad_factors, laguerre_flat_params,
                          variant_quad_factors)


def v(name):
    return Poly.var(name)


def test_general_entries_equal_factor_product():
    p = QuadFactorParams.symbolic()
    assert build_general_quad(p).truncate(6) == general_quad_factors(p)["P"].truncate(6)


def test_q_superdiagonal_formula():
    p = QuadFactorParams.symbolic()
    q = build_general_quad(replace(p, h=())).truncate(3)
    assert q[1, 2] == v("a1") * v("c2") * v("e2")
    assert q[0, 1] == v("a0") * v("c1") * v("e1")


def test_q_equals_nested_factor_product():
    p = QuadFactorParams.symbolic()
    m = general_quad_factors(p)
    expect = (m["L1"] * (m["U"] * m["L2"] + m["D1"])).truncate(6)
    assert build_general_quad(replace(p, h=())).truncate(6) == expect


def test_general_subsub_entry():
    p = QuadFactorParams.symbolic()
    m = build_general_quad(p).truncate(4)
    assert m[3, 1] == v("b3") * v("d2") * v("f2")


def test_p_equals_q_plus_correction_rows():
    p = QuadFactorParams.symbolic()
    full = build_general_quad(p).truncate(6)
    q = build_general_quad(replace(p, h=())).truncate(6)
    m = general_quad_factors(p)
    corr = (m["D2"] * m["L2"]).truncate(6)  # row n: h_n f_n at n-1, h_n e_n at n
    assert full - q == corr
    for n in range(6):
        support = {k for k in range(6) if not corr[n, k].is_zero()}
        assert support <= {n - 1, n}
        for k in range(6):
            assert full[n, k] == q[n, k] + corr[n, k]


def test_delta_degenerate():
    one, zero = Poly.one(), Poly.zero()
    p = QuadFactorParams(a=lambda i: one, b=lambda i: zero, c=lambda i: one,
                         d=lambda i: zero, e=lambda i: one, f=lambda i: zero,
                         g=lambda i: zero, h=lambda i: zero)
    m = build_general_quad(p).truncate(5)
    for i in range(5):
        for j in range(5):
            assert m[i, j] == (Poly.one() if j == i + 1 else Poly.zero())


def test_laguerre_specialization_entries():
    yp, yv, yda, ydd, lam, x = (v(n) for n in ("yp", "yv", "yda", "ydd", "lam", "x"))
    spec = laguerre_flat_params(yp, yv, yda, ydd, lam, x)
    m = build_general_quad(spec).truncate(3)
    # n = 1 row of the flat quadridiagonal with y_fp tied to y_p
    assert m[1, 0] == lam * yp * yv + (yda + ydd) * x
    assert m[1, 1] == lam * yp + (yda + ydd) + x
    assert m[2, 0] == 2 * yp * yv * x


def test_variant_entries_equal_factor_product():
    p = QuadVariantParams.symbolic()
    assert build_variant_quad(p).truncate(6) == variant_quad_factors(p)["P"].truncate(6)


def test_variant_l1_l2_commute():
    m = variant_quad_factors(QuadVariantParams.symbolic())
    assert (m["L1"] * m["L2"]).truncate(6) == (m["L2"] * m["L1"]).truncate(6)


def test_variant_q_is_f_zero():
    p = QuadVariantParams.symbolic()
    w = variant_quad_factors(p)
    expect = (w["L1"] * (w["L2"] * w["U"] + w["D1"])).truncate(6)
    assert build_variant_quad(replace(p, f=())).truncate(6) == expect


def test_variant_bottom_entry():
    p = QuadVariantParams.symbolic()
    m = build_variant_quad(p).truncate(3)
    assert m[2, 0] == v("x") * v("y") * v("b2") * v("b1") * v("d0")


def test_variant_degenerate_x_y_zero():
    base = QuadVariantParams.symbolic()
    p = QuadVariantParams(alpha=v("alpha"), beta=v("beta"),
                          x=Poly.zero(), y=Poly.zero(),
                          a=base.a, b=base.b, c=base.c, d=base.d, e=base.e, f=base.f)
    m = build_variant_quad(p).truncate(5)
    assert m.lower_bandwidth() == 0
    for k in range(1, 5):
        assert m[k - 1, k] == v("alpha") * v("beta") * v(f"c{k}")
        assert m[k, k] == (v("alpha") * v("beta") * v(f"d{k}")
                           + v("alpha") * v(f"e{k}") + v("beta") * v(f"f{k}"))


def test_desk_scale_check_reads_the_closed_form_once(monkeypatch):
    # the 7x7 block is built once: 200 sequence reads
    reads = []
    symbolic_seq = quadtp.symbolic_seq

    def counted(prefix, start=0):
        seq = symbolic_seq(prefix, start)
        return lambda i: reads.append((prefix, i)) or seq(i)

    monkeypatch.setattr(quadtp, "symbolic_seq", counted)
    assert general_quad_tp_desk_scale(Ctx(seed=42))
    assert len(reads) == 200


def test_desk_scale_check_catches_a_planted_zero_in_the_seventh_row(monkeypatch):
    # P with a zero at (6, 6): the 2x2 minor on rows (5, 6) and columns (4, 6)
    # loses its positive term and keeps -P[5, 6] P[6, 4]
    def planted(p):
        m = build_general_quad(p).truncate(7)
        return Truncation.from_fn(7, 7, lambda i, k: 0 if (i, k) == (6, 6) else m[i, k])

    monkeypatch.setattr(quadtp, "build_general_quad", planted)
    report = general_quad_tp_desk_scale(Ctx(seed=42))
    assert not report and report.mode == "symbolic"
    assert (report.witness.rows, report.witness.cols) == ((5, 6), (4, 6))
    assert report.witness.minor == -(v("a5") * v("b6") * v("c6") * v("d5") * v("e6") * v("f5"))
    assert report.checked == 489
