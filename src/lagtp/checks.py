"""Verification suites: every structural identity the library promises,
written as checks so the batch front end and the test suite can drive the
same code.

A check returns True, or on failure the first falsy value of its chained
comparisons: the ``Mismatch`` of ``first_difference`` at the first differing
entry (or key: an m, a table cell), or a failed ``TPReport`` with its
witness minor.  A builder that fails its cross-check, or an oracle count
table that breaks its invariant, raises ``RouteMismatchError``, which fails
the check with the error's ``Mismatch``; a check that raises anything else
is reported as an error, not as a failure.
CHECKS registers every check once, with its suite and its acceptance
criterion; CRITERIA gives each criterion its time budget.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from . import banded, digraphs, laguerre, quadtp, srpaths
from .laguerre import (UNIT_WEIGHTS, EdgeWeights, LaguerreParams, VertexWeights,
                       coeff_matrix_first_mv, coeff_matrix_second_mv,
                       coeff_matrix_uni, factorization_check,
                       laguerre_rowgen_egf, monic_laguerre,
                       monic_laguerre_reversed, prodmat, rowgen_shifted_family_check,
                       rowgen_polys, unsigned_self_inverse_check)
from .matrices import (Banded, DiagonalPolySpec, Mismatch, RouteMismatchError, TPReport,
                       Truncation, XorShift64, binomial_truncation, bx_conjugate_eaz_identity_check,
                       conjugate_by_binomial, delta_matrix, diagonal, eaz_matrix,
                       first_difference, hankel_truncation, output_matrix, production_of,
                       riordan_matrix, sfraction_word, tp_check_sampled,
                       tp_check_symbolic, tp_check_tridiagonal)
from .polyring import Poly, _degrees, rising
from .series import Series, series_pow_sym, solve_riccati


# What a check returns: True, or a falsy Mismatch or TPReport.
Outcome = bool | Mismatch | TPReport


@dataclass(frozen=True)
class Ctx:
    seed: int = 42
    max_n: int | None = None

    def cap(self, default: int) -> int:
        return default if self.max_n is None else min(default, self.max_n)


def _first_failure(results) -> Outcome:
    """The first falsy value of ``results``, taken lazily, or True."""
    return next((r for r in results if not r), True)


def _named(report: TPReport, what: str) -> TPReport:
    """``report``, with ``what`` (the matrix it scanned) added to its meta
    when it failed, for checks that scan several matrices."""
    return report or replace(report, meta={**report.meta, "what": what})


def _lower(n: int, fn) -> Truncation:
    """The n x n lower-triangular matrix with entries fn(i, k), k <= i."""
    return Truncation.from_fn(n, n, lambda i, k: fn(i, k) if k <= i else 0)


def _egf_terms(series: Series, count: int) -> list:
    """n! [t^n] series for n = 0..count-1."""
    return [series[i].scale(math.factorial(i)) for i in range(count)]


# ---------------------------------------------------------------- univariate


GOLDEN_MONIC = [
    "1",
    "1+a+x",
    "2+3*a+4*x+a^2+2*a*x+x^2",
    "6+11*a+18*x+6*a^2+15*a*x+9*x^2+a^3+3*a^2*x+3*a*x^2+x^3",
]
GOLDEN_ROOK = [
    "1",
    "1+x",
    "1+4*x+2*x^2",
    "1+9*x+18*x^2+6*x^3",
    "1+16*x+72*x^2+96*x^3+24*x^4",
]
GOLDEN_LAH = [
    "1",
    "x",
    "2*x+x^2",
    "6*x+6*x^2+x^3",
    "24*x+36*x^2+12*x^3+x^4",
]


def golden_polynomials(ctx: Ctx) -> Outcome:
    x, sym = Poly.var("x"), LaguerreParams.symbolic()
    p0, pm1 = LaguerreParams.of(0), LaguerreParams.of(-1)
    # the last two: the same families as row-generating polynomials
    families = (("monic Laguerre", [monic_laguerre(n, sym, x) for n in range(4)], GOLDEN_MONIC),
                ("rook", [monic_laguerre_reversed(n, p0, x) for n in range(5)], GOLDEN_ROOK),
                ("Lah", [monic_laguerre(n, pm1, x) for n in range(5)], GOLDEN_LAH),
                ("Lah row", rowgen_polys(coeff_matrix_uni(pm1, 4), x), GOLDEN_LAH[:4]),
                ("rook row", rowgen_polys(coeff_matrix_uni(p0, 3), x, reversed_form=True),
                 GOLDEN_ROOK[:3]))
    return _first_failure(first_difference([str(p) for p in polys], golden, f"{name} polynomials")
                          for name, polys, golden in families)


def tridiagonal_output_is_coeff_matrix(ctx: Ctx) -> Outcome:
    n = ctx.cap(9)
    params = LaguerreParams.symbolic()
    return first_difference(output_matrix(prodmat(params, "Pcirc"), n),
                            coeff_matrix_uni(params, n), "O(P-circ) vs coefficient matrix")


def quadridiagonal_output_is_rowgen_matrix(ctx: Ctx) -> Outcome:
    n = ctx.cap(8)
    params, x = LaguerreParams.symbolic(), Poly.var("x")
    got = output_matrix(prodmat(params, "P", x=x), n)
    rowgen = laguerre.binomial_rowgen_matrix(coeff_matrix_uni(params, n), x)
    return (first_difference(got, rowgen, "O(P) vs L B_x")
            and rowgen_shifted_family_check(params, n, x))


def _univariate_hankel() -> Truncation:
    """The 5x5 Hankel matrix of L_0..L_8 in x and lam = 1 + alpha."""
    params = LaguerreParams(Poly.var("lam") - 1)
    return hankel_truncation([monic_laguerre(n, params, Poly.var("x")) for n in range(9)], 5)


def univariate_hankel_tp3_symbolic(ctx: Ctx) -> Outcome:
    return tp_check_symbolic(_univariate_hankel(), 3)


def univariate_hankel_tp4_sampled(ctx: Ctx) -> Outcome:
    return tp_check_sampled(_univariate_hankel(), 4, seed=ctx.seed, samples=100)


def unsigned_self_inverse(ctx: Ctx) -> Outcome:
    return (unsigned_self_inverse_check(LaguerreParams.symbolic(), 6)
            and unsigned_self_inverse_check(LaguerreParams.symbolic(), 1)
            and unsigned_self_inverse_check(LaguerreParams.of(0), 8))


def coeff_matrix_is_sfraction_triangle(ctx: Ctx) -> Outcome:
    """The coefficient matrix is the m=1 S-fraction triangle with
    alpha_{2k-1} = k+alpha, alpha_{2k} = k; its zeroth column is lam^rising."""
    n = ctx.cap(8)
    params = LaguerreParams.symbolic()
    alpha_fn = laguerre._sfraction_coeffs(params, 1, 1)
    coeffs = srpaths.SRCoeffs.from_fn(1, alpha_fn)
    tri = srpaths.SRTriangles(coeffs).triangle(0, n)
    uni = coeff_matrix_uni(params, n)
    lam_rising = [rising(params.lam, i) for i in range(n)]
    return (first_difference(tri, uni, "S-fraction triangle vs coefficient matrix")
            and first_difference(production_of(uni),
                                 sfraction_word(alpha_fn, 1, 0).truncate(n - 1, n),
                                 "production matrix vs S-fraction word")
            and first_difference([uni[i, 0] for i in range(n)], lam_rising,
                                 "column 0 vs lam^rising")
            and first_difference(srpaths.sfrac_tail_series(coeffs, 0, n - 1).coefs, lam_rising,
                                 "S-fraction series vs lam^rising"))


def direct_tp_scaling_route(ctx: Ctx) -> Outcome:
    """Row-scaling the binomial matrix by x_i = lam+i-1 rebuilds the
    coefficient matrix at alpha = -1+lam."""
    n = ctx.cap(7)
    lam = Poly.var("lam")
    scaled = _lower(n, lambda i, k: rising(lam + k, i - k) * math.comb(i, k))
    return first_difference(scaled, coeff_matrix_uni(LaguerreParams(lam - 1), n),
                            "row-scaled binomial matrix vs coefficient matrix")


def univariate_bidiagonal_factorizations(ctx: Ctx) -> Outcome:
    params = LaguerreParams.symbolic()
    return (factorization_check("tridiagonal_lu", params, 7)
            and factorization_check("quadridiagonal_nested", params, 7))


def flat_tridiagonal_split(ctx: Ctx) -> Outcome:
    params = LaguerreParams.symbolic()
    # equality case: y_fp = y_p and y_da + y_dd = y_p + y_v force D = 0
    yp, yv = Poly.var("yp"), Poly.var("yv")
    w = VertexWeights(y_p=yp, y_v=yv, y_da=yp, y_dd=yv, y_fp=yp)
    return (factorization_check("flat_split", params, 6)
            and factorization_check("flat_split", params, 6, weights=w))


# ------------------------------------------------------------- multivariate


def _stirling2(n: int, k: int) -> int:
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def _eulerian(n: int, j: int) -> int:
    if n == 0:
        return 1 if j == 0 else 0
    if j < 0 or j >= max(n, 1):
        return 0
    return (j + 1) * _eulerian(n - 1, j) + (n - j) * _eulerian(n - 1, j - 1)


def first_mv_stirling_identities(ctx: Ctx) -> Outcome:
    """v = (1,0,0) gives the Stirling subset triangle; v = (1,1,0) shifts it."""
    n = ctx.cap(8)
    p0 = LaguerreParams.of(0)
    m1 = coeff_matrix_first_mv(p0, EdgeWeights(Poly.one(), Poly.zero(), Poly.zero()), n)
    m2 = coeff_matrix_first_mv(p0, EdgeWeights(Poly.one(), Poly.one(), Poly.zero()), n)
    shifted = Truncation.from_fn(n, n, lambda i, k: _stirling2(i + 1, k + 1))
    return (first_difference(m1, Truncation.from_fn(n, n, _stirling2), "v = (1,0,0) vs S(n,k)")
            and first_difference(m2, shifted, "v = (1,1,0) vs S(n+1,k+1)"))


def first_mv_uniform_scaling(ctx: Ctx) -> Outcome:
    n = ctx.cap(6)
    params = LaguerreParams.symbolic()
    v = Poly.var("v")
    m = coeff_matrix_first_mv(params, EdgeWeights(v, v, v), n)
    uni = coeff_matrix_uni(params, n)
    return first_difference(m, _lower(n, lambda i, k: uni[i, k] * v ** (i - k)),
                            "v = (v,v,v) vs coefficient matrix * v^(n-k)")


def first_mv_rooks_decreasing(ctx: Ctx) -> Outcome:
    """v_+ = 0: entries are sums of loop choices times Stirling partitions."""
    n = ctx.cap(8)
    params = LaguerreParams.symbolic()
    vm, v0 = Poly.var("vm"), Poly.var("v0")
    m = coeff_matrix_first_mv(params, EdgeWeights(vm, v0, Poly.zero()), n)
    lam = params.lam
    want = _lower(n, lambda nn, k: Poly.dot(((lam * v0) ** i * math.comb(nn, i),
                                             vm ** (nn - i - k) * _stirling2(nn - i, k))
                                            for i in range(nn - k + 1)))
    return first_difference(m, want, "v_+ = 0 vs loops times Stirling partitions")


def first_mv_eulerian_column(ctx: Ctx) -> Outcome:
    """alpha = 0, v_0 = v_-: column zero generates permutations by excedances."""
    n = ctx.cap(6)
    p0 = LaguerreParams.of(0)
    vm, vp = Poly.var("vm"), Poly.var("vp")
    m = coeff_matrix_first_mv(p0, EdgeWeights(vm, vm, vp), n)
    want = [Poly.dot((vp ** j * _eulerian(nn, j), vm ** (nn - j)) for j in range(nn + 1))
            for nn in range(n)]
    return first_difference([m[nn, 0] for nn in range(n)], want, "column 0 vs Eulerian")


def second_mv_riordan_vs_oracle(ctx: Ctx) -> Outcome:
    """Both routes agree, at alpha = 7/3 too (else the constructor raises RouteMismatchError)."""
    n, m = ctx.cap(7), ctx.cap(5)
    params, w = LaguerreParams.symbolic(), VertexWeights.symbolic()
    wz = VertexWeights.symbolic(with_z=True)
    coeff_matrix_second_mv(params, w, n, flat=True)
    coeff_matrix_second_mv(params, w, m, flat=False)
    coeff_matrix_second_mv(params, wz, m, flat=True)
    coeff_matrix_second_mv(LaguerreParams.of("7/3"), w, m, flat=True)
    return True


def flat_tridiagonal_output_is_flat_matrix(ctx: Ctx) -> Outcome:
    n = ctx.cap(7)
    params = LaguerreParams.symbolic()
    w = VertexWeights.symbolic()
    got = output_matrix(prodmat(params, "PcircFlat", weights=w), n)
    return first_difference(got, coeff_matrix_second_mv(params, w, n, flat=True, oracle_rows=0),
                            "O(flat P-circ) vs flat Riordan route")


def conjugation_links_production_matrices(ctx: Ctx) -> Outcome:
    n = ctx.cap(6)
    params, x = LaguerreParams.symbolic(), Poly.var("x")
    w = VertexWeights.symbolic()

    def linked(circ, quad):
        return first_difference(conjugate_by_binomial(prodmat(params, circ, weights=w), x, n),
                                prodmat(params, quad, weights=w, x=x).truncate(n),
                                f"B_x^-1 {circ} B_x vs {quad}")

    return linked("PcircFlat", "PFlat") and linked("PcircY", "PY")


def second_mv_homogeneity(ctx: Ctx) -> Outcome:
    """Entry (i,k) is homogeneous in the five vertex weights: of degree
    i - k in the flat matrix and of degree i in the non-flat one."""
    n = ctx.cap(6)
    params, w = LaguerreParams.symbolic(), VertexWeights.symbolic()
    names = {"yp", "yv", "yda", "ydd", "yfp"}
    cells = [(i, k) for i in range(n) for k in range(i + 1)]

    def degrees(flat):
        m = coeff_matrix_second_mv(params, w, n, flat=flat, oracle_rows=0)
        label = "flat" if flat else "non-flat"
        return first_difference({c: _degrees(m[c], names) for c in cells},
                                {(i, k): [i - k if flat else i] for i, k in cells},
                                f"vertex-weight degrees of the {label} entries")

    return degrees(True) and degrees(False)


def second_mv_peak_divisibility(ctx: Ctx) -> Outcome:
    """Every entry of the non-flat matrix is divisible by y_p^k: the
    digraph-oracle entries themselves equal y_p^k times the flat Riordan
    route's."""
    n = min(ctx.cap(6), digraphs._vertex_cap(symbolic=True) + 1)
    params = LaguerreParams.symbolic()
    w = VertexWeights.symbolic()
    flat = coeff_matrix_second_mv(params, w, n, flat=True, oracle_rows=0)
    weights = w.oracle_weights(params.lam)
    oracle = _lower(n, lambda i, k: digraphs.oracle_entry(i, k, weights, "second_mv"))
    return first_difference(oracle, _lower(n, lambda i, k: flat[i, k] * w.y_p ** k),
                            "oracle entries vs flat Riordan route * y_p^k")


def first_specializations(ctx: Ctx) -> Outcome:
    n = ctx.cap(5)
    return laguerre.first_mv_specialization_check(LaguerreParams.symbolic(), n)


def cycle_statistics_egf(ctx: Ctx) -> Outcome:
    n = min(ctx.cap(7), digraphs._vertex_cap(symbolic=True))
    w = VertexWeights.symbolic()
    lam = Poly.var("lam")
    # F does not depend on flat; the flat G is H itself, with no scaling
    f, _ = laguerre.riordan_pair(LaguerreParams(lam - 1), w, n, flat=True)
    weights = w.oracle_weights(lam)
    oracle = [digraphs.permutation_oracles(i, "cyclic", weights) for i in range(n + 1)]
    f1, _ = laguerre.riordan_pair(LaguerreParams.of(0), w, n, flat=True)
    return (first_difference(_egf_terms(f, n + 1), oracle, "F vs cyclic oracle")
            # lemma: F(lam) = F(1)^lam
            and first_difference(series_pow_sym(f1, lam, n).coefs, f.coefs, "F(1)^lam vs F"))


def word_statistics_egf(ctx: Ctx) -> Outcome:
    n = min(ctx.cap(7), digraphs._vertex_cap(symbolic=True))
    zs = {k: Poly.var(v) for k, v in
          (("z_p", "zp"), ("z_v", "zv"), ("z_da", "zda"), ("z_dd", "zdd"))}
    g = solve_riccati(zs["z_p"], zs["z_da"] + zs["z_dd"], zs["z_v"], n)
    oracle = [digraphs.permutation_oracles(i, "linear00", zs) for i in range(1, n + 1)]
    return first_difference(_egf_terms(g, n + 1), [Poly.zero()] + oracle, "G vs linear oracle")


def laguerre_egf_check(ctx: Ctx) -> Outcome:
    n = ctx.cap(8)
    params, x = LaguerreParams.symbolic(), Poly.var("x")
    egf = laguerre_rowgen_egf(params, x, n)
    return first_difference(_egf_terms(egf, n + 1),
                            [monic_laguerre(i, params, x) for i in range(n + 1)], "EGF vs L_n")


def riccati_consistency(ctx: Ctx) -> Outcome:
    """d/dt of the Riccati solution re-satisfies the ODE termwise."""
    n = ctx.cap(8)
    p, q, r = Poly.var("zp"), Poly.var("zda") + Poly.var("zdd"), Poly.var("zv")
    g = solve_riccati(p, q, r, n)
    rhs = (Series.one(n) * p + g * q + (g * g) * r).truncate(n - 1)
    return first_difference(g.derivative().coefs, rhs.coefs, "G' vs p + q G + r G^2")


def first_mv_egf_bivariate(ctx: Ctx) -> Outcome:
    """The bivariate EGF F(t) e^{u G-flat(t)} matches the first multivariate
    matrix entries to order 6, with u tracked as a variable."""
    n = ctx.cap(6)
    params = LaguerreParams.symbolic()
    edge, u = EdgeWeights.symbolic(), Poly.var("u")
    f, gflat = laguerre.riordan_pair(params, edge.vertex_weights(), n, flat=True)
    egf = f * (gflat * u).exp()
    rows = _egf_terms(egf, n + 1)
    return first_difference(_lower(n + 1, lambda i, k: rows[i].coeff_of_var("u", k)),
                            coeff_matrix_first_mv(params, edge, n + 1), "EGF vs first_mv")


# ------------------------------------------------------------------ riordan


def eaz_conjugation_identity(ctx: Ctx) -> Outcome:
    n = ctx.cap(6)
    a = [Poly.var(f"a{i}") for i in range(6)]
    z = [Poly.var(f"z{i}") for i in range(6)]
    x, zero_a = Poly.var("x"), [Poly.zero()] * 6
    return (bx_conjugate_eaz_identity_check(a, z, n)
            # a = 0: conjugation leaves EAZ(0,z) fixed
            and first_difference(conjugate_by_binomial(eaz_matrix(zero_a, z), x, n),
                                 eaz_matrix(zero_a, z).truncate(n), "conjugated EAZ(0,z)")
            # x -> 0 degenerates to the identity conjugation
            and first_difference(conjugate_by_binomial(eaz_matrix(a, z), Poly.zero(), n),
                                 eaz_matrix(a, z).truncate(n), "EAZ(a,z) conjugated at x=0"))


def eaz_spot_values(ctx: Ctx) -> Outcome:
    a = [Poly.var(f"a{i}") for i in range(4)]
    z = [Poly.var(f"z{i}") for i in range(4)]
    m = eaz_matrix(a, z)
    params = LaguerreParams.symbolic()
    lam = params.lam
    zero = eaz_matrix([0], [0]).truncate(4, 5)
    return (first_difference([m(2, 1), m(3, 4)], [(z[1] + a[2]) * 2, a[0]], "EAZ (2,1), (3,4)")
            and first_difference(zero, Truncation.zero(4, 5), "EAZ(0,0)")
            and first_difference(eaz_matrix([1, 2, 1], [lam, lam]).truncate(6),
                                 prodmat(params, "Pcirc").truncate(6), "EAZ vs P-circ"))


def riordan_constructions(ctx: Ctx) -> Outcome:
    n = ctx.cap(6)
    params, x = LaguerreParams.symbolic(), Poly.var("x")
    f, g = laguerre.riordan_pair(params, UNIT_WEIGHTS, n)
    return (first_difference(riordan_matrix(f, g, n), coeff_matrix_uni(params, n),
                             "R[F,G] vs coefficient matrix")
            # B_x = R[e^{xt}, t]
            and first_difference(riordan_matrix((Series.t(n) * x).exp(), Series.t(n), n),
                                 binomial_truncation(x, n), "R[e^(xt), t] vs B_x")
            and first_difference(riordan_matrix(Series.one(n), Series.t(n), n),
                                 Truncation.identity(n), "R[1, t] vs I"))


def riordan_vector_action(ctx: Ctx) -> Outcome:
    """R[F,G] b has EGF F(t) B(G(t)), for two different (F,G) pairs."""
    n = ctx.cap(6)
    pairs = [laguerre.riordan_pair(LaguerreParams.symbolic(), UNIT_WEIGHTS, n),
             ((Series.t(n) * Poly.var("x")).exp(), Series.t(n))]
    b = [Poly.var(f"b{i}") for i in range(n)]
    begf = Series([b[i].scale(Fraction(1, math.factorial(i))) for i in range(n)], n - 1)

    def acts(f, g):
        r = riordan_matrix(f, g, n)
        rhs = f.truncate(n - 1) * begf.compose(g.truncate(n - 1))
        return first_difference([Poly.dot((r[i, k], b[k]) for k in range(i + 1)) for i in range(n)],
                                _egf_terms(rhs, n), "R[F,G] b vs F B(G)")

    return _first_failure(acts(f, g) for f, g in pairs)


def riordan_product_rule(ctx: Ctx) -> Outcome:
    """R[F1,G1] R[F2,G2] = R[(F2 o G1) F1, G2 o G1] on truncations."""
    n = ctx.cap(6)
    pairs = [laguerre.riordan_pair(LaguerreParams.symbolic(), UNIT_WEIGHTS, n),
             ((Series.t(n) * Poly.var("x")).exp(), Series.t(n))]
    f2, g2 = pairs[0]
    return _first_failure(
        first_difference(riordan_matrix(f1, g1, n) * riordan_matrix(f2, g2, n),
                         riordan_matrix(f2.compose(g1) * f1, g2.compose(g1), n),
                         "R[F1,G1] R[F2,G2] vs R[(F2 o G1) F1, G2 o G1]")
        for f1, g1 in pairs)


def riordan_production_is_eaz(ctx: Ctx) -> Outcome:
    """production_of(R[F,G]) = EAZ(A,Z) with A = G' o Ginv, Z = (F'/F) o Ginv."""
    n = ctx.cap(7)
    params, w = LaguerreParams.symbolic(), VertexWeights.symbolic()
    pairs = [laguerre.riordan_pair(params, UNIT_WEIGHTS, n),
             laguerre.riordan_pair(params, w, n, flat=True)]

    def is_eaz(f, g):
        ginv = g.reversion()
        a_series = g.derivative().compose(ginv.truncate(n - 1))
        z_series = (f.derivative() * f.reciprocal()).compose(ginv.truncate(n - 1))
        want = eaz_matrix(a_series.coefs, z_series.coefs)
        return first_difference(production_of(riordan_matrix(f, g, n)),
                                want.truncate(n - 1, n), "production vs EAZ(A,Z)")

    return _first_failure(is_eaz(f, g) for f, g in pairs)


def binomial_shift_of_production(ctx: Ctx) -> Outcome:
    """O(aI + bP) = B_{a,b} O(P), symbolically in a and b."""
    n = ctx.cap(5)
    a, b = Poly.var("s"), Poly.var("u")
    rng = XorShift64(ctx.seed)
    p = Truncation.from_fn(n, n, lambda i, j: int(rng.next_u64() % 4) if j <= i + 1 else 0)
    return first_difference(output_matrix(Truncation.identity(n).scale(a) + p.scale(b), n),
                            binomial_truncation(a, n, b) * output_matrix(p, n), "O(aI + bP)")


def hankel_factorization_identity(ctx: Ctx) -> Outcome:
    """H(O_0(P)) = O(P) O(P^T)^T for a fully symbolic Hessenberg P."""
    n = ctx.cap(5)

    def p(i, k):
        return Poly.var(f"p{i}_{k}") if k <= i + 1 else Poly.zero()

    col0 = [output_matrix(p, 2 * n - 1, 1)[i, 0] for i in range(2 * n - 1)]
    a = output_matrix(p, n, n)
    b = output_matrix(lambda i, k: p(k, i), n, n)
    return first_difference(hankel_truncation(col0, n), a * b.transpose(), "H(O_0(P))")


def truncation_exactness(ctx: Ctx) -> Outcome:
    """Row n of O(P) ignores rows >= n of P: perturbing them changes nothing."""
    n = ctx.cap(6)
    params, x = LaguerreParams.symbolic(), Poly.var("x")
    base, bump = prodmat(params, "P", x=x), Poly.var("bump")

    def perturbed(i, k):
        return base(i, k) + bump if i >= n - 1 and k <= i + 1 else base(i, k)

    return first_difference(output_matrix(base, n), output_matrix(perturbed, n),
                            "O(P) vs O(perturbed P)")


def production_output_roundtrip(ctx: Ctx) -> Outcome:
    n = ctx.cap(8)
    params, x = LaguerreParams.symbolic(), Poly.var("x")

    def roundtrip(which):
        p = prodmat(params, which, x=x)
        o = output_matrix(p, n)
        prod = production_of(o)
        return (first_difference(prod, p.truncate(n - 1, n), f"production of O({which})")
                and first_difference(output_matrix(prod, n - 1), o.truncate(n - 1, n - 1),
                                     f"O(production of O({which}))"))

    x_shift = DiagonalPolySpec(0, ((1,), (x,)))
    return (_first_failure(map(roundtrip, ("Pcirc", "P")))
            and first_difference(production_of(Truncation.identity(5)),
                                 delta_matrix().truncate(4, 5), "production of I vs Delta")
            and first_difference(production_of(binomial_truncation(x, 5)),
                                 x_shift.truncate(4, 5), "production of B_x vs xI + Delta"))


def tridiagonal_minor_criterion(ctx: Ctx) -> Outcome:
    """The off-diagonal/contiguous-minor criterion agrees with brute force
    on random nonnegative tridiagonal integer matrices."""
    rng = XorShift64(ctx.seed)

    def trial(index):
        n = 3 + int(rng.next_u64() % 5)  # up to 7x7
        m = Truncation.from_fn(
            n, n, lambda i, j: int(rng.next_u64() % 4) if abs(i - j) <= 1 else 0)
        orders = (2, 3, n)
        return first_difference([tp_check_tridiagonal(m, order) for order in orders],
                                [tp_check_symbolic(m, order).ok for order in orders],
                                f"criterion vs minor scan at orders {orders}, trial {index}")

    return _first_failure(map(trial, range(12)))


def tridiagonal_diagonal_comparison(ctx: Ctx) -> Outcome:
    """TP tridiagonal plus nonnegative diagonal stays TP."""
    rng = XorShift64(ctx.seed)

    def trial(_):
        n = 3 + int(rng.next_u64() % 4)  # up to 6x6
        lo = Truncation.from_fn(
            n, n, lambda i, j: int(rng.next_u64() % 4) if j == i or j == i - 1 else 0)
        up = Truncation.from_fn(
            n, n, lambda i, j: int(rng.next_u64() % 4) if j == i or j == i + 1 else 0)
        d = diagonal(lambda i: int(rng.next_u64() % 4)).truncate(n)
        return tp_check_symbolic(lo * up + d, n)

    return _first_failure(map(trial, range(10)))


def tp_negative_control(ctx: Ctx) -> Outcome:
    """Each scan rejects a planted matrix: the symbolic scan, which goes per minor,
    on a packed box and on a sparse one (a band of u_i v_k beside w_i: TP2, and
    of the six terms of its first 3x3 minor only the last the scan forms is
    negative), and the sampled scan, which goes a column block at a time, over
    every lane.
    The first sampled witness, [[1+x, 1], [4, 1+x]] at x = 0 in sample 0, rests on
    ``XorShift64`` drawing 0 first for every seed below 2^32: a fix of that
    generator must pin it again.  The second, 1 + x(x-1)(x-3) = -1 at x = 2 only,
    lies in the last column block and, for those seeds, never in lane 0."""
    report = tp_check_symbolic(Truncation([[1, 2], [3, 1]]), 2)
    minor = report.witness.minor if report.witness else None
    u, v, d = ([Poly.var(f"{p}{i}") for i in range(4)] for p in "uvw")
    band = tp_check_symbolic(Truncation.from_fn(4, 4, lambda i, k: (
        u[i] * v[k] if abs(i - k) <= 1 else 0) + (d[i] if i == k else 0)), 3)
    band_found = band.witness and (band.witness.rows, band.witness.cols, band.witness.minor)
    uv = [ui * vi for ui, vi in zip(u, v)]
    band_minor = d[1] * (d[0] + uv[0]) * (d[2] + uv[2]) + uv[1] * (d[0] * d[2] - uv[0] * uv[2])
    x = Poly.var("x")
    w = VertexWeights(y_p=1, y_v=1, y_da=0, y_dd=0, y_fp=1)
    planted = prodmat(LaguerreParams.of(0), "PFlat", weights=w, x=x).truncate(7)
    sampled = tp_check_sampled(planted, 4, seed=ctx.seed, samples=100)
    witness = sampled.witness
    found = witness and (witness.rows, witness.cols, witness.minor, witness.sample_index)
    late = tp_check_sampled(Truncation([[1, 1], [1, 2 + x * (x - 1) * (x - 3)]]), 2,
                            seed=ctx.seed, samples=100)
    witness = late.witness
    late_found = witness and (witness.rows, witness.cols, witness.minor, witness.assignment)
    return (first_difference([report.ok, minor], [False, Poly.const(-5)],
                             "TP2 scan of [[1,2],[3,1]]: [ok, witness minor]")
            and first_difference([band.ok, band_found], [False, ((0, 1, 2), (0, 1, 2), band_minor)],
                                 "TP3 scan of the u_i v_k band beside w_i: [ok, (rows, cols, minor)]")
            and first_difference([sampled.ok, found], [False, ((1, 2), (1, 2), -3, 0)],
                                 "sampled TP4 scan of the planted PFlat block: "
                                 "[ok, (rows, cols, minor, sample)]")
            and first_difference([late.ok, late_found],
                                 [False, ((0, 1), (0, 1), -1, {"x": 2})],
                                 "sampled TP2 scan of [[1,1],[1,2+x(x-1)(x-3)]]: "
                                 "[ok, (rows, cols, minor, assignment)]")
            and tp_check_sampled(Truncation.zero(3, 3), 2, seed=ctx.seed, samples=3))


def binomial_matrix_example(ctx: Ctx) -> Outcome:
    """O(xI + y Delta) = B_{x,y} and B_x is totally positive at small order."""
    x, y = Poly.var("x"), Poly.var("y")
    p = DiagonalPolySpec(0, ((y,), (x,)))
    return (first_difference(output_matrix(p, 5), binomial_truncation(x, 5, y), "O(xI + y Delta)")
            and tp_check_symbolic(binomial_truncation(x, 5), 3))


# ------------------------------------------------------------------ srpaths


def sr_poly_matches_path_oracle(ctx: Ctx) -> Outcome:
    """Every entry of the types 0..m+1 against the path oracle; type m+1
    both by the first recurrence (``direct``) and through the submatrix
    identity (``reduced``, the route ``sr_poly`` takes)."""
    cap = ctx.cap(18)

    def rows():
        for m in (1, 2, 3):
            coeffs = srpaths.SRCoeffs.symbolic(m)
            routes = {"direct": srpaths.SRTriangles(coeffs, max_j=m + 1),
                      "reduced": srpaths.SRTriangles(coeffs)}
            for j in range(m + 2):
                for n in range((cap - j) // (m + 1) + 1):
                    row = srpaths.sr_path_oracle_row(coeffs, j, n)
                    for name in ("direct", "reduced") if j == m + 1 else ("direct",):
                        yield first_difference(
                            [routes[name].value(j, n, k) for k in range(n + 1)], row,
                            f"S^({m};{j}) row {n} ({name}) vs path oracle")

    co1, co2 = srpaths.SRCoeffs.symbolic(1), srpaths.SRCoeffs.symbolic(2)
    a1, a2 = Poly.var("al1"), Poly.var("al2")
    return (_first_failure(rows())
            # spot checks through the single-entry oracle
            and first_difference([srpaths.sr_path_oracle(co2, 0, 1, 0),
                                  srpaths.sr_path_oracle(co1, 0, 2, 0),
                                  srpaths.sr_path_oracle(co1, 0, 0, 0)],
                                 [a2, a1 * a1 + a1 * a2, Poly.one()], "path oracle spot values"))


def smj_output_matches_triangle(ctx: Ctx) -> Outcome:
    n = ctx.cap(6)
    coeffs = {m: srpaths.SRCoeffs.symbolic(m) for m in (1, 2)}
    tris = {m: srpaths.SRTriangles(coeffs[m]) for m in coeffs}
    return _first_failure(first_difference(output_matrix(srpaths.prodmat_smj(coeffs[m], j, n), n),
                                           tris[m].triangle(j, n), f"O(P^({m};{j})) vs S^({m};{j})")
                          for m in coeffs for j in range(m + 1))


def smj_shift_identities(ctx: Ctx) -> Outcome:
    n = ctx.cap(5)
    coeffs = srpaths.SRCoeffs.symbolic(2)
    tri = srpaths.SRTriangles(coeffs, max_j=5)
    shifts = (first_difference(srpaths.prodmat_smj(coeffs, j, n),
                               srpaths.prodmat_smj(coeffs.shifted_up(), j + 1, n),
                               f"P^(2;{j}) vs shifted P^(2;{j + 1})") for j in range(2))
    drops = (first_difference(_lower(4, lambda nn, k: tri.value(jp + 3, nn, k)),
                              _lower(4, lambda nn, k: tri.value(jp, nn + 1, k + 1)),
                              f"S^(2;{jp + 3})_(n,k) vs S^(2;{jp})_(n+1,k+1)") for jp in (0, 1))
    return _first_failure(shifts) and _first_failure(drops)


def classical_recurrences(ctx: Ctx) -> Outcome:
    """The joint first/second-kind recurrences, on oracle-built triangles."""
    n = ctx.cap(6)
    coeffs = srpaths.SRCoeffs.symbolic(1)
    al = coeffs.alpha

    def s(j, nn, k):
        if k < 0 or k > nn:
            return Poly.zero()
        return srpaths.sr_path_oracle(coeffs, j, nn, k)

    first_kind = _lower(n, lambda nn, k: s(0, nn, k) + al(2 * k + 2) * s(0, nn, k + 1))
    second_kind = _lower(n, lambda nn, k: s(1, nn, k - 1) + al(2 * k + 1) * s(1, nn, k))
    return (first_difference(_lower(n, lambda nn, k: s(1, nn, k)), first_kind, "first kind")
            and first_difference(_lower(n, lambda nn, k: s(0, nn + 1, k)), second_kind,
                                 "second kind"))


def type_drop_specializations(ctx: Ctx) -> Outcome:
    n = ctx.cap(5)
    return _first_failure(srpaths.check_modified_from_type0(2, ell, n) for ell in (0, 1, 2))


def tail_series_match(ctx: Ctx) -> Outcome:
    """Prop: sum_n S^(m;j)_n t^n = f_0 ... f_j; plus the alternate form."""
    n = ctx.cap(5)
    coeffs = {m: srpaths.SRCoeffs.symbolic(m) for m in (1, 2)}
    tris = {m: srpaths.SRTriangles(coeffs[m]) for m in coeffs}
    tails = (first_difference(srpaths.sfrac_tail_series(coeffs[m], j, n).coefs,
                              [tris[m].value(j, i, 0) for i in range(n + 1)],
                              f"f_0 ... f_{j} vs S^({m};{j})_(n,0)")
             for m in coeffs for j in range(m + 1))
    zero = srpaths.sfrac_tail_series(srpaths.SRCoeffs.from_fn(1, lambda i: 0), 0, 4)
    return (_first_failure(tails)
            and first_difference(zero.coefs, Series.one(4).coefs, "series at alpha = 0"))


def smj_production_tp(ctx: Ctx) -> Outcome:
    n = ctx.cap(6)
    coeffs = srpaths.SRCoeffs.symbolic(2)
    return _first_failure(
        _named(tp_check_symbolic(srpaths.prodmat_smj(coeffs, j, n), 3),
               f"type-{j} production matrix, {n}x{n}") for j in range(3))


def modified_hankel_tp(ctx: Ctx) -> Outcome:
    tri = srpaths.SRTriangles(srpaths.SRCoeffs.symbolic(2))
    return _first_failure(
        _named(tp_check_symbolic(hankel_truncation([tri.value(j, i, 0) for i in range(7)], 4), 3),
               f"type-{j} modified Hankel, 4x4") for j in range(3))


def hankel_tp2_failure_beyond_type_m(ctx: Ctx) -> Outcome:
    return first_difference({m: srpaths.find_hankel_tp2_failure(m) is not None for m in (1, 2)},
                            {1: True, 2: True},
                            "negative 2x2 minor found in the type-(m+1) Hankel matrix, by m")


def factorization_table_all_cells(ctx: Ctx) -> Outcome:
    n = ctx.cap(6)
    kappa = Poly.var("kappa")

    def families(j, a):
        if (j, a) in srpaths.KAPPA_CELLS:
            return [srpaths.KappaFamily(j, a, kappa), srpaths.KappaFamily(j, a, Fraction(1, 2))]
        return [srpaths.KappaFamily(j, a)]

    return _first_failure(srpaths.verify_factorization_cell(fam, n)
                          for cell in sorted(srpaths.ADMISSIBLE_CELLS) for fam in families(*cell))


def inadmissible_cells_rejected(ctx: Ctx) -> Outcome:
    def rejected(j, a):
        try:
            srpaths.KappaFamily(j, a)
        except srpaths.InadmissibleCellError:
            return True
        return False

    cells = ((0, 0), (0, 1), (1, 1))
    return first_difference({cell: rejected(*cell) for cell in cells}, dict.fromkeys(cells, True),
                            "InadmissibleCellError raised, by cell (j, alpha)")


# -------------------------------------------------------------------- quadtp


def general_quad_structure(ctx: Ctx) -> Outcome:
    p = quadtp.QuadFactorParams.symbolic()
    full = quadtp.build_general_quad(p).truncate(6)
    m = quadtp.general_quad_factors(p)
    # P - Q = D2 L2 with Q = P at h = 0
    return (first_difference(full, m["P"].truncate(6), "P vs its factors")
            and first_difference(full - quadtp.build_general_quad(replace(p, h=())).truncate(6),
                                 (m["D2"] * m["L2"]).truncate(6), "P - Q vs D2 L2"))


def _tp3_symbolic_tp4_sampled(m: Banded, ctx: Ctx) -> Outcome:
    """Symbolic TP3 on the 6x6 corner, then sampled TP4 on the 7x7 block."""
    block = m.truncate(7)
    return (_named(tp_check_symbolic(block.truncate(6), 3), "6x6 block")
            and _named(tp_check_sampled(block, 4, seed=ctx.seed, samples=100), "7x7 block"))


def general_quad_tp_desk_scale(ctx: Ctx) -> Outcome:
    return _tp3_symbolic_tp4_sampled(
        quadtp.build_general_quad(quadtp.QuadFactorParams.symbolic()), ctx)


def laguerre_specialization_quad(ctx: Ctx) -> Outcome:
    n = ctx.cap(8)
    yp, yv, yda, ydd, lam, x = (Poly.var(v) for v in ("yp", "yv", "yda", "ydd", "lam", "x"))
    spec = quadtp.laguerre_flat_params(yp, yv, yda, ydd, lam, x)
    got = quadtp.build_general_quad(spec).truncate(n)
    params = LaguerreParams(lam - 1)
    w = VertexWeights(y_p=yp, y_v=yv, y_da=yda, y_dd=ydd, y_fp=yp)
    return first_difference(got, prodmat(params, "PFlat", weights=w, x=x).truncate(n), "P-flat")


def laguerre_quad_constrained_tp(ctx: Ctx) -> Outcome:
    """TP of the flat quadridiagonal under y_fp = y_da = y_p, y_dd = y_v + w."""
    yp, yv, w_extra, lam, x = (Poly.var(v) for v in ("yp", "yv", "w", "lam", "x"))
    spec = quadtp.laguerre_flat_params(yp, yv, yp, yv + w_extra, lam, x)
    return _tp3_symbolic_tp4_sampled(quadtp.build_general_quad(spec), ctx)


def variant_quad_structure(ctx: Ctx) -> Outcome:
    p = quadtp.QuadVariantParams.symbolic()
    m = quadtp.variant_quad_factors(p)
    return (first_difference(quadtp.build_variant_quad(p).truncate(6), m["P"].truncate(6),
                             "variant P vs its factors")
            and first_difference((m["L1"] * m["L2"]).truncate(6), (m["L2"] * m["L1"]).truncate(6),
                                 "L1 L2 vs L2 L1")
            and first_difference(quadtp.build_variant_quad(replace(p, f=())).truncate(6),
                                 (m["L1"] * (m["L2"] * m["U"] + m["D1"])).truncate(6),
                                 "variant Q vs L1 (L2 U + D1)"))


def variant_quad_tp_desk_scale(ctx: Ctx) -> Outcome:
    return _tp3_symbolic_tp4_sampled(
        quadtp.build_variant_quad(quadtp.QuadVariantParams.symbolic()), ctx)


# -------------------------------------------------------------------- banded


def _degree_test_vs_band(spec: DiagonalPolySpec, conj: Truncation) -> bool | Mismatch:
    """True when the degree test on ``spec`` agrees with ``conj``, the n x n
    conjugate of its matrix: it passes iff the lower bandwidth is at most r,
    and iff condition (b) holds, a zero (r+1)-st subdiagonal.  Else the
    ``Mismatch`` at the first of [bandwidth <= r, condition (b)] that differs
    from the verdict; ``what`` names the spec and the measured bandwidth."""
    r, passes = spec.r, banded.check_banded_criterion(spec)
    band = conj.lower_bandwidth()
    cond_b = all(conj[k + r + 1, k].is_zero() for k in range(conj.rows - r - 1))
    return first_difference([band <= r, cond_b], [passes, passes],
                            f"conjugate of {spec} (lower bandwidth {band}) vs degree test: "
                            f"[bandwidth <= {r}, condition (b)]")


def pcirc_banded_criterion(ctx: Ctx) -> Outcome:
    a, xi = Poly.var("a"), Poly.var("xi")
    spec = DiagonalPolySpec(2, (
        (Poly.one(),),                       # f_-1 = 1
        (a + 1, Poly.const(2)),              # f_0 = 1+a+2n
        (a, Poly.one()),                     # f_1 = a+n
        (Poly.zero(),),                      # f_2 = 0
    ))
    # degree-violating spec: the band grows
    bad = DiagonalPolySpec(2, (
        (Poly.one(),),
        (Poly.zero(), Poly.zero(), Poly.zero(), Poly.one()),  # f_0 = n^3
        (Poly.zero(),), (Poly.zero(),),
    ))
    # f_-1 = n with r = 1 passes (degree 1 <= r)
    edge = DiagonalPolySpec(1, (
        (Poly.zero(), Poly.one()), (Poly.one(),), (Poly.zero(),)))
    params = LaguerreParams.symbolic()
    conj = conjugate_by_binomial(spec, xi, 7)
    return (first_difference(spec.truncate(7), prodmat(params, "Pcirc").truncate(7),
                             "spec vs P-circ")
            and first_difference(conj, prodmat(params, "P", x=xi).truncate(7), "conjugate vs P")
            and first_difference([banded.check_banded_criterion(s) for s in (spec, bad, edge)],
                                 [True, False, True],
                                 "degree test on the P-circ, n^3, f_-1 = n specs")
            and first_difference([conj.lower_bandwidth()], [2],
                                 f"lower bandwidth of the conjugate of {spec}")
            and _degree_test_vs_band(bad, conjugate_by_binomial(bad, xi, 7))
            # Delta: conjugate is Delta + xi I, lower bandwidth 0
            and _degree_test_vs_band(delta_matrix(), conjugate_by_binomial(delta_matrix(), xi, 6)))


def banded_random_agreement(ctx: Ctx) -> Outcome:
    rng, xi = XorShift64(ctx.seed), Poly.var("xi")
    specs = (banded.random_spec(rng) for _ in range(20))
    return _first_failure(_degree_test_vs_band(s, conjugate_by_binomial(s, xi, 9))
                          for s in specs)


# ------------------------------------------------------------------ registry


# One row per check: (suite, check, acceptance criterion or None).  The check
# name is fn.__name__; rows are in report order, grouped by suite.
CHECKS = (
    ("univariate", golden_polynomials, 1),
    ("univariate", tridiagonal_output_is_coeff_matrix, 2),
    ("univariate", quadridiagonal_output_is_rowgen_matrix, 3),
    ("univariate", univariate_hankel_tp3_symbolic, 4),
    ("univariate", univariate_hankel_tp4_sampled, 4),
    ("univariate", unsigned_self_inverse, None),
    ("univariate", coeff_matrix_is_sfraction_triangle, None),
    ("univariate", direct_tp_scaling_route, None),
    ("univariate", univariate_bidiagonal_factorizations, None),
    ("univariate", flat_tridiagonal_split, None),
    ("multivariate", first_mv_stirling_identities, None),
    ("multivariate", first_mv_uniform_scaling, None),
    ("multivariate", first_mv_rooks_decreasing, None),
    ("multivariate", first_mv_eulerian_column, None),
    ("multivariate", second_mv_riordan_vs_oracle, 5),
    ("multivariate", flat_tridiagonal_output_is_flat_matrix, 5),
    ("multivariate", conjugation_links_production_matrices, None),
    ("multivariate", second_mv_homogeneity, None),
    ("multivariate", second_mv_peak_divisibility, None),
    ("multivariate", first_specializations, None),
    ("multivariate", cycle_statistics_egf, 13),
    ("multivariate", word_statistics_egf, 13),
    ("multivariate", laguerre_egf_check, 13),
    ("multivariate", riccati_consistency, None),
    ("multivariate", first_mv_egf_bivariate, None),
    ("riordan", eaz_conjugation_identity, 7),
    ("riordan", eaz_spot_values, None),
    ("riordan", riordan_constructions, None),
    ("riordan", riordan_vector_action, None),
    ("riordan", riordan_product_rule, None),
    ("riordan", riordan_production_is_eaz, None),
    ("riordan", binomial_shift_of_production, None),
    ("riordan", hankel_factorization_identity, None),
    ("riordan", truncation_exactness, None),
    ("riordan", production_output_roundtrip, None),
    ("riordan", tridiagonal_minor_criterion, None),
    ("riordan", tridiagonal_diagonal_comparison, None),
    ("riordan", tp_negative_control, 12),
    ("riordan", binomial_matrix_example, None),
    ("srpaths", sr_poly_matches_path_oracle, 8),
    ("srpaths", smj_output_matches_triangle, 8),
    ("srpaths", smj_shift_identities, 8),
    ("srpaths", classical_recurrences, None),
    ("srpaths", type_drop_specializations, None),
    ("srpaths", tail_series_match, None),
    ("srpaths", smj_production_tp, None),
    ("srpaths", modified_hankel_tp, None),
    ("srpaths", hankel_tp2_failure_beyond_type_m, 12),
    ("srpaths", factorization_table_all_cells, 9),
    ("srpaths", inadmissible_cells_rejected, 9),
    ("quadtp", general_quad_structure, None),
    ("quadtp", general_quad_tp_desk_scale, None),
    ("quadtp", laguerre_specialization_quad, 6),
    ("quadtp", laguerre_quad_constrained_tp, 6),
    ("quadtp", variant_quad_structure, 11),
    ("quadtp", variant_quad_tp_desk_scale, 11),
    ("banded", pcirc_banded_criterion, 10),
    ("banded", banded_random_agreement, 10),
)

SUITE_NAMES = tuple(dict.fromkeys(suite for suite, _, _ in CHECKS))

# Acceptance criteria: number -> (description, time budget in seconds for
# the summed run of its member checks).
CRITERIA = {
    1: ("golden polynomials (monic Laguerre, rook, Lah displays)", 1.0),
    2: ("output of the tridiagonal production matrix = coefficient matrix, 9x9", 5.0),
    3: ("output of the quadridiagonal production matrix = binomial row-generating matrix, 8x8", 10.0),
    4: ("Hankel total positivity of the univariate family (TP3 symbolic, TP4 sampled)", 60.0),
    5: ("flat second-multivariate matrix: production route = Riordan route = digraph oracle", 60.0),
    6: ("general quadridiagonal specialization reproduces the flat production matrix + TP", 60.0),
    7: ("binomial conjugation identity for exponential AZ matrices", 5.0),
    8: ("branched S-fraction triangles: recurrence = path oracle; production and shift identities", 60.0),
    9: ("all six bidiagonal-factorization table cells verified (symbolic kappa included)", 30.0),
    10: ("banded-conjugation criterion: degree test = measured bandwidth", 30.0),
    11: ("variant quadridiagonal family: structure + TP at desk scale", 60.0),
    12: ("negative controls: Hankel-TP failure beyond type m; non-TP matrix rejected", 30.0),
    13: ("EGF cross-checks against the S_n enumeration oracles and the Laguerre EGF", 30.0),
}


def run_suite(name: str, ctx: Ctx | None = None) -> list:
    """Run one suite (or 'all'); returns [(suite, check, ok, seconds, error,
    witness)].

    A check that raises ``RouteMismatchError`` (a builder failed its
    cross-check) failed with the error's ``Mismatch`` as its outcome; any
    other check that raises is not ok, with error "<ExceptionType>: <message>".
    error is None for every other check.  witness is the JSON object of a falsy
    outcome (a ``Mismatch`` or a ``TPReport``), and None otherwise.
    """
    ctx = ctx or Ctx()
    if name != "all" and name not in SUITE_NAMES:
        raise KeyError(f"unknown suite {name!r}")
    results = []
    for suite, fn, _ in CHECKS:
        if name not in ("all", suite):
            continue
        start = time.perf_counter()
        try:
            outcome, error = fn(ctx), None
        except RouteMismatchError as exc:
            outcome, error = exc.args[0], None
        except Exception as exc:
            outcome, error = False, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        witness = None if outcome or not hasattr(outcome, "to_json_obj") else outcome.to_json_obj()
        results.append((suite, fn.__name__, bool(outcome), seconds, error, witness))
    return results
