"""Laguerre polynomial families, their coefficient matrices and production
matrices.

Includes the monic unsigned univariate family, the first multivariate
family (edge weights v_-, v_0, v_+ on the digraph model), the second
multivariate family (vertex weights y_p, y_v, y_da, y_dd, y_fp, with an
optional separate path-side z block) together with its 'flat' form in which
the guaranteed peak factor per path is removed, the closed-form production
matrices for all of them, and the bidiagonal factorization identities.
The six production matrices are specializations of one closed form in the
five vertex weights; each quadridiagonal one is the binomial conjugate
B_x^{-1} P B_x of its tridiagonal one, which the checks recompute
independently.

Both multivariate matrices (the first is the flat second one at the edge
specialization) are built by one exponential Riordan array route for the
cycle and path EGFs F and G.  The univariate family is the five-variable
one at y = 1 (UNIT_WEIGHTS): there F(t) = (1-t)^(-lam) and G(t) = t/(1-t)
(lam = 1 + alpha), and the S-fraction alpha_{2k-1} = (k+alpha) y_p,
alpha_{2k} = k y_v of the flat tridiagonal matrix becomes k+alpha, k.  All
series come from ODE recurrences (the series module), never closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

from . import digraphs
from .matrices import (DiagonalPolySpec, Mismatch, RouteMismatchError, Truncation, _check_size,
                       binomial_truncation, diagonal, first_difference, lower_bidiagonal,
                       riordan_matrix, sfraction_word, unit_lower_inverse, upper_bidiagonal)
from .polyring import Poly, PolyLike, _p, _vars_of, power_table
from .series import Series, solve_logderiv, solve_riccati

X_NAME = "x"


@dataclass(frozen=True)
class LaguerreParams:
    """The family parameter alpha (symbolic or an exact rational); lam = 1+alpha."""

    alpha: Poly

    @staticmethod
    def symbolic() -> "LaguerreParams":
        return LaguerreParams(Poly.var("a"))

    @staticmethod
    def of(value) -> "LaguerreParams":
        """From an int, a Fraction, a Poly or rational text such as "1/2";
        any other type, a float say, raises ``TypeError``."""
        return LaguerreParams(_p(Fraction(value) if isinstance(value, str) else value))

    @property
    def lam(self) -> Poly:
        return self.alpha + 1


@dataclass(frozen=True)
class EdgeWeights:
    """Weights for decreasing edges, loops and increasing edges."""

    v_minus: Poly
    v_zero: Poly
    v_plus: Poly

    @staticmethod
    def symbolic() -> "EdgeWeights":
        return EdgeWeights(*[Poly.var(digraphs.DEFAULT_VAR_NAMES[f.name])
                             for f in fields(EdgeWeights)])

    def oracle_weights(self, lam: PolyLike) -> dict:
        """The weights of the digraph oracle's 'first_mv' mode."""
        return {"v_minus": self.v_minus, "v_zero": self.v_zero, "v_plus": self.v_plus,
                "lam": lam}

    def vertex_weights(self) -> "VertexWeights":
        """The edge specialization y_p = y_dd = v_-, y_v = y_da = v_+, y_fp = v_0."""
        vm, vp = self.v_minus, self.v_plus
        return VertexWeights(y_p=vm, y_v=vp, y_da=vp, y_dd=vm, y_fp=self.v_zero)


@dataclass(frozen=True)
class VertexWeights:
    """Peak/valley/double-ascent/double-descent/loop weights.

    When the z block is absent, path vertices get the same weights as cycle
    vertices (z := y componentwise).
    """

    y_p: Poly
    y_v: Poly
    y_da: Poly
    y_dd: Poly
    y_fp: Poly
    z_p: Optional[Poly] = None
    z_v: Optional[Poly] = None
    z_da: Optional[Poly] = None
    z_dd: Optional[Poly] = None

    @staticmethod
    def symbolic(with_z: bool = False) -> "VertexWeights":
        names = [digraphs.DEFAULT_VAR_NAMES[f.name] for f in fields(VertexWeights)]
        return VertexWeights(*map(Poly.var, names[:9 if with_z else 5]))

    @property
    def zp(self) -> Poly:
        return self.y_p if self.z_p is None else self.z_p

    @property
    def zv(self) -> Poly:
        return self.y_v if self.z_v is None else self.z_v

    @property
    def zda(self) -> Poly:
        return self.y_da if self.z_da is None else self.z_da

    @property
    def zdd(self) -> Poly:
        return self.y_dd if self.z_dd is None else self.z_dd

    def oracle_weights(self, lam: PolyLike) -> dict:
        """The weights of the digraph oracle's 'second_mv' and
        'second_mv_general' modes (each reads only its own keys)."""
        return {"y_p": self.y_p, "y_v": self.y_v, "y_da": self.y_da, "y_dd": self.y_dd,
                "y_fp": self.y_fp, "z_p": self.zp, "z_v": self.zv, "z_da": self.zda,
                "z_dd": self.zdd, "lam": lam}


# All five vertex weights 1: the five-variable family reduces to the univariate one.
UNIT_WEIGHTS = VertexWeights(*[Poly.one()] * 5)


# -- univariate family -------------------------------------------------------


def _laguerre_coeffs(n: int, params: LaguerreParams) -> list:
    """[C(n,k) (1+alpha+k)^{rising n-k} for k = 0..n], the rising factorials
    by the downward recurrence r_n = 1, r_k = (alpha+k+1) r_{k+1}."""
    rs = [Poly.one()]
    for k in range(n - 1, -1, -1):
        rs.append(rs[-1] * (params.alpha + (k + 1)))
    return [r.scale(math.comb(n, k)) for k, r in enumerate(reversed(rs))]


def monic_laguerre(n: int, params: LaguerreParams, x: PolyLike) -> Poly:
    """Monic unsigned Laguerre polynomial: sum_k C(n,k) (1+alpha+k)^{rising n-k} x^k."""
    return Poly.dot(zip(_laguerre_coeffs(n, params), power_table(_p(x), n + 1)))


def monic_laguerre_reversed(n: int, params: LaguerreParams, x: PolyLike) -> Poly:
    """Coefficient reversal x^n L(1/x): sum_k C(n,k) (1+alpha+k)^{rising n-k} x^{n-k}."""
    return Poly.dot(zip(_laguerre_coeffs(n, params), power_table(_p(x), n + 1)[::-1]))


def coeff_matrix_uni(params: LaguerreParams, n: int) -> Truncation:
    """Unit-lower-triangular coefficient matrix with entries C(n,k)(1+alpha+k)^{rising n-k}.

    Row i holds the coefficients of the i-th monic Laguerre polynomial, built
    by the same downward recurrence, so each entry costs one product and one
    integer scaling.  A negative size raises ``ValueError``.
    """
    _check_size(n, n)
    zero = Poly.zero()
    return Truncation([_laguerre_coeffs(i, params) + [zero] * (n - i - 1) for i in range(n)])


# -- multivariate families ---------------------------------------------------


def riordan_pair(params: LaguerreParams, w: VertexWeights, order: int,
                 flat: bool = False) -> tuple:
    """The cycle and path EGFs (F, G) to the given order (G-flat = G/z_p when
    ``flat``), from one Riccati solution H = G_y/y_p,
    H' = 1 + (y_da + y_dd) H + y_p y_v H^2: F'/F = lam (y_fp + y_p y_v H) and
    G = z_p H, with H solved again only for a z block of other coefficients."""
    q, r = w.y_da + w.y_dd, w.y_p * w.y_v
    h = solve_riccati(Poly.one(), q, r, order)
    f = solve_logderiv([w.y_fp, r], h, params.lam, order)
    qz, rz = w.zda + w.zdd, w.zp * w.zv
    if (qz, rz) != (q, r):
        h = solve_riccati(Poly.one(), qz, rz, order)
    return f, (h if flat else h * w.zp)


def laguerre_rowgen_egf(params: LaguerreParams, x: PolyLike, order: int) -> Series:
    """EGF of the monic unsigned Laguerre polynomials, (1-t)^(-(1+alpha)) e^{xt/(1-t)}:
    F e^{xG} with the cycle and path EGFs at y = 1."""
    f, g = riordan_pair(params, UNIT_WEIGHTS, order)
    return f * (g * _p(x)).exp()


def _riordan_route(params: LaguerreParams, w: VertexWeights, n: int, flat: bool,
                   rows: int | None, oracle) -> Truncation:
    """R[F, G] of ``riordan_pair``, its first ``rows`` rows (by default its first
    ``digraphs._vertex_cap(symbolic=True)``) checked against ``oracle(i, k)``, k <= i, by
    RouteMismatchError; a negative size raises ValueError.  A non-integral alpha is built at
    a symbolic alpha no weight names, then substituted into each entry, since
    ``riordan_matrix``'s integrality guard against a wrong F or G needs alpha symbolic."""
    _check_size(n, n)
    alpha, env = params.alpha, None
    if not alpha.is_integral():
        used = _vars_of(map(_p, w.oracle_weights(params.lam).values()))
        name = "alpha"
        while name in used:
            name += "_"
        alpha, env = Poly.var(name), {name: alpha}
    t = riordan_matrix(*riordan_pair(LaguerreParams(alpha), w, max(n - 1, 0), flat), n)
    if env:
        t = Truncation([[e.substitute(env) for e in row] for row in t.data], n)
    rows = min(digraphs._vertex_cap(symbolic=True) if rows is None else rows, n)
    want = Truncation.from_fn(rows, n, lambda i, k: oracle(i, k) if k <= i else Poly.zero())
    mismatch = first_difference(t.truncate(rows, n), want, "Riordan route and digraph oracle")
    if not mismatch:
        raise RouteMismatchError(mismatch)
    return t


def coeff_matrix_first_mv(params: LaguerreParams, w: EdgeWeights, n: int) -> Truncation:
    """First multivariate coefficient matrix, the flat second one at ``w.vertex_weights()``:
    entry (n,k) sums v_-^{e_-} v_0^{e_0} v_+^{e_+} (1+alpha)^{cyc} over the Laguerre digraphs
    with k paths, which the oracle's 'first_mv' mode recomputes on the leading rows."""
    weights = w.oracle_weights(params.lam)
    return _riordan_route(params, w.vertex_weights(), n, True, None,
                          lambda i, k: digraphs.oracle_entry(i, k, weights, "first_mv"))


def coeff_matrix_second_mv(params: LaguerreParams, w: VertexWeights, n: int,
                           flat: bool = False, oracle_rows: int | None = None) -> Truncation:
    """Second multivariate coefficient matrix (z block supported): R[F, G], G-flat when
    ``flat``, whose first ``oracle_rows`` rows (by default its first ``_vertex_cap(symbolic=True)``)
    the oracle's 'second_mv_general' mode recomputes; see ``_riordan_route``."""
    weights = w.oracle_weights(params.lam)

    def oracle(i, k):
        entry = digraphs.oracle_entry(i, k, weights, "second_mv_general")
        return entry.exact_div(w.zp ** k) if flat and k else entry

    return _riordan_route(params, w, n, flat, oracle_rows, oracle)


# -- closed-form production matrices ------------------------------------------

PRODMAT_KINDS = ("Pcirc", "P", "PcircFlat", "PFlat", "PcircY", "PY")  # ``which`` of ``prodmat``


def prodmat(params: LaguerreParams, which: str, weights: VertexWeights | None = None,
            x: PolyLike | None = None) -> DiagonalPolySpec:
    """Closed-form production matrices for the Laguerre families.

    which = 'Pcirc'      tridiagonal, univariate coefficient matrix;
            'P'          quadridiagonal, univariate binomial row-generating matrix;
            'PcircFlat'  tridiagonal, flat second multivariate matrix;
            'PFlat'      quadridiagonal, its binomial row-generating matrix;
            'PcircY'     tridiagonal, non-flat second multivariate matrix;
            'PY'         quadridiagonal, its binomial row-generating matrix.

    All six are one ``DiagonalPolySpec``.  Row n of a tridiagonal matrix
    holds t n (alpha + n), lam y_fp + n (y_da + y_dd) and s, where (s, t) is
    (1, y_p y_v) for the flat and (y_p, y_v) for the non-flat matrices; the
    univariate ones are the non-flat ones at UNIT_WEIGHTS.  Its
    quadridiagonal B_x^{-1} P-circ B_x adds s x to the diagonal,
    x n (y_da + y_dd) to the subdiagonal and t x n (n-1) below that.
    """
    if which not in PRODMAT_KINDS:
        raise ValueError(f"unknown production-matrix variant {which!r}")
    w = UNIT_WEIGHTS if which in ("Pcirc", "P") else weights
    if w is None:
        raise ValueError(f"{which} needs vertex weights")
    s, t = (Poly.one(), w.y_p * w.y_v) if which.endswith("Flat") else (w.y_p, w.y_v)
    d = w.y_da + w.y_dd
    x = (Poly.var(X_NAME) if x is None else _p(x)) if "circ" not in which else Poly.zero()
    # f_-1 = s, f_0 = lam y_fp + s x + d n, f_1 = t alpha + d x + t n, f_2 = t x
    return DiagonalPolySpec(2, ((s,), (params.lam * w.y_fp + s * x, d),
                                (t * params.alpha + d * x, t), (t * x,)))


# -- factorizations and structural identities ---------------------------------


def _sfraction_coeffs(params: LaguerreParams, y_p: PolyLike, y_v: PolyLike):
    """The Laguerre S-fraction: alpha_{2k-1} = (k+alpha) y_p, alpha_{2k} =
    k y_v, so alpha_0 = 0 (y_p = y_v = 1 for the univariate family)."""
    def alpha_fn(i):
        k = (i + 1) // 2
        return (params.alpha + k) * y_p if i % 2 == 1 else _p(y_v) * k
    return alpha_fn


def factorization_check(which: str, params: LaguerreParams, n: int,
                        weights: VertexWeights | None = None) -> bool | Mismatch:
    """Entrywise verification of the bidiagonal factorization identities.

    'tridiagonal_lu':        P-circ = L U with subdiagonal 1,2,3,... and
                             diagonal lam, lam+1, ...: the S-fraction
                             word L_1 U_0 below at y_p = y_v = 1;
    'quadridiagonal_nested': P = L (L U_x + lam I) with U_x = Delta + x I;
    'flat_split':            flat tridiagonal = S-fraction matrix with
                             alpha_{2k-1} = (k+alpha) y_p, alpha_{2k} = k y_v,
                             plus the nonnegative diagonal
                             (1+alpha)(y_fp - y_p) + n(y_da + y_dd - y_p - y_v).
    """
    lam = params.lam
    if which == "tridiagonal_lu":
        lu = sfraction_word(_sfraction_coeffs(params, 1, 1), 1, 0).truncate(n)
        return first_difference(lu, prodmat(params, "Pcirc").truncate(n), "L U vs P-circ")
    if which == "quadridiagonal_nested":
        x = Poly.var(X_NAME)
        ell = lower_bidiagonal(lambda i: 1, lambda i: i)
        ux = upper_bidiagonal(lambda i: x, lambda i: 1)
        rhs = (ell * (ell * ux + diagonal(lambda i: lam))).truncate(n)
        return first_difference(rhs, prodmat(params, "P", x=x).truncate(n),
                                "L (L U_x + lam I) vs P")
    if which == "flat_split":
        yw = VertexWeights.symbolic() if weights is None else weights
        q = sfraction_word(_sfraction_coeffs(params, yw.y_p, yw.y_v), 1, 0)
        d = diagonal(
            lambda i: lam * (yw.y_fp - yw.y_p) + (yw.y_da + yw.y_dd - yw.y_p - yw.y_v) * i)
        return first_difference((q + d).truncate(n),
                                prodmat(params, "PcircFlat", weights=yw).truncate(n),
                                "S-fraction matrix + diagonal vs flat P-circ")
    raise ValueError(f"unknown factorization {which!r}")


def unsigned_self_inverse_check(params: LaguerreParams, n: int) -> bool | Mismatch:
    """The coefficient matrix equals its own unsigned inverse:
    L = Q L^{-1} Q with Q = diag((-1)^i)."""
    t = coeff_matrix_uni(params, n)
    inv = unit_lower_inverse(t)
    signed = Truncation.from_fn(
        n, n, lambda i, j: inv[i, j] if (i + j) % 2 == 0 else -inv[i, j])
    return first_difference(signed, t, "Q L^-1 Q vs L")


def rowgen_polys(m: Truncation, x: PolyLike, reversed_form: bool = False) -> list:
    """Row-generating polynomials sum_k M[n,k] x^k (or x^(n-k) when reversed)."""
    xp = power_table(_p(x), m.rows)
    return [Poly.dot((m[i, k], xp[i - k] if reversed_form else xp[k])
                     for k in range(min(i, m.cols - 1) + 1))
            for i in range(m.rows)]


def binomial_rowgen_matrix(m: Truncation, x: PolyLike) -> Truncation:
    """The binomial row-generating matrix M B_x (zeroth column = row-generating polys)."""
    return m * binomial_truncation(_p(x), m.rows)


def rowgen_shifted_family_check(params: LaguerreParams, n: int,
                                x: PolyLike) -> bool | Mismatch:
    """(L^(alpha) B_x)_{n,k} = C(n,k) L_{n-k}^{(alpha+k)}(x), entrywise."""
    want = Truncation.from_fn(n, n, lambda i, k: monic_laguerre(
        i - k, LaguerreParams(params.alpha + k), x) * math.comb(i, k) if k <= i else 0)
    return first_difference(binomial_rowgen_matrix(coeff_matrix_uni(params, n), x), want,
                            "L B_x vs C(n,k) L_(n-k)^(alpha+k)")


def first_mv_specialization_check(params: LaguerreParams, n: int) -> bool | Mismatch:
    """The two reductions of the second multivariate matrix to the first:

    y_p=y_dd=v-, y_v=y_da=v+, y_fp=v0  gives  first_mv * v-^k;
    y_v=y_dd=v-, y_p=y_da=v+, y_fp=v0  gives  first_mv * v+^k.
    """
    edge = EdgeWeights.symbolic()
    vm, v0, vp = edge.v_minus, edge.v_zero, edge.v_plus
    first = coeff_matrix_first_mv(params, edge, n)

    def reduces(w, factor, name):
        want = Truncation.from_fn(n, n, lambda i, k: first[i, k] * factor ** k)
        return first_difference(coeff_matrix_second_mv(params, w, n, flat=False), want,
                                f"second_mv vs first_mv * {name}^k")

    return (reduces(edge.vertex_weights(), vm, "v-")
            and reduces(VertexWeights(y_p=vp, y_v=vm, y_da=vp, y_dd=vm, y_fp=v0), vp, "v+"))
