"""The two general quadridiagonal production-matrix families.

Family one:  P = L1 U L2 + L1 D1 + D2 L2, where L1, L2 are lower-bidiagonal
(diagonals a, e; subdiagonals b, f), U is upper-bidiagonal (superdiagonal
c, diagonal d) and D1, D2 are diagonal (g, h).  Setting h = 0 gives
Q = L1 (U L2 + D1) and P = Q + D2 L2 row by row.

Family two (the variant):  P = L1 L2 U + L1 D1 + L2 D2 with L1 = alpha I + x L
and L2 = beta I + y L built from one shared bidiagonal L, so L1 and L2
commute; setting f = 0 gives Q = L1 (L2 U + D1).

Both are totally positive coefficientwise in all the indeterminate
sequences; the Laguerre quadridiagonal production matrices arise by
specialization of family one.  The closed forms (four diagonals each, at
offsets -1 to 2) and the factor expressions they are checked against are
all ``matrices.Banded``, evaluated on their diagonals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import Banded, diagonal, lower_bidiagonal, upper_bidiagonal
from .polyring import Poly, _p


def symbolic_seq(prefix: str, start: int = 0):
    return lambda i: Poly.var(f"{prefix}{i}") if i >= start else Poly.zero()


def _seq_fn(values, start: int = 0):
    """Index function of a sequence given as a list (its first value at
    index ``start``) or as a callable; zero below ``start`` and past the
    end of a list."""
    if callable(values):
        return lambda i: _p(values(i)) if i >= start else Poly.zero()
    vals = [_p(v) for v in values]
    return lambda i: vals[i - start] if 0 <= i - start < len(vals) else Poly.zero()


@dataclass(frozen=True)
class QuadFactorParams:
    """Sequences for P = L1 U L2 + L1 D1 + D2 L2.

    a, d, e, g, h are indexed from 0; b, c, f from 1 (b_0 = c_0 = f_0 = 0).
    Entries may be lists or index functions; all unset values are zero.
    """

    a: object
    b: object
    c: object
    d: object
    e: object
    f: object
    g: object
    h: object

    @staticmethod
    def symbolic() -> "QuadFactorParams":
        return QuadFactorParams(
            a=symbolic_seq("a"), b=symbolic_seq("b", 1), c=symbolic_seq("c", 1),
            d=symbolic_seq("d"), e=symbolic_seq("e"), f=symbolic_seq("f", 1),
            g=symbolic_seq("g"), h=symbolic_seq("h"))

    def fns(self):
        return (_seq_fn(self.a), _seq_fn(self.b, 1), _seq_fn(self.c, 1), _seq_fn(self.d),
                _seq_fn(self.e), _seq_fn(self.f, 1), _seq_fn(self.g), _seq_fn(self.h))


def build_general_quad(p: QuadFactorParams) -> Banded:
    """Quadridiagonal P by the closed row formulas, as its four diagonals
    (Q: pass ``replace(p, h=())``)."""
    a, b, c, d, e, f, g, h = p.fns()
    return Banded({
        -1: lambda n: a(n) * c(n + 1) * e(n + 1),
        0: lambda n: (a(n) * d(n) * e(n) + b(n) * c(n) * e(n)
                      + a(n) * c(n + 1) * f(n + 1) + a(n) * g(n) + h(n) * e(n)),
        1: lambda n: (a(n) * d(n) * f(n) + b(n) * c(n) * f(n)
                      + b(n) * d(n - 1) * e(n - 1) + b(n) * g(n - 1) + h(n) * f(n)),
        2: lambda n: b(n) * d(n - 1) * f(n - 1)})


def general_quad_factors(p: QuadFactorParams) -> dict:
    """The factors L1, U, L2, D1, D2 and the expression
    P = L1 U L2 + L1 D1 + D2 L2, as ``matrices.Banded`` expressions."""
    a, b, c, d, e, f, g, h = p.fns()
    l1, l2 = lower_bidiagonal(a, b), lower_bidiagonal(e, f)
    u, d1, d2 = upper_bidiagonal(d, lambda i: c(i + 1)), diagonal(g), diagonal(h)
    return {"L1": l1, "U": u, "L2": l2, "D1": d1, "D2": d2,
            "P": l1 * u * l2 + l1 * d1 + d2 * l2}


def laguerre_flat_params(y_p: Poly, y_v: Poly, y_da: Poly, y_dd: Poly,
                         lam: Poly, x: Poly) -> QuadFactorParams:
    """The specialization that reproduces the flat second-multivariate
    Laguerre production matrix (with the loop weight tied to the peak
    weight): a = c = e = 1, b_n = n y_v, d_n = n y_p, f_n = x, g_n = lam y_p,
    h_n = n (y_da + y_dd - y_p - y_v)."""
    one = Poly.one()
    return QuadFactorParams(
        a=lambda i: one, b=lambda i: y_v * i, c=lambda i: one,
        d=lambda i: y_p * i, e=lambda i: one, f=lambda i: x,
        g=lambda i: lam * y_p, h=lambda i: (y_da + y_dd - y_p - y_v) * i)


# -- the variant family (commuting bidiagonal factors) -----------------------


@dataclass(frozen=True)
class QuadVariantParams:
    """Data for P = L1 L2 U + L1 D1 + L2 D2 with L1 = alpha I + x L,
    L2 = beta I + y L.

    a, d, e, f are indexed from 0; b, c from 1.  L has diagonal a and
    subdiagonal b; U has diagonal d and superdiagonal c; D1 = diag(e),
    D2 = diag(f).
    """

    alpha: Poly
    beta: Poly
    x: Poly
    y: Poly
    a: object
    b: object
    c: object
    d: object
    e: object
    f: object

    @staticmethod
    def symbolic() -> "QuadVariantParams":
        return QuadVariantParams(
            alpha=Poly.var("alpha"), beta=Poly.var("beta"),
            x=Poly.var("x"), y=Poly.var("y"),
            a=symbolic_seq("a"), b=symbolic_seq("b", 1), c=symbolic_seq("c", 1),
            d=symbolic_seq("d"), e=symbolic_seq("e"), f=symbolic_seq("f"))

    def fns(self):
        return (_seq_fn(self.a), _seq_fn(self.b, 1), _seq_fn(self.c, 1),
                _seq_fn(self.d), _seq_fn(self.e), _seq_fn(self.f))


def build_variant_quad(p: QuadVariantParams) -> Banded:
    """Quadridiagonal variant P by the closed formulas, as its four
    diagonals (Q: pass ``replace(p, f=())``)."""
    a, b, c, d, e, f = p.fns()
    al, be, x, y = p.alpha, p.beta, p.x, p.y

    def l1(i):  # diagonal of L1
        return al + x * a(i)

    def l2(i):
        return be + y * a(i)

    return Banded({
        -1: lambda n: l1(n) * l2(n) * c(n + 1),
        0: lambda n: (l1(n) * l2(n) * d(n) + l1(n) * (y * b(n) * c(n))
                      + x * b(n) * l2(n - 1) * c(n) + l1(n) * e(n) + l2(n) * f(n)),
        1: lambda n: (l1(n) * (y * b(n)) * d(n - 1) + x * b(n) * l2(n - 1) * d(n - 1)
                      + x * y * b(n) * b(n - 1) * c(n - 1) + x * b(n) * e(n - 1)
                      + y * b(n) * f(n - 1)),
        2: lambda n: x * y * b(n) * b(n - 1) * d(n - 2)})


def variant_quad_factors(p: QuadVariantParams) -> dict:
    """The factors L1 = alpha I + x L, L2 = beta I + y L, U, D1, D2 and the
    expression P = L1 L2 U + L1 D1 + L2 D2, as ``matrices.Banded``
    expressions."""
    a, b, c, d, e, f = p.fns()
    l1 = lower_bidiagonal(lambda i: p.alpha + p.x * a(i), lambda i: p.x * b(i))
    l2 = lower_bidiagonal(lambda i: p.beta + p.y * a(i), lambda i: p.y * b(i))
    u, d1, d2 = upper_bidiagonal(d, lambda i: c(i + 1)), diagonal(e), diagonal(f)
    return {"L1": l1, "L2": l2, "U": u, "D1": d1, "D2": d2,
            "P": l1 * l2 * u + l1 * d1 + l2 * d2}
