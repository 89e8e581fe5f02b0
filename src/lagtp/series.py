"""Truncated formal power series in t with polynomial coefficients.

A ``Series`` holds coefficients for t^0 .. t^N exactly; every operation is
exact modulo t^(N+1), so truncating a result commutes with the operations.
Coefficients are ``Poly`` values, rational in general: the generating
functions built here ((1-t)^(-lambda)-type products, Riccati solutions,
branched-continued-fraction tails) are never written via closed forms with
radicals -- everything comes from first-order recurrences on Taylor
coefficients, which keeps all intermediates inside the polynomial ring.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .polyring import Poly, PolyLike, _p


class Series:
    """Power series truncated at order N (coefficients for t^0..t^N)."""

    __slots__ = ("order", "coefs")

    def __init__(self, coefs: Sequence[PolyLike], order: int | None = None):
        coefs = [c if type(c) is Poly else _p(c) for c in coefs]
        if order is None:
            order = len(coefs) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        coefs = coefs[: order + 1]
        coefs += [Poly.zero()] * (order + 1 - len(coefs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coefs", coefs)

    def __setattr__(self, *a):
        raise AttributeError("Series is immutable")

    @staticmethod
    def one(order: int) -> "Series":
        return Series([Poly.one()], order)

    @staticmethod
    def t(order: int) -> "Series":
        return Series([Poly.zero(), Poly.one()], order)

    def __getitem__(self, n: int) -> Poly:
        if n < 0:
            return Poly.zero()
        if n > self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coefs[n]

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return Series(self.coefs[: order + 1], order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and self.coefs == other.coefs

    __hash__ = None

    def _entrywise(self, op, other) -> "Series":
        other = self._match(other)
        return Series(list(map(op, self.coefs, other.coefs)), min(self.order, other.order))

    def __add__(self, other) -> "Series":
        return self._entrywise(Poly.__add__, other)

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series([-c for c in self.coefs], self.order)

    def __sub__(self, other) -> "Series":
        return self._entrywise(Poly.__sub__, other)

    def __rsub__(self, other) -> "Series":
        return self._match(other) - self

    def __mul__(self, other) -> "Series":
        if isinstance(other, (Poly, int, Fraction)):
            p = _p(other)
            return Series([c * p for c in self.coefs], self.order)
        other = self._match(other)
        n = min(self.order, other.order)
        a, b = self.coefs, other.coefs
        return Series([Poly.dot((a[i], b[k - i]) for i in range(k + 1)) for k in range(n + 1)], n)

    __rmul__ = __mul__

    def _match(self, other) -> "Series":
        if isinstance(other, Series):
            return other
        if isinstance(other, (Poly, int, Fraction)):
            return Series([_p(other)], self.order)
        raise TypeError(f"cannot combine Series with {type(other)!r}")

    def derivative(self) -> "Series":
        """d/dt, to order N - 1; an order-0 series determines no coefficient
        of its derivative, so it raises ValueError."""
        if self.order == 0:
            raise ValueError("the derivative of an order-0 series is undetermined")
        return Series([self.coefs[i].scale(i) for i in range(1, self.order + 1)], self.order - 1)

    def reciprocal(self) -> "Series":
        """Multiplicative inverse; requires an invertible constant term."""
        c0 = self.coefs[0]
        if not c0.is_constant() or c0.as_constant() == 0:
            raise ValueError("series reciprocal needs a nonzero constant term")
        inv0 = Fraction(1, 1) / Fraction(c0.as_constant())
        out = [Poly.const(inv0)]
        for n in range(1, self.order + 1):
            acc = Poly.dot((self.coefs[i], out[n - i]) for i in range(1, n + 1))
            out.append(acc.scale(-inv0))
        return Series(out, self.order)

    def compose(self, inner: "Series") -> "Series":
        """self(inner(t)); requires inner(0) = 0."""
        if not inner.coefs[0].is_zero():
            raise ValueError("composition needs inner constant term 0")
        n = min(self.order, inner.order)
        powers = [Series.one(n)]
        for _ in range(n):
            powers.append(powers[-1] * inner)
        # inner^k starts at t^k, so only k <= i reaches coefficient i
        return Series([Poly.dot((self.coefs[k], powers[k].coefs[i]) for k in range(i + 1))
                       for i in range(n + 1)], n)

    def reversion(self) -> "Series":
        """Compositional inverse H with self(H(t)) = t.

        Requires order >= 1, constant term 0 and an invertible linear
        coefficient.  Solved coefficient by coefficient: [t^n] self(H) = 0
        gives h_n = -(1/g_1) sum_{2<=k<=n} g_k [t^n] H^k, and [t^n] H^k
        reads only h_1..h_{n-1}.  The table pw[k][i] = [t^i] H^k gains
        column n at step n, [t^n] H^k = sum_j h_j [t^(n-j)] H^(k-1), so each
        power of H is built once: O(n^3) products where recomposing self for
        every coefficient took O(n^4) (cf. Brent and Kung, "Fast algorithms
        for manipulating formal power series", J. ACM 1978).
        """
        if self.order == 0:
            raise ValueError("the reversion of an order-0 series is undetermined")
        g = self.coefs
        if not g[0].is_zero():
            raise ValueError("reversion needs constant term 0")
        if not g[1].is_constant() or g[1].as_constant() == 0:
            raise ValueError("reversion needs an invertible linear coefficient")
        inv1 = Fraction(1) / Fraction(g[1].as_constant())
        h = [Poly.zero(), Poly.const(inv1)]
        pw = [None, h]  # pw[k][i] = [t^i] H^k, zero for i < k
        for n in range(2, self.order + 1):
            pw.append([Poly.zero()] * n)
            for k in range(2, n + 1):
                pw[k].append(Poly.dot((h[j], pw[k - 1][n - j]) for j in range(1, n - k + 2)))
            h.append((-Poly.dot((g[k], pw[k][n]) for k in range(2, n + 1))).scale(inv1))
        return Series(h, self.order)

    def exp(self) -> "Series":
        """exp(self); requires constant term 0.  Solves E' = self' * E."""
        if not self.coefs[0].is_zero():
            raise ValueError("series exp needs constant term 0")
        return _solve_linear(self.derivative().coefs if self.order else [], self.order)


def series_reciprocal(s: Series) -> Series:
    return s.reciprocal()


def solve_riccati(p: Poly, q: Poly, r: Poly, order: int) -> Series:
    """Unique G with G(0)=0 and G' = p + q*G + r*G^2, to the given order.

    Triangular recurrence on the Taylor coefficients:
    (n+1) g_{n+1} = p*[n=0] + q*g_n + r*sum_{i+j=n} g_i g_j.
    """
    g = [Poly.zero(), p][: order + 1]
    for n in range(1, order):
        conv = Poly.dot((g[i], g[n - i]) for i in range(n + 1))
        g.append(Poly.dot([(q, g[n]), (r, conv)]).scale(Fraction(1, n + 1)))
    return Series(g, order)


def solve_logderiv(z_coeffs: Sequence[PolyLike], g: Series, lam: PolyLike, order: int) -> Series:
    """Unique F with F(0)=1 and F'/F = lam * Z(G), where Z(s) = sum z_k s^k.

    Standard logarithmic-derivative recurrence:
    (n+1) f_{n+1} = [t^n] (lam * Z(G) * F), usable because the right side at
    order n only involves f_0..f_n.  F to order N needs G to order N - 1
    (unless Z is constant); a shorter G raises ValueError.
    """
    lam = _p(lam)
    g = g.truncate(min(g.order, order))
    powers = [Series.one(order)]  # G^k for the z_k; W = lam * Z(G) below
    for _ in z_coeffs[1:]:
        powers.append(powers[-1] * g)
    zs = [_p(z) * lam for z in z_coeffs]
    w = [Poly.dot((z, power.coefs[i]) for z, power in zip(zs, powers))
         for i in range(powers[-1].order + 1)]
    return _solve_linear(w, order)


def series_pow_sym(f1: Series, lam: PolyLike, order: int) -> Series:
    """f1^lam = exp(lam * log f1) with a symbolic exponent; needs f1(0) = 1.

    Computed from F' = lam * (f1'/f1) * F, so the coefficients are
    polynomials in lam.  The result to order N needs f1 to order N; a
    shorter f1 raises ValueError.
    """
    c0 = f1.coefs[0]
    if not (c0.is_constant() and c0.as_constant() == 1):
        raise ValueError("series_pow_sym needs constant term 1")
    f1 = f1.truncate(min(f1.order, order))
    # f1 to order N fixes f1'/f1 to order N - 1: N coefficients, none for N = 0
    w = (f1.derivative() * f1.reciprocal()).coefs if f1.order else []
    return _solve_linear([c * lam for c in w], order)


def _solve_linear(w: Sequence[Poly], order: int) -> Series:
    """The F with F(0) = 1 and F' = W F, to the given order, from
    (n+1) f_{n+1} = sum_{i<=n} w_{n-i} f_i.

    ``w`` lists the coefficients of W that its input determines; F to order
    N needs w_0..w_{N-1}, and a shorter ``w`` raises ValueError.
    """
    if len(w) < order:
        raise ValueError("series truncated below the requested order")
    f = [Poly.one()]
    for n in range(order):
        acc = Poly.dot((w[n - i], f[i]) for i in range(n + 1))
        f.append(acc.scale(Fraction(1, n + 1)))
    return Series(f, order)
