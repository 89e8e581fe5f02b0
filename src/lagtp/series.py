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
from typing import Sequence, Union

from .polyring import Poly, _p

PolyLike = Union[Poly, int, Fraction]


class Series:
    """Power series truncated at order N (coefficients for t^0..t^N)."""

    __slots__ = ("order", "coefs")

    def __init__(self, coefs: Sequence[PolyLike], order: int | None = None):
        coefs = [_p(c) for c in coefs]
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
    def zero(order: int) -> "Series":
        return Series([], order)

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

    def __add__(self, other) -> "Series":
        other = self._match(other)
        n = min(self.order, other.order)
        return Series([self.coefs[i] + other.coefs[i] for i in range(n + 1)], n)

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series([-c for c in self.coefs], self.order)

    def __sub__(self, other) -> "Series":
        return self + (-self._match(other))

    def __rsub__(self, other) -> "Series":
        return self._match(other) + (-self)

    def __mul__(self, other) -> "Series":
        if isinstance(other, (Poly, int, Fraction)):
            p = _p(other)
            return Series([c * p for c in self.coefs], self.order)
        other = self._match(other)
        n = min(self.order, other.order)
        out = [Poly.zero()] * (n + 1)
        for i in range(n + 1):
            a = self.coefs[i]
            if a.is_zero():
                continue
            for j in range(n + 1 - i):
                b = other.coefs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return Series(out, n)

    __rmul__ = __mul__

    def _match(self, other) -> "Series":
        if isinstance(other, Series):
            return other
        if isinstance(other, (Poly, int, Fraction)):
            return Series([_p(other)], self.order)
        raise TypeError(f"cannot combine Series with {type(other)!r}")

    def derivative(self) -> "Series":
        if self.order == 0:
            return Series.zero(0)
        return Series([self.coefs[i].scale(i) for i in range(1, self.order + 1)], self.order - 1)

    def integrate(self) -> "Series":
        """Antiderivative with zero constant term, one order higher."""
        out = [Poly.zero()]
        for i, c in enumerate(self.coefs):
            out.append(c.scale(Fraction(1, i + 1)))
        return Series(out, self.order + 1)

    def reciprocal(self) -> "Series":
        """Multiplicative inverse; requires an invertible constant term."""
        c0 = self.coefs[0]
        if not c0.is_constant() or c0.as_constant() == 0:
            raise ValueError("series reciprocal needs a nonzero constant term")
        inv0 = Fraction(1, 1) / Fraction(c0.as_constant())
        out = [Poly.const(inv0)]
        for n in range(1, self.order + 1):
            acc = Poly.zero()
            for i in range(1, n + 1):
                acc = acc + self.coefs[i] * out[n - i]
            out.append((-acc).scale(inv0))
        return Series(out, self.order)

    def compose(self, inner: "Series") -> "Series":
        """self(inner(t)); requires inner(0) = 0."""
        if not inner.coefs[0].is_zero():
            raise ValueError("composition needs inner constant term 0")
        n = min(self.order, inner.order)
        out = Series([self.coefs[0]], n)
        power = Series.one(n)
        for k in range(1, n + 1):
            power = power * inner
            out = out + power * self.coefs[k]
        return out

    def reversion(self) -> "Series":
        """Compositional inverse H with self(H(t)) = t.

        Requires constant term 0 and an invertible linear coefficient.
        Solved coefficient by coefficient.
        """
        if not self.coefs[0].is_zero():
            raise ValueError("reversion needs constant term 0")
        g1 = self.coefs[1]
        if not g1.is_constant() or g1.as_constant() == 0:
            raise ValueError("reversion needs an invertible linear coefficient")
        inv1 = Fraction(1, 1) / Fraction(g1.as_constant())
        h = [Poly.zero(), Poly.const(inv1)]
        for n in range(2, self.order + 1):
            partial = Series(h + [Poly.zero()], n)
            val = self.compose(partial)[n]
            h.append((-val).scale(inv1))
        return Series(h, self.order)

    def exp(self) -> "Series":
        """exp(self); requires constant term 0.  Solves E' = self' * E."""
        if not self.coefs[0].is_zero():
            raise ValueError("series exp needs constant term 0")
        if self.order == 0:
            return Series.one(0)
        d = self.derivative()
        out = [Poly.one()]
        for n in range(1, self.order + 1):
            acc = Poly.zero()
            for i in range(n):
                if n - 1 - i <= d.order and not out[i].is_zero():
                    acc = acc + d.coefs[n - 1 - i] * out[i]
            out.append(acc.scale(Fraction(1, n)))
        return Series(out, self.order)


def series_reciprocal(s: Series) -> Series:
    return s.reciprocal()


def solve_riccati(p: Poly, q: Poly, r: Poly, order: int) -> Series:
    """Unique G with G(0)=0 and G' = p + q*G + r*G^2, to the given order.

    Triangular recurrence on the Taylor coefficients:
    (n+1) g_{n+1} = p*[n=0] + q*g_n + r*sum_{i+j=n} g_i g_j.
    """
    g = [Poly.zero()]
    for n in range(order):
        acc = Poly.zero()
        if n == 0:
            acc = acc + p
        acc = acc + q * g[n]
        conv = Poly.zero()
        for i in range(n + 1):
            if not g[i].is_zero() and not g[n - i].is_zero():
                conv = conv + g[i] * g[n - i]
        acc = acc + r * conv
        g.append(acc.scale(Fraction(1, n + 1)))
    return Series(g, order)


def solve_logderiv(z_coeffs: Sequence[PolyLike], g: Series, lam: PolyLike, order: int) -> Series:
    """Unique F with F(0)=1 and F'/F = lam * Z(G), where Z(s) = sum z_k s^k.

    Standard logarithmic-derivative recurrence:
    (n+1) f_{n+1} = [t^n] (lam * Z(G) * F), usable because the right side at
    order n only involves f_0..f_n.
    """
    lam = _p(lam)
    g = g.truncate(min(g.order, order))
    w = Series.zero(order)
    power = Series.one(order)
    for k, z in enumerate(z_coeffs):
        if k > 0:
            power = power * g
        w = w + power * (_p(z) * lam)
    f = [Poly.one()]
    for n in range(order):
        acc = Poly.zero()
        for i in range(n + 1):
            if not f[i].is_zero():
                acc = acc + w.coefs[n - i] * f[i]
        f.append(acc.scale(Fraction(1, n + 1)))
    return Series(f, order)


def series_pow_sym(f1: Series, lam: PolyLike, order: int) -> Series:
    """f1^lam = exp(lam * log f1) with a symbolic exponent; needs f1(0) = 1.

    Computed from F' = lam * (f1'/f1) * F, so the coefficients are
    polynomials in lam.
    """
    c0 = f1.coefs[0]
    if not (c0.is_constant() and c0.as_constant() == 1):
        raise ValueError("series_pow_sym needs constant term 1")
    lam = _p(lam)
    f1 = f1.truncate(min(f1.order, order))
    w = f1.derivative() * f1.reciprocal() if order > 0 else Series.zero(0)
    f = [Poly.one()]
    for n in range(order):
        acc = Poly.zero()
        for i in range(n + 1):
            if not f[i].is_zero() and n - i <= w.order:
                acc = acc + w.coefs[n - i] * f[i]
        f.append((acc * lam).scale(Fraction(1, n + 1)))
    return Series(f, order)
