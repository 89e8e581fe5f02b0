"""Exact sparse multivariate polynomial arithmetic.

A polynomial is a sparse map from monomial keys to nonzero integer
numerators over one positive denominator (rationals appear where truncated
power series carry 1/n factors), and the arithmetic works on numerators
alone.  ``terms``, each coefficient as an ``int`` or a ``Fraction``, serves
printing, JSON and the routines that read single coefficients.

Monomial keys are packed exponent vectors (Monagan and Pearce).  A
process-wide registry gives every variable name, on first use, its own
``FIELD_BITS``-wide bit field, and the monomial x1^e1 ... xn^en is the single
integer sum of e_i << offset(x_i).  Every polynomial shares this one key
space, so a monomial product is one integer addition, a sum one pass over
the terms of one operand and ``*`` one loop over term pairs, with no
per-operation re-keying.  The top bit of each field is a guard: exponents
run from 0 to ``MAX_EXPONENT`` (32767), and an exponent that would reach the
guard bit raises ``OverflowError`` instead of carrying into the next
variable's field.  Keys depend on the order in which names were first seen,
so their layout never leaves this module: printing and JSON go through
variable names, and other modules ask helpers here for what a key holds
(``_vars_of``, ``_degrees``, ``_values``, and ``_exponents``: the names some
Polys use, their exponent vectors and each term's index).  Only two
readers extract fields: ``_fields``, the fields a key sets, in a walk that
costs those fields, not the key's width, and ``_vectors``, exponent tuples
over given fields; so a change of the layout touches them and the encoders
(``_offset``, ``Poly.__init__``, ``Poly.var``) only.

Sums of products are accumulated, not folded (Monagan and Pearce again),
and one kernel, ``_mul_into``, multiplies the terms of one Poly by those of
another: it adds every term pair of a*b into a numerator map.
``Poly.dot(pairs)`` (the sum of a*b) runs it once per pair into one dict and
normalises it once at the end, so no product is built only to be merged and
no partial sum is copied; ``*`` and ``scale`` are the one-pair case, and
``_mul_add(a, c, b)``, a + c*b (the row step of the m-Stieltjes-Rogers
recurrence), is the one pair added into one copy of a's numerators.  ``+``
and ``-`` are ``_mul_add`` calls with b = 1 and b = -1, so no other loop
merges two term maps and a difference builds no negated copy.  The
second operand of the kernel may be an exact scalar, an int or a
``Fraction``, taken as one term on the constant key 0 (which moves no key,
so it needs no overflow test): an integer weight, a binomial or an n!/k!
goes into ``scale``, ``*`` and ``Poly.dot`` as it is, with no ``Poly``
built to carry it.  Every result is built by one call, ``_finish``, which
drops zeros, reduces and wraps the map.  No routine mutates the ``num`` of
a Poly it did not just build, so ``Poly.zero()`` and ``Poly.one()`` return
one shared instance each.  The
weighting step of the oracles and of ``substitute`` (``_power_sum``) reads
each class of a count table as the (index, exponent) pairs of its positive
exponents (``_sparse``), so a class costs the weights it raises, not all
of them, and raises monomials by key arithmetic: a class whose weights are
monomials is one key sum and one coefficient product added into one term
map, not a ``Poly`` product.  The accumulator,
like a Poly, holds numerators over one denominator, grown to the lcm only
when den(a) den(b) does not divide it, so every term pair multiplies
integers and the result is reduced once, at the end, by one gcd of its
denominator and numerators.  The overflow guard tests the operands of each
product, not the accumulated result, where products may already have
cancelled: in every field OR-of-keys(a) + OR-of-keys(b) is at least the
largest exponent sum and cannot carry into the next field, so a sum with no
guard bit set proves the product safe; only operands that fail this test
have their term pairs checked one by one.

``Poly(vars, terms)`` builds a polynomial from exponent tuples parallel to
``vars``.  The names must be identifiers (``str.isidentifier``; ``ValueError``
otherwise) and may come in any order and repeat (the exponents of a repeated
name add); exponents must be nonnegative integers, not bools
(``ValueError`` otherwise), no larger than ``MAX_EXPONENT``
(``OverflowError``).  Coefficients are exact numbers (a bool counts as 0 or 1).

Conventions, fixed for the process lifetime:

* ``vars``, printing and JSON list variables in lexicographic name order;
* the canonical term order is graded lex: ascending total degree, then
  descending lexicographic comparison of exponent vectors (so within one
  degree, powers of the alphabetically-first variable come first);
* no zero numerator is ever stored, every key is canonical and gcd(den,
  every numerator) = 1 (zero has den 1), hence structural equality
  coincides with mathematical equality.
"""

from __future__ import annotations

import re
import threading
from collections import defaultdict
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import lshift, mul
from typing import Iterable, Mapping, Sequence, Union

Coeff = Union[int, Fraction]
Scalar = Union[int, Fraction]

FIELD_BITS = 16
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1

_offsets: dict[str, int] = {}  # variable name -> bit offset of its field
_names: list[str] = []  # field index -> variable name
_guard = 0  # the guard bit of every registered field
_register_lock = threading.Lock()


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def _offset(name: str) -> int:
    """Bit offset of the field of ``name``, registering the name on first use.

    A name must be a ``str`` that is an identifier (``ValueError``
    otherwise): names print unquoted between ``*`` and ``^``, and ``vars``
    sorts them."""
    global _guard
    off = _offsets.get(name) if isinstance(name, str) else None
    if off is None:
        if not (isinstance(name, str) and name.isidentifier()):
            raise ValueError(f"variable names must be identifiers, got {name!r}")
        with _register_lock:
            off = _offsets.get(name)
            if off is None:
                off = len(_names) * FIELD_BITS
                _names.append(name)
                _guard |= 1 << (off + FIELD_BITS - 1)
                _offsets[name] = off
    return off


def _fields(key: int) -> list:
    """The (field index, exponent) pairs of the fields a nonnegative key sets,
    lowest first; a walk jumps over empty fields, so it costs the fields set."""
    out, i = [], -1
    while key:
        skip = ((key & -key).bit_length() - 1) // FIELD_BITS  # empty fields below it
        i += skip + 1
        out.append((i, key >> skip * FIELD_BITS & _FIELD_MASK))
        key >>= (skip + 1) * FIELD_BITS
    return out


def _vectors(keys: Iterable[int], offsets: Sequence[int]) -> list:
    """One exponent tuple per key, over the fields at ``offsets``."""
    return [tuple([k >> off & _FIELD_MASK for off in offsets]) for k in keys]


def _overflow(key: int) -> OverflowError:
    """The error for a key with a guard bit set, naming the first such variable."""
    i = next(i for i, e in _fields(key) if e > MAX_EXPONENT)
    return OverflowError(f"exponent of {_names[i]} exceeds {MAX_EXPONENT}")


def _degree(key: int) -> int:
    """Total degree of a monomial key."""
    return sum([e for _, e in _fields(key)])


def _degrees(p: "Poly", names: set) -> list:
    """The distinct total degrees in ``names`` of the terms of p, ascending."""
    offsets = [_offsets[v] for v in p.vars if v in names]
    return sorted(set(map(sum, _vectors(p.num, offsets))))


def _vars_of(polys: Iterable["Poly"]) -> tuple:
    """The sorted names of the variables ``polys`` use."""
    used = 0
    for p in polys:  # the OR of every key: nonzero in each field some Poly uses
        for k in p.num:
            used |= k
    return tuple(sorted([_names[i] for i, _ in _fields(used)]))


def _norm_coeff(c) -> Coeff:
    """An exact scalar, an int (bools included) or a Fraction, as an int when
    integral, else a Fraction.  Any other type, a float say, raises
    ``TypeError``: a float would become its binary fraction."""
    if type(c) is int:
        return c
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"a coefficient must be an int or a Fraction, not {type(c).__name__}")
    c = c if type(c) is Fraction else Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _mul_into(out: dict, den: int, a: "Poly", b: "Poly | Scalar") -> int:
    """Add a * b to out / den, where ``out`` holds integer numerators over
    the common denominator ``den``; returns the new ``den``.  ``b`` is a
    Poly or an exact scalar (an int or a ``Fraction``), which multiplies
    like a Poly of one term on the constant key 0.  ``_finish`` drops the
    zeros and reduces once."""
    ta = a.num
    if type(b) is Poly:
        tb, d = b.num, a.den * b.den
        if len(ta) < len(tb):
            ta, tb = tb, ta
        one = len(tb) == 1
        if one:
            [(kb, cb)] = tb.items()
    else:
        kb, one = 0, True
        cb, d = (b, a.den) if type(b) is int else (b.numerator, a.den * b.denominator)
    if den % d:
        grow = d // gcd(den, d)
        for k in out:
            out[k] *= grow
        den *= grow
    scale = den // d
    get = out.get
    if one:
        cb *= scale
        if kb:
            used = 0
            for ka, ca in ta.items():
                k = ka + kb
                used |= k
                out[k] = get(k, 0) + ca * cb
            if used & _guard:
                raise _overflow(used)
        else:  # the constant key moves no key, so no product can overflow
            for ka, ca in ta.items():
                out[ka] = get(ka, 0) + ca * cb
        return den
    if scale != 1:
        tb = {k: c * scale for k, c in tb.items()}
    ora = orb = 0
    for k in ta:
        ora |= k
    for k in tb:
        orb |= k
    if (ora + orb) & _guard:
        for ka in ta:
            for kb in tb:
                if (ka + kb) & _guard:
                    raise _overflow(ka + kb)
    for ka, ca in ta.items():
        for kb, cb in tb.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return den


def _product(a: "Poly", b: "Poly | Scalar") -> "Poly":
    """The Poly a * b (``b`` a Poly or an exact scalar): the multiply-add
    of one pair into an empty map."""
    out: dict = {}
    return _finish(out, _mul_into(out, 1, a, b))


def _mul_add(a: "Poly", c: "Poly", b: "Poly | Scalar") -> "Poly":
    """a + c * b: the multiply-add of c * b into a copy of a's numerators,
    so no product is built only to be merged; ``b`` may be an exact scalar."""
    out = dict(a.num)
    return _finish(out, _mul_into(out, a.den, c, b))


def _power_guard(terms: dict, n: int) -> None:
    """Raise the ``OverflowError`` of p ** n (``terms`` those of p) before any
    product: over Q an exponent e of p gives n e in p^n, past ``MAX_EXPONENT``
    iff adding MAX_EXPONENT - MAX_EXPONENT // n to its field sets the guard."""
    if n > 1:
        pad = (MAX_EXPONENT - MAX_EXPONENT // n) * (_guard >> (FIELD_BITS - 1))
        used = 0
        for k in terms:
            used |= k + pad
        if used & _guard:
            raise _overflow(used)


def _finish(out: dict, den: int = 1) -> "Poly":
    """The Poly of the integer term map ``out`` / ``den``, zeros dropped and
    reduced by one gcd of the denominator and the numerators: the one
    constructor of every Poly.  ``out`` itself may become the Poly's map
    (every caller passes a map of its own), so it is copied only when it
    holds a zero or a common factor."""
    if 0 in out.values():
        out = {k: c for k, c in out.items() if c}
    if den != 1:
        g = gcd(den, *out.values())
        if g != 1:
            den //= g
            out = {k: c // g for k, c in out.items()}
    p = object.__new__(Poly)
    _set_num(p, out)
    _set_den(p, den)
    return p


def _from_terms(terms: dict) -> "Poly":
    """The Poly of a map from keys to ints and Fractions, zeros dropped:
    the numerators over the lcm of the denominators, a canonical pair."""
    den = lcm(*[c.denominator for c in terms.values()])
    return _finish({k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den)


class Poly:
    """Immutable sparse multivariate polynomial num / den.

    ``num`` maps monomial keys (see the module docstring) to nonzero
    integers, coprime to the positive ``den``; ``terms`` is the read-only
    key -> coefficient view and ``vars`` the sorted tuple of the variable
    names that occur.  Zero has ``vars == ()``, ``num == {}``, ``den == 1``.
    """

    __slots__ = ("num", "den", "_vars")

    def __init__(self, vars: Iterable[str] = (), terms: Mapping | None = None):
        vars = tuple(vars)
        offsets = [_offset(v) for v in vars]
        out: dict = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(vars):
                raise ValueError(f"exponent vector {exps} does not match vars {vars}")
            key = 0
            for off, e in zip(offsets, exps):
                if isinstance(e, bool) or not isinstance(e, int) or e < 0:
                    raise ValueError(f"exponents must be nonnegative integers, got {e!r}")
                if e > MAX_EXPONENT:
                    raise OverflowError(f"exponent {e} exceeds {MAX_EXPONENT}")
                key += e << off
                if key & _guard:
                    raise _overflow(key)
            out[key] = out.get(key, 0) + c
        p = _from_terms({k: _norm_coeff(c) for k, c in out.items()})
        _set_num(self, p.num)
        _set_den(self, p.den)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @property
    def terms(self) -> dict:
        """key -> coefficient: an ``int`` when integral, else a reduced
        ``Fraction``.  Do not mutate it: for den 1 it is ``num`` itself."""
        den = self.den
        return self.num if den == 1 else {k: Fraction(c, den) if c % den else c // den
                                          for k, c in self.num.items()}

    @property
    def vars(self) -> tuple:
        try:
            return self._vars
        except AttributeError:
            pass
        names = _vars_of((self,))
        object.__setattr__(self, "_vars", names)
        return names

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c: Scalar) -> "Poly":
        c = _norm_coeff(c)
        return _finish({0: c.numerator}, c.denominator) if c else _ZERO

    @staticmethod
    def var(name: str) -> "Poly":
        return _finish({1 << _offset(name): 1})

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def one() -> "Poly":
        return _ONE

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return not any(self.num)

    def as_constant(self) -> Coeff:
        if any(self.num):
            raise ValueError(f"not a constant: {self}")
        return self.terms.get(0, 0)

    def is_coeffwise_nonneg(self) -> bool:
        """True iff every coefficient is >= 0 (the coefficientwise order):
        the numerators are ints over a positive ``den``, and zero has no
        numerator."""
        return min(self.num.values(), default=0) >= 0

    def coeff_of_var(self, name: str, power: int) -> "Poly":
        """The coefficient of name**power, a polynomial in the other variables."""
        if name not in self.vars:
            return self if power == 0 else Poly.zero()
        off = _offsets[name]
        exps = _vectors(self.num, [off])
        return _finish({k - (power << off): c for (e,), (k, c) in zip(exps, self.num.items())
                        if e == power}, self.den)

    def is_integral(self) -> bool:
        return self.den == 1

    def coefficients(self) -> Iterable[Coeff]:
        return self.terms.values()

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    __hash__ = None  # mutable-dict backed; not hashable

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        big, small = (self, other) if len(self.num) >= len(other.num) else (other, self)
        return _mul_add(big, small, 1) if small.num else big

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _finish({k: -c for k, c in self.num.items()}, self.den)

    def __sub__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return _mul_add(self, other, -1) if other.num else self

    def __rsub__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return _mul_add(other, self, -1) if self.num else other

    def __mul__(self, other) -> "Poly":
        if type(other) not in _OPERANDS:
            other = _as_poly(other)
            if other is NotImplemented:
                return NotImplemented
        return _product(self, other)

    __rmul__ = __mul__

    @staticmethod
    def dot(pairs: Iterable) -> "Poly":
        """The sum of a * b over (a, b) pairs of Polys or exact numbers,
        accumulated in one numerator map and reduced once."""
        out: dict = {}
        den = 1
        for a, b in pairs:
            if type(a) is not Poly:
                a, b = b, a
                if type(a) is not Poly:
                    a = _p(a)
            if type(b) not in _OPERANDS:
                b = _p(b)
            if a.num and (b.num if type(b) is Poly else b):
                den = _mul_into(out, den, a, b)
        return _finish(out, den)

    def scale(self, c: Scalar) -> "Poly":
        """Multiply by an exact scalar (used by series code for 1/n factors)."""
        if type(c) is not int:
            c = _norm_coeff(c)
        return self if c == 1 else _product(self, c)

    def __pow__(self, n: int) -> "Poly":
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        _power_guard(self.num, n)
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- substitution ----------------------------------------------------

    def substitute(self, env: Mapping[str, Union["Poly", Scalar]]) -> "Poly":
        """Substitute variables by polynomials; unmapped variables pass through."""
        hit = [v for v in self.vars if v in env]
        if not hit:
            return self
        offsets = [_offsets[v] for v in hit]
        return _power_sum(
            ((_sparse(exps), _finish({k - sum(map(lshift, exps, offsets)): c}, self.den))
             for exps, (k, c) in zip(_vectors(self.num, offsets), self.num.items())),
            [env[v] for v in hit])

    # -- exact division --------------------------------------------------

    def exact_div(self, divisor: "Poly") -> "Poly":
        """Exact polynomial division over the rationals; raises
        ExactDivisionError on a remainder.

        Leading-term reduction, with terms ordered by (total degree, key).
        A quotient coefficient stays an ``int`` when it is one, and becomes
        a ``Fraction`` otherwise.
        """
        divisor = _as_poly(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return Poly.zero()
        if divisor.is_constant():
            return self.scale(Fraction(divisor.den, divisor.num[0]))
        guard = _guard
        dterms = [(k, c, _degree(k)) for k, c in divisor.terms.items()]
        ld, ld_coeff, ld_deg = max(dterms, key=lambda t: (t[2], t[0]))
        rem: defaultdict = defaultdict(dict)  # total degree -> {key: coefficient}
        for k, c in self.terms.items():
            rem[_degree(k)][k] = c
        quot: dict = {}
        while rem:
            deg = max(rem)
            top = rem[deg]
            le = max(top)
            lc = top[le]
            qk = le - ld
            # a borrow out of any field, or a leading exponent past the limit
            # (which no exact quotient produces), sets a guard bit
            if (le | qk) & guard:
                raise ExactDivisionError("leading monomial not divisible")
            if type(lc) is int and type(ld_coeff) is int and not lc % ld_coeff:
                qc = lc // ld_coeff
            else:
                qc = _norm_coeff(Fraction(lc) / Fraction(ld_coeff))
            quot[qk] = qc
            qdeg = deg - ld_deg
            for k, c, d in dterms:
                bucket = rem[qdeg + d]
                key = qk + k
                s = bucket.pop(key, 0) - qc * c
                if s:
                    bucket[key] = _norm_coeff(s)
            for d in [d for d, bucket in rem.items() if not bucket]:
                del rem[d]
        return _from_terms(quot)

    # -- canonical order, printing, JSON ---------------------------------

    def sorted_terms(self) -> list:
        """(exponent tuple parallel to ``vars``, coefficient) pairs in the
        canonical graded-lex order (degree asc, then lex desc)."""
        exps = _vectors(self.num, [_offsets[v] for v in self.vars])
        return sorted(zip(exps, self.terms.values()),
                      key=lambda ec: (sum(ec[0]), tuple(-x for x in ec[0])))

    def __str__(self) -> str:
        if not self.num:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.vars, e) if k
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{str(c)}*{mono}")
        return "+".join(parts).replace("+-", "-")

    def __repr__(self) -> str:
        return f"Poly({self})"

    def to_json_obj(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [
                {"exp": list(e), "coef": str(c)} for e, c in self.sorted_terms()
            ],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "Poly":
        """Inverse of ``to_json_obj``, adding the coefficients of terms listed
        twice; ``vars`` and each ``exp`` must be lists, ``exp`` of ints (not bools), each ``coef``
        the text of an int or a fraction (``ValueError`` naming the field otherwise)."""
        if type(obj["vars"]) is not list:
            raise ValueError(f"vars must be a list of variable names, got {obj['vars']!r}")
        terms: dict = {}
        for t in obj["terms"]:
            if type(t["exp"]) is not list or any(type(e) is not int for e in t["exp"]):
                raise ValueError(f"exp must be a list of integer exponents, got {t['exp']!r}")
            e = tuple(t["exp"])
            terms[e] = terms.get(e, 0) + _parse_coeff(t["coef"])
        return Poly(obj["vars"], terms)


_set_num, _set_den = Poly.num.__set__, Poly.den.__set__
# shared, as no routine mutates the map of a Poly it did not just build
_ZERO, _ONE = _finish({}), _finish({0: 1})
_OPERANDS = (Poly, int, Fraction)  # the types the kernel takes as its second operand


def _exponents(polys: Sequence[Poly]) -> tuple:
    """(names, vectors, indices): the sorted names of the variables
    ``polys`` use (``_vars_of``), the distinct exponent vectors of their
    terms as tuples over those names, and per Poly the index in ``vectors``
    of each term, in ``num`` order."""
    names = _vars_of(polys)
    index: dict = {}
    indices = [[index.setdefault(k, len(index)) for k in p.num] for p in polys]
    return names, _vectors(index, [_offsets[v] for v in names]), indices


def _values(polys: Sequence[Poly], envs: Sequence[Mapping]) -> list:
    """The values of each Poly under each assignment: one list per Poly,
    parallel to ``envs``, of exact numbers (an int when integral, else a
    Fraction).  Every variable the Polys use must be bound in every
    assignment (``KeyError`` otherwise).

    Each distinct monomial is evaluated once, as the list of its values
    over ``envs``, from one list per power of each variable, walking only
    the fields set in its key; a Poly's value under one assignment is then
    one ``sum(map(mul, ...))`` of its numerators with its monomials' values
    there, divided once by its denominator.  A Poly object that recurs (a
    Hankel grid repeats each entry) is evaluated once and shares its list.
    """
    powers: dict = {}  # (field index, e) -> the values of that variable^e
    monomials: dict = {0: [1] * len(envs)}
    for p in polys:
        for key in p.num:
            if key not in monomials:
                vec = None
                for i, e in _fields(key):
                    power = powers.get((i, e))
                    if power is None:
                        power = powers[i, e] = [env[_names[i]] ** e for env in envs]
                    vec = power if vec is None else list(map(mul, vec, power))
                monomials[key] = vec

    out, done = [], {}  # id of a Poly evaluated -> its values
    for p in polys:
        if id(p) not in done:
            coeffs, d = list(p.num.values()), p.den
            columns = zip(*map(monomials.__getitem__, p.num))  # per assignment
            acc = [sum(map(mul, coeffs, col)) for col in columns] if coeffs else [0] * len(envs)
            done[id(p)] = acc if d == 1 else [Fraction(v, d) if v % d else v // d for v in acc]
        out.append(done[id(p)])
    return out


def _sparse(exponents: Sequence[int]) -> tuple:
    """The (i, e) pairs of the positive entries e of ``exponents``, in
    order: a class as ``_power_sum`` reads it."""
    return tuple([(i, e) for i, e in enumerate(exponents) if e])


def _power_sum(items: Iterable, values) -> Poly:
    """The sum of start * values[i_1]^e_1 * values[i_2]^e_2 * ... over the
    (pairs, start) items, ``pairs`` the ((i, e), ...) of a class's positive
    exponents in ascending order of i; values are Polys or exact numbers,
    starts exact numbers or monomial Polys.

    A monomial v = c X is raised by key arithmetic: v^e is c^e times e
    additions of the key of X, each tested as ``*`` tests a monomial
    product.  A class whose pairs all index monomials adds its term, its
    start times those powers, straight into one term map.  A class that
    raises zero and no value of several terms is zero, and is dropped once
    its monomials are tested.  Any other class goes into the term map of
    its group: the classes that raise the other values (several terms, or
    zero) to the same exponents.  A group's map takes one product by those
    powers, each formed once per call by ``power_table``.
    """
    values = [_p(v) for v in values]  # tables[i]: (key, c) of v^e for a monomial v
    tables = [[(0, 1), *v.terms.items()] if len(v.num) == 1 else None for v in values]
    zero = {i for i, v in enumerate(values) if not v.num}
    plain: dict = {}
    groups: dict = {}  # the pairs of a class on the other values -> {key: coefficient}
    for pairs, start in items:
        if type(start) is Poly:
            [(key, c)] = start.terms.items()
        else:
            key, c = 0, start
        rest = ()
        for i, e in pairs:
            table = tables[i]
            if table is None:
                rest += ((i, e),)
                continue
            while len(table) <= e:
                (k, v), (k1, v1) = table[-1], table[1]
                if (k + k1) & _guard:
                    raise _overflow(k + k1)
                table.append((k + k1, v * v1))
            k, v = table[e]
            key += k
            if key & _guard:
                raise _overflow(key)
            c *= v
        if not rest:
            acc = plain
        elif zero.issuperset([i for i, _ in rest]):
            continue
        else:
            acc = groups.setdefault(rest, {})
        acc[key] = acc.get(key, 0) + c
    tops: dict = {}  # index of another value -> its largest exponent
    for rest in groups:
        for i, e in rest:
            if e > tops.get(i, 0):
                tops[i] = e
    powers = {i: power_table(values[i], tops[i] + 1) for i in sorted(tops)}
    return _from_terms(plain) + Poly.dot(
        (_from_terms(acc), reduce(mul, [powers[i][e] for i, e in rest]))
        for rest, acc in groups.items())


def rising(base: Poly, n: int) -> Poly:
    """base * (base+1) * ... * (base+n-1); empty product is 1."""
    out = Poly.one()
    for i in range(n):
        out = out * (base + i)
    return out


def power_table(base: Poly, n: int) -> list:
    """[base^0, base^1, ..., base^(n-1)], one product per power, refused
    by ``_power_guard`` before any product when base^(n-1) would overflow."""
    _power_guard(base.num, n - 1)
    out = [Poly.one()] if n > 0 else []
    while len(out) < n:
        out.append(out[-1] * base)
    return out


PolyLike = Union[Poly, Scalar]


def _p(x) -> Poly:
    """Coerce a Poly or an exact number to a Poly."""
    return x if type(x) is Poly else Poly.const(x)


def _as_poly(x) -> Poly:
    """Like ``_p`` for the operators: NotImplemented for foreign types, so
    the other operand's reflected method runs."""
    if type(x) is Poly:
        return x
    if type(x) is int:
        return _finish({0: x})
    return Poly.const(x) if isinstance(x, (int, Fraction)) else NotImplemented


_COEFF_TEXT = re.compile("-?[0-9]+(/[0-9]+)?")


def _parse_coeff(s) -> Coeff:
    """A JSON coefficient: only the text of an int or a fraction, in ASCII digits."""
    if type(s) is not str or not _COEFF_TEXT.fullmatch(s):
        raise ValueError(f"coef must be a string matching -?[0-9]+(/[0-9]+)?, got {s!r}")
    if "/" in s:
        try:
            return _norm_coeff(Fraction(s))
        except ZeroDivisionError:
            raise ValueError(f"coefficient {s!r} has a zero denominator") from None
    return int(s)
