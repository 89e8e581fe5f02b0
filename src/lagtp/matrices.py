"""Band-bounded lower-Hessenberg matrices of polynomials and their toolkit.

Two matrix types answer ``truncate(rows, cols=None)``, their top-left
block, and refuse a negative size before any read: ``Truncation``, a finite
grid, and ``Banded``, a lazy matrix held as its diagonals and read on them
alone, be it a leaf (``DiagonalPolySpec``, whose diagonals are polynomial in
the row index, the bidiagonals, a closed form) or a sum or product.
Around them: output-matrix iteration and its inverse, binomial conjugation
(spec to spec, by Taylor layers in xi on the diagonals), exact minors,
total positivity certification (symbolic and sampled, plus the continuant
criterion for tridiagonal matrices), exponential Riordan arrays, and
``first_difference``, the entrywise comparison every check makes (it names
the first differing entry, or key, in a falsy ``Mismatch``).

All matrices here are finite truncations with exact ``Poly`` entries; the
iteration and conjugation routines are arranged so that every returned
entry is independent of anything outside the working block (truncation is
exact, never approximate).

Symbolic scans go per minor, sampled scans go a column block at a time:
``_first_negative_minor``, given a product and a sign test, scans the
symbolic representations, and ``_first_negative_lane`` scans every grid of
sample lists, building all of a row set's minors over all assignments at
once.  The symbolic scan runs on integers (a matrix with a ``Fraction``
scaled by one factor), each monomial indexed below the box of exponent
bounds read off the rows and columns of the process keys.  A small, full
box (at most ``_PACK_BITS`` bits packed, ``_PACK_SLOTS_PER_TERM`` slots
per term of the largest entry) packs each entry into one integer, a
coefficient per fixed-width slot, and reads a minor's signs with one AND;
every other box scans as maps from index to coefficient; both give the
same reports.  A failing minor is recomputed as a Poly, the scan's only
Poly arithmetic.  On a square Hankel grid the symbolic scan computes each
distinct minor once (elsewhere it certifies a top-size minor with a zero
block uncomputed), and the sampled scan each distinct assignment once.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .polyring import Poly, PolyLike, _exponents, _p, _values, _vars_of, power_table


class NonUnitDiagonalError(ValueError):
    """Raised when a production matrix is requested for a non-unit-triangular matrix."""


class RiordanIntegralityError(ValueError):
    """Raised when an exponential Riordan array entry fails to be integral."""


class Truncation:
    """Finite rows x cols grid of Poly entries; with no rows it keeps the ``cols`` given."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[PolyLike]], cols: int | None = None):
        data = tuple([tuple([e if type(e) is Poly else _p(e) for e in row]) for row in data])
        rows = len(data)
        if cols is None:
            cols = len(data[0]) if rows else 0
        _check_size(rows, cols)
        if any(len(r) != cols for r in data):
            raise ValueError("ragged matrix data")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, *a):
        raise AttributeError("Truncation is immutable")

    @staticmethod
    def from_fn(rows: int, cols: int, fn: Callable[[int, int], PolyLike]) -> "Truncation":
        _check_size(rows, cols)
        return Truncation([[fn(n, k) for k in range(cols)] for n in range(rows)], cols)

    @staticmethod
    def identity(n: int) -> "Truncation":
        return diagonal(lambda i: Poly.one()).truncate(n)

    @staticmethod
    def zero(rows: int, cols: int) -> "Truncation":
        return Truncation.from_fn(rows, cols, lambda i, j: Poly.zero())

    def __getitem__(self, ij) -> Poly:
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Truncation):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.data == other.data

    __hash__ = None

    def _entrywise(self, op, other: "Truncation") -> "Truncation":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Truncation([list(map(op, a, b)) for a, b in zip(self.data, other.data)], self.cols)

    def __add__(self, other: "Truncation") -> "Truncation":
        return self._entrywise(operator.add, other)

    def __sub__(self, other: "Truncation") -> "Truncation":
        return self._entrywise(operator.sub, other)

    def __mul__(self, other: "Truncation") -> "Truncation":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        live = [[(j, b) for j, b in enumerate(row) if b.num] for row in other.data]
        return Truncation([_row_times(row, live.__getitem__, other.cols) for row in self.data],
                          other.cols)

    def scale(self, c: PolyLike) -> "Truncation":
        c = _p(c)
        return Truncation([[e * c for e in row] for row in self.data], self.cols)

    def transpose(self) -> "Truncation":
        return Truncation([[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
                          self.rows)

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "Truncation":
        return Truncation([[self.data[i][j] for j in cols] for i in rows], len(cols))

    def truncate(self, rows: int, cols: int | None = None) -> "Truncation":
        """The top-left rows x cols block; a negative or too large size raises ``ValueError``."""
        cols = rows if cols is None else cols
        _check_size(rows, cols)
        if rows > self.rows or cols > self.cols:
            raise ValueError(f"requested {rows}x{cols} block of a {self.rows}x{self.cols} matrix")
        return Truncation([row[:cols] for row in self.data[:rows]], cols)

    def is_unit_lower_triangular(self) -> bool:
        return all(row[j] == (1 if j == i else 0)
                   for i, row in enumerate(self.data) for j in range(i, self.cols))

    def lower_bandwidth(self) -> int:
        """Largest t >= 0 with a nonzero entry (k+t, k); 0 for upper-triangular."""
        return max((i - j for i, row in enumerate(self.data) for j, e in enumerate(row[:i]) if e),
                   default=0)

    def variables(self) -> tuple:
        return _vars_of(e for row in self.data for e in row)

    def to_json_obj(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[e.to_json_obj() for e in row] for row in self.data],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"), sort_keys=True)

    @staticmethod
    def from_json_obj(obj: dict) -> "Truncation":
        if type(obj["rows"]) is not int or type(obj["cols"]) is not int:
            raise ValueError("matrix JSON rows and cols must be integers")
        data = [[Poly.from_json_obj(e) for e in row] for row in obj["entries"]]
        t = Truncation(data, None if data else obj["cols"])
        if t.rows != obj["rows"] or t.cols != obj["cols"]:
            raise ValueError("matrix JSON shape mismatch")
        return t

    def __repr__(self) -> str:
        rows = "\n".join("  [" + ", ".join(str(e) for e in row) + "]" for row in self.data)
        return f"Truncation {self.rows}x{self.cols}\n{rows}"


@dataclass(frozen=True)
class Mismatch:
    """A failed comparison: in ``what``, ``got`` differs from ``want`` at
    ``where`` ((i, k) in a matrix, an index in a sequence, or "shape").
    It is falsy, so a check returns it where it would return False."""

    what: str
    where: object
    got: object
    want: object

    def __bool__(self) -> bool:
        return False

    def __str__(self) -> str:
        where = f"({','.join(map(str, self.where))})" if isinstance(self.where, tuple) else self.where
        return f"{self.what} disagree at {where}: {self.got} vs {self.want}"

    def to_json_obj(self) -> dict:
        got, want = (v.to_json_obj() if isinstance(v, Poly) else v for v in (self.got, self.want))
        return {"what": self.what, "where": self.where, "got": got, "want": want}


class RouteMismatchError(AssertionError):
    """A construction disagreed with its cross-check (a second route, or a
    property its entries must have); holds the Mismatch."""


def first_difference(got, want, what: str) -> bool | Mismatch:
    """True when ``got`` equals ``want``, else the ``Mismatch`` at their
    first differing entry.  Two ``Truncation``s are compared in row-major
    order, two dicts key by key in the order of ``got`` (``where`` is the
    key), two sequences index by index; a difference in shape (in length,
    or in the set of keys) is reported at ``where="shape"``."""
    if isinstance(got, Truncation):
        if got == want:
            return True
        shape = (got.rows, got.cols), (want.rows, want.cols)
        cells = (((i, k), a, b) for i, (row_a, row_b) in enumerate(zip(got.data, want.data))
                 for k, (a, b) in enumerate(zip(row_a, row_b)))
    elif isinstance(got, dict):  # the key sets decide the shape, not their order
        shape = list(got), (list(got) if got.keys() == want.keys() else list(want))
        cells = ((key, a, want[key]) for key, a in got.items())
    else:
        shape = len(got), len(want)
        cells = zip(itertools.count(), got, want)
    if shape[0] != shape[1]:
        return Mismatch(what, "shape", *shape)
    return next((Mismatch(what, where, a, b) for where, a, b in cells if a != b), True)


def _check_size(rows: int, cols: int) -> None:
    if rows < 0 or cols < 0:
        raise ValueError(f"requested a {rows}x{cols} block")


# -- special matrices ------------------------------------------------------


class Banded:
    """A lazy banded matrix kept as its diagonals: ``diags[m](n)`` is entry
    (n, n - m), m = -1 the superdiagonal, each cached by row; every other
    entry is zero.  ``+`` and ``*`` act on the diagonals, so a block of a
    sum or product reads only the rows of its factors that it needs.
    """

    def __init__(self, diags: dict):
        object.__setattr__(self, "diags", {m: functools.cache(f) for m, f in sorted(diags.items())})

    def __setattr__(self, *a):
        raise AttributeError("Banded is immutable")

    def __call__(self, n: int, k: int) -> Poly:
        """Entry (n, k); zero off the band and at a negative index."""
        f = self.diags.get(n - k)
        return f(n) if f is not None and n >= 0 and k >= 0 else Poly.zero()

    def __add__(self, other: "Banded") -> "Banded":
        def diag(m):
            fs = [d.diags[m] for d in (self, other) if m in d.diags]
            return lambda n: Poly.dot((f(n), 1) for f in fs)
        return Banded({m: diag(m) for m in self.diags.keys() | other.diags.keys()})

    def __mul__(self, other: "Banded") -> "Banded":
        """Diagonal m of the product at row n is the sum of A_i(n) B_j(n - i)
        over i + j = m and n >= i (column n - i of A is then >= 0)."""
        def diag(m):
            pairs = [(i, a, other.diags[m - i]) for i, a in self.diags.items()
                     if m - i in other.diags]
            return lambda n: Poly.dot((a(n), b(n - i)) for i, a, b in pairs if n >= i)
        return Banded({m: diag(m) for m in {i + j for i in self.diags for j in other.diags}})

    def truncate(self, rows: int, cols: int | None = None) -> Truncation:
        """The rows x cols block, read row by row, left to right, on the band
        entries inside it only.  A negative size raises ``ValueError``."""
        cols = rows if cols is None else cols
        _check_size(rows, cols)
        zero, diags = Poly.zero(), sorted(self.diags.items(), reverse=True)
        grid = [[zero] * cols for _ in range(rows)]
        for n, row in enumerate(grid):
            for m, f in diags:
                if 0 <= n - m < cols:
                    row[n - m] = f(n)
        return Truncation(grid, cols)


@dataclass(frozen=True)
class DiagonalPolySpec(Banded):
    """An (r,1)-banded lower-Hessenberg matrix whose diagonals are polynomial
    in the row index n: entry (n, n+1) is f_{-1}(n), entry (n, n-m) is
    n(n-1)...(n-m+1) f_m(n) for 0 <= m <= r, and every other entry is zero.

    ``fs`` lists the polynomials f_{-1}, f_0, ..., f_r, each given by its
    coefficient list in n (constant coefficient first, Poly coefficients
    allowed); r is an int >= -1.  It is the ``Banded`` of those diagonals.
    A spec is unhashable, as ``Poly`` is.
    """

    r: int
    fs: tuple
    __hash__ = None

    def __post_init__(self):
        if type(self.r) is not int or self.r < -1:
            raise ValueError(f"spec order r must be an int >= -1 (got {self.r!r})")
        fs = tuple(tuple(_p(c) for c in f) for f in self.fs)
        if len(fs) != self.r + 2:
            raise ValueError(f"need {self.r + 2} polynomials f_-1..f_{self.r}")
        object.__setattr__(self, "fs", fs)
        Banded.__init__(self, {m: functools.partial(_spec_diagonal, max(m, 0), f)
                               for m, f in enumerate(fs, -1)})

    def __str__(self) -> str:
        fs = "; ".join("[" + ", ".join(map(str, f)) + "]" for f in self.fs)
        return f"spec r={self.r}, f_-1..f_{self.r} by coefficients in n: {fs}"

    def poly_degree(self, m: int) -> int:
        """Degree in n of f_m (m from -1 to r); -1 for the zero polynomial."""
        return max((d for d, c in enumerate(self.fs[m + 1]) if c), default=-1)


def _spec_diagonal(m: int, f: tuple, n: int) -> Poly:
    """n(n-1)...(n-m+1) f(n): one ``Poly.dot`` of the coefficients c_d of f
    with the weights n(n-1)...(n-m+1) n^d; a lone c_0 of weight 1 is the entry."""
    fall = math.perm(n, m)
    if len(f) == 1 and fall == 1:
        return f[0]
    return Poly.dot((c, fall * n ** d) for d, c in enumerate(f))


def delta_matrix() -> DiagonalPolySpec:
    """The shift matrix with 1 on the superdiagonal."""
    return DiagonalPolySpec(0, ((1,), (0,)))


def diagonal(diag) -> Banded:
    """Diagonal matrix with diag(i) at (i, i)."""
    return Banded({0: lambda i: _p(diag(i))})


def lower_bidiagonal(diag, sub) -> Banded:
    """Lower-bidiagonal matrix with diag(i) on the diagonal, sub(i) on row i."""
    return Banded({0: lambda i: _p(diag(i)), 1: lambda i: _p(sub(i))})


def upper_bidiagonal(diag, sup) -> Banded:
    """Upper-bidiagonal matrix with diag(i) on the diagonal, sup(i) on row i."""
    return Banded({-1: lambda i: _p(sup(i)), 0: lambda i: _p(diag(i))})


def sfraction_word(alpha, m: int, j: int, unit: PolyLike = 1) -> Banded:
    """The production matrix L_{j+1}..L_m U_0 L_1..L_j of the type-j
    triangle of an m-branched S-fraction (Petreolle-Sokal-Zhu); m = 1,
    j = 0 is the tridiagonal S-fraction matrix L_1 U_0.  The subdiagonal
    of L_r holds alpha_{(m+1)i + r - 1} at row i, the diagonal of U_0
    holds alpha_{(m+1)(i+1) - 1}; the unit entries of the factors (the
    diagonal of each L_r, the superdiagonal of U_0) hold ``unit``.
    """
    if m < 1:
        raise ValueError(f"branch order m must be at least 1 (got {m})")
    if not 0 <= j <= m:
        raise ValueError(f"type j must satisfy 0 <= j <= m (got {j})")
    unit = _p(unit)

    def l_factor(r):
        return lower_bidiagonal(lambda i: unit, lambda i: alpha((m + 1) * i + r - 1))

    u0 = upper_bidiagonal(lambda i: alpha((m + 1) * (i + 1) - 1), lambda i: unit)
    factors = [l_factor(r) for r in range(j + 1, m + 1)] + [u0] + \
              [l_factor(r) for r in range(1, j + 1)]
    return functools.reduce(operator.mul, factors)


def binomial_truncation(x: PolyLike, n: int, y: PolyLike = 1) -> Truncation:
    """Weighted binomial matrix B_{x,y} with entries C(n,k) x^(n-k) y^k,
    truncated to n x n.

    The powers x^0..x^(n-1) and y^0..y^(n-1) are tabled once, so each
    entry costs one product and one integer scaling.  A negative size
    raises ``ValueError``.
    """
    if n < 0:
        raise ValueError(f"requested a {n}x{n} binomial matrix")
    xp = power_table(_p(x), n)
    yp = power_table(_p(y), n)
    zero = Poly.zero()
    return Truncation([[(xp[i - j] * yp[j]).scale(math.comb(i, j)) if j <= i else zero
                        for j in range(n)] for i in range(n)])


def hankel_truncation(seq: Sequence[PolyLike], n: int) -> Truncation:
    """n x n Hankel matrix (a_{i+j}) of the given sequence (needs len >= 2n-1);
    a negative n raises ``ValueError``."""
    if n < 0:
        raise ValueError(f"requested a {n}x{n} Hankel matrix")
    if len(seq) < 2 * n - 1:
        raise ValueError("sequence too short for requested Hankel truncation")
    return Truncation.from_fn(n, n, lambda i, j: seq[i + j])


def unit_lower_inverse(t: Truncation) -> Truncation:
    """Inverse of a unit-lower-triangular truncation (forward substitution)."""
    if t.rows != t.cols or not t.is_unit_lower_triangular():
        raise NonUnitDiagonalError("inverse requires a unit-lower-triangular matrix")
    n = t.rows
    inv = [[Poly.zero()] * n for _ in range(n)]
    for i in range(n):
        inv[i][i] = Poly.one()
        for j in range(i - 1, -1, -1):
            inv[i][j] = -Poly.dot((t[i, k], inv[k][j]) for k in range(j, i))
    return Truncation(inv)


# -- production-matrix machinery -------------------------------------------


def output_matrix(p: Union[Truncation, Callable[[int, int], PolyLike]], rows: int,
                  cols: int | None = None) -> Truncation:
    """Output matrix O(P) truncated to rows x cols via a_{nk} = sum_i a_{n-1,i} p_{ik}.

    Row n only consults rows 0..n-1 of P, so the truncation is exact.  P may
    be any callable (n,k) -> Poly that is row-finite on the working block;
    the internal working width is rows+cols so that column-finite inputs
    (e.g. transposes of Hessenberg matrices) also come out exact.  A
    ``Truncation`` is read on and below its superdiagonal only, and a read
    past its stored block raises ``IndexError``.

    Row i of P is read once, over the working width, the first time entry i
    of an output row is nonzero, and kept as its nonzero (k, p_ik); each
    output row is then one ``_row_times``, as in ``Truncation.__mul__``.
    So each entry of P is evaluated at most once, and rows of P that never
    meet a nonzero output entry are never read.  A negative size raises
    ``ValueError``.
    """
    cols = rows if cols is None else cols
    _check_size(rows, cols)
    if isinstance(p, Truncation):
        stored, zero = p.data, Poly.zero()

        def p(i: int, k: int) -> Poly:  # nothing above the superdiagonal is read
            return stored[i][k] if k <= i + 1 else zero
    width = rows + cols

    @functools.cache
    def p_row(i: int) -> list:
        row = [p(i, k) for k in range(width)]
        return [(k, b) for k, b in enumerate(row) if b]

    prev = [Poly.one()] + [Poly.zero()] * (width - 1)
    out = [prev[:cols]] if rows else []
    for _ in range(1, rows):
        prev = _row_times(prev, p_row, width)
        out.append(prev[:cols])
    return Truncation(out, cols)


def _row_times(row: Sequence[Poly], live: Callable[[int], list], width: int) -> list:
    """The row vector ``row`` times the matrix whose row k has the nonzero
    entries (j, b) = live(k), over ``width`` columns.

    Only nonzero pairs are summed: each nonzero row[k] meets the nonzero
    entries of row k, and each output entry is one ``Poly.dot``.  ``live``
    is called only for the k where row[k] is nonzero.
    """
    pairs: dict = {}
    for k, a in enumerate(row):
        if a.num:
            for j, b in live(k):
                pairs.setdefault(j, []).append((a, b))
    zero = Poly.zero()
    return [Poly.dot(pairs[j]) if j in pairs else zero for j in range(width)]


def production_of(t: Truncation) -> Truncation:
    """The unique unit-lower-Hessenberg P with O(P) = t on the truncation.

    Returns the (rows-1) x cols block of P; computed by forward substitution
    from L P = (Delta L).  Raises on a non-unit diagonal.
    """
    if not t.is_unit_lower_triangular():
        raise NonUnitDiagonalError("production matrix requires a unit-lower-triangular input")
    n, m = t.rows, t.cols
    prows: list[list[Poly]] = []
    for i in range(n - 1):
        row = []
        for k in range(m):
            row.append(t[i + 1, k] - Poly.dot((t[i, j], prows[j][k])
                                              for j in range(max(0, k - 1), i)))
        prows.append(row)
    return Truncation(prows, m)


def _backward_difference(h: list) -> list:
    """Coefficients in n of h(n) - h(n-1), given those of h (constant first)."""
    return [Poly.dot((h[d], (-1) ** (d - j + 1) * math.comb(d, j)) for d in range(j + 1, len(h)))
            for j in range(len(h) - 1)]


def conjugate_by_binomial(p: DiagonalPolySpec, xi: PolyLike, n: int) -> Truncation:
    """n x n truncation of B_xi^{-1} P B_xi, computed on the diagonals of P.

    B_xi = exp(xi N) with N[i][i-1] = i, so the conjugate is the sum of
    xi^k / k! X_k, where X_0 = P and X_{k+1} = X_k N - N X_k.  With g_m = f_m
    for m >= 0 and g_{-1} = (n+1) f_{-1}, one layer is a backward difference
    on each diagonal, moved down by one: diagonal m of X_{k+1} is
    n(n-1)...(n-m+1) nabla h, nabla h(n) = h(n) - h(n-1), where h is the
    polynomial of diagonal m-1 of X_k.  So the conjugate is the spec with
    the same f_{-1} and f'_M = sum_k xi^k / k! nabla^k g_{M-k}, of order
    max_m (m + deg g_m) whether or not P passes the degree test.  The result
    is its n x n block.  A negative n raises ``ValueError``.
    """
    _check_size(n, n)
    zero, up = Poly.zero(), list(p.fs[0])
    chains = []  # chains[m + 1][k] = nabla^k g_m, down to its constant
    for h in [[a + b for a, b in zip(up + [zero], [zero] + up)], *map(list, p.fs[1:])]:
        while h and not h[-1]:
            h.pop()
        chains.append([])
        while h:
            chains[-1].append(h)
            h = _backward_difference(h)
    r = max((m + len(chain) - 1 for m, chain in enumerate(chains, -1) if chain), default=-1)
    weights = [t.scale(Fraction(1, math.factorial(k)))
               for k, t in enumerate(power_table(_p(xi), r + 2))]
    sums = [{} for _ in range(r + 2)]  # sums[M + 1][j]: the pairs summed into coefficient j of f'_M
    for m, chain in enumerate(chains, -1):
        for k, h in enumerate(chain):
            for j, c in enumerate(h):
                sums[m + k + 1].setdefault(j, []).append((c, weights[k]))
    fs = [p.fs[0]] + [[Poly.dot(s[j]) for j in range(len(s))] for s in sums[1:]]
    return DiagonalPolySpec(r, fs).truncate(n)


# -- total positivity -------------------------------------------------------


@dataclass(frozen=True)
class TPWitness:
    """The first failing minor of a TP scan: its rows and columns, its
    value (``minor``: a Poly for symbolic checks, an int for sampled ones,
    None when a symbolic minor has a term past ``MAX_EXPONENT``, so no Poly
    holds it; JSON null) and, for sampled checks, the sample that failed."""

    rows: tuple
    cols: tuple
    minor: object
    assignment: Optional[dict] = None
    sample_index: Optional[int] = None

    def to_json_obj(self) -> dict:
        minor = self.minor.to_json_obj() if isinstance(self.minor, Poly) else self.minor
        out = {"rows": list(self.rows), "cols": list(self.cols), "minor": minor}
        if self.assignment is not None:
            out["assignment"] = dict(sorted(self.assignment.items()))
        if self.sample_index is not None:
            out["sample_index"] = self.sample_index
        return out


@dataclass(frozen=True)
class TPReport:
    ok: bool
    order: int
    mode: str
    checked: int
    witness: Optional[TPWitness] = None
    meta: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        out = {
            "ok": self.ok,
            "order": self.order,
            "mode": self.mode,
            "checked": self.checked,
            "witness": self.witness.to_json_obj() if self.witness else None,
        }
        out.update(self.meta)
        return out

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"), sort_keys=True)


@functools.lru_cache(maxsize=128)
def _index_sets_colex(n: int, size: int) -> tuple:
    """Size-subsets of range(n) in colexicographic order (cached: every
    scan of an n-row or n-column matrix walks the same sets)."""
    return tuple(sorted(itertools.combinations(range(n), size), key=lambda c: c[::-1]))


@functools.lru_cache(maxsize=128)
def _colex_plan(n: int, size: int) -> tuple:
    """(drops, heads), lists indexed by the colex rank of a size-subset of
    range(n): drops[i] holds the ranks of the (size-1)-subsets of set i,
    one per dropped index, in order; heads[i] is (first index, rank of the
    rest) of set i."""
    sets = _index_sets_colex(n, size)
    rank = {s: i for i, s in enumerate(_index_sets_colex(n, size - 1))}
    drops = [[rank[s[:t] + s[t + 1:]] for t in range(size)] for s in sets]
    return drops, [(s[0], d[0]) for s, d in zip(sets, drops)]


@functools.lru_cache(maxsize=128)
def _hankel_copies(n: int, size: int) -> list:
    """Where the scan of an n x n Hankel grid first meets each minor of
    this size: by row rank, then column rank, None at the first copy in
    scan order, else the (row rank, column rank) of that first copy.

    The minor on rows R and columns C equals the one on (R - t, C + t)
    and, a Hankel grid being symmetric, the one on (C, R).  Among the
    shifts of (R, C) the first in colex order moves R as far up as C
    allows, since each step up lowers R's largest index; so the first copy
    is the earlier of that shift and the same shift of (C, R).
    """
    sets = _index_sets_colex(n, size)
    rank = {s: i for i, s in enumerate(sets)}
    # the ranks of each set moved up, or down, by every t that keeps it in range(n)
    up = [[rank[tuple([i - t for i in s])] for t in range(s[0] + 1)] for s in sets]
    down = [[rank[tuple([i + t for i in s])] for t in range(n - s[-1])] for s in sets]

    def first(r, c):
        t = min(len(up[r]), len(down[c])) - 1
        return up[r][t], down[c][t]

    return [[None if src == (r, c) else src
             for c in range(len(sets)) for src in [min(first(r, c), first(c, r))]]
            for r in range(len(sets))]


def _first_negative_minor(grid, order: int, dot, nonneg) -> tuple:
    """(minors checked or certified, (rows, cols, minor) of the first minor
    that fails ``nonneg``, or None), over the minors of size <= order of a
    rectangular grid, its shape read off the grid: by size, then colex row
    sets, then colex column sets.

    A minor of size s > 1 is expanded along its first column,
    M(r, c) = sum_t (-1)^t g[r_t][c_0] M(r - r_t, c[1:]), over the size-(s-1)
    minors kept from the previous size, as one ``dot`` of (entry, minor)
    pairs.  Each level is kept as lists indexed by row rank, then column
    rank, and the ranks of r - r_t and c[1:] come from ``_colex_plan``.
    Only one level is kept, and the largest size is not kept, except on a
    square Hankel grid (g[i][k] = g[i+1][k-1] throughout, found by O(n^2)
    comparisons): there each minor is computed only at its first copy in
    scan order (``_hankel_copies``) and read back from the kept level at
    every later copy.  At the top size of any other grid with a zero entry,
    a minor with a zero block in its natural order (rows r[:k] on columns
    c[k:], or r[k:] on c[:k], 0 < k < s) is det(A11) det(A22), two smaller
    minors that passed, and is certified uncomputed, read off one column
    bitmask per row (the entries' truthiness) in O(s) integer operations.
    Every other minor, reused or not, goes through ``nonneg``; ``checked``
    counts the minors checked or certified.  This is the scan of the symbolic
    representations, Polys (``Poly.dot``), index maps (``_terms_dot``) and
    packed integers (``_int_dot``); grids of sample lists go a column block
    at a time (``_first_negative_lane``).
    """
    rows, cols = len(grid), len(grid[0]) if grid else 0
    top = min(order, rows, cols)
    negated = [[-e for e in row] for row in grid] if top > 1 else None
    hankel = top > 1 and rows == cols and all(
        grid[i][k] == grid[i + 1][k - 1] for i in range(rows - 1) for k in range(1, cols))
    # per row, the bitmask of its nonzero columns, for the zero-block certificate
    masks = (top > 1 and not hankel and not all(map(all, grid))
             and [sum(1 << j for j, e in enumerate(row) if e) for row in grid])
    checked = 0
    prev: list = []
    for size in range(1, top + 1):
        keep = size < top or hankel
        cur: list = []
        colsets = _index_sets_colex(cols, size)
        heads = _colex_plan(cols, size)[1]
        copies = (_hankel_copies(rows, size) if hankel and size > 1
                  else itertools.repeat([None] * len(heads)))
        certify = masks and size == top
        # per column set c, the masks of c[k:] and of c[:k], 0 < k < size
        blocks = ([[(sum(1 << j for j in c[k:]), sum(1 << j for j in c[:k]))
                    for k in range(1, size)] for c in colsets]
                  if certify else itertools.repeat(()))
        for r, rdrops, row_copies in zip(_index_sets_colex(rows, size), _colex_plan(rows, size)[0],
                                         copies):
            kept: list = []
            if keep:
                cur.append(kept)
            # ((-1)^t times row r_t, the kept minors on the rows r - r_t)
            drops = [(negated[i] if t & 1 else grid[i], prev[d])
                     for t, (i, d) in enumerate(zip(r, rdrops))] if size > 1 else ()
            first_row = grid[r[0]]
            if certify:  # the columns met by rows r[:k] and by rows r[k:]
                met = [masks[i] for i in r]
                splits = list(zip(itertools.accumulate(met[:-1], operator.or_),
                                  list(itertools.accumulate(met[:0:-1], operator.or_))[::-1]))
            for c, (c0, rest), copy, block in zip(colsets, heads, row_copies, blocks):
                checked += 1
                if copy is not None:
                    minor = cur[copy[0]][copy[1]]
                elif block and any(not head & after or not tail & before
                                   for (head, tail), (after, before) in zip(splits, block)):
                    continue  # a zero block: det(A11) det(A22) >= 0
                elif drops:
                    minor = dot((row[c0], below[rest]) for row, below in drops)
                else:
                    minor = first_row[c0]
                if not nonneg(minor):
                    return checked, (r, c, minor)
                if keep:
                    kept.append(minor)
        prev = cur
    return checked, None


def _first_negative_lane(grid, order: int) -> tuple:
    """``_first_negative_minor``, with the same result, for a grid of sample
    lists of one length (a lane per assignment; shape and lane count read
    off the grid), a column block at a time: the scan of every sampled grid.

    The minors on a row set r of size s are one flat list, colex column
    sets by lanes, each expanded along its last column l:
    M(r, c) = sum_t (-1)^(t+s-1) g[r_t][l] M(r - r_t, c[:-1]).  The C(l, s-1)
    sets that end at l are contiguous in colex order and their rests are
    the first C(l, s-1) sets of size s-1, a prefix of the list kept for
    r - r_t; so block l is one ``map`` per nonzero g[r_t][l], of its signed
    lanes repeated C(l, s-1) times with that list (``map`` stops at the
    shorter one).  One ``min`` tests a row set; the index of its first
    negative value, over ``lanes``, is the colex rank of the failing set.
    """
    rows, cols = len(grid), len(grid[0]) if grid else 0
    top = min(order, rows, cols)
    lanes = len(grid[0][0]) if top else 0
    live = [[e if any(e) else None for e in row] for row in grid]  # None for a zero entry
    signed = live, [[e and [-v for v in e] for e in row] for row in live]
    checked = 0
    prev: list = [[1] * lanes]  # the one minor of size 0
    for size in range(1, top + 1):
        colsets = _index_sets_colex(cols, size)
        # by the sign (-1)^(t+s-1), + then -: each entry's lanes, signed and
        # repeated C(column, s-1) times
        counts = [math.comb(l, size - 1) for l in range(cols)]
        reps = [[[e and e * n for e, n in zip(row, counts)] for row in g] for g in signed]
        cur: list = []
        for r, rdrops in zip(_index_sets_colex(rows, size), _colex_plan(rows, size)[0]):
            terms = [(reps[(t + size - 1) & 1][i], prev[d])
                     for t, (i, d) in enumerate(zip(r, rdrops))]
            flat = []
            for l in range(size - 1, cols):
                block = None
                for row, below in terms:
                    if row[l] is not None:
                        prod = map(operator.mul, row[l], below)
                        block = prod if block is None else map(operator.add, block, prod)
                flat += [0] * (counts[l] * lanes) if block is None else block
            if min(flat) < 0:
                c = next(i for i, v in enumerate(flat) if v < 0) // lanes
                return checked + c + 1, (r, colsets[c], flat[c * lanes:(c + 1) * lanes])
            checked += len(colsets)
            if size < top:
                cur.append(flat)
        prev = cur
    return checked, None


# Packing pays when the box is small and full: against the sparse plan,
# the boxes packed (up to 128 slots per term of the largest entry, up to
# 2.4e5 bits) scanned in 0.2-1.0x the time, but for a 77-slot S-R Hankel at
# 1.14x, and the others (350 slots per term and up: S-R Hankels, m = 2
# prodmat_smj and quad_variant blocks) in 1.4-370x.  The size cap decides no
# plan of tp_scan (seeds 1-5) or ``verify all`` (seeds 42, 7); past it the
# univariate Hankel in (lam, x) scans faster sparse: 7x7 at TP5 1.71 s against
# 2.31 s packed, at all orders 1.87 against 3.68 s, 8x8 at TP4 6.8 against 7.9 s.
_PACK_BITS = 1 << 18
_PACK_SLOTS_PER_TERM = 128


def _top_product(values, k: int) -> int:
    """The product of the k largest values, each taken as at least 1."""
    return math.prod(sorted([max(1, v) for v in values], reverse=True)[:max(k, 0)])


class _Terms(dict):
    """An entry or a minor of the sparse plan: monomial index -> coefficient."""

    __slots__ = ()

    def __neg__(self) -> "_Terms":
        return _Terms(zip(self, map(operator.neg, self.values())))


def _packing(grid, top: int) -> tuple:
    """(width, dims, plan grid): the compact plan of a grid of Polys (its
    variables read off it by ``_exponents``) for its minors of size <= top.
    A grid with a ``Fraction`` coefficient is first scaled by L, the lcm of
    its entries' denominators; each s x s minor gains L^s > 0, and a Hankel
    stays Hankel.

    A term of a minor takes one entry from each of its rows and columns, so
    dims[v] - 1, the lesser of the sums of the top largest row maxima and
    of the top largest column maxima of the exponent of v, bounds that
    exponent, and the mixed-radix index of a monomial over ``dims``, one
    digit per variable, the largest dimension lowest (ties in name order),
    is below prod(dims) and adds under products, a digit past the key
    limit ``MAX_EXPONENT`` too.  The plan does not depend on the name
    registry.

    Dense plan, when the box has at most ``_PACK_SLOTS_PER_TERM`` slots per
    term of the largest entry and at most ``_PACK_BITS`` bits: each entry
    is one integer, slot i of ``width`` bits holding the coefficient of the
    monomial of index i.  A minor's coefficients are at most the permanent
    of its entries' norms, and ||fg||_inf <= ||f||_2 ||g||_2, ||gh||_2 <=
    ||g||_2 ||h||_1; so with every factor at least 1, the least B of the
    products of the top largest row L1 norms, of the top largest column L1
    norms, and of the top - 2 largest row L1 norms with the two largest row
    sums of ceil(||e||_2) bounds them, and width = B.bit_length() + 1 keeps
    |c| < 2^(width - 1).  Sparse plan, every other box: width is None and
    each entry a ``_Terms`` map from index to coefficient.
    """
    cells = [[id(e) for e in row] for row in grid]
    distinct = {id(e): e for row in grid for e in row}  # a Hankel grid repeats its entries
    names, vectors, indices = _exponents(list(distinct.values()))
    terms = dict(zip(distinct, indices))  # per entry, the index in vectors of each term
    maxima = {i: tuple(map(max, zip(*map(vectors.__getitem__, ids)))) or (0,) * len(names)
              for i, ids in terms.items()}  # per variable, its largest exponent in the entry
    table = [[maxima[i] for i in row] for row in cells]

    def per_variable(lines):  # for each variable, its largest exponent in each row or column
        return zip(*[map(max, zip(*line)) for line in lines])

    dims = [1 + min(sum(sorted(r, reverse=True)[:top]), sum(sorted(c, reverse=True)[:top]))
            for r, c in zip(per_variable(table), per_variable(zip(*table)))]
    scale = math.lcm(*[e.den for e in distinct.values()])
    coeffs = {i: [c * (scale // e.den) for c in e.num.values()] for i, e in distinct.items()}
    # the largest dimension lowest: the packed S-R Hankels of tp_scan
    # scanned 1.9x as fast as with the digits in name order
    order = sorted(range(len(dims)), key=lambda v: -dims[v])
    strides = [math.prod([dims[u] for u in order[:order.index(v)]]) for v in range(len(dims))]
    index = [sum(map(operator.mul, t, strides)) for t in vectors]
    box = math.prod(dims)
    width = None
    if box <= _PACK_SLOTS_PER_TERM * max(1, max(map(len, coeffs.values()), default=0)):
        l1 = [[sum(map(abs, coeffs[cell])) for cell in row] for row in cells]
        squares = [[sum(map(operator.mul, coeffs[cell], coeffs[cell])) for cell in row]
                   for row in cells]
        row_l1 = list(map(sum, l1))
        row_l2 = [sum([math.isqrt(q - 1) + 1 for q in row if q]) for row in squares]  # ceil(L2)
        width = min(_top_product(row_l1, top), _top_product(map(sum, zip(*l1)), top),
                    _top_product(row_l1, top - 2) * _top_product(row_l2, min(top, 2))
                    ).bit_length() + 1
        if box * width > _PACK_BITS:
            width = None
    if width is None:
        plans = {i: _Terms(zip(map(index.__getitem__, terms[i]), cs)) for i, cs in coeffs.items()}
    else:
        shifts = [width * i for i in index]
        plans = {i: sum(map(operator.lshift, cs, map(shifts.__getitem__, terms[i])))
                 for i, cs in coeffs.items()}
    return width, tuple([dims[v] for v in order]), [[plans[cell] for cell in row] for row in cells]


def _int_dot(pairs) -> int:
    """The sum of a * b over (a, b) pairs of packed integers; a pair with
    a zero is skipped, as ``Poly.dot`` skips a zero Poly."""
    return sum(a * b for a, b in pairs if a and b)


def _terms_dot(pairs) -> _Terms:
    """The sum of a * b over (a, b) pairs of ``_Terms`` maps, the smaller
    map of each pair in the outer loop; an empty map is skipped and the
    zeros of the sum are dropped."""
    out = _Terms()
    get = out.get
    for a, b in pairs:
        if a and b:
            if len(a) > len(b):
                a, b = b, a
            pairs_b = b.items()
            for ka, ca in a.items():
                for kb, cb in pairs_b:
                    k = ka + kb
                    out[k] = get(k, 0) + ca * cb
    if 0 in out.values():
        for k in [k for k, c in out.items() if not c]:
            del out[k]
    return out


def _terms_nonneg(minor: _Terms) -> bool:
    """Whether no coefficient of a ``_Terms`` minor is negative."""
    return min(minor.values(), default=0) >= 0


def tp_check_symbolic(m: Truncation, order: int) -> TPReport:
    """Check every minor of size <= order for coefficientwise nonnegativity.

    Minors come from ``_first_negative_minor`` in colex order, to the depth
    top = min(order, rows, cols) that also sizes the plan, up to the first
    offending minor, returned in the report.  On a square Hankel matrix each
    distinct minor is computed once, at its first copy, and read back after;
    on any other matrix with a zero entry, a top-size minor with a zero
    block in its natural order is the product of two smaller minors that
    passed, and is certified without being computed.  ``checked`` counts
    the minors checked or certified by such a zero-block split.

    The scan runs on the compact plan of ``_packing``, on integer
    coefficients of monomial indices below prod(dims) (a matrix with a
    ``Fraction`` scaled by one factor, so a Hankel keeps its read-back).
    On a dense plan each entry is one integer (a Kronecker substitution:
    slot i of ``width`` bits holds a coefficient) and the scan multiplies
    integers.  With OFF holding 2^(width-1) in every slot, a minor has no
    negative coefficient iff minor & OFF == 0, one AND: with no negative
    slot every slot's top bit is clear, and otherwise the lowest negative
    slot, which takes no borrow from below, has its top bit set.  On a
    sparse plan each entry is a map from index to coefficient, and a minor
    passes iff its least coefficient is >= 0.  The failing minor is
    recomputed: the same scan runs on its own unscaled submatrix of Polys,
    where it fails first, since every smaller minor passed.  This rebuild
    is the scan's only Poly arithmetic, and so the one place a product can
    take an exponent past ``MAX_EXPONENT``; the witness then keeps the rows
    and columns the plan's scan found, with no minor (``None``).
    """
    if order < 1:  # an empty scan would certify any matrix
        raise ValueError("order must be at least 1")
    top = min(order, m.rows, m.cols)
    width, dims, grid = _packing(m.data, top)
    if width is None:
        kernels = _terms_dot, _terms_nonneg
    else:
        off = ((1 << width * math.prod(dims)) - 1) // ((1 << width) - 1) << (width - 1)
        kernels = _int_dot, lambda v: not v & off
    checked, bad = _first_negative_minor(grid, top, *kernels)
    size_meta = {"rows": m.rows, "cols": m.cols}
    if bad is None:
        return TPReport(True, order, "symbolic", checked, meta=size_meta)
    rows, cols, _ = bad
    sub = [[m.data[i][j] for j in cols] for i in rows]
    try:
        minor = _first_negative_minor(sub, len(rows), Poly.dot, Poly.is_coeffwise_nonneg)[1][2]
    except OverflowError:
        minor = None
    return TPReport(False, order, "symbolic", checked, TPWitness(rows, cols, minor),
                    meta=size_meta)


class XorShift64:
    """Deterministic xorshift64 generator used for sampled TP checks.

    Update rule (64-bit wrapping): x ^= x << 13; x ^= x >> 7; x ^= x << 17.
    A zero seed is replaced by the constant 0x9E3779B97F4A7C15.  Values in
    {0,1,2,3} are read from the top two bits of the state.  For every seed
    from 1 to 2^32 - 1 the first ``next_small()`` is 0 (three shifts of a
    state below 2^32 cannot reach its top two bits), so sample 0 of a
    sampled check with such a seed sets the alphabetically first variable
    to 0 (``checks.tp_negative_control`` draws from such a seed, its
    ctx.seed mod 2^32 or 1); changing the generator would change every
    sampled output.
    """

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = (seed & self.MASK) or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        return _draws(self, 1, 0)[0]

    def next_small(self) -> int:
        return _draws(self, 1, 62)[0]


def _draws(rng: XorShift64, count: int, shift: int) -> list:
    """The next ``count`` states of ``rng``, each shifted right by ``shift``
    (0 for ``next_u64``, 62 for ``next_small``), in one loop on its state."""
    x, mask, out = rng.state, XorShift64.MASK, []
    for _ in range(count):
        x ^= (x << 13) & mask
        x ^= x >> 7
        x ^= (x << 17) & mask
        out.append(x >> shift)
    rng.state = x
    return out


SAMPLE_VALUES = (0, 1, 2, 3)
_SAMPLE_BLOCK = 64  # samples scanned together: bounds the kept minors' lists


def tp_check_sampled(m: Truncation, order: int, seed: int = 1, samples: int = 50) -> TPReport:
    """Sampled TP check: substitute seeded pseudo-random values from {0,1,2,3}
    for every variable, then verify all integer minors of size <= order.

    A failure reports the first negative minor by sample, then in colex
    order, with its substitution; ``checked`` and the witness are those of
    a scan sample by sample.  A non-integer entry raises ``ValueError``
    once every earlier sample has passed.  The samples are drawn in blocks
    of ``_SAMPLE_BLOCK``, each in one loop (``_draws``), and only the
    distinct assignments of a block are evaluated and scanned, in the order
    of their first occurrence: the entries once per block
    (``polyring._values``), the minors over all assignments at once, a
    column block at a time (``_first_negative_lane``, on every grid,
    Hankel or not).  A scan that fails at an assignment k > 0 is run again
    on the assignments before k.  The earliest failing sample is then the
    first occurrence of the earliest failing assignment.
    """
    if order < 1 or samples < 1:  # an empty scan would certify any matrix
        raise ValueError("order and samples must be at least 1")
    names = m.variables()
    rng = XorShift64(seed)
    meta = {"seed": seed, "samples": samples, "rows": m.rows, "cols": m.cols}
    entries = [e for row in m.data for e in row]
    rational = [i for i, e in enumerate(entries) if not e.is_integral()]
    top = min(order, m.rows, m.cols)
    per_sample = sum(math.comb(m.rows, s) * math.comb(m.cols, s) for s in range(1, top + 1))
    for start in range(0, samples, _SAMPLE_BLOCK):
        # the block's distinct assignments, by first occurrence: firsts maps
        # each to the first sample that draws it
        firsts: dict = {}
        block = min(_SAMPLE_BLOCK, samples - start)
        draws = [SAMPLE_VALUES[v] for v in _draws(rng, block * len(names), 62)]
        for s in range(block):
            firsts.setdefault(tuple(draws[s * len(names):(s + 1) * len(names)]), s)
        envs = [dict(zip(names, key)) for key in firsts]
        values = _values(entries, envs)
        # the first assignment with a non-integer entry, if any
        cut = min((k for i in rational for k, v in enumerate(values[i]) if type(v) is not int),
                  default=len(envs))
        # the scan stops at the first minor negative under some assignment k;
        # an earlier one can fail only later in the scan, so the assignments
        # before k are scanned again until none of them fails
        found, limit = None, cut
        while limit:
            values = [v[:limit] for v in values]
            grid = [values[i * m.cols:(i + 1) * m.cols] for i in range(m.rows)]
            checked, bad = _first_negative_lane(grid, order)
            if bad is None:
                break
            limit = next(k for k, v in enumerate(bad[2]) if v < 0)
            found = limit, checked, bad
        if found is not None:
            k, checked, (rows, cols, minor) = found
            s = start + list(firsts.values())[k]
            return TPReport(False, order, "sampled", s * per_sample + checked,
                            TPWitness(rows, cols, minor[k], envs[k], s), meta=meta)
        if cut < len(envs):
            raise ValueError("sampled TP check needs integer-valued entries")
    return TPReport(True, order, "sampled", samples * per_sample, meta=meta)


def tp_check_tridiagonal(m: Truncation, order: int) -> bool:
    """Tridiagonal TP criterion: nonnegative off-diagonals plus nonnegative
    contiguous principal minors of size <= order.

    The minors on rows start..i follow the continuant recurrence
    theta_i = a_i theta_{i-1} - b_{i-1} c_{i-1} theta_{i-2}, with a the
    diagonal, b the super- and c the subdiagonal.
    """
    if order < 1:  # an empty scan would certify any matrix
        raise ValueError("order must be at least 1")
    n = min(m.rows, m.cols)
    for i in range(m.rows):
        for j in range(m.cols):
            if abs(i - j) == 1 and not m[i, j].is_coeffwise_nonneg():
                return False
            if abs(i - j) > 1 and not m[i, j].is_zero():
                raise ValueError("matrix is not tridiagonal")
    # -b_{i-1} c_{i-1}, the coefficient of theta_{i-2} in theta_i
    link = [Poly.zero()] + [-(m[i - 1, i] * m[i, i - 1]) for i in range(1, n)]
    for start in range(n):
        before, theta = Poly.zero(), Poly.one()  # theta_{start-2}, theta_{start-1}
        for i in range(start, min(n, start + order)):
            before, theta = theta, Poly.dot(((m[i, i], theta), (link[i], before)))
            if not theta.is_coeffwise_nonneg():
                return False
    return True


# -- exponential AZ matrices and Riordan arrays ------------------------------


def eaz_matrix(a: Sequence[PolyLike], z: Sequence[PolyLike]) -> DiagonalPolySpec:
    """Exponential AZ matrix: entry (n,k) = (n!/k!) (z_{n-k} + k a_{n-k+1}).

    ``a`` and ``z`` are finite sequences of Poly, zero past their ends;
    z_{-1} = 0 by convention, which makes the superdiagonal equal a_0.
    With k = n - m, diagonal m is n(n-1)...(n-m+1) (z_m - m a_{m+1} + a_{m+1} n).
    """
    r = max(len(z), len(a) - 1, 1) - 1
    a = [_p(v) for v in a] + [Poly.zero()] * (r + 2 - len(a))
    z = [_p(v) for v in z] + [Poly.zero()] * (r + 1 - len(z))
    fs = [(a[0],)] + [(z[m] - a[m + 1] * m, a[m + 1]) for m in range(r + 1)]
    return DiagonalPolySpec(r, fs)


def bx_conjugate_eaz_identity_check(a, z, n: int) -> bool | Mismatch:
    """Check B_x^{-1} EAZ(a,z) B_x = EAZ(a, z + x*a) on the n-truncation."""
    x = Poly.var("x")
    zx = [x * ai + zi for zi, ai in itertools.zip_longest(z, a, fillvalue=0)]
    return first_difference(conjugate_by_binomial(eaz_matrix(a, z), x, n),
                            eaz_matrix(a, zx).truncate(n),
                            "B_x^-1 EAZ(a,z) B_x vs EAZ(a, z + x a)")


def riordan_matrix(f, g, n: int) -> Truncation:
    """Exponential Riordan array R[F,G]: entry (n,k) = (n!/k!) [t^n] F G^k.

    Requires G(0)=0 and F(0)=1; every entry must come out integral (the
    incoming EGFs are exponential), otherwise RiordanIntegralityError is
    raised to flag a wrong F or G.  A negative size raises ``ValueError``.
    """
    _check_size(n, n)
    if not g[0].is_zero():
        raise ValueError("riordan_matrix needs G(0) = 0")
    if not (f[0].is_constant() and f[0].as_constant() == 1):
        raise ValueError("riordan_matrix needs F(0) = 1")
    if f.order < n - 1 or g.order < n - 1:
        raise ValueError("series truncated below the requested matrix size")
    col = f
    out = [[Poly.zero()] * n for _ in range(n)]
    factorial = [math.factorial(i) for i in range(n)]
    for k in range(n):
        if k > 0:
            col = col * g
        for i in range(k, n):  # G^k starts at t^k, so rows i < k stay zero
            entry = col[i].scale(factorial[i] // factorial[k])
            if not entry.is_integral():
                raise RiordanIntegralityError(
                    f"entry ({i},{k}) = {entry} is not integral; F or G is wrong")
            out[i][k] = entry
    return Truncation(out)
