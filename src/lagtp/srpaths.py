"""Classical and m-branched Stieltjes-Rogers machinery.

Generalized m-Stieltjes-Rogers polynomials of type j are weight generating
polynomials of partial m-Dyck paths from (0,0) to ((m+1)n+j, (m+1)k+j):
steps (1,1) with weight 1 and (1,-m) with weight alpha_i for an m-fall from
height i.  They are computed by the two-step recurrence

    S(j+1; n, k) = S(j; n, k) + alpha_{(m+1)(k+1)+j} S(j; n, k+1)
    S(j; n+1, k) = S(j+m; n, k-1) + alpha_{(m+1)k+j+m} S(j+m; n, k)

with S(j; 0, k) = [k == 0], and cross-validated against a direct path
enumeration oracle.  The production matrix of the type-j triangle is the
bidiagonal product L_{j+1} ... L_m U_0 L_1 ... L_j.

Coefficient conventions: alpha_i = 0 for i < m.  The kappa-families of
bidiagonal factorizations of the univariate Laguerre production matrix use
c_n = ((n-1)-(n-2) kappa)/(n-(n-1) kappa); for a symbolic kappa the
verification multiplies through by the positive denominators n-(n-1) kappa
instead of leaving the polynomial ring.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .digraphs import PATH_ORACLE_STEP_LIMIT, LimitExceeded, _limit
from .laguerre import LaguerreParams, prodmat
from .matrices import HessMatrix, Truncation
from .polyring import ExactDivisionError, Poly, _p

PolyLike = Union[Poly, int, Fraction]


class InadmissibleCellError(ValueError):
    """The requested (j, alpha) pair is not one of the six admissible cells."""


@dataclass(frozen=True)
class SRCoeffs:
    """Branch order m >= 1 plus the coefficient sequence (alpha_i)_{i >= m};
    alpha_i = 0 for i < m by convention."""

    m: int
    alpha_fn: Callable[[int], Poly]

    def alpha(self, i: int):
        if i < self.m:
            return Poly.zero()
        return self.alpha_fn(i)

    @staticmethod
    def symbolic(m: int, prefix: str = "al") -> "SRCoeffs":
        return SRCoeffs(m, lambda i: Poly.var(f"{prefix}{i}"))

    @staticmethod
    def from_fn(m: int, fn: Callable[[int], PolyLike]) -> "SRCoeffs":
        return SRCoeffs(m, lambda i: _p(fn(i)))

    def shifted_up(self) -> "SRCoeffs":
        """The sequence beta with beta_m = 0, beta_i = alpha_{i-1} (i > m)."""
        return SRCoeffs(self.m, lambda i: Poly.zero() if i == self.m else self.alpha(i - 1))


class SRTriangles:
    """Dynamic program for the triangles S^(m;j), all types j >= 0.

    Types 0..m come from the two recurrences above; types beyond m continue
    upward via the first recurrence (so the submatrix identity relating
    them to types mod m+1 stays an independent check).
    """

    def __init__(self, coeffs: SRCoeffs, max_j: int = 0):
        self.coeffs = coeffs
        self.m = coeffs.m
        self.max_j = max(coeffs.m, max_j)
        self._rows: list[list[list[Poly]]] = [[[Poly.one()]] for _ in range(self.max_j + 1)]

    def _extend_to(self, n: int) -> None:
        m, al = self.m, self.coeffs.alpha
        rows = self._rows
        while len(rows[0]) <= n:
            cur = len(rows[0])  # building row index cur
            top = rows[m][cur - 1]

            def at(row, k):
                return row[k] if 0 <= k < len(row) else Poly.zero()

            new0 = []
            for k in range(cur + 1):
                val = at(top, k - 1) + al((m + 1) * k + m) * at(top, k)
                new0.append(val)
            rows[0].append(new0)
            for j in range(self.max_j):
                base = rows[j][cur]
                nxt = []
                for k in range(cur + 1):
                    nxt.append(at(base, k) + al((m + 1) * (k + 1) + j) * at(base, k + 1))
                rows[j + 1].append(nxt)

    def value(self, j: int, n: int, k: int) -> Poly:
        if k < 0 or k > n:
            return Poly.zero()
        if j > self.max_j:
            # reduce via the submatrix identity
            ell, jp = divmod(j, self.m + 1)
            if jp > self.max_j:
                raise ValueError("triangle type out of range")
            return self.value(jp, n + ell, k + ell)
        self._extend_to(n)
        return self._rows[j][n][k]

    def triangle(self, j: int, n: int) -> Truncation:
        self._extend_to(n - 1)
        return Truncation.from_fn(n, n, lambda i, k: self.value(j, i, k))


def sr_poly(coeffs: SRCoeffs, j: int, n: int, k: int) -> Poly:
    """Generalized m-Stieltjes-Rogers polynomial of type j, by recurrence."""
    tri = SRTriangles(coeffs, max_j=min(j, coeffs.m))
    if j <= tri.max_j:
        return tri.value(j, n, k)
    ell, jp = divmod(j, coeffs.m + 1)
    return tri.value(jp, n + ell, k + ell)


def sr_path_oracle(coeffs: SRCoeffs, j: int, n: int, k: int) -> Poly:
    """Direct enumeration of partial m-Dyck paths from (0,0) to
    ((m+1)n+j, (m+1)k+j); must equal sr_poly."""
    return _weigh(coeffs, _path_falls(coeffs.m, j, n, k, k)[k])


def sr_path_oracle_row(coeffs: SRCoeffs, j: int, n: int) -> list:
    """All of S^(m;j)_{n,0..n} from a single enumeration pass over the
    partial m-Dyck paths of length (m+1)n+j."""
    counters = _path_falls(coeffs.m, j, n, 0, n)
    return [_weigh(coeffs, counters[k]) for k in range(n + 1)]


def _path_falls(m: int, j: int, n: int, k_lo: int, k_hi: int) -> dict:
    """For each k in k_lo..k_hi, a Counter of the sorted fall heights of the
    partial m-Dyck paths from (0,0) to ((m+1)n+j, (m+1)k+j).

    The walk prunes every prefix that can no longer end between the lowest
    and the highest target height.
    """
    steps = (m + 1) * n + j
    cap = _limit(PATH_ORACLE_STEP_LIMIT)
    if steps > cap:
        raise LimitExceeded(f"path oracle capped at {cap} steps (got {steps})")
    lo, hi = (m + 1) * k_lo + j, (m + 1) * k_hi + j
    counters = {k: Counter() for k in range(k_lo, k_hi + 1)}
    falls: list[int] = []

    def walk(pos: int, height: int) -> None:
        if pos == steps:
            k, r = divmod(height - j, m + 1)
            if r == 0 and k in counters:
                counters[k][tuple(sorted(falls))] += 1
            return
        rem = steps - pos - 1
        # rise
        h = height + 1
        if h + rem >= lo and h - m * rem <= hi:
            walk(pos + 1, h)
        # m-fall
        h = height - m
        if h >= 0 and h + rem >= lo and h - m * rem <= hi:
            falls.append(height)
            walk(pos + 1, h)
            falls.pop()

    walk(0, 0)
    return counters


def _weigh(coeffs: SRCoeffs, counter: Counter) -> Poly:
    """Sum over fall-height multisets of count * prod alpha_height."""
    def term(heights, count):
        out = Poly.const(count)
        for h in heights:
            out = out * coeffs.alpha(h)
        return out

    return Poly.sum(term(heights, count) for heights, count in sorted(counter.items()))


# -- production matrices ------------------------------------------------------


def _grid_mul(a: list, b: list, zero):
    n = len(a)
    out = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in range(n):
            x = a[i][k]
            if isinstance(x, Poly) and x.is_zero():
                continue
            for jj in range(n):
                y = b[k][jj]
                if isinstance(y, Poly) and y.is_zero():
                    continue
                out[i][jj] = out[i][jj] + x * y
    return out


def _smj_grid(coeffs: SRCoeffs, j: int, size: int, alpha):
    """P^(m;j) = L_{j+1}..L_m U_0 L_1..L_j on a size x size block.

    ``alpha`` maps an index to the entry value (Poly, or any ring element
    with +,* against Poly and int); the subdiagonal of L_r holds
    alpha_{(m+1)i + r - 1} at row i, the diagonal of U_0 holds
    alpha_{(m+1)(i+1) - 1}.
    """
    m = coeffs.m
    if not 0 <= j <= m:
        raise ValueError(f"type j must satisfy 0 <= j <= m (got {j})")
    zero, one = Poly.zero(), Poly.one()

    def l_factor(r):
        g = [[zero] * size for _ in range(size)]
        for i in range(size):
            g[i][i] = one
            if i >= 1:
                g[i][i - 1] = alpha((m + 1) * i + r - 1)
        return g

    def u0_factor():
        g = [[zero] * size for _ in range(size)]
        for i in range(size):
            g[i][i] = alpha((m + 1) * (i + 1) - 1)
            if i + 1 < size:
                g[i][i + 1] = one
        return g

    factors = [l_factor(r) for r in range(j + 1, m + 1)] + [u0_factor()] + \
              [l_factor(r) for r in range(1, j + 1)]
    prod = factors[0]
    for f in factors[1:]:
        prod = _grid_mul(prod, f, zero)
    return prod


def prodmat_smj(coeffs: SRCoeffs, j: int, n: int) -> HessMatrix:
    """Production matrix P^(m;j) of the type-j triangle, as an (m,1)-banded
    HessMatrix valid on the n x n block.

    For m = 2 the entries are additionally cross-checked against the
    explicit quadridiagonal formulas (a construction bug raises here).
    """
    m = coeffs.m
    grid = _smj_grid(coeffs, j, n + m + 1, coeffs.alpha)
    block = Truncation([row[:n] for row in grid[:n]])
    if m == 2:
        for i in range(n):
            for k in range(max(0, i - 2), min(n, i + 2)):
                if block[i, k] != _p2_explicit(coeffs, j, i, k):
                    raise AssertionError(
                        f"bidiagonal product disagrees with explicit m=2 formula at ({i},{k})")
    return HessMatrix.from_truncation(block)


def _p2_explicit(coeffs: SRCoeffs, j: int, n: int, k: int) -> Poly:
    al = coeffs.alpha
    if k == n + 1:
        return Poly.one()
    if k == n:
        return al(3 * n + j) + al(3 * n + j + 1) + al(3 * n + j + 2)
    if k == n - 1:
        return (al(3 * n + j - 2) * al(3 * n + j)
                + al(3 * n + j - 1) * al(3 * n + j)
                + al(3 * n + j - 1) * al(3 * n + j + 1))
    if k == n - 2:
        return al(3 * n + j - 4) * al(3 * n + j - 2) * al(3 * n + j)
    return Poly.zero()


def sfrac_tail_series(coeffs: SRCoeffs, j: int, order: int):
    """Ordinary generating function of the modified type-j polynomials,
    sum_n S^(m;j)_n t^n = f_0 f_1 ... f_j, built bottom-up from the tails
    f_k = 1/(1 - alpha_{k+m} t f_{k+1} ... f_{k+m}).

    Tails deeper than k_max = m*order + j + 1 cannot influence order
    ``order``, so they are taken to be 1.
    """
    from .series import Series

    m = coeffs.m
    k_max = m * order + j + 1
    tails = {k: Series.one(order) for k in range(k_max, k_max + m + 1)}
    t = Series.t(order)
    for k in range(k_max - 1, -1, -1):
        prod = Series.one(order)
        for i in range(1, m + 1):
            prod = prod * tails[k + i]
        tails[k] = (Series.one(order) - (t * prod) * coeffs.alpha(k + m)).reciprocal()
    out = tails[0]
    for k in range(1, j + 1):
        out = out * tails[k]
    return out


def check_modified_from_type0(m: int, ell: int, n_max: int, prefix: str = "al") -> bool:
    """The specialization identity S^(m;m-ell)_n =
    [S^(m)_{n+1} / alpha_m] at alpha_m..alpha_{m+ell-1} = 0, alpha_i -> alpha_{i-ell}."""
    coeffs = SRCoeffs.symbolic(m, prefix)
    env = {f"{prefix}{i}": Poly.zero() for i in range(m, m + ell)}
    tri = SRTriangles(coeffs)
    for n in range(n_max + 1):
        lhs = sr_poly(coeffs, m - ell, n, 0)
        top = tri.value(0, n + 1, 0)
        quotient = top.exact_div(Poly.var(f"{prefix}{m}"))
        sub = dict(env)
        # rename the surviving variables downward by ell
        max_index = (m + 1) * (n + 1) + m
        for i in range(m + ell, max_index + 1):
            sub[f"{prefix}{i}"] = Poly.var(f"{prefix}{i - ell}")
        if quotient.substitute(sub) != lhs:
            return False
    return True


# -- the factorization-table kappa families -------------------------------------


class PolyFrac:
    """Minimal exact fraction of polynomials, for symbolic-kappa entries.

    Simplified opportunistically via exact division; equality is decided by
    cross-multiplication, so no gcd machinery is needed.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None):
        den = Poly.one() if den is None else den
        if den.is_zero():
            raise ZeroDivisionError("PolyFrac with zero denominator")
        if num.is_zero():
            den = Poly.one()
        elif not den.is_constant():
            try:
                num = num.exact_div(den)
                den = Poly.one()
            except ExactDivisionError:
                pass
        if den.is_constant() and den.as_constant() != 1:
            num = num.scale(Fraction(1, 1) / Fraction(den.as_constant()))
            den = Poly.one()
        self.num = num
        self.den = den

    @staticmethod
    def of(x) -> "PolyFrac":
        if isinstance(x, PolyFrac):
            return x
        return PolyFrac(_p(x))

    def __add__(self, other):
        other = PolyFrac.of(other)
        if self.den == other.den:
            return PolyFrac(self.num + other.num, self.den)
        return PolyFrac(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __mul__(self, other):
        other = PolyFrac.of(other)
        return PolyFrac(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __sub__(self, other):
        other = PolyFrac.of(other)
        return self + PolyFrac(-other.num, other.den)

    def __eq__(self, other):
        other = PolyFrac.of(other)
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __repr__(self):
        return f"({self.num})/({self.den})" if self.den != Poly.one() else f"({self.num})"


ADMISSIBLE_CELLS = {(0, -1), (1, -1), (2, -1), (1, 0), (2, 0), (2, 1)}
KAPPA_CELLS = {(0, -1), (1, -1), (2, -1), (2, 1)}


@dataclass(frozen=True)
class KappaFamily:
    """One admissible cell of the factorization table: type j, Laguerre alpha
    in {-1,0,1}, and (for the kappa cells) kappa in [0,1], exact or symbolic."""

    j: int
    alpha_lag: int
    kappa: Optional[Union[Fraction, int, Poly]] = None
    x_name: str = "x"

    def __post_init__(self):
        if (self.j, self.alpha_lag) not in ADMISSIBLE_CELLS:
            raise InadmissibleCellError(
                f"(j={self.j}, alpha={self.alpha_lag}) is not an admissible cell")
        if (self.j, self.alpha_lag) in KAPPA_CELLS and self.kappa is None:
            object.__setattr__(self, "kappa", Fraction(1))

    @property
    def cell_id(self) -> str:
        a = str(self.alpha_lag).replace("-", "m")
        return f"j{self.j}a{a}"


def _cn_values(kappa) -> tuple:
    """Return (D, symbolic) where D(n) = n - (n-1) kappa, with D(0) = kappa."""
    if isinstance(kappa, Poly) and kappa.vars:
        return (lambda n: Poly.const(n) - (kappa * (n - 1))), True
    kq = Fraction(kappa if not isinstance(kappa, Poly) else kappa.as_constant())
    return (lambda n: Fraction(n) - kq * (n - 1)), False


def kappa_family_coeffs(fam: KappaFamily) -> SRCoeffs:
    """The alpha-sequence of the given factorization-table cell (m = 2).

    For the kappa cells, alpha entries are c_n n = n D(n-1)/D(n) and
    (2 - c_n) n = n D(n+1)/D(n) with D(n) = n-(n-1)kappa; a symbolic kappa
    yields PolyFrac entries, an exact rational kappa yields Poly entries.
    """
    x = Poly.var(fam.x_name)
    j, a = fam.j, fam.alpha_lag
    if (j, a) in KAPPA_CELLS:
        d, symbolic = _cn_values(fam.kappa)

        def cn_n(n):  # c_n * n
            if symbolic:
                return PolyFrac(d(n - 1) * n, d(n))
            return Poly.const(Fraction(n) * d(n - 1) / d(n))

        def two_minus_cn_n(n):  # (2 - c_n) * n
            if symbolic:
                return PolyFrac(d(n + 1) * n, d(n))
            return Poly.const(Fraction(n) * d(n + 1) / d(n))

        offset = {(0, -1): 0, (1, -1): 1, (2, -1): 2, (2, 1): 0}[(j, a)]

        def fn(i):
            base = i - offset
            if base < 2:
                return Poly.zero()
            n, r = divmod(base + 1, 3)
            if r == 0:   # base = 3n - 1
                return x
            if r == 1:   # base = 3n
                return cn_n(n)
            return two_minus_cn_n(n)  # base = 3n + 1
    else:
        offset = {(1, 0): 0, (2, 0): 1}[(j, a)]

        def fn(i):
            base = i - offset
            if base < 2:
                return Poly.zero()
            n, r = divmod(base + 1, 3)
            if r == 0:
                return x
            return Poly.const(n)

    return SRCoeffs(2, lambda i: fn(i) if i >= 2 else Poly.zero())


def verify_factorization_cell(fam: KappaFamily, n: int) -> bool:
    """Check that P^(2;j) with the cell's alpha-sequence equals the
    univariate Laguerre production matrix, symbolically in x (and kappa).

    Symbolic-kappa entries are compared after clearing the positive
    denominators n - (n-1) kappa (cross-multiplication in PolyFrac)."""
    coeffs = kappa_family_coeffs(fam)
    params = LaguerreParams.of(fam.alpha_lag)
    target = prodmat(params, "P", x=Poly.var(fam.x_name))
    alpha = (lambda i: PolyFrac.of(coeffs.alpha(i))) if _has_polyfrac(coeffs, n) \
        else coeffs.alpha
    grid = _smj_grid(coeffs, fam.j, n + 3, alpha)
    for i in range(n):
        for k in range(n):
            entry = grid[i][k]
            want = target(i, k)
            if isinstance(entry, PolyFrac):
                if not (entry == want):
                    return False
            elif entry != want:
                return False
    return True


def _has_polyfrac(coeffs: SRCoeffs, n: int) -> bool:
    return any(isinstance(coeffs.alpha(i), PolyFrac) for i in range(2, 3 * n + 6))


# -- negative control -----------------------------------------------------------


def find_hankel_tp2_failure(m: int, n_max: int = 6, prefix: str = "al"):
    """Search the Hankel matrix of the type j = m+1 modified sequence for a
    2x2 minor with a negative coefficient.

    The type-(m+1) sequence is not Hankel-totally positive; this returns a
    witness dict {rows, cols, minor} for the first offending minor found,
    or None if the search space is clean (it should never be).
    """
    coeffs = SRCoeffs.symbolic(m, prefix)
    seq = [sr_poly(coeffs, m + 1, i, 0) for i in range(n_max + 1)]
    size = n_max // 2 + 1
    for rows in itertools.combinations(range(size), 2):
        for cols in itertools.combinations(range(size), 2):
            i1, i2 = rows
            j1, j2 = cols
            minor = seq[i1 + j1] * seq[i2 + j2] - seq[i1 + j2] * seq[i2 + j1]
            if not minor.is_coeffwise_nonneg():
                return {"rows": rows, "cols": cols, "minor": minor}
    return None
