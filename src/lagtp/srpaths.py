"""Classical and m-branched Stieltjes-Rogers machinery.

Generalized m-Stieltjes-Rogers polynomials of type j are weight generating
polynomials of partial m-Dyck paths from (0,0) to ((m+1)n+j, (m+1)k+j):
steps (1,1) with weight 1 and (1,-m) with weight alpha_i for an m-fall from
height i.  They are computed by the two-step recurrence

    S(j+1; n, k) = S(j; n, k) + alpha_{(m+1)(k+1)+j} S(j; n, k+1)
    S(j; n+1, k) = S(j+m; n, k-1) + alpha_{(m+1)k+j+m} S(j+m; n, k)

with S(j; 0, k) = [k == 0], and cross-validated against a direct path
enumeration oracle.  Like the digraph oracles, the path oracle is a
weight-free count table followed by one weighting step: the walk counts
the paths by their fall heights (the (height, falls) pairs of the
heights some fall starts from), and ``polyring._power_sum`` (the
weighting step of every oracle and of ``Poly.substitute``) weighs that
table with alpha_h for height h (for monomial alphas, by key sums and no
``Poly`` product), reading only the alphas of heights some path falls
from.  So the walk
is made once per process for each (m, j, n, k range) and kept as an
immutable table (``_path_table``).  Both oracle entry points, one entry
and a whole row, go through one weighting step, ``_weighted_paths``,
which checks the fixed ``PATH_ORACLE_STEP_LIMIT`` on every call, before
the table is looked up.
``SRTriangles`` computes its entries on demand: a request computes only
the entries its result depends on, each at most once, row by row with no
recursion, returns a memo hit without a walk, and each alpha_i is read
once and kept.  ``value`` and ``triangle`` share one plan, the cone
formula of ``SRTriangles._request``.
The production matrix of the type-j triangle is the bidiagonal product
L_{j+1} ... L_m U_0 L_1 ... L_j, ``matrices.sfraction_word``.

Coefficient conventions: alpha_i = 0 for i < m.  The kappa-families of
bidiagonal factorizations of the univariate Laguerre production matrix use
c_n = ((n-1)-(n-2) kappa)/(n-(n-1) kappa); for a symbolic kappa the
verification multiplies every factor by the product C of the positive
denominators n-(n-1) kappa instead of leaving the polynomial ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul
from typing import Callable, Optional, Union

from .digraphs import LimitExceeded, _unpacked, _units
from .laguerre import LaguerreParams, prodmat
from .matrices import (Mismatch, RouteMismatchError, Truncation, first_difference,
                       hankel_truncation, sfraction_word, tp_check_symbolic)
from .polyring import Poly, PolyLike, _mul_add, _p, _power_sum, _sparse
from .series import Series

PATH_ORACLE_STEP_LIMIT = 24


class InadmissibleCellError(ValueError):
    """The requested (j, alpha) pair is not one of the six admissible cells."""


@dataclass(frozen=True)
class SRCoeffs:
    """Branch order m >= 1 (ValueError otherwise) plus the coefficient
    sequence (alpha_i)_{i >= m}; alpha_i = 0 for i < m by convention."""

    m: int
    alpha_fn: Callable[[int], Poly]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"branch order m must be at least 1 (got {self.m})")

    def alpha(self, i: int):
        if i < self.m:
            return Poly.zero()
        return self.alpha_fn(i)

    @staticmethod
    def symbolic(m: int) -> "SRCoeffs":
        return SRCoeffs(m, lambda i: Poly.var(f"al{i}"))

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

    Entries are computed on demand, each at most once, into a memo keyed
    by (j, n, k).  A request computes only the entries its result depends
    on: ``value`` and ``triangle`` both fill the closed-form dependency
    cone of ``_request``, of one entry or of a whole last row.
    """

    def __init__(self, coeffs: SRCoeffs, max_j: int = 0):
        self.coeffs = coeffs
        self.m = coeffs.m
        self.max_j = max(coeffs.m, max_j)
        self._memo: dict = {(0, 0, 0): Poly.one()}  # (j, n, k) -> S(j; n, k)
        self._alphas: list[Poly] = []  # alpha_0, alpha_1, ..., each read once

    def _fill(self, blocks) -> None:
        """Compute the entries (t, r, k), lo <= k <= hi, of each block
        (t, r, lo, hi) that are not in the memo yet.  Blocks come row by
        row and, within a row, by type, so every entry an entry reads is
        already there."""
        m, memo, al = self.m, self._memo, self._alphas
        for t, r, lo, hi in blocks:
            for k in range(lo, hi + 1):
                if (t, r, k) in memo:
                    continue
                # an entry at an end of its row reads only the one of its two
                # entries inside a triangle, so no product has a zero operand
                if t == 0:
                    if k == r:
                        v = memo[m, r - 1, k - 1]
                    elif k == 0:
                        v = al[m] * memo[m, r - 1, 0]
                    else:
                        v = _mul_add(memo[m, r - 1, k - 1], al[(m + 1) * k + m],
                                     memo[m, r - 1, k])
                elif k == r:
                    v = memo[t - 1, r, k]
                else:
                    v = _mul_add(memo[t - 1, r, k], al[(m + 1) * (k + 1) + t - 1],
                                 memo[t - 1, r, k + 1])
                memo[t, r, k] = v

    def _request(self, j: int, n: int, lo: int, hi: int, below: int) -> None:
        """Compute the cone of S(j; n, lo..hi): at row n the types t <= j with
        k' in [lo, hi + j - t], at each row r < n the types t <= ``below``
        with k' in [lo - (n - r), hi + j + (n - r) m - t], every range
        clipped to [0, r].  Its entries read alpha_i for i < (m+1)n + j."""
        m, al = self.m, self._alphas
        while len(al) < (m + 1) * n + j:
            al.append(self.coeffs.alpha(len(al)))
        self._fill((t, r, max(lo - (n - r), 0), min(hi + j + (n - r) * m - t, r))
                   for r in range(n + 1) for t in range(below + 1 if r < n else j + 1))

    def value(self, j: int, n: int, k: int) -> Poly:
        """S^(m;j)_{n,k}; ValueError for j < 0."""
        _check_type(j)
        if k < 0 or k > n:
            return Poly.zero()
        if j > self.max_j:
            # reduce via the submatrix identity
            ell, jp = divmod(j, self.m + 1)
            return self.value(jp, n + ell, k + ell)
        if (j, n, k) not in self._memo:
            self._request(j, n, k, k, self.m)
        return self._memo[j, n, k]

    def triangle(self, j: int, n: int) -> Truncation:
        """The n x n block of S^(m;j); ValueError for j < 0 or n < 0."""
        _check_type(j)
        if n < 0:
            raise ValueError(f"requested a {n}x{n} triangle")
        if j > self.max_j:  # the submatrix identity, as in ``value``
            ell, jp = divmod(j, self.m + 1)
            block = range(ell, n + ell)
            return self.triangle(jp, n + ell).submatrix(block, block)
        if n:  # the cones of the last row, with types <= max(j, m) below it
            self._request(j, n - 1, 0, n - 1, max(j, self.m))
        return Truncation.from_fn(n, n, lambda i, k: self.value(j, i, k))


def _check_type(j: int) -> None:
    if j < 0:
        raise ValueError(f"type j must be at least 0 (got {j})")


def sr_poly(coeffs: SRCoeffs, j: int, n: int, k: int) -> Poly:
    """Generalized m-Stieltjes-Rogers polynomial of type j, by recurrence."""
    return SRTriangles(coeffs).value(j, n, k)


def sr_path_oracle(coeffs: SRCoeffs, j: int, n: int, k: int) -> Poly:
    """Direct enumeration of partial m-Dyck paths from (0,0) to
    ((m+1)n+j, (m+1)k+j); must equal sr_poly.  ValueError for j < 0."""
    [v] = _weighted_paths(coeffs, j, n, k, k)
    return v


def sr_path_oracle_row(coeffs: SRCoeffs, j: int, n: int) -> list:
    """All of S^(m;j)_{n,0..n} from a single enumeration pass over the
    partial m-Dyck paths of length (m+1)n+j.  ValueError for j < 0."""
    return _weighted_paths(coeffs, j, n, 0, n)


def _weighted_paths(coeffs: SRCoeffs, j: int, n: int, k_lo: int, k_hi: int) -> list:
    """``_path_table(m, j, n, k_lo, k_hi)`` weighted with alpha_h for each
    fall height h; refused (``LimitExceeded``) on every call whose paths
    are longer than the cap, before the table is looked up.

    Only alpha_m .. alpha_top are read, top the highest height some path
    of the table falls from: each of them is a height some path falls
    from, since a path with a fall from t > m has a twin of the same length
    and end with a fall from t - 1: move the rise before the falls that
    lead down to the one from t past them (U D^r -> D^r U), which lowers
    each of those falls by one and stays at height >= t - 1 - m >= 0."""
    _check_type(j)
    m, steps = coeffs.m, (coeffs.m + 1) * n + j
    if steps > PATH_ORACLE_STEP_LIMIT:
        raise LimitExceeded(f"path oracle capped at {PATH_ORACLE_STEP_LIMIT} steps (got {steps})")
    table = _path_table(m, j, n, k_lo, k_hi)
    top = max((falls[-1][0] for items in table for falls, _ in items if falls), default=-1)
    weights = [coeffs.alpha(h) for h in range(top + 1)]
    return [_power_sum(items, weights) for items in table]


@lru_cache(maxsize=None)
def _path_table(m: int, j: int, n: int, k_lo: int, k_hi: int) -> tuple:
    """For each k in k_lo..k_hi, in order, the ((falls, count), ...) items
    of the partial m-Dyck paths from (0,0) to ((m+1)n+j, (m+1)k+j): falls
    holds a pair (h, e) for each height h that e > 0 falls start from, in
    ascending order of h.  Walked once per process for each argument tuple;
    callers check the cap first.

    The walk prunes every prefix that can no longer end between the lowest
    and the highest target height.
    """
    steps = (m + 1) * n + j
    lo, hi = (m + 1) * k_lo + j, (m + 1) * k_hi + j
    counters: dict = {k: {} for k in range(k_lo, k_hi + 1)}
    width = steps.bit_length() or 1   # no height has more than `steps` falls
    unit = _units(width, steps + 1)

    def walk(pos: int, height: int, falls: int) -> None:
        """Go on from step pos at this height; ``falls`` counts the falls
        from each height so far, one packed integer (``_units``)."""
        if pos == steps:
            k, r = divmod(height - j, m + 1)
            if r == 0 and k in counters:
                counter = counters[k]
                counter[falls] = counter.get(falls, 0) + 1
            return
        rem = steps - pos - 1
        # rise
        h = height + 1
        if h + rem >= lo and h - m * rem <= hi:
            walk(pos + 1, h, falls)
        # m-fall
        h = height - m
        if h >= 0 and h + rem >= lo and h - m * rem <= hi:
            walk(pos + 1, h, falls + unit[height])

    walk(0, 0, 0)
    return tuple(tuple([(_sparse(_unpacked(falls, width, steps + 1)), count)
                        for falls, count in counter.items()])
                 for counter in counters.values())


# -- production matrices ------------------------------------------------------


def prodmat_smj(coeffs: SRCoeffs, j: int, n: int) -> Truncation:
    """The n x n block of the production matrix P^(m;j) of the type-j
    triangle, an (m,1)-banded matrix: the block of
    ``matrices.sfraction_word(coeffs.alpha, m, j)``.

    For m = 2 the band entries are cross-checked against the explicit
    quadridiagonal formulas (``RouteMismatchError`` if they differ).
    """
    m = coeffs.m
    block = sfraction_word(coeffs.alpha, m, j).truncate(n)
    if m == 2:
        got = {(i, k): block[i, k] for i in range(n) for k in range(max(0, i - 2), min(n, i + 2))}
        mismatch = first_difference(got, {(i, k): _p2_explicit(coeffs, j, i, k) for i, k in got},
                                    "bidiagonal product and explicit m=2 formula")
        if not mismatch:
            raise RouteMismatchError(mismatch)
    return block


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
    ``order``, so they are taken to be 1.  ValueError for j < 0.
    """
    _check_type(j)
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


def check_modified_from_type0(m: int, ell: int, n_max: int) -> bool | Mismatch:
    """The specialization identity S^(m;m-ell)_n =
    [S^(m)_{n+1} / alpha_m] at alpha_m..alpha_{m+ell-1} = 0, alpha_i -> alpha_{i-ell}."""
    tri = SRTriangles(SRCoeffs.symbolic(m))

    def specialized(n):
        sub = {f"al{i}": Poly.zero() for i in range(m, m + ell)}
        # rename the surviving variables downward by ell
        sub.update((f"al{i}", Poly.var(f"al{i - ell}"))
                   for i in range(m + ell, (m + 1) * (n + 1) + m + 1))
        return tri.value(0, n + 1, 0).exact_div(Poly.var(f"al{m}")).substitute(sub)

    return first_difference([specialized(n) for n in range(n_max + 1)],
                            [tri.value(m - ell, n, 0) for n in range(n_max + 1)],
                            f"specialized S^({m})_(n+1) / al{m} vs S^({m};{m - ell})_n")


# -- the factorization-table kappa families -------------------------------------


# The admissible cells (j, alpha) of the table, in table order, each with
# where its alpha-sequence starts; CELLS_BY_ID keys them by id ("j0am1", ...).
_CELL_OFFSET = {(0, -1): 0, (1, -1): 1, (2, -1): 2, (1, 0): 0, (2, 0): 1, (2, 1): 0}
ADMISSIBLE_CELLS = tuple(_CELL_OFFSET)
CELLS_BY_ID = {f"j{j}a{str(a).replace('-', 'm')}": (j, a) for j, a in ADMISSIBLE_CELLS}
KAPPA_CELLS = {(0, -1), (1, -1), (2, -1), (2, 1)}


@dataclass(frozen=True)
class KappaFamily:
    """One admissible cell of the factorization table: type j, Laguerre alpha
    in {-1,0,1}, and (for the kappa cells) kappa in [0,1], exact or symbolic."""

    j: int
    alpha_lag: int
    kappa: Optional[Union[Fraction, int, Poly]] = None

    def __post_init__(self):
        if (self.j, self.alpha_lag) not in ADMISSIBLE_CELLS:
            raise InadmissibleCellError(
                f"(j={self.j}, alpha={self.alpha_lag}) is not an admissible cell")
        if (self.j, self.alpha_lag) in KAPPA_CELLS:
            if self.kappa is None:
                object.__setattr__(self, "kappa", Fraction(1))
            kappa = _p(self.kappa)
            if kappa.is_constant() and not 0 <= kappa.as_constant() <= 1:
                raise ValueError(f"kappa must lie in [0, 1] (got {self.kappa})")

    @property
    def cell_id(self) -> str:
        return next(i for i, cell in CELLS_BY_ID.items() if cell == (self.j, self.alpha_lag))


def _kappa(fam: KappaFamily) -> Poly:
    """The cell's kappa; the rook-type cells follow the kappa = 1 pattern."""
    return _p(fam.kappa) if (fam.j, fam.alpha_lag) in KAPPA_CELLS else Poly.one()


def _denominator(fam: KappaFamily) -> Callable[[int], Poly]:
    """D(n) = n - (n-1) kappa."""
    kappa = _kappa(fam)
    return lambda n: Poly.const(n) - kappa * (n - 1)


def _cell_coeffs(fam: KappaFamily, unit: Poly) -> SRCoeffs:
    """The cell's alpha-sequence times ``unit``, which each D(n) divides:
    from index offset + 2 on, the alphas cycle through x, c_n n = n D(n-1)/D(n)
    and (2 - c_n) n = n D(n+1)/D(n)."""
    x = Poly.var("x")
    d = _denominator(fam)
    offset = _CELL_OFFSET[(fam.j, fam.alpha_lag)]

    def alpha(i):
        base = i - offset
        if base < 2:
            return Poly.zero()
        n, r = divmod(base + 1, 3)
        if r == 0:   # base = 3n - 1
            return x * unit
        # base = 3n: n D(n-1)/D(n); base = 3n + 1: n D(n+1)/D(n)
        return d(n - 1 if r == 1 else n + 1) * n * unit.exact_div(d(n))

    return SRCoeffs(2, alpha)


def kappa_family_coeffs(fam: KappaFamily) -> SRCoeffs:
    """The alpha-sequence of the given factorization-table cell (m = 2).

    For the kappa cells, alpha entries are c_n n = n D(n-1)/D(n) and
    (2 - c_n) n = n D(n+1)/D(n) with D(n) = n-(n-1)kappa.  Only an exact
    kappa gives polynomial alphas; a symbolic kappa raises ValueError
    (``verify_factorization_cell`` checks those cells over the common
    denominator instead).
    """
    if not _kappa(fam).is_constant():
        raise ValueError("a symbolic kappa gives rational-function alphas; "
                         "kappa_family_coeffs needs an exact kappa")
    return _cell_coeffs(fam, Poly.one())


def verify_factorization_cell(fam: KappaFamily, n: int) -> bool | Mismatch:
    """Check that P^(2;j) with the cell's alpha-sequence equals the
    univariate Laguerre production matrix, symbolically in x (and kappa).

    With a symbolic kappa every entry of each of the three bidiagonal
    factors, the unit entries included, is multiplied by
    C = D(1) ... D(n+1), and their product is compared with C^3 times the
    target; C != 0, so this is the same identity, checked in Q[kappa, x].
    The n x n block reads each factor on rows 0..n at most (the word's
    upper bandwidth is 1), so only alpha_i with i < 3(n+1), whose
    denominators are among D(1) ... D(n+1)."""
    want = prodmat(LaguerreParams.of(fam.alpha_lag), "P").truncate(n)
    unit = Poly.one()
    if not _kappa(fam).is_constant():
        d = _denominator(fam)
        unit = reduce(mul, (d(k + 1) for k in range(n + 1)))
        want = want.scale(unit ** 3)
    got = sfraction_word(_cell_coeffs(fam, unit).alpha, 2, fam.j, unit).truncate(n)
    return first_difference(got, want, f"bidiagonal word of cell (j={fam.j}, "
                            f"alpha={fam.alpha_lag}, kappa={_kappa(fam)}) vs Laguerre P")


# -- negative control -----------------------------------------------------------


def find_hankel_tp2_failure(m: int):
    """Search the 4x4 Hankel matrix of the type j = m+1 modified sequence
    (its terms 0..6) for a minor of size <= 2 with a negative coefficient,
    by the symbolic TP scan (its entries are nonnegative, so the witness
    is a 2x2 minor).

    The type-(m+1) sequence is not Hankel-totally positive; this returns
    the scan's ``TPWitness`` (rows, cols, minor) of the first offending
    minor in scan order, or None if the search space is clean (it should
    never be).
    """
    tri = SRTriangles(SRCoeffs.symbolic(m))
    seq = [tri.value(m + 1, i, 0) for i in range(7)]
    return tp_check_symbolic(hankel_truncation(seq, 4), 2).witness
