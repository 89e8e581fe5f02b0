"""Brute-force Laguerre-digraph oracle and permutation-statistics oracles.

A Laguerre digraph on the vertex set {1..n} is a digraph in which every
vertex has out-degree <= 1 and in-degree <= 1; equivalently, a partial
injection given by its successor map.  Its components are directed paths
(isolated vertex = path of length 0) and directed cycles (loop = cycle of
length 1).

Vertex classification uses 0-0 boundary conditions: a missing predecessor
or successor counts as the virtual vertex 0, so an isolated vertex is a
peak, a path start is a peak or double ascent, and a path end is a peak or
double descent.

Two enumerations build every digraph.  The reference lists the partial
injections (``enumerate_digraphs``) and classifies each from scratch
(``classify``, ``_walk``).  The oracles count each (n, k) once per process
with ``_stat_table``, which inserts the vertices in turn and updates the
joint statistics in O(1) per digraph; every weighting (``oracle_entry`` in
each mode, the cyclic permutation oracle) is a projection of that table,
made once per (n, k, mode) and checked there: a digraph with k paths has
n - k edges, and n vertex kinds.  The linear permutation oracle counts S_n
once per n by its word statistics (``_linear00_table``), building each
word by inserting its letters in turn and updating the kind counts in
O(1) per word.  The cached tables that are weighed (``_projected``,
``_linear00_table``) hold each class as the (index, exponent) pairs of its
positive exponents, the format ``polyring._power_sum`` reads.
"""

from __future__ import annotations

import functools
import itertools
import os
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping

from .matrices import Mismatch, RouteMismatchError
from .polyring import Poly, _power_sum, _sparse

DEFAULT_VAR_NAMES = {
    "y_p": "yp", "y_v": "yv", "y_da": "yda", "y_dd": "ydd", "y_fp": "yfp",
    "z_p": "zp", "z_v": "zv", "z_da": "zda", "z_dd": "zdd",
    "v_minus": "vm", "v_zero": "v0", "v_plus": "vp", "lam": "lam",
}


class LimitExceeded(ValueError):
    """Raised when a brute-force enumeration is asked to go beyond its cap."""


class BadLimitSetting(ValueError):
    """Raised when LAGTP_LIMIT is set to something other than an integer >= 0."""


def _vertex_cap(symbolic: bool) -> int:
    """The largest n a digraph enumeration may reach: LAGTP_LIMIT when set,
    else 7 for symbolic weights and 9 for numeric ones."""
    env = os.environ.get("LAGTP_LIMIT")
    if not env:
        return 7 if symbolic else 9
    if not env.strip().isdecimal():
        raise BadLimitSetting(f"LAGTP_LIMIT must be an integer >= 0 (got {env!r})")
    return int(env)


@dataclass(frozen=True)
class LaguerreDigraph:
    """Partial-injection successor map on {1..n}."""

    n: int
    succ: Mapping[int, int]

    def __post_init__(self):
        succ = dict(self.succ)
        if len(set(succ.values())) != len(succ):
            raise ValueError("successor map must be injective")
        for i, j in succ.items():
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError("vertices out of range")
        object.__setattr__(self, "succ", succ)


@dataclass(frozen=True)
class DigraphStats:
    pa: int
    cyc: int
    e: int
    e_minus: int
    e_zero: int
    e_plus: int
    p: int
    v: int
    da: int
    dd: int
    fp: int
    pcyc: int
    vcyc: int
    dacyc: int
    ddcyc: int
    ppa: int
    vpa: int
    dapa: int
    ddpa: int


# The joint statistics tuple of one digraph, as returned by _walk.
_STATS = ("e_minus", "e_zero", "e_plus", "cyc", "pcyc", "vcyc", "dacyc", "ddcyc", "fp",
          "ppa", "vpa", "dapa", "ddpa")


def _injections(n: int, e: int) -> Iterator[tuple]:
    """(domain, images) of every partial injection on {1..n} with e edges,
    by domain subset, image subset and bijection, in lexicographic order."""
    verts = range(1, n + 1)
    for domain in itertools.combinations(verts, e):
        for image in itertools.combinations(verts, e):
            for perm in itertools.permutations(image):
                yield domain, perm


def enumerate_digraphs(n: int) -> Iterator[LaguerreDigraph]:
    """All Laguerre digraphs on {1..n}, by edge count.

    Every partial injection is a valid Laguerre digraph; a digraph with e
    edges has n - e paths.  Refused like the numeric oracles.
    """
    _check_oracle_limit(n, ())
    for e in range(n + 1):
        for domain, perm in _injections(n, e):
            yield LaguerreDigraph(n, dict(zip(domain, perm)))


def _walk(n: int, edges) -> tuple:
    """Joint statistics (in _STATS order) of the digraph on {1..n} with the
    edges (i, j) of a partial injection."""
    succ = [0] * (n + 1)   # 0: no successor / predecessor
    pred = [0] * (n + 1)
    for i, j in edges:
        succ[i] = j
        pred[j] = i
    on_path = [False] * (n + 1)
    for v in range(1, n + 1):
        if not pred[v]:
            while v:
                on_path[v] = True
                v = succ[v]
    e_minus = e_zero = e_plus = cyc = 0
    # kinds p, v, da, dd, fp on cycles at 0..4, kinds p, v, da, dd on paths at 5..8
    kinds = [0] * 9
    seen = [False] * (n + 1)
    for i in range(1, n + 1):
        p, s = pred[i], succ[i]
        if s:
            if s < i:
                e_minus += 1
            elif s == i:
                e_zero += 1
            else:
                e_plus += 1
        if p == i:
            kind = 4
        elif p < i:
            kind = 0 if s < i else 2
        else:
            kind = 1 if s > i else 3
        if on_path[i]:
            kind += 5
        elif not seen[i]:
            cyc += 1
            w = i
            while not seen[w]:
                seen[w] = True
                w = succ[w]
        kinds[kind] += 1
    return (e_minus, e_zero, e_plus, cyc, *kinds)


# A vertex's kind, by position in _STATS (cycle p, v, da, dd, fp at 4..8,
# path p, v, da, dd at 9..12), once its successor or its predecessor is
# replaced by a larger vertex.  A loop's successor is raised first, so a
# loop passes through a double ascent on its way to a valley.
_SUCC_UP = (None,) * 4 + (6, 5, 6, 5, 6, 11, 10, 11, 10)
_PRED_UP = (None,) * 4 + (7, 5, 5, 7, None, 12, 10, 10, 12)


def _units(width: int, size: int) -> list:
    """The packed integer of a count of one at each of ``size`` fields:
    counts c_i below 2^width pack into the one integer sum(c_i * units[i]),
    ``width`` bits a count and the first in the lowest bits, so adding or
    subtracting units[i] moves count i alone while it stays in range."""
    return [1 << i * width for i in range(size)]


def _unpacked(key: int, width: int, size: int) -> tuple:
    """The ``size`` counts packed in the integer ``key`` (``_units``)."""
    mask = (1 << width) - 1
    return tuple([key >> i * width & mask for i in range(size)])


@functools.lru_cache(maxsize=None)
def _stat_table(n: int, k: int) -> tuple:
    """((stats, count), ...) in sorted order: how many Laguerre digraphs on
    {1..n} with k paths have each joint statistics tuple.  Callers check
    the enumeration caps before asking.

    Depth-first, inserting the vertices 1..n in turn.  Deleting the largest
    vertex m (and joining pred(m) -> succ(m) when m has both) leaves a
    digraph on {1..m-1}, so each digraph is built once, from that one, by
    placing m on a loop, alone, on an edge a -> b (a loop a -> a included),
    after the end of a path or before its start.  Off a loop m is a peak,
    and only a and b change kind, so each placement updates the statistics
    in O(1): they are one integer (``_units``), each count n.bit_length()
    bits wide, so no count, at most n, carries into the next, and a
    placement adds one precomputed step per vertex that changes.  A branch
    with p paths is cut unless p <= k <= p + (vertices left), so every
    branch reaches a leaf.  Each distinct integer is unpacked once.
    """
    if not 0 <= k <= n:
        return ()
    width = n.bit_length() or 1
    unit = _units(width, len(_STATS))
    # the step of a vertex of each kind whose successor (predecessor) is raised:
    # its kind changes and one more edge ascends into m (descends from m)
    succ_step = [None if u is None else unit[2] - unit[i] + unit[u] for i, u in enumerate(_SUCC_UP)]
    pred_step = [None if u is None else unit[0] - unit[i] + unit[u] for i, u in enumerate(_PRED_UP)]
    loop = unit[1] + unit[3] + unit[8]   # one more e_zero edge, cycle and fixed point
    succ = [0] * (n + 1)   # 0 is no vertex: no successor / predecessor
    pred = [0] * (n + 1)
    kind = [9] * (n + 1)   # kind[0] = 9: a vertex placed alone is a path peak
    counts: dict = {}

    def place(m, a, b, paths, st):
        """Insert m as a -> m -> b and go on; a and b may be 0."""
        ka, kb = kind[a], kind[b]
        if a:                                 # a -> m ascends
            if b:                             # the edge a -> b is split
                st -= unit[(b >= a) + (b > a)]
            st += succ_step[ka]
            kind[a] = _SUCC_UP[ka]
        if b:                                 # m -> b descends
            kind_b = kind[b]                  # after a's update: a loop a -> a has b = a
            st += pred_step[kind_b]
            kind[b] = _PRED_UP[kind_b]
        kind[m] = 9 if kind[a or b] >= 9 else 4   # a peak, on the component of a or b
        succ[a], pred[b], pred[m], succ[m] = m, m, a, b
        grow(m + 1, paths, st + unit[kind[m]])
        succ[a], pred[b], kind[a], kind[b] = b, a, ka, kb

    def grow(m, paths, st):
        if m > n:
            counts[st] = counts.get(st, 0) + 1
            return
        if paths < k:
            place(m, 0, 0, paths + 1, st)     # alone: a new path
        if k <= paths + n - m:
            pred[m] = succ[m] = m             # on a loop: a new cycle
            kind[m] = 8
            grow(m + 1, paths, st + loop)
            for v in range(1, m):
                place(m, v, succ[v], paths, st)   # on the edge v -> succ(v), or after the end v
                if not pred[v]:
                    place(m, 0, v, paths, st)     # before the start v

    grow(1, 0, 0)
    return tuple(sorted([(_unpacked(st, width, len(_STATS)), count)
                         for st, count in counts.items()]))


def classify(g: LaguerreDigraph) -> DigraphStats:
    s = dict(zip(_STATS, _walk(g.n, g.succ.items())))
    e = s["e_minus"] + s["e_zero"] + s["e_plus"]
    return DigraphStats(
        pa=g.n - e, e=e,
        p=s["pcyc"] + s["ppa"], v=s["vcyc"] + s["vpa"],
        da=s["dacyc"] + s["dapa"], dd=s["ddcyc"] + s["ddpa"], **s)


# -- weighted oracle sums ----------------------------------------------------


def _fields(*exprs: str) -> tuple:
    """Each weight's exponent as the positions in _STATS that sum to it."""
    return tuple(tuple(_STATS.index(f) for f in expr.split("+")) for expr in exprs)


_ORACLE_MODES = {
    "first_mv": (("v_minus", "v_zero", "v_plus", "lam"),
                 _fields("e_minus", "e_zero", "e_plus", "cyc")),
    "second_mv": (("y_p", "y_v", "y_da", "y_dd", "y_fp", "lam"),
                  _fields("pcyc+ppa", "vcyc+vpa", "dacyc+dapa", "ddcyc+ddpa", "fp", "cyc")),
    "second_mv_general": (("y_p", "y_v", "y_da", "y_dd", "y_fp",
                           "z_p", "z_v", "z_da", "z_dd", "lam"),
                          _fields("pcyc", "vcyc", "dacyc", "ddcyc", "fp",
                                  "ppa", "vpa", "dapa", "ddpa", "cyc")),
}


def _check_oracle_limit(n: int, weights) -> None:
    """Refuse n < 0 and n beyond the cap for these weights."""
    if n < 0:
        raise ValueError(f"oracles need n >= 0 (got {n})")
    cap = _vertex_cap(any(isinstance(w, Poly) and w.vars for w in weights))
    if n > cap:
        raise LimitExceeded(f"digraph oracle capped at n <= {cap} (got {n})")


def oracle_entry(n: int, k: int, weights: Mapping[str, Poly], mode: str) -> Poly:
    """Weighted sum over the Laguerre digraphs on {1..n} with k paths.

    mode 'first_mv' expects weights {v_minus, v_zero, v_plus, lam};
    mode 'second_mv' expects {y_p, y_v, y_da, y_dd, y_fp, lam};
    mode 'second_mv_general' adds the path-side {z_p, z_v, z_da, z_dd}.
    Here lam plays the role of the cycle weight (lam = 1 + alpha).
    ValueError for an unknown mode or n < 0; k outside 0..n gives zero.
    """
    if mode not in _ORACLE_MODES:
        raise ValueError(f"unknown oracle mode {mode!r}")
    return _digraph_sum(n, k, mode, weights)


def _digraph_sum(n: int, k: int, mode: str, weights: Mapping[str, Poly]) -> Poly:
    """Project the (n, k) statistics table onto the exponents of `mode` and
    weight it.  The cyclic permutation oracle calls this rather than
    oracle_entry, so a wrapper around oracle_entry (a tracer, say) sees
    each public call once."""
    values = [weights[key] for key in _ORACLE_MODES[mode][0]]
    _check_oracle_limit(n, values)
    return _power_sum(_projected(n, k, mode), values)


@functools.lru_cache(maxsize=None)
def _projected(n: int, k: int, mode: str) -> tuple:
    """((pairs, count), ...): the (n, k) statistics table projected onto
    the exponents of `mode`'s weights, once per (n, k, mode), each class as
    the (index, exponent) pairs of its positive exponents (``_power_sum``'s
    format).  In every class the exponents other than the cycle count (the
    last) must sum to n - k, the edges, in 'first_mv' and to n, the vertex
    kinds, in the other modes; else RouteMismatchError with the distinct
    sums, under any weights."""
    counter: Counter = Counter()
    for stats, count in _stat_table(n, k):
        counter[tuple(sum(stats[i] for i in f) for f in _ORACLE_MODES[mode][1])] += count
    want = n - k if mode == "first_mv" else n
    sums = {sum(exps) - exps[-1] for exps in counter}
    if not sums <= {want}:
        what = "edges" if mode == "first_mv" else "vertex kinds"
        raise RouteMismatchError(Mismatch(f"{what} per digraph in the {mode} count table",
                                          (n, k), sorted(sums), [want]))
    return tuple([(_sparse(exps), count) for exps, count in counter.items()])


def permutation_oracles(n: int, kind: str, weights: Mapping[str, Poly] | None = None) -> Poly:
    """Enumerate S_n and weight indices by the cycle or the linear (word,
    0-0 boundary) classification.

    kind 'cyclic' uses weights {y_p, y_v, y_da, y_dd, y_fp, lam} where the
    classification of index i compares it against sigma^{-1}(i) and
    sigma(i); a permutation is a Laguerre digraph without paths, so this is
    the 'second_mv' oracle entry at k = 0.  kind 'linear00' uses
    {z_p, z_v, z_da, z_dd} on the word form with sigma_0 = sigma_{n+1} = 0.
    ValueError for an unknown kind or n < 0.
    """
    if kind == "cyclic":
        keys = _ORACLE_MODES["second_mv"][0]
    elif kind == "linear00":
        keys = ("z_p", "z_v", "z_da", "z_dd")
    else:
        raise ValueError(f"unknown permutation oracle kind {kind!r}")
    if weights is None:
        weights = {k: Poly.var(DEFAULT_VAR_NAMES[k]) for k in keys}
    if kind == "cyclic":
        return _digraph_sum(n, 0, "second_mv", weights)
    values = [weights[k] for k in keys]
    _check_oracle_limit(n, values)
    return _power_sum(_linear00_table(n), values)


# A letter's kind in the word 0 sigma 0 (peak, valley, double ascent, double
# descent at 0..3; the boundary 0 at 4) once a larger letter is inserted
# right after it, or right before it.
_AFTER_UP = (2, 1, 2, 1, 4)
_BEFORE_UP = (3, 1, 1, 3, 4)


@functools.lru_cache(maxsize=None)
def _linear00_table(n: int) -> tuple:
    """((pairs, count), ...): how many permutations of {1..n} have each
    number of peaks, valleys, double ascents and double descents in the
    word form with sigma_0 = sigma_{n+1} = 0, each class as the (index,
    count) pairs of its positive counts (``_power_sum``'s format), in the
    sorted order of the (p, v, da, dd) tuples.  Callers check the
    enumeration caps before asking.

    Depth-first, inserting the letters 1..n in turn.  Deleting the largest
    letter of a word leaves a word of the smaller ones, so each permutation
    is built once, from that word, by inserting m into one of its m slots
    between neighbours a and b (either may be the boundary 0).  m is a
    peak, and only a and b change kind (a's right neighbour and b's left
    one grow), so each insertion updates the counts, one ``_units``
    integer, in O(1).
    """
    width = n.bit_length() or 1
    unit = _units(width, 4) + [0]   # the boundary is not counted
    after = [unit[u] - unit[i] for i, u in enumerate(_AFTER_UP)]
    before = [unit[u] - unit[i] for i, u in enumerate(_BEFORE_UP)]
    nxt = [0] * (n + 1)    # the letter after each letter (0 after the last); nxt[0] the first
    kind = [4] * (n + 1)   # kind[0] = 4: the boundary
    counts: dict = {}

    def grow(m, st):
        if m > n:
            counts[st] = counts.get(st, 0) + 1
            return
        st += unit[0]                         # m is a peak
        kind[m] = 0
        a = 0
        while True:                           # the slot after a, before b
            b = nxt[a]
            ka, kb = kind[a], kind[b]
            nxt[a], nxt[m] = m, b
            kind[a], kind[b] = _AFTER_UP[ka], _BEFORE_UP[kb]
            grow(m + 1, st + after[ka] + before[kb])
            nxt[a], kind[a], kind[b] = b, ka, kb
            a = b
            if not a:
                break

    grow(1, 0)
    return tuple([(_sparse(stats), count) for stats, count in
                  sorted([(_unpacked(st, width, 4), count) for st, count in counts.items()])])
