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
(``classify``, ``_walk``).  The joint statistics are the nine vertex
kinds and the number of cycles; an edge count is a sum of kinds (a
descending edge ends at a valley or a double descent, an ascending one
starts at a valley or a double ascent, a loop is a fixed point).  The
oracles count each (n, k) once per process with ``_stat_table``, which
inserts the vertices in turn and updates the joint statistics in O(1) per
digraph; every weighting (``oracle_entry`` in each mode, both permutation
oracles) is a projection of that table, made once per (n, k, mode) and
checked there: the kinds of a digraph sum to n, and in 'first_mv' the
edges sum to n - k, the identity peaks = valleys + paths.  The linear
permutation oracle's words are the paths of the cycle-free one-path
digraphs, which the same insertion walks without its loops.  The
projected tables (``_projected``) hold each class as the (index,
exponent) pairs of its positive exponents, the format
``polyring._power_sum`` reads.
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


def _vertex_cap() -> int:
    """The largest n any digraph enumeration may reach, under any weights:
    LAGTP_LIMIT when set, else 8; the builders cross-check rows 0..cap."""
    env = os.environ.get("LAGTP_LIMIT")
    if not env:
        return 8
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


# The joint statistics tuple of one digraph, as returned by _walk: the
# vertex kinds, path kinds first, and the cycle count.
_STATS = ("ppa", "vpa", "dapa", "ddpa", "pcyc", "vcyc", "dacyc", "ddcyc", "fp", "cyc")


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
    edges has n - e paths.  Refused beyond the oracles' cap.
    """
    _check_oracle_limit(n)
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
    stats = [0] * len(_STATS)
    seen = [False] * (n + 1)
    for i in range(1, n + 1):
        p, s = pred[i], succ[i]
        cycle = 0 if on_path[i] else 4   # the offset of the cycle kinds
        if p == i:
            kind = 8
        elif p < i:
            kind = cycle + (0 if s < i else 2)
        else:
            kind = cycle + (1 if s > i else 3)
        if cycle and not seen[i]:
            stats[9] += 1
            w = i
            while not seen[w]:
                seen[w] = True
                w = succ[w]
        stats[kind] += 1
    return tuple(stats)


# A vertex's kind, by position in _STATS (path p, v, da, dd at 0..3, cycle
# p, v, da, dd, fp at 4..8), once its successor or its predecessor is
# replaced by a larger vertex; kind 9 is the boundary 0 of a path, which no
# insertion changes and no count holds.  A loop's successor is raised
# first, so a loop passes through a double ascent on its way to a valley.
_SUCC_UP = (2, 1, 2, 1, 6, 5, 6, 5, 6, 9)
_PRED_UP = (3, 1, 1, 3, 7, 5, 5, 7, None, 9)
_BOUNDARY = 9


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
def _stat_table(n: int, k: int, loops: bool = True) -> tuple:
    """((stats, count), ...) in sorted order: how many Laguerre digraphs on
    {1..n} with k paths, and with no cycle unless ``loops``, have each
    joint statistics tuple.  Callers check the cap before asking.

    Depth-first, inserting the vertices 1..n in turn.  Deleting the largest
    vertex m (and joining pred(m) -> succ(m) when m has both) leaves a
    digraph on {1..m-1}, so each digraph is built once, from that one, by
    placing m on a loop, alone, on an edge a -> b (a loop a -> a included),
    after the end of a path or before its start.  Only a loop makes a
    cycle, so without loops the walk builds the cycle-free digraphs alone:
    at k = 1 the permutations of {1..n}, each the path of its word.  Off a
    loop m is a peak, and only a and b change kind, so each placement
    updates the statistics in O(1): they are one integer (``_units``), each
    count n.bit_length() bits wide, so no count, at most n, carries into
    the next, and a placement adds one precomputed step per vertex that
    changes.  A branch with p paths is cut unless p <= k <= p + (vertices
    left), so every branch reaches a leaf, but for k = 0 without loops.
    Each distinct integer is unpacked once.
    """
    if not 0 <= k <= n:
        return ()
    width = n.bit_length() or 1
    unit = _units(width, len(_STATS))
    kind_unit = unit[:_BOUNDARY] + [0]
    # the packed step that moves a vertex of each kind to its kind once its
    # successor (predecessor) is raised; the boundary's step is 0
    succ_step = [kind_unit[u] - kind_unit[i] for i, u in enumerate(_SUCC_UP)]
    pred_step = [None if u is None else kind_unit[u] - kind_unit[i]
                 for i, u in enumerate(_PRED_UP)]
    loop = unit[8] + unit[9]   # one more fixed point and cycle
    succ = [0] * (n + 1)   # 0 is no vertex: no successor / predecessor
    pred = [0] * (n + 1)
    kind = [_BOUNDARY] * (n + 1)
    counts: dict = {}

    def place(m, a, b, paths, st):
        """Insert m as a -> m -> b and go on; a and b may be the boundary 0."""
        ka, kb = kind[a], kind[b]
        st += succ_step[ka]                   # a -> m ascends
        kind[a] = _SUCC_UP[ka]
        kind_b = kind[b]                      # after a's update: a loop a -> a has b = a
        st += pred_step[kind_b]               # m -> b descends
        kind[b] = _PRED_UP[kind_b]
        kind_m = 4 if 4 <= kind[a or b] < _BOUNDARY else 0   # a peak, on the component of a or b
        st += unit[kind_m]
        if m == n:                            # a leaf: counted here, without a call per leaf
            counts[st] = counts.get(st, 0) + 1
        else:
            kind[m] = kind_m
            succ[a], pred[b], pred[m], succ[m] = m, m, a, b
            grow(m + 1, paths, st)
            succ[a], pred[b] = b, a
        kind[a], kind[b] = ka, kb

    def grow(m, paths, st):
        if m > n:
            counts[st] = counts.get(st, 0) + 1
            return
        if paths < k:
            place(m, 0, 0, paths + 1, st)     # alone: a new path
        if k <= paths + n - m:
            if loops:
                pred[m] = succ[m] = m         # on a loop: a new cycle
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
    p, v, da, dd = (s[kind + "cyc"] + s[kind + "pa"] for kind in ("p", "v", "da", "dd"))
    # a descending edge ends at a valley or a double descent, an ascending
    # one starts at a valley or a double ascent, and a loop is a fixed point
    e_minus, e_zero, e_plus = v + dd, s["fp"], v + da
    e = e_minus + e_zero + e_plus
    return DigraphStats(pa=g.n - e, e=e, e_minus=e_minus, e_zero=e_zero, e_plus=e_plus,
                        p=p, v=v, da=da, dd=dd, **s)


# -- weighted oracle sums ----------------------------------------------------


def _fields(*exprs: str) -> tuple:
    """Each weight's exponent as the positions in _STATS that sum to it."""
    return tuple(tuple(_STATS.index(f) for f in expr.split("+")) for expr in exprs)


_ORACLE_MODES = {
    "first_mv": (("v_minus", "v_zero", "v_plus", "lam"),
                 _fields("vcyc+ddcyc+vpa+ddpa", "fp", "vcyc+dacyc+vpa+dapa", "cyc")),
    "second_mv": (("y_p", "y_v", "y_da", "y_dd", "y_fp", "lam"),
                  _fields("pcyc+ppa", "vcyc+vpa", "dacyc+dapa", "ddcyc+ddpa", "fp", "cyc")),
    "second_mv_general": (("y_p", "y_v", "y_da", "y_dd", "y_fp",
                           "z_p", "z_v", "z_da", "z_dd", "lam"),
                          _fields("pcyc", "vcyc", "dacyc", "ddcyc", "fp",
                                  "ppa", "vpa", "dapa", "ddpa", "cyc")),
    # the word statistics of the linear permutation oracle (permutation_oracles
    # only), read from the cycle-free one-path table
    "linear00": (("z_p", "z_v", "z_da", "z_dd", "lam"),
                 _fields("ppa", "vpa", "dapa", "ddpa", "cyc")),
}


def _check_oracle_limit(n: int) -> None:
    """Refuse n < 0 and n beyond the cap."""
    if n < 0:
        raise ValueError(f"oracles need n >= 0 (got {n})")
    cap = _vertex_cap()
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
    if mode not in _ORACLE_MODES or mode == "linear00":
        raise ValueError(f"unknown oracle mode {mode!r}")
    return _digraph_sum(n, k, mode, weights)


def _digraph_sum(n: int, k: int, mode: str, weights: Mapping[str, Poly]) -> Poly:
    """Project the (n, k) statistics table onto the exponents of `mode` and
    weight it.  The permutation oracles call this rather than oracle_entry,
    so a wrapper around oracle_entry (a tracer, say) sees each public call
    once."""
    _check_oracle_limit(n)
    return _power_sum(_projected(n, k, mode), [weights[key] for key in _ORACLE_MODES[mode][0]])


@functools.lru_cache(maxsize=None)
def _projected(n: int, k: int, mode: str) -> tuple:
    """((pairs, count), ...): the (n, k) statistics table, cycle-free in
    'linear00', projected onto the exponents of `mode`'s weights, once per
    (n, k, mode), each class as the (index, exponent) pairs of its positive
    exponents (``_power_sum``'s format).  In every class the exponents
    other than the cycle count (the last) must sum to n, the vertex kinds,
    in the vertex modes, and to n - k, the edges, in 'first_mv', whose
    exponents are sums of vertex kinds (v + dd, fp, v + da): there the
    check is the identity peaks = valleys + paths.  Else RouteMismatchError
    with the distinct sums, under any weights."""
    counter: Counter = Counter()
    for stats, count in _stat_table(n, k, mode != "linear00"):
        counter[tuple(sum(stats[i] for i in f) for f in _ORACLE_MODES[mode][1])] += count
    want = n - k if mode == "first_mv" else n
    sums = {sum(exps) - exps[-1] for exps in counter}
    if not sums <= {want}:
        what = "edges" if mode == "first_mv" else "vertex kinds"
        raise RouteMismatchError(Mismatch(f"{what} per digraph in the {mode} count table",
                                          (n, k), sorted(sums), [want]))
    return tuple([(_sparse(exps), count) for exps, count in counter.items()])


def permutation_oracles(n: int, kind: str, weights: Mapping[str, Poly] | None = None) -> Poly:
    """Weight the permutations of {1..n} by the cycle or the linear (word,
    0-0 boundary) classification of their indices.

    kind 'cyclic' uses weights {y_p, y_v, y_da, y_dd, y_fp, lam} where the
    classification of index i compares it against sigma^{-1}(i) and
    sigma(i); a permutation is a Laguerre digraph without paths, so this is
    the 'second_mv' oracle entry at k = 0.  kind 'linear00' uses
    {z_p, z_v, z_da, z_dd} on the word form with sigma_0 = sigma_{n+1} = 0;
    the word sigma_1 ... sigma_n is the path sigma_1 -> ... -> sigma_n of a
    Laguerre digraph with one path and no cycle, so this weighs the
    cycle-free one-path table by its path kinds, and 1 at n = 0 (the empty
    word, which no digraph on no vertices has as a path).
    ValueError for an unknown kind or n < 0.
    """
    if kind not in ("cyclic", "linear00"):
        raise ValueError(f"unknown permutation oracle kind {kind!r}")
    mode = "second_mv" if kind == "cyclic" else "linear00"
    if weights is None:
        weights = {k: Poly.var(DEFAULT_VAR_NAMES[k]) for k in _ORACLE_MODES[mode][0]}
    if kind == "cyclic":
        return _digraph_sum(n, 0, mode, weights)
    words = _digraph_sum(n, 1, mode, {**weights, "lam": 1})
    return words if n else Poly.one()
