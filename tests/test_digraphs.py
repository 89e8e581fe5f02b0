import dataclasses
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from lagtp import polyring
from lagtp.digraphs import (DEFAULT_VAR_NAMES, BadLimitSetting, LaguerreDigraph,
                            LimitExceeded, _STATS, _injections, _projected,
                            _stat_table, _unpacked, _units, _walk, classify,
                            enumerate_digraphs, oracle_entry, permutation_oracles)
from lagtp.matrices import Mismatch, RouteMismatchError
from lagtp.polyring import Poly
from lagtp.srpaths import SRCoeffs, sr_path_oracle

lam = Poly.var("lam")


def test_counts_match_reversed_rook_row_sums():
    # |LD_n| = reversed monic Laguerre at alpha=0, x=1: 1, 2, 7, 34, 209
    counts = [sum(1 for _ in enumerate_digraphs(n)) for n in range(5)]
    assert counts == [1, 2, 7, 34, 209]


def test_counts_by_path_number():
    # k paths means 3-k edges; C(3,e)^2 e! digraphs have e edges, matching
    # the coefficients 1, 9, 18, 6 of the reversed rook polynomial row n=3.
    by_k = [sum(1 for g in enumerate_digraphs(3) if len(g.succ) == 3 - k) for k in range(4)]
    assert by_k == [6, 18, 9, 1]


def test_enumeration_is_deterministic_and_injective():
    seen = [tuple(sorted(g.succ.items())) for g in enumerate_digraphs(3)]
    assert len(seen) == len(set(seen)) == 34
    assert seen == [tuple(sorted(g.succ.items())) for g in enumerate_digraphs(3)]


def test_injectivity_enforced():
    with pytest.raises(ValueError):
        LaguerreDigraph(3, {1: 2, 3: 2})


def test_classify_loop():
    st = classify(LaguerreDigraph(1, {1: 1}))
    assert (st.fp, st.cyc, st.pa, st.e_zero) == (1, 1, 0, 1)


def test_classify_isolated_vertex_is_peak():
    st = classify(LaguerreDigraph(1, {}))
    assert (st.p, st.pa, st.cyc, st.e) == (1, 1, 0, 0)
    assert st.ppa == 1


def test_classify_single_edge():
    st = classify(LaguerreDigraph(2, {1: 2}))
    assert (st.da, st.p, st.e_plus) == (1, 1, 1)
    assert (st.dapa, st.ppa, st.pa) == (1, 1, 1)


def test_classify_mixed_digraph():
    # cycle (1 3) plus path 2 -> 4
    g = LaguerreDigraph(4, {1: 3, 3: 1, 2: 4})
    st = classify(g)
    assert (st.cyc, st.pa, st.e) == (1, 1, 3)
    assert (st.e_plus, st.e_minus) == (2, 1)
    assert (st.vcyc, st.pcyc) == (1, 1)   # 1 is a cycle valley, 3 a cycle peak
    assert (st.dapa, st.ppa) == (1, 1)    # 2 ascends into the peak 4


@pytest.mark.parametrize("n", range(6))
def test_stat_invariants(n):
    for g in enumerate_digraphs(n):
        st = classify(g)
        assert st.e == n - st.pa
        assert st.p + st.v + st.da + st.dd + st.fp == n
        assert st.e_minus + st.e_zero + st.e_plus == st.e
        assert st.p == st.pcyc + st.ppa and st.v == st.vcyc + st.vpa
        assert st.da == st.dacyc + st.dapa and st.dd == st.ddcyc + st.ddpa


@pytest.mark.parametrize("n", range(7))
def test_edge_counts_are_the_vertex_kind_sums_classify_reports(n):
    # classify reads the edges off the vertex kinds; here they are counted
    # from the successor map: -1 descending, 0 a loop, 1 ascending
    for g in enumerate_digraphs(n):
        st = classify(g)
        edges = Counter((j > i) - (j < i) for i, j in g.succ.items())
        assert (edges[-1], edges[0], edges[1]) == (st.e_minus, st.e_zero, st.e_plus), g.succ
        # each path has one more peak than valleys, each cycle as many
        assert st.ppa - st.vpa == n - len(g.succ) and st.pcyc == st.vcyc, g.succ


def _predecessors(g):
    return {j: i for i, j in g.succ.items()}


def _components(g):
    pred = _predecessors(g)
    starts = [v for v in range(1, g.n + 1) if v not in pred]
    comps = []
    seen = set()
    for s in starts:
        comp = []
        v = s
        while True:
            comp.append(v)
            seen.add(v)
            if v not in g.succ:
                break
            v = g.succ[v]
        comps.append(("path", comp))
    for v in range(1, g.n + 1):
        if v in seen:
            continue
        comp = []
        w = v
        while w not in seen:
            comp.append(w)
            seen.add(w)
            w = g.succ[w]
        comps.append(("cycle", comp))
    return comps


@pytest.mark.parametrize("n", range(1, 6))
def test_every_path_contains_a_peak(n):
    for g in enumerate_digraphs(n):
        pred = _predecessors(g)
        for kind, comp in _components(g):
            if kind != "path":
                continue
            peaks = [v for v in comp
                     if pred.get(v, 0) < v > g.succ.get(v, 0)]
            assert peaks, (g.succ, comp)


def test_components_partition():
    for g in enumerate_digraphs(4):
        comps = _components(g)
        st = classify(g)
        assert sum(1 for kind, _ in comps if kind == "path") == st.pa
        assert sum(1 for kind, _ in comps if kind == "cycle") == st.cyc
        assert sorted(v for _, comp in comps for v in comp) == list(range(1, 5))


def test_first_mv_oracle_entry():
    weights = {"v_minus": 1, "v_zero": 1, "v_plus": 1, "lam": 1 + Poly.var("a")}
    got = oracle_entry(2, 0, weights, "first_mv")
    a = Poly.var("a")
    assert got == (1 + a) * (2 + a)


def test_second_mv_oracle_single_vertex():
    weights = {k: Poly.var(v) for k, v in DEFAULT_VAR_NAMES.items()}
    assert oracle_entry(1, 1, weights, "second_mv") == Poly.var("yp")
    assert oracle_entry(1, 0, weights, "second_mv") == Poly.var("lam") * Poly.var("yfp")


def test_second_mv_oracle_all_isolated():
    weights = {k: Poly.var(v) for k, v in DEFAULT_VAR_NAMES.items()}
    for n in range(1, 5):
        assert oracle_entry(n, n, weights, "second_mv") == Poly.var("yp") ** n
        assert oracle_entry(n, n, weights, "second_mv_general") == Poly.var("zp") ** n


def test_permutation_oracle_cyclic_small():
    assert permutation_oracles(1, "cyclic") == lam * Poly.var("yfp")
    got = permutation_oracles(2, "cyclic")
    assert got == lam ** 2 * Poly.var("yfp") ** 2 + lam * Poly.var("yp") * Poly.var("yv")


def test_permutation_oracle_linear_small():
    zp = Poly.var("zp")
    got = permutation_oracles(2, "linear00")
    assert got == zp * Poly.var("zda") + zp * Poly.var("zdd")


def test_permutation_oracle_counts():
    # setting all weights to 1 counts the permutations
    ones = {k: Poly.one() for k in ("z_p", "z_v", "z_da", "z_dd")}
    for n in range(1, 6):
        assert permutation_oracles(n, "linear00", ones) == Poly.const(math.factorial(n))


def _reference_linear00(n, weights):
    """Walk S_n, classify each letter of 0 sigma_1 ... sigma_n 0 against its
    neighbours and weight every permutation on its own."""
    total = Poly.zero()
    for sigma in itertools.permutations(range(1, n + 1)):
        word = (0,) + sigma + (0,)
        term = Poly.one()
        for i in range(1, n + 1):
            before, v, after = word[i - 1], word[i], word[i + 1]
            if before < v > after:
                key = "z_p"
            elif before > v < after:
                key = "z_v"
            elif before < v < after:
                key = "z_da"
            else:
                key = "z_dd"
            term = term * weights[key]
        total = total + term
    return total


LINEAR00_WEIGHTS = [
    {k: Poly.var(DEFAULT_VAR_NAMES[k]) for k in ("z_p", "z_v", "z_da", "z_dd")},
    {"z_p": Poly.const(2), "z_v": Poly.const(3), "z_da": Poly.const(5), "z_dd": Poly.const(7)},
    {"z_p": Poly.var("x") + 1, "z_v": Poly.zero(), "z_da": 2, "z_dd": Poly.var("x")},
]


@pytest.mark.parametrize("n", range(8))
def test_linear_permutation_oracle_matches_reference_walk(n):
    for weights in LINEAR00_WEIGHTS:
        assert permutation_oracles(n, "linear00", weights) == _reference_linear00(n, weights)


def test_linear_permutation_oracle_walks_s_n_once(monkeypatch):
    first = permutation_oracles(6, "linear00")
    misses = _stat_table.cache_info().misses
    projections = _projected.cache_info().misses
    for weights in LINEAR00_WEIGHTS:
        permutation_oracles(6, "linear00", weights)
    assert permutation_oracles(6, "linear00") == first
    assert _stat_table.cache_info().misses == misses
    assert _projected.cache_info().misses == projections
    # a memoised n is still refused once the cap drops below it
    monkeypatch.setenv("LAGTP_LIMIT", "5")
    with pytest.raises(LimitExceeded):
        permutation_oracles(6, "linear00")
    monkeypatch.setenv("LAGTP_LIMIT", "abc")
    with pytest.raises(BadLimitSetting):
        permutation_oracles(6, "linear00")


def test_oracle_matches_matrix_definition():
    # definitional round trip between the per-entry oracle and the
    # oracle-built first multivariate matrix, plus a spot check on the
    # n = 8 row (cheap values of k only)
    from lagtp.laguerre import EdgeWeights, LaguerreParams, coeff_matrix_first_mv
    params = LaguerreParams.symbolic()
    w = EdgeWeights.symbolic()
    weights = {"v_minus": w.v_minus, "v_zero": w.v_zero, "v_plus": w.v_plus,
               "lam": params.lam}
    m = coeff_matrix_first_mv(params, w, 6)
    for n in range(6):
        for k in range(n + 1):
            assert oracle_entry(n, k, weights, "first_mv") == m[n, k]
    # n = 8 is the oracle's one cap, under numeric weights as under symbolic ones
    ints = {"v_minus": 2, "v_zero": 3, "v_plus": 1, "lam": 5}
    assert oracle_entry(8, 8, ints, "first_mv") == Poly.one()
    # 8 vertices, one edge: 28 decreasing, 28 increasing, 8 weighted loops
    assert oracle_entry(8, 7, ints, "first_mv") == Poly.const(28 * 2 + 28 * 1 + 8 * 5 * 3)


def test_limit_exceeded():
    with pytest.raises(LimitExceeded):
        list(enumerate_digraphs(10))
    # one cap, whatever the weights: symbolic and numeric oracles both answer
    # at n = 8 and both refuse n = 9
    sym = {"v_minus": Poly.var("vm"), "v_zero": 1, "v_plus": 1, "lam": 1}
    ints = {"v_minus": 2, "v_zero": 1, "v_plus": 1, "lam": 1}
    assert oracle_entry(8, 7, sym, "first_mv") == Poly.var("vm") * 28 + 28 + 8
    assert oracle_entry(8, 7, ints, "first_mv") == Poly.const(28 * 2 + 28 + 8)
    for weights in (sym, ints):
        with pytest.raises(LimitExceeded):
            oracle_entry(9, 8, weights, "first_mv")


def test_limit_override(monkeypatch):
    monkeypatch.setenv("LAGTP_LIMIT", "2")
    with pytest.raises(LimitExceeded):
        list(enumerate_digraphs(3))
    monkeypatch.delenv("LAGTP_LIMIT")
    assert sum(1 for _ in enumerate_digraphs(3)) == 34


def test_limit_setting_must_be_a_nonnegative_integer(monkeypatch):
    for bad in ("abc", "-1", "2.5"):
        monkeypatch.setenv("LAGTP_LIMIT", bad)
        with pytest.raises(BadLimitSetting):
            list(enumerate_digraphs(2))
        with pytest.raises(BadLimitSetting):
            permutation_oracles(2, "linear00")
    monkeypatch.setenv("LAGTP_LIMIT", "0")
    assert list(enumerate_digraphs(0)) == [LaguerreDigraph(0, {})]
    with pytest.raises(LimitExceeded):
        list(enumerate_digraphs(1))


# -- reference classifier, straight from the definitions ----------------------


def _reference_stats(g):
    """Walk each component in order and classify every vertex against its
    neighbours on it, 0 standing in for a missing neighbour (0-0 boundary)."""
    st = {f.name: 0 for f in dataclasses.fields(classify(LaguerreDigraph(0, {})))}
    for kind, comp in _components(g):
        on_cycle = kind == "cycle"
        st["cyc" if on_cycle else "pa"] += 1
        size = len(comp)
        for idx, v in enumerate(comp):
            if on_cycle:
                before, after = comp[idx - 1], comp[(idx + 1) % size]
            else:
                before = comp[idx - 1] if idx else 0
                after = comp[idx + 1] if idx + 1 < size else 0
            if after:
                st["e"] += 1
                st["e_minus" if after < v else "e_zero" if after == v else "e_plus"] += 1
            if before == v == after:
                st["fp"] += 1
                continue
            if before < v > after:
                vk = "p"
            elif before > v < after:
                vk = "v"
            elif before < v < after:
                vk = "da"
            else:
                vk = "dd"
            st[vk] += 1
            st[vk + ("cyc" if on_cycle else "pa")] += 1
    return st


@pytest.mark.parametrize("n", range(6))
def test_classify_matches_reference(n):
    for g in enumerate_digraphs(n):
        assert dataclasses.asdict(classify(g)) == _reference_stats(g), g.succ


SYMBOLIC = {k: Poly.var(v) for k, v in DEFAULT_VAR_NAMES.items()}

# each mode's weights and the reference statistic each one is raised to
REFERENCE_EXPONENTS = {
    "first_mv": (("v_minus", "e_minus"), ("v_zero", "e_zero"), ("v_plus", "e_plus"),
                 ("lam", "cyc")),
    "second_mv": (("y_p", "p"), ("y_v", "v"), ("y_da", "da"), ("y_dd", "dd"),
                  ("y_fp", "fp"), ("lam", "cyc")),
    "second_mv_general": (("y_p", "pcyc"), ("y_v", "vcyc"), ("y_da", "dacyc"),
                          ("y_dd", "ddcyc"), ("y_fp", "fp"), ("z_p", "ppa"),
                          ("z_v", "vpa"), ("z_da", "dapa"), ("z_dd", "ddpa"),
                          ("lam", "cyc")),
}


@pytest.mark.parametrize("mode", sorted(REFERENCE_EXPONENTS))
@pytest.mark.parametrize("n", range(6))
def test_oracle_entry_matches_reference(n, mode):
    for k in range(n + 1):
        want = Poly.zero()
        for g in enumerate_digraphs(n):
            if len(g.succ) != n - k:
                continue
            st = _reference_stats(g)
            term = Poly.one()
            for key, stat in REFERENCE_EXPONENTS[mode]:
                term = term * SYMBOLIC[key] ** st[stat]
            want = want + term
        assert oracle_entry(n, k, SYMBOLIC, mode) == want, (n, k)


@pytest.mark.parametrize("n", range(7))
def test_cyclic_permutation_oracle_is_the_pathless_digraph_entry(n):
    assert permutation_oracles(n, "cyclic", SYMBOLIC) == oracle_entry(n, 0, SYMBOLIC, "second_mv")


def test_k_outside_range_is_zero():
    for k in (-1, 4):
        assert oracle_entry(3, k, SYMBOLIC, "first_mv").is_zero()


def test_negative_n_is_refused():
    for mode in REFERENCE_EXPONENTS:
        with pytest.raises(ValueError):
            oracle_entry(-1, 0, SYMBOLIC, mode)
    for kind in ("cyclic", "linear00"):
        with pytest.raises(ValueError):
            permutation_oracles(-2, kind)
    # the reference enumeration refuses it through the same check
    with pytest.raises(ValueError, match=r"oracles need n >= 0 \(got -1\)"):
        list(enumerate_digraphs(-1))


# -- the insertion enumeration against the two reference enumerations -------


def _walked(n, digraphs):
    """{k: sorted ((stats, count), ...)} of _walk over successor maps on {1..n}."""
    by_k = {k: Counter() for k in range(n + 1)}
    for succ in digraphs:
        by_k[n - len(succ)][_walk(n, succ.items())] += 1
    return {k: tuple(sorted(c.items())) for k, c in by_k.items()}


@pytest.mark.parametrize("n", range(7))
def test_stat_table_matches_the_walk_of_every_digraph(n):
    want = _walked(n, (g.succ for g in enumerate_digraphs(n)))
    assert {k: _stat_table(n, k) for k in range(n + 1)} == want
    assert _stat_table(n, -1) == _stat_table(n, n + 1) == ()


@pytest.mark.parametrize("n", range(8))
def test_cycle_free_stat_table_matches_the_walk_of_every_cycle_free_digraph(n):
    # without loops the insertion builds the digraphs with no cycle, and at
    # k = 1 the words of S_n, each the one path sigma_1 -> ... -> sigma_n
    cyc = _STATS.index("cyc")
    injections = (dict(zip(d, p)) for e in range(n + 1) for d, p in _injections(n, e))
    want = _walked(n, (succ for succ in injections if not _walk(n, succ.items())[cyc]))
    assert {k: _stat_table(n, k, False) for k in range(n + 1)} == want
    assert sum(c for _, c in _stat_table(n, 1, False)) == (math.factorial(n) if n else 0)
    assert _stat_table(n, -1, False) == _stat_table(n, n + 1, False) == ()


@pytest.mark.parametrize("n, k", [(7, 0), (7, 5), (7, 6), (8, 6), (8, 7)])
def test_stat_table_matches_the_walk_of_each_injection(n, k):
    want = _walked(n, (dict(zip(d, p)) for d, p in _injections(n, n - k)))
    assert _stat_table(n, k) == want[k]


def test_packed_statistics_round_trip_past_one_byte():
    # 9 bits a count (n = 511) hold every count up to 511, none carrying into the next
    stats = (300, 0, 511, 256, 1, 255, 0, 0, 402, 511, 0, 7, 300)
    units = _units(9, 13)
    key = sum(c * u for c, u in zip(stats, units))
    assert key == sum(c << 9 * i for i, c in enumerate(stats))
    assert _unpacked(key, 9, 13) == stats
    assert _unpacked(key + units[4] - units[3], 9, 13) == stats[:3] + (255, 2) + stats[5:]
    assert _unpacked(511 * sum(units), 9, 13) == (511,) * 13


@pytest.mark.parametrize("n", range(8))
def test_stat_table_counts_every_partial_injection(n):
    for k in range(n + 1):
        e = n - k
        assert sum(c for _, c in _stat_table(n, k)) == math.comb(n, e) ** 2 * math.factorial(e)


def test_statistics_are_enumerated_once_per_n_k(monkeypatch):
    ints = {k: Poly.const(i + 2) for i, k in enumerate(DEFAULT_VAR_NAMES)}
    first = oracle_entry(5, 2, SYMBOLIC, "second_mv_general")
    assert oracle_entry(5, 2, SYMBOLIC, "second_mv_general") == first
    misses = _stat_table.cache_info().misses
    # other weights and other modes reuse the table of (5, 2)
    for mode in REFERENCE_EXPONENTS:
        oracle_entry(5, 2, ints, mode)
    assert _stat_table.cache_info().misses == misses
    # and a second weighting in one mode reuses that mode's projection
    projections = _projected.cache_info().misses
    for mode in REFERENCE_EXPONENTS:
        oracle_entry(5, 2, SYMBOLIC, mode)
    assert _projected.cache_info().misses == projections
    # a memoised n is still refused once the cap drops below it
    permutation_oracles(4, "cyclic")
    monkeypatch.setenv("LAGTP_LIMIT", "3")
    for weights in (SYMBOLIC, ints):
        for mode in REFERENCE_EXPONENTS:
            with pytest.raises(LimitExceeded):
                oracle_entry(5, 2, weights, mode)
    with pytest.raises(LimitExceeded):
        permutation_oracles(4, "cyclic")
    monkeypatch.delenv("LAGTP_LIMIT")
    assert oracle_entry(5, 2, SYMBOLIC, "second_mv_general") == first


def _dense(pairs, size):
    """The exponent tuple of ``size`` entries that a class's pairs give."""
    exps = [0] * size
    for i, e in pairs:
        exps[i] = e
    return tuple(exps)


def test_every_count_table_keeps_the_count_invariant_and_empty_ones_pass():
    # k paths: n - k edges; every vertex one kind
    for n in range(6):
        for k in range(n + 1):
            for mode in REFERENCE_EXPONENTS:
                want = n - k if mode == "first_mv" else n
                size = len(REFERENCE_EXPONENTS[mode])
                assert all(sum(exps) - exps[-1] == want
                           for exps in (_dense(pairs, size) for pairs, _ in _projected(n, k, mode)))
        for mode in REFERENCE_EXPONENTS:
            assert _projected(n, -1, mode) == _projected(n, n + 1, mode) == ()


def test_projection_refuses_a_table_with_an_extra_edge_in_first_mv_only(plant_count):
    # a path peak counted as a double descent: one more descending edge, as many vertices
    plant_count(3, 1, "ddpa", less="ppa")
    with pytest.raises(RouteMismatchError) as info:
        oracle_entry(3, 1, {"v_minus": 1, "v_zero": 0, "v_plus": 0, "lam": 1}, "first_mv")
    assert info.value.args[0] == Mismatch("edges per digraph in the first_mv count table",
                                          (3, 1), [2, 3], [2])
    # the vertex kinds are untouched
    for mode in ("second_mv", "second_mv_general"):
        _projected(3, 1, mode)


def test_projection_refuses_a_table_with_an_extra_vertex_kind_in_every_vertex_mode(plant_count):
    # a peak adds no edge
    plant_count(3, 1, "ppa")
    for mode in ("second_mv", "second_mv_general"):
        with pytest.raises(RouteMismatchError) as info:
            _projected(3, 1, mode)
        assert info.value.args[0] == Mismatch(
            f"vertex kinds per digraph in the {mode} count table", (3, 1), [3, 4], [3])
    _projected(3, 1, "first_mv")


def test_cyclic_permutation_oracle_refuses_a_table_with_an_extra_vertex_kind(plant_count):
    plant_count(3, 0, "vcyc")
    with pytest.raises(RouteMismatchError) as info:
        permutation_oracles(3, "cyclic")
    assert info.value.args[0].where == (3, 0)


def test_linear_permutation_oracle_refuses_a_table_with_an_extra_path_kind(plant_count):
    plant_count(3, 1, "vpa", loops=False)
    with pytest.raises(RouteMismatchError) as info:
        permutation_oracles(3, "linear00")
    assert info.value.args[0] == Mismatch(
        "vertex kinds per digraph in the linear00 count table", (3, 1), [3, 4], [3])
    # the table with cycles is untouched
    _projected(3, 1, "second_mv")


def test_unknown_modes_and_kinds_are_refused():
    # the linear00 projection serves the permutation oracle alone
    for mode in ("linear00", "bogus"):
        with pytest.raises(ValueError, match=f"unknown oracle mode '{mode}'"):
            oracle_entry(3, 1, SYMBOLIC, mode)
    with pytest.raises(ValueError, match="unknown permutation oracle kind 'second_mv'"):
        permutation_oracles(3, "second_mv")


def test_monomial_weights_are_weighed_without_products(monkeypatch):
    ints = {k: Poly.const(i + 2) for i, k in enumerate(DEFAULT_VAR_NAMES)}
    scaled = {k: Poly.var(v).scale(Fraction(i + 1, 2)) for i, (k, v) in
              enumerate(DEFAULT_VAR_NAMES.items())}
    coeffs = SRCoeffs.symbolic(2)
    two_terms = dict(SYMBOLIC, lam=1 + Poly.var("a"))
    calls = []
    product = polyring._product

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(polyring, "_product", counted)
    for weights in (SYMBOLIC, ints, scaled):
        oracle_entry(5, 2, weights, "second_mv_general")
        permutation_oracles(5, "linear00", weights)
    sr_path_oracle(coeffs, 1, 4, 1)
    assert calls == []
    # one weight with two terms: at most one product per exponent it takes
    for n, k in ((4, 0), (4, 1), (5, 2), (3, 3)):
        cycles = {classify(g).cyc for g in enumerate_digraphs(n) if classify(g).pa == k}
        for mode in ("first_mv", "second_mv_general"):
            calls.clear()
            oracle_entry(n, k, two_terms, mode)
            assert len(calls) <= len(cycles)
    calls.clear()
    permutation_oracles(5, "cyclic", two_terms)
    assert len(calls) <= 5  # a permutation of 5 has 1..5 cycles
