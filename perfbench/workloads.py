"""Seeded job lists for the three benchmark workloads.

Every job is one closed-loop step: ``run()`` calls the library and turns
its result into a plain value, which must equal ``expected``.  Expected
answers come from outside the code under test: closed forms computed here
(Stirling, Eulerian and rising-factorial numbers, path counts, minor
counts), identities that hold by theorem (production-matrix round trips,
Lindstrom-Gessel-Viennot total positivity), and recorded SHA-256 digests of
``lagtp gen`` output.

The library is reached only through the names exported by ``lagtp`` and
through ``lagtp.cli.main``.  Inputs come from ``random.Random`` seeded with
the workload name and the seed; the library never sees the seed itself.
The structure of each job list (kinds, sizes, orders) is fixed so that run
time stays comparable across seeds; the seed picks the values.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import lagtp as L
import lagtp.cli as cli
from lagtp import Poly

WORKLOADS = ("tp_scan", "oracle_xval", "family_build")
GOLDEN_PATH = Path(__file__).with_name("gen_golden.json")


@dataclass
class Job:
    kind: str
    desc: str
    run: Callable[[], object]
    expected: object


def plant_wrong(jobs: list, count: int) -> None:
    """Replace the expected answer of the first ``count`` jobs by a wrong one."""
    for job in jobs[:count]:
        job.expected = ("planted-wrong", job.expected)


def build(workload: str, seed: int) -> list:
    if workload not in JOB_LISTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return JOB_LISTS[workload](random.Random(f"{workload}:{seed}"))


# -- independent arithmetic ------------------------------------------------------


def stirling2(n: int, k: int) -> int:
    row = [1]
    for i in range(1, n + 1):
        row = [0] + [j * (row[j] if j < len(row) else 0) + row[j - 1] for j in range(1, i + 1)]
    return row[k] if 0 <= k < len(row) else 0


def eulerian(n: int, j: int) -> int:
    return sum((-1) ** i * math.comb(n + 1, i) * (j + 1 - i) ** n for i in range(j + 1))


def rising_int(x: int, n: int) -> int:
    out = 1
    for i in range(n):
        out *= x + i
    return out


def json_terms(p: Poly) -> dict:
    """A library polynomial as {((var, exp), ...): coefficient}, via its canonical JSON."""
    obj = p.to_json_obj()
    out = {}
    for t in obj["terms"]:
        mono = tuple((v, e) for v, e in zip(obj["vars"], t["exp"]) if e)
        out[mono] = Fraction(t["coef"])
    return out


def eval_terms(terms: dict, env: dict) -> Fraction:
    total = Fraction(0)
    for mono, c in terms.items():
        for v, e in mono:
            c *= Fraction(env[v]) ** e
        total += c
    return total


def det_fraction(grid: list) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    g = [[Fraction(x) for x in row] for row in grid]
    n, det = len(g), Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if g[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            g[c], g[piv] = g[piv], g[c]
            det = -det
        det *= g[c][c]
        for r in range(c + 1, n):
            f = g[r][c] / g[c][c]
            for k in range(c, n):
                g[r][k] -= f * g[c][k]
    return det


def minor_count(rows: int, cols: int, order: int) -> int:
    return sum(math.comb(rows, s) * math.comb(cols, s) for s in range(1, min(order, rows, cols) + 1))


def upoly_rising(shift: int, n: int) -> list:
    """Coefficients (ascending in a) of (a + shift)(a + shift + 1)...(n factors)."""
    out = [1]
    for i in range(n):
        c = shift + i
        nxt = [0] * (len(out) + 1)
        for d, v in enumerate(out):
            nxt[d] += c * v
            nxt[d + 1] += v
        out = nxt
    return out


def path_count(m: int, j: int, n: int, k: int, weight: Callable[[int], int]) -> int:
    """Weighted count of partial m-Dyck paths of length (m+1)n+j ending at
    height (m+1)k+j; an m-fall from height h has weight ``weight(h)``."""
    heights = {0: 1}
    for _ in range((m + 1) * n + j):
        nxt: dict = {}
        for h, c in heights.items():
            nxt[h + 1] = nxt.get(h + 1, 0) + c
            if h >= m:
                nxt[h - m] = nxt.get(h - m, 0) + c * weight(h)
        heights = nxt
    return heights.get((m + 1) * k + j, 0)


# -- small input helpers -----------------------------------------------------------
#
# The seed picks values, never sizes: which entries are symbolic is drawn
# per block with a fixed count, so the cost of a job list stays close from
# one seed to the next while the inputs differ.


def _rand_poly(rng, names) -> Poly:
    """A constant plus c*v for each variable v in ``names``, with seeded
    coefficients 1..3 (coefficientwise >= 0)."""
    acc = Poly.const(rng.randint(1, 3))
    for v in names:
        acc = acc + Poly.var(v) * rng.randint(1, 3)
    return acc


def _int_positions(rng, indices, int_frac: float) -> set:
    """The indices that get an integer value: in every block of consecutive
    indices, the same number is drawn (``int_frac`` as a small fraction)."""
    frac = Fraction(int_frac).limit_denominator(8)
    block, per = frac.denominator, frac.numerator
    indices = list(indices)
    chosen = set()
    for i in range(0, len(indices), block):
        part = indices[i:i + block]
        chosen.update(rng.sample(part, min(per, len(part))))
    return chosen


def _alpha_choice(rng, i: int, rational: bool = True) -> tuple:
    """(label, LaguerreParams) for alpha cycling by ``i`` through symbolic,
    -1, 0, 1 and a seeded rational.

    Routes through exponential Riordan arrays need integral entries, so
    they pass ``rational=False`` and get a seeded integer instead.
    """
    pick = i % 5
    if pick == 0:
        return "sym", L.LaguerreParams.symbolic()
    if pick <= 3:
        v = pick - 2
        return str(v), L.LaguerreParams.of(v)
    q = rng.randint(2, 5) if rational else 1
    v = Fraction(rng.randint(-q, 3 * q), q)
    return str(v), L.LaguerreParams.of(v)


def _vertex_weights(rng, i: int, symbolic: int, with_z: bool = False) -> tuple:
    """Vertex weights with ``symbolic`` of them symbolic, a window that moves
    with ``i``, and the rest seeded integers 1..3."""
    names = ["yp", "yv", "yda", "ydd", "yfp"] + (["zp", "zv", "zda", "zdd"] if with_z else [])
    sym = {names[(i + k) % len(names)] for k in range(symbolic)}
    vals = {n: Poly.var(n) if n in sym else Poly.const(rng.randint(1, 3)) for n in names}
    desc = ",".join(f"{n}={vals[n]}" for n in names)
    return L.VertexWeights(*(vals[n] for n in names)), desc


def _sr_coeffs(rng, m: int, int_frac: float) -> tuple:
    """m-S-R coefficients al_i: a seeded integer 1..3 at the positions drawn by
    ``_int_positions``, symbolic elsewhere.  Returns (coeffs, weight of a fall
    from each height with symbols set to 1, description)."""
    ints = {i: rng.randint(1, 3) for i in sorted(_int_positions(rng, range(m, 60), int_frac))}
    coeffs = L.SRCoeffs.from_fn(
        m, lambda i: Poly.const(ints[i]) if i in ints else Poly.var(f"al{i}"))
    desc = "".join(str(ints[i]) if i in ints else "s" for i in range(m, m + 24))
    return coeffs, (lambda h: ints.get(h, 1)), desc


# -- tp_scan ------------------------------------------------------------------------


def _tp_ok_job(kind, desc, matrix, order, sampled=None) -> Job:
    if sampled is None:
        run = lambda: _tp_obs(L.tp_check_symbolic(matrix, order))
        count = minor_count(matrix.rows, matrix.cols, order)
    else:
        seed, samples = sampled
        run = lambda: _tp_obs(L.tp_check_sampled(matrix, order, seed=seed, samples=samples))
        count = samples * minor_count(matrix.rows, matrix.cols, order)
        desc += f" sampled seed={seed} samples={samples}"
    return Job(kind, f"{desc} order={order}", run, (True, count))


def _tp_obs(report) -> tuple:
    return report.ok, report.checked


def _tp_fail_job(kind, desc, matrix, order, sampled=None) -> Job:
    """Negative control: the scan must stop with a witness minor that is
    negative and agrees with an independent determinant of that submatrix."""

    def run():
        if sampled is None:
            report = L.tp_check_symbolic(matrix, order)
        else:
            report = L.tp_check_sampled(matrix, order, seed=sampled[0], samples=sampled[1])
        return (report.ok,) + _witness_obs(matrix, report)

    return Job(kind, f"{desc} order={order} sampled={sampled}", run, (False, True, True))


def _witness_obs(matrix, report) -> tuple:
    w = report.witness
    if w is None:
        return (False, False)
    if isinstance(w.minor, Poly):
        terms = json_terms(w.minor)
        negative = any(c < 0 for c in terms.values())
        names = sorted({v for mono in terms for v, _ in mono}
                       | {v for i in w.rows for j in w.cols for mono in json_terms(matrix[i, j])
                          for v, _ in mono})
        env = {v: 2 + i % 3 for i, v in enumerate(names)}
        value = eval_terms(terms, env)
    else:
        negative = w.minor < 0
        env = dict(w.assignment)
        value = Fraction(w.minor)
    grid = [[eval_terms(json_terms(matrix[i, j]), env) for j in w.cols] for i in w.rows]
    return negative, det_fraction(grid) == value


def _bidiagonal_product(rng, n: int, factors: int):
    """Product of alternating lower/upper bidiagonal factors whose entries are
    coefficientwise-nonnegative polynomials: TP of every order (LGV)."""
    names = ["p", "q", "r"]
    prod = None
    for f in range(factors):
        lower = f % 2 == 0
        entries = {}
        for i in range(n):
            entries[(i, i)] = _rand_poly(rng, [rng.choice(names)])
            if i >= 1:
                entries[(i, i - 1) if lower else (i - 1, i)] = _rand_poly(rng, [rng.choice(names)])
        t = L.Truncation.from_fn(n, n, lambda i, j: entries.get((i, j), 0))
        prod = t if prod is None else prod * t
    return prod


def _swap_rows(t, i: int):
    rows = list(range(t.rows))
    rows[i], rows[i + 1] = rows[i + 1], rows[i]
    return t.submatrix(rows, list(range(t.cols)))


def _laguerre_hankel(rng, n: int, symbolic: bool) -> tuple:
    lam = Poly.var("lam") if symbolic else Poly.const(rng.randint(1, 4))
    params = L.LaguerreParams(lam - 1)
    seq = [L.monic_laguerre(i, params, Poly.var("x")) for i in range(2 * n - 1)]
    return L.hankel_truncation(seq, n), f"laguerre-hankel n={n} lam={lam}"


def _sr_hankel(rng, m: int, j: int, n: int, int_frac: float) -> tuple:
    coeffs, _, desc = _sr_coeffs(rng, m, int_frac)
    tri = L.SRTriangles(coeffs, max_j=j)
    seq = [tri.value(j, i, 0) for i in range(2 * n - 1)]
    return L.hankel_truncation(seq, n), f"sr-hankel m={m} j={j} n={n} al={desc}"


def _smj(rng, m: int, j: int, n: int) -> tuple:
    coeffs, _, desc = _sr_coeffs(rng, m, 0.4)
    return L.prodmat_smj(coeffs, j, n).truncate(n), f"prodmat_smj m={m} j={j} n={n} al={desc}"


def _seq_or_sym(rng, prefix: str, start: int, int_frac: float) -> tuple:
    ints = {i: rng.randint(1, 3) for i in _int_positions(rng, range(start, 12), int_frac)}
    fn = lambda i: (Poly.zero() if i < start else
                    Poly.const(ints[i]) if i in ints else Poly.var(f"{prefix}{i}"))
    return fn, "".join(str(ints[i]) if i in ints else "s" for i in range(start, 12))


def _general_quad(rng, n: int) -> tuple:
    seqs = [_seq_or_sym(rng, c, s, 0.25) for c, s in (
        ("a", 0), ("b", 1), ("c", 1), ("d", 0), ("e", 0), ("f", 1), ("g", 0), ("h", 0))]
    p = L.QuadFactorParams(*(fn for fn, _ in seqs))
    return L.build_general_quad(p).truncate(n), f"quad-general n={n} " + "/".join(d for _, d in seqs)


def _variant_quad(rng, n: int) -> tuple:
    names = ["alpha", "beta", "x", "y"]
    sym = set(rng.sample(names, 2))
    scalars = [Poly.var(v) if v in sym else Poly.const(rng.randint(1, 3)) for v in names]
    seqs = [_seq_or_sym(rng, c, s, 0.5) for c, s in (
        ("a", 0), ("b", 1), ("c", 1), ("d", 0), ("e", 0), ("f", 0))]
    p = L.QuadVariantParams(*scalars, *(fn for fn, _ in seqs))
    return L.build_variant_quad(p).truncate(n), \
        f"quad-variant n={n} {scalars} " + "/".join(d for _, d in seqs)


def build_tp_scan(rng) -> list:
    jobs = []
    sample = lambda: (rng.randrange(1, 2 ** 31), 12)
    for i in range(8):
        m, d = _laguerre_hankel(rng, 4, symbolic=i % 2 == 0)
        jobs.append(_tp_ok_job("tp.laguerre_hankel", d, m, 3))
        m, d = _laguerre_hankel(rng, 5, symbolic=i % 2 == 1)
        jobs.append(_tp_ok_job("tp.laguerre_hankel", d, m, 4, sample()))
    for _ in range(4):
        for mm, j in ((1, 0), (1, 1), (2, 0), (2, 1), (2, 2)):
            m, d = _sr_hankel(rng, mm, j, 3, 0.0)
            jobs.append(_tp_ok_job("tp.sr_hankel", d, m, 3))
            m, d = _sr_hankel(rng, mm, j, 4, 0.75)
            jobs.append(_tp_ok_job("tp.sr_hankel", d, m, 3))
            m, d = _sr_hankel(rng, mm, j, 4, 0.5)
            jobs.append(_tp_ok_job("tp.sr_hankel", d, m, 4, sample()))
    for i, (mm, j) in enumerate(((1, 0), (1, 1), (2, 0), (2, 1), (2, 2),
                                 (3, 0), (3, 1), (3, 2), (3, 3))):
        m, d = _smj(rng, mm, j, 5)
        jobs.append(_tp_ok_job("tp.prodmat_smj", d, m, 3 + i % 2))
        m, d = _smj(rng, mm, j, 6)
        jobs.append(_tp_ok_job("tp.prodmat_smj", d, m, 5, sample()))
    for _ in range(6):
        m, d = _general_quad(rng, 5)
        jobs.append(_tp_ok_job("tp.quad_general", d, m, 3))
        m, d = _general_quad(rng, 6)
        jobs.append(_tp_ok_job("tp.quad_general", d, m, 4, sample()))
        m, d = _variant_quad(rng, 4)
        jobs.append(_tp_ok_job("tp.quad_variant", d, m, 3))
        m, d = _variant_quad(rng, 5)
        jobs.append(_tp_ok_job("tp.quad_variant", d, m, 4, sample()))
    for i in range(30):
        n = 4 + i % 2
        b = _bidiagonal_product(rng, n, 3)
        d = f"bidiagonal-product n={n} factors=3 entries={[str(e) for e in b.data[-1]]}"
        jobs.append(_tp_ok_job("tp.bidiagonal", d, b, 3))
        jobs.append(_tp_ok_job("tp.bidiagonal", d, b, 4, sample()))
        swap = rng.randrange(n - 1)
        jobs.append(_tp_fail_job("tp.swapped_rows", f"{d} swap={swap}", _swap_rows(b, swap), 3))
    for mm in (1, 2):
        coeffs, _, desc = _sr_coeffs(rng, mm, 0.25)
        tri = L.SRTriangles(coeffs, max_j=mm + 1)
        seq = [tri.value(mm + 1, i, 0) for i in range(5)]
        jobs.append(_tp_fail_job("tp.type_m_plus_1_hankel", f"m={mm} al={desc}",
                                 L.hankel_truncation(seq, 3), 3))
    bad = L.Truncation([[1, 2], [3, 1]])
    jobs.append(_tp_fail_job("tp.non_tp_2x2", "[[1,2],[3,1]]", bad, 2))
    jobs.append(_tp_fail_job("tp.non_tp_2x2", "[[1,2],[3,1]]", bad, 2, sample()))
    return jobs


# -- oracle_xval ----------------------------------------------------------------------


def _sr_oracle_job(rng, m: int, steps: int, int_frac: float) -> Job:
    """One partial m-Dyck path length; the seed picks the split into (n, j),
    the end height k and the coefficients."""
    splits = [(n, steps - (m + 1) * n) for n in range(1, steps + 1)
              if 0 <= steps - (m + 1) * n <= m + 1]
    n, j = rng.choice(splits)
    k = rng.randrange(min(n, 2) + 1)
    coeffs, weight, desc = _sr_coeffs(rng, m, int_frac)

    def run():
        oracle = L.sr_path_oracle(coeffs, j, n, k)
        tri = L.SRTriangles(coeffs, max_j=j)
        return (oracle == L.sr_poly(coeffs, j, n, k), oracle == tri.value(j, n, k),
                sum(oracle.coefficients()))

    return Job("oracle.sr_path", f"m={m} j={j} n={n} k={k} al={desc}", run,
               (True, True, path_count(m, j, n, k, weight)))


FIRST_MV_NK = [(4, k) for k in range(5)] + [(5, k) for k in range(6)] + \
    [(6, 0), (6, 3), (6, 4), (6, 5), (7, 5), (7, 6), (8, 6), (8, 7)]


def _first_mv_jobs(rng, n: int, k: int) -> list:
    """Several closed forms for one (n, k); each re-enumerates the same digraphs."""
    a, b, c, lam = (rng.randint(1, 4) for _ in range(4))
    e = n - k

    def job(form, vm, v0, vp, lam_v, expected):
        weights = {"v_minus": Poly.const(vm), "v_zero": Poly.const(v0),
                   "v_plus": Poly.const(vp), "lam": Poly.const(lam_v)}
        run = lambda: L.oracle_entry(n, k, weights, "first_mv").as_constant()
        return Job(f"oracle.first_mv_{form}", f"n={n} k={k} v=({vm},{v0},{vp}) lam={lam_v}",
                   run, expected)

    jobs = [
        job("stirling", c, 0, 0, lam, stirling2(n, k) * c ** e),
        job("rooks", a, b, 0, lam, sum(math.comb(n, i) * (lam * b) ** i * stirling2(n - i, k)
                                       * a ** (e - i) for i in range(e + 1))),
        job("uniform", c, c, c, lam, math.comb(n, k) * rising_int(lam + k, e) * c ** e),
    ]
    if k == 0:
        jobs.append(job("eulerian", a, a, b, 1,
                        sum(eulerian(n, i) * b ** i * a ** (n - i) for i in range(n))))
    return jobs


def _second_mv_job(rng, i: int) -> Job:
    label, params = _alpha_choice(rng, i, rational=False)
    w, wdesc = _vertex_weights(rng, i, 5, with_z=True)
    flat = i % 2 == 0
    n = 5 + (i // 2) % 2
    entries = [(n - 1, rng.randrange(1, n)), (n - 2, rng.randrange(1, n - 1))]
    weights = {"y_p": w.y_p, "y_v": w.y_v, "y_da": w.y_da, "y_dd": w.y_dd,
               "y_fp": w.y_fp, "z_p": w.zp, "z_v": w.zv, "z_da": w.zda,
               "z_dd": w.zdd, "lam": params.lam}

    def run():
        t = L.coeff_matrix_second_mv(params, w, n, flat=flat, oracle_rows=0)
        for row, k in entries:
            want = L.oracle_entry(row, k, weights, "second_mv_general")
            if flat:
                want = want.exact_div(w.zp ** k)
            if t[row, k] != want:
                return False
        return True

    return Job("oracle.second_mv_general", f"alpha={label} n={n} flat={flat} "
               f"entries={entries} w={wdesc}", run, True)


def _perm_job(rng, kind: str, n: int, i: int) -> Job:
    w, wdesc = _vertex_weights(rng, i, 4, with_z=True)
    lam = Poly.var("lam") if i % 2 == 0 else Poly.const(rng.randint(1, 3))
    fact = math.factorial(n)
    if kind == "cyclic":
        weights = {"y_p": w.y_p, "y_v": w.y_v, "y_da": w.y_da, "y_dd": w.y_dd,
                   "y_fp": w.y_fp, "lam": lam}

        def run():
            g = L.solve_riccati(w.y_p, w.y_da + w.y_dd, w.y_v, n)
            f = L.solve_logderiv([w.y_fp, w.y_v], g, lam, n)
            return f[n].scale(fact) == L.permutation_oracles(n, "cyclic", weights)
    else:
        weights = {"z_p": w.zp, "z_v": w.zv, "z_da": w.zda, "z_dd": w.zdd}

        def run():
            g = L.solve_riccati(w.zp, w.zda + w.zdd, w.zv, n)
            return g[n].scale(fact) == L.permutation_oracles(n, "linear00", weights)

    return Job(f"oracle.permutations_{kind}", f"n={n} lam={lam} w={wdesc}", run, True)


def build_oracle_xval(rng) -> list:
    jobs = []
    for m, lo, hi in ((1, 10, 14), (2, 9, 14), (3, 8, 13)):
        for i in range(44):
            steps = lo + i % (hi - lo + 1)
            jobs.append(_sr_oracle_job(rng, m, steps, 0.5 * (i // (hi - lo + 1) % 2)))
    for n, k in FIRST_MV_NK + FIRST_MV_NK:
        jobs.extend(_first_mv_jobs(rng, n, k))
    for i in range(40):
        jobs.append(_second_mv_job(rng, i))
    for kind in ("cyclic", "linear00"):
        for i, n in enumerate((4, 5, 5, 6, 6, 6, 7) * 3):
            jobs.append(_perm_job(rng, kind, n, i))
    rng.shuffle(jobs)
    return jobs


# -- family_build -------------------------------------------------------------------------


PRODMAT_KINDS = ("Pcirc", "P", "PcircFlat", "PFlat", "PcircY", "PY")
GEN_SELECTORS = ("laguerre-coeff", "first-mv", "second-mv") + \
    tuple(f"prodmat:{k}" for k in PRODMAT_KINDS) + ("smj", "quad-general", "quad-variant")


def _coeff_uni_expected(label: str, n: int) -> list:
    """Closed form C(i,k) (1+alpha+k)^(rising i-k), as plain values: coefficient
    lists in alpha for the symbolic case, Fractions otherwise."""
    out = []
    for i in range(n):
        row = []
        for k in range(n):
            if k > i:
                row.append(0 if label != "sym" else [])
            elif label == "sym":
                row.append([math.comb(i, k) * c for c in upoly_rising(k + 1, i - k)])
            else:
                a = Fraction(label)
                val = Fraction(1)
                for s in range(i - k):
                    val *= a + k + 1 + s
                row.append(math.comb(i, k) * val)
        out.append(row)
    return out


def _coeff_uni_obs(t, symbolic: bool) -> list:
    out = []
    for row in t.data:
        vals = []
        for e in row:
            if not symbolic:
                vals.append(Fraction(e.as_constant()))
                continue
            terms = json_terms(e)
            deg = max((dict(mono).get("a", 0) for mono in terms), default=-1)
            coeffs = [0] * (deg + 1)
            for mono, c in terms.items():
                coeffs[dict(mono).get("a", 0)] = c
            vals.append(coeffs)
        out.append(vals)
    return out


def _family_prodmat_jobs(rng, n: int, i: int) -> list:
    label, params = _alpha_choice(rng, i, rational=False)
    w, wdesc = _vertex_weights(rng, i, 3)
    x = Poly.var("x")
    rows = i % 4
    desc = f"alpha={label} n={n} w={wdesc}"
    pm = lambda which: L.prodmat(params, which, weights=w, x=x)
    second = lambda flat: L.coeff_matrix_second_mv(params, w, n, flat=flat, oracle_rows=rows)
    checks = {
        "Pcirc": lambda: L.output_matrix(pm("Pcirc"), n) == L.coeff_matrix_uni(params, n),
        "P": lambda: L.output_matrix(pm("P"), n)
        == L.coeff_matrix_uni(params, n) * L.binomial_truncation(x, n),
        "PcircFlat": lambda: L.output_matrix(pm("PcircFlat"), n) == second(True),
        "PFlat": lambda: L.output_matrix(pm("PFlat"), n) == second(True) * L.binomial_truncation(x, n),
        "PcircY": lambda: L.output_matrix(pm("PcircY"), n) == second(False),
        "PY": lambda: L.output_matrix(pm("PY"), n) == second(False) * L.binomial_truncation(x, n),
    }
    jobs = [Job(f"family.output_{k}", f"{desc} oracle_rows={rows}", checks[k], True)
            for k in PRODMAT_KINDS]
    which = ("Pcirc", "P", "PcircFlat", "PFlat")[i % 4]  # the unit-superdiagonal kinds
    jobs.append(Job("family.production_roundtrip", f"{desc} which={which}",
                    lambda: L.production_of(L.output_matrix(pm(which), n))
                    == pm(which).truncate(n - 1, n), True))
    for circ, quad in (("Pcirc", "P"), ("PcircFlat", "PFlat"), ("PcircY", "PY")):
        jobs.append(Job("family.conjugation_link", f"{desc} {circ}->{quad}",
                        lambda circ=circ, quad=quad: L.conjugate_by_binomial(pm(circ), x, n)
                        == pm(quad).truncate(n), True))
    return jobs


def _coeff_uni_job(rng, n: int, i: int) -> Job:
    label, params = _alpha_choice(rng, i)
    sym = label == "sym"
    return Job("family.coeff_matrix_uni", f"alpha={label} n={n}",
               lambda: _coeff_uni_obs(L.coeff_matrix_uni(params, n), sym),
               _coeff_uni_expected(label, n))


def _identity_jobs(rng, n: int, i: int) -> list:
    label, params = _alpha_choice(rng, i)
    w, wdesc = _vertex_weights(rng, i, 3)
    desc = f"alpha={label} n={n}"
    jobs = [Job("family.self_inverse", desc,
                lambda: L.unsigned_self_inverse_check(params, n), True)]
    for which in ("tridiagonal_lu", "quadridiagonal_nested", "flat_split"):
        jobs.append(Job("family.factorization", f"{desc} {which} w={wdesc}",
                        lambda which=which: L.factorization_check(which, params, n, weights=w),
                        True))

    int_label, int_params = _alpha_choice(rng, i + 2, rational=False)

    def riordan():
        order = n - 1
        g = L.solve_riccati(Poly.one(), Poly.const(2), Poly.one(), order)
        f = L.solve_logderiv([1, 1], g, int_params.lam, order)
        t = L.Series([0, 1], order)
        ex = (t * Poly.var("x")).exp()
        return (L.riordan_matrix(f, g, n) == L.coeff_matrix_uni(int_params, n)
                and L.riordan_matrix(ex, t, n) == L.binomial_truncation(Poly.var("x"), n))

    jobs.append(Job("family.riordan", f"alpha={int_label} n={n}", riordan, True))
    return jobs


def _rand_series(rng, order: int, c0: int, c1: int):
    coefs = [Poly.const(c0), Poly.const(c1)]
    for d in range(2, order + 1):
        if d % 2 == 0:
            coefs.append(Poly.const(rng.randint(-2, 3)))
        else:
            coefs.append(_rand_poly(rng, ["x"] if d % 4 == 1 else ["y"]))
    return L.Series(coefs, order)


def _series_jobs(rng, order: int) -> list:
    a = _rand_series(rng, order, 0, rng.choice((1, 2, -1)))
    b = _rand_series(rng, order, rng.choice((1, -1, 2)), rng.randint(-2, 2))
    desc = f"order={order} a={a.coefs} b={b.coefs}"
    one = L.Series([1], order)
    t = L.Series([0, 1], order)
    p, q, r = _rand_poly(rng, ["x"]), _rand_poly(rng, ["y"]), _rand_poly(rng, ["x", "y"])
    power = 2 + order % 2

    def riccati():
        g = L.solve_riccati(p, q, r, order)
        return g.derivative() == (one * p + g * q + (g * g) * r).truncate(order - 1)

    def logderiv():
        g = L.solve_riccati(p, q, r, order)
        lam = Poly.var("lam")
        f = L.solve_logderiv([p, q], g, lam, order)
        w = (one * p + g * q) * lam
        return f.derivative() == (w * f).truncate(order - 1)

    return [
        Job("family.series_reversion", desc,
            lambda: a.compose(a.reversion()) == t and a.reversion().reversion() == a, True),
        Job("family.series_exp", desc, lambda: a.exp() * (-a).exp() == one, True),
        Job("family.series_reciprocal", desc, lambda: b * L.series_reciprocal(b) == one, True),
        Job("family.series_riccati", f"order={order} p={p} q={q} r={r}", riccati, True),
        Job("family.series_logderiv", f"order={order} p={p} q={q} r={r}", logderiv, True),
        Job("family.series_pow_sym", f"{desc} power={power}",
            lambda: L.series_pow_sym(_unit(b), power, order) == _pow(_unit(b), power), True),
    ]


def _unit(s):
    """The series with its constant term replaced by 1."""
    return L.Series([Poly.one()] + list(s.coefs[1:]), s.order)


def _pow(s, k: int):
    out = s
    for _ in range(k - 1):
        out = out * s
    return out


def _eaz_job(rng, n: int) -> Job:
    def seq(prefix):
        ints = _int_positions(rng, range(n + 1), 0.5)
        return [Poly.const(rng.randint(0, 3)) if i in ints else Poly.var(f"{prefix}{i}")
                for i in range(n + 1)]

    a, z = seq("a"), seq("z")
    return Job("family.eaz_conjugation", f"n={n} a={a} z={z}",
               lambda: L.bx_conjugate_eaz_identity_check(a, z, n), True)


CELLS = ((0, -1), (1, -1), (2, -1), (1, 0), (2, 0), (2, 1))


def _cell_job(rng, i: int) -> Job:
    j, a = CELLS[i % len(CELLS)]
    q = rng.randint(2, 7)
    kappa = Fraction(rng.randint(0, q), q)
    n = 5 + i % 3
    fam = L.KappaFamily(j, a, kappa)
    return Job("family.factorization_cell", f"j={j} alpha={a} kappa={kappa} n={n}",
               lambda: L.verify_factorization_cell(fam, n), True)


def _banded_job(rng, i: int) -> Job:
    """Seeded (r,1)-banded spec with polynomial diagonals; compliant specs
    (even i) meet the degree criterion, the others break it on one diagonal,
    and the measured bandwidth of the conjugate must agree."""
    compliant = i % 2 == 0
    r = 1 + (i // 2) % 3
    degs = [rng.randint(0, max(0, r - max(m, 0))) for m in range(-1, r + 1)]
    if not compliant:
        m = rng.randint(-1, r)
        degs[m + 1] = r - max(m, 0) + 1 + rng.randrange(2)
    fs = tuple(tuple(rng.randint(0, 3) for _ in range(d)) + (rng.randint(1, 3),) for d in degs)
    spec = L.DiagonalPolySpec(r, fs)
    n = 7 + i % 3
    return Job("family.banded", f"r={r} fs={fs} n={n}",
               lambda: (L.check_banded_criterion(spec),
                        L.conjugate_and_measure_band(spec, n) <= r),
               (compliant, compliant))


def _cli(argv: list) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _gen_roundtrip_job(rng, selector: str, i: int) -> Job:
    rational = f"{rng.randint(1, 9)}/{rng.randint(2, 5)}" if selector != "second-mv" else "2"
    label = ("sym", "-1", "0", "1", rational)[i % 5]
    small = selector in ("first-mv", "second-mv")
    n = (3 if small else 5) + i % 2
    argv = ["gen", selector, "--alpha", label, "--n", str(n)]
    params = L.LaguerreParams.symbolic() if label == "sym" else L.LaguerreParams.of(Fraction(label))
    j = rng.randrange(3)
    if selector == "smj":
        argv += ["--m", "2", "--j", str(j)]

    def direct():
        if selector == "laguerre-coeff":
            return L.coeff_matrix_uni(params, n)
        if selector == "first-mv":
            return L.coeff_matrix_first_mv(params, L.EdgeWeights.symbolic(), n)
        if selector == "second-mv":
            return L.coeff_matrix_second_mv(params, L.VertexWeights.symbolic(), n)
        if selector.startswith("prodmat:"):
            which = selector.split(":", 1)[1]
            w = None if which in ("Pcirc", "P") else L.VertexWeights.symbolic()
            return L.prodmat(params, which, weights=w).truncate(n)
        if selector == "smj":
            return L.prodmat_smj(L.SRCoeffs.symbolic(2), j, n).truncate(n)
        if selector == "quad-general":
            return L.build_general_quad(L.QuadFactorParams.symbolic()).truncate(n)
        return L.build_variant_quad(L.QuadVariantParams.symbolic()).truncate(n)

    def run():
        rc, out = _cli(argv)
        return rc, L.Truncation.from_json_obj(json.loads(out)) == direct()

    return Job("family.cli_gen_roundtrip", " ".join(argv), run, (0, True))


def _golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["sha256"]


GOLDEN_GEN = [
    ["gen", "laguerre-coeff", "--alpha", "sym", "--n", "7"],
    ["gen", "laguerre-coeff", "--alpha", "-1", "--n", "6"],
    ["gen", "laguerre-coeff", "--alpha", "3/2", "--n", "5"],
    ["gen", "first-mv", "--alpha", "sym", "--n", "4"],
    ["gen", "second-mv", "--alpha", "sym", "--n", "4"],
    ["gen", "second-mv", "--alpha", "0", "--n", "5", "--flat"],
    ["gen", "prodmat:Pcirc", "--alpha", "sym", "--n", "6"],
    ["gen", "prodmat:P", "--alpha", "-1", "--n", "6"],
    ["gen", "prodmat:PcircFlat", "--alpha", "sym", "--n", "5"],
    ["gen", "prodmat:PFlat", "--alpha", "1", "--n", "5"],
    ["gen", "prodmat:PcircY", "--alpha", "sym", "--n", "5"],
    ["gen", "prodmat:PY", "--alpha", "1/3", "--n", "5"],
    ["gen", "smj", "--m", "2", "--j", "1", "--n", "5"],
    ["gen", "smj", "--m", "3", "--j", "2", "--n", "5"],
    ["gen", "smj", "--family", "j1a0", "--n", "6"],
    ["gen", "smj", "--family", "j2a1", "--kappa", "1/3", "--n", "6"],
    ["gen", "quad-general", "--n", "5"],
    ["gen", "quad-variant", "--n", "5"],
]


def golden_invocations() -> list:
    """Every fixed ``gen`` invocation in both output formats."""
    return [argv + ["--format", fmt] for argv in GOLDEN_GEN for fmt in ("json", "csv")]


def gen_digest(argv: list) -> str:
    rc, out = _cli(argv)
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()


def _golden_job(argv: list, digest: str) -> Job:
    return Job("family.cli_gen_golden", " ".join(argv), lambda: gen_digest(argv), digest)


def _verify_job(suite: str) -> Job:
    def run():
        rc, out = _cli(["verify", suite])
        return rc, json.loads(out)["ok"]

    return Job("family.cli_verify", suite, run, (0, True))


def build_family_build(rng) -> list:
    jobs = []
    for i in range(28):
        jobs.append(_coeff_uni_job(rng, 6 + i % 5, i // 5))
    for i, n in enumerate((6, 6, 7, 7, 7, 7, 8, 8, 8, 8, 8, 9, 9, 9)):
        jobs.extend(_family_prodmat_jobs(rng, n, i))
    for i in range(14):
        jobs.extend(_identity_jobs(rng, 6 + i % 5, i))
    for i in range(14):
        jobs.extend(_series_jobs(rng, 6 + i % 3))
    for i in range(14):
        jobs.append(_eaz_job(rng, 5 + i % 3))
    for i in range(28):
        jobs.append(_cell_job(rng, i))
    for i in range(28):
        jobs.append(_banded_job(rng, i))
    for i, selector in enumerate(GEN_SELECTORS * 3):
        jobs.append(_gen_roundtrip_job(rng, selector, i))
    golden = _golden()
    for argv in golden_invocations():
        jobs.append(_golden_job(argv, golden.get(" ".join(argv), "missing")))
    jobs.append(_verify_job("univariate"))
    jobs.append(_verify_job("banded"))
    rng.shuffle(jobs)
    return jobs


JOB_LISTS = {
    "tp_scan": build_tp_scan,
    "oracle_xval": build_oracle_xval,
    "family_build": build_family_build,
}
