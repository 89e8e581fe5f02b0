"""When does binomial conjugation preserve an (r,1) band?

A ``DiagonalPolySpec`` (defined in the matrices module, re-exported here)
is a lower-Hessenberg matrix whose diagonals are polynomial in the row
index: superdiagonal p_{n,n+1} = f_{-1}(n) and m-th subdiagonal
p_{n,n-m} = n(n-1)...(n-m+1) f_m(n).  Its conjugate B_xi^{-1} P B_xi is
again (r,1)-banded exactly when deg f_{-1} <= r and deg f_m <= r-m for
0 <= m <= r.  The degree test is the cheap criterion.  The cross-check is
the n x n block of the conjugate, which ``conjugate_by_binomial`` computes
exactly as a spec by Taylor layers in xi on the diagonals; its measured
lower bandwidth never consults the degree test.  The tests keep the full
triple product B_{-xi} P B_xi as the oracle built from the definition.
"""

from __future__ import annotations

from .matrices import DiagonalPolySpec, XorShift64, conjugate_by_binomial
from .polyring import Poly


def check_banded_criterion(spec: DiagonalPolySpec) -> bool:
    """Degree test: deg f_{-1} <= r and deg f_m <= r - m for 0 <= m <= r."""
    if spec.poly_degree(-1) > spec.r:
        return False
    return all(spec.poly_degree(m) <= spec.r - m for m in range(spec.r + 1))


def conjugate_and_measure_band(spec: DiagonalPolySpec, n: int) -> int:
    """Observed lower bandwidth of B_xi^{-1} P B_xi on the exact n x n block."""
    return conjugate_by_binomial(spec, Poly.var("xi"), n).lower_bandwidth()


def random_spec(rng: XorShift64) -> DiagonalPolySpec:
    """Seeded random spec with r <= 3 and degrees <= 4.

    Half the draws are built to satisfy the degree criterion and half are
    unconstrained (so usually violating it); leading coefficients are
    forced nonzero so the intended degree is the actual degree.
    """
    r = int(rng.next_u64() % 3) + 1
    compliant = rng.next_u64() % 2 == 0
    fs = []
    for m in range(-1, r + 1):
        bound = max(0, r - max(m, 0)) if compliant else 4
        deg = int(rng.next_u64() % (bound + 1))
        coeffs = [int(rng.next_u64() % 4) for _ in range(deg + 1)]
        coeffs[-1] = int(rng.next_u64() % 3) + 1
        fs.append(coeffs)
    return DiagonalPolySpec(r, tuple(tuple(Poly.const(c) for c in f) for f in fs))
