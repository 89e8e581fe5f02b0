"""When does binomial conjugation preserve an (r,1) band?

For a lower-Hessenberg matrix whose diagonals are polynomial in the row
index -- superdiagonal p_{n,n+1} = f_{-1}(n) and m-th subdiagonal
p_{n,n-m} = n(n-1)...(n-m+1) f_m(n) -- the conjugate B_xi^{-1} P B_xi is
again (r,1)-banded exactly when deg f_{-1} <= r and deg f_m <= r-m for
0 <= m <= r.  The degree test is the cheap criterion.  The cross-check
is the conjugate itself, computed exactly by ``conjugate_by_binomial``
from its Taylor layers in xi (commutators with the binomial generator,
stopped at the first zero one); it never consults the degree test, so the
two stay independent, and its measured lower bandwidth is compared with
the test's verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .matrices import HessMatrix, XorShift64, conjugate_by_binomial
from .polyring import Poly, _p


@dataclass(frozen=True)
class DiagonalPolySpec:
    """An (r,1)-banded matrix whose diagonals are polynomial in the row index.

    ``fs`` lists the polynomials f_{-1}, f_0, ..., f_r, each given by its
    coefficient list in the row index n (constant coefficient first, Poly
    coefficients allowed).
    """

    r: int
    fs: tuple

    def __post_init__(self):
        fs = tuple(tuple(_p(c) for c in f) for f in self.fs)
        if len(fs) != self.r + 2:
            raise ValueError(f"need {self.r + 2} polynomials f_-1..f_{self.r}")
        object.__setattr__(self, "fs", fs)

    def __str__(self) -> str:
        fs = "; ".join("[" + ", ".join(map(str, f)) + "]" for f in self.fs)
        return f"spec r={self.r}, f_-1..f_{self.r} by coefficients in n: {fs}"

    def poly_degree(self, m: int) -> int:
        """Degree in n of f_m (m from -1 to r); -1 for the zero polynomial."""
        return max((d for d, c in enumerate(self.fs[m + 1]) if c), default=-1)

    def eval_f(self, m: int, n: int) -> Poly:
        return Poly.dot((c, n ** d) for d, c in enumerate(self.fs[m + 1]))

    def to_hess(self) -> HessMatrix:
        def fn(n, k):
            if k == n + 1:
                return self.eval_f(-1, n)
            m = n - k
            if 0 <= m <= self.r:
                return self.eval_f(m, n) * math.perm(n, m)
            return 0
        return HessMatrix(fn)


def check_banded_criterion(spec: DiagonalPolySpec) -> bool:
    """Degree test: deg f_{-1} <= r and deg f_m <= r - m for 0 <= m <= r."""
    if spec.poly_degree(-1) > spec.r:
        return False
    return all(spec.poly_degree(m) <= spec.r - m for m in range(spec.r + 1))


def conjugate_and_measure_band(spec: DiagonalPolySpec, n: int) -> int:
    """Observed lower bandwidth of B_xi^{-1} P B_xi on the exact n x n block."""
    return conjugate_by_binomial(spec.to_hess(), Poly.var("xi"), n).lower_bandwidth()


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
