"""Branched S-fractions: lattice-path triangles, bidiagonal production
matrices, and the bidiagonal factorizations of the Laguerre matrix.

Run:  python demos/03_branched_continued_fractions.py
"""

from fractions import Fraction

from lagtp import (KappaFamily, Poly, SRCoeffs, kappa_family_coeffs,
                   output_matrix, prodmat_smj, sfrac_tail_series, sr_path_oracle,
                   verify_factorization_cell)
from lagtp.srpaths import SRTriangles, find_hankel_tp2_failure

co = SRCoeffs.symbolic(2)

print("Generalized 2-Stieltjes-Rogers polynomials of type 0 (by recurrence):")
tri = SRTriangles(co, max_j=2)
for n in range(4):
    print("  ", [str(tri.value(0, n, k)) for k in range(n + 1)])

print("\nThe same values by brute-force enumeration of partial 2-Dyck paths:")
for n in range(4):
    print("  ", [str(sr_path_oracle(co, 0, n, k)) for k in range(n + 1)])

print("\nTheir production matrix is a product of bidiagonal factors; its")
print("output matrix regenerates the triangle:")
p = prodmat_smj(co, 0, 5)
assert output_matrix(p, 5) == tri.triangle(0, 5)
print("  O(P^(2;0)) == S^(2;0):", True)
print("  P^(2;0) row 2:", [str(p[2, k]) for k in range(4)])

print("\nThe modified polynomials have ordinary generating function")
print("f_0 f_1 ... f_j with f_k = 1/(1 - alpha_{k+2} t f_{k+1} f_{k+2}):")
gf = sfrac_tail_series(co, 1, 4)
assert all(gf[n] == tri.value(1, n, 0) for n in range(5))
print("  tail-series route == triangle route:", True)

print("\nTable of bidiagonal factorizations of the univariate Laguerre")
print("production matrix: six admissible (type, alpha) cells, four of them")
print("one-parameter families in kappa.")
for j, a, kappa in ((0, -1, Fraction(1)), (0, -1, Fraction(0)),
                    (1, 0, None), (2, 1, Fraction(1, 2))):
    fam = KappaFamily(j, a, kappa)
    coeffs = kappa_family_coeffs(fam)
    shown = ", ".join(str(coeffs.alpha(i)) for i in range(2, 9))
    print(f"  cell {fam.cell_id}, kappa={kappa}: alphas = {shown}, ...")
    assert verify_factorization_cell(fam, 6)
print("all shown cells verified against the quadridiagonal matrix: True")

sym = KappaFamily(0, -1, Poly.var("kappa"))
assert verify_factorization_cell(sym, 6)
print("the j=0 cell also verifies with kappa fully symbolic "
      "(denominators n-(n-1)kappa cleared): True")

print("\nBeyond type m the Hankel-total-positivity claim fails; a searched")
print("witness minor with a negative coefficient:")
w = find_hankel_tp2_failure(2)
print("  rows", w.rows, "cols", w.cols, "minor:", w.minor)
