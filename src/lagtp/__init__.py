"""Exact-arithmetic toolkit for Laguerre, rook and Lah polynomial families:
coefficient matrices, production matrices, branched continued fractions and
coefficientwise total positivity certification at finite truncation order.

Everything is exact: sparse integer/rational polynomials, truncated power
series built from ODE recurrences, minors expanded over cached smaller
minors, and brute-force combinatorial oracles cross-validating every
closed form.
"""

from .polyring import ExactDivisionError, Poly, rising
from .series import (Series, series_pow_sym, series_reciprocal,
                     solve_logderiv, solve_riccati)
from .matrices import (DiagonalPolySpec, Mismatch, Truncation, TPReport, TPWitness,
                       XorShift64, binomial_truncation,
                       bx_conjugate_eaz_identity_check, conjugate_by_binomial,
                       delta_matrix, eaz_matrix, first_difference, hankel_truncation,
                       output_matrix, production_of, riordan_matrix,
                       tp_check_sampled, tp_check_symbolic,
                       tp_check_tridiagonal, unit_lower_inverse)
from .digraphs import (DigraphStats, LaguerreDigraph, LimitExceeded, classify,
                       enumerate_digraphs, oracle_entry, permutation_oracles)
from .laguerre import (EdgeWeights, LaguerreParams, VertexWeights,
                       coeff_matrix_first_mv, coeff_matrix_second_mv,
                       coeff_matrix_uni, factorization_check, monic_laguerre,
                       monic_laguerre_reversed, prodmat, rowgen_polys,
                       unsigned_self_inverse_check)
from .srpaths import (InadmissibleCellError, KappaFamily, SRCoeffs,
                      SRTriangles, kappa_family_coeffs, prodmat_smj,
                      sfrac_tail_series, sr_path_oracle, sr_poly,
                      verify_factorization_cell)
from .quadtp import (QuadFactorParams, QuadVariantParams, build_general_quad,
                     build_variant_quad)
from .banded import check_banded_criterion, conjugate_and_measure_band

__version__ = "0.1.0"
