"""Exact-arithmetic toolkit for Leibniz algebras.

Verification and construction of symplectic, product, complex, para-Kahler
and pseudo-Kahler structures, dendriform algebras, Rota-Baxter operators,
phase spaces, Manin triples and Levi-Civita products — all over the exact
fields Q and Q(i).
"""

from .dendriform import (DendriformAlgebra, compatible_dendriform_from_invertible_rb,
                         dendriform_rep, rb_to_dendriform, subadjacent,
                         verify_dendriform, verify_invariant_form,
                         verify_quadratic_dendriform)
from .errors import LeibnizLabError
from .kahler import (LeviCivitaPair, S_from_B_E, S_from_B_J, check_para_kahler,
                     check_pseudo_kahler, complexify_pseudo_kahler,
                     isotropic_decomposition_check, levi_civita, omega_to_J,
                     realify)
from .leibniz import (CheckResult, LeibnizAlgebra, Subspace, direct_sum,
                      is_abelian_subalgebra, is_subalgebra, is_two_sided_ideal,
                      killing_form, verify_leibniz)
from .linalg import Matrix
from .representations import (Representation, bowtie_algebra, dual_rep,
                              regular_rep, semidirect_product,
                              verify_representation, verify_rota_baxter)
from .scalars import (GAUSSIAN, RATIONAL, Scalar, format_scalar, parse_scalar,
                      quotient)
from .structures import (classify_complex, classify_product, complexify,
                         check_complex_product_pair,
                         enumerate_diagonal_products, J_from_phi,
                         bracket_J, induced_dendriform_on_eigenspaces,
                         phi_map, product_from_decomposition, product_iff_iE,
                         psi_map, verify_nijenhuis)
from .symplectic import (PhaseSpace, build_phase_space, canonical_pairing,
                         sample_nondegenerate, solve_symplectic_space,
                         symplectic_to_dendriform, verify_manin_triple,
                         verify_phase_space, verify_symplectic)

__version__ = "0.1.0"
