"""Exact-arithmetic toolkit for Leibniz algebras.

Verification and construction of symplectic, product, complex, para-Kahler
and pseudo-Kahler structures, dendriform algebras, Rota-Baxter operators,
phase spaces, Manin triples and Levi-Civita products — all over the exact
fields Q and Q(i).

Importing the package loads none of its modules: each exported name is
imported from its module on first access (PEP 562), so a process compiles
only the modules it uses.
"""

from importlib import import_module

# The export list: each module with the names taken from it.
_MODULES = {
    "dendriform": ("DendriformAlgebra",
                   "compatible_dendriform_from_invertible_rb",
                   "dendriform_rep", "rb_to_dendriform", "subadjacent",
                   "verify_dendriform", "verify_invariant_form",
                   "verify_quadratic_dendriform"),
    "errors": ("LeibnizLabError",),
    "kahler": ("LeviCivitaPair", "S_from_B_E", "S_from_B_J",
               "check_para_kahler", "check_pseudo_kahler",
               "complexify_pseudo_kahler", "isotropic_decomposition_check",
               "levi_civita", "omega_to_J", "realify"),
    "leibniz": ("CheckResult", "LeibnizAlgebra", "Subspace", "direct_sum",
                "is_abelian_subalgebra", "is_subalgebra", "killing_form",
                "verify_leibniz"),
    "linalg": ("Matrix",),
    "representations": ("Representation", "bowtie_algebra", "dual_rep",
                        "regular_rep", "semidirect_product",
                        "verify_representation", "verify_rota_baxter"),
    "scalars": ("GAUSSIAN", "RATIONAL", "Scalar", "format_scalar",
                "parse_scalar", "quotient"),
    "structures": ("classify_complex", "classify_product", "complexify",
                   "check_complex_product_pair",
                   "enumerate_diagonal_products", "J_from_phi", "bracket_J",
                   "induced_dendriform_on_eigenspaces", "phi_map",
                   "product_from_decomposition", "product_iff_iE", "psi_map",
                   "verify_nijenhuis"),
    "symplectic": ("PhaseSpace", "build_phase_space", "canonical_pairing",
                   "sample_nondegenerate", "solve_symplectic_space",
                   "symplectic_to_dendriform", "verify_manin_triple",
                   "verify_phase_space", "verify_symplectic"),
}
_EXPORTS = {name: module for module, names in _MODULES.items()
            for name in names}
__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
