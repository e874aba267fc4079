"""The package surface: the names ``leibniz_lab`` exports, loaded lazily,
and the runtime dependencies it declares (none).

The package imports a module when one of its names is first used, so the
exports are listed here once more, module by module, as the package
imported them before it loaded lazily.
"""

import pathlib
from importlib import import_module

import pytest

import leibniz_lab

EXPORTED = {
    "dendriform": {"DendriformAlgebra",
                   "compatible_dendriform_from_invertible_rb",
                   "dendriform_rep", "rb_to_dendriform", "subadjacent",
                   "verify_dendriform", "verify_invariant_form",
                   "verify_quadratic_dendriform"},
    "errors": {"LeibnizLabError"},
    "kahler": {"LeviCivitaPair", "S_from_B_E", "S_from_B_J",
               "check_para_kahler", "check_pseudo_kahler",
               "complexify_pseudo_kahler", "isotropic_decomposition_check",
               "levi_civita", "omega_to_J", "realify"},
    "leibniz": {"CheckResult", "LeibnizAlgebra", "Subspace", "direct_sum",
                "is_abelian_subalgebra", "is_subalgebra", "killing_form",
                "verify_leibniz"},
    "linalg": {"Matrix"},
    "representations": {"Representation", "bowtie_algebra", "dual_rep",
                        "regular_rep", "semidirect_product",
                        "verify_representation", "verify_rota_baxter"},
    "scalars": {"GAUSSIAN", "RATIONAL", "Scalar", "format_scalar",
                "parse_scalar", "quotient"},
    "structures": {"classify_complex", "classify_product", "complexify",
                   "check_complex_product_pair",
                   "enumerate_diagonal_products", "J_from_phi", "bracket_J",
                   "induced_dendriform_on_eigenspaces", "phi_map",
                   "product_from_decomposition", "product_iff_iE",
                   "psi_map", "verify_nijenhuis"},
    "symplectic": {"PhaseSpace", "build_phase_space", "canonical_pairing",
                   "sample_nondegenerate", "solve_symplectic_space",
                   "symplectic_to_dendriform", "verify_manin_triple",
                   "verify_phase_space", "verify_symplectic"},
}
NAMES = set().union(*EXPORTED.values())


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_each_export_is_the_object_of_its_module(module):
    source = import_module("leibniz_lab." + module)
    for name in EXPORTED[module]:
        assert getattr(leibniz_lab, name) is getattr(source, name)
        assert vars(leibniz_lab)[name] is getattr(source, name)


def test_dir_and_star_import_list_exactly_the_exports():
    assert set(dir(leibniz_lab)) == NAMES
    namespace = {}
    exec("from leibniz_lab import *", namespace)
    assert set(namespace) - {"__builtins__"} == NAMES


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        leibniz_lab.no_such_name
    with pytest.raises(ImportError):
        exec("from leibniz_lab import no_such_name", {})


def test_the_package_declares_no_runtime_dependency():
    """``dependencies = []`` in the ``[project]`` table: the toolkit runs
    on the standard library alone.  Read with ``tomllib`` where it exists
    (Python 3.11+), and by a line match that Python 3.10 runs too."""
    text = (pathlib.Path(__file__).resolve().parent.parent
            / "pyproject.toml").read_text()
    project = next(table for table in ("\n" + text).split("\n[")
                   if table.startswith("project]"))
    assert "\ndependencies = []\n" in project
    try:
        import tomllib
    except ModuleNotFoundError:   # Python 3.10
        return
    assert tomllib.loads(text)["project"]["dependencies"] == []
