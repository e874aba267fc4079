"""Nijenhuis operators, product structures, complex structures."""

import random

import pytest

from conftest import diag, mat, random_leibniz
from leibniz_lab import (LeibnizAlgebra, J_from_phi, bracket_J,
                         check_complex_product_pair, classify_complex,
                         classify_product, complexify,
                         enumerate_diagonal_products,
                         induced_dendriform_on_eigenspaces, phi_map,
                         product_from_decomposition, product_iff_iE, psi_map,
                         subadjacent, tensors_equal, verify_dendriform,
                         verify_leibniz, verify_nijenhuis)
from leibniz_lab.errors import (NotAntiInvolution, NotComplexProduct,
                                NotComplexStructure, NotInvolution,
                                NotSubalgebra, PhiIdentityFails, TooLarge,
                                WrongField)
from leibniz_lab.leibniz import Subspace
from leibniz_lab.linalg import Matrix
from leibniz_lab.scalars import GAUSSIAN, Scalar


J_BLOCKS = [
    mat([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]),
    mat([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]),
    mat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]),
    mat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]),
]


def test_nijenhuis_scalar_multiples(sl2):
    assert verify_nijenhuis(sl2, Matrix.identity(3)).ok
    assert verify_nijenhuis(sl2, Matrix.identity(3).scale(Scalar.of(3))).ok
    N = diag(1, 0, 0)
    check = verify_nijenhuis(sl2, N)
    assert not check.ok and check.reason == "NIJENHUIS_FAILS"


def test_product_classification_catalogue(heisenberg_like):
    A = heisenberg_like
    expectations = {
        # diagonal signs -> (strict, abelian, paracomplex)
        (1, 1, -1, -1): (False, True, True),
        (-1, -1, 1, 1): (False, True, True),
        (1, -1, -1, 1): (False, True, True),
        (1, -1, -1, -1): (False, True, False),
        (1, -1, 1, 1): (True, False, False),
        (-1, 1, -1, -1): (True, False, False),
    }
    for signs, (strict, abelian, para) in expectations.items():
        report = classify_product(A, diag(*signs))
        assert report.is_product
        assert report.is_strict == strict
        assert report.is_abelian == abelian
        assert report.is_paracomplex == para


def test_classify_product_requires_involution(sl2):
    with pytest.raises(NotInvolution):
        classify_product(sl2, Matrix.identity(3).scale(Scalar.of(2)))


def test_enumerate_diagonal_products(heisenberg_like):
    found = enumerate_diagonal_products(heisenberg_like)
    diagonals = {tuple(int(E[i, i].real) for i in range(4)) for E, _ in found}
    for signs in [(1, 1, -1, -1), (-1, -1, 1, 1), (1, -1, -1, 1),
                  (1, -1, -1, -1), (1, -1, 1, 1), (-1, 1, -1, -1)]:
        assert signs in diagonals
    for E, report in found:
        assert report.is_product


def test_enumerate_guard():
    with pytest.raises(TooLarge):
        enumerate_diagonal_products(LeibnizAlgebra.abelian(25))


def test_product_from_decomposition_roundtrip(heisenberg_like):
    A = heisenberg_like
    report = classify_product(A, diag(1, 1, -1, -1))
    E = product_from_decomposition(A, report.plus_eigenspace,
                                   report.minus_eigenspace)
    assert E == diag(1, 1, -1, -1)


def test_product_from_decomposition_rejects(sl2):
    # span(e) and span(f) are subalgebras but do not fill sl2.
    e_line = Subspace.from_vectors([sl2.basis_vector(1)])
    f_line = Subspace.from_vectors([sl2.basis_vector(2)])
    from leibniz_lab.errors import NotDirectSum
    with pytest.raises(NotDirectSum):
        product_from_decomposition(sl2, e_line, f_line)


def test_complex_classification_catalogue(squares_algebra):
    A = squares_algebra
    for J in J_BLOCKS:
        report = classify_complex(A, J)
        assert report.is_complex and report.is_abelian
        assert report.eigen_i.dim == 2 and report.eigen_minus_i.dim == 2
        # conjugation swaps the two eigenspaces
        for v in report.eigen_i.basis:
            conj = [c.conjugate() for c in v]
            assert report.eigen_minus_i.contains(conj)


def test_classify_complex_guards(sl2):
    with pytest.raises(NotAntiInvolution):
        classify_complex(sl2, Matrix.identity(3))
    gaussian = complexify(sl2)
    with pytest.raises(WrongField):
        classify_complex(gaussian, Matrix.identity(3))


def test_complexify(sl2):
    C = complexify(sl2)
    assert C.field == GAUSSIAN
    assert verify_leibniz(C).ok
    assert tensors_equal(C, sl2)
    with pytest.raises(WrongField):
        complexify(C)


def test_phi_psi_projections(squares_algebra):
    J = J_BLOCKS[0]
    phi, psi = phi_map(J), psi_map(J)
    I = Matrix.identity(4)
    assert phi + psi == I
    assert phi @ phi == phi   # idempotent projections
    assert psi @ psi == psi
    assert phi @ psi == Matrix.zero(4, 4)
    # phi lands in the +i eigenspace of J
    assert J @ phi == phi.scale(Scalar.i())
    assert J @ psi == psi.scale(-Scalar.i())


def test_bracket_J_is_leibniz(squares_algebra):
    for J in J_BLOCKS:
        half_diff = bracket_J(squares_algebra, J)
        assert verify_leibniz(half_diff).ok
        # abelian J means [x,y] = [Jx,Jy], so the halved difference is zero
        assert tensors_equal(half_diff, LeibnizAlgebra.abelian(4))
    with pytest.raises(NotComplexStructure):
        bad = LeibnizAlgebra.from_brackets(
            2, {(0, 0): {0: Scalar.of(1)}})
        bracket_J(bad, mat([[0, -1], [1, 0]]))


def test_complex_guards_without_a_full_report(sl2):
    """bracket_J and check_complex_product_pair keep classify_complex's
    guards and reasons while computing no eigenspaces."""
    with pytest.raises(NotAntiInvolution):
        bracket_J(sl2, Matrix.identity(3))
    for check in (bracket_J, lambda A, J: check_complex_product_pair(A, J, J)):
        with pytest.raises(WrongField):
            check(complexify(sl2), Matrix.identity(3))
    bad = LeibnizAlgebra.from_brackets(2, {(0, 0): {0: Scalar.of(1)}})
    assert check_complex_product_pair(
        bad, mat([[0, -1], [1, 0]]), diag(1, -1)).reason == "COMPLEX_FAILS"


def test_product_iff_iE_correspondence():
    rng = random.Random(8)
    for _ in range(10):
        A = complexify(random_leibniz(rng, rng.randint(2, 3)))
        signs = [rng.choice((1, -1)) for _ in range(A.dim)]
        J, agree, p_ok, c_ok = product_iff_iE(A, diag(*signs))
        assert agree  # the two integrability conditions are equivalent
    with pytest.raises(WrongField):
        product_iff_iE(LeibnizAlgebra.abelian(2), diag(1, -1))


def test_complex_product_pair_and_induced_dendriform():
    from leibniz_lab import DendriformAlgebra, omega_to_J
    rng = random.Random(6)
    from conftest import random_dendriform_with_skew, random_invariant_skew
    cases = [DendriformAlgebra.zero(2)]
    while len(cases) < 6:
        cases.append(random_dendriform_with_skew(rng))
    hits = 0
    for D in cases:
        omega = random_invariant_skew(rng, D)
        if omega is None:
            continue
        P, J = omega_to_J(D, omega)
        E = diag(*([1] * D.dim + [-1] * D.dim))
        assert check_complex_product_pair(P.total, J, E).ok
        dp, dm = induced_dendriform_on_eigenspaces(P.total, J, E)
        assert verify_dendriform(dp).ok and verify_dendriform(dm).ok
        # the sub-adjacent bracket of each induced structure restricts
        # the ambient bracket to the eigenspace
        for space, DD in ((classify_product(P.total, E).plus_eigenspace, dp),
                          (classify_product(P.total, E).minus_eigenspace,
                           dm)):
            for a in range(space.dim):
                for b in range(space.dim):
                    ambient = P.total.bracket(list(space.basis[a]),
                                              list(space.basis[b]))
                    induced = DD.both(DD.basis_vector(a), DD.basis_vector(b))
                    rebuilt = [Scalar.zero() for _ in range(P.total.dim)]
                    for t, c in enumerate(induced):
                        rebuilt = [rc + c * sc for rc, sc
                                   in zip(rebuilt, space.basis[t])]
                    assert ambient == rebuilt
        hits += 1
    assert hits >= 4


def test_induced_dendriform_rejects_non_pair(squares_algebra):
    E = mat([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    with pytest.raises(NotComplexProduct):
        induced_dendriform_on_eigenspaces(squares_algebra, J_BLOCKS[0], E)


def test_complex_product_pair_reason_codes(squares_algebra):
    A = squares_algebra
    assert check_complex_product_pair(
        A, Matrix.identity(4), Matrix.identity(4)).reason \
        == "NOT_ANTI_INVOLUTION"
    assert check_complex_product_pair(
        A, J_BLOCKS[0], J_BLOCKS[0]).reason == "NOT_INVOLUTION"
    # E = I commutes with J instead of anticommuting
    assert check_complex_product_pair(
        A, J_BLOCKS[0], Matrix.identity(4)).reason == "ANTICOMMUTATION_FAILS"


def test_J_from_phi_matches_form_construction():
    from leibniz_lab import DendriformAlgebra, omega_to_J
    D = DendriformAlgebra.zero(2)
    omega = mat([[0, 1], [-1, 0]])
    P, J = omega_to_J(D, omega)
    E = diag(1, 1, -1, -1)
    # phi = the form's sharp map, written in eigenbasis coordinates
    J2 = J_from_phi(P.total, E, omega.transpose())
    assert J == J2
    assert classify_complex(P.total, J2).is_complex
    assert check_complex_product_pair(P.total, J2, E).ok


def test_J_from_phi_identity_guard(heisenberg_like):
    # [e1, e3] = 2 e4 obstructs every isomorphism between the eigenspaces
    # of diag(1,1,-1,-1): the identity forces [x1, phi(x2)] = 0.
    with pytest.raises(PhiIdentityFails):
        J_from_phi(heisenberg_like, diag(1, 1, -1, -1), Matrix.identity(2))
    from leibniz_lab.errors import SingularMatrix
    with pytest.raises(SingularMatrix):
        J_from_phi(heisenberg_like, diag(1, 1, -1, -1), mat([[0, 0], [0, 0]]))


@pytest.mark.parametrize("seed", [0, 1])
def test_induced_dendriform_classifies_the_product_once(monkeypatch, seed):
    from conftest import random_dendriform_with_skew
    from leibniz_lab import omega_to_J, structures
    D = random_dendriform_with_skew(random.Random(seed))
    P, J = omega_to_J(D, mat([[0, 3], [-3, 0]]))
    E = diag(1, 1, -1, -1)
    calls = []

    def counted(A, M):
        calls.append(M)
        return classify_product(A, M)

    monkeypatch.setattr(structures, "classify_product", counted)
    dp, dm = induced_dendriform_on_eigenspaces(P.total, J, E)
    assert len(calls) == 1
    assert verify_dendriform(dp).ok and verify_dendriform(dm).ok
