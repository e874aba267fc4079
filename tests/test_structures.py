"""Nijenhuis operators, product structures, complex structures."""

import random

import pytest

from conftest import basis_vectors, diag, mat, random_leibniz
from leibniz_lab import (LeibnizAlgebra, J_from_phi, bracket_J, structures,
                         check_complex_product_pair, classify_complex,
                         classify_product, complexify,
                         enumerate_diagonal_products,
                         induced_dendriform_on_eigenspaces, phi_map,
                         product_from_decomposition, product_iff_iE, psi_map,
                         subadjacent, verify_dendriform,
                         verify_leibniz, verify_nijenhuis)
from leibniz_lab.errors import (NotAntiInvolution, NotComplexProduct,
                                NotComplexStructure, NotInvolution,
                                NotSubalgebra, PhiIdentityFails, TooLarge,
                                WrongField)
from leibniz_lab.leibniz import Subspace
from leibniz_lab.linalg import Matrix, rank
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


def test_integrability_needs_the_square_test(sl2):
    """3I is Nijenhuis, but with (3I)^2 = 9I != cI the c-identity
    3[x,y] = 6[x,y] - 27c[x,y] fails for c = 1 and c = -1 alike, so the
    two verdicts agree only after M^2 = cI is tested."""
    M = Matrix.identity(3).scale(Scalar.of(3))
    assert verify_nijenhuis(sl2, M).ok
    for c, rhs in ((1, -42), (-1, 66)):
        assert not structures._squares_to(M, c)
        check = structures.integrability(sl2, M, c)
        assert (check.ok, check.reason, check.indices) == (
            False, "INTEGRABILITY_FAILS", (0, 1))
        assert check.lhs == (0, 6, 0) and check.rhs == (0, rhs, 0)


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


def test_an_empty_eigenspace_is_the_zero_subspace(sl2):
    """E = I has no -1 eigenspace: it is the one zero subspace, whatever
    the dimension, and the +1 eigenspace stores the identity columns."""
    report = classify_product(sl2, Matrix.identity(3))
    assert report.minus_eigenspace == Subspace.from_vectors([])
    assert report.minus_eigenspace.columns == Matrix.zero(0, 0)
    assert report.plus_eigenspace.columns == Matrix.identity(3)
    empty = classify_product(LeibnizAlgebra.from_brackets(1, {}),
                             diag(-1)).plus_eigenspace
    assert empty == report.minus_eigenspace


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
        enumerate_diagonal_products(LeibnizAlgebra.from_brackets(25, {}))


def test_product_from_decomposition_roundtrip(heisenberg_like):
    A = heisenberg_like
    report = classify_product(A, diag(1, 1, -1, -1))
    E = product_from_decomposition(A, report.plus_eigenspace,
                                   report.minus_eigenspace)
    assert E == diag(1, 1, -1, -1)


def test_product_from_decomposition_rejects(sl2, e1_squared):
    # span(e) and span(f) are subalgebras but do not fill sl2.
    e_line = Subspace.from_vectors([sl2.basis_vector(1)])
    f_line = Subspace.from_vectors([sl2.basis_vector(2)])
    from leibniz_lab.errors import NotDirectSum
    with pytest.raises(NotDirectSum):
        product_from_decomposition(sl2, e_line, f_line)
    # [e1, e1] = e2 leaves span(e1); span(e2) twice has the right
    # dimensions but meets itself.
    e1, e2 = (Subspace.from_vectors([e1_squared.basis_vector(i)])
              for i in range(2))
    with pytest.raises(NotSubalgebra):
        product_from_decomposition(e1_squared, e1, e2)
    with pytest.raises(NotDirectSum):
        product_from_decomposition(e1_squared, e2, e2)


def test_complex_classification_catalogue(squares_algebra):
    A = squares_algebra
    for J in J_BLOCKS:
        report = classify_complex(A, J)
        assert report.is_complex and report.is_abelian
        assert report.eigen_i.dim == 2 and report.eigen_minus_i.dim == 2
        # conjugation swaps the two eigenspaces
        for v in basis_vectors(report.eigen_i):
            conj = [c.conjugate() for c in v]
            assert rank(Matrix.from_rows(
                basis_vectors(report.eigen_minus_i) + [conj])) == 2


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
    assert (C.dim, C.brackets) == (sl2.dim, sl2.brackets)
    with pytest.raises(WrongField):
        complexify(C)


def test_phi_psi_projections(squares_algebra):
    J = J_BLOCKS[0]
    phi, psi = phi_map(J), psi_map(J)
    I = Matrix.identity(4)
    for half_shift in (phi_map, psi_map):
        with pytest.raises(NotAntiInvolution):
            half_shift(I)   # I^2 = I, not -I
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
        assert (half_diff.dim, half_diff.brackets) == (4, {})
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
        product_iff_iE(LeibnizAlgebra.from_brackets(2, {}), diag(1, -1))


def test_product_iff_iE_builds_no_product_report(monkeypatch):
    """The product verdict is classify_product's, read without a report."""
    rng = random.Random(8)
    cases = []
    for _ in range(10):
        A = complexify(random_leibniz(rng, rng.randint(2, 3)))
        E = diag(*[rng.choice((1, -1)) for _ in range(A.dim)])
        cases.append((A, E, classify_product(A, E).is_product))
    assert {ok for _, _, ok in cases} == {True, False}
    calls = []
    monkeypatch.setattr(structures, "classify_product",
                        lambda A, M: calls.append(M))
    for A, E, ok in cases:
        assert product_iff_iE(A, E)[2] == ok
    with pytest.raises(NotInvolution):
        product_iff_iE(complexify(LeibnizAlgebra.from_brackets(2, {})),
                       diag(1, 2))
    assert calls == []


def test_complex_product_pair_and_induced_dendriform():
    from leibniz_lab import DendriformAlgebra, omega_to_J
    rng = random.Random(6)
    from conftest import random_dendriform_with_skew, random_invariant_skew
    cases = [DendriformAlgebra(2, {}, {})]
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
            basis = basis_vectors(space)
            for a in range(space.dim):
                for b in range(space.dim):
                    ambient = P.total.bracket(basis[a], basis[b])
                    induced = subadjacent(DD).bracket_basis(a, b)
                    rebuilt = [Scalar.zero() for _ in range(P.total.dim)]
                    for t, c in enumerate(induced):
                        rebuilt = [rc + c * sc for rc, sc
                                   in zip(rebuilt, basis[t])]
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
    D = DendriformAlgebra(2, {}, {})
    omega = mat([[0, 1], [-1, 0]])
    P, J = omega_to_J(D, omega)
    E = diag(1, 1, -1, -1)
    # phi = the form's sharp map, written in eigenbasis coordinates
    J2 = J_from_phi(P.total, E, omega.transpose())
    assert J == J2
    assert classify_complex(P.total, J2).is_complex
    assert check_complex_product_pair(P.total, J2, E).ok


def test_J_from_phi_identity_guard(heisenberg_like, sl2):
    # [e1, e3] = 2 e4 obstructs every isomorphism between the eigenspaces
    # of diag(1,1,-1,-1): the identity forces [x1, phi(x2)] = 0.
    with pytest.raises(PhiIdentityFails):
        J_from_phi(heisenberg_like, diag(1, 1, -1, -1), Matrix.identity(2))
    from leibniz_lab.errors import SingularMatrix
    with pytest.raises(SingularMatrix):
        J_from_phi(heisenberg_like, diag(1, 1, -1, -1), mat([[0, 0], [0, 0]]))
    with pytest.raises(SingularMatrix):   # a rank-1 phi: [P | Q] has rank 3
        J_from_phi(heisenberg_like, diag(1, 1, -1, -1), mat([[1, 1], [1, 1]]))
    # diag(1, -1, -1) is an involution, but [e, f] = h leaves span(e, f).
    with pytest.raises(NotInvolution):
        J_from_phi(sl2, diag(1, -1, -1), Matrix.identity(1))
    # diag(1, 1, -1) is a product structure with eigenspaces of dimensions
    # 2 and 1, which no isomorphism phi joins.
    from leibniz_lab.errors import DimensionMismatch
    with pytest.raises(DimensionMismatch):
        J_from_phi(sl2, diag(1, 1, -1), Matrix.identity(1))


@pytest.mark.parametrize("seed", [0, 1])
def test_induced_dendriform_classifies_no_product(monkeypatch, seed):
    """The pair check, the induced dendriform structures and J_from_phi
    read verdicts and eigenspaces directly: no classify_product report."""
    from conftest import random_dendriform_with_skew
    from leibniz_lab import omega_to_J
    D = random_dendriform_with_skew(random.Random(seed))
    omega = mat([[0, 3], [-3, 0]])
    P, J = omega_to_J(D, omega)
    E = diag(1, 1, -1, -1)
    calls = []

    def counted(A, M):
        calls.append(M)
        return classify_product(A, M)

    monkeypatch.setattr(structures, "classify_product", counted)
    assert check_complex_product_pair(P.total, J, E).ok
    dp, dm = induced_dendriform_on_eigenspaces(P.total, J, E)
    assert J_from_phi(P.total, E, omega.transpose()) == J
    assert calls == []
    assert verify_dendriform(dp).ok and verify_dendriform(dm).ok
