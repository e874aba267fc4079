"""Dendriform algebras, Rota-Baxter operators, invariant/quadratic forms."""

import random

import pytest

from conftest import mat, random_dendriform, random_invariant_skew
from leibniz_lab import (DendriformAlgebra,
                         compatible_dendriform_from_invertible_rb,
                         rb_to_dendriform, subadjacent,
                         verify_dendriform, verify_invariant_form,
                         verify_leibniz, verify_quadratic_dendriform,
                         verify_rota_baxter)
from leibniz_lab.dendriform import dendriform_rep
from leibniz_lab.errors import (DegenerateForm, DimensionMismatch,
                                NotRotaBaxter, NotSymmetric)
from leibniz_lab.representations import verify_representation
from leibniz_lab.scalars import Scalar


@pytest.fixture
def matrix_plus_vector():
    """dim-2 model: (A+u)<(B+v) = AB + Av, (A+u)>(B+v) = -BA on
    span(a, u) with a*a = a, a*u = u (1x1 matrices acting on a line)."""
    z, o, m = Scalar.zero(), Scalar.of(1), Scalar.of(-1)
    left = [[(o, z), (z, o)], [(z, z), (z, z)]]
    right = [[(m, z), (z, z)], [(z, z), (z, z)]]
    return DendriformAlgebra.from_constants(left, right)


def test_worked_example_is_dendriform(matrix_plus_vector):
    assert verify_dendriform(matrix_plus_vector).ok
    assert verify_leibniz(subadjacent(matrix_plus_vector)).ok


def test_random_dendriform_families():
    rng = random.Random(21)
    for _ in range(20):
        D = random_dendriform(rng, rng.randint(1, 4))
        assert verify_dendriform(D).ok
        assert verify_leibniz(subadjacent(D)).ok


def test_verify_dendriform_rejects_with_witness():
    o = Scalar.of(1)
    z = Scalar.zero()
    left = [[(o, z), (z, z)], [(z, z), (z, o)]]
    right = [[(z, o), (z, z)], [(z, z), (z, z)]]
    D = DendriformAlgebra.from_constants(left, right)
    check = verify_dendriform(D)
    assert not check.ok and check.reason in ("p1", "p2", "p3")
    assert check.lhs != check.rhs


def test_subadjacent_sums_products(matrix_plus_vector):
    D = matrix_plus_vector
    A = subadjacent(D)
    for i in range(D.dim):
        for j in range(D.dim):
            x, y = D.basis_vector(i), D.basis_vector(j)
            assert A.bracket_basis(i, j) == [
                a + b for a, b in zip(D.left(x, y), D.right(x, y))]


def test_dendriform_rep_axioms(matrix_plus_vector):
    rng = random.Random(2)
    reps = [dendriform_rep(matrix_plus_vector)]
    for _ in range(10):
        reps.append(dendriform_rep(random_dendriform(rng, rng.randint(1, 3))))
    for R in reps:
        assert verify_representation(R).ok


def test_dendriform_rep_matrices(matrix_plus_vector):
    D = matrix_plus_vector
    R = dendriform_rep(D)
    for i in range(D.dim):
        for j in range(D.dim):
            x, y = D.basis_vector(i), D.basis_vector(j)
            assert list(R.left_maps[i].col(j)) == D.left(x, y)
            assert list(R.right_maps[i].col(j)) == D.right(y, x)


def test_identity_is_rota_baxter_for_dendriform_rep(matrix_plus_vector):
    """T = id intertwines the tautological rep with the bracket."""
    from leibniz_lab.linalg import Matrix
    D = matrix_plus_vector
    R = dendriform_rep(D)
    T = Matrix.identity(D.dim)
    assert verify_rota_baxter(R.algebra, R, T).ok
    assert rb_to_dendriform(R.algebra, R, T) == D
    assert compatible_dendriform_from_invertible_rb(R.algebra, R, T) == D


def test_rota_baxter_rejects(sl2):
    from leibniz_lab import regular_rep
    from leibniz_lab.linalg import Matrix
    R = regular_rep(sl2)
    check = verify_rota_baxter(sl2, R, Matrix.identity(3))
    assert not check.ok and check.reason == "ROTA_BAXTER_FAILS"
    with pytest.raises(NotRotaBaxter):
        rb_to_dendriform(sl2, R, Matrix.identity(3))


def test_invariant_form_checks(matrix_plus_vector):
    rng = random.Random(4)
    D = matrix_plus_vector
    omega = random_invariant_skew(rng, D)
    if omega is not None:
        assert verify_invariant_form(D, omega).ok
    # Zero dendriform: every nonsingular form is invariant.
    Z = DendriformAlgebra(2, {}, {})
    assert verify_invariant_form(Z, mat([[1, 0], [0, 1]])).ok
    with pytest.raises(DegenerateForm):
        verify_invariant_form(Z, mat([[1, 0], [0, 0]]))


def test_invariant_form_rejects(matrix_plus_vector):
    check = verify_invariant_form(matrix_plus_vector, mat([[1, 0], [0, 1]]))
    assert not check.ok
    assert check.reason in ("INVARIANT_LEFT_FAILS", "INVARIANT_RIGHT_FAILS")


def test_quadratic_form_guards():
    Z = DendriformAlgebra(2, {}, {})
    assert verify_quadratic_dendriform(Z, mat([[0, 1], [1, 0]])).ok
    with pytest.raises(NotSymmetric):
        verify_quadratic_dendriform(Z, mat([[0, 1], [-1, 0]]))
    with pytest.raises(DegenerateForm):
        verify_quadratic_dendriform(Z, mat([[0, 0], [0, 0]]))


def test_invariant_form_must_match_dimension():
    with pytest.raises(DimensionMismatch):
        verify_invariant_form(DendriformAlgebra(1, {}, {}),
                              mat([[1, 0], [0, 1]]))


def test_quadratic_form_must_match_dimension():
    with pytest.raises(DimensionMismatch):
        verify_quadratic_dendriform(DendriformAlgebra(2, {}, {}), mat(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_products_reject_vectors_of_the_wrong_length():
    # Like LeibnizAlgebra.bracket: a length-3 vector on the 2-dim zero
    # dendriform used to give a length-3 product without complaint.
    D = DendriformAlgebra(2, {}, {})
    long = [Scalar.of(1)] * 3
    for product in (D.left, D.right, subadjacent(D).bracket):
        for x, y in ((long, long), (long, D.basis_vector(0)),
                     (D.basis_vector(0), long)):
            with pytest.raises(DimensionMismatch):
                product(x, y)
