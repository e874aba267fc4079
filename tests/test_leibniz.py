"""Leibniz algebras: identity checking, subalgebras, sums, Killing form."""

import random

import pytest

from conftest import mat, random_leibniz
from leibniz_lab import (CheckResult, DendriformAlgebra, LeibnizAlgebra,
                         Subspace, direct_sum, is_abelian_subalgebra,
                         is_subalgebra, killing_form, verify_leibniz,
                         verify_symplectic)
from leibniz_lab.errors import DimensionMismatch, FieldMismatch
from leibniz_lab.linalg import is_singular
from leibniz_lab.scalars import GAUSSIAN, Scalar


def test_bracket_bilinear(heisenberg_like):
    A = heisenberg_like
    x = [Scalar.of(1), Scalar.of(0), Scalar.of(3), Scalar.of(0)]
    assert A.bracket(x, x) == [Scalar.zero(), Scalar.zero(), Scalar.zero(),
                               Scalar.of(6)]
    assert A.bracket_basis(0, 2) == [Scalar.zero(), Scalar.zero(),
                                     Scalar.zero(), Scalar.of(2)]


def test_verify_leibniz_accepts(heisenberg_like, squares_algebra, sl2):
    for A in (heisenberg_like, squares_algebra, sl2):
        assert verify_leibniz(A).ok


def test_verify_leibniz_rejects_with_witness():
    # [e1,e2]=e1 and [e2,e1]=e2 violates the identity.
    A = LeibnizAlgebra.from_brackets(2, {(0, 1): {0: Scalar.of(1)},
                                         (1, 0): {1: Scalar.of(1)}})
    check = verify_leibniz(A)
    assert not check.ok and check.reason == "LEIBNIZ_FAILS"
    i, j, k = check.indices
    ei, ej, ek = (A.basis_vector(i), A.basis_vector(j), A.basis_vector(k))
    lhs = A.bracket(ei, A.bracket(ej, ek))
    rhs = [a + b for a, b in zip(A.bracket(A.bracket(ei, ej), ek),
                                 A.bracket(ej, A.bracket(ei, ek)))]
    assert (tuple(lhs), tuple(rhs)) == (check.lhs, check.rhs) and lhs != rhs


def test_a_check_result_is_true_exactly_when_it_passed(sl2):
    assert verify_leibniz(sl2) and bool(CheckResult(True)) is True
    assert not CheckResult(False, "LEIBNIZ_FAILS", (0, 1, 0), (1,), (0,))


def test_random_nilpotent_algebras_are_leibniz():
    rng = random.Random(3)
    for _ in range(20):
        assert verify_leibniz(random_leibniz(rng, rng.randint(1, 4))).ok


def test_subspace_membership_and_subalgebra(sl2):
    h = Subspace.from_vectors([sl2.basis_vector(0)])
    assert is_subalgebra(sl2, h)
    assert is_abelian_subalgebra(sl2, h)
    borel = Subspace.from_vectors([sl2.basis_vector(0), sl2.basis_vector(1)])
    assert is_subalgebra(sl2, borel)
    assert not is_abelian_subalgebra(sl2, borel)


def test_subspace_rejects_dependent_basis():
    with pytest.raises(DimensionMismatch):
        Subspace.from_vectors([[Scalar.of(1), Scalar.of(2)],
                               [Scalar.of(2), Scalar.of(4)]])


def test_direct_sum_block_structure(sl2, heisenberg_like):
    total = direct_sum(sl2, heisenberg_like)
    assert total.dim == 7
    assert verify_leibniz(total).ok
    assert total.bracket_basis(0, 1)[1] == 2      # sl2 block survives
    assert total.bracket_basis(3, 5)[6] == 2      # shifted second block
    assert not any(total.bracket_basis(0, 4))


def test_direct_sum_field_mismatch(sl2):
    gaussian = LeibnizAlgebra.from_brackets(1, {}, GAUSSIAN)
    with pytest.raises(FieldMismatch):
        direct_sum(sl2, gaussian)


def test_killing_form_sl2(sl2):
    B = killing_form(sl2)
    # Classical values: B(h,h) = 8, B(e,f) = B(f,e) = 4, rest zero.
    assert B[0, 0] == 8 and B[1, 2] == 4 and B[2, 1] == 4
    assert B[0, 1] == 0 and B[1, 1] == 0 and B[2, 2] == 0
    assert B == B.transpose()
    assert not is_singular(B)
    assert verify_symplectic(sl2, B).ok


def test_tensor_shape_guard():
    with pytest.raises(DimensionMismatch):
        DendriformAlgebra.from_constants([[[Scalar.zero()]], []],
                                         [[[Scalar.zero()]], []])


def test_zero_dimensional_algebra_vacuous():
    empty = LeibnizAlgebra.from_brackets(0, {})
    assert verify_leibniz(empty).ok
    assert empty == LeibnizAlgebra.from_brackets(0, {})
