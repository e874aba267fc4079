"""Exact linear algebra: rank, kernel, solve, invert, eigenspaces."""

import random

import pytest

from conftest import mat
from leibniz_lab.errors import DimensionMismatch, SingularMatrix
from leibniz_lab.linalg import (Matrix, NO_SOLUTION, column_span_matrix,
                                eigenspace, in_span, invert, is_singular,
                                kernel_basis, matrices_equal, rank,
                                solve_linear, trace)
from leibniz_lab.scalars import Scalar


def random_matrix(rng, rows, cols, lo=-5, hi=5):
    return mat([[rng.randint(lo, hi) for _ in range(cols)]
                for _ in range(rows)])


def test_rank_and_kernel_dimensions():
    M = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(M) == 2
    kernel = kernel_basis(M)
    assert len(kernel) == 1
    for v in kernel:
        assert (M @ v).is_zero()


def test_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        M = random_matrix(rng, rows, cols)
        kernel = kernel_basis(M)
        assert rank(M) + len(kernel) == cols
        for v in kernel:
            assert (M @ v).is_zero()


def test_solve_consistent_and_inconsistent():
    A = mat([[1, 1], [1, 1]])
    assert solve_linear(A, mat([[1], [2]])) == NO_SOLUTION
    particular, kernel = solve_linear(A, mat([[3], [3]]))
    assert (A @ particular)[0, 0] == 3
    assert len(kernel) == 1


def test_solve_reconstructs_full_solution_set():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 4)
        A = random_matrix(rng, n, n + rng.randint(0, 2))
        x = mat([[rng.randint(-3, 3)] for _ in range(A.cols)])
        b = A @ x
        result = solve_linear(A, b)
        assert result != NO_SOLUTION
        particular, kernel = result
        assert matrices_equal(A @ particular, b)
        # x - particular must lie in the kernel span.
        assert in_span(kernel, x - particular) or (x - particular).is_zero()


def test_invert_roundtrip_and_singular():
    M = mat([[2, 1], [1, 1]])
    assert matrices_equal(M @ invert(M), Matrix.identity(2))
    with pytest.raises(SingularMatrix):
        invert(mat([[1, 2], [2, 4]]))
    assert is_singular(mat([[1, 2], [2, 4]]))
    assert not is_singular(M)


def test_eigenspace_exact():
    E = mat([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    plus = eigenspace(E, Scalar.of(1))
    minus = eigenspace(E, Scalar.of(-1))
    assert len(plus) == 2 and len(minus) == 1
    assert eigenspace(E, Scalar.of(2)) == []


def test_gaussian_matrices():
    i = Scalar.i()
    J = Matrix.from_rows([[Scalar.zero(), -i], [i.conjugate(), i * i]])
    assert J.conjugate()[0, 1] == i
    assert rank(J) == 2
    assert matrices_equal(J @ invert(J), Matrix.identity(2))
    ev = eigenspace(Matrix.diagonal([i, -i]), i)
    assert len(ev) == 1


def test_span_membership():
    cols = [mat([[1], [0], [1]]), mat([[0], [1], [0]])]
    assert in_span(cols, mat([[2], [3], [2]]))
    assert not in_span(cols, mat([[1], [0], [0]]))
    assert in_span([], Matrix.zero(3, 1))


def test_matrix_shape_errors():
    with pytest.raises(DimensionMismatch):
        mat([[1, 2]]) @ mat([[1, 2]])
    with pytest.raises(DimensionMismatch):
        mat([[1, 2]]) + mat([[1], [2]])
    with pytest.raises(DimensionMismatch):
        trace(mat([[1, 2]]))
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows([[Scalar.of(1)], [Scalar.of(1), Scalar.of(2)]])


def test_transpose_hstack_column_ops():
    M = mat([[1, 2], [3, 4]])
    assert M.transpose()[0, 1] == 3
    assert M.hstack(mat([[5], [6]])).cols == 3
    assert column_span_matrix([mat([[1], [2]]), mat([[3], [4]])])[1, 1] == 4
    assert M.apply([Scalar.of(1), Scalar.of(1)]) == [Scalar.of(3),
                                                     Scalar.of(7)]
