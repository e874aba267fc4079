"""Representations, duals, semidirect products, bowtie doubles."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import mat, random_dendriform, random_leibniz
from leibniz_lab import (LeibnizAlgebra, Representation, bowtie_algebra,
                         compatible_dendriform_from_invertible_rb, dual_rep,
                         rb_to_dendriform, regular_rep, semidirect_product,
                         verify_leibniz, verify_representation,
                         verify_rota_baxter)
from leibniz_lab.dendriform import dendriform_rep
from leibniz_lab.errors import DimensionMismatch, NotRotaBaxter
from leibniz_lab.linalg import Matrix
from leibniz_lab.scalars import Scalar


def test_regular_rep_satisfies_axioms(sl2, heisenberg_like, squares_algebra):
    for A in (sl2, heisenberg_like, squares_algebra):
        assert verify_representation(regular_rep(A)).ok


def test_dual_rep_satisfies_axioms(sl2, heisenberg_like):
    for A in (sl2, heisenberg_like):
        assert verify_representation(dual_rep(regular_rep(A))).ok


def test_dual_rep_matrices(sl2):
    R = regular_rep(sl2)
    Rd = dual_rep(R)
    for i in range(3):
        l, r = R.left_maps[i], R.right_maps[i]
        assert Rd.left_maps[i] == l.transpose().scale(Scalar.of(-1))
        assert Rd.right_maps[i] == l.transpose() + r.transpose()


def test_verify_representation_rejects_with_witness(sl2):
    R = regular_rep(sl2)
    bad = list(R.left_maps)
    bad[0] = bad[0] + Matrix.identity(3)
    check = verify_representation(
        Representation.build(sl2, bad, R.right_maps, 3))
    assert not check.ok
    assert check.indices is not None and check.lhs != check.rhs


def test_semidirect_product_is_leibniz():
    rng = random.Random(5)
    for _ in range(10):
        A = random_leibniz(rng, rng.randint(1, 3))
        total = semidirect_product(dual_rep(regular_rep(A)))
        assert total.dim == 2 * A.dim
        assert verify_leibniz(total).ok


def test_semidirect_blocks(sl2):
    R = regular_rep(sl2)
    total = semidirect_product(R)
    n = 3
    # algebra block reproduced
    for i in range(n):
        for j in range(n):
            assert total.bracket_basis(i, j)[:n] == sl2.bracket_basis(i, j)
    # [e_i, v_b] acts by l, [v_b, e_i] by r, V is abelian
    for i in range(n):
        for b in range(n):
            assert total.bracket_basis(i, n + b)[n:] == \
                list(R.left_maps[i].col(b))
            assert total.bracket_basis(n + b, i)[n:] == \
                list(R.right_maps[i].col(b))
            assert not any(total.bracket_basis(n + b, n + i))


def test_zero_rep_and_build_guards(sl2):
    assert verify_representation(Representation(sl2, 2, {}, {})).ok
    with pytest.raises(DimensionMismatch):
        Representation.build(sl2, [Matrix.identity(2)], [Matrix.identity(2)],
                             2)
    with pytest.raises(DimensionMismatch):   # m is given, never inferred
        Representation.build(sl2, [Matrix.identity(2)] * 3,
                             [Matrix.identity(2)] * 3, 3)


@st.composite
def sparse_actions(draw):
    """An n-dim algebra with a module of a dim m != n, and sparse action
    tensors in the stored layout: left[(i, b)], right[(b, i)]."""
    n = draw(st.integers(0, 4))
    m = draw(st.integers(0, 4).filter(lambda m: m != n))
    value = st.sampled_from((1, -1, 2, Fraction(1, 2)))

    def tensor(key):
        out = {}
        for _ in range(draw(st.integers(0, 2 * n * m))):
            i, b, c = (draw(st.integers(0, d - 1)) for d in (n, m, m))
            out.setdefault(key(i, b), {})[c] = draw(value)
        return out
    return Representation(LeibnizAlgebra.from_brackets(n, {}), m,
                          tensor(lambda i, b: (i, b)),
                          tensor(lambda i, b: (b, i)))


@settings(max_examples=100, deadline=None)
@given(sparse_actions())
def test_build_inverts_the_action_maps(R):
    """Column b of l(e_i) is left[(i, b)] and of r(e_i) is right[(b, i)];
    with m != n a swapped key shows."""
    m = R.rep_dim
    for maps, tensor, key in ((R.left_maps, R.left, lambda i, b: (i, b)),
                              (R.right_maps, R.right, lambda i, b: (b, i))):
        assert len(maps) == R.algebra.dim
        for i, M in enumerate(maps):
            assert (M.rows, M.cols) == (m, m)
            for b in range(m):
                stored = tensor.get(key(i, b), {})
                assert M.col(b) == tuple(stored.get(c, 0) for c in range(m))
    assert Representation.build(R.algebra, R.left_maps, R.right_maps, m) == R


def test_rota_baxter_zero_map_and_bowtie():
    rng = random.Random(9)
    for _ in range(10):
        D = random_dendriform(rng, rng.randint(1, 3))
        R = dual_rep(dendriform_rep(D))
        A = R.algebra
        T = Matrix.zero(A.dim, R.rep_dim)
        assert verify_rota_baxter(R, T).ok
        total = bowtie_algebra(R, T)
        assert verify_leibniz(total).ok


def test_bowtie_with_zero_T_equals_semidirect(sl2):
    R = dual_rep(regular_rep(sl2))
    T = Matrix.zero(3, 3)
    assert bowtie_algebra(R, T) == semidirect_product(R)


def test_rota_baxter_map_must_send_the_module_into_the_algebra(sl2):
    R = dual_rep(regular_rep(sl2))   # a 3-dim module of the 3-dim sl2
    for T in (Matrix.zero(2, 3), Matrix.zero(3, 2)):
        with pytest.raises(DimensionMismatch, match="3-dim module"):
            verify_rota_baxter(R, T)


def test_bowtie_rejects_non_rota_baxter(sl2):
    R = dual_rep(regular_rep(sl2))
    with pytest.raises(NotRotaBaxter):
        bowtie_algebra(R, Matrix.identity(3))


@pytest.mark.parametrize("function", [
    verify_rota_baxter, bowtie_algebra, rb_to_dendriform,
    compatible_dendriform_from_invertible_rb], ids=lambda f: f.__name__)
def test_rota_baxter_functions_read_the_algebra_from_the_representation(
        function):
    """Each takes (R, T) and reads the bracket from R.algebra: there is no
    third argument through which another algebra could be passed."""
    R = dendriform_rep(random_dendriform(random.Random(5), 2))
    T = Matrix.identity(2)   # a Rota-Baxter operator of the dendriform rep
    function(R, T)
    with pytest.raises(TypeError):
        function(R.algebra, R, T)
