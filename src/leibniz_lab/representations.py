"""Representations of Leibniz algebras and the constructions they carry."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatch, NotRotaBaxter
from .leibniz import (CheckResult, LeibnizAlgebra, first_failure,
                      tensor_from, unit, vadd, vsub)
from .linalg import Matrix
from .scalars import Scalar


@dataclass(frozen=True)
class Representation:
    algebra: LeibnizAlgebra
    rep_dim: int
    left_maps: tuple   # l(e_i), m x m matrices, one per basis index
    right_maps: tuple  # r(e_i)

    @staticmethod
    def build(algebra: LeibnizAlgebra, left_maps: Sequence[Matrix],
              right_maps: Sequence[Matrix]) -> "Representation":
        if len(left_maps) != algebra.dim or len(right_maps) != algebra.dim:
            raise DimensionMismatch("need one l and one r matrix per basis index")
        m = left_maps[0].rows if left_maps else 0
        for M in list(left_maps) + list(right_maps):
            if M.rows != m or M.cols != m:
                raise DimensionMismatch("representation matrices must be m x m")
        return Representation(algebra, m, tuple(left_maps), tuple(right_maps))

    @staticmethod
    def zero(algebra: LeibnizAlgebra, rep_dim: int) -> "Representation":
        z = Matrix.zero(rep_dim, rep_dim)
        return Representation(algebra, rep_dim,
                              tuple(z for _ in range(algebra.dim)),
                              tuple(z for _ in range(algebra.dim)))

    def _combine(self, maps, x) -> Matrix:
        acc = Matrix.zero(self.rep_dim, self.rep_dim)
        for i, xi in enumerate(x):
            if xi:
                acc = acc + maps[i].scale(xi)
        return acc

    def left_of(self, x) -> Matrix:
        """l(x) for an arbitrary element, assembled by linearity."""
        return self._combine(self.left_maps, x)

    def right_of(self, x) -> Matrix:
        return self._combine(self.right_maps, x)


def _commutator(A: Matrix, B: Matrix) -> Matrix:
    return A @ B - B @ A


def _flatten(M: Matrix) -> list:
    return [e for row in M.entries for e in row]


def verify_representation(R: Representation) -> CheckResult:
    """Check the three representation axioms on all basis pairs.

    Witnesses report both sides as row-major flattened matrices.
    """
    A = R.algebra
    ls, rs = R.left_maps, R.right_maps
    minus_one = Scalar.of(-1)

    def sides(i, j):
        bij = A.bracket_basis(i, j)
        yield ("AXIOM_L_BRACKET", _flatten(R.left_of(bij)),
               _flatten(_commutator(ls[i], ls[j])))
        yield ("AXIOM_R_BRACKET", _flatten(R.right_of(bij)),
               _flatten(_commutator(ls[i], rs[j])))
        yield ("AXIOM_R_COMPOSE", _flatten(rs[j] @ ls[i]),
               _flatten((rs[j] @ rs[i]).scale(minus_one)))

    return first_failure(A.dim, 2, sides)


def regular_rep(A: LeibnizAlgebra) -> Representation:
    return Representation.build(
        A,
        [A.left_mult_matrix(i) for i in range(A.dim)],
        [A.right_mult_matrix(i) for i in range(A.dim)])


def dual_rep(R: Representation) -> Representation:
    """The induced action (l*, -l*-r*) on the dual space.

    In matrix terms the new left maps are -l(e_i)^T and the new right maps
    are l(e_i)^T + r(e_i)^T.
    """
    lefts = [l.transpose().scale(Scalar.of(-1)) for l in R.left_maps]
    rights = [l.transpose() + r.transpose()
              for l, r in zip(R.left_maps, R.right_maps)]
    return Representation.build(R.algebra, lefts, rights)


def semidirect_product(R: Representation) -> LeibnizAlgebra:
    """[x+u, y+v] = [x,y] + l_x(v) + r_y(u) on the space E + V."""
    A = R.algebra
    n, m = A.dim, R.rep_dim
    brackets = dict(A.brackets)
    for i in range(n):
        for b in range(m):
            for key, M in (((i, n + b), R.left_maps[i]),
                           ((n + b, i), R.right_maps[i])):
                brackets[key] = {n + k: c for k, c in enumerate(M.col(b))}
    return LeibnizAlgebra.from_brackets(n + m, brackets, A.field)


def bowtie_algebra(A: LeibnizAlgebra, R: Representation,
                   T: Matrix) -> LeibnizAlgebra:
    """The twisted double on E + V induced by a relative Rota-Baxter T."""
    from .dendriform import verify_rota_baxter  # cycle-free at call time

    check = verify_rota_baxter(A, R, T)
    if not check.ok:
        raise NotRotaBaxter("T is not a relative Rota-Baxter operator: %s"
                            % (check.indices,))
    n, m = A.dim, R.rep_dim
    zero_n = [Scalar.zero()] * n
    zero_m = [Scalar.zero()] * m
    # Each basis vector of E + V as its pair (x, u) of components.
    parts = ([(A.basis_vector(p), zero_m) for p in range(n)]
             + [(zero_n, unit(m, a)) for a in range(m)])

    def product(p, q):
        (x, u), (y, v) = parts[p], parts[q]
        tu, tv = T.apply(u), T.apply(v)
        e_part = vadd(A.bracket(x, y), A.bracket(tu, y))
        e_part = vsub(e_part, T.apply(R.right_of(y).apply(u)))
        e_part = vadd(e_part, A.bracket(x, tv))
        e_part = vsub(e_part, T.apply(R.left_of(x).apply(v)))
        v_part = vadd(R.left_of(tu).apply(v), R.right_of(tv).apply(u))
        v_part = vadd(v_part, R.left_of(x).apply(v))
        v_part = vadd(v_part, R.right_of(y).apply(u))
        return e_part + v_part

    return LeibnizAlgebra(n + m, tensor_from(n + m, product), A.field)
