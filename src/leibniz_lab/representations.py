"""Representations of Leibniz algebras and the constructions they carry."""

from __future__ import annotations

from collections.abc import Sequence

from .errors import DimensionMismatch, NotRotaBaxter
from .leibniz import (CheckResult, LeibnizAlgebra, _mult_matrix, contract,
                      first_witness, tensor_sum, transport)
from .linalg import Matrix
from .record import Record


class Representation(Record):
    """The actions l and r of an algebra on an m-dim module V, stored as
    two sparse tensors in the layout of the semidirect product:
    ``left[(i, b)] = l(e_i) v_b`` and ``right[(b, i)] = r(e_i) v_b``."""
    __slots__ = ("algebra", "rep_dim", "left", "right")

    def __init__(self, algebra: LeibnizAlgebra, rep_dim: int, left: dict,
                 right: dict):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "rep_dim", rep_dim)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @staticmethod
    def build(algebra: LeibnizAlgebra, left_maps: Sequence[Matrix],
              right_maps: Sequence[Matrix],
              rep_dim: int) -> "Representation":
        """From the m x m matrices l(e_i) and r(e_i), one per basis index,
        with m = ``rep_dim``."""
        if len(left_maps) != algebra.dim or len(right_maps) != algebra.dim:
            raise DimensionMismatch("need one l and one r matrix per basis index")
        for M in list(left_maps) + list(right_maps):
            if M.rows != rep_dim or M.cols != rep_dim:
                raise DimensionMismatch("representation matrices must be m x m")
        left = {(i, b): col for i, M in enumerate(left_maps)
                for b, col in enumerate(M.transpose().nonzero) if col}
        right = {(b, i): col for i, M in enumerate(right_maps)
                 for b, col in enumerate(M.transpose().nonzero) if col}
        return Representation(algebra, rep_dim, left, right)

    @property
    def left_maps(self) -> tuple:
        """The matrices l(e_i)."""
        m = self.rep_dim
        return tuple(_mult_matrix(self.left, m, [(i, b) for b in range(m)])
                     for i in range(self.algebra.dim))

    @property
    def right_maps(self) -> tuple:
        """The matrices r(e_i)."""
        m = self.rep_dim
        return tuple(_mult_matrix(self.right, m, [(b, i) for b in range(m)])
                     for i in range(self.algebra.dim))


# The three axioms on e_x, e_y, applied to v_z, with "." the bracket and
# "l", "r" the actions: l[x,y] = [l_x, l_y], r[x,y] = [l_x, r_y] and
# r_y l_x = -r_y r_x.
REPRESENTATION = (
    ("AXIOM_L_BRACKET", ((1, "(x.y)lz"),), ((1, "xl(ylz)"), (-1, "yl(xlz)"))),
    ("AXIOM_R_BRACKET", ((1, "zr(x.y)"),), ((1, "xl(zry)"), (-1, "(xlz)ry"))),
    ("AXIOM_R_COMPOSE", ((1, "(xlz)ry"),), ((-1, "(zrx)ry"),)))


def verify_representation(R: Representation) -> CheckResult:
    """Check the three representation axioms (:data:`REPRESENTATION`) on all
    basis pairs.

    Witnesses report both sides as row-major flattened m x m matrices.
    """
    m = R.rep_dim
    tensors = {".": R.algebra.brackets, "l": R.left, "r": R.right}

    def flattened(terms):
        """{(x, y, z): {c: v}} as {(x, y): {c m + z: v}}."""
        out = {}
        for (i, j, b), value in contract(terms, tensors).items():
            acc = out.setdefault((i, j), {})
            for c, v in value.items():
                acc[c * m + b] = v
        return out
    return first_witness(m * m, [(reason, flattened(lhs), flattened(rhs))
                                 for reason, lhs, rhs in REPRESENTATION])


def regular_rep(A: LeibnizAlgebra) -> Representation:
    """l(x)y = [x, y] and r(x)y = [y, x]: both actions are the bracket."""
    return Representation(A, A.dim, A.brackets, A.brackets)


def dual_rep(R: Representation) -> Representation:
    """The induced action (l*, -l*-r*) on the dual space.

    In matrix terms the new left maps are -l(e_i)^T and the new right maps
    are l(e_i)^T + r(e_i)^T.
    """
    left, l_t, r_t = {}, {}, {}
    for (i, c), value in R.left.items():
        for b, v in value.items():
            left.setdefault((i, b), {})[c] = -v
            l_t.setdefault((b, i), {})[c] = v
    for (c, i), value in R.right.items():
        for b, v in value.items():
            r_t.setdefault((b, i), {})[c] = v
    return Representation(R.algebra, R.rep_dim, left, tensor_sum(l_t, r_t))


def semidirect_product(R: Representation) -> LeibnizAlgebra:
    """[x+u, y+v] = [x,y] + l_x(v) + r_y(u) on the space E + V."""
    A = R.algebra
    n = A.dim
    brackets = dict(A.brackets)
    for (i, b), value in R.left.items():
        brackets[(i, n + b)] = {n + k: c for k, c in value.items()}
    for (b, i), value in R.right.items():
        brackets[(n + b, i)] = {n + k: c for k, c in value.items()}
    return LeibnizAlgebra.from_brackets(n + R.rep_dim, brackets, A.field)


def verify_rota_baxter(A: LeibnizAlgebra, R: Representation,
                       T: Matrix) -> CheckResult:
    """[Tu, Tv] = T(l(Tu)v + r(Tv)u), checked on all basis pairs of V."""
    if T.rows != A.dim or T.cols != R.rep_dim:
        raise DimensionMismatch("T must map the %d-dim module into the algebra"
                                % R.rep_dim)
    return first_witness(A.dim, [(
        "ROTA_BAXTER_FAILS", transport(A.brackets, T, T),
        tensor_sum(transport(R.left, T, None, T),
                   transport(R.right, None, T, T)))])


def _require_rota_baxter(A: LeibnizAlgebra, R: Representation, T: Matrix):
    check = verify_rota_baxter(A, R, T)
    if not check.ok:
        raise NotRotaBaxter("identity fails at basis pair %s" % (check.indices,))


def bowtie_algebra(A: LeibnizAlgebra, R: Representation,
                   T: Matrix) -> LeibnizAlgebra:
    """The twisted double on E + V induced by a relative Rota-Baxter T.

    With S the semidirect product and K(x + u) = Tu, the product is
    S + S(K., .) + S(., K.) - K S.
    """
    _require_rota_baxter(A, R, T)
    n, m = A.dim, R.rep_dim
    S = semidirect_product(R).brackets
    K = Matrix(n + m, n + m, tuple({n + b: c for b, c in row.items()}
                                   for row in T.nonzero) + ({},) * m)
    return LeibnizAlgebra(n + m, tensor_sum(
        S, transport(S, K), transport(S, None, K), transport(S, R=-K)),
        A.field)
