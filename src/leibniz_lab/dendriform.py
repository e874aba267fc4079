"""Leibniz-dendriform algebras, Rota-Baxter operators and invariant forms."""

from __future__ import annotations

from .errors import DegenerateForm, NotSymmetric, SingularMatrix
from .leibniz import (CheckResult, LeibnizAlgebra, _checked_product,
                      _checked_tensor, _dense_tensor, _require_square,
                      first_defect, form_tensor, tensor_sum, transport, unit)
from .linalg import Matrix, invert, is_singular
from .record import Record
from .representations import Representation, _require_rota_baxter
from .scalars import RATIONAL


class DendriformAlgebra(Record):
    __slots__ = ("dim", "left_brackets", "right_brackets", "field")

    def __init__(self, dim: int, left_brackets: dict, right_brackets: dict,
                 field: str = RATIONAL):
        """The two products as sparse tensors {(i, j): {k: c}}."""
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "left_brackets", left_brackets)
        object.__setattr__(self, "right_brackets", right_brackets)
        object.__setattr__(self, "field", field)

    @staticmethod
    def from_constants(left, right, field: str = RATIONAL) -> "DendriformAlgebra":
        """Build from two dense n x n x n lists c[i][j][k]."""
        n = len(left)
        return DendriformAlgebra(n, _dense_tensor(left, n),
                                 _dense_tensor(right, n), field)

    @staticmethod
    def from_brackets(dim: int, left: dict, right: dict,
                      field: str = RATIONAL) -> "DendriformAlgebra":
        """Build from two sparse maps (i, j) -> {k: Scalar}."""
        return DendriformAlgebra(dim, _checked_tensor(dim, left),
                                 _checked_tensor(dim, right), field)

    def basis_vector(self, i: int):
        return unit(self.dim, i)

    def left(self, x, y):
        """x left-product y."""
        return _checked_product(self.left_brackets, self.dim, x, y)

    def right(self, x, y):
        """x right-product y."""
        return _checked_product(self.right_brackets, self.dim, x, y)


# The three defining identities, with "<" and ">" the two products.
DENDRIFORM = (
    ("p1", ((1, "(x<y)<z"),),
     ((1, "x<(y<z)"), (-1, "y<(x<z)"), (-1, "(x>y)<z"))),
    ("p2", ((1, "x<(y>z)"),),
     ((1, "(x<y)>z"), (1, "y>(x<z)"), (1, "y>(x>z)"))),
    ("p3", ((1, "x>(y>z)"),),
     ((1, "(x>y)>z"), (1, "y<(x>z)"), (-1, "x>(y<z)"))))

# Invariance of a form "|" under both products.
INVARIANT = (
    ("INVARIANT_LEFT_FAILS", ((1, "(x<y)|z"),), ((-1, "y|(x<z)"),)),
    ("INVARIANT_RIGHT_FAILS", ((1, "(x>y)|z"),),
     ((1, "x|(y<z)"), (1, "x|(z>y)"))))

# The products against the sub-adjacent bracket "*" (x*y = x<y + x>y).
QUADRATIC = (
    ("QUADRATIC_LEFT_FAILS", ((1, "(x<y)|z"),), ((-1, "y|(x*z)"),)),
    ("QUADRATIC_RIGHT_FAILS", ((1, "(x>y)|z"),),
     ((1, "x|(y*z)"), (1, "x|(z*y)"))))


def verify_dendriform(D: DendriformAlgebra) -> CheckResult:
    """Check the three defining identities (:data:`DENDRIFORM`) on all
    basis triples."""
    return first_defect(D.dim, DENDRIFORM,
                        {"<": D.left_brackets, ">": D.right_brackets})


def subadjacent(D: DendriformAlgebra) -> LeibnizAlgebra:
    """The Leibniz algebra with bracket x<y + x>y."""
    return LeibnizAlgebra(D.dim, tensor_sum(D.left_brackets, D.right_brackets),
                          D.field)


def dendriform_rep(D: DendriformAlgebra) -> Representation:
    """(L, l, r) with l(x)y = x<y and r(x)y = y>x, over the sub-adjacent
    algebra: the two products are the two actions."""
    return Representation(subadjacent(D), D.dim, D.left_brackets,
                          D.right_brackets)


def rb_to_dendriform(A: LeibnizAlgebra, R: Representation,
                     T: Matrix) -> DendriformAlgebra:
    """Dendriform structure on V: u<v = l(Tu)v, u>v = r(Tv)u."""
    _require_rota_baxter(A, R, T)
    return DendriformAlgebra(R.rep_dim, transport(R.left, T),
                             transport(R.right, None, T), A.field)


def compatible_dendriform_from_invertible_rb(
        A: LeibnizAlgebra, R: Representation, T: Matrix) -> DendriformAlgebra:
    """Dendriform structure on the algebra itself: x<y = T(l(x)T^{-1}y)
    and x>y = T(r(y)T^{-1}x)."""
    if T.rows != T.cols:
        raise SingularMatrix("invertible T must be square")
    t_inv = invert(T)
    _require_rota_baxter(A, R, T)
    return DendriformAlgebra(A.dim, transport(R.left, None, t_inv, T),
                             transport(R.right, t_inv, None, T), A.field)


def verify_invariant_form(D: DendriformAlgebra, omega: Matrix) -> CheckResult:
    """Invariance of a nondegenerate form with respect to both products
    (:data:`INVARIANT`)."""
    _require_square(omega, D.dim)
    if is_singular(omega):
        raise DegenerateForm("invariant forms must be nondegenerate")
    return first_defect(D.dim, INVARIANT, {
        "<": D.left_brackets, ">": D.right_brackets, "|": form_tensor(omega)})


def verify_quadratic_dendriform(D: DendriformAlgebra,
                                B: Matrix) -> CheckResult:
    """Invariance conditions tying the products to the sub-adjacent bracket
    (:data:`QUADRATIC`)."""
    _require_square(B, D.dim)
    if B != B.transpose():
        raise NotSymmetric("quadratic forms must be symmetric")
    if is_singular(B):
        raise DegenerateForm("quadratic forms must be nondegenerate")
    left, right = D.left_brackets, D.right_brackets
    return first_defect(D.dim, QUADRATIC, {
        "<": left, ">": right, "|": form_tensor(B),
        "*": tensor_sum(left, right)})
