"""Leibniz-dendriform algebras, Rota-Baxter operators and invariant forms."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (DegenerateForm, DimensionMismatch, NotRotaBaxter,
                     NotSymmetric, SingularMatrix)
from .leibniz import (CheckResult, LeibnizAlgebra, _checked_product,
                      _checked_tensor, _dense_tensor, _mult_matrix,
                      _require_square, first_failure, form_value, tensor_from,
                      unit, vadd, vsub)
from .linalg import Matrix, invert, is_singular
from .representations import Representation
from .scalars import RATIONAL


@dataclass(frozen=True)
class DendriformAlgebra:
    dim: int
    left_brackets: dict   # sparse tensor {(i, j): {k: c}} of the left product
    right_brackets: dict  # sparse tensor of the right product
    field: str = RATIONAL

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

    @staticmethod
    def zero(dim: int, field: str = RATIONAL) -> "DendriformAlgebra":
        return DendriformAlgebra.from_brackets(dim, {}, {}, field)

    def basis_vector(self, i: int):
        return unit(self.dim, i)

    def left(self, x, y):
        """x left-product y."""
        return _checked_product(self.left_brackets, self.dim, x, y)

    def right(self, x, y):
        """x right-product y."""
        return _checked_product(self.right_brackets, self.dim, x, y)

    def both(self, x, y):
        """The sub-adjacent bracket value x<y + x>y."""
        return vadd(self.left(x, y), self.right(x, y))


def dendriforms_equal(D1: DendriformAlgebra, D2: DendriformAlgebra) -> bool:
    return (D1.dim == D2.dim and D1.left_brackets == D2.left_brackets
            and D1.right_brackets == D2.right_brackets)


def verify_dendriform(D: DendriformAlgebra) -> CheckResult:
    """Check the three defining identities on all basis triples."""
    e = [D.basis_vector(i) for i in range(D.dim)]
    L, R = D.left, D.right

    def sides(i, j, k):
        x, y, z = e[i], e[j], e[k]
        yield ("p1", L(L(x, y), z),
               vsub(vsub(L(x, L(y, z)), L(y, L(x, z))), L(R(x, y), z)))
        yield ("p2", L(x, R(y, z)),
               vadd(vadd(R(L(x, y), z), R(y, L(x, z))), R(y, R(x, z))))
        yield ("p3", R(x, R(y, z)),
               vsub(vadd(R(R(x, y), z), L(y, R(x, z))), R(x, L(y, z))))

    return first_failure(D.dim, 3, sides)


def subadjacent(D: DendriformAlgebra) -> LeibnizAlgebra:
    """The Leibniz algebra with bracket x<y + x>y."""
    n = D.dim
    e = [D.basis_vector(i) for i in range(n)]
    return LeibnizAlgebra(n, tensor_from(n, lambda i, j: D.both(e[i], e[j])),
                          D.field)


def dendriform_rep(D: DendriformAlgebra) -> Representation:
    """(L, l, r) with l(x)y = x<y and r(x)y = y>x, over the sub-adjacent algebra."""
    n = D.dim
    return Representation.build(
        subadjacent(D),
        [_mult_matrix(D.left_brackets, n, [(i, j) for j in range(n)])
         for i in range(n)],
        [_mult_matrix(D.right_brackets, n, [(j, i) for j in range(n)])
         for i in range(n)])


def verify_rota_baxter(A: LeibnizAlgebra, R: Representation,
                       T: Matrix) -> CheckResult:
    """[Tu, Tv] = T(l(Tu)v + r(Tv)u), checked on all basis pairs of V."""
    if T.rows != A.dim or T.cols != R.rep_dim:
        raise DimensionMismatch("T must map the %d-dim module into the algebra"
                                % R.rep_dim)
    m = R.rep_dim
    us = [unit(m, a) for a in range(m)]
    tus = [T.apply(u) for u in us]
    lefts = [R.left_of(tu) for tu in tus]
    rights = [R.right_of(tu) for tu in tus]

    def sides(a, b):
        yield ("ROTA_BAXTER_FAILS", A.bracket(tus[a], tus[b]),
               T.apply(vadd(lefts[a].apply(us[b]), rights[b].apply(us[a]))))

    return first_failure(m, 2, sides)


def _require_rota_baxter(A: LeibnizAlgebra, R: Representation, T: Matrix):
    check = verify_rota_baxter(A, R, T)
    if not check.ok:
        raise NotRotaBaxter("identity fails at basis pair %s" % (check.indices,))


def rb_to_dendriform(A: LeibnizAlgebra, R: Representation,
                     T: Matrix) -> DendriformAlgebra:
    """Dendriform structure on V: u<v = l(Tu)v, u>v = r(Tv)u."""
    _require_rota_baxter(A, R, T)
    m = R.rep_dim
    us = [unit(m, a) for a in range(m)]
    tus = [T.apply(u) for u in us]
    lefts = [R.left_of(tu) for tu in tus]
    rights = [R.right_of(tu) for tu in tus]
    return DendriformAlgebra(
        m, tensor_from(m, lambda a, b: lefts[a].apply(us[b])),
        tensor_from(m, lambda a, b: rights[b].apply(us[a])), A.field)


def compatible_dendriform_from_invertible_rb(
        A: LeibnizAlgebra, R: Representation, T: Matrix) -> DendriformAlgebra:
    """Dendriform structure on the algebra itself: x<y = T(l(x)T^{-1}y)."""
    if T.rows != T.cols:
        raise SingularMatrix("invertible T must be square")
    t_inv = invert(T)
    _require_rota_baxter(A, R, T)
    n = A.dim
    e = [A.basis_vector(i) for i in range(n)]
    t_inv_e = [t_inv.apply(x) for x in e]
    return DendriformAlgebra(
        n, tensor_from(n, lambda i, j: T.apply(
            R.left_of(e[i]).apply(t_inv_e[j]))),
        tensor_from(n, lambda i, j: T.apply(
            R.right_of(e[j]).apply(t_inv_e[i]))), A.field)


def verify_invariant_form(D: DendriformAlgebra, omega: Matrix) -> CheckResult:
    """Invariance of a nondegenerate form with respect to both products."""
    _require_square(omega, D.dim)
    if is_singular(omega):
        raise DegenerateForm("invariant forms must be nondegenerate")
    e = [D.basis_vector(i) for i in range(D.dim)]
    L, R = D.left, D.right

    def sides(i, j, k):
        x, y, z = e[i], e[j], e[k]
        yield ("INVARIANT_LEFT_FAILS", [form_value(omega, L(x, y), z)],
               [-form_value(omega, y, L(x, z))])
        yield ("INVARIANT_RIGHT_FAILS", [form_value(omega, R(x, y), z)],
               [form_value(omega, x, vadd(L(y, z), R(z, y)))])

    return first_failure(D.dim, 3, sides)


def verify_quadratic_dendriform(D: DendriformAlgebra,
                                B: Matrix) -> CheckResult:
    """Invariance conditions tying the products to the sub-adjacent bracket."""
    _require_square(B, D.dim)
    if B != B.transpose():
        raise NotSymmetric("quadratic forms must be symmetric")
    if is_singular(B):
        raise DegenerateForm("quadratic forms must be nondegenerate")
    e = [D.basis_vector(i) for i in range(D.dim)]

    def sides(i, j, k):
        x, y, z = e[i], e[j], e[k]
        yield ("QUADRATIC_LEFT_FAILS", [form_value(B, D.left(x, y), z)],
               [-form_value(B, y, D.both(x, z))])
        yield ("QUADRATIC_RIGHT_FAILS", [form_value(B, D.right(x, y), z)],
               [form_value(B, x, D.both(y, z))
                + form_value(B, x, D.both(z, y))])

    return first_failure(D.dim, 3, sides)
