"""Leibniz-dendriform algebras, Rota-Baxter operators and invariant forms."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (DegenerateForm, DimensionMismatch, NotRotaBaxter,
                     NotSymmetric, SingularMatrix)
from .leibniz import (CheckResult, LeibnizAlgebra, first_failure, form_value,
                      tensor_product, unit, vadd, vsub)
from .linalg import Matrix, invert, is_singular
from .representations import Representation
from .scalars import GAUSSIAN, RATIONAL, Scalar


@dataclass(frozen=True)
class DendriformAlgebra:
    dim: int
    left_constants: tuple   # tensor for the left product
    right_constants: tuple  # tensor for the right product
    field: str = RATIONAL

    @staticmethod
    def from_constants(left, right, field: str = RATIONAL) -> "DendriformAlgebra":
        n = len(left)
        for tensor in (left, right):
            if len(tensor) != n or any(
                    len(plane) != n or any(len(row) != n for row in plane)
                    for plane in tensor):
                raise DimensionMismatch("product tensors must be n x n x n")
        freeze = lambda t: tuple(tuple(tuple(row) for row in plane)
                                 for plane in t)
        return DendriformAlgebra(n, freeze(left), freeze(right), field)

    @staticmethod
    def zero(dim: int, field: str = RATIONAL) -> "DendriformAlgebra":
        z = Scalar.zero(field == GAUSSIAN)
        t = tuple(tuple(tuple(z for _ in range(dim)) for _ in range(dim))
                  for _ in range(dim))
        return DendriformAlgebra(dim, t, t, field)

    @property
    def gaussian(self) -> bool:
        return self.field == GAUSSIAN

    def basis_vector(self, i: int):
        return unit(self.dim, i, self.gaussian)

    def left(self, x, y):
        """x left-product y."""
        return tensor_product(self.left_constants, x, y, self.gaussian)

    def right(self, x, y):
        """x right-product y."""
        return tensor_product(self.right_constants, x, y, self.gaussian)

    def both(self, x, y):
        """The sub-adjacent bracket value x<y + x>y."""
        return vadd(self.left(x, y), self.right(x, y))


def dendriforms_equal(D1: DendriformAlgebra, D2: DendriformAlgebra) -> bool:
    return (D1.dim == D2.dim
            and D1.left_constants == D2.left_constants
            and D1.right_constants == D2.right_constants)


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
    tensor = [[[D.left_constants[i][j][k] + D.right_constants[i][j][k]
                for k in range(D.dim)]
               for j in range(D.dim)]
              for i in range(D.dim)]
    return LeibnizAlgebra.from_constants(tensor, D.field)


def dendriform_rep(D: DendriformAlgebra) -> Representation:
    """(L, l, r) with l(x)y = x<y and r(x)y = y>x, over the sub-adjacent algebra."""
    A = subadjacent(D)
    lefts, rights = [], []
    for i in range(D.dim):
        lefts.append(Matrix.from_rows(
            [[D.left_constants[i][j][k] for j in range(D.dim)]
             for k in range(D.dim)]))
        rights.append(Matrix.from_rows(
            [[D.right_constants[j][i][k] for j in range(D.dim)]
             for k in range(D.dim)]))
    return Representation.build(A, lefts, rights)


def verify_rota_baxter(A: LeibnizAlgebra, R: Representation,
                       T: Matrix) -> CheckResult:
    """[Tu, Tv] = T(l(Tu)v + r(Tv)u), checked on all basis pairs of V."""
    if T.rows != A.dim or T.cols != R.rep_dim:
        raise DimensionMismatch("T must map the %d-dim module into the algebra"
                                % R.rep_dim)
    m = R.rep_dim
    us = [unit(m, a, A.gaussian) for a in range(m)]
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
    us = [unit(R.rep_dim, a, A.gaussian) for a in range(R.rep_dim)]
    tus = [T.apply(u) for u in us]
    left = [[R.left_of(tu).apply(v) for v in us] for tu in tus]
    right = [[R.right_of(tv).apply(u) for tv in tus] for u in us]
    return DendriformAlgebra.from_constants(left, right, A.field)


def compatible_dendriform_from_invertible_rb(
        A: LeibnizAlgebra, R: Representation, T: Matrix) -> DendriformAlgebra:
    """Dendriform structure on the algebra itself: x<y = T(l(x)T^{-1}y)."""
    if T.rows != T.cols:
        raise SingularMatrix("invertible T must be square")
    t_inv = invert(T)
    _require_rota_baxter(A, R, T)
    e = [A.basis_vector(i) for i in range(A.dim)]
    left = [[T.apply(R.left_of(x).apply(t_inv.apply(y))) for y in e]
            for x in e]
    right = [[T.apply(R.right_of(y).apply(t_inv.apply(x))) for y in e]
             for x in e]
    return DendriformAlgebra.from_constants(left, right, A.field)


def verify_invariant_form(D: DendriformAlgebra, omega: Matrix) -> CheckResult:
    """Invariance of a nondegenerate form with respect to both products."""
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
