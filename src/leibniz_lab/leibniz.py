"""Leibniz algebras as exact structure-constant tensors.

This module also holds the tensor core that every other module builds on:
the bilinear kernel :func:`tensor_product`, :func:`form_value`, the vector
helpers :func:`vadd`, :func:`vsub` and :func:`unit`,
:func:`sparse_brackets`, and :func:`first_failure`, the one loop that runs
an identity over basis tuples.

Adding an identity: write a ``sides(*idx)`` generator that yields
``(reason, lhs, rhs)`` for the basis tuple ``idx``, one triple per
equation, and return ``first_failure(dim, arity, sides)``.  The first
tuple in lexicographic order whose sides differ becomes the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from .errors import DimensionMismatch, FieldMismatch
from .linalg import Matrix, column_span_matrix, in_span, rank, trace
from .scalars import GAUSSIAN, RATIONAL, Scalar

Vector = list  # coordinate list of Scalar relative to the ambient basis


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a verification, with a re-checkable witness on failure."""
    ok: bool
    reason: Optional[str] = None
    indices: Optional[tuple] = None
    lhs: Optional[list] = None
    rhs: Optional[list] = None

    def __bool__(self) -> bool:
        return self.ok


OK = CheckResult(True)


def first_failure(dim: int, arity: int, sides) -> CheckResult:
    """Run an identity over all basis tuples in lexicographic order.

    ``sides(*idx)`` yields ``(reason, lhs, rhs)`` lazily; the first unequal
    pair is returned as the witness, so later sides are never evaluated.
    """
    for idx in product(range(dim), repeat=arity):
        for reason, lhs, rhs in sides(*idx):
            if lhs != rhs:
                return CheckResult(False, reason, idx, lhs, rhs)
    return OK


def vadd(x: Vector, y: Vector) -> Vector:
    return [a + b for a, b in zip(x, y)]


def vsub(x: Vector, y: Vector) -> Vector:
    return [a - b for a, b in zip(x, y)]


def unit(n: int, i: int, gaussian: bool = False) -> Vector:
    """The i-th standard basis vector of length n."""
    v = [Scalar.zero(gaussian)] * n
    v[i] = Scalar.one(gaussian)
    return v


def tensor_product(tensor, x: Vector, y: Vector, gaussian: bool) -> Vector:
    """sum_ijk x_i y_j c[i][j][k] e_k for a dense n x n x n tensor c."""
    out = [Scalar.zero(gaussian)] * len(tensor)
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        for j, yj in enumerate(y):
            if yj.is_zero():
                continue
            f = xi * yj
            for k, c in enumerate(tensor[i][j]):
                if not c.is_zero():
                    out[k] = out[k] + f * c
    return out


def sparse_brackets(tensor, offset: int = 0) -> dict:
    """The nonzero entries of a dense tensor as {(i, j): {k: c}}, in index
    order, with every index shifted by ``offset``."""
    brackets = {}
    for i, plane in enumerate(tensor):
        for j, row in enumerate(plane):
            value = {k + offset: c for k, c in enumerate(row)
                     if not c.is_zero()}
            if value:
                brackets[(i + offset, j + offset)] = value
    return brackets


def form_value(B: Matrix, x: Vector, y: Vector) -> Scalar:
    """The bilinear form B(x, y) = sum_ij x_i y_j B[i, j]."""
    acc = Scalar.zero()
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        for j, yj in enumerate(y):
            if not yj.is_zero():
                acc = acc + xi * yj * B[i, j]
    return acc


@dataclass(frozen=True)
class Subspace:
    """Span of linearly independent coordinate vectors."""
    basis: tuple  # tuple of coordinate tuples

    @staticmethod
    def from_vectors(vectors: Sequence[Sequence[Scalar]]) -> "Subspace":
        vecs = tuple(tuple(v) for v in vectors)
        if vecs:
            cols = [Matrix.column(list(v)) for v in vecs]
            if rank(column_span_matrix(cols)) != len(vecs):
                raise DimensionMismatch("subspace basis is linearly dependent")
        return Subspace(vecs)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def ambient_dim(self) -> int:
        return len(self.basis[0]) if self.basis else 0

    def columns(self) -> list:
        return [Matrix.column(list(v)) for v in self.basis]

    def contains(self, coords: Sequence[Scalar]) -> bool:
        return in_span(self.columns(), Matrix.column(list(coords)))


@dataclass(frozen=True)
class LeibnizAlgebra:
    dim: int
    constants: tuple  # c[i][j][k], tuple of tuples of tuples of Scalar
    field: str = RATIONAL
    labels: Optional[tuple] = None

    @staticmethod
    def from_constants(constants, field: str = RATIONAL,
                       labels=None) -> "LeibnizAlgebra":
        n = len(constants)
        for plane in constants:
            if len(plane) != n or any(len(row) != n for row in plane):
                raise DimensionMismatch("structure tensor must be n x n x n")
        gaussian = field == GAUSSIAN
        tensor = tuple(
            tuple(tuple(c if not gaussian else c.promote() for c in row)
                  for row in plane)
            for plane in constants)
        return LeibnizAlgebra(n, tensor,
                              field, tuple(labels) if labels else None)

    @staticmethod
    def from_brackets(dim: int, brackets: dict, field: str = RATIONAL,
                      labels=None) -> "LeibnizAlgebra":
        """Build from a sparse map (i, j) -> {k: Scalar}."""
        gaussian = field == GAUSSIAN
        zero = Scalar.zero(gaussian)
        tensor = [[[zero for _ in range(dim)] for _ in range(dim)]
                  for _ in range(dim)]
        for (i, j), value in brackets.items():
            for k, c in value.items():
                tensor[i][j][k] = c.promote() if gaussian else c
        return LeibnizAlgebra.from_constants(tensor, field, labels)

    @staticmethod
    def abelian(dim: int, field: str = RATIONAL) -> "LeibnizAlgebra":
        return LeibnizAlgebra.from_brackets(dim, {}, field)

    @property
    def gaussian(self) -> bool:
        return self.field == GAUSSIAN

    def basis_vector(self, i: int) -> Vector:
        return unit(self.dim, i, self.gaussian)

    def bracket(self, x: Vector, y: Vector) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("vectors of length %d expected" % self.dim)
        return tensor_product(self.constants, x, y, self.gaussian)

    def bracket_basis(self, i: int, j: int) -> Vector:
        return list(self.constants[i][j])

    def left_mult_matrix(self, i: int) -> Matrix:
        """Matrix of y -> [e_i, y]."""
        return Matrix.from_rows([[self.constants[i][j][k]
                                  for j in range(self.dim)]
                                 for k in range(self.dim)])

    def right_mult_matrix(self, i: int) -> Matrix:
        """Matrix of y -> [y, e_i]."""
        return Matrix.from_rows([[self.constants[j][i][k]
                                  for j in range(self.dim)]
                                 for k in range(self.dim)])

    def full_subspace(self) -> Subspace:
        return Subspace.from_vectors([self.basis_vector(i)
                                      for i in range(self.dim)])


def tensors_equal(A: LeibnizAlgebra, B: LeibnizAlgebra) -> bool:
    return A.dim == B.dim and all(
        A.constants[i][j][k] == B.constants[i][j][k]
        for i in range(A.dim) for j in range(A.dim) for k in range(A.dim))


def verify_leibniz(A: LeibnizAlgebra) -> CheckResult:
    """Check [x,[y,z]] = [[x,y],z] + [y,[x,z]] on all basis triples.

    Trilinearity of both sides certifies the identity for all elements.
    """
    e = [A.basis_vector(i) for i in range(A.dim)]
    br = A.bracket_basis

    def sides(i, j, k):
        yield ("LEIBNIZ_FAILS", A.bracket(e[i], br(j, k)),
               vadd(A.bracket(br(i, j), e[k]), A.bracket(e[j], br(i, k))))

    return first_failure(A.dim, 3, sides)


def _check_ambient(A: LeibnizAlgebra, W: Subspace):
    if W.basis and W.ambient_dim != A.dim:
        raise DimensionMismatch("subspace lives in the wrong ambient space")


def is_subalgebra(A: LeibnizAlgebra, W: Subspace) -> bool:
    _check_ambient(A, W)
    return all(W.contains(A.bracket(list(u), list(v)))
               for u in W.basis for v in W.basis)


def is_abelian_subalgebra(A: LeibnizAlgebra, W: Subspace) -> bool:
    _check_ambient(A, W)
    return all(c.is_zero() for u in W.basis for v in W.basis
               for c in A.bracket(list(u), list(v)))


def is_two_sided_ideal(A: LeibnizAlgebra, W: Subspace) -> bool:
    _check_ambient(A, W)
    return all(W.contains(A.bracket(A.basis_vector(i), list(w)))
               and W.contains(A.bracket(list(w), A.basis_vector(i)))
               for i in range(A.dim) for w in W.basis)


def direct_sum(A: LeibnizAlgebra, B: LeibnizAlgebra) -> LeibnizAlgebra:
    if A.field != B.field:
        raise FieldMismatch("direct sum of algebras over different fields")
    brackets = sparse_brackets(A.constants)
    brackets.update(sparse_brackets(B.constants, A.dim))
    return LeibnizAlgebra.from_brackets(A.dim + B.dim, brackets, A.field)


def killing_form(A: LeibnizAlgebra) -> Matrix:
    """B(e_i, e_j) = tr(L_i L_j) built from left multiplications.

    For Lie algebras this is the classical Killing form; no symmetry is
    claimed for general Leibniz algebras.
    """
    lefts = [A.left_mult_matrix(i) for i in range(A.dim)]
    return Matrix.from_rows([[trace(lefts[i] @ lefts[j])
                              for j in range(A.dim)]
                             for i in range(A.dim)])
