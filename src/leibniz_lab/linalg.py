"""Exact linear algebra over Q and Q(i).

Matrices are immutable, row-major tuples of exact field elements
(``Fraction`` or :class:`Scalar`, see :mod:`scalars`).  Everything goes
through Gauss-Jordan elimination, so results are exact and there is no
tolerance parameter anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .errors import DimensionMismatch, SingularMatrix
from .scalars import Scalar


@dataclass(frozen=True)
class Matrix:
    rows: int
    cols: int
    entries: tuple  # tuple of row tuples of field elements

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        for row in rows:
            if len(row) != c:
                raise DimensionMismatch("ragged matrix rows")
        return Matrix(r, c, tuple(tuple(row) for row in rows))

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, ((Scalar.zero(),) * cols,) * rows)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.diagonal([Scalar.one()] * n)

    @staticmethod
    def column(coords: Sequence[Scalar]) -> "Matrix":
        return Matrix.from_rows([[c] for c in coords])

    @staticmethod
    def diagonal(values: Sequence[Scalar]) -> "Matrix":
        n = len(values)
        z = Scalar.zero()
        return Matrix(n, n, tuple(tuple(values[i] if i == j else z
                                        for j in range(n)) for i in range(n)))

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(e for row in self.entries for e in row)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix.from_rows([[self[i, j] + other[i, j]
                                  for j in range(self.cols)]
                                 for i in range(self.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix.from_rows([[self[i, j] - other[i, j]
                                  for j in range(self.cols)]
                                 for i in range(self.rows)])

    def __neg__(self) -> "Matrix":
        return self.scale(Scalar.of(-1))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                "cannot multiply %dx%d by %dx%d"
                % (self.rows, self.cols, other.rows, other.cols))
        return Matrix.from_rows(
            [[_dot(self.row(i), other.col(j)) for j in range(other.cols)]
             for i in range(self.rows)])

    def scale(self, a: Scalar) -> "Matrix":
        return Matrix.from_rows([[a * e for e in row] for row in self.entries])

    def transpose(self) -> "Matrix":
        return Matrix.from_rows([[self[i, j] for i in range(self.rows)]
                                 for j in range(self.cols)])

    def conjugate(self) -> "Matrix":
        return Matrix.from_rows([[e.conjugate() for e in row]
                                 for row in self.entries])

    def apply(self, coords: Sequence[Scalar]) -> list:
        """Matrix-vector product returning a plain coordinate list."""
        if len(coords) != self.cols:
            raise DimensionMismatch("vector length %d vs %d columns"
                                    % (len(coords), self.cols))
        return [_dot(self.row(i), coords) for i in range(self.rows)]

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        return Matrix.from_rows([list(self.row(i)) + list(other.row(i))
                                 for i in range(self.rows)])

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape mismatch")

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]"
                         for row in self.entries)


def _dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    return sum(map(mul, u, v), Scalar.zero())


def _rref(rows: list) -> tuple:
    """In-place reduced row echelon form; returns the pivot column list."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Scalar.one() / rows[r][c]
        rows[r] = [inv * e for e in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [e - f * p for e, p in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rank(M: Matrix) -> int:
    rows = [list(r) for r in M.entries]
    return len(_rref(rows))


def kernel_basis(M: Matrix) -> list:
    """Exact basis of ker(M) as column matrices, in free-column order."""
    rows = [list(r) for r in M.entries]
    pivots = _rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(M.cols):
        if free in pivot_set:
            continue
        coords = [Scalar.zero()] * M.cols
        coords[free] = Scalar.one()
        for r_idx, p in enumerate(pivots):
            coords[p] = -rows[r_idx][free]
        basis.append(Matrix.column(coords))
    return basis


NO_SOLUTION = "NO_SOLUTION"


def solve_linear(A: Matrix, b: Matrix):
    """Solve A x = b exactly.

    Returns ``(particular, kernel)`` where ``kernel`` is a basis of
    ker(A), or the sentinel :data:`NO_SOLUTION` when the system is
    inconsistent (rank of the augmented matrix exceeds rank of A).
    """
    if b.rows != A.rows or b.cols != 1:
        raise DimensionMismatch("right-hand side must be a %d-row column"
                                % A.rows)
    aug = [list(A.row(i)) + [b[i, 0]] for i in range(A.rows)]
    pivots = _rref(aug)
    if A.cols in pivots:
        return NO_SOLUTION
    coords = [Scalar.zero()] * A.cols
    for r_idx, p in enumerate(pivots):
        coords[p] = aug[r_idx][A.cols]
    return Matrix.column(coords), kernel_basis(A)


def invert(M: Matrix) -> Matrix:
    if not M.is_square():
        raise DimensionMismatch("only square matrices invert")
    n = M.rows
    aug = [list(M.row(i)) + list(Matrix.identity(n).row(i)) for i in range(n)]
    pivots = _rref(aug)
    left_rank = sum(1 for p in pivots if p < n)
    if left_rank < n:
        raise SingularMatrix("matrix of rank %d < %d" % (left_rank, n))
    return Matrix.from_rows([row[n:] for row in aug])


def is_singular(M: Matrix) -> bool:
    return not M.is_square() or rank(M) < M.rows


def eigenspace(M: Matrix, lam: Scalar) -> list:
    """Exact basis of ker(M - lam*I); empty iff lam is not an eigenvalue."""
    if not M.is_square():
        raise DimensionMismatch("eigenspace of a non-square matrix")
    shifted = M - Matrix.identity(M.rows).scale(lam)
    return kernel_basis(shifted)


def column_span_matrix(columns: Sequence[Matrix]) -> Matrix:
    """Stack column vectors into one matrix (n x k)."""
    if not columns:
        raise DimensionMismatch("empty column list")
    n = columns[0].rows
    return Matrix.from_rows([[col[i, 0] for col in columns]
                             for i in range(n)])


def in_span(columns: Sequence[Matrix], v: Matrix) -> bool:
    """Exact membership of v in the span of the given columns."""
    if not columns:
        return v.is_zero()
    S = column_span_matrix(columns)
    return rank(S) == rank(S.hstack(v))


def trace(M: Matrix) -> Scalar:
    if not M.is_square():
        raise DimensionMismatch("trace of a non-square matrix")
    return sum((M[i, i] for i in range(M.rows)), Scalar.zero())


def matrices_equal(A: Matrix, B: Matrix) -> bool:
    return (A.rows, A.cols) == (B.rows, B.cols) and all(
        A[i, j] == B[i, j] for i in range(A.rows) for j in range(A.cols))
