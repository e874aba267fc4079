"""Exact linear algebra over Q and Q(i).

Matrices are immutable, row-major tuples of exact field elements
(``Fraction`` or :class:`Scalar`, see :mod:`scalars`).  Products (``@``,
``scale``, ``apply``) multiply only nonzero entries, and every result
carries its shape, so a matrix without rows keeps its column count.  Rank,
kernel, solve, inverse and singularity all read one sparse, incremental
elimination (:func:`_echelon`), which returns the unique reduced row
echelon form, so results are exact and there is no tolerance parameter
anywhere.  Vectors are coordinate tuples: kernel and eigenspace bases and
solutions come back as tuples, and ``Matrix.apply`` maps one to a list.
``leibniz.Subspace.contains`` tests any number of vectors against a span
with one :func:`rank` of the stacked rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub
from typing import Sequence

from .errors import DimensionMismatch, SingularMatrix
from .scalars import _ONE, _ZERO, Scalar


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
    def diagonal(values: Sequence[Scalar]) -> "Matrix":
        n = len(values)
        return Matrix(n, n, tuple(tuple(values[i] if i == j else _ZERO
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

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(add, other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(sub, other)

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols,
                      tuple(tuple(-e for e in row) for row in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                "cannot multiply %dx%d by %dx%d"
                % (self.rows, self.cols, other.rows, other.cols))
        cols = range(other.cols)
        support = [[(j, b) for j, b in enumerate(row) if b]
                   for row in other.entries]
        rows = []
        for row in self.entries:
            acc = {}
            for a, terms in zip(row, support):
                if a:
                    for j, b in terms:
                        v = a * b
                        acc[j] = acc[j] + v if j in acc else v
            rows.append(tuple(acc.get(j, _ZERO) for j in cols))
        return Matrix(self.rows, other.cols, tuple(rows))

    def scale(self, a: Scalar) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(
            tuple(a * e if e else e for e in row) for row in self.entries))

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(self.col(j) for j in range(self.cols)))

    def conjugate(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(
            tuple(e.conjugate() for e in row) for row in self.entries))

    def apply(self, coords: Sequence[Scalar]) -> list:
        """Matrix-vector product returning a plain coordinate list."""
        if len(coords) != self.cols:
            raise DimensionMismatch("vector length %d vs %d columns"
                                    % (len(coords), self.cols))
        support = [(k, x) for k, x in enumerate(coords) if x]
        return [sum([row[k] * x for k, x in support if row[k]], _ZERO)
                for row in self.entries]

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        return Matrix(self.rows, self.cols + other.cols, tuple(
            r + s for r, s in zip(self.entries, other.entries)))

    def _entrywise(self, op, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape mismatch")
        return Matrix(self.rows, self.cols, tuple(
            tuple(map(op, r, s)) for r, s in zip(self.entries, other.entries)))

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]"
                         for row in self.entries)


def _subtract(row: dict, f: Scalar, pivot_row: dict):
    """row -= f * pivot_row in place, dropping the zeros it leaves."""
    for c, v in pivot_row.items():
        row[c] = row.get(c, _ZERO) - f * v
        if not row[c]:
            del row[c]


def _echelon(rows, ncols: int) -> dict:
    """The unique reduced row echelon form of the span of ``rows`` (dense,
    of length ``ncols``) as {pivot column: sparse row {column: value}}.

    Rows are inserted one at a time, skipping zero and duplicate rows,
    until every column has a pivot.  A new row is reduced by the pivot
    rows it meets; what is left becomes a pivot row, scaled to 1 at its
    leading column, which is then cleared from the other pivot rows.
    """
    pivots, seen = {}, set()
    for dense in rows:
        if len(pivots) == ncols:
            break
        row = {c: v for c, v in enumerate(dense) if v}
        key = tuple(row.items())
        if key in seen:
            continue
        seen.add(key)
        for p in [p for p in row if p in pivots]:
            _subtract(row, row[p], pivots[p])
        if not row:
            continue
        lead = min(row)
        inv = _ONE / row[lead]
        row = {c: inv * v for c, v in row.items()}
        for other in pivots.values():
            if lead in other:
                _subtract(other, other[lead], row)
        pivots[lead] = row
    return pivots


def _kernel(pivots: dict, ncols: int) -> list:
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        coords = [_ZERO] * ncols
        coords[free] = _ONE
        for p, row in pivots.items():
            coords[p] = -row.get(free, _ZERO)
        basis.append(tuple(coords))
    return basis


def rank(M: Matrix) -> int:
    return len(_echelon(M.entries, M.cols))


def kernel_basis(M: Matrix) -> list:
    """Exact basis of ker(M) as coordinate tuples, in free-column order."""
    return _kernel(_echelon(M.entries, M.cols), M.cols)


NO_SOLUTION = "NO_SOLUTION"


def solve_linear(A: Matrix, b: Matrix):
    """Solve A x = b exactly.

    Returns ``(particular, kernel)``, coordinate tuples with ``kernel``
    a basis of ker(A), or the sentinel :data:`NO_SOLUTION` when the system is
    inconsistent (rank of the augmented matrix exceeds rank of A).
    """
    if b.rows != A.rows or b.cols != 1:
        raise DimensionMismatch("right-hand side must be a %d-row column"
                                % A.rows)
    n = A.cols
    pivots = _echelon(A.hstack(b).entries, n + 1)
    if n in pivots:
        return NO_SOLUTION
    # With no pivot in the last column, the rest is the RREF of A.
    coords = [_ZERO] * n
    for p, row in pivots.items():
        coords[p] = row.get(n, _ZERO)
    return tuple(coords), _kernel(pivots, n)


def invert(M: Matrix) -> Matrix:
    if not M.is_square():
        raise DimensionMismatch("only square matrices invert")
    n = M.rows
    pivots = _echelon(M.hstack(Matrix.identity(n)).entries, 2 * n)
    left_rank = sum(1 for p in pivots if p < n)
    if left_rank < n:
        raise SingularMatrix("matrix of rank %d < %d" % (left_rank, n))
    return Matrix(n, n, tuple(tuple(pivots[p].get(n + j, _ZERO)
                                    for j in range(n)) for p in range(n)))


def is_singular(M: Matrix) -> bool:
    return not M.is_square() or rank(M) < M.rows


def eigenspace(M: Matrix, lam: Scalar) -> list:
    """Exact basis of ker(M - lam*I); empty iff lam is not an eigenvalue."""
    if not M.is_square():
        raise DimensionMismatch("eigenspace of a non-square matrix")
    rows = [list(row) for row in M.entries]
    for i, row in enumerate(rows):
        row[i] = row[i] - lam
    return kernel_basis(Matrix(M.rows, M.cols, tuple(map(tuple, rows))))


def trace(M: Matrix) -> Scalar:
    if not M.is_square():
        raise DimensionMismatch("trace of a non-square matrix")
    return sum((M[i, i] for i in range(M.rows)), Scalar.zero())

