"""Exact linear algebra over Q and Q(i).

A :class:`Matrix` is an immutable record (:mod:`record`): its column
count, kept also without rows, and one ``{column: value}`` dict per row
(their number is the row count) holding only the nonzero entries
(rationals or :class:`Scalar`), so ``==`` is exact; stored rows are never
mutated, and a matrix is unhashable.  Every operation reads the stored
rows, as does the one sparse, incremental elimination (:func:`_echelon`)
behind rank, kernel, solve, inverse and singularity, whose unique reduced
row echelon form needs no tolerance.  ``M[i, j]``, ``row``, ``col`` and
``entries`` read dense values.  Vectors, kernel and eigenspace bases and
solutions are coordinate tuples; a ``leibniz.Subspace`` stores its basis
as the columns of a matrix.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import add, sub

from .errors import DimensionMismatch, SingularMatrix
from .record import Record
from .scalars import _ONE, _ZERO, Scalar, _canonical, quotient


class Matrix(Record):
    __slots__ = ("cols", "nonzero")

    def __init__(self, cols: int, nonzero: tuple):
        """``nonzero`` holds one {column: nonzero value} dict per row; only
        their type is checked: :meth:`from_rows` checks dense rows."""
        if not all(isinstance(row, dict) for row in nonzero):
            raise DimensionMismatch("a Matrix stores one dict per row")
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "nonzero", nonzero)

    @property
    def rows(self) -> int:
        return len(self.nonzero)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]]) -> "Matrix":
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise DimensionMismatch("ragged matrix rows")
        return Matrix(c, tuple({j: v for j, v in enumerate(row) if v}
                               for row in rows))

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(cols, ({},) * rows)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.diagonal([_ONE] * n)

    @staticmethod
    def diagonal(values: Sequence[Scalar]) -> "Matrix":
        return Matrix(len(values), tuple({i: v} if v else {}
                                         for i, v in enumerate(values)))

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self.nonzero[i].get(j, _ZERO)

    def row(self, i: int) -> tuple:
        return tuple(self.nonzero[i].get(j, _ZERO) for j in range(self.cols))

    def col(self, j: int) -> tuple:
        return tuple(row.get(j, _ZERO) for row in self.nonzero)

    @property
    def entries(self) -> tuple:   # the dense row tuples
        return tuple(map(self.row, range(self.rows)))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(add, other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(sub, other)

    def __neg__(self) -> "Matrix":
        return Matrix(self.cols, tuple(
            {j: -v for j, v in row.items()} for row in self.nonzero))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                "cannot multiply %dx%d by %dx%d"
                % (self.rows, self.cols, other.rows, other.cols))
        rows = []
        for row in self.nonzero:
            acc = {}
            for i, a in row.items():
                for j, b in other.nonzero[i].items():
                    v = a * b
                    acc[j] = acc[j] + v if j in acc else v
            rows.append({j: v for j, v in acc.items() if v})
        return Matrix(other.cols, tuple(rows))

    def scale(self, a: Scalar) -> "Matrix":
        return Matrix(self.cols, tuple(
            {j: a * v for j, v in row.items()} if a else {}
            for row in self.nonzero))

    def transpose(self) -> "Matrix":
        return Matrix(self.rows, tuple(
            {i: row[j] for i, row in enumerate(self.nonzero) if j in row}
            for j in range(self.cols)))

    def apply(self, coords: Sequence[Scalar]) -> list:
        """Matrix-vector product returning a plain coordinate list."""
        if len(coords) != self.cols:
            raise DimensionMismatch("vector length %d vs %d columns"
                                    % (len(coords), self.cols))
        return [sum([v * coords[k] for k, v in row.items() if coords[k]],
                    _ZERO) for row in self.nonzero]

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        return Matrix(self.cols + other.cols, tuple(
            {**r, **{self.cols + j: v for j, v in s.items()}}
            for r, s in zip(self.nonzero, other.nonzero)))

    def _entrywise(self, op, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape mismatch")
        return Matrix(self.cols, tuple(
            {j: v for j in r.keys() | s.keys()
             if (v := op(r.get(j, _ZERO), s.get(j, _ZERO)))}
            for r, s in zip(self.nonzero, other.nonzero)))


def _subtract(row: dict, f: Scalar, pivot_row: dict):
    """row -= f * pivot_row in place: zeros dropped, the rest canonical."""
    for c, v in pivot_row.items():
        v = row.get(c, _ZERO) - f * v
        if v:
            row[c] = _canonical(v)
        else:
            del row[c]


def _echelon(rows, ncols: int) -> dict:
    """The unique reduced row echelon form of the span of ``rows`` (sparse
    rows {column: nonzero value} with columns in range(ncols)) as
    {pivot column: sparse row}.  The given rows are left unchanged.

    Rows are inserted one at a time.  A new row is reduced by the pivot
    rows it meets (a zero or repeated row vanishes); what is left becomes a
    pivot row, scaled to 1 at its leading column, which is then cleared
    from the other pivot rows.
    """
    pivots = {}
    for row in rows:
        row = dict(row)
        for p in [p for p in row if p in pivots]:
            _subtract(row, row[p], pivots[p])
        if not row:
            continue
        lead = min(row)
        inv = quotient(_ONE, row[lead])
        row = {c: _canonical(inv * v) for c, v in row.items()}
        for other in pivots.values():
            if lead in other:
                _subtract(other, other[lead], row)
        pivots[lead] = row
    return pivots


def rank(M: Matrix) -> int:
    return len(_echelon(M.nonzero, M.cols))


def kernel_basis(M: Matrix) -> list:
    """Exact basis of ker(M) as coordinate tuples, in free-column order."""
    pivots, basis = _echelon(M.nonzero, M.cols), []
    for free in range(M.cols):
        if free in pivots:
            continue
        coords = [_ZERO] * M.cols
        coords[free] = _ONE
        for p, row in pivots.items():
            coords[p] = -row.get(free, _ZERO)
        basis.append(tuple(coords))
    return basis


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
    # ker [A | -b] ends with (x, 1) for a solution x iff its last column is
    # free; the vectors before it end in 0 and are ker(A) with a 0 appended.
    n, basis = A.cols, kernel_basis(A.hstack(-b))
    if not basis or not basis[-1][n]:
        return NO_SOLUTION
    return basis[-1][:n], [v[:n] for v in basis[:-1]]


def invert(M: Matrix) -> Matrix:
    if not M.is_square():
        raise DimensionMismatch("only square matrices invert")
    n = M.rows
    pivots = _echelon(M.hstack(Matrix.identity(n)).nonzero, 2 * n)
    left_rank = sum(1 for p in pivots if p < n)
    if left_rank < n:
        raise SingularMatrix("matrix of rank %d < %d" % (left_rank, n))
    return Matrix(n, tuple({j - n: v for j, v in pivots[p].items() if j >= n}
                           for p in range(n)))


def is_singular(M: Matrix) -> bool:
    return not M.is_square() or rank(M) < M.rows


def eigenspace(M: Matrix, lam: Scalar) -> list:
    """Exact basis of ker(M - lam*I); empty iff lam is not an eigenvalue."""
    if not M.is_square():
        raise DimensionMismatch("eigenspace of a non-square matrix")
    return kernel_basis(M - Matrix.diagonal([lam] * M.rows))


def trace(M: Matrix) -> Scalar:
    if not M.is_square():
        raise DimensionMismatch("trace of a non-square matrix")
    return sum((M[i, i] for i in range(M.rows)), Scalar.zero())

