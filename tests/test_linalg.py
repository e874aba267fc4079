"""Exact linear algebra: rank, kernel, solve, invert, eigenspaces."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (basis_vectors, canonical, dense, kind, mat,
                      random_dendriform, random_leibniz)
from leibniz_lab import build_phase_space, complexify
from leibniz_lab.errors import DimensionMismatch, SingularMatrix
from leibniz_lab.leibniz import Subspace, is_subalgebra, is_two_sided_ideal
from leibniz_lab.linalg import (Matrix, NO_SOLUTION, eigenspace, invert,
                                is_singular, kernel_basis, rank,
                                solve_linear, trace)
from leibniz_lab.scalars import Scalar


def random_matrix(rng, rows, cols, lo=-5, hi=5):
    return mat([[rng.randint(lo, hi) for _ in range(cols)]
                for _ in range(rows)])


def test_rank_and_kernel_dimensions():
    M = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(M) == 2
    kernel = kernel_basis(M)
    assert len(kernel) == 1
    for v in kernel:
        assert not any(M.apply(v))


def test_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        M = random_matrix(rng, rows, cols)
        kernel = kernel_basis(M)
        assert rank(M) + len(kernel) == cols
        for v in kernel:
            assert not any(M.apply(v))


def test_solve_consistent_and_inconsistent():
    A = mat([[1, 1], [1, 1]])
    assert solve_linear(A, mat([[1], [2]])) == NO_SOLUTION
    particular, kernel = solve_linear(A, mat([[3], [3]]))
    assert A.apply(particular)[0] == 3
    assert len(kernel) == 1


def test_solve_reconstructs_full_solution_set():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 4)
        A = random_matrix(rng, n, n + rng.randint(0, 2))
        x = mat([[rng.randint(-3, 3)] for _ in range(A.cols)])
        b = A @ x
        result = solve_linear(A, b)
        assert result != NO_SOLUTION
        particular, kernel = result
        assert A.apply(particular) == list(b.col(0))
        # x - particular must lie in the kernel span.
        assert rank(Matrix.from_rows(kernel + [
            [a - b for a, b in zip(x.col(0), particular)]])) == len(kernel)


def test_invert_roundtrip_and_singular():
    M = mat([[2, 1], [1, 1]])
    assert M @ invert(M) == Matrix.identity(2)
    with pytest.raises(SingularMatrix):
        invert(mat([[1, 2], [2, 4]]))
    assert is_singular(mat([[1, 2], [2, 4]]))
    assert not is_singular(M)


def test_eigenspace_exact():
    E = mat([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    plus = eigenspace(E, Scalar.of(1))
    minus = eigenspace(E, Scalar.of(-1))
    assert len(plus) == 2 and len(minus) == 1
    assert eigenspace(E, Scalar.of(2)) == []


def test_gaussian_matrices():
    i = Scalar.i()
    J = Matrix.from_rows([[Scalar.zero(), -i], [i.conjugate(), i * i]])
    assert J.conjugate()[0, 1] == i
    assert rank(J) == 2
    assert J @ invert(J) == Matrix.identity(2)
    ev = eigenspace(Matrix.diagonal([i, -i]), i)
    assert len(ev) == 1


def test_subspace_stores_its_basis_columns():
    W = Subspace.from_vectors(mat([[1, 0, 1], [0, 1, 0]]).entries)
    assert W.columns == mat([[1, 0], [0, 1], [1, 0]]) and W.dim == 2
    assert Subspace.from_vectors([]).columns == Matrix.zero(0, 0)
    with pytest.raises(DimensionMismatch):
        Subspace.from_vectors(mat([[1, 2], [2, 4]]).entries)


def test_matrix_shape_errors():
    with pytest.raises(DimensionMismatch):
        mat([[1, 2]]) @ mat([[1, 2]])
    with pytest.raises(DimensionMismatch):
        mat([[1, 2]]) + mat([[1], [2]])
    with pytest.raises(DimensionMismatch):
        trace(mat([[1, 2]]))
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows([[Scalar.of(1)], [Scalar.of(1), Scalar.of(2)]])


def test_operations_refuse_operands_of_the_wrong_shape():
    wide, square = mat([[1, 2, 3], [4, 5, 6]]), mat([[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatch, match="vector length 2 vs 3"):
        wide.apply([1, 2])
    with pytest.raises(DimensionMismatch, match="hstack row mismatch"):
        wide.hstack(mat([[1]]))
    for rhs in (mat([[1], [2], [3]]), mat([[1, 0], [0, 1]])):
        with pytest.raises(DimensionMismatch, match="2-row column"):
            solve_linear(wide, rhs)
    with pytest.raises(DimensionMismatch, match="only square"):
        invert(wide)
    with pytest.raises(DimensionMismatch, match="non-square"):
        eigenspace(wide, Scalar.one())
    with pytest.raises(DimensionMismatch, match="non-square"):
        trace(wide)
    # The square matrix of the same entries passes every guard.
    assert square.apply([1, 1]) == [3, 7] and trace(square) == 5
    assert invert(square) @ square == Matrix.identity(2)


def test_dense_rows_fail_at_construction():
    """The direct constructor takes one {column: value} dict per row; dense
    row tuples or a wrong row count fail at once, not at a first use."""
    one, zero = Scalar.one(), Scalar.zero()
    with pytest.raises(DimensionMismatch):
        Matrix(2, 2, ((one, zero), (zero, one)))
    with pytest.raises(DimensionMismatch):
        Matrix(3, 2, ({0: one}, {}))
    with pytest.raises(DimensionMismatch):
        Matrix(0, 2, ({},))
    assert Matrix(2, 2, ({0: one}, {1: one})) == Matrix.identity(2)


def test_transpose_hstack_column_ops():
    M = mat([[1, 2], [3, 4]])
    assert M.transpose()[0, 1] == 3
    assert M.hstack(mat([[5], [6]])).cols == 3
    assert M.apply([Scalar.of(1), Scalar.of(1)]) == [Scalar.of(3),
                                                     Scalar.of(7)]


# -- differential tests: the sparse echelon core against dense Gauss-Jordan --


def dense_rref(rows: list) -> list:
    """Reference: in-place dense Gauss-Jordan elimination, pivot columns."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]   # exact: int / int is a float
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


def ref_rank(M):
    return len(dense_rref([list(r) for r in M.entries]))


def ref_kernel(M):
    rows = [list(r) for r in M.entries]
    pivots = dense_rref(rows)
    basis = []
    for free in range(M.cols):
        if free in pivots:
            continue
        coords = [Scalar.zero()] * M.cols
        coords[free] = Scalar.one()
        for r_idx, p in enumerate(pivots):
            coords[p] = -rows[r_idx][free]
        basis.append(tuple(coords))
    return basis


def ref_solve(A, b):
    aug = [list(A.row(i)) + [b[i, 0]] for i in range(A.rows)]
    pivots = dense_rref(aug)
    if A.cols in pivots:
        return NO_SOLUTION
    coords = [Scalar.zero()] * A.cols
    for r_idx, p in enumerate(pivots):
        coords[p] = aug[r_idx][A.cols]
    return tuple(coords), ref_kernel(A)


def ref_invert(M):
    n = M.rows
    aug = [list(M.row(i)) + list(Matrix.identity(n).row(i)) for i in range(n)]
    pivots = dense_rref(aug)
    left_rank = sum(1 for p in pivots if p < n)
    if left_rank < n:
        return "matrix of rank %d < %d" % (left_rank, n)
    return Matrix.from_rows([row[n:] for row in aug])


def ref_in_span(vectors, v):
    if not vectors:
        return not any(v)
    return (ref_rank(Matrix.from_rows(vectors))
            == ref_rank(Matrix.from_rows([*vectors, v])))


def exact(value):
    """A Matrix, a coordinate tuple or a list of either with the kind of
    every entry (:func:`conftest.kind`), so that a rational and a Gaussian
    value never compare equal and a float fails."""
    if isinstance(value, list):
        return [exact(M) for M in value]
    if isinstance(value, tuple):
        return [(kind(e), e) for e in value]
    return (value.rows, value.cols,
            [[(kind(e), e) for e in row] for row in value.entries])


small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
entries = {False: st.just(Fraction(0)) | small,
           True: st.just(Fraction(0)) | small | st.builds(Scalar.of, small,
                                                          small)}


@st.composite
def matrices(draw, square=False):
    """Q or Q(i) matrices, tall, wide or square (0 rows included), often
    with zero rows, repeated rows and sums of earlier rows; sometimes of
    full column rank, so that the kernel is empty."""
    entry = entries[draw(st.booleans())]
    cols = draw(st.integers(0 if square else 1, 5))

    def random_rows(lo, hi):
        return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                             min_size=lo, max_size=hi))

    if draw(st.integers(0, 3)) == 0:
        # Unit upper triangular on top: full column rank.
        rows = [[Fraction(1) if j == i else draw(entry) if j > i
                 else Fraction(0) for j in range(cols)] for i in range(cols)]
        if not square:
            rows += random_rows(0, 3)
    else:
        rows = random_rows(cols, cols) if square else random_rows(0, 7)
        for t in range(1, len(rows)):
            earlier, previous = rows[draw(st.integers(0, t - 1))], rows[t - 1]
            rows[t] = draw(st.sampled_from((
                rows[t], rows[t], [Fraction(0)] * cols, list(earlier),
                [x + y for x, y in zip(earlier, previous)])))
    rows = draw(st.permutations(rows))
    return dense(cols, rows)


def column(values):
    return dense(1, [[c] for c in values])


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_and_kernel_match_dense_reference(M):
    assert rank(M) == ref_rank(M)
    assert exact(kernel_basis(M)) == exact(ref_kernel(M))
    assert is_singular(M) == (not M.is_square() or ref_rank(M) < M.rows)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.booleans(), st.data())
def test_solve_and_span_match_dense_reference(A, consistent, data):
    entry = entries[True]
    if consistent:
        b = column(A.apply(data.draw(st.lists(entry, min_size=A.cols,
                                              max_size=A.cols))))
    else:
        b = column(data.draw(st.lists(entry, min_size=A.rows,
                                      max_size=A.rows)))
    got, want = solve_linear(A, b), ref_solve(A, b)
    if want == NO_SOLUTION:
        assert got == NO_SOLUTION
    else:
        assert exact(got[0]) == exact(want[0])
        assert exact(got[1]) == exact(want[1])
    # Membership in spans of kernel bases (independent by construction),
    # read from the stored columns: combinations inside the span and drawn
    # vectors, one at a time and all at once.
    basis = kernel_basis(A)
    for k in (0, len(basis) // 2, len(basis)):
        W = Subspace.from_vectors(basis[:k])
        inside = [[sum((c * v[i] for c, v in zip(cs, basis)), Fraction(0))
                   for i in range(A.cols)]
                  for cs in data.draw(st.lists(st.lists(
                      entry, min_size=k, max_size=k), max_size=2))]
        vectors = inside + data.draw(st.lists(st.lists(
            entry, min_size=A.cols, max_size=A.cols), max_size=2))
        for stack in [[v] for v in vectors] + [vectors]:
            got = rank(Matrix.from_rows(basis_vectors(W) + stack)) == k
            assert got == all(ref_in_span(basis[:k], v) for v in stack)


@settings(max_examples=200, deadline=None)
@given(matrices(square=True))
def test_invert_matches_dense_reference(M):
    want = ref_invert(M)
    if isinstance(want, str):
        with pytest.raises(SingularMatrix, match=want):
            invert(M)
    else:
        assert exact(invert(M)) == exact(want)


# -- pivots other than +-1: the elimination keeps its values canonical --------

NON_UNIT = st.sampled_from((0, 1, -1, 2, -2, 3, -3, Fraction(1, 2),
                            Fraction(-1, 2), Fraction(2, 3), Fraction(-2, 3)))


@st.composite
def non_unit_systems(draw):
    """(M, b): a Q or Q(i) matrix, square about half the time, whose
    entries, and so whose pivots, are mostly not +-1 (Q(i) entries are
    Scalar.of(x, y) with both parts drawn alike), a right-hand side of M's
    image about half the time."""
    entry = (st.builds(Scalar.of, NON_UNIT, NON_UNIT) if draw(st.booleans())
             else NON_UNIT)
    cols = draw(st.integers(1, 5))
    nrows = cols if draw(st.booleans()) else draw(st.integers(0, 6))
    M = dense(cols, draw(st.lists(st.lists(entry, min_size=cols,
                                           max_size=cols),
                                  min_size=nrows, max_size=nrows)))
    b = (M.apply(draw(st.lists(entry, min_size=cols, max_size=cols)))
         if draw(st.booleans())
         else draw(st.lists(entry, min_size=nrows, max_size=nrows)))
    return M, column(b)


@settings(max_examples=300, deadline=None)
@given(non_unit_systems())
def test_elimination_is_canonical_on_non_unit_pivots(system):
    """rank, kernel_basis, solve_linear and invert agree with the dense
    reference, and every value they return is canonical
    (:func:`conftest.canonical`): the elimination turns an integral
    ``Fraction`` it makes into its int."""
    M, b = system
    assert rank(M) == ref_rank(M)
    kernel, solved, want = kernel_basis(M), solve_linear(M, b), ref_solve(M, b)
    assert exact(kernel) == exact(ref_kernel(M))
    returned = [c for v in kernel for c in v]
    if want == NO_SOLUTION:
        assert solved == NO_SOLUTION
    else:
        assert exact(solved[0]) == exact(want[0])
        assert exact(solved[1]) == exact(want[1])
        returned += [c for v in (solved[0], *solved[1]) for c in v]
    if M.is_square():
        inverse = ref_invert(M)
        if isinstance(inverse, str):
            with pytest.raises(SingularMatrix, match=inverse):
                invert(M)
        else:
            got = invert(M)
            assert exact(got) == exact(inverse)
            returned += [c for row in got.entries for c in row]
    assert [c for c in returned if not canonical(c)] == []


# -- subalgebra and ideal tests: one elimination against per-pair membership --


def ref_is_subalgebra(A, W):
    """The per-pair loop that ``is_subalgebra`` replaced."""
    basis = basis_vectors(W)
    return all(ref_in_span(basis, A.bracket(u, v))
               for u in basis for v in basis)


def ref_is_two_sided_ideal(A, W):
    """The per-pair loop that ``is_two_sided_ideal`` replaced."""
    basis = basis_vectors(W)
    return all(ref_in_span(basis, A.bracket(A.basis_vector(i), w))
               and ref_in_span(basis, A.bracket(w, A.basis_vector(i)))
               for i in range(A.dim) for w in basis)


def one_sided_closure(A, v, left):
    """The smallest subspace that holds v and is closed under x -> [e_i, x]
    (``left``) or x -> [x, e_i] for every basis vector e_i."""
    todo, basis = [v], []
    while todo:
        w = todo.pop()
        if ref_rank(Matrix.from_rows(basis + [w])) > len(basis):
            basis.append(w)
            todo += [A.bracket(e, w) if left else A.bracket(w, e)
                     for e in map(A.basis_vector, range(A.dim))]
    return Subspace.from_vectors(basis)


@st.composite
def algebras_with_subspaces(draw):
    """A conftest algebra (nilpotent, or a phase space), over Q or Q(i),
    with the kernel of a drawn matrix and both one-sided closures of a
    drawn vector.  A zero last column puts the last basis vector in the
    kernel, which often closes it up; a one-sided closure in a phase space
    is often an ideal on that side only."""
    gaussian = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    if draw(st.booleans()):
        A = random_leibniz(rng, draw(st.integers(1, 5)))
    else:
        D = random_dendriform(rng, draw(st.integers(1, 3)))
        A = build_phase_space(D).total
    if gaussian:
        A = complexify(A)
    n, entry, zero_last = A.dim, entries[gaussian], draw(st.booleans())
    rows = [[Fraction(0) if zero_last and j == n - 1 else draw(entry)
             for j in range(n)] for _ in range(draw(st.integers(0, n)))]
    M = dense(n, rows)
    v = draw(st.lists(entry, min_size=n, max_size=n))
    return A, [Subspace.from_vectors(kernel_basis(M)),
               one_sided_closure(A, v, True), one_sided_closure(A, v, False)]


@settings(max_examples=200, deadline=None)
@given(algebras_with_subspaces())
def test_subalgebra_and_ideal_match_per_pair_reference(case):
    A, subspaces = case
    for W in subspaces:
        assert is_subalgebra(A, W) == ref_is_subalgebra(A, W)
        assert is_two_sided_ideal(A, W) == ref_is_two_sided_ideal(A, W)


# -- zero-skipping products against the dense loops they replaced ----------


def test_results_keep_their_shape_without_rows_or_columns():
    """A result with no rows still knows how many columns it has."""
    empty, tall = dense(3, []), dense(0, [[]] * 3)
    B = mat([[1, 2], [3, 4], [5, 6]])
    for M, shape in ((empty @ B, (0, 2)),
                     (empty.scale(Scalar.of(2)), (0, 3)),
                     (empty - empty, (0, 3)),
                     (empty + empty, (0, 3)),
                     (-empty, (0, 3)),
                     (empty.conjugate(), (0, 3)),
                     (empty.hstack(dense(2, [])), (0, 5)),
                     (empty.transpose(), (3, 0)),
                     (tall.transpose(), (0, 3)),
                     (tall @ empty, (3, 3)),
                     (empty @ tall, (0, 0)),
                     (tall.hstack(tall), (3, 0))):
        assert (M.rows, M.cols) == shape
        assert len(M.entries) == M.rows
        assert all(len(row) == M.cols for row in M.entries)
    assert tall @ empty == Matrix.zero(3, 3)
    assert empty.apply([Scalar.one()] * 3) == []
    assert tall.apply([]) == [Scalar.zero()] * 3


def ref_dot(u, v):
    return sum([a * b for a, b in zip(u, v) if a and b], Fraction(0))


def ref_matmul(A, B):
    return dense(B.cols, (
        [ref_dot(A.row(i), B.col(j)) for j in range(B.cols)]
        for i in range(A.rows)))


def ref_scale(M, a):
    return dense(M.cols, ([a * e for e in row] for row in M.entries))


def ref_apply(M, coords):
    return [ref_dot(M.row(i), coords) for i in range(M.rows)]


def ref_eigenspace(M, lam):
    shifted = ref_scale(Matrix.identity(M.rows), lam)
    return kernel_basis(dense(M.cols, (
        [a - b for a, b in zip(r, s)]
        for r, s in zip(M.entries, shifted.entries))))


def sparse_entries(gaussian):
    """Mostly zeros, and rationals as well as Gaussian values in Q(i)."""
    return st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                     entries[gaussian])


@st.composite
def sparse_matrix(draw, rows, cols, gaussian):
    entry = sparse_entries(gaussian)
    return dense(cols, ([draw(entry) for _ in range(cols)]
                        for _ in range(rows)))


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),
       st.data())
def test_products_match_dense_reference(gaussian, r, k, c, data):
    A = data.draw(sparse_matrix(r, k, gaussian))
    B = data.draw(sparse_matrix(k, c, gaussian))
    a = data.draw(sparse_entries(gaussian))
    v = data.draw(st.lists(sparse_entries(gaussian), min_size=k, max_size=k))
    assert exact(A @ B) == exact(ref_matmul(A, B))
    assert exact(A.scale(a)) == exact(ref_scale(A, a))
    assert exact(tuple(A.apply(v))) == exact(tuple(ref_apply(A, v)))
    assert exact(A.transpose()) == exact(dense(r, (
        [A[i, j] for i in range(r)] for j in range(k))))


@settings(max_examples=200, deadline=None)
@given(st.booleans(), st.integers(0, 5), st.data())
def test_eigenspace_matches_dense_reference(gaussian, n, data):
    """Drawn matrices, and involutions and anti-involutions sign-diagonal
    up to a unitriangular basis change, at their eigenvalues."""
    M = data.draw(sparse_matrix(n, n, gaussian))
    lam = data.draw(sparse_entries(gaussian))
    assert exact(eigenspace(M, lam)) == exact(ref_eigenspace(M, lam))
    g = data.draw(sparse_matrix(n, n, gaussian))
    g = dense(n, ([Fraction(1) if i == j else g[i, j] if j > i
                   else Fraction(0) for j in range(n)] for i in range(n)))
    unit = Scalar.i() if gaussian else Scalar.one()
    signs = data.draw(st.lists(st.sampled_from((unit, -unit)),
                               min_size=n, max_size=n))
    S = invert(g) @ Matrix.diagonal(signs) @ g
    for lam in (unit, -unit, data.draw(sparse_entries(gaussian))):
        assert exact(eigenspace(S, lam)) == exact(ref_eigenspace(S, lam))


# -- storage invariants: only nonzero values stored, operands never mutated --


def stores_only_nonzero(M):
    """One row dict per row, columns in range, no zero value stored."""
    return len(M.nonzero) == M.rows and all(
        all(0 <= j < M.cols and v for j, v in row.items())
        for row in M.nonzero)


def snapshot(*matrices):
    return [tuple(dict(row) for row in M.nonzero) for M in matrices]


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),
       st.data())
def test_results_store_only_nonzero_values(gaussian, r, k, c, data):
    """Cancellation and scaling by 0 leave no zero behind, so equal
    matrices compare equal with ``==``."""
    A = data.draw(sparse_matrix(r, k, gaussian))
    B = data.draw(sparse_matrix(k, c, gaussian))
    S = data.draw(sparse_matrix(k, k, gaussian))
    lam = data.draw(st.sampled_from([S[i, i] for i in range(k)]
                                    or [Fraction(0)]))
    # [A, -A] times I stacked on I cancels to zero inside one product.
    I = Matrix.identity(k).entries
    cancelled = A.hstack(-A) @ dense(k, [*I, *I])
    results = [A + A, A - A, A + -A, -A, A @ B, cancelled,
               A.scale(Fraction(0)),
               A.scale(data.draw(sparse_entries(gaussian))), A.transpose(),
               A.conjugate(), A.hstack(A), S - Matrix.diagonal([lam] * k),
               S - S.transpose()]
    if not is_singular(S):
        results += [invert(S), S @ invert(S), invert(S) @ S]
        assert S @ invert(S) == Matrix.identity(k) == invert(S) @ S
    for M in results:
        assert stores_only_nonzero(M)
    assert A - A == Matrix.zero(r, k) == A.scale(Fraction(0))
    assert A + -A == Matrix.zero(r, k) == cancelled
    assert A.transpose().transpose() == A


@settings(max_examples=200, deadline=None)
@given(matrices(), st.booleans(), st.data())
def test_operations_leave_their_operands_unchanged(A, gaussian, data):
    b = data.draw(sparse_matrix(A.rows, 1, gaussian))
    B = data.draw(sparse_matrix(A.cols, data.draw(st.integers(0, 4)),
                                gaussian))
    before = snapshot(A, b, B)
    rank(A)
    kernel_basis(A)
    solve_linear(A, b)
    A @ B
    A.hstack(b)
    if A.is_square():
        eigenspace(A, data.draw(sparse_entries(gaussian)))
        if not is_singular(A):
            invert(A)
    assert snapshot(A, b, B) == before
