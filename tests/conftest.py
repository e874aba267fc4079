"""Shared fixtures: worked examples and deterministic random generators."""

import random
from fractions import Fraction

import pytest

from leibniz_lab import (DendriformAlgebra, LeibnizAlgebra, build_phase_space,
                         sample_nondegenerate, solve_symplectic_space,
                         symplectic_to_dendriform, verify_dendriform,
                         verify_leibniz)
from leibniz_lab.linalg import Matrix, kernel_basis
from leibniz_lab.scalars import Scalar


def canonical(value):
    """Whether a field element has the one form of a value made in
    ``scalars``: an int when rational and integral, a Fraction when
    rational and not, and a Scalar (nonzero imaginary part) of canonical
    parts."""
    if type(value) is Scalar:
        return (value.imag != 0 and canonical(value.real)
                and canonical(value.imag))
    return type(value) is int or (type(value) is Fraction
                                  and value.denominator != 1)


def kind(value):
    """"Q" for a rational (an int or a Fraction), "Q(i)" for a Scalar of
    canonical parts; a float, a bool or any other type fails the test."""
    if type(value) in (int, Fraction):
        return "Q"
    assert type(value) is Scalar and canonical(value), \
        "not an exact field element: %r" % (value,)
    return "Q(i)"


def mat(rows):
    """Build a Matrix from a nested list of ints/Fractions."""
    return Matrix.from_rows([[Scalar.of(e) for e in row] for row in rows])


def dense(cols, rows):
    """Matrix.from_rows(rows), with ``cols`` columns also when there are
    no rows."""
    rows = list(rows)
    return Matrix.from_rows(rows) if rows else Matrix.zero(0, cols)


def diag(*signs):
    return Matrix.diagonal([Scalar.of(s) for s in signs])


# -- dense references: vectors as coordinate lists -----------------------------


def basis_vectors(W):
    """The basis vectors of a Subspace: the columns it stores."""
    return [W.columns.col(a) for a in range(W.dim)]


def vadd(x, y):
    return [a + b for a, b in zip(x, y)]


def form_value(B, x, y):
    """The bilinear form B(x, y) = sum_ij x_i y_j B[i, j], entry by entry."""
    acc = Scalar.zero()
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if yj:
                acc = acc + xi * yj * B[i, j]
    return acc


@pytest.fixture
def heisenberg_like():
    """Four-dimensional algebra with the single bracket [e1, e3] = 2 e4."""
    return LeibnizAlgebra.from_brackets(
        4, {(0, 2): {3: Scalar.of(2)}}, labels=("e1", "e2", "e3", "e4"))


@pytest.fixture
def squares_algebra():
    """Four-dimensional algebra with [e1, e1] = [e2, e2] = e3."""
    return LeibnizAlgebra.from_brackets(
        4, {(0, 0): {2: Scalar.of(1)}, (1, 1): {2: Scalar.of(1)}})


@pytest.fixture
def sl2():
    """sl(2) in the basis (h, e, f): [h,e]=2e, [h,f]=-2f, [e,f]=h."""
    two, m_two, one, m_one = (Scalar.of(2), Scalar.of(-2), Scalar.of(1),
                              Scalar.of(-1))
    return LeibnizAlgebra.from_brackets(3, {
        (0, 1): {1: two}, (1, 0): {1: m_two},
        (0, 2): {2: m_two}, (2, 0): {2: two},
        (1, 2): {0: one}, (2, 1): {0: m_one},
    }, labels=("h", "e", "f"))


# -- deterministic random instance generators --------------------------------


def random_leibniz(rng: random.Random, dim: int) -> LeibnizAlgebra:
    """A random nilpotent algebra: all brackets land on the last basis
    vector, which itself annihilates — the Leibniz identity holds by
    construction (both sides of every triple vanish)."""
    brackets = {}
    for i in range(dim - 1):
        for j in range(dim - 1):
            c = rng.randint(-3, 3)
            if c:
                brackets[(i, j)] = {dim - 1: Scalar.of(c)}
    A = LeibnizAlgebra.from_brackets(dim, brackets)
    assert verify_leibniz(A).ok
    return A


def random_dendriform(rng: random.Random, dim: int) -> DendriformAlgebra:
    """A random dendriform algebra of the same nilpotent shape: both
    products of the first dim-1 basis vectors land on the last one, which
    annihilates on either side, so every axiom term vanishes."""
    if dim == 1 and rng.random() < 0.5:
        # The one-parameter family e<e = a e, e>e = -a e.
        a = Scalar.of(rng.randint(-3, 3))
        left = [[(a,)]]
        right = [[(-a,)]]
        D = DendriformAlgebra.from_constants(left, right)
        assert verify_dendriform(D).ok
        return D
    zero = Scalar.zero()
    left = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    right = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim - 1):
        for j in range(dim - 1):
            left[i][j][dim - 1] = Scalar.of(rng.randint(-3, 3))
            right[i][j][dim - 1] = Scalar.of(rng.randint(-3, 3))
    D = DendriformAlgebra.from_constants(left, right)
    assert verify_dendriform(D).ok
    return D


def random_dendriform_with_skew(rng: random.Random) -> DendriformAlgebra:
    """A two-dimensional dendriform algebra guaranteed to carry a
    nonsingular skew invariant form: e0 < e0 = -2p e1 and e0 > e0 = p e1
    with e1 annihilating on either side."""
    p = Scalar.of(rng.randint(1, 4) * rng.choice((1, -1)))
    zero = Scalar.zero()
    left = [[[zero, p * Scalar.of(-2)], [zero, zero]],
            [[zero, zero], [zero, zero]]]
    right = [[[zero, p], [zero, zero]],
             [[zero, zero], [zero, zero]]]
    D = DendriformAlgebra.from_constants(left, right)
    assert verify_dendriform(D).ok
    return D


def random_symplectic_instance(rng: random.Random, dim: int):
    """(algebra, nondegenerate symplectic form) or None when sampling
    misses a nonsingular member."""
    A = random_leibniz(rng, dim)
    _, sample = solve_symplectic_space(A, seed=rng.randint(0, 10 ** 6))
    if sample is None:
        return None
    return A, sample


def random_skew_nonsingular(rng: random.Random, dim: int) -> Matrix:
    """Random skew nonsingular matrix; only even dimensions admit one."""
    assert dim % 2 == 0
    from leibniz_lab.linalg import is_singular
    while True:
        rows = [[Scalar.zero() for _ in range(dim)] for _ in range(dim)]
        for p in range(dim):
            for q in range(p + 1, dim):
                c = Scalar.of(rng.randint(-4, 4))
                rows[p][q] = c
                rows[q][p] = -c
        S = Matrix.from_rows(rows)
        if not is_singular(S):
            return S


def invariant_skew_forms(D: DendriformAlgebra):
    """Basis of the space of skew forms invariant for both products,
    found by an independent linear solve (strict upper triangle unknowns)."""
    n = D.dim
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    index = {pq: t for t, pq in enumerate(pairs)}

    def skew_entry(row, p, q, c):
        if p == q:
            return  # diagonal of a skew form is zero, no unknown involved
        t = index[(min(p, q), max(p, q))]
        row[t] = row[t] + (c if p < q else -c)

    def value_rows(product):
        rows = []
        for i in range(n):
            x = D.basis_vector(i)
            for j in range(n):
                y = D.basis_vector(j)
                for k in range(n):
                    z = D.basis_vector(k)
                    row = [Scalar.zero() for _ in pairs]
                    if product == "left":
                        # w(x<y, z) + w(y, x<z) = 0
                        for p, c in enumerate(D.left(x, y)):
                            if c:
                                skew_entry(row, p, k, c)
                        for p, c in enumerate(D.left(x, z)):
                            if c:
                                skew_entry(row, j, p, c)
                    else:
                        # w(x>y, z) - w(x, y<z + z>y) = 0
                        for p, c in enumerate(D.right(x, y)):
                            if c:
                                skew_entry(row, p, k, c)
                        combo = [a + b for a, b in zip(D.left(y, z),
                                                       D.right(z, y))]
                        for p, c in enumerate(combo):
                            if c:
                                skew_entry(row, i, p, -c)
                    if any(row):
                        rows.append(row)
        return rows

    rows = value_rows("left") + value_rows("right")
    if not rows:
        kernel_cols = None
    else:
        kernel_cols = kernel_basis(Matrix.from_rows(rows))
    forms = []
    coord_sets = (kernel_cols
                  if kernel_cols is not None else
                  [[Scalar.one() if t == s else Scalar.zero()
                    for t in range(len(pairs))] for s in range(len(pairs))])
    for coords in coord_sets:
        out = [[Scalar.zero() for _ in range(n)] for _ in range(n)]
        for (p, q), c in zip(pairs, coords):
            out[p][q] = c
            out[q][p] = -c
        forms.append(Matrix.from_rows(out))
    return forms


def random_invariant_skew(rng: random.Random, D: DendriformAlgebra):
    """A nonsingular skew invariant form on D, or None."""
    forms = invariant_skew_forms(D)
    return sample_nondegenerate(forms, seed=rng.randint(0, 10 ** 6))
