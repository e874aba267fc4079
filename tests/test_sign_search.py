"""The sign search of ``enumerate_diagonal_products`` against the loop it
replaced.

``ref_enumerate_diagonal_products`` keeps the code that ran before: every
one of the 2^n sign patterns, in binary-counting order, through a full
``classify_product``, keeping the product structures.  The search must
return the same list of (E, report) pairs in the same order, over Q and
Q(i), on the 0-dim algebra and on sparse tensors that are not Leibniz.
"""

from fractions import Fraction
from random import Random

from hypothesis import given, settings, strategies as st

from conftest import random_leibniz
from leibniz_lab import (LeibnizAlgebra, classify_product,
                         enumerate_diagonal_products, verify_nijenhuis)
from leibniz_lab.linalg import Matrix
from leibniz_lab.scalars import GAUSSIAN, RATIONAL, Scalar


def ref_enumerate_diagonal_products(A):
    results = []
    for pattern in range(2 ** A.dim):
        signs = [Scalar.of(-1) if (pattern >> i) & 1 else Scalar.one()
                 for i in range(A.dim)]
        E = Matrix.diagonal(signs)
        report = classify_product(A, E)
        if report.is_product:
            results.append((E, report))
    return results


def signs_of(E):
    return tuple(int(E[i, i].real) for i in range(E.rows))


def binary_rank(signs):
    """The pattern number: bit i is set iff the sign at index i is -1."""
    return sum(1 << i for i, s in enumerate(signs) if s < 0)


@st.composite
def sparse_algebras(draw):
    """A few bracket entries, drawn freely (rarely Leibniz) or only where
    a planted sign pattern allows them, so that some patterns besides the
    two constant ones survive."""
    field, n = draw(st.sampled_from((RATIONAL, GAUSSIAN))), draw(st.integers(0, 8))
    planted = [draw(st.sampled_from((1, -1))) for _ in range(n)]
    brackets = {}
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        if (draw(st.booleans()) and planted[i] == planted[j]
                and planted[k] != planted[i]):
            continue
        re = draw(st.sampled_from((1, -1, 2, Fraction(1, 2))))
        im = draw(st.sampled_from((0, 1, -2))) if field == GAUSSIAN else 0
        brackets.setdefault((i, j), {})[k] = Scalar.of(re, im)
    return LeibnizAlgebra.from_brackets(n, brackets, field)


@settings(max_examples=40, deadline=None)
@given(sparse_algebras())
def test_search_matches_the_pattern_loop(A):
    assert enumerate_diagonal_products(A) == ref_enumerate_diagonal_products(A)


def test_zero_dim_algebra_has_the_empty_pattern():
    A = LeibnizAlgebra.from_brackets(0, {})
    assert enumerate_diagonal_products(A) == ref_enumerate_diagonal_products(A)
    assert len(enumerate_diagonal_products(A)) == 1


def test_one_source_bracket_at_dimension_24():
    """[e0, e0] = e1 + ... + e23 ties every sign to the sign at index 0;
    each clause is decided only there, so a search that only prunes would
    take about 4^(n/2) steps."""
    n = 24
    A = LeibnizAlgebra.from_brackets(
        n, {(0, 0): {k: Scalar.one() for k in range(1, n)}})
    assert [signs_of(E) for E, _ in enumerate_diagonal_products(A)] == [
        (1,) * n, (-1,) * n]


def test_nilpotent_generator_at_dimension_24():
    A = random_leibniz(Random(0), 24)
    found = enumerate_diagonal_products(A)
    patterns = [binary_rank(signs_of(E)) for E, _ in found]
    assert patterns == sorted(set(patterns))
    assert {0, 2 ** 24 - 1} <= set(patterns)
    for E, report in found:
        assert report.is_product and verify_nijenhuis(A, E).ok
