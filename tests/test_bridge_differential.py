"""The sparse bridge against the dense code it replaced.

``ref_realify`` keeps the realification that ran before: the doubled
bracket through ``tensor_from`` over dense ``bracket_basis`` lists, each
coordinate multiplied by its unit product and split with ``Scalar.of``,
and B', J' from dense unit products.  ``ref_check_para_kahler`` reads the
product and paracomplex verdicts from a full ``classify_product`` report.
Both must agree with the library in every value and entry type, over
Gaussian algebras whose coefficients have nonzero imaginary parts, which
the complexified rational algebras of the benchmark never have.
"""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_dendriform
from leibniz_lab import (LeibnizAlgebra, build_phase_space,
                         check_para_kahler, check_pseudo_kahler,
                         classify_product, realify, verify_symplectic)
from leibniz_lab.errors import NotInvolution
from leibniz_lab.kahler import _realified_brackets
from leibniz_lab.leibniz import (OK, CheckResult, _require_square,
                                 tensor_from, transport)
from leibniz_lab.linalg import Matrix, invert
from leibniz_lab.scalars import GAUSSIAN, RATIONAL, Scalar


def ref_realified_brackets(A):
    n = A.dim
    units = [Scalar.one()] * n + [Scalar.i()] * n

    def product(a, b):
        v = [units[a] * units[b] * c for c in A.bracket_basis(a % n, b % n)]
        return [Scalar.of(c.real) for c in v] + [Scalar.of(c.imag) for c in v]
    return tensor_from(2 * n, product)


def ref_realify(A, B, E):
    n = A.dim
    units = [Scalar.one()] * n + [Scalar.i()] * n
    doubled = range(2 * n)

    def real(values):
        return [Scalar.of(v.real) for v in values]

    def imag(values):
        return [Scalar.of(v.imag) for v in values]

    algebra = LeibnizAlgebra(2 * n, ref_realified_brackets(A), RATIONAL)
    b_real = Matrix.from_rows(
        [real([units[a] * units[b] * B[a % n, b % n] for b in doubled])
         for a in doubled])
    P_mat = Matrix.from_rows([real(row) for row in E.entries])
    Q_mat = Matrix.from_rows([imag(row) for row in E.entries])
    top = (-Q_mat).hstack(-P_mat)
    bottom = P_mat.hstack(-Q_mat)
    return algebra, b_real, Matrix.from_rows(top.entries + bottom.entries)


def ref_check_para_kahler(A, B, E):
    _require_square(E, A.dim, "operator")
    check = verify_symplectic(A, B)
    if not check.ok:
        return CheckResult(False, "SYMPLECTIC_FAILS", check.indices,
                           check.lhs, check.rhs)
    report = classify_product(A, E)
    if not report.is_product:
        return CheckResult(False, "PRODUCT_FAILS")
    if not report.is_paracomplex:
        return CheckResult(False, "NOT_PARACOMPLEX")
    if E.transpose() @ B @ E != B.scale(Scalar.of(-1)):
        return CheckResult(False, "COMPAT_FAILS")
    return OK


def typed_tensor(tensor):
    return {key: {k: (type(c), c) for k, c in value.items()}
            for key, value in tensor.items()}


def typed_matrix(M):
    return (M.rows, M.cols, [[(type(e), e) for e in row] for row in M.entries])


small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
gaussian = st.builds(Scalar.of, small, small)
# Purely imaginary values too, whose real part is dropped.
nonzero = (gaussian | st.builds(Scalar.of, st.just(0), small)).filter(bool)


@st.composite
def gaussian_algebras(draw):
    """Sparse Q(i) tensors, mostly not Leibniz."""
    n = draw(st.integers(0, 4))
    index = st.integers(0, max(n - 1, 0))
    brackets = draw(st.dictionaries(
        st.tuples(index, index), st.dictionaries(index, nonzero, min_size=1,
                                                 max_size=3),
        max_size=2 * n)) if n else {}
    return LeibnizAlgebra.from_brackets(n, brackets, GAUSSIAN)


@settings(max_examples=200, deadline=None)
@given(gaussian_algebras())
def test_realified_brackets_match_dense_reference(A):
    assert (typed_tensor(_realified_brackets(A))
            == typed_tensor(ref_realified_brackets(A)))


@st.composite
def unitriangular(draw, n, entry):
    return Matrix.from_rows([[
        Fraction(1) if i == j else draw(entry) if j > i else Fraction(0)
        for j in range(n)] for i in range(n)])


def moved(A, B, E, g):
    """The same structure in the basis of the columns of g."""
    return (LeibnizAlgebra(A.dim, transport(A.brackets, g, g, invert(g)),
                           A.field),
            g.transpose() @ B @ g, invert(g) @ E @ g)


def canonical_E(n):
    return Matrix.diagonal([Scalar.one()] * n + [Scalar.of(-1)] * n)


@st.composite
def phase_spaces(draw):
    """A phase space with its form and its canonical para-Kahler E, over Q
    or, moved by a Gaussian unitriangular basis change, over Q(i)."""
    D = random_dendriform(Random(draw(st.integers(0, 10 ** 6))),
                          draw(st.integers(1, 3)))
    P = build_phase_space(D)
    A, B, E = P.total, P.form, canonical_E(D.dim)
    if draw(st.booleans()):
        g = draw(unitriangular(A.dim, st.just(Fraction(0)) | gaussian))
        A, B, E = moved(
            LeibnizAlgebra(A.dim, A.brackets, GAUSSIAN, A.labels), B, E, g)
    return A, B, E


@settings(max_examples=60, deadline=None)
@given(phase_spaces())
def test_realify_matches_dense_reference(triple):
    """Also on genuinely Gaussian triples, whose realification is still
    pseudo-Kahler."""
    A, B, E = triple
    if A.field != GAUSSIAN:
        A = LeibnizAlgebra(A.dim, A.brackets, GAUSSIAN, A.labels)
    assert check_para_kahler(A, B, E).ok
    got, want = realify(A, B, E), ref_realify(A, B, E)
    assert got[0].dim == want[0].dim and got[0].field == want[0].field
    assert typed_tensor(got[0].brackets) == typed_tensor(want[0].brackets)
    assert typed_matrix(got[1]) == typed_matrix(want[1])
    assert typed_matrix(got[2]) == typed_matrix(want[2])
    assert check_pseudo_kahler(*got).ok


def outcome(check, *args):
    try:
        return check(*args)
    except NotInvolution as exc:
        return ("NotInvolution", str(exc))


@st.composite
def para_kahler_cases(draw):
    """Phase spaces with their form or a drawn symmetric one, and a
    sign-diagonal involution, one moved by a unitriangular basis change,
    +-I, the canonical E, or a matrix that is not an involution."""
    A, B, E = draw(phase_spaces())
    n = A.dim
    entry = small if A.field == RATIONAL else small | gaussian
    if draw(st.integers(0, 4)) == 0:
        rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
        B = Matrix.from_rows([[rows[min(i, j)][max(i, j)]
                              for j in range(n)] for i in range(n)])
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    D = Matrix.diagonal([Scalar.of(s) for s in signs])
    h = draw(unitriangular(n, st.just(Fraction(0)) | entry))
    kind = draw(st.sampled_from(("diagonal", "moved", "identity", "minus",
                                 "canonical", "not involution")))
    E = {"diagonal": D, "moved": invert(h) @ D @ h,
         "identity": Matrix.identity(n),
         "minus": Matrix.identity(n).scale(Scalar.of(-1)),
         "canonical": E,
         "not involution": h.scale(Scalar.of(2)) @ D}[kind]
    return A, B, E


@settings(max_examples=200, deadline=None)
@given(para_kahler_cases())
def test_check_para_kahler_matches_classify_product_reference(case):
    assert (outcome(check_para_kahler, *case)
            == outcome(ref_check_para_kahler, *case))


def test_check_para_kahler_reaches_every_verdict():
    """Fixed instances of each verdict, on the phase space with the single
    bracket [e0, e3] = -e2."""
    P = build_phase_space(random_dendriform(Random(5), 2))
    A, B = P.total, P.form
    assert A.brackets == {(0, 3): {2: Fraction(-1)}}
    for signs, reason in (((1, 1, -1, -1), None),
                          ((-1, -1, 1, 1), None),
                          ((1, -1, 1, -1), "COMPAT_FAILS"),
                          ((1, 1, 1, -1), "NOT_PARACOMPLEX"),
                          ((1, -1, -1, 1), "PRODUCT_FAILS")):
        E = Matrix.diagonal([Scalar.of(s) for s in signs])
        check = check_para_kahler(A, B, E)
        assert check.reason == reason
        assert check == ref_check_para_kahler(A, B, E)
    assert check_para_kahler(A, Matrix.identity(4), canonical_E(2)).reason \
        == "SYMPLECTIC_FAILS"
    with pytest.raises(NotInvolution):
        check_para_kahler(A, B, Matrix.identity(4).scale(Scalar.of(2)))
