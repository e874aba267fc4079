"""Subspace tests, the Killing form and Levi-Civita products on the stored
tensors, against the vector loops they replaced.

The ``ref_*`` functions keep those loops: a bracket (or dendriform product)
of each pair of basis vectors, and a dense ``form_value`` for each isotropy
or pairing entry.  The library must agree with them on the verdict, the
reason and the witness pair, over Q and Q(i), on {0}, the whole space and
spans of random non-unit vectors, with singular and nondegenerate
symmetric forms.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (basis_vectors, dense, form_value, random_dendriform,
                      random_leibniz)
from test_term_tables import (coefficient, dendriform, random_form,
                              random_tensor, typed)
from leibniz_lab import (DendriformAlgebra, LeibnizAlgebra, PhaseSpace,
                         Subspace, build_phase_space, complexify,
                         is_abelian_subalgebra, is_subalgebra,
                         is_two_sided_ideal, killing_form, levi_civita,
                         verify_leibniz, verify_phase_space,
                         verify_symplectic)
from leibniz_lab import linalg, symplectic
from leibniz_lab.errors import DimensionMismatch
from leibniz_lab.leibniz import OK, CheckResult, _columns, tensor_sum
from leibniz_lab.linalg import Matrix, is_singular, rank, trace
from leibniz_lab.scalars import GAUSSIAN, RATIONAL, Scalar

# -- the vector loops the tensor reads replaced -------------------------------


def ref_spans(W, vectors):
    """Whether W holds every vector: stacked under W's basis, they leave the
    rank at dim W."""
    return rank(Matrix.from_rows(basis_vectors(W) + list(vectors))) == W.dim


def ref_is_subalgebra(A, W):
    basis = basis_vectors(W)
    return ref_spans(W, (A.bracket(u, v) for u in basis for v in basis))


def ref_is_abelian_subalgebra(A, W):
    basis = basis_vectors(W)
    return not any(c for u in basis for v in basis for c in A.bracket(u, v))


def ref_is_two_sided_ideal(A, W):
    e = [A.basis_vector(i) for i in range(A.dim)]
    return ref_spans(W, (p for x in e for w in basis_vectors(W)
                         for p in (A.bracket(x, w), A.bracket(w, x))))


def ref_non_isotropic_pair(B, W):
    basis = basis_vectors(W)
    return next(((a, b) for a, b in product(range(W.dim), repeat=2)
                 if form_value(B, basis[a], basis[b])), None)


def ref_isotropic_split(A, B, W1, W2, products):
    if any(W.dim and W.columns.rows != A.dim for W in (W1, W2)):
        raise DimensionMismatch("subspace lives in the wrong ambient space")
    for W in (W1, W2):
        pair = ref_non_isotropic_pair(B, W)
        if pair is not None:
            return CheckResult(False, "ISOTROPY_FAILS", pair)
    if not all(ref_spans(W, (p(u, v) for p in products
                             for u in basis_vectors(W)
                             for v in basis_vectors(W)))
               for W in (W1, W2)):
        return CheckResult(False, "SUBALGEBRA_FAILS")
    if (W1.dim + W2.dim != A.dim or rank(Matrix.from_rows(
            basis_vectors(W1) + basis_vectors(W2))) != A.dim):
        return CheckResult(False, "DIRECT_SUM_FAILS")
    return OK


def ref_verify_phase_space(P, base, dual):
    n = P.base_dim
    if base.dim != n or dual.dim != n:
        raise DimensionMismatch("both blocks must have dimension %d" % n)
    check = verify_leibniz(P.total)
    if not check.ok:
        return check
    check = verify_symplectic(P.total, P.form)
    if not check.ok:
        return CheckResult(False, "SYMPLECTIC_FAILS", check.indices,
                           check.lhs, check.rhs)
    if (not ref_is_subalgebra(P.total, base)
            or not ref_is_subalgebra(P.total, dual)):
        return CheckResult(False, "SUBALGEBRA_FAILS")
    for W in (base, dual):
        pair = ref_non_isotropic_pair(P.form, W)
        if pair is not None:
            return CheckResult(False, "PAIRING_FAILS", pair)
    pairing = Matrix.from_rows([[form_value(P.form, u, v)
                                 for v in basis_vectors(dual)]
                                for u in basis_vectors(base)])
    if rank(pairing) != n:
        return CheckResult(False, "PAIRING_FAILS")
    return OK


def verdict(check):
    return check.ok, check.reason, check.indices, check.lhs, check.rhs


# -- instances ----------------------------------------------------------------


def gaussian(A, rng):
    """A over Q(i), each bracket times a nonzero Gaussian factor."""
    return LeibnizAlgebra.from_brackets(A.dim, {
        ij: {k: c * Scalar.of(rng.randint(1, 2), rng.randint(-2, 2))
             for k, c in value.items()}
        for ij, value in A.brackets.items()}, GAUSSIAN)


@st.composite
def algebras(draw):
    """A conftest nilpotent algebra of dim 1..5 or the phase space of a
    conftest dendriform algebra of dim 1..3, over Q or Q(i), with a seeded
    generator for its subspaces and forms."""
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    if draw(st.booleans()):
        A = random_leibniz(rng, draw(st.integers(1, 5)))
        A = gaussian(A, rng) if draw(st.booleans()) else A
    else:
        A = build_phase_space(random_dendriform(rng, draw(st.integers(1, 3))))
        A = complexify(A.total) if draw(st.booleans()) else A.total
    return A, rng


SUBSPACES = ("zero", "whole", "span", "span and last", "first half")


def random_vectors(rng, n, field, count):
    """Up to ``count`` independent vectors with at least two nonzero
    coordinates each (one when n = 1)."""
    vectors = []
    for _ in range(count):
        v = [coefficient(rng, field) for _ in range(n)]
        if (sum(1 for c in v if c) >= min(2, n)
                and rank(Matrix.from_rows(vectors + [v])) > len(vectors)):
            vectors.append(v)
    return vectors


def random_subspace(rng, n, field, kind):
    """{0}, the whole space, or the span of random non-unit vectors, with
    the last basis vector added for "span and last" (in a conftest
    nilpotent algebra that often makes an ideal), or inside the span of the
    first n // 2 basis vectors for "first half" (in a phase space, that is
    often a subalgebra but no ideal)."""
    if kind == "zero":
        return Subspace.from_vectors([])
    if kind == "first half":
        m = n // 2
        return Subspace.from_vectors([
            v + [Scalar.zero()] * (n - m)
            for v in random_vectors(rng, m, field, rng.randint(1, m))]
            if m else [])
    if kind == "whole":
        return Subspace.from_vectors([[Scalar.of(int(i == j))
                                       for j in range(n)] for i in range(n)])
    vectors = random_vectors(rng, n, field, rng.randint(1, n))
    last = [Scalar.of(int(j == n - 1)) for j in range(n)]
    if (kind == "span and last"
            and rank(Matrix.from_rows(vectors + [last])) > len(vectors)):
        vectors.append(last)
    return Subspace.from_vectors(vectors)


FORMS = ("zero", "singular", "nondegenerate")


def symmetric_form(rng, n, field, kind):
    """A symmetric n x n form: zero, singular (rows and columns of a
    nonempty index set cleared) or nondegenerate."""
    if kind == "zero":
        return Matrix.zero(n, n)
    while True:
        B = random_form(rng, n, field, True)
        if kind == "nondegenerate":
            if not is_singular(B):
                return B
            continue
        cleared = set(rng.sample(range(n), rng.randint(1, n)))
        return Matrix.from_rows([[B[p, q] if cleared.isdisjoint((p, q))
                                  else Scalar.zero() for q in range(n)]
                                 for p in range(n)])


SETTINGS = settings(max_examples=120, deadline=None)

# -- closure: subalgebras, ideals, abelian subalgebras ------------------------


@SETTINGS
@given(algebras(), st.sampled_from(SUBSPACES))
def test_closure_tests_match_the_vector_loops(case, kind):
    A, rng = case
    W = random_subspace(rng, A.dim, A.field, kind)
    assert is_subalgebra(A, W) == ref_is_subalgebra(A, W)
    assert is_two_sided_ideal(A, W) == ref_is_two_sided_ideal(A, W)
    assert is_abelian_subalgebra(A, W) == ref_is_abelian_subalgebra(A, W)


def test_closure_tests_reject_a_subspace_of_another_space(sl2):
    W = Subspace.from_vectors([[Scalar.one(), Scalar.zero()]])
    for test in (is_subalgebra, is_two_sided_ideal, is_abelian_subalgebra):
        with pytest.raises(DimensionMismatch):
            test(sl2, W)


def test_subspace_columns_keep_the_ambient_dimension(sl2):
    zero = Subspace.from_vectors([])
    C = _columns(sl2, zero)
    assert (C.rows, C.cols) == (3, 0)
    assert is_subalgebra(sl2, zero) and is_two_sided_ideal(
        sl2, zero) and is_abelian_subalgebra(sl2, zero)


# -- isotropy and the isotropic split -----------------------------------------


@SETTINGS
@given(algebras(), st.sampled_from(SUBSPACES), st.sampled_from(SUBSPACES),
       st.sampled_from(FORMS))
def test_isotropic_split_matches_the_vector_loop(case, kind1, kind2, form):
    A, rng = case
    n = A.dim
    W1, W2 = (random_subspace(rng, n, A.field, kind)
              for kind in (kind1, kind2))
    B = symmetric_form(rng, n, A.field, form)
    for W in (W1, W2):
        assert (symplectic._non_isotropic_pair(B, _columns(A, W))
                == ref_non_isotropic_pair(B, W))
    assert verdict(symplectic._isotropic_split(A, B, W1, W2, (A.brackets,))) \
        == verdict(ref_isotropic_split(A, B, W1, W2, (A.bracket,)))


@SETTINGS
@given(st.integers(0, 10 ** 6), st.integers(1, 4),
       st.sampled_from([RATIONAL, GAUSSIAN]),
       st.sampled_from(["pass", "random"]), st.sampled_from(SUBSPACES),
       st.sampled_from(SUBSPACES), st.sampled_from(FORMS))
def test_dendriform_isotropic_split_matches_the_vector_loop(
        seed, n, field, mode, kind1, kind2, form):
    """Both products must close each block (Manin triples)."""
    rng = random.Random(seed)
    D = dendriform(rng, n, field, mode)
    W1, W2 = (random_subspace(rng, n, field, kind) for kind in (kind1, kind2))
    B = symmetric_form(rng, n, field, form)
    got = symplectic._isotropic_split(D, B, W1, W2,
                                      (D.left_brackets, D.right_brackets))
    assert verdict(got) == verdict(ref_isotropic_split(D, B, W1, W2,
                                                       (D.left, D.right)))


@SETTINGS
@given(algebras(), st.sampled_from(SUBSPACES), st.sampled_from(SUBSPACES),
       st.sampled_from(FORMS))
def test_isotropy_witness_re_evaluates_to_a_nonzero_value(case, kind1, kind2,
                                                          form):
    """ISOTROPY_FAILS names a basis pair (a, b) of W1, or of W2 when W1 is
    isotropic, with B(w_a, w_b) != 0."""
    A, rng = case
    n = A.dim
    W1, W2 = (random_subspace(rng, n, A.field, kind) for kind in (kind1, kind2))
    B = symmetric_form(rng, n, A.field, form)
    check = symplectic._isotropic_split(A, B, W1, W2, (A.brackets,))
    if check.reason != "ISOTROPY_FAILS":
        return
    a, b = check.indices
    first = basis_vectors(W1)
    W = W1 if any(form_value(B, u, v) for u in first for v in first) else W2
    basis = basis_vectors(W)
    assert form_value(B, basis[a], basis[b])


@pytest.mark.parametrize("first, second, pair", [
    ("mixed", "isotropic", (0, 1)), ("isotropic", "mixed", (0, 1)),
    ("diagonal", "mixed", (0, 0)), ("mixed", "diagonal", (0, 1))])
def test_isotropy_witness_is_the_first_pair_of_the_first_failing_block(
        first, second, pair):
    """On the 4-dim abelian algebra with the canonical pairing, span(e0, e1)
    is isotropic, span(e0, e2) first fails at (0, 1), as B(e0, e2) = 1, and
    span(e1 + e3) at (0, 0); W1 is read before W2."""
    A = LeibnizAlgebra.from_brackets(4, {})
    e = [A.basis_vector(i) for i in range(4)]
    blocks = {"isotropic": [e[0], e[1]], "mixed": [e[0], e[2]],
              "diagonal": [[a + b for a, b in zip(e[1], e[3])]]}
    W1, W2 = (Subspace.from_vectors(blocks[name]) for name in (first, second))
    check = symplectic._isotropic_split(A, symplectic.canonical_pairing(2),
                                        W1, W2, (A.brackets,))
    assert (check.ok, check.reason, check.indices) == (
        False, "ISOTROPY_FAILS", pair)


def test_isotropic_split_rejects_a_subspace_of_another_space(sl2):
    W = Subspace.from_vectors([[Scalar.one(), Scalar.zero()]])
    with pytest.raises(DimensionMismatch):
        symplectic._isotropic_split(sl2, Matrix.zero(3, 3),
                                    Subspace.from_vectors([]), W,
                                    (sl2.brackets,))


# -- the block checks of verify_phase_space -----------------------------------


@st.composite
def phase_spaces_with_blocks(draw):
    """A phase space (of a conftest dendriform algebra, or abelian, where
    every subspace is a subalgebra and every nondegenerate symmetric form
    is symplectic) over Q or Q(i), with its pairing or a drawn symmetric
    form, and two n-dim blocks: its own, swapped, repeated or spans of
    random non-unit vectors."""
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    n = draw(st.integers(1, 3))
    D = (random_dendriform(rng, n) if draw(st.booleans())
         else DendriformAlgebra(n, {}, {}))
    P = build_phase_space(D)
    field = draw(st.sampled_from([RATIONAL, GAUSSIAN]))
    total = complexify(P.total) if field == GAUSSIAN else P.total
    form = draw(st.sampled_from(("pairing",) + FORMS))
    B = P.form if form == "pairing" else symmetric_form(rng, 2 * n, field,
                                                        form)
    own = P.base_subspace(), P.dual_subspace()
    blocks = []
    for _ in range(2):
        vectors = []
        while len(vectors) < n:
            vectors = random_vectors(rng, 2 * n, field, 2 * n)[:n]
        blocks.append(Subspace.from_vectors(vectors))
    base, dual = draw(st.sampled_from(
        [own, own[::-1], (own[0], own[0]), (own[0], blocks[0]),
         tuple(blocks)]))
    return PhaseSpace(total, n, B), base, dual


@SETTINGS
@given(phase_spaces_with_blocks())
def test_phase_space_blocks_match_the_vector_loops(case):
    P, base, dual = case
    assert verdict(verify_phase_space(P, base, dual)) == verdict(
        ref_verify_phase_space(P, base, dual))


def test_phase_space_blocks_run_no_elimination(monkeypatch):
    """The base and dual blocks are the columns [I; 0] and [0; I], built
    without re-proving that unit vectors are independent."""
    calls = []
    echelon = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon",
                        lambda *args: calls.append(args) or echelon(*args))
    for n in (3, 2, 1, 0):
        P = build_phase_space(DendriformAlgebra(n, {}, {}))
        calls.clear()
        base, dual = P.base_subspace(), P.dual_subspace()
        assert calls == []
        e = [P.total.basis_vector(i) for i in range(2 * n)]
        assert base == Subspace.from_vectors(e[:n]) and calls
        assert dual == Subspace.from_vectors(e[n:])
        assert verify_phase_space(P, base, dual).ok


def test_phase_space_pairing_witness():
    """Two blocks of the abelian 4-dim phase space that are subalgebras and
    pair, but the first is not isotropic at its basis pair (0, 0)."""
    P = build_phase_space(DendriformAlgebra(2, {}, {}))
    o, z = Scalar.one(), Scalar.zero()
    base = Subspace.from_vectors([[o, z, o, z], [z, o, z, z]])
    check = verify_phase_space(P, base, P.dual_subspace())
    assert verdict(check) == verdict(ref_verify_phase_space(
        P, base, P.dual_subspace()))
    assert (check.reason, check.indices) == ("PAIRING_FAILS", (0, 0))


# -- Killing form and Levi-Civita products ------------------------------------


@SETTINGS
@given(st.integers(0, 10 ** 6), st.integers(0, 5),
       st.sampled_from([RATIONAL, GAUSSIAN]), st.booleans())
def test_killing_form_is_the_trace_of_left_multiplications(
        seed, n, field, nilpotent):
    rng = random.Random(seed)
    A = LeibnizAlgebra.from_brackets(
        n, random_tensor(rng, n, field, nilpotent), field)
    lefts = [dense(n, zip(*(A.bracket_basis(i, j) for j in range(n))))
             for i in range(n)]
    want = dense(n, [[trace(lefts[i] @ lefts[j]) for j in range(n)]
                     for i in range(n)])
    assert typed(killing_form(A)) == typed(want)


def test_killing_form_of_sl2(sl2):
    assert killing_form(sl2) == Matrix.from_rows(
        [[Scalar.of(c) for c in row]
         for row in ((8, 0, 0), (0, 0, 4), (0, 4, 0))])


@SETTINGS
@given(st.integers(0, 10 ** 6), st.integers(1, 2),
       st.sampled_from([RATIONAL, GAUSSIAN]), st.booleans())
def test_levi_civita_tensors_are_sparse_and_sum_to_the_bracket(
        seed, half_dim, field, nilpotent):
    rng = random.Random(seed)
    dim = 2 * half_dim
    A = LeibnizAlgebra.from_brackets(
        dim, random_tensor(rng, dim, field, nilpotent), field)
    while True:
        S = random_form(rng, dim, field, False)
        S = S - S.transpose()
        if not is_singular(S):
            break
    pair = levi_civita(A, S)
    for tensor in (pair.star, pair.starstar):
        assert all(value and all(value.values())
                   for value in tensor.values())
    assert tensor_sum(pair.star, pair.starstar) == A.brackets
