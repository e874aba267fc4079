"""The sparse term-table evaluator against the per-tuple walks it replaced.

The ``ref_*`` functions below keep the basis-tuple walks that the five
three-index verifiers used before their identities became term tables:
dense brackets and ``form_value`` on every basis triple, fed to
``first_failure``, the tuple runner every verifier shared, kept here.  The
verifiers must agree with them on the verdict, reason, indices and both
witness sides, over Q and Q(i), on passing tensors and on tensors with one
coefficient changed.  The symplectic solver, ``symplectic_to_dendriform``
and ``levi_civita`` are compared with their earlier hand-folded loops, entry
kinds (rational or Gaussian) included.
"""

import random
from fractions import Fraction
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from conftest import form_value, kind, random_invariant_skew, vadd
from leibniz_lab import (DendriformAlgebra, LeibnizAlgebra, build_phase_space,
                         levi_civita, solve_symplectic_space, subadjacent,
                         symplectic_to_dendriform, verify_dendriform,
                         verify_invariant_form, verify_leibniz,
                         verify_quadratic_dendriform, verify_symplectic)
from leibniz_lab import dendriform as dendriform_module, symplectic
from leibniz_lab.errors import LeibnizLabError
from leibniz_lab.leibniz import OK, CheckResult, tensor_from
from leibniz_lab.linalg import Matrix, invert, is_singular, kernel_basis
from leibniz_lab.scalars import GAUSSIAN, RATIONAL, Scalar

# -- the per-tuple walks the term tables replaced -----------------------------


def first_failure(dim, arity, sides):
    """The tuple runner every verifier used before the sparse evaluators:
    ``sides(*idx)`` yields ``(reason, lhs, rhs)`` lazily over all basis
    tuples in lexicographic order, and the first unequal pair is the
    witness."""
    for idx in product(range(dim), repeat=arity):
        for reason, lhs, rhs in sides(*idx):
            if lhs != rhs:
                return CheckResult(False, reason, idx, lhs, rhs)
    return OK


def vsub(x, y):
    return [a - b for a, b in zip(x, y)]


def ref_leibniz(A):
    e = [A.basis_vector(i) for i in range(A.dim)]
    br = A.bracket_basis

    def sides(i, j, k):
        yield ("LEIBNIZ_FAILS", A.bracket(e[i], br(j, k)),
               vadd(A.bracket(br(i, j), e[k]), A.bracket(e[j], br(i, k))))

    return first_failure(A.dim, 3, sides)


def ref_identity_terms(i, j, k):
    return (((1, k, (i, j)),),
            ((-1, j, (i, k)), (1, i, (j, k)), (1, i, (k, j))))


def ref_symplectic(A, B):
    if B != B.transpose():
        return ("NOT_SYMMETRIC",)
    if is_singular(B):
        return ("DEGENERATE",)
    e = [A.basis_vector(p) for p in range(A.dim)]

    def value(terms):
        acc = Scalar.zero()
        for sign, p, (a, b) in terms:
            v = form_value(B, e[p], A.bracket_basis(a, b))
            acc = acc + v if sign > 0 else acc - v
        return acc

    def sides(i, j, k):
        lhs, rhs = ref_identity_terms(i, j, k)
        yield "IDENTITY_FAILS", [value(lhs)], [value(rhs)]

    return first_failure(A.dim, 3, sides)


def keep(sides, reason):
    """The sides of the equation named ``reason`` only (all when None)."""
    def chosen(*idx):
        return (side for side in sides(*idx) if reason in (None, side[0]))
    return chosen


def ref_dendriform(D, reason=None):
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

    return first_failure(D.dim, 3, keep(sides, reason))


def ref_invariant(D, omega, reason=None):
    if is_singular(omega):
        return ("DegenerateForm",)
    e = [D.basis_vector(i) for i in range(D.dim)]
    L, R = D.left, D.right

    def sides(i, j, k):
        x, y, z = e[i], e[j], e[k]
        yield ("INVARIANT_LEFT_FAILS", [form_value(omega, L(x, y), z)],
               [-form_value(omega, y, L(x, z))])
        yield ("INVARIANT_RIGHT_FAILS", [form_value(omega, R(x, y), z)],
               [form_value(omega, x, vadd(L(y, z), R(z, y)))])

    return first_failure(D.dim, 3, keep(sides, reason))


def ref_quadratic(D, B, reason=None):
    if B != B.transpose():
        return ("NotSymmetric",)
    if is_singular(B):
        return ("DegenerateForm",)
    e = [D.basis_vector(i) for i in range(D.dim)]
    both = subadjacent(D).bracket

    def sides(i, j, k):
        x, y, z = e[i], e[j], e[k]
        yield ("QUADRATIC_LEFT_FAILS", [form_value(B, D.left(x, y), z)],
               [-form_value(B, y, both(x, z))])
        yield ("QUADRATIC_RIGHT_FAILS", [form_value(B, D.right(x, y), z)],
               [form_value(B, x, both(y, z))
                + form_value(B, x, both(z, y))])

    return first_failure(D.dim, 3, keep(sides, reason))


def ref_sym_index_pairs(n):
    return [(p, q) for p in range(n) for q in range(p, n)]


def ref_form_from_sym_coords(n, coords):
    rows = [[Scalar.zero()] * n for _ in range(n)]
    for (p, q), c in zip(ref_sym_index_pairs(n), coords):
        rows[p][q] = c
        rows[q][p] = c
    return Matrix.from_rows(rows)


def ref_solve_basis(A):
    n = A.dim
    pairs = ref_sym_index_pairs(n)
    pair_index = {pq: t for t, pq in enumerate(pairs)}
    constraint_rows = []
    for i, j, k in product(range(n), repeat=3):
        row = [Scalar.zero()] * len(pairs)
        lhs, rhs = ref_identity_terms(i, j, k)
        for side, terms in ((1, lhs), (-1, rhs)):
            for sign, p, (a, b) in terms:
                for m, c in enumerate(A.bracket_basis(a, b)):
                    if c:
                        t = pair_index[(min(p, m), max(p, m))]
                        row[t] = row[t] + c if side * sign > 0 else row[t] - c
        if any(row):
            constraint_rows.append(row)
    constraints = (Matrix.from_rows(constraint_rows) if constraint_rows
                   else Matrix.zero(1, len(pairs)))
    return [ref_form_from_sym_coords(n, c)
            for c in kernel_basis(constraints)]


def ref_symplectic_to_dendriform(A, B):
    n = A.dim
    b_inv = invert(B)
    e = [A.basis_vector(p) for p in range(n)]
    br = A.bracket_basis
    left = tensor_from(n, lambda i, j: b_inv.apply(
        [-form_value(B, e[j], br(i, k)) for k in range(n)]))
    right = tensor_from(n, lambda i, j: b_inv.apply(
        [form_value(B, e[i], br(j, k)) + form_value(B, e[i], br(k, j))
         for k in range(n)]))
    return DendriformAlgebra(n, left, right, A.field)


def ref_levi_civita(A, S):
    n = A.dim
    s_inv = invert(S)
    half = Fraction(1, 2)
    e = [A.basis_vector(i) for i in range(n)]

    def products(i, j):
        x, y = e[i], e[j]
        first = [form_value(S, A.bracket_basis(i, j), z) for z in e]
        rest = [form_value(S, A.bracket(y, z), x)
                + form_value(S, A.bracket(z, y), x)
                + form_value(S, A.bracket(x, z), y) for z in e]
        return [tuple(-half * c for c in s_inv.apply(w))
                for w in (vadd(first, rest), vsub(first, rest))]

    table = [[products(i, j) for j in range(n)] for i in range(n)]
    return tuple(tuple(tuple(p[t] for p in row) for row in table)
                 for t in (0, 1))


# -- instances ----------------------------------------------------------------


def typed(value):
    """A value with the kind of every scalar in it (:func:`conftest.kind`),
    for exact comparison; None stays None."""
    if value is None:
        return None
    if isinstance(value, (list, tuple)):
        return [typed(v) for v in value]
    if isinstance(value, dict):
        return {k: typed(v) for k, v in value.items()}
    if isinstance(value, Matrix):
        return typed(value.entries)
    return (kind(value), value)


def outcome(call):
    """(ok, reason, indices, lhs, rhs) with entry types, or the error raised."""
    try:
        check = call()
    except LeibnizLabError as exc:
        return (type(exc).__name__,)
    if isinstance(check, tuple):
        return check
    if not check.ok and check.indices is None:
        return (check.reason,)
    return (check.ok, check.reason, check.indices, typed(check.lhs),
            typed(check.rhs))


def coefficient(rng, field, nonzero=False):
    while True:
        c = Scalar.of(rng.randint(-3, 3),
                      rng.randint(-2, 2) if field == GAUSSIAN else 0)
        if c or not nonzero:
            return c


def random_tensor(rng, dim, field, nilpotent):
    """A nilpotent tensor sends e_i, e_j (i, j < dim - 1) to the span of the
    last basis vector, which annihilates: it passes every identity here.
    Otherwise about a third of all coefficients are drawn."""
    tensor = {}
    for i, j in product(range(dim), repeat=2):
        if nilpotent:
            targets = [dim - 1] if max(i, j) < dim - 1 else []
        else:
            targets = [k for k in range(dim) if rng.random() < 0.3]
        tensor[(i, j)] = {k: coefficient(rng, field) for k in targets}
    return tensor


def perturb(rng, tensor, dim, field):
    """The tensor with one coefficient changed."""
    i, j, k = (rng.randrange(dim) for _ in range(3))
    out = {key: dict(value) for key, value in tensor.items()}
    value = out.setdefault((i, j), {})
    value[k] = value.get(k, Scalar.zero()) + coefficient(rng, field, True)
    return out


def random_form(rng, dim, field, symmetric):
    rows = [[coefficient(rng, field) for _ in range(dim)] for _ in range(dim)]
    if symmetric:
        rows = [[rows[min(p, q)][max(p, q)] for q in range(dim)]
                for p in range(dim)]
    return Matrix.from_rows(rows)


def dendriform(rng, dim, field, mode):
    left, right = (random_tensor(rng, dim, field, mode != "random")
                   for _ in range(2))
    if mode == "perturbed":
        left, right = ((perturb(rng, left, dim, field), right)
                       if rng.random() < 0.5
                       else (left, perturb(rng, right, dim, field)))
    return DendriformAlgebra.from_brackets(dim, left, right, field)


def phase_space(rng, field):
    """A symplectic pair: the phase space of a nilpotent dendriform algebra
    of dim 1 or 2, with its canonical pairing."""
    P = build_phase_space(dendriform(rng, rng.randint(1, 2), field, "pass"))
    return P.total, P.form


def symplectic_pair(rng, dim, field, mode):
    """(algebra, form): passing, perturbed or random."""
    if mode == "random":
        A = LeibnizAlgebra.from_brackets(
            dim, random_tensor(rng, dim, field, False), field)
        return A, random_form(rng, dim, field, rng.random() < 0.8)
    if rng.random() < 0.5:
        A, B = phase_space(rng, field)
    else:
        A = LeibnizAlgebra.from_brackets(
            dim, random_tensor(rng, dim, field, True), field)
        _, B = solve_symplectic_space(A, seed=rng.randint(0, 99))
        if B is None:
            A, B = phase_space(rng, field)
    if mode == "perturbed":
        A = LeibnizAlgebra.from_brackets(
            A.dim, perturb(rng, A.brackets, A.dim, field), field)
    return A, B


CASE = st.tuples(st.integers(0, 10 ** 9), st.integers(1, 5),
                 st.sampled_from([RATIONAL, GAUSSIAN]),
                 st.sampled_from(["pass", "perturbed", "random"]))
SETTINGS = settings(max_examples=60, deadline=None)


# -- verdicts and witnesses ---------------------------------------------------


@SETTINGS
@given(CASE)
def test_leibniz_matches_the_tuple_walk(case):
    seed, dim, field, mode = case
    rng = random.Random(seed)
    if mode == "random":
        A = LeibnizAlgebra.from_brackets(
            dim, random_tensor(rng, dim, field, False), field)
    else:
        A = symplectic_pair(rng, dim, field, mode)[0]
    expected = outcome(lambda: ref_leibniz(A))
    assert outcome(lambda: verify_leibniz(A)) == expected
    if mode == "pass":
        assert expected[0] is True


@SETTINGS
@given(CASE)
def test_symplectic_matches_the_tuple_walk(case):
    seed, dim, field, mode = case
    A, B = symplectic_pair(random.Random(seed), dim, field, mode)
    expected = outcome(lambda: ref_symplectic(A, B))
    assert outcome(lambda: verify_symplectic(A, B)) == expected


def agree(table, verify, reference):
    """The verifier and the walk agree on the whole table and on each of its
    equations alone, so that a later equation is compared at triples where
    an earlier one already fails."""
    expected = outcome(reference)
    assert outcome(verify) == expected
    for equation in getattr(dendriform_module, table):
        with patch.object(dendriform_module, table, (equation,)):
            assert outcome(verify) == outcome(lambda: reference(equation[0]))
    return expected


@SETTINGS
@given(CASE)
def test_dendriform_matches_the_tuple_walk(case):
    seed, dim, field, mode = case
    D = dendriform(random.Random(seed), dim, field, mode)
    expected = agree("DENDRIFORM", lambda: verify_dendriform(D),
                     lambda reason=None: ref_dendriform(D, reason))
    if mode == "pass":
        assert expected[0] is True


@SETTINGS
@given(CASE)
def test_invariant_form_matches_the_tuple_walk(case):
    seed, dim, field, mode = case
    rng = random.Random(seed)
    D = dendriform(rng, dim, field, mode)
    omega = random_form(rng, dim, field, False)
    if mode != "random" and dim == 2 and field == RATIONAL:
        # e0 < e0 = -2p e1, e0 > e0 = p e1 carries invariant skew forms.
        p = coefficient(rng, field, True)
        D = DendriformAlgebra.from_brackets(
            2, {(0, 0): {1: -2 * p}}, {(0, 0): {1: p}})
        omega = random_invariant_skew(rng, D) or omega
        if mode == "perturbed":
            D = DendriformAlgebra.from_brackets(
                2, perturb(rng, D.left_brackets, 2, field), D.right_brackets)
    agree("INVARIANT", lambda: verify_invariant_form(D, omega),
          lambda reason=None: ref_invariant(D, omega, reason))


@SETTINGS
@given(CASE)
def test_quadratic_form_matches_the_tuple_walk(case):
    seed, dim, field, mode = case
    rng = random.Random(seed)
    if mode == "random":
        D = dendriform(rng, dim, field, mode)
        B = random_form(rng, dim, field, True)
    else:
        # A symplectic pair gives a quadratic dendriform algebra.
        A, B = phase_space(rng, field)
        D = symplectic_to_dendriform(A, B)
        if mode == "perturbed":
            D = DendriformAlgebra.from_brackets(
                D.dim, perturb(rng, D.left_brackets, D.dim, field),
                D.right_brackets, field)
    expected = agree("QUADRATIC", lambda: verify_quadratic_dendriform(D, B),
                     lambda reason=None: ref_quadratic(D, B, reason))
    if mode == "pass":
        assert expected[0] is True


# -- the solver and the constructions -------------------------------------------


@SETTINGS
@given(CASE)
def test_solver_basis_matches_the_folded_loop(case):
    seed, dim, field, mode = case
    A = symplectic_pair(random.Random(seed), dim, field, mode)[0]
    basis, _ = solve_symplectic_space(A)
    assert typed(basis) == typed(ref_solve_basis(A))


@SETTINGS
@given(st.integers(0, 10 ** 9), st.sampled_from([RATIONAL, GAUSSIAN]))
def test_symplectic_to_dendriform_matches_the_dense_loop(seed, field):
    A, B = phase_space(random.Random(seed), field)
    D = symplectic_to_dendriform(A, B)
    R = ref_symplectic_to_dendriform(A, B)
    assert typed(D.left_brackets) == typed(R.left_brackets)
    assert typed(D.right_brackets) == typed(R.right_brackets)


@SETTINGS
@given(st.integers(0, 10 ** 9), st.integers(1, 2),
       st.sampled_from([RATIONAL, GAUSSIAN]))
def test_levi_civita_matches_the_dense_loop(seed, half_dim, field):
    rng = random.Random(seed)
    dim = 2 * half_dim
    A = LeibnizAlgebra.from_brackets(
        dim, random_tensor(rng, dim, field, rng.random() < 0.5), field)
    while True:
        S = random_form(rng, dim, field, False)
        S = S - S.transpose()
        if not is_singular(S):
            break
    pair = levi_civita(A, S)
    got = tuple(tuple(tuple(tuple(product(i, j)) for j in range(dim))
                      for i in range(dim))
                for product in (pair.star_product, pair.starstar_product))
    assert typed(got) == typed(ref_levi_civita(A, S))


# -- one encoding of the symplectic identity ------------------------------------


def test_symplectic_identity_is_encoded_once(heisenberg_like, monkeypatch):
    """Changing one sign of the table changes both the verifier and the
    solver: neither carries its own copy of the identity."""
    basis, sample = solve_symplectic_space(heisenberg_like)
    assert verify_symplectic(heisenberg_like, sample).ok
    ((reason, lhs, rhs),) = symplectic.SYMPLECTIC
    flipped = ((-rhs[0][0], rhs[0][1]),) + rhs[1:]
    monkeypatch.setattr(symplectic, "SYMPLECTIC", ((reason, lhs, flipped),))
    assert not verify_symplectic(heisenberg_like, sample).ok
    changed, _ = solve_symplectic_space(heisenberg_like)
    assert typed(changed) != typed(basis)


@pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
def test_empty_and_one_dimensional_tables(field):
    for dim in (0, 1):
        A = LeibnizAlgebra.from_brackets(dim, {}, field)
        assert verify_leibniz(A).ok
        assert typed(solve_symplectic_space(A)[0]) == typed(
            ref_solve_basis(A))
