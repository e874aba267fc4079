"""Acceptance gate: ten exact criteria, one printed pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
Everything is exact rational (or Gaussian-rational) arithmetic; there are
no tolerances anywhere.
"""

import random
import sys

import pytest

from conftest import (basis_vectors, diag, form_value, mat,
                      random_dendriform, random_dendriform_with_skew,
                      random_invariant_skew, random_leibniz,
                      random_skew_nonsingular, random_symplectic_instance)
from leibniz_lab import (DendriformAlgebra, LeibnizAlgebra, S_from_B_E,
                         build_phase_space, check_para_kahler,
                         check_pseudo_kahler, check_complex_product_pair,
                         classify_complex, classify_product,
                         complexify_pseudo_kahler,
                         enumerate_diagonal_products, killing_form,
                         levi_civita, omega_to_J, realify, regular_rep,
                         solve_symplectic_space, subadjacent,
                         symplectic_to_dendriform, verify_dendriform,
                         verify_leibniz, verify_manin_triple,
                         verify_phase_space, verify_representation,
                         verify_symplectic)
from leibniz_lab.dendriform import dendriform_rep
from leibniz_lab.linalg import Matrix, is_singular, rank
from leibniz_lab.representations import Representation, dual_rep
from leibniz_lab.scalars import Scalar


def report(number, description, passed):
    line = "criterion %2d [%s]: %s" % (number,
                                       "PASS" if passed else "FAIL",
                                       description)
    print(line, file=sys.stderr)
    assert passed, line


@pytest.fixture
def algebra_e1e3():
    """[e1, e3] = 2 e4 in a 4-dimensional space."""
    return LeibnizAlgebra.from_brackets(4, {(0, 2): {3: Scalar.of(2)}})


@pytest.fixture
def algebra_squares():
    """[e1, e1] = [e2, e2] = e3 in a 4-dimensional space."""
    return LeibnizAlgebra.from_brackets(
        4, {(0, 0): {2: Scalar.of(1)}, (1, 1): {2: Scalar.of(1)}})


def test_criterion_1_symplectic_solution_space(algebra_e1e3):
    basis, sample = solve_symplectic_space(algebra_e1e3)
    ok = len(basis) == 7
    # constrained entries b24 = b34 = b44 = 0 in every member
    for B in basis:
        ok = ok and B == B.transpose()
        ok = ok and B[1, 3] == 0 and B[2, 3] == 0 and B[3, 3] == 0
    # the remaining 7 upper-triangle entries are free: the basis spans
    # exactly the 7 coordinate directions outside the zero pattern
    free = {(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (2, 2)}
    seen = set()
    for B in basis:
        for p in range(4):
            for q in range(p, 4):
                if B[p, q]:
                    seen.add((p, q))
    ok = ok and seen == free
    ok = ok and sample is not None and not is_singular(sample)
    ok = ok and verify_symplectic(algebra_e1e3, sample).ok
    report(1, "symplectic solution space has dimension 7 with the "
              "expected zero pattern and a nonsingular member", ok)


def test_criterion_2_product_catalogue(algebra_e1e3):
    A = algebra_e1e3
    cases = {
        "E1": (diag(1, 1, -1, -1), True, False, True),
        "E2": (diag(-1, -1, 1, 1), True, False, True),
        "E3": (diag(1, -1, -1, 1), True, False, True),
        "E4": (diag(1, -1, -1, -1), True, False, False),
        "E5": (diag(1, -1, 1, 1), False, True, False),
        "E6": (diag(-1, 1, -1, -1), False, True, False),
    }
    ok = True
    for E, abelian, strict, para in cases.values():
        rep = classify_product(A, E)
        ok = ok and rep.is_product
        ok = ok and rep.is_abelian == abelian
        ok = ok and rep.is_strict == strict
        ok = ok and rep.is_paracomplex == para
    found = {tuple(int(E[i, i].real) for i in range(4))
             for E, _ in enumerate_diagonal_products(A)}
    for E, _, _, _ in cases.values():
        ok = ok and tuple(int(E[i, i].real) for i in range(4)) in found
    report(2, "all six diagonal involutions classified as in the "
              "catalogue and recovered by enumeration", ok)


def test_criterion_3_complex_catalogue(algebra_squares):
    A = algebra_squares
    js = [
        mat([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]),
        mat([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]),
        mat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]),
        mat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]),
    ]
    ok = True
    for J in js:
        rep = classify_complex(A, J)
        ok = ok and rep.is_complex and rep.is_abelian
        ok = ok and rep.eigen_i.dim == 2 and rep.eigen_minus_i.dim == 2
        conjugates = [[c.conjugate() for c in v]
                      for v in basis_vectors(rep.eigen_i)]
        ok = ok and rank(Matrix.from_rows(
            basis_vectors(rep.eigen_minus_i) + conjugates)) == 2
    report(3, "four block complex structures all integrable, abelian, "
              "with conjugate-swapped 2-dimensional eigenspaces", ok)


def test_criterion_4_para_kahler_pattern(algebra_e1e3):
    A = algebra_e1e3
    B = mat([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    ok = verify_symplectic(A, B).ok
    ok = ok and check_para_kahler(A, B, diag(1, 1, -1, -1)).ok
    ok = ok and check_para_kahler(A, B, diag(-1, -1, 1, 1)).ok
    # sampled symplectic members violating the zero pattern must fail
    basis, _ = solve_symplectic_space(A)
    rng = random.Random(0)
    violating = 0
    for _ in range(64):
        C = Matrix.zero(4, 4)
        for member in basis:
            C = C + member.scale(Scalar.of(rng.randint(-3, 3)))
        if is_singular(C):
            continue
        pattern_ok = (C[0, 1] == 0 and C[1, 2] == 0 and C[0, 0] == 0
                      and C[1, 1] == 0 and C[2, 2] == 0)
        if pattern_ok:
            continue
        violating += 1
        check = check_para_kahler(A, C, diag(1, 1, -1, -1))
        ok = ok and (not check.ok) and check.reason == "COMPAT_FAILS"
    ok = ok and violating >= 10
    report(4, "para-Kahler check passes on the patterned form and fails "
              "with COMPAT_FAILS on pattern violations", ok)


def test_criterion_5_quadratic_roundtrip():
    rng = random.Random(101)
    instances = 0
    ok = True
    while instances < 50:
        if rng.random() < 0.3:
            D0 = random_dendriform(rng, rng.randint(1, 3))
            P = build_phase_space(D0)
            A, B = P.total, P.form
        else:
            got = random_symplectic_instance(rng, rng.randint(1, 3))
            if got is None:
                continue
            A, B = got
        D = symplectic_to_dendriform(A, B)
        ok = ok and subadjacent(D) == A
        from leibniz_lab import verify_quadratic_dendriform
        ok = ok and verify_quadratic_dendriform(D, B).ok
        instances += 1
    report(5, "50 quadratic dendriform instances: subadjacent of the "
              "derived structure matches and quadratic check passes", ok)


def test_criterion_6_phase_space_suite():
    rng = random.Random(103)
    ok = True
    for _ in range(50):
        D = random_dendriform(rng, rng.randint(1, 3))
        P = build_phase_space(D)
        ok = ok and verify_symplectic(P.total, P.form).ok
        ok = ok and verify_phase_space(P, P.base_subspace(),
                                       P.dual_subspace()).ok
        E = diag(*([1] * D.dim + [-1] * D.dim))
        ok = ok and check_para_kahler(P.total, P.form, E).ok
        big = symplectic_to_dendriform(P.total, P.form)
        ok = ok and verify_manin_triple(big, P.form, P.base_subspace(),
                                        P.dual_subspace()).ok
    report(6, "50 phase spaces pass symplectic, phase-space, para-Kahler "
              "and Manin-triple verification", ok)


def test_criterion_7_levi_civita_suite():
    rng = random.Random(107)
    ok = True
    for _ in range(50):
        dim = rng.choice((2, 4))
        A = random_leibniz(rng, dim)
        S = random_skew_nonsingular(rng, dim)
        pair = levi_civita(A, S)
        for i in range(dim):
            x = A.basis_vector(i)
            for j in range(dim):
                y = A.basis_vector(j)
                star = pair.star_product(i, j)
                ss = pair.starstar_product(i, j)
                ok = ok and [a + b for a, b in zip(star, ss)] == \
                    A.bracket_basis(i, j)
                for k in range(dim):
                    z = A.basis_vector(k)
                    ok = ok and form_value(S, star, z) \
                        + form_value(S, y, pair.star_product(i, k)) == 0
                    combo = [a + b for a, b in zip(
                        pair.star_product(j, k),
                        pair.starstar_product(k, j))]
                    ok = ok and form_value(S, ss, z) \
                        == form_value(S, x, combo)
    # phase-space formulas, tensor-exactly
    for _ in range(10):
        D = random_dendriform(rng, rng.randint(1, 3))
        n = D.dim
        P = build_phase_space(D)
        S = S_from_B_E(P.total, P.form, diag(*([1] * n + [-1] * n)))
        pair = levi_civita(P.total, S)
        R = dual_rep(dendriform_rep(D))
        for i in range(n):
            for b in range(n):
                ok = ok and pair.star_product(i, n + b) == \
                    [Scalar.zero()] * n + list(R.left_maps[i].col(b))
                ok = ok and not any(pair.star_product(n + b, i))
                ok = ok and not any(pair.starstar_product(i, n + b))
                ok = ok and pair.starstar_product(n + b, i) == \
                    [Scalar.zero()] * n + list(R.right_maps[i].col(b))
    report(7, "50 Levi-Civita pairs satisfy the three properties; "
              "phase-space product formulas hold tensor-exactly", ok)


def test_criterion_8_killing_form():
    two, m_two, one, m_one = (Scalar.of(2), Scalar.of(-2), Scalar.of(1),
                              Scalar.of(-1))
    sl2 = LeibnizAlgebra.from_brackets(3, {
        (0, 1): {1: two}, (1, 0): {1: m_two},
        (0, 2): {2: m_two}, (2, 0): {2: two},
        (1, 2): {0: one}, (2, 1): {0: m_one}})
    B = killing_form(sl2)
    ok = B == B.transpose()
    ok = ok and not is_singular(B)
    ok = ok and verify_symplectic(sl2, B).ok
    report(8, "Killing form of sl(2) is symmetric, nonsingular and "
              "symplectic", ok)


def test_criterion_9_bridge():
    rng = random.Random(109)
    cases = [DendriformAlgebra(2, {}, {})]
    for _ in range(54):
        cases.append(random_dendriform_with_skew(rng))
    ok = True
    exercised = 0
    for D in cases:
        omega = random_invariant_skew(rng, D)
        if omega is None:
            continue
        P, J = omega_to_J(D, omega)
        E = diag(*([1] * D.dim + [-1] * D.dim))
        ok = ok and check_complex_product_pair(P.total, J, E).ok
        ok = ok and check_pseudo_kahler(P.total, P.form, J).ok
        Ac, Bc, Ec = complexify_pseudo_kahler(P.total, P.form, J)
        ok = ok and check_para_kahler(Ac, Bc, Ec).ok
        Ar, Br, Jr = realify(Ac, Bc, Ec)
        ok = ok and check_pseudo_kahler(Ar, Br, Jr).ok
        exercised += 1
    ok = ok and exercised >= 50
    report(9, "form-to-complex-structure bridge, complexification and "
              "realification all verified on %d instances" % exercised, ok)


def test_criterion_10_negative_certificates():
    ok = True
    # Leibniz verifier
    A = LeibnizAlgebra.from_brackets(2, {(0, 1): {0: Scalar.of(1)},
                                         (1, 0): {1: Scalar.of(1)}})
    check = verify_leibniz(A)
    ok = ok and not check.ok and check.indices is not None
    i, j, k = check.indices
    ei, ej, ek = (A.basis_vector(i), A.basis_vector(j), A.basis_vector(k))
    lhs = A.bracket(ei, A.bracket(ej, ek))
    rhs = [a + b for a, b in zip(A.bracket(A.bracket(ei, ej), ek),
                                 A.bracket(ej, A.bracket(ei, ek)))]
    ok = ok and (tuple(lhs), tuple(rhs)) == (check.lhs, check.rhs)

    # representation verifier
    good = LeibnizAlgebra.from_brackets(2, {(0, 0): {1: Scalar.of(1)}})
    R = regular_rep(good)
    perturbed = list(R.left_maps)
    perturbed[0] = perturbed[0] + Matrix.identity(2)
    check = verify_representation(
        Representation.build(good, perturbed, R.right_maps, 2))
    ok = ok and not check.ok and check.lhs != check.rhs

    # dendriform verifier
    o, z = Scalar.of(1), Scalar.zero()
    D = DendriformAlgebra.from_constants(
        [[(o, z), (z, z)], [(z, z), (z, o)]],
        [[(z, o), (z, z)], [(z, z), (z, z)]])
    check = verify_dendriform(D)
    ok = ok and not check.ok and check.reason in ("p1", "p2", "p3")
    ok = ok and check.lhs != check.rhs

    # symplectic verifier: witness sides re-evaluate
    sl2 = LeibnizAlgebra.from_brackets(3, {
        (0, 1): {1: Scalar.of(2)}, (1, 0): {1: Scalar.of(-2)},
        (0, 2): {2: Scalar.of(-2)}, (2, 0): {2: Scalar.of(2)},
        (1, 2): {0: Scalar.of(1)}, (2, 1): {0: Scalar.of(-1)}})
    B = Matrix.identity(3)
    check = verify_symplectic(sl2, B)
    ok = ok and not check.ok and check.reason == "IDENTITY_FAILS"
    i, j, k = check.indices
    x, y, zv = (sl2.basis_vector(i), sl2.basis_vector(j),
                sl2.basis_vector(k))
    lhs = form_value(B, zv, sl2.bracket(x, y))
    rhs = (-form_value(B, y, sl2.bracket(x, zv))
           + form_value(B, x, sl2.bracket(y, zv))
           + form_value(B, x, sl2.bracket(zv, y)))
    ok = ok and (lhs,) == check.lhs and (rhs,) == check.rhs

    # nijenhuis / integrability verifiers
    from leibniz_lab import verify_nijenhuis
    check = verify_nijenhuis(sl2, diag(1, 0, 0))
    ok = ok and not check.ok and check.lhs != check.rhs

    report(10, "perturbed inputs produce ok=false with witnesses whose "
               "sides re-evaluate exactly", ok)
