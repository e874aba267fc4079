"""Para-Kahler / pseudo-Kahler checks, Levi-Civita products, bridges."""

import random

import pytest

from conftest import (diag, form_value, mat, random_dendriform,
                      random_invariant_skew, random_leibniz,
                      random_skew_nonsingular)
from leibniz_lab import (DendriformAlgebra, LeibnizAlgebra, S_from_B_E,
                         S_from_B_J, build_phase_space, check_para_kahler,
                         check_pseudo_kahler, classify_product,
                         complexify_pseudo_kahler,
                         isotropic_decomposition_check, levi_civita,
                         omega_to_J, product_from_decomposition, realify,
                         solve_symplectic_space, symplectic_to_dendriform,
                         verify_symplectic)
from leibniz_lab.errors import (DegenerateForm, DimensionMismatch,
                                NotInvariant, NotParaKahler, NotPseudoKahler,
                                WrongField)
from leibniz_lab.linalg import Matrix
from leibniz_lab.representations import dual_rep
from leibniz_lab.dendriform import dendriform_rep
from leibniz_lab.scalars import Scalar


def canonical_E(n):
    return diag(*([1] * n + [-1] * n))


def test_para_kahler_zero_pattern(heisenberg_like):
    A = heisenberg_like
    # pattern [[0,0,*,*],[0,0,*,0],[*,*,0,0],[*,0,0,0]] with b14=b23=1
    B = mat([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    for signs in [(1, 1, -1, -1), (-1, -1, 1, 1)]:
        assert check_para_kahler(A, B, diag(*signs)).ok


def test_para_kahler_pattern_violation(heisenberg_like):
    A = heisenberg_like
    # a symplectic member with b12 != 0 puts both arguments in the +1
    # block of E1, breaking B(Ex,Ey) = -B(x,y)
    B = mat([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    assert verify_symplectic(A, B).ok
    check = check_para_kahler(A, B, diag(1, 1, -1, -1))
    assert not check.ok and check.reason == "COMPAT_FAILS"


def test_para_kahler_reason_codes(sl2, heisenberg_like):
    from leibniz_lab import killing_form
    B3 = killing_form(sl2)
    assert check_para_kahler(sl2, Matrix.identity(3), diag(1, 1, -1)).reason \
        == "SYMPLECTIC_FAILS"
    assert check_para_kahler(sl2, B3, diag(1, 1, -1)).reason \
        in ("PRODUCT_FAILS", "NOT_PARACOMPLEX", "COMPAT_FAILS")


def test_phase_space_is_para_kahler():
    rng = random.Random(41)
    for _ in range(8):
        D = random_dendriform(rng, rng.randint(1, 3))
        P = build_phase_space(D)
        E = canonical_E(D.dim)
        assert check_para_kahler(P.total, P.form, E).ok


def test_isotropic_decomposition_roundtrip():
    rng = random.Random(43)
    for _ in range(6):
        D = random_dendriform(rng, rng.randint(1, 3))
        P = build_phase_space(D)
        E = canonical_E(D.dim)
        base, dual = P.base_subspace(), P.dual_subspace()
        assert isotropic_decomposition_check(P.total, P.form, base, dual).ok
        rebuilt = product_from_decomposition(P.total, base, dual)
        assert rebuilt == E
        assert check_para_kahler(P.total, P.form, rebuilt).ok


def test_isotropic_decomposition_rejects():
    from leibniz_lab import Subspace
    D = DendriformAlgebra.zero(1)
    P = build_phase_space(D)
    mixed = Subspace.from_vectors([[Scalar.of(1), Scalar.of(1)]])
    check = isotropic_decomposition_check(P.total, P.form, mixed,
                                          P.dual_subspace())
    assert not check.ok and check.reason == "ISOTROPY_FAILS"


def test_isotropic_decomposition_rejects_subspace_of_wrong_ambient_dim():
    """Vectors longer than the algebra are bad input, found before the
    isotropy test indexes the form with their coordinates."""
    from leibniz_lab import Subspace
    z, o = Scalar.zero(), Scalar.one()
    A = LeibnizAlgebra.abelian(2)
    B = mat([[0, 1], [1, 0]])
    with pytest.raises(DimensionMismatch):
        isotropic_decomposition_check(A, B, Subspace.from_vectors([[z, z, o]]),
                                      Subspace.from_vectors([[z, o, z]]))


def test_para_kahler_iff_isotropic_decomposition():
    """Para-Kahler holds exactly when both eigenspaces are isotropic
    subalgebras splitting the space."""
    rng = random.Random(47)
    for _ in range(6):
        D = random_dendriform(rng, rng.randint(1, 2))
        P = build_phase_space(D)
        E = canonical_E(D.dim)
        report = classify_product(P.total, E)
        pk = check_para_kahler(P.total, P.form, E).ok
        iso = isotropic_decomposition_check(
            P.total, P.form, report.plus_eigenspace,
            report.minus_eigenspace).ok
        assert pk == iso


def test_S_from_B_E_canonical():
    D = DendriformAlgebra.zero(2)
    P = build_phase_space(D)
    S = S_from_B_E(P.total, P.form, canonical_E(2))
    z2 = [[0, 0], [0, 0]]
    expected = mat([row_a + row_b for row_a, row_b in
                    zip(z2 + [[1, 0], [0, 1]],
                        [[-1, 0], [0, -1]] + z2)])
    assert S == expected
    assert S.transpose() == S.scale(Scalar.of(-1))


def test_S_from_B_E_rejects(sl2):
    with pytest.raises(NotParaKahler):
        S_from_B_E(sl2, Matrix.identity(3), diag(1, 1, -1))


def test_levi_civita_properties_random():
    rng = random.Random(53)
    for _ in range(12):
        dim = rng.choice((2, 4))
        A = random_leibniz(rng, dim)
        S = random_skew_nonsingular(rng, dim)
        pair = levi_civita(A, S)
        for i in range(dim):
            x = A.basis_vector(i)
            for j in range(dim):
                y = A.basis_vector(j)
                star = pair.star_product(i, j)
                starstar = pair.starstar_product(i, j)
                assert [a + b for a, b in zip(star, starstar)] == \
                    A.bracket_basis(i, j)
                for k in range(dim):
                    z = A.basis_vector(k)
                    star_xz = pair.star_product(i, k)
                    star_jk = pair.star_product(j, k)
                    ss_kj = pair.starstar_product(k, j)
                    assert form_value(S, star, z) + form_value(S, y, star_xz) \
                        == Scalar.zero()
                    assert form_value(S, starstar, z) == form_value(
                        S, x, [a + b for a, b in zip(star_jk, ss_kj)])


def test_levi_civita_abelian_vanishes():
    A = LeibnizAlgebra.abelian(2)
    S = mat([[0, 1], [-1, 0]])
    pair = levi_civita(A, S)
    assert not pair.star and not pair.starstar


def test_levi_civita_guards(sl2):
    with pytest.raises(DegenerateForm):
        levi_civita(sl2, Matrix.identity(3))   # not skew
    with pytest.raises(DegenerateForm):
        levi_civita(LeibnizAlgebra.abelian(3),
                    mat([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))  # singular


def test_levi_civita_phase_space_formulas():
    rng = random.Random(59)
    for _ in range(8):
        D = random_dendriform(rng, rng.randint(1, 3))
        n = D.dim
        P = build_phase_space(D)
        E = canonical_E(n)
        S = S_from_B_E(P.total, P.form, E)
        pair = levi_civita(P.total, S)
        R = dual_rep(dendriform_rep(D))
        for i in range(n):
            for b in range(n):
                # x * xi lives in the dual block and acts by the dual left
                assert pair.star_product(i, n + b)[:n] == \
                    [Scalar.zero()] * n
                assert pair.star_product(i, n + b)[n:] == \
                    list(R.left_maps[i].col(b))
                # xi * x = 0 and x ** xi = 0
                assert not any(pair.star_product(n + b, i))
                assert not any(pair.starstar_product(i, n + b))
                # xi ** x acts by the dual right maps
                assert pair.starstar_product(n + b, i)[n:] == \
                    list(R.right_maps[i].col(b))


def test_levi_civita_restricts_to_dendriform_on_eigenspaces():
    rng = random.Random(61)
    for _ in range(6):
        D = random_dendriform(rng, rng.randint(1, 2))
        n = D.dim
        P = build_phase_space(D)
        S = S_from_B_E(P.total, P.form, canonical_E(n))
        pair = levi_civita(P.total, S)
        big = symplectic_to_dendriform(P.total, P.form)
        for i in range(n):
            for j in range(n):
                x, y = P.total.basis_vector(i), P.total.basis_vector(j)
                assert pair.star_product(i, j) == big.left(x, y)
                assert pair.starstar_product(i, j) == big.right(x, y)


def test_pseudo_kahler_basics():
    A = LeibnizAlgebra.abelian(2)
    J = mat([[0, -1], [1, 0]])
    assert check_pseudo_kahler(A, Matrix.identity(2), J).ok
    check = check_pseudo_kahler(A, diag(1, 2), J)
    assert not check.ok and check.reason == "COMPAT_FAILS"
    S = S_from_B_J(A, Matrix.identity(2), J)
    assert S.transpose() == S.scale(Scalar.of(-1))
    with pytest.raises(NotPseudoKahler):
        S_from_B_J(A, diag(1, 2), J)


def test_pseudo_kahler_complex_fails_without_integrable_anti_involution():
    A = LeibnizAlgebra.from_brackets(2, {(0, 0): {1: Scalar.of(1)}})
    B = mat([[0, 1], [1, 0]])
    assert verify_symplectic(A, B).ok
    # not an anti-involution: J^2 = I
    check = check_pseudo_kahler(A, B, diag(1, -1))
    assert not check.ok and check.reason == "COMPLEX_FAILS"
    # a J that is not even square is misuse, not a failed verdict
    with pytest.raises(DimensionMismatch):
        check_pseudo_kahler(A, B, mat([[0, 1]]))
    # an anti-involution that fails integrability at (e1, e1)
    check = check_pseudo_kahler(A, B, mat([[0, -1], [1, 0]]))
    assert not check.ok and check.reason == "COMPLEX_FAILS"


def test_pseudo_kahler_rejects_gaussian_input():
    A = LeibnizAlgebra.abelian(2, "Q(i)")
    J = mat([[0, -1], [1, 0]])
    with pytest.raises(WrongField):
        check_pseudo_kahler(A, Matrix.identity(2), J)


def test_omega_to_J_structure():
    D = DendriformAlgebra.zero(2)
    omega = mat([[0, 1], [-1, 0]])
    P, J = omega_to_J(D, omega)
    assert J @ J == Matrix.identity(4).scale(Scalar.of(-1))
    assert check_pseudo_kahler(P.total, P.form, J).ok
    # symmetric nondegenerate omega still yields a complex product pair,
    # but not a pseudo-Kahler structure
    P2, J2 = omega_to_J(D, Matrix.identity(2))
    from leibniz_lab import check_complex_product_pair
    assert check_complex_product_pair(P2.total, J2, canonical_E(2)).ok
    assert not check_pseudo_kahler(P2.total, P2.form, J2).ok


def test_omega_to_J_guards():
    D = DendriformAlgebra.zero(2)
    with pytest.raises(DegenerateForm):
        omega_to_J(D, mat([[1, 0], [0, 0]]))
    # a non-invariant form on a nonzero dendriform
    o = Scalar.of(1)
    z = Scalar.zero()
    left = [[(z, o), (z, z)], [(z, z), (z, z)]]
    right = [[(z, z), (z, z)], [(z, z), (z, z)]]
    nonzero = DendriformAlgebra.from_constants(left, right)
    with pytest.raises(NotInvariant):
        omega_to_J(nonzero, Matrix.identity(2))


def test_bridge_pipeline_complexify_realify():
    rng = random.Random(67)
    cases = [DendriformAlgebra.zero(1), DendriformAlgebra.zero(2)]
    for _ in range(6):
        cases.append(random_dendriform(rng, 2))
    exercised = 0
    for D in cases:
        omega = random_invariant_skew(rng, D)
        if omega is None:
            continue
        P, J = omega_to_J(D, omega)
        assert check_pseudo_kahler(P.total, P.form, J).ok
        Ac, Bc, E = complexify_pseudo_kahler(P.total, P.form, J)
        assert check_para_kahler(Ac, Bc, E).ok
        Ar, Br, Jr = realify(Ac, Bc, E)
        assert Ar.dim == 2 * Ac.dim
        assert Ar.field == "Q"
        assert check_pseudo_kahler(Ar, Br, Jr).ok
        exercised += 1
    assert exercised >= 3


def test_complexify_realify_guards(sl2):
    with pytest.raises(NotPseudoKahler):
        complexify_pseudo_kahler(LeibnizAlgebra.abelian(2), diag(1, 2),
                                 mat([[0, -1], [1, 0]]))
    with pytest.raises(WrongField):
        realify(LeibnizAlgebra.abelian(2), Matrix.identity(2),
                Matrix.identity(2))
    from leibniz_lab import complexify
    gauss = complexify(LeibnizAlgebra.abelian(1))
    with pytest.raises(NotParaKahler):
        realify(gauss, Matrix.identity(1), Matrix.identity(1))
