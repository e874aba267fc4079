"""Para-Kahler / pseudo-Kahler compatibility and Levi-Civita products."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .dendriform import DendriformAlgebra, verify_invariant_form
from .errors import (DegenerateForm, NotInvariant, NotParaKahler,
                     NotPseudoKahler, WrongField)
from .leibniz import (CheckResult, LeibnizAlgebra, OK, Subspace, form_value,
                      is_subalgebra)
from .linalg import Matrix, invert, is_singular, matrices_equal
from .scalars import GAUSSIAN, RATIONAL, Scalar
from .structures import (_is_anti_involution, classify_product,
                         complex_integrability)
from .symplectic import (_is_direct_sum, _non_isotropic_pair,
                         build_phase_space, verify_symplectic)


@dataclass(frozen=True)
class LeviCivitaPair:
    """The two products of a pseudo-Riemannian Leibniz algebra.

    star[i][j] holds the coordinates of e_i * e_j; starstar likewise for
    the companion product.  The two always sum to the bracket.
    """
    star: tuple
    starstar: tuple

    def star_product(self, i: int, j: int) -> list:
        return list(self.star[i][j])

    def starstar_product(self, i: int, j: int) -> list:
        return list(self.starstar[i][j])


def check_para_kahler(A: LeibnizAlgebra, B: Matrix, E: Matrix) -> CheckResult:
    """Symplectic form + paracomplex structure + B(Ex, Ey) = -B(x, y)."""
    check = verify_symplectic(A, B)
    if not check.ok:
        return replace(check, reason="SYMPLECTIC_FAILS")
    report = classify_product(A, E)
    if not report.is_product:
        return CheckResult(False, "PRODUCT_FAILS")
    if not report.is_paracomplex:
        return CheckResult(False, "NOT_PARACOMPLEX")
    if not matrices_equal(E.transpose() @ B @ E, B.scale(Scalar.of(-1))):
        return CheckResult(False, "COMPAT_FAILS")
    return OK


def isotropic_decomposition_check(A: LeibnizAlgebra, B: Matrix,
                                  w_plus: Subspace,
                                  w_minus: Subspace) -> CheckResult:
    """Two B-isotropic subalgebras that split the algebra as a vector space."""
    check = verify_symplectic(A, B)
    if not check.ok:
        return replace(check, reason="SYMPLECTIC_FAILS")
    if any(_non_isotropic_pair(B, W) is not None for W in (w_plus, w_minus)):
        return CheckResult(False, "ISOTROPY_FAILS")
    if not is_subalgebra(A, w_plus) or not is_subalgebra(A, w_minus):
        return CheckResult(False, "SUBALGEBRA_FAILS")
    if not _is_direct_sum(A.dim, w_plus, w_minus):
        return CheckResult(False, "DIRECT_SUM_FAILS")
    return OK


def _skew_form(check: CheckResult, B: Matrix, M: Matrix, error) -> Matrix:
    """S = B M for a triple that passed ``check``; S must be skew."""
    if not check.ok:
        raise error("triple fails: %s" % check.reason)
    S = B @ M
    if not matrices_equal(S.transpose(), S.scale(Scalar.of(-1))):
        raise error("derived form is not skew")
    return S


def S_from_B_E(A: LeibnizAlgebra, B: Matrix, E: Matrix) -> Matrix:
    """The skew form S(x, y) = B(x, Ey) of a para-Kahler triple."""
    return _skew_form(check_para_kahler(A, B, E), B, E, NotParaKahler)


def S_from_B_J(A: LeibnizAlgebra, B: Matrix, J: Matrix) -> Matrix:
    """The skew form S(x, y) = B(x, Jy) of a pseudo-Kahler triple."""
    return _skew_form(check_pseudo_kahler(A, B, J), B, J, NotPseudoKahler)


def levi_civita(A: LeibnizAlgebra, S: Matrix) -> LeviCivitaPair:
    """Solve the two defining identities for * and its companion.

    2 S(x*y, z)  = S([x,y],z) + S([y,z],x) + S([z,y],x) + S([x,z],y)
    2 S(x**y, z) = S([x,y],z) - S([y,z],x) - S([z,y],x) - S([x,z],y)

    With z ranging over the basis, S(v, e_k) = -(S v)_k since S is skew,
    so each product vector is -S^{-1} w / 2 for the right-hand side w.
    """
    n = A.dim
    if S.rows != n or S.cols != n:
        raise DegenerateForm("form must be %d x %d" % (n, n))
    if not matrices_equal(S.transpose(), S.scale(Scalar.of(-1))):
        raise DegenerateForm("form must be skew-symmetric")
    if is_singular(S):
        raise DegenerateForm("form is singular")
    s_inv = invert(S)
    half = Scalar.one(A.gaussian) / Scalar.of(2)
    star = []
    starstar = []
    for i in range(n):
        x = A.basis_vector(i)
        star_row = []
        starstar_row = []
        for j in range(n):
            y = A.basis_vector(j)
            bxy = A.bracket_basis(i, j)
            w_star = []
            w_starstar = []
            for k in range(n):
                z = A.basis_vector(k)
                first = form_value(S, bxy, z)
                rest = (form_value(S, A.bracket(y, z), x)
                        + form_value(S, A.bracket(z, y), x)
                        + form_value(S, A.bracket(x, z), y))
                w_star.append(first + rest)
                w_starstar.append(first - rest)
            star_row.append(tuple(
                -half * c for c in s_inv.apply(w_star)))
            starstar_row.append(tuple(
                -half * c for c in s_inv.apply(w_starstar)))
        star.append(tuple(star_row))
        starstar.append(tuple(starstar_row))
    return LeviCivitaPair(tuple(star), tuple(starstar))


def check_pseudo_kahler(A: LeibnizAlgebra, B: Matrix, J: Matrix) -> CheckResult:
    """Symplectic form + complex structure + B(Jx, Jy) = B(x, y)."""
    if A.field != RATIONAL:
        raise WrongField("pseudo-Kahler structures live on rational ('real') "
                         "algebras")
    check = verify_symplectic(A, B)
    if not check.ok:
        return replace(check, reason="SYMPLECTIC_FAILS")
    if not (_is_anti_involution(J) and complex_integrability(A, J).ok):
        return CheckResult(False, "COMPLEX_FAILS")
    if not matrices_equal(J.transpose() @ B @ J, B):
        return CheckResult(False, "COMPAT_FAILS")
    return OK


def omega_to_J(D: DendriformAlgebra, omega: Matrix):
    """The complex structure J(x + xi) = -sharp^{-1}(xi) + sharp(x).

    ``sharp`` sends x to the functional omega(x, .); in coordinates its
    matrix is the transpose of omega.  Returns (phase space, J).
    """
    check = verify_invariant_form(D, omega)
    if not check.ok:
        raise NotInvariant("form fails invariance: %s" % check.reason)
    if is_singular(omega):
        raise DegenerateForm("form is singular")
    P = build_phase_space(D)
    n = D.dim
    sharp = omega.transpose()
    sharp_inv = invert(sharp)
    z = Matrix.zero(n, n, D.gaussian)
    top = z.hstack(sharp_inv.scale(Scalar.of(-1)))
    bottom = sharp.hstack(z)
    return P, Matrix.from_rows(top.entries + bottom.entries)


def realify(A: LeibnizAlgebra, B: Matrix, E: Matrix):
    """Real pseudo-Kahler structure underlying a Gaussian para-Kahler one.

    The doubled basis is (e_1..e_n, i*e_1..i*e_n); brackets expand by
    bilinearity over the rationals, B' takes real parts, and J' is the
    matrix of multiplication by i composed with E.
    """
    if A.field != GAUSSIAN:
        raise WrongField("realification starts from a Gaussian algebra")
    check = check_para_kahler(A, B, E)
    if not check.ok:
        raise NotParaKahler("triple fails: %s" % check.reason)
    n = A.dim
    one = Scalar.one(True)
    i_unit = Scalar.i()
    units = [one] * n + [i_unit] * n
    tensor = []
    for a in range(2 * n):
        plane = []
        for b in range(2 * n):
            coeffs = [Scalar.zero()] * (2 * n)
            for k in range(n):
                value = units[a] * units[b] * A.constants[a % n][b % n][k]
                coeffs[k] = Scalar.of(value.re)
                coeffs[k + n] = Scalar.of(value.im)
            plane.append(tuple(coeffs))
        tensor.append(tuple(plane))
    algebra = LeibnizAlgebra.from_constants(tensor, RATIONAL)

    b_rows = []
    for a in range(2 * n):
        row = []
        for b in range(2 * n):
            value = units[a] * units[b] * B[a % n, b % n]
            row.append(Scalar.of(value.re))
        b_rows.append(row)
    b_real = Matrix.from_rows(b_rows)

    # J' realifies multiplication by i*E:  (P + iQ) splits into blocks
    # [[-Q, -P], [P, -Q]] once premultiplied by i.
    p_rows = [[Scalar.of(E[r, c].re) for c in range(n)] for r in range(n)]
    q_rows = [[Scalar.of(E[r, c].im) for c in range(n)] for r in range(n)]
    P_mat = Matrix.from_rows(p_rows)
    Q_mat = Matrix.from_rows(q_rows)
    top = Q_mat.scale(Scalar.of(-1)).hstack(P_mat.scale(Scalar.of(-1)))
    bottom = P_mat.hstack(Q_mat.scale(Scalar.of(-1)))
    return algebra, b_real, Matrix.from_rows(top.entries + bottom.entries)


def complexify_pseudo_kahler(A: LeibnizAlgebra, B: Matrix, J: Matrix):
    """Gaussian para-Kahler structure over a rational pseudo-Kahler one."""
    if A.field != RATIONAL:
        raise WrongField("complexification starts from a rational algebra")
    check = check_pseudo_kahler(A, B, J)
    if not check.ok:
        raise NotPseudoKahler("triple fails: %s" % check.reason)
    algebra = LeibnizAlgebra.from_constants(A.constants, GAUSSIAN, A.labels)
    b_c = B.promote()
    E = J.promote().scale(-Scalar.i())
    return algebra, b_c, E
