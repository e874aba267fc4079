"""Para-Kahler / pseudo-Kahler compatibility and Levi-Civita products."""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

from .dendriform import DendriformAlgebra, verify_invariant_form
from .errors import (DegenerateForm, NotInvariant, NotInvolution,
                     NotParaKahler, NotPseudoKahler, WrongField)
from .leibniz import (CheckResult, LeibnizAlgebra, OK, Subspace,
                      _dense, _require, _require_square, form_tensor,
                      functionals, transport)
from .linalg import Matrix, invert, is_singular, trace
from .record import Record
from .scalars import GAUSSIAN, RATIONAL, Scalar
from .structures import _squares_to, integrability
from .symplectic import _isotropic_split, _symplectic_gate, build_phase_space


class LeviCivitaPair(Record):
    """The two products of a pseudo-Riemannian Leibniz algebra.

    ``star`` and ``starstar`` are sparse tensors {(i, j): {k: c}}, e_i * e_j
    and its companion; the two always sum to the bracket.
    """
    __slots__ = ("dim", "star", "starstar")

    def __init__(self, dim: int, star: dict, starstar: dict):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "star", star)
        object.__setattr__(self, "starstar", starstar)

    def star_product(self, i: int, j: int) -> list:
        return _dense(self.star, (i, j), self.dim)

    def starstar_product(self, i: int, j: int) -> list:
        return _dense(self.starstar, (i, j), self.dim)


def _kahler_check(A: LeibnizAlgebra, B: Matrix, M: Matrix, c: int,
                  structure_fails) -> CheckResult:
    """B symplectic, then the structure step (``structure_fails()`` gives a
    reason or None), then B(Mx, My) = -c B(x, y), i.e. M^T B M = -c B."""
    check = _symplectic_gate(A, B)
    if not check.ok:
        return check
    reason = structure_fails()
    if reason is None and M.transpose() @ B @ M != (-B if c > 0 else B):
        reason = "COMPAT_FAILS"
    return OK if reason is None else CheckResult(False, reason)


def check_para_kahler(A: LeibnizAlgebra, B: Matrix, E: Matrix) -> CheckResult:
    """Symplectic form + paracomplex structure + B(Ex, Ey) = -B(x, y).

    E is paracomplex when its eigenspaces have equal dimensions; as E^2 = I
    makes trace E = dim E_+ - dim E_-, that is trace E = 0.
    """
    _require_square(E, A.dim, "operator")

    def product_fails():
        if not _squares_to(E, 1):
            raise NotInvolution("E^2 != I")
        return ("PRODUCT_FAILS" if not integrability(A, E, 1).ok
                else "NOT_PARACOMPLEX" if trace(E) else None)

    return _kahler_check(A, B, E, 1, product_fails)


def isotropic_decomposition_check(A: LeibnizAlgebra, B: Matrix,
                                  w_plus: Subspace,
                                  w_minus: Subspace) -> CheckResult:
    """Two B-isotropic subalgebras that split the algebra as a vector space."""
    check = _symplectic_gate(A, B)
    return check if not check.ok else _isotropic_split(
        A, B, w_plus, w_minus, (A.brackets,))


def _skew_form(check: CheckResult, B: Matrix, M: Matrix, error) -> Matrix:
    """S = B M for a triple that passed ``check``; S must be skew."""
    _require(check, error, "triple fails")
    S = B @ M
    if S.transpose() != -S:
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
    _require_square(S, A.dim)
    if S.transpose() != -S:
        raise DegenerateForm("form must be skew-symmetric")
    if is_singular(S):
        raise DegenerateForm("form is singular")
    R = invert(S).scale(Fraction(-1, 2))
    tensors = {".": A.brackets, "|": form_tensor(S)}
    first = ((1, "(x.y)|z"),)
    rest = ((1, "(y.z)|x"), (1, "(z.y)|x"), (1, "(x.z)|y"))
    return LeviCivitaPair(A.dim, *(
        transport(functionals(first + side, tensors), R=R)
        for side in (rest, tuple((-s, t) for s, t in rest))))


def check_pseudo_kahler(A: LeibnizAlgebra, B: Matrix, J: Matrix) -> CheckResult:
    """Symplectic form + complex structure + B(Jx, Jy) = B(x, y)."""
    _require_square(J, A.dim, "operator")
    if A.field != RATIONAL:
        raise WrongField("pseudo-Kahler structures live on rational ('real') "
                         "algebras")
    return _kahler_check(A, B, J, -1, lambda: (
        None if _squares_to(J, -1) and integrability(A, J, -1).ok
        else "COMPLEX_FAILS"))


def _blocks(top_left: Matrix, top_right: Matrix, bottom_left: Matrix,
            bottom_right: Matrix) -> Matrix:
    top, bottom = top_left.hstack(top_right), bottom_left.hstack(bottom_right)
    return Matrix(top.rows + bottom.rows, top.cols,
                  top.nonzero + bottom.nonzero)


def omega_to_J(D: DendriformAlgebra, omega: Matrix):
    """The complex structure J(x + xi) = -sharp^{-1}(xi) + sharp(x).

    ``sharp`` sends x to the functional omega(x, .); in coordinates its
    matrix is the transpose of omega.  Returns (phase space, J).
    """
    _require(verify_invariant_form(D, omega), NotInvariant,
             "form fails invariance")
    P = build_phase_space(D)
    n = D.dim
    sharp = omega.transpose()
    sharp_inv = invert(sharp)
    z = Matrix.zero(n, n)
    return P, _blocks(z, -sharp_inv, sharp, z)


def _realified_brackets(A: LeibnizAlgebra) -> dict:
    """The bracket of a Gaussian algebra over the rationals, on the doubled
    basis (e_1..e_n, i*e_1..i*e_n).

    [u e_a, v e_b] = u v [e_a, e_b] with u, v = 1 or i, so each stored
    (a, b): {k: c} gives four pairs with the unit product 1, i, i or -1;
    the real part of that times c lands on e_k, the imaginary part on
    i*e_k.
    """
    n = A.dim
    out = {}
    for (a, b), value in A.brackets.items():
        entries = [out.setdefault(key, {}) for key in
                   ((a, b), (a, b + n), (a + n, b), (a + n, b + n))]
        for k, c in value.items():
            x, y = c.real, c.imag
            for entry, (re, im) in zip(entries, ((x, y), (-y, x), (-y, x),
                                                 (-x, -y))):
                if re:
                    entry[k] = re
                if im:
                    entry[k + n] = im
    return out


def _parts(M: Matrix):
    """(Re M, Im M) as rational matrices."""
    return tuple(Matrix(M.rows, M.cols, tuple(
        {j: Scalar.of(part(e)) for j, e in row.items() if part(e)}
        for row in M.nonzero))
        for part in (attrgetter("real"), attrgetter("imag")))


def realify(A: LeibnizAlgebra, B: Matrix, E: Matrix):
    """Real pseudo-Kahler structure underlying a Gaussian para-Kahler one.

    The doubled basis is (e_1..e_n, i*e_1..i*e_n); brackets expand by
    bilinearity over the rationals (:func:`_realified_brackets`), B' takes
    real parts, and J' is the matrix of multiplication by i composed with E.
    """
    if A.field != GAUSSIAN:
        raise WrongField("realification starts from a Gaussian algebra")
    _require(check_para_kahler(A, B, E), NotParaKahler, "triple fails")
    algebra = LeibnizAlgebra(2 * A.dim, _realified_brackets(A), RATIONAL)
    # B'(u e_a, v e_b) = Re(u v B[a, b]) with u v = 1, i, i or -1.
    P, Q = _parts(B)
    # J' realifies multiplication by i*E:  (P + iQ) splits into blocks
    # [[-Q, -P], [P, -Q]] once premultiplied by i.
    P_E, Q_E = _parts(E)
    return (algebra, _blocks(P, -Q, -Q, -P),
            _blocks(-Q_E, -P_E, P_E, -Q_E))


def complexify_pseudo_kahler(A: LeibnizAlgebra, B: Matrix, J: Matrix):
    """Gaussian para-Kahler structure over a rational pseudo-Kahler one."""
    if A.field != RATIONAL:
        raise WrongField("complexification starts from a rational algebra")
    _require(check_pseudo_kahler(A, B, J), NotPseudoKahler, "triple fails")
    return (LeibnizAlgebra(A.dim, A.brackets, GAUSSIAN, A.labels), B,
            J.scale(-Scalar.i()))
