"""Nijenhuis operators, product structures and complex structures."""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .dendriform import DendriformAlgebra
from .errors import (DimensionMismatch, NotAntiInvolution, NotComplexProduct,
                     NotComplexStructure, NotDirectSum, NotInvolution,
                     NotSubalgebra, PhiIdentityFails, TooLarge, WrongField)
from .leibniz import (CheckResult, LeibnizAlgebra, OK, Subspace,
                      _require_square, first_failure, is_subalgebra,
                      tensor_from, vadd, vsub)
from .linalg import Matrix, eigenspace, invert, rank
from .scalars import GAUSSIAN, RATIONAL, Scalar


@dataclass(frozen=True)
class StructureReport:
    is_nijenhuis: bool
    is_product: bool
    is_strict: bool
    is_abelian: bool
    is_paracomplex: bool
    plus_eigenspace: Subspace
    minus_eigenspace: Subspace


@dataclass(frozen=True)
class ComplexReport:
    is_complex: bool
    is_strict: bool
    is_abelian: bool
    eigen_i: Subspace
    eigen_minus_i: Subspace


def _is_involution(M: Matrix) -> bool:
    return M @ M == Matrix.identity(M.rows)


def _is_anti_involution(M: Matrix) -> bool:
    return M.is_square() and (
        M @ M == Matrix.identity(M.rows).scale(Scalar.of(-1)))


def verify_nijenhuis(A: LeibnizAlgebra, N: Matrix) -> CheckResult:
    """[Nx, Ny] = N([Nx,y] + [x,Ny] - N[x,y]) on all basis pairs."""
    _require_square(N, A.dim, "operator")
    e = [A.basis_vector(i) for i in range(A.dim)]
    ne = [N.apply(x) for x in e]

    def sides(i, j):
        inner = vsub(vadd(A.bracket(ne[i], e[j]), A.bracket(e[i], ne[j])),
                     N.apply(A.bracket_basis(i, j)))
        yield "NIJENHUIS_FAILS", A.bracket(ne[i], ne[j]), N.apply(inner)

    return first_failure(A.dim, 2, sides)


def _strict_abelian(A: LeibnizAlgebra, M: Matrix, sign: int):
    """(strict, abelian) for an operator M on all basis pairs.

    Strict: M[x,y] = [Mx,y] = [x,My].  Abelian: [x,y] = sign * [Mx,My],
    with sign -1 for product and +1 for complex structures.
    """
    e = [A.basis_vector(i) for i in range(A.dim)]
    me = [M.apply(x) for x in e]

    def strict(i, j):
        m_of_bracket = M.apply(A.bracket_basis(i, j))
        yield "STRICT", m_of_bracket, A.bracket(me[i], e[j])
        yield "STRICT", m_of_bracket, A.bracket(e[i], me[j])

    def abelian(i, j):
        rhs = A.bracket(me[i], me[j])
        yield "ABELIAN", A.bracket_basis(i, j), (
            rhs if sign > 0 else [-c for c in rhs])

    return (first_failure(A.dim, 2, strict).ok,
            first_failure(A.dim, 2, abelian).ok)


def classify_product(A: LeibnizAlgebra, E: Matrix) -> StructureReport:
    """Full integrability/strict/abelian/paracomplex report for an involution."""
    _require_square(E, A.dim, "operator")
    if not _is_involution(E):
        raise NotInvolution("E^2 != I")
    nijenhuis = verify_nijenhuis(A, E).ok
    strict, abelian = _strict_abelian(A, E, -1)
    plus = Subspace.from_vectors(eigenspace(E, Scalar.one()))
    minus = Subspace.from_vectors(eigenspace(E, Scalar.of(-1)))
    return StructureReport(
        is_nijenhuis=nijenhuis,
        is_product=nijenhuis,
        is_strict=strict,
        is_abelian=abelian,
        is_paracomplex=nijenhuis and plus.dim == minus.dim,
        plus_eigenspace=plus,
        minus_eigenspace=minus)


def product_from_decomposition(A: LeibnizAlgebra, w_plus: Subspace,
                               w_minus: Subspace) -> Matrix:
    """E = +1 on the first subalgebra, -1 on the second."""
    if not is_subalgebra(A, w_plus) or not is_subalgebra(A, w_minus):
        raise NotSubalgebra("both summands must be subalgebras")
    if w_plus.dim + w_minus.dim != A.dim:
        raise NotDirectSum("dimensions do not sum to %d" % A.dim)
    U = Matrix.from_rows(w_plus.basis + w_minus.basis).transpose()
    if rank(U) != A.dim:
        raise NotDirectSum("summands intersect nontrivially")
    signs = ([Scalar.one()] * w_plus.dim
             + [Scalar.of(-1)] * w_minus.dim)
    return U @ Matrix.diagonal(signs) @ invert(U)


def enumerate_diagonal_products(A: LeibnizAlgebra):
    """All sign-diagonal involutions that are product structures.

    Patterns are tried in binary-counting order with +1 first (bit unset
    means +1 at that basis index).
    """
    if A.dim > 24:
        raise TooLarge("sign enumeration is capped at dimension 24")
    results = []
    for pattern in range(2 ** A.dim):
        signs = [Scalar.of(-1) if (pattern >> i) & 1 else Scalar.one()
                 for i in range(A.dim)]
        E = Matrix.diagonal(signs)
        report = classify_product(A, E)
        if report.is_product:
            results.append((E, report))
    return results


def complexify(A: LeibnizAlgebra) -> LeibnizAlgebra:
    """The same structure constants reinterpreted over the Gaussian field."""
    if A.field != RATIONAL:
        raise WrongField("only rational algebras complexify")
    return replace(A, field=GAUSSIAN)


def complex_integrability(A: LeibnizAlgebra, J: Matrix) -> CheckResult:
    """J[x,y] = [Jx,y] + [x,Jy] + J[Jx,Jy] on all basis pairs."""
    e = [A.basis_vector(i) for i in range(A.dim)]
    je = [J.apply(x) for x in e]

    def sides(i, j):
        yield ("INTEGRABILITY_FAILS", J.apply(A.bracket_basis(i, j)),
               vadd(vadd(A.bracket(je[i], e[j]), A.bracket(e[i], je[j])),
                    J.apply(A.bracket(je[i], je[j]))))

    return first_failure(A.dim, 2, sides)


def _require_complex_candidate(A: LeibnizAlgebra, J: Matrix):
    """A complex structure needs a rational algebra and J^2 = -I."""
    _require_square(J, A.dim, "operator")
    if A.field != RATIONAL:
        raise WrongField("complex structures live on rational ('real') algebras")
    if not _is_anti_involution(J):
        raise NotAntiInvolution("J^2 != -I")


def classify_complex(A: LeibnizAlgebra, J: Matrix) -> ComplexReport:
    """Integrability report plus eigenspaces inside the complexification."""
    _require_complex_candidate(A, J)
    integrable = complex_integrability(A, J).ok
    strict, abelian = _strict_abelian(A, J, 1)
    eigen_i = Subspace.from_vectors(eigenspace(J, Scalar.i()))
    eigen_minus_i = Subspace.from_vectors(eigenspace(J, -Scalar.i()))
    return ComplexReport(integrable, strict, abelian, eigen_i, eigen_minus_i)


def _half_shift(J: Matrix, c: Scalar) -> Matrix:
    """x -> (x + c Jx)/2 over the Gaussian field, for J^2 = -I."""
    if not _is_anti_involution(J):
        raise NotAntiInvolution("J^2 != -I")
    half = Fraction(1, 2)
    return (Matrix.identity(J.rows) + J.scale(c)).scale(half)


def phi_map(J: Matrix) -> Matrix:
    """phi(x) = (x - i Jx)/2, a map into the +i eigenspace."""
    return _half_shift(J, -Scalar.i())


def psi_map(J: Matrix) -> Matrix:
    """psi(x) = (x + i Jx)/2, the conjugate companion of phi."""
    return _half_shift(J, Scalar.i())


def bracket_J(A: LeibnizAlgebra, J: Matrix) -> LeibnizAlgebra:
    """The halved difference bracket [x,y]_J = ([x,y] - [Jx,Jy]) / 2."""
    _require_complex_candidate(A, J)
    if not complex_integrability(A, J).ok:
        raise NotComplexStructure("J fails the integrability condition")
    half = Fraction(1, 2)
    je = [J.apply(A.basis_vector(i)) for i in range(A.dim)]
    return LeibnizAlgebra(A.dim, tensor_from(A.dim, lambda i, j: [
        half * c for c in vsub(A.bracket_basis(i, j), A.bracket(je[i], je[j]))]),
        A.field)


def check_complex_product_pair(A: LeibnizAlgebra, J: Matrix,
                               E: Matrix) -> CheckResult:
    """Complex structure + product structure + anticommutation."""
    return _complex_product_pair(A, J, E)[0]


def _complex_product_pair(A: LeibnizAlgebra, J: Matrix, E: Matrix):
    _require_square(E, A.dim, "operator")   # J: in the candidate check
    try:
        _require_complex_candidate(A, J)
    except NotAntiInvolution:
        return CheckResult(False, "NOT_ANTI_INVOLUTION"), None
    if not complex_integrability(A, J).ok:
        return CheckResult(False, "COMPLEX_FAILS"), None
    try:
        report = classify_product(A, E)
    except NotInvolution:
        return CheckResult(False, "NOT_INVOLUTION"), None
    if not report.is_product:
        return CheckResult(False, "PRODUCT_FAILS"), report
    if J @ E != (E @ J).scale(Scalar.of(-1)):
        return CheckResult(False, "ANTICOMMUTATION_FAILS"), report
    # J swaps the two eigenspaces, so the product structure is paracomplex.
    if not report.minus_eigenspace.contains(
            *(J.apply(v) for v in report.plus_eigenspace.basis)):
        return CheckResult(False, "EIGENSPACE_SWAP_FAILS"), report
    return OK, report


def J_from_phi(A: LeibnizAlgebra, E: Matrix, phi: Matrix) -> Matrix:
    """Assemble J from a linear isomorphism between the two eigenspaces.

    ``phi`` is given in the coordinates of the computed eigenspace bases
    (deterministic reduced-echelon order): column j holds the coefficients
    of phi(p_j) in the minus-eigenspace basis.
    """
    report = classify_product(A, E)
    if not report.is_product:
        raise NotInvolution("E is not a product structure")
    plus, minus = report.plus_eigenspace, report.minus_eigenspace
    if plus.dim != minus.dim:
        raise DimensionMismatch("eigenspaces of different dimensions")
    k = plus.dim
    _require_square(phi, k, "phi")
    invert(phi)  # raises SingularMatrix when phi is not an isomorphism
    ps = list(plus.basis)
    minus_mat = Matrix.from_rows(minus.basis).transpose()
    qs = [minus_mat.apply(phi.col(j)) for j in range(k)]
    # J sends p_j to q_j and q_j to -p_j.
    U = Matrix.from_rows(ps + qs).transpose()
    images = Matrix.from_rows(qs + [[-c for c in p] for p in ps]).transpose()
    J = images @ invert(U)
    # The defining identity for phi, checked on plus-eigenspace basis pairs:
    # phi[x1,x2] = [phi x1, x2] + [x1, phi x2] - phi^{-1}[phi x1, phi x2].

    def sides(a, b):
        yield ("PHI_IDENTITY_FAILS", J.apply(A.bracket(ps[a], ps[b])),
               vadd(vadd(A.bracket(qs[a], ps[b]), A.bracket(ps[a], qs[b])),
                    J.apply(A.bracket(qs[a], qs[b]))))

    check = first_failure(k, 2, sides)
    if not check.ok:
        raise PhiIdentityFails("identity fails at pair (%d, %d)"
                               % check.indices)
    return J


def product_iff_iE(A: LeibnizAlgebra, E: Matrix):
    """J = iE on a Gaussian algebra; both integrability verdicts compared."""
    if A.field != GAUSSIAN:
        raise WrongField("the correspondence lives over the Gaussian field")
    J = E.scale(Scalar.i())
    product_ok = classify_product(A, E).is_product
    complex_ok = (_is_anti_involution(J)
                  and complex_integrability(A, J).ok)
    return J, product_ok == complex_ok, product_ok, complex_ok


def _projections(plus: Subspace, minus: Subspace, n: int):
    """Projection matrices onto each summand along the other."""
    u_inv = invert(Matrix.from_rows(plus.basis + minus.basis).transpose())
    k = plus.dim
    sel_plus = Matrix.from_rows(u_inv.entries[:k])
    sel_minus = Matrix.from_rows(u_inv.entries[k:])
    pi_plus = (Matrix.from_rows(plus.basis).transpose() @ sel_plus
               if k else Matrix.zero(n, n))
    pi_minus = (Matrix.from_rows(minus.basis).transpose() @ sel_minus
                if minus.dim else Matrix.zero(n, n))
    return pi_plus, pi_minus, sel_plus, sel_minus


def induced_dendriform_on_eigenspaces(A: LeibnizAlgebra, J: Matrix,
                                      E: Matrix):
    """Dendriform structures on both eigenspaces of a complex product pair.

    x1 < x2 = -proj J[x1, J x2] and x1 > x2 = -proj J[J x1, x2], expressed
    in the eigenspace coordinates.
    """
    check, report = _complex_product_pair(A, J, E)
    if not check.ok:
        raise NotComplexProduct("pair fails: %s" % check.reason)
    plus, minus = report.plus_eigenspace, report.minus_eigenspace
    n = A.dim
    pi_plus, pi_minus, sel_plus, sel_minus = _projections(plus, minus, n)

    def build(space: Subspace, pi: Matrix, sel: Matrix) -> DendriformAlgebra:
        xs = space.basis
        jxs = [J.apply(x) for x in xs]

        def project(v):
            return sel.apply(pi.apply([-c for c in J.apply(v)]))

        k = space.dim
        return DendriformAlgebra(
            k, tensor_from(k, lambda a, b: project(A.bracket(xs[a], jxs[b]))),
            tensor_from(k, lambda a, b: project(A.bracket(jxs[a], xs[b]))),
            A.field)

    return build(plus, pi_plus, sel_plus), build(minus, pi_minus, sel_minus)
