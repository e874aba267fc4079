"""Product and complex structures: one operator core with M^2 = cI.

c = 1 gives a product structure E, c = -1 a complex structure J; both are
integrable when M[x,y] = [Mx,y] + [x,My] - c M[Mx,My] (:func:`integrability`).
Applied to the Nijenhuis identity, M^2 = cI gives exactly this identity, so
after the square test it decides as :func:`verify_nijenhuis` does.  A report
(:func:`classify_product`, :func:`classify_complex`) reads the memoized
:func:`integrability` verdict; strict means M[x,y] = [Mx,y] = [x,My].
"""

from __future__ import annotations

from fractions import Fraction

from .dendriform import DendriformAlgebra
from .errors import (DimensionMismatch, NotAntiInvolution, NotComplexProduct,
                     NotComplexStructure, NotDirectSum, NotInvolution,
                     NotSubalgebra, PhiIdentityFails, TooLarge, WrongField)
from .leibniz import (CheckResult, LeibnizAlgebra, OK, Subspace, _columns,
                      _last_call, _require, _require_square, first_witness,
                      is_subalgebra, tensor_sum, transport)
from .linalg import Matrix, eigenspace, invert, rank
from .record import Record
from .scalars import GAUSSIAN, RATIONAL, Scalar


class StructureReport(Record):
    __slots__ = ("is_product", "is_strict", "is_abelian", "plus_eigenspace",
                 "minus_eigenspace")

    @property
    def is_paracomplex(self) -> bool:   # eigenspaces of equal dimension
        return (self.is_product
                and self.plus_eigenspace.dim == self.minus_eigenspace.dim)


class ComplexReport(Record):
    __slots__ = ("is_complex", "is_strict", "is_abelian", "eigen_i",
                 "eigen_minus_i")


def _squares_to(M: Matrix, c: int) -> bool:
    """M^2 = cI: an involution for c = 1, an anti-involution for c = -1."""
    return M.is_square() and M @ M == Matrix.diagonal([Scalar.of(c)] * M.rows)


def verify_nijenhuis(A: LeibnizAlgebra, N: Matrix) -> CheckResult:
    """[Nx, Ny] = N([Nx,y] + [x,Ny] - N[x,y]) on all basis pairs."""
    _require_square(N, A.dim, "operator")
    T = A.brackets
    inner = tensor_sum(transport(T, N), transport(T, None, N),
                       transport(T, R=-N))
    return first_witness(A.dim, [("NIJENHUIS_FAILS", transport(T, N, N),
                                  transport(inner, R=N))])


def integrability(A: LeibnizAlgebra, M: Matrix, c: int) -> CheckResult:
    """M[x,y] = [Mx,y] + [x,My] - c M[Mx,My] on all basis pairs."""
    return _integrability(A, M, c)


@_last_call
def _integrability(A: LeibnizAlgebra, M: Matrix, c: int) -> CheckResult:
    _require_square(M, A.dim, "operator")
    T = A.brackets
    return first_witness(A.dim, [(
        "INTEGRABILITY_FAILS", transport(T, R=M),
        tensor_sum(transport(T, M), transport(T, None, M),
                   transport(T, M, M, M if c < 0 else -M)))])


def _eigenspaces(M: Matrix, lam: Scalar):
    """The lam and -lam eigenspaces of M."""
    return tuple(Subspace(Matrix.from_rows(eigenspace(M, s)).transpose())
                 for s in (lam, -lam))


def _report(A: LeibnizAlgebra, M: Matrix, c: int):
    """(integrable, strict, abelian, +lam and -lam eigenspaces) of an
    operator with M^2 = cI, where lam = 1 for c = 1 and lam = i for c = -1.

    Strict: M[x,y] = [Mx,y] = [x,My].  Abelian: [x,y] = -c [Mx,My].
    """
    T = A.brackets
    return (integrability(A, M, c).ok,
            transport(T, R=M) == transport(T, M) == transport(T, None, M),
            T == transport(T, M if c < 0 else -M, M),
            *_eigenspaces(M, Scalar.one() if c > 0 else Scalar.i()))


def _require_involution(A: LeibnizAlgebra, E: Matrix):
    _require_square(E, A.dim, "operator")
    if not _squares_to(E, 1):
        raise NotInvolution("E^2 != I")


def classify_product(A: LeibnizAlgebra, E: Matrix) -> StructureReport:
    """Full integrability/strict/abelian/paracomplex report for an involution."""
    _require_involution(A, E)
    return StructureReport(*_report(A, E, 1))


def product_from_decomposition(A: LeibnizAlgebra, w_plus: Subspace,
                               w_minus: Subspace) -> Matrix:
    """E = +1 on the first subalgebra, -1 on the second."""
    if not is_subalgebra(A, w_plus) or not is_subalgebra(A, w_minus):
        raise NotSubalgebra("both summands must be subalgebras")
    if w_plus.dim + w_minus.dim != A.dim:
        raise NotDirectSum("dimensions do not sum to %d" % A.dim)
    U = _columns(A, w_plus).hstack(_columns(A, w_minus))
    if rank(U) != A.dim:
        raise NotDirectSum("summands intersect nontrivially")
    signs = ([Scalar.one()] * w_plus.dim
             + [Scalar.of(-1)] * w_minus.dim)
    return U @ Matrix.diagonal(signs) @ invert(U)


def _product_signs(brackets: dict, dim: int):
    """Sign tuples s, in binary-counting order, that pass the support rule
    of :func:`enumerate_diagonal_products`.

    Each stored c_ij^k != 0 with k not in {i, j} forbids two partial
    patterns (nogoods): s_i = s_j = a with s_k = -a, for a = 1 and a = -1.
    The search is depth first, highest index first and +1 first.  Each
    branch copies the signs, sets one, and propagates over all nogoods to
    a fixed point: a nogood that every set sign matches fails the branch,
    and one with a single unknown sign, the others matching, forces it to
    the other value.  Propagation is confluent, so the fixed point does
    not depend on the order of the nogoods.
    """
    nogoods = {tuple(sorted({i: a, j: a, k: -a}.items()))
               for (i, j), value in brackets.items()
               for k, c in value.items() if c and k != i and k != j
               for a in (1, -1)}

    def propagate(signs: list) -> bool:
        """Force what ``signs`` imply, in place; False on a conflict."""
        changed = True
        while changed:
            changed = False
            for nogood in nogoods:
                unknown = None
                for u, s in nogood:
                    if signs[u] != s:
                        if signs[u] or unknown:
                            break   # cannot hold, or two signs unknown
                        unknown = u, s
                else:
                    if not unknown:
                        return False
                    signs[unknown[0]] = -unknown[1]
                    changed = True
        return True

    def search(signs: list, v: int):
        while v >= 0 and signs[v]:
            v -= 1
        if v < 0:
            yield tuple(signs)
            return
        for s in (1, -1):
            branch = signs.copy()
            branch[v] = s
            if propagate(branch):
                yield from search(branch, v - 1)

    return search([0] * dim, dim - 1)


def enumerate_diagonal_products(A: LeibnizAlgebra):
    """All sign-diagonal involutions that are product structures, each with
    its :func:`classify_product` report.

    diag(s) is a product structure iff both coordinate eigenspaces are
    subalgebras: every stored bracket coefficient c_ij^k != 0 with
    s_i = s_j also has s_k = s_i.  Only the sign patterns that pass this
    rule are classified.  Results come in binary-counting order: pattern p
    has -1 at index i iff bit i of p is set, so all +1 comes first.
    """
    if A.dim > 24:
        raise TooLarge("sign enumeration is capped at dimension 24")
    results = []
    for signs in _product_signs(A.brackets, A.dim):
        E = Matrix.diagonal([Scalar.one() if s > 0 else Scalar.of(-1)
                             for s in signs])
        results.append((E, classify_product(A, E)))
    return results


def complexify(A: LeibnizAlgebra) -> LeibnizAlgebra:
    """The same structure constants reinterpreted over the Gaussian field."""
    if A.field != RATIONAL:
        raise WrongField("only rational algebras complexify")
    return LeibnizAlgebra(A.dim, A.brackets, GAUSSIAN, A.labels)


def _complex_candidate(A: LeibnizAlgebra, J: Matrix) -> bool:
    """J^2 = -I, for a square J (else DimensionMismatch) on a rational
    algebra (else WrongField)."""
    _require_square(J, A.dim, "operator")
    if A.field != RATIONAL:
        raise WrongField("complex structures live on rational ('real') algebras")
    return _squares_to(J, -1)


def classify_complex(A: LeibnizAlgebra, J: Matrix) -> ComplexReport:
    """Integrability report plus eigenspaces inside the complexification."""
    if not _complex_candidate(A, J):
        raise NotAntiInvolution("J^2 != -I")
    return ComplexReport(*_report(A, J, -1))


def _half_shift(J: Matrix, c: Scalar) -> Matrix:
    """x -> (x + c Jx)/2 over the Gaussian field, for J^2 = -I."""
    if not _squares_to(J, -1):
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
    if not _complex_candidate(A, J):
        raise NotAntiInvolution("J^2 != -I")
    if not integrability(A, J, -1).ok:
        raise NotComplexStructure("J fails the integrability condition")
    half = Matrix.identity(A.dim).scale(Fraction(1, 2))
    T = A.brackets
    return LeibnizAlgebra(A.dim, transport(
        tensor_sum(T, transport(T, J, -J)), R=half), A.field)


def check_complex_product_pair(A: LeibnizAlgebra, J: Matrix,
                               E: Matrix) -> CheckResult:
    """Complex structure + product structure + anticommutation."""
    _require_square(E, A.dim, "operator")   # J: in the candidate check
    if not _complex_candidate(A, J):
        return CheckResult(False, "NOT_ANTI_INVOLUTION")
    if not integrability(A, J, -1).ok:
        return CheckResult(False, "COMPLEX_FAILS")
    if not _squares_to(E, 1):
        return CheckResult(False, "NOT_INVOLUTION")
    if not integrability(A, E, 1).ok:
        return CheckResult(False, "PRODUCT_FAILS")
    if J @ E != -(E @ J):
        return CheckResult(False, "ANTICOMMUTATION_FAILS")
    # JE = -EJ makes J swap the eigenspaces (Ev = v gives E(Jv) = -Jv).
    return OK


def J_from_phi(A: LeibnizAlgebra, E: Matrix, phi: Matrix) -> Matrix:
    """Assemble J from a linear isomorphism between the two eigenspaces.

    ``phi`` is given in the coordinates of the computed eigenspace bases
    (deterministic reduced-echelon order): column j holds the coefficients
    of phi(p_j) in the minus-eigenspace basis.
    """
    _require_involution(A, E)
    if not integrability(A, E, 1).ok:
        raise NotInvolution("E is not a product structure")
    plus, minus = _eigenspaces(E, Scalar.one())
    if plus.dim != minus.dim:
        raise DimensionMismatch("eigenspaces of different dimensions")
    k = plus.dim
    _require_square(phi, k, "phi")
    P = _columns(A, plus)   # columns p_j
    Q = _columns(A, minus) @ phi   # q_j = phi(p_j)
    # J sends p_j to q_j and q_j to -p_j.  [P | Q] has rank k + rank phi,
    # so its inverse raises SingularMatrix unless phi is an isomorphism.
    J = Q.hstack(-P) @ invert(P.hstack(Q))
    # The defining identity for phi, checked on plus-eigenspace basis pairs:
    # phi[x1,x2] = [phi x1, x2] + [x1, phi x2] - phi^{-1}[phi x1, phi x2].
    T = A.brackets
    check = first_witness(A.dim, [(
        "PHI_IDENTITY_FAILS", transport(T, P, P, J),
        tensor_sum(transport(T, Q, P), transport(T, P, Q),
                   transport(T, Q, Q, J)))])
    if not check.ok:
        raise PhiIdentityFails("identity fails at pair (%d, %d)"
                               % check.indices)
    return J


def product_iff_iE(A: LeibnizAlgebra, E: Matrix):
    """J = iE on a Gaussian algebra; both integrability verdicts compared."""
    if A.field != GAUSSIAN:
        raise WrongField("the correspondence lives over the Gaussian field")
    J = E.scale(Scalar.i())
    _require_involution(A, E)
    product_ok = integrability(A, E, 1).ok
    complex_ok = integrability(A, J, -1).ok   # J^2 = (iE)^2 = -I
    return J, product_ok == complex_ok, product_ok, complex_ok


def induced_dendriform_on_eigenspaces(A: LeibnizAlgebra, J: Matrix,
                                      E: Matrix):
    """Dendriform structures on both eigenspaces of a complex product pair.

    x1 < x2 = -proj J[x1, J x2] and x1 > x2 = -proj J[J x1, x2], expressed
    in the eigenspace coordinates: proj reads the coordinates of a vector
    along one eigenspace basis in the basis of both.
    """
    _require(check_complex_product_pair(A, J, E), NotComplexProduct,
             "pair fails")
    plus, minus = _eigenspaces(E, Scalar.one())
    coords = invert(_columns(A, plus).hstack(_columns(A, minus)))

    def build(space: Subspace, rows) -> DendriformAlgebra:
        X = _columns(A, space)
        JX, proj = J @ X, -(Matrix(A.dim, rows) @ J)
        return DendriformAlgebra(space.dim, transport(A.brackets, X, JX, proj),
                                 transport(A.brackets, JX, X, proj), A.field)

    k = plus.dim
    return (build(plus, coords.nonzero[:k]), build(minus, coords.nonzero[k:]))
