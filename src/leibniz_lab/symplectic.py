"""Symplectic structures, the linear solver, phase spaces and Manin triples."""

from __future__ import annotations

import random
from collections.abc import Sequence

from .dendriform import (QUADRATIC, DendriformAlgebra, dendriform_rep,
                         verify_quadratic_dendriform)
from .errors import (DegenerateForm, DimensionMismatch, NotQuadratic,
                     NotSymmetric, NotSymplectic)
from .leibniz import (CheckResult, LeibnizAlgebra, OK, Subspace, _closed,
                      _columns, _last_call, _require, _require_square, defect,
                      first_defect, form_tensor, functionals, is_subalgebra,
                      transport, verify_leibniz)
from .linalg import Matrix, invert, is_singular, kernel_basis, rank
from .record import Record
from .representations import dual_rep, semidirect_product
from .scalars import Scalar

SAMPLE_ATTEMPTS = 32   # seeded combinations tried after the basis sum


# B(z,[x,y]) = -B(y,[x,z]) + B(x,[y,z]) + B(x,[z,y]), with "." the
# bracket and "|" the form.  The verifier and the solver both read this.
SYMPLECTIC = (("IDENTITY_FAILS", ((1, "z|(x.y)"),),
               ((-1, "y|(x.z)"), (1, "x|(y.z)"), (1, "x|(z.y)"))),)


def verify_symplectic(A: LeibnizAlgebra, B: Matrix) -> CheckResult:
    """Symmetry, nondegeneracy and the defining trilinear identity
    (:data:`SYMPLECTIC`) on all basis triples."""
    return _verify_symplectic(A, B, SYMPLECTIC)


@_last_call
def _verify_symplectic(A: LeibnizAlgebra, B: Matrix, table) -> CheckResult:
    """:func:`verify_symplectic` with the identity's term table given."""
    _require_square(B, A.dim)
    if B != B.transpose():
        return CheckResult(False, "NOT_SYMMETRIC")
    if is_singular(B):
        return CheckResult(False, "DEGENERATE")
    return first_defect(A.dim, table, {".": A.brackets, "|": form_tensor(B)})


def _symplectic_gate(A: LeibnizAlgebra, B: Matrix) -> CheckResult:
    """:func:`verify_symplectic` as the first step of a larger check: a
    failure becomes SYMPLECTIC_FAILS with the same witness."""
    check = _verify_symplectic(A, B, SYMPLECTIC)
    return check if check.ok else CheckResult(
        False, "SYMPLECTIC_FAILS", check.indices, check.lhs, check.rhs)


def solve_symplectic_space(A: LeibnizAlgebra, seed: int = 0):
    """Exact basis of the space of symmetric forms satisfying the identity.

    Nondegeneracy is an open condition and is not imposed; a deterministic
    sampling pass looks for one nonsingular member (sum of the basis first,
    then ``SAMPLE_ATTEMPTS`` seeded small-integer combinations).  On the
    0-dim algebra the basis is empty and the one form, 0 x 0, is the sample:
    it is nondegenerate.
    """
    n = A.dim
    # The identity with B unknown: B(e_p, e_q) = B(e_q, e_p) is coordinate
    # t of the upper-triangle unknowns, and each failing triple is a row.
    # With B symmetric the rows of (x, y, z) and (x, z, y) are equal, so
    # only y <= z is kept.
    index = {}
    for t, (p, q) in enumerate((p, q) for p in range(n) for q in range(p, n)):
        index[(p, q)] = index[(q, p)] = t
    m = n * (n + 1) // 2
    rows = defect(SYMPLECTIC[0], {".": A.brackets, "|": {
        pq: {t: Scalar.one()} for pq, t in index.items()}})
    constraints = Matrix(m, tuple(rows[key] for key in sorted(rows)
                                  if key[1] <= key[2]))
    basis = [Matrix.from_rows([[c[index[(p, q)]] for q in range(n)]
                               for p in range(n)])
             for c in kernel_basis(constraints)]
    return basis, (sample_nondegenerate(basis, seed=seed) if n
                   else Matrix.zero(0, 0))


def form_space_radical(basis: Sequence[Matrix]) -> list:
    """Kernel basis of the forms stacked vertically: the v with B v = 0 for
    every B in the (nonempty) list, which all members of the span share."""
    if not basis:
        raise DimensionMismatch("an empty form list has no ambient space")
    nonzero = tuple(row for B in basis for row in B.nonzero)
    return kernel_basis(Matrix(basis[0].cols, nonzero))


def sample_nondegenerate(basis: Sequence[Matrix],
                         seed: int = 0) -> Matrix | None:
    """Deterministic search for a nonsingular member of a form space.

    An empty basis or a nonzero :func:`form_space_radical` makes every
    member singular, so None then certifies that no nondegenerate form
    exists, and nothing is sampled.  Otherwise the sum of the basis and
    ``SAMPLE_ATTEMPTS`` seeded small-integer combinations are tried in turn.
    """
    if not basis or form_space_radical(basis):
        return None
    candidate = sum(basis[1:], basis[0])
    if not is_singular(candidate):
        return candidate
    rng = random.Random(seed)
    zero = Matrix.zero(basis[0].rows, basis[0].cols)
    for _ in range(SAMPLE_ATTEMPTS):
        candidate = sum((B.scale(Scalar.of(rng.randint(-5, 5)))
                         for B in basis), zero)
        if not is_singular(candidate):
            return candidate
    return None


def symplectic_to_dendriform(A: LeibnizAlgebra, B: Matrix) -> DendriformAlgebra:
    """Solve the two :data:`~dendriform.QUADRATIC` identities, with the
    bracket as ``*``, for the two products columnwise: they determine x<y
    and x>y uniquely because B is nondegenerate.
    """
    _require(_verify_symplectic(A, B, SYMPLECTIC), NotSymplectic,
             "form fails the symplectic check")
    b_inv = invert(B)
    tensors = {"*": A.brackets, "|": form_tensor(B)}
    # B(v, e_k) = (B v)_k for symmetric B: each product is B^{-1} w.
    return DendriformAlgebra(A.dim, *(
        transport(functionals(rhs, tensors), R=b_inv)
        for _, _, rhs in QUADRATIC), A.field)


def canonical_pairing(n: int) -> Matrix:
    """The block form [[0, I], [I, 0]] on base + dual coordinates."""
    return Matrix(2 * n, tuple({(i + n) % (2 * n): Scalar.one()}
                               for i in range(2 * n)))


class PhaseSpace(Record):
    __slots__ = ("total", "form")

    @property
    def base_dim(self) -> int:
        return self.total.dim // 2

    def base_subspace(self) -> Subspace:
        """The block [I; 0] of the first base_dim coordinates."""
        n = self.base_dim
        return Subspace(Matrix(n, Matrix.identity(n).nonzero + ({},) * n))

    def dual_subspace(self) -> Subspace:
        """The block [0; I] of the last base_dim coordinates."""
        n = self.base_dim
        return Subspace(Matrix(n, ({},) * n + Matrix.identity(n).nonzero))


def _gram(B: Matrix, U: Matrix, W: Matrix) -> Matrix:
    """The matrix of B(u_a, w_b) for bases given as the columns of U, W."""
    return U.transpose() @ B @ W


def _non_isotropic_pair(B: Matrix, *columns: Matrix) -> tuple | None:
    """The first basis pair (a, b) with B(w_a, w_b) != 0 of the span of
    each C's columns in turn, or None: the first stored entry of the first
    nonzero Gram matrix."""
    return next(((a, min(row)) for C in columns
                 for a, row in enumerate(_gram(B, C, C).nonzero) if row), None)


def _isotropic_split(A, B: Matrix, W1: Subspace, W2: Subspace,
                     tensors) -> CheckResult:
    """Whether A (anything with a dim) is the direct sum of two B-isotropic
    subspaces, each closed under every product tensor in ``tensors``."""
    C1, C2 = _columns(A, W1), _columns(A, W2)
    pair = _non_isotropic_pair(B, C1, C2)
    if pair is not None:
        return CheckResult(False, "ISOTROPY_FAILS", pair)
    if not all(_closed(C, *(transport(T, C, C) for T in tensors))
               for C in (C1, C2)):
        return CheckResult(False, "SUBALGEBRA_FAILS")
    if W1.dim + W2.dim != A.dim or rank(C1.hstack(C2)) != A.dim:
        return CheckResult(False, "DIRECT_SUM_FAILS")
    return OK


def build_phase_space(D: DendriformAlgebra) -> PhaseSpace:
    """Semidirect product with the dual of the tautological representation."""
    total = semidirect_product(dual_rep(dendriform_rep(D)))
    return PhaseSpace(total, canonical_pairing(D.dim))


def verify_phase_space(P: PhaseSpace, base: Subspace,
                       dual: Subspace) -> CheckResult:
    n = P.base_dim
    if base.dim != n or dual.dim != n:
        raise DimensionMismatch("both blocks must have dimension %d" % n)
    check = verify_leibniz(P.total)
    if not check.ok:
        return check
    check = _symplectic_gate(P.total, P.form)
    if not check.ok:
        return check
    if not is_subalgebra(P.total, base) or not is_subalgebra(P.total, dual):
        return CheckResult(False, "SUBALGEBRA_FAILS")
    # The two blocks must pair canonically: isotropic against themselves,
    # dual bases against each other.
    C1, C2 = _columns(P.total, base), _columns(P.total, dual)
    pair = _non_isotropic_pair(P.form, C1, C2)
    if pair is not None:
        return CheckResult(False, "PAIRING_FAILS", pair)
    if rank(_gram(P.form, C1, C2)) != n:
        return CheckResult(False, "PAIRING_FAILS")
    return OK


def verify_manin_triple(D: DendriformAlgebra, B: Matrix, W1: Subspace,
                        W2: Subspace) -> CheckResult:
    what = "the ambient pair is not quadratic"
    try:
        check = verify_quadratic_dendriform(D, B)
    except (NotSymmetric, DegenerateForm) as exc:
        raise NotQuadratic("%s: %s" % (what, exc)) from None
    _require(check, NotQuadratic, what)
    return _isotropic_split(D, B, W1, W2, (D.left_brackets, D.right_brackets))
