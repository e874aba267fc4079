"""Symplectic structures, the linear solver, phase spaces and Manin triples."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import product
from typing import Optional, Sequence

from .dendriform import (DendriformAlgebra, dendriform_rep,
                         verify_quadratic_dendriform)
from .errors import (DegenerateForm, DimensionMismatch, NotQuadratic,
                     NotSymmetric, NotSymplectic)
from .leibniz import (CheckResult, LeibnizAlgebra, OK, Subspace,
                      _check_ambient, _require_square, first_failure,
                      form_value, is_subalgebra, tensor_from, verify_leibniz)
from .linalg import (Matrix, column_span_matrix, invert, is_singular,
                     kernel_basis, rank)
from .representations import dual_rep, semidirect_product
from .scalars import Scalar


def _identity_terms(i, j, k):
    """The symplectic identity at x, y, z = e_i, e_j, e_k as (lhs, rhs).

    B(z,[x,y]) = -B(y,[x,z]) + B(x,[y,z]) + B(x,[z,y]); each term
    (sign, p, (a, b)) stands for sign * B(e_p, [e_a, e_b]).
    """
    return (((1, k, (i, j)),),
            ((-1, j, (i, k)), (1, i, (j, k)), (1, i, (k, j))))


def verify_symplectic(A: LeibnizAlgebra, B: Matrix) -> CheckResult:
    """Symmetry, nondegeneracy and the defining trilinear identity on all
    basis triples (see :func:`_identity_terms`)."""
    _require_square(B, A.dim)
    if B != B.transpose():
        return CheckResult(False, "NOT_SYMMETRIC")
    if is_singular(B):
        return CheckResult(False, "DEGENERATE")
    e = [A.basis_vector(p) for p in range(A.dim)]

    def value(terms):
        acc = Scalar.zero()
        for sign, p, (a, b) in terms:
            v = form_value(B, e[p], A.bracket_basis(a, b))
            acc = acc + v if sign > 0 else acc - v
        return acc

    def sides(i, j, k):
        lhs, rhs = _identity_terms(i, j, k)
        yield "IDENTITY_FAILS", [value(lhs)], [value(rhs)]

    return first_failure(A.dim, 3, sides)


def _sym_index_pairs(n: int):
    return [(p, q) for p in range(n) for q in range(p, n)]


def _form_from_sym_coords(n: int, coords) -> Matrix:
    rows = [[Scalar.zero()] * n for _ in range(n)]
    for (p, q), c in zip(_sym_index_pairs(n), coords):
        rows[p][q] = c
        rows[q][p] = c
    return Matrix.from_rows(rows)


def solve_symplectic_space(A: LeibnizAlgebra, seed: int = 0):
    """Exact basis of the space of symmetric forms satisfying the identity.

    Nondegeneracy is an open condition and is not imposed; a deterministic
    sampling pass looks for one nonsingular member (sum of the basis first,
    then seeded small-integer combinations, at most 32 attempts).
    """
    n = A.dim
    pairs = _sym_index_pairs(n)
    pair_index = {pq: t for t, pq in enumerate(pairs)}
    # One linear constraint lhs - rhs = 0 per basis triple, unknowns =
    # upper-triangle of B.
    constraint_rows = []
    for i, j, k in product(range(n), repeat=3):
        row = [Scalar.zero()] * len(pairs)
        lhs, rhs = _identity_terms(i, j, k)
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
    basis = [_form_from_sym_coords(n, col.col(0))
             for col in kernel_basis(constraints)]
    return basis, sample_nondegenerate(basis, seed=seed)


def form_space_radical(basis: Sequence[Matrix]) -> list:
    """Kernel basis of the forms stacked vertically: the v with B v = 0 for
    every B in the (nonempty) list, which all members of the span share."""
    if not basis:
        raise DimensionMismatch("an empty form list has no ambient space")
    return kernel_basis(Matrix.from_rows(
        [row for B in basis for row in B.entries]))


def sample_nondegenerate(basis: Sequence[Matrix], seed: int = 0,
                         attempts: int = 32) -> Optional[Matrix]:
    """Deterministic search for a nonsingular member of a form space.

    An empty basis or a nonzero :func:`form_space_radical` makes every
    member singular, so None then certifies that no nondegenerate form
    exists, and nothing is sampled.  Otherwise the sum of the basis and
    ``attempts`` seeded small-integer combinations are tried in turn.
    """
    if not basis or form_space_radical(basis):
        return None
    candidate = sum(basis[1:], basis[0])
    if not is_singular(candidate):
        return candidate
    rng = random.Random(seed)
    zero = Matrix.zero(basis[0].rows, basis[0].cols)
    for _ in range(attempts):
        candidate = sum((B.scale(Scalar.of(rng.randint(-5, 5)))
                         for B in basis), zero)
        if not is_singular(candidate):
            return candidate
    return None


def symplectic_to_dendriform(A: LeibnizAlgebra, B: Matrix) -> DendriformAlgebra:
    """Solve the two invariance identities for the two products columnwise.

    B(x<y, z) = -B(y, [x,z]) and B(x>y, z) = B(x, [y,z]) + B(x, [z,y])
    determine x<y and x>y uniquely because B is nondegenerate.
    """
    check = verify_symplectic(A, B)
    if not check.ok:
        raise NotSymplectic("form fails the symplectic check: %s" % check.reason)
    n = A.dim
    b_inv = invert(B)
    e = [A.basis_vector(p) for p in range(n)]
    br = A.bracket_basis
    # B(v, e_k) = (B v)_k for symmetric B, so v = B^{-1} * functional.
    left = tensor_from(n, lambda i, j: b_inv.apply(
        [-form_value(B, e[j], br(i, k)) for k in range(n)]))
    right = tensor_from(n, lambda i, j: b_inv.apply(
        [form_value(B, e[i], br(j, k)) + form_value(B, e[i], br(k, j))
         for k in range(n)]))
    return DendriformAlgebra(n, left, right, A.field)


def canonical_pairing(n: int) -> Matrix:
    """The block form [[0, I], [I, 0]] on base + dual coordinates."""
    z, o = Scalar.zero(), Scalar.one()
    return Matrix.from_rows(
        [[o if j == i + n else z for j in range(2 * n)] for i in range(n)]
        + [[o if j == i - n else z for j in range(2 * n)]
           for i in range(n, 2 * n)])


@dataclass(frozen=True)
class PhaseSpace:
    total: LeibnizAlgebra
    base_dim: int
    form: Matrix
    origin: Optional[DendriformAlgebra] = None

    def base_subspace(self) -> Subspace:
        return Subspace.from_vectors(
            [self.total.basis_vector(i) for i in range(self.base_dim)])

    def dual_subspace(self) -> Subspace:
        return Subspace.from_vectors(
            [self.total.basis_vector(i)
             for i in range(self.base_dim, 2 * self.base_dim)])


def _non_isotropic_pair(B: Matrix, W: Subspace) -> Optional[tuple]:
    """The first basis pair (a, b) of W with B(w_a, w_b) != 0, or None."""
    return next(((a, b) for a, b in product(range(W.dim), repeat=2)
                 if form_value(B, W.basis[a], W.basis[b])),
                None)


def _is_direct_sum(dim: int, W1: Subspace, W2: Subspace) -> bool:
    """Whether the dim-dimensional space is the direct sum of W1 and W2."""
    return W1.dim + W2.dim == dim and (dim == 0 or rank(column_span_matrix(
        W1.columns() + W2.columns())) == dim)


def build_phase_space(D: DendriformAlgebra) -> PhaseSpace:
    """Semidirect product with the dual of the tautological representation."""
    total = semidirect_product(dual_rep(dendriform_rep(D)))
    return PhaseSpace(total, D.dim, canonical_pairing(D.dim), D)


def verify_phase_space(P: PhaseSpace, base: Subspace,
                       dual: Subspace) -> CheckResult:
    n = P.base_dim
    if base.dim != n or dual.dim != n:
        raise DimensionMismatch("both blocks must have dimension %d" % n)
    check = verify_leibniz(P.total)
    if not check.ok:
        return check
    check = verify_symplectic(P.total, P.form)
    if not check.ok:
        return replace(check, reason="SYMPLECTIC_FAILS")
    if not is_subalgebra(P.total, base) or not is_subalgebra(P.total, dual):
        return CheckResult(False, "SUBALGEBRA_FAILS")
    # The two blocks must pair canonically: isotropic against themselves,
    # dual bases against each other.
    for W in (base, dual):
        pair = _non_isotropic_pair(P.form, W)
        if pair is not None:
            return CheckResult(False, "PAIRING_FAILS", pair)
    pairing = Matrix.from_rows([[form_value(P.form, u, v)
                                 for v in dual.basis] for u in base.basis])
    if rank(pairing) != n:
        return CheckResult(False, "PAIRING_FAILS")
    return OK


def verify_manin_triple(D: DendriformAlgebra, B: Matrix, W1: Subspace,
                        W2: Subspace) -> CheckResult:
    try:
        check = verify_quadratic_dendriform(D, B)
    except (NotSymmetric, DegenerateForm) as exc:
        raise NotQuadratic("the ambient pair is not quadratic: %s"
                           % exc) from None
    if not check.ok:
        raise NotQuadratic("the ambient pair is not quadratic: %s"
                           % check.reason)
    for W in (W1, W2):
        _check_ambient(D, W)
    if any(_non_isotropic_pair(B, W) is not None for W in (W1, W2)):
        return CheckResult(False, "ISOTROPY_FAILS")
    if not all(W.contains(product(list(u), list(v))) for W in (W1, W2)
               for u in W.basis for v in W.basis
               for product in (D.left, D.right)):
        return CheckResult(False, "SUBALGEBRA_FAILS")
    if not _is_direct_sum(D.dim, W1, W2):
        return CheckResult(False, "DIRECT_SUM_FAILS")
    return OK
