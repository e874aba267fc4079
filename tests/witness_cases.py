"""Pinned witnesses: each identity verifier, one failing input each.

Every verifier reports the first failing basis tuple in lexicographic
order together with both sides of the violated identity.  ``EXPECTED``
holds the values recorded once from the verifiers: the reason, the indices
and the exact scalars, so that any rewrite of a verifier must reproduce the
same witness.  Standard library only, so that ``test_witnesses.py`` and
``replay_cli_golden.py`` (for interpreters without pytest) both read it.
"""

from leibniz_lab import (DendriformAlgebra, LeibnizAlgebra, Representation,
                         regular_rep, verify_dendriform, verify_invariant_form,
                         verify_leibniz, verify_nijenhuis,
                         verify_quadratic_dendriform, verify_representation,
                         verify_rota_baxter, verify_symplectic)
from leibniz_lab.linalg import Matrix
from leibniz_lab.scalars import Scalar
from leibniz_lab.structures import integrability


def mat(rows):
    """A Matrix from a nested list of ints."""
    return Matrix.from_rows([[Scalar.of(e) for e in row] for row in rows])


def tensor(n, entries):
    """Dense n x n x n tensor from {(i, j, k): value}."""
    t = [[[Scalar.zero()] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), c in entries.items():
        t[i][j][k] = c if isinstance(c, Scalar) else Scalar.of(c)
    return t


def dendriform(left, right, n=2):
    return DendriformAlgebra.from_constants(tensor(n, left), tensor(n, right))


def sl2():
    return LeibnizAlgebra.from_brackets(3, {
        (0, 1): {1: Scalar.of(2)}, (1, 0): {1: Scalar.of(-2)},
        (0, 2): {2: Scalar.of(-2)}, (2, 0): {2: Scalar.of(2)},
        (1, 2): {0: Scalar.of(1)}, (2, 1): {0: Scalar.of(-1)}})


def squares():
    return LeibnizAlgebra.from_brackets(
        2, {(0, 0): {1: Scalar.of(1)}, (1, 0): {0: Scalar.of(1)}})


def gaussian_algebra():
    i = Scalar.i()
    return LeibnizAlgebra.from_brackets(
        2, {(0, 1): {0: i}, (1, 1): {1: Scalar.of(1, 1)}}, field="Q(i)")


def rep(lefts, rights):
    A = LeibnizAlgebra.from_brackets(2, {(0, 0): {1: Scalar.of(1)}})
    return Representation.build(A, [mat(m) for m in lefts],
                                [mat(m) for m in rights], 2)


CASES = {
    "leibniz": lambda: verify_leibniz(squares()),
    "leibniz-gaussian": lambda: verify_leibniz(gaussian_algebra()),
    "dendriform-p1": lambda: verify_dendriform(
        dendriform({(0, 1, 0): -1}, {(1, 1, 0): 1})),
    "dendriform-p2": lambda: verify_dendriform(
        dendriform({(1, 0, 1): -1, (1, 1, 1): 1},
                   {(1, 1, 0): 1, (0, 0, 0): 2})),
    "dendriform-p3": lambda: verify_dendriform(
        dendriform({(0, 1, 1): 2}, {(1, 0, 1): 1})),
    "invariant-left": lambda: verify_invariant_form(
        dendriform({(0, 0, 1): 1}, {(1, 1, 0): 2, (0, 0, 1): 2}),
        mat([[1, -1], [-1, 3]])),
    "invariant-right": lambda: verify_invariant_form(
        dendriform({(1, 0, 0): -1, (1, 1, 1): -1},
                   {(0, 0, 0): 1, (0, 0, 1): 1}),
        mat([[0, -1], [-1, 3]])),
    "quadratic-left": lambda: verify_quadratic_dendriform(
        dendriform({(0, 0, 1): 1}, {(1, 1, 0): 2, (0, 0, 1): 2}),
        mat([[1, -1], [-1, 3]])),
    "quadratic-right": lambda: verify_quadratic_dendriform(
        dendriform({(1, 1, 1): 2}, {(1, 1, 0): -1}),
        mat([[2, -1], [-1, 3]])),
    "rota-baxter": lambda: verify_rota_baxter(regular_rep(sl2()),
                                              Matrix.identity(3)),
    "representation-l-bracket": lambda: verify_representation(rep(
        [[[0, -1], [0, -1]], [[0, 0], [0, 1]]],
        [[[0, 0], [-1, 0]], [[1, 0], [1, 0]]])),
    "representation-r-bracket": lambda: verify_representation(rep(
        [[[0, -1], [0, -1]], [[0, 0], [0, 0]]],
        [[[1, 0], [-1, -1]], [[0, 1], [0, 1]]])),
    "representation-r-compose": lambda: verify_representation(rep(
        [[[0, 0], [0, -1]], [[0, 0], [0, 0]]],
        [[[1, 0], [0, 1]], [[0, 0], [0, 0]]])),
    "symplectic": lambda: verify_symplectic(sl2(), Matrix.identity(3)),
    "nijenhuis": lambda: verify_nijenhuis(
        sl2(), Matrix.diagonal([Scalar.of(1), Scalar.of(0), Scalar.of(0)])),
    "integrability": lambda: integrability(
        sl2(), mat([[0, -1, 0], [1, 0, 0], [0, 0, 1]]), -1),
}

EXPECTED = {
    "dendriform-p1": ("p1", (0, 1, 1), ["1", "0"], ["0", "0"]),
    "dendriform-p2": ("p2", (0, 0, 0), ["0", "0"], ["4", "0"]),
    "dendriform-p3": ("p3", (1, 0, 0), ["0", "0"], ["0", "3"]),
    "integrability": ("INTEGRABILITY_FAILS", (0, 2),
                      ["0", "0", "-2"], ["1", "1", "-2"]),
    "invariant-left": ("INVARIANT_LEFT_FAILS", (0, 0, 0), ["-1"], ["1"]),
    "invariant-right": ("INVARIANT_RIGHT_FAILS", (0, 0, 1), ["2"], ["0"]),
    "leibniz": ("LEIBNIZ_FAILS", (0, 0, 0), ["0", "0"], ["1", "0"]),
    "leibniz-gaussian": ("LEIBNIZ_FAILS", (0, 1, 1),
                         ["-1+i", "0"], ["-1", "0"]),
    "nijenhuis": ("NIJENHUIS_FAILS", (1, 2),
                  ["0", "0", "0"], ["-1", "0", "0"]),
    "quadratic-left": ("QUADRATIC_LEFT_FAILS", (0, 0, 0), ["-1"], ["3"]),
    "quadratic-right": ("QUADRATIC_RIGHT_FAILS", (0, 1, 1), ["0"], ["-8"]),
    "representation-l-bracket": ("AXIOM_L_BRACKET", (0, 0),
                                 ["0", "0", "0", "1"], ["0", "0", "0", "0"]),
    "representation-r-bracket": ("AXIOM_R_BRACKET", (0, 0),
                                 ["0", "1", "0", "1"], ["1", "2", "1", "-1"]),
    "representation-r-compose": ("AXIOM_R_COMPOSE", (0, 0),
                                 ["0", "0", "0", "-1"],
                                 ["-1", "0", "0", "-1"]),
    "rota-baxter": ("ROTA_BAXTER_FAILS", (0, 1),
                    ["0", "2", "0"], ["0", "4", "0"]),
    "symplectic": ("IDENTITY_FAILS", (0, 1, 1), ["2"], ["-2"]),
}

