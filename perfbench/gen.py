"""Seeded input generators owned by the benchmark.

Everything here is plain Python data (ints, ``Fraction`` and dicts) derived
from a ``random.Random``; nothing is imported from the library or from the
test suite, so a refactor of either cannot change what the benchmark
measures.  ``workloads.py`` turns this data into library objects (for the
in-process workloads) or JSON documents (for the CLI corpus).

Bracket maps are ``{(i, j): {k: c}}`` with exact coefficients, as in
``LeibnizAlgebra.from_brackets``.
"""

from fractions import Fraction


def nonzero(rng, bound=4):
    return rng.randint(1, bound) * rng.choice((1, -1))


def nilpotent_algebra(rng, dim):
    """Every bracket of the first dim-1 basis vectors lands on the last one,
    which annihilates on both sides, so the Leibniz identity holds trivially.
    All those brackets are nonzero: the support, and with it the work a job
    does, is the same on every seed; only the coefficients vary."""
    return {(i, j): {dim - 1: Fraction(nonzero(rng, 3))}
            for i in range(dim - 1) for j in range(dim - 1)}


def nilpotent_dendriform(rng, dim):
    """(left, right) product maps of the same nilpotent shape: both products
    of the first dim-1 basis vectors land on the last one."""
    if dim == 1:
        a = Fraction(nonzero(rng, 3))
        return {(0, 0): {0: a}}, {(0, 0): {0: -a}}
    left, right = {}, {}
    for i in range(dim - 1):
        for j in range(dim - 1):
            for product in (left, right):
                product[(i, j)] = {dim - 1: Fraction(nonzero(rng, 3))}
    return left, right


def skew_dendriform(rng):
    """(p, a) of a two-dimensional dendriform algebra with a nonsingular skew
    invariant form; see ``skew_products``."""
    return Fraction(nonzero(rng)), Fraction(nonzero(rng))


def skew_products(p):
    """(left, right): e0 < e0 = -2p e1, e0 > e0 = p e1, e1 annihilating on
    both sides.  Every omega = [[0, a], [-a, 0]] with a != 0 is invariant."""
    return {(0, 0): {1: -2 * p}}, {(0, 0): {1: p}}


def skew_phase_space(p, a):
    """Closed form of the pseudo-Kahler triple (A, B, J) that ``omega_to_J``
    builds from ``skew_dendriform``: A is the phase space on
    (e0, e1, f0, f1), B the canonical pairing, J the complex structure.
    Matrices are row lists of Fractions."""
    brackets = {(0, 0): {1: -p}, (0, 3): {2: 2 * p}, (3, 0): {2: -p}}
    B = [[1 if j == (i + 2) % 4 else 0 for j in range(4)] for i in range(4)]
    J = [[0, 0, 0, -1 / a], [0, 0, 1 / a, 0], [0, -a, 0, 0], [a, 0, 0, 0]]
    return brackets, [[Fraction(e) for e in row] for row in B], J


def heisenberg_like(rng):
    """[e0, e2] = c e3 in dimension 4."""
    return {(0, 2): {3: Fraction(nonzero(rng))}}


def is_diagonal_product(brackets, signs):
    """Nijenhuis identity of diag(signs) on basis pairs: for a bracket
    [e_i, e_j] = c e_k it reads s_i s_j = s_k (s_i + s_j - s_k)."""
    return all(signs[i] * signs[j] == signs[k] * (signs[i] + signs[j] - signs[k])
               for (i, j), value in brackets.items() for k in value)


def diagonal_products(brackets, dim):
    """Sign patterns of all diagonal product structures, in the library's
    binary-counting order (bit set means -1 at that index)."""
    out = []
    for pattern in range(2 ** dim):
        signs = [-1 if (pattern >> i) & 1 else 1 for i in range(dim)]
        if is_diagonal_product(brackets, signs):
            out.append(signs)
    return out


def product_signs(rng, brackets, want):
    """A random diagonal sign pattern on the 4-dim heisenberg_like algebra
    that is (want=True) or is not (want=False) a product structure."""
    while True:
        signs = [rng.choice((1, -1)) for _ in range(4)]
        if is_diagonal_product(brackets, signs) == want:
            return signs


def squares_algebra(rng):
    """[e0, e0] = [e1, e1] = c e2 in dimension 4."""
    c = Fraction(nonzero(rng))
    return {(0, 0): {2: c}, (1, 1): {2: c}}


# The four block complex structures on squares_algebra (all integrable).
SQUARES_COMPLEX = [
    [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
    [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
    [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
    [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
]
# J e0 = e2, J e1 = e3: an anti-involution that fails integrability at (0, 0).
SQUARES_NOT_COMPLEX = [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0],
                       [0, 1, 0, 0]]


def non_leibniz(rng, dim):
    """[e0, e1] = c e0, [e1, e0] = d e1 plus nilpotent noise: the Leibniz
    identity fails on the first few basis triples."""
    brackets = nilpotent_algebra(rng, dim)
    brackets[(0, 1)] = {0: Fraction(nonzero(rng))}
    brackets[(1, 0)] = {1: Fraction(nonzero(rng))}
    return brackets


def non_dendriform(rng):
    """A scaled copy of a two-dimensional structure failing axiom p1."""
    c = Fraction(nonzero(rng))
    return {(0, 0): {0: c}, (1, 1): {1: c}}, {(0, 0): {1: c}}


def sl2(rng):
    """sl(2) in the basis (h, e, f), scaled by a nonzero c."""
    c = Fraction(nonzero(rng))
    return {(0, 1): {1: 2 * c}, (1, 0): {1: -2 * c},
            (0, 2): {2: -2 * c}, (2, 0): {2: 2 * c},
            (1, 2): {0: c}, (2, 1): {0: -c}}
