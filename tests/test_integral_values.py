"""Integral values are ints, end to end.

Every value made in ``scalars`` is an ``int`` when it is an integral
rational and a ``Fraction`` only when it is not, and the package divides
only through ``scalars._quotient``.  An integral ``Fraction`` handed in
directly (the one representation every rational had before) is equal and
hash-equal to its ``int``, so the same inputs with ``int`` coefficients and
with integral ``Fraction`` coefficients must give equal results and
byte-identical JSON, through the symplectic solver, the sign enumeration
and the criterion-6 and criterion-9 bridge chains.  No result holds a
float or a bool, and every ``Scalar`` part and every parsed entry is
canonical.
"""

import ast
import json
import pathlib
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import leibniz_lab
from conftest import canonical
from leibniz_lab import cli
from leibniz_lab import (DendriformAlgebra, LeibnizAlgebra, Matrix,
                         build_phase_space, check_complex_product_pair,
                         check_para_kahler, check_pseudo_kahler,
                         complexify_pseudo_kahler,
                         enumerate_diagonal_products, omega_to_J, realify,
                         solve_symplectic_space, symplectic_to_dendriform,
                         verify_manin_triple, verify_phase_space,
                         verify_symplectic)
from leibniz_lab.errors import LeibnizLabError
from leibniz_lab.io import (parse_algebra, parse_dendriform, parse_matrix,
                            serialize_algebra, serialize_dendriform,
                            serialize_matrix)
from leibniz_lab.record import Record
from leibniz_lab.scalars import Scalar

LIFTS = (int, Fraction)   # the same integer coefficients, two ways


def walk(value, path="out"):
    """Every number in an output as (path, value): record fields, dict keys
    and values, list and tuple items, so also the stored rows of a Matrix.
    Verdict flags (``ok`` and ``is_*`` fields) are bools by design."""
    if isinstance(value, Record):
        for name in value.__slots__:
            if name != "ok" and not name.startswith("is_"):
                yield from walk(getattr(value, name), path + "." + name)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from walk(key, "%s key" % path)
            yield from walk(item, "%s[%r]" % (path, key))
    elif isinstance(value, (list, tuple)):
        for at, item in enumerate(value):
            yield from walk(item, "%s[%d]" % (path, at))
    elif value is not None and not isinstance(value, str):
        yield path, value


def assert_exact(out):
    numbers = list(walk(out))
    assert [(path, v) for path, v in numbers
            if type(v) not in (int, Fraction, Scalar)] == []
    assert [(path, v) for path, v in numbers
            if type(v) is Scalar and not canonical(v)] == []


def documents(objects) -> bytes:
    """The JSON bytes of algebras, dendriform algebras and matrices."""
    serialize = {LeibnizAlgebra: serialize_algebra,
                 DendriformAlgebra: serialize_dendriform,
                 Matrix: serialize_matrix}
    return json.dumps([serialize[type(x)](x) if x is not None else None
                       for x in objects]).encode()


def twins(run, build):
    """``run(build(lift))`` for both lifts: equal outputs, equal JSON
    bytes, and no float or bool in either."""
    (out_int, objs_int), (out_frac, objs_frac) = (run(build(lift))
                                                  for lift in LIFTS)
    assert out_int == out_frac
    assert documents(objs_int) == documents(objs_frac)
    assert_exact(out_int)
    assert_exact(out_frac)


# -- inputs: integer coefficients, built once per lift ----------------------

nonzero = st.integers(-4, 4).filter(bool)


@st.composite
def tensors(draw, max_dim=5):
    """A sparse tensor of integer coefficients, mostly not Leibniz, so the
    eliminations meet pivots other than +-1."""
    dim = draw(st.integers(0, max_dim))
    index = st.integers(0, max(dim - 1, 0))
    brackets = draw(st.dictionaries(
        st.tuples(index, index),
        st.dictionaries(index, nonzero, min_size=1, max_size=2),
        max_size=dim + 2)) if dim else {}
    return dim, brackets


def algebra(dim, brackets, lift):
    return LeibnizAlgebra.from_brackets(dim, {
        ij: {k: lift(c) for k, c in value.items()}
        for ij, value in brackets.items()})


def matrix(rows, lift):
    return Matrix.from_rows([[lift(e) for e in row] for row in rows])


@st.composite
def nilpotent_dendriforms(draw):
    """(dim, left, right) with the products of the first dim-1 basis
    vectors on the last one, or the family e<e = a e, e>e = -a e."""
    dim = draw(st.integers(1, 3))
    if dim == 1:
        a = draw(nonzero)
        return 1, {(0, 0): {0: a}}, {(0, 0): {0: -a}}
    pairs = [(i, j) for i in range(dim - 1) for j in range(dim - 1)]
    left, right = ({ij: {dim - 1: draw(nonzero)} for ij in pairs}
                   for _ in range(2))
    return dim, left, right


def dendriform(dim, left, right, lift):
    return DendriformAlgebra.from_brackets(dim, *(
        {ij: {k: lift(c) for k, c in value.items()}
         for ij, value in product.items()} for product in (left, right)))


# -- the solver and the enumeration ------------------------------------------


@settings(max_examples=200, deadline=None)
@given(tensors(), st.integers(0, 10 ** 6))
def test_solver_is_the_same_on_ints_and_integral_fractions(tensor, seed):
    def run(A):
        basis, sample = solve_symplectic_space(A, seed=seed)
        return (basis, sample), [*basis, sample]
    twins(run, lambda lift: algebra(*tensor, lift))


@settings(max_examples=100, deadline=None)
@given(tensors(max_dim=4))
def test_enumeration_is_the_same_on_ints_and_integral_fractions(tensor):
    def run(A):
        results = enumerate_diagonal_products(A)
        return results, [E for E, _ in results]
    twins(run, lambda lift: algebra(*tensor, lift))


# -- the bridge chains ------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(nilpotent_dendriforms())
def test_criterion_6_chain_is_the_same_on_ints_and_integral_fractions(case):
    """Phase space, its symplectic and para-Kahler checks, the dendriform
    algebra of the pairing and its Manin triple."""
    dim = case[0]

    def run(inputs):
        D, E = inputs
        P = build_phase_space(D)
        base, dual = P.base_subspace(), P.dual_subspace()
        big = symplectic_to_dendriform(P.total, P.form)
        checks = [verify_symplectic(P.total, P.form),
                  verify_phase_space(P, base, dual),
                  check_para_kahler(P.total, P.form, E),
                  verify_manin_triple(big, P.form, base, dual)]
        assert all(check.ok for check in checks)
        return (checks, P, big), [P.total, P.form, big]
    twins(run, lambda lift: (dendriform(*case, lift), matrix(
        [[1 if i == j < dim else -1 if i == j else 0
          for j in range(2 * dim)] for i in range(2 * dim)], lift)))


@settings(max_examples=30, deadline=None)
@given(nonzero, nonzero)
def test_criterion_9_chain_is_the_same_on_ints_and_integral_fractions(p, a):
    """omega_to_J, complexification to a Gaussian para-Kahler triple and
    realification back, with every check on the way."""
    def run(inputs):
        D, omega, E = inputs
        P, J = omega_to_J(D, omega)
        Ac, Bc, Ec = complexify_pseudo_kahler(P.total, P.form, J)
        Ar, Br, Jr = realify(Ac, Bc, Ec)
        checks = [check_complex_product_pair(P.total, J, E),
                  check_pseudo_kahler(P.total, P.form, J),
                  check_para_kahler(Ac, Bc, Ec),
                  check_pseudo_kahler(Ar, Br, Jr)]
        assert all(check.ok for check in checks)
        objects = [P.total, J, Ac, Bc, Ec, Ar, Br, Jr]
        return (checks, objects), objects
    twins(run, lambda lift: (
        dendriform(2, {(0, 0): {1: -2 * p}}, {(0, 0): {1: p}}, lift),
        matrix([[0, a], [-a, 0]], lift),
        matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
               lift)))


# -- parsed entries ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(tensors(), st.integers(1, 6))
def test_parsed_entries_are_canonical(tensor, denominator):
    """Scaled by 1/denominator and printed, every coefficient parses back
    to the same value in its canonical form."""
    dim, brackets = tensor
    doc = {"dim": dim, "brackets": [
        {"i": i, "j": j, "value": [{"k": k, "c": "%d/%d" % (c, denominator)}
                                   for k, c in value.items()]}
        for (i, j), value in brackets.items()]}
    A = parse_algebra(doc, validate=False)
    entries = [c for value in A.brackets.values() for c in value.values()]
    assert all(canonical(c) for c in entries)
    assert sorted(entries) == sorted(Fraction(c, denominator)
                                     for value in brackets.values()
                                     for c in value.values())
    D = parse_dendriform({"dim": dim, "left": doc["brackets"],
                          "right": doc["brackets"]}, validate=False)
    assert D.left_brackets == A.brackets and all(
        canonical(c) for value in D.right_brackets.values()
        for c in value.values())
    M = parse_matrix({"matrix": [["6/3", "1/2+4/2*i", "0*i", "-4/4"]]},
                     "Q(i)")
    assert [type(c) for c in M.row(0)] == [int, Scalar, int, int]
    assert M.row(0) == (2, Scalar.of(Fraction(1, 2), 2), 0, -1)
    assert_exact(M)


def test_golden_documents_parse_to_canonical_values():
    """Every document of the golden CLI corpus that parses holds only
    canonical values: its entries come straight from the parser."""
    golden = json.loads((pathlib.Path(__file__).parent
                         / "cli_golden.json").read_text())
    kinds = {}   # each document's kind, from the commands that read it
    for case in golden["cases"]:
        key = tuple(case["argv"][:2])
        if key in cli.COMMANDS:
            for kind, name in zip(cli.COMMANDS[key][0], case["argv"][2:]):
                if name in golden["documents"]:
                    kinds.setdefault(name, kind)
    parsed = 0
    for name, kind in kinds.items():
        try:   # in Q(i), so that a matrix of either field parses
            obj = cli._PARSERS[kind](golden["documents"][name], "Q(i)")
        except LeibnizLabError:
            continue
        parsed += 1
        assert_exact(obj)
        assert [(path, v) for path, v in walk(obj) if not canonical(v)] == []
    assert parsed >= 25


# -- the one division ------------------------------------------------------


def test_only_the_quotient_divides():
    """No ``/`` in the package outside ``scalars._quotient``: on two ints it
    would be a float."""
    found, inside = [], 0
    for path in sorted(pathlib.Path(leibniz_lab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        helper = set()
        if path.name == "scalars.py":
            (quotient,) = [node for node in tree.body
                           if isinstance(node, ast.FunctionDef)
                           and node.name == "_quotient"]
            helper = set(map(id, ast.walk(quotient)))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.Div)):
                if id(node) in helper:
                    inside += 1
                else:
                    found.append((path.name, node.lineno))
    assert found == [] and inside == 1
