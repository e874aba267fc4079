"""The tensor core in ``leibniz``: the only copy of its helpers, and the
one sparse form ``{(i, j): {k: c}}`` of every structure tensor."""

import ast
import copy
import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import leibniz_lab
from leibniz_lab import (DendriformAlgebra, LeibnizAlgebra, complexify,
                         direct_sum, dual_rep, regular_rep,
                         semidirect_product)
from leibniz_lab.errors import DimensionMismatch
from leibniz_lab.io import (parse_algebra, parse_dendriform,
                            serialize_algebra, serialize_dendriform)
from leibniz_lab.leibniz import tensor_from, tensor_product
from leibniz_lab.scalars import Scalar

# Private copies that the shared helpers of ``leibniz_lab.leibniz``
# (vadd, vsub, unit, form_value, tensor_product) replaced, and removed API:
# the per-scalar field tag and its conversions, the dense to sparse tensor
# conversion, the record comparisons that ``==`` does, the whole-space
# subspace, the shape-sniffing document parser, the document's switch
# for validation, the span test and ambient size of the row-tuple subspace
# and the abelian-algebra shortcut for ``from_brackets(n, {})``.
FORBIDDEN = {"_add", "_sub", "_vadd", "_vsub", "_unit", "_form_value",
             "_product", "scalar_arith", "promote", "demote", "field_tag",
             "sparse_brackets", "tensors_equal", "dendriforms_equal",
             "full_subspace", "parse_document", "_should_validate",
             "contains", "ambient_dim", "abelian"}
DENSE_TENSOR_ATTRIBUTES = {"constants", "left_constants", "right_constants"}


def _package_trees():
    package = pathlib.Path(leibniz_lab.__file__).parent
    return [(path.name, ast.parse(path.read_text()))
            for path in sorted(package.glob("*.py"))]


def test_no_private_helper_copies():
    defined = {}
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, []).append(name)
    assert {name: defined[name] for name in FORBIDDEN & defined.keys()} == {}


def test_documents_cannot_switch_validation_off():
    """Only a caller decides whether a parsed document is validated: the
    parser reads no ``"validate"`` key."""
    tree = dict(_package_trees())["io.py"]
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and node.value == "validate"] == []


def test_field_is_not_a_scalar_flag():
    """The field belongs to the algebra or document: no function takes a
    ``gaussian`` parameter and nothing reads a ``gaussian`` attribute."""
    found = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if ((isinstance(node, ast.arg) and node.arg == "gaussian")
                    or (isinstance(node, ast.Attribute)
                        and node.attr == "gaussian")):
                found.append((name, node.lineno))
    assert found == []


def test_no_dense_tensor_attribute():
    """Structure tensors are stored once, sparsely: no field, attribute read
    or attribute write uses a dense tensor name."""
    found = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if ((isinstance(node, ast.Attribute)
                 and node.attr in DENSE_TENSOR_ATTRIBUTES)
                    or (isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name)
                        and node.target.id in DENSE_TENSOR_ATTRIBUTES)):
                found.append((name, node.lineno))
    assert found == []


def test_no_subspace_basis_attribute():
    """A subspace is stored once, as the matrix of its basis columns:
    nothing reads or writes a ``basis`` attribute."""
    found = [(name, node.lineno) for name, tree in _package_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "basis"]
    assert found == []


# -- the sparse tensor against a dense reference ----------------------------

small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
rational = st.builds(Scalar.of, small)
gaussian = st.builds(Scalar.of, small, small)


def dense_reference(dense, x, y):
    """sum_ijk x_i y_j c[i][j][k] e_k, straight from the definition."""
    n = len(dense)
    return [sum((x[i] * y[j] * dense[i][j][k]
                 for i in range(n) for j in range(n)), Fraction(0))
            for k in range(n)]


@st.composite
def tensor_and_vectors(draw):
    entry = rational if draw(st.booleans()) else gaussian
    n = draw(st.integers(0, 4))
    # Zero entries are drawn often, so tensors and vectors are sparse.
    sparse = st.just(Scalar.zero()) | entry
    dense = [[[draw(sparse) for _ in range(n)] for _ in range(n)]
             for _ in range(n)]
    vector = st.lists(sparse, min_size=n, max_size=n)
    return dense, draw(vector), draw(vector)


@given(tensor_and_vectors())
def test_tensor_product_matches_dense_reference(case):
    dense, x, y = case
    n = len(dense)
    A = LeibnizAlgebra.from_brackets(n, tensor_from(
        n, lambda i, j: dense[i][j]))
    assert tensor_product(A.brackets, x, y) == dense_reference(dense, x, y)
    assert A.bracket(x, y) == dense_reference(dense, x, y)
    assert all(c for value in A.brackets.values() for c in value.values())


def test_dense_and_sparse_constructors_agree():
    z, one, two = Scalar.zero(), Scalar.one(), Scalar.of(2)
    dense = [[[z, z], [z, two]], [[one, z], [z, z]]]
    A = LeibnizAlgebra.from_brackets(2, tensor_from(
        2, lambda i, j: dense[i][j]))
    B = LeibnizAlgebra.from_brackets(2, {(0, 1): {0: z, 1: two},
                                         (1, 0): {0: one}, (1, 1): {0: z}})
    assert A.brackets == B.brackets == {(0, 1): {1: two}, (1, 0): {0: one}}
    assert A.bracket_basis(0, 1) == [z, two] and A.bracket_basis(1, 1) == [z, z]
    row = A.bracket_basis(0, 1)
    row[0] = one                       # a fresh list: the tensor is untouched
    assert A.bracket_basis(0, 1) == [z, two]
    D = DendriformAlgebra.from_constants(dense, dense)
    assert D.left_brackets == D.right_brackets == A.brackets


@pytest.mark.parametrize("brackets", [
    {(0, 2): {0: Scalar.one()}},
    {(2, 0): {0: Scalar.one()}},
    {(0, 0): {2: Scalar.one()}},
    {(-1, 0): {0: Scalar.one()}},
])
def test_from_brackets_rejects_indices_out_of_range(brackets):
    with pytest.raises(DimensionMismatch):
        LeibnizAlgebra.from_brackets(2, brackets)
    with pytest.raises(DimensionMismatch):
        DendriformAlgebra.from_brackets(2, {}, brackets)


def test_serialization_sorts_entries_and_drops_zeros():
    """Bracket entries out of index order and explicit zero terms give the
    bytes recorded from the dense-tensor implementation."""
    doc = {"dim": 3, "field": "Q(i)", "basis": ["x", "y", "z"],
           "brackets": [
               {"i": 2, "j": 1, "value": [{"k": 2, "c": "1/3"},
                                          {"k": 0, "c": "-i"}]},
               {"i": 0, "j": 2, "value": [{"k": 1, "c": "0"},
                                          {"k": 0, "c": "2"}]},
               {"i": 1, "j": 1, "value": [{"k": 0, "c": "0"}]},
               {"i": 0, "j": 0, "value": [{"k": 2, "c": "5"}]}]}
    assert json.dumps(serialize_algebra(parse_algebra(doc, False))) == (
        '{"dim": 3, "field": "Q(i)", "brackets": ['
        '{"i": 0, "j": 0, "value": [{"k": 2, "c": "5"}]}, '
        '{"i": 0, "j": 2, "value": [{"k": 0, "c": "2"}]}, '
        '{"i": 2, "j": 1, "value": [{"k": 0, "c": "-i"}, '
        '{"k": 2, "c": "1/3"}]}], "basis": ["x", "y", "z"]}')
    ddoc = {"dim": 2, "left": [
        {"i": 1, "j": 0, "value": [{"k": 1, "c": "0"}, {"k": 0, "c": "3"}]},
        {"i": 0, "j": 1, "value": [{"k": 1, "c": "-1/2"}]}],
        "right": [{"i": 1, "j": 1, "value": [{"k": 0, "c": "0"}]}]}
    assert json.dumps(serialize_dendriform(parse_dendriform(ddoc, False))) == (
        '{"dim": 2, "field": "Q", "left": ['
        '{"i": 0, "j": 1, "value": [{"k": 1, "c": "-1/2"}]}, '
        '{"i": 1, "j": 0, "value": [{"k": 0, "c": "3"}]}], "right": []}')


def test_constructions_leave_their_inputs_unchanged(sl2):
    heis = LeibnizAlgebra.from_brackets(3, {(0, 1): {2: Scalar.one()},
                                            (1, 0): {2: Scalar.of(-1)}})
    before = [copy.deepcopy(A.brackets) for A in (sl2, heis)]
    direct_sum(sl2, heis)
    direct_sum(heis, sl2)
    complexify(heis)
    semidirect_product(regular_rep(sl2))
    semidirect_product(dual_rep(regular_rep(heis)))
    assert [A.brackets for A in (sl2, heis)] == before
