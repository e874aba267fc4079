"""The tensor core in ``leibniz`` is the only copy of its helpers."""

import ast
import pathlib

import leibniz_lab

# Private copies that the shared helpers of ``leibniz_lab.leibniz``
# (vadd, vsub, unit, form_value, tensor_product) replaced, and removed API,
# including the per-scalar field tag and its conversions.
FORBIDDEN = {"_add", "_sub", "_vadd", "_vsub", "_unit", "_form_value",
             "_product", "scalar_arith", "promote", "demote", "field_tag"}


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
