"""The tensor core in ``leibniz`` is the only copy of its helpers."""

import ast
import pathlib

import leibniz_lab

# Private copies that the shared helpers of ``leibniz_lab.leibniz``
# (vadd, vsub, unit, form_value, tensor_product) replaced, and removed API.
FORBIDDEN = {"_add", "_sub", "_vadd", "_vsub", "_unit", "_form_value",
             "_product", "scalar_arith"}


def test_no_private_helper_copies():
    package = pathlib.Path(leibniz_lab.__file__).parent
    defined = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, []).append(path.name)
    assert {name: defined[name] for name in FORBIDDEN & defined.keys()} == {}
