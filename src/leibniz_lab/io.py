"""JSON document parsing and serialization for all object kinds.

Documents are plain JSON.  Scalars travel as strings such as ``"-5/7"`` or
``"1/2+3*i"``.  An algebra document looks like::

    {"dim": 4, "field": "Q", "basis": ["e1", "e2", "e3", "e4"],
     "brackets": [{"i": 0, "j": 2, "value": [{"k": 3, "c": "2"}]}]}

Unlisted (i, j) pairs are zero.  Dendriform documents carry two such
bracket lists under ``"left"`` and ``"right"``.  Representation documents
embed (or reference by path) an algebra plus per-basis-index matrices.
Forms and endomorphisms are ``{"matrix": [[...]]}``; subspaces are
``{"vectors": [[...]]}`` (rows are basis vectors).  ``"validate": false``
skips the structural verification that otherwise runs on load.
"""

from __future__ import annotations

import json
import sys

from .dendriform import DendriformAlgebra, verify_dendriform
from .errors import ParseError, ValidationError
from .leibniz import LeibnizAlgebra, Subspace, verify_leibniz
from .linalg import Matrix
from .representations import Representation, verify_representation
from .scalars import GAUSSIAN, RATIONAL, format_scalar, parse_scalar


def load_json(path: str):
    """Read a JSON document from a path, or standard input for ``-``."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError("%s: line %d column %d: %s"
                         % (path, exc.lineno, exc.colno, exc.msg)) from None
    except OSError as exc:
        raise ParseError("%s: %s" % (path, exc.strerror)) from None


def _require(doc: dict, key: str, where: str):
    if not isinstance(doc, dict):
        raise ParseError("%s: JSON object expected" % where)
    if key not in doc:
        raise ParseError("%s: missing key %r" % (where, key))
    return doc[key]


def _natural(value, bound=None) -> bool:
    """A JSON integer (never a bool) that is >= 0 and below ``bound``."""
    return (type(value) is int and value >= 0
            and (bound is None or value < bound))


def _size(doc: dict, key: str, where: str) -> int:
    value = _require(doc, key, where)
    if not _natural(value):
        raise ParseError("%s: %s must be a nonnegative integer" % (where, key))
    return value


def _field_of(doc: dict, where: str) -> str:
    field = doc.get("field", RATIONAL)
    if field not in (RATIONAL, GAUSSIAN):
        raise ParseError("%s: unknown field %r" % (where, field))
    return field


def _scalar(text, field: str, where: str):
    if not isinstance(text, str):
        raise ParseError("%s: scalar must be a string, got %r" % (where, text))
    value = parse_scalar(text)
    if field == RATIONAL and value.imag:
        raise ParseError("%s: imaginary scalar %r in a rational document"
                         % (where, text))
    return value


def _bracket_map(entries, dim: int, field: str, where: str) -> dict:
    if not isinstance(entries, list):
        raise ParseError("%s: bracket list expected" % where)
    brackets = {}
    for pos, entry in enumerate(entries):
        spot = "%s[%d]" % (where, pos)
        i = _require(entry, "i", spot)
        j = _require(entry, "j", spot)
        value = _require(entry, "value", spot)
        if not (_natural(i, dim) and _natural(j, dim)):
            raise ParseError("%s: indices out of range" % spot)
        if not isinstance(value, list):
            raise ParseError("%s: value list expected" % spot)
        target = brackets.setdefault((i, j), {})
        for term in value:
            k = _require(term, "k", spot)
            if not _natural(k, dim):
                raise ParseError("%s: k out of range" % spot)
            target[k] = _scalar(_require(term, "c", spot), field, spot)
    return brackets


def parse_algebra(doc: dict, validate: bool = None) -> LeibnizAlgebra:
    dim = _size(doc, "dim", "algebra")
    field = _field_of(doc, "algebra")
    labels = doc.get("basis")
    if labels is not None and not (isinstance(labels, list)
                                   and len(labels) == dim):
        raise ParseError("algebra: basis must be a list of %d labels" % dim)
    brackets = _bracket_map(doc.get("brackets", []), dim, field,
                            "algebra.brackets")
    algebra = LeibnizAlgebra.from_brackets(dim, brackets, field, labels)
    if _should_validate(doc, validate):
        check = verify_leibniz(algebra)
        if not check.ok:
            raise ValidationError("algebra fails the Leibniz identity at %s"
                                  % (check.indices,))
    return algebra


def parse_dendriform(doc: dict, validate: bool = None) -> DendriformAlgebra:
    dim = _size(doc, "dim", "dendriform")
    field = _field_of(doc, "dendriform")
    left = _bracket_map(_require(doc, "left", "dendriform"), dim, field,
                        "dendriform.left")
    right = _bracket_map(_require(doc, "right", "dendriform"), dim, field,
                         "dendriform.right")
    algebra = DendriformAlgebra.from_brackets(dim, left, right, field)
    if _should_validate(doc, validate):
        check = verify_dendriform(algebra)
        if not check.ok:
            raise ValidationError("dendriform axiom %s fails at %s"
                                  % (check.reason, (check.indices,)))
    return algebra


def parse_matrix(doc, field: str = None, where: str = "matrix") -> Matrix:
    """Parse ``{"matrix": [[...]]}`` or a bare row-major string array."""
    rows = doc.get("matrix") if isinstance(doc, dict) else doc
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError("%s: array of rows expected" % where)
    if field is None:
        field = doc.get("field", RATIONAL) if isinstance(doc, dict) else RATIONAL
    parsed = [[_scalar(entry, field, "%s[%d][%d]" % (where, i, j))
               for j, entry in enumerate(row)]
              for i, row in enumerate(rows)]
    if not parsed:
        return Matrix.zero(0, 0)
    width = len(parsed[0])
    if any(len(row) != width for row in parsed):
        raise ParseError("%s: ragged rows" % where)
    return Matrix.from_rows(parsed)


def parse_subspace(doc: dict, field: str = None,
                   where: str = "subspace") -> Subspace:
    """Parse ``{"vectors": [[...]]}``, in ``field`` when one is given."""
    vectors = _require(doc, "vectors", where)
    if not (isinstance(vectors, list)
            and all(isinstance(v, list) and len(v) == len(vectors[0])
                    for v in vectors)):
        raise ParseError("%s: array of equal-length vectors expected" % where)
    field = field or _field_of(doc, where)
    parsed = [[_scalar(entry, field, "%s[%d][%d]" % (where, i, j))
               for j, entry in enumerate(vec)]
              for i, vec in enumerate(vectors)]
    return Subspace.from_vectors(parsed)


def parse_representation(doc: dict, validate: bool = None) -> Representation:
    algebra_doc = _require(doc, "algebra", "representation")
    if isinstance(algebra_doc, str):
        algebra_doc = load_json(algebra_doc)
    algebra = parse_algebra(algebra_doc, validate)
    m = _size(doc, "repDim", "representation")
    lefts = _matrix_list(_require(doc, "left", "representation"),
                         algebra, m, "representation.left")
    rights = _matrix_list(_require(doc, "right", "representation"),
                          algebra, m, "representation.right")
    rep = Representation.build(algebra, lefts, rights, m)
    if _should_validate(doc, validate):
        check = verify_representation(rep)
        if not check.ok:
            raise ValidationError("representation axiom %s fails at %s"
                                  % (check.reason, (check.indices,)))
    return rep


def _matrix_list(docs, algebra: LeibnizAlgebra, m: int, where: str):
    if not isinstance(docs, list) or len(docs) != algebra.dim:
        raise ParseError("%s: need one matrix per basis index" % where)
    out = []
    for pos, rows in enumerate(docs):
        M = parse_matrix(rows, algebra.field, "%s[%d]" % (where, pos))
        if (M.rows, M.cols) != (m, m):
            raise ParseError("%s[%d]: matrix must be %dx%d" % (where, pos, m, m))
        out.append(M)
    return out


def _should_validate(doc: dict, override) -> bool:
    if override is not None:
        return override
    return bool(doc.get("validate", True))


def parse_document(doc: dict):
    """Dispatch on document shape: algebra, dendriform, representation,
    matrix (form/endo) or subspace."""
    if not isinstance(doc, dict):
        raise ParseError("document: JSON object expected")
    if "repDim" in doc:
        return parse_representation(doc)
    if "left" in doc and "right" in doc:
        return parse_dendriform(doc)
    if "brackets" in doc or ("dim" in doc and "matrix" not in doc):
        return parse_algebra(doc)
    if "matrix" in doc:
        return parse_matrix(doc)
    if "vectors" in doc:
        return parse_subspace(doc)
    raise ParseError("document: unrecognized shape")


# -- serialization ---------------------------------------------------------


def _bracket_entries(tensor: dict):
    """A sparse tensor as a bracket list, sorted by (i, j) and then k."""
    return [{"i": i, "j": j, "value": [{"k": k, "c": format_scalar(c)}
                                       for k, c in sorted(value.items())]}
            for (i, j), value in sorted(tensor.items())]


def serialize_algebra(A: LeibnizAlgebra) -> dict:
    doc = {"dim": A.dim, "field": A.field,
           "brackets": _bracket_entries(A.brackets)}
    if A.labels:
        doc["basis"] = list(A.labels)
    return doc


def serialize_dendriform(D: DendriformAlgebra) -> dict:
    return {"dim": D.dim, "field": D.field,
            "left": _bracket_entries(D.left_brackets),
            "right": _bracket_entries(D.right_brackets)}


def serialize_matrix(M: Matrix, field: str = None) -> dict:
    doc = {"matrix": [[format_scalar(e) for e in row] for row in M.entries]}
    if field is not None:
        doc["field"] = field
    return doc


def serialize_representation(R: Representation) -> dict:
    return {"algebra": serialize_algebra(R.algebra),
            "repDim": R.rep_dim,
            "left": [serialize_matrix(M)["matrix"] for M in R.left_maps],
            "right": [serialize_matrix(M)["matrix"] for M in R.right_maps]}
