"""JSON document parsing and serialization for all object kinds.

Documents are plain JSON.  Scalars travel as strings such as ``"-5/7"`` or
``"1/2+3*i"``.  An algebra document looks like::

    {"dim": 4, "field": "Q", "basis": ["e1", "e2", "e3", "e4"],
     "brackets": [{"i": 0, "j": 2, "value": [{"k": 3, "c": "2"}]}]}

Unlisted (i, j) pairs are zero.  Dendriform documents carry two such
bracket lists under ``"left"`` and ``"right"``.  Representation documents
embed (or reference by path) an algebra plus per-basis-index matrices.
Forms and endomorphisms are ``{"matrix": [[...]]}``; subspaces are
``{"vectors": [[...]]}`` (rows are basis vectors); they have no field of
their own and are read in the field their caller passes.

Every command loads this module, so ``parse_dendriform`` and
``parse_representation`` import their layer modules when called.
"""

from __future__ import annotations

import json
import sys

from .errors import ParseError, ValidationError
from .leibniz import LeibnizAlgebra, Subspace, verify_leibniz
from .linalg import Matrix
from .scalars import GAUSSIAN, RATIONAL, format_scalar, parse_scalar


def load_json(path: str):
    """Read a JSON document, as bytes decoded here in strict UTF-8 whatever
    the locale, from a path or, for ``-``, standard input."""
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as handle:
                data = handle.read()
        return json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError("%s: line %d column %d: %s"
                         % (path, exc.lineno, exc.colno, exc.msg)) from None
    except OSError as exc:
        raise ParseError("%s: %s" % (path, exc.strerror)) from None
    except ValueError as exc:   # not UTF-8, or an int past the digit limit
        raise ParseError("%s: %s" % (path, exc)) from None
    except RecursionError:
        raise ParseError("%s: JSON nested too deeply" % path) from None


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
        terms = []
        for term in value:
            k = _require(term, "k", spot)
            if not _natural(k, dim):
                raise ParseError("%s: k out of range" % spot)
            terms.append((k, _scalar(_require(term, "c", spot), field, spot)))
        # After the terms, so that a bad term is reported before a repeat.
        target = dict(terms)
        if len(target) != len(terms):
            raise ParseError("%s: repeated k" % spot)
        if (i, j) in brackets:
            raise ParseError("%s: repeated entry for (%d, %d)" % (spot, i, j))
        brackets[(i, j)] = target
    return brackets


def parse_algebra(doc: dict, validate: bool = True) -> LeibnizAlgebra:
    dim = _size(doc, "dim", "algebra")
    field = _field_of(doc, "algebra")
    labels = doc.get("basis")
    if labels is not None and not (isinstance(labels, list)
                                   and len(labels) == dim):
        raise ParseError("algebra: basis must be a list of %d labels" % dim)
    brackets = _bracket_map(doc.get("brackets", []), dim, field,
                            "algebra.brackets")
    algebra = LeibnizAlgebra.from_brackets(dim, brackets, field, labels)
    if validate:
        check = verify_leibniz(algebra)
        if not check.ok:
            raise ValidationError("algebra fails the Leibniz identity at %s"
                                  % (check.indices,))
    return algebra


def parse_dendriform(doc: dict, validate: bool = True) -> DendriformAlgebra:
    from .dendriform import DendriformAlgebra, verify_dendriform
    dim = _size(doc, "dim", "dendriform")
    field = _field_of(doc, "dendriform")
    left = _bracket_map(_require(doc, "left", "dendriform"), dim, field,
                        "dendriform.left")
    right = _bracket_map(_require(doc, "right", "dendriform"), dim, field,
                         "dendriform.right")
    algebra = DendriformAlgebra.from_brackets(dim, left, right, field)
    if validate:
        check = verify_dendriform(algebra)
        if not check.ok:
            raise ValidationError("dendriform axiom %s fails at %s"
                                  % (check.reason, check.indices))
    return algebra


def parse_matrix(doc, field: str, where: str = "matrix") -> Matrix:
    """Parse ``{"matrix": [[...]]}`` or a bare row-major string array in
    ``field``."""
    rows = doc.get("matrix") if isinstance(doc, dict) else doc
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError("%s: array of rows expected" % where)
    parsed = [[_scalar(entry, field, "%s[%d][%d]" % (where, i, j))
               for j, entry in enumerate(row)]
              for i, row in enumerate(rows)]
    if any(len(row) != len(parsed[0]) for row in parsed):
        raise ParseError("%s: ragged rows" % where)
    return Matrix.from_rows(parsed)


def parse_subspace(doc: dict, field: str,
                   where: str = "subspace") -> Subspace:
    """Parse ``{"vectors": [[...]]}`` in ``field``."""
    vectors = _require(doc, "vectors", where)
    if not (isinstance(vectors, list)
            and all(isinstance(v, list) and len(v) == len(vectors[0])
                    for v in vectors)):
        raise ParseError("%s: array of equal-length vectors expected" % where)
    parsed = [[_scalar(entry, field, "%s[%d][%d]" % (where, i, j))
               for j, entry in enumerate(vec)]
              for i, vec in enumerate(vectors)]
    return Subspace.from_vectors(parsed)


def parse_representation(doc: dict, validate: bool = True) -> Representation:
    from .representations import Representation, verify_representation
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
    if validate:
        check = verify_representation(rep)
        if not check.ok:
            raise ValidationError("representation axiom %s fails at %s"
                                  % (check.reason, check.indices))
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


def serialize_matrix(M: Matrix) -> dict:
    return {"matrix": [[format_scalar(e) for e in row] for row in M.entries]}


def serialize_representation(R: Representation) -> dict:
    return {"algebra": serialize_algebra(R.algebra),
            "repDim": R.rep_dim,
            "left": [serialize_matrix(M)["matrix"] for M in R.left_maps],
            "right": [serialize_matrix(M)["matrix"] for M in R.right_maps]}
