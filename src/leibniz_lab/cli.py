"""Command-line front end: JSON verdicts, exit 0/1/2.

Every command is one entry of ``COMMANDS``: ``(group, kind)`` maps to the
kinds of its path arguments and to the function that turns the parsed
documents into a check, or into a ``(check, payload)`` pair.  The argv
grammar (``GROUP KIND PATH...``, ``--seed N`` anywhere), the arity check,
the ``--help`` text and the parsing of each document (in path order, with
matrices read in the field of the first document) all derive from that
table.

Exit status 0 means the check passed (or the construction succeeded),
1 means a mathematical violation, 2 means an input or usage error (including
inputs whose sizes do not match, an algebra over a field the command does
not take, an algebra too large for the sign enumeration, and a number past
the interpreter's int-to-str digit limit, read or to be written).
"""

from __future__ import annotations

import json
import os
import sys
from importlib import import_module

from .errors import (DimensionMismatch, FieldMismatch, LeibnizLabError,
                     ParseError, TooLarge, ValidationError, WrongField)
from .io import (load_json, parse_algebra, parse_dendriform, parse_matrix,
                 parse_representation, parse_subspace, serialize_algebra,
                 serialize_matrix, serialize_representation)
from .leibniz import OK, CheckResult, verify_leibniz
from .scalars import format_scalar


def _witnesses(check) -> list:
    if check.ok or check.indices is None:
        return []
    return [{"indices": list(check.indices),
             "lhs": [format_scalar(c) for c in (check.lhs or [])],
             "rhs": [format_scalar(c) for c in (check.rhs or [])]}]


def _verdict(key, check, **extra) -> dict:
    """The verdict document; ``extra`` adds a payload or an error text."""
    doc = {"command": " ".join(key), "ok": check.ok,
           "reason": None if check.ok else check.reason,
           "witnesses": _witnesses(check)}
    doc.update((name, value) for name, value in extra.items()
               if value is not None)
    return doc


# The functions below and the lambdas of the tables call the library at
# call time, never through a stored function object: ``io``, ``leibniz``
# and ``scalars`` (which every command loads) through this module's
# globals, every other layer as an attribute of its module, which
# ``_layer`` imports on the command's first call.  So a process compiles
# only the layers its command runs, and a tracer that rebinds the names
# of every loaded namespace sees every call.


def _layer(name: str):
    """The library module ``name``, imported on first use."""
    return import_module("." + name, __package__)


# How a path argument of each kind is parsed.  ``field`` is the field of
# the first document, in which every matrix is read.  A "raw" document is
# not validated on load, so that its verify command reports the violation.
_PARSERS = {
    "algebra": lambda doc, field: parse_algebra(doc),
    "raw algebra": lambda doc, field: parse_algebra(doc, False),
    "dendriform": lambda doc, field: parse_dendriform(doc),
    "raw dendriform": lambda doc, field: parse_dendriform(doc, False),
    "representation": lambda doc, field: parse_representation(doc),
    "raw representation": lambda doc, field: parse_representation(doc, False),
    "matrix": lambda doc, field: parse_matrix(doc, field),
    "subspace": lambda doc, field: parse_subspace(doc, field),
}


def _integrable(ok: bool, payload: dict):
    return OK if ok else CheckResult(False, "INTEGRABILITY_FAILS"), payload


def _classify_product(A, E):
    report = _layer("structures").classify_product(A, E)
    return _integrable(report.is_product, {
        "isProduct": report.is_product, "isStrict": report.is_strict,
        "isAbelian": report.is_abelian,
        "isParacomplex": report.is_paracomplex,
        "plusDim": report.plus_eigenspace.dim,
        "minusDim": report.minus_eigenspace.dim})


def _classify_complex(A, J):
    report = _layer("structures").classify_complex(A, J)
    return _integrable(report.is_complex, {
        "isComplex": report.is_complex, "isStrict": report.is_strict,
        "isAbelian": report.is_abelian, "eigenIDim": report.eigen_i.dim,
        "eigenMinusIDim": report.eigen_minus_i.dim})


def _enumerate_products(A):
    found = _layer("structures").enumerate_diagonal_products(A)
    return OK, {"count": len(found),
                "diagonals": [[format_scalar(E[i, i]) for i in range(A.dim)]
                              for E, _ in found]}


def _solve_symplectic(A, seed):
    basis, sample = _layer("symplectic").solve_symplectic_space(A, seed=seed)
    return OK, {"dim": len(basis),
                "basis": [serialize_matrix(B)["matrix"] for B in basis],
                "sampleNondegenerate":
                    serialize_matrix(sample)["matrix"] if sample is not None
                    else None}


def _phase_space(D):
    symplectic = _layer("symplectic")
    P = symplectic.build_phase_space(D)
    return P, symplectic.verify_phase_space(P, P.base_subspace(),
                                            P.dual_subspace())


def _construct_phase_space(D):
    P, check = _phase_space(D)
    return check, {"algebra": serialize_algebra(P.total),
                   "form": serialize_matrix(P.form)["matrix"],
                   "baseDim": P.base_dim}


def _levi_civita(A, S):
    pair = _layer("kahler").levi_civita(A, S)

    def tensor_doc(product):
        return [[[format_scalar(c) for c in product(i, j)]
                 for j in range(A.dim)] for i in range(A.dim)]
    return OK, {"star": tensor_doc(pair.star_product),
                "starstar": tensor_doc(pair.starstar_product)}


def _bridge(algebra, form, operator, name):
    return OK, {"algebra": serialize_algebra(algebra),
                "form": serialize_matrix(form)["matrix"],
                name: serialize_matrix(operator)["matrix"]}


_FORM = ("algebra", "matrix")
_TRIPLE = ("algebra", "matrix", "matrix")

# (group, kind) -> (kinds of the path arguments, the function that computes
# the check, or the check and its payload, from the parsed documents).  The
# function of ``solve`` also takes the ``--seed``.
COMMANDS = {
    ("verify", "leibniz"): (("raw algebra",), lambda A: verify_leibniz(A)),
    ("verify", "rep"): (("raw representation",), lambda R:
                        _layer("representations").verify_representation(R)),
    ("verify", "dendriform"): (("raw dendriform",), lambda D:
                               _layer("dendriform").verify_dendriform(D)),
    ("verify", "symplectic"): (_FORM, lambda A, B:
                               _layer("symplectic").verify_symplectic(A, B)),
    ("verify", "invariant"): (("dendriform", "matrix"), lambda D, w: _layer(
        "dendriform").verify_invariant_form(D, w)),
    ("verify", "quadratic"): (("dendriform", "matrix"), lambda D, B: _layer(
        "dendriform").verify_quadratic_dendriform(D, B)),
    ("verify", "rota-baxter"): (("representation", "matrix"), lambda R, T:
                                _layer("representations").verify_rota_baxter(
                                    R, T)),
    ("classify", "product"): (_FORM, _classify_product),
    ("classify", "complex"): (_FORM, _classify_complex),
    ("enumerate", "products"): (("algebra",), _enumerate_products),
    ("solve", "symplectic"): (("algebra",), _solve_symplectic),
    ("construct", "phase-space"): (("dendriform",), _construct_phase_space),
    ("construct", "subadjacent"): (("dendriform",), lambda D: (
        OK, serialize_algebra(_layer("dendriform").subadjacent(D)))),
    ("construct", "semidirect"): (("representation",), lambda R: (
        OK, serialize_algebra(
            _layer("representations").semidirect_product(R)))),
    ("construct", "dual-rep"): (("representation",), lambda R: (
        OK, serialize_representation(_layer("representations").dual_rep(R)))),
    ("construct", "levi-civita"): (_FORM, _levi_civita),
    ("construct", "complexify"): (_TRIPLE, lambda A, B, J: _bridge(
        *_layer("kahler").complexify_pseudo_kahler(A, B, J), "product")),
    ("construct", "realify"): (_TRIPLE, lambda A, B, E: _bridge(
        *_layer("kahler").realify(A, B, E), "complex")),
    ("construct", "bowtie"): (("representation", "matrix"), lambda R, T: (
        OK, serialize_algebra(
            _layer("representations").bowtie_algebra(R, T)))),
    ("check", "para-kahler"): (_TRIPLE, lambda A, B, E:
                               _layer("kahler").check_para_kahler(A, B, E)),
    ("check", "pseudo-kahler"): (_TRIPLE, lambda A, B, J: _layer(
        "kahler").check_pseudo_kahler(A, B, J)),
    ("check", "complex-product"): (_TRIPLE, lambda A, J, E: _layer(
        "structures").check_complex_product_pair(A, J, E)),
    ("check", "manin-triple"): (("dendriform", "matrix", "subspace",
                                 "subspace"), lambda D, B, W1, W2: _layer(
                                     "symplectic").verify_manin_triple(
                                         D, B, W1, W2)),
    ("check", "phase-space"): (("dendriform",),
                               lambda D: _phase_space(D)[1]),
}


def _usage() -> str:
    rows = ["  %-22s %s" % (" ".join(key), ", ".join(
        kind.split()[-1] for kind in kinds)) for key, (kinds, _)
        in COMMANDS.items()]
    return ("usage: leibniz-lab GROUP KIND PATH... [--seed N]\n\n"
            "A PATH is a JSON document, or - for stdin.  --seed N (an\n"
            "integer, anywhere in argv; default 0) seeds the sampling of\n"
            "solve.  Exit 0: ok, 1: mathematical violation, 2: malformed\n"
            "input or misuse.\n\ncommands:\n" + "\n".join(rows) + "\n")


def _parse_paths(kinds, paths) -> list:
    docs = []
    for kind, path in zip(kinds, paths):
        # The first document is an algebra, a dendriform algebra or a
        # representation, whose algebra carries the field.
        field = getattr(docs[0], "algebra", docs[0]).field if docs else None
        docs.append(_PARSERS[kind](load_json(path), field))
    return docs


def _misuse(words, error):
    """The USAGE verdict, named by the first two non-option words read."""
    return _verdict(words[:2], CheckResult(False, "USAGE"), error=error), 2


def run_command(argv):
    """Read argv, run the command, return (verdict-dict, exit-status); for
    ``-h`` or ``--help``, the usage text and 0."""
    words, seed, args = [], 0, iter(argv)
    for word in args:
        if word in ("-h", "--help"):
            return _usage(), 0
        if word == "--seed":    # reads as --seed=N; a trailing one as --seed=
            word += "=" + next(args, "")
        if word.startswith("--seed="):
            try:
                seed = int(word[7:])
            except ValueError:
                return _misuse(words, "--seed expects an integer, got %r"
                               % word[7:])
        elif word.startswith("-") and word != "-":
            return _misuse(words, "unknown option %r" % word)
        else:
            words.append(word)
    if len(words) < 2:
        return _misuse(words, "expected a command group and kind")
    key, paths = tuple(words[:2]), words[2:]
    if key not in COMMANDS:
        return _misuse(key, None)
    kinds, compute = COMMANDS[key]
    if len(paths) != len(kinds):
        return _misuse(key, "expected %d path argument(s)" % len(kinds))
    try:
        docs = _parse_paths(kinds, paths)
        if key[0] == "solve":
            docs.append(seed)
        out = compute(*docs)
        check, payload = out if isinstance(out, tuple) else (out, None)
        # Built here, so that a scalar past the digit limit is TooLarge.
        return _verdict(key, check, payload=payload), 0 if check.ok else 1
    except LeibnizLabError as exc:
        bad_input = isinstance(exc, (ParseError, ValidationError,
                                     DimensionMismatch, WrongField,
                                     FieldMismatch, TooLarge))
        return (_verdict(key, CheckResult(False, type(exc).__name__),
                         error=str(exc)), 2 if bad_input else 1)


def main(argv=None) -> int:
    out, status = run_command(sys.argv[1:] if argv is None else argv)
    try:
        sys.stdout.write(out if isinstance(out, str)
                         else json.dumps(out, indent=2) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (``| head``).  Point stdout at devnull so
        # that the flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
