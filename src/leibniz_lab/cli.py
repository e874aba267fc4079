"""Command-line front end: JSON verdicts, exit 0/1/2.

Every command is one entry of ``COMMANDS``: ``(group, kind)`` maps to the
kinds of its path arguments and to the function that turns the parsed
documents into a check, or into a ``(check, payload)`` pair.  The arity
check, the argparse groups and the parsing of each document (in path
order, with matrices read in the field of the first document) all derive
from that table.

Exit status 0 means the check passed (or the construction succeeded),
1 means a mathematical violation, 2 means an input or usage error (including
inputs whose sizes do not match, an algebra over a field the command does
not take, and an algebra too large for the sign enumeration).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .dendriform import (subadjacent, verify_dendriform,
                         verify_invariant_form, verify_quadratic_dendriform,
                         verify_rota_baxter)
from .errors import (DimensionMismatch, FieldMismatch, LeibnizLabError,
                     ParseError, TooLarge, ValidationError, WrongField)
from .io import (load_json, parse_algebra, parse_dendriform, parse_matrix,
                 parse_representation, parse_subspace, serialize_algebra,
                 serialize_matrix, serialize_representation)
from .kahler import (check_para_kahler, check_pseudo_kahler,
                     complexify_pseudo_kahler, levi_civita, realify)
from .leibniz import OK, CheckResult, verify_leibniz
from .representations import (bowtie_algebra, dual_rep, semidirect_product,
                              verify_representation)
from .scalars import format_scalar
from .structures import (check_complex_product_pair, classify_complex,
                         classify_product, enumerate_diagonal_products)
from .symplectic import (build_phase_space, solve_symplectic_space,
                         verify_manin_triple, verify_phase_space,
                         verify_symplectic)


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


# The functions below and the lambdas of the tables call the library
# through this module's globals at call time, never through a stored
# function object, so a tracer that rebinds those globals sees every call.

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
    report = classify_product(A, E)
    return _integrable(report.is_product, {
        "isProduct": report.is_product, "isStrict": report.is_strict,
        "isAbelian": report.is_abelian,
        "isParacomplex": report.is_paracomplex,
        "plusDim": report.plus_eigenspace.dim,
        "minusDim": report.minus_eigenspace.dim})


def _classify_complex(A, J):
    report = classify_complex(A, J)
    return _integrable(report.is_complex, {
        "isComplex": report.is_complex, "isStrict": report.is_strict,
        "isAbelian": report.is_abelian, "eigenIDim": report.eigen_i.dim,
        "eigenMinusIDim": report.eigen_minus_i.dim})


def _enumerate_products(A):
    found = enumerate_diagonal_products(A)
    return OK, {"count": len(found),
                "diagonals": [[format_scalar(E[i, i]) for i in range(A.dim)]
                              for E, _ in found]}


def _solve_symplectic(A, seed):
    basis, sample = solve_symplectic_space(A, seed=seed)
    return OK, {"dim": len(basis),
                "basis": [serialize_matrix(B)["matrix"] for B in basis],
                "sampleNondegenerate":
                    serialize_matrix(sample)["matrix"] if sample else None}


def _phase_space(D):
    P = build_phase_space(D)
    return P, verify_phase_space(P, P.base_subspace(), P.dual_subspace())


def _construct_phase_space(D):
    P, check = _phase_space(D)
    return check, {"algebra": serialize_algebra(P.total),
                   "form": serialize_matrix(P.form)["matrix"],
                   "baseDim": P.base_dim}


def _levi_civita(A, S):
    pair = levi_civita(A, S)

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
    ("verify", "rep"): (("raw representation",),
                        lambda R: verify_representation(R)),
    ("verify", "dendriform"): (("raw dendriform",),
                               lambda D: verify_dendriform(D)),
    ("verify", "symplectic"): (_FORM, lambda A, B: verify_symplectic(A, B)),
    ("verify", "invariant"): (("dendriform", "matrix"),
                              lambda D, w: verify_invariant_form(D, w)),
    ("verify", "quadratic"): (("dendriform", "matrix"),
                              lambda D, B: verify_quadratic_dendriform(D, B)),
    ("verify", "rota-baxter"): (("representation", "matrix"), lambda R, T:
                                verify_rota_baxter(R.algebra, R, T)),
    ("classify", "product"): (_FORM, _classify_product),
    ("classify", "complex"): (_FORM, _classify_complex),
    ("enumerate", "products"): (("algebra",), _enumerate_products),
    ("solve", "symplectic"): (("algebra",), _solve_symplectic),
    ("construct", "phase-space"): (("dendriform",), _construct_phase_space),
    ("construct", "subadjacent"): (("dendriform",), lambda D: (
        OK, serialize_algebra(subadjacent(D)))),
    ("construct", "semidirect"): (("representation",), lambda R: (
        OK, serialize_algebra(semidirect_product(R)))),
    ("construct", "dual-rep"): (("representation",), lambda R: (
        OK, serialize_representation(dual_rep(R)))),
    ("construct", "levi-civita"): (_FORM, _levi_civita),
    ("construct", "complexify"): (_TRIPLE, lambda A, B, J: _bridge(
        *complexify_pseudo_kahler(A, B, J), "product")),
    ("construct", "realify"): (_TRIPLE, lambda A, B, E: _bridge(
        *realify(A, B, E), "complex")),
    ("construct", "bowtie"): (("representation", "matrix"), lambda R, T: (
        OK, serialize_algebra(bowtie_algebra(R.algebra, R, T)))),
    ("check", "para-kahler"): (_TRIPLE,
                               lambda A, B, E: check_para_kahler(A, B, E)),
    ("check", "pseudo-kahler"): (_TRIPLE,
                                 lambda A, B, J: check_pseudo_kahler(A, B, J)),
    ("check", "complex-product"): (_TRIPLE, lambda A, J, E:
                                   check_complex_product_pair(A, J, E)),
    ("check", "manin-triple"): (("dendriform", "matrix", "subspace",
                                 "subspace"), lambda D, B, W1, W2:
                                verify_manin_triple(D, B, W1, W2)),
    ("check", "phase-space"): (("dendriform",),
                               lambda D: _phase_space(D)[1]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leibniz-lab",
        description="Exact verification and construction for Leibniz "
                    "algebras with symplectic, product and complex "
                    "structures.")
    sub = parser.add_subparsers(dest="group", required=True)
    for group in dict.fromkeys(group for group, _ in COMMANDS):
        g = sub.add_parser(group)
        g.add_argument("kind")
        g.add_argument("paths", nargs="*")
        g.add_argument("--seed", type=int, default=0)
    return parser


def _parse_paths(kinds, paths) -> list:
    docs = []
    for kind, path in zip(kinds, paths):
        # The first document is an algebra, a dendriform algebra or a
        # representation, whose algebra carries the field.
        field = getattr(docs[0], "algebra", docs[0]).field if docs else None
        docs.append(_PARSERS[kind](load_json(path), field))
    return docs


def run_command(argv):
    """Parse argv, run the command, return (verdict-dict, exit-status)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return None, (2 if exc.code else 0)
    key = (args.group, args.kind)
    if key not in COMMANDS:
        return _verdict(key, CheckResult(False, "USAGE")), 2
    kinds, compute = COMMANDS[key]
    if len(args.paths) != len(kinds):
        return _verdict(key, CheckResult(False, "USAGE"),
                        error="expected %d path argument(s)" % len(kinds)), 2
    try:
        docs = _parse_paths(kinds, args.paths)
        if args.group == "solve":
            docs.append(args.seed)
        out = compute(*docs)
    except LeibnizLabError as exc:
        bad_input = isinstance(exc, (ParseError, ValidationError,
                                     DimensionMismatch, WrongField,
                                     FieldMismatch, TooLarge))
        return (_verdict(key, CheckResult(False, type(exc).__name__),
                         error=str(exc)), 2 if bad_input else 1)
    check, payload = out if isinstance(out, tuple) else (out, None)
    return _verdict(key, check, payload=payload), 0 if check.ok else 1


def main(argv=None) -> int:
    verdict, status = run_command(sys.argv[1:] if argv is None else argv)
    if verdict is not None:
        try:
            json.dump(verdict, sys.stdout, indent=2)
            sys.stdout.write("\n")
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader has gone (``| head``).  Point stdout at devnull so
            # that the flush at interpreter exit cannot fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
