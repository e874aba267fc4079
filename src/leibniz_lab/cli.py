"""Command-line front end: JSON verdicts, exit 0/1/2.

Exit status 0 means the check passed (or the construction succeeded),
1 means a mathematical violation, 2 means an input or usage error (including
inputs whose sizes do not match).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .dendriform import (subadjacent, verify_dendriform,
                         verify_invariant_form, verify_quadratic_dendriform,
                         verify_rota_baxter)
from .errors import (DimensionMismatch, LeibnizLabError, ParseError,
                     UsageError, ValidationError)
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


def _verdict(command: str, check, payload=None) -> dict:
    doc = {"command": command, "ok": bool(check),
           "reason": None if check.ok else check.reason,
           "witnesses": _witnesses(check)}
    if payload is not None:
        doc["payload"] = payload
    return doc


def _algebra(path, validate=None):
    return parse_algebra(load_json(path), validate)


def _dendriform(path, validate=None):
    return parse_dendriform(load_json(path), validate)


def _matrix(path, field=None):
    return parse_matrix(load_json(path), field)


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("LEIBNIZ_LAB_SEED", "0"))


# -- command handlers -------------------------------------------------------


def cmd_verify(args):
    kind = args.kind
    if kind == "leibniz":
        return _verdict("verify leibniz",
                        verify_leibniz(_algebra(args.paths[0], False)))
    if kind == "rep":
        rep = parse_representation(load_json(args.paths[0]), validate=False)
        return _verdict("verify rep", verify_representation(rep))
    if kind == "dendriform":
        return _verdict("verify dendriform",
                        verify_dendriform(_dendriform(args.paths[0], False)))
    if kind == "symplectic":
        A = _algebra(args.paths[0])
        B = _matrix(args.paths[1], A.field)
        return _verdict("verify symplectic", verify_symplectic(A, B))
    if kind == "invariant":
        D = _dendriform(args.paths[0])
        omega = _matrix(args.paths[1], D.field)
        return _verdict("verify invariant", verify_invariant_form(D, omega))
    if kind == "quadratic":
        D = _dendriform(args.paths[0])
        B = _matrix(args.paths[1], D.field)
        return _verdict("verify quadratic", verify_quadratic_dendriform(D, B))
    if kind == "rota-baxter":
        rep = parse_representation(load_json(args.paths[0]))
        T = _matrix(args.paths[1], rep.algebra.field)
        return _verdict("verify rota-baxter",
                        verify_rota_baxter(rep.algebra, rep, T))
    raise UsageError("unknown verify target %r" % kind)


def cmd_classify(args):
    A = _algebra(args.paths[0])
    M = _matrix(args.paths[1], A.field)
    if args.kind == "product":
        report = classify_product(A, M)
        payload = {"isProduct": report.is_product,
                   "isStrict": report.is_strict,
                   "isAbelian": report.is_abelian,
                   "isParacomplex": report.is_paracomplex,
                   "plusDim": report.plus_eigenspace.dim,
                   "minusDim": report.minus_eigenspace.dim}
        ok = report.is_product
    elif args.kind == "complex":
        report = classify_complex(A, M)
        payload = {"isComplex": report.is_complex,
                   "isStrict": report.is_strict,
                   "isAbelian": report.is_abelian,
                   "eigenIDim": report.eigen_i.dim,
                   "eigenMinusIDim": report.eigen_minus_i.dim}
        ok = report.is_complex
    else:
        raise UsageError("unknown classify target %r" % args.kind)
    return _verdict("classify %s" % args.kind,
                    OK if ok else CheckResult(False, "INTEGRABILITY_FAILS"),
                    payload)


def cmd_enumerate(args):
    if args.kind != "products":
        raise UsageError("unknown enumerate target %r" % args.kind)
    A = _algebra(args.paths[0])
    found = enumerate_diagonal_products(A)
    payload = {"count": len(found),
               "diagonals": [[format_scalar(E[i, i]) for i in range(A.dim)]
                             for E, _ in found]}
    return _verdict("enumerate products", OK, payload)


def cmd_solve(args):
    if args.kind != "symplectic":
        raise UsageError("unknown solve target %r" % args.kind)
    A = _algebra(args.paths[0])
    basis, sample = solve_symplectic_space(A, seed=_seed(args))
    payload = {"dim": len(basis),
               "basis": [serialize_matrix(B)["matrix"] for B in basis],
               "sampleNondegenerate":
                   serialize_matrix(sample)["matrix"] if sample else None}
    return _verdict("solve symplectic", OK, payload)


def cmd_construct(args):
    kind = args.kind
    if kind == "phase-space":
        D = _dendriform(args.paths[0])
        P = build_phase_space(D)
        check = verify_phase_space(P, P.base_subspace(), P.dual_subspace())
        payload = {"algebra": serialize_algebra(P.total),
                   "form": serialize_matrix(P.form)["matrix"],
                   "baseDim": P.base_dim}
        return _verdict("construct phase-space", check, payload)
    if kind == "subadjacent":
        D = _dendriform(args.paths[0])
        return _verdict("construct subadjacent", OK,
                        serialize_algebra(subadjacent(D)))
    if kind == "semidirect":
        rep = parse_representation(load_json(args.paths[0]))
        return _verdict("construct semidirect", OK,
                        serialize_algebra(semidirect_product(rep)))
    if kind == "dual-rep":
        rep = parse_representation(load_json(args.paths[0]))
        return _verdict("construct dual-rep", OK,
                        serialize_representation(dual_rep(rep)))
    if kind == "levi-civita":
        A = _algebra(args.paths[0])
        S = _matrix(args.paths[1], A.field)
        pair = levi_civita(A, S)
        def tensor_doc(t):
            return [[[format_scalar(c) for c in t[i][j]]
                     for j in range(A.dim)] for i in range(A.dim)]
        return _verdict("construct levi-civita", OK,
                        {"star": tensor_doc(pair.star),
                         "starstar": tensor_doc(pair.starstar)})
    if kind == "complexify":
        A = _algebra(args.paths[0])
        B = _matrix(args.paths[1], A.field)
        J = _matrix(args.paths[2], A.field)
        algebra, b_c, E = complexify_pseudo_kahler(A, B, J)
        return _verdict("construct complexify", OK,
                        {"algebra": serialize_algebra(algebra),
                         "form": serialize_matrix(b_c)["matrix"],
                         "product": serialize_matrix(E)["matrix"]})
    if kind == "realify":
        A = _algebra(args.paths[0])
        B = _matrix(args.paths[1], A.field)
        E = _matrix(args.paths[2], A.field)
        algebra, b_r, J = realify(A, B, E)
        return _verdict("construct realify", OK,
                        {"algebra": serialize_algebra(algebra),
                         "form": serialize_matrix(b_r)["matrix"],
                         "complex": serialize_matrix(J)["matrix"]})
    if kind == "bowtie":
        rep = parse_representation(load_json(args.paths[0]))
        T = _matrix(args.paths[1], rep.algebra.field)
        return _verdict("construct bowtie", OK,
                        serialize_algebra(bowtie_algebra(rep.algebra, rep, T)))
    raise UsageError("unknown construct target %r" % kind)


def cmd_check(args):
    kind = args.kind
    if kind == "para-kahler":
        A = _algebra(args.paths[0])
        B = _matrix(args.paths[1], A.field)
        E = _matrix(args.paths[2], A.field)
        return _verdict("check para-kahler", check_para_kahler(A, B, E))
    if kind == "pseudo-kahler":
        A = _algebra(args.paths[0])
        B = _matrix(args.paths[1], A.field)
        J = _matrix(args.paths[2], A.field)
        return _verdict("check pseudo-kahler", check_pseudo_kahler(A, B, J))
    if kind == "complex-product":
        A = _algebra(args.paths[0])
        J = _matrix(args.paths[1], A.field)
        E = _matrix(args.paths[2], A.field)
        return _verdict("check complex-product",
                        check_complex_product_pair(A, J, E))
    if kind == "manin-triple":
        D = _dendriform(args.paths[0])
        B = _matrix(args.paths[1], D.field)
        W1 = parse_subspace(load_json(args.paths[2]))
        W2 = parse_subspace(load_json(args.paths[3]))
        return _verdict("check manin-triple",
                        verify_manin_triple(D, B, W1, W2))
    if kind == "phase-space":
        D = _dendriform(args.paths[0])
        P = build_phase_space(D)
        return _verdict("check phase-space",
                        verify_phase_space(P, P.base_subspace(),
                                           P.dual_subspace()))
    raise UsageError("unknown check target %r" % kind)


_HANDLERS = {"verify": cmd_verify, "classify": cmd_classify,
             "enumerate": cmd_enumerate, "solve": cmd_solve,
             "construct": cmd_construct, "check": cmd_check}

_ARITIES = {
    ("verify", "leibniz"): 1, ("verify", "rep"): 1,
    ("verify", "dendriform"): 1, ("verify", "symplectic"): 2,
    ("verify", "invariant"): 2, ("verify", "quadratic"): 2,
    ("verify", "rota-baxter"): 2,
    ("classify", "product"): 2, ("classify", "complex"): 2,
    ("enumerate", "products"): 1,
    ("solve", "symplectic"): 1,
    ("construct", "phase-space"): 1, ("construct", "subadjacent"): 1,
    ("construct", "semidirect"): 1, ("construct", "dual-rep"): 1,
    ("construct", "levi-civita"): 2, ("construct", "complexify"): 3,
    ("construct", "realify"): 3, ("construct", "bowtie"): 2,
    ("check", "para-kahler"): 3, ("check", "pseudo-kahler"): 3,
    ("check", "complex-product"): 3, ("check", "manin-triple"): 4,
    ("check", "phase-space"): 1,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leibniz-lab",
        description="Exact verification and construction for Leibniz "
                    "algebras with symplectic, product and complex "
                    "structures.")
    sub = parser.add_subparsers(dest="group", required=True)
    for group in _HANDLERS:
        g = sub.add_parser(group)
        g.add_argument("kind")
        g.add_argument("paths", nargs="*")
        g.add_argument("--seed", type=int, default=None)
    return parser


def _failure(key, reason: str, error: str = None) -> dict:
    doc = {"command": " ".join(key), "ok": False, "reason": reason,
           "witnesses": []}
    if error is not None:
        doc["error"] = error
    return doc


def run_command(argv):
    """Parse argv, run the command, return (verdict-dict, exit-status)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return None, (2 if exc.code else 0)
    key = (args.group, args.kind)
    if key not in _ARITIES:
        return _failure(key, "USAGE"), 2
    if len(args.paths) != _ARITIES[key]:
        return _failure(key, "USAGE", "expected %d path argument(s)"
                        % _ARITIES[key]), 2
    try:
        verdict = _HANDLERS[args.group](args)
    except LeibnizLabError as exc:
        bad_input = isinstance(exc, (ParseError, ValidationError, UsageError,
                                     DimensionMismatch))
        return _failure(key, type(exc).__name__, str(exc)), 2 if bad_input else 1
    return verdict, 0 if verdict["ok"] else 1


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
