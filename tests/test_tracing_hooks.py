"""The benchmark's tracer still finds every library name it wraps.

``perfbench/spans.py`` wraps public functions, a few methods and the
``Scalar`` operators from outside the package, and its per-layer metrics
look spans up by name.  A rename in the library would silently empty a
metric, so the tracer is loaded here (from source, without importing or
writing anything under ``perfbench/``), installed, checked and removed.
"""

import pathlib
import types
from random import Random

from conftest import mat, random_dendriform
from leibniz_lab import (DendriformAlgebra, build_phase_space, kahler, linalg,
                         omega_to_J, structures, symplectic)
from leibniz_lab.linalg import Matrix
from leibniz_lab.scalars import Scalar

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# Span names that ``layer_metrics`` reads besides HOOKS, ELIMINATIONS and
# METHODS.
READ_BY_METRICS = {"linalg.is_singular", "structures.classify_product",
                   "structures.classify_complex", "cli.run_command",
                   "leibniz.verify_leibniz"}


def load_spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_install_spans_finds_every_wrapped_name():
    spans = load_spans()
    rank, apply = linalg.rank, vars(linalg.Matrix)["apply"]
    tracer = spans.Tracer()
    tracer.install_spans()
    try:
        wrapped_rank = linalg.rank
        names = set(tracer.names)
    finally:
        tracer.uninstall()
    methods = {"%s.%s.%s" % (layer, cls, meth)
               for layer, cls, meths in spans.METHODS for meth in meths}
    expected = (set(spans.HOOKS) | set(spans.ELIMINATIONS) | methods
                | READ_BY_METRICS)
    assert expected - names == set()
    assert {name.partition(".")[0] for name in names} == set(spans.LAYERS)
    assert wrapped_rank is not rank
    assert linalg.rank is rank and vars(linalg.Matrix)["apply"] is apply


def test_install_counting_counts_gaussian_operations():
    spans = load_spans()
    originals = {op: vars(Scalar)[op] for op in spans.SCALAR_OPS}
    tracer = spans.Tracer()
    tracer.install_counting()
    try:
        tracer.on = True
        i = Scalar.i()
        _ = [i + i, i - 1, i * i, i / 2, -i]
        tracer.on = False
    finally:
        tracer.uninstall()
    assert tracer.ops == len(spans.SCALAR_OPS)
    assert {op: vars(Scalar)[op] for op in spans.SCALAR_OPS} == originals


def test_enumeration_classifies_each_result_once(heisenberg_like):
    """One ``classify_product`` span under the enumeration per result, so
    ``enum_patterns`` counts the classified patterns and ``enum_hit_ratio``
    reads 1."""
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install_spans()
    try:
        tracer.on = True
        found = structures.enumerate_diagonal_products(heisenberg_like)
        tracer.on = False
    finally:
        tracer.uninstall()
    table = tracer.table()
    names = [table["names"][i] for i in table["name"]]
    children = [name for name, parent in zip(names, table["parent"])
                if parent >= 0
                and names[parent] == "structures.enumerate_diagonal_products"]
    assert children.count("structures.classify_product") == len(found) == 12
    metrics, _ = spans.layer_metrics([table], 1)
    assert metrics["structures.enum_patterns"] == 12
    assert metrics["structures.enum_hit_ratio"] == 1.0


def traced_names(check):
    """The span names recorded while ``check()`` runs."""
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install_spans()
    try:
        tracer.on = True
        result = check()
        tracer.on = False
    finally:
        tracer.uninstall()
    table = tracer.table()
    return result, {table["names"][i] for i in table["name"]}


def test_para_kahler_check_builds_no_product_report():
    """``check_para_kahler`` reads its verdicts from the integrability
    identity and the trace, so ``classify_calls`` counts no bridge check."""
    P = build_phase_space(random_dendriform(Random(1), 3))
    E = Matrix.diagonal([Scalar.one()] * 3 + [Scalar.of(-1)] * 3)
    check, names = traced_names(
        lambda: kahler.check_para_kahler(P.total, P.form, E))
    assert check.ok
    assert "structures.integrability" in names
    assert "structures.classify_product" not in names


def test_complex_product_pair_check_builds_no_product_report():
    """``check_complex_product_pair`` computes its verdicts directly."""
    P, J = omega_to_J(DendriformAlgebra(2, {}, {}), mat([[0, 1], [-1, 0]]))
    E = Matrix.diagonal([Scalar.one()] * 2 + [Scalar.of(-1)] * 2)
    check, names = traced_names(
        lambda: structures.check_complex_product_pair(P.total, J, E))
    assert check.ok
    assert "structures.integrability" in names
    assert "structures.classify_product" not in names


def test_public_verdicts_keep_their_spans_over_memoized_cores():
    """``install_spans`` wraps only functions whose ``__module__`` is their
    own module, so a decorated public name could lose its span without an
    error.  The memo sits on the private cores, and the public names stay
    plain functions that the tracer wraps."""
    P = build_phase_space(random_dendriform(Random(2), 2))
    E = Matrix.diagonal([Scalar.one()] * 2 + [Scalar.of(-1)] * 2)
    originals = symplectic.verify_symplectic, structures.integrability
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install_spans()
    try:
        wrapped = symplectic.verify_symplectic, structures.integrability
        tracer.on = True
        checks = (symplectic.verify_symplectic(P.total, P.form),
                  structures.integrability(P.total, E, 1))
        tracer.on = False
    finally:
        tracer.uninstall()
    table = tracer.table()
    names = {table["names"][i] for i in table["name"]}
    assert all(check.ok for check in checks)
    assert all(w is not o and w.__wrapped__ is o
               for w, o in zip(wrapped, originals))
    assert {"symplectic.verify_symplectic",
            "structures.integrability"} <= names
    assert (symplectic.verify_symplectic, structures.integrability) \
        == originals
