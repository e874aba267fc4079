"""The value classes are immutable records: construction, equality, hash,
repr, copy and pickle behave as for frozen dataclasses with the same
fields, also in a subclass that adds no slots."""

import copy
import pickle
from fractions import Fraction

import pytest

from leibniz_lab import (CheckResult, DendriformAlgebra, LeibnizAlgebra,
                         LeviCivitaPair, Matrix, PhaseSpace, Representation,
                         Subspace)
from leibniz_lab.leibniz import OK
from leibniz_lab.structures import ComplexReport, StructureReport

ONE = Fraction(1)
EMPTY = Subspace(Matrix.zero(0, 0))
LINE = Subspace(Matrix(1, ({0: ONE}, {})))
ABELIAN = LeibnizAlgebra(2, {})

# (class, field names in order, field values, the same values with one
# field changed)
CASES = [
    (Matrix, ("cols", "nonzero"),
     (2, ({0: ONE}, {1: ONE})), (2, ({0: ONE}, {}))),
    (CheckResult, ("ok", "reason", "indices", "lhs", "rhs"),
     (False, "X_FAILS", (0, 1), [ONE], [ONE, ONE]),
     (False, "X_FAILS", (1, 0), [ONE], [ONE, ONE])),
    (Subspace, ("columns",), (LINE.columns,), (Matrix(1, ({}, {0: ONE})),)),
    (LeibnizAlgebra, ("dim", "brackets", "field", "labels"),
     (2, {(0, 0): {1: ONE}}, "Q", ("a", "b")),
     (2, {(0, 0): {1: ONE}}, "Q(i)", ("a", "b"))),
    (DendriformAlgebra, ("dim", "left_brackets", "right_brackets", "field"),
     (1, {(0, 0): {0: ONE}}, {}, "Q"), (1, {}, {(0, 0): {0: ONE}}, "Q")),
    (Representation, ("algebra", "rep_dim", "left", "right"),
     (ABELIAN, 1, {}, {}), (ABELIAN, 2, {}, {})),
    (LeviCivitaPair, ("dim", "star", "starstar"),
     (1, {(0, 0): {0: ONE}}, {}), (1, {}, {})),
    (StructureReport, ("is_product", "is_strict", "is_abelian",
                       "plus_eigenspace", "minus_eigenspace"),
     (True, False, False, LINE, EMPTY), (True, False, False, EMPTY, LINE)),
    (ComplexReport, ("is_complex", "is_strict", "is_abelian", "eigen_i",
                     "eigen_minus_i"),
     (True, False, True, LINE, EMPTY), (True, True, True, LINE, EMPTY)),
    (PhaseSpace, ("total", "form"),
     (ABELIAN, Matrix.identity(2)), (ABELIAN, Matrix.zero(2, 2))),
]
IDS = [case[0].__name__ for case in CASES]


def _subclass(cls):
    """``Sub<cls>(cls)`` with ``__slots__ = ()``, a module global so that
    pickle finds it."""
    name = "Sub" + cls.__name__
    sub = globals()[name] = type(name, (cls,), {"__slots__": (),
                                                "__module__": __name__})
    return sub


SUBCLASSES = {case[0]: _subclass(case[0]) for case in CASES}


@pytest.mark.parametrize("cls, fields, values, changed", CASES, ids=IDS)
def test_fields_in_order_by_position_or_keyword(cls, fields, values, changed):
    record = cls(*values)
    assert tuple(getattr(record, f) for f in fields) == values
    assert cls(**dict(zip(fields, values))) == record
    assert not hasattr(record, "__dict__")


def test_defaults():
    assert CheckResult(True) == CheckResult(True, None, None, None, None)
    assert CheckResult(True).reason is None and CheckResult(True).rhs is None
    assert LeibnizAlgebra(2, {}).field == "Q"
    assert LeibnizAlgebra(2, {}).labels is None
    assert DendriformAlgebra(1, {}, {}).field == "Q"
    assert LeibnizAlgebra(2, {}, labels=("a", "b")) == LeibnizAlgebra(
        2, {}, "Q", ("a", "b"))
    assert CheckResult(False, rhs=[ONE]) == CheckResult(
        False, None, None, None, [ONE])
    assert DendriformAlgebra(1, {}, {}, field="Q(i)").field == "Q(i)"


@pytest.mark.parametrize("cls, fields, values, changed", CASES, ids=IDS)
def test_binding_refuses_what_a_signature_would(cls, fields, values,
                                                changed):
    """An extra positional argument, an unknown keyword, a field given by
    position and by keyword, and a missing required field."""
    with pytest.raises(TypeError, match="takes"):
        cls(*values, None)
    with pytest.raises(TypeError, match="extra"):
        cls(*values, extra=None)
    with pytest.raises(TypeError, match=fields[0]):
        cls(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError, match=fields[0]):
        cls(**dict(zip(fields[1:], values[1:])))


@pytest.mark.parametrize("cls, fields, values, changed", CASES, ids=IDS)
def test_equal_exactly_for_the_same_class_and_equal_fields(cls, fields,
                                                           values, changed):
    record = cls(*values)
    assert record == cls(*copy.deepcopy(values))
    assert not record != cls(*copy.deepcopy(values))
    assert record != cls(*changed)
    assert record != values and values != record

    class Sub(cls):
        __slots__ = ()

    assert record != Sub(*values) and Sub(*values) != record


@pytest.mark.parametrize("cls, fields, values, changed", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, values, changed):
    record = cls(*values)
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, f) for f in fields) == values


@pytest.mark.parametrize("cls, fields, values, changed", CASES, ids=IDS)
def test_hash_is_the_hash_of_the_fields(cls, fields, values, changed):
    record = cls(*values)
    try:
        expected = hash(values)
    except TypeError:   # a field holds a dict or a list
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


def test_hash_of_ok_and_of_a_matrix():
    assert hash(OK) == hash((True, None, None, None, None))
    assert {OK: 1}[CheckResult(True)] == 1
    assert hash(CheckResult(False, "X_FAILS", (0, 1))) == hash(
        (False, "X_FAILS", (0, 1), None, None))
    with pytest.raises(TypeError):
        hash(Matrix.zero(1, 1))


@pytest.mark.parametrize("cls, fields, values, changed", CASES, ids=IDS)
def test_repr_names_every_field(cls, fields, values, changed):
    assert repr(cls(*values)) == "%s(%s)" % (cls.__name__, ", ".join(
        "%s=%r" % pair for pair in zip(fields, values)))


def test_repr_format():
    assert repr(CheckResult(False, "X_FAILS", (0, 1))) == (
        "CheckResult(ok=False, reason='X_FAILS', indices=(0, 1), lhs=None, "
        "rhs=None)")
    assert repr(Matrix.zero(1, 2)) == "Matrix(cols=2, nonzero=({},))"
    assert repr(EMPTY) == "Subspace(columns=Matrix(cols=0, nonzero=()))"


@pytest.mark.parametrize("cls, fields, values, changed", CASES, ids=IDS)
def test_copy_and_pickle_round_trip(cls, fields, values, changed):
    record = cls(*values)
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record


@pytest.mark.parametrize("cls, fields, values, changed", CASES, ids=IDS)
def test_a_subclass_without_slots_keeps_every_field(cls, fields, values,
                                                    changed):
    sub = SUBCLASSES[cls]
    record = sub(*values)
    assert record != sub(*changed) and record == sub(*copy.deepcopy(values))
    assert repr(record) == "%s(%s)" % (sub.__name__, ", ".join(
        "%s=%r" % pair for pair in zip(fields, values)))
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is sub and twin == record


def test_determined_values_are_read_not_stored():
    """The row count is the number of stored rows, a phase space's base
    dimension is half its total's, and a product structure is paracomplex
    when its eigenspaces have equal dimension: none is a field."""
    assert (Matrix(3, ({}, {0: ONE})).rows, Matrix(3, ()).rows) == (2, 0)
    assert PhaseSpace(LeibnizAlgebra(4, {}), Matrix.identity(4)).base_dim == 2
    other = Subspace(Matrix(1, ({}, {0: ONE})))
    assert StructureReport(True, False, False, LINE, other).is_paracomplex
    assert not StructureReport(True, True, True, LINE, EMPTY).is_paracomplex
    assert not StructureReport(False, False, False, LINE,
                               other).is_paracomplex
    for cls, name in ((Matrix, "rows"), (PhaseSpace, "base_dim"),
                      (StructureReport, "is_paracomplex")):
        assert name not in cls._fields
