"""Exact scalar arithmetic and string round-trips."""

import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from leibniz_lab import build_phase_space, solve_symplectic_space
from leibniz_lab.errors import DivisionByZero, ParseError
from leibniz_lab.io import parse_algebra, parse_dendriform, parse_matrix
from leibniz_lab.scalars import Scalar, format_scalar, parse_scalar

fractions = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                      st.integers(1, 10 ** 4))
# (real, imag) pairs; a zero imaginary part is drawn often, so rational,
# Gaussian and mixed operand pairs all occur.
pairs = st.tuples(fractions, st.just(Fraction(0)) | fractions)
OPERATORS = [operator.add, operator.sub, operator.mul, operator.truediv]


def scalars(gaussian):
    if gaussian:
        return st.builds(Scalar.of, fractions, fractions)
    return st.builds(Scalar.of, fractions)


def pair_reference(op, a, b):
    """The result of ``op`` on (real, imag) pairs of Fractions."""
    (p, q), (r, s) = a, b
    if op is operator.add:
        return p + r, q + s
    if op is operator.sub:
        return p - r, q - s
    if op is operator.mul:
        return p * r - q * s, p * s + q * r
    norm = r * r + s * s
    return (p * r + q * s) / norm, (q * r - p * s) / norm


@given(scalars(False) | scalars(True))
def test_format_parse_roundtrip(a):
    assert parse_scalar(format_scalar(a)) == a


@given(scalars(True), scalars(True))
def test_field_axioms_add_mul(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) - b == a


@given(scalars(True), scalars(True))
def test_division_inverts_multiplication(a, b):
    if b:
        assert (a * b) / b == a


@given(scalars(True))
def test_conjugation_norm(a):
    prod = a * a.conjugate()
    assert prod.imag == 0
    assert prod.real == a.real * a.real + a.imag * a.imag


def test_constructors_and_tags():
    assert type(Scalar.of(3)) is Fraction
    assert type(Scalar.zero()) is Fraction and Scalar.zero() == 0
    assert type(Scalar.one()) is Fraction and Scalar.one() == 1
    assert type(Scalar.i()) is Scalar
    assert type(Scalar.of(1, 2)) is Scalar
    assert type(Scalar.of(5, 0)) is Fraction


def test_rational_rejects_imaginary_part():
    with pytest.raises(ValueError):
        Scalar(Fraction(1), Fraction(0))   # a Scalar is never rational
    with pytest.raises(ParseError):
        parse_matrix({"matrix": [["i"]]})  # rational document


def test_division_by_zero():
    assert issubclass(DivisionByZero, ZeroDivisionError)
    with pytest.raises(ZeroDivisionError):
        Scalar.of(1) / Scalar.zero()
    with pytest.raises(ZeroDivisionError):
        Scalar.i() / Scalar.zero()


def test_mixed_field_arithmetic_promotes():
    assert type(Scalar.of(2) + Scalar.i()) is Scalar
    assert type(Scalar.of(2) * Scalar.of(3)) is Fraction


@given(pairs, pairs, st.sampled_from(OPERATORS))
def test_arithmetic_matches_pair_reference(a, b, op):
    assume(op is not operator.truediv or b != (0, 0))
    result = op(Scalar.of(*a), Scalar.of(*b))
    assert (result.real, result.imag) == pair_reference(op, a, b)
    assert type(result) is (Scalar if result.imag else Fraction)


@given(fractions | st.integers(-50, 50),
       st.builds(Scalar.of, fractions, fractions.filter(bool)),
       st.sampled_from(OPERATORS))
def test_mixed_operands_stay_exact(q, z, op):
    assume(op is not operator.truediv or q)
    for result in (op(q, z), op(z, q)):
        assert type(result) in (Fraction, Scalar)
    assert type(-z) is Scalar and type(z.conjugate()) is Scalar


def test_zero_imaginary_part_normalizes_to_fraction():
    assert Scalar.of(2, 3) * Scalar.of(2, -3) == 13
    assert type(Scalar.of(2, 3) * Scalar.of(2, -3)) is Fraction
    assert type(Scalar.of(1, 1) - Scalar.of(4, 1)) is Fraction
    assert type(Scalar.i() * Scalar.i()) is Fraction
    assert type(Scalar.of(2, 3) / Scalar.of(4, 6)) is Fraction
    assert type(parse_scalar("3+0*i")) is Fraction


def test_rational_documents_hold_fractions(heisenberg_like):
    algebra = parse_algebra({"dim": 2, "brackets": [
        {"i": 0, "j": 0, "value": [{"k": 1, "c": "-3/4"}]}]})
    dendriform = parse_dendriform({"dim": 1, "left": [
        {"i": 0, "j": 0, "value": [{"k": 0, "c": "2"}]}], "right": []},
        validate=False)
    basis, sample = solve_symplectic_space(heisenberg_like)
    phase = build_phase_space(dendriform)
    entries = [c for plane in algebra.constants for row in plane for c in row]
    entries += [c for plane in dendriform.left_constants for row in plane
                for c in row]
    entries += [c for plane in phase.total.constants for row in plane
                for c in row]
    for M in basis + [sample, phase.form, parse_matrix([["1/2", "0"]])]:
        entries += [c for row in M.entries for c in row]
    assert entries and all(type(c) is Fraction for c in entries)


@pytest.mark.parametrize("text,re_part,im_part", [
    ("0", 0, 0),
    ("-5/7", Fraction(-5, 7), 0),
    ("i", 0, 1),
    ("-i", 0, -1),
    ("2*i", 0, 2),
    ("1/2+3*i", Fraction(1, 2), 3),
    ("-5/7+1/3*i", Fraction(-5, 7), Fraction(1, 3)),
    ("3-i", 3, -1),
])
def test_parse_examples(text, re_part, im_part):
    value = parse_scalar(text)
    assert value.real == re_part and value.imag == im_part


@pytest.mark.parametrize("text", ["", "x", "1/0", "i*i", "1+", "2i", "+-1"])
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_scalar(text)


def test_format_canonical_forms():
    assert format_scalar(Scalar.of(Fraction(-5, 7))) == "-5/7"
    assert format_scalar(Scalar.i()) == "i"
    assert format_scalar(-Scalar.i()) == "-i"
    assert format_scalar(Scalar.of(0, 2)) == "2*i"
    assert format_scalar(Scalar.of(Fraction(1, 2), Fraction(-1, 3))) \
        == "1/2-1/3*i"


def test_equality_ignores_field_tag():
    assert Scalar.of(1) == Scalar.one()
    assert Scalar.of(Fraction(2, 1)) == 2
    assert Scalar.of(1, 1) != 1
