"""Exact scalar arithmetic and string round-trips."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from leibniz_lab.errors import DivisionByZero, ParseError, WrongField
from leibniz_lab.scalars import (GAUSSIAN, RATIONAL, Scalar, format_scalar,
                                 parse_scalar)

fractions = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                      st.integers(1, 10 ** 4))


def scalars(gaussian):
    if gaussian:
        return st.builds(lambda a, b: Scalar.of(a, b, True), fractions,
                         fractions)
    return st.builds(lambda a: Scalar.of(a), fractions)


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
    if not b.is_zero():
        assert (a * b) / b == a


@given(scalars(True))
def test_conjugation_norm(a):
    prod = a * a.conjugate()
    assert prod.im == 0
    assert prod.re == a.re * a.re + a.im * a.im


def test_constructors_and_tags():
    assert Scalar.of(3).field_tag == RATIONAL
    assert Scalar.i().field_tag == GAUSSIAN
    assert Scalar.of(1, 2).gaussian
    assert Scalar.of(5).promote().field_tag == GAUSSIAN
    assert Scalar.of(5).promote().demote() == Scalar.of(5)


def test_rational_rejects_imaginary_part():
    with pytest.raises(WrongField):
        Scalar(Fraction(1), Fraction(1), False)
    with pytest.raises(WrongField):
        Scalar.i().demote()


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Scalar.of(1) / Scalar.zero()


def test_mixed_field_arithmetic_promotes():
    assert (Scalar.of(2) + Scalar.i()).gaussian
    assert (Scalar.of(2) * Scalar.of(3)).field_tag == RATIONAL


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
    assert value.re == re_part and value.im == im_part


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
    assert Scalar.of(1) == Scalar.one(True)
    assert Scalar.of(Fraction(2, 1)) == 2
    assert Scalar.of(1, 1) != 1
