"""Exact scalar arithmetic and string round-trips."""

import ast
import copy
import operator
import pathlib
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

import leibniz_lab
from conftest import canonical, kind
from leibniz_lab import (LeibnizAlgebra, build_phase_space,
                         solve_symplectic_space)
from leibniz_lab.errors import DivisionByZero, ParseError, TooLarge
from leibniz_lab.io import parse_algebra, parse_dendriform, parse_matrix
from leibniz_lab.scalars import (GAUSSIAN, Scalar, format_scalar,
                                 parse_scalar, quotient)

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
        # Two rationals divide through the quotient: int / int is a float.
        q = quotient(a * b, b)
        assert q == a and canonical(q)


@given(scalars(True))
def test_conjugation_norm(a):
    prod = a * a.conjugate()
    assert prod.imag == 0
    assert prod.real == a.real * a.real + a.imag * a.imag


def test_constructors_and_tags():
    assert type(Scalar.of(3)) is int and Scalar.of(3) == 3
    assert type(Scalar.of(Fraction(6, 2))) is int
    assert type(Scalar.of(Fraction(1, 2))) is Fraction
    assert type(Scalar.zero()) is int and Scalar.zero() == 0
    assert type(Scalar.one()) is int and Scalar.one() == 1
    assert type(Scalar.i()) is Scalar and canonical(Scalar.i())
    assert type(Scalar.of(1, 2)) is Scalar and canonical(Scalar.of(1, 2))
    assert type(Scalar.of(5, 0)) is int
    assert canonical(Scalar.of(Fraction(4, 2), Fraction(1, 3)))
    assert canonical(Scalar(Fraction(4, 2), Fraction(3, 3)))


def test_a_scalar_is_immutable():
    z = Scalar.of(1, 2)
    for name in ("real", "imag", "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(z, name, 0)
    assert (z.real, z.imag) == (1, 2)


def test_gaussian_values_copy_and_pickle():
    """A Scalar rebuilds through its constructor, as the records that hold
    one do."""
    z = Scalar.of(1, 1)
    A = LeibnizAlgebra.from_brackets(2, {(0, 0): {1: z}}, GAUSSIAN)
    for value in (z, A):
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value
    twin = pickle.loads(pickle.dumps(z))
    assert canonical(twin) and twin is not z


def test_rational_rejects_imaginary_part():
    with pytest.raises(ValueError):
        Scalar(Fraction(1), Fraction(0))   # a Scalar is never rational
    with pytest.raises(ParseError):
        parse_matrix({"matrix": [["i"]]}, "Q")  # rational document


def test_division_by_zero():
    assert issubclass(DivisionByZero, ZeroDivisionError)
    with pytest.raises(ZeroDivisionError):
        Scalar.of(1) / Scalar.zero()
    with pytest.raises(ZeroDivisionError):
        Scalar.i() / Scalar.zero()


def test_public_quotient_divides_exactly():
    """``leibniz_lab.quotient`` is the exact division for callers, whose
    ``/`` on two ints would be a float."""
    assert leibniz_lab.quotient is quotient
    half = quotient(1, 2)
    assert half == Fraction(1, 2) and type(half) is Fraction
    assert quotient(4, 2) == 2 and type(quotient(4, 2)) is int
    assert type(quotient(Fraction(9, 2), Fraction(3, 2))) is int
    # In Q(i): (1+i)/(1-i) = i, (2+2i)/(1+i) = 2 and (2+4i)/2 = 1+2i.
    one_plus_i = Scalar.of(1, 1)
    assert quotient(one_plus_i, Scalar.of(1, -1)) == Scalar.i()
    assert type(quotient(Scalar.of(2, 2), one_plus_i)) is int
    assert quotient(Scalar.of(2, 4), 2) == Scalar.of(1, 2)
    assert quotient(1, one_plus_i) == Scalar.of(Fraction(1, 2),
                                                Fraction(-1, 2))
    assert all(canonical(quotient(a, b)) for a in (3, one_plus_i)
               for b in (3, Fraction(2, 3), one_plus_i))
    for zero in (0, Fraction(0)):
        for a in (1, Fraction(1, 2), one_plus_i):
            with pytest.raises(DivisionByZero):
                quotient(a, zero)
    # Only field elements divide: a float or a bool (an int subclass) is
    # refused in either place, also behind the Scalar operators.
    for a, b in ((1, 0.5), (True, 2), (0.5, 2), (1, True),
                 (Scalar.i(), 0.5), (Fraction(1, 2), False)):
        with pytest.raises(TypeError):
            quotient(a, b)
    with pytest.raises(TypeError):
        Scalar.i() / True


def test_mixed_field_arithmetic_promotes():
    assert type(Scalar.of(2) + Scalar.i()) is Scalar
    assert type(Scalar.of(2) * Scalar.of(3)) is int


@given(pairs, pairs, st.sampled_from(OPERATORS))
def test_arithmetic_matches_pair_reference(a, b, op):
    assume(op is not operator.truediv or b != (0, 0))
    x, y = Scalar.of(*a), Scalar.of(*b)
    built = isinstance(x, Scalar) or isinstance(y, Scalar)
    want = pair_reference(op, a, b)
    if op is operator.truediv and not built:
        op = quotient   # two rationals: int / int is a float
    result = op(x, y)
    assert (result.real, result.imag) == want
    assert kind(result) == ("Q(i)" if result.imag else "Q")
    # A Scalar operand or the quotient builds the result: it is canonical.
    assert canonical(result) or not (built or op is quotient)


@given(fractions | st.integers(-50, 50),
       st.builds(Scalar.of, fractions, fractions.filter(bool)),
       st.sampled_from(OPERATORS))
def test_mixed_operands_stay_exact(q, z, op):
    assume(op is not operator.truediv or q)
    for result in (op(q, z), op(z, q)):
        assert canonical(result)   # an int, a Fraction or a Scalar
    assert type(-z) is Scalar and type(z.conjugate()) is Scalar


def test_zero_imaginary_part_normalizes_to_a_canonical_rational():
    assert Scalar.of(2, 3) * Scalar.of(2, -3) == 13
    assert type(Scalar.of(2, 3) * Scalar.of(2, -3)) is int
    assert type(Scalar.of(1, 1) - Scalar.of(4, 1)) is int
    assert type(Scalar.i() * Scalar.i()) is int
    assert Scalar.of(2, 3) / Scalar.of(4, 6) == Fraction(1, 2)
    assert type(Scalar.of(2, 3) / Scalar.of(4, 6)) is Fraction
    assert type(Scalar.of(4, 6) / Scalar.of(2, 3)) is int
    assert type(Scalar.of(Fraction(1, 2), 1) + Scalar.of(Fraction(1, 2), -1)) \
        is int
    assert type(parse_scalar("3+0*i")) is int


def test_rational_documents_hold_canonical_rationals(heisenberg_like):
    algebra = parse_algebra({"dim": 2, "brackets": [
        {"i": 0, "j": 0, "value": [{"k": 1, "c": "-3/4"}]}]})
    dendriform = parse_dendriform({"dim": 1, "left": [
        {"i": 0, "j": 0, "value": [{"k": 0, "c": "2"}]}], "right": []},
        validate=False)
    basis, sample = solve_symplectic_space(heisenberg_like)
    phase = build_phase_space(dendriform)
    entries = [c for T in (algebra.brackets, dendriform.left_brackets,
                           phase.total.brackets)
               for value in T.values() for c in value.values()]
    entries += [c for A in (algebra, phase.total) for i in range(A.dim)
                for j in range(A.dim) for c in A.bracket_basis(i, j)]
    for M in basis + [sample, phase.form, parse_matrix([["1/2", "0"]], "Q")]:
        entries += [c for row in M.entries for c in row]
    parsed = [c for T in (algebra.brackets, dendriform.left_brackets)
              for value in T.values() for c in value.values()]
    parsed += parse_matrix([["1/2", "0"]], "Q").entries[0]
    assert entries and all(kind(c) == "Q" for c in entries)
    assert [type(c) for c in parsed] == [Fraction, int, Fraction, int]
    assert all(canonical(c) for c in parsed)


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


def test_multi_digit_imaginary_coefficient_round_trips():
    """A pure imaginary part with several digits is no real part followed
    by an unsigned imaginary one ("12*i" is not "1" and "2*i")."""
    for text in ("12*i", "-12*i", "1/10*i", "-3/25*i", "7-12*i"):
        assert format_scalar(parse_scalar(text)) == text


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
    # Each part as ``str`` writes its int or Fraction: an integral Fraction,
    # such as a sum of two Fractions, as its int, a negative part with its
    # sign before the numerator.
    assert format_scalar(Fraction(6, 3)) == "2"
    assert format_scalar(Fraction(1, 2) + Fraction(3, 2)) == "2"
    assert format_scalar(Scalar(Fraction(6, 3), Fraction(-1, 2))) \
        == "2-1/2*i"
    assert format_scalar(Fraction(-6, 4)) == "-3/2"
    assert format_scalar(-7) == "-7"
    assert format_scalar(Scalar(Fraction(-5, 7), -1)) == "-5/7-i"
    assert format_scalar(Scalar(0, Fraction(-1, 2))) == "-1/2*i"
    assert format_scalar(Scalar(-3, Fraction(-1, 2))) == "-3-1/2*i"


def test_parts_past_the_digit_limit_raise_named_errors():
    """Python converts ints of at most ``sys.get_int_max_str_digits()``
    digits to and from str.  Past it, reading a scalar is a ParseError and
    writing one is TooLarge, both naming the limit, not a ValueError."""
    limit = sys.get_int_max_str_digits()
    big, text = 10 ** limit, "1" + "0" * limit
    message = "more than %d digits" % limit
    for bad in (text, "1/" + text, "2+%s*i" % text):
        with pytest.raises(ParseError, match=message):
            parse_scalar(bad)
    for value in (big, Fraction(1, big), Scalar(1, big), Scalar(big, 1)):
        with pytest.raises(TooLarge, match=message):
            format_scalar(value)


def test_equality_ignores_field_tag():
    assert Scalar.of(1) == Scalar.one()
    assert Scalar.of(Fraction(2, 1)) == 2
    assert Scalar.of(1, 1) != 1


def test_zero_and_one_are_shared_ints():
    for shared, fresh in ((Scalar.zero(), Fraction(0)),
                          (Scalar.one(), Fraction(1))):
        assert shared == fresh and type(shared) is int
        assert hash(shared) == hash(fresh) and str(shared) == str(fresh)
    assert Scalar.zero() is Scalar.zero() and Scalar.one() is Scalar.one()


def test_no_code_mutates_the_shared_constants():
    """Scalar.zero() and Scalar.one() hand out one shared value each, so
    the package may not touch a Fraction's internals, set attributes on
    anything but ``self``, or bind the constants anywhere but once at the
    top of scalars.py."""
    found, bindings = [], []
    for path in sorted(pathlib.Path(leibniz_lab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("_numerator", "_denominator")):
                found.append((path.name, node.lineno, node.attr))
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr",
                                                         None))
                    in ("setattr", "__setattr__")
                    and ast.unparse(node.args[0]) != "self"):
                found.append((path.name, node.lineno, "setattr"))
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                if {"_ZERO", "_ONE"} & {n.id for t in targets
                                        for n in ast.walk(t)
                                        if isinstance(n, ast.Name)}:
                    bindings.append((path.name, node in tree.body))
    assert found == []
    assert bindings == [("scalars.py", True)]
