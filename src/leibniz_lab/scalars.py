"""Exact field elements of Q and Q(i).

The field is a property of an algebra or a document (its ``field``
string), not of each number.  A rational value is an ``int`` when it is
integral and a :class:`fractions.Fraction` otherwise; a Gaussian rational
with a nonzero imaginary part is a :class:`Scalar` ``real + imag*i`` with
parts of that kind.  Every value made here (by ``Scalar.of``, ``zero``,
``one``, ``i`` or :func:`parse_scalar`, as the parts of a :class:`Scalar`,
as a result whose imaginary part vanishes, or as a quotient) has that
canonical kind, and so does every output of the exact elimination in
:mod:`linalg` (its RREF rows, kernel bases, inverses and solutions);
other arithmetic keeps Python's (``int * int`` is an ``int``, a
``Fraction`` result stays a ``Fraction``, equal and hash-equal to its
``int`` value).  Both kinds expose ``real`` and ``imag``, and mixed
arithmetic is exact in either operand order.  Since ``int / int`` is a
float, the package divides only through :func:`quotient`, which callers
use too.  There is no rounding anywhere in the package.
"""

from __future__ import annotations

import re as _re
import sys
from fractions import Fraction

from .errors import DivisionByZero, ParseError, TooLarge

RATIONAL = "Q"
GAUSSIAN = "Q(i)"

_RATIONALS = (Fraction, int)
_ZERO, _ONE = 0, 1


def _canonical(v):
    """v with an integral ``Fraction`` turned into its int; any other int,
    Fraction or Scalar is returned as it is."""
    return v.numerator if type(v) is Fraction and v.denominator == 1 else v


def _rational(q):
    """The rational q (an int, a Fraction or anything ``Fraction`` reads)
    as an int when it is integral, else as a Fraction."""
    return q if type(q) is int else _canonical(
        q if type(q) is Fraction else Fraction(q))


def quotient(a, b):
    """The exact quotient a / b of field elements, canonical when rational.

    This is the package's one division: ``int / int`` would be a float.
    Raises :class:`DivisionByZero` when b is 0, and ``TypeError`` when a or
    b is not exactly an int, a Fraction or a Scalar (a bool or a float).
    """
    if type(a) not in _KINDS or type(b) not in _KINDS:
        raise TypeError("only int, Fraction and Scalar values divide")
    if type(b) is Scalar:
        return b._inverse() * a
    if not b:
        raise DivisionByZero("division by zero scalar")
    if type(a) is Scalar:
        return Scalar(quotient(a.real, b), quotient(a.imag, b))
    return _canonical(Fraction(a, b) if type(a) is int and type(b) is int
                      else a / b)


def _make(real, imag):
    """real + imag*i: a canonical rational when imag vanishes, else a
    Scalar."""
    return Scalar(real, imag) if imag else _rational(real)


class Scalar:
    """A Gaussian rational ``real + imag*i`` with ``imag != 0``, immutable."""

    __slots__ = ("real", "imag")

    def __init__(self, real, imag):
        if not imag:
            raise ValueError("a Scalar has a nonzero imaginary part; "
                             "use Scalar.of for rationals")
        object.__setattr__(self, "real", _rational(real))
        object.__setattr__(self, "imag", _rational(imag))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):   # copy and pickle through __init__
        return Scalar, (self.real, self.imag)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def of(re, im=0):
        """re + im*i; a canonical rational when im == 0."""
        return _make(re, _rational(im))

    @staticmethod
    def zero() -> int:
        return _ZERO

    @staticmethod
    def one() -> int:
        return _ONE

    @staticmethod
    def i() -> "Scalar":
        return Scalar(0, 1)

    # -- arithmetic: the other operand is a Scalar or a rational ----------

    def __add__(self, other):
        if isinstance(other, Scalar):
            return _make(self.real + other.real, self.imag + other.imag)
        if isinstance(other, _RATIONALS):
            return Scalar(self.real + other, self.imag)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Scalar):
            return _make(self.real - other.real, self.imag - other.imag)
        if isinstance(other, _RATIONALS):
            return Scalar(self.real - other, self.imag)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _RATIONALS):
            return Scalar(other - self.real, -self.imag)
        return NotImplemented

    def __neg__(self) -> "Scalar":
        return Scalar(-self.real, -self.imag)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            a, b, c, d = self.real, self.imag, other.real, other.imag
            return _make(a * c - b * d, a * d + b * c)
        if isinstance(other, _RATIONALS):
            return _make(self.real * other, self.imag * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (Scalar, *_RATIONALS)):
            return quotient(self, other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _RATIONALS):
            return quotient(other, self)
        return NotImplemented

    def _inverse(self) -> "Scalar":
        norm = self.real * self.real + self.imag * self.imag
        return Scalar(quotient(self.real, norm), quotient(-self.imag, norm))

    def conjugate(self) -> "Scalar":
        return Scalar(self.real, -self.imag)

    # -- equality: a Scalar never equals a rational ----------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Scalar) and self.real == other.real
                and self.imag == other.imag)

    def __hash__(self):
        return hash((self.real, self.imag))

    def __bool__(self) -> bool:
        return True  # the imaginary part is nonzero

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return "Scalar(%s)" % format_scalar(self)


_KINDS = (int, Fraction, Scalar)   # the kinds of a field element
_TOO_LONG = "a scalar has a numerator or denominator of more than %d digits"


def format_scalar(a) -> str:
    """Serialize to the canonical string form, e.g. ``-5/7+1/3*i``; a part
    past ``sys.get_int_max_str_digits()`` digits is :class:`TooLarge`."""
    try:
        if not a.imag:
            return str(a)
        mag = abs(a.imag)
        imag = "i" if mag == 1 else "%s*i" % mag
        sign = "-" if a.imag < 0 else ""
        if a.real == 0:
            return sign + imag
        return "%s%s%s" % (a.real, sign or "+", imag)
    except ValueError:
        raise TooLarge(_TOO_LONG % sys.get_int_max_str_digits()) from None


_FRACTION = r"[+-]?\d+(?:/\d+)?"
_IMAG = r"(?:(?P<isign>[+-]?)(?:(?P<imag>\d+(?:/\d+)?)\*)?i)"
# The real part never ends inside a number or before "*": otherwise the
# match of "12*i" or "1/10*i" backtracks into real "1" or "1/1" and an
# unsigned imaginary part.
_SCALAR_RE = _re.compile(
    r"^(?:(?P<real>%s)(?![\d/*]))?%s?$" % (_FRACTION, _IMAG))


def parse_scalar(text: str):
    """Parse the serialized form.  Round-trips :func:`format_scalar` exactly."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty scalar string")
    m = _SCALAR_RE.match(s)
    if m is None or (m.group("real") is None and "i" not in s):
        raise ParseError("malformed scalar %r" % text)
    if (m.group("real") is not None and "i" in s
            and m.group("isign") not in ("+", "-")):
        raise ParseError("missing sign before imaginary part in %r" % text)
    try:
        re_part = _rational(m.group("real")) if m.group("real") else 0
        if "i" not in s:
            return re_part
        mag = _rational(m.group("imag")) if m.group("imag") else 1
        return _make(re_part, -mag if m.group("isign") == "-" else mag)
    except ZeroDivisionError:
        raise ParseError("zero denominator in scalar %r" % text) from None
    except ValueError:
        raise ParseError(_TOO_LONG % sys.get_int_max_str_digits()) from None
