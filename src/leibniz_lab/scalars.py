"""Exact field elements of Q and Q(i).

The field is a property of an algebra or a document (its ``field``
string), not of each number.  A rational value is a plain
:class:`fractions.Fraction`; a Gaussian rational with a nonzero imaginary
part is a :class:`Scalar` ``real + imag*i``.  Both expose ``real`` and
``imag``, mixed arithmetic is exact in either operand order, and every
result whose imaginary part vanishes comes back as a ``Fraction``, so
each value has exactly one representation.  There is no rounding anywhere
in the package.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

from .errors import DivisionByZero, ParseError

RATIONAL = "Q"
GAUSSIAN = "Q(i)"

_RATIONALS = (Fraction, int)


def _make(real, imag):
    """real + imag*i: a Fraction when imag vanishes, else a Scalar."""
    return Scalar(real, imag) if imag else real


class Scalar:
    """A Gaussian rational ``real + imag*i`` with ``imag != 0``, immutable."""

    __slots__ = ("real", "imag")

    def __init__(self, real, imag):
        if not imag:
            raise ValueError("a Scalar has a nonzero imaginary part; "
                             "use Scalar.of for rationals")
        object.__setattr__(self, "real",
                           real if type(real) is Fraction else Fraction(real))
        object.__setattr__(self, "imag",
                           imag if type(imag) is Fraction else Fraction(imag))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def of(re, im=0):
        """re + im*i; a Fraction when im == 0."""
        return _make(Fraction(re), Fraction(im))

    @staticmethod
    def zero() -> Fraction:
        return Fraction(0)

    @staticmethod
    def one() -> Fraction:
        return Fraction(1)

    @staticmethod
    def i() -> "Scalar":
        return Scalar(Fraction(0), Fraction(1))

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
        if isinstance(other, Scalar):
            return self * other._inverse()
        if isinstance(other, _RATIONALS):
            if not other:
                raise DivisionByZero("division by zero scalar")
            return Scalar(self.real / other, self.imag / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _RATIONALS):
            return self._inverse() * other
        return NotImplemented

    def _inverse(self) -> "Scalar":
        norm = self.real * self.real + self.imag * self.imag
        return Scalar(self.real / norm, -self.imag / norm)

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


def _format_fraction(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def format_scalar(a) -> str:
    """Serialize to the canonical string form, e.g. ``-5/7+1/3*i``."""
    if not a.imag:
        return _format_fraction(a)
    mag = abs(a.imag)
    imag = "i" if mag == 1 else "%s*i" % _format_fraction(mag)
    sign = "-" if a.imag < 0 else ""
    if a.real == 0:
        return sign + imag
    if not sign:
        sign = "+"
    return _format_fraction(a.real) + sign + imag


_FRACTION = r"[+-]?\d+(?:/\d+)?"
_IMAG = r"(?:(?P<isign>[+-]?)(?:(?P<imag>\d+(?:/\d+)?)\*)?i)"
_SCALAR_RE = _re.compile(
    r"^(?:(?P<real>%s))?%s?$" % (_FRACTION, _IMAG))


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
        re_part = Fraction(m.group("real")) if m.group("real") else Fraction(0)
        if "i" not in s:
            return re_part
        mag = Fraction(m.group("imag")) if m.group("imag") else Fraction(1)
        return _make(re_part, -mag if m.group("isign") == "-" else mag)
    except ZeroDivisionError:
        raise ParseError("zero denominator in scalar %r" % text) from None
