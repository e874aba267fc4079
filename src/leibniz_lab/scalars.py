"""Exact field elements: rationals and Gaussian rationals.

A scalar is a pair of :class:`fractions.Fraction` components plus a field
tag.  Rational scalars are forced to have zero imaginary part; arithmetic
promotes to the Gaussian field whenever either operand is Gaussian.  All
operations are exact, there is no rounding anywhere in the package.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero, ParseError, WrongField

RATIONAL = "Q"
GAUSSIAN = "Q(i)"


@dataclass(frozen=True)
class Scalar:
    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)
    gaussian: bool = False

    def __post_init__(self):
        if not self.gaussian and self.im != 0:
            raise WrongField("rational scalar with nonzero imaginary part")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def of(re, im=0, gaussian=None) -> "Scalar":
        re = Fraction(re)
        im = Fraction(im)
        if gaussian is None:
            gaussian = im != 0
        return Scalar(re, im, gaussian)

    @staticmethod
    def zero(gaussian: bool = False) -> "Scalar":
        return Scalar(Fraction(0), Fraction(0), gaussian)

    @staticmethod
    def one(gaussian: bool = False) -> "Scalar":
        return Scalar(Fraction(1), Fraction(0), gaussian)

    @staticmethod
    def i() -> "Scalar":
        return Scalar(Fraction(0), Fraction(1), True)

    # -- predicates ------------------------------------------------------

    @property
    def field_tag(self) -> str:
        return GAUSSIAN if self.gaussian else RATIONAL

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re + other.re, self.im + other.im,
                      self.gaussian or other.gaussian)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re - other.re, self.im - other.im,
                      self.gaussian or other.gaussian)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im, self.gaussian)

    def __mul__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re,
                      self.gaussian or other.gaussian)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        if other.is_zero():
            raise DivisionByZero("division by zero scalar")
        norm = other.re * other.re + other.im * other.im
        return Scalar((self.re * other.re + self.im * other.im) / norm,
                      (self.im * other.re - self.re * other.im) / norm,
                      self.gaussian or other.gaussian)

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im, self.gaussian)

    def promote(self) -> "Scalar":
        """The same value viewed in the Gaussian field."""
        return Scalar(self.re, self.im, True)

    def demote(self) -> "Scalar":
        """The same value viewed in the rational field (imaginary part must vanish)."""
        if self.im != 0:
            raise WrongField("cannot view %s as a rational" % self)
        return Scalar(self.re, Fraction(0), False)

    # -- equality ignores the field tag: 1 in Q equals 1 in Q(i) ----------

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return "Scalar(%s)" % format_scalar(self)


def _format_fraction(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def format_scalar(a: Scalar) -> str:
    """Serialize to the canonical string form, e.g. ``-5/7+1/3*i``."""
    if a.im == 0:
        return _format_fraction(a.re)
    mag = abs(a.im)
    imag = "i" if mag == 1 else "%s*i" % _format_fraction(mag)
    sign = "-" if a.im < 0 else ""
    if a.re == 0:
        return sign + imag
    if not sign:
        sign = "+"
    return _format_fraction(a.re) + sign + imag


_FRACTION = r"[+-]?\d+(?:/\d+)?"
_IMAG = r"(?:(?P<isign>[+-]?)(?:(?P<imag>\d+(?:/\d+)?)\*)?i)"
_SCALAR_RE = _re.compile(
    r"^(?:(?P<real>%s))?%s?$" % (_FRACTION, _IMAG))


def parse_scalar(text: str) -> Scalar:
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
        if "i" in s:
            mag = Fraction(m.group("imag")) if m.group("imag") else Fraction(1)
            im_part = -mag if m.group("isign") == "-" else mag
            return Scalar(re_part, im_part, True)
        return Scalar(re_part, Fraction(0), False)
    except ZeroDivisionError:
        raise ParseError("zero denominator in scalar %r" % text) from None
