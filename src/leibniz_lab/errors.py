"""Exception hierarchy shared by all modules."""


class LeibnizLabError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(LeibnizLabError):
    pass


class FieldMismatch(LeibnizLabError):
    pass


class DivisionByZero(LeibnizLabError, ZeroDivisionError):
    pass


class SingularMatrix(LeibnizLabError):
    pass


class DegenerateForm(LeibnizLabError):
    pass


class NotSymmetric(LeibnizLabError):
    pass


class NotInvolution(LeibnizLabError):
    pass


class NotAntiInvolution(LeibnizLabError):
    pass


class WrongField(LeibnizLabError):
    pass


class NotRotaBaxter(LeibnizLabError):
    pass


class NotSymplectic(LeibnizLabError):
    pass


class NotSubalgebra(LeibnizLabError):
    pass


class NotDirectSum(LeibnizLabError):
    pass


class NotComplexStructure(LeibnizLabError):
    pass


class NotComplexProduct(LeibnizLabError):
    pass


class NotParaKahler(LeibnizLabError):
    pass


class NotPseudoKahler(LeibnizLabError):
    pass


class NotInvariant(LeibnizLabError):
    pass


class NotQuadratic(LeibnizLabError):
    pass


class PhiIdentityFails(LeibnizLabError):
    pass


class TooLarge(LeibnizLabError):
    pass


class ParseError(LeibnizLabError):
    pass


class ValidationError(LeibnizLabError):
    pass
