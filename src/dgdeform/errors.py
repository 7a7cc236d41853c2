"""Exception types shared across the library."""


class DgmError(Exception):
    """Base class for every error raised by this library."""


# -- scalars / fields ------------------------------------------------------

class FieldMismatch(DgmError):
    pass


class DivisionByZero(DgmError):
    pass


class ZeroDenominator(DgmError):
    pass


class DenominatorDivisibleByP(DgmError):
    pass


class NonPrimeModulus(DgmError):
    pass


class ModulusTooLarge(NonPrimeModulus):
    """The modulus lies beyond the range where primality is decided exactly."""


# -- graded modules and vectors --------------------------------------------

class ModuleMismatch(DgmError):
    pass


class UnknownBasisName(DgmError):
    pass


class ZeroVectorHasNoDegree(DgmError):
    pass


# -- graded maps ------------------------------------------------------------

class DegreeMismatch(DgmError):
    pass


class CompositionMismatch(DgmError):
    pass


class ZeroCoefficient(DgmError):
    pass


class BadDegree(DgmError):
    pass


# -- cochains and solving ----------------------------------------------------

class NotADifferential(DgmError):
    pass


class MalformedCochain(DgmError):
    pass


class NotACocycle(DgmError):
    pass


class PostconditionFailed(DgmError):
    """A computed answer failed its own exact re-verification."""


# -- series and deformations -------------------------------------------------

class TruncationMismatch(DgmError):
    pass


class ConstantTermNotIdentity(DgmError):
    pass


class NotSquareZero(DgmError):
    pass


class InfinitesimalNotCocycle(DgmError):
    pass


class RelationsViolated(DgmError):
    pass


# -- family generators ---------------------------------------------------------

class TruncationTooSmall(DgmError):
    pass


class BadTruncation(DgmError):
    pass


# -- text format ----------------------------------------------------------------

class ParseError(DgmError):
    """Malformed input text; carries the 1-based line and column."""

    def __init__(self, message, line, col):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class MissingDifferential(DgmError):
    pass


class UnknownName(DgmError):
    pass
