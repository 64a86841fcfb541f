"""Exception hierarchy shared by all quadalg modules, and ``brief``, the form
in which their messages echo an input value."""


def brief(value) -> str:
    """repr(value) for an error message; past 200 characters, its first 100
    and its length, so that a huge input gives a short message.  An int past
    Python's int-to-string digit limit, whose repr raises, is given by its
    sign and bit length."""
    try:
        text = repr(value)
    except ValueError:
        return f"{'-' if value < 0 else ''}<an integer of {value.bit_length()} bits>"
    if len(text) <= 200:
        return text
    return f"{text[:100]}... ({len(text)} characters)"


class QuadalgError(Exception):
    """Base class for all quadalg errors."""


# -- ring construction and arithmetic ---------------------------------------

class NonAssociative(QuadalgError):
    """Structure constants define a non-associative multiplication."""


class NonCommutative(QuadalgError):
    """Structure constants define a non-commutative multiplication."""


class NoIdentity(QuadalgError):
    """Structure constants admit no multiplicative identity."""


class RingMismatch(QuadalgError):
    """Operands belong to different rings."""


class NotTwoRegular(QuadalgError):
    """Operation requires a ring where 2 is not a zero divisor."""


class UnsupportedRing(QuadalgError):
    """Operation is not implemented for this ring kind."""


class InfiniteRing(QuadalgError):
    """Exhaustive operation called on an infinite ring."""


class NotAUnit(QuadalgError):
    """A ring element required to be a unit is not one."""


class RingTooLarge(QuadalgError):
    """A ring is past a size cap: its table's rank, its index tables or its unit scan."""


class ResultTooLong(QuadalgError):
    """A result holds an integer past Python's int-to-string digit limit."""


class ExponentTooLarge(QuadalgError):
    """A Z[1/f] exponent read from input exceeds EXPONENT_CAP, or the power
    f^k it names exceeds POWER_BITS_CAP bits."""


# -- forms -------------------------------------------------------------------

class SingularMatrix(QuadalgError):
    """Matrix determinant is not a unit."""


class NotDefinite(QuadalgError):
    """Form is not (positive or negative) definite."""


class DiscriminantMismatch(QuadalgError):
    """Forms have different discriminants."""


class InvalidDiscriminant(QuadalgError):
    """Integer is not a valid (negative, 0/1 mod 4) discriminant."""


class NotPrimitive(QuadalgError):
    """Form coefficients do not generate the unit ideal."""


# -- algebras ----------------------------------------------------------------

class ParityMismatch(QuadalgError):
    """Chosen lift does not reduce to the required parity."""


class InvalidTriple(QuadalgError):
    """(discriminant, parity) pair is not the type of any algebra."""


class BadLift(QuadalgError):
    """Supplied lift does not reduce to the given parity class."""


class BadParityLift(QuadalgError):
    """Integer lift has the wrong parity for the discriminant."""


# -- picard ------------------------------------------------------------------

class TypeMismatch(QuadalgError):
    """Form type does not match the target order."""


class ZeroLeadingCoefficient(QuadalgError):
    """Form has a = 0; move to an equivalent form with a != 0 first."""


class OrderMismatch(QuadalgError):
    """Ideals belong to different quadratic orders."""


class NotInvertible(QuadalgError):
    """Ideal is not invertible."""


class DiscriminantTooLarge(QuadalgError):
    """|delta| exceeds picard.DISCRIMINANT_CAP."""


class SweepTooLarge(QuadalgError):
    """A table range would sweep more (a, b) pairs than picard.SWEEP_PAIRS_CAP."""


class RootStepsTooLarge(QuadalgError):
    """A table range would take more a-steps than picard.ROOT_STEPS_CAP."""


# -- glue and cli ------------------------------------------------------------

class ValidationFailed(QuadalgError):
    """Cover/cocycle/type data failed a glueing validation."""


class InvalidRange(QuadalgError):
    """Bad discriminant range for table emission."""
