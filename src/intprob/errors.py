"""Exception hierarchy shared by all intprob modules, and how refusals quote values."""

from fractions import Fraction

__all__ = ["IntprobError", "ConstraintError", "PreconditionError"]


def clipped(value) -> str:
    """``value`` as text of at most 40 characters, for messages and witnesses.

    A rational with a part of more than 40 digits is shown by the size of
    that part, read off its bit length, so no long digit string is built.
    """
    if isinstance(value, (Fraction, int)):
        part = max(abs(value.numerator), value.denominator)
        if part >= 10**40:
            return f"<rational with a part of ~{part.bit_length() * 30103 // 100000} digits>"
    text = str(value)
    return text[:40] + "..." if len(text) > 40 else text


class IntprobError(Exception):
    """Base class for all intprob errors.

    Carries an optional ``witness`` (a small tuple of offending values)
    so callers can report exactly what broke.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ConstraintError(IntprobError):
    """A value failed a construction invariant (bad input data).

    Raised when building objects from invalid data: a mass function that
    does not sum to one, a capacity table that is not monotone, an
    eventuality string that does not resolve, and so on.
    """


class PreconditionError(IntprobError):
    """An operation was called outside its stated precondition.

    Examples: conditioning on an event of probability zero, a
    Dempster-Shafer update with a fully believed complement, a space
    too large for an exhaustive sweep, or mixing values from different
    spaces.
    """
