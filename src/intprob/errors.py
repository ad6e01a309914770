"""Exception hierarchy shared by all intprob modules."""

__all__ = ["IntprobError", "ConstraintError", "PreconditionError"]


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
