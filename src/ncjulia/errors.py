"""Exception hierarchy shared by all modules.

The CLI maps these onto its exit-code contract: ParseError -> 2,
PreconditionError (and subclasses) -> 3.
"""


class ParseError(ValueError):
    """Malformed textual or JSON input."""


class PolyParseError(ParseError):
    """Syntax error in the free-polynomial grammar; carries a character position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownNameError(ParseError):
    """A fixture, delta or closed-form name that names nothing."""


class PreconditionError(ValueError):
    """An operation was called outside its documented contract."""


class DimensionError(PreconditionError):
    """Incompatible matrix or tuple dimensions."""


class SingularMatrixError(PreconditionError):
    """A matrix required to be invertible is numerically singular."""

    def __init__(self, message, smallest_singular_value=None):
        if smallest_singular_value is not None:
            message = f"{message} (smallest singular value {smallest_singular_value:.3e})"
        super().__init__(message)
        self.smallest_singular_value = smallest_singular_value


class ConvergenceError(PreconditionError):
    """A limit computation did not produce Cauchy increments."""
