"""The package's exception classes, one home for all of them.

Every module raises and catches these same class objects, and the
command line maps them to its exit codes: `ParseError` to 2,
`HypothesisError`, `SingularCurveError` and `OffCurveError` to 3, and
`InternalInconsistencyError` to 4.  This module imports nothing, so a
command can catch them without compiling the code that raises them.
"""


class ParseError(ValueError):
    """Input that cannot be read.  An error in an expression names its
    position in the text; one in an option or an option's value has
    none, so `position` is None."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None
                         else f"{message} (at position {position})")
        self.position = position


class HypothesisError(ValueError):
    """Input violates a smoothness/connectedness hypothesis."""


class InternalInconsistencyError(RuntimeError):
    """A self-check failed; this should never fire."""


class SingularCurveError(ValueError):
    """The cubic has a repeated root (discriminant zero)."""


class OffCurveError(ValueError):
    def __init__(self, point, residual):
        super().__init__(f"point {point} is not on the curve; residual {residual}")
        self.point = point
        self.residual = residual
