"""Exception types shared across the library."""


class ParameterError(ValueError):
    """An argument is outside its documented range."""


class DomainError(ValueError):
    """An input is outside the domain of the requested functional."""


class PreconditionError(ValueError):
    """A checker was invoked outside the hypotheses of its statement."""


class NotThinnableError(ValueError):
    """Inverting the thinning map produced an invalid mass function."""

    def __init__(self, alpha, index, value, message=None):
        self.alpha = alpha
        self.index = index
        self.value = value
        if message is None:
            message = ("not %g-thinnable: solved mass at index %d is %.6e"
                       % (alpha, index, value))
        super().__init__(message)


class NumericError(RuntimeError):
    """A numeric routine failed to converge; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        self.diagnostics = dict(diagnostics or {})
        super().__init__(message)


class ConsistencyError(RuntimeError):
    """An algebraic identity that must hold to rounding level failed."""
