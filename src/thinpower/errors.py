"""Exception types shared across the library."""


class ParameterError(ValueError):
    """An argument is outside its documented range."""


class DomainError(ValueError):
    """An input is outside the domain of the requested functional."""


class PreconditionError(ValueError):
    """A checker was invoked outside the hypotheses of its statement."""


class NotThinnableError(ValueError):
    """Inverting the thinning map produced an invalid mass function."""

    def __init__(self, alpha, index, value):
        self.alpha = alpha
        self.index = index
        self.value = value
        super().__init__("not %g-thinnable: solved mass at index %d is %.6e"
                         % (alpha, index, value))


class IllConditionedError(ValueError):
    """Inverse thinning's rounding-error bound exceeds tol_norm, so double
    precision cannot decide the preimage (see transforms.inverse_thin)."""

    def __init__(self, alpha, kappa, bound):
        self.alpha, self.kappa, self.bound = alpha, kappa, bound
        super().__init__(f"inverse thinning at alpha = {alpha:g} is "
                         f"ill-conditioned: kappa = {kappa:.3e}, error "
                         f"bound {bound:.3e} > tol_norm")


class NumericError(RuntimeError):
    """A numeric routine failed to converge; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        self.diagnostics = dict(diagnostics or {})
        super().__init__(message)


class ConsistencyError(RuntimeError):
    """An algebraic identity that must hold to rounding level failed."""
