"""Exception types shared across the toolkit."""


class ParameterError(ValueError):
    """Raised when protocol parameters violate their documented constraints."""


class ConvergenceError(RuntimeError):
    """Raised when the bracketed solve for tau fails.

    That is, tau - map(tau) does not change sign on the bracket, is NaN,
    or the root finder stops short of convergence; in the latter case the error
    carries the last iterate and its residual.
    """

    def __init__(self, message, solution=None, residual=None):
        super().__init__(message)
        self.solution = solution
        self.residual = residual
