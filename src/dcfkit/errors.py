"""Exception types shared across the toolkit."""


class ParameterError(ValueError):
    """Raised when protocol parameters violate their documented constraints."""


class ConvergenceError(RuntimeError):
    """Raised when the bracketed solve for tau fails.

    That is, tau - map(tau) does not change sign on the bracket, is NaN,
    or the root finder stops short of convergence. This error is the only
    sign of the last case: every solution returned has converged. Then
    .solution holds the last iterate, and .solution.residual its residual.
    """

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution
