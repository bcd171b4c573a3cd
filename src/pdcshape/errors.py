"""Exception types shared across the package; every refusal of an input is a ParameterError."""


class ParameterError(ValueError):
    """Invalid parameter value or violated call precondition."""


class ConvergenceError(RuntimeError):
    """Numerical refinement did not converge within its point budget."""


class SearchError(ParameterError):
    """Peak search window too small: the maximum sits on the boundary."""


class ResolutionError(ParameterError):
    """Sampled curve too coarse for the requested analysis."""


class WindowError(ParameterError):
    """Curve window too narrow: edge values have not decayed."""


class InsufficientDataError(ParameterError):
    """Input does not contain enough structure for the requested estimate."""
