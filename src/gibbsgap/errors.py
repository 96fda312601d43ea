"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Invalid user input: bad pmf, bad scan spec, out-of-range parameter."""


class StateCapError(RuntimeError):
    """The requested state space exceeds the dense-algebra cap."""


class NumericError(RuntimeError):
    """A dense solver failed to converge or returned garbage."""
