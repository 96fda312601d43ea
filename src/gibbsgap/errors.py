"""Exception types shared across the package; a dense solver raises numpy's own LinAlgError."""


class ValidationError(ValueError):
    """Invalid user input: bad pmf, bad scan spec, out-of-range parameter."""


class StateCapError(RuntimeError):
    """The requested state space exceeds the dense-algebra cap."""
