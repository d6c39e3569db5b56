"""Exception types shared across the simulator."""


class FwsimError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FwsimError, ValueError):
    """Malformed edge-list input. Carries the 1-based line number when known."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ConfigError(FwsimError, ValueError):
    """Invalid hardware configuration, workload parameter, or sweep spec."""


class GuardError(FwsimError, RuntimeError):
    """A problem size exceeds a guard intended to keep a code path tractable."""
