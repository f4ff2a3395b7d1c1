"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ConfigurationError(ValueError):
    """A configuration value is missing, unknown, or out of range."""


class ContractViolation(RuntimeError):
    """An operation was called in a state its contract forbids."""


class GradientError(RuntimeError):
    """A forward or gradient computation produced NaN/Inf, or a gradient
    could not be verified."""


class SimulationError(RuntimeError):
    """The thermal simulation left its admissible state region."""


class ParseError(ValueError):
    """An input file does not match its documented schema."""

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class CheckpointError(RuntimeError):
    """A checkpoint file is corrupt, truncated, or of an unknown version."""
