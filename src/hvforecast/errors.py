"""Exception types shared across the package, and the rules for setting
values, which refuse a bad value with a `ConfigurationError` that names
the setting."""

import math
import numbers


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


def _integral(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_count(name: str, value, minimum: int) -> None:
    """The rule for a size or count setting: an integer, not a bool, of
    at least `minimum`."""
    if not _integral(value):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        sign = " (positive)" if minimum == 1 else ""
        raise ConfigurationError(
            f"{name} must be >= {minimum}{sign}, got {value!r}")


def check_seed(name: str, value) -> None:
    """The rule for a seed setting: an integer, not a bool, in [0, 2**64),
    the range numpy's `SeedSequence` takes as one word."""
    if not _integral(value):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if not 0 <= value < 2 ** 64:
        raise ConfigurationError(
            f"{name} must be in [0, 2**64), got {value!r}")


def check_number(name: str, value, sign: str = "") -> None:
    """The rule for a real-valued setting: a real number, not a bool,
    finite, and with `sign` "positive" or "non-negative", above or at
    least 0."""
    ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
          and (isinstance(value, numbers.Integral) or math.isfinite(value)))
    if ok and sign:
        ok = value > 0 if sign == "positive" else value >= 0
    if not ok:
        sign = f" and {sign}" if sign else ""
        raise ConfigurationError(
            f"{name} must be a finite number{sign}, got {value!r}")


def check_numbers(name: str, values, sign: str = "") -> None:
    """The rule for a list setting: a tuple or list whose every entry
    keeps `check_number`'s rule."""
    if not isinstance(values, (tuple, list)):
        raise ConfigurationError(
            f"{name} must be a list of numbers, got {values!r}")
    for value in values:
        check_number(f"{name} entry", value, sign)
