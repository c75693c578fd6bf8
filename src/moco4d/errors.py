"""Shared exception types, and the checks that configurations run at the
boundary."""

import math
import numbers


class DimensionError(ValueError):
    """Shapes or extents incompatible with the requested operation."""


class NumericError(ArithmeticError):
    """Non-finite values where finite data is required."""


class ConfigurationError(ValueError):
    """Invalid or inconsistent configuration values."""


def require_integers(cfg, *names):
    """Raise ConfigurationError unless each named field of cfg is an integer."""
    for name in names:
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def require_finite(cfg, *names):
    """Raise ConfigurationError unless each named field of cfg is a finite real
    number."""
    for name in names:
        value = getattr(cfg, name)
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not math.isfinite(value)):
            raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
