"""Shared exception types."""


class DimensionError(ValueError):
    """Shapes or extents incompatible with the requested operation."""


class NumericError(ArithmeticError):
    """Non-finite values where finite data is required."""


class ConfigurationError(ValueError):
    """Invalid or inconsistent configuration values."""

