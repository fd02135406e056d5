"""Exception types shared across the package."""


class CanceError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CanceError):
    """Invalid or inconsistent run configuration."""


class ShapeError(CanceError):
    """Array dimensions do not match what an operation requires."""


class NonFiniteError(CanceError):
    """A computation produced or received NaN/Inf values."""


class ModelFormatError(CanceError):
    """A model file is malformed, truncated, or of the wrong version."""


class DataFormatError(CanceError):
    """An input data file cannot be parsed."""


class DegenerateFeatureError(CanceError):
    """A feature or label column is degenerate (zero variance, non-positive
    mean, a single class)."""
