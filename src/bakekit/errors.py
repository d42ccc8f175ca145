"""Exception types shared across the toolkit."""


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DegenerateBatchError(ValueError):
    """The batch is too small (or otherwise degenerate) for affinity ensembling."""


class ConfigError(ValueError):
    """A configuration value is outside its valid range."""


class DataFormatError(ValueError):
    """A dataset file does not match its documented binary layout."""
