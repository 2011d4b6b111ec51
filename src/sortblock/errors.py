"""Exception hierarchy shared across the package."""


class SortblockError(Exception):
    """Base class for all package errors."""


class ShapeError(SortblockError):
    """Operands have incompatible or unexpected shapes."""


class ConfigError(SortblockError):
    """A configuration value violates its documented constraints."""


class FitError(SortblockError):
    """A least-squares system could not be solved (singular / rank-deficient)."""


class MissingDataError(SortblockError):
    """A trace or file lacks the data a consumer requires (e.g. light-mode trace)."""


class NonFiniteError(SortblockError):
    """A sampling step produced a latent holding inf or NaN."""


class ResourceError(SortblockError):
    """An operation would exceed its memory budget."""


class ParseError(SortblockError):
    """A structured input file (CSV, JSON, blob) is malformed."""
