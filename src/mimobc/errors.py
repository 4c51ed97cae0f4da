"""Exception types shared across the package."""


class MimoBcError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(MimoBcError, ValueError):
    """A system profile or experiment configuration violates a structural rule."""


class ValidationError(MimoBcError, ValueError):
    """Input data fails validation (dimensions, definiteness, value ranges)."""


class NumericalRankError(MimoBcError, ArithmeticError):
    """A Gram matrix is too ill-conditioned for the requested operation."""
