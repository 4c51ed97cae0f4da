"""Exception types shared across the package."""


class MimoBcError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MimoBcError, ValueError):
    """Rejected input: a bad value or shape, a broken structural rule, or a config error."""


class NumericalRankError(MimoBcError, ArithmeticError):
    """A Gram matrix is too ill-conditioned for the requested operation."""
