"""Exception types shared across the package."""


class AdessError(Exception):
    """Base class for all errors raised by this package."""


class UnknownBlock(AdessError):
    """A referenced block id is not present in the tree."""


class InvalidDifficulty(AdessError):
    """Block difficulty must be strictly positive."""


class NotPenalized(AdessError):
    """Requested a penalized score for a chain with no active penalty."""


class DomainError(AdessError):
    """A formula was evaluated outside its mathematical domain."""


class SolverFailure(AdessError):
    """An iterative solver did not converge within its iteration cap."""

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class ConfigError(AdessError):
    """A scenario configuration failed validation before any event ran."""
