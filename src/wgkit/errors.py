"""Shared exception types."""


class VerificationError(AssertionError):
    """A mathematical check that must hold exactly has failed."""


class BudgetExceeded(ValueError):
    """A job was refused because its estimated cost is over budget."""
