"""Package exception types."""


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


class NumericError(ArithmeticError):
    """A numerical routine failed to reach its requested accuracy."""
