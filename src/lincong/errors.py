"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument violates a precondition (wrong parity, bad modulus, ...)."""


class ConsistencyError(ArithmeticError):
    """An internal identity failed: a complex accumulation did not round to an
    integer within tolerance, or an exact rational result was not integral.
    Always indicates a bug, never bad user input."""


class BudgetExceededError(RuntimeError):
    """An oracle histogram would count more tuples than its budget allows.
    Raised before the histogram is built, so a partial (wrong) count is
    never returned."""
