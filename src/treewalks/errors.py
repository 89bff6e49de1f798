"""Shared exception types: validation failures vs numerical non-convergence."""

__all__ = ["ValidationError", "ConvergenceError"]


class ValidationError(ValueError):
    """Bad input: malformed spec, unmet precondition, unusable parameters."""


class ConvergenceError(RuntimeError):
    """A numerical routine ran out of budget or detected divergence."""
