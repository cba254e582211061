"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside the certified domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested exactly at a pole."""


class ConvergenceError(RuntimeError):
    """An iterative scheme or quadrature failed its own residual check."""
