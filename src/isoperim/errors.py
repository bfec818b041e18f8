"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ArgumentError(ValueError):
    """Arguments are inconsistent with each other (e.g. a conserved sum is violated)."""


class _SolverError(RuntimeError):
    """A root solve failed; n, bracket and residual are None where they do not apply."""

    def __init__(self, message: str, *, n=None, bracket=None, residual=None) -> None:
        super().__init__(message)
        self.n, self.bracket, self.residual = n, bracket, residual


class BracketError(_SolverError):
    """A root bracket could not be established (endpoint signs agree)."""


class ConvergenceError(_SolverError):
    """An iterative solver exhausted its iteration budget."""
