"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class ConfigError(ValueError):
    """Invalid run configuration (CLI exit code 2)."""


class NotABracketError(ValueError):
    """A root finder was given an interval whose ends have one sign."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge."""


class NoRealRootError(RuntimeError):
    """A bracket scan found no sign change; the transcendental equation has
    no real solution in the searched window."""

    def __init__(self, message, *, window=None, min_abs_residual=None):
        super().__init__(message)
        self.window = window
        self.min_abs_residual = min_abs_residual


class TMatrixPoleError(RuntimeError):
    """Evaluation requested at (or numerically on top of) a T-matrix pole."""


class NoPoleError(RuntimeError):
    """The p-wave channel supports no bound-state pole for these parameters."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to meet the requested tolerance."""


class StepSizeError(ValueError):
    """Grid step too coarse for the requested integration."""
