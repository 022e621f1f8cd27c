"""Exception types shared across the package."""


class NesscorrError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(NesscorrError, ValueError):
    """Matrix or vector dimensions are inconsistent with the operation."""


class SymmetryError(NesscorrError, ValueError):
    """A matrix violates a required symmetry (e.g. Hermiticity)."""


class ConvergenceError(NesscorrError, RuntimeError):
    """An iterative kernel failed to converge within its budget."""


class SingularMatrixError(NesscorrError, ValueError):
    """A matrix factorization hit an exactly zero pivot."""


class DomainError(NesscorrError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class BandEdgeError(DomainError):
    """A chemical potential lies outside the tight-binding band."""


class BiasError(DomainError):
    """An asymptotic formula was requested at zero bias, where it is invalid."""


class ScopeError(NesscorrError, ValueError):
    """A closed-form result was requested outside the regime where it exists."""


class BranchError(NesscorrError, ArithmeticError):
    """A logarithm or root sits on (or crosses) its branch cut."""


class SpectrumError(NesscorrError, ValueError):
    """A correlation-matrix spectrum strays outside [0, 1] beyond tolerance."""


class ConfigError(NesscorrError, ValueError):
    """An experiment configuration file is malformed or inconsistent."""
