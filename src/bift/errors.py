"""Exception types shared across the package."""


class BiftError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(BiftError):
    """Operand dimensions are incompatible."""


class HermiticityError(BiftError):
    """A matrix that must be Hermitian is not, beyond tolerance."""


class UnitarityError(BiftError):
    """A propagator that must be unitary is not, beyond tolerance."""


class ConsistencyError(BiftError):
    """Supplied data contradicts data derived from first principles
    (e.g. a state whose trace is not 1, or an analytic kernel whose
    marginals disagree with the attached spectra)."""


class DomainError(BiftError):
    """A scenario parameter lies outside its admissible range."""


class SizeError(BiftError):
    """The dense tuple table would exceed the size guard."""
