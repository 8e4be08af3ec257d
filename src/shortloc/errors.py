"""Exception hierarchy shared across the package."""


class ShortlocError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ShortlocError):
    """Operands live in incompatible spaces."""


class BadParams(ShortlocError):
    """Invalid arguments for a constructor or preset."""


class SurjectivityViolation(ShortlocError):
    """Structure constants do not span the degree-two part."""


class AlgebraMismatch(ShortlocError):
    """Modules or representations belong to different algebras."""


class LoewyTooLong(ShortlocError):
    """Operation requires a module of Loewy length at most 2."""


class ZeroModule(ShortlocError):
    """Operation is undefined for the zero module."""


class WrongHilbertType(ShortlocError):
    """Operation requires a specific relation between e and a."""


class NotSelfInjective(ShortlocError):
    """Operation requires a self-injective algebra."""


class HypothesisNotMet(ShortlocError):
    """A stated precondition of a formula does not hold."""


class ResourceCapExceeded(ShortlocError):
    """An intermediate module grew past the configured dimension cap, or a result past a size bound.

    ``what`` names the size: a module's dimension unless another is given.
    """

    def __init__(self, dim: int, cap: int, what: str = "intermediate module of dimension"):
        super().__init__(f"{what} {dim} exceeds cap {cap}")
        self.dim = dim
        self.cap = cap


class InvariantViolation(ShortlocError):
    """An internal consistency check failed; this signals an engine bug."""
