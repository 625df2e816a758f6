"""Exception taxonomy shared by all modules."""


class AnopError(Exception):
    """Base class for all library errors."""


class ShapeMismatch(AnopError):
    pass


class SchemaError(AnopError):
    """Raised on malformed operator files; carries a field path when known."""

    def __init__(self, message, path=None):
        self.path = path
        if path:
            message = f"{message} (at {path})"
        super().__init__(message)


class NSmallerThanBand(AnopError):
    pass


class UncertifiedTail(AnopError):
    """Asymptotic data without entries or certificates for the requested use."""


class NotSelfAdjoint(AnopError):
    pass


class FiniteComponent(AnopError):
    pass


class NotPositive(AnopError):
    pass


class NotAN(AnopError):
    pass


class NotNormAttaining(AnopError):
    pass


class StarParanormalRefuted(AnopError):
    pass


class StructureViolation(AnopError):
    """A certified precondition held but a theorem-implied identity failed."""


class NotInvertible(AnopError):
    pass


class InfiniteH2(AnopError):
    pass


class HypothesisFailed(AnopError):
    pass


class BadParams(AnopError):
    pass
