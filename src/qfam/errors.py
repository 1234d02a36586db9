"""Exception hierarchy for structural and numerical failures."""


class QfamError(Exception):
    """Base class for every error raised by this package."""


class InvalidDimensionError(QfamError):
    """An algebra was built from an empty or nonpositive dimension list."""


class IncompatibleAlgebraError(QfamError):
    """Operands live over different algebras or mismatched tensor factors."""


class InvalidMatrixError(QfamError):
    """A matrix does not have the shape its role requires, or has a
    non-finite entry where a finite one is needed."""


class DegenerateStateError(QfamError):
    """A functional is not faithful enough for the requested construction."""


class NotAHomomorphismError(QfamError):
    """A map failed *-homomorphism verification."""


class InvalidCharacterError(QfamError):
    """A functional is not a character of the expected algebra."""


class ResourceLimitError(QfamError):
    """An enumeration or a dense array would exceed its configured cap."""


class MissingComponentError(QfamError):
    """An optional structure component, such as a counit, is absent."""


class InvalidSemigroupError(QfamError):
    """A multiplication table is not associative or is malformed."""


class NotMagicError(QfamError):
    """A matrix of elements fails the magic unitary relations."""


class PreconditionError(QfamError):
    """A check was invoked with a violated hypothesis; the message names it."""


class DocumentParseError(QfamError):
    """An input document is malformed; the message carries field diagnostics."""
