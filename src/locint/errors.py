"""Exception hierarchy.

``ValidationFailure`` covers malformed documents and broken axioms and maps
to CLI exit code 2; ``UndefinedOperation`` covers operations whose
preconditions do not hold and maps to exit code 3.  ``ConsistencyError``
marks a failed internal cross-check, i.e. a bug rather than bad input.
"""


class LocintError(Exception):
    pass


class ValidationFailure(LocintError):
    pass


class UndefinedOperation(LocintError):
    pass


class ConsistencyError(LocintError):
    pass


# -- document / axiom validation (exit 2) ----------------------------------

class MalformedDocument(ValidationFailure):
    pass


class NotALattice(ValidationFailure):
    pass


class NotDistributive(ValidationFailure):
    pass


class SizeLimitExceeded(ValidationFailure):
    pass


class InvalidScale(ValidationFailure):
    pass


class AxiomViolation(ValidationFailure):
    pass


class NotBoolean(ValidationFailure):
    pass


class InvalidArgument(ValidationFailure, ValueError):
    """A numeric argument outside its documented range (e.g. a
    decomposition horizon below 1); still a ValueError for library callers."""


# -- undefined operations (exit 3) ------------------------------------------

class NotComplemented(UndefinedOperation):
    pass


class CarrierMismatch(UndefinedOperation):
    pass


class NotFinite(UndefinedOperation):
    pass


class NegativeOperand(UndefinedOperation):
    pass


class NotNonnegative(UndefinedOperation):
    pass


class NotIntegrable(UndefinedOperation):
    pass
