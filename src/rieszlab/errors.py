"""Exception types shared across the package."""


class RieszError(Exception):
    """Base class for all workbench errors."""


class SpaceMismatch(RieszError):
    """Operands (or an operator and its argument) live in different spaces."""


class MalformedElement(RieszError):
    """Raw payload does not fit the structural requirements of its space."""


class Unsupported(RieszError):
    """The requested object does not exist in this space."""


class PreconditionError(RieszError):
    """A documented precondition of an operation was violated."""


class EnumerationCapExceeded(PreconditionError):
    """An enumeration would exceed its cap: the size asked for, as a
    check's configuration can ask, is beyond what is supported."""


class UnknownCheck(RieszError):
    """No registered check with the requested id."""
