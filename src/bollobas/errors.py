"""Exception types shared across the package.  Every input refusal is a
:class:`ShapeError`, which the CLI reports as usage (exit 2), or a
:class:`PreconditionError`, reported as refused (exit 1)."""


class BollobasError(Exception):
    """Base class for every error of this package; raised bare for a broken
    invariant, which the CLI reports as internal."""


class ShapeError(BollobasError, ValueError):
    """Refused input: a system kind, arity or context that does not fit the
    operation, a size or budget outside its range, or text that does not
    parse.  A ``ValueError`` too, for callers that catch one.  Subclasses:
    :class:`FieldMismatchError`, :class:`BudgetError`,
    :class:`PartitionError` and :class:`DocumentError`."""


class PreconditionError(BollobasError):
    """A documented operation precondition was violated by the input.
    Subclasses: :class:`LicensingError` and :class:`DuplicateTupleError`."""


class FieldMismatchError(ShapeError):
    """Operands live in different ambient spaces or over different fields."""


class LicensingError(PreconditionError):
    """A bound was requested whose licensing condition is not verified.

    Weight values are always computable; inequality verdicts are refused
    unless the condition that makes the bound a theorem has been checked.
    """


class DuplicateTupleError(PreconditionError):
    """A fill-up step produced a tuple already present in the system.

    This cannot happen on inputs that verify their condition; raising instead
    of silently dropping keeps a violated proof assumption visible.
    """


class BudgetError(ShapeError):
    """An enumeration or search exceeded its configured budget or guard."""


class PartitionError(ShapeError):
    """Partition blocks overlap or leave part of the ground set uncovered.

    ``block`` is the 0-based index of the first block meeting an earlier one,
    or None when the blocks are disjoint but miss an element.
    """

    def __init__(self, message: str, block: int | None = None):
        self.block = block
        super().__init__(message)


class DocumentError(ShapeError):
    """A system document failed to parse or validate; the message starts
    with the location, when one is given."""

    def __init__(self, message: str, location: str | None = None):
        super().__init__(message if location is None else f"{location}: {message}")
