"""Exception types shared across the package, and :class:`Frozen`, the base
of its immutable values.  Every input refusal is a :class:`ShapeError`,
which the CLI reports as usage (exit 2), or a :class:`PreconditionError`,
reported as refused (exit 1)."""


class Frozen:
    """Base of the package's immutable values: slotted classes that behave as
    frozen dataclasses would, with no code generated at import.

    A subclass names its value fields, in ``__init__`` parameter order, in
    ``_fields``, lists them (and any other attribute) in ``__slots__``, and
    sets each in ``__init__`` with ``object.__setattr__``.  Equality (another
    class gives ``NotImplemented``), the hash (that of the tuple of fields),
    the repr and pickling read ``_fields`` alone; a copy or an unpickled value
    is rebuilt through ``__init__``.  Assignment and deletion raise
    ``dataclasses.FrozenInstanceError``, imported only then.  A subclass that
    defines ``__eq__`` defines ``__hash__`` too."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


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
