"""Exception types shared across the package, :class:`Frozen`, the base of
its immutable values, and the size limits every entry point reads.  Every
input refusal is a :class:`ShapeError`, which the CLI reports as usage
(exit 2), or a :class:`PreconditionError`, reported as refused (exit 1)."""

_set = object.__setattr__


class Frozen:
    """Base of the package's immutable values: slotted classes that behave as
    frozen dataclasses would, with no code generated at import.

    A subclass names its value fields, in ``__init__`` parameter order, in
    ``_fields`` and lists them (and any other attribute) in ``__slots__``.
    Its ``__init__`` passes the values, in that order, to ``self._init``;
    an attribute that is not a field is set with ``object.__setattr__``.
    Equality (another class gives ``NotImplemented``), the hash (that of the
    tuple of fields), the repr and pickling read ``_fields`` alone; a copy or
    an unpickled value is rebuilt through ``__init__``.  Assignment and
    deletion raise ``dataclasses.FrozenInstanceError``, imported only then.
    A subclass that defines ``__eq__`` defines ``__hash__`` too."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _set(self, name, value)

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
    """A fill-up step produced a tuple already present in the system, seen
    by ``saturate`` as two equal final tuples.

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


# Largest ground dimension and arity any entry point accepts.  They sit far
# above every exhaustive guard; without them a few bytes of input could ask
# for work such as building the bignum 3^n.
MAX_N = 64
MAX_D = 16
# most tuples a constructed family, a saturated system or a random system may have
DEFAULT_TUPLE_BUDGET = 4096


def check_sizes(sizes: dict[str, int], prefix: str) -> None:
    """Refuse a size outside its range before any work is sized by it: a
    ground dimension or family parameter n, a, b or a+b outside
    [0, MAX_N], an arity d outside [1, MAX_D].  ``prefix`` makes the name the message
    gives: "--" for --n, "--params " for a construct param, "" for a
    library argument or a document's n or d."""
    for key, value in sizes.items():
        low, cap = (1, MAX_D) if key == "d" else (0, MAX_N)
        if not low <= value <= cap:
            raise ShapeError(f"{prefix}{key}={value} is outside [{low}, {cap}]")
