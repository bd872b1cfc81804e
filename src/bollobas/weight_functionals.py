"""Weights and the inequalities they satisfy.

Every functional evaluates to an exact rational.  Values are always
computable; a <=-verdict is produced only after the condition that licenses
the bound has been verified, because several of these sums exceed their
bounds on systems that merely look similar (the plain binomial sum, for one,
can exceed 1 on skew systems without the monotonicity assumption).

Pair functionals, with a_i = |A_i| (or dim A_i) and b_i likewise:

* ``bollobas_sum``       sum_i 1 / C(a_i + b_i, a_i)             <= 1 under bollobas
* ``scott_wilmer_sum``   same sum                                <= 1 under skew + monotone profile
* ``hegedus_frankl_sum`` sum_i 1 / C(a_i + b_i, b_i)             <= n + 1 under skew
* ``yue_sum``            sum_i 1 / ((1+a_i+b_i) C(a_i+b_i, a_i)) <= 1 under skew
* ``partitioned_yue_sum``      per-block product of yue terms    <= 1 under skew + context
* ``partitioned_bollobas_sum`` per-block product of plain terms  <= prod_k (1+n_k) under skew + context

Tuple functional, any arity, with a probability vector p:

* ``tuza_sum``  sum_i prod_l p_l^(size of component l)  <= 1 under weak (sets)
  or skew (subspaces); the weak subspace case is open and is refused.

The saturation potentials live with the flavors they terminate, in
:mod:`bollobas.saturation_engine`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import LicensingError, PreconditionError, ShapeError
from .exact_arith import PrimeField, ProbabilityVector, Rational, binomial
from .systems_model import (
    SetSystem,
    SubspaceSystem,
    System,
    block_sizes,
    has_context,
    is_decomposition_compatible,
    pair_block_profile,
    tuple_sizes,
)
from .verifiers import ConditionKind, condition_for, is_monotone_pair_profile, verify

PAIR_FUNCTIONALS = (
    "bollobas_sum",
    "scott_wilmer_sum",
    "hegedus_frankl_sum",
    "yue_sum",
    "partitioned_yue_sum",
    "partitioned_bollobas_sum",
)
FUNCTIONALS = PAIR_FUNCTIONALS + ("tuza_sum",)


@dataclass(frozen=True)
class FunctionalKind:
    """A functional name plus, for tuza_sum, its probability vector."""

    name: str
    p: ProbabilityVector | None = None

    def __post_init__(self):
        if self.name not in FUNCTIONALS:
            raise ValueError(f"unknown functional {self.name!r}; choose from {FUNCTIONALS}")
        if self.name == "tuza_sum" and self.p is None:
            raise ValueError("tuza_sum needs a probability vector")
        if self.name != "tuza_sum" and self.p is not None:
            raise ValueError(f"{self.name} takes no probability vector")

    def __str__(self) -> str:
        return self.name if self.p is None else f"{self.name}(p={self.p})"


def tuza(p: ProbabilityVector | tuple) -> FunctionalKind:
    if not isinstance(p, ProbabilityVector):
        p = ProbabilityVector(tuple(Fraction(x) for x in p))
    return FunctionalKind("tuza_sum", p)


def _as_kind(kind: str | FunctionalKind) -> FunctionalKind:
    if isinstance(kind, FunctionalKind):
        return kind
    return FunctionalKind(kind)


@dataclass(frozen=True)
class InequalityVerdict:
    """An exact value against its licensed bound."""

    value: Rational
    bound: Rational
    holds: bool
    tight: bool
    licensed_by: ConditionKind
    field_caveat: bool = False

    def __post_init__(self):
        if self.holds != (self.value <= self.bound):
            raise ValueError("holds flag inconsistent with value/bound")
        if self.tight and not self.holds:
            raise ValueError("tight verdicts must hold")


# ---------------------------------------------------------------------------
# values


def _require_context(system: System, name: str) -> None:
    if not has_context(system):
        raise ShapeError(f"{name} needs a partition/decomposition on the system")


def term(profile: tuple, kind: str | FunctionalKind) -> Fraction:
    """The weight of one tuple of the given profile; every functional is the
    sum of these terms over the tuples of a system.

    The profile is the size/dimension vector (a_1, ..., a_d), or for the
    ``partitioned_*`` functionals the per-block pairs ((a_1, b_1), ...,
    (a_r, b_r)).  A pair term is a product over blocks, a plain pair being
    one block: 1 / C(a+b, a), times 1 / (1+a+b) for the yue kinds (C(a+b, b)
    is the same binomial).  The tuza term is prod_l p_l^(a_l).
    """
    kind = _as_kind(kind)
    name = kind.name
    if name == "tuza_sum":
        assert kind.p is not None
        if kind.p.d != len(profile):
            raise ShapeError(f"p has {kind.p.d} entries, system arity is {len(profile)}")
        value = Fraction(1)
        for p_l, size in zip(kind.p.entries, profile):
            value *= p_l**size
        return value
    if name.startswith("partitioned_"):
        if not all(isinstance(block, tuple) for block in profile):
            raise ShapeError(f"{name} needs a per-block (a_k, b_k) profile")
        blocks = profile
    elif len(profile) != 2:
        raise ShapeError(f"{len(profile)}-tuple system where a pair system is needed")
    else:
        blocks = (profile,)
    yue = name in ("yue_sum", "partitioned_yue_sum")
    den = 1
    for a, b in blocks:
        den *= binomial(a + b, a) * (1 + a + b if yue else 1)
    return Fraction(1, den)


def _scaled(terms: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(S, [t * S]) with S the least common multiple of the denominators:
    sums and comparisons of terms in integers."""
    scale = lcm(*(t.denominator for t in terms))
    return scale, [t.numerator * (scale // t.denominator) for t in terms]


def omega(system: System, kind: str | FunctionalKind) -> Rational:
    """Exact value of the named functional: the tuples are counted by
    profile, and each profile adds count x :func:`term`.  An empty system
    weighs 0."""
    kind = _as_kind(kind)
    name = kind.name
    if name == "scott_wilmer_sum" and not is_monotone_pair_profile(system):
        raise PreconditionError(
            "scott_wilmer_sum needs a_1 <= ... <= a_m and b_1 >= ... >= b_m"
        )
    if name.startswith("partitioned_"):
        _require_context(system, name)
        profile_of = pair_block_profile
        zero: tuple = tuple((0, 0) for _ in block_sizes(system))
    else:
        profile_of = tuple_sizes
        zero = (0,) * system.d
    counts = Counter(profile_of(system, i) for i in range(1, system.m + 1))
    # an empty system still has its shape checked, on the all-zero profile
    return sum(
        (count * term(key, kind) for key, count in (counts.items() or [(zero, 0)])),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# licensed inequality verdicts


def _license(system: System, kind: FunctionalKind) -> ConditionKind:
    """Verify and return the condition licensing the bound, or refuse."""
    name = kind.name
    is_set = isinstance(system, SetSystem)

    if name == "bollobas_sum":
        report = verify(system, "bollobas")
        if report.verdict:
            return report.condition
        if is_monotone_pair_profile(system) and verify(system, "skew").verdict:
            return condition_for(system, "skew", monotone=True)
        raise LicensingError(
            "bollobas_sum <= 1 needs the full bollobas condition or a "
            "size-monotone skew system; it fails for general skew systems"
        )
    if name == "scott_wilmer_sum":
        if not is_monotone_pair_profile(system):
            raise PreconditionError(
                "scott_wilmer_sum needs a_1 <= ... <= a_m and b_1 >= ... >= b_m"
            )
        report = verify(system, "skew")
        if report.verdict:
            return condition_for(system, "skew", monotone=True)
        raise LicensingError(f"skew condition violated at {report.first_violation}")
    if name in ("hegedus_frankl_sum", "yue_sum"):
        report = verify(system, "skew")
        if report.verdict:
            return report.condition
        raise LicensingError(f"skew condition violated at {report.first_violation}")
    if name in ("partitioned_yue_sum", "partitioned_bollobas_sum"):
        _require_context(system, name)
        if isinstance(system, SubspaceSystem) and not is_decomposition_compatible(system):
            raise LicensingError(
                f"{name} bound needs a decomposition-compatible system"
            )
        report = verify(system, "skew")
        if report.verdict:
            return report.condition
        raise LicensingError(f"skew condition violated at {report.first_violation}")
    if name == "tuza_sum":
        if is_set:
            report = verify(system, "weak")
            if report.verdict:
                return report.condition
            raise LicensingError(f"weak condition violated at {report.first_violation}")
        report = verify(system, "skew")
        if report.verdict:
            return report.condition
        raise LicensingError(
            "tuza_sum <= 1 for subspaces is licensed by the skew condition only; "
            "whether it holds for weak subspace systems is open"
        )
    raise AssertionError(f"unhandled functional {name}")


def _bound(system: System, kind: FunctionalKind) -> Rational:
    name = kind.name
    if name == "hegedus_frankl_sum":
        return Fraction(system.n + 1)
    if name == "partitioned_bollobas_sum":
        bound = Fraction(1)
        for n_k in block_sizes(system):
            bound *= 1 + n_k
        return bound
    return Fraction(1)


def evaluate_inequality(system: System, kind: str | FunctionalKind) -> InequalityVerdict:
    """Exact verdict ``value <= bound`` under the licensing condition.

    Raises LicensingError when the condition the bound depends on does not
    hold; the value itself is still available through :func:`omega`.
    """
    kind = _as_kind(kind)
    value = omega(system, kind)  # also validates shape/arity
    licensed_by = _license(system, kind)
    bound = _bound(system, kind)
    caveat = isinstance(system, SubspaceSystem) and isinstance(system.field, PrimeField)
    return InequalityVerdict(
        value=value,
        bound=bound,
        holds=value <= bound,
        tight=value == bound,
        licensed_by=licensed_by,
        field_caveat=caveat,
    )


def phi(system: System, flavor: str) -> int:
    """:func:`bollobas.saturation_engine.phi`, under the name that
    ``bench/tracer.py`` reads as a layer."""
    from .saturation_engine import phi as potential  # that module imports this one

    return potential(system, flavor)
