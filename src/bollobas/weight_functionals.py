"""Weights and the inequalities they satisfy.

Every functional evaluates to an exact rational.  Values are always
computable; a <=-verdict is produced only after the condition that licenses
the bound has been verified, because several of these sums exceed their
bounds on systems that merely look similar (the plain binomial sum, for one,
can exceed 1 on skew systems without the monotonicity assumption).

Each functional is one :class:`Rule` in ``RULES``: how its per-tuple term
is read and which condition licenses its bound.  Pair functionals, with
a_i = |A_i| (or dim A_i) and b_i likewise:

* ``bollobas_sum``       sum_i 1 / C(a_i + b_i, a_i)             <= 1 under bollobas
* ``scott_wilmer_sum``   same sum                                <= 1 under skew + monotone profile
* ``hegedus_frankl_sum`` sum_i 1 / C(a_i + b_i, b_i)             <= n + 1 under skew
* ``yue_sum``            sum_i 1 / ((1+a_i+b_i) C(a_i+b_i, a_i)) <= 1 under skew
* ``partitioned_yue_sum``      per-block product of yue terms    <= 1 under skew + context
* ``partitioned_bollobas_sum`` per-block product of plain terms  <= prod_k (1+n_k) under skew + context

Tuple functional, any arity, with a probability vector p:

* ``tuza_sum``  sum_i prod_l p_l^(size of component l)  <= 1 under weak (sets)
  or skew (subspaces); the weak subspace case is open and is refused.

bollobas_sum is also licensed by skew on a size-monotone profile, and the
partitioned bounds need a decomposition-compatible subspace system.

The saturation potentials live with the flavors they terminate, in
:mod:`bollobas.saturation_engine`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm, prod
from typing import Callable, NamedTuple, Sequence

from .errors import LicensingError, PreconditionError, ShapeError
from .exact_arith import ProbabilityVector, Rational
from .systems_model import (
    SetSystem,
    System,
    block_profiles,
    blocks_of,
    is_decomposition_compatible,
    sizes_of,
)
from .verifiers import ConditionKind, condition_for, count_bound, is_gfp, is_monotone_pair_profile, verify


class Rule(NamedTuple):
    """One functional's term and license.

    ``blocks``: the term reads the per-block (a_k, b_k) profile, and the
    bound needs a context; ``yue``: each block's term carries the extra
    1 / (1 + a + b); ``flavor``: the condition that licenses the bound, and
    ``set_flavor`` its override on set systems; ``monotone``: the bound also
    needs a size-monotone pair profile; ``bound``: the bound, from the system;
    ``takes_p``: the functional is a tuple functional, whose term reads a
    probability vector p instead of a pair profile.
    """

    flavor: str = "skew"
    set_flavor: str | None = None
    blocks: bool = False
    yue: bool = False
    monotone: bool = False
    bound: Callable[[System], int] = lambda system: 1
    takes_p: bool = False


RULES = {
    "bollobas_sum": Rule(flavor="bollobas"),
    "scott_wilmer_sum": Rule(monotone=True),
    "hegedus_frankl_sum": Rule(bound=lambda system: system.n + 1),
    "yue_sum": Rule(yue=True),
    "partitioned_yue_sum": Rule(blocks=True, yue=True),
    "partitioned_bollobas_sum": Rule(
        blocks=True, bound=lambda system: prod(1 + n_k for n_k in sizes_of(blocks_of(system)))
    ),
    "tuza_sum": Rule(set_flavor="weak", takes_p=True),
}
FUNCTIONALS = tuple(RULES)


@dataclass(frozen=True)
class FunctionalKind:
    """A functional name plus, for a functional that takes p (tuza_sum),
    its probability vector."""

    name: str
    p: ProbabilityVector | None = None

    def __post_init__(self):
        if self.name not in FUNCTIONALS:
            raise ShapeError(f"unknown functional {self.name!r}; choose from {FUNCTIONALS}")
        takes_p = RULES[self.name].takes_p
        if takes_p and self.p is None:
            raise ShapeError(f"{self.name} needs a probability vector")
        if not takes_p and self.p is not None:
            raise ShapeError(f"{self.name} takes no probability vector")

    def __str__(self) -> str:
        return self.name if self.p is None else f"{self.name}(p={self.p})"

    @cached_property
    def p_key(self) -> tuple | None:
        """p as (numerator, denominator) pairs, or None: a key for
        :func:`term`'s cache that hashes and compares without a ``Fraction``
        method call."""
        if self.p is None:
            return None
        return tuple((e.numerator, e.denominator) for e in self.p.entries)


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


def term(profile: tuple, kind: str | FunctionalKind) -> Fraction:
    """The weight of one tuple of the given profile; every functional is the
    sum of these terms over the tuples of a system.  Terms are memoized per
    process, keyed on the profile, the name and the ints of p: saturation,
    ``omega`` and the search ask for the same few profiles over and over.

    The profile is the size/dimension vector (a_1, ..., a_d), or for the
    ``partitioned_*`` functionals the per-block pairs ((a_1, b_1), ...,
    (a_r, b_r)).  A pair term is a product over blocks, a plain pair being
    one block: 1 / C(a+b, a), times 1 / (1+a+b) for the yue kinds (C(a+b, b)
    is the same binomial).  The tuza term is prod_l p_l^(a_l).
    """
    if isinstance(kind, FunctionalKind):
        return _term(profile, kind.name, kind.p_key)
    return _term(profile, kind, None)


@lru_cache(maxsize=1 << 12)
def _term(profile: tuple, name: str, p_key: tuple | None) -> Fraction:
    if p_key is None:
        FunctionalKind(name)  # refuses an unknown name, and tuza_sum with no p
    else:  # a FunctionalKind with a p is tuza_sum
        if len(p_key) != len(profile):
            raise ShapeError(f"p has {len(p_key)} entries, system arity is {len(profile)}")
        value = Fraction(1)
        for (num, den), size in zip(p_key, profile):
            value *= Fraction(num, den) ** size
        return value
    rule = RULES[name]
    if rule.blocks:
        if not all(isinstance(block, tuple) for block in profile):
            raise ShapeError(f"{name} needs a per-block (a_k, b_k) profile")
        blocks = profile
    elif len(profile) != 2:
        raise ShapeError(f"{len(profile)}-tuple system where a pair system is needed")
    else:
        blocks = (profile,)
    den = count_bound(blocks)
    if rule.yue:
        den *= prod(1 + a + b for a, b in blocks)
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
    rule = RULES[kind.name]
    if rule.monotone and not is_monotone_pair_profile(system):
        raise PreconditionError(
            f"{kind.name} needs a_1 <= ... <= a_m and b_1 >= ... >= b_m"
        )
    if rule.blocks:
        if blocks_of(system) is None:
            raise ShapeError(f"{kind.name} needs a partition/decomposition on the system")
        blocks, profiles = block_profiles(system)
        counts = Counter(profiles)
        zero: tuple = ((0, 0),) * len(blocks)
    else:
        counts = Counter(map(sizes_of, system.tuples))
        zero = (0,) * system.d
    # an empty system still has its shape checked, on the all-zero profile
    return sum(
        (count * term(key, kind) for key, count in (counts.items() or [(zero, 0)])),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# licensed inequality verdicts


def _license(system: System, kind: FunctionalKind) -> ConditionKind:
    """Verify and return the condition licensing the bound, or refuse.
    :func:`omega` has already checked the context and the monotone profile
    that the rule needs."""
    name = kind.name
    rule = RULES[name]
    is_set = isinstance(system, SetSystem)
    if rule.blocks and not is_set and not is_decomposition_compatible(system):
        raise LicensingError(f"{name} bound needs a decomposition-compatible system")
    flavor = rule.set_flavor if is_set and rule.set_flavor else rule.flavor
    report = verify(system, flavor)
    if report.verdict:
        return condition_for(system, flavor, rule.monotone)
    if name == "bollobas_sum":
        if is_monotone_pair_profile(system) and verify(system, "skew").verdict:
            return condition_for(system, "skew", monotone=True)
        raise LicensingError(
            "bollobas_sum <= 1 needs the full bollobas condition or a "
            "size-monotone skew system; it fails for general skew systems"
        )
    if name == "tuza_sum" and not is_set:
        raise LicensingError(
            "tuza_sum <= 1 for subspaces is licensed by the skew condition only; "
            "whether it holds for weak subspace systems is open"
        )
    raise LicensingError(f"{flavor} condition violated at {report.first_violation}")


def evaluate_inequality(system: System, kind: str | FunctionalKind) -> InequalityVerdict:
    """Exact verdict ``value <= bound`` under the licensing condition.

    Raises LicensingError when the condition the bound depends on does not
    hold; the value itself is still available through :func:`omega`.
    """
    kind = _as_kind(kind)
    value = omega(system, kind)  # also validates shape/arity
    licensed_by = _license(system, kind)
    bound = Fraction(RULES[kind.name].bound(system))
    return InequalityVerdict(
        value=value,
        bound=bound,
        holds=value <= bound,
        tight=value == bound,
        licensed_by=licensed_by,
        field_caveat=is_gfp(system),
    )


def phi(system: System, flavor: str) -> int:
    """:func:`bollobas.saturation_engine.phi`, under the name that
    ``bench/tracer.py`` reads as a layer."""
    from .saturation_engine import phi as potential  # that module imports this one

    return potential(system, flavor)
