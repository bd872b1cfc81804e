"""Condition verifiers and counting-bound certificates.

``verify`` decides which of the three conditions a system satisfies:

* ``bollobas`` (pairs only): components of each pair disjoint/independent, and
  A_i meets B_j for every ordered pair i != j;
* ``skew``: same clause (i), and for i < j some component pair p < q has
  A_i^(p) meeting A_j^(q);
* ``weak``: as skew, but either orientation of the (p, q) pair counts.

For subspace d-tuples, clause (i) is dimension additivity of the component
sum (direct-sum independence), which for d >= 3 is strictly stronger than
pairwise zero intersections.

A false verdict always carries the lexicographically first violating witness
(i, j, clause), 1-based, with i = j marking a clause-(i) failure.  Duplicate
tuples never survive verification: two equal tuples have componentwise
trivial cross intersections, which breaks clause (ii).

Verdicts and certificates over GF(p) carry a caveat flag: the inequalities
and counting lemmas this package checks are theorems for real vector spaces,
so prime-field runs are exploration, not theorem checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, ShapeError
from .exact_arith import PrimeField, Rational, binomial, rational_to_str
from .subspace_algebra import Subspace, dim_of_sum
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

FLAVORS = ("bollobas", "skew", "weak")

CLAUSE_COMPONENT = "component"  # clause (i): within-tuple disjointness/independence
CLAUSE_CROSS = "cross"  # clause (ii): cross-tuple intersection requirement


@dataclass(frozen=True)
class ConditionKind:
    """A named condition: flavor x system kind x arity, plus the monotone flag
    used by the size-monotone skew inequality."""

    flavor: str
    kind: str  # "set" | "subspace"
    d: int
    monotone: bool = False

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if self.kind not in ("set", "subspace"):
            raise ValueError(f"unknown system kind {self.kind!r}")
        if self.flavor == "bollobas" and self.d != 2:
            raise ShapeError("the bollobas condition is defined for pairs only")

    def __str__(self) -> str:
        mono = ", monotone" if self.monotone else ""
        return f"{self.flavor} {self.kind} {self.d}-tuples{mono}"


def condition_for(system: System, flavor: str, monotone: bool = False) -> ConditionKind:
    kind = "set" if isinstance(system, SetSystem) else "subspace"
    return ConditionKind(flavor, kind, system.d, monotone)


@dataclass(frozen=True)
class VerificationReport:
    verdict: bool
    first_violation: tuple[int, int, str] | None
    condition: ConditionKind
    field_caveat: bool = False

    def __post_init__(self):
        if self.verdict == (self.first_violation is not None):
            raise ValueError("verdict and witness are inconsistent")


def _is_gfp(system: System) -> bool:
    return isinstance(system, SubspaceSystem) and isinstance(system.field, PrimeField)


# ---------------------------------------------------------------------------
# clause primitives, shared with the search module; components are bitmasks
# (sets) or Subspace values, and the two never mix within a tuple


def component_clause_ok(t) -> bool:
    """Clause (i): pairwise disjoint subsets / dimension-additive subspaces."""
    if not t or isinstance(t[0], int):
        seen = 0
        for mask in t:
            if mask & seen:
                return False
            seen |= mask
        return True
    return dim_of_sum(list(t)) == sum(sub.dim for sub in t)


def cross_nontrivial(x, y) -> bool:
    """Nonempty intersection (sets) / positive intersection dimension (subspaces)."""
    if isinstance(x, int):
        return bool(x & y)
    assert isinstance(x, Subspace) and isinstance(y, Subspace)
    if x.dim == 0 or y.dim == 0:
        return False
    return x.dim + y.dim > dim_of_sum([x, y])


def skew_clause_ok(ti, tj) -> bool:
    """Clause (ii) for i < j: some p < q with A_i^(p) meeting A_j^(q)."""
    d = len(ti)
    for p in range(d):
        for q in range(p + 1, d):
            if cross_nontrivial(ti[p], tj[q]):
                return True
    return False


def weak_clause_ok(ti, tj) -> bool:
    """Clause (ii) for i < j, either orientation of the component pair."""
    d = len(ti)
    for p in range(d):
        for q in range(p + 1, d):
            if cross_nontrivial(ti[p], tj[q]):
                return True
            if cross_nontrivial(ti[q], tj[p]):
                return True
    return False


# ---------------------------------------------------------------------------
# verification


def verify(system: System, flavor: str | ConditionKind, monotone: bool = False) -> VerificationReport:
    """Check the named condition, reporting the first violation in
    lexicographic (i, j) order."""
    if isinstance(flavor, ConditionKind):
        condition = flavor
        if condition.d != system.d or condition.kind != (
            "set" if isinstance(system, SetSystem) else "subspace"
        ):
            raise ShapeError(f"condition {condition} does not match the system shape")
    else:
        condition = condition_for(system, flavor, monotone)
    caveat = _is_gfp(system)

    tuples = system.tuples
    m = system.m
    component_ok = [component_clause_ok(t) for t in tuples]
    for i in range(m):
        for j in range(m):
            if i == j:
                if not component_ok[i]:
                    return VerificationReport(False, (i + 1, j + 1, CLAUSE_COMPONENT), condition, caveat)
            elif condition.flavor == "bollobas":
                if not cross_nontrivial(tuples[i][0], tuples[j][1]):
                    return VerificationReport(False, (i + 1, j + 1, CLAUSE_CROSS), condition, caveat)
            elif j > i:
                clause = skew_clause_ok if condition.flavor == "skew" else weak_clause_ok
                if not clause(tuples[i], tuples[j]):
                    return VerificationReport(False, (i + 1, j + 1, CLAUSE_CROSS), condition, caveat)
    return VerificationReport(True, None, condition, caveat)


def is_skew_implies_weak_check(system: System) -> bool:
    """skew verified => weak verified; holds for every system (property hook)."""
    if system.d < 2:
        return True
    if not verify(system, "skew").verdict:
        return True
    return verify(system, "weak").verdict


def is_monotone_pair_profile(system: System) -> bool:
    """a_1 <= ... <= a_m and b_1 >= ... >= b_m for a pair system."""
    if system.d != 2:
        raise ShapeError("monotone profile is defined for pair systems")
    sizes = [tuple_sizes(system, i) for i in range(1, system.m + 1)]
    return all(s[0] <= t[0] for s, t in zip(sizes, sizes[1:])) and all(
        s[1] >= t[1] for s, t in zip(sizes, sizes[1:])
    )


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class ClassCount:
    """One type class: its profile, how many tuples realize it, and the
    counting bound the profile licenses."""

    profile: tuple
    count: int
    bound: int


@dataclass(frozen=True)
class Certificate:
    """A checked assertion with its exact quantities.

    ``quantities`` holds (name, exact-string) pairs; ``classes`` is populated
    by type-class certificates; GF(p) findings are recorded, never raised.
    """

    check: str
    holds: bool
    quantities: tuple[tuple[str, str], ...]
    classes: tuple[ClassCount, ...] = ()
    field_caveat: bool = False
    findings: tuple[str, ...] = ()

    def quantity(self, name: str) -> str:
        for key, value in self.quantities:
            if key == name:
                return value
        raise KeyError(name)


def _require_verified(system: System, flavor: str, check: str) -> VerificationReport:
    report = verify(system, flavor)
    if not report.verdict:
        raise PreconditionError(
            f"{check} needs the {flavor} condition; violated at {report.first_violation}"
        )
    return report


def check_uniform_pair_bound(system: System) -> Certificate:
    """m <= C(a+b, a) for a verified skew pair system with uniform sizes."""
    if system.d != 2:
        raise ShapeError("uniform pair bound needs a pair system")
    report = _require_verified(system, "skew", "uniform pair bound")
    sizes = {tuple_sizes(system, i) for i in range(1, system.m + 1)}
    if len(sizes) > 1:
        raise PreconditionError(f"sizes are not uniform: {sorted(sizes)}")
    a, b = sizes.pop() if sizes else (0, 0)
    bound = binomial(a + b, a)
    m = system.m
    return Certificate(
        check="uniform-skew-pair-count",
        holds=m <= bound,
        quantities=(
            ("m", str(m)),
            ("a", str(a)),
            ("b", str(b)),
            ("bound", str(bound)),
            ("tight", str(m == bound).lower()),
        ),
        field_caveat=report.field_caveat,
    )


def check_partitioned_uniform_bound(system: System) -> Certificate:
    """m <= prod_k C(a_k + b_k, a_k) for a verified skew pair system whose
    per-block profile is the same for every pair: a partitioned set system,
    or a decomposition-compatible subspace system."""
    if isinstance(system, SetSystem):
        context, name, check = "partition", "partitioned", "partitioned"
        uneven = "per-block profile is"
    else:
        context, name, check = "decomposition", "decomposition", "decomposed"
        uneven = "per-component dims are"
    if system.d != 2:
        raise ShapeError("needs a pair system")
    if not has_context(system):
        raise ShapeError(f"needs a {context}")
    if isinstance(system, SubspaceSystem) and not is_decomposition_compatible(system):
        raise PreconditionError("system is not decomposition-compatible")
    report = _require_verified(system, "skew", f"{name} uniform bound")
    profiles = {pair_block_profile(system, i) for i in range(1, system.m + 1)}
    if len(profiles) > 1:
        raise PreconditionError(f"{uneven} not uniform across pairs")
    profile = profiles.pop() if profiles else tuple((0, 0) for _ in block_sizes(system))
    bound = 1
    for a_k, b_k in profile:
        bound *= binomial(a_k + b_k, a_k)
    return Certificate(
        check=f"{check}-uniform-skew-pair-count",
        holds=system.m <= bound,
        quantities=(
            ("m", str(system.m)),
            ("profile", str(profile)),
            ("bound", str(bound)),
        ),
        field_caveat=report.field_caveat,
    )


def check_cardinality_lemmas(system: System) -> Certificate:
    """The uniform counting bounds licensed by whichever condition holds.

    Skew subspace systems: m <= 2^n for pairs and m <= d^n in general.
    Weak set systems: m <= (d+1)^n, plus m <= (a+b)^(a+b) / (a^a b^b) when the
    pair sizes are uniform.  Over GF(p) a violated bound is recorded as a
    finding with the caveat flag, never as an error.
    """
    lines: list[tuple[str, Rational, Rational]] = []
    caveat = _is_gfp(system)
    m = system.m
    if isinstance(system, SubspaceSystem):
        report = verify(system, "skew")
        if report.verdict:
            if system.d == 2:
                lines.append(("skew-subspace-pair-count <= 2^n", Fraction(m), Fraction(2**system.n)))
            lines.append(
                (
                    "skew-subspace-tuple-count <= d^n",
                    Fraction(m),
                    Fraction(system.d**system.n),
                )
            )
    else:
        report = verify(system, "weak")
        if report.verdict:
            lines.append(
                (
                    "weak-set-tuple-count <= (d+1)^n",
                    Fraction(m),
                    Fraction((system.d + 1) ** system.n),
                )
            )
            if system.d == 2 and m > 0:
                sizes = {tuple_sizes(system, i) for i in range(1, m + 1)}
                if len(sizes) == 1:
                    a, b = sizes.pop()
                    # (a+b)^(a+b) / (a^a * b^b), with 0^0 = 1
                    num = Fraction((a + b) ** (a + b))
                    den = Fraction((a**a if a else 1) * (b**b if b else 1))
                    lines.append(
                        ("uniform-weak-pair-count <= (a+b)^(a+b)/(a^a b^b)", Fraction(m), num / den)
                    )
    if not lines:
        raise PreconditionError(
            "no counting bound applies: the system verifies neither "
            "skew (subspaces) nor weak (sets)"
        )
    findings = tuple(
        f"violated over {system.field}: {name} with m={rational_to_str(value)}, "
        f"bound={rational_to_str(bound)}"
        for name, value, bound in lines
        if value > bound and caveat
    )
    holds = all(value <= bound for _, value, bound in lines)
    quantities = [("m", str(m))]
    for name, value, bound in lines:
        quantities.append((name, rational_to_str(bound)))
    return Certificate(
        check="cardinality-bounds",
        holds=holds,
        quantities=tuple(quantities),
        field_caveat=caveat,
        findings=findings,
    )
