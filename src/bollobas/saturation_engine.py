"""Weight-invariant fill-up, saturation to fullness, potentials, and
type-class certification.

The engine executes the constructive argument behind the inequalities: a
replacement step rewrites one non-full tuple into several fuller ones without
changing the weight, while an integer potential strictly increases; the
potential is bounded, so repetition reaches a system of full tuples, whose
type classes obey explicit counting bounds that force the weight below 1.

Three flavors, one :class:`Flavor` record each in ``FLAVORS``; a flavor's
potential is an exact integer, bounded as stated below:

* ``set``:   a set d-tuple missing some ground element x is replaced by the d
  tuples that add x to one coordinate each, in coordinate order.  The tuza
  weight is invariant because p_1 + ... + p_d = 1.  Potential: the sum of
  the component sizes, at most n(d+1)^n.
* ``pair``:  a decomposed subspace pair with a deficient block k gains a
  vector x from V_k outside (A ∩ V_k) + (B ∩ V_k); the pair is replaced by
  (A + <x>, B) FIRST and (A, B + <x>) second.  That order is forced: the
  earlier pair's A meets the later pair's B in <x>, so skewness survives;
  swapped, the two new pairs violate the skew clause between themselves.
  x is a canonical row of V_k outside A ∩ V_k, so A + <x> splits as A does
  with <x> added in block k (B + <x> likewise); the step records these
  components in the decomposition's memo, which then splits no
  replacement.  Potential: prod_k 2^(n_k - d_k) = 2^(s_1 + ... + s_r),
  with s_k = dim((A ∩ V_k) + (B ∩ V_k)) and d_k = n_k - s_k, at most 4^n.
* ``tuple``: a subspace d-tuple whose components do not span V gains <x> in
  each coordinate, coordinate order, like the set case.  x is the first unit
  vector e_c outside the span S of the components, read off S's canonical
  rows: e_c lies in S exactly when S's row of pivot c is e_c.  Potential:
  the sum of the component dimensions, at most n d^n.

Every step checks the invariants it claims on its own d + 1 tuples, and
raises instead of trusting them: the replacements' weight terms sum exactly
to the replaced tuple's term (as integers, each term scaled by the least
common multiple of the d + 1 denominators), their potentials exceed its
potential, and the running potential and the step count stay within the
bound.  The terms are a function of the d + 1 profiles, which each step
reads from its own tuples' facts, so the weight check runs once per class
of (replaced profile, replacement profiles) in a run, and a step of a class
the run has already checked passes it.  ω and φ of the whole system are
recomputed before the first step and after the last, and must equal the
start weight and the running potential; with ``debug`` they are also
recomputed, and the flavor's condition re-verified, after every step, which
``DEBUG_RECOUNT_BUDGET`` bounds.  A step costs O(d) tuple operations, not
O(m): each input tuple is expanded depth-first, a full tuple going to the
output and a non-full one's replacements onto a stack in reverse, and a
step hands on its replacements' facts (for sets the covered mask and the
size vector, which the potential and the weight term read).  Facts are
computed afresh for the input tuples and, in the closing check, for the
final ones, which must be full and pairwise distinct.  A whole-system
recount (the closing one, and ``debug``'s) reads each tuple's fresh facts
once, for its potential, its fullness and its profile, and weighs ω from
the profile counts by :func:`weigh`, the formula :func:`omega` uses.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Any

from .errors import (
    DEFAULT_TUPLE_BUDGET,
    BollobasError,
    BudgetError,
    DuplicateTupleError,
    Frozen,
    PreconditionError,
    ShapeError,
)
from .exact_arith import ProbabilityVector, Rational, rational_to_str
from .subspace_algebra import Subspace, dim_of_sum, extension_vector, rref
from .systems_model import (
    SetSystem,
    SubspaceSystem,
    System,
    is_decomposition_compatible,
    require_pairs,
    sizes_of,
    with_tuples,
)
from .verifiers import Certificate, ClassCount, count_bound, is_gfp, verify
from .weight_functionals import FunctionalKind, _scaled, omega, term, tuza, weigh

# Largest steps x final tuples that ``saturate(..., debug=True)`` recounts:
# it re-weighs and re-verifies the whole system after every step.  It admits
# n = 7, d = 3 from one empty triple (1093 steps x 2187 tuples).
DEBUG_RECOUNT_BUDGET = 2**22


class FillUpStep(Frozen):
    """One replacement: tuple ``index`` (1-based) rewritten using ``x``, the
    set flavor's ground element or a subspace flavor's vector as its
    canonical int row; for the pair flavor, ``block`` names the deficient
    V_k."""

    __slots__ = _fields = ("index", "block", "x")

    def __init__(self, index: int, block: int | None, x: int | tuple[int, ...]):
        self._init(index, block, x)


class SaturationTrace(Frozen):
    """A full fill-up run: every step keeps the weight ``omega``, and
    ``phis`` strictly increases and stays within the flavor's bound."""

    __slots__ = _fields = ("flavor", "functional", "steps", "omega", "phis", "final")

    def __init__(
        self,
        flavor: str,
        functional: FunctionalKind,
        steps: tuple[FillUpStep, ...],
        omega: Rational,
        phis: tuple[int, ...],
        final: System,
    ):
        self._init(flavor, functional, steps, omega, phis, final)


class Flavor:
    """One saturation flavor; ``FLAVORS`` holds one instance each.  Each
    defines ``shape`` (``ShapeError`` for another kind of system), a tuple's
    ``facts``, which a step hands on for its replacements, the ``deficit`` (0
    when full) and ``step`` read from them, and ``bound``, which caps the
    potential and the step count.  The defaults serve set and tuple: tuza
    weights, and size vectors as profiles (what :func:`term` weighs and
    :func:`count_bound` bounds) and type classes; the set flavor reads its
    size vector from its facts."""

    name: str
    condition: str  # verified before saturation and certification

    def precondition(self, system: System) -> None:
        """Refuse a system of the flavor's shape before its condition."""

    def functional(self, system: System, p: ProbabilityVector | None) -> FunctionalKind:
        return tuza(p if p is not None else ProbabilityVector.uniform(system.d))

    def potential(self, t: tuple, facts: Any) -> int:
        return sum(sizes_of(t))

    def profile(self, t: tuple, facts: Any) -> tuple:
        return sizes_of(t)

    def class_key(self, system: System, i: int, profile: tuple) -> tuple:
        return profile


# A step takes a non-full tuple t (number i, for messages), its facts and,
# from ``fill_up`` only, an ``at`` to use in place of its own choice of x or
# block; it returns (block, x, replacements, the replacements' facts).


class _SetFlavor(Flavor):
    name = "set"
    condition = "weak"

    def shape(self, system: System) -> None:
        if not isinstance(system, SetSystem):
            raise ShapeError("set saturation needs a set system")

    def facts(self, system: SetSystem, t: tuple) -> tuple[int, tuple]:
        """The mask of the ground elements some component holds, and the
        component sizes."""
        covered = 0
        for mask in t:
            covered |= mask
        return covered, sizes_of(t)

    def deficit(self, system: SetSystem, facts: tuple[int, tuple]) -> int:
        return system.n - facts[0].bit_count()

    def potential(self, t: tuple, facts: tuple[int, tuple]) -> int:
        return sum(facts[1])

    def profile(self, t: tuple, facts: tuple[int, tuple]) -> tuple:
        return facts[1]

    def step(self, system: SetSystem, t: tuple, i: int, facts: tuple, x: int | None = None):
        """x joins each coordinate in turn; without x, the lowest uncovered
        element.  Each replacement covers x too and has one size raised by 1."""
        covered, sizes = facts
        if x is None:
            x = (~covered & (covered + 1)).bit_length()
        elif not 1 <= x <= system.n:
            raise ShapeError(f"ground element {x} outside [1, {system.n}]")
        elif covered & (1 << (x - 1)):
            raise PreconditionError(f"element {x} is already covered by tuple {i}")
        bit = 1 << (x - 1)
        replacements = tuple([t[:pos] + (t[pos] | bit,) + t[pos + 1 :] for pos in range(len(t))])
        covered |= bit
        handed = tuple(
            [(covered, sizes[:pos] + (sizes[pos] + 1,) + sizes[pos + 1 :]) for pos in range(len(t))]
        )
        return None, x, replacements, handed

    def bound(self, system: SetSystem) -> int:
        return system.n * (system.d + 1) ** system.n


class _PairFlavor(Flavor):
    name = "pair"
    condition = "skew"

    def shape(self, system: System) -> None:
        if not isinstance(system, SubspaceSystem):
            raise ShapeError("pair saturation needs a subspace pair system")
        require_pairs(system.d, "pair saturation")
        if system.decomposition is None:
            raise ShapeError("pair saturation needs a decomposition")

    def precondition(self, system: SubspaceSystem) -> None:
        if not is_decomposition_compatible(system):
            raise PreconditionError("pair saturation needs a decomposition-compatible system")

    def functional(self, system: System, p: ProbabilityVector | None) -> FunctionalKind:
        if p is not None:
            raise ShapeError("the pair flavor tracks partitioned_yue_sum; p does not apply")
        return FunctionalKind("partitioned_yue_sum")

    def facts(self, system: SubspaceSystem, t: tuple) -> tuple:
        """Per block V_k, (a_k, b_k, s_k) = (dim(A ∩ V_k), dim(B ∩ V_k),
        dim((A ∩ V_k) + (B ∩ V_k))), from the decomposition's component memo:
        the pair's deficit, potential and profile read from this one pass."""
        a, b = t
        components = system.decomposition.components
        return tuple(
            (a_k.dim, b_k.dim, dim_of_sum([a_k, b_k]))
            for a_k, b_k in zip(components(a), components(b))
        )

    def deficit(self, system: SubspaceSystem, dims: tuple) -> int:
        return system.n - sum(s_k for _, _, s_k in dims)

    def potential(self, t: tuple, dims: tuple) -> int:
        return 2 ** sum(s_k for _, _, s_k in dims)

    def profile(self, t: tuple, dims: tuple) -> tuple:
        return tuple((a_k, b_k) for a_k, b_k, _ in dims)

    def step(self, system: SubspaceSystem, t: tuple, i: int, dims: tuple, k: int | None = None):
        """The first canonical x in V_k outside (A ∩ V_k) + (B ∩ V_k) gives
        (A + <x>, B) then (A, B + <x>); without k, the lowest block where the
        pair is deficient.  Their dims in block k are (a_k + 1, b_k, s_k + 1)
        and (a_k, b_k + 1, s_k + 1), and as the pair's in every other block."""
        blocks = system.decomposition.blocks
        if k is None:
            k = next(k for k, ((_, _, s_k), v_k) in enumerate(zip(dims, blocks), 1) if s_k < v_k.dim)
        elif not 1 <= k <= len(blocks):
            raise ShapeError(f"block index {k} outside [1, {len(blocks)}]")
        a, b = t
        decomposition = system.decomposition
        a_parts, b_parts = decomposition.components(a), decomposition.components(b)
        filled = a_parts[k - 1] + b_parts[k - 1]
        if filled.dim == blocks[k - 1].dim:
            raise PreconditionError(f"pair {i} is already full in block {k}")
        # x is a canonical row of V_k, so (x,) is already <x> in canonical form
        x = extension_vector(blocks[k - 1], filled)
        x_span = Subspace(system.n, system.field, (x,))

        def grow(sub: Subspace, parts: tuple) -> Subspace:
            # x lies in V_k outside part k, so U + <x> has U's parts with <x>
            # added in block k, which the memo takes when U was their sum
            grown = sub + x_span
            decomposition.record(grown, parts[: k - 1] + (parts[k - 1] + x_span,) + parts[k:])
            return grown

        a_k, b_k, s_k = dims[k - 1]
        grown_a, grown_b = ((a_k + 1, b_k, s_k + 1),), ((a_k, b_k + 1, s_k + 1),)
        handed = (dims[: k - 1] + grown_a + dims[k:], dims[: k - 1] + grown_b + dims[k:])
        return k, x, ((grow(a, a_parts), b), (a, grow(b, b_parts))), handed

    def bound(self, system: SubspaceSystem) -> int:
        return 4**system.n

    def class_key(self, system: SubspaceSystem, i: int, profile: tuple) -> tuple:
        """A full pair's per-block dims (a_1, ..., a_r)."""
        n_ks = sizes_of(system.decomposition.blocks)
        # fullness + zero intersection force a_k + b_k = n_k per block
        if any(a_k + b_k != n_k for (a_k, b_k), n_k in zip(profile, n_ks)):
            raise BollobasError(f"full pair {i} has a_k + b_k != n_k in some block (bug)")
        return tuple(a_k for a_k, _ in profile)


class _TupleFlavor(Flavor):
    name = "tuple"
    # A weak-but-not-skew subspace system has no licensed saturation: the
    # uniform counting bound behind the certificate is unavailable.
    condition = "skew"

    def shape(self, system: System) -> None:
        if not isinstance(system, SubspaceSystem):
            raise ShapeError("tuple saturation needs a subspace system")

    def facts(self, system: SubspaceSystem, t: tuple) -> Subspace:
        """The sum of the components, from one elimination."""
        rows = [row for sub in t for row in sub.rows]
        return Subspace(system.n, system.field, rref(rows, system.n, system.field))

    def deficit(self, system: SubspaceSystem, span: Subspace) -> int:
        return system.n - span.dim

    def step(self, system: SubspaceSystem, t: tuple, i: int, span: Subspace, at: None = None):
        """The first canonical x outside the component span joins each
        coordinate in turn; every replacement spans S + <x>."""
        if at is not None:
            raise ShapeError("the tuple flavor's fill-up takes no element or block")
        # e_c lies in the span exactly when the span's canonical row of pivot
        # c is e_c, so x is the first unit row that is not one of its rows
        rows = set(span.rows)
        n = system.n
        x = next(e for e in ((0,) * c + (1,) + (0,) * (n - 1 - c) for c in range(n)) if e not in rows)
        x_span = Subspace(system.n, system.field, (x,))
        replacements = tuple(
            tuple(sub + x_span if l == pos else sub for l, sub in enumerate(t))
            for pos in range(len(t))
        )
        return None, x, replacements, (span + x_span,) * len(t)

    def bound(self, system: SubspaceSystem) -> int:
        return system.n * system.d**system.n


FLAVORS = {flavor.name: flavor for flavor in (_SetFlavor(), _PairFlavor(), _TupleFlavor())}


def default_flavor(system: System) -> str:
    if isinstance(system, SetSystem):
        return "set"
    if system.d == 2 and system.decomposition is not None:
        return "pair"
    return "tuple"


def _lookup(system: System, flavor: str | None) -> Flavor:
    """The record of the named flavor (None: the system's default), once the
    system has passed its shape check."""
    if flavor is None:
        flavor = default_flavor(system)
    record = FLAVORS.get(flavor)
    if record is None:
        raise ShapeError(f"unknown flavor {flavor!r}; choose from {tuple(FLAVORS)}")
    record.shape(system)
    return record


def _admit(record: Flavor, system: System) -> None:
    """Refuse a system of the flavor's shape that fails its precondition or
    its condition."""
    record.precondition(system)
    report = verify(system, record.condition)
    if not report.verdict:
        raise PreconditionError(
            f"{record.name} saturation needs a {record.condition} system; "
            f"violated at {report.first_violation}"
        )


# ---------------------------------------------------------------------------
# potentials and fullness


def phi(system: System, flavor: str) -> int:
    """The integer potential of the given saturation flavor: the sum of the
    flavor's per-tuple potential over the tuples."""
    record = _lookup(system, flavor)
    return sum(record.potential(t, record.facts(system, t)) for t in system.tuples)


def phi_upper_bound(system: System, flavor: str) -> int:
    """The termination bound for the flavor: n(d+1)^n, 4^n, or n d^n."""
    return _lookup(system, flavor).bound(system)


def is_full_tuple(system: System, i: int, flavor: str) -> bool:
    record = _lookup(system, flavor)
    return record.deficit(system, record.facts(system, system.tuples[i - 1])) == 0


# ---------------------------------------------------------------------------
# fill-up steps


def fill_up(system: System, i: int, at: int | None = None, flavor: str | None = None) -> System:
    """Replace non-full tuple i, in place, by the flavor's d fuller tuples
    of the same weight: the step ``saturate`` takes there.  ``at`` names the
    set flavor's ground element x or the pair flavor's block k, in place of
    the lowest uncovered element or deficient block; the tuple flavor takes
    none.  ``flavor`` defaults to the system's (``default_flavor``)."""
    record = _lookup(system, flavor)
    if not 1 <= i <= system.m:
        raise ShapeError(f"tuple index {i} outside [1, {system.m}]")
    t = system.tuples[i - 1]
    facts = record.facts(system, t)
    if not record.deficit(system, facts):
        raise PreconditionError(f"tuple {i} is already full")
    _, x, replacements, _ = record.step(system, t, i, facts, at)
    others = set(system.tuples[: i - 1] + system.tuples[i:])
    if any(rep in others for rep in replacements):
        raise DuplicateTupleError(
            f"fill-up of tuple {i} with {x} reproduces an existing tuple; "
            "the input did not satisfy its condition"
        )
    return with_tuples(system, system.tuples[: i - 1] + replacements + system.tuples[i:])


# ---------------------------------------------------------------------------
# saturation


def saturate(
    system: System,
    flavor: str | None = None,
    p: ProbabilityVector | None = None,
    debug: bool = False,
) -> SaturationTrace:
    """Fill up every tuple, lowest non-full index first, until fullness.

    A system that would end with more than ``DEFAULT_TUPLE_BUDGET`` tuples is
    refused with ``BudgetError`` before the first step; with ``debug``, so
    is one whose steps times final tuples, the cost of the per-step
    recounts, would pass ``DEBUG_RECOUNT_BUDGET``.

    Scan order is deterministic: lowest non-full tuple, then (pair flavor)
    lowest deficient block, then the canonical extension vector.  Each input
    tuple is expanded depth-first from a stack of (tuple, facts): a full
    tuple popped goes to the output, a step pushes its replacements and the
    facts it hands on in reverse, and the tuple it replaces is number (full
    tuples so far) + 1.  Each step checks its own d + 1 tuples only: the
    replacement terms sum to the replaced term, once per class of their
    profiles in the run, and the potential gain is positive.  ω and φ of the
    whole system are recomputed from fresh facts at both ends, where the
    final tuples must also be full and distinct, and with ``debug`` after
    every step, where the flavor's condition is also re-verified.  After
    the first step, a recount reads each tuple's facts once: φ, fullness and
    the profile counts, from which ω is weighed.  It refuses a wrong weight,
    then a tuple not full, then a wrong potential, then two equal tuples.
    """
    record = _lookup(system, flavor)
    _admit(record, system)
    functional = record.functional(system, p)
    facts = [record.facts(system, t) for t in system.tuples]

    # a tuple missing u elements or dimensions saturates into d^u full tuples,
    # in (d^u - 1) / (d - 1) steps (u steps for d = 1)
    deficits = [record.deficit(system, f) for f in facts]
    final_m = sum(system.d**u for u in deficits)
    if final_m > DEFAULT_TUPLE_BUDGET:
        raise BudgetError(
            f"saturation would end with {final_m} tuples, budget is {DEFAULT_TUPLE_BUDGET}"
        )
    if debug:
        d = system.d
        total_steps = sum(deficits) if d == 1 else (final_m - len(deficits)) // (d - 1)
        if total_steps * final_m > DEBUG_RECOUNT_BUDGET:
            raise BudgetError(
                f"debug saturation would recount {final_m} tuples after each of "
                f"{total_steps} steps, {total_steps * final_m} tuple operations; "
                f"the budget is {DEBUG_RECOUNT_BUDGET}"
            )

    bound = record.bound(system)
    weight = omega(system, functional)
    facts_of, deficit, step = record.facts, record.deficit, record.step
    profile, potential_of = record.profile, record.potential
    potential = sum(map(potential_of, system.tuples, facts))
    phis = [potential]
    steps: list[FillUpStep] = []
    # the profiles (replaced, *replacements) of the steps whose weight check
    # passed: a step's terms are a function of these, so one check per class
    checked: set[tuple] = set()

    def recount(tuples: list, potential: int, where: str, final: bool = False) -> System:
        """The system of ``tuples``, once its ω and its φ, read from each
        tuple's fresh facts in one pass, equal the values the steps carried;
        with ``final``, once each tuple is also full and met once."""
        current = with_tuples(system, tuples)
        whole = 0
        profiles = []
        unfilled = 0  # the first tuple found not full, with ``final``
        for j, t in enumerate(tuples, start=1):
            f = facts_of(system, t)
            whole += potential_of(t, f)
            profiles.append(profile(t, f))
            if final and not unfilled and deficit(system, f):
                unfilled = j
        weighed = weigh(Counter(profiles), functional)
        if weighed != weight:
            raise BollobasError(
                f"whole-system weight {weighed} differs from the invariant {weight} {where}"
            )
        if unfilled:
            raise BollobasError(f"tuple {unfilled} is not full {where} (bug)")
        if whole != potential:
            raise BollobasError(
                f"whole-system potential {whole} differs from the running {potential} {where}"
            )
        # a replacement equal to a tuple present ends in two equal full
        # tuples, since equal tuples expand alike
        if final and len(set(tuples)) < len(tuples):
            first: dict[tuple, int] = {}
            for j, t in enumerate(tuples, start=1):
                i = first.setdefault(t, j)
                if i < j:
                    raise DuplicateTupleError(
                        f"saturation ends with tuple {j} equal to tuple {i}; "
                        "the input did not satisfy its condition"
                    )
        return current

    out: list[tuple] = []
    for read, start in enumerate(zip(system.tuples, facts), start=1):
        stack = [start]
        while stack:
            old, old_facts = stack.pop()
            if not deficit(system, old_facts):
                out.append(old)
                continue
            i = len(out) + 1  # every tuple before this one is full
            block, x, replacements, handed = step(system, old, i, old_facts)
            steps.append(FillUpStep(index=i, block=block, x=x))
            profiles = (profile(old, old_facts), *map(profile, replacements, handed))
            if profiles not in checked:
                scale, (removed, *added) = _scaled([term(q, functional) for q in profiles])
                if sum(added) != removed:
                    raise BollobasError(
                        f"weight invariance broken at step {len(steps)}: "
                        f"{weight} -> {weight + Fraction(sum(added) - removed, scale)}"
                    )
                checked.add(profiles)
            gain = sum(map(potential_of, replacements, handed)) - potential_of(old, old_facts)
            if gain <= 0:
                raise BollobasError(f"potential failed to increase at step {len(steps)}")
            potential += gain
            phis.append(potential)
            if potential > bound:
                raise BollobasError(f"potential exceeded its bound {bound}")
            if len(steps) > bound:
                raise BollobasError(f"saturation exceeded {bound} steps")
            stack.extend(zip(reversed(replacements), reversed(handed)))
            if debug:
                current = out + [t for t, _ in reversed(stack)] + list(system.tuples[read:])
                _admit(record, recount(current, potential, f"at step {len(steps)}"))

    final = recount(out, potential, "at the end", final=True)
    return SaturationTrace(record.name, functional, tuple(steps), weight, tuple(phis), final)


# ---------------------------------------------------------------------------
# certification


def certify_full_system(
    system: System,
    flavor: str | None = None,
    p: ProbabilityVector | None = None,
) -> Certificate:
    """Group full tuples into type classes, check each class count against its
    licensed bound, the :func:`count_bound` of the class's profile, and
    re-derive ω <= 1 from those bounds.

    Pair flavor: classes by per-block dims (a_1, ..., a_r), class bound
    prod_k C(n_k, a_k), weight term prod_k 1 / (C(n_k, a_k) (1 + n_k)); the
    terms over all possible profiles sum to exactly 1, so class bounds force
    ω <= 1.  Set/tuple flavors: classes by the size/dim vector, multinomial
    class bound, tuza terms; the multinomial theorem gives total exactly 1.
    """
    record = _lookup(system, flavor)
    _admit(record, system)
    functional = record.functional(system, p)
    facts = [record.facts(system, t) for t in system.tuples]
    for i, f in enumerate(facts, start=1):
        if record.deficit(system, f):
            raise PreconditionError(f"tuple {i} is not full; saturate first")

    classes: dict[tuple, list] = {}  # class key -> [count, the members' profile]
    for i, (t, f) in enumerate(zip(system.tuples, facts), start=1):
        profile = record.profile(t, f)
        classes.setdefault(record.class_key(system, i, profile), [0, profile])[0] += 1

    caveat = is_gfp(system)
    class_counts = []
    findings = []
    term_total = Fraction(0)
    for key in sorted(classes):
        count, profile = classes[key]
        bound = count_bound(profile)
        class_counts.append(ClassCount(profile=key, count=count, bound=bound))
        if count > bound:
            findings.append(
                f"class {key}: count {count} exceeds bound {bound}"
                + (f" over {system.field}" if caveat else "")
            )
        term_total += count * term(profile, functional)

    value = omega(system, functional)
    if value != term_total:
        raise BollobasError("class decomposition does not reproduce the weight (bug)")
    bounds_ok = all(c.count <= c.bound for c in class_counts)
    holds = bounds_ok and value <= 1
    return Certificate(
        check=f"full-{record.name}-type-classes",
        holds=holds,
        quantities=(
            ("m", str(system.m)),
            ("omega", rational_to_str(value)),
            ("omega_bound", "1"),
            ("classes", str(len(class_counts))),
            ("functional", str(functional)),
        ),
        classes=tuple(class_counts),
        field_caveat=caveat,
        findings=tuple(findings),
    )
