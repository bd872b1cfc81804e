"""Weight-invariant fill-up, saturation to fullness, and type-class
certification.

The engine executes the constructive argument behind the inequalities: a
replacement step rewrites one non-full tuple into several fuller ones without
changing the weight, while an integer potential strictly increases; the
potential is bounded, so repetition reaches a system of full tuples, whose
type classes obey explicit counting bounds that force the weight below 1.

Three flavors, matching the three potentials:

* ``set``:   a set d-tuple missing some ground element x is replaced by the d
  tuples that add x to one coordinate each, in coordinate order.  The tuza
  weight is invariant because p_1 + ... + p_d = 1.
* ``pair``:  a decomposed subspace pair with a deficient block k gains a
  vector x from V_k outside (A ∩ V_k) + (B ∩ V_k); the pair is replaced by
  (A + <x>, B) FIRST and (A, B + <x>) second.  That order is forced: the
  earlier pair's A meets the later pair's B in <x>, so skewness survives;
  swapped, the two new pairs violate the skew clause between themselves.
* ``tuple``: a subspace d-tuple whose components do not span V gains <x> in
  each coordinate, coordinate order, like the set case.

Every step re-checks the invariants it claims (exact weight equality, strict
potential increase, the step bound) and raises instead of trusting them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constructions import DEFAULT_TUPLE_BUDGET
from .errors import (
    BollobasError,
    BudgetError,
    DuplicateTupleError,
    PreconditionError,
    ShapeError,
)
from .exact_arith import (
    PrimeField,
    ProbabilityVector,
    Rational,
    binomial,
    multinomial,
    rational_to_str,
)
from .subspace_algebra import (
    canonicalize,
    component,
    dim_of_sum,
    extension_vector,
    full_space,
)
from .systems_model import (
    SetSystem,
    SubspaceSystem,
    System,
    is_decomposition_compatible,
    tuple_sizes,
    with_tuples,
)
from .verifiers import Certificate, ClassCount, verify
from .weight_functionals import (
    FunctionalKind,
    omega,
    phi,
    phi_upper_bound,
    term,
    tuza,
)

SATURATION_FLAVORS = ("set", "pair", "tuple")


@dataclass(frozen=True)
class FillUpStep:
    """One replacement: tuple ``index`` (1-based) rewritten using element or
    vector ``x``; for the pair flavor, ``block`` names the deficient V_k."""

    index: int
    block: int | None
    x: object
    replacements: tuple


@dataclass(frozen=True)
class SaturationTrace:
    """A full fill-up run: ω is constant along ``omegas``, ``phis`` strictly
    increases and stays within the flavor's bound."""

    flavor: str
    functional: FunctionalKind
    steps: tuple[FillUpStep, ...]
    omegas: tuple[Rational, ...]
    phis: tuple[int, ...]
    final: System


def default_flavor(system: System) -> str:
    if isinstance(system, SetSystem):
        return "set"
    if system.d == 2 and system.decomposition is not None:
        return "pair"
    return "tuple"


# ---------------------------------------------------------------------------
# fullness


def _deficit(system: System, i: int, flavor: str) -> int:
    """What tuple i still misses: ground elements (set), dimensions of V
    (tuple), or block dimensions summed over the blocks (pair)."""
    t = system.tuples[i - 1]
    if flavor == "set":
        union = 0
        for mask in t:
            union |= mask
        return system.n - union.bit_count()
    if flavor == "pair":
        assert isinstance(system, SubspaceSystem) and system.decomposition is not None
        a, b = t
        return sum(
            blk.dim - dim_of_sum([component(a, blk), component(b, blk)])
            for blk in system.decomposition.blocks
        )
    if flavor == "tuple":
        return system.n - dim_of_sum(list(t))
    raise ValueError(f"unknown flavor {flavor!r}")


def is_full_tuple(system: System, i: int, flavor: str) -> bool:
    return _deficit(system, i, flavor) == 0


def first_non_full(system: System, flavor: str) -> int | None:
    for i in range(1, system.m + 1):
        if not is_full_tuple(system, i, flavor):
            return i
    return None


# ---------------------------------------------------------------------------
# fill-up steps


def fill_up_set_tuple(system: SetSystem, i: int, x: int) -> SetSystem:
    """Replace tuple i by the d tuples adding ground element x to one
    coordinate each, in place and in coordinate order."""
    if not isinstance(system, SetSystem):
        raise ShapeError("set fill-up needs a set system")
    if not 1 <= i <= system.m:
        raise IndexError(f"tuple index {i} outside [1, {system.m}]")
    if not 1 <= x <= system.n:
        raise ValueError(f"ground element {x} outside [1, {system.n}]")
    old = system.tuples[i - 1]
    bit = 1 << (x - 1)
    covered = 0
    for mask in old:
        covered |= mask
    if covered & bit:
        raise PreconditionError(f"element {x} is already covered by tuple {i}")
    replacements = tuple(
        tuple(mask | bit if l == pos else mask for l, mask in enumerate(old))
        for pos in range(system.d)
    )
    others = system.tuples[: i - 1] + system.tuples[i:]
    for rep in replacements:
        if rep in others:
            raise DuplicateTupleError(
                f"fill-up of tuple {i} with {x} reproduces an existing tuple; "
                "the input did not satisfy its condition"
            )
    new_tuples = system.tuples[: i - 1] + replacements + system.tuples[i:]
    return with_tuples(system, new_tuples)


def fill_up_subspace_pair(system: SubspaceSystem, i: int, k: int) -> SubspaceSystem:
    """Replace pair i by (A + <x>, B) then (A, B + <x>) for the first
    canonical x in V_k outside (A ∩ V_k) + (B ∩ V_k)."""
    if not isinstance(system, SubspaceSystem) or system.d != 2:
        raise ShapeError("pair fill-up needs a subspace pair system")
    if system.decomposition is None:
        raise ShapeError("pair fill-up needs a decomposition")
    if not 1 <= i <= system.m:
        raise IndexError(f"tuple index {i} outside [1, {system.m}]")
    blocks = system.decomposition.blocks
    if not 1 <= k <= len(blocks):
        raise IndexError(f"block index {k} outside [1, {len(blocks)}]")
    a, b = system.tuples[i - 1]
    v_k = blocks[k - 1]
    filled = component(a, v_k) + component(b, v_k)
    x = extension_vector(v_k, filled)
    if x is None:
        raise PreconditionError(f"pair {i} is already full in block {k}")
    x_span = canonicalize(system.n, system.field, (x,))
    replacements = ((a + x_span, b), (a, b + x_span))
    new_tuples = system.tuples[: i - 1] + replacements + system.tuples[i:]
    return with_tuples(system, new_tuples)


def fill_up_subspace_tuple(system: SubspaceSystem, i: int) -> SubspaceSystem:
    """Replace tuple i by the d tuples adding <x> to one coordinate each,
    for the first canonical x outside the component sum."""
    if not isinstance(system, SubspaceSystem):
        raise ShapeError("tuple fill-up needs a subspace system")
    if not 1 <= i <= system.m:
        raise IndexError(f"tuple index {i} outside [1, {system.m}]")
    old = system.tuples[i - 1]
    ambient = full_space(system.n, system.field)
    span = canonicalize(
        system.n, system.field, tuple(row for sub in old for row in sub.basis)
    )
    x = extension_vector(ambient, span)
    if x is None:
        raise PreconditionError(f"tuple {i} already spans the whole space")
    x_span = canonicalize(system.n, system.field, (x,))
    replacements = tuple(
        tuple(sub + x_span if l == pos else sub for l, sub in enumerate(old))
        for pos in range(system.d)
    )
    new_tuples = system.tuples[: i - 1] + replacements + system.tuples[i:]
    return with_tuples(system, new_tuples)


# ---------------------------------------------------------------------------
# saturation


def _verify_flavor_condition(system: System, flavor: str) -> None:
    if flavor == "set":
        report = verify(system, "weak")
        if not report.verdict:
            raise PreconditionError(
                f"set saturation needs a weak system; violated at {report.first_violation}"
            )
        return
    if flavor == "pair":
        if not isinstance(system, SubspaceSystem) or system.d != 2:
            raise ShapeError("pair saturation needs a subspace pair system")
        if system.decomposition is None:
            raise ShapeError("pair saturation needs a decomposition")
        if not is_decomposition_compatible(system):
            raise PreconditionError("pair saturation needs a decomposition-compatible system")
        report = verify(system, "skew")
        if not report.verdict:
            raise PreconditionError(
                f"pair saturation needs a skew system; violated at {report.first_violation}"
            )
        return
    if flavor == "tuple":
        if not isinstance(system, SubspaceSystem):
            raise ShapeError("tuple saturation needs a subspace system")
        report = verify(system, "skew")
        if not report.verdict:
            # A weak-but-not-skew subspace system has no licensed saturation:
            # the uniform counting bound behind the certificate is unavailable.
            raise PreconditionError(
                f"tuple saturation needs a skew system; violated at {report.first_violation}"
            )
        return
    raise ValueError(f"unknown flavor {flavor!r}; choose from {SATURATION_FLAVORS}")


def _functional_for(system: System, flavor: str, p: ProbabilityVector | None) -> FunctionalKind:
    if flavor == "pair":
        if p is not None:
            raise ShapeError("the pair flavor tracks partitioned_yue_sum; p does not apply")
        return FunctionalKind("partitioned_yue_sum")
    return tuza(p if p is not None else ProbabilityVector.uniform(system.d))


def saturate(
    system: System,
    flavor: str | None = None,
    p: ProbabilityVector | None = None,
    debug: bool = False,
) -> SaturationTrace:
    """Fill up every tuple, lowest non-full index first, until fullness.

    A system that would end with more than ``DEFAULT_TUPLE_BUDGET`` tuples is
    refused with ``BudgetError`` before the first step.

    Scan order is deterministic: lowest non-full tuple, then (pair flavor)
    lowest deficient block, then the canonical extension vector.  The trace
    records the invariant weight and the strictly increasing potential; with
    ``debug`` the flavor's condition is re-verified after every step.
    """
    if flavor is None:
        flavor = default_flavor(system)
    _verify_flavor_condition(system, flavor)
    functional = _functional_for(system, flavor, p)
    # a tuple missing u elements or dimensions saturates into d^u full tuples
    final_m = sum(system.d ** _deficit(system, i, flavor) for i in range(1, system.m + 1))
    if final_m > DEFAULT_TUPLE_BUDGET:
        raise BudgetError(
            f"saturation would end with {final_m} tuples, budget is {DEFAULT_TUPLE_BUDGET}"
        )

    bound = phi_upper_bound(system, flavor)
    omegas = [omega(system, functional)]
    phis = [phi(system, flavor)]
    steps: list[FillUpStep] = []
    current = system

    while True:
        i = first_non_full(current, flavor)
        if i is None:
            break
        if flavor == "set":
            covered = 0
            for mask in current.tuples[i - 1]:
                covered |= mask
            x: object = next(
                e for e in range(1, current.n + 1) if not covered & (1 << (e - 1))
            )
            new = fill_up_set_tuple(current, i, x)
            block = None
        elif flavor == "pair":
            assert isinstance(current, SubspaceSystem)
            assert current.decomposition is not None
            block = None
            for k, blk in enumerate(current.decomposition.blocks, start=1):
                a, b = current.tuples[i - 1]
                if dim_of_sum([component(a, blk), component(b, blk)]) != blk.dim:
                    block = k
                    break
            assert block is not None
            a, b = current.tuples[i - 1]
            v_k = current.decomposition.blocks[block - 1]
            x = extension_vector(v_k, component(a, v_k) + component(b, v_k))
            new = fill_up_subspace_pair(current, i, block)
        else:
            assert isinstance(current, SubspaceSystem)
            old = current.tuples[i - 1]
            span = canonicalize(
                current.n, current.field, tuple(row for sub in old for row in sub.basis)
            )
            x = extension_vector(full_space(current.n, current.field), span)
            new = fill_up_subspace_tuple(current, i)
            block = None

        # every flavor replaces one tuple with exactly d tuples at position i
        replacements = new.tuples[i - 1 : i - 1 + new.d]
        steps.append(FillUpStep(index=i, block=block, x=x, replacements=replacements))

        omegas.append(omega(new, functional))
        phis.append(phi(new, flavor))
        if omegas[-1] != omegas[-2]:
            raise BollobasError(
                f"weight invariance broken at step {len(steps)}: "
                f"{omegas[-2]} -> {omegas[-1]}"
            )
        if phis[-1] <= phis[-2]:
            raise BollobasError(f"potential failed to increase at step {len(steps)}")
        if phis[-1] > bound:
            raise BollobasError(f"potential exceeded its bound {bound}")
        if len(steps) > bound:
            raise BollobasError(f"saturation exceeded {bound} steps")
        if debug:
            _verify_flavor_condition(new, flavor)
        current = new

    return SaturationTrace(
        flavor=flavor,
        functional=functional,
        steps=tuple(steps),
        omegas=tuple(omegas),
        phis=tuple(phis),
        final=current,
    )


# ---------------------------------------------------------------------------
# certification


def certify_full_system(
    system: System,
    flavor: str | None = None,
    p: ProbabilityVector | None = None,
) -> Certificate:
    """Group full tuples into type classes, check each class count against its
    licensed bound, and re-derive ω <= 1 from those bounds.

    Pair flavor: classes by per-block dims (a_1, ..., a_r), class bound
    prod_k C(n_k, a_k), weight term prod_k 1 / (C(n_k, a_k) (1 + n_k)); the
    terms over all possible profiles sum to exactly 1, so class bounds force
    ω <= 1.  Set/tuple flavors: classes by the size/dim vector, multinomial
    class bound, tuza terms; the multinomial theorem gives total exactly 1.
    """
    if flavor is None:
        flavor = default_flavor(system)
    _verify_flavor_condition(system, flavor)
    functional = _functional_for(system, flavor, p)
    non_full = first_non_full(system, flavor)
    if non_full is not None:
        raise PreconditionError(f"tuple {non_full} is not full; saturate first")

    classes: dict[tuple, int] = {}
    for i in range(1, system.m + 1):
        if flavor == "pair":
            assert isinstance(system, SubspaceSystem) and system.decomposition is not None
            a, b = system.tuples[i - 1]
            key = tuple(component(a, blk).dim for blk in system.decomposition.blocks)
            # fullness + zero intersection force a_k + b_k = n_k per block
            for a_k, blk in zip(key, system.decomposition.blocks):
                b_k = component(b, blk).dim
                if a_k + b_k != blk.dim:
                    raise BollobasError(
                        f"full pair {i} has a_k + b_k != n_k in some block (bug)"
                    )
        else:
            key = tuple_sizes(system, i)
        classes[key] = classes.get(key, 0) + 1

    caveat = isinstance(system, SubspaceSystem) and isinstance(system.field, PrimeField)
    class_counts = []
    findings = []
    term_total = Fraction(0)
    for key in sorted(classes):
        count = classes[key]
        if flavor == "pair":
            assert isinstance(system, SubspaceSystem) and system.decomposition is not None
            n_ks = system.decomposition.block_dims()
            bound = 1
            for a_k, n_k in zip(key, n_ks):
                bound *= binomial(n_k, a_k)
            class_term = term(tuple((a_k, n_k - a_k) for a_k, n_k in zip(key, n_ks)), functional)
        else:
            bound = multinomial(key)
            class_term = term(key, functional)
        class_counts.append(ClassCount(profile=key, count=count, bound=bound))
        if count > bound:
            findings.append(
                f"class {key}: count {count} exceeds bound {bound}"
                + (f" over {system.field}" if caveat else "")
            )
        term_total += count * class_term

    value = omega(system, functional)
    if value != term_total:
        raise BollobasError("class decomposition does not reproduce the weight (bug)")
    bounds_ok = all(c.count <= c.bound for c in class_counts)
    holds = bounds_ok and value <= 1
    return Certificate(
        check=f"full-{flavor}-type-classes",
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
