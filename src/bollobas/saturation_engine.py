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

Every step checks the invariants it claims on its own d + 1 tuples, and
raises instead of trusting them: the replacements' weight terms sum exactly
to the replaced tuple's term, their potentials exceed its potential, and the
running potential and the step count stay within the bound.  ω and φ of the
whole system are recomputed before the first step and after the last, and
must equal the start weight and the running potential; with ``debug`` they
are also recomputed, and the flavor's condition re-verified, after every
step.  A step costs O(d) tuple operations, not O(m): a cursor replaces the
rescan for the first non-full tuple, and the tuple list is spliced in place
and made a system once, at the end.
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
    block_profile_of,
    is_decomposition_compatible,
    pair_block_dims,
    sizes_of,
    with_tuples,
)
from .verifiers import Certificate, ClassCount, verify
from .weight_functionals import (
    FunctionalKind,
    omega,
    pair_potential,
    phi,
    phi_upper_bound,
    term,
    tuple_potential,
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


def _deficit(system: System, i: int, flavor: str, dims: tuple | None = None) -> int:
    """What tuple i still misses: ground elements (set), dimensions of V
    (tuple), or block dimensions summed over the blocks (pair, read from the
    pair's ``pair_block_dims`` when the caller has them)."""
    t = system.tuples[i - 1]
    if flavor == "set":
        union = 0
        for mask in t:
            union |= mask
        return system.n - union.bit_count()
    if flavor == "pair":
        if dims is None:
            dims = pair_block_dims(system, t)
        return system.n - sum(s_k for _, _, s_k in dims)
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
#
# One helper per flavor finds the step for tuple t (number i, for messages)
# of a system with the given context: it returns (block, x, replacements),
# or None when t is full and the caller left the choice to the helper.


def _set_step(system: SetSystem, t: tuple, i: int, x: int | None = None):
    """x joins each coordinate in turn; without x, the lowest uncovered
    element."""
    covered = 0
    for mask in t:
        covered |= mask
    if x is None:
        if covered == (1 << system.n) - 1:
            return None
        x = (~covered & (covered + 1)).bit_length()
    elif covered & (1 << (x - 1)):
        raise PreconditionError(f"element {x} is already covered by tuple {i}")
    bit = 1 << (x - 1)
    replacements = tuple(
        tuple(mask | bit if l == pos else mask for l, mask in enumerate(t))
        for pos in range(len(t))
    )
    return None, x, replacements


def _deficient_block(system: SubspaceSystem, dims: tuple) -> int | None:
    """The lowest block k (1-based) where a pair with these
    ``pair_block_dims`` is deficient; None when the pair is full."""
    assert system.decomposition is not None
    for k, (blk, (_, _, s_k)) in enumerate(zip(system.decomposition.blocks, dims), start=1):
        if s_k < blk.dim:
            return k
    return None


def _pair_step(system: SubspaceSystem, t: tuple, i: int, k: int):
    """The first canonical x in V_k outside (A ∩ V_k) + (B ∩ V_k) gives
    (A + <x>, B) then (A, B + <x>)."""
    assert system.decomposition is not None
    a, b = t
    v_k = system.decomposition.blocks[k - 1]
    filled = component(a, v_k) + component(b, v_k)
    if filled.dim == v_k.dim:
        raise PreconditionError(f"pair {i} is already full in block {k}")
    x_span = canonicalize(system.n, system.field, (extension_vector(v_k, filled),))
    return k, x_span.basis[0], ((a + x_span, b), (a, b + x_span))


def _tuple_step(system: SubspaceSystem, t: tuple, i: int):
    """The first canonical x outside the component sum joins each coordinate
    in turn."""
    if dim_of_sum(list(t)) == system.n:
        return None
    span = canonicalize(system.n, system.field, [row for sub in t for row in sub.rows])
    x_span = canonicalize(
        system.n, system.field, (extension_vector(full_space(system.n, system.field), span),)
    )
    replacements = tuple(
        tuple(sub + x_span if l == pos else sub for l, sub in enumerate(t))
        for pos in range(len(t))
    )
    return None, x_span.basis[0], replacements


def _duplicate(i: int, x: object) -> DuplicateTupleError:
    return DuplicateTupleError(
        f"fill-up of tuple {i} with {x} reproduces an existing tuple; "
        "the input did not satisfy its condition"
    )


def _spliced(system: System, i: int, replacements: tuple) -> System:
    return with_tuples(system, system.tuples[: i - 1] + replacements + system.tuples[i:])


def fill_up_set_tuple(system: SetSystem, i: int, x: int) -> SetSystem:
    """Replace tuple i by the d tuples adding ground element x to one
    coordinate each, in place and in coordinate order."""
    if not isinstance(system, SetSystem):
        raise ShapeError("set fill-up needs a set system")
    if not 1 <= i <= system.m:
        raise IndexError(f"tuple index {i} outside [1, {system.m}]")
    if not 1 <= x <= system.n:
        raise ValueError(f"ground element {x} outside [1, {system.n}]")
    _, _, replacements = _set_step(system, system.tuples[i - 1], i, x)
    others = set(system.tuples[: i - 1] + system.tuples[i:])
    if any(rep in others for rep in replacements):
        raise _duplicate(i, x)
    return _spliced(system, i, replacements)


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
    _, _, replacements = _pair_step(system, system.tuples[i - 1], i, k)
    return _spliced(system, i, replacements)


def fill_up_subspace_tuple(system: SubspaceSystem, i: int) -> SubspaceSystem:
    """Replace tuple i by the d tuples adding <x> to one coordinate each,
    for the first canonical x outside the component sum."""
    if not isinstance(system, SubspaceSystem):
        raise ShapeError("tuple fill-up needs a subspace system")
    if not 1 <= i <= system.m:
        raise IndexError(f"tuple index {i} outside [1, {system.m}]")
    step = _tuple_step(system, system.tuples[i - 1], i)
    if step is None:
        raise PreconditionError(f"tuple {i} already spans the whole space")
    _, _, replacements = step
    return _spliced(system, i, replacements)


# ---------------------------------------------------------------------------
# saturation


def _verify_flavor_condition(system: System, flavor: str) -> None:
    if flavor == "set":
        if not isinstance(system, SetSystem):
            raise ShapeError("set saturation needs a set system")
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


def _check_whole_system(
    current: System,
    flavor: str,
    functional: FunctionalKind,
    weight: Rational,
    potential: int,
    where: str,
) -> None:
    """Recompute ω and φ over the whole system and compare them with the
    values the steps carried."""
    whole = omega(current, functional)
    if whole != weight:
        raise BollobasError(
            f"whole-system weight {whole} differs from the invariant {weight} {where}"
        )
    whole = phi(current, flavor)
    if whole != potential:
        raise BollobasError(
            f"whole-system potential {whole} differs from the running {potential} {where}"
        )


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
    lowest deficient block, then the canonical extension vector.  A cursor
    walks the tuple list: every tuple before it is full, and after a
    replacement it stays on the first replacement.  Each step checks its own
    d + 1 tuples only: the replacement terms sum to the replaced term, and
    the potential gain is positive.  ω and φ of the whole system are
    recomputed at both ends, and with ``debug`` after every step too, where
    the flavor's condition is also re-verified.
    """
    if flavor is None:
        flavor = default_flavor(system)
    _verify_flavor_condition(system, flavor)
    functional = _functional_for(system, flavor, p)
    block_dims: dict[tuple, tuple] = {}

    def dims_of(t: tuple) -> tuple | None:
        """A pair's ``pair_block_dims``, computed once per run: they give its
        step, weight profile and potential.  None for the other flavors."""
        if flavor != "pair":
            return None
        if t not in block_dims:
            block_dims[t] = pair_block_dims(system, t)
        return block_dims[t]

    def profile_of(t: tuple) -> tuple:
        dims = dims_of(t)
        return sizes_of(t) if dims is None else tuple(d[:2] for d in dims)

    def potential_of(t: tuple) -> int:
        dims = dims_of(t)
        return tuple_potential(system, t, flavor) if dims is None else pair_potential(dims)

    # a tuple missing u elements or dimensions saturates into d^u full tuples
    final_m = sum(
        system.d ** _deficit(system, i, flavor, dims_of(t))
        for i, t in enumerate(system.tuples, start=1)
    )
    if final_m > DEFAULT_TUPLE_BUDGET:
        raise BudgetError(
            f"saturation would end with {final_m} tuples, budget is {DEFAULT_TUPLE_BUDGET}"
        )

    bound = phi_upper_bound(system, flavor)
    weight = omega(system, functional)
    potential = phi(system, flavor)
    omegas = [weight]
    phis = [potential]
    steps: list[FillUpStep] = []
    terms: dict[tuple, Fraction] = {}  # the weight term of each profile met

    def weight_term(t: tuple) -> Fraction:
        key = profile_of(t)
        if key not in terms:
            terms[key] = term(key, functional)
        return terms[key]

    tuples = list(system.tuples)
    # a verified set system holds no duplicate tuple, so a set of them will do
    present = set(tuples) if flavor == "set" else None
    cursor = 0
    while cursor < len(tuples):
        old = tuples[cursor]
        if flavor == "pair":
            k = _deficient_block(system, dims_of(old))
            found = None if k is None else _pair_step(system, old, cursor + 1, k)
        else:
            found = (_set_step if flavor == "set" else _tuple_step)(system, old, cursor + 1)
        if found is None:
            cursor += 1
            continue
        block, x, replacements = found
        if present is not None:
            if any(rep in present for rep in replacements):
                raise _duplicate(cursor + 1, x)
            present.discard(old)
            present.update(replacements)
        tuples[cursor : cursor + 1] = replacements
        steps.append(FillUpStep(index=cursor + 1, block=block, x=x, replacements=replacements))

        removed = weight_term(old)
        added = sum((weight_term(rep) for rep in replacements), Fraction(0))
        if added != removed:
            raise BollobasError(
                f"weight invariance broken at step {len(steps)}: "
                f"{weight} -> {weight - removed + added}"
            )
        gain = sum(potential_of(rep) for rep in replacements) - potential_of(old)
        if gain <= 0:
            raise BollobasError(f"potential failed to increase at step {len(steps)}")
        potential += gain
        omegas.append(weight)
        phis.append(potential)
        if potential > bound:
            raise BollobasError(f"potential exceeded its bound {bound}")
        if len(steps) > bound:
            raise BollobasError(f"saturation exceeded {bound} steps")
        if debug:
            current = with_tuples(system, tuples)
            _check_whole_system(
                current, flavor, functional, weight, potential, f"at step {len(steps)}"
            )
            _verify_flavor_condition(current, flavor)

    final = with_tuples(system, tuples)
    _check_whole_system(final, flavor, functional, weight, potential, "at the end")
    return SaturationTrace(
        flavor=flavor,
        functional=functional,
        steps=tuple(steps),
        omegas=tuple(omegas),
        phis=tuple(phis),
        final=final,
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
        t = system.tuples[i - 1]
        if flavor == "pair":
            assert isinstance(system, SubspaceSystem) and system.decomposition is not None
            block_profile = block_profile_of(system, t)
            key = tuple(a_k for a_k, _ in block_profile)
            # fullness + zero intersection force a_k + b_k = n_k per block
            n_ks = system.decomposition.block_dims()
            if any(a_k + b_k != n_k for (a_k, b_k), n_k in zip(block_profile, n_ks)):
                raise BollobasError(f"full pair {i} has a_k + b_k != n_k in some block (bug)")
        else:
            key = sizes_of(t)
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
