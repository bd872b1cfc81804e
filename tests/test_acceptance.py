"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact rational equality; there is no tolerance anywhere.
Per-step potential increments are recomputed from the potential definitions:
replacing a tuple of component-size-sum s by d tuples that each gain one
element adds (d-1)*s + d for the set flavor, and a pair step multiplies the
replaced pair's potential term by 4, adding exactly 3 * prod_j 2^(n_j - d_ij).
"""

import random
import time
from fractions import Fraction

from bollobas import (
    PrimeField,
    ProbabilityVector,
    QQ,
    SetSystem,
    SubspaceSystem,
    certify_full_system,
    check_cardinality_lemmas,
    complement_chain,
    coordinate_decomposition,
    coordinate_subspace,
    embed,
    evaluate_inequality,
    fill_up,
    full_tuza_tuples,
    omega,
    partitioned_complement_chain,
    phi,
    phi_upper_bound,
    random_compatible_pair_system,
    random_valid_system,
    saturate,
    search_max,
    tuza,
    verify,
    zero_subspace,
    SearchProblem,
)
from bollobas.saturation_engine import SaturationTrace
from bollobas.subspace_algebra import dim_of_sum, intersection
from bollobas.systems_model import sizes_of


def _pair_deficit_product(system: SubspaceSystem, i: int) -> int:
    a, b = system.tuples[i - 1]
    out = 1
    for blk in system.decomposition.blocks:
        filled = dim_of_sum([intersection(a, blk), intersection(b, blk)])
        out *= 2**filled
    return out


def _replay_set_trace(system: SetSystem, trace: SaturationTrace) -> None:
    weight = omega(system, trace.functional)
    assert trace.omega == weight
    current = system
    for step in trace.steps:
        s_sum = sum(sizes_of(current.tuples[step.index - 1]))
        before = phi(current, "set")
        current = fill_up(current, step.index, step.x)
        assert omega(current, trace.functional) == weight  # (a) exact weight invariance
        assert phi(current, "set") - before == (current.d - 1) * s_sum + current.d
    assert current == trace.final


def _replay_pair_trace(system: SubspaceSystem, trace: SaturationTrace) -> None:
    weight = omega(system, trace.functional)
    assert trace.omega == weight
    current = system
    for step in trace.steps:
        expected = 3 * _pair_deficit_product(current, step.index)
        before = phi(current, "pair")
        current = fill_up(current, step.index, step.block)
        assert omega(current, trace.functional) == weight  # (a) exact weight invariance
        assert phi(current, "pair") - before == expected
    assert current == trace.final


def test_acceptance_1_tight_fixtures():
    started = time.monotonic()

    chain = complement_chain(4)
    assert verify(chain, "skew").verdict
    yue = evaluate_inequality(chain, "yue_sum")
    assert yue.value == 1 and yue.bound == 1 and yue.tight

    hf = evaluate_inequality(chain, "hegedus_frankl_sum")
    assert hf.value == 5 and hf.bound == 5 and hf.tight

    partitioned = partitioned_complement_chain(4, [[1, 2], [3, 4]])
    pyue = evaluate_inequality(partitioned, "partitioned_yue_sum")
    assert pyue.value == 1 and pyue.tight

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 1 PASS: chain(4) skew with yue_sum = 1 and "
        f"hegedus_frankl_sum = 5 = n+1; partitioned chain = 1 ({elapsed:.2f}s)"
    )


def test_acceptance_2_tuza_tightness_and_subspace_analogue():
    started = time.monotonic()
    p = ProbabilityVector((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))

    tuples27 = full_tuza_tuples(3, 3)
    assert tuples27.m == 27
    assert verify(tuples27, "weak").verdict
    set_value = omega(tuples27, tuza(p.entries))
    assert set_value == 1

    z = zero_subspace(3, QQ)
    start = SubspaceSystem(3, QQ, 3, ((z, z, z),))
    trace = saturate(start, "tuple", p=p)
    assert trace.omega == 1
    assert trace.final.m == 27
    cert = certify_full_system(trace.final, "tuple", p=p)
    assert cert.holds
    assert omega(trace.final, tuza(p.entries)) == set_value == 1

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 2 PASS: 27 full 3-tuples weak with tuza_sum = 1; "
        f"saturated subspace analogue certifies omega = 1 <= 1 ({elapsed:.2f}s)"
    )


def test_acceptance_3_proof_engine_invariance():
    cases = 0

    # 100 random skew set-pair systems, n <= 5
    for seed in range(100):
        n = 2 + seed % 4
        system = random_valid_system(n, 2, "skew", target_m=1 + seed % 5, seed=seed)
        p = ProbabilityVector.uniform(2)
        trace = saturate(system, "set", p=p)
        assert all(x < y for x, y in zip(trace.phis, trace.phis[1:]))  # (b) strict
        _replay_set_trace(system, trace)  # (a) weight recounted, (b) exact increments
        assert len(trace.steps) <= phi_upper_bound(system, "set")  # (c)
        assert trace.phis[-1] <= phi_upper_bound(system, "set")
        cert = certify_full_system(trace.final, "set", p=p)  # (d)
        assert cert.holds
        assert omega(trace.final, tuza(p.entries)) <= 1
        cases += 1

    # 100 random skew decomposition-compatible subspace pair systems, n <= 4
    blocks_by_n = {2: [[1], [2]], 3: [[1, 2], [3]], 4: [[1, 2], [3, 4]]}
    for seed in range(100):
        n = 2 + seed % 3
        system = random_compatible_pair_system(
            n, blocks_by_n[n], target_m=1 + seed % 4, seed=1000 + seed
        )
        trace = saturate(system, "pair", debug=(seed % 10 == 0))
        assert all(x < y for x, y in zip(trace.phis, trace.phis[1:]))  # (b)
        _replay_pair_trace(system, trace)  # (a) weight recounted, (b) exact increments
        assert len(trace.steps) <= phi_upper_bound(system, "pair")  # (c)
        assert trace.phis[-1] <= phi_upper_bound(system, "pair")
        cert = certify_full_system(trace.final, "pair")  # (d)
        assert cert.holds
        assert omega(trace.final, "partitioned_yue_sum") <= 1
        cases += 1

    assert cases == 200
    print(
        "\nACCEPTANCE 3 PASS: 200 seeded saturations with exact weight "
        "invariance, exact potential increments, bounded termination, and "
        "certified omega <= 1"
    )


def test_acceptance_4_brute_force_optima():
    started = time.monotonic()

    result = search_max(SearchProblem(n=2, d=2, flavor="skew"))
    assert result.best_value == 4 and result.exhaustive
    assert verify(result.witness, "skew").verdict

    uniform = search_max(SearchProblem(n=2, d=2, flavor="skew", uniform_sizes=(1, 1)))
    assert uniform.best_value == 2 and uniform.exhaustive  # C(1+1, 1)

    for flavor in ("skew", "weak"):
        pruned = search_max(SearchProblem(n=2, d=2, flavor=flavor))
        plain = search_max(SearchProblem(n=2, d=2, flavor=flavor, prune=False))
        assert pruned.best_value == plain.best_value

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 4 PASS: exhaustive optima m = 4 (skew pairs, n=2) and "
        f"m = 2 = C(2,1) (uniform (1,1)); pruned == unpruned ({elapsed:.2f}s)"
    )


def test_acceptance_5_oracle_equivalence_of_embedding():
    rng = random.Random(55)
    checked = 0
    for _ in range(100):
        n = rng.randrange(1, 5)
        d = rng.randrange(2, 4)
        tuples = []
        for _ in range(rng.randrange(0, 4)):
            parts = [0] * d
            for pnt in range(1, n + 1):
                c = rng.randrange(d + 1)
                if c:
                    parts[c - 1] |= 1 << (pnt - 1)
            tuples.append(tuple(parts))
        partition = None
        if rng.random() < 0.5 and n >= 2:
            cut = rng.randrange(1, n)
            partition = (
                (1 << cut) - 1,
                ((1 << n) - 1) & ~((1 << cut) - 1),
            )
        system = SetSystem(n, d, tuple(tuples), partition)
        emb = embed(system)

        flavors = ("skew", "weak") + (("bollobas",) if d == 2 else ())
        for flavor in flavors:
            rs, re = verify(system, flavor), verify(emb, flavor)
            assert rs.verdict == re.verdict
            assert rs.first_violation == re.first_violation

        p = tuza(tuple(Fraction(1, d) for _ in range(d)))
        assert omega(system, p) == omega(emb, p)
        if d == 2:
            for name in ("bollobas_sum", "hegedus_frankl_sum", "yue_sum"):
                assert omega(system, name) == omega(emb, name)
            if partition is not None:
                for name in ("partitioned_yue_sum", "partitioned_bollobas_sum"):
                    assert omega(system, name) == omega(emb, name)
        checked += 1
    assert checked == 100
    print(
        "\nACCEPTANCE 5 PASS: 100 seeded systems embed with identical "
        "verdicts, witnesses, and exact functional values"
    )


def test_acceptance_6_cardinality_lemmas_as_properties():
    # skew subspace pairs over the rationals: m <= 2^n
    pair_systems = []
    for seed in range(30):
        n = 2 + seed % 3
        blocks = {2: [[1], [2]], 3: [[1, 2], [3]], 4: [[1, 2], [3, 4]]}[n]
        pair_systems.append(
            random_compatible_pair_system(n, blocks, target_m=3, seed=seed)
        )
    for seed in range(30):
        pair_systems.append(
            random_valid_system(2 + seed % 2, 2, "skew", target_m=4, seed=seed, field=QQ)
        )
    pair_systems.append(embed(complement_chain(3)))
    for system in pair_systems:
        assert verify(system, "skew").verdict
        assert system.m <= 2**system.n

    # skew subspace d-tuples over the rationals: m <= d^n
    for seed in range(30):
        d = 2 + seed % 2
        system = random_valid_system(2, d, "skew", target_m=5, seed=200 + seed, field=QQ)
        assert verify(system, "skew").verdict
        assert system.m <= d**system.n

    # full-system type classes respect their counting bounds
    p = ProbabilityVector.uniform(2)
    for seed in range(20):
        base = random_valid_system(3, 2, "skew", target_m=3, seed=400 + seed)
        final = saturate(base, "set", p=p).final
        cert = certify_full_system(final, "set", p=p)
        assert cert.holds
        for cls in cert.classes:
            assert cls.count <= cls.bound

    # GF(p) runs may only produce caveated findings, never suite failures
    field = PrimeField(2)
    findings = 0
    for seed in range(10):
        system = random_valid_system(2, 2, "skew", target_m=4, seed=600 + seed, field=field)
        cert = check_cardinality_lemmas(system)
        assert cert.field_caveat
        findings += len(cert.findings)
    print(
        "\nACCEPTANCE 6 PASS: zero violations of m <= 2^n, m <= d^n, or class "
        f"bounds over the rationals; GF(2) runs produced {findings} caveated "
        "finding(s) and no failures"
    )


def test_acceptance_7_order_sensitivity_regressions():
    chain = complement_chain(2)
    reversed_chain = SetSystem(2, 2, tuple(reversed(chain.tuples)))
    report = verify(reversed_chain, "skew")
    assert not report.verdict
    assert report.first_violation == (1, 2, "cross")

    base = SubspaceSystem(
        2,
        QQ,
        2,
        ((coordinate_subspace(2, QQ, [1]), zero_subspace(2, QQ)),),
        coordinate_decomposition(2, QQ, [[1, 2]]),
    )
    filled = fill_up(base, 1, 1)
    assert verify(filled, "skew").verdict
    swapped = SubspaceSystem(
        2, QQ, 2, (filled.tuples[1], filled.tuples[0]), base.decomposition
    )
    swapped_report = verify(swapped, "skew")
    assert not swapped_report.verdict
    assert swapped_report.first_violation == (1, 2, "cross")
    print(
        "\nACCEPTANCE 7 PASS: reversed chain(2) fails skew at (1, 2); swapped "
        "pair-replacement order fails skew at (1, 2)"
    )


def test_acceptance_8_scale_note():
    # The inequalities are universally quantified and not reproducible by
    # finite testing; this suite rests on the seeded property corpora plus
    # exact tightness of every constructed family, which exercise every
    # implemented formula.
    print(
        "\nACCEPTANCE 8 NOTE: coverage is by property corpora and exact "
        "tightness of the constructed families, not by finite exhaustion"
    )
