"""Seeded inputs, op streams and output checks for the benchmark workloads.

Inputs come from the benchmark's own ``random.Random(seed)`` and are written as
system documents that ops read through ``--in``; the package's own ``random``
command never produces them, so a change to the package cannot change them.

Each workload is a fixed list of job slots.  A slot fixes the shape of its
input (ground size, arity, how many elements each tuple leaves uncovered, the
block split), and the seed fills in the contents (which elements, which
components, which integer entries, the order of the menu).  Fixing the shapes
keeps the amount of work nearly the same for every seed, so run-to-run spread
measures the program and the host rather than the draw.

Every op carries the exit status it must return and a check of its JSON body
that needs no golden file: values are recomputed here with independent
``Fraction`` and bitmask code, or compared with known optima.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("set-pipeline", "subspace-pipeline", "search")

Check = Callable[[dict], "str | None"]


@dataclass(frozen=True)
class Op:
    """One ``main([...])`` call: its argv, the exit status it must return, a
    check of its JSON body, and where (if anywhere) the client saves the
    system it produced for the ops after it."""

    argv: tuple[str, ...]
    expect_rc: int
    check: Check
    save_to: str | None = None
    save_key: str | None = None  # None: the whole body is the system document


def build_stream(workload: str, seed: int, variant: int, workdir: str) -> list[Op]:
    """Write the input documents of one draw (``variant``) from the seed under
    ``workdir`` and return the op stream of one pass over them."""
    rng = random.Random(f"{workload}:{seed}:{variant}")
    if workload == "set-pipeline":
        return _set_pipeline(rng, workdir)
    if workload == "subspace-pipeline":
        return _subspace_pipeline(rng, workdir)
    if workload == "search":
        return _search(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _write(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _all(*checks: Check) -> Check:
    def run(doc: dict) -> str | None:
        for check in checks:
            problem = check(doc)
            if problem:
                return problem
        return None

    return run


def _field(key: str, want) -> Check:
    return lambda doc: None if doc.get(key) == want else f"{key}={doc.get(key)!r}, want {want!r}"


def _quantity(key: str, want: str) -> Check:
    def run(doc: dict) -> str | None:
        got = doc.get("quantities", {}).get(key)
        return None if got == want else f"quantity {key}={got!r}, want {want!r}"

    return run


# ---------------------------------------------------------------------------
# set systems as bitmasks, checked with this file's own code


def _masks(doc_tuple) -> tuple[int, ...]:
    return tuple(sum(1 << (e - 1) for e in subset) for subset in doc_tuple)


def _set_doc(n: int, d: int, tuples) -> dict:
    return {
        "kind": "set",
        "n": n,
        "d": d,
        "tuples": [
            [[e + 1 for e in range(n) if mask >> e & 1] for mask in t] for t in tuples
        ],
    }


def _cross(s, t, flavor: str) -> bool:
    """The clause between tuple s (earlier) and tuple t (later)."""
    d = len(s)
    if flavor == "bollobas":
        return bool(s[0] & t[1]) and bool(t[0] & s[1])
    for p in range(d):
        for q in range(p + 1, d):
            if s[p] & t[q] or (flavor == "weak" and s[q] & t[p]):
                return True
    return False


def _set_condition_holds(tuples, flavor: str) -> bool:
    for t in tuples:
        seen = 0
        for mask in t:
            if mask & seen:
                return False
            seen |= mask
    return all(
        _cross(tuples[i], tuples[j], flavor)
        for i in range(len(tuples))
        for j in range(i + 1, len(tuples))
    )


def _uniform_tuza(tuples, d: int) -> Fraction:
    """sum over tuples of prod_l (1/d)^|A_l| = (1/d)^(covered elements)."""
    return sum(
        (Fraction(1, d ** sum(bin(mask).count("1") for mask in t)) for t in tuples),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# set-pipeline

# (n, d, elements left uncovered by each input tuple).  A tuple missing u
# elements saturates into d^u full tuples, so each slot fixes the final m and
# the step count; the seed picks the covered elements and their components.
# One empty 3-tuple at n=6 (364 steps, m=729) is left to the tests: alone it
# would take most of a pass.
SET_SLOTS = (
    (6, 2, (6,)),
    (6, 2, (5, 4)),
    (7, 2, (6,)),
    (7, 2, (6, 5)),
    (7, 2, (5, 5, 4)),
    (8, 2, (6, 6)),
    (8, 2, (6, 5, 5, 5)),
    (5, 3, (4,)),
    (5, 3, (4, 3)),
    (6, 3, (4, 4)),
    (6, 3, (4, 3, 3)),
    (6, 3, (5,)),
)


def weak_sparse_set_tuples(rng: random.Random, n: int, d: int, uncovered) -> list[tuple]:
    """Distinct weak d-tuples, tuple k covering exactly n - uncovered[k] elements."""
    for _ in range(1000):
        tuples: list[tuple] = []
        for u in uncovered:
            for _ in range(200):
                parts = [0] * d
                for e in rng.sample(range(n), n - u):
                    parts[rng.randrange(d)] |= 1 << e
                t = tuple(parts)
                if t not in tuples and all(_cross(s, t, "weak") for s in tuples):
                    tuples.append(t)
                    break
            else:
                break
        else:
            return tuples
    raise RuntimeError(f"no weak system for n={n} d={d} uncovered={uncovered}")


def _set_pipeline(rng: random.Random, workdir: str) -> list[Op]:
    ops: list[Op] = []
    for j, (n, d, uncovered) in enumerate(SET_SLOTS):
        tuples = weak_sparse_set_tuples(rng, n, d, uncovered)
        weight = _uniform_tuza(tuples, d)
        final_m = sum(d**u for u in uncovered)
        steps = sum((d**u - 1) // (d - 1) for u in uncovered)
        src = _write(workdir, f"set{j}.json", _set_doc(n, d, tuples))
        final = os.path.join(workdir, f"set{j}-final.json")
        p = ",".join([f"1/{d}"] * d)

        def saturated(doc, n=n, d=d, weight=weight, final_m=final_m, steps=steps):
            out = doc.get("final_system") or {}
            got = [_masks(t) for t in out.get("tuples", [])]
            if doc.get("steps") != steps or len(got) != final_m:
                return f"steps={doc.get('steps')} m={len(got)}, want {steps} and {final_m}"
            if not doc.get("omega_constant"):
                return "omega changed along the trace"
            full = (1 << n) - 1
            for t in got:
                covered = 0
                for mask in t:
                    if mask & covered:
                        return "final tuple has overlapping components"
                    covered |= mask
                if covered != full:
                    return "final tuple does not cover [n]"
            if Fraction(doc["omega"]) != weight or _uniform_tuza(got, d) != weight:
                return "tuza weight of the final system differs from the input's"
            return None

        ops += [
            Op(("saturate", "--flavor", "set", "--in", src), 0, saturated, final, "final_system"),
            Op(
                ("certify", "--flavor", "set", "--in", final),
                0,
                _all(
                    _field("holds", True),
                    _quantity("m", str(final_m)),
                    lambda doc, w=weight: None
                    if Fraction(doc["quantities"]["omega"]) == w
                    else "certified omega differs from the input's",
                ),
            ),
            Op(("verify", "--kind", "weak", "--in", final), 0, _field("verdict", True)),
            Op(
                ("weight", "--functional", "tuza", "--p", p, "--in", final),
                0,
                _all(
                    _field("holds", True),
                    lambda doc, w=weight: None
                    if Fraction(doc["value"]) == w
                    else "tuza value differs from the input's",
                ),
            ),
            Op(
                ("check", "--bound", "cardinality", "--in", final),
                0,
                _all(_field("holds", True), _quantity("m", str(final_m))),
            ),
        ]
    return ops


# ---------------------------------------------------------------------------
# subspace-pipeline

# (n, dim of the first block): pair saturation from the empty pair reaches the
# 2^n pairs in 2^n - 1 steps whatever the decomposition, so the slot fixes the
# step count and the seed picks the integer entries of the blocks.  The six
# saturations are the slowest ops of a pass; one shape keeps their costs close,
# so the 90th-percentile latency falls inside their cluster.  At n=5 one job
# takes 2-3 s, half a pass; it is left to the tests (31 steps to m=32).
PAIR_SLOTS = ((4, 2),) * 6
# Embedded partitioned complement chains: the seed picks the two blocks.
CHAIN_SLOTS = (5, 5)
# Tuple saturation over QQ^4, d=3: the seed picks a 1-dim first component
# (or none) and the coordinate it sits in.
TUPLE_SLOTS = (1, 0)


def random_decomposition(rng: random.Random, n: int, k: int) -> list[list[list[int]]]:
    """Two blocks of QQ^n (dims k and n-k): the rows of a random unimodular
    integer matrix, the identity after 2n random row additions and
    subtractions, split after row k.  Every row has two or more nonzero
    entries, so no block is a coordinate subspace; the fixed number of steps
    keeps the entries, and so the cost of elimination over them, alike from
    seed to seed."""
    while True:
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(2 * n):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        if all(sum(1 for x in row if x) >= 2 for row in rows):
            return [rows[:k], rows[k:]]


def _rows_doc(rows) -> list[list[str]]:
    return [[str(x) for x in row] for row in rows]


def _pair_job(rng: random.Random, workdir: str, j: int, n: int, k: int) -> list[Op]:
    blocks = random_decomposition(rng, n, k)
    doc = {
        "kind": "subspace",
        "n": n,
        "d": 2,
        "field": "rational",
        "tuples": [[[], []]],
        "decomposition": [_rows_doc(b) for b in blocks],
    }
    src = _write(workdir, f"pair{j}.json", doc)
    final = os.path.join(workdir, f"pair{j}-final.json")
    m = 2**n

    def saturated(doc):
        out = doc.get("final_system") or {}
        tuples = out.get("tuples", [])
        if doc.get("steps") != m - 1 or len(tuples) != m:
            return f"steps={doc.get('steps')} m={len(tuples)}, want {m - 1} and {m}"
        if len({json.dumps(t) for t in tuples}) != m:
            return "final pair system repeats a pair"
        if not doc.get("omega_constant") or doc.get("omega") != "1":
            return "partitioned_yue weight is not constantly 1"
        return None

    return [
        Op(("saturate", "--flavor", "pair", "--in", src), 0, saturated, final, "final_system"),
        Op(
            ("certify", "--flavor", "pair", "--in", final),
            0,
            _all(_field("holds", True), _quantity("m", str(m)), _quantity("omega", "1")),
        ),
        Op(("verify", "--kind", "skew", "--in", final), 0, _field("verdict", True)),
        Op(
            ("weight", "--functional", "partitioned_yue", "--in", final),
            0,
            _all(_field("value", "1"), _field("holds", True), _field("tight", True)),
        ),
        Op(
            ("check", "--bound", "cardinality", "--in", final),
            0,
            _all(_field("holds", True), _quantity("m", str(m))),
        ),
    ]


def _chain_job(rng: random.Random, workdir: str, j: int, n: int) -> list[Op]:
    first = sorted(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
    second = [e for e in range(1, n + 1) if e not in first]
    blocks = "|".join(",".join(map(str, b)) for b in (first, second))
    doc_path = os.path.join(workdir, f"chain{j}.json")
    m = 2**n

    def constructed(doc):
        if doc.get("kind") != "subspace" or len(doc.get("tuples", [])) != m:
            return f"embedded chain is not {m} subspace pairs"
        if len(doc.get("decomposition", [])) != 2:
            return "embedded chain lost its decomposition"
        return None

    return [
        Op(
            (
                "construct",
                "--family",
                "partitioned_complement_chain",
                "--params",
                f"n={n}",
                f"blocks={blocks}",
                "embedded=true",
            ),
            0,
            constructed,
            doc_path,
        ),
        Op(("verify", "--kind", "skew", "--in", doc_path), 0, _field("verdict", True)),
        Op(
            ("weight", "--functional", "yue", "--in", doc_path),
            0,
            _all(_field("value", "1"), _field("holds", True), _field("tight", True)),
        ),
        # the chain's per-block profiles differ, so the certificate is refused
        Op(
            ("check", "--bound", "partitioned-uniform", "--in", doc_path),
            1,
            _field("status", "refused"),
        ),
    ]


def _tuple_job(rng: random.Random, workdir: str, j: int, first_dim: int) -> list[Op]:
    n, d = 4, 3
    components: list[list[list[int]]] = [[] for _ in range(d)]
    if first_dim:
        row = [0] * n
        while sum(1 for x in row if x) < 2:
            row = [rng.randint(-3, 3) for _ in range(n)]
        components[rng.randrange(d)] = [row]
    doc = {
        "kind": "subspace",
        "n": n,
        "d": d,
        "field": "rational",
        "tuples": [[_rows_doc(c) for c in components]],
    }
    src = _write(workdir, f"tuple{j}.json", doc)
    final = os.path.join(workdir, f"tuple{j}-final.json")
    deficit = n - first_dim
    m = d**deficit
    weight = Fraction(1, d**first_dim)

    def saturated(doc):
        tuples = (doc.get("final_system") or {}).get("tuples", [])
        if doc.get("steps") != (m - 1) // (d - 1) or len(tuples) != m:
            return f"steps={doc.get('steps')} m={len(tuples)} for deficit {deficit}"
        if not doc.get("omega_constant") or Fraction(doc["omega"]) != weight:
            return "tuza weight changed or differs from the input's"
        return None

    return [
        Op(("saturate", "--flavor", "tuple", "--in", src), 0, saturated, final, "final_system"),
        Op(
            ("certify", "--flavor", "tuple", "--in", final),
            0,
            _all(_field("holds", True), _quantity("m", str(m))),
        ),
    ]


def _subspace_pipeline(rng: random.Random, workdir: str) -> list[Op]:
    jobs = [_pair_job(rng, workdir, j, n, k) for j, (n, k) in enumerate(PAIR_SLOTS)]
    jobs += [_chain_job(rng, workdir, j, n) for j, n in enumerate(CHAIN_SLOTS)]
    jobs += [_tuple_job(rng, workdir, j, dim) for j, dim in enumerate(TUPLE_SLOTS)]
    rng.shuffle(jobs)
    return [op for job in jobs for op in job]


# ---------------------------------------------------------------------------
# search

# Known exhaustive optima, and the DFS's node counts where they are pinned;
# a node count that moves means the search does different work.
SEARCH_OPTIMA = (
    ("--n 3 --d 2 --condition skew", 8, 172),
    ("--n 4 --d 2 --condition skew", 16, 1720),
    ("--n 5 --d 2 --condition skew", 32, 19380),
    ("--n 3 --d 3 --condition weak", 27, 2212),
    ("--n 4 --d 2 --condition bollobas", 6, None),
    ("--kind subspace --field gf(2) --n 2 --d 2 --condition skew", 4, None),
)


def _search_result(objective: str, flavor: str | None, best=None, nodes=None, exhaustive=None) -> Check:
    """Check a search report; for set witnesses, re-verify the condition here."""

    def run(doc):
        if best is not None and doc.get("best_value") != str(best):
            return f"best_value={doc.get('best_value')}, want {best}"
        if nodes is not None and doc.get("nodes") != nodes:
            return f"nodes={doc.get('nodes')}, want {nodes}"
        if exhaustive is not None and doc.get("exhaustive") is not exhaustive:
            return f"exhaustive={doc.get('exhaustive')}, want {exhaustive}"
        witness = doc.get("witness")
        if witness is None:
            return "no witness"
        if objective == "max-m" and str(len(witness["tuples"])) != doc.get("best_value"):
            return "witness size differs from best_value"
        if flavor and witness["kind"] == "set":
            tuples = [_masks(t) for t in witness["tuples"]]
            if not _set_condition_holds(tuples, flavor):
                return f"witness is not a {flavor} system"
        return None

    return run


def _yue_value(doc) -> str | None:
    tuples = [_masks(t) for t in doc["witness"]["tuples"]]
    value = Fraction(0)
    for a, b in tuples:
        sa, sb = bin(a).count("1"), bin(b).count("1")
        binom = 1
        for i in range(sa):
            binom = binom * (sa + sb - i) // (i + 1)
        value += Fraction(1, (1 + sa + sb) * binom)
    if value != Fraction(doc["best_value"]) or value > 1:
        return f"yue value {value} of the witness differs from {doc['best_value']}"
    return None


def _random_system(kind: str, flavor: str, want_m: int) -> Check:
    def run(doc):
        tuples = doc.get("tuples", [])
        if doc.get("kind") != kind or not 1 <= len(tuples) <= want_m:
            return f"random {kind} system has {len(tuples)} tuples"
        if kind == "set" and not _set_condition_holds([_masks(t) for t in tuples], flavor):
            return f"random set system is not {flavor}"
        return None

    return run


# The four slowest ops (skew n=5, the two budget-capped GF(2) n=3 searches and
# the capped max-weight search) are sized to cost about the same, and they are
# 4 of 30 ops, so that the 90th-percentile latency falls inside that cluster
# rather than on the edge between two ops of different cost, where it would
# jump from run to run.  The cheap ops also keep a run at 100 ops or more, ten
# of them beyond the 90th percentile, on a host half as fast.
def _search(rng: random.Random) -> list[Op]:
    def argv(text: str) -> tuple[str, ...]:
        return tuple(text.split())

    ops = [
        Op(
            argv(f"search --objective max-m {args}"),
            0,
            _search_result("max-m", None if "subspace" in args else args.split()[-1], best, nodes, True),
        )
        for args, best, nodes in SEARCH_OPTIMA
    ]
    ops += [
        Op(argv(f"search --objective max-m {args}"), 0, _search_result("max-m", flavor, exhaustive=True))
        for args, flavor in (
            ("--n 3 --d 2 --condition weak", "weak"),
            ("--n 3 --d 2 --condition bollobas", "bollobas"),
            ("--n 2 --d 3 --condition skew", "skew"),
            ("--n 3 --d 2 --condition skew --uniform 1,1", "skew"),
        )
    ]
    ops += [
        Op(argv("search --objective max-m --n 4 --d 2 --condition weak"), 0, _search_result("max-m", "weak", exhaustive=True)),
        Op(argv("search --objective max-m --n 4 --d 2 --condition skew --uniform 2,2"), 0, _search_result("max-m", "skew", exhaustive=True)),
        Op(
            argv("search --objective max-weight --n 4 --d 2 --condition skew --functional yue --budget 3800"),
            0,
            _all(_search_result("max-weight", "skew", nodes=3801, exhaustive=False), _yue_value),
        ),
        Op(argv("search --objective max-m --kind subspace --field gf(3) --n 2 --d 2 --condition skew"), 0, _search_result("max-m", None, exhaustive=True)),
        Op(argv("search --objective max-m --kind subspace --field gf(2) --n 2 --d 2 --condition weak"), 0, _search_result("max-m", None, exhaustive=True)),
        Op(argv("search --objective max-m --kind subspace --field gf(2) --n 3 --d 2 --condition weak --budget 600"), 0, _search_result("max-m", None, nodes=601, exhaustive=False)),
        Op(argv("search --objective max-m --kind subspace --field gf(2) --n 3 --d 2 --condition skew --budget 120"), 0, _search_result("max-m", None, nodes=121, exhaustive=False)),
        Op(
            argv("search --objective counterexample --kind subspace --field gf(2) --n 2 --d 2 --condition weak --functional tuza --p 1/2,1/2"),
            0,
            lambda doc: None if Fraction(doc.get("best_value", "0")) > 1 else "no weight above 1 over GF(2)",
        ),
    ]
    # the seed varies the explorer's and the generators' own seeds
    for p, field in (("1/2,1/2", "gf(3)"), ("1/3,2/3", "gf(2)"), ("1/2,1/2", "gf(2)")):
        ops.append(
            Op(
                argv(f"explore --n 2 --d 2 --p {p} --field {field}"),
                0,
                _all(_field("exhaustive", True), _field("exceeds_one", True)),
            )
        )
    ops.append(
        Op(
            argv(f"explore --n 3 --d 2 --p 1/2,1/2 --field rational --budget 1000 --seed {rng.randrange(10**6)}"),
            0,
            # over QQ a value above 1 would be a finding, not a failure
            _all(
                _field("nodes", 5),
                lambda doc: None
                if doc["exceeds_one"] == (Fraction(doc["best_value"]) > 1)
                else "exceeds_one contradicts best_value",
            ),
        )
    )
    for n, d, flavor in ((5, 2, "skew"), (4, 3, "weak"), (5, 2, "bollobas"), (6, 2, "skew"), (3, 3, "skew")):
        ops.append(
            Op(
                argv(f"random --seed {rng.randrange(10**6)} --m 8 --n {n} --d {d} --condition {flavor}"),
                0,
                _random_system("set", flavor, 8),
            )
        )
    for field, flavor in (("gf(3)", "skew"), ("gf(3)", "skew"), ("gf(2)", "weak")):
        ops.append(
            Op(
                argv(f"random --seed {rng.randrange(10**6)} --m 4 --n 2 --d 2 --kind subspace --field {field} --condition {flavor}"),
                0,
                _random_system("subspace", flavor, 4),
            )
        )
    rng.shuffle(ops)
    return ops
