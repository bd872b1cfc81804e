"""System documents, report documents, and the command-line surface.

One self-describing JSON document format covers both system kinds, so the
``embed`` command can map one to the other inside a single pipeline:

    {"kind": "set", "n": 2, "d": 2,
     "tuples": [[[1], [2]], [[2], [1]]],
     "partition": [[1], [2]]}

    {"kind": "subspace", "n": 2, "d": 2, "field": "rational",
     "tuples": [[[["1", "0"]], [["0", "1"]]]],
     "decomposition": [[["1", "0"]], [["0", "1"]]]}

Subsets are sorted 1-based integer lists; subspaces are row matrices of
scalar strings ("num/den" over the rationals, "r mod p" over GF(p)), the zero
subspace being the empty matrix.  Non-canonical rows are accepted and
canonicalized on load, after which serialize-parse round-trips exactly.

Reports are JSON with every number an exact string.  Exit status 0 means the
verdict was true / the inequality holds; 1 means a violation, an unlicensed
bound, or a failed precondition; 2 means a usage, parse, or shape error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any, Sequence

from .constructions import FAMILY_NAMES, construct
from .errors import (
    BollobasError,
    BudgetError,
    DocumentError,
    DuplicateTupleError,
    FieldMismatchError,
    LicensingError,
    PartitionError,
    PreconditionError,
    ShapeError,
)
from .exact_arith import (
    FieldTag,
    ProbabilityVector,
    field_from_str,
    rational_to_str,
)
from .extremal_search import (
    SearchProblem,
    SearchResult,
    explore_weak_subspace_conjecture,
    random_compatible_pair_system,
    random_valid_system,
    search_max,
)
from .saturation_engine import (
    SaturationTrace,
    certify_full_system,
    saturate,
)
from .subspace_algebra import Decomposition, Subspace, canonicalize
from .systems_model import (
    SetSystem,
    SubspaceSystem,
    System,
    elements_of_mask,
    embed,
    mask_from_elements,
)
from .verifiers import (
    Certificate,
    VerificationReport,
    check_cardinality_lemmas,
    check_partitioned_uniform_bound,
    check_uniform_pair_bound,
    verify,
)
from .weight_functionals import (
    FUNCTIONALS,
    FunctionalKind,
    InequalityVerdict,
    evaluate_inequality,
    omega,
)

# Largest ground dimension and arity a document or the ``random`` command may
# name.  They sit far above every exhaustive guard; without them a few bytes
# of input could ask for work such as building the bignum 3^n.
MAX_N = 64
MAX_D = 16

# ---------------------------------------------------------------------------
# documents


def system_to_doc(system: System) -> dict:
    if isinstance(system, SetSystem):
        doc: dict[str, Any] = {
            "kind": "set",
            "n": system.n,
            "d": system.d,
            "tuples": [
                [list(elements_of_mask(mask)) for mask in t] for t in system.tuples
            ],
        }
        if system.partition is not None:
            doc["partition"] = [list(elements_of_mask(b)) for b in system.partition]
        return doc
    doc = {
        "kind": "subspace",
        "n": system.n,
        "d": system.d,
        "field": str(system.field),
        "tuples": [[_subspace_rows(sub) for sub in t] for t in system.tuples],
    }
    if system.decomposition is not None:
        doc["decomposition"] = [
            _subspace_rows(blk) for blk in system.decomposition.blocks
        ]
    return doc


def _subspace_rows(sub: Subspace) -> list[list[str]]:
    return [[sub.field.scalar_to_str(x) for x in row] for row in sub.basis]


def serialize(system: System) -> str:
    return json.dumps(system_to_doc(system), indent=2)


def system_from_doc(doc: Any) -> System:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    kind = doc.get("kind")
    if kind not in ("set", "subspace"):
        raise DocumentError(f"kind must be 'set' or 'subspace', got {kind!r}", "kind")
    n = _expect_int(doc, "n", MAX_N)
    d = _expect_int(doc, "d", MAX_D)
    tuples = doc.get("tuples")
    if not isinstance(tuples, list):
        raise DocumentError("tuples must be a list", "tuples")

    if kind == "set":
        packed = []
        for i, t in enumerate(tuples):
            if not isinstance(t, list) or len(t) != d:
                raise DocumentError(f"expected a {d}-tuple of subsets", f"tuples[{i}]")
            masks = []
            for l, subset in enumerate(t):
                if not isinstance(subset, list):
                    raise DocumentError("subset must be an integer list", f"tuples[{i}][{l}]")
                try:
                    masks.append(mask_from_elements(subset, n))
                except (ValueError, TypeError) as exc:
                    raise DocumentError(str(exc), f"tuples[{i}][{l}]") from exc
            packed.append(tuple(masks))
        partition = None
        if "partition" in doc:
            blocks = doc["partition"]
            if not isinstance(blocks, list):
                raise DocumentError("partition must be a list of blocks", "partition")
            masks = []
            for k, b in enumerate(blocks):
                try:
                    masks.append(mask_from_elements(b, n))
                except (ValueError, TypeError) as exc:
                    raise DocumentError(str(exc), f"partition[{k}]") from exc
            partition = tuple(masks)
        try:
            return SetSystem(n, d, tuple(packed), partition)
        except PartitionError as exc:
            where = "partition" if exc.block is None else f"partition[{exc.block}]"
            raise DocumentError(str(exc), where) from exc
        except (ValueError, ShapeError) as exc:
            raise DocumentError(str(exc)) from exc

    field_name = doc.get("field", "rational")
    try:
        field = field_from_str(str(field_name))
    except ValueError as exc:
        raise DocumentError(str(exc), "field") from exc
    packed_subs = []
    for i, t in enumerate(tuples):
        if not isinstance(t, list) or len(t) != d:
            raise DocumentError(f"expected a {d}-tuple of subspaces", f"tuples[{i}]")
        subs = []
        for l, rows in enumerate(t):
            subs.append(_subspace_from_rows(rows, n, field, f"tuples[{i}][{l}]"))
        packed_subs.append(tuple(subs))
    decomposition = None
    if "decomposition" in doc:
        blocks_doc = doc["decomposition"]
        if not isinstance(blocks_doc, list):
            raise DocumentError("decomposition must be a list of block bases", "decomposition")
        blocks = tuple(
            _subspace_from_rows(rows, n, field, f"decomposition[{k}]")
            for k, rows in enumerate(blocks_doc)
        )
        try:
            decomposition = Decomposition(n, field, blocks)
        except (ValueError, FieldMismatchError) as exc:
            raise DocumentError(str(exc), "decomposition") from exc
    try:
        return SubspaceSystem(n, field, d, tuple(packed_subs), decomposition)
    except (ValueError, ShapeError) as exc:
        raise DocumentError(str(exc)) from exc


def _expect_int(doc: dict, key: str, cap: int) -> int:
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise DocumentError(f"{key} must be an integer", key)
    if value > cap:
        raise DocumentError(f"{key}={value} is above the cap {cap}", key)
    return value


def _subspace_from_rows(rows: Any, n: int, field: FieldTag, where: str) -> Subspace:
    if not isinstance(rows, list):
        raise DocumentError("subspace must be a list of rows", where)
    parsed = []
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise DocumentError(f"row must have {n} entries", f"{where}[{r}]")
        try:
            parsed.append(field.parse_row([str(x) for x in row]))
        except ValueError as exc:
            raise DocumentError(str(exc), f"{where}[{r}]") from exc
    # non-RREF input is legal; canonicalization restores the invariant
    return canonicalize(n, field, parsed)


def parse(text: str) -> System:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(exc.msg, f"line {exc.lineno} column {exc.colno}") from exc
    return system_from_doc(doc)


# ---------------------------------------------------------------------------
# report fragments


def report_verification(report: VerificationReport) -> dict:
    return {
        "verdict": report.verdict,
        "first_violation": list(report.first_violation) if report.first_violation else None,
        "condition": str(report.condition),
        "field_caveat": report.field_caveat,
    }


def report_verdict(verdict: InequalityVerdict) -> dict:
    return {
        "value": rational_to_str(verdict.value),
        "bound": rational_to_str(verdict.bound),
        "holds": verdict.holds,
        "tight": verdict.tight,
        "licensed_by": str(verdict.licensed_by),
        "field_caveat": verdict.field_caveat,
    }


def report_certificate(cert: Certificate) -> dict:
    return {
        "check": cert.check,
        "holds": cert.holds,
        "quantities": {k: v for k, v in cert.quantities},
        "classes": [
            {"profile": list(c.profile), "count": c.count, "bound": c.bound}
            for c in cert.classes
        ],
        "field_caveat": cert.field_caveat,
        "findings": list(cert.findings),
    }


def report_trace(trace: SaturationTrace, include_steps: bool) -> dict:
    doc = {
        "flavor": trace.flavor,
        "functional": str(trace.functional),
        "steps": len(trace.steps),
        "omega": rational_to_str(trace.omegas[0]),
        "omega_constant": len(set(trace.omegas)) == 1,
        "phi_initial": trace.phis[0],
        "phi_final": trace.phis[-1],
        "final_system": system_to_doc(trace.final),
    }
    if include_steps:
        doc["trace"] = [
            {
                "index": s.index,
                "block": s.block,
                "x": _x_to_doc(s.x, trace.final),
                "omega": rational_to_str(om),
                "phi": ph,
            }
            for s, om, ph in zip(trace.steps, trace.omegas[1:], trace.phis[1:])
        ]
    return doc


def _x_to_doc(x, system: System) -> Any:
    """A set step's ground element as it is; a subspace step's vector as
    scalar strings of the system's field."""
    if isinstance(x, int):
        return x
    return [system.field.scalar_to_str(v) for v in x]


def report_search(result: SearchResult) -> dict:
    return {
        "best_value": rational_to_str(Fraction(result.best_value)),
        "witness": system_to_doc(result.witness) if result.witness is not None else None,
        "nodes": result.nodes,
        "exhaustive": result.exhaustive,
    }


# ---------------------------------------------------------------------------
# command-line interface


def _read_system(args) -> System:
    if args.infile and args.infile != "-":
        try:
            with open(args.infile, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DocumentError(f"cannot read input: {exc.strerror or exc}", args.infile) from exc
        return parse(text)
    return parse(sys.stdin.read())


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_verify(args) -> int:
    system = _read_system(args)
    report = verify(system, args.kind, monotone=args.monotone)
    _emit({"command": "verify", "kind": args.kind, **report_verification(report)})
    return 0 if report.verdict else 1


def _functional_name(raw: str) -> str:
    """Accept both full kind names and their short forms (yue == yue_sum)."""
    name = raw if raw.endswith("_sum") else f"{raw}_sum"
    if name not in FUNCTIONALS:
        raise ShapeError(f"unknown functional {raw!r}; choose from {FUNCTIONALS}")
    return name


def _parse_functional(args) -> FunctionalKind:
    name = _functional_name(args.functional)
    if name == "tuza_sum":
        if not args.p:
            raise ShapeError("tuza_sum needs --p")
        return FunctionalKind("tuza_sum", ProbabilityVector.parse(args.p))
    if args.p:
        raise ShapeError(f"{name} takes no --p")
    return FunctionalKind(name)


def _cmd_weight(args) -> int:
    system = _read_system(args)
    kind = _parse_functional(args)
    if args.value_only:
        _emit(
            {
                "command": "weight",
                "functional": str(kind),
                "value": rational_to_str(omega(system, kind)),
                "licensed": None,
            }
        )
        return 0
    verdict = evaluate_inequality(system, kind)
    _emit({"command": "weight", "functional": str(kind), **report_verdict(verdict)})
    return 0 if verdict.holds else 1


def _cmd_saturate(args) -> int:
    system = _read_system(args)
    p = ProbabilityVector.parse(args.p) if args.p else None
    trace = saturate(system, args.flavor, p=p, debug=args.debug)
    _emit({"command": "saturate", **report_trace(trace, include_steps=args.trace)})
    return 0


def _cmd_certify(args) -> int:
    system = _read_system(args)
    p = ProbabilityVector.parse(args.p) if args.p else None
    cert = certify_full_system(system, args.flavor, p=p)
    _emit({"command": "certify", **report_certificate(cert)})
    return 0 if cert.holds else 1


def _cmd_check(args) -> int:
    system = _read_system(args)
    if args.bound == "uniform-pair":
        cert = check_uniform_pair_bound(system)
    elif args.bound == "partitioned-uniform":
        cert = check_partitioned_uniform_bound(system)
    else:
        cert = check_cardinality_lemmas(system)
    _emit({"command": "check", "bound": args.bound, **report_certificate(cert)})
    return 0 if cert.holds else 1


def _cmd_search(args) -> int:
    field = field_from_str(args.field) if args.field else None
    functional = None
    if args.functional:
        name = _functional_name(args.functional)
        p = ProbabilityVector.parse(args.p) if args.p else None
        functional = (
            FunctionalKind("tuza_sum", p) if name == "tuza_sum" else FunctionalKind(name)
        )
    uniform = None
    if args.uniform:
        uniform = tuple(int(x) for x in args.uniform.split(","))
    objective = args.objective.replace("-", "_")
    problem = SearchProblem(
        kind=args.kind,
        n=args.n,
        d=args.d,
        flavor=args.condition,
        objective=objective,
        functional=functional,
        field=field,
        uniform_sizes=uniform,
        node_budget=args.budget,
        prune=not args.no_prune,
    )
    result = search_max(problem)
    _emit(
        {
            "command": "search",
            "objective": args.objective,
            "budget": args.budget,
            **report_search(result),
        }
    )
    return 0


def _cmd_explore(args) -> int:
    field = field_from_str(args.field)
    p = ProbabilityVector.parse(args.p)
    result = explore_weak_subspace_conjecture(
        args.n, args.d, p, field, budget=args.budget, seed=args.seed
    )
    exceeds = Fraction(result.best_value) > 1
    _emit(
        {
            "command": "explore",
            "field": str(field),
            "budget": args.budget,
            "seed": args.seed,
            "exceeds_one": exceeds,
            "note": (
                "a value above 1 is a finding for this field only; "
                "the real-vector-space question stays open"
            ),
            **report_search(result),
        }
    )
    return 0


def _cmd_construct(args) -> int:
    params = _parse_params(args.params or [])
    system = construct(args.family, **params)
    _emit(system_to_doc(system))
    return 0


def _parse_params(entries: Sequence[str]) -> dict:
    out: dict[str, Any] = {}
    for entry in entries:
        key, sep, value = entry.partition("=")
        if not sep:
            raise ShapeError(f"params look like key=value, got {entry!r}")
        if key == "blocks":
            out[key] = [
                [int(x) for x in block.split(",") if x] for block in value.split("|")
            ]
        elif key == "embedded":
            out[key] = value.lower() in ("1", "true", "yes")
        else:
            out[key] = int(value)
    return out


def _cmd_embed(args) -> int:
    system = _read_system(args)
    if not isinstance(system, SetSystem):
        raise ShapeError("embed expects a set system document")
    _emit(system_to_doc(embed(system)))
    return 0


def _cmd_random(args) -> int:
    for flag, value, cap in (("--n", args.n, MAX_N), ("--d", args.d, MAX_D)):
        if value > cap:
            raise ShapeError(f"{flag} {value} is above the cap {cap}")
    field = field_from_str(args.field) if args.field else None
    if args.compatible_blocks:
        blocks = [
            [int(x) for x in block.split(",") if x]
            for block in args.compatible_blocks.split("|")
        ]
        system: System = random_compatible_pair_system(args.n, blocks, args.m, args.seed)
    else:
        system = random_valid_system(
            args.kind,
            args.n,
            args.d,
            args.condition,
            target_m=args.m,
            seed=args.seed,
            field=field,
        )
    _emit(system_to_doc(system))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bollobas",
        description=(
            "Construct, verify, transform, and certify Bollobás-type systems "
            "of set or subspace tuples with exact arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_infile(p):
        p.add_argument("--in", dest="infile", default=None, help="system document path (default: stdin)")

    p = sub.add_parser("verify", help="check a condition, reporting the first violation")
    add_infile(p)
    p.add_argument("--kind", required=True, choices=("bollobas", "skew", "weak"))
    p.add_argument("--monotone", action="store_true", help="record the monotone flag on the condition")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("weight", help="evaluate a functional and its licensed bound")
    add_infile(p)
    p.add_argument(
        "--functional",
        required=True,
        help="functional kind; the _sum suffix may be dropped (yue == yue_sum)",
    )
    p.add_argument("--p", default=None, help="comma-separated rationals summing to 1")
    p.add_argument("--value-only", action="store_true", help="skip the licensing check")
    p.set_defaults(func=_cmd_weight)

    p = sub.add_parser("saturate", help="fill up every tuple, tracking weight and potential")
    add_infile(p)
    p.add_argument("--flavor", required=True, choices=("set", "pair", "tuple"))
    p.add_argument("--p", default=None)
    p.add_argument("--trace", action="store_true", help="include per-step records")
    p.add_argument(
        "--debug",
        action="store_true",
        help="after every step, recompute the whole-system weight and potential "
        "and re-verify the condition (each step checks only its own tuples)",
    )
    p.set_defaults(func=_cmd_saturate)

    p = sub.add_parser("certify", help="type-class certification of a full system")
    add_infile(p)
    p.add_argument("--flavor", default=None, choices=("set", "pair", "tuple"))
    p.add_argument("--p", default=None)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("check", help="counting-bound certificates")
    add_infile(p)
    p.add_argument(
        "--bound",
        required=True,
        choices=("uniform-pair", "partitioned-uniform", "cardinality"),
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("search", help="exhaustive/budgeted search over a small ground")
    p.add_argument("--objective", required=True, choices=("max-m", "max-weight", "counterexample"))
    p.add_argument("--kind", default="set", choices=("set", "subspace"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--condition", default="skew", choices=("bollobas", "skew", "weak"))
    p.add_argument("--field", default=None, help="subspace searches: gf(p)")
    p.add_argument("--functional", default=None)
    p.add_argument("--p", default=None)
    p.add_argument("--uniform", default=None, help="comma-separated component sizes")
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--no-prune", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("explore", help="weak-subspace tuza maxima (open-problem evidence)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("construct", help="emit a tight family as a system document")
    p.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p.add_argument(
        "--params",
        nargs="*",
        help="key=value; blocks as 1,2|3,4; embedded=true for the subspace variant",
    )
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("embed", help="map a set document to its coordinate-subspace document")
    add_infile(p)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("random", help="emit a seeded random valid system")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--condition", default="skew", choices=("bollobas", "skew", "weak"))
    p.add_argument("--kind", default="set", choices=("set", "subspace"))
    p.add_argument("--field", default=None)
    p.add_argument(
        "--compatible-blocks",
        default=None,
        help="emit a decomposition-compatible rational pair system over these blocks (1,2|3,4)",
    )
    p.set_defaults(func=_cmd_random)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (DocumentError, ShapeError, FieldMismatchError, BudgetError, ValueError) as exc:
        _emit({"error": str(exc), "status": "usage"})
        return 2
    except (LicensingError, PreconditionError, DuplicateTupleError) as exc:
        _emit({"error": str(exc), "status": "refused"})
        return 1
    except BollobasError as exc:  # internal invariant failures
        _emit({"error": str(exc), "status": "internal"})
        return 2


def console_main() -> None:
    sys.exit(main())
