"""System documents, report documents, and the command-line surface.

One self-describing JSON document format covers both system kinds, so the
``embed`` command can map one to the other inside a single pipeline:

    {"kind": "set", "n": 2, "d": 2,
     "tuples": [[[1], [2]], [[2], [1]]],
     "partition": [[1], [2]]}

    {"kind": "subspace", "n": 2, "d": 2, "field": "rational",
     "tuples": [[[["1", "0"]], [["0", "1"]]]],
     "decomposition": [[["1", "0"]], [["0", "1"]]]}

Subsets are sorted 1-based integer lists, each element an int in [1, n];
subspaces are row matrices of scalar strings ("num/den" over the
rationals, "r mod p" over GF(p)), the zero subspace being the empty matrix.
Non-canonical rows are accepted and canonicalized on load, after which
serialize-parse round-trips exactly.
Components of one document with the same entry texts are parsed once, to
one shared ``Subspace``.

``parse`` reads a set document's elements by one lookup each in the table
``{e: 1 << (e - 1)}`` for e in [1, n] when its text holds no ``true`` or
``false`` and the decoder read no float, since ``True`` and ``1.0`` find
the entry of 1.  Any other document, and any subset the lookup misses, is
read by the checked loop, so every refusal names the first bad tuple,
subset or element (see ``parse``).

A scalar may be a bare JSON number.  A bare integer is read as it is.  A
bare number with a fraction or an exponent is kept as the float ``json``
gives only when that float's shortest text (its ``repr``) is the same
rational as the literal, so that it reads as its quoted text would: ``0.1``
reads as 1/10, although no binary float is 1/10.  Otherwise the document is
refused with a message to quote it (``0.1000000000000000000001`` reads as the
float ``0.1``, ``1e400`` as ``inf``).  ``NaN`` and ``Infinity`` are refused.

A document nesting lists and objects more than ``MAX_NESTING`` (64) deep
is refused as nesting too deeply whenever some of its text goes unread (a
refusal, a key the reader skips, a key given twice), however deep the
caller's stack is (see ``parse``).

Reports are JSON with every number an exact string, written as the
standard ``json`` module writes them with an indent of 2.  A system in a
report (a whole document, a saturation's final system, a search witness) is
written from its value, each distinct component's text once: one per mask
for sets, one per ``Subspace`` for subspaces.  Exit status 0 means the
verdict was true / the inequality holds; 1 means a violation, an unlicensed
bound, or a failed precondition; 2 means a usage, parse, or shape error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Sequence

from .constructions import FAMILY_NAMES, construct
from .errors import DocumentError, PartitionError, PreconditionError, ShapeError, check_sizes
from .exact_arith import (
    FieldTag,
    ProbabilityVector,
    field_from_str,
    rational_from_str,
    rational_to_str,
)
from .extremal_search import (
    DEFAULT_NODE_BUDGET,
    SearchProblem,
    SearchResult,
    explore_weak_subspace_conjecture,
    random_compatible_pair_system,
    random_valid_system,
    search_max,
)
from .saturation_engine import (
    FLAVORS,
    SaturationTrace,
    certify_full_system,
    saturate,
)
from .subspace_algebra import Decomposition, Subspace, rref
from .systems_model import (
    SetSystem,
    SubspaceSystem,
    System,
    blocks_of,
    elements_of_mask,
    embed,
    mask_from_elements,
)
from .verifiers import (
    FLAVORS as CONDITIONS,
    Certificate,
    VerificationReport,
    check_cardinality_lemmas,
    check_partitioned_uniform_bound,
    check_uniform_pair_bound,
    verify,
)
from .weight_functionals import (
    FUNCTIONALS,
    RULES,
    FunctionalKind,
    InequalityVerdict,
    evaluate_inequality,
    omega,
)

# ---------------------------------------------------------------------------
# documents


def system_to_doc(system: System) -> dict:
    """The document of ``system`` as a dict, keys in the order a report
    writes them."""
    return _system_doc(system, [[_component_doc(c) for c in t] for t in system.tuples])


def _system_doc(system: System, tuples: Any) -> dict:
    """The document of ``system`` with ``tuples`` as the value of its
    "tuples": its header, then the tuples, then its partition or
    decomposition, if any.  :func:`system_to_doc` and the report writer both
    read it, so the layout is set here alone."""
    if isinstance(system, SetSystem):
        doc: dict[str, Any] = {"kind": "set", "n": system.n, "d": system.d, "tuples": tuples}
        context = "partition"
    else:
        doc = {
            "kind": "subspace",
            "n": system.n,
            "d": system.d,
            "field": str(system.field),
            "tuples": tuples,
        }
        context = "decomposition"
    blocks = blocks_of(system)
    if blocks is not None:
        doc[context] = [_component_doc(b) for b in blocks]
    return doc


def _component_doc(component: int | Subspace) -> list:
    """A set component (a mask) as its sorted elements; a subspace as its
    rows' entry texts."""
    if type(component) is int:
        return list(elements_of_mask(component))
    return [component.field.format_row(row) for row in component.rows]


class _Text(str):
    """Text already written for its place in a report, which ``_dumps``
    copies as it is."""


def _tuples_text(tuples: tuple, newline: str) -> _Text:
    """The "tuples" list of a system document, as ``_dumps`` would write it
    on the line that ``newline`` starts, with each distinct component's text
    built once."""
    if not tuples:
        return _Text("[]")
    row = newline + "  "
    cell = row + "  "
    texts = dict.fromkeys(c for t in tuples for c in t)
    for c in texts:
        texts[c] = _dumps(_component_doc(c), cell)
    between = "," + cell
    rows = ["[" + cell + between.join([texts[c] for c in t]) + row + "]" for t in tuples]
    return _Text("[" + row + ("," + row).join(rows) + newline + "]")


def serialize(system: System) -> str:
    return _dumps(system)


def _dumps(value: Any, newline: str = "\n") -> str:
    """The text the ``json`` module writes for ``value`` with an indent of 2,
    for what a report holds: dicts with ``str`` keys, lists and tuples,
    ``str``, ``int``, ``bool`` and None, and a ``SetSystem`` or
    ``SubspaceSystem`` as its :func:`system_to_doc`, each distinct component
    written once.  Any other type raises ``TypeError``.  With an indent,
    ``json`` runs its pure-Python encoder; this one joins each container's
    item texts in one pass.  ``newline`` breaks and indents the line
    ``value`` starts on."""
    cls = type(value)
    if cls is str:
        return _quote(value)
    if cls is list or cls is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        items = [
            int.__repr__(x) if type(x) is int else _quote(x) if type(x) is str else _dumps(x, inner)
            for x in value
        ]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if cls is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        items = []
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            items.append(_quote(key) + ": " + _dumps(item, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if cls is int:
        return int.__repr__(value)
    if cls is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if cls is _Text:
        return value
    if cls is SetSystem or cls is SubspaceSystem:
        return _dumps(_system_doc(value, _tuples_text(value.tuples, newline + "  ")), newline)
    raise TypeError(f"a report cannot hold {cls.__name__}")


def system_from_doc(doc: Any) -> System:
    """The system of a decoded document.  A set document's elements are
    read by ``mask_from_elements``, or by table lookup in an ``_Exact``,
    which ``parse`` decodes (see ``_subset_masks``)."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    kind = doc.get("kind")
    if kind not in ("set", "subspace"):
        raise DocumentError(f"kind must be 'set' or 'subspace', got {kind!r}", "kind")
    n = _expect_int(doc, "n")
    d = _expect_int(doc, "d")
    tuples = doc.get("tuples")
    if not isinstance(tuples, list):
        raise DocumentError("tuples must be a list", "tuples")

    if kind == "set":
        bit = {e: 1 << (e - 1) for e in range(1, n + 1)} if type(doc) is _Exact else None
        packed = _subset_masks(tuples, d, n, bit, "tuples[{0}][{1}]")
        partition = None
        if "partition" in doc:
            blocks = doc["partition"]
            if not isinstance(blocks, list):
                raise DocumentError("partition must be a list of blocks", "partition")
            partition = _subset_masks([blocks], len(blocks), n, bit, "partition[{1}]")[0]
        return _set_system(n, d, packed, partition)

    field_name = doc.get("field", "rational")
    try:
        field = field_from_str(str(field_name))
    except ShapeError as exc:
        raise DocumentError(str(exc), "field") from exc
    # equal components of one document parse once, to one Subspace
    memo: dict[tuple, Subspace] = {}
    packed_subs = []
    for i, t in enumerate(tuples):
        if not isinstance(t, list) or len(t) != d:
            raise DocumentError(f"expected a {d}-tuple of subspaces", f"tuples[{i}]")
        subs = []
        for l, rows in enumerate(t):
            subs.append(_subspace_from_rows(rows, n, field, f"tuples[{i}][{l}]", memo))
        packed_subs.append(tuple(subs))
    decomposition = None
    if "decomposition" in doc:
        blocks_doc = doc["decomposition"]
        if not isinstance(blocks_doc, list):
            raise DocumentError("decomposition must be a list of block bases", "decomposition")
        blocks = tuple(
            _subspace_from_rows(rows, n, field, f"decomposition[{k}]", memo)
            for k, rows in enumerate(blocks_doc)
        )
        try:
            decomposition = Decomposition(n, field, blocks)
        except ShapeError as exc:
            raise DocumentError(str(exc), "decomposition") from exc
    return SubspaceSystem(n, field, d, tuple(packed_subs), decomposition)


def _subset_masks(lists: list, arity: int, n: int, bit: dict | None, where: str) -> list[tuple]:
    """Each list of ``arity`` subsets in ``lists`` as a tuple of masks.

    With ``bit``, an ``_Exact`` document's table ``{e: 1 << (e - 1)}`` for
    e in [1, n], a subset's elements are read by one lookup each.  With no
    table, or when the lookup misses or meets an unhashable element, that
    subset alone is read by ``mask_from_elements``, whose refusal names it by
    ``where.format(i, l)``: the l-th subset of the i-th list.  Every subset
    before the first refused one passed the lookup, which only ints in
    [1, n] pass, so that refusal has the checked loop's text and path.  The
    partition is one list, so only a tuple can have the wrong arity."""
    out = []
    for subsets in lists:
        if not isinstance(subsets, list) or len(subsets) != arity:
            raise DocumentError(f"expected a {arity}-tuple of subsets", f"tuples[{len(out)}]")
        masks = []
        for subset in subsets:
            if not isinstance(subset, list):
                raise DocumentError("subset must be an integer list", where.format(len(out), len(masks)))
            if bit is not None:
                try:
                    mask = 0
                    for e in subset:
                        mask |= bit[e]
                    masks.append(mask)
                    continue
                except (KeyError, TypeError):  # not an int in [1, n]: the checked read names it
                    pass
            try:
                masks.append(mask_from_elements(subset, n))
            except ShapeError as exc:
                raise DocumentError(str(exc), where.format(len(out), len(masks))) from exc
        out.append(tuple(masks))
    return out


def _set_system(n: int, d: int, packed: list, partition: tuple | None) -> SetSystem:
    """The system of a set document's masks, a partition fault named by
    its block."""
    try:
        return SetSystem(n, d, tuple(packed), partition)
    except PartitionError as exc:
        where = "partition" if exc.block is None else f"partition[{exc.block}]"
        raise DocumentError(str(exc), where) from exc


def _expect_int(doc: dict, key: str) -> int:
    """A document's n or d: an integer in its ``check_sizes`` range."""
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise DocumentError(f"{key} must be an integer", key)
    try:
        check_sizes({key: value}, "")
    except ShapeError as exc:
        raise DocumentError(str(exc), key) from exc
    return value


def _subspace_from_rows(rows: Any, n: int, field: FieldTag, where: str, memo: dict) -> Subspace:
    """The subspace spanned by a document's rows.  ``memo`` maps the entry
    texts handed to ``parse_row`` to the subspace they gave, so a component
    that repeats an earlier one's texts is that same object.  The texts are
    the key, not the JSON values: ``true`` and ``1`` are equal in Python but
    only "1" parses.  The first bad row is reported, whether its length or
    an entry is wrong: rows before a row of the wrong length are parsed
    before that row is refused."""
    if not isinstance(rows, list):
        raise DocumentError("subspace must be a list of rows", where)
    texts = []
    short = None
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            short = r
            break
        texts.append(tuple(map(str, row)))
    key = tuple(texts)
    found = None if short is not None else memo.get(key)
    if found is None:
        parsed = []
        for r, row in enumerate(texts):
            try:
                parsed.append(field.parse_row(row))
            except ShapeError as exc:
                raise DocumentError(str(exc), f"{where}[{r}]") from exc
        if short is not None:
            raise DocumentError(f"row must have {n} entries", f"{where}[{short}]")
        # non-RREF input is legal; rref restores the invariant
        found = memo[key] = Subspace(n, field, rref(parsed, n, field))
    return found


def _bare_float(text: str) -> float:
    """A bare JSON number with a fraction or exponent, kept as the float
    ``json`` would give when that float's shortest text (its ``repr``) is
    the same rational as ``text``; refused otherwise, since the float reads
    as another number."""
    value = float(text)
    try:
        same = rational_from_str(repr(value)) == rational_from_str(text)
    except ShapeError:  # inf, or an exponent past the digit limit
        same = False
    if not same:
        raise DocumentError(
            f"the bare number {text} reads as the float {value!r}, another number; "
            f"quote it: \"{text}\""
        )
    return value


def _bare_constant(text: str):
    raise DocumentError(f"{text} is not a number a document may hold")


# Deepest nesting of lists and objects a document may have; a valid one
# nests 5 deep (a subspace document's rows).  The JSON decoder's own limit
# moves with the caller's stack, so this bound decides instead.
MAX_NESTING = 64
_TOO_DEEP = "document nests too deeply"
# the keys ``system_from_doc`` reads, per kind: ``parse`` bounds the nesting
# of the values under any other key
_READ_KEYS = {
    "set": frozenset({"kind", "n", "d", "tuples", "partition"}),
    "subspace": frozenset({"kind", "n", "d", "field", "tuples", "decomposition"}),
}
# a JSON string (or what follows an unclosed quote), or a run of text with
# no bracket in it
_NOT_BRACKETS = re.compile(r'"(?:[^"\\]|\\.)*"?|[^"\[\]{}]+', re.S)


class _Repeated(dict):
    """A decoded object that gave a key twice; only its last value was kept."""


def _decoded_object(pairs: list) -> dict:
    doc = dict(pairs)
    return _Repeated(doc) if len(doc) < len(pairs) else doc


class _Exact(dict):
    """A decoded document that holds no bool and no float, so that every
    value in it equal to an int is that int: ``system_from_doc`` reads a set
    document's elements by table lookup."""


def parse(text: str) -> System:
    """The system of a document's text.

    A document that nests lists and objects more than ``MAX_NESTING`` deep
    is refused with "document nests too deeply" whenever some of its text
    goes unread: when the decoder or the reader refuses it, the decoder's
    recursion limit included, and when it has a key the reader skips or
    gives a key twice.  Only then is the text scanned for the bound, so a
    document that is read in full pays no scan for it; and the outcome is a
    function of the text while the caller's stack stays more than
    ``MAX_NESTING`` frames below the interpreter's limit.

    A set document whose text holds no ``true`` and no ``false``, and in
    which the ``parse_float`` hook decoded no number, holds no bool and no
    float: its elements are then read by one lookup each in ``{e: 1 <<
    (e - 1)}``, which an int finds exactly when it lies in [1, n].  A subset
    that misses, or that holds an unhashable element, is read by the checked
    loop, so that the refusal keeps the text and path of that loop."""
    try:
        doc = _decode(text)
        system = system_from_doc(doc)
    except RecursionError as exc:  # the decoder, or a repr, recursing once per level
        raise DocumentError(_TOO_DEEP) from exc
    except ShapeError as exc:
        if _nesting_exceeds(text):
            raise DocumentError(_TOO_DEEP) from exc
        raise
    unread = type(doc) is _Repeated or not doc.keys() <= _READ_KEYS[doc["kind"]]
    if unread and _nesting_exceeds(text):
        raise DocumentError(_TOO_DEEP)
    return system


def _decode(text: str) -> Any:
    """The value of a document's text, a top-level object as an ``_Exact``
    when it holds no bool and no float."""
    floats = []

    def bare_float(literal: str) -> float:
        floats.append(literal)
        return _bare_float(literal)

    try:
        doc = json.loads(
            text, object_pairs_hook=_decoded_object, parse_float=bare_float, parse_constant=_bare_constant
        )
    except json.JSONDecodeError as exc:
        raise DocumentError(exc.msg, f"line {exc.lineno} column {exc.colno}") from exc
    except DocumentError:  # from the bare-number hooks
        raise
    except ValueError as exc:  # an int literal past the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        raise DocumentError(f"an integer literal has more than {limit} digits") from exc
    if type(doc) is dict and not floats and "true" not in text and "false" not in text:
        return _Exact(doc)
    return doc


def _nesting_exceeds(text: str) -> bool:
    """Whether ``text`` has more than ``MAX_NESTING`` lists and objects open
    at once, brackets inside strings aside."""
    depth = 0
    for bracket in _NOT_BRACKETS.sub("", text):
        depth += 1 if bracket in "[{" else -1
        if depth > MAX_NESTING:
            return True
    return False


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
    weight = rational_to_str(trace.omega)
    doc = {
        "flavor": trace.flavor,
        "functional": str(trace.functional),
        "steps": len(trace.steps),
        "omega": weight,
        # saturate raises at any step that moves the weight
        "omega_constant": True,
        "phi_initial": trace.phis[0],
        "phi_final": trace.phis[-1],
        "final_system": trace.final,
    }
    if include_steps:
        doc["trace"] = [
            {
                "index": s.index,
                "block": s.block,
                "x": _x_to_doc(s.x, trace.final),
                "omega": weight,
                "phi": ph,
            }
            for s, ph in zip(trace.steps, trace.phis[1:])
        ]
    return doc


def _x_to_doc(x, system: System) -> Any:
    """A set step's ground element as it is; a subspace step's vector, a
    canonical row, as its field's entry texts."""
    if isinstance(x, int):
        return x
    return system.field.format_row(x)


def report_search(result: SearchResult) -> dict:
    return {
        "best_value": rational_to_str(Fraction(result.best_value)),
        "witness": result.witness,
        "nodes": result.nodes,
        "exhaustive": result.exhaustive,
    }


# ---------------------------------------------------------------------------
# command-line interface


def _read_system(args) -> System:
    try:
        if args.infile and args.infile != "-":
            with open(args.infile, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
    except OSError as exc:
        raise DocumentError(f"cannot read input: {exc.strerror or exc}", args.infile) from exc
    except UnicodeDecodeError as exc:
        raise DocumentError(f"not {exc.encoding} text: {exc.reason}", f"byte {exc.start}") from exc
    return parse(text)


def _emit(report: Any) -> None:
    """Write the report, a dict or a system, in one call."""
    sys.stdout.write(_dumps(report) + "\n")


def _int(text: str, flag: str) -> int:
    """One integer of an argv value, such as an entry of "1,2|3"; a
    ``ShapeError`` naming ``flag`` for anything else."""
    try:
        return int(text)
    except ValueError:
        raise ShapeError(f"{flag}: {text!r} is not an integer") from None


def _int_blocks(text: str, flag: str) -> list[list[int]]:
    """Comma-separated integer lists, "|" between lists: "1,2|3,4"."""
    return [[_int(x, flag) for x in block.split(",") if x] for block in text.split("|")]


def _cmd_verify(args) -> int:
    system = _read_system(args)
    report = verify(system, args.kind)
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
    if RULES[name].takes_p:
        if not args.p:
            raise ShapeError(f"{name} needs --p")
        return FunctionalKind(name, ProbabilityVector.parse(args.p))
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


def _ground(args, run: str) -> FieldTag | None:
    """The field of a search or generation run, None for the set ground:
    ``--kind`` and ``--field`` name one ground and must agree."""
    field = field_from_str(args.field) if args.field else None
    if args.kind == "subspace" and field is None:
        raise ShapeError(f"subspace {run} needs a field")
    if args.kind != "subspace" and field is not None:
        raise ShapeError(f"set {run} takes no field")
    return field


def _cmd_search(args) -> int:
    check_sizes({"n": args.n, "d": args.d}, "--")
    field = _ground(args, "search")
    functional = _parse_functional(args) if args.functional else None
    if args.p and functional is None:
        raise ShapeError("--p needs --functional")
    uniform = None
    if args.uniform:
        uniform = tuple(_int(x, "--uniform") for x in args.uniform.split(","))
    objective = args.objective.replace("-", "_")
    problem = SearchProblem(
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
    check_sizes({"n": args.n, "d": args.d}, "--")
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
    check_sizes({k: v for k, v in params.items() if k in ("n", "a", "b", "d")}, "--params ")
    embedded = params.pop("embedded", False)
    system = construct(args.family, params, embedded)
    _emit(system)
    return 0


def _parse_params(entries: Sequence[str]) -> dict:
    out: dict[str, Any] = {}
    for entry in entries:
        key, sep, value = entry.partition("=")
        if not sep:
            raise ShapeError(f"params look like key=value, got {entry!r}")
        if key == "blocks":
            out[key] = _int_blocks(value, "--params blocks")
        elif key == "embedded":
            word = value.lower()
            if word not in ("1", "true", "yes", "0", "false", "no"):
                raise ShapeError(
                    f"--params embedded: {value!r} is not one of 1/true/yes or 0/false/no"
                )
            out[key] = word in ("1", "true", "yes")
        else:
            out[key] = _int(value, f"--params {key}")
    return out


def _cmd_embed(args) -> int:
    system = _read_system(args)
    if not isinstance(system, SetSystem):
        raise ShapeError("embed expects a set system document")
    _emit(embed(system))
    return 0


def _cmd_random(args) -> int:
    if args.compatible_blocks:
        # the mode fixes d = 2, the skew condition and subspaces over QQ
        given = [f"--{k}" for k in ("d", "condition", "kind", "field") if getattr(args, k) is not None]
        if given:
            raise ShapeError(f"--compatible-blocks takes no {', '.join(given)}")
        check_sizes({"n": args.n}, "--")
        blocks = _int_blocks(args.compatible_blocks, "--compatible-blocks")
        # read as sets, the blocks must be a partition of [1, n]
        if sorted(c for b in blocks for c in set(b)) != list(range(1, args.n + 1)):
            text = args.compatible_blocks
            raise ShapeError(f"--compatible-blocks {text!r} is not a partition of [1, {args.n}]")
        system: System = random_compatible_pair_system(args.n, blocks, args.m, args.seed)
    else:
        d = 2 if args.d is None else args.d
        check_sizes({"n": args.n, "d": d}, "--")
        field = _ground(args, "generation")
        system = random_valid_system(
            args.n, d, args.condition or "skew", target_m=args.m, seed=args.seed, field=field
        )
    _emit(system)
    return 0


class _Parser(argparse.ArgumentParser):
    """Ends a usage error as a JSON body at exit 2, like every other error;
    ``--help`` still prints text and exits 0.  Subcommand parsers share the
    class."""

    def error(self, message: str):
        _emit({"error": f"{self.prog}: {message}", "status": "usage"})
        self.exit(2)


@cache  # built on the first call, once per process
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--kind", required=True, choices=CONDITIONS)
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
    p.add_argument("--flavor", required=True, choices=tuple(FLAVORS))
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
    p.add_argument("--flavor", default=None, choices=tuple(FLAVORS))
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
    p.add_argument("--condition", default="skew", choices=CONDITIONS)
    p.add_argument("--field", default=None, help="subspace searches: gf(p)")
    p.add_argument("--functional", default=None)
    p.add_argument("--p", default=None)
    p.add_argument("--uniform", default=None, help="comma-separated component sizes")
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--no-prune", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("explore", help="weak-subspace tuza maxima (open-problem evidence)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("construct", help="emit a tight family as a system document")
    p.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p.add_argument(
        "--params",
        nargs="*",
        help="key=value; blocks as 1,2|3,4; embedded=true (yes, 1) for the subspace "
        "variant, false (no, 0) for the set family",
    )
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("embed", help="map a set document to its coordinate-subspace document")
    add_infile(p)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("random", help="emit a seeded random valid system")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    # None stands for "not given", which --compatible-blocks requires
    p.add_argument("--d", type=int, default=None, help="arity (default 2)")
    p.add_argument("--condition", default=None, choices=CONDITIONS, help="(default skew)")
    p.add_argument("--kind", default=None, choices=("set", "subspace"), help="(default set)")
    p.add_argument("--field", default=None)
    p.add_argument(
        "--compatible-blocks",
        default=None,
        help="emit a decomposition-compatible rational skew pair system over these "
        "blocks (1,2|3,4); takes no --d, --condition, --kind or --field",
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
    except ShapeError as exc:
        _emit({"error": str(exc), "status": "usage"})
        return 2
    except PreconditionError as exc:
        _emit({"error": str(exc), "status": "refused"})
        return 1
    except Exception as exc:  # internal invariant failures and faults in the program
        _emit({"error": str(exc), "status": "internal"})
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
