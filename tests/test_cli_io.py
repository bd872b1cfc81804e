"""Document round-trips, parse errors, and the command-line surface."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bollobas import (
    Decomposition,
    DocumentError,
    PrimeField,
    QQ,
    SetSystem,
    SubspaceSystem,
    canonicalize,
    complement_chain,
    coordinate_decomposition,
    coordinate_subspace,
    embed,
    full_tuza_tuples,
    intersection,
    parse,
    partitioned_complement_chain,
    random_compatible_pair_system,
    random_valid_system,
    saturate,
    serialize,
    uniform_bollobas,
    zero_subspace,
)
from bollobas import cli_io, errors
from bollobas.cli_io import main, system_from_doc, system_to_doc
from bollobas.constructions import FAMILY_PARAMS
from bollobas.extremal_search import SearchResult
from bollobas.verifiers import FLAVORS

from conftest import scalar_basis
from test_golden import FUNCTIONAL_ARGS


# every error class of the package, as the status walk below reads them
ERROR_CLASSES = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.BollobasError)
]


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        doc = None
    return rc, doc


def _construct_edges() -> list[tuple[str, tuple[str, ...]]]:
    """construct params at the edges of what it accepts: a and b at 0, 1, 2,
    63 and 64, n and d at the size range and at the tuple budget, some of
    them embedded."""
    edges = [
        ("uniform_bollobas", (f"a={a}", f"b={b}")) for a in (0, 1, 2, 63, 64) for b in (0, 1, 2, 63, 64)
    ]
    edges += [("complement_chain", (f"n={n}",)) for n in (0, 1, 12, 13, 64, 65)]
    edges += [
        ("partitioned_complement_chain", ("n=0", "blocks=")),
        ("partitioned_complement_chain", ("n=12", "blocks=1,2,3,4,5,6|7,8,9,10,11,12")),
        ("partitioned_complement_chain", ("n=13", "blocks=1,2,3,4,5,6|7,8,9,10,11,12,13")),
    ]
    edges += [
        ("full_tuza_tuples", (f"n={n}", f"d={d}"))
        for n, d in ((0, 1), (0, 16), (64, 1), (65, 1), (12, 2), (13, 2), (3, 16), (2, 17), (2, 0))
    ]
    for family, params in (
        ("uniform_bollobas", ("a=0", "b=64")),
        ("uniform_bollobas", ("a=64", "b=0")),
        ("uniform_bollobas", ("a=1", "b=64")),
        ("complement_chain", ("n=1",)),
        ("full_tuza_tuples", ("n=1", "d=16")),
    ):
        edges.append((family, (*params, "embedded=1")))
    return edges


CONSTRUCT_EDGES = _construct_edges()


class TestDocuments:
    def test_minimal_set_document(self):
        s = parse('{"kind": "set", "n": 2, "d": 2, "tuples": [[[1], [2]]]}')
        assert isinstance(s, SetSystem)
        assert s.tuples == ((0b01, 0b10),)

    def test_round_trip_on_fixture_corpus(self):
        fixtures = [
            complement_chain(3),
            partitioned_complement_chain(4, [[1, 2], [3, 4]]),
            uniform_bollobas(1, 2),
            full_tuza_tuples(2, 3),
            embed(partitioned_complement_chain(2, [[1], [2]])),
            random_valid_system(4, 2, "skew", 5, seed=1),
            random_valid_system(2, 2, "skew", 3, seed=2, field=PrimeField(3)),
            random_compatible_pair_system(3, [[1, 2], [3]], 3, seed=3),
            SetSystem.from_sets(2, [], d=2),
            SubspaceSystem(2, QQ, 2, ()),
        ]
        for system in fixtures:
            assert parse(serialize(system)) == system

    def test_non_rref_rows_canonicalized(self):
        doc = {
            "kind": "subspace",
            "n": 2,
            "d": 2,
            "field": "rational",
            "tuples": [[[["2", "2"], ["4", "4"]], []]],
        }
        s = system_from_doc(doc)
        assert scalar_basis(s.tuples[0][0]) == ((Fraction(1), Fraction(1)),)
        assert parse(serialize(s)) == s

    def test_gf_document_round_trip(self):
        field = PrimeField(2)
        s = SubspaceSystem(
            2,
            field,
            2,
            ((coordinate_subspace(2, field, [1]), coordinate_subspace(2, field, [2])),),
        )
        doc = system_to_doc(s)
        assert doc["field"] == "gf(2)"
        assert doc["tuples"][0][0] == [["1 mod 2", "0 mod 2"]]
        assert parse(serialize(s)) == s

    def test_positioned_syntax_error(self):
        with pytest.raises(DocumentError) as err:
            parse('{"kind": "set",')
        assert "line" in str(err.value)

    @pytest.mark.parametrize("text", ["[" * 1000, '{"a": ' * 1000 + "0" + "}" * 1000])
    def test_nesting_past_the_recursion_limit(self, text):
        # RecursionError used to escape json.loads, with no report
        with pytest.raises(DocumentError, match="^document nests too deeply$"):
            parse(text)
        with pytest.raises(DocumentError, match="^document nests too deeply$"):
            parse('{"kind": "set", "n": 2, "d": 2, "tuples": [[' + text + "]]}")

    @pytest.mark.parametrize(
        "template",
        [
            '{"kind": "set", "n": 2, "d": 2, "tuples": [], "note": @}',
            '{"kind": "set", "n": 2, "d": 2, "tuples": [[@]]}',
            '{"kind": "set", "n": 2, "d": 2, "note": @, "tuples": }',
            '{"kind": "set", "n": 2, "d": 2, "tuples": @, "tuples": []}',
            '{"kind": @, "n": 2, "d": 2, "tuples": [], "kind": "set"}',
        ],
        ids=["skipped", "refused", "syntax", "repeated-tuples", "repeated-kind"],
    )
    def test_nesting_refusal_does_not_depend_on_the_stack(self, template):
        # nested lists under a key the reader skips, inside a tuple it
        # refuses, before a syntax error, and under the first of a key given
        # twice, deep enough that the decoder reaches its recursion limit
        # from 200 frames down but not from here
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        k = sys.getrecursionlimit() - depth - 100
        text = template.replace("@", "[" * k + "]" * k)

        def outcome(frames):
            if frames:
                return outcome(frames - 1)
            try:
                return str(parse(text))
            except DocumentError as exc:
                return str(exc)

        assert [outcome(frames) for frames in (0, 60, 200)] == ["document nests too deeply"] * 3

    @pytest.mark.parametrize(
        "template, below",
        [
            ('{"kind": "set", "n": 2, "d": 2, "tuples": [], "note": @}', None),
            ('{"kind": "set", "n": 2, "d": 2, "tuples": [], "decomposition": @}', None),
            ('{"kind": "set", "n": 2, "d": 2, "tuples": [[@]]}', r"^tuples\[0\]: expected a 2-tuple of subsets$"),
            ('{"kind": "set", "n": 2, "d": 2, "note": @, "tuples": }', r"^line 1 column \d+: Expecting value$"),
            ('{"kind": "set", "n": 2, "d": 2, "tuples": @, "tuples": []}', None),
            ('{"kind": @, "n": 2, "d": 2, "tuples": [], "kind": "set"}', None),
        ],
        ids=["skipped", "skipped-context", "refused", "syntax", "repeated-tuples", "repeated-kind"],
    )
    def test_nesting_bound_is_64_levels(self, template, below):
        # levels count the lists and objects open at the innermost one,
        # those of the template around the slot among them
        before = template[: template.index("@")]
        outer = sum(before.count(c) for c in "[{") - sum(before.count(c) for c in "]}")
        for levels in (64, 65):
            text = template.replace("@", "[" * (levels - outer) + "]" * (levels - outer))
            if levels == 65:
                with pytest.raises(DocumentError, match="^document nests too deeply$"):
                    parse(text)
            elif below is None:
                assert parse(text) == SetSystem(2, 2, ())
            else:
                with pytest.raises(DocumentError, match=below):
                    parse(text)

    def test_brackets_in_strings_do_not_nest(self):
        text = '{"kind": "set", "n": 2, "d": 2, "tuples": [], "note": "' + "[{" * 100 + '\\"["}'
        assert parse(text) == SetSystem(2, 2, ())
        with pytest.raises(DocumentError, match="^tuples: tuples must be a list$"):
            parse(text.replace("[]", '"' + "[" * 100 + '"'))

    def test_documents_read_in_full_are_not_scanned(self, monkeypatch):
        # the nesting scan runs only on text that went unread
        def scanning(text):
            raise AssertionError("scanned a document read in full")

        monkeypatch.setattr(cli_io, "_nesting_exceeds", scanning)
        for system in (full_tuza_tuples(6, 3), embed(complement_chain(6))):
            assert parse(serialize(system)) == system
        assert parse('{"kind": "set", "n": 2, "d": 2, "tuples": []}') == SetSystem(2, 2, ())

    def test_recursion_while_reading_is_the_nesting_refusal(self, monkeypatch):
        def recursing(doc):
            raise RecursionError("maximum recursion depth exceeded while getting the repr")

        monkeypatch.setattr(cli_io, "system_from_doc", recursing)
        with pytest.raises(DocumentError, match="^document nests too deeply$"):
            parse('{"kind": "set", "n": 2, "d": 2, "tuples": []}')

    def test_overlapping_partition_blocks(self):
        doc = {
            "kind": "set",
            "n": 2,
            "d": 2,
            "tuples": [],
            "partition": [[1], [1, 2]],
        }
        with pytest.raises(DocumentError) as err:
            system_from_doc(doc)
        assert "overlap" in str(err.value)

    def test_element_out_of_range(self):
        doc = {"kind": "set", "n": 2, "d": 2, "tuples": [[[3], []]]}
        with pytest.raises(DocumentError) as err:
            system_from_doc(doc)
        assert "tuples[0][0]" in str(err.value)

    def test_repeated_components_parse_once_to_one_object(self):
        line, e3 = [["1", "1", "0"]], [["0", "0", "1"]]
        doc = {
            "kind": "subspace", "n": 3, "d": 2,
            "tuples": [[line, e3], [e3, line]],
            "decomposition": [[["1", "0", "0"], ["0", "1", "0"]], e3],
        }
        # the same subspaces, no two components written with the same texts
        fresh = {
            "kind": "subspace", "n": 3, "d": 2,
            "tuples": [
                [[["2", "2", "0"]], [["0", "0", "3"]]],
                [[["0", "0", "1/2"]], [["-1", "-1", "0"]]],
            ],
            "decomposition": [[["1", "1", "0"], ["1", "-1", "0"]], [["0", "0", "5"]]],
        }
        s, t = system_from_doc(doc), system_from_doc(fresh)
        assert s == t
        assert s.tuples[0][0] is s.tuples[1][1]
        assert s.tuples[0][1] is s.tuples[1][0] is s.decomposition.blocks[1]
        assert t.tuples[0][0] == t.tuples[1][1] and t.tuples[0][0] is not t.tuples[1][1]
        assert t.tuples[0][1] is not t.tuples[1][0]

    @pytest.mark.parametrize(
        "first, second, where",
        [
            ([[1, 0]], [[True, 0]], "tuples[0][1][0]"),
            ([[True, 0]], [[1, 0]], "tuples[0][0][0]"),
            ([["1", "0"]], [[True, 0]], "tuples[0][1][0]"),
        ],
    )
    def test_a_bool_row_is_refused_after_an_equal_int_row(self, first, second, where):
        doc = {"kind": "subspace", "n": 2, "d": 2, "tuples": [[first, second]]}
        with pytest.raises(DocumentError) as err:
            system_from_doc(doc)
        assert str(err.value) == f"{where}: not a rational: 'True'"

    def test_entries_with_one_text_share_one_parse(self):
        doc = {"kind": "subspace", "n": 2, "d": 3, "tuples": [[[["1", "0"]], [[1, 0]], [[1.0, 0]]]]}
        quoted, bare, decimal = system_from_doc(doc).tuples[0]
        assert bare is quoted
        assert decimal == quoted and decimal is not quoted

    def test_a_malformed_component_fails_at_its_first_copy(self):
        bad = [["1", "x"]]
        doc = {"kind": "subspace", "n": 2, "d": 2, "tuples": [[[["1", "0"]], bad], [bad, []]]}
        with pytest.raises(DocumentError) as err:
            system_from_doc(doc)
        assert str(err.value) == "tuples[0][1][0]: not a rational: 'x'"

    @pytest.mark.parametrize(
        "rows, where",
        [
            ([["x", "0"], ["1"]], "[0]: not a rational: 'x'"),
            ([["1", "0"], ["1"], ["x", "0"]], "[1]: row must have 2 entries"),
            ([["1", "0"], "row"], "[1]: row must have 2 entries"),
        ],
    )
    def test_the_first_bad_row_is_reported(self, rows, where):
        # a copy of a good component first, so the bad one is looked up too
        doc = {"kind": "subspace", "n": 2, "d": 2, "tuples": [[[["1", "0"]], rows]]}
        with pytest.raises(DocumentError) as err:
            system_from_doc(doc)
        assert str(err.value) == f"tuples[0][1]{where}"

    def test_bad_field(self):
        doc = {"kind": "subspace", "n": 1, "d": 2, "field": "gf(6)", "tuples": []}
        with pytest.raises(DocumentError):
            system_from_doc(doc)

    def test_wrong_arity(self):
        doc = {"kind": "set", "n": 2, "d": 2, "tuples": [[[1]]]}
        with pytest.raises(DocumentError):
            system_from_doc(doc)


def _one_row_doc(entry: str) -> str:
    """A one-component subspace document whose row holds ``entry`` as JSON
    text, bare or quoted."""
    return '{"kind": "subspace", "n": 2, "d": 1, "tuples": [[[[%s, "1"]]]]}' % entry


class TestBareNumbers:
    @pytest.mark.parametrize("text", ["0.5", "-2.5e-3", "1e22", "1E+2", "0.1", "0.30000000000000004", "-0.0"])
    def test_an_exact_bare_number_parses_like_its_quoted_text(self, text):
        assert parse(_one_row_doc(text)) == parse(_one_row_doc(f'"{text}"'))

    @pytest.mark.parametrize(
        "text", ["0.1000000000000000000001", "1e400", "1e-400", "123456789012345678.5", "1e-100000000"]
    )
    def test_a_bare_number_a_float_cannot_hold_is_refused(self, text):
        with pytest.raises(DocumentError) as err:
            parse(_one_row_doc(text))
        assert str(err.value) == (
            f'the bare number {text} reads as the float {float(text)!r}, another number; quote it: "{text}"'
        )

    def test_its_quoted_text_is_exact(self):
        row = parse(_one_row_doc('"0.1000000000000000000001"')).tuples[0][0].rows[0]
        assert row == (10**21 + 1, 10**22)

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    def test_json_constants_are_refused(self, text):
        with pytest.raises(DocumentError) as err:
            parse(_one_row_doc(text))
        assert str(err.value) == f"{text} is not a number a document may hold"

    def test_a_non_integer_set_element_keeps_its_message(self):
        with pytest.raises(DocumentError) as err:
            parse('{"kind": "set", "n": 2, "d": 1, "tuples": [[[1.5]]]}')
        assert str(err.value) == "tuples[0][0]: element 1.5 outside [1, 2]"


class TestCli:
    def write_chain(self, tmp_path, n=3):
        path = tmp_path / "chain.json"
        path.write_text(serialize(complement_chain(n)), encoding="utf-8")
        return str(path)

    def test_verify_exit_codes(self, capsys, tmp_path):
        path = self.write_chain(tmp_path)
        rc, doc = run_cli(capsys, "verify", "--kind", "skew", "--in", path)
        assert rc == 0 and doc["verdict"] is True

        bad = tmp_path / "bad.json"
        bad.write_text(
            serialize(SetSystem(3, 2, tuple(reversed(complement_chain(3).tuples)))),
            encoding="utf-8",
        )
        rc, doc = run_cli(capsys, "verify", "--kind", "skew", "--in", str(bad))
        assert rc == 1
        assert doc["first_violation"] == [1, 2, "cross"]

    def test_weight_report(self, capsys, tmp_path):
        path = self.write_chain(tmp_path)
        rc, doc = run_cli(capsys, "weight", "--functional", "yue_sum", "--in", path)
        assert rc == 0
        assert doc["value"] == "1" and doc["bound"] == "1" and doc["tight"] is True

    def test_weight_p_arity_mismatch_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "d3.json"
        path.write_text(serialize(full_tuza_tuples(2, 3)), encoding="utf-8")
        rc, doc = run_cli(
            capsys, "weight", "--functional", "tuza_sum", "--p", "1/2,1/2", "--in", str(path)
        )
        assert rc == 2
        assert doc["status"] == "usage"

    def test_weight_unlicensed_is_refusal(self, capsys, tmp_path):
        path = self.write_chain(tmp_path)
        rc, doc = run_cli(capsys, "weight", "--functional", "bollobas_sum", "--in", path)
        assert rc == 1
        assert doc["status"] == "refused"

    def test_weight_value_only(self, capsys, tmp_path):
        path = self.write_chain(tmp_path)
        rc, doc = run_cli(
            capsys, "weight", "--functional", "bollobas_sum", "--value-only", "--in", path
        )
        assert rc == 0
        # oracle: sum over all subsets S of 1/C(3, |S|) = sum_k 1 = n + 1 = 4
        total = sum(Fraction(1, [1, 3, 3, 1][bin(m).count("1")]) for m in range(8))
        assert total == 4
        assert doc["value"] == "4"

    def test_saturate_and_certify_pipeline(self, capsys, tmp_path):
        system = SubspaceSystem(
            2,
            QQ,
            2,
            ((coordinate_subspace(2, QQ, [1]), zero_subspace(2, QQ)),),
            coordinate_decomposition(2, QQ, [[1, 2]]),
        )
        path = tmp_path / "pair.json"
        path.write_text(serialize(system), encoding="utf-8")
        rc, doc = run_cli(
            capsys, "saturate", "--flavor", "pair", "--trace", "--in", str(path)
        )
        assert rc == 0
        assert doc["omega"] == "1/2" and doc["omega_constant"] is True
        assert doc["phi_initial"] == 2 and doc["phi_final"] == 8
        assert len(doc["trace"]) == 1

        full_path = tmp_path / "full.json"
        full_path.write_text(json.dumps(doc["final_system"]), encoding="utf-8")
        rc, cert = run_cli(capsys, "certify", "--flavor", "pair", "--in", str(full_path))
        assert rc == 0
        assert cert["holds"] is True and cert["quantities"]["omega"] == "1/2"

    def test_check_bounds(self, capsys, tmp_path):
        pairs = tmp_path / "uniform.json"
        pairs.write_text(
            serialize(SetSystem.from_sets(2, [({1}, {2}), ({2}, {1})])), encoding="utf-8"
        )
        rc, doc = run_cli(capsys, "check", "--bound", "uniform-pair", "--in", str(pairs))
        assert rc == 0
        assert doc["quantities"]["tight"] == "true"

        rc, doc = run_cli(capsys, "check", "--bound", "cardinality", "--in", str(pairs))
        assert rc == 0

    def test_search_command(self, capsys):
        rc, doc = run_cli(
            capsys,
            "search",
            "--objective",
            "max-m",
            "--n",
            "2",
            "--d",
            "2",
            "--condition",
            "skew",
        )
        assert rc == 0
        assert doc["best_value"] == "4"
        assert doc["exhaustive"] is True

    def test_construct_and_embed_pipeline(self, capsys, tmp_path):
        rc, doc = run_cli(
            capsys, "construct", "--family", "partitioned_complement_chain",
            "--params", "n=2", "blocks=1|2",
        )
        assert rc == 0
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc, emb = run_cli(capsys, "embed", "--in", str(path))
        assert rc == 0
        assert emb["kind"] == "subspace"
        assert system_from_doc(emb) == embed(system_from_doc(doc))

    def test_random_command_reproducible(self, capsys):
        rc1, doc1 = run_cli(
            capsys, "random", "--seed", "5", "--m", "4", "--n", "3", "--d", "2",
            "--condition", "skew",
        )
        rc2, doc2 = run_cli(
            capsys, "random", "--seed", "5", "--m", "4", "--n", "3", "--d", "2",
            "--condition", "skew",
        )
        assert rc1 == rc2 == 0
        assert doc1 == doc2

    def test_explore_command(self, capsys):
        rc, doc = run_cli(
            capsys, "explore", "--n", "2", "--d", "2", "--p", "1/2,1/2",
            "--field", "gf(2)",
        )
        assert rc == 0
        assert doc["exceeds_one"] is True  # the GF(2) finding
        assert doc["best_value"] == "5/4"
        assert "open" in doc["note"]

    def test_pair_runs_meet_each_subspace_with_each_block_once(self, capsys, tmp_path, monkeypatch):
        # a subspace meets the blocks in one block split, which gives the
        # meets with each block; a pair step records its replacements from
        # their known parts, so no replacement is split
        system = random_compatible_pair_system(4, [[1, 2], [3, 4]], 3, 2)
        path = tmp_path / "pair.json"
        path.write_text(serialize(system), encoding="utf-8")
        real_split, real_record = Decomposition._split, Decomposition.record
        splits, seeded = [], []

        def counted_split(decomposition, u):
            parts = real_split(decomposition, u)
            assert parts == tuple(intersection(u, blk) for blk in decomposition.blocks)
            splits.append(u)
            return parts

        def counted_record(decomposition, u, parts):
            seeded.append(u)
            real_record(decomposition, u, parts)

        monkeypatch.setattr(Decomposition, "_split", counted_split)
        monkeypatch.setattr(Decomposition, "record", counted_record)
        rc, doc = run_cli(capsys, "saturate", "--flavor", "pair", "--in", str(path))
        assert rc == 0 and doc["steps"] > 0
        # each distinct subspace of the input split once, and nothing else
        start = {sub for t in system.tuples for sub in t}
        assert splits and len(splits) == len(set(splits)) and set(splits) == start
        # each step records its two grown subspaces, none of them split
        assert len(seeded) == 2 * doc["steps"] and set(seeded) - start
        full_path = tmp_path / "full.json"
        full_path.write_text(json.dumps(doc["final_system"]), encoding="utf-8")
        splits.clear()
        seeded.clear()
        rc, cert = run_cli(capsys, "certify", "--flavor", "pair", "--in", str(full_path))
        assert rc == 0 and cert["holds"] is True and seeded == []
        # the final pairs' subspaces, each split once
        final = parse(full_path.read_text(encoding="utf-8"))
        distinct = {sub for t in final.tuples for sub in t}
        assert sorted(map(repr, splits)) == sorted(map(repr, distinct))

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify"], "bollobas verify: the following arguments are required: --kind"),
            (["construct", "--family", "nosuch"], "bollobas construct: argument --family: invalid choice"),
        ],
    )
    def test_argparse_error_is_a_json_body(self, capsys, argv, message):
        rc, out, err = run_quietly(argv)
        assert rc == 2 and err == ""
        doc = json.loads(out)
        assert doc["status"] == "usage" and doc["error"].startswith(message)

    def test_help_stays_text(self, capsys):
        rc, out, err = run_quietly(["verify", "--help"])
        assert rc == 0 and out.startswith("usage: bollobas verify") and err == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["search", "--objective", "max-m", "--n", "-1"], "--n=-1 is outside [0, 64]"),
            (["search", "--objective", "max-m", "--n", "2", "--d", "0"], "--d=0 is outside [1, 16]"),
            (
                ["construct", "--family", "complement_chain", "--params", "n=100000"],
                "--params n=100000 is outside [0, 64]",
            ),
            (["explore", "--n", "2", "--d", "17", "--p", "1/2,1/2", "--field", "gf(2)"], "--d=17 is outside [1, 16]"),
            (["random", "--seed", "0", "--m", "2", "--n", "-3"], "--n=-3 is outside [0, 64]"),
            (
                ["explore", "--n", "2", "--d", "2", "--p", "1/2,1/2", "--field", "rational", "--budget", "-5"],
                "node budget must be positive",
            ),
            (
                ["explore", "--n", "2", "--d", "2", "--p", "1/2,1/2", "--field", "gf(2)", "--budget", "0"],
                "node budget must be positive",
            ),
            (["search", "--objective", "max-m", "--n", "2", "--budget", "0"], "node budget must be positive"),
            (["search", "--objective", "max-m", "--n", "2", "--budget", "-1"], "node budget must be positive"),
        ],
    )
    def test_argv_sizes_are_checked_at_the_boundary(self, capsys, argv, message):
        rc, doc = run_cli(capsys, *argv)
        assert rc == 2 and doc == {"error": message, "status": "usage"}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                # the counterexample precondition once passed on the field alone
                [
                    "search", "--objective", "counterexample", "--kind", "set", "--field", "gf(2)",
                    "--n", "2", "--d", "2", "--condition", "weak", "--functional", "tuza",
                    "--p", "1/2,1/2",
                ],
                "set search takes no field",
            ),
            (["random", "--seed", "0", "--m", "2", "--n", "2", "--field", "gf(2)"], "set generation takes no field"),
            # and subspace runs need one
            (["search", "--objective", "max-m", "--n", "2", "--kind", "subspace"], "subspace search needs a field"),
            (
                ["random", "--seed", "0", "--m", "2", "--n", "2", "--kind", "subspace"],
                "subspace generation needs a field",
            ),
        ],
    )
    def test_set_runs_refuse_a_field(self, capsys, argv, message):
        rc, doc = run_cli(capsys, *argv)
        assert rc == 2 and doc == {"error": message, "status": "usage"}

    @pytest.mark.parametrize(
        "extra, message",
        [
            # max-m never reads a functional, and --p is read only with one
            (["--functional", "yue"], "max_m takes no functional"),
            (["--p", "garbage"], "--p needs --functional"),
        ],
    )
    def test_search_refuses_inputs_it_would_ignore(self, capsys, extra, message):
        rc, doc = run_cli(capsys, "search", "--objective", "max-m", "--n", "2", "--d", "2", *extra)
        assert rc == 2 and doc == {"error": message, "status": "usage"}

    def test_a_fault_outside_the_package_is_internal(self, capsys, monkeypatch):
        # a ValueError too: only package errors are usage refusals
        for error in (TypeError, ValueError):
            def broken(*args, **kwargs):
                raise error("injected")

            monkeypatch.setattr(cli_io, "construct", broken)
            rc, out, err = run_quietly(["construct", "--family", "complement_chain", "--params", "n=2"])
            assert rc == 2 and err == ""
            assert json.loads(out) == {"error": "injected", "status": "internal"}

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_each_error_class_has_one_status(self, capsys, monkeypatch, cls):
        # a refused input is a ShapeError (usage) or a PreconditionError
        # (refused); a bare BollobasError is a broken invariant (internal)
        if cls is errors.BollobasError:
            status, code = "internal", 2
        elif issubclass(cls, errors.ShapeError):
            status, code = "usage", 2
        else:
            assert issubclass(cls, errors.PreconditionError)
            status, code = "refused", 1

        def broken(*args, **kwargs):
            raise cls("injected")

        monkeypatch.setattr(cli_io, "construct", broken)
        rc, doc = run_cli(capsys, "construct", "--family", "complement_chain", "--params", "n=2")
        assert (rc, doc) == (code, {"error": "injected", "status": status})

    def test_import_loads_no_reflection_modules(self):
        # inspect (which pulls in ast, dis and tokenize) and dataclasses once
        # cost a fresh import of the package milliseconds each
        src = os.path.dirname(os.path.dirname(cli_io.__file__))
        code = "import sys, bollobas.cli_io; print(sorted({'inspect', 'ast', 'dataclasses'} & set(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "[]\n")

    def test_module_runs_as_a_script(self):
        src = os.path.dirname(os.path.dirname(cli_io.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "bollobas.cli_io", "verify", "--kind", "skew"],
            input=serialize(complement_chain(2)),
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        # stderr holds runpy's warning that the package imported cli_io first
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {
            "command": "verify",
            "kind": "skew",
            "verdict": True,
            "first_violation": None,
            "condition": "skew set 2-tuples",
            "field_caveat": False,
        }

    def test_document_read_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(serialize(complement_chain(2))))
        rc, doc = run_cli(capsys, "verify", "--kind", "skew")
        assert rc == 0 and doc["verdict"] is True

    def test_unknown_flag_is_usage_error(self, capsys):
        rc, doc = run_cli(capsys, "verify", "--kind", "skew", "--nonsense")
        assert rc == 2 and doc["status"] == "usage" and "--nonsense" in doc["error"]

    @pytest.mark.parametrize("d", ["1", "3"])
    def test_random_bollobas_needs_pairs(self, capsys, d):
        rc, doc = run_cli(capsys, "random", "--seed", "1", "--m", "5", "--n", "3", "--d", d, "--condition", "bollobas")
        assert rc == 2 and doc["status"] == "usage"

    def test_verify_has_no_monotone_flag(self, capsys, tmp_path):
        # the flag only named a monotone condition; verify never checked it
        path = tmp_path / "pairs.json"
        path.write_text('{"kind":"set","n":2,"d":2,"tuples":[[[1,2],[]],[[],[1,2]]]}')
        rc, doc = run_cli(capsys, "verify", "--kind", "skew", "--monotone", "--in", str(path))
        assert rc == 2 and doc["status"] == "usage" and "--monotone" in doc["error"]
        rc, doc = run_cli(capsys, "verify", "--kind", "skew", "--in", str(path))
        assert rc == 0 and doc["condition"] == "skew set 2-tuples"

    def test_one_parser_serves_every_call(self, capsys, tmp_path):
        chain = self.write_chain(tmp_path)
        runs = [
            ["verify", "--kind", "skew", "--in", chain],
            ["saturate", "--flavor", "set", "--trace", "--in", chain],
            ["verify", "--kind", "bollobas", "--in", chain],
            ["random", "--seed", "3", "--m", "4", "--n", "3", "--condition", "weak"],
            ["random", "--seed", "3", "--m", "4", "--n", "3"],
            ["saturate", "--flavor", "set", "--in", chain],
        ]
        src = os.path.dirname(os.path.dirname(cli_io.__file__))
        fresh = "import sys; from bollobas.cli_io import main; sys.exit(main(sys.argv[1:]))"
        parsers = set()
        for argv in runs:
            rc = main(argv)
            out = capsys.readouterr().out
            parsers.add(id(cli_io.build_parser()))
            proc = subprocess.run(
                [sys.executable, "-c", fresh, *argv],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": src},
                timeout=60,
            )
            assert (rc, out) == (proc.returncode, proc.stdout)
        assert len(parsers) == 1

    def test_parse_error_exit(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        rc, doc = run_cli(capsys, "verify", "--kind", "skew", "--in", str(path))
        assert rc == 2
        assert doc["status"] == "usage"

    def test_construct_missing_params_is_usage_error(self, capsys):
        rc, doc = run_cli(capsys, "construct", "--family", "complement_chain")
        assert rc == 2
        assert doc["status"] == "usage" and "params n" in doc["error"]

    def test_missing_input_file_is_usage_error(self, capsys, tmp_path):
        missing = str(tmp_path / "nonexistent.json")
        rc, doc = run_cli(capsys, "verify", "--kind", "skew", "--in", missing)
        assert rc == 2
        assert doc["status"] == "usage" and missing in doc["error"]

    @pytest.mark.parametrize("p", [100000000000000000039, 2**89 - 1])
    def test_explore_over_huge_field_is_usage_error(self, capsys, p):
        start = time.perf_counter()
        rc, doc = run_cli(
            capsys, "explore", "--n", "2", "--d", "2", "--p", "1/2,1/2",
            "--field", f"gf({p})",
        )
        assert time.perf_counter() - start < 5.0
        assert rc == 2 and doc["status"] == "usage"

    @pytest.mark.parametrize("key, value", [("n", 100000000), ("d", 100000000)])
    def test_document_n_and_d_are_capped(self, capsys, tmp_path, key, value):
        doc = {"kind": "set", "n": 2, "d": 2, "tuples": []}
        doc[key] = value
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        start = time.perf_counter()
        rc, out = run_cli(capsys, "check", "--bound", "cardinality", "--in", str(path))
        assert time.perf_counter() - start < 5.0
        assert rc == 2 and out["status"] == "usage"
        assert out["error"].startswith(f"{key}: ")

    def test_caps_admit_their_limit(self):
        from bollobas.systems_model import MAX_D, MAX_N

        system = system_from_doc({"kind": "set", "n": MAX_N, "d": MAX_D, "tuples": []})
        assert (system.n, system.d) == (MAX_N, MAX_D)
        with pytest.raises(DocumentError):
            system_from_doc({"kind": "subspace", "n": MAX_N + 1, "d": 2, "tuples": []})

    @pytest.mark.parametrize("flag", ["--n", "--d"])
    def test_random_n_and_d_are_capped(self, capsys, flag):
        argv = {"--n": "3", "--d": "2"}
        argv[flag] = "100000000"
        start = time.perf_counter()
        rc, doc = run_cli(
            capsys, "random", "--seed", "1", "--m", "2", "--n", argv["--n"],
            "--d", argv["--d"], "--condition", "weak",
        )
        assert time.perf_counter() - start < 5.0
        assert rc == 2 and doc["status"] == "usage" and flag in doc["error"]

    def test_search_above_the_clause_table_guard_is_usage_error(self, capsys, monkeypatch):
        from bollobas import extremal_search

        monkeypatch.setattr(extremal_search, "CLAUSE_TABLE_GUARD", 71)
        rc, doc = run_cli(capsys, "search", "--objective", "max-m", "--n", "2", "--d", "2")
        assert rc == 2 and doc["status"] == "usage" and "clause table" in doc["error"]

    def test_search_over_gf5_pairs_is_refused_while_listing(self, capsys):
        # 810 969 candidates; the guard is passed at the 29 960th
        start = time.perf_counter()
        rc, doc = run_cli(
            capsys, "search", "--objective", "max-m", "--kind", "subspace",
            "--field", "gf(5)", "--n", "4", "--d", "2",
        )
        assert time.perf_counter() - start < 2.0
        assert rc == 2 and doc["status"] == "usage"
        assert doc["error"].startswith("clause table of 29960 candidates ")

    def test_bollobas_search_needs_pairs(self, capsys):
        rc, doc = run_cli(
            capsys, "search", "--objective", "max-m", "--n", "2", "--d", "1",
            "--condition", "bollobas", "--no-prune",
        )
        assert rc == 2 and doc["status"] == "usage"

    @pytest.mark.parametrize(
        "d, p, ground",
        [
            ("3", "1/2,1/2", ("--n", "3")),
            ("2", "1/3,1/3,1/3", ("--n", "3")),
            # refused before the 9.5 M triples of GF(3)^4 subspaces are enumerated
            ("3", "1/2,1/2", ("--kind", "subspace", "--field", "gf(3)", "--n", "4")),
        ],
    )
    def test_search_tuza_p_must_match_the_arity(self, capsys, d, p, ground):
        # with d=3 and two entries this used to report a weak system of weight 5
        start = time.perf_counter()
        rc, doc = run_cli(
            capsys, "search", "--objective", "max-weight", *ground, "--d", d,
            "--condition", "weak", "--functional", "tuza", "--p", p, "--budget", "2000",
        )
        assert time.perf_counter() - start < 5.0
        assert rc == 2 and doc["status"] == "usage"
        assert doc["error"] == f"p has {len(p.split(','))} entries, system arity is {d}"

    def test_saturation_above_the_tuple_budget_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "sparse.json"
        path.write_text('{"kind":"set","n":40,"d":2,"tuples":[[[],[]]]}', encoding="utf-8")
        start = time.perf_counter()
        rc, doc = run_cli(capsys, "saturate", "--flavor", "set", "--in", str(path))
        assert time.perf_counter() - start < 5.0
        assert rc == 2 and doc["status"] == "usage"
        assert doc["error"] == f"saturation would end with {2**40} tuples, budget is 4096"

    def test_exponent_scalar_past_the_digit_limit_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "exponent.json"
        path.write_text(
            '{"kind":"subspace","n":1,"d":1,"tuples":[[[["1e100000000"]]]]}', encoding="utf-8"
        )
        start = time.perf_counter()
        rc, doc = run_cli(capsys, "verify", "--kind", "skew", "--in", str(path))
        assert time.perf_counter() - start < 1.0
        assert rc == 2 and doc["status"] == "usage"
        assert doc["error"].startswith("tuples[0][0][0]: not a rational: '1e100000000'")
        # a probability vector is parsed by the same bounded parser
        path.write_text(serialize(full_tuza_tuples(1, 2)), encoding="utf-8")
        start = time.perf_counter()
        rc, doc = run_cli(
            capsys, "weight", "--functional", "tuza_sum", "--p", "1e100000000,1", "--in", str(path)
        )
        assert time.perf_counter() - start < 1.0
        assert rc == 2 and doc["status"] == "usage"
        assert doc["error"].startswith("not a rational: '1e100000000'")

    @pytest.mark.parametrize("extra", [(), ("--compatible-blocks", "1,2|3")])
    def test_random_m_above_the_tuple_budget_is_usage_error(self, capsys, extra):
        start = time.perf_counter()
        rc, doc = run_cli(capsys, "random", "--seed", "0", "--m", "100000", "--n", "3", *extra)
        assert time.perf_counter() - start < 5.0
        assert rc == 2 and doc["status"] == "usage"
        assert doc["error"] == "target m=100000 is above the tuple budget 4096"

    @pytest.mark.parametrize("extra", [(), ("--compatible-blocks", "1|2")])
    def test_random_negative_m_is_usage_error(self, capsys, extra):
        # it used to exit 0 with an empty system
        rc, doc = run_cli(capsys, "random", "--seed", "0", "--m", "-1", "--n", "2", *extra)
        assert rc == 2 and doc == {"error": "target m=-1 is negative", "status": "usage"}

    COMPATIBLE = ("random", "--seed", "0", "--m", "3", "--n", "4", "--compatible-blocks", "1,2|3,4")

    @pytest.mark.parametrize(
        "extra",
        [("--d", "3"), ("--d", "2"), ("--condition", "weak"), ("--kind", "subspace"), ("--field", "gf(2)")],
    )
    def test_random_compatible_blocks_refuses_the_flags_it_ignores(self, capsys, extra):
        # --d 3 --condition weak used to give a d=2 skew system at exit 0
        rc, doc = run_cli(capsys, *self.COMPATIBLE, *extra)
        assert rc == 2 and doc == {"error": f"--compatible-blocks takes no {extra[0]}", "status": "usage"}

    def test_random_compatible_blocks_names_every_ignored_flag(self, capsys):
        rc, doc = run_cli(capsys, *self.COMPATIBLE, "--d", "2", "--field", "rational")
        assert rc == 2 and doc["error"] == "--compatible-blocks takes no --d, --field"
        rc, doc = run_cli(capsys, *self.COMPATIBLE)
        assert rc == 0 and (doc["kind"], doc["d"], doc["field"]) == ("subspace", 2, "rational")

    ON_TWO = ("random", "--seed", "0", "--m", "2", "--n", "2", "--compatible-blocks")

    @pytest.mark.parametrize("blocks", ["1|1", "0", "1", "1|2|3", "1,2|2"])
    def test_random_compatible_blocks_must_partition_the_ground(self, capsys, blocks):
        # a repeat across blocks, a coordinate outside [1, 2] and a missing
        # coordinate used to reach "usage" only through main's ValueError catch
        rc, doc = run_cli(capsys, *self.ON_TWO, blocks)
        assert rc == 2 and doc == {
            "error": f"--compatible-blocks {blocks!r} is not a partition of [1, 2]",
            "status": "usage",
        }

    @pytest.mark.parametrize("blocks, decomposition", [
        ("1,1|2", [[["1", "0"]], [["0", "1"]]]),
        ("1,2|", [[["1", "0"], ["0", "1"]], []]),
    ])
    def test_random_compatible_blocks_read_as_sets(self, capsys, blocks, decomposition):
        # a repeat inside a block and an empty block still partition [1, 2]
        rc, doc = run_cli(capsys, *self.ON_TWO, blocks)
        assert rc == 0 and doc["decomposition"] == decomposition

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["construct", "--family", "complement_chain", "--params", "n=x"], "--params n"),
            (
                ["construct", "--family", "partitioned_complement_chain", "--params", "n=2", "blocks=1|x"],
                "--params blocks",
            ),
            (["search", "--objective", "max-m", "--n", "2", "--uniform", "1,x"], "--uniform"),
            (["random", "--seed", "0", "--m", "2", "--n", "2", "--compatible-blocks", "1,x"], "--compatible-blocks"),
        ],
    )
    def test_argv_integer_lists_name_their_flag(self, capsys, argv, flag):
        rc, doc = run_cli(capsys, *argv)
        assert rc == 2 and doc == {"error": f"{flag}: 'x' is not an integer", "status": "usage"}

    @pytest.mark.parametrize(
        "value, kind",
        [("1", "subspace"), ("TRUE", "subspace"), ("Yes", "subspace"),
         ("0", "set"), ("false", "set"), ("NO", "set")],
    )
    def test_construct_embedded_reads_yes_and_no(self, capsys, value, kind):
        rc, doc = run_cli(
            capsys, "construct", "--family", "complement_chain", "--params", "n=1", f"embedded={value}"
        )
        assert rc == 0 and doc["kind"] == kind

    @pytest.mark.parametrize("value", ["yes-please", "2", ""])
    def test_construct_embedded_refuses_other_words(self, capsys, value):
        # they used to give the set family at exit 0
        rc, doc = run_cli(
            capsys, "construct", "--family", "complement_chain", "--params", "n=1", f"embedded={value}"
        )
        assert rc == 2 and doc == {
            "error": f"--params embedded: {value!r} is not one of 1/true/yes or 0/false/no",
            "status": "usage",
        }

    def test_saturate_debug_above_the_recount_budget_is_usage_error(self, capsys, tmp_path):
        # within the tuple budget, but 4095 recounts of up to 4096 tuples
        path = tmp_path / "sparse.json"
        path.write_text('{"kind":"set","n":12,"d":2,"tuples":[[[],[]]]}', encoding="utf-8")
        start = time.perf_counter()
        rc, doc = run_cli(capsys, "saturate", "--flavor", "set", "--debug", "--in", str(path))
        assert time.perf_counter() - start < 5.0
        assert rc == 2 and doc["status"] == "usage"
        assert "4096 tuples after each of 4095 steps" in doc["error"]

    @pytest.mark.parametrize(
        "params, unknown",
        # budget=N used to bind construct's budget and lift the tuple guard
        [(["a=1", "b=1", "n=5"], "a, b"), (["n=17", "budget=1000000"], "budget")],
    )
    def test_construct_refuses_params_its_family_does_not_take(self, capsys, params, unknown):
        rc, doc = run_cli(capsys, "construct", "--family", "complement_chain", "--params", *params)
        assert rc == 2 and doc["status"] == "usage"
        assert doc["error"] == f"family 'complement_chain' takes no params {unknown}"

    @pytest.mark.parametrize(
        "family, params", CONSTRUCT_EDGES, ids=[" ".join((f, *p)) for f, p in CONSTRUCT_EDGES]
    )
    def test_construct_emits_only_documents_that_load(self, capsys, family, params):
        # uniform_bollobas a=1 b=64 used to emit a document at n=65, which
        # every reading command refused
        rc, doc = run_cli(capsys, "construct", "--family", family, "--params", *params)
        if rc:
            assert rc == 2 and doc["status"] == "usage"
        else:
            assert system_to_doc(system_from_doc(doc)) == doc

    @pytest.mark.parametrize(
        "extra, message",
        [
            # best 0 with "exhaustive": true used to be the answer
            (["--uniform", "1"], "uniform sizes have 1 entries, arity is 2"),
            # --p used to be dropped in silence, where weight refuses it
            (["--functional", "yue", "--p", "1/2,1/2"], "yue_sum takes no --p"),
        ],
    )
    def test_search_arguments_are_checked(self, capsys, extra, message):
        rc, doc = run_cli(capsys, "search", "--objective", "max-m", "--n", "2", *extra)
        assert rc == 2 and doc == {"error": message, "status": "usage"}

    def test_reports_have_no_decimals(self, capsys, tmp_path):
        path = self.write_chain(tmp_path, n=4)
        rc, doc = run_cli(capsys, "weight", "--functional", "hegedus_frankl_sum", "--in", path)
        assert rc == 0
        assert doc["value"] == "5"
        assert "." not in doc["value"] and "." not in doc["bound"]


# ---------------------------------------------------------------------------
# the report encoder against json


_TEXT = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from(['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "€", "😀", "a"])),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(10**39, 10**40 - 1).flatmap(lambda v: st.sampled_from([v, -v])),
    _TEXT,
)
_REPORTS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=30,
)


def _labelled_blocks(draw, n: int) -> list[list[int]]:
    """A partition of [1, n] into blocks, from one label per element."""
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return [[p + 1 for p in range(n) if labels[p] == k] for k in sorted(set(labels))]


@st.composite
def set_systems(draw):
    """Set systems on n in 0..8 or 64 with d in 1..4 and up to 6 tuples
    (none too), whose components, the empty set among them, repeat from a
    small pool; half have a partition."""
    n = draw(st.sampled_from([*range(9), 64]))
    d = draw(st.integers(1, 4))
    pool = draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=4))
    component = st.sampled_from(pool)
    tuples = draw(st.lists(st.tuples(*[component] * d), max_size=6))
    partition = None
    if draw(st.booleans()):
        blocks = _labelled_blocks(draw, n)
        partition = tuple(sum(1 << (p - 1) for p in block) for block in blocks)
    return SetSystem(n, d, tuple(tuples), partition)


@st.composite
def subspace_systems(draw):
    """Subspace systems over QQ (rows whose RREF has fractional entries),
    GF(2) or GF(3) on n in 0..4 with d in 1..3 and up to 5 tuples, whose
    components, zero subspaces among them, repeat from a small pool; half
    have a coordinate decomposition."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3)]))
    n = draw(st.integers(0, 4))
    d = draw(st.integers(1, 3))
    rows = st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=n)
    pool = draw(st.lists(rows.map(lambda r: canonicalize(n, field, r)), min_size=1, max_size=4))
    component = st.sampled_from(pool)
    tuples = draw(st.lists(st.tuples(*[component] * d), max_size=5))
    decomposition = None
    if draw(st.booleans()):
        decomposition = coordinate_decomposition(n, field, _labelled_blocks(draw, n))
    return SubspaceSystem(n, field, d, tuple(tuples), decomposition)


def emitted(doc) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        cli_io._emit(doc)
    return out.getvalue()


class TestReportEncoder:
    @settings(max_examples=200, deadline=None)
    @given(doc=_REPORTS)
    def test_emit_writes_what_json_writes(self, doc):
        assert emitted(doc) == json.dumps(doc, indent=2) + "\n"

    def test_empty_and_nested_containers(self):
        doc = {"a": {}, "b": [], "c": (), "d": [{}, [[]], {"e": ({"f": None},)}], "": True}
        assert emitted(doc) == json.dumps(doc, indent=2) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(system=st.one_of(set_systems(), subspace_systems()), key=st.sampled_from(["final_system", "witness"]))
    def test_serialize_writes_what_json_writes(self, system, key):
        # a system is written from its value, each distinct component once,
        # at the top of a document and nested in a report alike
        doc = system_to_doc(system)
        assert serialize(system) == json.dumps(doc, indent=2)
        report = {"command": "saturate", "steps": 2, key: system, "trace": [{"x": 1}]}
        assert emitted(report) == json.dumps({**report, key: doc}, indent=2) + "\n"

    @pytest.mark.parametrize("witness", [None, complement_chain(2), embed(complement_chain(2))])
    def test_search_report_writes_what_json_writes(self, witness):
        report = cli_io.report_search(SearchResult(Fraction(3, 2), witness, 7, True))
        doc = None if witness is None else system_to_doc(witness)
        assert emitted(report) == json.dumps({**report, "witness": doc}, indent=2) + "\n"

    @pytest.mark.parametrize("doc", [1.5, {1: "x"}, {"x": {2}}, [b"x"], {"x": Fraction(1, 2)}])
    def test_other_types_are_refused(self, doc):
        with pytest.raises(TypeError):
            cli_io._dumps(doc)

    def test_golden_reports_reencode_to_their_bytes(self):
        golden = sorted((Path(__file__).parent / "golden").glob("*.out"))
        assert golden
        for path in golden:
            body = path.read_text(encoding="utf-8").split("\n", 2)[2]
            assert emitted(json.loads(body)) == body, path.name


# ---------------------------------------------------------------------------
# fuzzed documents through saturate and certify


@st.composite
def set_documents(draw):
    """Set documents with n <= 6 and d <= 3: elements mostly in [n], some
    outside it, tuples of any arity, and a partition that is a labelling of
    [n] or arbitrary blocks."""
    n = draw(st.integers(0, 6))
    d = draw(st.integers(1, 3))
    element = st.one_of(st.integers(1, max(n, 1)), st.integers(-1, n + 1))
    subset = st.lists(element, max_size=n + 1)
    arity = st.one_of(st.just(d), st.integers(0, 4))
    tuples = draw(
        st.lists(arity.flatmap(lambda a: st.lists(subset, min_size=a, max_size=a)), max_size=3)
    )
    doc = {"kind": "set", "n": n, "d": d, "tuples": tuples}
    if draw(st.booleans()):
        if draw(st.booleans()):
            labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
            doc["partition"] = [
                [p + 1 for p in range(n) if labels[p] == k] for k in sorted(set(labels))
            ]
        else:
            doc["partition"] = draw(st.lists(subset, max_size=3))
    return doc


@st.composite
def mixed_set_documents(draw):
    """Set documents with n <= 6 and d <= 3 whose values are mostly valid,
    and otherwise hostile at one or more levels: elements that are bools,
    exact floats, 0, negatives, n + 1, strings, lists, objects or null;
    subsets, tuples and partitions that are not lists or have the wrong
    length; and a bool or float under a key the reader skips.  Each level
    draws its own rate, so that some documents are hostile at one level
    only."""
    n = draw(st.integers(0, 6))
    d = draw(st.integers(1, 3))
    rate = {level: draw(st.sampled_from([0, 0, 5, 30])) for level in ("element", "list", "note")}

    def hostile(level):
        return draw(st.integers(0, 99)) < rate[level]

    scalar = st.one_of(
        st.none(), st.text(max_size=2), st.dictionaries(st.sampled_from("ab"), st.integers(0, 2), max_size=1)
    )
    element = st.one_of(
        st.booleans(),
        st.sampled_from([1.0, 2.0, float(n), float(n + 1), 0.5, -1.0, 0.0]),
        st.integers(-2, 0),
        st.just(n + 1),
        st.lists(st.integers(0, 2), max_size=2),
        scalar,
    )
    not_a_list = st.one_of(st.just({}), st.just(""), st.integers(0, 2), scalar)

    def subset():
        if hostile("list"):
            return draw(not_a_list)
        return [draw(element) if hostile("element") else draw(st.integers(1, n)) for _ in range(draw(st.integers(0, n)))]

    def subsets(length):
        if hostile("list"):
            if draw(st.booleans()):
                return draw(not_a_list)
            length = draw(st.integers(0, 4))
        return [subset() for _ in range(length)]

    doc = {"kind": "set", "n": n, "d": d, "tuples": [subsets(d) for _ in range(draw(st.integers(0, 4)))]}
    if draw(st.booleans()):
        doc["partition"] = subsets(draw(st.integers(0, 3)))
    if hostile("note"):
        doc["note"] = draw(element)
    return doc


# per field, entries it reads and entries it refuses
_PAIR_ENTRIES = {
    "rational": (["0", "1", "-1", "2", "1/2"], ["1 mod 3", "x", "1/0"]),
    "gf(2)": (["0", "1", "-1", "3", "1 mod 2"], ["1/2", "1 mod 3", "x"]),
    "gf(3)": (["0", "1", "2", "-1", "2 mod 3"], ["1/2", "1 mod 2", "x"]),
}


@st.composite
def pair_documents(draw):
    """Pair documents over QQ, GF(2) or GF(3) with n <= 3, any rows, and a
    coordinate or an arbitrary decomposition; in half of them the entries
    include some the field refuses."""
    n = draw(st.integers(1, 3))
    field = draw(st.sampled_from(sorted(_PAIR_ENTRIES)))
    valid, invalid = _PAIR_ENTRIES[field]
    entries = valid if draw(st.booleans()) else valid + invalid
    row = st.lists(st.sampled_from(entries), min_size=n, max_size=n)
    subspace = st.lists(row, max_size=n)
    tuples = draw(st.lists(st.lists(subspace, min_size=2, max_size=2), max_size=3))
    doc = {"kind": "subspace", "n": n, "d": 2, "field": field, "tuples": tuples}
    if draw(st.booleans()):
        if draw(st.booleans()):
            cut = draw(st.integers(1, n))
            unit = [["1" if c == p else "0" for c in range(n)] for p in range(n)]
            doc["decomposition"] = [unit[:cut]] + ([unit[cut:]] if cut < n else [])
        else:
            doc["decomposition"] = draw(st.lists(subspace, min_size=1, max_size=3))
    return doc


# slots a nested value fills: the whole document, a tuple, an element, a
# partition block, a subspace row, and the first value of a key given twice
_NEST_SLOTS = (
    "@",
    '{"kind": "set", "n": 2, "d": 2, "tuples": [@]}',
    '{"kind": "set", "n": 2, "d": 2, "tuples": [[[@], []]]}',
    '{"kind": "set", "n": 2, "d": 2, "tuples": [], "partition": [@]}',
    '{"kind": "subspace", "n": 2, "d": 2, "field": "gf(2)", "tuples": [[[@], []]]}',
    '{"kind": "set", "n": 2, "d": 2, "tuples": @, "tuples": []}',
    '{"kind": @, "n": 2, "d": 2, "tuples": [], "kind": "set"}',
)


@st.composite
def nested_documents(draw):
    """JSON text nested from one level to past the decoder's recursion
    limit: a run of arrays or objects, closed or cut off, in one slot of a
    document; often within a few levels of ``MAX_NESTING``."""
    depth = draw(st.integers(1, 3000) | st.integers(60, 70) | st.sampled_from([500, 900, 990, 1000]))
    opener, closer = draw(st.sampled_from([("[", "]"), ('{"a": ', "}")]))
    value = opener * depth + ("0" + closer * depth if draw(st.booleans()) else "")
    return draw(st.sampled_from(_NEST_SLOTS)).replace("@", value)


def bracket_depth(text: str) -> int:
    """The most lists and objects open at once in JSON ``text``, counted a
    character at a time, brackets inside strings aside."""
    depth = deepest = 0
    in_string = escaped = False
    for c in text:
        if in_string:
            if escaped:
                escaped = False
            elif c == "\\":
                escaped = True
            elif c == '"':
                in_string = False
        elif c == '"':
            in_string = True
        elif c in "[{":
            depth += 1
            deepest = max(deepest, depth)
        elif c in "]}":
            depth -= 1
    return deepest


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


# raw argv lists for construct, search, random and explore: small ints, and
# in half the lists bad ints, non-ints, budget=, --uniform of any length and
# --p text that does not parse or sum to 1;
# n <= 4 (n <= 3 for explore) and budgets <= 2000 keep each run short: at the
# default budget, a rational explore takes seconds
_JUNK = st.sampled_from(["x", "", "1.5", "1e3", "-1", "99999", "1|2", "-"])
_JUNK_P = st.sampled_from(["1/2", "x", "0,1", "1/0"])


@st.composite
def raw_argv(draw):
    clean = draw(st.booleans())

    def bad(strategy):
        return strategy if clean else st.one_of(strategy, _JUNK)

    def bad_p(strategy):
        return strategy if clean else st.one_of(strategy, _JUNK_P)

    def options(**flags):
        out = []
        for flag, strategy in flags.items():
            value = draw(strategy)
            if value is not None:
                out += [f"--{flag.replace('_', '-')}", value]
        return out

    def maybe(strategy):
        return st.one_of(st.none(), strategy)

    value = bad(st.integers(0, 4).map(str))
    ints = st.lists(value, min_size=1, max_size=3).map(",".join)
    blocks = st.lists(ints, min_size=1, max_size=3).map("|".join)
    command = draw(st.sampled_from(["construct", "search", "random", "explore"]))
    if command == "construct":
        family = draw(st.sampled_from([*cli_io.FAMILY_NAMES, *([] if clean else ["nosuch"])]))
        keys = list(FAMILY_PARAMS.get(family, ()))
        if not clean:
            keys += draw(st.lists(st.sampled_from(["n", "d", "embedded", "budget", "x"]), max_size=2))
        params = [f"{k}={draw(blocks if k == 'blocks' else value)}" for k in keys]
        return ["construct", "--family", family, "--params", *params]
    if command == "explore":
        return ["explore", *options(
            n=bad(st.integers(0, 3).map(str)),
            d=bad(st.sampled_from(["1", "2", "3"])),
            p=bad_p(st.sampled_from(["1", "1/2,1/2", "1/3,1/3,1/3"])),
            field=bad(st.sampled_from(["gf(2)", "gf(3)", "rational"])),
            budget=st.integers(-1, 2000).map(str),
            seed=maybe(value),
        )]
    kind = draw(st.sampled_from(["set", "set", "subspace"]))
    # subspace grounds stay at n <= 2: GF(3)^4 pairs take seconds to list
    common = options(
        n=bad(st.integers(0, 4 if kind == "set" else 2).map(str)),
        d=maybe(bad(st.sampled_from(["1", "2", "3"]))),
        condition=maybe(st.sampled_from(["skew", "weak", "bollobas"])),
        field=bad(st.sampled_from(["gf(2)", "gf(3)", "rational"]))
        if kind == "subspace" else maybe(st.just("gf(2)")),
    )
    if command == "search":
        return ["search", "--kind", kind, *common, *options(
            objective=st.sampled_from(["max-m", "max-m", "max-weight", "counterexample"]),
            budget=bad(st.integers(1, 2000).map(str)),
            functional=maybe(st.sampled_from(["yue", "tuza", "tuza", "partitioned_yue"])),
            p=maybe(bad_p(st.sampled_from(["1/2,1/2", "1/3,1/3,1/3"]))),
            uniform=maybe(ints),
        )]
    random_options = options(seed=value, m=bad(st.integers(0, 12).map(str)))
    if draw(st.integers(0, 3)) == 0:
        # the compatible mode, in half the lists with the flags it refuses;
        # the blocks mostly label each coordinate of [1, n] with a block
        if draw(st.booleans()):
            shape = ["--kind", kind, *common]
        else:
            shape = options(n=bad(st.integers(0, 4).map(str)))
        n = shape[shape.index("--n") + 1] if "--n" in shape else None
        if n in ("0", "1", "2", "3", "4") and draw(st.integers(0, 3)):
            labels = draw(st.lists(st.integers(1, 3), min_size=int(n), max_size=int(n)))
            parts = [[] for _ in range(max(labels, default=1))]
            for c, k in enumerate(labels, 1):
                parts[k - 1].append(str(c))
            text = "|".join(map(",".join, parts))
        else:
            text = draw(blocks)
        return ["random", *shape, *random_options, "--compatible-blocks", text]
    return ["random", "--kind", kind, *common, *random_options]


def assert_a_json_report(argv):
    rc, out, err = run_quietly(argv)
    assert rc in (0, 1, 2)
    report = json.loads(out)
    assert isinstance(report, dict) and report.get("status") != "internal"
    assert err == ""


class TestCliFuzz:
    @settings(max_examples=200, deadline=None)
    @given(text=nested_documents())
    def test_nesting_refusal_is_the_bracket_count(self, text):
        # the same outcome from here and from 200 frames deeper, and the
        # nesting refusal exactly when more than 64 brackets are open at once
        def outcome(frames):
            if frames:
                return outcome(frames - 1)
            try:
                return str(parse(text))
            except DocumentError as exc:
                return str(exc)

        here = outcome(0)
        assert outcome(200) == here
        assert (here == "document nests too deeply") == (bracket_depth(text) > cli_io.MAX_NESTING)

    @settings(max_examples=300, deadline=None)
    @given(argv=raw_argv())
    def test_raw_argv_ends_in_a_json_report(self, argv):
        assert_a_json_report(argv)

    @settings(max_examples=150, deadline=None)
    @given(doc=st.one_of(set_documents(), pair_documents(), nested_documents()), data=st.data())
    def test_saturate_and_certify_end_in_a_json_report(self, tmp_path_factory, doc, data):
        path = tmp_path_factory.mktemp("fuzz") / "doc.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        flavor = data.draw(st.sampled_from(["set", "pair", "tuple"]))
        argv = ["saturate", "--flavor", flavor, "--in", str(path)]
        # --debug re-verifies the whole system at every step, O(steps * m^2)
        if isinstance(doc, dict) and doc["n"] <= 3 and data.draw(st.booleans()):
            argv.append("--debug")
        certify = ["certify", "--in", str(path)]
        for command in (argv, certify, certify + ["--flavor", flavor]):
            assert_a_json_report(command)

    @settings(max_examples=200, deadline=None)
    @given(doc=st.one_of(set_documents(), pair_documents(), nested_documents()))
    def test_document_commands_end_in_a_json_report(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("fuzz") / "doc.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        commands = [
            *(["verify", "--kind", kind] for kind in FLAVORS),
            *(["weight", "--functional", *args] for args in FUNCTIONAL_ARGS),
            *(["check", "--bound", bound] for bound in ("uniform-pair", "partitioned-uniform", "cardinality")),
            ["embed"],
        ]
        for command in commands:
            assert_a_json_report([*command, "--in", str(path)])


class TestSetLookup:
    """``parse`` reads a set document's elements by table lookup when the
    text holds no bool and no float, and by the checked loop otherwise."""

    @staticmethod
    def _counted(monkeypatch) -> list:
        calls = []
        checked = cli_io.mask_from_elements

        def counted(elements, n):
            calls.append(elements)
            return checked(elements, n)

        monkeypatch.setattr(cli_io, "mask_from_elements", counted)
        return calls

    def test_package_documents_are_read_by_lookup(self, monkeypatch):
        def refused(elements, n):
            raise AssertionError("read by the checked loop")

        final = saturate(SetSystem.from_sets(4, [({1}, {2}, {3})], partition=[[1, 2], [3, 4]]), "set").final
        assert final.partition is not None and final.m > 1
        monkeypatch.setattr(cli_io, "mask_from_elements", refused)
        for system in (full_tuza_tuples(6, 3), final):
            assert parse(serialize(system)) == system

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": "set", "n": 2, "d": 2, "tuples": [[[1], [2]]], "note": true}',
            '{"kind": "set", "n": 2, "d": 2, "tuples": [[[1], [2]]], "note": false}',
            '{"kind": "set", "n": 2, "d": 2, "tuples": [[[1], [2]]], "note": 0.5}',
            '{"kind": "set", "n": 2, "d": 2, "tuples": [[[1], [2]]], "note": "true"}',
        ],
    )
    def test_a_document_with_a_bool_or_float_is_checked(self, monkeypatch, text):
        calls = self._counted(monkeypatch)
        assert parse(text) == SetSystem.from_sets(2, [({1}, {2})])
        assert calls == [[1], [2]]

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"kind": "set", "n": 2, "d": 1, "tuples": [[[1.0]]]}', "tuples[0][0]: element 1.0 outside [1, 2]"),
            ('{"kind": "set", "n": 2, "d": 1, "tuples": [[[true]]]}', "tuples[0][0]: element True outside [1, 2]"),
        ],
    )
    def test_a_bool_or_float_element_is_refused_by_the_checked_loop(self, monkeypatch, text, message):
        calls = self._counted(monkeypatch)
        with pytest.raises(DocumentError) as err:
            parse(text)
        assert str(err.value) == message
        assert len(calls) == 1

    def test_a_library_dict_is_checked(self, monkeypatch):
        calls = self._counted(monkeypatch)
        doc = {"kind": "set", "n": 2, "d": 2, "tuples": [[[1], [2]]]}
        assert system_from_doc(doc) == SetSystem.from_sets(2, [({1}, {2})])
        assert calls == [[1], [2]]
        with pytest.raises(DocumentError, match=r"^tuples\[0\]\[0\]: element True outside \[1, 2\]$"):
            system_from_doc({"kind": "set", "n": 2, "d": 2, "tuples": [[[True], [2]]]})

    @settings(max_examples=400, deadline=None)
    @given(doc=mixed_set_documents())
    def test_parse_reads_as_the_checked_loop(self, doc):
        # the same system, or the same refusal text and path, as the checked
        # reader on the value the text decodes to
        def outcome(read, value):
            try:
                return read(value)
            except DocumentError as exc:
                return str(exc)

        text = json.dumps(doc)
        assert outcome(parse, text) == outcome(system_from_doc, json.loads(text))
