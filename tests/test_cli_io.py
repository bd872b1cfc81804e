"""Document round-trips, parse errors, and the command-line surface."""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bollobas import (
    DocumentError,
    PrimeField,
    QQ,
    SetSystem,
    SubspaceSystem,
    complement_chain,
    coordinate_decomposition,
    coordinate_subspace,
    embed,
    full_tuza_tuples,
    parse,
    partitioned_complement_chain,
    random_compatible_pair_system,
    random_valid_system,
    serialize,
    uniform_bollobas,
    zero_subspace,
)
from bollobas.cli_io import main, system_from_doc, system_to_doc


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        doc = None
    return rc, doc


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
            random_valid_system("set", 4, 2, "skew", 5, seed=1),
            random_valid_system("subspace", 2, 2, "skew", 3, seed=2, field=PrimeField(3)),
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
        assert s.tuples[0][0].basis == ((Fraction(1), Fraction(1)),)
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

    def test_bad_field(self):
        doc = {"kind": "subspace", "n": 1, "d": 2, "field": "gf(6)", "tuples": []}
        with pytest.raises(DocumentError):
            system_from_doc(doc)

    def test_wrong_arity(self):
        doc = {"kind": "set", "n": 2, "d": 2, "tuples": [[[1]]]}
        with pytest.raises(DocumentError):
            system_from_doc(doc)


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

    def test_unknown_flag_is_usage_error(self, capsys):
        rc = main(["verify", "--nonsense"])  # argparse prints to stderr
        assert rc == 2

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
        from bollobas.cli_io import MAX_D, MAX_N

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
        assert rc == 2 and doc["status"] == "usage" and "clause table" in doc["error"]

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

    def test_reports_have_no_decimals(self, capsys, tmp_path):
        path = self.write_chain(tmp_path, n=4)
        rc, doc = run_cli(capsys, "weight", "--functional", "hegedus_frankl_sum", "--in", path)
        assert rc == 0
        assert doc["value"] == "5"
        assert "." not in doc["value"] and "." not in doc["bound"]


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
def pair_documents(draw):
    """Rational pair documents with n <= 3, any rows, and a coordinate or an
    arbitrary decomposition."""
    n = draw(st.integers(1, 3))
    row = st.lists(st.sampled_from(["0", "1", "-1", "2", "1/2"]), min_size=n, max_size=n)
    subspace = st.lists(row, max_size=n)
    tuples = draw(st.lists(st.lists(subspace, min_size=2, max_size=2), max_size=3))
    doc = {"kind": "subspace", "n": n, "d": 2, "field": "rational", "tuples": tuples}
    if draw(st.booleans()):
        if draw(st.booleans()):
            cut = draw(st.integers(1, n))
            unit = [["1" if c == p else "0" for c in range(n)] for p in range(n)]
            doc["decomposition"] = [unit[:cut]] + ([unit[cut:]] if cut < n else [])
        else:
            doc["decomposition"] = draw(st.lists(subspace, min_size=1, max_size=3))
    return doc


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


class TestCliFuzz:
    @settings(max_examples=150, deadline=None)
    @given(doc=st.one_of(set_documents(), pair_documents()), data=st.data())
    def test_saturate_and_certify_end_in_a_json_report(self, tmp_path_factory, doc, data):
        path = tmp_path_factory.mktemp("fuzz") / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        flavor = data.draw(st.sampled_from(["set", "pair", "tuple"]))
        argv = ["saturate", "--flavor", flavor, "--in", str(path)]
        # --debug re-verifies the whole system at every step, O(steps * m^2)
        if doc["n"] <= 3 and data.draw(st.booleans()):
            argv.append("--debug")
        certify = ["certify", "--in", str(path)]
        for command in (argv, certify, certify + ["--flavor", flavor]):
            rc, out, err = run_quietly(command)
            assert rc in (0, 1, 2)
            report = json.loads(out)
            assert isinstance(report, dict) and report.get("status") != "internal"
            assert err == ""
