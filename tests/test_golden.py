"""Golden CLI reports: each case's exit code and stdout, byte for byte.

Every README CLI example is here, plus the reports a refactor of the weight
terms, the partitioned-uniform certificate or partition validation could
move.  Inputs are built from fixed constructions and written next to the
run, so a case names them as ``@name`` in its argv.

To record the files again after a deliberate report change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff; with a
directory argument the files are written there instead.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from functools import cache
from pathlib import Path

import pytest

from bollobas import (
    QQ,
    SetSystem,
    SubspaceSystem,
    canonicalize,
    complement_chain,
    coordinate_decomposition,
    embed,
    full_tuza_tuples,
    partitioned_complement_chain,
    random_compatible_pair_system,
    saturate,
    uniform_bollobas,
    zero_subspace,
)
from bollobas.cli_io import _functional_name, main, parse, system_to_doc
from bollobas.weight_functionals import RULES

GOLDEN = Path(__file__).parent / "golden"

FUNCTIONAL_ARGS = (
    ("bollobas",),
    ("scott_wilmer",),
    ("hegedus_frankl",),
    ("yue",),
    ("partitioned_yue",),
    ("partitioned_bollobas",),
    ("tuza", "--p", "1/2,1/2"),
)


def _one_entry(entry: str, field: str = "rational") -> dict:
    """A one-pair subspace document whose first row holds ``entry``."""
    return {
        "kind": "subspace", "n": 2, "d": 2, "field": field,
        "tuples": [[[[entry, "1"]], [["0", "1"]]]],
    }


def _one_entry_text(entry: str) -> str:
    """``_one_entry`` as JSON text with ``entry`` written as it is, so that
    it can be a bare number."""
    return json.dumps(_one_entry("@")).replace('"@"', entry)


@cache
def _inputs() -> dict[str, object]:
    blocks = [[1, 2], [3, 4]]
    chain = complement_chain(4)
    pchain = partitioned_complement_chain(4, blocks)
    uniform = SetSystem.from_sets(
        4, [({1, 3}, {2, 4}), ({2, 4}, {1, 3})], partition=blocks
    )
    diag = canonicalize(2, QQ, [(1, 1)])
    incompatible = SubspaceSystem(
        2, QQ, 2, ((diag, zero_subspace(2, QQ)),), coordinate_decomposition(2, QQ, [[1], [2]])
    )
    weak_not_skew = SetSystem.from_sets(3, [({1}, {2}), ({2}, {3})])
    n0 = SetSystem(0, 1, (), partition=())
    empty_two_blocks = SetSystem(2, 2, (), partition=(0b01, 0b10))
    full33 = full_tuza_tuples(3, 3).tuples
    # three blocks of QQ^4 whose stacked canonical rows have determinant 11,
    # and one pair whose first subspace lies in the second block
    qq_three_blocks = {
        "kind": "subspace", "n": 4, "d": 2, "field": "rational",
        "tuples": [[[["1", "3", "1", "2"]], []]],
        "decomposition": [
            [["2", "1", "0", "0"]], [["0", "3", "1", "0"], ["1", "0", "0", "2"]], [["0", "0", "1", "1"]],
        ],
    }
    docs: dict[str, object] = {
        "chain": chain,
        "embedded": embed(chain),
        "tuples": full_tuza_tuples(3, 3),
        "pair": random_compatible_pair_system(4, blocks, 2, seed=1),
        "full": full_tuza_tuples(3, 2),
        "full_triples_embedded": embed(full_tuza_tuples(2, 3)),
        "pchain": pchain,
        "pchain_embedded": embed(pchain),
        "uniform": uniform,
        "uniform_embedded": embed(uniform),
        "incompatible": incompatible,
        "chain3_embedded": embed(complement_chain(3)),
        "ptriple": SetSystem.from_sets(4, [({1}, {2}, {3})], partition=blocks),
        "weak_not_skew": weak_not_skew,
        "weak_not_skew_embedded": embed(weak_not_skew),
        "not_weak": SetSystem.from_sets(4, [({1}, {2}), ({3}, {4})]),
        "empty_set_pair": SetSystem.from_sets(3, [((), ())]),
        "empty_subspace_pair": embed(SetSystem.from_sets(2, [((), ())])),
        "overlap": {"kind": "set", "n": 3, "d": 2, "tuples": [], "partition": [[1], [2], [2, 3]]},
        "noncover": {"kind": "set", "n": 3, "d": 2, "tuples": [], "partition": [[1], [3]]},
        # rows off canonical form: negative and out-of-range residues,
        # non-unit pivots, dependent rows
        "gf3_rows": {
            "kind": "subspace", "n": 3, "d": 2, "field": "gf(3)",
            "tuples": [
                [[["2", "-1", "7 mod 3"]], [["0", "3", "-1"]]],
                [[], [["-1", "-1", "-2"], ["4", "0", "0"], ["-2", "-2", "-4"]]],
            ],
        },
        # fractional and non-primitive rows, negative pivots, dependent rows
        "qq_rows": {
            "kind": "subspace", "n": 3, "d": 2, "field": "rational",
            "tuples": [
                [[["-1/2", "1/3", "0"]], [["0", "-4", "6"], ["0", "-2", "3"]]],
                [[], [["-3/2", "1", "0"], ["-6", "0", "-9/3"]]],
            ],
        },
        "bad_scalar_word": _one_entry("x"),
        "bad_scalar_zero_den": _one_entry("1/0"),
        "bad_scalar_modulus": _one_entry("2 mod 7", "gf(5)"),
        "bad_scalar_residue": _one_entry("x mod 3", "gf(3)"),
        # JSON text: a bare number a float holds exactly, one it cannot, the
        # same digits quoted, and bare numbers past the float range
        "bare_exact": _one_entry_text("0.5"),
        "bare_inexact": _one_entry_text("0.1000000000000000000001"),
        "quoted_inexact": _one_entry_text('"0.1000000000000000000001"'),
        "bare_overflow": _one_entry_text("1e400"),
        "bare_nan": _one_entry_text("NaN"),
        # JSON true is an int to Python, but never a set element
        "bool_element": {"kind": "set", "n": 2, "d": 1, "tuples": [[[True]]], "partition": [[True, 2]]},
        "bool_block": {"kind": "set", "n": 2, "d": 1, "tuples": [[[1]]], "partition": [[True, 2]]},
        # nor is a float or a string, whatever number it spells
        "float_element": {"kind": "set", "n": 3, "d": 1, "tuples": [[[1.0]]]},
        "str_element": {"kind": "set", "n": 3, "d": 1, "tuples": [[["1"]]]},
        # deeper than the JSON decoder can recurse
        "nested": "[" * 1000,
        # refused for its n by the reader, before the system's own shape check
        "negative_n_subspace": {"kind": "subspace", "n": -1, "d": 2, "tuples": [[[], []]]},
        # one refusal each of the reader's shape checks
        "kind_graph": {"kind": "graph", "n": 2, "d": 2, "tuples": []},
        "tuples_not_list": {"kind": "set", "n": 2, "d": 2, "tuples": {}},
        "subset_not_list": {"kind": "set", "n": 2, "d": 2, "tuples": [[1, [2]]]},
        "partition_not_list": {"kind": "set", "n": 2, "d": 2, "tuples": [], "partition": 1},
        "partition_block_int": {"kind": "set", "n": 2, "d": 2, "tuples": [], "partition": [3]},
        "partition_block_str": {"kind": "set", "n": 2, "d": 2, "tuples": [], "partition": [[1], "2"]},
        "subspace_tuple_arity": {"kind": "subspace", "n": 2, "d": 2, "tuples": [[[]]]},
        "decomposition_not_list": {"kind": "subspace", "n": 2, "d": 2, "tuples": [], "decomposition": {}},
        "n_not_int": {"kind": "set", "n": "2", "d": 2, "tuples": []},
        "subspace_not_rows": {"kind": "subspace", "n": 2, "d": 2, "tuples": [[1, []]]},
        "zero_d_set": {"kind": "set", "n": 2, "d": 0, "tuples": []},
        # n out of range, refused for its n whatever else the document holds
        "negative_n_set_element": {"kind": "set", "n": -1, "d": 2, "tuples": [[[1], []]]},
        "negative_n_subspace_row": {"kind": "subspace", "n": -1, "d": 2, "tuples": [[[["1"]], []]]},
        "negative_n_decomposition": {"kind": "subspace", "n": -1, "d": 2, "tuples": [], "decomposition": []},
        "n_above_cap": {"kind": "set", "n": 65, "d": 2, "tuples": []},
        # empty pairs whose fill-up vectors x have non-unit entries: over QQ
        # the x of block 1 prints -1/6 and 1/3
        "qq_pair_fractional_x": {
            "kind": "subspace", "n": 3, "d": 2, "field": "rational", "tuples": [[[], []]],
            "decomposition": [[["2", "1", "0"], ["0", "3", "1"]], [["0", "0", "1"]]],
        },
        "qq_three_blocks": qq_three_blocks,
        "qq_three_blocks_final": saturate(parse(json.dumps(qq_three_blocks)), "pair").final,
        "gf5_empty_triple": {"kind": "subspace", "n": 3, "d": 3, "field": "gf(5)", "tuples": [[[], [], []]]},
        "gf3_pair": {
            "kind": "subspace", "n": 3, "d": 2, "field": "gf(3)", "tuples": [[[], []]],
            "decomposition": [[["2", "1", "0"]], [["0", "2", "1"]], [["0", "0", "1"]]],
        },
        # no tuples on no ground: the partition and decomposition have no block
        "n0": n0,
        "n0_embedded": embed(n0),
        # no tuples over two one-element blocks: the block reports read the
        # zero profile and the bound off the blocks alone
        "empty_two_blocks": empty_two_blocks,
        "empty_two_blocks_embedded": embed(empty_two_blocks),
        "uniform_bollobas": uniform_bollobas(2, 1),
        # weak set systems whose tuples all cover one support: the 27 full
        # triples with tuple 5 again at the end, a pair system whose third
        # pair overlaps, and the full triples of [3] on the ground [4]
        "full_repeat": SetSystem(3, 3, full33 + full33[4:5]),
        "common_support_overlap": SetSystem.from_sets(2, [({1}, {2}), ({2}, {1}), ({1, 2}, {2})]),
        "full_in_larger_ground": SetSystem(4, 3, full33),
        # a Latin-1 file, and an int literal past the interpreter's digit limit
        "latin1": '{"kind": "set", "n": 1, "d": 1, "tuples": [], "note": "\u00e9"}'.encode("latin-1"),
        "long_int": '{"kind": "set", "n": ' + "1" * 4301 + ', "d": 1, "tuples": []}',
        # 70 nested lists under a key the reader does not read
        "nested_unknown_key": '{"kind": "set", "n": 2, "d": 2, "tuples": [], "note": '
        + "[" * 70 + "]" * 70 + "}",
        # 70 nested lists under a key given twice, the reader taking the
        # second value
        "nested_repeated_key": '{"kind": "set", "n": 1, "d": 1, "tuples": '
        + "[" * 70 + "]" * 70 + ', "tuples": []}',
        # set elements that are not ints in [1, n], each refused where it
        # first occurs: past n in the last of 50 tuples, 0, -1, a bare
        # exponent literal, 1.0 in the partition alone, a nested list
        "element_past_n_last": {
            "kind": "set", "n": 6, "d": 2,
            "tuples": [[[1 + i % 6], [1 + (i + 1) % 6]] for i in range(49)] + [[[1], [7]]],
        },
        "element_zero": {"kind": "set", "n": 3, "d": 2, "tuples": [[[0], [1]]]},
        "element_negative": {"kind": "set", "n": 3, "d": 2, "tuples": [[[1], [-1]]]},
        "element_bare_exponent": '{"kind": "set", "n": 3, "d": 1, "tuples": [[[1e0]]]}',
        "partition_float_element": {
            "kind": "set", "n": 2, "d": 1, "tuples": [[[1]]], "partition": [[1.0], [2]],
        },
        "element_list": {"kind": "set", "n": 2, "d": 1, "tuples": [[[[1]]]]},
        # subsets that hold no element but are not lists
        "subset_object": {"kind": "set", "n": 2, "d": 2, "tuples": [[[1], {}]]},
        "subset_empty_str": {"kind": "set", "n": 2, "d": 2, "tuples": [[[1], ""]]},
        "partition_block_empty_str": {"kind": "set", "n": 2, "d": 2, "tuples": [], "partition": [[1, 2], ""]},
        # a bad element in tuple 0 before a tuple of the wrong arity
        "element_before_arity": {"kind": "set", "n": 3, "d": 2, "tuples": [[[4], [1]], [[1]]]},
        # a valid system with a JSON true under a key the reader skips
        "true_unknown_key": {"kind": "set", "n": 2, "d": 2, "tuples": [[[1], [2]]], "note": True},
    }
    return {
        name: doc if isinstance(doc, (dict, str, bytes)) else system_to_doc(doc)
        for name, doc in docs.items()
    }


def _cases() -> dict[str, tuple[str, ...]]:
    cases = {
        "readme_construct": ("construct", "--family", "complement_chain", "--params", "n=4"),
        "construct_uniform_bollobas": ("construct", "--family", "uniform_bollobas", "--params", "a=2", "b=1"),
        # a + b is the ground dimension n, which must lie in the range too;
        # the library refuses it by that name, a+b
        "construct_uniform_bollobas_above_cap": (
            "construct", "--family", "uniform_bollobas", "--params", "a=1", "b=64",
        ),
        "readme_verify": ("verify", "--kind", "skew", "--in", "@chain"),
        "readme_weight_yue": ("weight", "--functional", "yue_sum", "--in", "@chain"),
        "readme_weight_tuza": (
            "weight", "--functional", "tuza_sum", "--p", "1/2,1/4,1/4", "--in", "@tuples",
        ),
        "readme_embed": ("embed", "--in", "@chain"),
        "readme_saturate_pair": ("saturate", "--flavor", "pair", "--trace", "--in", "@pair"),
        "readme_certify_set": ("certify", "--flavor", "set", "--p", "1/2,1/2", "--in", "@full"),
        "readme_check_cardinality": ("check", "--bound", "cardinality", "--in", "@embedded"),
        "readme_search": ("search", "--objective", "max-m", "--n", "2", "--d", "2", "--condition", "skew"),
        "readme_explore": ("explore", "--n", "2", "--d", "2", "--p", "1/2,1/2", "--field", "gf(2)"),
        "readme_random": (
            "random", "--seed", "7", "--m", "5", "--n", "4", "--d", "2", "--condition", "skew",
        ),
        "weight_tuza_arity_mismatch": (
            "weight", "--functional", "tuza", "--p", "1/2,1/2", "--in", "@tuples",
        ),
        "refuse_tuza_no_p_weight": ("weight", "--functional", "tuza", "--in", "@tuples"),
        "saturate_set": ("saturate", "--flavor", "set", "--trace", "--in", "@empty_set_pair"),
        "saturate_tuple": ("saturate", "--flavor", "tuple", "--trace", "--in", "@empty_subspace_pair"),
        "certify_set_uniform_p": ("certify", "--flavor", "set", "--in", "@full"),
        "certify_pair": ("certify", "--flavor", "pair", "--in", "@pchain_embedded"),
        "certify_tuple": ("certify", "--flavor", "tuple", "--in", "@chain3_embedded"),
        "certify_not_full": ("certify", "--flavor", "set", "--in", "@empty_set_pair"),
        # no --flavor: the system's default flavor, set and pair
        "certify_default_set": ("certify", "--in", "@full"),
        "certify_default_pair": ("certify", "--in", "@pchain_embedded"),
        # the uniform pair certificate, and its refusal of sizes that vary
        "check_uniform_pair_uniform_bollobas": ("check", "--bound", "uniform-pair", "--in", "@uniform_bollobas"),
        "check_uniform_pair_chain": ("check", "--bound", "uniform-pair", "--in", "@chain"),
        "partition_overlap": ("verify", "--kind", "skew", "--in", "@overlap"),
        "partition_noncover": ("verify", "--kind", "skew", "--in", "@noncover"),
        "search_max_weight_yue": (
            "search", "--objective", "max-weight", "--n", "3", "--d", "2",
            "--condition", "skew", "--functional", "yue",
        ),
        "search_max_weight_tuza": (
            "search", "--objective", "max-weight", "--n", "3", "--d", "2",
            "--condition", "weak", "--functional", "tuza", "--p", "1/2,1/2",
        ),
        # max-m searches whose pruned leaves dominate; two end on the node budget
        "search_max_m_skew_n5": (
            "search", "--objective", "max-m", "--n", "5", "--d", "2", "--condition", "skew",
        ),
        "search_max_m_skew_n6_budget": (
            "search", "--objective", "max-m", "--n", "6", "--d", "2", "--condition", "skew",
            "--budget", "20000",
        ),
        "search_max_m_weak_d3_budget": (
            "search", "--objective", "max-m", "--n", "4", "--d", "3", "--condition", "weak",
            "--budget", "30000",
        ),
        # the costliest max-m searches of the benchmark's search workload
        "search_max_m_skew_n4_uniform": (
            "search", "--objective", "max-m", "--n", "4", "--d", "2", "--condition", "skew",
            "--uniform", "2,2",
        ),
        "search_max_m_bollobas_n4": (
            "search", "--objective", "max-m", "--n", "4", "--d", "2", "--condition", "bollobas",
        ),
        "search_max_m_gf2_weak_n3_budget": (
            "search", "--objective", "max-m", "--kind", "subspace", "--field", "gf(2)",
            "--n", "3", "--d", "2", "--condition", "weak", "--budget", "600",
        ),
        "random_subspace_gf3": (
            "random", "--kind", "subspace", "--field", "gf(3)",
            "--seed", "3", "--m", "4", "--n", "3", "--d", "2",
        ),
        "saturate_tuple_gf3_rows": ("saturate", "--flavor", "tuple", "--trace", "--in", "@gf3_rows"),
        "saturate_tuple_qq_rows": ("saturate", "--flavor", "tuple", "--trace", "--in", "@qq_rows"),
        "saturate_pair_qq_fractional_x": (
            "saturate", "--flavor", "pair", "--trace", "--in", "@qq_pair_fractional_x",
        ),
        "saturate_pair_gf3": ("saturate", "--flavor", "pair", "--trace", "--in", "@gf3_pair"),
        "saturate_pair_qq_three_blocks": ("saturate", "--flavor", "pair", "--trace", "--in", "@qq_three_blocks"),
        "certify_pair_qq_three_blocks_final": ("certify", "--flavor", "pair", "--in", "@qq_three_blocks_final"),
        "saturate_tuple_gf5_empty_triple": ("saturate", "--flavor", "tuple", "--trace", "--in", "@gf5_empty_triple"),
        # weight refusals: each licensing rule's failure text
        "weight_partitioned_yue_ptriple": (
            "weight", "--functional", "partitioned_yue", "--in", "@ptriple",
        ),
        "weight_partitioned_yue_incompatible": (
            "weight", "--functional", "partitioned_yue", "--in", "@incompatible",
        ),
        "weight_tuza_weak_not_skew": (
            "weight", "--functional", "tuza", "--p", "1/2,1/2", "--in", "@weak_not_skew",
        ),
        "weight_tuza_weak_not_skew_embedded": (
            "weight", "--functional", "tuza", "--p", "1/2,1/2", "--in", "@weak_not_skew_embedded",
        ),
        "weight_tuza_not_weak": (
            "weight", "--functional", "tuza", "--p", "1/2,1/2", "--in", "@not_weak",
        ),
        "construct_params_no_equals": ("construct", "--family", "complement_chain", "--params", "n"),
        # construct blocks that are not a partition of [1, n]
        "refuse_blocks_overlap": (
            "construct", "--family", "partitioned_complement_chain", "--params", "n=2", "blocks=1|1",
        ),
        "refuse_blocks_zero": (
            "construct", "--family", "partitioned_complement_chain", "--params", "n=2", "blocks=0|1,2",
        ),
        "refuse_budget_search": ("search", "--objective", "max-m", "--n", "2", "--budget", "0"),
        "refuse_budget_explore": (
            "explore", "--n", "2", "--d", "2", "--p", "1/2,1/2", "--field", "gf(2)", "--budget", "0",
        ),
        "refuse_p_pair_saturate": ("saturate", "--flavor", "pair", "--p", "1/2,1/2", "--in", "@pair"),
        "refuse_max_weight_no_functional": ("search", "--objective", "max-weight", "--n", "2", "--d", "2"),
        # GF(2)^5 is above the exhaustive guard
        "refuse_gf_guard_search": (
            "search", "--objective", "max-m", "--kind", "subspace", "--field", "gf(2)",
            "--n", "5", "--d", "2",
        ),
        "refuse_gf_guard_explore": ("explore", "--n", "5", "--d", "2", "--p", "1/2,1/2", "--field", "gf(2)"),
        "refuse_functional_word": ("weight", "--functional", "foo", "--in", "@chain"),
        # block readers on a system with no blocks, and on one with no tuples
        "weight_partitioned_yue_no_partition": (
            "weight", "--functional", "partitioned_yue", "--in", "@chain",
        ),
        "weight_partitioned_bollobas_no_decomposition": (
            "weight", "--functional", "partitioned_bollobas", "--in", "@embedded",
        ),
        "saturate_pair_no_decomposition": ("saturate", "--flavor", "pair", "--in", "@embedded"),
        "saturate_pair_incompatible": ("saturate", "--flavor", "pair", "--in", "@incompatible"),
        "weight_partitioned_yue_empty_two_blocks": (
            "weight", "--functional", "partitioned_yue", "--in", "@empty_two_blocks",
        ),
        "weight_partitioned_bollobas_empty_two_blocks_embedded": (
            "weight", "--functional", "partitioned_bollobas", "--in", "@empty_two_blocks_embedded",
        ),
        "certify_pair_empty_two_blocks_embedded": (
            "certify", "--flavor", "pair", "--in", "@empty_two_blocks_embedded",
        ),
        # the ground of a search or a random system: a subspace run with no
        # field, a rational exhaustive search, and a set run given a field
        # beside a second fault
        "refuse_ground_search_no_field": ("search", "--objective", "max-m", "--n", "2", "--kind", "subspace"),
        "refuse_ground_random_no_field": ("random", "--seed", "0", "--m", "2", "--n", "2", "--kind", "subspace"),
        "refuse_ground_search_rational": (
            "search", "--objective", "max-m", "--kind", "subspace", "--field", "rational", "--n", "2",
        ),
        "refuse_ground_search_field_and_budget": (
            "search", "--objective", "max-m", "--kind", "set", "--field", "gf(2)", "--n", "2",
            "--budget", "0",
        ),
        "refuse_ground_random_field_and_target": (
            "random", "--seed", "0", "--m", "5000", "--n", "2", "--field", "gf(2)",
        ),
        # pair-only readers on a system of arity 3
        "verify_bollobas_tuples": ("verify", "--kind", "bollobas", "--in", "@tuples"),
        "weight_yue_tuples": ("weight", "--functional", "yue", "--in", "@tuples"),
        "weight_scott_wilmer_tuples": ("weight", "--functional", "scott_wilmer", "--in", "@tuples"),
        "check_uniform_pair_tuples": ("check", "--bound", "uniform-pair", "--in", "@tuples"),
        "saturate_pair_triples_embedded": ("saturate", "--flavor", "pair", "--in", "@full_triples_embedded"),
        # the empty system on the empty ground set, embedded and verified
        "embed_n0": ("embed", "--in", "@n0"),
        "verify_n0": ("verify", "--kind", "skew", "--in", "@n0"),
        "verify_n0_embedded": ("verify", "--kind", "skew", "--in", "@n0_embedded"),
        # the weak condition, and the reports that require it, on systems
        # whose tuples share one support
        "verify_weak_tuples": ("verify", "--kind", "weak", "--in", "@tuples"),
        "verify_weak_full_repeat": ("verify", "--kind", "weak", "--in", "@full_repeat"),
        "verify_weak_common_support_overlap": (
            "verify", "--kind", "weak", "--in", "@common_support_overlap",
        ),
        "verify_weak_full_in_larger_ground": ("verify", "--kind", "weak", "--in", "@full_in_larger_ground"),
        "check_cardinality_tuples": ("check", "--bound", "cardinality", "--in", "@tuples"),
        "weight_tuza_tuples": ("weight", "--functional", "tuza", "--p", "1/3,1/3,1/3", "--in", "@tuples"),
        # report shapes: a final system with its partition, a saturation of
        # no steps, and a system of no tuples
        "saturate_set_partitioned": ("saturate", "--flavor", "set", "--in", "@ptriple"),
        "saturate_set_full": ("saturate", "--flavor", "set", "--in", "@full"),
        "random_m0": ("random", "--seed", "0", "--m", "0", "--n", "3"),
        "verify_nested_repeated_key": ("verify", "--kind", "weak", "--in", "@nested_repeated_key"),
    }
    # argv text refused by the package's parsers: a --p that does not parse
    # or sum to 1, a --field that names no prime field
    for label, p in (("sum", "1/2"), ("word", "x"), ("zero", "0,1")):
        cases[f"refuse_p_{label}_weight"] = ("weight", "--functional", "tuza", "--p", p, "--in", "@full")
        cases[f"refuse_p_{label}_saturate"] = ("saturate", "--flavor", "set", "--p", p, "--in", "@full")
        cases[f"refuse_p_{label}_certify"] = ("certify", "--p", p, "--in", "@full")
        cases[f"refuse_p_{label}_search"] = (
            "search", "--objective", "max-weight", "--n", "2", "--condition", "weak",
            "--functional", "tuza", "--p", p,
        )
        cases[f"refuse_p_{label}_explore"] = ("explore", "--n", "2", "--d", "2", "--p", p, "--field", "gf(2)")
    for label, field in (
        ("gf4", "gf(4)"), ("word", "foo"), ("gfx", "gf(x)"), ("huge", "gf(618970019642690137449562111)"),
    ):
        cases[f"refuse_field_{label}_search"] = (
            "search", "--objective", "max-m", "--kind", "subspace", "--n", "2", "--field", field,
        )
        cases[f"refuse_field_{label}_explore"] = (
            "explore", "--n", "2", "--d", "2", "--p", "1/2,1/2", "--field", field,
        )
        cases[f"refuse_field_{label}_random"] = (
            "random", "--kind", "subspace", "--seed", "0", "--m", "2", "--n", "2", "--field", field,
        )
    for doc in (
        "bad_scalar_word", "bad_scalar_zero_den", "bad_scalar_modulus", "bad_scalar_residue",
        "bare_overflow", "bare_nan",
        "bool_element", "bool_block", "float_element", "str_element", "nested",
        "negative_n_subspace", "kind_graph", "tuples_not_list", "subset_not_list",
        "partition_not_list", "partition_block_int", "partition_block_str", "subspace_tuple_arity", "decomposition_not_list", "n_not_int",
        "subspace_not_rows", "zero_d_set", "latin1", "long_int", "nested_unknown_key",
        "negative_n_set_element", "negative_n_subspace_row", "negative_n_decomposition", "n_above_cap",
        "element_past_n_last", "element_zero", "element_negative", "element_bare_exponent",
        "partition_float_element", "element_list", "subset_object", "subset_empty_str",
        "partition_block_empty_str", "element_before_arity", "true_unknown_key",
    ):
        cases[f"verify_{doc}"] = ("verify", "--kind", "skew", "--in", f"@{doc}")
    for doc in ("bare_exact", "bare_inexact", "quoted_inexact"):
        cases[f"saturate_tuple_{doc}"] = ("saturate", "--flavor", "tuple", "--in", f"@{doc}")
    for doc in ("pchain", "pchain_embedded"):
        for args in FUNCTIONAL_ARGS:
            cases[f"weight_{args[0]}_{doc}"] = ("weight", "--functional", *args, "--in", f"@{doc}")
    for doc in (
        "uniform", "uniform_embedded", "pchain", "pchain_embedded",
        "incompatible", "chain", "embedded", "tuples",
        "empty_two_blocks", "empty_two_blocks_embedded",
    ):
        cases[f"check_partitioned_uniform_{doc}"] = (
            "check", "--bound", "partitioned-uniform", "--in", f"@{doc}",
        )
    return cases


CASES = _cases()


def render(name: str, workdir: Path) -> str:
    """The golden text of one case: its command line, exit code and stdout."""
    argv = []
    for arg in CASES[name]:
        if arg.startswith("@"):
            path = workdir / f"{arg[1:]}.json"
            if not path.exists():
                doc = _inputs()[arg[1:]]
                if isinstance(doc, dict):
                    doc = json.dumps(doc)
                path.write_bytes(doc if isinstance(doc, bytes) else doc.encode("utf-8"))
            argv.append(str(path))
        else:
            argv.append(arg)
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(argv)
    shown = " ".join(a[1:] + ".json" if a.startswith("@") else a for a in CASES[name])
    return f"$ bollobas {shown}\nexit {rc}\n{out.getvalue()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path):
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert render(name, tmp_path) == expected


def _deeper(frames: int, name: str, workdir: Path) -> str:
    """``render`` called ``frames`` frames below this one."""
    return render(name, workdir) if frames == 0 else _deeper(frames - 1, name, workdir)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report_at_any_stack_depth(name, tmp_path):
    """The case run twice in this process and once 200 frames deeper gives
    its file each time: no report depends on the caller's stack, or on what
    an earlier run left behind."""
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    runs = [_deeper(frames, name, tmp_path) for frames in (0, 0, 200)]
    assert runs == [expected] * 3


@pytest.mark.parametrize("seed", ["1", "777"])
def test_golden_reports_under_hash_seed(seed, tmp_path):
    """Every case, recorded again in a fresh interpreter under the given
    ``PYTHONHASHSEED``, matches its file byte for byte: no report depends on
    the order of a set or dict of hashed values."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    subprocess.run([sys.executable, __file__, str(tmp_path)], env=env, check=True)
    golden = sorted(GOLDEN.glob("*.out"))
    assert [p.name for p in golden if (tmp_path / p.name).read_bytes() != p.read_bytes()] == []


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CASES)


def test_every_weight_rule_has_golden_reports():
    """``FUNCTIONAL_ARGS`` names each functional of ``RULES`` once, by the
    short form the CLI resolves, so a new rule ships with its reports."""
    names = [_functional_name(args[0]) for args in FUNCTIONAL_ARGS]
    assert names == [f"{args[0]}_sum" for args in FUNCTIONAL_ARGS]
    assert sorted(names) == sorted(RULES)


if __name__ == "__main__":
    import tempfile

    target = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    target.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (target / f"{case}.out").write_text(render(case, Path(tmp)), encoding="utf-8")
