"""Tests of the benchmark itself: count pins, the traced layers, the checks.

    PYTHONPATH=src python3 -m pytest -q bench

The counts are those of the implementation the benchmark was written
against and must repeat exactly; a change that moves one changes the work
the program does.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import pytest

import run
from spec import BENCHMARK, PER_LAYER
from tracer import Tracer, pairs_checked
from workloads import WORKLOADS, Op, build_stream

sys.path.insert(0, run.SRC)
os.makedirs(run.OUT, exist_ok=True)


def call(argv: list[str], tmp_path=None, doc=None) -> dict:
    """Run one CLI op through the same path the benchmark uses."""
    from bollobas import cli_io

    if doc is not None:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        argv = [*argv, "--in", str(path)]
    op = Op(tuple(argv), 0, lambda _: None)
    _, _, [(rc, text)] = run.run_pass(cli_io, [op])
    assert rc == 0, text
    return json.loads(text)


@pytest.mark.parametrize(
    "args, best, nodes",
    [
        ("--n 3 --d 2 --condition skew", "8", 172),
        ("--n 4 --d 2 --condition skew", "16", 1720),
        ("--n 5 --d 2 --condition skew", "32", 19380),
        ("--n 3 --d 3 --condition weak", "27", 2212),
    ],
)
def test_search_node_counts(args, best, nodes):
    report = call(["search", "--objective", "max-m", *args.split()])
    assert (report["best_value"], report["nodes"], report["exhaustive"]) == (best, nodes, True)


def test_set_saturation_of_one_empty_3_tuple_at_n6(tmp_path):
    doc = {"kind": "set", "n": 6, "d": 3, "tuples": [[[], [], []]]}
    report = call(["saturate", "--flavor", "set"], tmp_path, doc)
    assert report["steps"] == 364
    assert len(report["final_system"]["tuples"]) == 729


def test_pair_saturation_from_the_empty_pair_over_qq5(tmp_path):
    import random

    from workloads import random_decomposition

    blocks = random_decomposition(random.Random(5), 5, 2)
    doc = {
        "kind": "subspace",
        "n": 5,
        "d": 2,
        "field": "rational",
        "tuples": [[[], []]],
        "decomposition": [[[str(x) for x in row] for row in b] for b in blocks],
    }
    report = call(["saturate", "--flavor", "pair"], tmp_path, doc)
    assert report["steps"] == 31
    assert len(report["final_system"]["tuples"]) == 32


def traced_layers(workload: str, seed: int = 3) -> dict:
    _, cli, workdir, streams = run.set_up(workload, seed)
    stream = streams[0]
    tracer = Tracer()
    try:
        tracer.install()
        try:
            _, _, outputs = run.run_pass(cli, stream, tracer)
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert run.Checker(stream, None).check(outputs) == 0
    return tracer.layer_metrics()


def test_traced_set_pipeline_makes_no_rref_and_no_dfs():
    layers = traced_layers("set-pipeline")
    assert set(layers) == set(PER_LAYER) - {"trace.overhead"}
    assert layers["subspace_algebra.rref_calls"] == 0
    assert layers["extremal_search.nodes"] == 0
    # the slot shapes fix the step count whatever the seed
    assert layers["saturation_engine.steps"] == 985
    assert layers["verifiers.verify_calls"] > 0


def test_traced_subspace_pipeline_makes_no_dfs():
    layers = traced_layers("subspace-pipeline")
    assert layers["extremal_search.nodes"] == 0
    assert layers["subspace_algebra.rref_calls"] > 0
    # the two partitioned-uniform refusals leave verifiers as exceptions
    assert layers["verifiers.raised"] == 2


def test_tracer_restores_the_package():
    from bollobas import subspace_algebra, verifiers

    before = (verifiers.dim_of_sum, subspace_algebra.rref)
    tracer = Tracer()
    tracer.install()
    assert verifiers.dim_of_sum is not before[0]
    assert verifiers.dim_of_sum.__wrapped__ is before[0]
    tracer.uninstall()
    assert (verifiers.dim_of_sum, subspace_algebra.rref) == before


def test_pairs_checked_follows_the_verify_loop():
    def walk(m, flavor, witness):
        visited = 0
        for i in range(m):
            for j in range(m):
                if i == j or flavor == "bollobas" or j > i:
                    visited += 1
                    if witness == (i + 1, j + 1):
                        return visited
        return visited

    for m in range(1, 6):
        for flavor in ("bollobas", "skew", "weak"):
            assert pairs_checked(m, flavor, None) == walk(m, flavor, None)
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    if i == j or flavor == "bollobas" or j > i:
                        assert pairs_checked(m, flavor, (i, j, "x")) == walk(m, flavor, (i, j))


def test_checker_counts_wrong_status_wrong_body_and_changed_bytes():
    stream = [
        Op(("a",), 0, lambda doc: None if doc["ok"] else "not ok"),
        Op(("b",), 1, lambda doc: None),
    ]
    checker = run.Checker(stream, None)
    assert checker.check([(0, '{"ok": true}'), (1, "{}")]) == 0
    assert checker.check([(0, '{"ok": true}'), (1, "{}")]) == 0
    assert checker.check([(0, '{"ok": true} '), (0, "{}")]) == 2
    assert run.Checker(stream, None).check([(0, '{"ok": false}'), (1, "[")]) == 2
    golden = run.Checker(stream, ["0" * 64, "0" * 64])
    assert golden.check([(0, '{"ok": true}'), (1, "{}")]) == 2
    # output repeating a failed first pass fails again
    assert golden.check([(0, '{"ok": true}'), (1, "{}")]) == 2
    repeated = run.Checker(stream, None)
    bad = [(0, '{"ok": false}'), (1, "{}")]
    assert repeated.check(bad) + repeated.check(bad) == 2
    assert len(repeated.failures) == 1


def test_streams_are_a_function_of_the_seed_and_draw(tmp_path):
    def draw(workload, variant):
        argv = [op.argv for op in build_stream(workload, 7, variant, str(tmp_path))]
        return argv, sorted((p.name, p.read_text()) for p in tmp_path.iterdir())

    for workload in WORKLOADS:
        assert draw(workload, 1) == draw(workload, 1)
        assert draw(workload, 1) != draw(workload, 2)


def test_benchmark_json_matches_spec():
    path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == BENCHMARK
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
