"""The benchmark's definition: its command, workloads and metrics.

``python3 bench/spec.py`` writes it to ``BENCHMARK.json`` at the repository
root; ``run.py`` takes metric names and units from here, so the two agree.
"""

from __future__ import annotations

import json
import os

from tracer import MODULES

WORKLOAD_REASONS = {
    "set-pipeline": (
        "saturate+certify/verify/weight/check on sparse weak set systems: saturation, omega, "
        "with_tuples, bulk verify; no rref, no DFS. Scaled-down ROADMAP rows saturate n=7 d=3, "
        "verify chain(10)"
    ),
    "subspace-pipeline": (
        "pair/tuple saturation and embedded chains over QQ: rref over Fraction dominates. "
        "Stands in for ROADMAP rows verify embed(chain(6)) and partitioned_yue, scaled down"
    ),
    "search": (
        "DFS max-m/max-weight/counterexample, explore, random over sets and GF(p). ROADMAP search "
        "rows; GF(2) n=3 skew budget-capped, not 24 min. Item-5 hostile inputs hang: left out"
    ),
}

# name -> (unit, better, bound as a share of the parent's median)
END_TO_END_SPEC = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "op_p90_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# name -> (unit, better)
PER_LAYER_SPEC = {
    "saturation_engine.steps": ("count", "lower"),
    "saturation_engine.steps_per_s": ("1/s", "higher"),
    "saturation_engine.omega_tuples_per_step": ("count", "lower"),
    "weight_functionals.omega_calls": ("count", "lower"),
    "weight_functionals.omega_tuples": ("count", "lower"),
    "weight_functionals.phi_calls": ("count", "lower"),
    "systems_model.with_tuples_calls": ("count", "lower"),
    "systems_model.tuples_rebuilt": ("count", "lower"),
    "subspace_algebra.rref_calls": ("count", "lower"),
    "subspace_algebra.rref_cells": ("count", "lower"),
    "subspace_algebra.intersection_calls": ("count", "lower"),
    "subspace_algebra.rref_self_s": ("s", "lower"),
    "verifiers.verify_calls": ("count", "lower"),
    "verifiers.pairs_checked": ("count", "lower"),
    "verifiers.clause_calls": ("count", "lower"),
    "extremal_search.nodes": ("count", "lower"),
    "extremal_search.nodes_per_s": ("1/s", "higher"),
    "extremal_search.candidates": ("count", "lower"),
    "extremal_search.clause_calls_per_node": ("count", "lower"),
    "constructions.construct_calls": ("count", "lower"),
    "cli_io.parse_calls": ("count", "lower"),
    "cli_io.bytes_in": ("bytes", "lower"),
    "cli_io.parse_s": ("s", "lower"),
    **{f"{m}.self_s": ("s", "lower") for m in MODULES},
    **{f"{m}.raised": ("count", "lower") for m in MODULES},
    "trace.overhead": ("ratio", "lower"),
}

END_TO_END = {name: unit for name, (unit, _, _) in END_TO_END_SPEC.items()}
PER_LAYER = {name: unit for name, (unit, _) in PER_LAYER_SPEC.items()}

BENCHMARK = {
    "command": ["python3", "bench/run.py"],
    "paths": ["bench"],
    "run_seconds": 30,
    "workloads": [{"name": name, "why": why} for name, why in WORKLOAD_REASONS.items()],
    "end_to_end": [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, (unit, better, bound) in END_TO_END_SPEC.items()
    ],
    "per_layer": [
        {"name": name, "unit": unit, "better": better}
        for name, (unit, better) in PER_LAYER_SPEC.items()
    ],
}


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump(BENCHMARK, fh, indent=2)
        fh.write("\n")
