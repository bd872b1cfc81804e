"""Control for the host probe: does what an op allocates or keeps alive move it?

    python3 bench/probe_control.py [rounds]

The benchmark probes the host after every op (``run.host_probe``).  Each
round here runs four kinds of op, each after a quiet loop and between two
probes: a quiet integer loop, a loop that allocates and frees heavily, one
that builds a large cache and keeps it alive through the second probe, and a
real op of the ``set-pipeline`` stream (through ``run.run_pass``, which takes
the same two probes).  The four follow each other within a second, so host
drift falls on all alike.  For each kind it prints the median ratio of the
probe after the op to the probe before it: an op that reached into the probe
would stand apart from the quiet loop.
"""

from __future__ import annotations

import itertools
import os
import shutil
import statistics
import sys
from fractions import Fraction
from time import perf_counter

import run

OP_S = 0.05


def quiet():
    x = 0
    start = perf_counter()
    while perf_counter() - start < OP_S:
        for i in range(1000):
            x = (x * 31 + i) & 0xFFFF


def churn():
    start = perf_counter()
    while perf_counter() - start < OP_S:
        junk = [(Fraction(i, 7), (i, i + 1)) for i in range(10_000)]
        del junk


def cache():
    """About 30 MB of small objects, returned so they stay alive."""
    return [(Fraction(i, 7), (i, i + 1), str(i)) for i in range(150_000)]


def main() -> None:
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 150
    sys.path.insert(0, run.SRC)
    os.makedirs(run.OUT, exist_ok=True)
    _, cli, workdir, streams = run.set_up("set-pipeline", run.DEFAULT_SEED)
    real_ops = itertools.cycle(streams[0])

    def probed(op):
        before = run.host_probe()
        kept = op()
        return before, run.host_probe(), kept

    def real():
        _, probes, _ = run.run_pass(cli, [next(real_ops)])
        return (*probes, None)

    kinds = {
        "quiet": lambda: probed(quiet),
        "churn": lambda: probed(churn),
        "cache": lambda: probed(cache),
        "real": real,
    }
    ratios: dict[str, list[float]] = {name: [] for name in kinds}
    try:
        for _ in range(rounds):
            for name, kind in kinds.items():
                quiet()
                before, after, kept = kind()
                ratios[name].append(after / before)
                del kept
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, values in ratios.items():
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(
            f"{name:6} probe after/before: median {statistics.median(values):.4f}, "
            f"quartiles {q1:.4f}-{q3:.4f}, {rounds} rounds"
        )


if __name__ == "__main__":
    main()
