"""Benchmark of the ``bollobas`` CLI: seeded workloads run as a closed loop.

    python3 bench/run.py --workload set-pipeline --seed 0 --seconds 30 --trace 0

One client thread calls ``bollobas.cli_io.main([...])`` in this process, each
call after the previous one returns.  The seed gives ``VARIANTS`` draws of
inputs (see ``workloads.py``); a pass runs the op stream of one draw, and
passes cycle through the draws until the next one would end after
``--seconds``.  Every op's exit status and JSON body are checked; a draw run
again must reproduce its first pass byte for byte, and with the default seed
the first draw must match the SHA-256 digests in ``golden.json``.

Times are host-adjusted.  A shared 2-core x86-64 host was measured changing
speed by up to half between 30-second windows, which alone spread medians of
raw times by 20-30 % from run to run.  So a host probe (a short fixed stdlib
workload, see ``host_probe``) runs before the first op of a pass and after
each op, outside the timed calls, and each time of the pass is scaled by the
reference probe time over the mean probe of the pass: a time reads as it
would on the reference host.  The probe runs no package code, with the
collector off and after a warm-up, so that what the package allocates or
keeps alive does not reach it (``probe_control.py`` checks this with ops that
allocate heavily or keep a large cache alive).  Probes at pass boundaries
alone do not track the host: its speed changes within a second.  The raw
times and the probe time (the host record, with ``nproc`` and the CPython
version) are printed too.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` follows each
untraced pass with a traced pass of the same draw and prints the per-layer
metrics of the traced passes (see ``tracer.py``) and the tracing overhead.
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The package is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import traceback
from contextlib import redirect_stdout
from fractions import Fraction
from time import perf_counter

from spec import BENCHMARK, END_TO_END, PER_LAYER
from tracer import Tracer
from workloads import WORKLOADS, Op, build_stream

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "_out")
GOLDEN = os.path.join(HERE, "golden.json")
DEFAULT_SEED = 0
# Passes cycle through this many input draws from the seed, so a run averages
# over several draws and the run-to-run spread owes little to any one draw.
VARIANTS = 4
SETUP_REPEATS = 5
HARD_LIMIT_S = 170  # the run must end within 180 s whatever the program does
PROBE_SLICES = 3
# Median host probe on the reference host (2-core x86-64, CPython 3.11.7).
REFERENCE_PROBE_S = 0.00046


def calibration_slice() -> float:
    """Time of a short fixed stdlib workload (Fraction arithmetic, small
    tuples)."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i, i + 1) * Fraction(3, 2 * i + 1)
    [tuple(range(j % 7)) for j in range(300)]
    return perf_counter() - start


def host_probe() -> float:
    """The host's current speed: the median of ``PROBE_SLICES`` calibration
    slices after a discarded warm-up slice, with the collector off, so that
    neither a collection of the package's garbage nor the caches an op left
    cold fall into it."""
    gc.disable()
    try:
        calibration_slice()
        return statistics.median(calibration_slice() for _ in range(PROBE_SLICES))
    finally:
        gc.enable()


def host_scale(probes: list[float]) -> float:
    """Factor that rescales a time measured among ``probes`` to the reference
    host: a host running the probe slower ran the program slower."""
    return REFERENCE_PROBE_S / statistics.fmean(probes)


def set_up(workload: str, seed: int):
    """Import ``bollobas`` afresh, write the seeded inputs and build the op
    stream of each input draw."""
    start = perf_counter()
    for name in [m for m in sys.modules if m == "bollobas" or m.startswith("bollobas.")]:
        del sys.modules[name]
    cli = importlib.import_module("bollobas.cli_io")
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT)
    streams = []
    for variant in range(VARIANTS):
        vdir = os.path.join(workdir, str(variant))
        os.mkdir(vdir)
        streams.append(build_stream(workload, seed, variant, vdir))
    return perf_counter() - start, cli, workdir, streams


def run_pass(cli, stream: list[Op], tracer=None) -> tuple[list[float], list[float], list[tuple]]:
    """One pass: each op's latency (s) as measured, the host probes before
    the first op and after each op, and each op's (exit status, stdout)."""
    latencies: list[float] = []
    outputs: list[tuple] = []
    probes = [host_probe()]
    for k, op in enumerate(stream):
        if tracer is not None:
            tracer.op = k
        buf = io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(buf):
                rc = cli.main(list(op.argv))
        except Exception:  # a traceback is a failed op, not a failed run
            traceback.print_exc(file=sys.stderr)
            rc = None
        latencies.append(perf_counter() - start)
        probes.append(host_probe())
        text = buf.getvalue()
        outputs.append((rc, text))
        if op.save_to and rc == op.expect_rc:
            try:
                doc = json.loads(text)
                body = doc if op.save_key is None else doc[op.save_key]
            except (ValueError, KeyError):
                continue  # the check of this op reports it
            with open(op.save_to, "w", encoding="utf-8") as fh:
                json.dump(body, fh)
    return latencies, probes, outputs


class Checker:
    """Checks each op of a pass; the first pass fixes the expected bytes."""

    def __init__(self, stream: list[Op], golden: list[str] | None):
        self.stream = stream
        self.golden = golden
        # per op: ((exit status, SHA-256 of stdout), problem or None) of the first pass
        self.reference: list[tuple] | None = None
        self.failures: list[str] = []

    def check(self, outputs: list[tuple]) -> int:
        """The number of failed ops in ``outputs``; an output identical to
        the first pass's keeps that pass's verdict."""
        verdicts = []
        for k, (op, (rc, text)) in enumerate(zip(self.stream, outputs)):
            digest = (rc, hashlib.sha256(text.encode()).hexdigest())
            if self.reference is not None and digest == self.reference[k][0]:
                verdicts.append(self.reference[k])
                continue
            problem = self._check_op(op, rc, text)
            if problem is None and self.reference is not None:
                problem = "output differs from the first pass"
            if problem is None and self.golden is not None and digest[1] != self.golden[k]:
                problem = "output differs from golden.json"
            if problem is not None and len(self.failures) < 20:
                self.failures.append(f"op {k} `{' '.join(op.argv)}`: {problem}")
            verdicts.append((digest, problem))
        if self.reference is None:
            self.reference = verdicts
        return sum(problem is not None for _, problem in verdicts)

    @staticmethod
    def _check_op(op: Op, rc, text: str) -> str | None:
        if rc != op.expect_rc:
            return f"exit status {rc}, want {op.expect_rc}"
        try:
            doc = json.loads(text)
        except ValueError:
            return "stdout is not one JSON document"
        try:
            return op.check(doc)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            return f"malformed report ({type(exc).__name__}: {exc})"


def checkers_for(workload: str, seed: int, streams: list[list[Op]]) -> list[Checker]:
    """One checker per input draw; with the default seed the first draw's
    checker also holds its digests from ``golden.json``."""
    golden = None
    if seed == DEFAULT_SEED:
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)[workload]
        if len(golden) != len(streams[0]):
            raise SystemExit(f"golden.json does not match the {workload} stream; rerun --write-golden")
    return [Checker(stream, golden if k == 0 else None) for k, stream in enumerate(streams)]


def write_golden(workloads) -> None:
    """Record the SHA-256 of every op's stdout for the first input draw of
    the default seed."""
    digests = {}
    for workload in workloads:
        _, cli, workdir, streams = set_up(workload, DEFAULT_SEED)
        try:
            _, _, outputs = run_pass(cli, streams[0])
            checker = Checker(streams[0], None)
            if checker.check(outputs):
                raise SystemExit("\n".join(checker.failures))
            digests[workload] = [h for (_, h), _ in checker.reference]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")


def timed_passes(cli, streams, checkers, seconds: float, tracer=None):
    """Untraced passes (and, with a tracer, a traced pass of the same draw
    after each) until the next round would end after ``seconds``; at least
    one round.  Round k runs draw k mod ``len(streams)``; a traced run keeps
    to the first draw, so its counts repeat exactly for a seed.

    Returns the measured and the host-adjusted op latencies of each untraced
    pass, the traced-to-untraced time ratio of each round, the traced passes'
    layer metrics and the number of failed ops."""
    measured: list[list[float]] = []
    adjusted: list[list[float]] = []
    overheads: list[float] = []
    layers: list[dict] = []
    failed = 0
    begin = perf_counter()
    while True:
        round_start = perf_counter()
        k = 0 if tracer else len(measured) % len(streams)
        latencies, probes, outputs = run_pass(cli, streams[k])
        measured.append(latencies)
        adjusted.append([x * host_scale(probes) for x in latencies])
        failed += checkers[k].check(outputs)
        if tracer is not None:
            tracer.install()
            try:
                traced, probes, outputs = run_pass(cli, streams[k], tracer)
            finally:
                tracer.uninstall()
            overheads.append(sum(traced) * host_scale(probes) / sum(adjusted[-1]))
            layers.append(tracer.layer_metrics())
            failed += checkers[k].check(outputs)
        now = perf_counter()
        if now - begin + (now - round_start) > seconds:
            return measured, adjusted, overheads, layers, failed


def percentile_90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-golden",
        action="store_true",
        help="record the default seed's output digests of every workload in golden.json",
    )
    args = parser.parse_args(argv)
    signal.alarm(HARD_LIMIT_S)

    if not os.path.isdir(os.path.join(SRC, "bollobas")):
        print(f"bollobas sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    if args.write_golden:
        write_golden(WORKLOADS)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    setups: list[tuple[float, float]] = []  # (measured, host-adjusted)
    workdir = None
    try:
        for _ in range(SETUP_REPEATS):
            if workdir is not None:
                shutil.rmtree(workdir, ignore_errors=True)
            before = host_probe()
            elapsed, cli, workdir, streams = set_up(args.workload, args.seed)
            setups.append((elapsed, elapsed * host_scale([before, host_probe()])))
        checkers = checkers_for(args.workload, args.seed, streams)
        tracer = Tracer() if args.trace else None
        measured, adjusted, overheads, layers, failed = timed_passes(
            cli, streams, checkers, args.seconds, tracer
        )
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    raw_ops = [x for latencies in measured for x in latencies]
    ops = [x for latencies in adjusted for x in latencies]
    attempted = len(ops) * (2 if tracer else 1)
    print(
        f"host: nproc={os.cpu_count()} python={platform.python_version()} "
        f"host_probe_s={REFERENCE_PROBE_S * sum(raw_ops) / sum(ops):.6f} "
        f"(reference host {REFERENCE_PROBE_S}; a record, not a metric)"
    )
    print(
        f"workload {args.workload} seed {args.seed}: {len(streams)} input draws of "
        f"{'/'.join(str(len(s)) for s in streams)} ops, one per pass; closed loop, "
        f"1 client; {len(measured)} untraced passes" + (" and as many traced" if tracer else "")
    )
    error_rate = failed / attempted
    print(f"  error_rate {error_rate:.6f} ratio ({failed} of {attempted} ops failed)")
    for checker in checkers:
        for line in checker.failures:
            print(f"  FAILED {line}")

    if args.trace:
        metrics = {
            name: statistics.median(layer[name] for layer in layers)
            for name in PER_LAYER
            if name != "trace.overhead"
        }
        metrics["trace.overhead"] = statistics.median(overheads)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        written = tracer.write_spans(spans_path)
        print(
            "  per-layer metrics are medians over the traced passes of the first draw; "
            "trace.overhead is a traced pass's time over the untraced pass's before it"
        )
        print(
            f"  {written} spans written to {os.path.relpath(spans_path)}, "
            f"{tracer.dropped} more counted but not stored"
        )
        print("  time waited: 0 s in every layer (one thread, no queue between layers)")
        units = PER_LAYER
    else:
        p90 = percentile_90(ops)
        metrics = {
            "setup_s": statistics.median(a for _, a in setups),
            "wall_s": statistics.median(sum(p) for p in adjusted),
            "op_p50_ms": statistics.median(ops) * 1e3,
            "op_p90_ms": p90 * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(
            f"  latency sample: {len(ops)} ops, {sum(x > p90 for x in ops)} "
            f"beyond p90; setup_s is the median of {SETUP_REPEATS} set-ups, wall_s the "
            "median pass; times are host-adjusted (see run.py)"
        )
        print(
            "  as measured: "
            f"setup_s {statistics.median(m for m, _ in setups):.6f}, "
            f"wall_s {statistics.median(sum(p) for p in measured):.6f}, "
            f"op_p50_ms {statistics.median(raw_ops) * 1e3:.6f}, "
            f"op_p90_ms {percentile_90(raw_ops) * 1e3:.6f}"
        )
        units = END_TO_END
    for name, value in metrics.items():
        print(f"  {name:<45} {value:>14.6f} {units[name]}")

    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
