"""Per-module tracing of the ``bollobas`` package from outside the package.

``Tracer.install`` replaces every public module-level function of each
``bollobas`` module with a timing wrapper, wherever a ``bollobas`` module binds
that function (``dim_of_sum`` is bound in ``subspace_algebra``, ``verifiers``,
``saturation_engine`` and more; each binding is wrapped, so every call is seen
once).  Classes and their methods are not wrapped: their time counts as self
time of the wrapped function that called them.

Each call is a span: name, start, end, parent span and op id.  Self time is
computed as the calls happen, as the span's duration minus the durations of
its child spans, so it is exact for every call.  Spans are kept in memory up
to ``MAX_SPANS`` (search passes make about a million calls to the clause
helpers) and written out by ``write_spans``; calls beyond the cap still count
in every aggregate.

Everything runs in one thread, so no span waits on another: the time waited
is 0 for every layer.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

MODULES = (
    "exact_arith",
    "subspace_algebra",
    "systems_model",
    "verifiers",
    "weight_functionals",
    "saturation_engine",
    "extremal_search",
    "constructions",
    "cli_io",
)
# clause helpers whose calls from extremal_search make verifiers.clause_calls
CLAUSES = ("component_clause_ok", "cross_nontrivial", "skew_clause_ok", "weak_clause_ok")
MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # "module.function", indexed by name id
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.op = -1
        # one frame per active call: [span id, name id, time covered by children]
        self._stack: list[list] = []
        self._bindings: list[tuple] = []
        self._search_ids: set[int] = set()  # name ids of extremal_search functions
        self.reset_counts()

    def reset_counts(self) -> None:
        """Zero the aggregates (not the stored spans)."""
        n = len(self.names)
        self.calls = [0] * n
        self.total_s = [0.0] * n
        self.self_s = [0.0] * n
        self.raised = [0] * n
        self.clause_calls = 0
        self.counts: Counter = Counter()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Bind the wrappers in place of the originals (built on first use)."""
        if not self._bindings:
            self._bindings = self._bind_wrappers()
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        self.reset_counts()

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def _bind_wrappers(self) -> list[tuple]:
        """(module, name, original, wrapper) for every binding of a public
        function of a ``bollobas`` module, in any ``bollobas`` module."""
        modules = {name: importlib.import_module(f"bollobas.{name}") for name in MODULES}
        wrappers: dict[int, tuple] = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        return [
            (module, attr, *wrappers[id(obj)])
            for module in (sys.modules["bollobas"], *modules.values())
            for attr, obj in vars(module).items()
            if id(obj) in wrappers
        ]

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        module = name.split(".")[0]
        hook = _HOOKS.get(name)
        counts_clause = module == "verifiers" and name.split(".")[1] in CLAUSES
        search_ids = self._search_ids
        if module == "extremal_search":
            search_ids.add(idx)

        if inspect.isgeneratorfunction(fn):
            # a generator runs inside its consumer's span; count what it yields
            def gen_wrapper(*args, **kwargs):
                self.calls[idx] += 1
                for item in fn(*args, **kwargs):
                    self.counts[f"{name}.items"] += 1
                    yield item

            return gen_wrapper

        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if counts_clause and parent is not None and parent[1] in search_ids:
                self.clause_calls += 1
            if len(self.span_start) < MAX_SPANS:
                sid = len(self.span_start)
                self.span_name.append(idx)
                self.span_parent.append(parent[0] if parent else -1)
                self.span_op.append(self.op)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            else:
                sid = -1
                self.dropped += 1
            if hook is not None:
                args = hook.before(args)
            frame = [sid, idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.calls[idx] += 1
                self.total_s[idx] += duration
                self.self_s[idx] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if sid >= 0:
                    self.span_start[sid] = start
                    self.span_end[sid] = end
            if hook is not None:
                hook.after(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def active(self, name: str) -> bool:
        """Whether a call of ``name`` is on the stack."""
        idx = self.names.index(name)
        return any(frame[1] == idx for frame in self._stack)

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the aggregates since the last reset."""
        by_name = {name: i for i, name in enumerate(self.names)}

        def calls(name):
            return self.calls[by_name[name]]

        def total(name):
            return self.total_s[by_name[name]]

        def module_sum(values, module):
            return sum(v for name, v in zip(self.names, values) if name.startswith(module + "."))

        c = self.counts
        steps = c["saturate.steps"]
        nodes = c["search_max.nodes"]
        out: dict[str, float] = {
            "saturation_engine.steps": steps,
            "saturation_engine.steps_per_s": steps / total("saturation_engine.saturate") if steps else 0.0,
            "saturation_engine.omega_tuples_per_step": c["saturate.omega_tuples"] / steps if steps else 0.0,
            "weight_functionals.omega_calls": calls("weight_functionals.omega"),
            "weight_functionals.omega_tuples": c["omega.tuples"],
            "weight_functionals.phi_calls": calls("weight_functionals.phi"),
            "systems_model.with_tuples_calls": calls("systems_model.with_tuples"),
            "systems_model.tuples_rebuilt": c["with_tuples.tuples"],
            "subspace_algebra.rref_calls": calls("subspace_algebra.rref"),
            "subspace_algebra.rref_cells": c["rref.cells"],
            "subspace_algebra.intersection_calls": calls("subspace_algebra.intersection"),
            "subspace_algebra.rref_self_s": self.self_s[by_name["subspace_algebra.rref"]],
            "verifiers.verify_calls": calls("verifiers.verify"),
            "verifiers.pairs_checked": c["verify.pairs"],
            "verifiers.clause_calls": self.clause_calls,
            "extremal_search.nodes": nodes,
            "extremal_search.nodes_per_s": nodes / total("extremal_search.search_max") if nodes else 0.0,
            "extremal_search.candidates": c["extremal_search.enumerate_candidates.items"],
            "extremal_search.clause_calls_per_node": self.clause_calls / nodes if nodes else 0.0,
            "constructions.construct_calls": calls("constructions.construct"),
            "cli_io.parse_calls": calls("cli_io.parse"),
            "cli_io.bytes_in": c["parse.bytes"],
            "cli_io.parse_s": total("cli_io.parse"),
        }
        for module in MODULES:
            out[f"{module}.self_s"] = module_sum(self.self_s, module)
            out[f"{module}.raised"] = module_sum(self.raised, module)
        return out

    def write_spans(self, path: str) -> int:
        """Write the stored spans as gzipped TSV; returns the number written."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            base = self.span_start[0] if self.span_start else 0.0
            for sid in range(len(self.span_start)):
                fh.write(
                    f"{sid}\t{self.names[self.span_name[sid]]}\t"
                    f"{self.span_start[sid] - base:.9f}\t{self.span_end[sid] - base:.9f}\t"
                    f"{self.span_parent[sid]}\t{self.span_op[sid]}\n"
                )
        return len(self.span_start)


# ---------------------------------------------------------------------------
# counts taken from a call's arguments and result


class _Hook:
    def before(self, args):
        return args

    def after(self, tracer: Tracer, args, result) -> None:
        pass


class _Rref(_Hook):
    def before(self, args):
        rows = args[0]
        if not isinstance(rows, (list, tuple)):
            # rref consumes an iterable once; materialize it to count its rows
            rows = list(rows)
            args = (rows, *args[1:])
        return args

    def after(self, tracer, args, result):
        tracer.counts["rref.cells"] += len(args[0]) * args[1]


class _Omega(_Hook):
    def after(self, tracer, args, result):
        m = args[0].m
        tracer.counts["omega.tuples"] += m
        if tracer.active("saturation_engine.saturate"):
            tracer.counts["saturate.omega_tuples"] += m


class _WithTuples(_Hook):
    def after(self, tracer, args, result):
        tracer.counts["with_tuples.tuples"] += result.m


class _Verify(_Hook):
    def after(self, tracer, args, result):
        tracer.counts["verify.pairs"] += pairs_checked(
            args[0].m, result.condition.flavor, result.first_violation
        )


class _Saturate(_Hook):
    def after(self, tracer, args, result):
        tracer.counts["saturate.steps"] += len(result.steps)


class _SearchMax(_Hook):
    def after(self, tracer, args, result):
        tracer.counts["search_max.nodes"] += result.nodes


class _Parse(_Hook):
    def after(self, tracer, args, result):
        tracer.counts["parse.bytes"] += len(args[0].encode("utf-8"))


_HOOKS = {
    "subspace_algebra.rref": _Rref(),
    "weight_functionals.omega": _Omega(),
    "systems_model.with_tuples": _WithTuples(),
    "verifiers.verify": _Verify(),
    "saturation_engine.saturate": _Saturate(),
    "extremal_search.search_max": _SearchMax(),
    "cli_io.parse": _Parse(),
}


def pairs_checked(m: int, flavor: str, witness) -> int:
    """(i, j) cells that ``verify`` visits and checks, in its loop order.

    The loop checks clause (i) at i == j, clause (ii) at every i != j for the
    bollobas condition and at j > i otherwise, and stops at the first
    violation.
    """
    if witness is None:
        return m * m if flavor == "bollobas" else m * (m + 1) // 2
    i, j = witness[0] - 1, witness[1] - 1
    if flavor == "bollobas":
        return i * m + j + 1
    return i * m - i * (i - 1) // 2 + (j - i + 1)
