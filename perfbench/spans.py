"""Outside-in tracing of paulipath for the benchmark's traced runs.

The program is not edited.  `Tracer.install` replaces public callables in
the module namespaces where their callers look them up with wrappers that
record one span per call: name, start, end, parent span and op id.  The
path iterator is wrapped per `next()` call, so the engine's busy time
excludes the estimator's own work between paths.  Spans stay in memory
until the run writes them out; self times are derived from them.

A target the program no longer defines is skipped and reported as not
found; a target that is wrapped but never called reads zero and is
reported as not hit.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# (module, attribute, span name).  The same span name may cover one callable
# as seen from two modules: the estimator and the CLI each bind norm_bound.
TARGETS = (
    ("paulipath.estimator", "estimate", "estimator.estimate"),
    ("paulipath.estimator", "mse_benchmark", "estimator.mse_benchmark"),
    ("paulipath.estimator", "norm_bound", "observables.norm_bound"),
    ("paulipath.estimator", "circuit_generation_certified", "circuit.certify"),
    ("paulipath.estimator", "PathEnumeration", "engine.next"),
    ("paulipath.oracle", "noisy_mean_value", "oracle.noisy_mean_value"),
    ("paulipath.oracle", "evolve_noisy", "oracle.evolve_noisy"),
    ("paulipath.oracle", "hamiltonian_matrix", "oracle.hamiltonian_matrix"),
    ("paulipath.cli", "main", "cli.main"),
    ("paulipath.cli", "estimate", "estimator.estimate"),
    ("paulipath.cli", "norm_bound", "observables.norm_bound"),
    ("paulipath.cli", "circuit_from_dict", "cli.parse"),
    ("paulipath.cli", "hamiltonian_from_dict", "cli.parse"),
)

ENGINE_COUNTERS = (
    "nodes_visited",
    "paths_emitted",
    "pruned_budget",
    "pruned_zero_weight",
    "pruned_zero_overlap",
)


class Tracer:
    """Span recorder for one benchmark run; spans of one op share its id."""

    def __init__(self) -> None:
        # span: [name, start_ns, end_ns, parent index or None, op id]
        self.spans: list[list] = []
        self.counts: list[tuple[int | None, str, int]] = []
        self.not_found: set[str] = set()
        self.op: int | None = None
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def leave(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._open.pop()

    def count(self, name: str, value: int) -> None:
        self.counts.append((self.op, name, value))

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(index)

        return functools.wraps(fn)(traced)

    def wrap_enumeration(self, cls: type) -> type:
        """Subclass of the path iterator that spans every `next()`."""
        tracer = self

        class TracedEnumeration(cls):
            def __iter__(self):
                paths = super().__iter__()
                while True:
                    index = tracer.enter("engine.next")
                    try:
                        path = next(paths, None)
                    finally:
                        tracer.leave(index)
                    if path is None:
                        stats = getattr(self, "stats", None)
                        if stats is not None:
                            for key in ENGINE_COUNTERS:
                                tracer.count("engine." + key, getattr(stats, key, 0))
                        return
                    yield path

        return TracedEnumeration

    def install(self, modules=None) -> None:
        """Wrap every target in the loaded program modules."""
        modules = sys.modules if modules is None else modules
        for module_name, attr, span_name in TARGETS:
            module = modules.get(module_name)
            if module is None:
                continue  # the workload never loaded this module
            original = getattr(module, attr, None)
            if original is None:
                self.not_found.add(f"{module_name}.{attr}")
                continue
            if span_name == "engine.next":
                replacement = self.wrap_enumeration(original)
            else:
                replacement = self.wrap(span_name, original)
            self._patches.append((module, attr, original))
            setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def begin_op(self, op: int) -> int:
        self.op = op
        return self.enter("op")

    def end_op(self, index: int) -> None:
        self.leave(index)
        self.op = None

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )
            for op, name, value in self.counts:
                handle.write(json.dumps({"count": name, "value": value, "op": op}) + "\n")


SPAN_NAMES = tuple(sorted({span for _, _, span in TARGETS}))


def op_layers(tracer: Tracer) -> dict[int, dict[str, float]]:
    """Per op: total and self seconds per span name, call counts, counters."""
    child_ns = [0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        if parent is not None:
            child_ns[parent] += end - start
    ops: dict[int, dict[str, float]] = {}
    for index, (name, start, end, _, op) in enumerate(tracer.spans):
        if op is None:
            continue
        row = ops.setdefault(op, {})
        row[name + ":s"] = row.get(name + ":s", 0.0) + (end - start) * 1e-9
        row[name + ":self_s"] = (
            row.get(name + ":self_s", 0.0) + (end - start - child_ns[index]) * 1e-9
        )
        row[name + ":calls"] = row.get(name + ":calls", 0) + 1
    for op, name, value in tracer.counts:
        if op is not None and op in ops:
            ops[op][name] = ops[op].get(name, 0) + value
    return ops


def layer_metrics(row: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one traced op."""
    op_s = row["op:s"]
    nodes = row.get("engine.nodes_visited", 0)
    paths = row.get("engine.paths_emitted", 0)
    metrics = {
        "engine.busy_s": row.get("engine.next:s", 0.0),
        "engine.useful_ratio": paths / nodes if nodes else 0.0,
        "observables.norm_bound_s": row.get("observables.norm_bound:s", 0.0),
        "observables.norm_bound_calls": row.get("observables.norm_bound:calls", 0),
        "oracle.busy_s": row.get("oracle.noisy_mean_value:s", 0.0),
        "oracle.calls": row.get("oracle.noisy_mean_value:calls", 0),
        "oracle.evolve_s": row.get("oracle.evolve_noisy:s", 0.0),
        "oracle.hamiltonian_matrix_s": row.get("oracle.hamiltonian_matrix:s", 0.0),
        "estimator.self_s": row.get("estimator.estimate:self_s", 0.0)
        + row.get("estimator.mse_benchmark:self_s", 0.0),
        "circuit.certify_s": row.get("circuit.certify:s", 0.0),
        "cli.parse_s": row.get("cli.parse:s", 0.0),
        "cli.self_s": row.get("cli.main:self_s", 0.0),
        "trace.op_s": op_s,
    }
    for key in ENGINE_COUNTERS:
        metrics["engine." + key] = row.get("engine." + key, 0)
    metrics["engine.busy_frac"] = metrics["engine.busy_s"] / op_s
    metrics["observables.norm_bound_frac"] = metrics["observables.norm_bound_s"] / op_s
    metrics["oracle.busy_frac"] = metrics["oracle.busy_s"] / op_s
    return metrics


def summarize(tracer: Tracer, traced_s: list[float], untraced_s: list[float]):
    """Median per-layer metrics over traced ops, plus names never hit."""
    rows = [layer_metrics(row) for _, row in sorted(op_layers(tracer).items())]
    metrics = {}
    for key in rows[0]:
        values = [r[key] for r in rows]
        # counters repeat exactly from op to op and stay integers
        metrics[key] = (
            statistics.median_low(values)
            if all(isinstance(v, int) for v in values)
            else statistics.median(values)
        )
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    )
    hit = {name for name, *_ in tracer.spans}
    not_hit = [name for name in SPAN_NAMES if name not in hit]
    return metrics, not_hit
