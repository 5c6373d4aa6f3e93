"""Span tracer for the benchmark's traced runs, installed from outside qrelay.

``from .x import f`` binds ``f`` separately in every importing module, so each
wrapper replaces the name in every qrelay namespace that holds the original
function. Spans are kept in memory: (id, parent id, operation, name, start,
duration, self time), where self time is the duration minus the durations of
the span's direct children. Times are process CPU time, like the end-to-end
timings. Spans sit in a flat array of doubles, which the garbage collector
never scans, and are written out when the run ends. The wrapper does no
bookkeeping beyond recording its span; per-operation sums are made from the
spans after the run.

Per-layer metrics are computed per timed operation and reported as the median
over the run's operations. Optimizer metrics are split by objective and taken
over the operations that ran that objective only.
"""

from __future__ import annotations

import importlib
import itertools
import os
import statistics
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import oracles

TRACED = {
    "optimizer": ("optimize_fidelity", "optimize_error"),
    "simulator": ("simulate_fidelity", "simulate_error", "counter_uniforms"),
    "measurements": ("validate_pom", "square_root_measurement", "error_probability",
                     "greedy_assignment"),
    "fidelity": ("optimal_retransmission", "fidelity_of_strategy", "optimal_strategy_analytic"),
    "qubit": ("hermitian_eig2",),
    "ensembles": ("symmetric_ensemble",),
    "strategy_io": ("save_strategy", "load_strategy"),
    "cli": ("main",),
}

OBJECTIVES = ("fidelity", "error")
OPTIMIZER_METRICS = (("self_s", "s"), ("self_us_per_evaluation", "us"), ("evaluations", "count"),
                     ("iterations", "count"), ("accept_ratio", "1"), ("spot_checks", "count"),
                     ("shortfall", "1"))
PER_LAYER = tuple((f"optimizer.{objective}.{name}", unit)
                  for objective in OBJECTIVES for name, unit in OPTIMIZER_METRICS) + (
    ("simulator.simulate_fidelity_s", "s"),
    ("simulator.simulate_error_s", "s"),
    ("simulator.counter_uniforms_s", "s"),
    ("simulator.uniforms_drawn", "count"),
    ("simulator.trials_per_s", "1/s"),
    ("measurements.validate_pom_calls", "count"),
    ("measurements.validate_pom_s", "s"),
    ("measurements.square_root_measurement_s", "s"),
    ("measurements.error_probability_s", "s"),
    ("measurements.greedy_assignment_s", "s"),
    ("fidelity.optimal_retransmission_s", "s"),
    ("fidelity.fidelity_of_strategy_s", "s"),
    ("fidelity.optimal_strategy_analytic_s", "s"),
    ("qubit.hermitian_eig2_calls", "count"),
    ("qubit.hermitian_eig2_s", "s"),
    ("ensembles.symmetric_ensemble_s", "s"),
    ("strategy_io.save_strategy_s", "s"),
    ("strategy_io.load_strategy_s", "s"),
    ("strategy_io.document_bytes", "B"),
    ("cli.self_s", "s"),
)

SPAN_FIELDS = ("span", "parent", "op", "name", "start_s", "duration_s", "self_s")


class _Counts:
    """What one timed operation did that its spans' times do not show."""

    def __init__(self) -> None:
        self.uniforms = 0
        self.trials = 0
        self.document_bytes = 0
        self.search: dict | None = None


def _count_uniforms(counts: _Counts, args, kwargs, result) -> None:
    counts.uniforms += len(result)


def _count_trials(counts: _Counts, args, kwargs, result) -> None:
    counts.trials += result.trials


def _count_document(counts: _Counts, args, kwargs, result) -> None:
    counts.document_bytes += os.path.getsize(kwargs["path"] if "path" in kwargs else args[0])


def _summarize_search(objective: str):
    def observe(counts: _Counts, args, kwargs, result) -> None:
        e = kwargs["e"] if "e" in kwargs else args[0]
        trace, achieved = result[-1], result[-2]
        if objective == "fidelity":
            shortfall = oracles.f_max(e.m, e.theta) - achieved
        else:
            shortfall = achieved - oracles.p_e_min(e.m, e.theta)
        iterations = trace.records[0].iterations if trace.records else 0
        proposals = iterations * len(trace.records)
        counts.search = {
            "objective": objective, "evaluations": trace.evaluations, "iterations": iterations,
            "accept_ratio": sum(r.accepted for r in trace.records) / proposals if proposals else 0.0,
            "spot_checks": len(trace.spot_checks), "shortfall": shortfall}
    return observe


OBSERVERS = {
    "counter_uniforms": _count_uniforms,
    "simulate_fidelity": _count_trials,
    "simulate_error": _count_trials,
    "save_strategy": _count_document,
    "load_strategy": _count_document,
    "optimize_fidelity": _summarize_search("fidelity"),
    "optimize_error": _summarize_search("error"),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []     # span name index -> "layer.function"
        self.spans = array("d")        # len(SPAN_FIELDS) values per span
        self.counts: list[_Counts] = []
        self.op = -1                   # index of the open timed operation, -1 between them
        self._stack: list[list] = []   # [child seconds, span id] per open span
        self._ids = itertools.count()
        self._origin = time.process_time()

    def install(self) -> None:
        """Replace every traced function in every qrelay namespace that binds it."""
        homes = {layer: importlib.import_module(f"qrelay.{layer}") for layer in TRACED}
        modules = [mod for key, mod in sys.modules.items()
                   if key == "qrelay" or key.startswith("qrelay.")]
        for layer, names in TRACED.items():
            for name in names:
                original = getattr(homes[layer], name)
                wrapper = self._wrap(f"{layer}.{name}", original, OBSERVERS.get(name))
                for mod in modules:
                    for attr in [a for a, v in vars(mod).items() if v is original]:
                        setattr(mod, attr, wrapper)

    def _wrap(self, key: str, fn, observe):
        key_index = len(self.names)
        self.names.append(key)
        clock = time.process_time
        stack = self._stack
        spans = self.spans
        ids = self._ids
        origin = self._origin

        def traced(*args, **kwargs):
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                spans.extend((frame[1], stack[-1][1] if stack else -1.0, self.op, key_index,
                              start - origin, duration, duration - frame[0]))
            if observe is not None and self.op >= 0:
                observe(self.counts[self.op], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin_op(self) -> None:
        self.op = len(self.counts)
        self.counts.append(_Counts())

    def end_op(self) -> None:
        self.op = -1

    def per_layer(self) -> dict[str, dict]:
        """Median over operations of each per-layer metric."""
        total = [defaultdict(float) for _ in self.counts]    # "layer.function" -> seconds
        calls = [defaultdict(int) for _ in self.counts]
        self_s = [defaultdict(float) for _ in self.counts]   # layer -> self seconds
        width = len(SPAN_FIELDS)
        for at in range(0, len(self.spans), width):
            _, _, op, name, _, duration, own = self.spans[at:at + width]
            if op < 0:
                continue
            op, key = int(op), self.names[int(name)]
            total[op][key] += duration
            calls[op][key] += 1
            self_s[op][key.split(".")[0]] += own
        samples = defaultdict(list)
        for op, counts in enumerate(self.counts):
            for name, value in _op_metrics(total[op], calls[op], self_s[op], counts).items():
                samples[name].append(value)
        return {name: {"value": statistics.median(samples[name]) if samples[name] else 0.0,
                       "unit": unit}
                for name, unit in PER_LAYER}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        width = len(SPAN_FIELDS)
        with open(path, "w") as fh:
            fh.write(",".join(SPAN_FIELDS) + "\n")
            for at in range(0, len(self.spans), width):
                span, parent, op, name, start, duration, own = self.spans[at:at + width]
                fh.write("%d,%d,%d,%s,%.9f,%.9f,%.9f\n" % (span, parent, op, self.names[int(name)],
                                                             start, duration, own))


def _op_metrics(total, calls, self_s, counts: _Counts) -> dict[str, float]:
    out = {f"{layer}.{name}_s": total[f"{layer}.{name}"]
           for layer, names in TRACED.items() for name in names}
    out["measurements.validate_pom_calls"] = calls["measurements.validate_pom"]
    out["qubit.hermitian_eig2_calls"] = calls["qubit.hermitian_eig2"]
    out["simulator.uniforms_drawn"] = counts.uniforms
    out["strategy_io.document_bytes"] = counts.document_bytes
    out["cli.self_s"] = self_s["cli"]
    if counts.trials:
        busy = total["simulator.simulate_fidelity"] + total["simulator.simulate_error"]
        out["simulator.trials_per_s"] = counts.trials / busy
    if counts.search is not None:
        prefix = f"optimizer.{counts.search['objective']}."
        out[prefix + "self_s"] = self_s["optimizer"]
        out[prefix + "self_us_per_evaluation"] = 1e6 * self_s["optimizer"] / counts.search["evaluations"]
        for name in ("evaluations", "iterations", "accept_ratio", "spot_checks", "shortfall"):
            out[prefix + name] = counts.search[name]
    return out
