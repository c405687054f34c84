"""Per-layer metrics from the spans of a traced run.

A span is [name, start, end, parent index, meta] as written by child.py.
Self time is a span's duration minus the durations of its direct children
(children run inside their parent on one thread, so they never overlap).
"""

from __future__ import annotations

import math
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field

# metric -> span name; the value is the span's inclusive time per op
TIMES = {
    "graphs.read_s": "graphs.read",
    "graphs.girth_s": "graphs.girth",
    "graphs.generate_s": "graphs.generate",
    "gamma.colors_needed_s": "gamma.colors_needed",
    "gamma.min_gamma_s": "gamma.min_gamma",
    "gamma.solve_tau_s": "gamma.solve_tau",
    "gamma.series_s": "gamma.series",
    "coloring.col_alg_s": "coloring.col_alg",
    "coloring.greedy_s": "coloring.greedy",
    "coloring.full_scan_s": "coloring.full_scan",
    "coloring.index_build_s": "coloring.index_build",
    "coloring.refresh_s": "coloring.refresh",
    "coloring.verify_s": "coloring.verify",
    "engine.m_algorithm_s": "engine.m_algorithm",
    "engine.sample_s": "engine.sample",
    "engine.root_select_s": "engine.root_select",
    "engine.neighbour_scan_s": "engine.neighbour_scan",
    "dimacs.read_s": "dimacs.read",
    "dimacs.system_s": "dimacs.system",
    "dimacs.check_s": "dimacs.check",
    "bounds.rows_s": "bounds.rows",
    "bounds.q_series_s": "bounds.q_series",
    "cli.color_s": "cli.color",
    "cli.verify_s": "cli.verify",
    "cli.bench_s": "cli.bench",
    "cli.sat_s": "cli.sat",
    "cli.bounds_s": "cli.bounds",
    "cli.gamma_s": "cli.gamma",
}

# metric -> span name; the value is the number of calls per op
CALLS = {
    "gamma.solve_tau_calls": "gamma.solve_tau",
    "coloring.full_scans": "coloring.full_scan",
    "coloring.refresh_calls": "coloring.refresh",
    "engine.root_select_calls": "engine.root_select",
    "engine.neighbour_scan_calls": "engine.neighbour_scan",
}

# Counts that depend only on the code, the inputs and the seeds: two runs
# of the same code with the same --seed must report them identically.
# Additive ones are means per op over the workload's op variants; the step
# quantiles and zero-step fraction pool the coloring runs of all variants.
EXACT = {
    **{name: "count" for name in CALLS},
    "coloring.steps": "count",
    "coloring.phases": "count",
    "coloring.decisions": "count",
    "coloring.zero_step_frac": "ratio",
    "coloring.steps_p50": "count",
    "coloring.steps_p90": "count",
    "coloring.steps_p99": "count",
    "engine.steps": "count",
    "engine.phases": "count",
    "engine.max_depth": "count",
    "engine.event_evals": "count",
    "bounds.q_max_bits": "bits",
}
RUN_STEPS = "run_steps"  # per-run recolor steps of an op, pooled for quantiles

DERIVED = {
    "coloring.col_alg_p50_s": "s",
    "coloring.col_alg_p90_s": "s",
    "coloring.col_alg_p99_s": "s",
    "coloring.loop_self_s": "s",
    "coloring.scans_per_step": "ratio",
    "engine.useful_frac": "ratio",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}


def per_layer_units() -> dict[str, str]:
    return {**{name: "s" for name in TIMES}, **EXACT, **DERIVED}


def nearest_rank(sorted_values, q: float):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


@dataclass
class OpTrace:
    """Totals over all spans of one op (one or more processes)."""

    incl: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    self_time: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: Counter = field(default_factory=Counter)
    roots: float = 0.0
    col_alg: list[tuple[float, dict]] = field(default_factory=list)
    m_algorithm: list[dict] = field(default_factory=list)

    def add_process(self, spans: list[list]) -> None:
        children = [0.0] * len(spans)
        for name, start, end, parent, meta in spans:
            duration = end - start
            self.incl[name] += duration
            self.calls[name] += 1
            if parent >= 0:
                children[parent] += duration
            else:
                self.roots += duration
            if name == "coloring.col_alg":
                self.col_alg.append((duration, meta))
            elif name == "engine.m_algorithm":
                self.m_algorithm.append(meta)
        for (name, start, end, _, _), inner in zip(spans, children):
            self.self_time[name] += end - start - inner

    def self_sum_error(self) -> float:
        """How far the self times miss the root spans' total (0 up to rounding)."""
        return abs(sum(self.self_time.values()) - self.roots)

    def exact_counts(self) -> dict:
        """This op's exact counters that the spans show."""
        out: dict = {metric: self.calls[name] for metric, name in CALLS.items()}
        if self.col_alg:
            metas = [meta for _, meta in self.col_alg]
            out["coloring.steps"] = sum(meta["steps"] for meta in metas)
            out["coloring.phases"] = sum(meta["phases"] for meta in metas)
            out["coloring.decisions"] = sum(meta["decisions"] for meta in metas)
            out[RUN_STEPS] = [meta["steps"] for meta in metas]
        if self.m_algorithm:
            out["engine.steps"] = sum(meta["steps"] for meta in self.m_algorithm)
            out["engine.phases"] = sum(meta["phases"] for meta in self.m_algorithm)
            out["engine.max_depth"] = max(meta["max_depth"] for meta in self.m_algorithm)
        return out


def combine_exact(per_variant: list[dict]) -> dict[str, float]:
    """Means per op over the variants (the largest for max_depth); step
    quantiles over the variants' pooled runs."""
    out: dict[str, float] = {}
    for name in EXACT:
        values = [counts[name] for counts in per_variant if name in counts]
        if values:
            out[name] = max(values) if name == "engine.max_depth" else sum(values) / len(values)
    runs = sorted(s for counts in per_variant for s in counts.get(RUN_STEPS, ()))
    if runs:
        out["coloring.zero_step_frac"] = runs.count(0) / len(runs)
        for q in (50, 90, 99):
            out[f"coloring.steps_p{q}"] = nearest_rank(runs, q / 100)
    return out


def _median_of(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(ops: list[OpTrace], setups: list[OpTrace], exact: dict[str, float]) -> dict[str, float]:
    """Timings are medians over the traced ops (over the traced set-ups for a
    span that only the set-up calls); the exact counts are passed in."""
    metrics = {}
    for metric, name in TIMES.items():
        pool = ops if any(name in op.calls for op in ops) else setups
        metrics[metric] = _median_of([op.incl[name] for op in pool])
    durations = sorted(d for op in ops for d, _ in op.col_alg)
    for q in (50, 90, 99):
        metrics[f"coloring.col_alg_p{q}_s"] = nearest_rank(durations, q / 100) if durations else 0.0
    metrics["coloring.loop_self_s"] = _median_of([op.self_time["coloring.col_alg"] for op in ops])
    metrics["cli.self_s"] = _median_of(
        [sum(t for name, t in op.self_time.items() if name.startswith("cli.")) for op in ops]
    )
    metrics.update({name: exact.get(name, 0) for name in EXACT})
    metrics["coloring.scans_per_step"] = metrics["coloring.full_scans"] / (metrics["coloring.steps"] + 1)
    evals = metrics["engine.event_evals"]
    metrics["engine.useful_frac"] = metrics["engine.steps"] / evals if evals else 0.0
    return metrics


def absent(ops: list[OpTrace], setups: list[OpTrace]) -> list[str]:
    """Span-backed metrics whose span never ran on this workload."""
    seen = {name for op in ops + setups for name in op.calls}
    return sorted(m for m, n in {**TIMES, **CALLS}.items() if n not in seen)


def shares(ops: list[OpTrace], unattributed: float) -> tuple[list[tuple[str, float]], list[tuple[str, float]]]:
    """Shares of the traced op time by span self time and by module, largest first."""
    by_span: dict[str, float] = defaultdict(float)
    for op in ops:
        for name, t in op.self_time.items():
            by_span[name] += t
    by_span["start-up.imports_and_exit"] += unattributed
    total = sum(by_span.values()) or 1.0
    by_module: dict[str, float] = defaultdict(float)
    for name, t in by_span.items():
        by_module[name.split(".")[0]] += t

    def ranked(d):
        return sorted(((k, v / total) for k, v in d.items()), key=lambda kv: -kv[1])

    return ranked(by_span), ranked(by_module)
