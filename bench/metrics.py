"""Metric declarations and their computation.

``END_TO_END`` and ``PER_LAYER`` must match ``BENCHMARK.json``; the
benchmark's tests compare them.  Each per-layer metric names the end-to-end
metric and workload it is expected to move.  ``exact`` marks counts that
must repeat exactly, per operation, from one traced pass to the next; the
traced run compares exactly these (``exact_counts``).
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from dataclasses import replace
from typing import Dict, List, NamedTuple, Tuple

from tracer import Span, inside, self_times


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str = ""        # "<end-to-end metric> on <workload>"
    exact: bool = False


END_TO_END: Tuple[Metric, ...] = (
    Metric("ok_ops_per_s", "1/s", "higher"),
    Metric("latency_p50_ms", "ms", "lower"),
    Metric("latency_p90_ms", "ms", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
    Metric("setup_s", "s", "lower"),
)

_VM = "verify-mixed"
_ES = "expr-synth"
_CF = "constrained-feasible"

PER_LAYER: Tuple[Metric, ...] = (
    Metric("verify.oracle_best_response.self_ms", "ms", "lower",
           "latency_p90_ms, peak_rss_mb, ok_ops_per_s on " + _VM),
    Metric("verify.oracle_best_response.calls", "count", "lower",
           "ok_ops_per_s on " + _VM, exact=True),
    Metric("verify.oracle_best_response.incl_frac", "ratio", "lower",
           "ok_ops_per_s on " + _VM),
    Metric("verify.oracle.grid_evals", "count", "lower",
           "latency_p90_ms, peak_rss_mb on " + _VM, exact=True),
    Metric("verify.oracle.refine_evals", "count", "lower",
           "ok_ops_per_s on " + _VM, exact=True),
    Metric("verify.oracle.max_grid_points", "count", "lower",
           "peak_rss_mb on " + _VM, exact=True),
    Metric("model.evaluate_many.self_ms", "ms", "lower", "ok_ops_per_s on " + _VM),
    Metric("model.evaluate_many.calls", "count", "lower", "ok_ops_per_s on " + _VM,
           exact=True),
    Metric("model.evaluate_many.rows", "count", "lower", "ok_ops_per_s on " + _VM,
           exact=True),
    Metric("verify.verify_full.self_ms", "ms", "lower", "latency_p50_ms on " + _VM),
    Metric("verify.sublevel_inequality_check.self_ms", "ms", "lower",
           "latency_p50_ms on " + _VM),
    Metric("equilibrium.descent.ms", "ms", "lower",
           "ok_ops_per_s, latency_p90_ms on " + _ES),
    Metric("equilibrium.descent.failures", "count", "lower",
           "ok_ops_per_s, latency_p90_ms on " + _ES, exact=True),
    Metric("equilibrium.descent.gradient_calls", "count", "lower",
           "ok_ops_per_s, latency_p90_ms on " + _ES, exact=True),
    Metric("calculus.gradient.self_ms", "ms", "lower", "ok_ops_per_s on " + _ES),
    Metric("calculus.gradient.calls", "count", "lower", "ok_ops_per_s on " + _ES,
           exact=True),
    Metric("calculus.hessian.self_ms", "ms", "lower", "ok_ops_per_s on " + _ES),
    Metric("synthesis.reduce_problem.self_ms", "ms", "lower",
           "latency_p50_ms on " + _ES),
    Metric("synthesis.reduce_problem.calls", "count", "lower",
           "latency_p50_ms on " + _ES, exact=True),
    Metric("synthesis.synthesize_single_leader.self_ms", "ms", "lower",
           "latency_p50_ms on " + _ES),
    Metric("synthesis.synthesize_cascade.self_ms", "ms", "lower",
           "latency_p50_ms on " + _ES),
    Metric("synthesis.expr_nodes_max", "count", "lower", "latency_p50_ms on " + _ES,
           exact=True),
    Metric("formula.parse_formula.self_ms", "ms", "lower", "latency_p50_ms on " + _ES),
    Metric("formula.parse_formula.calls", "count", "lower", "latency_p50_ms on " + _ES,
           exact=True),
    Metric("documents.parse_problem.self_ms", "ms", "lower",
           "latency_p50_ms on %s and %s" % (_ES, _VM)),
    Metric("equilibrium.active_set.ms", "ms", "lower", "latency_p90_ms on " + _CF),
    Metric("equilibrium.active_set.candidates_computed", "count", "lower",
           "latency_p90_ms on " + _CF, exact=True),
    Metric("constrained.simplex_maximize.self_ms", "ms", "lower",
           "latency_p50_ms on " + _CF),
    Metric("constrained.simplex_maximize.calls", "count", "lower",
           "latency_p50_ms on " + _CF, exact=True),
    Metric("constrained.simplex_maximize.ms_per_call", "ms", "lower",
           "latency_p50_ms on " + _CF),
    Metric("constrained.feasibility_check.self_ms", "ms", "lower",
           "latency_p50_ms on " + _CF),
    Metric("synthesis.synthesize_family_leader.self_ms", "ms", "lower",
           "latency_p50_ms on " + _CF),
    Metric("synthesis.instantiate.self_ms", "ms", "lower", "latency_p50_ms on " + _CF),
    Metric("equilibrium.linear_solve.ms", "ms", "lower", "none (kept so a move shows)"),
    Metric("geometry.leader_existence_check.self_ms", "ms", "lower",
           "none (kept so a move shows)"),
    Metric("setup.numpy_import_ms", "ms", "lower", "setup_s on every workload"),
    Metric("setup.revstack_import_ms", "ms", "lower", "setup_s on every workload"),
    Metric("cli.process_ms", "ms", "lower",
           "setup_s on every workload (a revstack solve process is mostly imports)"),
    Metric("cli.main.self_ms", "ms", "lower", "latency_p50_ms on " + _VM),
    Metric("trace.overhead_frac", "ratio", "lower", "none (tracing cost)"),
)


def count_nodes(root) -> int:
    """Nodes of an expression tree (dataclass nodes with tuple children)."""
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        for f in dataclasses.fields(node):
            value = getattr(node, f.name)
            if dataclasses.is_dataclass(value):
                stack.append(value)
            elif isinstance(value, tuple):
                stack.extend(v for v in value if dataclasses.is_dataclass(v))
    return count


def _largest_objective(problem) -> int:
    return max((count_nodes(obj.root) for obj in problem.objectives
                if hasattr(obj, "root")), default=0)


def op_counts(spans: List[Span]) -> Dict[int, Dict[str, int]]:
    """Per operation, the call, failure and attribute counts of every span name."""
    out: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for i, s in enumerate(spans):
        c = out[s.op]
        c[s.name + ".calls"] += 1
        if s.error:
            c[s.name + ".failures"] += 1
        for key, value in s.attrs.items():
            if isinstance(value, int):
                c[s.name + "." + key] += value
        if s.name == "calculus.gradient" and inside(spans, i, "equilibrium.descent"):
            c["equilibrium.descent.gradient_calls"] += 1
        if s.result is not None:
            c["synthesis.expr_nodes_max"] = max(c["synthesis.expr_nodes_max"],
                                                _largest_objective(s.result))
    return {op: dict(c) for op, c in out.items()}


def layer_metrics(spans: List[Span], ops: int, op_ns: int) -> Dict[str, float]:
    """Per-operation layer metrics from one traced pass over ``ops`` operations.

    ``op_ns`` is the traced wall time of those operations, the base of
    ``verify.oracle_best_response.incl_frac``.
    """
    total: Dict[str, int] = defaultdict(int)
    own: Dict[str, int] = defaultdict(int)
    for s, self_ns in zip(spans, self_times(spans)):
        total[s.name] += s.ns
        own[s.name] += self_ns
    counts: Dict[str, int] = defaultdict(int)
    for per_op in op_counts(spans).values():
        for key, value in per_op.items():
            if key.endswith("_max"):
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
    grids = [s.attrs["grid_evals"] for s in spans if s.name == "verify.oracle_best_response"]

    def ms(ns: int) -> float:
        return ns / 1e6 / ops

    def per_op(key: str) -> float:
        return counts[key] / ops

    simplex_calls = counts["constrained.simplex_maximize.calls"]
    return {
        "verify.oracle_best_response.self_ms": ms(own["verify.oracle_best_response"]),
        "verify.oracle_best_response.calls": per_op("verify.oracle_best_response.calls"),
        "verify.oracle_best_response.incl_frac":
            total["verify.oracle_best_response"] / op_ns if op_ns else 0.0,
        "verify.oracle.grid_evals": per_op("verify.oracle_best_response.grid_evals"),
        "verify.oracle.refine_evals": per_op("verify.oracle_best_response.refine_evals"),
        "verify.oracle.max_grid_points": float(max(grids, default=0)),
        "model.evaluate_many.self_ms": ms(own["model.evaluate_many"]),
        "model.evaluate_many.calls": per_op("model.evaluate_many.calls"),
        "model.evaluate_many.rows": per_op("model.evaluate_many.rows"),
        "verify.verify_full.self_ms": ms(own["verify.verify_full"]),
        "verify.sublevel_inequality_check.self_ms":
            ms(own["verify.sublevel_inequality_check"]),
        "equilibrium.descent.ms": ms(total["equilibrium.descent"]),
        "equilibrium.descent.failures": per_op("equilibrium.descent.failures"),
        "equilibrium.descent.gradient_calls": per_op("equilibrium.descent.gradient_calls"),
        "calculus.gradient.self_ms": ms(own["calculus.gradient"]),
        "calculus.gradient.calls": per_op("calculus.gradient.calls"),
        "calculus.hessian.self_ms": ms(own["calculus.hessian"]),
        "synthesis.reduce_problem.self_ms": ms(own["synthesis.reduce_problem"]),
        "synthesis.reduce_problem.calls": per_op("synthesis.reduce_problem.calls"),
        "synthesis.synthesize_single_leader.self_ms":
            ms(own["synthesis.synthesize_single_leader"]),
        "synthesis.synthesize_cascade.self_ms": ms(own["synthesis.synthesize_cascade"]),
        "synthesis.expr_nodes_max": float(counts["synthesis.expr_nodes_max"]),
        "formula.parse_formula.self_ms": ms(own["formula.parse_formula"]),
        "formula.parse_formula.calls": per_op("formula.parse_formula.calls"),
        "documents.parse_problem.self_ms": ms(own["documents.parse_problem"]),
        "equilibrium.active_set.ms": ms(total["equilibrium.active_set"]),
        "equilibrium.active_set.candidates_computed":
            per_op("equilibrium.active_set.candidates"),
        "constrained.simplex_maximize.self_ms": ms(own["constrained.simplex_maximize"]),
        "constrained.simplex_maximize.calls": per_op("constrained.simplex_maximize.calls"),
        "constrained.simplex_maximize.ms_per_call":
            own["constrained.simplex_maximize"] / 1e6 / simplex_calls if simplex_calls else 0.0,
        "constrained.feasibility_check.self_ms": ms(own["constrained.feasibility_check"]),
        "synthesis.synthesize_family_leader.self_ms":
            ms(own["synthesis.synthesize_family_leader"]),
        "synthesis.instantiate.self_ms": ms(own["synthesis.instantiate"]),
        "equilibrium.linear_solve.ms": ms(total["equilibrium.linear_solve"]),
        "geometry.leader_existence_check.self_ms":
            ms(own["geometry.leader_existence_check"]),
        "cli.main.self_ms": ms(own["cli.main"]),
    }


EXACT: Tuple[str, ...] = tuple(m.name for m in PER_LAYER if m.exact)


def _by_op(spans: List[Span]) -> Dict[int, List[Span]]:
    """Each operation's spans, parents re-indexed from 0.

    Operations run one after another, so an operation's spans are contiguous.
    """
    out: Dict[int, List[Span]] = {}
    start = 0
    for i in range(1, len(spans) + 1):
        if i == len(spans) or spans[i].op != spans[start].op:
            out[spans[start].op] = [replace(s, parent=s.parent - start if s.parent >= 0 else -1)
                                    for s in spans[start:i]]
            start = i
    return out


def exact_counts(spans: List[Span]) -> Dict[int, Dict[str, float]]:
    """Per operation, the per-layer metrics declared ``exact``."""
    out = {}
    for op, own in _by_op(spans).items():
        values = layer_metrics(own, 1, 0)
        out[op] = {name: values[name] for name in EXACT}
    return out


def repeat_mismatches(first: Dict[int, Dict[str, float]],
                      second: Dict[int, Dict[str, float]]) -> List[str]:
    """Counts that differ between two traced passes over the same operations."""
    out = []
    for op in sorted(set(first) | set(second)):
        a, b = first.get(op, {}), second.get(op, {})
        for key in sorted(set(a) | set(b)):
            if a.get(key, 0) != b.get(key, 0):
                out.append("op %d: %s was %.17g, then %.17g"
                           % (op, key, a.get(key, 0), b.get(key, 0)))
    return out
