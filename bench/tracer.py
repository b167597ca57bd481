"""Outside-in tracer for the traced benchmark run.

The tracer wraps named public functions of the ``revstack`` modules from the
outside.  A function imported into several modules (``gradient`` is bound in
six, ``reduce_problem`` in three) is the same object everywhere, so the
wrapper is bound under every name in every ``revstack.*`` module that holds
it; a missed binding would silently drop the child spans of that call path.
Spans stay in memory and are written out once the run ends.  The untraced
run never installs a wrapper.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

# Spans are named after the layer (module) and function they wrap.  The team
# optimum's three routes get their own span names, so ``equilibrium.*`` is
# split by ``EquilibriumResult.method``.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("revstack.documents", "parse_problem", "documents.parse_problem"),
    ("revstack.formula", "parse_formula", "formula.parse_formula"),
    ("revstack.model", "evaluate_many", "model.evaluate_many"),
    ("revstack.calculus", "gradient", "calculus.gradient"),
    ("revstack.calculus", "hessian", "calculus.hessian"),
    ("revstack.equilibrium", "team_optimum", "equilibrium.team_optimum"),
    ("revstack.equilibrium", "team_optimum_quadratic", "equilibrium.linear_solve"),
    ("revstack.equilibrium", "team_optimum_descent", "equilibrium.descent"),
    ("revstack.equilibrium", "team_optimum_constrained", "equilibrium.active_set"),
    ("revstack.geometry", "leader_existence_check", "geometry.leader_existence_check"),
    ("revstack.synthesis", "synthesize_single_leader", "synthesis.synthesize_single_leader"),
    ("revstack.synthesis", "reduce_problem", "synthesis.reduce_problem"),
    ("revstack.synthesis", "synthesize_cascade", "synthesis.synthesize_cascade"),
    ("revstack.synthesis", "synthesize_family_leader", "synthesis.synthesize_family_leader"),
    ("revstack.synthesis", "instantiate", "synthesis.instantiate"),
    ("revstack.verify", "oracle_best_response", "verify.oracle_best_response"),
    ("revstack.verify", "sublevel_inequality_check", "verify.sublevel_inequality_check"),
    ("revstack.verify", "verify_full", "verify.verify_full"),
    ("revstack.constrained", "simplex_maximize", "constrained.simplex_maximize"),
    ("revstack.constrained", "feasibility_check", "constrained.feasibility_check"),
    ("revstack.cli", "main", "cli.main"),
)


@dataclass
class Span:
    name: str
    start: int                     # perf_counter_ns
    end: int
    parent: int                    # index of the enclosing span, -1 at the top
    op: int                        # operation id
    error: str = ""                # exception class name, if the call raised
    attrs: Dict[str, Any] = field(default_factory=dict)
    result: Any = None             # kept for post-run counting, never serialized

    @property
    def ns(self) -> int:
        return self.end - self.start


def _rows(args, kwargs) -> int:
    blocks = kwargs.get("blocks", args[1] if len(args) > 1 else None)
    shape = getattr(blocks[0], "shape", ()) if blocks else ()
    rows = 1
    for s in shape[:-1]:
        rows *= int(s)
    return rows


def _oracle_grid(args, kwargs) -> int:
    """points ** D for the call, from its arguments (D = free coordinates).

    This is the size of the dense grid the oracle materializes; an oracle
    that thins its grid would need a count from inside the program.
    """
    problem = args[0]
    level = kwargs.get("level", args[2] if len(args) > 2 else None)
    grid = kwargs.get("grid", args[3] if len(args) > 3 else None)
    grid = grid or sys.modules["revstack.verify"].GridSpec()
    return grid.points ** int(sum(problem.dims.m[level - 1:]))


def _active_set_candidates(args, kwargs) -> int:
    """Candidate active sets the enumeration visits: sum_{r<=min(k,N)} C(k,r)."""
    from math import comb
    problem = args[0]
    k = problem.constraints.k
    N = problem.dims.total
    return sum(comb(k, r) for r in range(min(k, N) + 1))


def _annotate(name: str, args, kwargs, result) -> Dict[str, Any]:
    if name == "model.evaluate_many":
        return {"rows": _rows(args, kwargs)}
    if name == "verify.oracle_best_response":
        grid = _oracle_grid(args, kwargs)
        return {"grid_evals": grid, "refine_evals": int(result.evaluations) - grid}
    if name == "equilibrium.active_set":
        return {"candidates": _active_set_candidates(args, kwargs)}
    if name == "equilibrium.team_optimum":
        return {"method": result.method}
    return {}


class Tracer:
    """Collects one span per wrapped call.  Install, run, uninstall."""

    def __init__(self):
        self.spans: List[Span] = []
        self.op = -1
        self._stack: List[int] = []
        self._bound: List[Tuple[Any, str, Any]] = []

    def _wrap(self, original: Callable, name: str) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0, 0, stack[-1] if stack else -1, self.op)
            spans.append(span)
            stack.append(idx)
            span.start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.end = clock()
                stack.pop()
                span.error = type(exc).__name__
                raise
            span.end = clock()
            stack.pop()
            span.attrs = _annotate(name, args, kwargs, result)
            if name == "synthesis.reduce_problem":
                span.result = result
            return result

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        if self._bound:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "revstack" or n.startswith("revstack."))]
        for module_name, attr, name in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._bound.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._bound):
            setattr(mod, key, original)
        self._bound.clear()

    def bindings(self) -> List[str]:
        """``module.attr`` of every rebound name (for tests and the report)."""
        return sorted("%s.%s" % (mod.__name__, key) for mod, key, _ in self._bound)


def write_spans(spans: List[Span], path: str) -> None:
    """One JSON line per span: name, start, end, parent, op, error, attrs."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"i": i, "name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "op": s.op, "error": s.error,
                                 "attrs": s.attrs}) + "\n")


def self_times(spans: List[Span]) -> List[int]:
    """Span duration minus the time its direct children cover (ns)."""
    child = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.ns
    return [s.ns - c for s, c in zip(spans, child)]


def inside(spans: List[Span], idx: int, ancestor_name: str) -> bool:
    """True when some ancestor of span ``idx`` has the given name."""
    p = spans[idx].parent
    while p >= 0:
        if spans[p].name == ancestor_name:
            return True
        p = spans[p].parent
    return False
