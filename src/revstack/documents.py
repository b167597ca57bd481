"""Problem documents (read) and strategy documents (read and written), in JSON.

A problem document looks like::

    {
      "levels": 3,
      "dims": [1, 1, 1],
      "objectives": [
        {"type": "quadratic",
         "A": {"1,1": [[1]], "1,2": [[-1]]},
         "l": [[0], [0], [0]],
         "c": 0},
        {"type": "expr", "formula": "(u1 - 2*u2)^2 + (u3 - 3)^2"},
        ...
      ],
      "constraints": {"A": [[[1]], [[0]], [[0]]], "b": [10]}   // optional
    }

Matrices are nested lists, one ``A`` block per ordered level pair (upper
triangle only), one ``l`` segment and one constraint block per level.
Problem documents are only read: every command takes a problem and reports
strategies and verdicts, so no problem is ever written back.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .errors import (
    DimensionError,
    DocumentError,
    DocumentSyntaxError,
    RevstackError,
)
from .formula import parse_formula
from .model import (
    Dims,
    DecisionPoint,
    ExprObjective,
    GameProblem,
    LinearConstraints,
    Objective,
    QuadraticObjective,
)
from .synthesis import AffineStrategy

__all__ = [
    "parse_problem",
    "parse_strategies",
    "strategies_to_document",
]


def _reject_constant(token: str) -> float:
    raise DocumentError("non-finite number %s is not allowed" % token)


def _finite_float(token: str) -> float:
    value = float(token)  # any digit count; out of range gives inf
    if not math.isfinite(value):
        shown = token if len(token) <= 24 else token[:24] + "..."
        raise DocumentError("number %s overflows a double" % shown)
    return value


def _finite_int(token: str) -> int:
    _finite_float(token)
    return int(token)


def load_json(text: str) -> Any:
    """JSON with NaN, Infinity and overflowing literals refused."""
    try:
        return json.loads(text, parse_constant=_reject_constant,
                          parse_float=_finite_float, parse_int=_finite_int)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(exc.msg, line=exc.lineno, column=exc.colno)


def _require(doc: Dict[str, Any], key: str, where: str) -> Any:
    if key not in doc:
        raise DocumentError("missing key %r" % key, where=where)
    return doc[key]


def float_array(raw: Any, what: str, where: Optional[str]) -> np.ndarray:
    """``raw`` as a float array; a ragged or non-numeric entry is a DocumentError."""
    try:
        return np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise DocumentError("not a numeric %s" % what, where=where)


def _matrix(raw: Any, where: str) -> np.ndarray:
    arr = float_array(raw, "matrix", where)
    if arr.ndim != 2:
        raise DocumentError("expected a matrix (list of rows)", where=where)
    return arr


def _vector(raw: Any, where: str) -> np.ndarray:
    arr = np.atleast_1d(float_array(raw, "vector", where))
    if arr.ndim != 1:
        raise DocumentError("expected a flat vector", where=where)
    return arr


def _parse_quadratic(raw: Dict[str, Any], dims: Dims, where: str) -> QuadraticObjective:
    blocks: Dict[tuple, np.ndarray] = {}
    table = raw.get("A", {})
    if not isinstance(table, dict):
        raise DocumentError("'A' must map \"j,k\" keys to matrices", where=where)
    for key, value in table.items():
        parts = str(key).split(",")
        if len(parts) != 2:
            raise DocumentError("bad block key %r (want \"j,k\")" % key, where=where)
        try:
            j, k = int(parts[0]), int(parts[1])
        except ValueError:
            raise DocumentError("bad block key %r (want \"j,k\")" % key, where=where)
        if not (1 <= j <= dims.levels and 1 <= k <= dims.levels):
            raise DocumentError("block key %r is outside the hierarchy" % key,
                                where=where)
        if j > k:
            raise DocumentError(
                "block key %r: store cross blocks with j <= k only" % key,
                where=where)
        blocks[(j, k)] = _matrix(value, "%s.A[%r]" % (where, key))
    l_raw = raw.get("l")
    l_parts: List[np.ndarray] = []
    if l_raw is not None:
        if not isinstance(l_raw, list) or len(l_raw) != dims.levels:
            raise DocumentError("'l' must list one segment per level", where=where)
        for i, seg in enumerate(l_raw):
            l_parts.append(_vector(seg, "%s.l[%d]" % (where, i)))
    const = raw.get("c", 0.0)
    if not isinstance(const, (int, float)):
        raise DocumentError("'c' must be a number", where=where)
    try:
        return QuadraticObjective.build(
            dims, blocks, l=l_parts or None, const=float(const))
    except RevstackError as exc:  # a block of the wrong shape, a coefficient that is not finite
        raise DocumentError(str(exc), where=where)


def _parse_objective(raw: Any, dims: Dims, where: str) -> Objective:
    if not isinstance(raw, dict):
        raise DocumentError("objective must be an object", where=where)
    kind = raw.get("type")
    if kind == "quadratic":
        return _parse_quadratic(raw, dims, where)
    if kind == "expr":
        formula = _require(raw, "formula", where)
        if not isinstance(formula, str):
            raise DocumentError("'formula' must be a string", where=where)
        try:
            return ExprObjective(parse_formula(formula, dims))
        except DocumentError as exc:
            exc.where = where + ".formula"
            raise
    raise DocumentError(
        "unknown objective type %r (want 'quadratic' or 'expr')" % kind,
        where=where)


def parse_problem(text: str) -> GameProblem:
    """Build a :class:`GameProblem` from JSON text.

    Malformed documents, a quadratic block of the wrong shape included,
    raise DocumentError.
    """
    doc = load_json(text)
    if not isinstance(doc, dict):
        raise DocumentError("top level must be an object")
    levels = _require(doc, "levels", "levels")
    if not isinstance(levels, int) or levels < 2:
        raise DocumentError("'levels' must be an integer >= 2", where="levels")
    widths = _require(doc, "dims", "dims")
    if (not isinstance(widths, list) or len(widths) != levels
            or not all(isinstance(w, int) for w in widths)):
        raise DocumentError("'dims' must list one integer width per level",
                            where="dims")
    try:
        dims = Dims.of(*widths)
    except DimensionError as exc:
        raise DocumentError(str(exc), where="dims")

    raw_objectives = _require(doc, "objectives", "objectives")
    if not isinstance(raw_objectives, list) or len(raw_objectives) != levels:
        raise DocumentError("'objectives' must list one entry per level",
                            where="objectives")
    objectives = tuple(
        _parse_objective(raw, dims, "objectives[%d]" % i)
        for i, raw in enumerate(raw_objectives)
    )

    constraints = None
    if doc.get("constraints") is not None:
        raw_c = doc["constraints"]
        if not isinstance(raw_c, dict):
            raise DocumentError("'constraints' must be an object",
                                where="constraints")
        a_raw = _require(raw_c, "A", "constraints")
        if not isinstance(a_raw, list) or len(a_raw) != levels:
            raise DocumentError("'A' must list one block per level",
                                where="constraints.A")
        blocks = tuple(
            _matrix(part, "constraints.A[%d]" % i) for i, part in enumerate(a_raw)
        )
        b = _vector(_require(raw_c, "b", "constraints"), "constraints.b")
        constraints = LinearConstraints(blocks, b)

    try:
        problem = GameProblem(dims, objectives, constraints)
    except DimensionError as exc:
        raise DocumentError(str(exc))
    return problem


def parse_strategies(
    text: str, problem: GameProblem, desired: DecisionPoint
) -> List[AffineStrategy]:
    """Read announced strategies from JSON.

    Each entry gives the announcing ``level``, a constant ``offset`` and one
    direct coefficient matrix per lower level, meaning
    ``u^level = offset + sum_j coeffs[j] u^j``.  The result is re-anchored at
    the supplied desired point so later checks can measure how far off a
    hand-edited document actually is.
    """
    doc = load_json(text)
    if not isinstance(doc, dict):
        raise DocumentError("top level must be an object")
    raw_list = _require(doc, "strategies", "strategies")
    if not isinstance(raw_list, list) or not raw_list:
        raise DocumentError("'strategies' must be a non-empty list",
                            where="strategies")
    out: List[AffineStrategy] = []
    for i, raw in enumerate(raw_list):
        where = "strategies[%d]" % i
        if not isinstance(raw, dict):
            raise DocumentError("strategy must be an object", where=where)
        level = _require(raw, "level", where)
        if not isinstance(level, int) or not 1 <= level < problem.dims.levels:
            raise DocumentError(
                "'level' must be an announcing level (1..%d)"
                % (problem.dims.levels - 1), where=where)
        offset = _vector(_require(raw, "offset", where), where + ".offset")
        raw_coeffs = _require(raw, "coeffs", where)
        expected = problem.dims.levels - level
        if not isinstance(raw_coeffs, list) or len(raw_coeffs) != expected:
            raise DocumentError(
                "'coeffs' must list one matrix per lower level (%d)" % expected,
                where=where + ".coeffs")
        linear = tuple(
            _matrix(part, "%s.coeffs[%d]" % (where, j))
            for j, part in enumerate(raw_coeffs)
        )
        try:
            out.append(AffineStrategy.from_affine(
                level, offset, linear, desired.tail(level + 1)))
        except DimensionError as exc:
            raise DocumentError(str(exc), where=where)
    return out


def strategies_to_document(strategies: Sequence[AffineStrategy]) -> Dict[str, Any]:
    entries = []
    for s in strategies:
        offset, linear = s.as_affine()
        entries.append({
            "level": s.level,
            "offset": offset.tolist(),
            "coeffs": [m.tolist() for m in linear],
        })
    return {"strategies": entries}
