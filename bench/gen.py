"""Seeded input generation for the benchmark.

Every document is written here as JSON text, without calling the program, so
the inputs stay byte-identical for a seed whatever the code under test does.
The game recipe is the one in ``tests/conftest.random_convex_game``: Gram
diagonal blocks plus a margin, small cross blocks, linear parts uniform in
[-3, 3].  Alongside each document the generator keeps the matrices it drew,
so that outputs can be checked against a direct numpy solve.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

Blocks = Dict[Tuple[int, int], np.ndarray]


@dataclass(frozen=True)
class Game:
    """One generated problem: the document text plus what the checks need."""

    kind: str                      # game class label, e.g. "q(1,2,2)"
    widths: Tuple[int, ...]
    text: str                      # the JSON document the program parses
    H1: np.ndarray                 # full Hessian of the top objective
    l1: np.ndarray                 # concatenated linear part of the top objective
    A: Optional[np.ndarray] = None  # joint constraint rows (k, N), if any
    b: Optional[np.ndarray] = None
    center: Optional[np.ndarray] = None  # a strictly feasible point of the rows
    family_draws: int = 0          # family members to draw (constrained workload)
    draw_seed: int = 0
    path: str = ""                 # where the document was written, if it was


def game_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    """Independent stream per (seed, workload, game index)."""
    tag = int.from_bytes(workload.encode()[:8].ljust(8, b"\0"), "little")
    return np.random.default_rng([seed, tag, index])


def convex_objectives(rng: np.random.Generator, widths: Sequence[int]
                      ) -> List[Tuple[Blocks, List[np.ndarray]]]:
    """The ``random_convex_game`` recipe: one (A blocks, l) pair per level."""
    n = len(widths)
    out = []
    for _ in range(n):
        A: Blocks = {}
        for j in range(1, n + 1):
            R = rng.standard_normal((widths[j - 1], widths[j - 1]))
            A[(j, j)] = R @ R.T + (1.0 + rng.random()) * np.eye(widths[j - 1])
            for k in range(j + 1, n + 1):
                A[(j, k)] = 0.3 * rng.standard_normal((widths[j - 1], widths[k - 1]))
        l = [rng.uniform(-3.0, 3.0, w) for w in widths]
        out.append((A, l))
    return out


def full_hessian(A: Blocks, widths: Sequence[int]) -> np.ndarray:
    """Hessian of sum_{j<=k} u_j' A_jk u_k over the concatenated vector."""
    offs = np.concatenate([[0], np.cumsum(widths)])
    H = np.zeros((offs[-1], offs[-1]))
    for (j, k), M in A.items():
        rj = slice(offs[j - 1], offs[j])
        rk = slice(offs[k - 1], offs[k])
        if j == k:
            H[rj, rj] += M + M.T
        else:
            H[rj, rk] += M
            H[rk, rj] += M.T
    return H


def _quadratic_doc(A: Blocks, l: List[np.ndarray]) -> dict:
    return {
        "type": "quadratic",
        "A": {"%d,%d" % key: M.tolist() for key, M in sorted(A.items())},
        "l": [v.tolist() for v in l],
        "c": 0.0,
    }


def _var(level: int, index: int, widths: Sequence[int]) -> str:
    return "u%d" % level if widths[level - 1] == 1 else "u%d_%d" % (level, index + 1)


def formula_text(A: Blocks, l: List[np.ndarray], widths: Sequence[int]) -> str:
    """The quadratic written out monomial by monomial in the formula language.

    Terms follow ``quadratic_to_expr``'s order: the sorted coefficient blocks
    row by row, squares for repeated variables, then the linear parts.
    """
    terms: List[Tuple[float, str]] = []
    for (j, k), M in sorted(A.items()):
        if j == k:
            M = 0.5 * (M + M.T)
        for r in range(M.shape[0]):
            for c in range(M.shape[1]):
                a, b = _var(j, r, widths), _var(k, c, widths)
                mono = "%s^2" % a if a == b else "%s*%s" % (a, b)
                terms.append((float(M[r, c]), mono))
    for lev, vec in enumerate(l, start=1):
        for i, coef in enumerate(vec):
            terms.append((float(coef), _var(lev, i, widths)))
    parts = []
    for coef, mono in terms:
        if coef == 0.0:
            continue
        body = "%r*%s" % (abs(coef), mono)
        if not parts:
            parts.append(body if coef > 0 else "-" + body)
        else:
            parts.append(("+ " if coef > 0 else "- ") + body)
    return " ".join(parts) or "0"


def _document(widths: Sequence[int], objectives: List[dict],
              A: Optional[np.ndarray] = None, b: Optional[np.ndarray] = None) -> str:
    doc = {"levels": len(widths), "dims": list(widths), "objectives": objectives}
    if A is not None:
        offs = np.concatenate([[0], np.cumsum(widths)])
        doc["constraints"] = {
            "A": [A[:, offs[i]:offs[i + 1]].tolist() for i in range(len(widths))],
            "b": b.tolist(),
        }
    return json.dumps(doc, sort_keys=True)


def _label(prefix: str, widths: Sequence[int]) -> str:
    return "%s(%s)" % (prefix, ",".join(str(w) for w in widths))


def quadratic_game(rng: np.random.Generator, widths: Sequence[int]) -> Game:
    objs = convex_objectives(rng, widths)
    text = _document(widths, [_quadratic_doc(A, l) for A, l in objs])
    A1, l1 = objs[0]
    return Game(_label("q", widths), tuple(widths), text,
                full_hessian(A1, widths), np.concatenate(l1))


def expression_game(rng: np.random.Generator, widths: Sequence[int],
                    expr_levels: Sequence[int]) -> Game:
    """Quadratic game with the objectives of ``expr_levels`` written as formulas."""
    objs = convex_objectives(rng, widths)
    docs = []
    for lev, (A, l) in enumerate(objs, start=1):
        if lev in expr_levels:
            docs.append({"type": "expr", "formula": formula_text(A, l, widths)})
        else:
            docs.append(_quadratic_doc(A, l))
    A1, l1 = objs[0]
    prefix = "e" if len(expr_levels) == len(widths) else "m"
    return Game(_label(prefix, widths), tuple(widths), _document(widths, docs),
                full_hessian(A1, widths), np.concatenate(l1))


def constrained_game(rng: np.random.Generator, widths: Sequence[int],
                     cuts: int, family_draws: int) -> Game:
    """Quadratic game with box rows plus ``cuts`` cutting rows.

    The rows are built around a drawn centre point p: every box row and every
    cut keeps p strictly inside, so the polytope is never empty.  The box is
    narrow enough that the team optimum usually lies on its boundary.
    """
    objs = convex_objectives(rng, widths)
    N = int(sum(widths))
    p = rng.uniform(-1.0, 1.0, N)
    half = rng.uniform(0.5, 1.5, N)
    rows = [np.eye(N), -np.eye(N)]
    rhs = [p + half, -(p - half)]
    C = rng.standard_normal((cuts, N))
    C /= np.linalg.norm(C, axis=1, keepdims=True)
    rows.append(C)
    rhs.append(C @ p + rng.uniform(0.2, 0.8, cuts))
    A = np.vstack(rows)
    b = np.concatenate(rhs)
    text = _document(widths, [_quadratic_doc(Ab, l) for Ab, l in objs], A, b)
    A1, l1 = objs[0]
    return Game(_label("c", widths) + "k%d" % A.shape[0], tuple(widths), text,
                full_hessian(A1, widths), np.concatenate(l1), A, b, p,
                family_draws, int(rng.integers(2**31)))


README_GAME = """\
{
  "levels": 3,
  "dims": [1, 1, 1],
  "objectives": [
    {"type": "quadratic",
     "A": {"1,1": [[1]], "2,2": [[1]], "3,3": [[1]]},
     "l": [[-4], [-2], [-6]],
     "c": 14},
    {"type": "quadratic",
     "A": {"1,1": [[1]], "2,2": [[1]], "3,3": [[1]]},
     "l": [[-2], [0], [0]],
     "c": 1},
    {"type": "expr", "formula": "u1^2 + (u2 - 2)^2 + u3^2"}
  ]
}
"""


def readme_game() -> Game:
    """The three-level example of the README (without its constraint row)."""
    H = 2.0 * np.eye(3)
    return Game("readme", (1, 1, 1), README_GAME, H, np.array([-4.0, -2.0, -6.0]))
