"""Gradients, Hessians, and convexity probes for game objectives.

Analytic derivatives: H x + l for quadratics, and the partial
derivative polynomials of the compiled form for expressions.  A central
finite-difference gradient is kept alongside as an independent cross-check
oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .model import (
    DecisionPoint,
    ExprObjective,
    Objective,
    QuadraticObjective,
    evaluate,
)

__all__ = [
    "gradient",
    "fd_gradient",
    "hessian",
    "strict_convexity_probe",
]

# Shift applied to the Hessian diagonal before the Cholesky attempt: the
# probe certifies a minimum eigenvalue strictly above this.
CONVEXITY_TOL = 1e-9
# The finite-difference step at coordinate i is FD_STEP * (1 + |p_i|).
FD_STEP = 1e-6


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def gradient(obj: Objective, p: DecisionPoint) -> DecisionPoint:
    """Analytic gradient of an objective at ``p``, split into level blocks."""
    if isinstance(obj, QuadraticObjective):
        if obj.widths != p.widths:
            raise DimensionError(
                "objective has block widths %s, point has %s" % (obj.widths, p.widths))
        return DecisionPoint.from_concat(p.widths, obj.H @ p.concat() + obj.l)
    if isinstance(obj, ExprObjective):
        g = [np.zeros(b.size) for b in p.blocks]
        for (level, index), d in zip(obj.poly.keys, obj.poly.derivatives[0]):
            # evaluated first: a key outside p raises DimensionError
            g[level - 1][index - 1] = d(p.blocks)
        return DecisionPoint(tuple(g))
    raise TypeError("not an objective: %r" % (obj,))


def fd_gradient(obj: Objective, p: DecisionPoint) -> DecisionPoint:
    """Central finite differences with per-coordinate step ``FD_STEP * (1 + |p_i|)``."""
    flat = p.concat()
    widths = p.widths
    g = np.empty(flat.size)
    for i in range(flat.size):
        step = FD_STEP * (1.0 + abs(flat[i]))
        fwd = flat.copy()
        bwd = flat.copy()
        fwd[i] += step
        bwd[i] -= step
        f1 = evaluate(obj, DecisionPoint.from_concat(widths, fwd))
        f0 = evaluate(obj, DecisionPoint.from_concat(widths, bwd))
        g[i] = (f1 - f0) / (2.0 * step)
    return DecisionPoint.from_concat(widths, g)


# ---------------------------------------------------------------------------
# Hessians and convexity
# ---------------------------------------------------------------------------

def hessian(obj: Objective, p: DecisionPoint) -> np.ndarray:
    """Full (symmetric) Hessian over the concatenated decision vector.

    A quadratic's is its stored, read-only ``H``.
    """
    if isinstance(obj, QuadraticObjective):
        return obj.H
    if isinstance(obj, ExprObjective):
        keys, (_, second) = obj.poly.keys, obj.poly.derivatives
        values = {ab: d(p.blocks) for ab, d in second.items()}
        coords = [(lev, i + 1) for lev, b in enumerate(p.blocks, start=1) for i in range(b.size)]
        at = {key: k for k, key in enumerate(coords)}
        H = np.zeros((len(at), len(at)))
        for (a, b), value in values.items():
            H[at[keys[a]], at[keys[b]]] = H[at[keys[b]], at[keys[a]]] = value
        return H
    raise TypeError("not an objective: %r" % (obj,))


def strict_convexity_probe(obj: Objective, p: DecisionPoint) -> str:
    """'certified' iff the Hessian at ``p`` has minimum eigenvalue > ``CONVEXITY_TOL``.

    Implemented as an attempted Cholesky factorization of ``H - CONVEXITY_TOL*I``;
    'not-certified' covers indefinite, semidefinite, and borderline cases.
    """
    H = hessian(obj, p)
    try:
        np.linalg.cholesky(H - CONVEXITY_TOL * np.eye(H.shape[0]))
        return "certified"
    except np.linalg.LinAlgError:
        return "not-certified"
