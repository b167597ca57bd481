"""Gradients, Hessians, and convexity probes for game objectives.

Each objective type computes its own analytic derivatives (``model``);
:func:`gradient` and :func:`hessian` are the entry points the package calls.
"""

from __future__ import annotations

import numpy as np

from .model import DecisionPoint, Objective

__all__ = [
    "gradient",
    "hessian",
    "strict_convexity_probe",
]

# Shift applied to the Hessian diagonal before the Cholesky attempt: the
# probe certifies a minimum eigenvalue strictly above this.
CONVEXITY_TOL = 1e-9


def gradient(obj: Objective, p: DecisionPoint) -> DecisionPoint:
    """Analytic gradient of an objective at ``p``, split into level blocks."""
    return obj.gradient(p)


def hessian(obj: Objective, p: DecisionPoint) -> np.ndarray:
    """Full (symmetric) Hessian over the concatenated decision vector."""
    return obj.hessian(p)


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
