"""Exception types shared across the package.

Every failure the library raises on purpose derives from RevstackError so
callers (and the CLI exit-code mapping) can tell deliberate refusals from
genuine bugs.
"""

from __future__ import annotations

from contextlib import contextmanager


class RevstackError(Exception):
    """Base class for all structured errors raised by this package."""


class DimensionError(RevstackError):
    """Shapes, level counts, or block widths do not line up."""


class EquilibriumError(RevstackError):
    """Team-optimum computation failed (wrong objective kind, bad setup)."""


class NonUniqueOptimumError(EquilibriumError):
    """The stationarity system is singular: no unique team optimum."""


class NotMinimumError(EquilibriumError):
    """The stationary point is not a minimum (Hessian not positive definite)."""


class ConvergenceError(EquilibriumError):
    """Descent stopped short of a stationary point."""


class InfeasibleError(EquilibriumError):
    """The constraint set admits no feasible point."""


class ExistenceError(RevstackError):
    """A gradient-based existence condition failed.  Carries the verdict."""

    def __init__(self, message, verdict=None, level=None):
        super().__init__(message)
        self.verdict = verdict
        self.level = level


@contextmanager
def stage_errors(s: int):
    """Prefix a RevstackError raised while cascade stage ``s`` is built or checked.

    An ExistenceError stays one, with its verdict and ``level = s``.
    """
    where = "stage %d (announcing level %d): " % (s, s)
    try:
        yield
    except ExistenceError as err:
        raise ExistenceError(where + str(err), verdict=err.verdict, level=s) from None
    except RevstackError as err:
        raise RevstackError(where + str(err)) from None


class UnboundedRegionError(RevstackError):
    """A feasibility LP is unbounded: the rows leave a lower-level variable free."""


class DocumentError(RevstackError):
    """A problem or strategy document could not be understood.

    ``line``/``column`` locate the failure for JSON-level errors; ``where``
    is a path such as ``objectives[1].l`` for structural errors.
    """

    def __init__(self, message, line=None, column=None, where=None):
        super().__init__(message)
        self.line = line
        self.column = column
        self.where = where

    def __str__(self):
        base = super().__str__()
        if self.line is not None:
            base = "line %d, column %d: %s" % (self.line, self.column or 0, base)
        if self.where:
            base = "%s: %s" % (self.where, base)
        return base


class DocumentSyntaxError(DocumentError):
    """The document text is not syntactically valid."""


class FormulaError(DocumentError):
    """An objective formula is malformed.  ``column`` is the offset."""


class UnknownVariableError(DocumentError):
    """A formula references a variable outside the declared hierarchy."""
