"""Exception types shared across the package."""

from __future__ import annotations

import numpy as np


class MetricError(ValueError):
    """Invalid metric data: wrong degree, non-positive or non-finite coefficients."""


class QuadratureError(RuntimeError):
    """Numerical integration failed to certify the requested tolerance.

    Carries the best available estimate so callers can inspect how far the
    refinement got before giving up.
    """

    def __init__(self, message: str, best: np.ndarray | None = None):
        super().__init__(message)
        self.best = best


class ConvergenceError(RuntimeError):
    """An iteration did not converge within its step budget."""

    def __init__(self, message: str, last=None, step_size: float | None = None):
        super().__init__(message)
        self.last = last
        self.step_size = step_size
