"""Metrics with diagonal Hermitian matrices: the coefficient vectors the maps act on.

A metric is stored as a positive coefficient vector; the underlying Hermitian
matrix is diagonal with entries 1/a_i.  ``DiagonalMetric`` holds
(a_0, ..., a_k) for degree k over the projective line, ``MultiIndexMetric``
one coefficient per monomial of a basis over CP^n.  Both expose ``coeffs``,
the degree ``k`` and the dimension ``n``, and both build an operator map's
image through one checked constructor, ``image``.  Geometry on the space of
such metrics is flat in log coordinates: the geodesic distance between A and
B is the Euclidean norm of log(b_i/a_i).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb, isnan
from typing import TYPE_CHECKING

import numpy as np

from .errors import MetricError, QuadratureError

if TYPE_CHECKING:
    from .cpn import MonomialBasis

__all__ = [
    "DiagonalMetric",
    "MultiIndexMetric",
    "BalancedFamily",
    "as_metric",
    "as_cp1_metric",
    "distance",
    "scale",
    "reverse",
    "is_palindromic",
    "balanced_coeffs",
    "predict_balanced_direction_k2",
    "trace_relation",
]


def _validated_coeffs(values) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise MetricError("coefficients must form a non-empty 1-d sequence")
    if not np.isfinite(a).all():
        raise MetricError("coefficients must be finite")
    if not (a > 0.0).all():
        raise MetricError("coefficients must be strictly positive")
    a = a.copy()
    a.flags.writeable = False
    return a


class _Metric:
    """What both metric types share: equality, and the wrap of a map's image."""

    def __eq__(self, other) -> bool:
        """Same type, same basis (or length) and equal coefficients."""
        if not isinstance(other, type(self)):
            return NotImplemented
        mine, theirs = dict(vars(self)), dict(vars(other))
        return np.array_equal(mine.pop("coeffs"), theirs.pop("coeffs")) and mine == theirs

    @classmethod
    def image(cls, numerator: float, integrals: np.ndarray, **fields):
        """The metric with coefficients numerator / integrals, the image of an
        operator map, and ``fields`` (a MultiIndexMetric's basis).

        The quotients are checked once, to be finite and positive: correctly
        rounded division is monotone, so the quotients by the extreme
        integrals (in Python floats) bound all others, and an image out of
        floating-point range raises QuadratureError before numpy divides,
        without an overflow warning.  Python's min and max skip a NaN after
        the first value, so a NaN is caught by the sum.  The quotients are
        then made read-only and wrapped without validating them again.
        """
        values = integrals.tolist()  # few: Python's reductions beat numpy's
        lo, hi = min(values), max(values)
        if not (lo > 0.0 and numerator / hi > 0.0 and numerator / lo < np.inf
                and not isnan(sum(values))):
            raise QuadratureError("the image of a valid metric leaves floating-point range",
                                  best=integrals)
        coeffs = numerator / integrals
        coeffs.flags.writeable = False
        g = object.__new__(cls)
        vars(g).update(fields, coeffs=coeffs)  # frozen: past __setattr__
        return g


@dataclass(frozen=True, eq=False)
class DiagonalMetric(_Metric):
    """Positive coefficients (a_0, ..., a_k) of a diagonal metric of degree k."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _validated_coeffs(self.coeffs))

    @property
    def k(self) -> int:
        return self.coeffs.size - 1

    @property
    def n(self) -> int:
        return 1

    def __len__(self) -> int:
        return self.coeffs.size

    def __getitem__(self, q: int) -> float:
        return float(self.coeffs[q])

    def __repr__(self) -> str:
        vals = ", ".join(f"{v:g}" for v in self.coeffs)
        return f"DiagonalMetric(({vals}))"


@dataclass(frozen=True, eq=False)
class MultiIndexMetric(_Metric):
    """Positive coefficients a_i indexed by a monomial basis (matrix diag 1/a_i)."""

    basis: MonomialBasis
    coeffs: np.ndarray

    def __post_init__(self):
        a = _validated_coeffs(self.coeffs)
        if a.shape != (self.basis.size,):
            raise MetricError(
                f"expected {self.basis.size} coefficients, got shape {a.shape}"
            )
        object.__setattr__(self, "coeffs", a)

    @property
    def k(self) -> int:
        return self.basis.k

    @property
    def n(self) -> int:
        return self.basis.n


def as_metric(g) -> DiagonalMetric | MultiIndexMetric:
    """Pass either metric type through; coerce a coefficient sequence to a
    validated DiagonalMetric."""
    if isinstance(g, _Metric):
        return g
    return DiagonalMetric(np.asarray(g, float))


def as_cp1_metric(g) -> DiagonalMetric:
    """``as_metric`` restricted to what the CP^1 maps take: a DiagonalMetric or
    a coefficient sequence, not a MultiIndexMetric (even one over CP^1)."""
    if isinstance(g, MultiIndexMetric):
        raise MetricError("expected a DiagonalMetric, got a MultiIndexMetric"
                          f" on CP^{g.n}")
    return as_metric(g)


def _pair(a, b):
    a, b = as_metric(a), as_metric(b)
    if type(a) is not type(b) or (isinstance(a, MultiIndexMetric) and a.basis != b.basis):
        raise MetricError("metrics live on different bases")
    if a.k != b.k:
        raise MetricError(f"degree mismatch: {a.k} != {b.k}")
    return a, b


def distance(a, b) -> float:
    """Geodesic distance sqrt(sum_i log(b_i/a_i)^2) between metrics of the same
    type, degree and basis."""
    a, b = _pair(a, b)
    return float(np.sqrt(np.sum(np.log(b.coeffs / a.coeffs) ** 2)))


def scale(g, lam: float) -> DiagonalMetric | MultiIndexMetric:
    """Uniformly rescale all coefficients by lam > 0, keeping the metric type."""
    g = as_metric(g)
    if not np.isfinite(lam) or lam <= 0.0:
        raise MetricError(f"scale factor must be positive, got {lam!r}")
    return replace(g, coeffs=g.coeffs * lam)


def reverse(g) -> DiagonalMetric:
    """Coefficient reversal (a_0,...,a_k) -> (a_k,...,a_0), i.e. z -> 1/z."""
    g = as_cp1_metric(g)
    return replace(g, coeffs=g.coeffs[::-1])


def is_palindromic(g, tol: float = 1e-12) -> bool:
    """True when a_i matches a_{k-i} for all i, to relative tolerance tol.

    Iterates of an exactly palindromic start stay palindromic only up to
    quadrature error, hence the tolerance; tol=0 demands exact equality.
    """
    if not tol >= 0:  # NaN included
        raise ValueError(f"tol must be >= 0, got {tol}")
    a = as_cp1_metric(g).coeffs
    b = a[::-1]
    return bool(np.all(np.abs(a - b) <= tol * np.maximum(a, b)))


@dataclass(frozen=True)
class BalancedFamily:
    """The two-parameter family a_q = alpha * c^q * C(k,q), alpha, c > 0.

    Every member is fixed by the T and T_K maps; only c = 1 (the round
    metric) is fixed by T_nu.
    """

    k: int
    alpha: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if self.k < 0 or self.k != int(self.k):
            raise MetricError("degree k must be a nonnegative integer")
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise MetricError("alpha must be positive")
        if not (np.isfinite(self.c) and self.c > 0):
            raise MetricError("c must be positive")


def balanced_coeffs(family: BalancedFamily) -> DiagonalMetric:
    """Expand a BalancedFamily into its coefficient vector."""
    k = family.k
    coeffs = [family.alpha * family.c**q * comb(k, q) for q in range(k + 1)]
    return DiagonalMetric(np.array(coeffs))


def predict_balanced_direction_k2(g) -> DiagonalMetric:
    """Direction of the balanced limit of a degree-2 metric under T or T_K.

    The ratio a_2/a_0 is conserved by both maps at k = 2, which pins the
    limit to (a_0, 2*sqrt(a_0)*sqrt(a_2), a_2) up to overall scale (the product
    a_0*a_2 leaves floating-point range at scales the maps handle).
    """
    g = as_cp1_metric(g)
    if g.k != 2:
        raise MetricError(f"prediction requires degree 2, got k={g.k}")
    a0, _, a2 = g.coeffs
    return DiagonalMetric(np.array([a0, 2.0 * np.sqrt(a0) * np.sqrt(a2), a2]))


def trace_relation(g, g_next) -> float:
    """sum_i a_i / a~_i for metrics of the same type, degree and basis.

    Equals the number of coefficients (k+1 over CP^1), up to quadrature
    tolerance, whenever g_next is the image of g under any of the operator
    maps.
    """
    g, g_next = _pair(g, g_next)
    return float(np.sum(g.coeffs / g_next.coeffs))
