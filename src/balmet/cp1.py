"""The three operator maps T, T_nu, T_K on diagonal metrics over CP^1.

Writing P(x) = sum_i a_i x^i for x = |z|^2, one application computes

    T:    a_q -> Int rho(x) dx / ((k+1) Int rho(x) x^q / P(x) dx)
    T_nu: a_q -> 1 / ((k+1) Int x^q / ((1+x)^2 P(x)) dx)
    T_K:  a_q -> Int P^(-2/k) dx / ((k+1) Int P^(-1-2/k) x^q dx),  k even

where rho(x) = sum_{i>j} a_i a_j (i-j)^2 x^(i+j-1) / P(x)^2 is the radial
density of the induced Fubini-Study form.

All integrals are taken over (0,infinity) via the graded substitution
x = (t/(1-t))^3, under which every integrand above becomes an analytic
function on [0,1] built from powers of t and 1-t and the homogenized
polynomial Q(t) = sum_i a_i t^(3i) (1-t)^(3(k-i)).  Cubic grading keeps the
boundary layers of badly scaled metrics (coefficient ratios of 1e10) well
inside the node range; the operator then certifies at modest node counts.

None of these powers depends on the metric.  For a stack of rules with the
node counts ``nodes`` (``stack_rules``), the cached, read-only table
``_rows(d, nodes)`` holds t^(3j) (1-t)^(3(d-j)), j = 0..d, at each rule's
nodes, and ``_node_weights(nodes)`` the rows w0 = w 3t^2 (1-t)^2 and the
T_nu factor 1/(t^3+(1-t)^3)^2.  With a scaled by amax = max a_i,
Q = a @ _rows(k, nodes), and as W_q = 3t^2 (1-t)^2 row_q, the k+1 densities
of a rule are one product dens = _rows(k, nodes) @ (w0 f(Q)), for T with
f = S/Q^3, S = c @ _rows(2k-2, nodes) and
c_s = sum_{i+j-1=s, i>j} a_i a_j (i-j)^2.  Only they are certified: each
numerator is a @ dens, and is taken as 1 for T_nu, k for T (rho = (x P'/P)'
has mass k, and a @ dens is checked against it) and a @ dens for T_K.
An application certifies from the first pair of its ladder at least, so
``quadrature.fuse_first_pair`` forms both levels in its first call: one Q,
one f and one product over a stack of the two rules, the coarser padded by
nodes of weight 0; every later rung is a stack of one.  Each stack reads its
tables from the caches above (``_levels``), and the degree is checked on
every call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import MetricError, QuadratureError
from .metrics import DiagonalMetric, as_cp1_metric
from .quadrature import (
    DEFAULT_APPLY_TOL,
    LADDERS,
    fuse_first_pair,
    gauss_legendre_unit,
    refine_by_doubling,
    stack_rules,
)

__all__ = [
    "OperatorKind",
    "DensityProfile",
    "apply_T",
    "apply_Tnu",
    "apply_TK",
    "apply_operator",
    "density_profile",
]

# Grading exponent of the substitution dedicated to the operator integrands.
_P = 3


class OperatorKind(enum.Enum):
    """Which of the three maps to apply.  T_K needs even degree (L^k = K^-p)."""

    T = "T"
    TNU = "Tnu"
    TK = "TK"

    @classmethod
    def parse(cls, name: "OperatorKind | str") -> "OperatorKind":
        """The kind named by ``name`` (case and underscores ignored); a kind
        is returned unchanged."""
        if isinstance(name, cls):
            return name
        key = name.strip().lower().replace("_", "") if isinstance(name, str) else None
        for kind in cls:
            if kind.value.lower() == key:
                return kind
        raise ValueError(f"unknown operator {name!r}; expected one of T, Tnu, TK")

    def validate_degree(self, k: int) -> None:
        if k < 0:
            raise MetricError(f"degree k must be >= 0, got k={k}")
        if self is OperatorKind.T and k < 1:
            raise MetricError("T is undefined for k=0 (its numerator vanishes)")
        if self is OperatorKind.TK and (k < 2 or k % 2 != 0):
            raise MetricError(f"T_K requires even degree k >= 2, got k={k}")


@lru_cache(maxsize=128)
def _rows(d: int, nodes: tuple[int, ...]) -> np.ndarray:
    """Rows t^(3j) (1-t)^(3(d-j)), j = 0..d, of each rule of the stack with
    the node counts ``nodes``, (len(nodes), d+1, max(nodes)) (read-only).
    A cp1-sweep benchmark run builds 62 of these tables, pairs and the rungs
    its known-limit starts walk to the cap included; an LRU cache smaller
    than a cyclic working set misses on every call."""
    t, omt, _ = stack_rules(gauss_legendre_unit(c) for c in nodes)
    j = np.arange(d + 1)[:, None]
    rows = t[:, None, :] ** (_P * j) * omt[:, None, :] ** (_P * (d - j))
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=64)
def _node_weights(nodes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Weight rows w 3t^2 (1-t)^2 and T_nu factors of each rule of the stack
    with the node counts ``nodes`` (read-only)."""
    t, omt, w = stack_rules(gauss_legendre_unit(c) for c in nodes)
    w0, nu = w * (3.0 * t**2 * omt**2), 1.0 / (t**_P + omt**_P) ** 2
    w0.flags.writeable = nu.flags.writeable = False
    return w0, nu


@lru_cache(maxsize=64)
def _pairs(size: int) -> tuple[np.ndarray, ...]:
    """Index pairs i > j below size as (i, j, i+j-1, (i-j)^2) (read-only)."""
    i, j = np.tril_indices(size, -1)
    pairs = (i, j, i + j - 1, (i - j) ** 2)
    for p in pairs:
        p.flags.writeable = False
    return pairs


def _density_coeffs(a: np.ndarray) -> np.ndarray:
    """c_s, s = 0..2k-2, with sum_{i>j} a_i a_j (i-j)^2 x^(i+j-1) = sum_s c_s x^s."""
    i, j, s, d2 = _pairs(a.size)
    return np.bincount(s, weights=a[i] * a[j] * d2)


def _levels(kind: OperatorKind, k: int, ah: np.ndarray, c, nodes: tuple[int, ...]) -> np.ndarray:
    """dens_0, ..., dens_k of each rule of the stack with the node counts
    nodes, one row per rule, for the coefficients ah (max 1) and, for T,
    their c_s."""
    w0, nu = _node_weights(nodes)
    rows = _rows(k, nodes)
    Q = ah @ rows
    if kind is OperatorKind.TNU:
        f = nu / Q  # t^3 + (1-t)^3 homogenizes 1+x
    elif kind is OperatorKind.T:
        f = c @ _rows(2 * k - 2, nodes) / Q / Q / Q  # S/Q^3 in steps: Q^3 can underflow
    else:
        f = np.exp((-2.0 / k) * np.log(Q)) / Q  # fractional power of the positive Q
    x = w0 * f
    return (rows @ x[..., None])[..., 0]


def apply_operator(kind: OperatorKind | str, g, tol: float = DEFAULT_APPLY_TOL) -> DiagonalMetric:
    """One application of the map ``kind`` (an OperatorKind or its name)."""
    kind = OperatorKind.parse(kind)
    g = as_cp1_metric(g)
    k = g.k
    kind.validate_degree(k)
    coeffs = g.coeffs.tolist()  # few: Python's min and max beat numpy's reductions
    amax = max(coeffs)
    ah = g.coeffs / amax
    c = _density_coeffs(ah) if kind is OperatorKind.T else None
    ladder = LADDERS[1]
    evaluate = fuse_first_pair(partial(_levels, kind, k, ah, c), ladder)
    try:
        # Q >= min(ah) 8^-k at every node, and from 1e-90 on no f can leave
        # floating-point range.  Below, Q may underflow: numpy raises there
        # instead of warning (errstate costs ~4 us an application, so only there)
        if min(coeffs) / amax * 0.125 ** k >= 1e-90:
            dens, _ = refine_by_doubling(evaluate, tol, ladder)
        else:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                dens, _ = refine_by_doubling(evaluate, tol, ladder)
        # Int dx/(1+x)^2 = 1, Int rho dx = k as rho = (x P'/P)', Int P^(-2/k) dx = a @ dens
        mass = 1.0 if kind is OperatorKind.TNU else float(ah @ dens)
        if kind is OperatorKind.T and abs(mass / k - 1.0) > tol:  # a peak of rho out of reach
            raise QuadratureError(
                f"density mass {mass:.6g} != k: the rule misses part of rho"
                f" (coefficient spread max a / min a = {amax / min(coeffs):.3g})",
                best=dens)
        num = k if kind is OperatorKind.T else mass
        return DiagonalMetric.image(amax * num, (k + 1) * dens)
    except FloatingPointError:
        raise QuadratureError(
            f"{kind.value}, n=1, k={k}: the integrands leave floating-point range"
            f" (coefficient spread max a / min a = {amax / min(coeffs):.3g})") from None
    except QuadratureError as exc:
        exc.args = (f"{kind.value}, n=1, k={k}: {exc}",)
        raise


def apply_T(g, tol: float = DEFAULT_APPLY_TOL) -> DiagonalMetric:
    """One application of the metric-volume-form map T.  Requires k >= 1."""
    return apply_operator(OperatorKind.T, g, tol)


def apply_Tnu(g, tol: float = DEFAULT_APPLY_TOL) -> DiagonalMetric:
    """One application of the fixed-volume-form map T_nu (reference form on CP^1)."""
    return apply_operator(OperatorKind.TNU, g, tol)


def apply_TK(g, tol: float = DEFAULT_APPLY_TOL) -> DiagonalMetric:
    """One application of the canonical-volume-form map T_K.  Requires even k >= 2."""
    return apply_operator(OperatorKind.TK, g, tol)


@dataclass(frozen=True)
class DensityProfile:
    """Sampled radial density rho(x) of the Fubini-Study form, x = |z|^2."""

    x: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, float))
        object.__setattr__(self, "rho", np.asarray(self.rho, float))
        if self.x.shape != self.rho.shape or self.x.ndim != 1:
            raise ValueError("x and rho must be matching 1-d arrays")


def density_profile(g, xs) -> DensityProfile:
    """Evaluate rho(x) = sum_{i>j} a_i a_j (i-j)^2 x^(i+j-1) / P(x)^2 pointwise.

    rho is invariant under uniform rescaling of the metric; coefficients are
    normalized by their maximum before evaluation.  The sums are formed at
    x <= 1 only, where no power exceeds 1: beyond, the reversal identity
    rho_g(x) = rho_{rev g}(1/x) / x^2 is used, and each division is taken
    apart (as T does with S/Q^3) so that nothing leaves floating range early.
    """
    g = as_cp1_metric(g)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("sample points must form a non-empty 1-d array")
    if not np.all(np.isfinite(xs)) or np.any(xs <= 0.0):
        raise ValueError("sample points must be finite and positive")
    ah = g.coeffs / np.max(g.coeffs)
    rho = np.empty_like(xs)
    far = xs > 1.0
    rho[~far] = _unit_density(ah, xs[~far])
    rho[far] = _unit_density(ah[::-1], 1.0 / xs[far]) / xs[far] / xs[far]
    return DensityProfile(xs, rho)


def _unit_density(ah: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """rho(x) of the coefficients ah (max 1) at points 0 < x <= 1."""
    P = np.zeros_like(xs)
    for i, a in enumerate(ah):
        P += a * xs**i
    num = np.zeros_like(xs)
    for s, cs in enumerate(_density_coeffs(ah)):
        num += cs * xs**s
    return num / P / P
