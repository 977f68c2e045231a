"""Deterministic Gauss-Legendre quadrature on (0,1), certified on a node ladder.

This is the one quadrature engine of the package: ``gauss_legendre_unit``
builds the rule and ``refine_by_doubling`` certifies a batch of integrals.
The operator maps in ``cp1`` and ``cpn`` map their domains onto (0,1) or the
unit box themselves; ``integrate_semi_infinite`` does the same for a single
integrand over (0,infinity).

Node/weight tables are computed in theta space (x = cos theta), which yields
the node t and its complement 1-t each to full *relative* precision.  That
matters here: the operator integrands take high powers of both t and 1-t, and
forming 1-t by subtraction caps attainable accuracy near 1e-10 for
ill-scaled metrics.

Accuracy is certified a posteriori by walking a ladder of node counts until
two consecutive rules agree to the requested relative tolerance.  All
reductions use numpy's pairwise summation over a fixed node order, so results
are bit-reproducible across runs and thread counts.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache

import numpy as np

from .errors import QuadratureError

__all__ = [
    "gauss_legendre_unit",
    "integrate_semi_infinite",
    "refine_by_doubling",
    "stack_rules",
    "fuse_first_pair",
    "LADDERS",
    "DEFAULT_APPLY_TOL",
]

# Node counts per axis that the operator maps walk, by dimension; the last
# rung is the cap.  Gauss-Legendre rules are not nested, so doubling would
# reuse no node: it would only let the certified level overshoot the first
# accurate one by up to 4x, where a CP^n level costs m^n.  Two rules a step of
# about 1.5 apart still bound the coarser one's error (under geometric
# convergence the finer one is better still), so they certify as
# conservatively, at no more than about 2.25x the first accurate level.  CP^1
# takes 64/128 as its first pair: a level is almost free there, and calls
# cost more than nodes.  CP^2 takes 24/36, the lowest such pair that
# certifies orbits as they near the round metric (where D is constant):
# along 40-step orbits from 40 generic starts (offsets of +-0.4, k = 2..5)
# its levels agree to 1.9e-15 at worst, where 16/24 disagree by up to
# 1.9e-10 at k=5.  Every map forms its first pair in one call
# (``fuse_first_pair``).
LADDERS = {1: (64, 128, 192, 288, 432, 648, 972, 1458, 2048),
           2: (24, 36, 54, 81, 122, 182, 273, 410, 512),
           3: (12, 18, 27, 40, 60, 90, 135, 192)}
DEFAULT_APPLY_TOL = 1e-11  # relative tolerance of one operator application

_TINY = np.finfo(float).tiny


def _legendre_pair(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_m(x), P_{m-1}(x) by the three-term recurrence, vectorized over x."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for j in range(2, m + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, p_prev


@lru_cache(maxsize=64)
def gauss_legendre_unit(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on (0,1): nodes t, complements 1-t, weights.

    Nodes are found by Newton iteration on P_m(cos theta) in theta space, so
    t = cos^2(theta/2) and 1-t = sin^2(theta/2) are both accurate to machine
    relative precision (no cancellation near the endpoints).  Weights sum to 1.
    """
    if m < 1:
        raise ValueError("node count must be >= 1")
    j = np.arange(1, m + 1)
    theta = np.pi * (4 * j - 1) / (4 * m + 2)
    for _ in range(5):
        x = np.cos(theta)
        pm, pm1 = _legendre_pair(m, x)
        s = np.sin(theta)
        # d/dtheta P_m(cos theta) = -m (P_{m-1} - x P_m) / sin(theta)
        theta = theta + pm * s / (m * (pm1 - x * pm))
    x = np.cos(theta)
    pm, pm1 = _legendre_pair(m, x)
    s = np.sin(theta)
    w = 2.0 * (s / (m * (pm1 - x * pm))) ** 2 * 0.5  # already divided by 2 for (0,1)
    order = np.argsort(np.cos(theta / 2.0) ** 2)
    t = (np.cos(theta / 2.0) ** 2)[order]
    omt = (np.sin(theta / 2.0) ** 2)[order]
    w = w[order]
    for a in (t, omt, w):
        a.flags.writeable = False
    return t, omt, w


def refine_by_doubling(
    evaluate: Callable[[int], np.ndarray],
    rel_tol: float,
    ladder: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Walk the node counts of ``ladder`` until two consecutive evaluations agree.

    ``evaluate(m)`` must return a 1-d float array of integrals with m nodes
    per axis (used as is).  Returns (values, disagreement) from the finer
    level; raises QuadratureError carrying the best estimate at the last rung.
    A NaN or an infinity never certifies, so finiteness is checked only once
    two levels disagree; the error then names the first non-finite rung.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    prev = evaluate(ladder[0])
    err = None
    for m in ladder[1:]:
        cur = evaluate(m)
        err = np.subtract(cur, prev)
        np.divide(np.abs(err, out=err), np.maximum(np.abs(cur), _TINY), out=err)
        if np.maximum.reduce(err) <= rel_tol:  # NaN if any is: a NaN never certifies
            return cur, err
        if m == ladder[1] and not np.isfinite(prev).all():
            raise QuadratureError(f"non-finite integral estimate at m={ladder[0]}")
        if not np.isfinite(cur).all():
            raise QuadratureError(f"non-finite integral estimate at m={m}", best=prev)
        prev = cur
    raise QuadratureError(
        f"no convergence to rel_tol={rel_tol:g} within node cap {ladder[-1]}"
        f" (last disagreement {np.max(err) if err is not None else np.nan:.3e})",
        best=prev,
    )


def stack_rules(rules) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes t, complements 1-t and weights of ``rules`` (each as
    ``gauss_legendre_unit`` returns it), stacked on a leading axis.  Each rule
    is padded to the largest node count by nodes t = 1-t = 1/2 of weight 0:
    an integrand stays finite there and adds exact zeros."""
    parts = list(zip(*rules))
    m = max(t.size for t in parts[0])
    return tuple(np.array([np.pad(a, (0, m - a.size), constant_values=value) for a in part])
                 for part, value in zip(parts, (0.5, 0.5, 0.0)))


def fuse_first_pair(levels: Callable, ladder: tuple[int, ...]) -> Callable[[int], np.ndarray]:
    """``evaluate`` for ``refine_by_doubling`` on ``ladder``, from
    ``levels(nodes)``, the levels of the node counts ``nodes`` formed at once:
    the call at ladder[0] forms the first pair and hands ladder[1] back on
    the next call; every later rung is formed on its own."""
    handed = {}

    def evaluate(m: int) -> np.ndarray:
        if m in handed:
            return handed.pop(m)
        if m != ladder[0]:
            return levels((m,))[0]
        coarse, handed[ladder[1]] = levels(ladder[:2])
        return coarse

    return evaluate


def integrate_semi_infinite(f: Callable, rel_tol: float = 1e-11) -> tuple[float, float]:
    """Integrate f over (0,infinity) to a certified relative tolerance.

    The half line is mapped onto (0,1) by x = t/(1-t) and integrated with
    ``gauss_legendre_unit`` nodes, certified by ``refine_by_doubling`` on
    the CP^1 ladder.  f receives a 1-d array of x values and must
    return one value per point.  Returns (value, err_est) where err_est is the
    relative disagreement of the final two node counts.  The integrand must
    decay algebraically; it is evaluated at mapped Gauss-Legendre nodes, never
    at 0 or infinity.
    """

    def evaluate(m: int) -> np.ndarray:
        t, omt, w = gauss_legendre_unit(m)
        x = t / omt
        vals = np.asarray(f(x), dtype=float)
        if vals.shape != x.shape:
            raise ValueError(f"integrand returned shape {vals.shape}, expected {x.shape}")
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("integrand returned non-finite values")
        return np.array([np.sum(vals * (w / omt**2))])

    values, err = refine_by_doubling(evaluate, rel_tol, LADDERS[1])
    return float(values[0]), float(err[0])
