"""Iteration driver: trajectories, balanced limits, error series, convergence
ratios, and the conjectured distance envelope.

Starting from any diagonal metric, repeated application of one of the maps
converges linearly to a balanced metric B.  The per-step distance ratio tends
to a constant sigma depending only on the operator, the degree, and (for
T_nu) whether the start is palindromic; the distance at step r is observed to
stay below log(1 + exp(k*d) * sigma^r) with d the initial distance.  One
recorded orbit g0, F(g0), ... gives the trajectory: its prefix the iterates,
their errors (distances to B) and error ratios, its last item the limit B.
The step sizes s_r = d(g_r, g_{r+1}) decay like sigma^r too (asymptotically
s_r = (1 - sigma) err_r), so ``sigma_probe`` reads sigma off their ratios as
the orbit runs, with no limit; its err_floor (default 1e-8) bounds step
sizes, not errors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import count, islice, pairwise
from math import log, sqrt

import numpy as np

from . import cp1, cpn
from .errors import ConvergenceError, MetricError
from .metrics import MultiIndexMetric, as_metric, distance, is_palindromic, scale
from .metrics import predict_balanced_direction_k2
from .cp1 import OperatorKind
from .cpn import classify_symmetry, sigma_predict_cpn
from .quadrature import DEFAULT_APPLY_TOL

__all__ = [
    "NormalizationMode",
    "Trajectory",
    "apply_step",
    "iterate",
    "find_balanced",
    "build_trajectory",
    "coordinate_sigma_series",
    "sigma_closed_form",
    "sigma_law",
    "sigma_probe",
    "contraction_witness",
    "DEFAULT_CONV_TOL",
    "DEFAULT_MAX_ITER",
    "DEFAULT_ERR_FLOOR",
]

DEFAULT_CONV_TOL = 1e-13
DEFAULT_MAX_ITER = 2000
DEFAULT_ERR_FLOOR = 1e-8


class NormalizationMode(enum.Enum):
    """Scaling convention for displayed iterates and error computation.

    NONE leaves iterates raw.  BALANCED_FIRST rescales every iterate and the
    balanced limit by one common factor so the limit's first coefficient is 1
    (distances are unchanged).  FIRST_COEFF rescales each iterate by its own
    first coefficient (and the limit likewise) before measuring distance.
    """

    NONE = "none"
    BALANCED_FIRST = "balanced"
    FIRST_COEFF = "first"

    @classmethod
    def parse(cls, name: "NormalizationMode | str") -> "NormalizationMode":
        """The mode named by ``name`` (case ignored); a mode is returned as is."""
        if isinstance(name, cls):
            return name
        key = name.strip().lower() if isinstance(name, str) else None
        for mode in cls:
            if mode.value == key:
                return mode
        raise ValueError(f"unknown normalization {name!r}; "
                         f"expected none, balanced, or first")


def _first_normalized(g):
    return scale(g, 1.0 / float(g.coeffs[0]))


def _shape(g) -> np.ndarray:
    """The coefficients of _first_normalized(g), bit for bit, without building it."""
    return g.coeffs * (1.0 / g.coeffs[0])


def _log_distance(na: np.ndarray, nb: np.ndarray) -> float:
    """distance(a, b) for the coefficients na and nb of a and b."""
    return sqrt((np.log(nb / na) ** 2).sum())


def _domain(op, g):
    """(kind, metric) for op parsed and g coerced, once g is checked: a
    DiagonalMetric takes each map defined at its degree, a MultiIndexMetric
    only T_nu, and either needs n <= 3 (``cpn.check_dimension``)."""
    kind, g = OperatorKind.parse(op), as_metric(g)
    if not isinstance(g, MultiIndexMetric):
        kind.validate_degree(g.k)
    elif kind is not OperatorKind.TNU:
        raise MetricError("only the T_nu map is defined on CP^n metrics here")
    cpn.check_dimension(g.n)
    return kind, g


def apply_step(op, g, tol: float = DEFAULT_APPLY_TOL):
    """Apply one operator step, dispatching on the metric type.

    A MultiIndexMetric must pass ``_domain`` for the CP^n T_nu map; anything
    else goes through the CP^1 maps, which check their own degree.
    """
    if isinstance(g, MultiIndexMetric):
        _domain(op, g)
        return cpn.apply_Tnu_cpn(g, tol=tol)
    return cp1.apply_operator(op, g, tol=tol)


def _orbit(op, g0, tol: float):
    """Yield the orbit g0, F(g0), F^2(g0), ... without end.  Every application
    in this module runs here, after ``_domain`` checks g0 even for zero steps;
    a failing check or application gets its input's index as ``step_index``."""
    r = 0
    try:
        kind, g = _domain(op, g0)
        for r in count():
            yield g
            g = apply_step(kind, g, tol=tol)
    except Exception as exc:
        exc.step_index = r
        raise


def _check_distance_limit(name: str, value: float, allow_zero: bool = False) -> None:
    """Reject a run limit on distances outside (0, 1), or [0, 1) if allow_zero.
    Distances are in natural-log units: a limit of 1 (a factor e in some
    coefficient) or more is already met by the first steps of an ordinary
    orbit, so it locates no limit and leaves no error to measure."""
    above = value >= 0 if allow_zero else value > 0
    if above and value < 1:
        return
    if not above:
        rule = ">= 0" if allow_zero else "> 0"
    elif value == float("inf"):
        rule = "finite"
    else:
        rule = "< 1 (distances are in natural-log units)"
    raise ValueError(f"{name} must be {rule}, got {value}")


def _orbit_to_limit(op, g0, steps: int, conv_tol: float, max_iter: int,
                    tol: float) -> list:
    """The orbit [g0, ..., F^j(g0)] up to its balanced limit F^j(g0): the
    first item after F^steps(g0) that meets the ``find_balanced`` criterion,
    within max_iter further applications, and passes its degree-2 check."""
    if max_iter < 1:  # the criterion needs one measured step
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    _check_distance_limit("conv_tol", conv_tol)
    kind = OperatorKind.parse(op)
    orbit, shape = [], None
    step = float("inf")
    for r, g in enumerate(_orbit(kind, g0, tol)):
        if r > steps:  # each iterate normalized once, after its image exists
            last, shape = (_shape(orbit[-1]) if shape is None else shape), _shape(g)
            step = _log_distance(last, shape)
        orbit.append(g)
        if step < conv_tol:
            break
        if r - steps >= max_iter:
            raise ConvergenceError(
                f"{kind.value}, n={g.n}, k={g.k}: no balanced limit within {max_iter} iterations"
                f" (last step size {step:.3e})",
                last=g, step_size=step,
            )
    limit = orbit[-1]
    # T and T_K run on CP^1 metrics only (_domain rejects the rest)
    if limit.k == 2 and kind in (OperatorKind.T, OperatorKind.TK):
        predicted = _first_normalized(predict_balanced_direction_k2(orbit[0]))
        got = _first_normalized(limit)
        dev = float(np.max(np.abs(got.coeffs / predicted.coeffs - 1.0)))
        if dev > 1e-6:
            raise ConvergenceError(
                f"{kind.value}, n=1, k=2: degree-2 limit deviates from the conserved"
                f" direction by {dev:.3e}",
                last=limit, step_size=step,
            )
    return orbit


def iterate(op, g0, steps: int, tol: float = DEFAULT_APPLY_TOL) -> list:
    """The orbit [g0, F(g0), ..., F^steps(g0)].  A failing application's
    exception propagates with the index of its input as ``step_index``."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    return list(islice(_orbit(op, g0, tol), steps + 1))


def find_balanced(op, g0, conv_tol: float = DEFAULT_CONV_TOL,
                  max_iter: int = DEFAULT_MAX_ITER, tol: float = DEFAULT_APPLY_TOL):
    """Iterate the operator to numerical convergence; return the last iterate.

    Convergence is declared when successive first-coefficient-normalized
    iterates are closer than conv_tol.  For the degree-2 T and T_K maps the
    result is cross-checked against the closed-form limit direction
    (a_0, 2 sqrt(a_0 a_2), a_2), which those maps conserve.
    """
    return _orbit_to_limit(op, g0, 0, conv_tol, max_iter, tol)[-1]


@dataclass(frozen=True)
class Trajectory:
    """An operator orbit together with its distance-to-balanced bookkeeping.

    ``iterates`` are raw (un-normalized); ``err`` and ``bound`` follow the
    trajectory's normalization mode; ``sigma_tilde`` holds the successive
    error ratios err_{r+1}/err_r (NaN where the denominator is 0).
    """

    operator: str
    iterates: tuple
    balanced: object
    normalization: NormalizationMode
    err: tuple[float, ...]
    sigma_tilde: tuple[float, ...]
    bound: tuple[float, ...]
    sigma_predicted: float

    @property
    def steps(self) -> int:
        return len(self.iterates) - 1

    @cached_property
    def _shown(self) -> tuple:  # each iterate normalized once, however often shown
        return tuple(_normalize_against(g, self.balanced, self.normalization)
                     for g in self.iterates)

    def display_iterates(self) -> list:
        """Iterates under the trajectory's normalization convention."""
        return list(self._shown)

    def display_balanced(self):
        return _normalize_against(self.balanced, self.balanced, self.normalization)


def _normalize_against(g, balanced, mode: NormalizationMode):
    if mode is NormalizationMode.NONE:
        return g
    if mode is NormalizationMode.BALANCED_FIRST:
        return scale(g, 1.0 / float(balanced.coeffs[0]))
    return _first_normalized(g)


def _err_against(g, balanced, mode: NormalizationMode) -> float:
    if mode is NormalizationMode.FIRST_COEFF:
        return _log_distance(_shape(g), _shape(balanced))
    return distance(g, balanced)


def build_trajectory(op, g0, steps: int,
                     normalization: NormalizationMode | str = NormalizationMode.BALANCED_FIRST,
                     tol: float = DEFAULT_APPLY_TOL,
                     conv_tol: float = DEFAULT_CONV_TOL,
                     max_iter: int = DEFAULT_MAX_ITER) -> Trajectory:
    """Run ``steps`` applications and assemble the full Trajectory record.

    One orbit is recorded past the final step until it converges: its first
    ``steps + 1`` items are the iterates, its last item is the balanced limit,
    and every recorded error is measured against that limit.
    """
    normalization = NormalizationMode.parse(normalization)
    kind = OperatorKind.parse(op)
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    orbit = _orbit_to_limit(kind, g0, steps, conv_tol, max_iter, tol)
    iterates, balanced = orbit[:steps + 1], orbit[-1]
    errs = tuple(_err_against(g, balanced, normalization) for g in iterates)
    ratios = tuple(
        errs[r + 1] / errs[r] if errs[r] > 0.0 else float("nan")
        for r in range(len(errs) - 1)
    )
    k = iterates[0].k
    sigma, _ = sigma_law(kind, iterates[0])
    d = errs[0]
    bounds = tuple(
        float(np.logaddexp(0.0, k * d + r * log(sigma))) if sigma > 0.0
        else float(np.logaddexp(0.0, k * d) if r == 0 else 0.0)
        for r in range(len(errs))
    )
    return Trajectory(
        operator=kind.value,
        iterates=tuple(iterates),
        balanced=balanced,
        normalization=normalization,
        err=errs,
        sigma_tilde=ratios,
        bound=bounds,
        sigma_predicted=sigma,
    )


def coordinate_sigma_series(traj: Trajectory, coord: int = 1) -> list[float]:
    """Per-step ratio (a_{j,r} - b_j)/(a_{j,r-1} - b_j) of one tracked
    coordinate's deviation from its limit, under the trajectory normalization.

    Converges to the same limit as the distance ratios; this is the estimator
    used alongside first-coefficient normalization.  Entry r=0 is 0 by
    convention.
    """
    its = traj.display_iterates()
    b = float(traj.display_balanced().coeffs[coord])
    devs = [float(g.coeffs[coord]) - b for g in its]
    out = [0.0]
    for r in range(1, len(devs)):
        out.append(devs[r] / devs[r - 1] if devs[r - 1] != 0.0 else float("nan"))
    return out


def sigma_probe(op, g0, err_floor: float = DEFAULT_ERR_FLOOR,
                tol: float = DEFAULT_APPLY_TOL, max_steps: int = 300) -> tuple[float, int]:
    """Estimate the asymptotic distance ratio from the step sizes of one orbit.

    Step sizes s_r = d(g_r, g_{r+1}) are measured under first-coefficient
    normalization (scale-free), one application each, up to the first at or
    below err_floor or up to s_{max_steps} (max_steps >= 2).  So err_floor
    bounds step sizes, not errors: asymptotically s_r = (1 - sigma) err_r.
    The default floor, 1e-8, gave the least worst error over the sigma-law
    configurations: smaller floors read quadrature error, larger ones stop
    before the ratio settles.  Returns (sigma_hat, r) where sigma_hat =
    s_r / s_{r-1} is the latest ratio whose numerator exceeds err_floor, and
    raises ConvergenceError unless three step sizes do: below the floor,
    quadrature error swamps the ratios.
    """
    _check_distance_limit("err_floor", err_floor, allow_zero=True)
    if max_steps < 2:
        raise ValueError(f"max_steps must be >= 2 (a ratio needs three step sizes), "
                         f"got {max_steps}")
    kind, g0 = _domain(op, g0)
    # T_nu at k=0 is the identity, and every degree-1 metric is binomial
    if (kind, g0.k) in ((OperatorKind.TNU, 0), (OperatorKind.T, 1)):
        raise MetricError(f"{kind.value} at k={g0.k} fixes every metric: "
                          "there is no contraction ratio to estimate")
    steps, shape = [], None
    for g, h in pairwise(_orbit(kind, g0, tol)):  # each iterate normalized once
        last, shape = (_shape(g) if shape is None else shape), _shape(h)
        steps.append(_log_distance(last, shape))
        if steps[-1] <= err_floor or len(steps) > max_steps:
            break
    r = len(steps) - 1 - (steps[-1] <= err_floor)  # every earlier step is above it
    if r < 2:
        raise ConvergenceError(f"{kind.value}, n={g0.n}, k={g0.k}: trajectory reached the"
                               " error floor too quickly for a ratio estimate")
    return steps[r] / steps[r - 1], r


def sigma_closed_form(op, k: int, palindromic: bool = False) -> float:
    """Asymptotic distance-ratio laws on the projective line.

    T_nu: (k-1)k/((k+2)(k+3)) from a palindromic start, else k/(k+2),
          the n = 1 case of ``sigma_predict_cpn``.
    T:    (k-1)(k+6)/((k+2)(k+3)).
    T_K:  (k-1)/(k+3).
    The palindromic flag is irrelevant for T and T_K.
    """
    kind = OperatorKind.parse(op)
    kind.validate_degree(k)
    if kind is OperatorKind.TNU:
        return sigma_predict_cpn(1, k, palindromic)
    if kind is OperatorKind.T:
        return (k - 1) * (k + 6) / ((k + 2) * (k + 3))
    return (k - 1) / (k + 3)


def sigma_law(op, g0) -> tuple[float, str]:
    """The predicted asymptotic distance ratio of iterating op from g0, and
    the regime of g0 that selects the law.

    For a DiagonalMetric this is ``sigma_closed_form`` with regime "palindromic"
    or "non-palindromic"; for a MultiIndexMetric ``sigma_predict_cpn`` with
    regime "generally symmetric" when the invariant coordinate permutations act
    transitively (``classify_symmetry``), else "generic".  g0 must pass ``_domain``.
    """
    kind, g0 = _domain(op, g0)
    if isinstance(g0, MultiIndexMetric):
        sym = classify_symmetry(g0).generally_symmetric
        return (sigma_predict_cpn(g0.n, g0.k, sym),
                "generally symmetric" if sym else "generic")
    pal = is_palindromic(g0)
    return (sigma_closed_form(kind, g0.k, palindromic=pal),
            "palindromic" if pal else "non-palindromic")


def contraction_witness(op, g) -> tuple[float, float, bool]:
    """Distances to the balanced limit before and after one application.

    Returns (err_0, err_1, increased).  The flag is only raised when err_1
    exceeds 1e-8; below that, wiggle at a fixed point is noise, not expansion.
    """
    e0, e1 = build_trajectory(op, g, steps=1).err
    return e0, e1, bool(e1 > e0 and e1 > 1e-8)
