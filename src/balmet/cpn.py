"""T_nu on torus-invariant metrics over CP^n: monomial bases, coordinate
permutation symmetries, and the n-fold integral operator.

Sections of O(k) are spanned by the monomials w_i in the affine coordinates
z_1..z_n of total degree <= k, ordered first by degree and then
lexicographically (z_1 before z_2 before ...).  A torus-invariant metric is a
positive coefficient a_i per monomial, the matrix being diag(1/a_i).

One application maps

    1/a~_i  =  N n! Int_{(0,inf)^n} w_i(x) dx
               / ( (sum_p a_p w_p(x)) (1 + sum_q x_q)^(n+1) ),

with N = C(n+k, k).  The integral is taken in homogeneous coordinates
u_j = x_j / (1 + sum x), which turns the domain into the unit simplex and the
integrand into u^alpha s^(k-|alpha|) / D(u) with s = 1 - sum u and
D(u) = sum_p a_p u^beta_p s^(k-|beta_p|).  D is a positive combination of all
degree-k monomials in (s, u), hence bounded away from zero on the closed
simplex, so the integrand is analytic there and a Duffy-type tensor map onto
the unit box integrates it to near machine accuracy at small node counts.
The round (multinomial) metric makes D identically 1, so one application
moves it only by rounding: at most 3.9e-15 relative on CP^3 (k <= 5),
8.9e-16 on CP^2 and 2.2e-16 on CP^1.

After the Duffy map every term of D and every numerator is a product of
one-axis factors t^e (1-t)^f, so each rule level is two tensor contractions:
D = sum_p a_p prod_j F_j[p] over the node grid, then each numerator's
per-axis factors (Jacobian and weights included) against 1/D.  Both run as
matrix products over slabs of the first axis, so no level holds more than
48^3 grid points at a time.  None of the factors depends on the metric: they
are built once per basis, set of orbit representatives and node count, and
cached read-only.  A level scales the first axis of D's factors by a, then
per slab forms the outer products over the leading axes (all but the last)
of D's factors and of the numerators', and runs its two products.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .errors import MetricError, QuadratureError
from .metrics import MultiIndexMetric
from .quadrature import (
    DEFAULT_APPLY_TOL,
    DEFAULT_NODE_CAP,
    DEFAULT_START_NODES,
    gauss_legendre_unit,
    refine_by_doubling,
)

__all__ = [
    "MonomialBasis",
    "MultiIndexMetric",
    "SymmetryClassification",
    "build_basis",
    "permutation_action",
    "permutation_orbits",
    "classify_symmetry",
    "apply_Tnu_cpn",
    "check_dimension",
    "sigma_predict_cpn",
    "multinomial_coeffs",
    "full_symmetry_orbits",
    "metric_from_class_values",
]

_SUPPORTED_N = (1, 2, 3)

# Most node-grid points one rule level holds at a time.  Finer levels are
# evaluated in slabs along the first axis, so an application's peak memory
# does not depend on the level it certifies at (a whole 96^3 grid and its
# reciprocal take 14 MB).  On CP^3 the 24 and 48 levels are one slab.
_GRID_BLOCK = 48 ** 3


@dataclass(frozen=True)
class MonomialBasis:
    """Exponent multi-indices of the monomials of degree <= k in n variables."""

    n: int
    k: int
    exponents: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.exponents)

    def position(self, alpha: tuple[int, ...]) -> int:
        return self.exponents.index(tuple(alpha))


@lru_cache(maxsize=None)
def build_basis(n: int, k: int) -> MonomialBasis:
    """Monomial basis of H^0(CP^n, O(k)): N = C(n+k, k) multi-indices,
    sorted by total degree, then lexicographically with z_1 heaviest."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    exps: list[tuple[int, ...]] = []
    for d in range(k + 1):
        block = [
            alpha
            for alpha in itertools.product(range(d, -1, -1), repeat=n)
            if sum(alpha) == d
        ]
        block.sort(reverse=True)
        exps.extend(block)
    basis = MonomialBasis(n, k, tuple(exps))
    assert basis.size == comb(n + k, k)
    return basis


@lru_cache(maxsize=None)
def _symmetries(basis: MonomialBasis) -> tuple[tuple[tuple[int, ...], ...], np.ndarray, tuple]:
    """The (n+1)! homogeneous-coordinate permutations in ``itertools`` order,
    their index maps (see ``permutation_action``) as one read-only (P, N)
    array, and the mask of the permutations that move every coordinate."""
    n, k = basis.n, basis.k
    perms = tuple(itertools.permutations(range(n + 1)))
    # pi moves the exponent of Z_j in (k - |alpha|, alpha) to position pi(j);
    # an image is looked up by its affine exponents read as digits in base k+1
    exps = np.array(basis.exponents)
    homog = np.column_stack((k - exps.sum(axis=1), exps))
    radix = (k + 1) ** np.arange(n)
    position = np.empty((k + 1) ** n, dtype=np.intp)
    position[(exps * radix).sum(axis=1)] = np.arange(basis.size)
    inverse = [[pi.index(j) for j in range(1, n + 1)] for pi in perms]
    maps = position[(homog[:, inverse] * radix).sum(axis=2).T]
    maps.flags.writeable = False
    return perms, maps, tuple(all(pi[i] != i for i in range(n + 1)) for pi in perms)


def permutation_action(basis: MonomialBasis, pi) -> np.ndarray:
    """Index permutation induced by the coordinate substitution Z_i -> Z_pi(i).

    Each affine multi-index is lifted to the homogeneous exponent vector
    (k - |alpha|, alpha), the positions are permuted, and the result projected
    back.  Returns the bijection as a read-only integer array: entry i is the
    index of the monomial that w_i is carried to.
    """
    pi = tuple(pi)
    if sorted(pi) != list(range(basis.n + 1)):
        raise ValueError(f"not a permutation of 0..{basis.n}: {pi!r}")
    perms, maps, _ = _symmetries(basis)
    return maps[perms.index(pi)]


@dataclass(frozen=True)
class SymmetryClassification:
    """Invariance of a metric under homogeneous-coordinate permutations.

    ``orbits`` partitions the basis indices under the group of all invariant
    permutations; ``generally_symmetric`` records whether at least one
    invariant permutation moves every coordinate.
    """

    invariant_permutations: tuple[tuple[int, ...], ...]
    orbits: tuple[tuple[int, ...], ...]
    generally_symmetric: bool


def _orbits_from_maps(size: int, maps: list[np.ndarray]) -> tuple[tuple[int, ...], ...]:
    """Orbits of 0..size-1 under the group the index maps generate, each in
    increasing order, ordered by their smallest index.  Every index takes the
    smallest label among its images until the labels settle; as the maps are
    bijections, each orbit settles on its smallest index."""
    maps = np.vstack((np.arange(size), np.reshape(maps, (-1, size)))).astype(np.intp)
    labels = maps[0]
    while ((settled := labels[maps].min(axis=0)) != labels).any():
        labels = settled
    orbits: dict[int, list[int]] = {}
    for i, label in enumerate(labels.tolist()):
        orbits.setdefault(label, []).append(i)
    return tuple(map(tuple, orbits.values()))


def _invariance(metric: MultiIndexMetric, tol: float) -> tuple[bool, ...]:
    """For each permutation of ``_symmetries``, whether it leaves the
    coefficients invariant to relative tolerance tol."""
    a = metric.coeffs
    images = a[_symmetries(metric.basis)[1]]
    return tuple((np.abs(images - a) <= tol * np.maximum(images, a)).all(axis=1).tolist())


@lru_cache(maxsize=None)
def _partition(basis: MonomialBasis, invariant: tuple[bool, ...]
               ) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], np.ndarray]:
    """The orbits under the permutations that the mask ``invariant`` selects,
    their first indices, and for every basis index the position of its orbit
    (read-only).  At tol 0 the selected permutations form a subgroup of
    Sym(n+1), so a basis has at most 30 keys for n <= 3."""
    orbits = _orbits_from_maps(basis.size, _symmetries(basis)[1][np.array(invariant)])
    owner = np.empty(basis.size, dtype=np.intp)
    for i, orbit in enumerate(orbits):
        owner[list(orbit)] = i
    owner.flags.writeable = False
    return orbits, tuple(orbit[0] for orbit in orbits), owner


def classify_symmetry(metric: MultiIndexMetric, tol: float = 1e-12) -> SymmetryClassification:
    """Test invariance under each of the (n+1)! coordinate permutations.

    Invariance of coefficients is checked to relative tolerance tol; the orbit
    partition is taken under the subgroup of all invariant permutations.
    """
    if not tol >= 0:  # a negative or NaN tol would leave even the identity out
        raise ValueError(f"tol must be >= 0, got {tol}")
    perms, _, moves_all = _symmetries(metric.basis)
    invariant = _invariance(metric, tol)
    return SymmetryClassification(
        invariant_permutations=tuple(itertools.compress(perms, invariant)),
        orbits=_partition(metric.basis, invariant)[0],
        generally_symmetric=any(itertools.compress(moves_all, invariant)),
    )


def multinomial_coeffs(basis: MonomialBasis) -> np.ndarray:
    """Coefficients k!/((k-|a|)! a_1! ... a_n!) of the round metric (the
    unique T_nu fixed direction)."""
    k = basis.k
    out = np.empty(basis.size)
    for i, alpha in enumerate(basis.exponents):
        v = factorial(k) // factorial(k - sum(alpha))
        for e in alpha:
            v //= factorial(e)
        out[i] = float(v)
    return out


def permutation_orbits(basis: MonomialBasis, perms) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of basis indices under the group generated by the given
    homogeneous-coordinate permutations, ordered by first occurrence (orbit
    representatives in basis order)."""
    return _orbits_from_maps(basis.size, [permutation_action(basis, pi) for pi in perms])


def full_symmetry_orbits(basis: MonomialBasis) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of basis indices under the full group Sym(n+1),
    ordered by first occurrence (orbit representatives in basis order)."""
    return _partition(basis, (True,) * factorial(basis.n + 1))[0]


def metric_from_class_values(basis: MonomialBasis, values) -> MultiIndexMetric:
    """Build a fully symmetric metric from one value per full-symmetry orbit.

    Values are matched to orbits in representative order; e.g. for n=3, k=4
    the five orbits are represented by 1, z1, z1^2, z1*z2, z1*z2*z3.
    """
    orbits, _, owner = _partition(basis, (True,) * factorial(basis.n + 1))
    values = np.asarray(values, dtype=float)
    if values.shape != (len(orbits),):
        raise MetricError(
            f"expected {len(orbits)} class values for n={basis.n}, k={basis.k}, "
            f"got {values.size}"
        )
    return MultiIndexMetric(basis, values[owner])


@lru_cache(maxsize=64)
def _factor_tables(basis: MonomialBasis, reps: tuple[int, ...],
                   m: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Per-axis factors at m nodes (read-only): the terms t^e (1-t)^f of every
    basis element in D, without a, and the numerators of the representatives
    reps with the Duffy Jacobian and the weights folded in."""
    n, k = basis.n, basis.k
    t, omt, w = gauss_legendre_unit(m)
    pt = t[None, :] ** np.arange(k + 1)[:, None]
    pomt = omt[None, :] ** np.arange(k + n)[:, None]
    # Duffy pullback of u^alpha s^(k-|alpha|): t^alpha_j (1-t)^(k - alpha_1 -
    # ... - alpha_j) on axis j; the numerators add the Jacobian (1-t)^(n-1-j)
    t_pow = np.array(basis.exponents)
    omt_pow = k - np.cumsum(t_pow, axis=1)
    num_t_pow = t_pow[list(reps)]
    num_omt_pow = omt_pow[list(reps)] + np.arange(n - 1, -1, -1)
    denom = tuple(pt[t_pow[:, j]] * pomt[omt_pow[:, j]] for j in range(n))
    numer = tuple(pt[num_t_pow[:, j]] * pomt[num_omt_pow[:, j]] * w for j in range(n))
    for f in denom + numer:
        f.flags.writeable = False
    return denom, numer


def _leading_product(factors: tuple[np.ndarray, ...], rows: slice) -> np.ndarray:
    """prod_j factors[j][:, x_j] over the grid of all axes but the last, the
    first axis restricted to ``rows``: shape (terms, grid points)."""
    if len(factors) == 1:
        return np.ones((len(factors[0]), 1))
    out = factors[0][:, rows]
    for f in factors[1:-1]:
        out = (out[:, :, None] * f[:, None, :]).reshape(len(f), -1)
    return out


def check_dimension(n: int) -> None:
    """Raise MetricError unless ``apply_Tnu_cpn`` handles CP^n."""
    if n not in _SUPPORTED_N:
        raise MetricError(f"unsupported dimension n={n}; this build handles n <= 3")


def apply_Tnu_cpn(
    metric: MultiIndexMetric,
    tol: float = DEFAULT_APPLY_TOL,
) -> MultiIndexMetric:
    """One T_nu application on a torus-invariant metric over CP^n, n in 1..3.

    When the input is invariant under a subgroup of coordinate permutations,
    one integral is computed per orbit and replicated (the fully symmetric
    CP^3 degree-4 case needs 5 integrals instead of 35).
    """
    basis = metric.basis
    n, k = basis.n, basis.k
    check_dimension(n)
    amax = float(np.max(metric.coeffs))
    ah = metric.coeffs / amax
    # orbits under the permutations that fix the coefficients bitwise: exact
    # equality means replication introduces no projection, and keeps iterates
    # of a symmetric start exactly symmetric
    _, reps, owner = _partition(basis, _invariance(metric, 0.0))

    def evaluate(m: int) -> np.ndarray:
        # D = sum_p ah_p prod_j f_pj(t_j) over the node grid, then every
        # representative numerator (weights included) against 1/D, one slab
        # of the first axis at a time: two matrix products per slab, whose
        # inner index is the term p and the last axis respectively
        denom, numer = _factor_tables(basis, reps, m)
        denom = (ah[:, None] * denom[0],) + denom[1:]
        total = np.zeros(len(reps))
        step = max(1, _GRID_BLOCK // m ** (n - 1))
        for lo in range(0, m, step):
            rows = slice(lo, lo + step)
            R = _leading_product(denom, rows).T @ denom[-1]
            np.divide(1.0, R, out=R)
            total += np.einsum("il,li->i", _leading_product(numer, rows), R @ numer[-1].T)
        return total

    try:
        integrals, _ = refine_by_doubling(evaluate, tol, DEFAULT_START_NODES[n],
                                          DEFAULT_NODE_CAP[n])
        return MultiIndexMetric.image(amax, basis.size * factorial(n) * integrals[owner],
                                      basis=basis)
    except QuadratureError as exc:
        exc.args = (f"Tnu, n={n}, k={k}: {exc}",)
        raise


def sigma_predict_cpn(n: int, k: int, generally_symmetric: bool) -> float:
    """Predicted asymptotic convergence ratio of T_nu on CP^n.

    (k-1)k / ((k+n+1)(k+n+2)) for metrics invariant under a fixed-point-free
    coordinate permutation, else k / (k+n+1).  At n = 1 these are the
    palindromic and generic ratios on the projective line; at k = 0, where
    T_nu is the identity, both are 0.
    """
    if n < 1 or k < 0:
        raise ValueError(f"need n >= 1 and k >= 0, got n={n}, k={k}")
    if generally_symmetric:
        return (k - 1) * k / ((k + n + 1) * (k + n + 2))
    return k / (k + n + 1)
