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
one-axis factors t^e (1-t)^f, and on the first axis that factor depends only
on e = alpha_1, which takes k+1 values.  So each rule level groups the terms
by e: D(x_1, x') = sum_e F_e(x_1) H_e(x'), where H_e sums the terms whose
alpha_1 is e over the trailing axes x', one matrix product of (k+1) N
m^(n-1) multiply-adds (a one-hot grouping, N m^(n-1) of them nonzero).  The
numerators' first-axis factors (Duffy Jacobian and weights included) are
k+1 functions G_e too, so K_e(x') = sum_x1 G_e(x_1) / D(x_1, x') leaves
each orbit representative one reduction of its trailing factors against its
K_e.  Forming D and K takes 2(k+1) m^n multiply-adds per level, whatever
the numbers of basis elements and of representatives.  Both run as matrix
products over slabs of columns of the last axis, whose D, H and K share one
budget of 48^3 values, so no level holds more at a time.

Nearly every application certifies from the first pair of its ladder,
where a level costs its seven or eight numpy calls more than its
arithmetic.  So the rules are evaluated as stacks of padded rules
(``stack_rules``, as on CP^1): ``quadrature.fuse_first_pair`` contracts the
pair as a stack of two in its first call and hands the finer level back on
the next; every later rung is a stack of one.  The pair then does the finer
level's arithmetic twice (2 x 18^3 grid points on CP^3 against
12^3 + 18^3) in half the calls.  None of the factors depends on the metric:
they are built once per basis, set of orbit representatives and tuple of
node counts, and cached read-only (``_factor_tables``), the grouping by e
folded into the middle axis's factors.  The orbits are looked up once per
basis and mask of permutations that fix the coefficients (``_step``).
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
    LADDERS,
    fuse_first_pair,
    gauss_legendre_unit,
    refine_by_doubling,
    stack_rules,
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

# Most grid-sized values one stack of rule levels holds at a time: for a slab
# of columns of the last axis, D over the whole first axis and the sums H and
# K, k+1 values per point of the trailing axes each, for every rule of the
# stack.  The first pair, a stack of two, takes twice a level's share per
# column.  Finer levels take more, narrower slabs, so an application's peak
# memory does not depend on the level it certifies at (a whole 96^3 grid and
# its reciprocal take 14 MB).  On CP^3 at k=4 the first pair (12/18) and the
# rungs up to 40 nodes are one slab each, 60 three, 90 eight, 135
# twenty-seven and the cap, 192, ninety-six.
_GRID_BLOCK = 48 ** 3


@dataclass(frozen=True)
class MonomialBasis:
    """Exponent multi-indices of the monomials of degree <= k in n variables."""

    n: int
    k: int
    exponents: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # the cache keys of every application: hash the N exponent tuples once
        object.__setattr__(self, "_hash", hash((self.n, self.k, self.exponents)))

    def __hash__(self) -> int:
        return self._hash

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
def _symmetries(basis: MonomialBasis) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """The (n+1)! homogeneous-coordinate permutations in ``itertools`` order
    and their index maps (see ``permutation_action``) as one read-only (P, N)
    array."""
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
    return perms, maps


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
    perms, maps = _symmetries(basis)
    return maps[perms.index(pi)]


@dataclass(frozen=True)
class SymmetryClassification:
    """Invariance of a metric under homogeneous-coordinate permutations.

    ``orbits`` partitions the basis indices under the group of all invariant
    permutations; ``generally_symmetric`` records whether that group acts
    transitively on the homogeneous coordinates (an (n+1)-cycle does; on
    CP^3 the fixed-point-free (01)(23) alone does not).
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
    invariant = _invariance(metric, tol)
    perms = tuple(itertools.compress(_symmetries(metric.basis)[0], invariant))
    return SymmetryClassification(
        invariant_permutations=perms,
        orbits=_partition(metric.basis, invariant)[0],
        generally_symmetric=len(_orbits_from_maps(metric.basis.n + 1, perms)) == 1,
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
                   nodes: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Per-axis factors (read-only) of the rules with the node counts
    ``nodes``, stacked on a leading axis, grouped by the first Duffy exponent
    e = alpha_1, on which alone a first-axis factor depends:

    - the first-axis factors of D and of the numerators, (k+1, m) each, the
      latter with the Duffy Jacobian and the weights folded in;
    - for the basis elements in D (without a), one column each: the
      middle-axis factor in the block of rows of its e, ((k+1) m, N); and
      the last-axis factors, one row each, (N, m);
    - the same two tables for the numerators of the representatives reps.

    An axis that CP^n lacks is a column of ones.  At a padding node of
    ``stack_rules``, D stays positive and every numerator factor is 0.
    """
    n, k = basis.n, basis.k
    t, omt, w = stack_rules(gauss_legendre_unit(c) for c in nodes)
    pt = t[:, None, :] ** np.arange(k + 1)[:, None]
    pomt = omt[:, None, :] ** np.arange(k + n)[:, None]
    w = w[:, None, :]
    # Duffy pullback of u^alpha s^(k-|alpha|): t^alpha_j (1-t)^(k - alpha_1 -
    # ... - alpha_j) on axis j; the numerators add the Jacobian (1-t)^(n-1-j)
    t_pow = np.array(basis.exponents)
    omt_pow = k - np.cumsum(t_pow, axis=1)
    e = np.arange(k + 1)

    def trailing(t_exp, omt_exp, weight):
        factors = [np.ones((len(nodes), len(t_exp), 1))] * (3 - n) + [
            pt[:, t_exp[:, j]] * pomt[:, omt_exp[:, j]] * weight for j in range(1, n)]
        grouped = (t_exp[:, 0] == e[:, None])[:, None, :] * factors[0].transpose(0, 2, 1)[:, None]
        return grouped.reshape(len(nodes), -1, len(t_exp)), factors[1]

    tables = (pt * pomt[:, k - e], pt * pomt[:, k - e + n - 1] * w, *trailing(t_pow, omt_pow, 1.0),
              *trailing(t_pow[list(reps)], omt_pow[list(reps)] + np.arange(n - 1, -1, -1), w))
    for f in tables:
        f.flags.writeable = False
    return tables


def check_dimension(n: int) -> None:
    """Raise MetricError unless ``apply_Tnu_cpn`` handles CP^n (the one dimension rule)."""
    if n not in _SUPPORTED_N:
        raise MetricError(f"projective dimension n={n} unsupported; expected 1..3")


@lru_cache(maxsize=64)
def _step(basis: MonomialBasis):
    """``orbits(a)``: the (reps, owner) of ``_partition`` under the
    permutations that fix a bitwise, looked up by that mask.  A raising call
    caches nothing, so an unsupported n raises on every call."""
    check_dimension(basis.n)
    maps, by_mask = _symmetries(basis)[1], {}

    def orbits(a: np.ndarray) -> tuple:
        mask = np.logical_and.reduce(a[maps] == a, axis=1)
        if (key := mask.tobytes()) not in by_mask:  # one per subgroup of Sym(n+1)
            by_mask[key] = _partition(basis, tuple(mask.tolist()))[1:]
        return by_mask[key]

    return orbits


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
    orbits = _step(basis)
    amax = max(metric.coeffs.tolist())  # few: Python's max beats numpy's reduction
    ah = metric.coeffs / amax
    # orbits under the permutations that fix the coefficients bitwise: exact
    # equality means replication introduces no projection, and keeps iterates
    # of a symmetric start exactly symmetric
    reps, owner = orbits(metric.coeffs)

    def levels(nodes: tuple[int, ...]) -> np.ndarray:
        # D(x_1, x') = sum_e first[e](x_1) H_e(x') over the trailing axes x',
        # H_e summing the terms whose alpha_1 is e.  A numerator's first-axis
        # factor depends on e alone too, so K_e(x') = sum_x1 first_numer[e] / D
        # leaves one reduction of each representative's trailing factors
        # against its K_e.  H, D and K are formed for one slab of last-axis
        # columns of every rule of the stack at a time; Y gathers the
        # reductions over the slabs, starting from the first one's
        first, first_numer, grouped, last, numer_grouped, numer_last = (
            _factor_tables(basis, reps, nodes))
        stack, rows, _ = grouped.shape
        m, mid = first.shape[2], rows // (k + 1)
        width = max(1, _GRID_BLOCK // (stack * mid * (m + 2 * (k + 1))))
        for lo in range(0, last.shape[2], width):
            cols = slice(lo, lo + width)
            R = first.transpose(0, 2, 1) @ (
                grouped @ (ah[:, None] * last[..., cols])).reshape(stack, k + 1, -1)
            np.divide(1.0, R, out=R)
            K = (first_numer @ R).reshape(stack, rows, -1)
            del R  # the next slab's grid is built before R would be rebound
            part = K @ numer_last[..., cols].transpose(0, 2, 1)
            Y = Y + part if lo else part
        return (Y * numer_grouped).sum(axis=1)

    try:
        ladder = LADDERS[n]
        integrals, _ = refine_by_doubling(fuse_first_pair(levels, ladder), tol, ladder)
        return MultiIndexMetric.image(amax, basis.size * factorial(n) * integrals[owner],
                                      basis=basis)
    except QuadratureError as exc:
        exc.args = (f"Tnu, n={n}, k={k}: {exc}",)
        raise


def sigma_predict_cpn(n: int, k: int, generally_symmetric: bool) -> float:
    """Predicted asymptotic convergence ratio of T_nu on CP^n.

    (k-1)k / ((k+n+1)(k+n+2)) for metrics whose invariant coordinate
    permutations act transitively (``SymmetryClassification``), else
    k / (k+n+1).  At n = 1 these are the palindromic and generic ratios on
    the projective line; at k = 0, where T_nu is the identity, both are 0.
    """
    if n < 1 or k < 0:
        raise ValueError(f"need n >= 1 and k >= 0, got n={n}, k={k}")
    if generally_symmetric:
        return (k - 1) * k / ((k + n + 1) * (k + n + 2))
    return k / (k + n + 1)
