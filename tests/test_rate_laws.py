"""The sigma laws as exact eigenvalues of the linearized maps.

At the round metric, P = (1+x)^k on CP^1 and D = 1 on CP^n, every entry of
J = d log a~ / d log a is a rational combination of Beta or Dirichlet
integrals, so J is a rational matrix built here with Fractions, without
quadrature.  Its leading eigenvalue 1 is the free scale (and, for T and T_K,
the binomial family's second parameter); the next one is the contraction
ratio the package predicts.  Restricted to the vectors a coordinate
permutation fixes (taken orbit by orbit from ``permutation_orbits``), the
next one is the symmetric law.
"""

from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from balmet import (
    MultiIndexMetric,
    apply_T,
    apply_Tnu,
    apply_Tnu_cpn,
    apply_TK,
    build_basis,
    multinomial_coeffs,
    permutation_orbits,
    sigma_closed_form,
    sigma_law,
    sigma_predict_cpn,
)


def beta(a, b):
    """B(a, b) for positive integers a, b."""
    return Fraction(factorial(a - 1) * factorial(b - 1), factorial(a + b - 1))


def dirichlet(gamma, delta, n):
    """Int over the n-simplex of u^gamma s^delta: prod gamma_j! delta! / (|gamma|+delta+n)!."""
    num = factorial(delta)
    for g in gamma:
        num *= factorial(g)
    return Fraction(num, factorial(sum(gamma) + delta + n))


def jacobian_tnu_cp1(k):
    """J_qp = a_p B(q+p+1, 2k+1-q-p) / B(q+1, k+1-q) at a_p = C(k, p)."""
    return [[comb(k, p) * beta(q + p + 1, 2 * k + 1 - q - p) / beta(q + 1, k + 1 - q)
             for p in range(k + 1)] for q in range(k + 1)]


def jacobian_tk(k):
    """J_qp = ((k+2)/k) a_p B(q+p+1, 2k+1-q-p) / B(q+1, k+1-q)
    - (2/k) a_p B(p+1, k+1-p) at a_p = C(k, p)."""
    return [[Fraction(k + 2, k) * comb(k, p) * beta(q + p + 1, 2 * k + 1 - q - p)
             / beta(q + 1, k + 1 - q) - Fraction(2, k) * comb(k, p) * beta(p + 1, k + 1 - p)
             for p in range(k + 1)] for q in range(k + 1)]


def jacobian_t(k):
    """J_qp = -C(k,p) [sum_{j != p} C(k,j) (p-j)^2 B(p+j+q, 3k-p-j-q)
    - 3k B(q+p+1, 2k+1-q-p)] / (k B(q+1, k+1-q)) at a_p = C(k, p): there
    rho = k/(1+x)^2, so S = rho P^2 = k (1+x)^(2k-2), and each a~_q is
    k / ((k+1) Int S x^q / P^3 dx)."""
    return [[-comb(k, p) * (sum(comb(k, j) * (p - j) ** 2 * beta(p + j + q, 3 * k - p - j - q)
                                for j in range(k + 1) if j != p)
                            - 3 * k * beta(q + p + 1, 2 * k + 1 - q - p))
             / (k * beta(q + 1, k + 1 - q)) for p in range(k + 1)] for q in range(k + 1)]


def jacobian_tnu_cpn(n, k):
    """J_ip = a_p Dir(alpha_i + alpha_p, 2k - |alpha_i| - |alpha_p|)
    / Dir(alpha_i, k - |alpha_i|) at the multinomial a."""
    exps = build_basis(n, k).exponents
    a = [int(v) for v in multinomial_coeffs(build_basis(n, k))]
    return [[a[p] * dirichlet([x + y for x, y in zip(ei, ep)], 2 * k - sum(ei) - sum(ep), n)
             / dirichlet(ei, k - sum(ei), n) for p, ep in enumerate(exps)] for ei in exps]


def restricted(J, orbits):
    """J on the vectors constant on each orbit (J commutes with the
    permutations at the round metric, so any representative row will do)."""
    return [[sum(J[row[0]][p] for p in col) for col in orbits] for row in orbits]


def spectrum(J):
    """Eigenvalues of J, largest first.  J is similar to a symmetric matrix,
    so they are real."""
    return np.sort(np.linalg.eigvals(np.array(J, dtype=float)).real)[::-1]


@pytest.mark.parametrize("k", range(1, 21))
def test_tnu_cp1_law_is_an_eigenvalue(k):
    J = jacobian_tnu_cp1(k)
    lam = spectrum(J)
    assert lam[0] == pytest.approx(1.0, abs=1e-12)
    assert lam[1] == pytest.approx(sigma_closed_form("Tnu", k), abs=1e-12)
    # reversal z -> 1/z swaps the homogeneous coordinates; at k=1 its fixed
    # vectors are the scale alone, and the law is 0
    sym = spectrum(restricted(J, permutation_orbits(build_basis(1, k), [(1, 0)])))
    assert sym[0] == pytest.approx(1.0, abs=1e-12)
    top = sym[1] if len(sym) > 1 else 0.0
    assert top == pytest.approx(sigma_closed_form("Tnu", k, palindromic=True), abs=1e-12)


@pytest.mark.parametrize("k", range(2, 21, 2))
def test_tk_law_is_an_eigenvalue(k):
    lam = spectrum(jacobian_tk(k))
    assert lam[:2] == pytest.approx([1.0, 1.0], abs=1e-12)  # scale and alpha
    assert lam[2] == pytest.approx(sigma_closed_form("TK", k), abs=1e-12)


@pytest.mark.parametrize("k", range(2, 21))
def test_t_law_is_an_eigenvalue(k):
    # at k=1 every metric is binomial: the spectrum is 1, 1, with no
    # contracting mode and no law to check
    lam = spectrum(jacobian_t(k))
    assert lam[:2] == pytest.approx([1.0, 1.0], abs=1e-12)  # scale and alpha
    assert lam[2] == pytest.approx(sigma_closed_form("T", k), abs=1e-12)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_tnu_cpn_laws_are_eigenvalues(n, k):
    J = jacobian_tnu_cpn(n, k)
    lam = spectrum(J)
    generic = sigma_predict_cpn(n, k, False)
    assert lam[0] == pytest.approx(1.0, abs=1e-12)
    assert lam[1:n + 1] == pytest.approx([generic] * n, abs=1e-12)  # multiplicity n
    assert lam[n + 1] < generic - 1e-3
    # a full cycle of the homogeneous coordinates moves every one of them
    cycle = tuple(range(1, n + 1)) + (0,)
    sym = spectrum(restricted(J, permutation_orbits(build_basis(n, k), [cycle])))
    assert sym[0] == pytest.approx(1.0, abs=1e-12)
    assert sym[1] == pytest.approx(sigma_predict_cpn(n, k, True), abs=1e-12)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("generators", [
    [(1, 0, 3, 2)],
    [(1, 0, 2, 3), (0, 1, 3, 2)],
    [(1, 2, 3, 0)],
    [(1, 0, 3, 2), (2, 3, 0, 1)],
    [(1, 2, 3, 0), (1, 0, 3, 2)],
    [(1, 2, 0, 3), (1, 0, 3, 2)],
], ids=["(01)(23)", "<(01),(23)>", "4-cycle", "V4", "D4", "A4"])
def test_tnu_cp3_law_of_an_invariant_group(k, generators):
    # a start constant on each orbit of the group, with a different value on
    # each, contracts at the next eigenvalue of J on the vectors it fixes: the
    # generic law for the first two groups, fixed-point-free but not
    # transitive, and the symmetric law for the transitive rest
    basis = build_basis(3, k)
    orbits = permutation_orbits(basis, generators)
    coeffs = multinomial_coeffs(basis)
    for i, orbit in enumerate(orbits):
        coeffs[list(orbit)] *= 1 + i / 10
    sym = spectrum(restricted(jacobian_tnu_cpn(3, k), orbits))
    assert sym[1] == pytest.approx(sigma_law("Tnu", MultiIndexMetric(basis, coeffs))[0],
                                   abs=1e-12)


@pytest.mark.parametrize("name, J, apply, start", [
    ("Tnu CP^1 k=3", jacobian_tnu_cp1(3), lambda a: apply_Tnu(a, tol=1e-13).coeffs,
     [float(comb(3, p)) for p in range(4)]),
    ("TK k=4", jacobian_tk(4), lambda a: apply_TK(a, tol=1e-13).coeffs,
     [float(comb(4, p)) for p in range(5)]),
    ("Tnu CP^2 k=2", jacobian_tnu_cpn(2, 2),
     lambda a: apply_Tnu_cpn(MultiIndexMetric(build_basis(2, 2), a), tol=1e-13).coeffs,
     list(multinomial_coeffs(build_basis(2, 2)))),
    ("T k=3", jacobian_t(3), lambda a: apply_T(a, tol=1e-13).coeffs,
     [float(comb(3, p)) for p in range(4)]),
])
def test_exact_jacobian_matches_central_differences(name, J, apply, start):
    # the matrices above are the linearizations of the maps as implemented
    a, h = np.array(start), 1e-5
    got = np.empty((a.size, a.size))
    for p in range(a.size):
        step = np.exp(h * (np.arange(a.size) == p))
        got[:, p] = (np.log(apply(a * step)) - np.log(apply(a / step))) / (2 * h)
    np.testing.assert_allclose(got, np.array(J, dtype=float), atol=1e-7, err_msg=name)
