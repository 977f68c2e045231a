"""Property tests on random inputs: equivariance of every map, and its
fixed families.

Each check either agrees to a stated relative tolerance or, where the input
is beyond what the quadrature certifies, raises ``QuadratureError``; a map
never returns a wrong or non-finite image silently.  Examples are drawn
deterministically and no example database is kept, so every run checks the
same inputs.
"""

import itertools
import warnings
from math import comb, exp

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from balmet import (
    BalancedFamily,
    DiagonalMetric,
    MultiIndexMetric,
    QuadratureError,
    apply_operator,
    apply_Tnu_cpn,
    balanced_coeffs,
    build_basis,
    multinomial_coeffs,
    permutation_action,
    reverse,
    scale,
)

RTOL = 1e-9


def reproducible(examples: int):
    return settings(max_examples=examples, derandomize=True, database=None, deadline=None)


def degree(op: str):
    """Degrees the map takes, kept small: T needs k >= 1, T_K an even k."""
    return st.sampled_from((2, 4, 6, 8)) if op == "TK" else st.integers(1, 8)


@st.composite
def cp1_starts(draw, op_names=("T", "Tnu", "TK"), spread=9.0):
    """(op, metric): a binomial metric times exp of natural-log offsets in
    +-spread."""
    op = draw(st.sampled_from(op_names))
    k = draw(degree(op))
    offsets = draw(st.lists(st.floats(-spread, spread), min_size=k + 1, max_size=k + 1))
    base = np.array([comb(k, q) for q in range(k + 1)], float)
    return op, DiagonalMetric(base * np.exp(offsets))


def agree_or_raise(lhs, rhs) -> None:
    """lhs() and rhs() build the same metric two ways; both must certify and
    agree, unless one of them raises QuadratureError."""
    try:
        got, want = lhs(), rhs()
    except QuadratureError:
        return
    np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=RTOL, atol=0.0)


@reproducible(60)
@given(cp1_starts(), st.sampled_from((-30.0, 30.0)))
def test_cp1_scaling_and_reversal_equivariance(start, log_lam):
    op, g = start
    lam = exp(log_lam)
    agree_or_raise(lambda: apply_operator(op, scale(g, lam)),
                   lambda: scale(apply_operator(op, g), lam))
    agree_or_raise(lambda: apply_operator(op, reverse(g)),
                   lambda: reverse(apply_operator(op, g)))


@reproducible(60)
@given(cp1_starts(spread=345.0))
def test_cp1_wide_spreads_certify_or_raise(start):
    # spreads up to about 1e300: a finite, positive image or QuadratureError,
    # and no numpy warning on the way
    op, g = start
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            h = apply_operator(op, g)
        except QuadratureError:
            return
    assert np.isfinite(h.coeffs).all() and (h.coeffs > 0.0).all()


@st.composite
def cpn_starts(draw):
    """(metric, coordinate permutation) on CP^2 or CP^3 with k <= 4."""
    n = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(1, 4))
    basis = build_basis(n, k)
    offsets = draw(st.lists(st.floats(-1.0, 1.0), min_size=basis.size,
                            max_size=basis.size))
    pi = draw(st.sampled_from(list(itertools.permutations(range(n + 1)))))
    return MultiIndexMetric(basis, multinomial_coeffs(basis) * np.exp(offsets)), pi


@reproducible(25)
@given(cpn_starts())
def test_cpn_permutation_equivariance(start):
    g, pi = start
    index = permutation_action(g.basis, pi)

    def permuted(h):
        return MultiIndexMetric(h.basis, h.coeffs[index])

    agree_or_raise(lambda: apply_Tnu_cpn(permuted(g)),
                   lambda: permuted(apply_Tnu_cpn(g)))


@reproducible(40)
@given(st.sampled_from(("T", "TK")), st.integers(1, 4), st.floats(-30.0, 30.0),
       st.floats(-3.0, 3.0))
def test_binomial_family_is_fixed_by_T_and_TK(op, half_k, log_alpha, log_c):
    g = balanced_coeffs(BalancedFamily(2 * half_k, exp(log_alpha), exp(log_c)))
    np.testing.assert_allclose(apply_operator(op, g).coeffs, g.coeffs, rtol=RTOL, atol=0.0)


@reproducible(20)
@given(st.integers(1, 3), st.integers(1, 4), st.floats(-30.0, 30.0))
def test_round_metric_is_fixed_by_Tnu(n, k, log_alpha):
    if n == 1:
        g = balanced_coeffs(BalancedFamily(k, exp(log_alpha)))
        h = apply_operator("Tnu", g)
    else:
        basis = build_basis(n, k)
        g = MultiIndexMetric(basis, exp(log_alpha) * multinomial_coeffs(basis))
        h = apply_Tnu_cpn(g)
    np.testing.assert_allclose(h.coeffs, g.coeffs, rtol=RTOL, atol=0.0)
