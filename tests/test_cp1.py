import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from balmet import (
    BalancedFamily,
    DensityProfile,
    DiagonalMetric,
    MetricError,
    MultiIndexMetric,
    OperatorKind,
    QuadratureError,
    apply_T,
    apply_TK,
    apply_Tnu,
    apply_operator,
    balanced_coeffs,
    build_basis,
    density_profile,
    distance,
    is_palindromic,
    reverse,
    scale,
    trace_relation,
)
from balmet.quadrature import LADDERS

OPS = {
    "T": apply_T,
    "Tnu": apply_Tnu,
    "TK": apply_TK,
}


def random_metric(rng, k, even=False):
    if even and k % 2:
        k += 1
    return DiagonalMetric(np.exp(rng.uniform(-3, 3, k + 1)))


def applicable(op, k):
    if op == "T":
        return k >= 1
    if op == "TK":
        return k >= 2 and k % 2 == 0
    return True


class TestFixedPoints:
    @pytest.mark.parametrize("op", ["T", "TK"])
    @pytest.mark.parametrize("alpha,c,k", [(1.0, 1.0, 2), (1.0, 6.0, 2),
                                           (2.0, 0.5, 4), (1.0, 2.7, 6)])
    def test_binomial_family_fixed(self, op, alpha, c, k):
        g = balanced_coeffs(BalancedFamily(k, alpha, c))
        out = OPS[op](g)
        assert np.allclose(out.coeffs, g.coeffs, rtol=1e-10)

    def test_round_metric_fixed_under_T(self):
        g = (1.0, 2.0, 1.0)
        assert np.allclose(apply_T(g).coeffs, g, rtol=1e-10)

    def test_round_metric_fixed_under_TK(self):
        assert np.allclose(apply_TK((1, 2, 1)).coeffs, (1, 2, 1), rtol=1e-10)
        assert np.allclose(apply_TK((2, 4, 2)).coeffs, (2, 4, 2), rtol=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_round_metric_fixed_under_Tnu(self, k):
        g = balanced_coeffs(BalancedFamily(k))
        assert np.allclose(apply_Tnu(g).coeffs, g.coeffs, rtol=1e-10)

    def test_round_metric_fixed_under_T_at_high_degree(self):
        # Q ~ 1e-108 at t=1/2: S/Q^3 in one step would underflow
        g = balanced_coeffs(BalancedFamily(120))
        assert np.allclose(apply_T(g).coeffs, g.coeffs, rtol=1e-12)

    def test_T_past_floating_range_fails_cleanly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(QuadratureError):
                apply_T(balanced_coeffs(BalancedFamily(200)))

    def test_k1_identity_under_Tnu(self):
        # symmetry of the degree-1 integrand under inversion plus the trace
        # relation force both outputs equal to 1
        out = apply_Tnu((1.0, 1.0))
        assert out.coeffs[0] == pytest.approx(1.0, rel=1e-12)
        assert out.coeffs[1] == pytest.approx(out.coeffs[0], rel=1e-12)


class TestBenchmarkSteps:
    def test_tk_step(self):
        start = scale((1, 17, 36), 0.8826)
        got = apply_TK(start).coeffs
        want = (0.9738, 12.6377, 35.0561)
        assert np.allclose(got, want, rtol=1e-4, atol=5e-5)

    def test_tnu_step(self):
        start = (0.20720, 5.18011, 0.01450, 2.69366)
        got = apply_Tnu(start).coeffs
        want = (0.57206, 2.68260, 3.45522, 1.58209)
        assert np.allclose(got, want, rtol=1e-4, atol=5e-6)

    def test_t_step_extreme_coefficients(self):
        lam = 9.81719653e-05 / 1.0  # scale that puts the limit's first entry at 1
        start = scale((1.0, 6000.0, 150000.0, 2e10, 150000.0, 6000.0, 1.0), lam)
        got = apply_T(start).coeffs
        want = (0.00010, 0.48814, 1073.02459, 733382.16850)
        assert np.allclose(got[:4], want, rtol=1e-3, atol=5e-6)
        assert is_palindromic(got, tol=1e-9)

    def test_t_sl2_direction(self):
        # (1, 2c, c^2) spans a balanced direction for every c
        out = apply_T((1.0, 6.0, 9.0))
        assert np.allclose(out.coeffs / out.coeffs[0], (1, 6, 9), rtol=1e-9)


class TestOperatorProperties:
    @pytest.mark.parametrize("op", ["T", "Tnu", "TK"])
    def test_scaling_equivariance(self, op):
        rng = np.random.default_rng(hash(op) % 2**32)
        for _ in range(5):
            k = int(rng.integers(2, 7))
            g = random_metric(rng, k, even=(op == "TK"))
            lam = float(np.exp(rng.uniform(-4, 4)))
            a = OPS[op](scale(g, lam)).coeffs
            b = OPS[op](g).coeffs * lam
            assert np.allclose(a, b, rtol=1e-9)

    @pytest.mark.parametrize("op", ["T", "Tnu", "TK"])
    def test_trace_relation(self, op):
        rng = np.random.default_rng(99)
        for _ in range(10):
            k = int(rng.integers(1 if op != "TK" else 2, 9))
            g = random_metric(rng, k, even=(op == "TK"))
            out = OPS[op](g)
            assert trace_relation(g, out) == pytest.approx(g.k + 1, abs=1e-10)

    @pytest.mark.parametrize("op", ["T", "Tnu", "TK"])
    def test_palindromic_preserved(self, op):
        rng = np.random.default_rng(7)
        for _ in range(5):
            k = int(rng.integers(2, 7))
            if op == "TK" and k % 2:
                k += 1
            half = np.exp(rng.uniform(-2, 2, (k + 2) // 2))
            g = DiagonalMetric(np.array([half[min(q, k - q)] for q in range(k + 1)]))
            assert is_palindromic(OPS[op](g), tol=1e-9)

    @pytest.mark.parametrize("op", ["T", "TK"])
    def test_reversal_equivariance(self, op):
        rng = np.random.default_rng(13)
        for _ in range(5):
            g = random_metric(rng, int(rng.integers(2, 7)), even=(op == "TK"))
            a = OPS[op](reverse(g)).coeffs
            b = reverse(OPS[op](g)).coeffs
            assert np.allclose(a, b, rtol=1e-9)

    @pytest.mark.parametrize("op", ["T", "TK"])
    def test_torus_equivariance(self, op):
        # F((a_i c^i)) is proportional to (F(G)_i c^i)
        rng = np.random.default_rng(17)
        for _ in range(5):
            k = int(rng.integers(2, 7))
            g = random_metric(rng, k, even=(op == "TK"))
            c = float(np.exp(rng.uniform(-1, 1)))
            powers = c ** np.arange(g.k + 1)
            a = OPS[op](DiagonalMetric(g.coeffs * powers)).coeffs
            b = OPS[op](g).coeffs * powers
            assert np.allclose(a / a[0], b / b[0], rtol=1e-9)

    @pytest.mark.parametrize("op", ["T", "Tnu", "TK"])
    def test_positivity(self, op):
        rng = np.random.default_rng(23)
        for _ in range(5):
            g = random_metric(rng, int(rng.integers(2, 9)), even=(op == "TK"))
            assert np.all(OPS[op](g).coeffs > 0)


def _log_sum_exp(terms):
    top = max(terms)
    return top + math.log(sum(math.exp(t - top) for t in terms))


def _quad_reference(op, a):
    """The map from its defining integrals over (0,inf), each taken in u = log x
    by scipy's adaptive rule over 64 panels on [-80, 80]: no Gauss-Legendre
    nodes and no cubic grading.  Integrands are formed from logarithms, since
    x^k overflows at x = e^80."""
    from scipy.integrate import quad

    k = a.size - 1
    log_a = [math.log(v) for v in a]
    pairs = [(math.log(a[i] * a[j] * (i - j) ** 2), i + j)
             for i in range(1, k + 1) for j in range(i)]
    log_P = lambda u: _log_sum_exp([la + i * u for i, la in enumerate(log_a)])
    # log of (integrand times dx/du = x) for the numerator and for dens_q
    if op == "Tnu":
        num = lambda u: u - 2.0 * (max(u, 0.0) + math.log1p(math.exp(-abs(u))))
        dens = lambda u, q: num(u) + q * u - log_P(u)
    elif op == "T":
        num = lambda u: _log_sum_exp([lc + s * u for lc, s in pairs]) - 2.0 * log_P(u)
        dens = lambda u, q: num(u) + q * u - log_P(u)
    else:
        num = lambda u: u - (2.0 / k) * log_P(u)
        dens = lambda u, q: (q + 1) * u - (1.0 + 2.0 / k) * log_P(u)

    def integral(log_f):
        edges = np.linspace(-80.0, 80.0, 65)
        return sum(quad(lambda u: math.exp(log_f(u)), lo, hi,
                        epsabs=0.0, epsrel=1e-13, limit=200)[0]
                   for lo, hi in zip(edges[:-1], edges[1:]))

    top = integral(num)
    return np.array([top / ((k + 1) * integral(lambda u: dens(u, q)))
                     for q in range(k + 1)])


@pytest.mark.parametrize("op, k", [("Tnu", 3), ("Tnu", 6), ("T", 3), ("T", 5),
                                   ("TK", 4), ("TK", 6)])
def test_matches_independent_quadrature(op, k):
    g = DiagonalMetric(np.exp(np.random.default_rng(100 + k).uniform(-3, 3, k + 1)))
    want = _quad_reference(op, g.coeffs)
    assert np.allclose(OPS[op](g).coeffs, want, rtol=1e-12, atol=0.0)


def _log_trapezoid(op, a, h=0.05):
    """The map from its defining integrals by the trapezoidal rule in u = log x
    on [-700, 700], every integrand formed by log-sum-exp: numpy only, no
    Gauss-Legendre nodes and no grading, and no breakpoint out of reach.  Each
    map is a_q = Int w dx / ((k+1) Int w x^q / P dx) for a weight w."""
    k = a.size - 1
    u = np.arange(-round(700 / h), round(700 / h) + 1) * h
    log_a = np.log(a)
    log_P = np.logaddexp.reduce(log_a[:, None] + np.arange(k + 1)[:, None] * u, axis=0)
    # log of w(x) x, as dx = x du
    if op == "T":  # w = rho = sum_{i>j} a_i a_j (i-j)^2 x^(i+j-1) / P^2
        i, j = np.tril_indices(k + 1, -1)
        log_w_x = np.logaddexp.reduce((log_a[i] + log_a[j] + 2 * np.log(i - j))[:, None]
                                      + (i + j)[:, None] * u, axis=0) - 2 * log_P
    elif op == "Tnu":  # w = 1/(1+x)^2
        log_w_x = u - 2 * np.logaddexp(0.0, u)
    else:  # w = P^(-2/k)
        log_w_x = u - (2.0 / k) * log_P

    def log_integral(log_f):
        top = np.max(log_f)
        return top + np.log(h * np.sum(np.exp(log_f - top)))

    log_dens = np.array([log_integral(log_w_x + q * u - log_P) for q in range(k + 1)])
    return np.exp(log_integral(log_w_x) - np.log(k + 1) - log_dens)


def _certified_match_reference(op, spread, even=False):
    """The number of 24 seeded starts at log10 spread in ``spread`` that op
    certifies; each certified result must match the log-trapezoid reference."""
    rng = np.random.default_rng(1)
    certified = 0
    for _ in range(24):
        k = int(rng.integers(2, 9))
        if even and k % 2:
            k += 1
        u = rng.uniform(0, 1, k + 1)
        u = (u - u.min()) / (u.max() - u.min())
        a = np.array([math.comb(k, q) for q in range(k + 1)]) * 10.0 ** (
            rng.uniform(*spread) * u)
        try:
            got = OPS[op](a).coeffs
        except QuadratureError:
            continue
        certified += 1
        assert np.allclose(got, _log_trapezoid(op, a), rtol=1e-10, atol=0.0)
    return certified


def test_T_wide_spread_raises_or_matches_reference():
    # log10 spreads of 30-120 put Newton-polygon breakpoints past the nodes'
    # reach: two levels can then miss the same peak of rho and agree
    with pytest.raises(QuadratureError, match=r"^T, n=1, k=4: density mass"):
        apply_T((1, 1e40, 1, 1e40, 1))
    assert _certified_match_reference("T", (30, 120)) >= 4


@pytest.mark.parametrize("op", ["Tnu", "TK"])
def test_wide_spread_raises_or_matches_reference(op):
    # the trace relation holds by construction for these maps (their
    # numerators come from identities), so only a reference can catch a
    # wrong density; they fail from smaller spreads than T
    assert _certified_match_reference(op, (8, 60), even=op == "TK") >= 4


def test_tnu_spread_1e12_matches_mpmath():
    # the CP^1 ladder reaches 2048 nodes in steps of about 1.5: (1, 1e12, 1)
    # certifies there (doubling to the same cap did not), within 1.0e-14 of
    # mpmath's quad split at the Newton-polygon corners 1e-12 and 1e12
    import mpmath

    got = apply_Tnu((1.0, 1e12, 1.0)).coeffs
    with mpmath.workdps(30):
        b = mpmath.mpf(10) ** 12
        corners = [0, 1 / b, 1, b, mpmath.inf]
        want = np.array([float(1 / (3 * mpmath.quad(
            lambda x: x**q / ((1 + x) ** 2 * (1 + b * x + x**2)), corners)))
            for q in range(3)])
    assert np.max(np.abs(got - want) / want) < 1e-12


def test_cached_tables_read_only_and_cold_equals_warm():
    from balmet import cp1

    g = DiagonalMetric(np.exp(np.random.default_rng(5).uniform(-4, 4, 7)))
    for op in ("T", "Tnu", "TK"):
        cp1._rows.cache_clear()
        cp1._node_weights.cache_clear()
        cp1._pairs.cache_clear()
        cold = OPS[op](g).coeffs
        assert np.array_equal(OPS[op](g).coeffs, cold)
    assert not cp1._rows(6, (64,)).flags.writeable
    assert not cp1._rows(6, (64, 128)).flags.writeable
    assert not any(a.flags.writeable for a in cp1._node_weights((64,)))
    assert not any(a.flags.writeable for a in cp1._node_weights((64, 128)))
    assert not any(a.flags.writeable for a in cp1._pairs(7))


def _separate_level(op, a, m):
    """The densities of one rule level on its own tables: the level the
    first call of an application forms padded, stacked with the next one."""
    from balmet import cp1

    k = a.size - 1
    ah = a / a.max()
    (w0,), (nu,) = cp1._node_weights((m,))
    (rows,) = cp1._rows(k, (m,))
    Q = ah @ rows
    if op == "Tnu":
        f = nu / Q
    elif op == "T":
        f = cp1._density_coeffs(ah) @ cp1._rows(2 * k - 2, (m,))[0] / Q / Q / Q
    else:
        f = np.exp((-2.0 / k) * np.log(Q)) / Q
    return rows @ (w0 * f)


def test_fused_first_pair_matches_separate_levels(monkeypatch):
    from balmet import cp1

    levels = []
    real = cp1.refine_by_doubling

    def recording(evaluate, *args):
        def recorded(m):
            levels.append((m, evaluate(m)))
            return levels[-1][1]
        return real(recorded, *args)

    monkeypatch.setattr(cp1, "refine_by_doubling", recording)
    rng = np.random.default_rng(17)
    top = 0
    for op in OPS:
        for k in range(1, 13):
            if not applicable(op, k):
                continue
            for spread in (0.0, 2.0, 4.0, 6.0, 8.0):
                u = rng.uniform(0, 1, k + 1)
                a = np.array([math.comb(k, q) for q in range(k + 1)]) * 10.0 ** (spread * u)
                levels.clear()
                try:
                    OPS[op](a)
                except QuadratureError:
                    pass
                assert [m for m, _ in levels[:2]] == list(LADDERS[1][:2])
                for m, dens in levels:
                    assert np.array_equal(dens, _separate_level(op, a, m)), (op, k, spread, m)
                top = max(top, levels[-1][0])
    assert top > 128


@pytest.mark.parametrize("op", ["T", "Tnu", "TK"])
def test_overflowing_image_raises_quadrature_error(op):
    # a valid start whose middle image coefficient is about 3.4e308
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(QuadratureError, match=rf"^{op}, n=1, k=2: the image of a valid"
                                                  " metric leaves floating-point range$"):
            OPS[op]((1.7e308, 1.0, 1.7e308))


@pytest.mark.parametrize("op, coeffs, spread", [
    ("Tnu", [1e-300] + [1.0] * 15 + [1e300], "inf"),
    ("TK", [1e-300] + [1.0] * 15 + [1e300], "inf"),
    ("T", [1e-300, 1e300] + [1e-300] * 37, "inf"),
    # every normalized coefficient is a normal float, and Q^(-1-2/k) still overflows
    ("TK", [1e-290] * 16 + [1.0], "1e+290"),
], ids=["Tnu", "TK", "T", "TK-normal-range"])
def test_integrands_past_floating_range_raise_quadrature_error(op, coeffs, spread):
    # Q underflows at some nodes, and f = nu/Q, S/Q^3 or Q^(-1-2/k) leaves
    # floating-point range: no numpy warning, a QuadratureError naming the spread
    k = len(coeffs) - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(QuadratureError, match=rf"^{op}, n=1, k={k}: the integrands leave"
                                                  r" floating-point range \(coefficient spread"
                                                  rf" max a / min a = {re.escape(spread)}\)$"):
            OPS[op](coeffs)


@pytest.mark.parametrize("k", [2, 8, 30, 98])
def test_unguarded_spreads_stay_in_floating_range(k):
    # Q >= min(a)/max(a) 8^-k at every node; from 1e-90 on the maps run
    # without an errstate guard, so no integrand may leave floating-point range
    lo = 1.01e-90 * 8.0 ** k
    starts = [np.full(k + 1, lo), np.full(k + 1, lo)]
    starts[0][k // 2] = 1.0
    starts[1][[0, k]] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for a in starts:
            for apply in (apply_T, apply_Tnu, apply_TK):
                try:
                    apply(a)
                except QuadratureError:
                    pass  # the node cap: what matters is that no warning came first


def test_T_mass_failure_past_floating_range_names_an_infinite_spread():
    # the spread 1e600 itself leaves floating-point range: no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(QuadratureError, match=r"density mass .* max a / min a = inf\)$"):
            apply_T((1e-300, 1e300, 1e-300))


def test_density_coeffs_match_the_pair_sum():
    from balmet import cp1

    rng = np.random.default_rng(11)
    for k in range(1, 13):
        a = np.exp(rng.uniform(-3, 3, k + 1))
        i, j = np.tril_indices(a.size, -1)
        want = np.bincount(i + j - 1, weights=a[i] * a[j] * (i - j) ** 2)
        assert np.array_equal(cp1._density_coeffs(a), want)


class TestDegreeValidation:
    def test_T_rejects_k0(self):
        # a raising call caches no step for its (kind, k): every call raises
        for _ in range(2):
            with pytest.raises(MetricError, match="T is undefined for k=0"):
                apply_T((1.0,))

    def test_Tnu_allows_k0(self):
        out = apply_Tnu((3.0,))
        assert out.coeffs[0] == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("coeffs", [(1.0,), (1.0, 2.0), (1, 2, 3, 4)])
    def test_TK_rejects_bad_degree(self, coeffs):
        for _ in range(2):
            with pytest.raises(MetricError, match="T_K requires even degree"):
                apply_TK(coeffs)

    def test_operator_kind_parse(self):
        assert OperatorKind.parse("tnu") is OperatorKind.TNU
        assert OperatorKind.parse("T_K") is OperatorKind.TK
        assert OperatorKind.parse(OperatorKind.T) is OperatorKind.T
        for bad in (3, None, "bogus"):
            with pytest.raises(ValueError, match="unknown operator"):
                OperatorKind.parse(bad)

    def test_dispatch(self):
        out = apply_operator("TK", (1, 2, 1))
        assert np.allclose(out.coeffs, (1, 2, 1), rtol=1e-10)

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_rejects_multi_index_metric(self, op):
        # a MultiIndexMetric, even over CP^1, is the CP^n T_nu map's input
        line = MultiIndexMetric(build_basis(1, 2), (1.0, 3.0, 2.0))
        with pytest.raises(MetricError, match="expected a DiagonalMetric"):
            OPS[op](line)
        with pytest.raises(MetricError):
            is_palindromic(line)


def rho_exact(coeffs, x):
    """Oracle: the density formula expanded in exact rational arithmetic."""
    a = [Fraction(c) for c in coeffs]
    x = Fraction(x)
    k = len(a) - 1
    num = sum(a[i] * a[j] * (i - j) ** 2 * x ** (i + j - 1)
              for i in range(1, k + 1) for j in range(i))
    den = sum(a[i] * x**i for i in range(k + 1)) ** 2
    return float(num / den)


class TestDensityProfile:
    def test_mismatched_samples_raise(self):
        with pytest.raises(ValueError, match=r"^x and rho must be matching 1-d arrays$"):
            DensityProfile([1.0, 2.0], [1.0])

    def test_hand_values(self):
        prof = density_profile((1.0, 1.0), np.array([1.0]))
        assert prof.rho[0] == pytest.approx(0.25, rel=1e-14)
        prof = density_profile((1.0, 2.0, 1.0), np.array([1.0]))
        assert prof.rho[0] == pytest.approx(0.5, rel=1e-14)

    def test_pinched_sphere_value(self):
        coeffs = (1, 300, 300, 300, 1)
        got = density_profile(coeffs, np.array([1.0])).rho[0]
        assert got == pytest.approx(rho_exact(coeffs, 1), rel=1e-13)

    def test_nonnegative_and_scale_invariant(self):
        rng = np.random.default_rng(31)
        xs = np.geomspace(1e-3, 1e3, 50)
        for _ in range(5):
            g = random_metric(rng, int(rng.integers(1, 8)))
            rho = density_profile(g, xs).rho
            assert np.all(rho >= 0)
            rho2 = density_profile(scale(g, 7.3), xs).rho
            assert np.allclose(rho, rho2, rtol=1e-12)

    def test_inversion_symmetry_when_palindromic(self):
        # rho(1/x) = x^2 rho(x) for metrics invariant under z -> 1/z
        xs = np.geomspace(1e-2, 1e2, 41)
        g = (1, 300, 300, 300, 1)
        rho = density_profile(g, xs).rho
        rho_inv = density_profile(g, 1.0 / xs).rho
        assert np.allclose(rho_inv, xs**2 * rho, rtol=1e-11)

    def test_family_pushforward(self):
        # the c-family density is the c=1 density pushed through x -> x/c
        xs = np.geomspace(1e-2, 1e2, 41)
        k, c = 5, 2.7
        rho_c = density_profile(balanced_coeffs(BalancedFamily(k, 1.0, c)), xs).rho
        rho_1 = density_profile(balanced_coeffs(BalancedFamily(k)), c * xs).rho
        assert np.allclose(rho_c, c * rho_1, rtol=1e-11)

    def test_round_metric_over_the_whole_range(self):
        # rho = k/(1+x)^2; P^2 once overflowed from k=53 on, giving inf/nan
        xs = np.geomspace(1e-300, 1e300, 121)
        normal = xs <= 1e140  # beyond, k/(1+x)^2 underflows, as rho may
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(1, 161):
                rho = density_profile(balanced_coeffs(BalancedFamily(k)), xs).rho
                assert np.all(np.isfinite(rho)) and np.all(rho >= 0)
                np.testing.assert_allclose(rho[normal], k / (1.0 + xs[normal]) ** 2,
                                           rtol=1e-14, atol=0)

    def test_seeded_metrics_against_exact_arithmetic(self):
        rng = np.random.default_rng(7)
        checked = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(8):
                k = int(rng.integers(1, 13))
                a = 10.0 ** rng.uniform(-6, 6, k + 1)
                xs = 10.0 ** rng.uniform(-300, 300, 8)
                rho = density_profile(a, xs).rho
                want = np.array([rho_exact(a, x) for x in xs])
                normal = want > 1e-290  # the rest underflows, as rho may
                np.testing.assert_allclose(rho[normal], want[normal], rtol=1e-14, atol=0)
                checked += normal.sum()
        assert checked >= 24

    def test_bad_samples(self):
        with pytest.raises(ValueError):
            density_profile((1, 1), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            density_profile((1, 1), np.array([-1.0]))
        with pytest.raises(ValueError):
            density_profile((1, 1), np.array([]))


def test_total_density_matches_degree():
    # integral of rho over (0,inf) equals k for this normalization
    from balmet import integrate_semi_infinite

    rng = np.random.default_rng(41)
    for _ in range(3):
        k = int(rng.integers(1, 6))
        g = DiagonalMetric(np.exp(rng.uniform(-1, 1, k + 1)))
        val, _ = integrate_semi_infinite(
            lambda x: density_profile(g, np.atleast_1d(x)).rho, rel_tol=1e-10)
        assert val == pytest.approx(k, rel=1e-9)
