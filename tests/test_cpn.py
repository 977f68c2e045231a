import itertools

import numpy as np
import pytest

from balmet import (
    MetricError,
    MultiIndexMetric,
    apply_Tnu,
    apply_Tnu_cpn,
    build_basis,
    classify_symmetry,
    full_symmetry_orbits,
    metric_from_class_values,
    multinomial_coeffs,
    permutation_action,
    sigma_predict_cpn,
)


def random_cpn_metric(rng, n, k, spread=0.4):
    basis = build_basis(n, k)
    base = multinomial_coeffs(basis)
    return MultiIndexMetric(basis, base * np.exp(rng.uniform(-spread, spread, basis.size)))


class TestBasis:
    def test_cp3_degree4_size(self):
        assert build_basis(3, 4).size == 35

    def test_cp3_degree4_representatives(self):
        # 1, z1, z1^2, z1*z2, z1*z2*z3 at (1-based) positions 1, 2, 5, 6, 15
        basis = build_basis(3, 4)
        assert basis.exponents[0] == (0, 0, 0)
        assert basis.exponents[1] == (1, 0, 0)
        assert basis.exponents[4] == (2, 0, 0)
        assert basis.exponents[5] == (1, 1, 0)
        assert basis.exponents[14] == (1, 1, 1)

    def test_cp1_degree2(self):
        basis = build_basis(1, 2)
        assert basis.exponents == ((0,), (1,), (2,))

    def test_order_degree_then_lex(self):
        basis = build_basis(2, 2)
        assert basis.exponents == (
            (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            build_basis(0, 2)
        with pytest.raises(ValueError):
            build_basis(2, 0)


class TestPermutationAction:
    def test_identity(self):
        basis = build_basis(2, 3)
        mp = permutation_action(basis, (0, 1, 2))
        assert np.array_equal(mp, np.arange(basis.size))

    def test_cp1_swap_reverses_degrees(self):
        basis = build_basis(1, 2)
        mp = permutation_action(basis, (1, 0))
        assert list(mp) == [2, 1, 0]

    def test_bijection(self):
        basis = build_basis(3, 4)
        for pi in [(1, 0, 2, 3), (1, 2, 3, 0), (3, 2, 1, 0)]:
            mp = permutation_action(basis, pi)
            assert sorted(mp) == list(range(basis.size))

    def test_double_transposition_fixes_full_orbits(self):
        # brute-force: the induced map must send each full-symmetry orbit of
        # the 35 degree-4 monomials to itself
        basis = build_basis(3, 4)
        orbits = full_symmetry_orbits(basis)
        assert len(orbits) == 5
        mp = permutation_action(basis, (1, 0, 3, 2))
        for orbit in orbits:
            assert set(mp[list(orbit)]) == set(orbit)

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            permutation_action(build_basis(2, 2), (0, 0, 1))


class TestClassifySymmetry:
    def test_fully_symmetric(self):
        basis = build_basis(3, 4)
        metric = metric_from_class_values(basis, (1, 20, 30, 40, 50))
        cls = classify_symmetry(metric)
        assert cls.generally_symmetric
        assert len(cls.invariant_permutations) == 24
        assert len(cls.orbits) == 5

    def test_generic_metric(self):
        rng = np.random.default_rng(2)
        metric = random_cpn_metric(rng, 2, 3)
        cls = classify_symmetry(metric)
        assert not cls.generally_symmetric
        assert len(cls.invariant_permutations) == 1  # identity only

    def test_cp1_palindromic(self):
        basis = build_basis(1, 4)
        metric = MultiIndexMetric(basis, np.array([1.0, 300.0, 7.0, 300.0, 1.0]))
        assert classify_symmetry(metric).generally_symmetric


class TestClassValues:
    def test_round_class_values(self):
        basis = build_basis(3, 4)
        metric = metric_from_class_values(basis, (1.0, 4.0, 6.0, 12.0, 24.0))
        assert np.array_equal(metric.coeffs, multinomial_coeffs(basis))

    def test_wrong_length(self):
        with pytest.raises(MetricError):
            metric_from_class_values(build_basis(3, 4), (1.0, 2.0))


class TestApply:
    @pytest.mark.parametrize("n,k", [(2, 2), (2, 4), (3, 4)])
    def test_round_metric_fixed(self, n, k):
        basis = build_basis(n, k)
        fs = MultiIndexMetric(basis, multinomial_coeffs(basis))
        out = apply_Tnu_cpn(fs)
        assert np.allclose(out.coeffs, fs.coeffs, rtol=1e-12)

    def test_cp3_first_step(self):
        basis = build_basis(3, 4)
        metric = metric_from_class_values(basis, (1.0, 20.0, 30.0, 40.0, 50.0))
        out = apply_Tnu_cpn(metric)
        norm = out.coeffs / out.coeffs[0]
        want = {1: 4.3071170, 4: 6.5967335, 5: 13.0915039, 14: 25.9850356}
        for idx, val in want.items():
            assert norm[idx] == pytest.approx(val, abs=1e-4)

    def test_trace_relation(self):
        rng = np.random.default_rng(5)
        for n, k in [(2, 2), (2, 3), (3, 2)]:
            metric = random_cpn_metric(rng, n, k)
            out = apply_Tnu_cpn(metric)
            total = float(np.sum(metric.coeffs / out.coeffs))
            assert total == pytest.approx(metric.basis.size, abs=1e-10 * metric.basis.size)

    def test_symmetric_input_gives_symmetric_output(self):
        basis = build_basis(3, 4)
        metric = metric_from_class_values(basis, (1.0, 20.0, 30.0, 40.0, 50.0))
        out = apply_Tnu_cpn(metric)
        for orbit in full_symmetry_orbits(basis):
            vals = out.coeffs[list(orbit)]
            assert np.all(vals == vals[0])

    def test_commutes_with_permutations(self):
        # permute-then-apply equals apply-then-permute on a generic metric
        rng = np.random.default_rng(6)
        metric = random_cpn_metric(rng, 2, 3)
        basis = metric.basis
        out = apply_Tnu_cpn(metric)
        for pi in [(1, 2, 0), (0, 2, 1)]:
            mp = permutation_action(basis, pi)
            permuted = MultiIndexMetric(basis, metric.coeffs[mp])
            out_perm = apply_Tnu_cpn(permuted)
            assert np.allclose(out_perm.coeffs, out.coeffs[mp], rtol=1e-9)

    def test_positivity(self):
        rng = np.random.default_rng(8)
        out = apply_Tnu_cpn(random_cpn_metric(rng, 2, 5, spread=2.0))
        assert np.all(out.coeffs > 0)

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(9)
        metric = random_cpn_metric(rng, 2, 2)
        lam = 37.5
        scaled = MultiIndexMetric(metric.basis, metric.coeffs * lam)
        assert np.allclose(apply_Tnu_cpn(scaled).coeffs,
                           apply_Tnu_cpn(metric).coeffs * lam, rtol=1e-11)

    def test_unsupported_dimension(self):
        basis = build_basis(4, 2)
        metric = MultiIndexMetric(basis, multinomial_coeffs(basis))
        with pytest.raises(MetricError):
            apply_Tnu_cpn(metric)

    def test_coefficient_validation(self):
        basis = build_basis(2, 2)
        with pytest.raises(MetricError):
            MultiIndexMetric(basis, np.ones(5))
        with pytest.raises(MetricError):
            MultiIndexMetric(basis, np.array([1.0, 1, 1, 1, 1, -1]))
        for bad in ([1.0, 1, 1, 1, 1, 0], [1.0, 1, 1, 1, 1, np.nan],
                    [1.0, 1, 1, 1, 1, np.inf], np.ones((2, 3)), []):
            with pytest.raises(MetricError):
                MultiIndexMetric(basis, np.asarray(bad, dtype=float))
        source = np.ones(6)
        metric = MultiIndexMetric(basis, source)
        source[0] = 2.0
        assert metric.coeffs[0] == 1.0 and not metric.coeffs.flags.writeable


class TestAgreementWithCp1:
    def test_matches_projective_line_operator(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            k = int(rng.integers(1, 7))
            coeffs = np.exp(rng.uniform(-2, 2, k + 1))
            basis = build_basis(1, k)
            via_cpn = apply_Tnu_cpn(MultiIndexMetric(basis, coeffs))
            via_cp1 = apply_Tnu(coeffs)
            assert np.allclose(via_cpn.coeffs, via_cp1.coeffs, rtol=1e-11)


class TestSigmaPrediction:
    def test_cp3_symmetric_value(self):
        assert sigma_predict_cpn(3, 4, True) == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_cp2_generic_value(self):
        assert sigma_predict_cpn(2, 2, False) == pytest.approx(0.40, rel=1e-15)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_reduces_to_projective_line_laws(self, k):
        from balmet import sigma_closed_form

        assert sigma_predict_cpn(1, k, True) == pytest.approx(
            sigma_closed_form("Tnu", k, palindromic=True), rel=1e-15)
        assert sigma_predict_cpn(1, k, False) == pytest.approx(
            sigma_closed_form("Tnu", k, palindromic=False), rel=1e-15)

    def test_table_values(self):
        # reference sigma tables, all (n, k) combinations, two regimes; the
        # values are printed with two decimals, so allow half an ulp (the
        # generic (2,5) entry 0.625 -> 0.63 sits exactly on that boundary)
        generic = {(2, 2): 0.40, (2, 3): 0.50, (2, 4): 0.57, (2, 5): 0.63,
                   (3, 2): 0.33, (3, 3): 0.43, (3, 4): 0.50, (3, 5): 0.56}
        symmetric = {(2, 2): 0.07, (2, 3): 0.14, (2, 4): 0.21, (2, 5): 0.28,
                     (3, 2): 0.05, (3, 3): 0.11, (3, 4): 0.17, (3, 5): 0.22}
        for (n, k), val in generic.items():
            assert sigma_predict_cpn(n, k, False) == pytest.approx(val, abs=5.0001e-3)
        for (n, k), val in symmetric.items():
            assert sigma_predict_cpn(n, k, True) == pytest.approx(val, abs=5.0001e-3)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            sigma_predict_cpn(0, 2, True)
        with pytest.raises(ValueError):
            sigma_predict_cpn(1, -1, False)

    def test_degree_zero(self):
        # T_nu at k=0 is the identity: both laws are 0
        assert sigma_predict_cpn(1, 0, True) == sigma_predict_cpn(3, 0, False) == 0.0


class TestAgainstReferences:
    def test_cp3_matches_pointwise_duffy_rule(self):
        # the same rule, but the Duffy-mapped integrand evaluated point by
        # point on the node grid instead of factored per axis
        from balmet.quadrature import gauss_legendre_unit

        metric = random_cpn_metric(np.random.default_rng(30), 3, 2)
        k, N = metric.basis.k, metric.basis.size
        t, omt, w = gauss_legendre_unit(96)
        t1, t2, t3 = np.meshgrid(t, t, t, indexing="ij")
        o1, o2, o3 = np.meshgrid(omt, omt, omt, indexing="ij")
        u = (t1, o1 * t2, o1 * o2 * t3)
        s = o1 * o2 * o3
        weight = np.einsum("a,b,c->abc", w, w, w) * o1**2 * o2

        def monomial(alpha):
            return u[0]**alpha[0] * u[1]**alpha[1] * u[2]**alpha[2] * s**(k - sum(alpha))

        D = sum(a * monomial(alpha) for a, alpha in zip(metric.coeffs, metric.basis.exponents))
        want = np.array([1.0 / (N * 6 * np.sum(weight * monomial(alpha) / D))
                         for alpha in metric.basis.exponents])
        got = apply_Tnu_cpn(metric).coeffs
        assert np.max(np.abs(got - want) / want) < 1e-13

    @pytest.mark.parametrize("k", [2, 3])
    def test_cp2_matches_adaptive_quadrature(self, k):
        # the defining integral over (0,inf)^2, by scipy's adaptive rule: no
        # homogeneous coordinates, no Duffy map, no Gauss-Legendre nodes
        from scipy.integrate import dblquad

        metric = random_cpn_metric(np.random.default_rng(20 + k), 2, k)
        exps = metric.basis.exponents

        def density(y, x):
            D = sum(a * x**e1 * y**e2 for a, (e1, e2) in zip(metric.coeffs, exps))
            return 1.0 / (D * (1.0 + x + y) ** 3)

        N = metric.basis.size
        want = np.empty(N)
        for i, (e1, e2) in enumerate(exps):
            val, _ = dblquad(lambda y, x: x**e1 * y**e2 * density(y, x),
                             0, np.inf, 0, np.inf, epsabs=0, epsrel=1e-12)
            want[i] = 1.0 / (N * 2 * val)
        got = apply_Tnu_cpn(metric).coeffs
        assert np.max(np.abs(got - want) / want) < 1e-11
