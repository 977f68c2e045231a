import math
import warnings

import numpy as np
import pytest

from balmet import (
    BalancedFamily,
    DiagonalMetric,
    MetricError,
    MultiIndexMetric,
    QuadratureError,
    apply_TK,
    balanced_coeffs,
    build_basis,
    distance,
    is_palindromic,
    predict_balanced_direction_k2,
    reverse,
    scale,
    trace_relation,
)


class TestDiagonalMetric:
    def test_degree(self):
        g = DiagonalMetric(np.array([1.0, 17.0, 36.0]))
        assert g.k == 2
        assert len(g) == 3
        assert g[1] == 17.0

    @pytest.mark.parametrize("bad", [[], [1.0, 0.0], [1.0, -2.0], [1.0, np.nan],
                                     [np.inf, 1.0]])
    def test_rejects_degenerate(self, bad):
        with pytest.raises(MetricError):
            DiagonalMetric(np.asarray(bad, dtype=float))

    def test_immutable(self):
        g = DiagonalMetric(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            g.coeffs[0] = 5.0

    def test_equality(self):
        a = DiagonalMetric(np.array([1.0, 2.0]))
        assert a == DiagonalMetric(np.array([1.0, 2.0]))
        assert a != DiagonalMetric(np.array([1.0, 3.0]))
        assert a != DiagonalMetric(np.array([1.0, 2.0, 3.0]))
        assert a != MultiIndexMetric(build_basis(1, 1), np.array([1.0, 2.0]))
        line = MultiIndexMetric(build_basis(1, 2), np.array([1.0, 2.0, 1.0]))
        assert line == MultiIndexMetric(build_basis(1, 2), np.array([1.0, 2.0, 1.0]))
        assert line != MultiIndexMetric(build_basis(2, 1), np.array([1.0, 2.0, 1.0]))

    def test_image_is_checked_and_read_only(self):
        g = DiagonalMetric.image(6.0, np.array([1.0, 2.0, 3.0]))
        assert g == DiagonalMetric(np.array([6.0, 3.0, 2.0]))
        assert not g.coeffs.flags.writeable
        basis = build_basis(2, 1)
        h = MultiIndexMetric.image(2.0, np.array([1.0, 2.0, 4.0]), basis=basis)
        assert h == MultiIndexMetric(basis, np.array([2.0, 1.0, 0.5]))
        # overflow, underflow and a non-positive integral, without a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for num, integrals in ((1e300, [1e-10, 1.0]), (1e-300, [1e100, 1.0]),
                                      (1.0, [0.0, 1.0])):
                with pytest.raises(QuadratureError, match="^the image of a valid metric"
                                                          " leaves floating-point range$"):
                    DiagonalMetric.image(num, np.array(integrals))

    @pytest.mark.parametrize("position", range(4))
    def test_image_rejects_a_nan_anywhere(self, position):
        # Python's min and max skip a NaN that is not the first value
        integrals = np.array([1.0, 2.0, 3.0, 4.0])
        integrals[position] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(QuadratureError, match="^the image of a valid metric"):
                DiagonalMetric.image(1.0, integrals)
            with pytest.raises(QuadratureError, match="^the image of a valid metric"):
                MultiIndexMetric.image(1.0, integrals, basis=build_basis(3, 1))


class TestDistance:
    def test_identity(self):
        assert distance((1, 12, 36), (1, 12, 36)) == 0.0

    def test_table_row(self):
        # first recorded step of the degree-2 benchmark run
        d = distance((0.8826, 15.0043, 31.7738), (1, 12, 36))
        assert d == pytest.approx(0.2848, abs=5e-4)

    def test_uniform_log_shift(self):
        assert distance((1, 1), (math.e, math.e)) == pytest.approx(math.sqrt(2), rel=1e-14)

    def test_degree_mismatch(self):
        with pytest.raises(MetricError):
            distance((1, 2), (1, 2, 3))

    def test_mixed_types_and_bases(self):
        diag = DiagonalMetric(np.array([1.0, 2.0, 1.0]))
        line = MultiIndexMetric(build_basis(1, 2), np.array([1.0, 2.0, 1.0]))
        plane = MultiIndexMetric(build_basis(2, 1), np.array([1.0, 2.0, 1.0]))
        for a, b in ((diag, line), (line, diag), (line, plane), (diag, plane)):
            with pytest.raises(MetricError):
                distance(a, b)
        assert distance(line, scale(line, math.e)) == pytest.approx(math.sqrt(3), rel=1e-14)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = int(rng.integers(1, 8))
            a, b, c = (np.exp(rng.uniform(-3, 3, k + 1)) for _ in range(3))
            assert distance(a, b) == pytest.approx(distance(b, a), rel=1e-14)
            assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-12
            assert distance(a, a) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        a = np.exp(rng.uniform(-2, 2, 5))
        b = np.exp(rng.uniform(-2, 2, 5))
        for lam in (1e-6, 0.5, 3.0, 1e8):
            assert distance(scale(a, lam), scale(b, lam)) == pytest.approx(
                distance(a, b), rel=1e-12)


class TestScale:
    def test_identity(self):
        assert scale((1, 17, 36), 1.0) == DiagonalMetric(np.array([1.0, 17.0, 36.0]))

    def test_table_start(self):
        # the degree-2 run starts from (1,17,36) scaled by ~0.8826
        got = scale((1, 17, 36), 0.8826).coeffs
        for v, want in zip(got, (0.8826, 15.0043, 31.7738)):
            assert v == pytest.approx(want, abs=5e-4)

    def test_halving(self):
        assert scale((2, 4), 0.5) == DiagonalMetric(np.array([1.0, 2.0]))

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
    def test_bad_factor(self, lam):
        with pytest.raises(MetricError):
            scale((1, 2), lam)


class TestPalindromic:
    def test_examples(self):
        assert is_palindromic((1, 300, 300, 300, 1), tol=0.0)
        assert not is_palindromic((1, 17, 36), tol=0.0)
        assert is_palindromic((5,), tol=0.0)

    def test_tolerance(self):
        g = (1.0, 2.0, 1.0 + 1e-13)
        assert not is_palindromic(g, tol=0.0)
        assert is_palindromic(g)  # default relative tolerance 1e-12

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            is_palindromic((1, 1), tol=-1.0)

    def test_nan_tol_rejected(self):
        # every comparison with NaN is false: the check must not pass it
        with pytest.raises(ValueError, match="tol must be >= 0, got nan"):
            is_palindromic((1, 1), tol=float("nan"))


class TestBalancedFamily:
    def test_expansion_k2(self):
        assert balanced_coeffs(BalancedFamily(2, 1.0, 6.0)) == DiagonalMetric(
            np.array([1.0, 12.0, 36.0]))

    def test_expansion_k6_round(self):
        got = balanced_coeffs(BalancedFamily(6, 1.0, 1.0))
        assert got == DiagonalMetric(np.array([1.0, 6, 15, 20, 15, 6, 1]))

    def test_expansion_k1(self):
        assert balanced_coeffs(BalancedFamily(1, 2.0, 3.0)) == DiagonalMetric(
            np.array([2.0, 6.0]))

    @pytest.mark.parametrize("k", range(0, 9))
    def test_round_is_palindromic(self, k):
        assert is_palindromic(balanced_coeffs(BalancedFamily(k, 1.7, 1.0)), tol=0.0)

    def test_validation(self):
        with pytest.raises(MetricError):
            BalancedFamily(-1)
        with pytest.raises(MetricError):
            BalancedFamily(2, alpha=0.0)
        with pytest.raises(MetricError):
            BalancedFamily(2, c=-3.0)


class TestPredictK2:
    def test_examples(self):
        assert np.allclose(predict_balanced_direction_k2((1, 17, 36)).coeffs,
                           (1, 12, 36))
        assert np.allclose(predict_balanced_direction_k2((1, 2, 1)).coeffs, (1, 2, 1))
        assert np.allclose(predict_balanced_direction_k2((4, 100, 9)).coeffs,
                           (4, 12, 9))
        # a0*a2 leaves floating-point range at these scales; the direction does not
        for s in (1e-300, 1e-170, 1e-160, 1e160, 1e300):
            got = predict_balanced_direction_k2(np.array([1.0, 17.0, 36.0]) * s)
            assert np.allclose(got.coeffs / s, (1, 12, 36), rtol=1e-14)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = np.exp(rng.uniform(-2, 2, 3))
            once = predict_balanced_direction_k2(g)
            twice = predict_balanced_direction_k2(once)
            assert np.allclose(once.coeffs, twice.coeffs, rtol=1e-15)

    def test_wrong_degree(self):
        with pytest.raises(MetricError):
            predict_balanced_direction_k2((1, 2, 3, 4))


class TestTraceRelation:
    def test_identical(self):
        assert trace_relation((1, 2, 1), (1, 2, 1)) == pytest.approx(3.0, rel=1e-15)

    def test_uniform_ratio(self):
        assert trace_relation((1, 1, 1, 1), (2, 2, 2, 2)) == pytest.approx(2.0)

    def test_under_operator(self):
        g = (1.0, 17.0, 36.0)
        assert trace_relation(g, apply_TK(g)) == pytest.approx(3.0, abs=1e-8)

    def test_degree_mismatch(self):
        with pytest.raises(MetricError):
            trace_relation((1, 2), (1, 2, 3))


def test_reverse():
    assert reverse((1, 2, 3)) == DiagonalMetric(np.array([3.0, 2.0, 1.0]))
