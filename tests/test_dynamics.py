import importlib
from math import comb

import numpy as np
import pytest

import balmet
from balmet import dynamics
from balmet import (
    BalancedFamily,
    ConvergenceError,
    DiagonalMetric,
    MetricError,
    MultiIndexMetric,
    NormalizationMode,
    OperatorKind,
    as_metric,
    balanced_coeffs,
    build_trajectory,
    build_basis,
    contraction_witness,
    coordinate_sigma_series,
    distance,
    find_balanced,
    iterate,
    metric_from_class_values,
    multinomial_coeffs,
    permutation_orbits,
    scale,
    sigma_closed_form,
    sigma_law,
    sigma_probe,
)

TK_START = (1.0, 17.0, 36.0)
T6_START = (1.0, 6000.0, 150000.0, 2e10, 150000.0, 6000.0, 1.0)


@pytest.fixture
def applications(monkeypatch):
    """A list that gains one item per ``dynamics.apply_step`` call."""
    calls = []
    real = dynamics.apply_step

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(dynamics, "apply_step", counted)
    return calls


class TestIterate:
    def test_round_metric_constant_under_Tnu(self):
        g = balanced_coeffs(BalancedFamily(3))
        orbit = iterate("Tnu", g, 3)
        assert len(orbit) == 4
        for it in orbit[1:]:
            assert distance(g, it) < 1e-9

    def test_tk_rows_match_reference(self):
        traj = build_trajectory("TK", DiagonalMetric(np.asarray(TK_START)), steps=5)
        shown = traj.display_iterates()
        want = [
            (0.8826, 15.0043, 31.7738),
            (0.9738, 12.6377, 35.0561),
            (0.9946, 12.1292, 35.8067),
            (0.9989, 12.0259, 35.9612),
            (0.9998, 12.0052, 35.9922),
            (1.0000, 12.0010, 35.9984),
        ]
        for row, g in zip(want, shown):
            assert np.allclose(g.coeffs, row, atol=1e-4)

    def test_step_index_attached_on_failure(self):
        with pytest.raises(MetricError) as exc:
            iterate("TK", (1.0, 2.0, 3.0, 4.0), 2)
        assert exc.value.step_index == 0

    @pytest.mark.parametrize("op, start", [
        ("TK", (1.0, 2.0, 3.0, 4.0)),
        ("T", (3.0,)),
        ("T", MultiIndexMetric(build_basis(2, 2), np.array([1.0, 2, 2, 1, 2, 1]))),
        ("Tnu", MultiIndexMetric(build_basis(4, 1), np.ones(5))),
    ], ids=["TK-odd-degree", "T-degree-zero", "T-on-CP2", "Tnu-on-CP4"])
    def test_zero_step_orbit_checks_the_domain(self, op, start):
        # the start must lie in the map's domain even when no step is taken
        with pytest.raises(MetricError) as exc:
            iterate(op, start, 0)
        assert exc.value.step_index == 0
        # every entry point that takes a map and a metric makes the one check;
        # the error has a step index where an orbit runs
        for run, orbit in ((lambda: find_balanced(op, start), True),
                           (lambda: build_trajectory(op, start, 0), True),
                           (lambda: sigma_probe(op, start), False),
                           (lambda: sigma_law(op, start), False),
                           (lambda: dynamics.apply_step(op, start), False)):
            with pytest.raises(MetricError) as other:
                run()
            assert str(other.value) == str(exc.value)
            assert getattr(other.value, "step_index", None) == (0 if orbit else None)

    def test_negative_steps(self):
        with pytest.raises(ValueError):
            iterate("T", (1.0, 2.0), -1)
        with pytest.raises(ValueError, match=r"^steps must be >= 0, got -1$"):
            build_trajectory("T", (1.0, 2.0), steps=-1)

    def test_operator_name_and_kind_give_the_same_orbit(self):
        # the orbit parses its operator once; a name and its kind run alike
        g = DiagonalMetric(np.exp(np.random.default_rng(3).uniform(-2, 2, 5)))
        by_name, by_kind = iterate("T", g, 20), iterate(OperatorKind.T, g, 20)
        assert all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(by_name, by_kind))
        assert len(by_name) == len(by_kind) == 21


class TestFindBalanced:
    @pytest.mark.parametrize("scale", [1.0, 1e-160, 1e160, 1e-300, 1e300])
    @pytest.mark.parametrize("op", ["TK", "T"])
    def test_tk_limit_direction(self, op, scale):
        # both maps are scale-equivariant, and so is the degree-2 limit check:
        # a0*a2 would leave floating-point range at 1e+-160 and beyond
        b = find_balanced(op, np.asarray(TK_START) * scale)
        assert np.allclose(b.coeffs / b.coeffs[0], (1, 12, 36), rtol=1e-8)

    def test_tnu_palindromic_limit_is_round(self):
        b = find_balanced("Tnu", (5.0, 1.0, 1.0, 5.0))
        assert np.allclose(b.coeffs / b.coeffs[0], (1, 3, 3, 1), rtol=1e-8)

    def test_cpn_symmetric_limit(self):
        basis = build_basis(3, 4)
        start = metric_from_class_values(basis, (1.0, 20.0, 30.0, 40.0, 50.0))
        b = find_balanced("Tnu", start)
        assert np.allclose(b.coeffs / b.coeffs[0], multinomial_coeffs(basis),
                           rtol=1e-5)

    def test_limit_is_fixed_point(self):
        from balmet import apply_TK

        b = find_balanced("TK", TK_START, conv_tol=1e-13)
        assert distance(apply_TK(b), b) < 1e-12

    def test_max_iter_exhausted(self):
        with pytest.raises(ConvergenceError) as exc:
            find_balanced("T", T6_START, max_iter=3)
        assert exc.value.last is not None
        assert exc.value.step_size is not None

    def test_max_iter_needs_one_measured_step(self):
        # a cap of 0 measures no step, so it raises before any application;
        # a cap of 1 finds the limit of an exact fixed point
        round_k2 = balanced_coeffs(BalancedFamily(2))
        for call in (lambda: find_balanced("Tnu", round_k2, max_iter=0),
                     lambda: build_trajectory("Tnu", round_k2, 0, max_iter=0)):
            with pytest.raises(ValueError, match=r"^max_iter must be >= 1, got 0$"):
                call()
        assert np.array_equal(find_balanced("Tnu", round_k2, max_iter=1).coeffs,
                              iterate("Tnu", round_k2, 1)[1].coeffs)

    def test_degree_two_limit_off_the_conserved_direction_raises(self, monkeypatch):
        # T at k=2 conserves a0 a2 / a1^2: a limit off the predicted direction
        # is a convergence failure, not a result
        monkeypatch.setattr(dynamics, "predict_balanced_direction_k2",
                            lambda g: DiagonalMetric(np.ones(3)))
        with pytest.raises(ConvergenceError) as exc:
            find_balanced("T", TK_START)
        assert str(exc.value).startswith("T, n=1, k=2: degree-2 limit deviates")
        assert exc.value.step_size is not None
        assert exc.value.last is not None

    def test_convergence_error_names_the_map(self):
        with pytest.raises(ConvergenceError, match=r"^TK, n=1, k=2: no balanced limit within 2 "):
            find_balanced("TK", (1, 17, 36), max_iter=2)

    def test_trajectory_limit_continues_the_recorded_orbit(self):
        # the limit is the same F^j(g0) that iterating on from the last
        # recorded step reaches
        traj = build_trajectory("TK", DiagonalMetric(np.asarray(TK_START)), steps=5)
        again = find_balanced("TK", traj.iterates[-1])
        assert np.array_equal(traj.balanced.coeffs, again.coeffs)


class TestErrorSeriesAndSigma:
    def test_tk_error_series(self):
        traj = build_trajectory("TK", DiagonalMetric(np.asarray(TK_START)), steps=5)
        want = (0.2848, 0.0640, 0.0131, 0.0026, 0.0005, 0.0001)
        assert len(traj.err) == 6
        assert np.allclose(traj.err, want, atol=5e-4)

    @pytest.mark.parametrize("bad", [3, None, "bogus"])
    def test_unknown_normalization_raises(self, bad):
        # an unknown mode must not fall through to raw distances
        with pytest.raises(ValueError, match="unknown normalization"):
            NormalizationMode.parse(bad)
        with pytest.raises(ValueError, match="unknown normalization"):
            build_trajectory("TK", TK_START, steps=2, normalization=bad)

    @pytest.mark.parametrize("mode", list(NormalizationMode))
    def test_mode_and_its_name_build_equal_trajectories(self, mode):
        assert NormalizationMode.parse(mode) is mode
        by_mode = build_trajectory("TK", TK_START, steps=2, normalization=mode)
        name = f" {mode.value.upper()} "
        by_name = build_trajectory("TK", TK_START, steps=2, normalization=name)
        assert by_name.normalization is mode
        assert (by_name.err, by_name.bound) == (by_mode.err, by_mode.bound)
        for got, want in zip(by_name.display_iterates(), by_mode.display_iterates()):
            assert np.array_equal(got.coeffs, want.coeffs)

    def test_tk_sigma_estimate(self):
        sig, used = sigma_probe("TK", TK_START, err_floor=1e-9)
        assert sig == pytest.approx((2 - 1) / (2 + 3), abs=0.01)
        assert used >= 2

    def test_T_at_degree_one_has_no_ratio(self):
        # every degree-1 metric is binomial, so T fixes it
        with pytest.raises(MetricError, match=r"^T at k=1 fixes every metric"):
            sigma_probe("T", (1.0, 3.0))

    def test_estimate_needs_usable_steps(self):
        g = balanced_coeffs(BalancedFamily(2))  # starts at the fixed point
        with pytest.raises(ConvergenceError, match=r"^TK, n=1, k=2: trajectory reached"):
            sigma_probe("TK", g)

    def test_cpn_coordinate_estimator(self):
        basis = build_basis(3, 4)
        start = metric_from_class_values(basis, (1.0, 20.0, 30.0, 40.0, 50.0))
        traj = build_trajectory("Tnu", start, steps=8,
                                normalization=NormalizationMode.FIRST_COEFF)
        sig = coordinate_sigma_series(traj, coord=1)
        assert sig[8] == pytest.approx(0.1667, abs=5e-4)
        assert sig[1] == pytest.approx(0.0192, abs=5e-4)

    def test_table_normalizes_each_iterate_once(self, monkeypatch):
        # the sigma column and the coefficients read one normalized copy
        from balmet.tables import trajectory_table

        traj = build_trajectory("Tnu", (1.0, 25.0, 0.07, 13.0), steps=6,
                                normalization=NormalizationMode.FIRST_COEFF)
        calls = []
        real = dynamics._normalize_against
        monkeypatch.setattr(dynamics, "_normalize_against",
                            lambda g, *args: calls.append(g) or real(g, *args))
        _, rows = trajectory_table(traj)
        assert len(calls) == len(traj.iterates) + 1  # and the limit once
        assert [row[1:5] for row in rows] == [
            scale(g, 1.0 / g[0]).coeffs.tolist() for g in traj.iterates]

    def test_sigma_probe_matches_law(self):
        sig, used = sigma_probe("Tnu", (1.0, 25.0, 0.07, 13.0), err_floor=1e-8)
        assert sig == pytest.approx(0.6, abs=0.01)
        assert used > 3

    def test_sigma_probe_matches_two_pass_definition(self):
        # iterate until a step size reaches the floor, then take the latest
        # ratio of step sizes above the floor
        start, floor = as_metric((1.0, 25.0, 0.07, 13.0)), 1e-8

        def first(g):
            return scale(g, 1.0 / float(g.coeffs[0]))

        orbit, steps = [start], []
        while len(steps) <= 300 and (not steps or steps[-1] > floor):
            orbit.append(dynamics.apply_step("Tnu", orbit[-1]))
            steps.append(distance(first(orbit[-2]), first(orbit[-1])))
        r = max(i for i, s in enumerate(steps) if s > floor)
        assert sigma_probe("Tnu", start, err_floor=floor) == (steps[r] / steps[r - 1], r)

    @pytest.mark.parametrize("op,start", [("TK", TK_START),
                                          ("Tnu", (1.0, 25.0, 0.07, 13.0))])
    def test_sigma_probe_stops_at_the_floor(self, applications, op, start):
        # one application per step size, up to the first at or below the
        # floor: fewer than the balanced limit takes
        floor, g, steps = 1e-8, as_metric(start), []
        while not steps or steps[-1] > floor:
            h = dynamics.apply_step(op, g)
            steps.append(distance(scale(g, 1 / g.coeffs[0]), scale(h, 1 / h.coeffs[0])))
            g = h
        applications.clear()
        sigma_probe(op, start, err_floor=floor)
        probe_apps = len(applications)
        applications.clear()
        find_balanced(op, start)
        assert probe_apps == len(steps) < len(applications)

    def test_sigma_probe_reads_max_steps_step_sizes_at_most(self, applications):
        # a floor of 0 is never reached: the cap ends the orbit at s_max_steps
        _, used = sigma_probe("Tnu", (1.0, 25.0, 0.07, 13.0), err_floor=0.0, max_steps=5)
        assert (used, len(applications)) == (5, 6)

    @pytest.mark.parametrize("n,k,op", [(1, 4, "T"), (2, 3, "Tnu"), (3, 2, "Tnu")])
    def test_sigma_probe_is_steady_across_floors(self, n, k, op):
        # within 1e-9..1e-7, one decade of floor moves the estimate by less
        # than 5e-6 (by at most 1.6e-6 on seeds 0..5)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            if n == 1:
                base = np.array([comb(k, q) for q in range(k + 1)], float)
                g = DiagonalMetric(base * np.exp(rng.uniform(-0.5, 0.5, k + 1)))
            else:
                basis = build_basis(n, k)
                base = multinomial_coeffs(basis)
                g = MultiIndexMetric(basis, base * np.exp(rng.uniform(-0.5, 0.5, basis.size)))
            hats = [sigma_probe(op, g, err_floor=f)[0] for f in (1e-7, 1e-8, 1e-9)]
            assert max(abs(np.diff(hats))) < 5e-6, (seed, hats)

    def test_sigma_probe_rejects_negative_floor(self):
        # every step size, 0 included, would count as above it
        with pytest.raises(ValueError, match="err_floor"):
            sigma_probe("TK", TK_START, err_floor=-1.0)

    def test_sigma_probe_rejects_nan_floor(self):
        # NaN compares false both ways, so a plain "< 0" test lets it through
        with pytest.raises(ValueError, match="err_floor must be >= 0, got nan"):
            sigma_probe("TK", TK_START, err_floor=float("nan"))

    @pytest.mark.parametrize("conv_tol", [0.0, -1.0, float("nan")])
    def test_limit_rejects_unreachable_conv_tol(self, conv_tol):
        # no step size falls below it: fail at once, not after max_iter steps
        with pytest.raises(ValueError, match="conv_tol must be > 0"):
            find_balanced("TK", TK_START, conv_tol=conv_tol)

    def test_limit_rejects_infinite_conv_tol(self):
        # every step size falls below it: the start itself would be the limit
        with pytest.raises(ValueError, match="conv_tol must be finite, got inf"):
            find_balanced("Tnu", (1.0, 25.0, 0.07, 13.0), conv_tol=float("inf"))

    def test_sigma_probe_rejects_infinite_floor(self):
        with pytest.raises(ValueError, match="err_floor must be finite, got inf"):
            sigma_probe("TK", TK_START, err_floor=float("inf"))


class TestSigmaClosedForm:
    def test_values(self):
        assert sigma_closed_form("T", 6) == pytest.approx(60 / 72, rel=1e-15)
        assert sigma_closed_form("Tnu", 3, palindromic=True) == pytest.approx(0.2)
        assert sigma_closed_form("Tnu", 3, palindromic=False) == pytest.approx(0.6)
        assert sigma_closed_form("TK", 2) == pytest.approx(0.2)
        assert sigma_closed_form("Tnu", 0, palindromic=True) == 0.0
        assert sigma_closed_form("Tnu", 0, palindromic=False) == 0.0

    def test_palindromic_flag_irrelevant_for_T_and_TK(self):
        for op in ("T", "TK"):
            for k in (2, 4, 6):
                assert sigma_closed_form(op, k, True) == sigma_closed_form(op, k, False)

    def test_ordering_at_k2(self):
        # non-palindromic T_nu is slowest at degree 2, palindromic fastest
        assert (sigma_closed_form("Tnu", 2, False) > sigma_closed_form("T", 2)
                > sigma_closed_form("TK", 2) > sigma_closed_form("Tnu", 2, True))

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            sigma_closed_form("T", 0)
        with pytest.raises(MetricError):
            sigma_closed_form("TK", 3)
        with pytest.raises(MetricError, match=r"^degree k must be >= 0, got k=-1$"):
            sigma_closed_form("Tnu", -1)


class TestSigmaLaw:
    """The metric's type decides which maps it takes, by the one domain check
    that ``apply_step`` makes too."""

    @pytest.mark.parametrize("op", ["T", "TK"])
    def test_cpn_metric_takes_tnu_only(self, op):
        basis = build_basis(2, 2)
        start = MultiIndexMetric(basis, multinomial_coeffs(basis) * np.arange(1, 7))
        with pytest.raises(MetricError, match="only the T_nu map is defined on CP"):
            sigma_law(op, start)

    def test_cp1_multi_index_metric_takes_tnu_only(self):
        line = MultiIndexMetric(build_basis(1, 4), (1.0, 4.0, 6.0, 5.0, 1.0))
        with pytest.raises(MetricError, match="only the T_nu map is defined on CP"):
            sigma_law("T", line)
        with pytest.raises(MetricError):
            build_trajectory("T", line, 1)

    @pytest.mark.parametrize("coeffs, sym", [((1.0, 4.0, 6.0, 5.0, 1.0), False),
                                             ((1.0, 4.0, 7.0, 4.0, 1.0), True)])
    def test_cp1_multi_index_metric_reads_symmetry(self, coeffs, sym):
        # swap invariance on CP^1 is palindromy, so the law is unchanged
        line = MultiIndexMetric(build_basis(1, 4), coeffs)
        diag = sigma_law("Tnu", DiagonalMetric(np.asarray(coeffs)))
        assert sigma_law("Tnu", line) == (
            diag[0], "generally symmetric" if sym else "generic")
        assert diag[1] == ("palindromic" if sym else "non-palindromic")

    @pytest.mark.parametrize("k, generators, regime", [
        (2, [(1, 0, 3, 2)], "generic"),
        (3, [(1, 0, 3, 2)], "generic"),
        (2, [(1, 0, 2, 3), (0, 1, 3, 2)], "generic"),
        (3, [(1, 0, 2, 3), (0, 1, 3, 2)], "generic"),
        (2, [(1, 2, 3, 0)], "generally symmetric"),
        (2, [(1, 0, 3, 2), (2, 3, 0, 1)], "generally symmetric"),
        (4, [(1, 0, 3, 2), (2, 3, 0, 1)], "generally symmetric"),
        (2, [(1, 2, 3, 0), (1, 0, 3, 2)], "generally symmetric"),
        (3, [(1, 2, 0, 3), (1, 0, 3, 2)], "generally symmetric"),
    ], ids=["(01)(23)-k2", "(01)(23)-k3", "<(01),(23)>-k2", "<(01),(23)>-k3",
            "4-cycle-k2", "V4-k2", "V4-k4", "D4-k2", "A4-k3"])
    def test_cp3_regime_is_transitivity(self, k, generators, regime):
        # the symmetric law needs the invariant group to carry Z_0 to every
        # Z_j; a fixed-point-free permutation alone is not enough
        start = invariant_cp3_start(k, generators)
        law = (k - 1) * k / ((k + 4) * (k + 5)) if regime != "generic" else k / (k + 4)
        assert sigma_law("Tnu", start) == (pytest.approx(law, rel=1e-15), regime)
        assert sigma_probe("Tnu", start)[0] == pytest.approx(law, abs=1e-6)


def invariant_cp3_start(k, generators, seed=5):
    """A seeded CP^3 start whose coefficients are constant on the orbits of
    the group the coordinate permutations generate, and differ between them."""
    basis = build_basis(3, k)
    rng = np.random.default_rng(seed)
    coeffs = multinomial_coeffs(basis)
    for orbit in permutation_orbits(basis, generators):
        coeffs[list(orbit)] *= np.exp(rng.uniform(-0.4, 0.4))
    return MultiIndexMetric(basis, coeffs)


def test_package_names_are_listed_by_their_module():
    # ``from balmet.<module> import *`` gives every name the package takes from it
    for module in ("errors", "metrics", "quadrature", "cp1", "cpn", "dynamics", "tables"):
        mod = importlib.import_module(f"balmet.{module}")
        star = getattr(mod, "__all__", [n for n in vars(mod) if not n.startswith("_")])
        for name in balmet.__all__:
            obj = getattr(mod, name, None)
            if obj is getattr(balmet, name) and \
                    getattr(obj, "__module__", mod.__name__) == mod.__name__:
                assert name in star, f"balmet.{module}.__all__ lacks {name}"


class TestBoundSeries:
    def test_tk_bound_column(self):
        traj = build_trajectory("TK", DiagonalMetric(np.asarray(TK_START)), steps=5)
        want = (1.0180, 0.3027, 0.0683, 0.0140, 0.0028, 0.0006)
        for (err, bnd), w in zip(zip(traj.err, traj.bound), want):
            assert bnd == pytest.approx(w, abs=5e-4)
            assert err < bnd

    def test_trajectory_from_balanced_start(self):
        g = balanced_coeffs(BalancedFamily(4, 2.0, 1.3))
        traj = build_trajectory("TK", g, steps=3)
        for err, bnd in zip(traj.err, traj.bound):
            assert err < 1e-9
            assert bnd > 0
            assert err < bnd

    def test_pair_swap_start_stays_inside_the_envelope(self):
        # (01)(23) moves every coordinate but is not transitive: the orbit
        # contracts at the generic rate, and the envelope must use it
        traj = build_trajectory("Tnu", invariant_cp3_start(2, [(1, 0, 3, 2)]), steps=12)
        for err, bnd in zip(traj.err, traj.bound):
            assert err < bnd

    def test_sigma_tilde_are_error_ratios(self):
        traj = build_trajectory("TK", DiagonalMetric(np.asarray(TK_START)), steps=4)
        for r in range(4):
            assert traj.sigma_tilde[r] == pytest.approx(traj.err[r + 1] / traj.err[r])


class TestContractionWitness:
    def test_degree6_expansion_step(self):
        d0, d1, increased = contraction_witness("T", T6_START)
        assert d0 == pytest.approx(17.69856, abs=1e-3)
        assert d1 == pytest.approx(18.10011, abs=1e-3)
        assert increased

    def test_degree2_contraction(self):
        d0, d1, increased = contraction_witness("TK", TK_START)
        assert d0 == pytest.approx(0.2848, abs=5e-4)
        assert d1 == pytest.approx(0.0640, abs=5e-4)
        assert not increased

    def test_balanced_start(self):
        g = balanced_coeffs(BalancedFamily(2, 1.0, 6.0))
        d0, d1, increased = contraction_witness("TK", g)
        assert d0 < 1e-8 and d1 < 1e-8
        assert not increased


class TestNormalization:
    def test_parse(self):
        assert NormalizationMode.parse("balanced") is NormalizationMode.BALANCED_FIRST
        assert NormalizationMode.parse("first") is NormalizationMode.FIRST_COEFF
        assert NormalizationMode.parse("none") is NormalizationMode.NONE
        with pytest.raises(ValueError):
            NormalizationMode.parse("bogus")

    def test_balanced_first_display(self):
        traj = build_trajectory("TK", DiagonalMetric(np.asarray(TK_START)), steps=1)
        assert traj.display_balanced().coeffs[0] == pytest.approx(1.0, rel=1e-12)
        # distances are unchanged by the common rescaling
        assert traj.err[0] == pytest.approx(
            distance(TK_START, traj.balanced), rel=1e-12)

    def test_first_coeff_display(self):
        basis = build_basis(2, 2)
        start = MultiIndexMetric(basis, multinomial_coeffs(basis) * 3.0)
        traj = build_trajectory("Tnu", start, steps=1,
                                normalization=NormalizationMode.FIRST_COEFF)
        for g in traj.display_iterates():
            assert g.coeffs[0] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("mode", ["balanced", "first"])
    @pytest.mark.parametrize("coeffs", [(1.0, 5.0, 0.3, 5.0, 1.0),
                                        (1.0, 25.0, 0.07, 13.0)])
    def test_cp1_and_cpn_trajectories_agree(self, coeffs, mode):
        # the same T_nu run as a CP^1 metric and as a CP^n metric with n = 1
        k = len(coeffs) - 1
        diag = build_trajectory("Tnu", DiagonalMetric(np.asarray(coeffs)), steps=4,
                                normalization=mode)
        multi = build_trajectory("Tnu", MultiIndexMetric(build_basis(1, k), coeffs),
                                 steps=4, normalization=mode)
        assert isinstance(multi.balanced, MultiIndexMetric)
        assert multi.iterates[0].k == diag.iterates[0].k == k
        assert multi.sigma_predicted == diag.sigma_predicted
        assert np.allclose(multi.err, diag.err, rtol=0.0, atol=1e-8)

    def test_cpn_requires_tnu(self):
        basis = build_basis(2, 2)
        start = MultiIndexMetric(basis, multinomial_coeffs(basis))
        with pytest.raises(MetricError):
            iterate("TK", start, 1)
