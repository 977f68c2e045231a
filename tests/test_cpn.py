import itertools
import tracemalloc
import warnings
from math import factorial

import numpy as np
import pytest

import balmet.cpn as cpn
from balmet import (
    MetricError,
    MultiIndexMetric,
    QuadratureError,
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
from balmet.quadrature import (
    DEFAULT_APPLY_TOL,
    LADDERS,
    gauss_legendre_unit,
    refine_by_doubling,
)


def random_cpn_metric(rng, n, k, spread=0.4):
    basis = build_basis(n, k)
    base = multinomial_coeffs(basis)
    return MultiIndexMetric(basis, base * np.exp(rng.uniform(-spread, spread, basis.size)))


def closure_orbits(size, maps):
    """Orbits by closing each index under the maps one image at a time,
    ordered by their smallest index."""
    orbits, seen = [], set()
    for i in range(size):
        if i in seen:
            continue
        orbit, frontier = {i}, [i]
        while frontier:
            j = frontier.pop()
            for mp in maps:
                if int(mp[j]) not in orbit:
                    orbit.add(int(mp[j]))
                    frontier.append(int(mp[j]))
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def record_levels(monkeypatch):
    """The node counts per axis that apply_Tnu_cpn evaluates, in order: the
    levels ``cpn.refine_by_doubling`` passes to ``evaluate``."""
    levels = []
    real = cpn.refine_by_doubling

    def recording(evaluate, *args):
        def recorded(m):
            levels.append(m)
            return evaluate(m)
        return real(recorded, *args)

    monkeypatch.setattr(cpn, "refine_by_doubling", recording)
    return levels


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

    def test_equal_basis_built_apart_shares_cache_entries(self):
        # the hash is taken once, from the fields equality compares
        basis = build_basis(3, 4)
        twin = cpn.MonomialBasis(3, 4, tuple(tuple(alpha) for alpha in basis.exponents))
        assert twin is not basis
        assert twin == basis and hash(twin) == hash(basis)
        assert cpn.MonomialBasis(3, 4, basis.exponents[::-1]) != basis
        invariant = (True,) * 24
        want = cpn._partition(basis, invariant)
        hits = cpn._partition.cache_info().hits
        assert cpn._partition(twin, invariant) is want
        assert cpn._partition.cache_info().hits == hits + 1


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

    @pytest.mark.parametrize("n,k", [(1, 1), (1, 4), (2, 3), (3, 4), (3, 5)])
    def test_matches_homogeneous_definition(self, n, k):
        # Z_i -> Z_pi(i) moves the exponent of Z_j to position pi(j) of the
        # homogeneous vector (k - |alpha|, alpha)
        basis = build_basis(n, k)
        for pi in itertools.permutations(range(n + 1)):
            mp = permutation_action(basis, pi)
            assert not mp.flags.writeable
            for i, alpha in enumerate(basis.exponents):
                beta = (k - sum(alpha),) + alpha
                image = [0] * (n + 1)
                for j in range(n + 1):
                    image[pi[j]] = beta[j]
                assert basis.exponents[mp[i]] == tuple(image[1:])


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

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_rejects_a_tol_below_zero_or_nan(self, tol):
        # either would report no invariant permutation, not even the identity
        metric = metric_from_class_values(build_basis(2, 2), (1, 2))
        with pytest.raises(ValueError, match="tol must be >= 0"):
            classify_symmetry(metric, tol=tol)

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-3])
    def test_matches_permutation_loop(self, tol):
        # one permutation at a time, as in the definition: the invariant
        # permutations, the orbits and their order must be the same
        from balmet.cpn import _orbits_from_maps

        rng = np.random.default_rng(11)
        basis = build_basis(3, 4)
        partial = metric_from_class_values(basis, (1, 20, 30, 40, 50)).coeffs.copy()
        partial[[1, 2]] *= 1.5  # invariant under the identity and Z1 <-> Z2 only
        pair_swap = np.empty(basis.size)  # invariant under (Z0 Z1)(Z2 Z3)
        for orbit in cpn.permutation_orbits(basis, [(1, 0, 3, 2)]):
            pair_swap[list(orbit)] = rng.uniform(1, 50)
        metrics = [
            metric_from_class_values(basis, (1, 20, 30, 40, 50)),
            MultiIndexMetric(basis, partial),
            MultiIndexMetric(basis, pair_swap),
            MultiIndexMetric(basis, multinomial_coeffs(basis) * (1 + 1e-6 * rng.random(35))),
            random_cpn_metric(rng, 3, 4),
            random_cpn_metric(rng, 2, 3),
            MultiIndexMetric(build_basis(2, 2), np.array([1.0, 2, 2, 1, 2, 1])),
            MultiIndexMetric(build_basis(1, 4), np.array([1.0, 300.0, 7.0, 300.0, 1.0])),
        ]
        for metric in metrics:
            a, n = metric.coeffs, metric.basis.n
            invariant, maps = [], []
            for pi in itertools.permutations(range(n + 1)):
                mp = permutation_action(metric.basis, pi)
                if np.all(np.abs(a[mp] - a) <= tol * np.maximum(a[mp], a)):
                    invariant.append(pi)
                    maps.append(mp)
            cls = classify_symmetry(metric, tol=tol)
            assert cls.invariant_permutations == tuple(invariant)
            assert cls.orbits == closure_orbits(metric.basis.size, maps)
            assert cls.orbits == _orbits_from_maps(metric.basis.size, maps)
            # transitive: the invariant permutations carry Z_0 to every Z_j
            assert cls.generally_symmetric == (
                closure_orbits(n + 1, invariant)[0] == tuple(range(n + 1)))


    def test_orbits_from_maps_matches_closure(self):
        # arbitrary bijections, long cycles included, and no maps at all
        from balmet.cpn import _orbits_from_maps

        rng = np.random.default_rng(12)
        for size in (1, 2, 7, 40):
            for count in (0, 1, 2, 3):
                maps = [rng.permutation(size) for _ in range(count)]
                assert _orbits_from_maps(size, maps) == closure_orbits(size, maps)
        cycle = np.roll(np.arange(30), 1)
        assert _orbits_from_maps(30, [cycle]) == (tuple(range(30)),)


class TestClassValues:
    def test_round_class_values(self):
        basis = build_basis(3, 4)
        metric = metric_from_class_values(basis, (1.0, 4.0, 6.0, 12.0, 24.0))
        assert np.array_equal(metric.coeffs, multinomial_coeffs(basis))

    def test_wrong_length(self):
        with pytest.raises(MetricError):
            metric_from_class_values(build_basis(3, 4), (1.0, 2.0))


def separate_level(metric, m):
    """One rule level of ``apply_Tnu_cpn`` on the unpadded tables of m nodes,
    in one slab: the level that an application's first call forms stacked
    with the next one."""
    basis, k = metric.basis, metric.k
    reps = cpn._partition(basis, cpn._invariance(metric, 0.0))[1]
    first, first_numer, grouped, last, numer_grouped, numer_last = (
        table[0] for table in cpn._factor_tables(basis, reps, (m,)))
    ah = metric.coeffs / metric.coeffs.max()
    R = first.T @ (grouped @ (ah[:, None] * last)).reshape(k + 1, -1)
    K = (first_numer @ (1.0 / R)).reshape(len(grouped), -1)
    return ((K @ numer_last.T) * numer_grouped).sum(axis=0)


class TestApply:
    @pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3) for k in range(1, 6)])
    def test_round_metric_fixed(self, n, k):
        # fixed up to rounding: D sums to 1 only to rounding on the Duffy grid
        # (at most 3.9e-15 relative on CP^3, 8.9e-16 on CP^2, 2.2e-16 on CP^1)
        basis = build_basis(n, k)
        fs = MultiIndexMetric(basis, multinomial_coeffs(basis))
        out = apply_Tnu_cpn(fs)
        np.testing.assert_allclose(out.coeffs, fs.coeffs, rtol=1e-14, atol=0.0)

    def test_cp3_first_step(self):
        basis = build_basis(3, 4)
        metric = metric_from_class_values(basis, (1.0, 20.0, 30.0, 40.0, 50.0))
        out = apply_Tnu_cpn(metric)
        norm = out.coeffs / out.coeffs[0]
        want = {1: 4.3071170, 4: 6.5967335, 5: 13.0915039, 14: 25.9850356}
        for idx, val in want.items():
            assert norm[idx] == pytest.approx(val, abs=1e-4)

    def test_cp3_ladder_starts_at_12(self, monkeypatch):
        # the cpn-k4 start needs the 27/40 pair; its first iterate, like every
        # later one in the table, certifies from the first pair (12/18)
        levels = record_levels(monkeypatch)
        image = apply_Tnu_cpn(metric_from_class_values(build_basis(3, 4), (1, 20, 30, 40, 50)))
        assert levels == [12, 18, 27, 40]
        levels.clear()
        apply_Tnu_cpn(image)
        assert levels == list(LADDERS[3][:2])

    def test_cp2_ladder_starts_at_24(self, monkeypatch):
        # a mildly scaled generic start certifies from the first pair (24/36)
        levels = record_levels(monkeypatch)
        apply_Tnu_cpn(random_cpn_metric(np.random.default_rng(3), 2, 3, spread=0.4))
        assert levels == list(LADDERS[2][:2])

    @pytest.mark.parametrize("n, k", [(2, 3), (3, 2), (3, 4)])
    def test_slabs_match_whole_grid(self, monkeypatch, n, k):
        # every level in one slab, then in slabs of the last axis, the last
        # one short on the lower rungs.  A slab of width c holds s c m^(n-2)
        # (m + 2(k+1)) values of D, H and K for a stack of s rules padded to
        # m nodes.  2500 of them make 9 slabs of 2 columns for the first pair
        # (12/18, s = 2) on CP^3 k=2 and on k=4, then 13 of 2 and one of 1 at
        # m=27 (both certify at m=60, in slabs of one column from m=40), and
        # 28+8 columns for the first pair (24/36) of CP^2 k=3, then 40+14 at
        # m=54, where it certifies
        metric = random_cpn_metric(np.random.default_rng(11), n, k, spread=2.0)
        monkeypatch.setattr(cpn, "_GRID_BLOCK", 10**9)
        whole = apply_Tnu_cpn(metric)
        monkeypatch.setattr(cpn, "_GRID_BLOCK", 2500)
        sliced = apply_Tnu_cpn(metric)
        np.testing.assert_allclose(sliced.coeffs, whole.coeffs, rtol=1e-13)

    def test_cpn_cached_tables_read_only_and_cold_equals_warm(self):
        # interleaved, so that two of these sharing a table key would show;
        # the last one shares the symmetric start's basis, not its orbits
        rng = np.random.default_rng(13)
        metrics = [random_cpn_metric(rng, 2, 3, spread=2.0),
                   metric_from_class_values(build_basis(3, 4), (1, 20, 30, 40, 50)),
                   random_cpn_metric(rng, 3, 2, spread=2.0),
                   random_cpn_metric(rng, 3, 4)]
        cold = []
        for metric in metrics:
            cpn._step.cache_clear()
            cpn._factor_tables.cache_clear()
            cpn._partition.cache_clear()
            cold.append(apply_Tnu_cpn(metric).coeffs)
        for _ in range(2):
            for metric, want in zip(metrics, cold):
                assert np.array_equal(apply_Tnu_cpn(metric).coeffs, want)
        orbits, reps, owner = cpn._partition(build_basis(3, 4), (True,) * 24)
        assert orbits == full_symmetry_orbits(build_basis(3, 4))
        assert reps == (0, 1, 4, 5, 14)
        assert not owner.flags.writeable
        assert not cpn._symmetries(build_basis(3, 4))[1].flags.writeable
        for basis, reps, nodes in [(build_basis(2, 3), tuple(range(10)), (24, 36)),
                                   (build_basis(3, 4), reps, (12, 18)),
                                   (build_basis(3, 2), tuple(range(10)), (27,))]:
            tables = cpn._factor_tables(basis, reps, nodes)
            assert not any(f.flags.writeable for f in tables)
            first, first_numer, grouped, last, numer_grouped, numer_last = tables
            m, k1, s = max(nodes), basis.k + 1, len(nodes)
            mid = m if basis.n == 3 else 1  # a middle axis only on CP^3
            assert first.shape == first_numer.shape == (s, k1, m)
            assert grouped.shape == (s, k1 * mid, basis.size)
            assert last.shape == (s, basis.size, m)
            assert numer_grouped.shape == (s, k1 * mid, len(reps))
            assert numer_last.shape == (s, len(reps), m)
            for i, c in enumerate(nodes):
                # a padding node weighs 0 in every numerator factor, and
                # keeps D's factors positive
                assert not first_numer[i, :, c:].any() and not numer_last[i, :, c:].any()
                assert (first[i] > 0).all() and (last[i] > 0).all()
                if basis.n == 3:
                    assert not numer_grouped[i].reshape(k1, m, -1)[:, c:].any()
                # the real nodes carry the rule of c nodes: its own tables
                alone = cpn._factor_tables(basis, reps, (c,))
                assert np.array_equal(first[i, :, :c], alone[0][0])
                assert np.array_equal(numer_last[i, :, :c], alone[5][0])

    def test_cached_steps_are_bit_identical_in_any_order(self):
        # one CP^3 basis, three invariance masks: every permutation, the
        # identity and (01)(23), and the identity alone.  Each application
        # looks its orbits and first pair up by mask in the basis's cached
        # step; in every order, and after every cache is cleared, each
        # output equals its first cold one bit for bit
        basis = build_basis(3, 2)
        generic = random_cpn_metric(np.random.default_rng(23), 3, 2, spread=1.0)
        swap = permutation_action(basis, (1, 0, 3, 2))
        pair_swap = MultiIndexMetric(basis, np.sqrt(generic.coeffs * generic.coeffs[swap]))
        symmetric = metric_from_class_values(basis, (1.0, 2.5))
        metrics = (symmetric, pair_swap, generic)
        groups = [classify_symmetry(g, tol=0).invariant_permutations for g in metrics]
        assert [len(g) for g in groups] == [24, 2, 1] and (1, 0, 3, 2) in groups[1]

        def clear():
            for cache in (cpn._step, cpn._partition, cpn._factor_tables):
                cache.cache_clear()

        cold = []
        for g in metrics:
            clear()
            cold.append(apply_Tnu_cpn(g).coeffs)
        for cleared, order in itertools.product((False, True),
                                                itertools.permutations(range(3))):
            if cleared:
                clear()
            for i in order + order:
                assert np.array_equal(apply_Tnu_cpn(metrics[i]).coeffs, cold[i]), (order, i)

    def test_stacked_first_pair_matches_separate_levels(self, monkeypatch):
        # every level in one slab, as ``separate_level`` forms it
        monkeypatch.setattr(cpn, "_GRID_BLOCK", 10**9)
        levels = []
        real = cpn.refine_by_doubling

        def recording(evaluate, *args):
            def recorded(m):
                levels.append((m, evaluate(m)))
                return levels[-1][1]
            return real(recorded, *args)

        monkeypatch.setattr(cpn, "refine_by_doubling", recording)
        rng = np.random.default_rng(19)
        top = 0
        for n, degrees in [(1, (2, 5, 9)), (2, (2, 3, 5)), (3, (1, 2, 4))]:
            for k in degrees:
                basis = build_basis(n, k)
                full = [orbit[0] for orbit in full_symmetry_orbits(basis)]
                for symmetric, spread in itertools.product((False, True), (0.0, 1.0, 2.5)):
                    if symmetric:
                        values = multinomial_coeffs(basis)[full]
                        values *= np.exp(rng.uniform(-spread, spread, len(full)))
                        metric = metric_from_class_values(basis, values)
                    else:
                        metric = random_cpn_metric(rng, n, k, spread=spread)
                    levels.clear()
                    try:
                        apply_Tnu_cpn(metric)
                    except QuadratureError:
                        pass
                    assert [m for m, _ in levels[:2]] == list(LADDERS[n][:2])
                    for i, (m, got) in enumerate(levels):
                        want = separate_level(metric, m)
                        if i == 0:
                            # padded to the next rung, its products run through
                            # other BLAS kernels: equal up to rounding
                            np.testing.assert_allclose(got, want, rtol=2e-15, atol=0.0)
                        else:
                            assert np.array_equal(got, want), (n, k, symmetric, spread, m)
                    top = max(top, LADDERS[n].index(levels[-1][0]))
        assert top >= 3

    def test_warm_peak_memory_at_m90(self, monkeypatch):
        # a slab's D, H and K share the 48^3 budget (0.88 MB), so a warm
        # application that certifies at 60/90, a level of 8 slabs, peaks at
        # 0.89 MB
        levels = record_levels(monkeypatch)
        metric = metric_from_class_values(build_basis(3, 4),
                                          (1.0, 0.634, 0.153, 0.251, 294.187))
        apply_Tnu_cpn(metric)
        assert levels == list(LADDERS[3][:6])
        tracemalloc.start()
        try:
            apply_Tnu_cpn(metric)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.1e6

    def test_overflowing_image_raises_quadrature_error(self):
        # the round CP^2 k=3 metric with its vertex coefficients raised
        # tenfold, scaled to 1.5e308: its image's largest coefficient is 1.64
        # times its own
        basis = build_basis(2, 3)
        vertex = [max(e + (3 - sum(e),)) == 3 for e in basis.exponents]
        coeffs = multinomial_coeffs(basis) * np.where(vertex, 1.5e308, 1.5e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(QuadratureError, match=r"^Tnu, n=2, k=3: the image of a valid"
                                                      " metric leaves floating-point range$"):
                apply_Tnu_cpn(MultiIndexMetric(basis, coeffs))

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
        # a raising call caches no step for its basis: every call raises
        basis = build_basis(4, 2)
        metric = MultiIndexMetric(basis, multinomial_coeffs(basis))
        for _ in range(2):
            with pytest.raises(MetricError, match="expected 1..3"):
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


def pointwise_duffy_cp3(metric, m):
    """T_nu on CP^3 by the Duffy rule with m nodes per axis, but with the
    integrand evaluated point by point (one first-axis slice at a time)
    instead of factored per axis: at each node the homogeneous coordinates u
    and s = 1 - |u|, the monomials, D, and every numerator over D."""
    from balmet.quadrature import gauss_legendre_unit

    k, N = metric.basis.k, metric.basis.size
    t, omt, w = gauss_legendre_unit(m)
    o2, o3 = omt[:, None], omt[None, :]
    total = np.zeros(N)
    for t1, o1, w1 in zip(t, omt, w):
        u1, u2, s = o1 * t[:, None], o1 * o2 * t[None, :], o1 * o2 * o3
        # powers by repeated products; u2^c s^d once per (c, d) pair
        pu1, pu2, ps = [np.ones_like(u1)], [np.ones_like(u2)], [np.ones_like(s)]
        for _ in range(k):
            pu1.append(pu1[-1] * u1)
            pu2.append(pu2[-1] * u2)
            ps.append(ps[-1] * s)
        tail = {(c, d): pu2[c] * ps[d] for c in range(k + 1) for d in range(k + 1 - c)}
        mono = np.array([t1**a * pu1[b] * tail[c, k - a - b - c]
                         for a, b, c in metric.basis.exponents])
        D = np.tensordot(metric.coeffs, mono, axes=1)
        weight = w1 * o1**2 * (w * omt)[:, None] * w[None, :]
        total += np.tensordot(mono, weight / D, axes=2)
    return 1.0 / (N * 6 * total)


def brute_force_duffy(metric):
    """T_nu on CP^n by the Duffy rule, with D and every numerator evaluated
    point by point on the whole node grid (``np.meshgrid``): no grouping of
    terms, no per-axis factors and no slabs.  On the grid u_j = t_j prod_{i<j}
    (1 - t_i) and s = prod_i (1 - t_i); each monomial is u^alpha
    s^(k-|alpha|), the Jacobian is prod_j prod_{i<j} (1 - t_i).  The levels
    are certified by ``refine_by_doubling`` on the ladder of apply_Tnu_cpn."""
    n, k, N = metric.basis.n, metric.basis.k, metric.basis.size

    def evaluate(m):
        t, omt, w = gauss_legendre_unit(m)
        u, s, jac, weight = [], 1.0, 1.0, 1.0
        for tj, oj, wj in zip(*(np.meshgrid(*[v] * n, indexing="ij") for v in (t, omt, w))):
            u.append(s * tj)
            jac, weight, s = jac * s, weight * wj, s * oj
        mono = [s ** (k - sum(alpha)) * np.prod([uj ** aj for uj, aj in zip(u, alpha)], axis=0)
                for alpha in metric.basis.exponents]
        D = sum(a * x for a, x in zip(metric.coeffs, mono))
        return np.array([np.sum(x * jac * weight / D) for x in mono])

    integrals, _ = refine_by_doubling(evaluate, DEFAULT_APPLY_TOL, LADDERS[n])
    return 1.0 / (N * factorial(n) * integrals)


def dblquad_cp2(metric, entries=None):
    """T_nu on CP^2 from the defining integral over (0,inf)^2 by scipy's
    adaptive rule: no homogeneous coordinates, no Duffy map, no
    Gauss-Legendre nodes.  P is evaluated by Horner's rule in Python floats.
    Returns the output coefficients at the given basis positions (all by
    default); each one is a separate integral."""
    from scipy.integrate import dblquad

    k, N = metric.basis.k, metric.basis.size
    rows = [[0.0] * (k + 1) for _ in range(k + 1)]  # rows[j][i]: coefficient of x^i y^j
    for a, (i, j) in zip(metric.coeffs.tolist(), metric.basis.exponents):
        rows[j][i] = a

    def P(x, y):
        total = 0.0
        for row in reversed(rows):
            r = 0.0
            for a in reversed(row):
                r = r * x + a
            total = total * y + r
        return total

    want = []
    for e1, e2 in (metric.basis.exponents[i] for i in (range(N) if entries is None else entries)):
        val, _ = dblquad(lambda y, x: x**e1 * y**e2 / (P(x, y) * (1.0 + x + y) ** 3),
                         0, np.inf, 0, np.inf, epsabs=0, epsrel=1e-12)
        want.append(1.0 / (N * 2 * val))
    return np.array(want)


# The adversarial corpus of the tests below: one seeded start per (n, k,
# natural-log spread), the round metric times the exponentials of offsets
# drawn uniformly from [-spread, spread].  The seed is 0 except on CP^2 at
# k=4, whose seed-0 starts all certify below 512 nodes and so cannot tell a
# weakened certificate apart.  The starts in CORPUS_RAISES raise
# QuadratureError at the node cap, the last rung of the ladder; every other
# start must certify and match its independent reference.  Those in
# CORPUS_FIRST_PAIR certify from the first pair of the ladder (12/18 on CP^3,
# 24/36 on CP^2), so the references check that pair too.  On CP^2, (2, 2, 2),
# (2, 3, 4) and (2, 5, 2) certify from 24/36/54, and (2, 4, 6) from the last
# pair, 410/512.
CORPUS_SPREADS = (0.5, 2, 4, 6)
CORPUS_SEED = {(2, 4): 5}
CORPUS_RAISES = {(3, 3, 6), (3, 4, 4), (3, 4, 6), (2, 5, 6)}
CORPUS_FIRST_PAIR = {(3, 1, 0.5), (3, 1, 2), (3, 2, 0.5), (3, 3, 0.5),
                     (2, 2, 0.5), (2, 3, 0.5), (2, 3, 2), (2, 4, 0.5), (2, 5, 0.5)}


class TestAgainstReferences:
    def test_cp3_matches_pointwise_duffy_rule(self):
        metric = random_cpn_metric(np.random.default_rng(30), 3, 2)
        want = pointwise_duffy_cp3(metric, 96)
        got = apply_Tnu_cpn(metric).coeffs
        assert np.max(np.abs(got - want) / want) < 1e-13

    @pytest.mark.parametrize("n, k, symmetric", [
        (1, 5, False), (1, 4, True), (2, 3, False), (2, 3, True),
        (3, 2, False), (3, 2, True), (3, 4, False), (3, 4, True)])
    def test_matches_brute_force_duffy_rule(self, n, k, symmetric):
        # the same rule summed in the plain order, CP^1 as a MultiIndexMetric
        rng = np.random.default_rng([n, k, symmetric])
        if symmetric:
            basis = build_basis(n, k)
            values = np.exp(rng.uniform(-2, 2, len(full_symmetry_orbits(basis))))
            metric = metric_from_class_values(basis, values)
        else:
            metric = random_cpn_metric(rng, n, k, spread=2.0 if n < 3 else 0.4)
        want = brute_force_duffy(metric)
        got = apply_Tnu_cpn(metric).coeffs
        assert np.max(np.abs(got - want) / want) < 1e-13

    @pytest.mark.parametrize("k", [2, 3])
    def test_cp2_matches_adaptive_quadrature(self, k):
        metric = random_cpn_metric(np.random.default_rng(20 + k), 2, k)
        want = dblquad_cp2(metric)
        got = apply_Tnu_cpn(metric).coeffs
        assert np.max(np.abs(got - want) / want) < 1e-11

    @pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (3, 3), (3, 4),
                                     (2, 2), (2, 3), (2, 4), (2, 5)])
    def test_corpus_raises_or_matches_reference(self, monkeypatch, n, k):
        # CP^3 against the pointwise Duffy rule on a grid twice as fine as the
        # certified level (384 nodes for (3, 1, 6), which certifies at the
        # cap).  CP^2 against dblquad at the vertices 1, z1^k, z2^k, whose
        # integrals sit in the corners of the simplex: dblquad costs
        # 0.05-0.2 s per integral here
        levels = record_levels(monkeypatch)
        for spread in CORPUS_SPREADS:
            seed = [n, k, round(10 * spread), CORPUS_SEED.get((n, k), 0)]
            metric = random_cpn_metric(np.random.default_rng(seed), n, k, spread)
            levels.clear()
            if (n, k, spread) in CORPUS_RAISES:
                with pytest.raises(QuadratureError, match=rf"^Tnu, n={n}, k={k}: no convergence"):
                    apply_Tnu_cpn(metric)
                continue
            got = apply_Tnu_cpn(metric).coeffs
            first_pair = list(LADDERS[n][:2])
            assert (levels == first_pair) == ((n, k, spread) in CORPUS_FIRST_PAIR), levels
            if n == 3:
                want = pointwise_duffy_cp3(metric, 2 * levels[-1])
            else:
                vertices = [0, metric.basis.position((k, 0)), metric.basis.position((0, k))]
                got, want = got[vertices], dblquad_cp2(metric, vertices)
            dev = np.max(np.abs(got - want) / want)
            assert dev < 1e-11, f"spread {spread}: certified at m={levels[-1]}, off by {dev:.2e}"

    def test_cap_certificate_matches_512_node_rule(self, monkeypatch):
        # the corpus start (3, 1, 6) certifies only from the last pair,
        # 135/192; the pointwise rule at 512 nodes agrees with it to 2.8e-15
        levels = record_levels(monkeypatch)
        metric = random_cpn_metric(np.random.default_rng([3, 1, 60, 0]), 3, 1, 6)
        got = apply_Tnu_cpn(metric).coeffs
        assert levels == list(LADDERS[3])
        want = pointwise_duffy_cp3(metric, 512)
        assert np.max(np.abs(got - want) / want) < 1e-13
