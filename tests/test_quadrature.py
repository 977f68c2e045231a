import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import roots_legendre

import balmet
from balmet import (
    QuadratureError,
    gauss_legendre_unit,
    integrate_semi_infinite,
)
from balmet.quadrature import refine_by_doubling, stack_rules


def beta_exact(q: int, k: int) -> float:
    """Oracle: integral of x^q (1+x)^(-k-2) over (0,inf) by the Beta identity."""
    return math.factorial(q) * math.factorial(k - q) / math.factorial(k + 1)


class TestNodes:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 64, 257])
    def test_against_scipy(self, m):
        t, omt, w = gauss_legendre_unit(m)
        xs, ws = roots_legendre(m)
        idx = np.argsort(xs)
        assert np.max(np.abs(t - (xs[idx] + 1) / 2)) < 5e-15
        assert np.max(np.abs(w - ws[idx] / 2)) < 5e-14
        assert abs(w.sum() - 1.0) < 1e-14

    @pytest.mark.parametrize("m", [4, 64, 512])
    def test_rule_invariants(self, m):
        t, omt, w = gauss_legendre_unit(m)
        assert np.all(w > 0)
        assert np.all((t > 0) & (t < 1))
        assert np.all((omt > 0) & (omt < 1))
        # complement pairs are exact to machine relative precision
        assert np.max(np.abs(t + omt - 1.0)) < 5e-16

    def test_needs_a_node(self):
        with pytest.raises(ValueError, match=r"^node count must be >= 1$"):
            gauss_legendre_unit(0)

    def test_complement_precision_at_endpoint(self):
        # the smallest 1-t is ~3e-7 at m=2048; by node symmetry it must agree
        # with the smallest t to near machine relative precision (forming it
        # by subtraction would already lose ~3e-10 here)
        t, omt, _ = gauss_legendre_unit(2048)
        assert abs(omt[-1] / t[0] - 1.0) < 1e-11


@pytest.mark.parametrize("nodes", [(12, 18), (64, 128), (27,)])
def test_stack_rules_pads_each_rule_to_the_largest(nodes):
    t, omt, w = stack_rules(gauss_legendre_unit(c) for c in nodes)
    assert t.shape == omt.shape == w.shape == (len(nodes), max(nodes))
    for i, c in enumerate(nodes):
        # the real nodes are the rule of c nodes, bit for bit
        for got, want in zip((t[i], omt[i], w[i]), gauss_legendre_unit(c)):
            assert np.array_equal(got[:c], want)
        assert (t[i, c:] == 0.5).all() and (omt[i, c:] == 0.5).all()
        assert (w[i, c:] == 0.0).all()


class TestSemiInfinite:
    def test_basic_identity(self):
        val, err = integrate_semi_infinite(lambda x: 1.0 / (1 + x) ** 2, rel_tol=1e-12)
        assert val == pytest.approx(1.0, rel=1e-12)
        assert err <= 1e-12

    def test_beta_2_1(self):
        val, _ = integrate_semi_infinite(lambda x: x / (1 + x) ** 3, rel_tol=1e-12)
        assert val == pytest.approx(0.5, rel=1e-12)

    def test_beta_1_3(self):
        val, _ = integrate_semi_infinite(lambda x: x / (1 + x) ** 5, rel_tol=1e-12)
        assert val == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert beta_exact(1, 3) == pytest.approx(1.0 / 12.0, rel=1e-15)

    def test_beta_family_exactness(self):
        for k in range(0, 11):
            for q in range(0, k + 1):
                val, _ = integrate_semi_infinite(
                    lambda x, q=q, k=k: x**q * (1 + x) ** (-k - 2), rel_tol=1e-11)
                assert val == pytest.approx(beta_exact(q, k), rel=1e-11), (q, k)

    def test_linearity(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            q1, q2 = rng.integers(0, 4, 2)
            k1, k2 = q1 + rng.integers(2, 5), q2 + rng.integers(2, 5)
            al, be = rng.uniform(0.5, 2.0, 2)
            f = lambda x: x**q1 * (1 + x) ** (-k1 - 2)
            g = lambda x: x**q2 * (1 + x) ** (-k2 - 2)
            combo, _ = integrate_semi_infinite(lambda x: al * f(x) + be * g(x))
            vf, _ = integrate_semi_infinite(f)
            vg, _ = integrate_semi_infinite(g)
            assert combo == pytest.approx(al * vf + be * vg, rel=1e-10)

    def test_monotone_refinement(self):
        # disagreement between consecutive levels shrinks as nodes double
        f = lambda x: x**3 * (1 + x) ** (-11)
        vals = {}
        for m in (2, 4, 8, 16, 32):
            t, omt, w = gauss_legendre_unit(m)
            vals[m] = float(np.sum(f(t / omt) * (w / omt**2)))
        errs = [abs(vals[m] - vals[2 * m]) for m in (2, 4, 8, 16)]
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert lo <= hi + 1e-15

    def test_nan_rejected(self):
        with pytest.raises(QuadratureError):
            integrate_semi_infinite(lambda x: np.full_like(x, np.nan))

    def test_nonconvergence_carries_best(self):
        # 1/(1+x) is not integrable; certification can never succeed
        with pytest.raises(QuadratureError) as exc:
            integrate_semi_infinite(lambda x: 1.0 / (1 + x))
        assert exc.value.best is not None

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            integrate_semi_infinite(lambda x: 1.0 / (1 + x) ** 2, rel_tol=0.0)
        with pytest.raises(ValueError):
            integrate_semi_infinite(lambda x: 1.0 / (1 + x) ** 2, rel_tol=2.0)

    def test_shape_mismatch_detected(self):
        with pytest.raises(ValueError):
            integrate_semi_infinite(lambda x: np.ones((3, 2)))


class TestRefineDriver:
    def test_vector_certification(self):
        # a doubling ladder and one with a step of 1.5 both stop at the
        # first agreeing pair, below their last rung
        for ladder in [(16, 32, 64, 128, 256, 512, 1024, 2048),
                       (16, 24, 36, 54, 81, 122, 183, 275, 413)]:
            calls = []

            def evaluate(m):
                calls.append(m)
                return np.array([1.0 + 1.0 / m**4, 2.0 + 1.0 / m**4])

            vals, errs = refine_by_doubling(evaluate, rel_tol=1e-9, ladder=ladder)
            assert calls == list(ladder[:len(calls)])
            assert 2 < len(calls) < len(ladder)
            assert np.all(errs <= 1e-9)
            assert vals == pytest.approx([1.0, 2.0], rel=1e-7)

    def test_cap_failure(self):
        calls = []

        def evaluate(m):
            calls.append(m)
            return np.array([1.0 + 1.0 / m])

        with pytest.raises(QuadratureError, match="within node cap 54") as exc:
            refine_by_doubling(evaluate, rel_tol=1e-12, ladder=(16, 24, 36, 54))
        assert calls == [16, 24, 36, 54]
        assert exc.value.best == pytest.approx([1.0 + 1.0 / 54])

    @pytest.mark.parametrize("bad", [0, 2])
    def test_nan_raises_at_its_rung(self, bad):
        # a NaN never certifies, so the driver names its rung once two
        # levels disagree, with the finite estimate before it as the best
        ladder = (16, 24, 36, 54)

        def evaluate(m):
            return np.array([1.0, np.nan if m == ladder[bad] else 1.0 + 1.0 / m])

        message = rf"^non-finite integral estimate at m={ladder[bad]}$"
        with pytest.raises(QuadratureError, match=message) as exc:
            refine_by_doubling(evaluate, rel_tol=1e-12, ladder=ladder)
        if bad == 0:
            assert exc.value.best is None
        else:
            assert exc.value.best == pytest.approx([1.0, 1.0 + 1.0 / ladder[bad - 1]])


def test_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency: the package itself must not import it
    src = str(Path(balmet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, balmet; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"
