import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_legendre, roots_legendre

import ldgshishkin
from ldgshishkin import (
    ConfigurationError,
    DGFunction1D,
    DGFunction2D,
    basis,
    gauss_rule,
    ldg1d,
    ldg2d,
    legendre_eval,
)
from ldgshishkin.basis import legendre_table, reference_blocks_1d


class TestLegendreEval:
    def test_p0(self):
        v, d = legendre_eval(0, 0.3)
        assert v == 1.0 and d == 0.0

    def test_p1(self):
        v, d = legendre_eval(1, 0.3)
        assert v == pytest.approx(0.3, abs=0) and d == 1.0

    def test_p2_by_hand(self):
        # P_2 = (3x^2 - 1)/2, P_2' = 3x at x = 0.5
        v, d = legendre_eval(2, 0.5)
        assert v == pytest.approx(-0.125, abs=1e-15)
        assert d == pytest.approx(1.5, abs=1e-15)

    def test_against_scipy(self):
        xs = np.linspace(-1.0, 1.0, 17)
        for n in range(9):
            v, _ = legendre_eval(n, xs)
            assert np.allclose(v, eval_legendre(n, xs), atol=1e-13)

    def test_negative_degree_rejected(self):
        with pytest.raises(ConfigurationError):
            legendre_eval(-1, 0.0)

    def test_is_the_table_column_in_the_input_shape(self):
        rng = np.random.default_rng(7)
        for x in (0.3, np.array(-0.7), rng.uniform(-1.0, 1.0, (3, 4))):
            flat = np.ravel(x)
            for n in range(13):
                V, D = legendre_table(n, flat)
                v, d = legendre_eval(n, x)
                assert v.shape == d.shape == np.shape(x)
                assert np.array_equal(v.ravel(), V[:, n]) and np.array_equal(d.ravel(), D[:, n])

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(min_value=0, max_value=8),
           x=st.floats(min_value=-0.99, max_value=0.99))
    def test_derivative_matches_finite_differences(self, n, x):
        h = 1e-6
        vp, _ = legendre_eval(n, x + h)
        vm, _ = legendre_eval(n, x - h)
        _, d = legendre_eval(n, x)
        assert abs((vp - vm) / (2 * h) - d) < 1e-6


class TestGaussRule:
    def test_one_point_is_midpoint_rule(self):
        rule = gauss_rule(1)
        assert np.array_equal(rule.points, [0.0])
        assert np.array_equal(rule.weights, [2.0])

    def test_two_point_closed_form(self):
        rule = gauss_rule(2)
        assert np.allclose(rule.points, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)
        assert np.allclose(rule.weights, [1.0, 1.0], atol=1e-15)

    def test_integrates_x6_analytically(self):
        rule = gauss_rule(4)
        assert np.sum(rule.weights * rule.points**6) == pytest.approx(2.0 / 7.0, abs=1e-14)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_exact_for_monomials(self, n):
        rule = gauss_rule(n)
        for d in range(2 * n):
            exact = 0.0 if d % 2 == 1 else 2.0 / (d + 1)
            got = np.sum(rule.weights * rule.points**d)
            assert abs(got - exact) < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 33, 64])
    def test_invariants_and_scipy_agreement(self, n):
        rule = gauss_rule(n)
        assert np.all(np.diff(rule.points) > 0)
        assert np.all(rule.weights > 0)
        assert np.sum(rule.weights) == pytest.approx(2.0, abs=1e-13)
        assert np.allclose(rule.points, -rule.points[::-1], atol=0)
        xs, ws = roots_legendre(n)
        assert np.allclose(rule.points, xs, atol=1e-14)
        assert np.allclose(rule.weights, ws, atol=1e-14)

    @pytest.mark.parametrize("n", [0, -3, 65])
    def test_out_of_range_rejected(self, n):
        with pytest.raises(ConfigurationError):
            gauss_rule(n)

    @pytest.mark.parametrize("n", [2.5, 4.0, np.float64(3.0), "4", None])
    def test_non_integer_rejected(self, n):
        gauss_rule(4)  # the cached integer rule must not answer for 4.0
        with pytest.raises(ConfigurationError, match="integer"):
            gauss_rule(n)

    def test_numpy_integer_accepted(self):
        rule = gauss_rule(np.int64(4))
        assert np.array_equal(rule.points, gauss_rule(4).points)


class TestOrthogonality:
    def test_mass_orthogonality_by_quadrature(self):
        for m in range(9):
            for n in range(9):
                npts = -((m + n) // -2) + 1  # ceil((m+n)/2) + 1
                rule = gauss_rule(npts)
                vm, _ = legendre_eval(m, rule.points)
                vn, _ = legendre_eval(n, rule.points)
                got = np.sum(rule.weights * vm * vn)
                exact = 2.0 / (2 * n + 1) if m == n else 0.0
                assert abs(got - exact) < 1e-13


class TestReferenceBasis:
    """The cached reference element ``reference_blocks_1d``."""

    def test_endpoint_values(self):
        for k in (0, 3):  # degree 0 too: its projections and traces read the table
            ref = reference_blocks_1d(k)
            assert np.array_equal(ref.ones, [1, 1, 1, 1][:k + 1])
            assert np.array_equal(ref.alt, [1, -1, 1, -1][:k + 1])
            assert np.array_equal(legendre_table(k, [1.0, -1.0])[0], [ref.ones, ref.alt])
            assert np.array_equal(ref.mass, 2.0 / (2.0 * np.arange(k + 1) + 1.0))

    def test_stiffness_matches_quadrature(self):
        k = 4
        ref = reference_blocks_1d(k)
        rule = gauss_rule(k + 2)
        V, D = legendre_table(k, rule.points)
        G_quad = np.einsum("g,ga,gm->ma", rule.weights, V, D)
        assert np.allclose(ref.G, G_quad, atol=1e-13)
        assert np.array_equal(ref.R, ref.G - 1.0)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_arrays_are_read_only(self, k):
        for array in reference_blocks_1d(k):
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0.0

    def test_cached_per_degree(self):
        assert reference_blocks_1d(2) is reference_blocks_1d(2)
        assert reference_blocks_1d(2) is not reference_blocks_1d(3)


def test_test_oracles_are_not_in_the_package():
    # the quadrature oracles and the helpers only they and the tests read live
    # in tests/reference.py, and the reference element is reference_blocks_1d
    moved = {
        (ldgshishkin, basis, ldg1d, ldg2d): (
            "ReferenceBasis", "bilinear_form_1d", "bilinear_form_2d", "load_functional_1d",
            "load_functional_2d"),
        (DGFunction1D, DGFunction2D): ("values_at", "x_edge_trace", "y_edge_trace"),
    }
    for owners, names in moved.items():
        for owner in owners:
            assert [name for name in names if hasattr(owner, name)] == [], owner
