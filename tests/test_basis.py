import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_legendre, roots_legendre

from ldgshishkin import (
    ConfigurationError,
    ReferenceBasis,
    gauss_rule,
    legendre_eval,
)
from ldgshishkin.basis import legendre_table


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
    def test_degree_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            ReferenceBasis(0)

    def test_endpoint_values(self):
        basis = ReferenceBasis(3)
        assert np.array_equal(basis.right_values, [1, 1, 1, 1])
        assert np.array_equal(basis.left_values, [1, -1, 1, -1])

    def test_stiffness_matches_quadrature(self):
        k = 4
        basis = ReferenceBasis(k)
        rule = gauss_rule(k + 2)
        V, D = legendre_table(k, rule.points)
        G_quad = np.einsum("g,ga,gm->ma", rule.weights, V, D)
        assert np.allclose(basis.stiffness(), G_quad, atol=1e-13)
