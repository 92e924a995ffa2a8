import numpy as np
import pytest
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
    legendre_table,
)
from ldgshishkin.basis import reference_blocks_1d
from reference import legendre_values_and_derivatives


class TestLegendreEval:
    """P_n evaluated as column n of ``legendre_table``."""

    def test_p0(self):
        assert legendre_table(0, 0.3)[0, 0] == 1.0

    def test_p1(self):
        assert legendre_table(1, 0.3)[0, 1] == pytest.approx(0.3, abs=0)

    def test_p2_by_hand(self):
        # P_2 = (3x^2 - 1)/2 at x = 0.5
        assert legendre_table(2, 0.5)[0, 2] == pytest.approx(-0.125, abs=1e-15)

    def test_against_scipy(self):
        xs = np.linspace(-1.0, 1.0, 17)
        V = legendre_table(8, xs)
        for n in range(9):
            assert np.allclose(V[:, n], eval_legendre(n, xs), atol=1e-13)

    def test_negative_degree_rejected(self):
        with pytest.raises(ConfigurationError, match="Legendre degree must be >= 0, got -1"):
            legendre_table(-1, 0.0)


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

    @pytest.mark.parametrize("n", [2.5, 4.0, np.float64(3.0), "4", None, True])
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
                V = legendre_table(max(m, n), rule.points)
                got = np.sum(rule.weights * V[:, m] * V[:, n])
                exact = 2.0 / (2 * n + 1) if m == n else 0.0
                assert abs(got - exact) < 1e-13


class TestReferenceBasis:
    """The cached reference element ``reference_blocks_1d``."""

    def test_endpoint_values(self):
        for k in (0, 3):  # degree 0 too: its projections and traces read the table
            ref = reference_blocks_1d(k)
            assert np.array_equal(ref.ones, [1, 1, 1, 1][:k + 1])
            assert np.array_equal(ref.alt, [1, -1, 1, -1][:k + 1])
            assert np.array_equal(legendre_table(k, [1.0, -1.0]), [ref.ones, ref.alt])
            assert np.array_equal(ref.mass, 2.0 / (2.0 * np.arange(k + 1) + 1.0))

    def test_stiffness_matches_quadrature(self):
        k = 4
        ref = reference_blocks_1d(k)
        rule = gauss_rule(k + 2)
        V, D = legendre_values_and_derivatives(k, rule.points)
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


def test_public_names_are_pinned():
    # growing or shrinking the package's API is a deliberate edit of this list
    assert ldgshishkin.__all__ == sorted({
        "AssembledSystem", "AssembledSystem2D", "BandedMatrix", "ConfigurationError",
        "ConvergenceTable", "DGFunction1D", "DGFunction2D", "Mesh1D", "Mesh2D", "MeshConfig",
        "MeshError", "MixedSolution1D", "MixedSolution2D", "NormBreakdown", "Problem1D",
        "Problem2D", "ProjectionError", "QuadratureRule", "RateRow", "SingularMatrixError",
        "SolveResult", "SolverError", "SweepConfig", "assemble_1d", "assemble_2d", "basis",
        "build_shishkin_1d", "build_shishkin_2d", "cell_project_1d", "composite_project_minus_1d",
        "composite_project_minus_2d", "composite_project_plus_1d", "composite_project_plus_x_2d",
        "dgfunction", "discrete_norms_1d", "discrete_norms_2d", "emit_table", "error_norms_1d",
        "error_norms_2d", "errors", "gauss_rule", "harness", "l2_error_region_1d",
        "l2_error_region_2d", "ldg1d", "ldg2d", "legendre_table", "linalg", "linf_error_1d",
        "manufactured_2d_problem", "mesh", "norms", "paper_1d_problem", "polynomial_problem_1d",
        "problem_by_key", "problems", "projections", "rate_shishkin", "run_projection_study",
        "run_sweep", "solve_ldg_1d", "solve_ldg_2d", "tensor_project_2d",
    })
