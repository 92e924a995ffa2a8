import numpy as np
import pytest

from ldgshishkin import (
    DGFunction1D,
    DGFunction2D,
    MeshConfig,
    MixedSolution1D,
    MixedSolution2D,
    balanced_norm_1d,
    balanced_norm_2d,
    build_shishkin_1d,
    build_shishkin_2d,
    energy_norm_1d,
    energy_norm_2d,
    error_norms_1d,
    l2_error_region_1d,
    l2_error_region_2d,
    linf_error_1d,
    paper_1d_problem,
    polynomial_problem_1d,
    rate_shishkin,
    solve_ldg_1d,
)
from ldgshishkin.errors import ConfigurationError
from ldgshishkin.problems import Problem1D
from reference import interpolate_1d


def unit_b(x):
    return np.ones_like(np.asarray(x, dtype=float))


def make_mesh(N, eps, sigma=2.0):
    return build_shishkin_1d(MeshConfig(N=N, eps=eps, sigma=sigma))


def constant_pair(mesh, k, u_value, q_value):
    U = DGFunction1D.zeros(mesh, k)
    Q = DGFunction1D.zeros(mesh, k)
    U.coeffs[:, 0] = u_value
    Q.coeffs[:, 0] = q_value
    return MixedSolution1D(U=U, Q=Q)


class TestHandValues:
    def test_energy_of_constant_one(self):
        # eps = 0.01, b = 1: total^2 = 1 (u term) + 2 * sqrt(eps) (boundary)
        eps = 0.01
        p = Problem1D(eps=eps, b=unit_b, f=unit_b, beta=1.0)
        mesh = make_mesh(8, eps)
        V = constant_pair(mesh, 1, 1.0, 0.0)
        nb = energy_norm_1d(V, p, mesh)
        assert nb.total**2 == pytest.approx(1.2, rel=1e-13)
        assert nb.u_term == pytest.approx(1.0, rel=1e-13)
        assert nb.boundary_jump_term == pytest.approx(0.2, rel=1e-13)
        assert nb.q_term == 0.0 and nb.interface_jump_term == 0.0

    def test_balanced_of_constant_one(self):
        for eps in (0.01, 1e-8):
            p = Problem1D(eps=eps, b=unit_b, f=unit_b, beta=1.0)
            mesh = make_mesh(8, eps)
            V = constant_pair(mesh, 1, 1.0, 0.0)
            nb = balanced_norm_1d(V, p, mesh)
            assert nb.total**2 == pytest.approx(3.0, rel=1e-13)

    def test_zero_function(self):
        p = Problem1D(eps=1e-3, b=unit_b, f=unit_b, beta=1.0)
        mesh = make_mesh(8, 1e-3)
        V = constant_pair(mesh, 1, 0.0, 0.0)
        assert energy_norm_1d(V, p, mesh).total == 0.0
        assert balanced_norm_1d(V, p, mesh).total == 0.0

    def test_breakdown_sums_to_total(self):
        rng = np.random.default_rng(5)
        p = paper_1d_problem(1e-4)
        mesh = make_mesh(16, 1e-4)
        V = MixedSolution1D(
            U=DGFunction1D(mesh, 2, rng.standard_normal((16, 3))),
            Q=DGFunction1D(mesh, 2, rng.standard_normal((16, 3))),
        )
        for nb in (energy_norm_1d(V, p, mesh), balanced_norm_1d(V, p, mesh)):
            total_sq = nb.q_term + nb.u_term + nb.boundary_jump_term + nb.interface_jump_term
            assert nb.total**2 == pytest.approx(total_sq, rel=1e-13)


class TestBalancedEnergyInequality:
    @pytest.mark.parametrize("eps", [1.0, 1e-4, 1e-8, 1e-12])
    def test_termwise_bound(self, eps):
        rng = np.random.default_rng(11)
        p = Problem1D(eps=eps, b=unit_b, f=unit_b, beta=1.0)
        mesh = make_mesh(16, eps)
        for _ in range(10):
            V = MixedSolution1D(
                U=DGFunction1D(mesh, 1, rng.standard_normal((16, 2))),
                Q=DGFunction1D(mesh, 1, rng.standard_normal((16, 2))),
            )
            B = balanced_norm_1d(V, p, mesh).total
            E = energy_norm_1d(V, p, mesh).total
            assert B <= eps**-0.25 * E * (1.0 + 1e-12)


class TestErrorNorms:
    def test_exact_interpolant_has_tiny_error(self):
        eps = 1e-3
        p = polynomial_problem_1d(eps, 2)
        mesh = make_mesh(16, eps, sigma=3.0)
        W = MixedSolution1D(
            U=interpolate_1d(p.u_exact, mesh, 2),
            Q=interpolate_1d(p.q_exact, mesh, 2),
        )
        energy, balanced = error_norms_1d(W, p, mesh)
        assert energy.total <= 1e-10
        assert balanced.total <= 1e-10

    def test_requires_exact_handles(self):
        p = Problem1D(eps=1e-3, b=unit_b, f=unit_b, beta=1.0)
        mesh = make_mesh(8, 1e-3)
        V = constant_pair(mesh, 1, 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            error_norms_1d(V, p, mesh)

    def test_quadrature_stability(self):
        # doubling the error-quadrature order moves the norms by < 0.1%
        for eps in (1e-4, 1e-8):
            k = 1
            p = paper_1d_problem(eps)
            mesh = make_mesh(32, eps)
            sol = solve_ldg_1d(p, mesh, k)
            base_q = 2 * (k + 2)
            e1, b1 = error_norms_1d(sol, p, mesh, quad=base_q)
            e2, b2 = error_norms_1d(sol, p, mesh, quad=2 * base_q)
            assert abs(e1.total - e2.total) < 1e-3 * e2.total
            assert abs(b1.total - b2.total) < 1e-3 * b2.total


class TestRateFormula:
    def test_pure_shishkin_power(self):
        for N in (8, 32, 128):
            e_n = (np.log(N) / N) ** 2
            e_2n = (np.log(2 * N) / (2 * N)) ** 2
            assert rate_shishkin(e_n, e_2n, N) == pytest.approx(2.0, abs=1e-12)

    def test_equal_errors_give_zero(self):
        assert rate_shishkin(0.5, 0.5, 16) == 0.0

    def test_frozen_example(self):
        # ln(0.026/0.012) / ln(2 ln 32 / ln 64) = 1.5136...
        assert rate_shishkin(0.026, 0.012, 32) == pytest.approx(1.513609, abs=1e-5)

    def test_nonpositive_errors_absent(self):
        assert rate_shishkin(0.0, 1.0, 8) is None
        assert rate_shishkin(1.0, -2.0, 8) is None

    def test_tiny_N_rejected(self):
        with pytest.raises(ConfigurationError):
            rate_shishkin(1.0, 0.5, 1)


class TestNorms2DZero:
    def test_zero_triple(self):
        from ldgshishkin import manufactured_2d_problem

        p = manufactured_2d_problem(1e-3)
        mesh = build_shishkin_2d(MeshConfig(N=4, eps=1e-3, sigma=2.0))
        T = MixedSolution2D(
            U=DGFunction2D.zeros(mesh, 1),
            P=DGFunction2D.zeros(mesh, 1),
            Q=DGFunction2D.zeros(mesh, 1),
        )
        assert energy_norm_2d(T, p, mesh).total == 0.0
        assert balanced_norm_2d(T, p, mesh).total == 0.0


def smooth_1d(x):
    x = np.asarray(x, dtype=float)
    return np.sin(4.0 * x) + np.exp(-x)


def smooth_2d(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return np.cos(3.0 * x - y) * np.exp(y)


def brute_l2_1d(dgf, exact, mesh, cells, quad):
    """Per-cell sum with numpy's Gauss rule and Legendre series."""
    t, w = np.polynomial.legendre.leggauss(quad)
    total = 0.0
    for i in cells:
        a, c = mesh.nodes[i - 1], mesh.nodes[i]
        x = a + (c - a) * (t + 1.0) / 2.0
        diff = exact(x) - np.polynomial.legendre.legval(t, dgf.coeffs[i - 1])
        total += 0.5 * (c - a) * np.sum(w * diff**2)
    return np.sqrt(total)


def brute_linf_1d(dgf, exact, mesh, cells, samples=40):
    t = np.linspace(-1.0, 1.0, samples)
    worst = 0.0
    for i in cells:
        a, c = mesh.nodes[i - 1], mesh.nodes[i]
        x = a + (c - a) * (t + 1.0) / 2.0
        diff = exact(x) - np.polynomial.legendre.legval(t, dgf.coeffs[i - 1])
        worst = max(worst, np.max(np.abs(diff)))
    return worst


def brute_l2_2d(dgf, exact, mesh2d, cell_filter, quad):
    t, w = np.polynomial.legendre.leggauss(quad)
    nodes = mesh2d.axis.nodes
    total = 0.0
    for i in range(1, mesh2d.N + 1):
        for j in range(1, mesh2d.N + 1):
            if not cell_filter(i, j):
                continue
            ax, cx, ay, cy = nodes[i - 1], nodes[i], nodes[j - 1], nodes[j]
            x = ax + (cx - ax) * (t + 1.0) / 2.0
            y = ay + (cy - ay) * (t + 1.0) / 2.0
            vals = np.polynomial.legendre.leggrid2d(t, t, dgf.coeffs[i - 1, j - 1])
            diff = exact(x[:, None], y[None, :]) - vals
            total += 0.25 * (cx - ax) * (cy - ay) * np.sum(np.outer(w, w) * diff**2)
    return np.sqrt(total)


class TestRegionErrors:
    K, QUAD = 2, 7

    @pytest.fixture(params=[8, 64])
    def mesh(self, request):
        return build_shishkin_1d(MeshConfig(N=request.param, eps=1e-6, sigma=3.0))

    def dg_1d(self, mesh):
        rng = np.random.default_rng(mesh.N)
        return DGFunction1D(mesh, self.K, rng.standard_normal((mesh.N, self.K + 1)))

    def dg_2d(self, mesh):
        rng = np.random.default_rng(mesh.N + 1)
        mesh2d = build_shishkin_2d(mesh.config)
        coeffs = rng.standard_normal((mesh.N, mesh.N, self.K + 1, self.K + 1))
        return mesh2d, DGFunction2D(mesh2d, self.K, coeffs)

    def test_1d_noncontiguous_sets_match_brute_force(self, mesh):
        N = mesh.N
        f = self.dg_1d(mesh)
        for cells in ([1, 3, 4, N - 2, N], range(2, N + 1, 3), list(range(1, N + 1))):
            got = l2_error_region_1d(f, smooth_1d, mesh, cells, quad=self.QUAD)
            want = brute_l2_1d(f, smooth_1d, mesh, cells, self.QUAD)
            assert got == pytest.approx(want, rel=1e-12)
            got = linf_error_1d(f, smooth_1d, mesh, cells)
            assert got == pytest.approx(brute_linf_1d(f, smooth_1d, mesh, cells), rel=1e-12)
        everything = brute_linf_1d(f, smooth_1d, mesh, range(1, N + 1))
        assert linf_error_1d(f, smooth_1d, mesh) == pytest.approx(everything, rel=1e-12)

    def test_1d_empty_set_is_exactly_zero(self, mesh):
        f = self.dg_1d(mesh)
        assert l2_error_region_1d(f, smooth_1d, mesh, []) == 0.0
        assert linf_error_1d(f, smooth_1d, mesh, []) == 0.0

    def test_1d_cell_index_out_of_range(self, mesh):
        f = self.dg_1d(mesh)
        for bad in ([0], [mesh.N + 1]):
            with pytest.raises(ConfigurationError):
                l2_error_region_1d(f, smooth_1d, mesh, bad)
            with pytest.raises(ConfigurationError):
                linf_error_1d(f, smooth_1d, mesh, bad)

    def test_2d_filters_match_brute_force(self, mesh):
        mesh2d, f = self.dg_2d(mesh)
        N = mesh.N
        q1, q3 = N // 4, 3 * N // 4
        for cell_filter in (
            lambda i, j: (i + 2 * j) % 3 == 0,
            lambda i, j: not (q1 + 1 <= i <= q3 and q1 + 1 <= j <= q3),
            lambda i, j: True,
        ):
            got = l2_error_region_2d(f, smooth_2d, mesh2d, cell_filter, quad=self.QUAD)
            want = brute_l2_2d(f, smooth_2d, mesh2d, cell_filter, self.QUAD)
            assert got == pytest.approx(want, rel=1e-12)

    def test_2d_filter_rejecting_every_cell_is_exactly_zero(self, mesh):
        mesh2d, f = self.dg_2d(mesh)
        assert l2_error_region_2d(f, smooth_2d, mesh2d, lambda i, j: False) == 0.0
