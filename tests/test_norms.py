from types import SimpleNamespace

import numpy as np
import pytest

from ldgshishkin import (
    DGFunction1D,
    DGFunction2D,
    MeshConfig,
    MixedSolution1D,
    MixedSolution2D,
    build_shishkin_1d,
    build_shishkin_2d,
    discrete_norms_1d,
    discrete_norms_2d,
    error_norms_1d,
    error_norms_2d,
    l2_error_region_1d,
    l2_error_region_2d,
    linf_error_1d,
    manufactured_2d_problem,
    paper_1d_problem,
    polynomial_problem_1d,
    rate_shishkin,
    solve_ldg_1d,
    solve_ldg_2d,
)
from ldgshishkin import basis, norms
from ldgshishkin.errors import ConfigurationError
from ldgshishkin.problems import Problem1D
from reference import interpolate_1d, traced_peak, x_edge_trace, y_edge_trace


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
        nb = discrete_norms_1d(V, p, mesh)[0]
        assert nb.total**2 == pytest.approx(1.2, rel=1e-13)
        assert nb.u_term == pytest.approx(1.0, rel=1e-13)
        assert nb.boundary_jump_term == pytest.approx(0.2, rel=1e-13)
        assert nb.q_term == 0.0 and nb.interface_jump_term == 0.0

    def test_balanced_of_constant_one(self):
        for eps in (0.01, 1e-8):
            p = Problem1D(eps=eps, b=unit_b, f=unit_b, beta=1.0)
            mesh = make_mesh(8, eps)
            V = constant_pair(mesh, 1, 1.0, 0.0)
            _, nb = discrete_norms_1d(V, p, mesh)
            assert nb.total**2 == pytest.approx(3.0, rel=1e-13)

    def test_zero_function(self):
        p = Problem1D(eps=1e-3, b=unit_b, f=unit_b, beta=1.0)
        mesh = make_mesh(8, 1e-3)
        V = constant_pair(mesh, 1, 0.0, 0.0)
        assert [nb.total for nb in discrete_norms_1d(V, p, mesh)] == [0.0, 0.0]

    def test_breakdown_sums_to_total(self):
        rng = np.random.default_rng(5)
        p = paper_1d_problem(1e-4)
        mesh = make_mesh(16, 1e-4)
        V = MixedSolution1D(
            U=DGFunction1D(mesh, 2, rng.standard_normal((16, 3))),
            Q=DGFunction1D(mesh, 2, rng.standard_normal((16, 3))),
        )
        for nb in discrete_norms_1d(V, p, mesh):
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
            energy, balanced = discrete_norms_1d(V, p, mesh)
            B, E = balanced.total, energy.total
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


class TestErrorRuleSampling:
    """One error-norm call maps the error rule to the mesh once, and every
    exact handle samples those points; the rule's Legendre table is cached."""

    EPS, K, N = 1e-6, 1, 8  # 2D: N^2 (2(k+2))^2 = 2304 points, one strip

    def case(self, dim, calls):
        """The norm call, a solution, a problem whose handles log their
        names and arguments to ``calls``, the mesh, and the rule's points."""
        config = MeshConfig(N=self.N, eps=self.EPS, sigma=self.K + 1.0)
        if dim == 1:
            p, mesh, names, norm = (paper_1d_problem(self.EPS), build_shishkin_1d(config),
                                    ("u_exact", "q_exact", "b"), error_norms_1d)
            sol, axis = solve_ldg_1d(p, mesh, self.K), mesh
        else:
            p, mesh, names, norm = (manufactured_2d_problem(self.EPS), build_shishkin_2d(config),
                                    ("u_exact", "p_exact", "q_exact", "b"), error_norms_2d)
            sol, axis = solve_ldg_2d(p, mesh, self.K), mesh.axis

        def spy(name, handle):
            def sampled(*points):
                calls.append((name, points))
                return handle(*points)
            return sampled

        spied = SimpleNamespace(has_exact=True, eps=p.eps,
                                **{name: spy(name, getattr(p, name)) for name in names})
        points = axis.quadrature_points(basis.gauss_rule(2 * (self.K + 2)).points)
        return norm, sol, spied, mesh, points

    @pytest.mark.parametrize("dim", [1, 2])
    def test_every_handle_samples_one_shared_point_array(self, dim):
        calls = []
        norm, sol, spied, mesh, points = self.case(dim, calls)
        norm(sol, spied, mesh)
        handles = ["b", "q_exact", "u_exact"] + (["p_exact"] if dim == 2 else [])
        assert sorted(name for name, _ in calls) == sorted(handles)
        shared = calls[0][1][0]
        for _, args in calls:  # 2D: x down the strip's rows, y along its columns
            assert len(args) == dim
            for a in args:
                assert np.shares_memory(a, shared) and np.array_equal(a.ravel(), points.ravel())

    @pytest.mark.parametrize("dim", [1, 2])
    def test_second_call_tabulates_nothing(self, dim, monkeypatch):
        norm, sol, spied, mesh, _ = self.case(dim, [])
        first = norm(sol, spied, mesh)
        tables, tabulate = [], basis.legendre_table

        def counted(*args):
            tables.append(args)
            return tabulate(*args)

        monkeypatch.setattr(basis, "legendre_table", counted)
        monkeypatch.setattr(norms, "legendre_table", counted)
        assert norm(sol, spied, mesh) == first
        assert tables == []

    def test_traced_names_stay_bound(self):
        # bench/spans.py counts the calls of these two in norms
        assert norms.gauss_rule is basis.gauss_rule
        assert norms.legendre_table is basis.legendre_table


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

    @pytest.mark.parametrize("N", [1, 2])
    def test_tiny_N_rejected(self, N):
        # at N = 2 the denominator log(2 ln 2 / ln 4) is exactly 0 in float64
        with pytest.raises(ConfigurationError):
            rate_shishkin(1.0, 0.5, N)


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
        assert [nb.total for nb in discrete_norms_2d(T, p, mesh)] == [0.0, 0.0]


class TestFluxTermIsExact:
    """The flux term of a discrete argument is its modal closed form
    sum h~ c^2 2/(2n+1), h~ = h/2 (h~x h~y in 2D)."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_1d(self, k):
        rng = np.random.default_rng(40 + k)
        eps, N = 1e-4, 16
        p = paper_1d_problem(eps)
        mesh = make_mesh(N, eps)
        wbar = 2.0 / (2.0 * np.arange(k + 1) + 1.0)
        halfh = 0.5 * np.diff(mesh.nodes)
        for _ in range(5):
            U, Q = rng.standard_normal((2, N, k + 1))
            V = MixedSolution1D(U=DGFunction1D(mesh, k, U), Q=DGFunction1D(mesh, k, Q))
            modal = np.sum(halfh[:, None] * Q**2 * wbar)
            assert discrete_norms_1d(V, p, mesh)[0].q_term * eps == pytest.approx(modal, rel=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_2d(self, k):
        from ldgshishkin import manufactured_2d_problem

        rng = np.random.default_rng(50 + k)
        eps, N = 1e-4, 8
        p = manufactured_2d_problem(eps)
        mesh = build_shishkin_2d(MeshConfig(N=N, eps=eps, sigma=2.0))
        wbar = 2.0 / (2.0 * np.arange(k + 1) + 1.0)
        halfh = 0.5 * np.diff(mesh.axis.nodes)
        area = halfh[:, None] * halfh[None, :]
        for _ in range(5):
            U, P, Q = rng.standard_normal((3, N, k + 1, N, k + 1))
            T = MixedSolution2D(*(DGFunction2D(mesh, k, c) for c in (U, P, Q)))
            modal = np.einsum("ij,imjn,m,n->", area, P**2 + Q**2, wbar, wbar)
            assert discrete_norms_2d(T, p, mesh)[0].q_term * eps == pytest.approx(modal, rel=1e-14)


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
            vals = np.polynomial.legendre.leggrid2d(t, t, dgf.coeffs[i - 1, :, j - 1])
            diff = exact(x[:, None], y[None, :]) - vals
            total += 0.25 * (cx - ax) * (cy - ay) * np.sum(np.outer(w, w) * diff**2)
    return np.sqrt(total)


def mask_1d(cells, N):
    """Boolean (N,) mask of the 1-based cell indices ``cells``."""
    mask = np.zeros(N, dtype=bool)
    mask[np.asarray(list(cells), dtype=int) - 1] = True
    return mask


def mask_2d(cell_filter, N):
    """Boolean (N, N) mask of the 1-based cells (i, j) that ``cell_filter`` accepts."""
    return np.array([[cell_filter(i, j) for j in range(1, N + 1)] for i in range(1, N + 1)])


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
        coeffs = rng.standard_normal((mesh.N, self.K + 1, mesh.N, self.K + 1))
        return mesh2d, DGFunction2D(mesh2d, self.K, coeffs)

    def test_1d_noncontiguous_sets_match_brute_force(self, mesh):
        N = mesh.N
        f = self.dg_1d(mesh)
        for cells in ([1, 3, 4, N - 2, N], range(2, N + 1, 3), list(range(1, N + 1))):
            mask = mask_1d(cells, N)
            got = l2_error_region_1d(f, smooth_1d, mesh, mask, quad=self.QUAD)
            want = brute_l2_1d(f, smooth_1d, mesh, cells, self.QUAD)
            assert got == pytest.approx(want, rel=1e-12)
            got = linf_error_1d(f, smooth_1d, mesh, mask)
            assert got == pytest.approx(brute_linf_1d(f, smooth_1d, mesh, cells), rel=1e-12)
        everything = brute_linf_1d(f, smooth_1d, mesh, range(1, N + 1))
        assert linf_error_1d(f, smooth_1d, mesh) == pytest.approx(everything, rel=1e-12)

    def test_1d_empty_set_is_exactly_zero(self, mesh):
        f = self.dg_1d(mesh)
        none = np.zeros(mesh.N, dtype=bool)
        assert l2_error_region_1d(f, smooth_1d, mesh, none) == 0.0
        assert linf_error_1d(f, smooth_1d, mesh, none) == 0.0

    def test_cell_mask_must_be_boolean_of_mesh_shape(self, mesh):
        N = mesh.N
        f = self.dg_1d(mesh)
        mesh2d, f2 = self.dg_2d(mesh)
        # 1-based index lists, 0/1 integers, and booleans of the wrong shape
        for bad in ([1, 2], [0], [N + 1], [], np.ones(N, dtype=int),
                    np.ones(N + 1, dtype=bool), np.ones((N, 1), dtype=bool)):
            with pytest.raises(ConfigurationError):
                l2_error_region_1d(f, smooth_1d, mesh, bad)
            with pytest.raises(ConfigurationError):
                linf_error_1d(f, smooth_1d, mesh, bad)
        for bad in (np.ones(N, dtype=bool), np.ones((N, N), dtype=int),
                    np.ones((N, N + 1), dtype=bool), lambda i, j: True):
            with pytest.raises(ConfigurationError):
                l2_error_region_2d(f2, smooth_2d, mesh2d, bad)

    def test_2d_filters_match_brute_force(self, mesh):
        mesh2d, f = self.dg_2d(mesh)
        N = mesh.N
        q1, q3 = N // 4, 3 * N // 4
        for cell_filter in (
            lambda i, j: (i + 2 * j) % 3 == 0,
            lambda i, j: not (q1 + 1 <= i <= q3 and q1 + 1 <= j <= q3),
            lambda i, j: True,
        ):
            got = l2_error_region_2d(f, smooth_2d, mesh2d, mask_2d(cell_filter, N),
                                     quad=self.QUAD)
            want = brute_l2_2d(f, smooth_2d, mesh2d, cell_filter, self.QUAD)
            assert got == pytest.approx(want, rel=1e-12)
        assert l2_error_region_2d(f, smooth_2d, mesh2d, quad=self.QUAD) == got

    def test_cells_outside_the_mask_add_nothing(self, mesh):
        # exact is NaN on the coarse interior (centre block in 2D) only: the
        # layer (outside-centre) error is finite and equals that of the
        # smooth exact function
        N, layer = mesh.N, mesh.layer
        lo, hi = mesh.nodes[N // 4], mesh.nodes[3 * N // 4]

        def interior(x):
            return (lo < x) & (x < hi)

        def nan_1d(x):
            return np.where(interior(x), np.nan, smooth_1d(x))

        def nan_2d(x, y):
            return np.where(interior(x) & interior(y), np.nan, smooth_2d(x, y))

        f = self.dg_1d(mesh)
        got = l2_error_region_1d(f, nan_1d, mesh, layer, quad=self.QUAD)
        assert np.isfinite(got)
        assert got == l2_error_region_1d(f, smooth_1d, mesh, layer, quad=self.QUAD)
        mesh2d, f2 = self.dg_2d(mesh)
        outside_centre = layer[:, None] | layer[None, :]
        got = l2_error_region_2d(f2, nan_2d, mesh2d, outside_centre, quad=self.QUAD)
        assert np.isfinite(got)
        assert got == l2_error_region_2d(f2, smooth_2d, mesh2d, outside_centre, quad=self.QUAD)

    def test_2d_filter_rejecting_every_cell_is_exactly_zero(self, mesh):
        mesh2d, f = self.dg_2d(mesh)
        none = np.zeros((mesh.N, mesh.N), dtype=bool)
        assert l2_error_region_2d(f, smooth_2d, mesh2d, none) == 0.0


def variable_b(x, y):
    return 2.0 + 1.5 * np.sin(np.pi * np.asarray(x, dtype=float) * np.asarray(y, dtype=float))


class TestStripKernel2D:
    """``_sq_error_2d`` runs over strips of whole cell rows; how the rows are
    split into strips must not change the sum beyond rounding."""

    K, N, QUAD = 2, 12, 7

    @pytest.fixture
    def case(self):
        mesh2d = build_shishkin_2d(MeshConfig(N=self.N, eps=1e-6, sigma=3.0))
        coeffs = np.random.default_rng(71).standard_normal((self.N, self.K + 1, self.N,
                                                             self.K + 1))
        return mesh2d, DGFunction2D(mesh2d, self.K, coeffs)

    def strips_of(self, monkeypatch, rows):
        monkeypatch.setattr(basis, "BLOCK_POINTS", rows * self.N * self.QUAD**2)
        return [len(range(self.N)[s]) for s in basis.cell_blocks(self.N, self.N * self.QUAD**2)]

    def test_strip_size_does_not_change_the_sum(self, monkeypatch, case):
        mesh2d, f = case
        layer = mesh2d.axis.layer
        outside_centre = layer[:, None] | layer[None, :]

        def sums():
            error_rule = norms._error_rule(self.K, mesh2d.axis, self.QUAD)
            return (norms._sq_error_2d(f, smooth_2d, mesh2d, error_rule, weight=variable_b),
                    l2_error_region_2d(f, smooth_2d, mesh2d, outside_centre, quad=self.QUAD))

        assert self.strips_of(monkeypatch, self.N) == [self.N]
        whole = sums()
        # one-row strips, and 5-row strips with a partial last strip
        for rows, strips in ((1, [1] * self.N), (5, [5, 5, 2])):
            assert self.strips_of(monkeypatch, rows) == strips
            assert sums() == pytest.approx(whole, rel=1e-14, abs=0.0)

    def test_exact_is_sampled_once_per_strip_on_2d_arguments(self, monkeypatch, case):
        # (strip points, 1) x (1, N q): no 4-D broadcast with a q-long inner loop
        mesh2d, f = case
        shapes = []

        def exact(x, y):
            shapes.append((np.shape(x), np.shape(y)))
            return smooth_2d(x, y)

        strips = self.strips_of(monkeypatch, 5)
        l2_error_region_2d(f, exact, mesh2d, quad=self.QUAD)
        Nq = self.N * self.QUAD
        assert shapes == [((rows * self.QUAD, 1), (1, Nq)) for rows in strips]


def full_trace_jump_terms_2d(T, mesh2d):
    """The jump terms of ``norms._jump_terms_2d`` from the edge traces of
    every cell, of which only the boundary and interface lines are read."""
    k = T.U.degree
    wbar = 2.0 / (2.0 * np.arange(k + 1) + 1.0)
    h = 0.5 * np.diff(mesh2d.axis.nodes)
    J = mesh2d.axis.interface_index

    def edge_sq(coef_lines):
        return float(np.sum(h * (coef_lines**2 @ wbar)))

    bnd = (edge_sq(x_edge_trace(T.U, "left")[0]) + edge_sq(x_edge_trace(T.U, "right")[-1])
           + edge_sq(y_edge_trace(T.U, "bottom")[:, 0]) + edge_sq(y_edge_trace(T.U, "top")[:, -1]))
    Pjump = x_edge_trace(T.P, "right")[J - 1] - x_edge_trace(T.P, "left")[J]
    Qjump = y_edge_trace(T.Q, "top")[:, J - 1] - y_edge_trace(T.Q, "bottom")[:, J]
    return bnd, edge_sq(Pjump) + edge_sq(Qjump)


class TestJumpTerms2D:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_edge_lines_match_full_mesh_traces(self, k):
        N = 8
        mesh2d = build_shishkin_2d(MeshConfig(N=N, eps=1e-4, sigma=k + 1.0))
        rng = np.random.default_rng(80 + k)
        T = MixedSolution2D(*(DGFunction2D(mesh2d, k, c)
                              for c in rng.standard_normal((3, N, k + 1, N, k + 1))))
        got = norms._jump_terms_2d(T, mesh2d)
        assert got == pytest.approx(full_trace_jump_terms_2d(T, mesh2d), rel=1e-15, abs=0.0)


class TestLinfStrips1D:
    """``linf_error_1d`` runs over strips of the selected cells; the max does
    not depend on the evaluation order, so the strips change nothing."""

    K, N, EPS = 2, 16, 1e-8

    @pytest.fixture
    def case(self):
        mesh = build_shishkin_1d(MeshConfig(N=self.N, eps=self.EPS, sigma=3.0))
        coeffs = np.random.default_rng(23).standard_normal((self.N, self.K + 1))
        layer = mesh.layer
        masks = {"layer": layer, "coarse": ~layer, "all": None}
        return mesh, DGFunction1D(mesh, self.K, coeffs), paper_1d_problem(self.EPS), masks

    @staticmethod
    def strips_of(monkeypatch, cells, n):
        monkeypatch.setattr(basis, "BLOCK_POINTS", cells * norms._LINF_SAMPLES)
        return [len(range(n)[s]) for s in basis.cell_blocks(n, norms._LINF_SAMPLES)]

    def test_strip_size_does_not_change_the_max(self, monkeypatch, case):
        mesh, f, p, masks = case
        whole = {(name, m): linf_error_1d(f, h, mesh, mask)
                 for name, h in (("u", p.u_exact), ("q", p.q_exact))
                 for m, mask in masks.items()}
        assert self.strips_of(monkeypatch, self.N, self.N) == [self.N]
        # one-cell strips, and 3-cell strips with a partial last strip (8 layer or coarse cells)
        for cells, strips in ((1, [1] * 8), (3, [3, 3, 2])):
            assert self.strips_of(monkeypatch, cells, 8) == strips
            for name, h in (("u", p.u_exact), ("q", p.q_exact)):
                for m, mask in masks.items():
                    assert linf_error_1d(f, h, mesh, mask) == whole[name, m]
                    selected = np.flatnonzero(np.ones(self.N, bool) if mask is None else mask)
                    assert whole[name, m] == pytest.approx(
                        brute_linf_1d(f, h, mesh, selected + 1), rel=1e-12)
            assert linf_error_1d(f, p.u_exact, mesh, np.zeros(self.N, dtype=bool)) == 0.0

    def test_exact_is_sampled_once_per_strip(self, monkeypatch, case):
        mesh, f, p, masks = case
        shapes = []

        def exact(x):
            shapes.append(np.shape(x))
            return p.u_exact(x)

        for mask, strips in ((masks["all"], [3, 3, 3, 3, 3, 1]), (masks["layer"], [3, 3, 2])):
            self.strips_of(monkeypatch, 3, self.N)
            shapes.clear()
            linf_error_1d(f, exact, mesh, mask)
            assert shapes == [(cells, norms._LINF_SAMPLES) for cells in strips]

    def test_a_nan_in_any_strip_is_the_max(self, monkeypatch, case):
        mesh, f, p, _ = case
        self.strips_of(monkeypatch, 3, self.N)

        def nan_in_last_cell(x):
            return np.where(x > mesh.nodes[-2], np.nan, p.u_exact(x))

        assert np.isnan(linf_error_1d(f, nan_in_last_cell, mesh))

    @pytest.mark.parametrize("mask", ["layer", "coarse", "all"])
    def test_peak_memory_is_a_few_strips(self, mask):
        # 4096 cells x 40 samples: 1.25 MiB a full-size array, 10 strips
        mesh = build_shishkin_1d(MeshConfig(N=4096, eps=1e-8, sigma=3.0))
        f = DGFunction1D(mesh, 2, np.random.default_rng(4).standard_normal((4096, 3)))
        cells = {"layer": mesh.layer, "coarse": ~mesh.layer, "all": None}[mask]
        u = paper_1d_problem(1e-8).u_exact
        assert traced_peak(lambda: linf_error_1d(f, u, mesh, cells)) < 6 * basis.BLOCK_POINTS * 8
