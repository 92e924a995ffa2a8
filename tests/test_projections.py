from fractions import Fraction

import numpy as np
import pytest

from ldgshishkin import (
    ConfigurationError,
    MeshConfig,
    MeshError,
    ProjectionError,
    build_shishkin_1d,
    build_shishkin_2d,
    composite_project_minus_1d,
    composite_project_minus_2d,
    composite_project_plus_1d,
    composite_project_plus_x_2d,
    gauss_rule,
    l2_error_region_1d,
    legendre_eval,
    paper_1d_problem,
    project_gr_minus,
    project_gr_plus,
    project_l2,
    project_weighted,
    rate_shishkin,
    tensor_project_2d,
)
from ldgshishkin import basis
from ldgshishkin.projections import GR_MINUS, GR_PLUS, L2, WEIGHTED, _project_2d
from reference import composite_project_plus_y_2d


def eval_modal(coeffs, cell, x):
    a, b = cell
    t = 2.0 * (np.asarray(x, dtype=float) - a) / (b - a) - 1.0
    return sum(c * legendre_eval(n, t)[0] for n, c in enumerate(coeffs))


def l2_norm_on_cell(f, cell, npts=20):
    rule = gauss_rule(npts)
    a, b = cell
    xs = a + (b - a) * (rule.points + 1) / 2
    return np.sqrt((b - a) / 2 * np.sum(rule.weights * np.asarray(f(xs)) ** 2))


class TestLocalL2:
    def test_reproduces_linear(self):
        for cell in [(0.0, 1.0), (0.3, 0.9), (2.0, 5.0)]:
            c = project_l2(lambda x: x, cell, 2)
            xs = np.linspace(*cell, 7)
            assert np.max(np.abs(eval_modal(c, cell, xs) - xs)) < 1e-13

    def test_x_squared_by_hand(self):
        # pi(x^2) on [0,1] with k=1 is x - 1/6: modal (1/3, 1/2)
        c = project_l2(lambda x: x**2, (0.0, 1.0), 1)
        assert np.allclose(c, [1.0 / 3.0, 0.5], atol=1e-14)

    def test_zero(self):
        c = project_l2(lambda x: 0.0 * np.asarray(x), (0.0, 1.0), 3)
        assert np.array_equal(c, np.zeros(4))

    def test_k_plus_1_points_reproduce_the_space(self):
        # x^3 on [0, 1] is (1/4, 9/20, 1/4, 1/20) in the shifted Legendre modes
        c = project_l2(lambda x: x**3, (0.0, 1.0), 3, quad=4)
        assert np.allclose(c, [0.25, 0.45, 0.25, 0.05], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("k, quad", [(1, 1), (3, 3), (3, 1)])
    def test_fewer_than_k_plus_1_points_rejected(self, k, quad, mesh32):
        # quad <= k points miss the degree-2k mode products: no projection
        with pytest.raises(ConfigurationError, match=f">= {k + 1} quadrature points"):
            project_l2(lambda x: x**3, (0.0, 1.0), k, quad=quad)
        with pytest.raises(ConfigurationError, match=f">= {k + 1} quadrature points"):
            composite_project_plus_1d(np.cos, mesh32, k, quad=quad)


class TestWeighted:
    def test_unit_weight_equals_plain(self):
        w = lambda x: np.exp(x) * np.sin(3 * x)
        b1 = lambda x: np.ones_like(np.asarray(x, dtype=float))
        for k in (1, 2, 3):
            cw = project_weighted(w, b1, (0.2, 0.7), k)
            cl = project_l2(w, (0.2, 0.7), k)
            assert np.max(np.abs(cw - cl)) < 1e-13

    def test_reproduction(self):
        w = lambda x: 1.0 - 2.0 * x + 0.5 * x**2
        b = lambda x: 1.0 + x
        c = project_weighted(w, b, (0.0, 1.0), 2)
        xs = np.linspace(0, 1, 9)
        assert np.max(np.abs(eval_modal(c, (0.0, 1.0), xs) - w(xs))) < 1e-13

    def test_exact_rational_oracle(self):
        # Solve <(1+x)(a + c x - x^2), x^m> = 0, m = 0,1 in exact arithmetic.
        def integral_monomial(p):  # integral of x^p over [0,1]
            return Fraction(1, p + 1)

        # gram rows: [<b,1>,<bx,1>],[<bx,x>...]; with b = 1+x
        g00 = integral_monomial(0) + integral_monomial(1)
        g01 = integral_monomial(1) + integral_monomial(2)
        g11 = integral_monomial(2) + integral_monomial(3)
        r0 = integral_monomial(2) + integral_monomial(3)
        r1 = integral_monomial(3) + integral_monomial(4)
        det = g00 * g11 - g01 * g01
        a = (r0 * g11 - g01 * r1) / det
        c = (g00 * r1 - g01 * r0) / det
        assert a == Fraction(-5, 26)
        assert c == Fraction(68, 65)

        got = project_weighted(lambda x: x**2, lambda x: 1.0 + x, (0.0, 1.0), 1)
        xs = np.linspace(0, 1, 11)
        expected = float(a) + float(c) * xs
        assert np.max(np.abs(eval_modal(got, (0.0, 1.0), xs) - expected)) < 1e-13

    def test_degenerate_weight_raises(self):
        with pytest.raises(ProjectionError):
            project_weighted(lambda x: x, lambda x: 0.0 * np.asarray(x), (0.0, 1.0), 1)


class TestGaussRadau:
    def test_gr_minus_x_squared_by_hand(self):
        # k moments + right endpoint: -1/3 + 4x/3, modal (1/3, 2/3)
        c = project_gr_minus(lambda x: x**2, (0.0, 1.0), 1)
        assert np.allclose(c, [1.0 / 3.0, 2.0 / 3.0], atol=1e-14)

    def test_gr_plus_x_squared_postconditions(self):
        c = project_gr_plus(lambda x: x**2, (0.0, 1.0), 1)
        # endpoint match at the left end
        assert eval_modal(c, (0.0, 1.0), 0.0) == pytest.approx(0.0, abs=1e-14)
        # zeroth moment preserved
        rule = gauss_rule(6)
        xs = (rule.points + 1) / 2
        moment = 0.5 * np.sum(rule.weights * (eval_modal(c, (0.0, 1.0), xs) - xs**2))
        assert abs(moment) < 1e-14

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_reproduction(self, k):
        rng = np.random.default_rng(k)
        coeffs = rng.standard_normal(k + 1)
        w = lambda x: sum(c * x**n for n, c in enumerate(coeffs))
        cell = (0.25, 0.75)
        for proj in (project_gr_minus, project_gr_plus, project_l2):
            c = proj(w, cell, k)
            xs = np.linspace(*cell, 12)
            scale = np.max(np.abs(w(xs))) + 1.0
            assert np.max(np.abs(eval_modal(c, cell, xs) - w(xs))) < 1e-12 * scale

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_endpoint_interpolation(self, k):
        w = lambda x: np.sin(2.3 * x) + np.exp(-x)
        cell = (0.1, 0.45)
        cm = project_gr_minus(w, cell, k)
        assert eval_modal(cm, cell, cell[1]) == pytest.approx(float(w(cell[1])), abs=1e-12)
        cp = project_gr_plus(w, cell, k)
        assert eval_modal(cp, cell, cell[0]) == pytest.approx(float(w(cell[0])), abs=1e-12)


class TestStabilityAndApproximation:
    def test_observed_stability_constants(self):
        # ||R w|| <= 5 ||w|| for the L2-type projections and the Radau bound
        # with the endpoint-value correction, over 100 random smooth samples
        rng = np.random.default_rng(42)
        b = lambda x: 1.0 + np.asarray(x, dtype=float) ** 2
        for _ in range(100):
            a = rng.uniform(0.0, 0.8)
            h = rng.uniform(0.05, 0.2)
            cell = (a, a + h)
            amp = rng.standard_normal(3)
            om = rng.uniform(0.5, 6.0)
            w = lambda x: (amp[0] + amp[1] * np.sin(om * np.asarray(x))
                           + amp[2] * np.cos(0.7 * om * np.asarray(x)))
            k = int(rng.integers(1, 4))
            norm_w = l2_norm_on_cell(w, cell)
            for proj in (project_l2,):
                c = proj(w, cell, k)
                assert l2_norm_on_cell(lambda x: eval_modal(c, cell, x), cell) <= 5 * norm_w + 1e-14
            c = project_weighted(w, b, cell, k)
            assert l2_norm_on_cell(lambda x: eval_modal(c, cell, x), cell) <= 5 * norm_w + 1e-14
            cm = project_gr_minus(w, cell, k)
            bound = 5 * (norm_w + np.sqrt(h) * abs(float(w(cell[1])))) + 1e-14
            assert l2_norm_on_cell(lambda x: eval_modal(cm, cell, x), cell) <= bound
            cp = project_gr_plus(w, cell, k)
            bound = 5 * (norm_w + np.sqrt(h) * abs(float(w(cell[0])))) + 1e-14
            assert l2_norm_on_cell(lambda x: eval_modal(cp, cell, x), cell) <= bound

    @pytest.mark.parametrize("k", [1, 2])
    def test_approximation_order_l2_and_sup(self, k):
        # halving h divides the error by about 2^(k+1) in both norms;
        # exp has no vanishing derivatives to skew the observed order
        w = lambda x: np.exp(2.0 * np.asarray(x))
        errs_l2, errs_sup = [], []
        for h in (0.2, 0.1):
            cell = (0.3, 0.3 + h)
            c = project_gr_minus(w, cell, k, quad=12)
            xs = np.linspace(*cell, 200)
            diff = lambda x: eval_modal(c, cell, x) - w(x)
            errs_l2.append(l2_norm_on_cell(diff, cell, 24))
            errs_sup.append(np.max(np.abs(diff(xs))))
        for errs in (errs_l2, errs_sup):
            order = np.log2(errs[0] / errs[1])
            assert order > k + 1 - 0.35


@pytest.fixture
def mesh32():
    return build_shishkin_1d(MeshConfig(N=32, eps=1e-6, sigma=2.0))


class TestComposite1D:
    def test_polynomial_reproduction(self, mesh32):
        k = 2
        u = lambda x: 1.0 - np.asarray(x) + np.asarray(x) ** 2
        b = lambda x: np.ones_like(np.asarray(x, dtype=float))
        pu = composite_project_minus_1d(u, mesh32, k, b=b)
        pq = composite_project_plus_1d(u, mesh32, k)
        xs = np.linspace(0, 1, 301)
        assert np.max(np.abs(pu.evaluate(xs) - u(xs))) < 1e-12
        assert np.max(np.abs(pq.evaluate(xs) - u(xs))) < 1e-12

    def test_region_dispatch(self, mesh32):
        # cell N/4 must agree with the Radau-minus projection, cell N/4+1
        # with the weighted projection; cell 1 of the plus-composite with
        # the plain projection and cell 2 with Radau-plus
        k = 1
        N = mesh32.N
        u = lambda x: np.exp(np.asarray(x)) * np.cos(3 * np.asarray(x))
        b = lambda x: 1.0 + np.asarray(x, dtype=float)
        pu = composite_project_minus_1d(u, mesh32, k, b=b)
        assert np.allclose(
            pu.coeffs[N // 4 - 1], project_gr_minus(u, mesh32.cell(N // 4), k), atol=1e-14
        )
        assert np.allclose(
            pu.coeffs[N // 4], project_weighted(u, b, mesh32.cell(N // 4 + 1), k), atol=1e-14
        )
        pq = composite_project_plus_1d(u, mesh32, k)
        assert np.allclose(pq.coeffs[0], project_l2(u, mesh32.cell(1), k), atol=1e-14)
        assert np.allclose(pq.coeffs[1], project_gr_plus(u, mesh32.cell(2), k), atol=1e-14)

    def test_degree_zero(self, mesh32):
        # k = 0: L2 gives the cell mean, Radau-minus (plus) the value at the
        # right (left) node, and the composites and traces follow
        w = lambda x: np.asarray(x) ** 2 + np.asarray(x)
        W = lambda x: np.asarray(x) ** 3 / 3.0 + np.asarray(x) ** 2 / 2.0
        nodes, layer = mesh32.nodes, mesh32.layer
        means = (W(nodes[1:]) - W(nodes[:-1])) / mesh32.widths
        cell = (0.2, 0.5)
        assert project_l2(w, cell, 0) == pytest.approx([(W(0.5) - W(0.2)) / 0.3], rel=1e-14)
        assert np.array_equal(project_gr_minus(w, cell, 0), [w(0.5)])
        assert np.array_equal(project_gr_plus(w, cell, 0), [w(0.2)])
        pu = composite_project_minus_1d(w, mesh32, 0)
        assert np.array_equal(pu.coeffs[layer, 0], w(nodes[1:][layer]))
        assert np.allclose(pu.coeffs[~layer, 0], means[~layer], rtol=1e-13, atol=0)
        pq = composite_project_plus_1d(w, mesh32, 0)
        assert np.array_equal(pq.coeffs[1:, 0], w(nodes[1:-1]))
        assert pq.coeffs[0, 0] == pytest.approx(means[0], rel=1e-13)
        assert np.array_equal(pq.left_traces(), pq.coeffs[:, 0])
        assert np.array_equal(pq.right_traces(), pq.coeffs[:, 0])

    def test_layer_region_rate(self):
        # layer-region error of the minus-composite decays at order k+1 in
        # the Shishkin metric (checked at the final doubling)
        k, eps = 1, 1e-6
        p = paper_1d_problem(eps)
        errs = {}
        for N in (128, 256, 512):
            mesh = build_shishkin_1d(MeshConfig(N=N, eps=eps, sigma=k + 1.0))
            pu = composite_project_minus_1d(p.u_exact, mesh, k, b=p.b)
            errs[N] = l2_error_region_1d(pu, p.u_exact, mesh, mesh.layer)
        assert rate_shishkin(errs[256], errs[512], 256) >= k + 0.9

    def test_flux_projection_scaled_rate(self):
        k, eps = 1, 1e-6
        p = paper_1d_problem(eps)
        errs = {}
        for N in (128, 256, 512):
            mesh = build_shishkin_1d(MeshConfig(N=N, eps=eps, sigma=k + 1.0))
            pq = composite_project_plus_1d(p.q_exact, mesh, k)
            errs[N] = eps**-0.75 * l2_error_region_1d(pq, p.q_exact, mesh)
        assert rate_shishkin(errs[256], errs[512], 256) >= k + 0.9


class TestTensor2D:
    CELL = ((0.0, 1.0), (0.0, 1.0))

    def test_reproduces_bilinear(self):
        z = lambda x, y: np.asarray(x) * np.asarray(y)
        for kx in (L2, GR_MINUS, GR_PLUS):
            for ky in (L2, GR_MINUS, GR_PLUS):
                c = tensor_project_2d(kx, ky, z, self.CELL, 1)
                # xy = P1(t) P1(s) scaled: modal coefficient pattern
                xs = np.linspace(0, 1, 5)
                vals = np.array([
                    [sum(c[m, n] * legendre_eval(m, 2 * x - 1)[0] * legendre_eval(n, 2 * y - 1)[0]
                         for m in range(2) for n in range(2)) for y in xs] for x in xs
                ])
                assert np.max(np.abs(vals - xs[:, None] * xs[None, :])) < 1e-13

    def test_separable_equals_outer_product(self):
        g = lambda s: np.exp(np.asarray(s))
        h = lambda s: np.cos(2 * np.asarray(s))
        z = lambda x, y: g(x) * h(y)
        k = 2
        c2 = tensor_project_2d(GR_MINUS, L2, z, self.CELL, k)
        cx = project_gr_minus(g, self.CELL[0], k)
        cy = project_l2(h, self.CELL[1], k)
        assert np.max(np.abs(c2 - np.outer(cx, cy))) < 1e-12

    def test_x2y_example(self):
        # x-factor follows the 1D Radau-minus result -1/3 + 4x/3, y passes through
        z = lambda x, y: np.asarray(x) ** 2 * np.asarray(y)
        c = tensor_project_2d(GR_MINUS, L2, z, self.CELL, 1)
        xs = np.linspace(0, 1, 7)
        for y in (0.0, 0.5, 1.0):
            vals = np.array([
                sum(c[m, n] * legendre_eval(m, 2 * x - 1)[0] * legendre_eval(n, 2 * y - 1)[0]
                    for m in range(2) for n in range(2)) for x in xs
            ])
            expected = (-1.0 / 3.0 + 4.0 * xs / 3.0) * y
            assert np.max(np.abs(vals - expected)) < 1e-13

    def test_weighted_needs_both_directions_and_handle(self):
        z = lambda x, y: np.asarray(x) + np.asarray(y)
        with pytest.raises(ConfigurationError):
            tensor_project_2d(WEIGHTED, L2, z, self.CELL, 1)
        with pytest.raises(ConfigurationError):
            tensor_project_2d(WEIGHTED, WEIGHTED, z, self.CELL, 1)

    def test_unknown_kind_rejected(self):
        z = lambda x, y: np.asarray(x) + np.asarray(y)
        for kinds in (("l2", L2), (L2, 4), (-1, GR_PLUS)):
            with pytest.raises(ConfigurationError):
                tensor_project_2d(*kinds, z, self.CELL, 1)

    def test_weighted_reproduction(self):
        b = lambda x, y: 1.0 + np.asarray(x) * np.asarray(y)
        z = lambda x, y: 2.0 * np.asarray(x) - np.asarray(y)
        c = tensor_project_2d(WEIGHTED, WEIGHTED, z, self.CELL, 1, b=b)
        xs = np.linspace(0, 1, 5)
        vals = np.array([
            [sum(c[m, n] * legendre_eval(m, 2 * x - 1)[0] * legendre_eval(n, 2 * y - 1)[0]
                 for m in range(2) for n in range(2)) for y in xs] for x in xs
        ])
        assert np.max(np.abs(vals - (2 * xs[:, None] - xs[None, :]))) < 1e-12


class TestComposite2D:
    @pytest.fixture
    def mesh2(self):
        return build_shishkin_2d(MeshConfig(N=8, eps=1e-4, sigma=2.0))

    def test_reproduction(self, mesh2):
        k = 1
        u = lambda x, y: (1 + np.asarray(x)) * (2 - np.asarray(y))
        b = lambda x, y: 2.0 + 0.0 * (np.asarray(x) + np.asarray(y))
        pu = composite_project_minus_2d(u, mesh2, k, b=b)
        pp = composite_project_plus_x_2d(u, mesh2, k)
        pq = composite_project_plus_y_2d(u, mesh2, k)
        xs = np.linspace(0.01, 0.99, 9)
        for f in (pu, pp, pq):
            vals = f.evaluate(xs[:, None], xs[None, :])
            assert np.max(np.abs(vals - u(xs[:, None], xs[None, :]))) < 1e-12

    def test_dispatch_spot_checks(self, mesh2):
        k = 1
        N = mesh2.N
        u = lambda x, y: np.exp(np.asarray(x)) * np.cos(np.asarray(y))
        b = lambda x, y: 2.0 + 0.0 * (np.asarray(x) + np.asarray(y))
        pu = composite_project_minus_2d(u, mesh2, k, b=b)
        # (i, j) = (1, N/2): left layer strip, coarse j band -> Radau-minus in x
        direct = tensor_project_2d(GR_MINUS, L2, u, mesh2.cell(1, N // 2), k)
        assert np.max(np.abs(pu.coeffs[0, :, N // 2 - 1] - direct)) < 1e-14
        # (i, j) = (N/2, 1): bottom strip -> Radau-minus in y
        direct = tensor_project_2d(L2, GR_MINUS, u, mesh2.cell(N // 2, 1), k)
        assert np.max(np.abs(pu.coeffs[N // 2 - 1, :, 0] - direct)) < 1e-14
        # corner (1, 1) -> weighted
        direct = tensor_project_2d(WEIGHTED, WEIGHTED, u, mesh2.cell(1, 1), k, b=b)
        assert np.max(np.abs(pu.coeffs[0, :, 0] - direct)) < 1e-14
        # i = N strip with coarse j uses the weighted projection (as printed)
        direct = tensor_project_2d(WEIGHTED, WEIGHTED, u, mesh2.cell(N, N // 2), k, b=b)
        assert np.max(np.abs(pu.coeffs[N - 1, :, N // 2 - 1] - direct)) < 1e-14
        # plus-composites: first column/row plain, elsewhere Radau-plus
        pp = composite_project_plus_x_2d(u, mesh2, k)
        direct = tensor_project_2d(L2, L2, u, mesh2.cell(1, 3), k)
        assert np.max(np.abs(pp.coeffs[0, :, 2] - direct)) < 1e-14
        direct = tensor_project_2d(GR_PLUS, L2, u, mesh2.cell(2, 3), k)
        assert np.max(np.abs(pp.coeffs[1, :, 2] - direct)) < 1e-14

    def test_layer_rate_outside_centre_block(self):
        # scaled projection error outside the centre block converges at
        # order k+1 in the Shishkin metric (observed >= k + 0.9)
        from ldgshishkin import l2_error_region_2d, manufactured_2d_problem, rate_shishkin

        eps, k = 1e-6, 1
        p = manufactured_2d_problem(eps)
        errs = {}
        for N in (64, 128):
            mesh = build_shishkin_2d(MeshConfig(N=N, eps=eps, sigma=k + 1.0))
            proj = composite_project_minus_2d(p.u_exact, mesh, k, b=p.b)
            layer = mesh.axis.layer
            outside = layer[:, None] | layer[None, :]
            errs[N] = eps**-0.25 * l2_error_region_2d(proj, p.u_exact, mesh, outside)
        assert rate_shishkin(errs[64], errs[128], 64) >= k + 0.9


# Independent oracle for the defining properties: numpy's own Gauss rule
# (24 points) and Legendre tables, applied to the residual r = z - Pi z on
# every cell.  The projections run with a 16-point rule so that their own
# quadrature error on these smooth targets sits far below the tolerance.
ORACLE_T, ORACLE_W = np.polynomial.legendre.leggauss(24)
PROJ_QUAD = 16
TOL = 1e-12


def z1(x):
    x = np.asarray(x, dtype=float)
    return np.exp(x) * np.cos(3.0 * x) + x**2


def b1(x):
    return 1.0 + np.asarray(x, dtype=float) ** 2


def z2(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return np.exp(x - y) * np.cos(2.0 * x + y) + x * y**2


def b2(x, y):
    return 2.5 + 0.5 * np.sin(3.0 * np.asarray(x) + 2.0 * np.asarray(y))


def oracle_points(nodes):
    a, c = nodes[:-1, None], nodes[1:, None]
    return a + (c - a) * (ORACLE_T + 1.0) / 2.0


def residual_data_1d(z, nodes, coeffs, b=None):
    """Reference moments of r (b-weighted when b is given) against
    P_0..P_k per cell, and r at the left and right node of every cell."""
    k = coeffs.shape[1] - 1
    P = np.polynomial.legendre.legvander(ORACLE_T, k)
    x = oracle_points(nodes)
    r = z(x) - coeffs @ P.T
    weight = ORACLE_W if b is None else ORACLE_W * b(x)
    mom = 0.5 * (weight * r) @ P
    r_left = z(nodes[:-1]) - coeffs @ (-1.0) ** np.arange(k + 1)
    r_right = z(nodes[1:]) - coeffs.sum(axis=1)
    return mom, r_left, r_right


def check_properties_1d(z, nodes, coeffs, kinds, b=None):
    k = coeffs.shape[1] - 1
    mom, r_left, r_right = residual_data_1d(z, nodes, coeffs)
    radau = np.isin(kinds, [GR_MINUS, GR_PLUS])
    plain = (kinds == L2) | ((kinds == WEIGHTED) & (b is None))
    assert np.max(np.abs(mom[radau, :k]), initial=0.0) < TOL
    assert np.max(np.abs(mom[plain]), initial=0.0) < TOL
    assert np.max(np.abs(r_right[kinds == GR_MINUS]), initial=0.0) < TOL
    assert np.max(np.abs(r_left[kinds == GR_PLUS]), initial=0.0) < TOL
    if b is not None:
        bmom, _, _ = residual_data_1d(z, nodes, coeffs, b)
        assert np.max(np.abs(bmom[kinds == WEIGHTED]), initial=0.0) < TOL


def residual_data_2d(z, xnodes, ynodes, coeffs, b=None):
    """Reference moments of r per cell (b-weighted when b is given), the
    y-moments of r on the left/right edges, the x-moments on the
    bottom/top edges, and r at the four corners."""
    k = coeffs.shape[-1] - 1
    P = np.polynomial.legendre.legvander(ORACLE_T, k)
    left = (-1.0) ** np.arange(k + 1)
    x, y = oracle_points(xnodes), oracle_points(ynodes)
    X, Y = x[:, None, :, None], y[None, :, None, :]
    r = z(X, Y) - np.einsum("gm,imjn,hn->ijgh", P, coeffs, P)
    weight = np.outer(ORACLE_W, ORACLE_W) * (1.0 if b is None else b(X, Y))
    mom = 0.25 * np.einsum("ijgh,gm,hn->ijmn", weight * r, P, P)
    edge_x, edge_y, corner = {}, {}, {}
    for side, e, xs in (("minus", np.ones(k + 1), xnodes[1:]), ("plus", left, xnodes[:-1])):
        trace = np.einsum("m,imjn,hn->ijh", e, coeffs, P)
        rx = z(xs[:, None, None], y[None, :, :]) - trace
        edge_x[side] = 0.5 * np.einsum("ijh,h,hn->ijn", rx, ORACLE_W, P)
    for side, e, ys in (("minus", np.ones(k + 1), ynodes[1:]), ("plus", left, ynodes[:-1])):
        trace = np.einsum("n,imjn,gm->ijg", e, coeffs, P)
        ry = z(x[:, None, :], ys[None, :, None]) - trace
        edge_y[side] = 0.5 * np.einsum("ijg,g,gm->ijm", ry, ORACLE_W, P)
    for sx, ex, xs in (("minus", np.ones(k + 1), xnodes[1:]), ("plus", left, xnodes[:-1])):
        for sy, ey, ys in (("minus", np.ones(k + 1), ynodes[1:]), ("plus", left, ynodes[:-1])):
            value = np.einsum("m,imjn,n->ij", ex, coeffs, ey)
            corner[sx, sy] = z(xs[:, None], ys[None, :]) - value
    return mom, edge_x, edge_y, corner


def check_properties_2d(z, xnodes, ynodes, coeffs, kx, ky, b=None):
    """Every condition that defines the cell's projection holds to TOL."""
    k = coeffs.shape[-1] - 1
    mom, edge_x, edge_y, corner = residual_data_2d(z, xnodes, ynodes, coeffs)
    side = {GR_MINUS: "minus", GR_PLUS: "plus"}
    # test space per axis: degree k, or degree k-1 on a Radau axis
    rows = np.where(np.isin(kx, list(side))[..., None], np.arange(k + 1) < k, True)
    cols = np.where(np.isin(ky, list(side))[..., None], np.arange(k + 1) < k, True)
    moment_cells = ~((kx == WEIGHTED) & (b is not None))
    test = rows[..., :, None] & cols[..., None, :] & moment_cells[..., None, None]
    assert np.max(np.abs(mom[test]), initial=0.0) < TOL
    for kind, s in side.items():
        assert np.max(np.abs(edge_x[s][(kx == kind)[..., None] & cols]), initial=0.0) < TOL
        assert np.max(np.abs(edge_y[s][(ky == kind)[..., None] & rows]), initial=0.0) < TOL
        for kind_y, s_y in side.items():
            both = (kx == kind) & (ky == kind_y)
            assert np.max(np.abs(corner[s, s_y][both]), initial=0.0) < TOL
    if b is not None:
        bmom, _, _, _ = residual_data_2d(z, xnodes, ynodes, coeffs, b)
        assert np.max(np.abs(bmom[kx == WEIGHTED]), initial=0.0) < TOL


def minus_kinds_2d(N):
    """The documented dispatch of the 2D minus-composite, cell by cell."""
    q1, q3 = N // 4, 3 * N // 4
    kx = np.full((N, N), WEIGHTED)
    ky = np.full((N, N), WEIGHTED)
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            x_strip = i <= q1 or q3 + 1 <= i <= N - 1
            y_strip = j <= q1 or q3 + 1 <= j <= N - 1
            if x_strip and q1 + 1 <= j <= q3:
                kx[i - 1, j - 1], ky[i - 1, j - 1] = GR_MINUS, L2
            elif y_strip and q1 + 1 <= i <= q3:
                kx[i - 1, j - 1], ky[i - 1, j - 1] = L2, GR_MINUS
    return kx, ky


GRID = [
    pytest.param(N, eps, k, id=f"N{N}-eps{eps:g}-k{k}")
    for N in (8, 16) for eps in (1e-2, 1e-8) for k in (1, 2, 3)
]


class TestDefiningPropertiesOnEveryCell:
    def test_oracle_grid_includes_clamped_meshes(self):
        assert build_shishkin_1d(MeshConfig(N=16, eps=1e-2, sigma=2.0)).clamped
        assert not build_shishkin_1d(MeshConfig(N=8, eps=1e-8, sigma=2.0)).clamped

    @pytest.mark.parametrize("N, eps, k", GRID)
    def test_composites_1d(self, N, eps, k):
        mesh = build_shishkin_1d(MeshConfig(N=N, eps=eps, sigma=k + 1.0))
        i = np.arange(1, N + 1)
        minus = np.where((i <= N // 4) | (i > 3 * N // 4), GR_MINUS, WEIGHTED)
        for b in (b1, None):
            pu = composite_project_minus_1d(z1, mesh, k, quad=PROJ_QUAD, b=b)
            check_properties_1d(z1, mesh.nodes, pu.coeffs, minus, b)
        pq = composite_project_plus_1d(z1, mesh, k, quad=PROJ_QUAD)
        check_properties_1d(z1, mesh.nodes, pq.coeffs, np.where(i == 1, L2, GR_PLUS))

    @pytest.mark.parametrize("N, eps, k", GRID)
    def test_composites_2d(self, N, eps, k):
        mesh = build_shishkin_2d(MeshConfig(N=N, eps=eps, sigma=k + 1.0))
        nodes = mesh.axis.nodes
        kx, ky = minus_kinds_2d(N)
        for b in (b2, None):
            pu = composite_project_minus_2d(z2, mesh, k, quad=PROJ_QUAD, b=b)
            check_properties_2d(z2, nodes, nodes, pu.coeffs, kx, ky, b)
        first = np.arange(1, N + 1) == 1
        plus = np.where(first, L2, GR_PLUS)
        plain = np.full((N, N), L2)
        pp = composite_project_plus_x_2d(z2, mesh, k, quad=PROJ_QUAD)
        check_properties_2d(z2, nodes, nodes, pp.coeffs, np.repeat(plus[:, None], N, 1), plain)
        pq = composite_project_plus_y_2d(z2, mesh, k, quad=PROJ_QUAD)
        check_properties_2d(z2, nodes, nodes, pq.coeffs, plain, np.repeat(plus[None, :], N, 0))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_one_cell_projections(self, k):
        xnodes, ynodes = np.array([0.1, 0.35]), np.array([0.6, 0.72])
        for kind_x in (L2, GR_MINUS, GR_PLUS):
            for kind_y in (L2, GR_MINUS, GR_PLUS):
                c = tensor_project_2d(kind_x, kind_y, z2, (xnodes, ynodes), k, quad=PROJ_QUAD)
                kinds = (np.array([[kind_x]]), np.array([[kind_y]]))
                check_properties_2d(z2, xnodes, ynodes, c[None, :, None], *kinds)
        c = tensor_project_2d(WEIGHTED, WEIGHTED, z2, (xnodes, ynodes), k, quad=PROJ_QUAD, b=b2)
        weighted = np.array([[WEIGHTED]])
        check_properties_2d(z2, xnodes, ynodes, c[None, :, None], weighted, weighted, b2)
        for kind, proj in ((L2, project_l2), (GR_MINUS, project_gr_minus),
                           (GR_PLUS, project_gr_plus)):
            c = proj(z1, tuple(xnodes), k, quad=PROJ_QUAD)
            check_properties_1d(z1, xnodes, c[None], np.array([kind]))
        c = project_weighted(z1, b1, tuple(xnodes), k, quad=PROJ_QUAD)
        check_properties_1d(z1, xnodes, c[None], np.array([WEIGHTED]), b1)


class TestStrips2D:
    """``_project_2d`` runs over strips of whole cell rows of the tensor grid;
    how the rows are split into strips must not change the coefficients,
    and z and b are sampled once a strip on 2-D arguments."""

    K, N, QUAD = 2, 12, 5

    @pytest.fixture
    def mesh(self):
        return build_shishkin_2d(MeshConfig(N=self.N, eps=1e-6, sigma=3.0))

    def strips_of(self, monkeypatch, rows):
        # a cell row samples QUAD + 1 lines (its points, a node) of N QUAD + N + 1 points
        row = (self.QUAD + 1) * (self.N * self.QUAD + self.N + 1)
        monkeypatch.setattr(basis, "BLOCK_POINTS", rows * row)
        return [len(range(self.N)[s]) for s in basis.cell_blocks(self.N, row)]

    def test_strip_size_does_not_change_the_coefficients(self, monkeypatch, mesh):
        def composites():
            return (composite_project_minus_2d(z2, mesh, self.K, quad=self.QUAD, b=b2),
                    composite_project_plus_x_2d(z2, mesh, self.K, quad=self.QUAD),
                    composite_project_plus_y_2d(z2, mesh, self.K, quad=self.QUAD))

        assert self.strips_of(monkeypatch, self.N) == [self.N]
        whole = composites()
        # one-row strips, and 5-row strips with a partial last strip
        for rows, strips in ((1, [1] * self.N), (5, [5, 5, 2])):
            assert self.strips_of(monkeypatch, rows) == strips
            for f, g in zip(composites(), whole):
                assert np.max(np.abs(f.coeffs - g.coeffs)) <= 1e-15 * np.max(np.abs(g.coeffs))

    def test_z_and_b_are_sampled_once_per_strip_on_2d_arguments(self, monkeypatch, mesh):
        # (strip rows, 1) x (1, columns): no 4-D broadcast with a q-long inner loop
        shapes = {"z": [], "b": []}

        def recorded(name, f):
            def sampled(x, y):
                shapes[name].append((np.shape(x), np.shape(y)))
                return f(x, y)
            return sampled

        strips = self.strips_of(monkeypatch, 5)
        N, q, nodes = self.N, self.QUAD, mesh.axis.nodes
        kx = np.full((N, N), L2)
        kx[5:10, 3:7] = WEIGHTED  # weighted cells in the middle strip only
        _project_2d(recorded("z", z2), nodes, nodes, kx, kx.copy(), self.K, q, recorded("b", b2))
        assert shapes["z"] == [((rows * q + rows + 1, 1), (1, N * q + N + 1)) for rows in strips]
        assert shapes["b"] == [((5 * q, 1), (1, N * q))]
        shapes["b"].clear()
        composite_project_minus_2d(z2, mesh, self.K, quad=q, b=recorded("b", b2))
        assert shapes["b"] == [((rows * q, 1), (1, N * q)) for rows in strips]

    @pytest.mark.parametrize("rows", [None, 1], ids=["one-strip", "one-row-strips"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_kind_pair_matches_its_one_cell_projection(self, monkeypatch, k, rows):
        # every non-weighted pair (GR_PLUS in y included) and weighted cells,
        # shuffled over a non-uniform 4 x 3 grid: guards the matched-node reads
        pairs = [(kind_x, kind_y) for kind_x in (L2, GR_MINUS, GR_PLUS)
                 for kind_y in (L2, GR_MINUS, GR_PLUS)] + [(WEIGHTED, WEIGHTED)] * 3
        order = np.random.default_rng(23).permutation(len(pairs))
        kx, ky = (np.array([pairs[p][axis] for p in order]).reshape(4, 3) for axis in (0, 1))
        xnodes, ynodes = np.array([0.0, 0.1, 0.25, 0.6, 1.0]), np.array([-0.5, -0.3, 0.2, 0.35])
        if rows is not None:
            monkeypatch.setattr(basis, "BLOCK_POINTS", rows * (PROJ_QUAD + 1) * (3 * PROJ_QUAD + 4))
        c = _project_2d(z2, xnodes, ynodes, kx, ky, k, PROJ_QUAD, b2)
        check_properties_2d(z2, xnodes, ynodes, c, kx, ky, b2)
        for i, j in np.ndindex(kx.shape):
            cell = ((xnodes[i], xnodes[i + 1]), (ynodes[j], ynodes[j + 1]))
            direct = tensor_project_2d(kx[i, j], ky[i, j], z2, cell, k, quad=PROJ_QUAD, b=b2)
            assert np.max(np.abs(c[i, :, j] - direct)) <= 1e-14 * np.max(np.abs(direct))


def vanishing_on(cell, inside, outside):
    """A weight equal to ``inside`` on the closed cell and ``outside`` elsewhere."""
    a, c = cell

    def b(x, *rest):
        x = np.asarray(x, dtype=float)
        hit = (a <= x) & (x <= c)
        for y in rest:
            hit = hit & (a <= np.asarray(y)) & (np.asarray(y) <= c)
        return np.where(hit, inside, outside)

    return b


class TestDegenerateCells:
    @pytest.mark.parametrize("cell", [(0.5, 0.2), (0.3, 0.3)], ids=["reversed", "zero-width"])
    def test_one_cell_projections_raise_mesh_error(self, cell):
        w = lambda x: np.asarray(x, dtype=float)
        for project in (
            lambda: project_l2(w, cell, 1),
            lambda: project_weighted(w, lambda x: 1.0 + w(x), cell, 1),
            lambda: project_gr_minus(w, cell, 1),
            lambda: project_gr_plus(w, cell, 1),
            lambda: tensor_project_2d(L2, GR_MINUS, lambda x, y: w(x) * w(y), (cell, (0.0, 1.0)), 1),
            lambda: tensor_project_2d(GR_PLUS, L2, lambda x, y: w(x) * w(y), ((0.0, 1.0), cell), 1),
        ):
            with pytest.raises(MeshError):
                project()


class TestFailuresSurviveBatching:
    @pytest.mark.parametrize("inside", [0.0, np.nan])
    def test_minus_1d_raises_projection_error(self, inside):
        mesh = build_shishkin_1d(MeshConfig(N=16, eps=1e-6, sigma=2.0))
        b = vanishing_on(mesh.cell(8), inside, 1.0)
        with pytest.raises(ProjectionError):
            composite_project_minus_1d(z1, mesh, 2, b=b)

    @pytest.mark.parametrize("inside", [0.0, np.nan])
    def test_minus_2d_raises_projection_error(self, inside):
        mesh = build_shishkin_2d(MeshConfig(N=16, eps=1e-6, sigma=2.0))
        b = vanishing_on(mesh.axis.cell(8), inside, 2.0)
        with pytest.raises(ProjectionError):
            composite_project_minus_2d(z2, mesh, 1, b=b)

    def test_projection_study_records_the_failed_row(self, monkeypatch):
        from types import SimpleNamespace

        from ldgshishkin import SweepConfig, harness, run_projection_study

        N, eps, k = 16, 1e-6, 1
        cfg = SweepConfig(problem="paper1d", k_list=(k,), n_list=(N,), eps_list=(eps,))
        mesh = build_shishkin_1d(MeshConfig(N=N, eps=eps, sigma=cfg.sigma_for(k)))
        p = paper_1d_problem(eps)
        broken = SimpleNamespace(has_exact=True, beta=p.beta, u_exact=p.u_exact,
                                 q_exact=p.q_exact, b=vanishing_on(mesh.cell(N // 2), 0.0, 1.0))
        monkeypatch.setattr(harness, "problem_by_key", lambda *args: broken)
        table = run_projection_study(cfg)
        (row,) = table.rows
        assert row.failed
        assert row.message.startswith("ProjectionError")
        assert row.err_energy is None
