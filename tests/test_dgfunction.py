import numpy as np
import pytest

from ldgshishkin import (
    ConfigurationError,
    DGFunction1D,
    DGFunction2D,
    MeshConfig,
    build_shishkin_1d,
    build_shishkin_2d,
    legendre_eval,
)
from reference import interpolate_1d, interpolate_2d, x_edge_trace


@pytest.fixture
def mesh():
    return build_shishkin_1d(MeshConfig(N=8, eps=1e-3, sigma=2.0))


@pytest.fixture
def mesh2():
    return build_shishkin_2d(MeshConfig(N=4, eps=1e-2, sigma=2.0))


class TestDGFunction1D:
    def test_shape_validation(self, mesh):
        with pytest.raises(ConfigurationError):
            DGFunction1D(mesh, 1, np.zeros((7, 2)))

    def test_evaluate_matches_modal_sum(self, mesh):
        rng = np.random.default_rng(3)
        f = DGFunction1D(mesh, 2, rng.standard_normal((8, 3)))
        x = 0.5 * (mesh.nodes[4] + mesh.nodes[5])  # centre of cell row 4
        t = 0.0
        expected = sum(
            f.coeffs[4, n] * legendre_eval(n, t)[0] for n in range(3)
        )
        assert f.evaluate(x)[0] == pytest.approx(float(expected), rel=1e-14)

    def test_traces_and_jumps(self, mesh):
        rng = np.random.default_rng(4)
        f = DGFunction1D(mesh, 2, rng.standard_normal((8, 3)))
        right = f.coeffs.sum(axis=1)
        left = f.coeffs @ np.array([1.0, -1.0, 1.0])
        assert np.allclose(f.right_traces(), right, atol=0)
        assert np.allclose(f.left_traces(), left, atol=0)

    def test_interpolation_is_continuous(self, mesh):
        w = lambda x: np.sin(np.pi * np.asarray(x)) * np.exp(np.asarray(x))
        f = interpolate_1d(w, mesh, 3)
        inner = f.right_traces()[:-1] - f.left_traces()[1:]
        assert np.max(np.abs(inner)) < 1e-12

    def test_interpolation_reproduces_polynomials(self, mesh):
        w = lambda x: 2.0 - np.asarray(x) + 3.0 * np.asarray(x) ** 2
        f = interpolate_1d(w, mesh, 2)
        xs = np.linspace(0, 1, 101)
        assert np.max(np.abs(f.evaluate(xs) - w(xs))) < 1e-13


class TestDGFunction2D:
    def test_shape_validation(self, mesh2):
        with pytest.raises(ConfigurationError):
            DGFunction2D(mesh2, 1, np.zeros((4, 4, 2, 3)))

    def test_evaluate_and_edge_traces(self, mesh2):
        rng = np.random.default_rng(5)
        f = DGFunction2D(mesh2, 1, rng.standard_normal((4, 4, 2, 2)))
        # trace coefficients on the right edge of cell (2,3): sum over x-modes
        tr = x_edge_trace(f, "right")[1, 2]
        assert np.allclose(tr, f.coeffs[1, 2].sum(axis=0), atol=0)
        tl = x_edge_trace(f, "left")[1, 2]
        assert np.allclose(tl, f.coeffs[1, 2, 0] - f.coeffs[1, 2, 1], atol=0)
        # point evaluation against the explicit bilinear form of cell (1,1)
        (ax, bx), (ay, by) = mesh2.cell(1, 1)
        xm, ym = 0.5 * (ax + bx), 0.5 * (ay + by)
        c = f.coeffs[0, 0]
        assert f.evaluate(xm, ym)[0] == pytest.approx(c[0, 0], rel=1e-13)

    def test_interpolation_2d_product(self, mesh2):
        w = lambda x, y: (1 + np.asarray(x)) * (2 - np.asarray(y))
        f = interpolate_2d(w, mesh2, 1)
        xs = np.linspace(0.01, 0.99, 9)
        vals = f.evaluate(xs[:, None], xs[None, :])
        assert np.max(np.abs(vals - w(xs[:, None], xs[None, :]))) < 1e-13
