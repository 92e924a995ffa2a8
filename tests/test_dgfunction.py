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
            DGFunction2D(mesh2, 1, np.zeros((4, 2, 4, 3)))
        # kron order (i, m, j, n): the cell-major (i, j, m, n) shape is refused
        with pytest.raises(ConfigurationError):
            DGFunction2D(mesh2, 1, np.zeros((4, 4, 2, 2)))
        assert DGFunction2D.zeros(mesh2, 1).coeffs.shape == (4, 2, 4, 2)

    def test_evaluate_and_edge_traces(self, mesh2):
        rng = np.random.default_rng(5)
        f = DGFunction2D(mesh2, 1, rng.standard_normal((4, 2, 4, 2)))
        c = f.coeffs[1, :, 2]  # the modes (x-mode, y-mode) of cell (2,3)
        # trace coefficients on the right edge of cell (2,3): sum over x-modes
        tr = x_edge_trace(f, "right")[1, 2]
        assert np.allclose(tr, c.sum(axis=0), atol=0)
        tl = x_edge_trace(f, "left")[1, 2]
        assert np.allclose(tl, c[0] - c[1], atol=0)
        # point evaluation against the explicit bilinear form of cell (2,3)
        # at reference point (t, s) = (0.5, -0.25)
        (ax, bx), (ay, by) = mesh2.cell(2, 3)
        x, y = ax + 0.75 * (bx - ax), ay + 0.375 * (by - ay)
        expected = c[0, 0] + 0.5 * c[1, 0] - 0.25 * c[0, 1] - 0.125 * c[1, 1]
        assert f.evaluate(x, y)[0] == pytest.approx(expected, rel=1e-13)

    def test_interpolation_2d_product(self, mesh2):
        w = lambda x, y: (1 + np.asarray(x)) * (2 - np.asarray(y))
        f = interpolate_2d(w, mesh2, 1)
        xs = np.linspace(0.01, 0.99, 9)
        vals = f.evaluate(xs[:, None], xs[None, :])
        assert np.max(np.abs(vals - w(xs[:, None], xs[None, :]))) < 1e-13
