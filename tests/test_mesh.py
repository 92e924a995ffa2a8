import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldgshishkin import ConfigurationError, MeshConfig, build_shishkin_1d, build_shishkin_2d


def cfg(N=32, eps=1e-4, sigma=2.0, beta=1.0):
    return MeshConfig(N=N, eps=eps, sigma=sigma, beta=beta)


class TestConfigValidation:
    @pytest.mark.parametrize("N", [0, 2, 3, 30, -8])
    def test_bad_N(self, N):
        with pytest.raises(ConfigurationError):
            cfg(N=N)

    @pytest.mark.parametrize("N", [8.0, 8.5, "8", np.float64(16.0), True])
    def test_non_integer_N(self, N):
        with pytest.raises(ConfigurationError, match="integer"):
            cfg(N=N)

    @pytest.mark.parametrize("N", [np.int64(16), np.int32(8)])
    def test_numpy_integer_N(self, N):
        mesh = build_shishkin_1d(cfg(N=N))
        assert mesh.N == N and len(mesh.nodes) == N + 1

    @pytest.mark.parametrize("eps", [0.0, -1e-4, 1.5])
    def test_bad_eps(self, eps):
        with pytest.raises(ConfigurationError):
            cfg(eps=eps)

    @pytest.mark.parametrize("name, value", [
        ("eps", "1e-4"), ("eps", None), ("sigma", "2"), ("sigma", None), ("beta", "1"),
        ("beta", 1j), ("eps", True), ("sigma", True), ("beta", True),
    ])
    def test_non_real_parameter(self, name, value):
        with pytest.raises(ConfigurationError, match="real number"):
            cfg(**{name: value})

    def test_numpy_real_parameters(self):
        mesh = build_shishkin_1d(cfg(eps=np.float32(1e-4), sigma=np.int64(2), beta=np.float64(1)))
        assert mesh.tau == pytest.approx(build_shishkin_1d(cfg()).tau, rel=1e-7)

    def test_bad_sigma_beta(self):
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ConfigurationError):
                cfg(sigma=bad)
            with pytest.raises(ConfigurationError):
                cfg(beta=bad)


class TestTransitionPoint:
    def test_tau_closed_form(self):
        # tau = sigma sqrt(eps) ln(N) / beta at N=32, eps=1e-4, sigma=2
        m = build_shishkin_1d(cfg())
        assert m.tau == pytest.approx(0.06931471805599453, rel=1e-15)
        assert m.widths[0] == pytest.approx(0.008664339756999316, rel=1e-14)
        assert not m.clamped

    def test_clamp_caps_at_quarter(self):
        m = build_shishkin_1d(cfg(N=4, eps=0.25))
        assert m.clamped
        assert m.tau == 0.25
        assert np.allclose(m.nodes, np.linspace(0, 1, 5), atol=1e-15)

    def test_transition_nodes(self):
        m = build_shishkin_1d(cfg())
        N = m.N
        assert m.nodes[N // 4] == pytest.approx(m.tau, abs=1e-15)
        assert m.nodes[3 * N // 4] == pytest.approx(1.0 - m.tau, abs=1e-14)

    def test_tau_monotone_in_eps(self):
        taus = [build_shishkin_1d(cfg(eps=e)).tau for e in (1e-3, 1e-5, 1e-7, 1e-9)]
        assert all(a >= b for a, b in zip(taus, taus[1:]))


class TestMeshGeometry:
    @settings(max_examples=40, deadline=None)
    @given(
        N=st.sampled_from([4, 8, 16, 32, 64, 128]),
        eps=st.floats(min_value=1e-12, max_value=1.0),
        sigma=st.floats(min_value=1.0, max_value=4.0),
    )
    def test_symmetry_and_monotone(self, N, eps, sigma):
        m = build_shishkin_1d(cfg(N=N, eps=eps, sigma=sigma))
        assert np.all(np.diff(m.nodes) > 0)
        assert np.max(np.abs(m.nodes + m.nodes[::-1] - 1.0)) <= 1e-14
        assert m.nodes[0] == 0.0 and m.nodes[-1] == 1.0

    def test_uniform_within_regions(self):
        m = build_shishkin_1d(cfg(N=64, eps=1e-6))
        h = m.widths
        N = m.N
        for block in (h[: N // 4], h[N // 4: 3 * N // 4], h[3 * N // 4:]):
            assert np.max(np.abs(block - block[0])) <= 1e-14
        assert abs(h[0] - 4 * m.tau / N) <= 1e-14
        assert abs(h[N // 2] - 2 * (1 - 2 * m.tau) / N) <= 1e-14

    def test_widths_computed_once(self):
        # one read-only array per mesh, equal to np.diff of the nodes bit for
        # bit; the quadrature points read it
        m = build_shishkin_1d(cfg(N=64, eps=1e-8))
        assert m.widths is m.widths
        assert not m.widths.flags.writeable
        assert np.array_equal(m.widths, np.diff(m.nodes))
        points = np.array([-1.0, 0.0, 0.5])
        expected = m.nodes[:-1, None] + 0.5 * np.diff(m.nodes)[:, None] * (points + 1.0)
        assert np.array_equal(m.quadrature_points(points), expected)

    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12])
    @pytest.mark.parametrize("N", [16, 64, 256])
    def test_width_bounds(self, eps, N):
        # sqrt(eps)/N ln N <= h_j <= 2/N for the unclamped mesh (beta = 1)
        m = build_shishkin_1d(cfg(N=N, eps=eps, sigma=2.0))
        assert not m.clamped
        lower = np.sqrt(eps) * np.log(N) / N
        upper = 2.0 / N
        assert np.all(m.widths >= lower - 1e-16)
        assert np.all(m.widths <= upper + 1e-16)


class TestRegions:
    @pytest.mark.parametrize("eps", [0.25, 1e-8])
    @pytest.mark.parametrize("N", [4, 8, 16, 64])
    def test_layer_mask(self, N, eps):
        m = build_shishkin_1d(cfg(N=N, eps=eps))
        assert m.clamped == (eps == 0.25)
        expected = [i <= N // 4 or i > 3 * N // 4 for i in range(1, N + 1)]
        assert m.layer.dtype == bool
        assert m.layer.tolist() == expected
        assert build_shishkin_2d(m.config).axis.layer.tolist() == expected
        fine, coarse = 4 * m.tau / N, 2 * (1 - 2 * m.tau) / N
        assert np.allclose(m.widths[m.layer], fine, rtol=0.0, atol=1e-14)
        assert np.allclose(m.widths[~m.layer], coarse, rtol=0.0, atol=1e-14)

    def test_cell_endpoints(self):
        m = build_shishkin_1d(cfg(N=8))
        a, b = m.cell(1)
        assert a == 0.0 and b == m.nodes[1]
        with pytest.raises(ConfigurationError):
            m.cell(9)


class TestMesh2D:
    def test_tensor_of_same_axis(self):
        m2 = build_shishkin_2d(cfg(N=8))
        assert m2.N == 8
        # one 1D Shishkin mesh serves both axes
        assert [f.name for f in dataclasses.fields(m2)] == ["axis"]
        assert np.array_equal(m2.axis.nodes, build_shishkin_1d(cfg(N=8)).nodes)
        # 64 cells, all addressable
        cells = [m2.cell(i, j) for i in range(1, 9) for j in range(1, 9)]
        assert len(cells) == 64

    def test_corner_and_centre_cell_sizes(self):
        m2 = build_shishkin_2d(cfg(N=8, eps=1e-6))
        (ax, bx), (ay, by) = m2.cell(1, 1)
        fine = 4 * m2.axis.tau / 8
        assert bx - ax == pytest.approx(fine, rel=1e-14)
        assert by - ay == pytest.approx(fine, rel=1e-14)
        (ax, bx), (ay, by) = m2.cell(4, 4)
        coarse = 2 * (1 - 2 * m2.axis.tau) / 8
        assert bx - ax == pytest.approx(coarse, rel=1e-14)
        assert by - ay == pytest.approx(coarse, rel=1e-14)
