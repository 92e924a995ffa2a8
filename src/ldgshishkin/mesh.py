"""Piecewise-uniform Shishkin meshes on (0, 1) and their 2D tensor products.

The 1D mesh concentrates N/4 cells in each boundary-layer region [0, tau]
and [1-tau, 1], with the transition point

    tau = min(1/4, sigma * sqrt(eps) * ln(N) / beta).

Nodes are evaluated branch-by-branch from the closed formula (not by
accumulating widths) so that the mirror symmetry x_i + x_{N-i} = 1 holds at
machine precision.
"""

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real

import numpy as np

from .errors import ConfigurationError, MeshError


@dataclass(frozen=True)
class MeshConfig:
    """Parameters of the layer-adapted mesh.

    N must be a multiple of 4 (the three regions hold N/4, N/2, N/4 cells);
    sigma is the mesh constant (the driver pins sigma >= k+1), beta the
    lower-bound constant of the reaction coefficient.
    """

    N: int
    eps: float
    sigma: float
    beta: float = 1.0

    def __post_init__(self):
        if isinstance(self.N, bool) or not isinstance(self.N, Integral):
            raise ConfigurationError(f"N must be an integer, got {self.N!r}")
        if self.N < 4 or self.N % 4 != 0:
            raise ConfigurationError(f"N must be a multiple of 4 and >= 4, got {self.N}")
        for name in ("eps", "sigma", "beta"):
            if isinstance(value := getattr(self, name), bool) or not isinstance(value, Real):
                raise ConfigurationError(f"{name} must be a real number, got {value!r}")
        if not 0.0 < self.eps <= 1.0:
            raise ConfigurationError(f"eps must lie in (0, 1], got {self.eps}")
        if not 0.0 < self.sigma < np.inf:
            raise ConfigurationError(f"sigma must be finite and positive, got {self.sigma}")
        if not 0.0 < self.beta < np.inf:
            raise ConfigurationError(f"beta must be finite and positive, got {self.beta}")


@dataclass(frozen=True)
class Mesh1D:
    """Shishkin mesh nodes 0 = x_0 < ... < x_N = 1.

    ``tau`` is the (possibly capped) transition point; ``clamped`` is set
    when the formula value hit the 1/4 cap and the mesh degenerated to a
    uniform one.  ``layer`` marks the fine cells of the two layer regions.
    """

    config: MeshConfig
    nodes: np.ndarray
    tau: float
    clamped: bool

    @property
    def N(self):
        return self.config.N

    @cached_property
    def widths(self):  # computed once, read-only
        widths = np.diff(self.nodes)
        widths.setflags(write=False)
        return widths

    @property
    def layer(self):
        """Boolean (N,) mask, True on the layer cells 1..N/4 and 3N/4+1..N;
        ``~layer`` is the coarse interior."""
        i = np.arange(self.N)
        return (i < self.N // 4) | (i >= 3 * self.N // 4)

    @property
    def interface_index(self):
        """Node index of the right transition point x = 1 - tau."""
        return 3 * self.N // 4

    def quadrature_points(self, points):
        """Physical images, shape (N, len(points)), of the reference points
        ``points`` in [-1, 1] under every cell's affine map."""
        return quadrature_points(self.nodes, points, self.widths)

    def cell(self, i):
        """Endpoints (x_{i-1}, x_i) of cell i, 1-based."""
        if not 1 <= i <= self.N:
            raise ConfigurationError(f"cell index {i} outside 1..{self.N}")
        return self.nodes[i - 1], self.nodes[i]


@dataclass(frozen=True)
class Mesh2D:
    """Tensor-product mesh: the same 1D Shishkin mesh ``axis`` on x and y."""

    axis: Mesh1D

    @property
    def N(self):
        return self.axis.N

    @property
    def clamped(self):
        return self.axis.clamped

    def cell(self, i, j):
        """Rectangle I_i x J_j for 1-based indices (i, j)."""
        return self.axis.cell(i), self.axis.cell(j)


def quadrature_points(nodes, points, widths=None):
    """Images, shape (len(nodes) - 1, len(points)), of the reference points ``points``
    in [-1, 1] on the cells [nodes[i], nodes[i+1]] (``widths`` np.diff(nodes) if None)."""
    halfh = 0.5 * (np.diff(nodes) if widths is None else widths)
    return nodes[:-1, None] + halfh[:, None] * (points[None, :] + 1.0)


def build_shishkin_1d(cfg):
    """Build the 1D Shishkin mesh for ``cfg``.

    tau = min(1/4, sigma*sqrt(eps)*ln(N)/beta); with t_i = i/N the nodes are
    4*tau*t_i on [0, tau], tau + 2(1-2tau)(t_i - 1/4) in the interior and
    1 - 4*tau*(1 - t_i) on [1-tau, 1].  Raises MeshError when the nodes are
    not strictly increasing (eps = 1e-30, N = 1024, sigma = 3: 68 cells of width 0).
    """
    N = cfg.N
    tau_formula = cfg.sigma * np.sqrt(cfg.eps) * np.log(N) / cfg.beta
    clamped = bool(tau_formula >= 0.25)
    tau = 0.25 if clamped else float(tau_formula)

    i = np.arange(N + 1)
    t = i / N
    nodes = np.empty(N + 1)
    left = i <= N // 4
    right = i > 3 * N // 4
    mid = ~(left | right)
    nodes[left] = 4.0 * tau * t[left]
    nodes[mid] = tau + 2.0 * (1.0 - 2.0 * tau) * (t[mid] - 0.25)
    nodes[right] = 1.0 - 4.0 * tau * (1.0 - t[right])
    nodes[0] = 0.0
    nodes[N] = 1.0
    mesh = Mesh1D(config=cfg, nodes=nodes, tau=tau, clamped=clamped)
    if degenerate := np.count_nonzero(mesh.widths <= 0.0):
        # 4*tau/N below the spacing of floats near 1: right-layer nodes round together
        raise MeshError(f"Shishkin mesh N={N}, eps={cfg.eps:g} has {degenerate} cells of "
                        f"zero (or negative) width; its nodes are not strictly increasing")
    return mesh


def build_shishkin_2d(cfg):
    """Tensor-product Shishkin mesh: the same 1D mesh on both axes."""
    return Mesh2D(build_shishkin_1d(cfg))
