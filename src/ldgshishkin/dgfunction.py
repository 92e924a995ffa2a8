"""Piecewise-polynomial functions in the modal Legendre basis.

A 1D DG function stores a coefficient matrix c[i, n] (cell row i, mode n);
its one-sided traces at the cell endpoints are the products of the modal
coefficients with the endpoint values of the reference element
(``basis.reference_blocks_1d``), so jumps are cheap and exact.  Cell rows
are 0-based; the 1-based cell numbering of the mesh API maps to row i-1.
A 2D DG function stores kron-order c[i, m, j, n], the 1D layout squared:
``coeffs.reshape(N*(k+1), -1)`` is the matrix view that the 2D solve and
norms read (``basis.grid_product``), and cell (i, j) holds c[i, :, j].
"""

from dataclasses import dataclass

import numpy as np

from .basis import legendre_table, reference_blocks_1d
from .errors import ConfigurationError
from .mesh import Mesh1D, Mesh2D


@dataclass
class DGFunction1D:
    """Discontinuous piecewise polynomial of degree k on a 1D mesh."""

    mesh: Mesh1D
    degree: int
    coeffs: np.ndarray  # shape (N, k+1)

    def __post_init__(self):
        expected = (self.mesh.N, self.degree + 1)
        if self.coeffs.shape != expected:
            raise ConfigurationError(
                f"coefficient array has shape {self.coeffs.shape}, expected {expected}"
            )

    @classmethod
    def zeros(cls, mesh, degree):
        return cls(mesh, degree, np.zeros((mesh.N, degree + 1)))

    def evaluate(self, x):
        """Evaluate at points x; points on a node use the right-hand cell."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        nodes = self.mesh.nodes
        cell = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, self.mesh.N - 1)
        a = nodes[cell]
        h = nodes[cell + 1] - a
        t = 2.0 * (x - a) / h - 1.0
        V = legendre_table(self.degree, t)
        return np.einsum("pn,pn->p", V, self.coeffs[cell])

    def left_traces(self):
        """Trace v^+ at the left endpoint of every cell, shape (N,)."""
        return self.coeffs @ reference_blocks_1d(self.degree).alt

    def right_traces(self):
        """Trace v^- at the right endpoint of every cell, shape (N,)."""
        return self.coeffs.sum(axis=1)


@dataclass
class DGFunction2D:
    """Tensor-degree-k DG function; c[i, m, j, n]: x-cell, x-mode, y-cell, y-mode."""

    mesh: Mesh2D
    degree: int
    coeffs: np.ndarray  # shape (N, k+1, N, k+1)

    def __post_init__(self):
        expected = (self.mesh.N, self.degree + 1) * 2
        if self.coeffs.shape != expected:
            raise ConfigurationError(
                f"coefficient array has shape {self.coeffs.shape}, expected {expected}"
            )

    @classmethod
    def zeros(cls, mesh, degree):
        return cls(mesh, degree, np.zeros((mesh.N, degree + 1) * 2))

    def evaluate(self, x, y):
        """Pointwise evaluation; broadcasts x against y."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        x, y = np.broadcast_arrays(x, y)
        shape = x.shape
        xf, yf = x.ravel(), y.ravel()
        nodes = self.mesh.axis.nodes
        N = self.mesh.N
        ci = np.clip(np.searchsorted(nodes, xf, side="right") - 1, 0, N - 1)
        cj = np.clip(np.searchsorted(nodes, yf, side="right") - 1, 0, N - 1)
        t = 2.0 * (xf - nodes[ci]) / (nodes[ci + 1] - nodes[ci]) - 1.0
        s = 2.0 * (yf - nodes[cj]) / (nodes[cj + 1] - nodes[cj]) - 1.0
        Vx = legendre_table(self.degree, t)
        Vy = legendre_table(self.degree, s)
        vals = np.einsum("pm,pmn,pn->p", Vx, self.coeffs[ci, :, cj], Vy)
        return vals.reshape(shape)
