"""Piecewise-polynomial functions in the modal Legendre basis.

A 1D DG function stores a coefficient matrix c[i, n] (cell row i, mode n);
its one-sided traces at the cell endpoints are plain signed sums of the
modal coefficients, so jumps are cheap and exact.  Cell rows are 0-based;
the 1-based cell numbering of the mesh API maps to row i-1.
"""

from dataclasses import dataclass

import numpy as np

from .basis import legendre_table
from .errors import ConfigurationError
from .mesh import Mesh1D, Mesh2D


def _alternating(k):
    return (-1.0) ** np.arange(k + 1)


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
        V, _ = legendre_table(self.degree, t)
        return np.einsum("pn,pn->p", V, self.coeffs[cell])

    def left_traces(self):
        """Trace v^+ at the left endpoint of every cell, shape (N,)."""
        return self.coeffs @ _alternating(self.degree)

    def right_traces(self):
        """Trace v^- at the right endpoint of every cell, shape (N,)."""
        return self.coeffs.sum(axis=1)

    def jump(self, i):
        """Jump [[v]]_i at node i (1-based, 0..N); boundary conventions
        [[v]]_0 = -v_0^+ and [[v]]_N = v_N^-."""
        N = self.mesh.N
        if i == 0:
            return -float(self.left_traces()[0])
        if i == N:
            return float(self.right_traces()[N - 1])
        return float(self.right_traces()[i - 1] - self.left_traces()[i])

    def values_at(self, tables):
        """Values on the per-cell quadrature grid given a (nq, k+1) table."""
        return self.coeffs @ tables.T  # (N, nq)


@dataclass
class DGFunction2D:
    """Tensor-degree-k DG function; coefficients c[i, j, m, n] with x-mode m."""

    mesh: Mesh2D
    degree: int
    coeffs: np.ndarray  # shape (N, N, k+1, k+1)

    def __post_init__(self):
        N = self.mesh.N
        expected = (N, N, self.degree + 1, self.degree + 1)
        if self.coeffs.shape != expected:
            raise ConfigurationError(
                f"coefficient array has shape {self.coeffs.shape}, expected {expected}"
            )

    @classmethod
    def zeros(cls, mesh, degree):
        N = mesh.N
        return cls(mesh, degree, np.zeros((N, N, degree + 1, degree + 1)))

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
        Vx, _ = legendre_table(self.degree, t)
        Vy, _ = legendre_table(self.degree, s)
        vals = np.einsum("pm,pmn,pn->p", Vx, self.coeffs[ci, cj], Vy)
        return vals.reshape(shape)

    def x_edge_trace(self, side):
        """Per-cell y-mode coefficients of the trace on a vertical edge.

        side='left' gives v^+ at x = x_{i-1}, side='right' gives v^- at
        x = x_i; result has shape (N, N, k+1) indexed (i, j, y-mode).
        """
        e = _alternating(self.degree) if side == "left" else np.ones(self.degree + 1)
        return np.einsum("m,ijmn->ijn", e, self.coeffs)

    def y_edge_trace(self, side):
        """x-mode coefficients of the trace on a horizontal edge."""
        e = _alternating(self.degree) if side == "bottom" else np.ones(self.degree + 1)
        return np.einsum("n,ijmn->ijm", e, self.coeffs)


def _lobatto_interpolation(k):
    """Chebyshev-Lobatto points on [-1, 1] and the inverse of their Legendre table."""
    pts = -np.cos(np.pi * np.arange(k + 1) / k)
    pts[0], pts[-1] = -1.0, 1.0
    V, _ = legendre_table(k, pts)
    return pts, np.linalg.inv(V)


def interpolate_1d(w, mesh, k):
    """Continuous nodal interpolant of w (Chebyshev-Lobatto points per cell).

    The point set contains both cell endpoints, so the interpolant of a
    continuous function has zero jumps at all interior nodes up to roundoff.
    One inverse Vandermonde product maps the samples of all cells to modes.
    """
    pts, Vinv = _lobatto_interpolation(k)
    W = np.asarray(w(mesh.quadrature_points(pts)), dtype=float)
    return DGFunction1D(mesh, k, W @ Vinv.T)


def interpolate_2d(w, mesh, k):
    """Continuous tensor Chebyshev-Lobatto interpolant on a 2D mesh."""
    pts, Vinv = _lobatto_interpolation(k)
    X = mesh.axis.quadrature_points(pts)
    W = np.asarray(w(X[:, None, :, None], X[None, :, None, :]), dtype=float)
    return DGFunction2D(mesh, k, Vinv @ W @ Vinv.T)
