"""Reference code that only the tests use.

Continuous interpolants, the y-direction 2D flux projection, the
right-hand side of the coupled 2D (U, P, Q) system, and the sparse-matrix
operations with which the tests equilibrate and scale their SuperLU and
dense references.  No solver, norm or study calls any of it.
"""

import numpy as np
import scipy.sparse as sp

from ldgshishkin.basis import legendre_table
from ldgshishkin.dgfunction import DGFunction1D, DGFunction2D
from ldgshishkin.linalg import BandedMatrix, SparseMatrix, equilibrate
from ldgshishkin.projections import GR_PLUS, L2, _project_2d


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


def composite_project_plus_y_2d(q, mesh2d, k, quad=None):
    """2D flux projection in y: plain L2 on row j = 1, Radau-plus in y
    elsewhere."""
    N = mesh2d.N
    ky = np.repeat(np.where(np.arange(1, N + 1) == 1, L2, GR_PLUS)[None, :], N, axis=0)
    nodes = mesh2d.axis.nodes
    coeffs = _project_2d(q, nodes, nodes, np.full((N, N), L2), ky, k, quad)
    return DGFunction2D(mesh2d, k, coeffs)


class ReferenceSparse(SparseMatrix):
    """A ``SparseMatrix`` with the dense copy, diagonal and scalings that
    ``equilibrate`` and ``symmetric_scale`` read."""

    def to_dense(self):
        return self.csr.toarray()

    def diagonal(self):
        return self.csr.diagonal()

    def abs_row_col_max(self):
        absA = abs(self.csr)
        return absA.max(axis=1).toarray().ravel(), absA.max(axis=0).toarray().ravel()

    def scaled(self, row_scales, col_scales):
        R = sp.diags(row_scales)
        C = sp.diags(col_scales)
        return ReferenceSparse((R @ self.csr @ C).tocsr())


def coupled_matrix(system):
    """``AssembledSystem2D.matrix``, the coupled (U, Ptilde, Qtilde) matrix,
    as a ``ReferenceSparse``."""
    return ReferenceSparse(system.matrix.csr)


def coupled_rhs(system):
    """Right-hand side of ``coupled_matrix``: the load on the U dofs."""
    rhs = np.zeros(3 * system.load.size)
    rhs[:system.load.size] = system.load.ravel()
    return rhs


def equilibrate_dense(A):
    """``equilibrate`` of a dense A, run on the band storage of its nonzeros;
    returns (scaled A as a dense array, row_scales, col_scales)."""
    rows, cols = np.nonzero(A)
    scaled, r, c = equilibrate(BandedMatrix.from_coo(A.shape[0], rows, cols, A[rows, cols]))
    return scaled.to_dense(), r, c
