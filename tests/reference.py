"""Reference code that only the tests use.

Continuous interpolants, the y-direction 2D flux projection, the 1D band
built from nonzero triplets, the right-hand side of the coupled 2D
(U, P, Q) system, and the sparse-matrix operations with which the tests
equilibrate and scale their SuperLU and dense references.  No solver, norm
or study calls any of it.  ``run_fresh`` runs a script in a new interpreter,
for the tests of which modules a run loads.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import ldgshishkin
from ldgshishkin.basis import assembly_quad_order, gauss_rule, legendre_table
from ldgshishkin.dgfunction import DGFunction1D, DGFunction2D
from ldgshishkin.ldg1d import piece_blocks_1d
from ldgshishkin.linalg import BandedMatrix, SparseMatrix, equilibrate
from ldgshishkin.projections import GR_PLUS, L2, _project_2d


def run_fresh(script, tmp_path):
    """Run ``script`` in a new interpreter that imports ldgshishkin from
    this tree, with ``out`` bound to a path for ``numpy.savez``.  Returns
    which of scipy.sparse and scipy.linalg it left in ``sys.modules`` and
    the arrays it saved."""
    out = tmp_path / "out.npz"
    report = ("import json, sys\n"
              "print(json.dumps([m for m in ('scipy.sparse', 'scipy.linalg')"
              " if m in sys.modules]))")
    code = f"out = {str(out)!r}\n{textwrap.dedent(script)}\n{report}\n"
    path = [str(Path(ldgshishkin.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    saved = dict(np.load(out)) if out.exists() else {}
    return set(json.loads(run.stdout.splitlines()[-1])), saved


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


def banded_system_1d(problem, mesh, k):
    """The matrix A0 + e e^T of ``assemble_1d`` built from triplets: the
    dense A0 = [[M/s, D], [-s D^T, W_b + s E]] in the cell-major
    [Qtilde | U] layout, its nonzero entries summed into zeros by
    ``BandedMatrix.from_coo``, which reads the bandwidths off them, and e,
    the interface vector v of ``OperatorPieces1D.interface`` on the Qtilde
    dofs of cells J-1 and J.  W_b is integrated as assemble_1d does.
    Returns (A0 as a ``BandedMatrix``, e)."""
    pieces = piece_blocks_1d(mesh, k, problem.eps)
    s, kk, N, (J, v) = pieces.s, k + 1, mesh.N, pieces.interface
    rule = gauss_rule(assembly_quad_order(k))
    V, _ = legendre_table(k, rule.points)
    bvals = np.asarray(problem.b(mesh.quadrature_points(rule.points)), dtype=float)
    W = np.einsum("cg,gm,gn->cmn", 0.5 * mesh.widths[:, None] * rule.weights * bvals, V, V)
    W_b = sp.block_diag(list(W)).toarray()
    D = pieces.derivative.to_dense()
    q = (2 * kk * np.arange(N)[:, None] + np.arange(kk)).ravel()
    u = q + kk
    A = np.zeros((2 * N * kk, 2 * N * kk))
    A[np.ix_(q, q)] = pieces.mass.to_dense() * (1.0 / s)
    A[np.ix_(q, u)] = D
    A[np.ix_(u, q)] = -s * D.T
    A[np.ix_(u, u)] = W_b + pieces.penalty.to_dense()
    e = np.zeros(A.shape[0])
    e[q.reshape(N, kk)[J - 1:J + 1].ravel()] = v
    rows, cols = np.nonzero(A)
    return BandedMatrix.from_coo(A.shape[0], rows, cols, A[rows, cols]), e


class ReferenceSparse(SparseMatrix):
    """A ``SparseMatrix`` with the dense copy, diagonal and scalings that
    ``equilibrate`` and ``symmetric_scale`` read."""

    def to_dense(self):
        return self.csr.toarray()

    def diagonal(self):
        return self.csr.diagonal()

    def row_scales_col_max(self, row_scales):
        absA = abs(self.csr)
        r = row_scales(absA.max(axis=1).toarray().ravel())
        return r, (sp.diags(r) @ absA).max(axis=0).toarray().ravel()

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
