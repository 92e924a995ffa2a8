"""Reference code that only the tests use.

Continuous interpolants, the y-direction 2D flux projection, the 1D
2-field band built from nonzero triplets and its extended-precision
refined solve, the W_b blocks, right-hand side and extended-precision
refined solve of the coupled 2D (U, P, Q) system, and the band- and
sparse-matrix operations (triplet construction, dense and csr
copies, scalings) with which the tests build their SuperLU and dense
references.  No solver, norm or study calls any of it.  ``run_fresh`` runs a script in a new interpreter,
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
from scipy.sparse.linalg import splu

import ldgshishkin
from ldgshishkin.basis import assembly_quad_order, gauss_rule, legendre_table
from ldgshishkin.dgfunction import DGFunction1D, DGFunction2D
from ldgshishkin.ldg1d import CellBlocks, piece_blocks_1d
from ldgshishkin.ldg2d import assemble_2d
from ldgshishkin.linalg import (BandedMatrix, SparseMatrix, equilibrate, lu_banded_solve,
                                sherman_morrison)
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


class ReferenceBanded(BandedMatrix):
    """A ``BandedMatrix`` built from triplets, with dense and csr copies."""

    @classmethod
    def from_coo(cls, n, rows, cols, vals):
        """Duplicates summed; the bandwidths are read off the triplets."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        lower = int(max(0, (rows - cols).max()))
        upper = int(max(0, (cols - rows).max()))
        band = np.zeros((lower + upper + 1, n))
        np.add.at(band.reshape(-1), (upper + rows - cols) * n + cols, vals)
        return cls(n=n, lower=lower, upper=upper, band=band)

    def to_dense(self):
        return self.to_csr().toarray()

    def to_csr(self):
        rows = np.arange(self.n)[None, :] + np.arange(self.band.shape[0])[:, None] - self.upper
        inside = (rows >= 0) & (rows < self.n)
        cols = np.broadcast_to(np.arange(self.n), rows.shape)
        return sp.csr_matrix((self.band[inside], (rows[inside], cols[inside])),
                             shape=(self.n, self.n))


def _cell_block_triplets(blocks, fields, kk):
    """(rows, cols, values) of the nonzero entries of the ``CellBlocks``
    ``blocks`` placed at ``fields`` = (row field, column field) of the
    cell-major 2-field layout (cell c, field a, mode p at 2kk c + kk a + p)."""
    c = np.arange(blocks.diag.shape[0])
    rows, cols, vals = [], [], []
    for rc, cc, B in ((c, c, blocks.diag), (c[1:], c[:-1], blocks.sub[1:]),
                      (c[:-1], c[1:], blocks.sup[1:])):
        i, p, q = np.nonzero(B)
        rows.append(2 * kk * rc[i] + kk * fields[0] + p)
        cols.append(2 * kk * cc[i] + kk * fields[1] + q)
        vals.append(B[i, p, q])
    return [np.concatenate(t) for t in (rows, cols, vals)]


def banded_system_1d(problem, mesh, k):
    """The 2-field system (A0 + e e^T) x = b of the 1D scheme built from
    triplets: the nonzero entries of the cell blocks of
    A0 = [[M/s, D], [-s D^T, W_b + s E]] in the cell-major [Qtilde | U]
    layout, summed into zeros by ``ReferenceBanded.from_coo``, which reads
    the bandwidths off them; e, the interface vector v of
    ``OperatorPieces1D.interface`` on the Qtilde dofs of cells J-1 and J;
    and b, the load <f, v> on the U dofs.  W_b and the load are integrated
    as assemble_1d does.  Returns (A0, e, b)."""
    pieces = piece_blocks_1d(mesh, k, problem.eps)
    s, kk, N, (J, v) = pieces.s, k + 1, mesh.N, pieces.interface
    rule = gauss_rule(assembly_quad_order(k))
    V, _ = legendre_table(k, rule.points)
    X = mesh.quadrature_points(rule.points)
    bvals = np.asarray(problem.b(X), dtype=float)
    fvals = np.asarray(problem.f(X), dtype=float)
    halfh = 0.5 * mesh.widths
    W = np.einsum("cg,gm,gn->cmn", halfh[:, None] * rule.weights * bvals, V, V)
    D, zero = pieces.derivative, np.zeros_like(W)
    Dt = CellBlocks(D.diag.swapaxes(1, 2), D.sup.swapaxes(1, 2), D.sub.swapaxes(1, 2))
    triplets = [
        _cell_block_triplets(
            CellBlocks((pieces.m * (1.0 / s))[:, :, None] * np.eye(kk), zero, zero), (0, 0), kk),
        _cell_block_triplets(D, (0, 1), kk),
        _cell_block_triplets(CellBlocks(-s * Dt.diag, -s * Dt.sub, -s * Dt.sup), (1, 0), kk),
        _cell_block_triplets(CellBlocks(W + pieces.penalty.diag, zero, zero), (1, 1), kk),
    ]
    n = 2 * N * kk
    rows, cols, vals = (np.concatenate(t) for t in zip(*triplets))
    e, b = np.zeros((2, n))
    q = 2 * kk * np.arange(N)[:, None] + np.arange(kk)
    e[q[J - 1:J + 1].ravel()] = v
    b[(q + kk).ravel()] = (halfh[:, None] * ((rule.weights * fvals) @ V)).ravel()
    return ReferenceBanded.from_coo(n, rows, cols, vals), e, b


def _band_matvec(matrix, x):
    """A x over the diagonals of the band, in the precision of x."""
    n, y = matrix.n, np.zeros_like(x)
    for d in range(-matrix.upper, matrix.lower + 1):
        diagonal = matrix.band[matrix.upper + d].astype(x.dtype)
        if d >= 0:
            y[d:] += diagonal[:n - d] * x[:n - d]
        else:
            y[:n + d] += diagonal[-d:] * x[-d:]
    return y


def refined_solve_1d(problem, mesh, k, steps=3):
    """The 1D scheme solved on ``banded_system_1d`` by equilibrated banded LU
    (dgbsv with Sherman-Morrison for e e^T), and that solution refined
    ``steps`` times with residuals of A0 + e e^T computed in np.longdouble
    over the band rows (corrections by the same LU).  Returns the (U, Q)
    coefficient pairs, each (N, k+1), of the LU solve and of the refined
    one (rounded to float64)."""
    A, e, b = banded_system_1d(problem, mesh, k)
    scaled, r, c = equilibrate(A)

    z = lu_banded_solve(scaled, r * e).x

    def solve(rhs):
        return c * sherman_morrison(lu_banded_solve(scaled, r * rhs).x, z, c * e)

    x = solve(b)
    x_ld, e_ld = x.astype(np.longdouble), e.astype(np.longdouble)
    for _ in range(steps):
        residual = b - (_band_matvec(A, x_ld) + e_ld * (e_ld @ x_ld))
        x_ld += solve(residual.astype(float))

    def fields(x):
        blocks = x.astype(float).reshape(mesh.N, 2 * (k + 1))
        return blocks[:, k + 1:], float(np.sqrt(problem.eps)) * blocks[:, :k + 1]

    return fields(x), fields(x_ld)


class ReferenceSparse(SparseMatrix):
    """A ``SparseMatrix`` with the dense copy and the scalings that
    ``equilibrate`` reads."""

    def to_dense(self):
        return self.csr.toarray()

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
    """Right-hand side of ``coupled_matrix``: the load, moved from kron
    order to the field-major layout, on the U dofs."""
    N, k1 = system.pieces.m.shape
    rhs = np.zeros(3 * system.load.size)
    rhs[:system.load.size] = system.load.reshape(N, k1, N, k1).transpose(0, 2, 1, 3).ravel()
    return rhs


def reaction_blocks(system):
    """The b-weighted mass blocks W_b, (N, N, kk, kk) with x-mode-major
    local numbering, formed from ``system.beta``:
    W_ij = sum_gh beta_(ig)(jh) (V_g (x) V_h)^T (V_g (x) V_h)."""
    (N, k1), V = system.pieces.m.shape, system.V
    beta = system.beta.reshape(N, V.shape[0], N, V.shape[0])
    W = np.einsum("igjh,ga,hb,gc,hd->ijabcd", beta, V, V, V, V, optimize=True)
    return W.reshape(N, N, k1 * k1, k1 * k1)


def refined_solve_2d(problem, mesh2d, k, steps=3):
    """The 2D scheme solved on ``coupled_matrix`` by equilibrated SuperLU,
    and that solution refined ``steps`` times with residuals of the
    unscaled matrix computed in np.longdouble, summed over the csr rows by
    ``np.add.reduceat`` (corrections by the same LU).  Returns the (U, P,
    Q) coefficients, each (N, N, k+1, k+1), of the refined solve (rounded
    to float64)."""
    system = assemble_2d(problem, mesh2d, k)
    A, b = coupled_matrix(system), coupled_rhs(system)
    scaled, r, c = equilibrate(A)
    lu = splu(scaled.csr.tocsc())

    def solve(rhs):
        return c * lu.solve(r * rhs)

    x_ld, csr = solve(b).astype(np.longdouble), A.csr
    data = csr.data.astype(np.longdouble)
    for _ in range(steps):
        Ax = np.add.reduceat(data * x_ld[csr.indices], csr.indptr[:-1])
        x_ld += solve((b - Ax).astype(float))
    U, P, Q = x_ld.astype(float).reshape(3, mesh2d.N, mesh2d.N, k + 1, k + 1)
    return U, system.pieces.s * P, system.pieces.s * Q


def equilibrate_dense(A):
    """``equilibrate`` of a dense A, run on the band storage of its nonzeros;
    returns (scaled A as a dense array, row_scales, col_scales)."""
    rows, cols = np.nonzero(A)
    scaled, r, c = equilibrate(ReferenceBanded.from_coo(A.shape[0], rows, cols, A[rows, cols]))
    return scaled.to_dense(), r, c
