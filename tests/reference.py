"""Reference code that only the tests use.

Continuous interpolants, the y-direction 2D flux projection, the
quadrature oracles of the compact bilinear forms and loads
(``bilinear_form_1d/2d``, ``load_functional_1d/2d``, independent of the
assembly: volume terms re-integrated and traces re-evaluated) with the
DG-function helpers only they and the tests read (``values_at``,
``x_edge_trace``, ``y_edge_trace``), the 1D
2-field band built from the Kronecker formulas and its extended-precision
refined solve, the W_b blocks, right-hand side and extended-precision
refined solve of the coupled 2D (U, P, Q) system, and the band- and
sparse-matrix operations (triplet construction, dense and csr
copies, scalings) with which the tests build their SuperLU and dense
references.  No solver, norm or study calls any of it.  ``run_fresh`` runs a script in a new interpreter,
for the tests of which modules a run loads, and ``traced_peak`` measures
the peak memory of a call by ``tracemalloc``.
"""

import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import ldgshishkin
from ldgshishkin.basis import (assembly_quad_order, gauss_rule, legendre_table,
                               reference_blocks_1d)
from ldgshishkin.dgfunction import DGFunction1D, DGFunction2D
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


def traced_peak(fn):
    """Peak bytes that tracemalloc sees during fn(), after one untraced call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
    W = np.asarray(w(X[:, :, None, None], X[None, None, :, :]), dtype=float)  # (i, g, j, h)
    return DGFunction2D(mesh, k, np.einsum("mg,igjh,nh->imjn", Vinv, W, Vinv))


def composite_project_plus_y_2d(q, mesh2d, k, quad=None):
    """2D flux projection in y: plain L2 on row j = 1, Radau-plus in y
    elsewhere."""
    N = mesh2d.N
    ky = np.repeat(np.where(np.arange(1, N + 1) == 1, L2, GR_PLUS)[None, :], N, axis=0)
    nodes = mesh2d.axis.nodes
    coeffs = _project_2d(q, nodes, nodes, np.full((N, N), L2), ky, k, quad)
    return DGFunction2D(mesh2d, k, coeffs)


def values_at(dgf, table):
    """Values of a 1D DG function on the per-cell points of a (nq, k+1)
    Legendre table, shape (N, nq)."""
    return dgf.coeffs @ table.T


def x_edge_trace(dgf, side):
    """Per-cell y-mode coefficients of the trace of a 2D DG function on a
    vertical edge: side='left' gives v^+ at x = x_{i-1}, side='right' gives
    v^- at x = x_i; shape (N, N, k+1) indexed (i, j, y-mode)."""
    ref = reference_blocks_1d(dgf.degree)
    return np.einsum("m,imjn->ijn", ref.alt if side == "left" else ref.ones, dgf.coeffs)


def y_edge_trace(dgf, side):
    """x-mode coefficients of the trace on a horizontal edge ('bottom' or 'top')."""
    ref = reference_blocks_1d(dgf.degree)
    return np.einsum("n,imjn->ijm", ref.alt if side == "bottom" else ref.ones, dgf.coeffs)


def bilinear_form_1d(W, X, problem, mesh):
    """Evaluate the compact-form bilinear map B(W; X) by direct quadrature.

    This path is independent of the assembled matrix (volume terms are
    re-integrated, traces re-evaluated), so agreement of B(W; X) with
    <f, v> on the computed solution cross-checks the assembly.
    """
    k = W.U.degree
    eps = problem.eps
    root = float(np.sqrt(eps))
    rule = gauss_rule(assembly_quad_order(k))
    V, D = legendre_table(k, rule.points)
    halfh = 0.5 * np.diff(mesh.nodes)
    Xpts = mesh.quadrature_points(rule.points)
    bvals = np.asarray(problem.b(Xpts), dtype=float)

    Qv = values_at(W.Q, V)      # (N, nq)
    Uv = values_at(W.U, V)
    rv = values_at(X.Q, V)
    vv = values_at(X.U, V)
    r_dref = values_at(X.Q, D)  # reference derivative; physical = 2/h * this
    v_dref = values_at(X.U, D)

    w = rule.weights
    total = 0.0
    # (1/eps)<Q, r> + <b U, v>
    total += np.sum(halfh[:, None] * w * Qv * rv) / eps
    total += np.sum(halfh[:, None] * w * bvals * Uv * vv)
    # <U, r'> and <Q, v'>: the h/2 Jacobian cancels the 2/h of the derivative
    total += np.sum(w * Uv * r_dref)
    total += np.sum(w * Qv * v_dref)

    U_right, U_left = W.U.right_traces(), W.U.left_traces()
    Q_right, Q_left = W.Q.right_traces(), W.Q.left_traces()
    r_right, r_left = X.Q.right_traces(), X.Q.left_traces()
    v_right, v_left = X.U.right_traces(), X.U.left_traces()

    # - sum_{i=1}^{N-1} U_i^- [[r]]_i
    jump_r = r_right[:-1] - r_left[1:]
    total -= np.sum(U_right[:-1] * jump_r)
    # - sum_{i=0}^{N-1} Q_i^+ [[v]]_i  with [[v]]_0 = -v_0^+
    jump_v = v_right[:-1] - v_left[1:]
    total -= Q_left[0] * (-v_left[0])
    total -= np.sum(Q_left[1:] * jump_v)
    # - (Q v)_N^-
    total -= Q_right[-1] * v_right[-1]
    # boundary penalties sqrt(eps) on the U jumps
    total += root * (-U_left[0]) * (-v_left[0])
    total += root * U_right[-1] * v_right[-1]
    # interface penalty 1/sqrt(eps) on the Q jump at node 3N/4
    J = mesh.interface_index
    total += (1.0 / root) * (Q_right[J - 1] - Q_left[J]) * (r_right[J - 1] - r_left[J])
    return float(total)


def load_functional_1d(f, X, mesh):
    """<f, v_X> for the test pair X = (r, v); companion of bilinear_form_1d."""
    k = X.U.degree
    rule = gauss_rule(assembly_quad_order(k))
    V, _ = legendre_table(k, rule.points)
    halfh = 0.5 * np.diff(mesh.nodes)
    Xpts = mesh.quadrature_points(rule.points)
    fvals = np.asarray(f(Xpts), dtype=float)
    vv = values_at(X.U, V)
    return float(np.sum(halfh[:, None] * rule.weights * fvals * vv))


def bilinear_form_2d(T, Z, problem, mesh2d):
    """Direct quadrature evaluation of the compact 2D form B(T; Z).

    Independent of the assembled matrix: volume terms are re-integrated on
    tensor Gauss grids and every edge term on (k+3)-point edge rules.
    """
    k = T.U.degree
    eps = problem.eps
    N = mesh2d.N
    root = float(np.sqrt(eps))
    rule = gauss_rule(assembly_quad_order(k))
    V, D = legendre_table(k, rule.points)
    w = rule.weights
    w2 = w[:, None] * w[None, :]
    h = 0.5 * np.diff(mesh2d.axis.nodes)
    X = mesh2d.axis.quadrature_points(rule.points)
    bvals = np.asarray(problem.b(X[:, None, :, None], X[None, :, None, :]), dtype=float)

    def vol(F, Bx, By):
        return np.einsum("imjn,gm,hn->ijgh", F.coeffs, Bx, By, optimize=True)

    scale = h[:, None] * h[None, :]
    total = 0.0
    # (b U, v) + (1/eps)(P, s) + (1/eps)(Q, r)
    Uv, vv = vol(T.U, V, V), vol(Z.U, V, V)
    total += np.einsum("ij,gh,ijgh->", scale, w2, bvals * Uv * vv, optimize=True)
    total += np.einsum("ij,gh,ijgh->", scale, w2, vol(T.P, V, V) * vol(Z.P, V, V),
                       optimize=True) / eps
    total += np.einsum("ij,gh,ijgh->", scale, w2, vol(T.Q, V, V) * vol(Z.Q, V, V),
                       optimize=True) / eps
    # (U, s_x): x-Jacobians cancel, leaving the y half-width h[j] per cell
    total += np.einsum("j,gh,ijgh->", h, w2, Uv * vol(Z.P, D, V), optimize=True)
    # (U, r_y)
    total += np.einsum("i,gh,ijgh->", h, w2, Uv * vol(Z.Q, V, D), optimize=True)
    # (P, v_x) and (Q, v_y)
    total += np.einsum("j,gh,ijgh->", h, w2, vol(T.P, V, V) * vol(Z.U, D, V),
                       optimize=True)
    total += np.einsum("i,gh,ijgh->", h, w2, vol(T.Q, V, V) * vol(Z.U, V, D),
                       optimize=True)

    def vals(coef):  # modal edge coefficients -> values at the edge quad points
        return coef @ V.T

    # x-directed edge sums (integrals over J_j with weights h[j] * w)
    Uright = x_edge_trace(T.U, "right")
    Pleft_T, Pright_T = x_edge_trace(T.P, "left"), x_edge_trace(T.P, "right")
    sleft, sright = x_edge_trace(Z.P, "left"), x_edge_trace(Z.P, "right")
    vleft, vright = x_edge_trace(Z.U, "left"), x_edge_trace(Z.U, "right")
    Uleft = x_edge_trace(T.U, "left")
    for e in range(1, N):  # interior vertical edges
        jump_s = vals(sright[e - 1] - sleft[e])
        total -= np.sum(h[:, None] * w * vals(Uright[e - 1]) * jump_s)
        jump_v = vals(vright[e - 1] - vleft[e])
        total -= np.sum(h[:, None] * w * vals(Pleft_T[e]) * jump_v)
    # boundary vertical edges: [[v]]_{0,y} = -v^+, [[v]]_{N,y} = v^-
    total -= np.sum(h[:, None] * w * vals(Pleft_T[0]) * (-vals(vleft[0])))
    total -= np.sum(h[:, None] * w * vals(Pright_T[-1]) * vals(vright[-1]))
    # penalties: sqrt(eps) on the boundary U jumps, 1/sqrt(eps) on the P jump
    total += root * np.sum(h[:, None] * w * vals(Uleft[0]) * vals(vleft[0]))
    total += root * np.sum(h[:, None] * w * vals(Uright[-1]) * vals(vright[-1]))
    J = mesh2d.axis.interface_index
    jump_P = vals(Pright_T[J - 1] - Pleft_T[J])
    jump_sJ = vals(sright[J - 1] - sleft[J])
    total += (1.0 / root) * np.sum(h[:, None] * w * jump_P * jump_sJ)

    # y-directed edge sums
    Utop, Ubot = y_edge_trace(T.U, "top"), y_edge_trace(T.U, "bottom")
    Qbot_T, Qtop_T = y_edge_trace(T.Q, "bottom"), y_edge_trace(T.Q, "top")
    rbot, rtop = y_edge_trace(Z.Q, "bottom"), y_edge_trace(Z.Q, "top")
    vbot, vtop = y_edge_trace(Z.U, "bottom"), y_edge_trace(Z.U, "top")
    for e in range(1, N):
        jump_r = vals(rtop[:, e - 1] - rbot[:, e])
        total -= np.sum(h[:, None] * w * vals(Utop[:, e - 1]) * jump_r)
        jump_v = vals(vtop[:, e - 1] - vbot[:, e])
        total -= np.sum(h[:, None] * w * vals(Qbot_T[:, e]) * jump_v)
    total -= np.sum(h[:, None] * w * vals(Qbot_T[:, 0]) * (-vals(vbot[:, 0])))
    total -= np.sum(h[:, None] * w * vals(Qtop_T[:, -1]) * vals(vtop[:, -1]))
    total += root * np.sum(h[:, None] * w * vals(Ubot[:, 0]) * vals(vbot[:, 0]))
    total += root * np.sum(h[:, None] * w * vals(Utop[:, -1]) * vals(vtop[:, -1]))
    jump_Q = vals(Qtop_T[:, J - 1] - Qbot_T[:, J])
    jump_rJ = vals(rtop[:, J - 1] - rbot[:, J])
    total += (1.0 / root) * np.sum(h[:, None] * w * jump_Q * jump_rJ)
    return float(total)


def load_functional_2d(f, Z, mesh2d):
    """(f, v_Z) on the 2D mesh; companion of bilinear_form_2d."""
    k = Z.U.degree
    rule = gauss_rule(assembly_quad_order(k))
    V, _ = legendre_table(k, rule.points)
    w2 = rule.weights[:, None] * rule.weights[None, :]
    h = 0.5 * np.diff(mesh2d.axis.nodes)
    X = mesh2d.axis.quadrature_points(rule.points)
    fvals = np.asarray(f(X[:, None, :, None], X[None, :, None, :]), dtype=float)
    vv = np.einsum("imjn,gm,hn->ijgh", Z.U.coeffs, V, V, optimize=True)
    scale = h[:, None] * h[None, :]
    return float(np.einsum("ij,gh,ijgh->", scale, w2, fvals * vv, optimize=True))


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


def banded_system_1d(problem, mesh, k):
    """The 2-field system (A0 + e e^T) x = b of the 1D scheme built from
    its formulas: A0 = [[M/s, D], [-s D^T, W_b + s E]] assembled by
    scipy.sparse, with D = I(x)G - (I - e_N e_N^T)(x)11^T + L(x)alt 1^T and
    s E = s (e_N e_N^T(x)11^T + e_1 e_1^T(x)alt alt^T), renumbered to the
    cell-major [Qtilde | U] layout (cell c, field a, mode p at
    2(k+1) c + (k+1) a + p) and summed into zeros by
    ``ReferenceBanded.from_coo``, which reads the bandwidths off its
    nonzero entries; e, the interface vector v = (1, -alt) on the Qtilde
    dofs of cells J-1 and J (J = 3N/4); and b, the load <f, v> on the U
    dofs.  M, s and v are formed here, not read from the solver's pieces;
    W_b and the load are integrated as assemble_1d does.  Returns (A0, e, b)."""
    s, kk, N, J = float(np.sqrt(problem.eps)), k + 1, mesh.N, 3 * mesh.N // 4
    ref, halfh = reference_blocks_1d(k), 0.5 * mesh.widths
    m, v = halfh[:, None] * ref.mass, np.concatenate([ref.ones, -ref.alt])
    rule = gauss_rule(assembly_quad_order(k))
    V, _ = legendre_table(k, rule.points)
    X = mesh.quadrature_points(rule.points)
    bvals = np.asarray(problem.b(X), dtype=float)
    fvals = np.asarray(problem.f(X), dtype=float)
    W = np.einsum("cg,gm,gn->cmn", halfh[:, None] * rule.weights * bvals, V, V)
    ones, alt = ref.ones[:, None], ref.alt[:, None]
    first, last = (sp.diags(np.eye(N)[i]) for i in (0, -1))
    D = (sp.kron(sp.eye(N), ref.G) - sp.kron(sp.eye(N) - last, ones @ ones.T)
         + sp.kron(sp.eye(N, k=-1), alt @ ones.T))
    sE = s * (sp.kron(last, ones @ ones.T) + sp.kron(first, alt @ alt.T))
    A0 = sp.bmat([[sp.diags((m * (1.0 / s)).ravel()), D],
                  [-s * D.T, sp.block_diag(W) + sE]], format="csr")
    A0.eliminate_zeros()
    A0 = A0.tocoo()
    n = 2 * N * kk
    cell_major = np.arange(n).reshape(N, 2, kk).transpose(1, 0, 2).ravel()
    e, b = np.zeros((2, n))
    q = 2 * kk * np.arange(N)[:, None] + np.arange(kk)
    e[q[J - 1:J + 1].ravel()] = v
    b[(q + kk).ravel()] = (halfh[:, None] * ((rule.weights * fvals) @ V)).ravel()
    return ReferenceBanded.from_coo(n, cell_major[A0.row], cell_major[A0.col], A0.data), e, b


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
    """Right-hand side of ``coupled_matrix``: the (kron-order) load on the
    U dofs."""
    rhs = np.zeros(3 * system.load.size)
    rhs[:system.load.size] = system.load.ravel()
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
    Q) coefficients, each (N, k+1, N, k+1), of the refined solve (rounded
    to float64).  The diagonal pivot threshold 0.01 (take the diagonal
    unless it is under 0.01 of its column's largest entry) cuts the factor
    time by about a quarter; the refined solution moves by under 2e-16."""
    system = assemble_2d(problem, mesh2d, k)
    A, b = coupled_matrix(system), coupled_rhs(system)
    scaled, r, c = equilibrate(A)
    lu = splu(scaled.csr.tocsc(), diag_pivot_thresh=0.01)

    def solve(rhs):
        return c * lu.solve(r * rhs)

    x_ld, csr = solve(b).astype(np.longdouble), A.csr
    data = csr.data.astype(np.longdouble)
    for _ in range(steps):
        Ax = np.add.reduceat(data * x_ld[csr.indices], csr.indptr[:-1])
        x_ld += solve((b - Ax).astype(float))
    U, P, Q = x_ld.astype(float).reshape(3, mesh2d.N, k + 1, mesh2d.N, k + 1)
    return U, system.pieces.s * P, system.pieces.s * Q


def equilibrate_dense(A):
    """``equilibrate`` of a dense A, run on the band storage of its nonzeros;
    returns (scaled A as a dense array, row_scales, col_scales)."""
    rows, cols = np.nonzero(A)
    scaled, r, c = equilibrate(ReferenceBanded.from_coo(A.shape[0], rows, cols, A[rows, cols]))
    return scaled.to_dense(), r, c
