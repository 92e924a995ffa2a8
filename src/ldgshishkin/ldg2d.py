"""Mixed LDG discretization of -eps lap(u) + b u = f on a 2D Shishkin mesh.

The first-order system introduces p = eps u_x and q = eps u_y.  Fluxes
mirror the 1D construction direction by direction: U is upwinded from the
left/bottom, P and Q from the right/top, boundary traces of U are
penalized with sqrt(eps) and the jumps of P (resp. Q) across the vertical
line x = x_{3N/4} (resp. horizontal line y = y_{3N/4}) with 1/sqrt(eps).
Both axes carry the same 1D Shishkin mesh (``Mesh2D.axis``), so the
coupled (U, P, Q) matrix is a block-diagonal b-weighted mass plus Kronecker
products of one set of 1D operator pieces (``ldg1d.piece_blocks_1d``), in
the scaled unknowns P/sqrt(eps), Q/sqrt(eps).  The solver never forms it:
``assemble_2d`` returns only the 1D pieces, the b-weighted mass blocks W_b
and the load.  The coupled matrix is built on request
(``AssembledSystem2D.matrix``): the tests check the solver against it, and
the benchmark's tracer (``bench/spans.py``) reads its size and nnz.
The solver eliminates P and Q in closed form on every cell, the interface
cells included, because the 1D flux mass M/s + v v^T has the
Sherman-Morrison inverse ``flux_mass_inv``.  Conjugate gradients,
preconditioned by fast diagonalization (one 1D eigenproblem; exact for
constant b), solve the SPD U-only system S = blockdiag(W_b) + K(x)M + M(x)K
without forming S (``UOperator2D``), on the kron-order view of U, with no
scipy.sparse call; P and Q follow by one dense product each.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .basis import assembly_quad_order, gauss_rule, legendre_table
from .dgfunction import DGFunction2D
from .errors import ConfigurationError, SolverError
from .ldg1d import OperatorPieces1D, piece_blocks_1d
# equilibrate and sparse_solve stay bound: bench/spans.py times them here
from .linalg import SparseMatrix, equilibrate, pcg, sparse_solve, symmetric_scale

# largest relative residual of the scaled U-system that solve_ldg_2d accepts
_RESIDUAL_TOL = 1e-9


@dataclass
class MixedSolution2D:
    """Discrete triple (U, P, Q); ``residual`` is the relative residual of
    the scaled U-only system that produced it (see ``solve_ldg_2d``)."""

    U: DGFunction2D
    P: DGFunction2D
    Q: DGFunction2D
    residual: float = 0.0

    def __post_init__(self):
        same_mesh = self.U.mesh is self.P.mesh is self.Q.mesh
        same_degree = self.U.degree == self.P.degree == self.Q.degree
        if not (same_mesh and same_degree):
            raise ConfigurationError("U, P and Q must share mesh and degree")


def _to_kron(cell_values, k1):
    """One field's (i, j, m, n) values as the kron-order (i, m) x (j, n) matrix."""
    N = cell_values.shape[0]
    return cell_values.reshape(N, N, k1, k1).transpose(0, 2, 1, 3).reshape(N * k1, N * k1)


def _to_cells(kron_values, N):
    """The inverse of ``_to_kron``: an (N, N, k1, k1) view."""
    k1 = kron_values.shape[0] // N
    return kron_values.reshape(N, k1, N, k1).transpose(0, 2, 1, 3)


@dataclass
class AssembledSystem2D:
    """What the 2D solve reads: the ``OperatorPieces1D`` of the mesh axis
    (shared by x and y), the b-weighted mass blocks W_b of every cell
    (N, N, kk, kk) and the load (N, N, kk), kk = (k+1)^2 with x-mode-major
    local numbering.

    ``matrix`` is the coupled (U, Ptilde, Qtilde) matrix in the field-major
    layout (all U dofs, then P, then Q; within a field the cells row-major
    over (i, j), then the local modes), built on first access.  The solve
    never reads it; it stays because the tests and ``bench/spans.py`` do.
    """

    pieces: OperatorPieces1D
    reaction: np.ndarray
    load: np.ndarray

    @functools.cached_property
    def matrix(self):
        """The coupled matrix; in kron order (i, m, j, n) its block rows are

            U: [blockdiag(W_b) + s E(x)M + s M(x)E, -s D^T(x)M, -s M(x)D^T]
            P: [D(x)M, F(x)M, 0]
            Q: [M(x)D, 0, M(x)F]

        with csr copies of the 1D pieces of the axis (mass M, derivative
        block D, flux mass F = M/s + v v^T, boundary penalty s E), then
        renumbered to the field-major layout.
        """
        p = self.pieces
        s, kron = p.s, sp.kron
        M, D, F, sE = (x.to_csr() for x in (p.mass, p.derivative, p.flux_mass, p.penalty))
        A = sp.bmat([
            [kron(sE, M) + kron(M, sE), -s * kron(D.T, M), -s * kron(M, D.T)],
            [kron(D, M), kron(F, M), None],
            [kron(M, D), None, kron(M, F)],
        ], format="coo")
        N, kk, field = self.load.shape[0], self.load.shape[2], self.load.size
        dof = _to_kron(np.arange(field).reshape(self.load.shape), M.shape[0] // N).ravel()
        order = np.concatenate([dof, field + dof, 2 * field + dof])
        R = sp.bsr_matrix((self.reaction.reshape(N * N, kk, kk), np.arange(N * N),
                           np.arange(N * N + 1))).tocoo()
        return SparseMatrix.from_coo(3 * field, np.concatenate([order[A.row], R.row]),
                                     np.concatenate([order[A.col], R.col]),
                                     np.concatenate([A.data, R.data]))


def assemble_2d(problem, mesh2d, k):
    """The pieces of the 2D scheme: the 1D operator pieces of the mesh
    axis, the b-weighted mass blocks W_b and the load, integrated for every
    cell at once on a tensor Gauss grid."""
    if k < 1:
        raise ConfigurationError(f"polynomial degree must be >= 1, got {k}")
    N = mesh2d.N
    eps = problem.eps
    pieces = piece_blocks_1d(mesh2d.axis, k, eps)
    rule = gauss_rule(assembly_quad_order(k))
    V, _ = legendre_table(k, rule.points)
    kk = (k + 1) ** 2

    h = 0.5 * np.diff(mesh2d.axis.nodes)
    X = mesh2d.axis.quadrature_points(rule.points)
    bvals = np.asarray(problem.b(X[:, None, :, None], X[None, :, None, :]), dtype=float)
    fvals = np.asarray(problem.f(X[:, None, :, None], X[None, :, None, :]), dtype=float)
    w2 = rule.weights[:, None] * rule.weights[None, :]

    Wblk = np.einsum("ijgh,gh,gm,hn,ga,hb->ijmnab", bvals, w2, V, V, V, V,
                     optimize=True).reshape(N, N, kk, kk)
    Wblk *= (h[:, None] * h[None, :])[:, :, None, None]
    Fblk = np.einsum("ijgh,gh,gm,hn->ijmn", fvals, w2, V, V,
                     optimize=True).reshape(N, N, kk)
    Fblk *= (h[:, None] * h[None, :])[:, :, None]
    return AssembledSystem2D(pieces=pieces, reaction=Wblk, load=Fblk)


@dataclass(frozen=True)
class UOperator2D:
    """diag(row) S diag(col) on kron-order U vectors (i, m, j, n) for
    S = blockdiag(W_b) + K(x)M + M(x)K, never formed.  ``cells`` holds the
    (N, N, kk, kk) diagonal blocks of S: W_b plus those of both Kronecker
    terms.  With ``off`` = K less its diagonal blocks and ``m`` = diag(M),
    the rest of S acts on the square view X of a vector as off X M + M X off.
    No entry of S is in two parts, so the diagonal and norm add up by part.
    """

    cells: np.ndarray
    off: np.ndarray
    m: np.ndarray
    row: np.ndarray
    col: np.ndarray

    def scaled(self, row_scales, col_scales):
        return replace(self, row=self.row * row_scales, col=self.col * col_scales)

    def diagonal(self):
        k1 = self.m.size // self.cells.shape[0]
        return self.row * self.col * _to_kron(np.einsum("ijaa->ija", self.cells), k1).ravel()

    def matvec(self, x):
        N, kk = self.cells.shape[0], self.cells.shape[2]
        X = (self.col * x).reshape(self.m.size, -1)
        by_cell = _to_cells(X, N).reshape(N, N, kk, 1)
        Y = _to_kron(self.cells @ by_cell, self.m.size // N)
        Y += (self.off @ X) * self.m + self.m[:, None] * (X @ self.off)
        return self.row * Y.ravel()

    def frobenius_norm(self):
        N, kk = self.cells.shape[0], self.cells.shape[2]
        row, col = self.row.reshape(self.m.size, -1), self.col.reshape(self.m.size, -1)
        cells = (_to_cells(row, N).reshape(N, N, kk, 1) * self.cells
                 * _to_cells(col, N).reshape(N, N, 1, kk))
        K2, m2, R2, C2 = self.off**2, self.m**2, row**2, col**2
        # off X M and M X off: sum of (row K col)^2 m^2 over the entries
        kron_terms = R2 * ((K2 @ C2) * m2 + m2[:, None] * (C2 @ K2))
        return np.sqrt((cells**2).sum() + kron_terms.sum())


def eliminate_fluxes_2d(system):
    """Eliminate Ptilde and Qtilde in closed form; returns (S, G, K).

    G = F^-1 D and K = s E + s D^T G (exactly symmetric), with F^-1 the 1D
    ``flux_mass_inv``, are dense N(k+1)-square matrices.  The P and Q rows
    give Ptilde = -(G(x)I) U and Qtilde = -(I(x)G) U in kron order, and the
    U-only operator S (``UOperator2D``) is the Schur complement
    A_UU - A_UP A_PP^-1 A_PU - A_UQ A_QQ^-1 A_QU of the coupled system:
    symmetric positive definite, exactly symmetric.
    """
    p = system.pieces
    N, k1 = system.load.shape[0], p.mass.diag.shape[1]
    D = p.derivative.to_dense()
    G = p.flux_mass_inv.dot(D)
    K = p.penalty.to_dense() + p.s * (D.T @ G)
    K = 0.5 * (K + K.T)
    m = np.diagonal(p.mass.diag, axis1=1, axis2=2)
    cell = np.arange(N)
    K_diag = K.reshape(N, k1, N, k1)[cell, :, cell, :]
    cells = system.reaction.copy()
    blocks = cells.reshape(N, N, k1, k1, k1, k1)  # (i, j, m, n, m', n')
    for a in range(k1):
        blocks[:, :, :, a, :, a] += K_diag[:, None] * m[None, :, a, None, None]
        blocks[:, :, a, :, a, :] += m[:, None, a, None, None] * K_diag[None]
    off = K.copy()
    off.reshape(N, k1, N, k1)[cell, :, cell, :] = 0.0
    ones = np.ones(system.load.size)
    return UOperator2D(cells, off, m.ravel(), ones, ones), G, K


def _fast_diagonalization(system, K):
    """P^-1 on kron-order U vectors, P = K(x)M + M(x)K + bbar M(x)M with K
    that of ``eliminate_fluxes_2d`` and bbar the mass-weighted mean of b
    (P = S for constant b).

    Z = M^-1/2 V, with M^-1/2 K M^-1/2 = V diag(lam) V^T, gives
    Z^T K Z = diag(lam) and Z^T M Z = I, so (Lynch, Rice & Thomas 1964)
    P^-1 = (Z(x)Z) diag(lam_i + lam_j + bbar)^-1 (Z(x)Z)^T: four dense
    products on the kron-order matrix view.
    """
    m = np.diagonal(system.pieces.mass.diag, axis1=1, axis2=2).ravel()
    bbar = np.einsum("ijaa->", system.reaction) / (m.sum() * m.sum())
    r = m ** -0.5
    lam, V = np.linalg.eigh(r[:, None] * K * r)
    Z = r[:, None] * V
    inv = 1.0 / (lam[:, None] + lam[None, :] + bbar)

    def apply(values):
        return (Z @ ((Z.T @ values.reshape(inv.shape) @ Z) * inv) @ Z.T).ravel()

    return apply


def solve_ldg_2d(problem, mesh2d, k):
    """Solve the 2D scheme through its U-only SPD system.

    The operator S of ``eliminate_fluxes_2d`` is scaled to D S D
    (``symmetric_scale``) and solved by ``pcg`` preconditioned by
    ``_fast_diagonalization``: 2-3 steps for constant b, about 20 for
    variable b.  All of it works on kron-order vectors: the load is
    permuted into that order once and U out of it once.  The reported
    residual is that of the scaled U-system, as in 1D; SolverError
    (carrying it) is raised when it exceeds ``_RESIDUAL_TOL``,
    SingularMatrixError when an iterate is not finite.
    """
    system = assemble_2d(problem, mesh2d, k)
    N, k1 = mesh2d.N, k + 1
    S, G, K = eliminate_fluxes_2d(system)
    scaled, d = symmetric_scale(S)
    fd = _fast_diagonalization(system, K)
    result = pcg(scaled, d * _to_kron(system.load, k1).ravel(), lambda r: fd(r / d) / d)
    if result.residual > _RESIDUAL_TOL:
        raise SolverError(
            f"2D solve reached residual {result.residual:.3e} > {_RESIDUAL_TOL:.3e}",
            residual=result.residual,
        )
    # in kron order a field is an (i, m) x (j, n) matrix: G acts on the
    # left for P, on the right for Q
    u_kron = (d * result.x).reshape(N * k1, N * k1)

    def field(kron_values, scale):
        return DGFunction2D(mesh2d, k, np.ascontiguousarray(scale * _to_cells(kron_values, N)))

    return MixedSolution2D(U=field(u_kron, 1.0),
                           P=field(G @ u_kron, -system.pieces.s),
                           Q=field(u_kron @ G.T, -system.pieces.s),
                           residual=result.residual)


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
        return np.einsum("ijmn,gm,hn->ijgh", F.coeffs, Bx, By, optimize=True)

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
    Uright = T.U.x_edge_trace("right")
    Pleft_T, Pright_T = T.P.x_edge_trace("left"), T.P.x_edge_trace("right")
    sleft, sright = Z.P.x_edge_trace("left"), Z.P.x_edge_trace("right")
    vleft, vright = Z.U.x_edge_trace("left"), Z.U.x_edge_trace("right")
    Uleft = T.U.x_edge_trace("left")
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
    Utop, Ubot = T.U.y_edge_trace("top"), T.U.y_edge_trace("bottom")
    Qbot_T, Qtop_T = T.Q.y_edge_trace("bottom"), T.Q.y_edge_trace("top")
    rbot, rtop = Z.Q.y_edge_trace("bottom"), Z.Q.y_edge_trace("top")
    vbot, vtop = Z.U.y_edge_trace("bottom"), Z.U.y_edge_trace("top")
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
    vv = np.einsum("ijmn,gm,hn->ijgh", Z.U.coeffs, V, V, optimize=True)
    scale = h[:, None] * h[None, :]
    return float(np.einsum("ij,gh,ijgh->", scale, w2, fvals * vv, optimize=True))
