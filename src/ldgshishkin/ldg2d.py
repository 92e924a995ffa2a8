"""Mixed LDG discretization of -eps lap(u) + b u = f on a 2D Shishkin mesh.

The first-order system introduces p = eps u_x and q = eps u_y.  Fluxes
mirror the 1D construction direction by direction: U is upwinded from the
left/bottom, P and Q from the right/top, boundary traces of U are
penalized with sqrt(eps) and the jumps of P (resp. Q) across the vertical
line x = x_{3N/4} (resp. horizontal line y = y_{3N/4}) with 1/sqrt(eps).
Both axes carry the same 1D Shishkin mesh (``Mesh2D.axis``), so the
coupled (U, P, Q) matrix is a block-diagonal b-weighted mass plus Kronecker
products of one set of 1D operator pieces (``ldg1d.operator_pieces_1d``),
in the scaled unknowns P/sqrt(eps), Q/sqrt(eps).  The solver never forms
it: ``assemble_2d`` returns only the 1D pieces, the b-weighted mass blocks
W_b and the load, and the coupled matrix is built on request
(``AssembledSystem2D.matrix``) as the reference the tests check the solver
against.
The solver eliminates P and Q in closed form on every cell, the interface
cells included, because the 1D flux mass M/s + v v^T has the
Sherman-Morrison inverse ``flux_mass_inv``; it solves the remaining SPD
U-only system S = blockdiag(W_b) + K(x)M + M(x)K (``eliminate_fluxes_2d``)
by conjugate gradients preconditioned by fast diagonalization (one 1D
eigenproblem; exact for constant b) and recovers P and Q by one sparse
product each.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import assembly_quad_order, gauss_rule, legendre_table
from .dgfunction import DGFunction2D
from .errors import ConfigurationError, SolverError
from .ldg1d import OperatorPieces1D, operator_pieces_1d
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


@dataclass
class AssembledSystem2D:
    """What the 2D solve reads: the ``OperatorPieces1D`` of the mesh axis
    (shared by x and y), the b-weighted mass blocks W_b of every cell
    (N, N, kk, kk) and the load (N, N, kk), kk = (k+1)^2 with x-mode-major
    local numbering.

    ``matrix`` and ``rhs`` are the coupled (U, Ptilde, Qtilde) system in the
    field-major layout (all U dofs, then P, then Q; within a field the cells
    row-major over (i, j), then the local modes).  ``matrix`` is built on
    first access; the solve never reads it.
    """

    pieces: OperatorPieces1D
    reaction: np.ndarray
    load: np.ndarray

    @property
    def pq_scale(self):
        """s = sqrt(eps): P = s Ptilde and Q = s Qtilde."""
        return self.pieces.s

    @property
    def from_kron(self):
        """Field-major position (i, j, m, n) of each kron-order (i, m, j, n)
        dof of one field."""
        N, k1 = self.load.shape[0], self.pieces.mass.shape[0] // self.load.shape[0]
        return np.arange(self.load.size).reshape(N, N, k1, k1).transpose(0, 2, 1, 3).ravel()

    def _plus_reaction(self, n, order, A):
        """The n x n ``SparseMatrix`` of the COO matrix A with its rows and
        columns renumbered by ``order``, plus blockdiag(W_b) on the leading
        U dofs."""
        n_cells, kk = self.load.shape[0] ** 2, self.load.shape[2]
        R = sp.bsr_matrix((self.reaction.reshape(n_cells, kk, kk), np.arange(n_cells),
                           np.arange(n_cells + 1))).tocoo()
        return SparseMatrix.from_coo(
            n,
            np.concatenate([order[A.row], R.row]),
            np.concatenate([order[A.col], R.col]),
            np.concatenate([A.data, R.data]),
        )

    @functools.cached_property
    def matrix(self):
        """The coupled matrix; in kron order (i, m, j, n) its block rows are

            U: [blockdiag(W_b) + s E(x)M + s M(x)E, -s D^T(x)M, -s M(x)D^T]
            P: [D(x)M, F(x)M, 0]
            Q: [M(x)D, 0, M(x)F]

        with the 1D pieces of the axis (mass M, derivative block D, flux
        mass F = M/s + v v^T, boundary penalty s E), and ``from_kron`` maps
        each field to the field-major layout.
        """
        p = self.pieces
        s, kron, M = p.s, sp.kron, p.mass
        A = sp.bmat([
            [kron(p.penalty, M) + kron(M, p.penalty),
             -s * kron(p.derivative.T, M), -s * kron(M, p.derivative.T)],
            [kron(p.derivative, M), kron(p.flux_mass, M), None],
            [kron(M, p.derivative), None, kron(M, p.flux_mass)],
        ], format="coo")
        dof, field = self.from_kron, self.load.size
        order = np.concatenate([dof, field + dof, 2 * field + dof])
        return self._plus_reaction(3 * field, order, A)

    @property
    def rhs(self):
        """Right-hand side of ``matrix``: the load on the U dofs."""
        rhs = np.zeros(3 * self.load.size)
        rhs[:self.load.size] = self.load.ravel()
        return rhs


def assemble_2d(problem, mesh2d, k):
    """The pieces of the 2D scheme: the 1D operator pieces of the mesh
    axis, the b-weighted mass blocks W_b and the load, integrated for every
    cell at once on a tensor Gauss grid."""
    if k < 1:
        raise ConfigurationError(f"polynomial degree must be >= 1, got {k}")
    N = mesh2d.N
    eps = problem.eps
    pieces = operator_pieces_1d(mesh2d.axis, k, eps)
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


def eliminate_fluxes_2d(system):
    """Eliminate Ptilde and Qtilde in closed form; returns (S, G, K).

    G = F^-1 D and K = s E + s D^T G (exactly symmetric), with F^-1 the 1D
    ``flux_mass_inv``.  The P and Q rows give Ptilde = -(G(x)I) U and
    Qtilde = -(I(x)G) U in kron order, and the U-only operator
    S = blockdiag(W_b) + K(x)M + M(x)K, in the field-major U layout, is
    the Schur complement A_UU - A_UP A_PP^-1 A_PU - A_UQ A_QQ^-1 A_QU of the
    coupled system.  S is symmetric positive definite, exactly symmetric.
    """
    p = system.pieces
    G = (p.flux_mass_inv @ p.derivative).tocsr()
    K = p.penalty + p.s * (p.derivative.T @ G)
    K = 0.5 * (K + K.T)
    T = (sp.kron(K, p.mass) + sp.kron(p.mass, K)).tocoo()
    S = system._plus_reaction(system.load.size, system.from_kron, T)
    return S, G, K


def _fast_diagonalization(system, K):
    """P^-1 on field-major U vectors, P = K(x)M + M(x)K + bbar M(x)M with K
    that of ``eliminate_fluxes_2d`` and bbar the mass-weighted mean of b
    (P = S for constant b).

    Z = M^-1/2 V, with M^-1/2 K M^-1/2 = V diag(lam) V^T, gives
    Z^T K Z = diag(lam) and Z^T M Z = I, so (Lynch, Rice & Thomas 1964)
    P^-1 = (Z(x)Z) diag(lam_i + lam_j + bbar)^-1 (Z(x)Z)^T: four dense
    products on the kron-order matrix view.
    """
    M = system.pieces.mass
    mass_sum = M.sum()
    bbar = np.einsum("ijaa->", system.reaction) / (mass_sum * mass_sum)
    r = M.diagonal() ** -0.5
    lam, V = np.linalg.eigh(r[:, None] * K.toarray() * r)
    Z = r[:, None] * V
    inv = 1.0 / (lam[:, None] + lam[None, :] + bbar)
    perm = system.from_kron

    def apply(values):
        kron = values[perm].reshape(inv.shape)
        out = np.empty_like(values)
        out[perm] = (Z @ ((Z.T @ kron @ Z) * inv) @ Z.T).ravel()
        return out

    return apply


def solve_ldg_2d(problem, mesh2d, k):
    """Solve the 2D scheme through its U-only SPD system.

    The operator S of ``eliminate_fluxes_2d`` is scaled to D S D
    (``symmetric_scale``) and solved by ``pcg`` preconditioned by
    ``_fast_diagonalization``: 2-3 steps for constant b, about 20 for
    variable b.  The reported residual is that of the scaled U-system, as in
    1D; SolverError (carrying it) is raised when it exceeds
    ``_RESIDUAL_TOL``, SingularMatrixError when an iterate is not finite.
    """
    system = assemble_2d(problem, mesh2d, k)
    N, k1 = mesh2d.N, k + 1
    S, G, K = eliminate_fluxes_2d(system)
    scaled, d = symmetric_scale(S)
    fd = _fast_diagonalization(system, K)
    result = pcg(scaled, d * system.load.ravel(), lambda r: fd(r / d) / d)
    if result.residual > _RESIDUAL_TOL:
        raise SolverError(
            f"2D solve reached residual {result.residual:.3e} > {_RESIDUAL_TOL:.3e}",
            residual=result.residual,
        )
    u = (d * result.x).reshape(N, N, k1, k1)

    # in kron order a field is an (i, m) x (j, n) matrix: G acts on the
    # left for P, on the right for Q
    u_kron = u.transpose(0, 2, 1, 3).reshape(N * k1, N * k1)

    def field(kron_values):
        values = kron_values.reshape(N, k1, N, k1).transpose(0, 2, 1, 3)
        return np.ascontiguousarray(-system.pq_scale * values)

    return MixedSolution2D(U=DGFunction2D(mesh2d, k, u),
                           P=DGFunction2D(mesh2d, k, field(G @ u_kron)),
                           Q=DGFunction2D(mesh2d, k, field(u_kron @ G.T)),
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
