"""Mixed LDG discretization of -eps u'' + b u = f on a 1D Shishkin mesh.

The numerical fluxes of the first-order system (q = eps u') upwind U from
the left and Q from the right, penalize the boundary traces of U with
weight sqrt(eps) and the jump of Q at the right transition node 3N/4 with
weight 1/sqrt(eps).  In the scaled unknown Qtilde = Q / s, s = sqrt(eps),
and field order [Qtilde; U] the matrix is [[M/s + v v^T, D],
[-s D^T, W_b + s E]]: sparse operator pieces over (cell, mode) (see
``OperatorPieces1D``) plus the b-weighted mass W_b, with no loop over
cells; Kronecker products of the same pieces build the 2D matrix.  The
interface term v v^T couples the Q unknowns of the two cells that share
the transition node, so the whole system is solved monolithically
(block-banded, cell-major ordering with Q modes before U modes inside each
cell).  Rows and columns are equilibrated by powers of two before
factorization, and the solution is unscaled on return.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import ReferenceBasis, assembly_quad_order, gauss_rule, legendre_table
from .dgfunction import DGFunction1D
from .errors import ConfigurationError, SolverError
from .linalg import BandedMatrix, equilibrate, lu_banded_solve


@dataclass(frozen=True)
class FluxParams:
    """Flux penalty weights: lambda_0 = lambda_N = sqrt(eps) at the domain
    boundary, lambda_q = 1/sqrt(eps) at the penalized interface node 3N/4.
    The 2D scheme uses the same weights on each axis."""

    lambda_0: float
    lambda_N: float
    lambda_q: float
    interface_index: int

    @classmethod
    def for_problem(cls, eps, N):
        root = float(np.sqrt(eps))
        return cls(lambda_0=root, lambda_N=root, lambda_q=1.0 / root,
                   interface_index=3 * N // 4)


@dataclass
class MixedSolution1D:
    """The discrete pair (U, Q); ``residual`` is the relative residual of
    the equilibrated linear system that produced it."""

    U: DGFunction1D
    Q: DGFunction1D
    residual: float = 0.0

    def __post_init__(self):
        if self.U.mesh is not self.Q.mesh or self.U.degree != self.Q.degree:
            raise ConfigurationError("U and Q must share mesh and degree")


class _Layout1D:
    """Cell-major dof layout: [Qtilde modes | U modes] per cell."""

    def __init__(self, N, k):
        self.N = N
        self.k = k
        self.per_cell = 2 * (k + 1)
        self.n = N * self.per_cell

    def q_index(self, cell_row, mode):
        return cell_row * self.per_cell + mode

    def u_index(self, cell_row, mode):
        return cell_row * self.per_cell + (self.k + 1) + mode


@dataclass
class AssembledSystem:
    """Assembled linear system plus the metadata needed to undo scaling."""

    matrix: BandedMatrix
    rhs: np.ndarray
    layout: _Layout1D
    q_scale: float
    flux: FluxParams


@dataclass(frozen=True)
class OperatorPieces1D:
    """Sparse 1D operator pieces over (cell, mode), cell-major, s = sqrt(eps).

    ``mass`` is the modal mass M = diag(h/2 * 2/(2n+1)).  ``derivative`` is
    the h-independent block D = I(x)G - (I - e_N e_N^T)(x)11^T + L(x)alt 1^T
    of (U, r') with the upwinded flux -Uhat [[r]] (L the sub-diagonal shift,
    1 and alt the right and left endpoint values of the modes).
    ``flux_mass`` is the Qtilde block M/s + v v^T, whose rank-one interface
    penalty has v = 1 on cell J and -alt on cell J+1 (J = 3N/4, 1-based).
    ``penalty`` is the boundary term s E, E = e_N e_N^T(x)11^T +
    e_1 e_1^T(x)alt alt^T.  Since G + G^T = 11^T - alt alt^T, the
    (test v, Qtilde) block of the scheme is exactly -s D^T.
    ``flux_mass_inv`` is the Sherman-Morrison inverse of ``flux_mass``,
    s M^-1 - w w^T / (1 + v^T w), w = s M^-1 v: block-diagonal plus one
    2-cell block at the interface.
    """

    mass: sp.csr_matrix
    derivative: sp.csr_matrix
    flux_mass: sp.csr_matrix
    flux_mass_inv: sp.csr_matrix
    penalty: sp.csr_matrix
    s: float


def operator_pieces_1d(mesh, k, eps):
    """The 1D pieces from which both the 1D and the 2D systems are built."""
    N = mesh.N
    basis = ReferenceBasis(k)
    ones, alt = basis.right_values, basis.left_values
    s = float(np.sqrt(eps))
    J = mesh.interface_index

    def unit(i):  # i-th unit column of length N
        return sp.csr_matrix(([1.0], ([i], [0])), shape=(N, 1))

    def corner(i):  # e_i e_i^T
        return unit(i) @ unit(i).T

    mass = sp.diags((0.5 * mesh.widths[:, None] * basis.mass_diag).ravel(), format="csr")
    derivative = (
        sp.kron(sp.identity(N), basis.stiffness())
        - sp.kron(sp.identity(N) - corner(N - 1), np.outer(ones, ones))
        + sp.kron(sp.eye(N, k=-1), np.outer(alt, ones))
    ).tocsr()
    v = sp.kron(unit(J - 1), ones[:, None]) - sp.kron(unit(J), alt[:, None])
    flux_mass = (mass / s + v @ v.T).tocsr()
    inv_scaled_mass = sp.diags(s / mass.diagonal())
    w = inv_scaled_mass @ v
    denom = 1.0 + (v.T @ w).toarray().item()
    flux_mass_inv = (inv_scaled_mass - (w @ w.T) / denom).tocsr()
    penalty = s * (sp.kron(corner(N - 1), np.outer(ones, ones))
                   + sp.kron(corner(0), np.outer(alt, alt))).tocsr()
    return OperatorPieces1D(mass=mass, derivative=derivative, flux_mass=flux_mass,
                            flux_mass_inv=flux_mass_inv, penalty=penalty, s=s)


def assemble_1d(problem, mesh, k, quad=None):
    """Assemble the block-banded LDG system for ``problem`` on ``mesh``.

    Volume terms of b and f use (k+3)-point Gauss rules per cell (b and f
    are smooth); mass and derivative couplings are exact in the modal basis.
    """
    if k < 1:
        raise ConfigurationError(f"polynomial degree must be >= 1, got {k}")
    N = mesh.N
    eps = problem.eps
    flux = FluxParams.for_problem(eps, N)
    layout = _Layout1D(N, k)
    pieces = operator_pieces_1d(mesh, k, eps)
    s = pieces.s
    quad = quad or assembly_quad_order(k)
    rule = gauss_rule(quad)
    V, _ = legendre_table(k, rule.points)

    halfh = 0.5 * mesh.widths
    X = mesh.quadrature_points(rule.points)
    bvals = np.asarray(problem.b(X), dtype=float)
    fvals = np.asarray(problem.f(X), dtype=float)
    W = np.einsum("cg,gm,gn->cmn", halfh[:, None] * rule.weights * bvals, V, V)
    reaction = sp.bsr_matrix((W, np.arange(N), np.arange(N + 1)))

    A = sp.bmat([[pieces.flux_mass, pieces.derivative],
                 [-s * pieces.derivative.T, reaction + pieces.penalty]], format="coo")
    # field order (Qtilde cells, then U cells) -> cell-interleaved layout
    cells, modes = np.arange(N)[:, None], np.arange(k + 1)
    q_dofs = layout.q_index(cells, modes)
    u_dofs = layout.u_index(cells, modes)
    order = np.concatenate([q_dofs.ravel(), u_dofs.ravel()])
    matrix = BandedMatrix.from_coo(layout.n, order[A.row], order[A.col], A.data)

    rhs = np.zeros(layout.n)
    rhs[u_dofs] = halfh[:, None] * ((rule.weights * fvals) @ V)
    return AssembledSystem(matrix=matrix, rhs=rhs, layout=layout, q_scale=s, flux=flux)


def solve_ldg_1d(problem, mesh, k, quad=None, residual_tol=1e-10):
    """Assemble, equilibrate and solve; returns the mixed solution (U, Q).

    Raises SolverError (carrying the achieved residual) when the relative
    residual of the equilibrated system exceeds ``residual_tol``.
    """
    system = assemble_1d(problem, mesh, k, quad=quad)
    scaled, r, c = equilibrate(system.matrix)
    result = lu_banded_solve(scaled, r * system.rhs)
    x = c * result.x
    if result.residual > residual_tol:
        raise SolverError(
            f"banded solve reached residual {result.residual:.3e} > {residual_tol:.3e}",
            residual=result.residual,
        )
    layout = system.layout
    per, kk = layout.per_cell, k + 1
    blocks = x.reshape(mesh.N, per)
    Q = DGFunction1D(mesh, k, system.q_scale * blocks[:, :kk].copy())
    U = DGFunction1D(mesh, k, blocks[:, kk:].copy())
    return MixedSolution1D(U=U, Q=Q, residual=result.residual)


def bilinear_form_1d(W, X, problem, mesh, quad=None):
    """Evaluate the compact-form bilinear map B(W; X) by direct quadrature.

    This path is independent of the assembled matrix (volume terms are
    re-integrated, traces re-evaluated), so agreement of B(W; X) with
    <f, v> on the computed solution cross-checks the assembly.
    """
    k = W.U.degree
    eps = problem.eps
    N = mesh.N
    flux = FluxParams.for_problem(eps, N)
    quad = quad or assembly_quad_order(k)
    rule = gauss_rule(quad)
    V, D = legendre_table(k, rule.points)
    halfh = 0.5 * np.diff(mesh.nodes)
    Xpts = mesh.quadrature_points(rule.points)
    bvals = np.asarray(problem.b(Xpts), dtype=float)

    Qv = W.Q.values_at(V)      # (N, nq)
    Uv = W.U.values_at(V)
    rv = X.Q.values_at(V)
    vv = X.U.values_at(V)
    r_dref = X.Q.values_at(D)  # reference derivative; physical = 2/h * this
    v_dref = X.U.values_at(D)

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
    # boundary penalties on the U jumps
    total += flux.lambda_0 * (-U_left[0]) * (-v_left[0])
    total += flux.lambda_N * U_right[-1] * v_right[-1]
    # interface penalty on the Q jump at node 3N/4
    J = flux.interface_index
    total += flux.lambda_q * (Q_right[J - 1] - Q_left[J]) * (r_right[J - 1] - r_left[J])
    return float(total)


def load_functional_1d(f, X, mesh, quad=None):
    """<f, v_X> for the test pair X = (r, v); companion of bilinear_form_1d."""
    k = X.U.degree
    quad = quad or assembly_quad_order(k)
    rule = gauss_rule(quad)
    V, _ = legendre_table(k, rule.points)
    halfh = 0.5 * np.diff(mesh.nodes)
    Xpts = mesh.quadrature_points(rule.points)
    fvals = np.asarray(f(Xpts), dtype=float)
    vv = X.U.values_at(V)
    return float(np.sum(halfh[:, None] * rule.weights * fvals * vv))
