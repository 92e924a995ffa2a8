"""Mixed LDG discretization of -eps u'' + b u = f on a 1D Shishkin mesh.

The numerical fluxes of the first-order system (q = eps u') upwind U from
the left and Q from the right, penalize the boundary traces of U with
weight sqrt(eps) and the jump of Q at the right transition node 3N/4 with
weight 1/sqrt(eps).  In the scaled unknown Qtilde = Q / s, s = sqrt(eps),
and field order [Qtilde; U] the matrix is A0 + e e^T, A0 = [[M/s, D],
[-s D^T, W_b + s E]] block-tridiagonal over cells: numpy builds the
per-cell blocks of the operator pieces (``piece_blocks_1d``) and writes
each nonzero one of A0, with the b-weighted mass W_b, by slices into LAPACK
band storage of bandwidths 2k+1 (cell-major, Q modes before U modes inside
each cell); the 2D scheme builds its flux-eliminated operator from the same
pieces.  The interface penalty e e^T (e = v on the Qtilde dofs of the two
cells at node 3N/4), which would widen the band to 3k+2, is solved by
Sherman-Morrison on the banded LU of A0 (equilibrated by powers of two).
The solve loads scipy.linalg.lapack for dgbsv, and never scipy.sparse.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import ReferenceBasis, assembly_quad_order, gauss_rule, legendre_table
from .dgfunction import DGFunction1D
from .errors import ConfigurationError, SolverError
from .linalg import BandedMatrix, equilibrate, lu_banded_solve

# largest relative residual of the equilibrated system that solve_ldg_1d accepts
_RESIDUAL_TOL = 1e-10


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


@dataclass
class AssembledSystem:
    """Linear system ``matrix`` + e e^T (e = ``interface``) and its Q scale."""

    matrix: BandedMatrix
    rhs: np.ndarray
    q_scale: float
    interface: np.ndarray


@dataclass(frozen=True)
class CellBlocks:
    """Block-tridiagonal matrix over N cells, blocks of shape (N, kk, kk):
    ``diag[c]`` is block (c, c), ``sub[c]`` block (c, c-1) and ``sup[c]``
    block (c-1, c); ``sub[0]`` and ``sup[0]`` are zero."""

    diag: np.ndarray
    sub: np.ndarray
    sup: np.ndarray

    def dot(self, X):
        """The product with X, an array of N kk rows (cell-major)."""
        N, kk, _ = self.diag.shape
        X3 = X.reshape(N, kk, -1)
        out = self.diag @ X3
        out[1:] += self.sub[1:] @ X3[:-1]
        out[:-1] += self.sup[1:] @ X3[1:]
        return out.reshape(X.shape)

    def to_dense(self):
        return self.dot(np.eye(self.diag.shape[0] * self.diag.shape[1]))

    def to_csr(self):
        """The csr matrix of the nonzero entries."""
        import scipy.sparse as sp
        return sp.csr_matrix(self.to_dense())


@dataclass(frozen=True)
class OperatorPieces1D:
    """1D operator pieces over (cell, mode) as ``CellBlocks``, s = sqrt(eps).

    ``mass`` is the modal mass M = diag(h/2 * 2/(2n+1)).  ``derivative`` is
    the h-independent block D = I(x)G - (I - e_N e_N^T)(x)11^T + L(x)alt 1^T
    of (U, r') with the upwinded flux -Uhat [[r]] (L the sub-diagonal shift,
    1 and alt the right and left endpoint values of the modes).
    ``flux_mass`` is the Qtilde block M/s + v v^T, whose rank-one interface
    penalty has v = 1 on cell J and -alt on cell J+1 (J = 3N/4, 1-based).
    ``penalty`` is the boundary term s E, E = e_N e_N^T(x)11^T +
    e_1 e_1^T(x)alt alt^T.  Since G + G^T = 11^T - alt alt^T, the
    (test v, Qtilde) block of the scheme is exactly -s D^T.
    ``interface`` is (J, v).  ``flux_mass`` and ``flux_mass_inv`` are built
    on first read (the 1D solve reads neither); ``flux_mass_inv``, read in
    2D, is the Sherman-Morrison inverse s M^-1 - w w^T / (1 + v^T w),
    w = s M^-1 v: block-diagonal plus one 2-cell block at the interface.
    """

    mass: CellBlocks
    derivative: CellBlocks
    penalty: CellBlocks
    s: float
    interface: tuple

    @cached_property
    def flux_mass(self):
        (J, v), (N, kk, _) = self.interface, self.mass.diag.shape
        vv = np.outer(v, v)
        F = CellBlocks(self.mass.diag * (1.0 / self.s), *np.zeros((2, N, kk, kk)))
        F.diag[J - 1:J + 1] += np.array((vv[:kk, :kk], vv[kk:, kk:]))
        F.sub[J], F.sup[J] = vv[kk:, :kk], vv[:kk, kk:]
        return F

    @cached_property
    def flux_mass_inv(self):
        (J, v), (N, kk, _) = self.interface, self.mass.diag.shape
        inv = self.s / np.diagonal(self.mass.diag, axis1=1, axis2=2)
        w = inv[J - 1:J + 1].ravel() * v
        denom = 1.0 + np.cumsum(v * w)[-1]  # summed left to right, in dof order
        pair = np.diag(inv[J - 1:J + 1].ravel()) - np.outer(w, w) * (1.0 / denom)
        F_inv = CellBlocks(inv[:, :, None] * np.eye(kk), *np.zeros((2, N, kk, kk)))
        F_inv.diag[J - 1], F_inv.diag[J] = pair[:kk, :kk], pair[kk:, kk:]
        F_inv.sub[J], F_inv.sup[J] = pair[kk:, :kk], pair[:kk, kk:]
        return F_inv


def piece_blocks_1d(mesh, k, eps):
    """The ``OperatorPieces1D`` of ``mesh``: the reference blocks broadcast
    over the cells, then the first, last and interface cells written."""
    N, J, kk = mesh.N, mesh.interface_index, k + 1
    basis = ReferenceBasis(k)
    ones, alt = basis.right_values, basis.left_values
    s = float(np.sqrt(eps))
    zero = np.zeros((N, kk, kk))
    M = (0.5 * mesh.widths[:, None] * basis.mass_diag)[:, :, None] * np.eye(kk)
    D, D_sub = zero + (basis.stiffness() - np.outer(ones, ones)), zero + np.outer(alt, ones)
    D[-1], D_sub[0] = basis.stiffness(), 0.0
    E = zero.copy()
    E[-1], E[0] = np.outer(ones, ones), np.outer(alt, alt)
    return OperatorPieces1D(mass=CellBlocks(M, zero, zero), derivative=CellBlocks(D, D_sub, zero),
                            penalty=CellBlocks(s * E, zero, zero), s=s,
                            interface=(J, np.concatenate([ones, -alt])))


def assemble_1d(problem, mesh, k):
    """Assemble the block-banded LDG system for ``problem`` on ``mesh``.

    Volume terms of b and f use (k+3)-point Gauss rules per cell (b and f
    are smooth); mass and derivative couplings are exact in the modal basis.
    """
    if k < 1:
        raise ConfigurationError(f"polynomial degree must be >= 1, got {k}")
    N, kk, per = mesh.N, k + 1, 2 * (k + 1)
    pieces = piece_blocks_1d(mesh, k, problem.eps)
    D, sE, s, (J, v) = pieces.derivative, pieces.penalty, pieces.s, pieces.interface
    rule = gauss_rule(assembly_quad_order(k))
    V, _ = legendre_table(k, rule.points)

    halfh = 0.5 * mesh.widths
    X = mesh.quadrature_points(rule.points)
    bvals = np.asarray(problem.b(X), dtype=float)
    fvals = np.asarray(problem.f(X), dtype=float)
    W = np.einsum("cg,gm,gn->cmn", halfh[:, None] * rule.weights * bvals, V, V)

    # blocks (cell c + d, field a; cell c, field b) of [[M/s, D], [-s D^T, W_b + s E]]
    # written a column at a time (A[i, j] is band[u + i - j, j]); the blocks
    # made of D.sup, in D and in -s D^T, are zero and reach past the band.
    # 0 - s D^T keeps its zeros +0.0, as in a band of zeros.
    u = per - 1
    band = np.zeros((2 * u + 1, N, per))
    for d, a, b, blocks in ((0, 0, 0, pieces.mass.diag * (1.0 / s)), (0, 0, 1, D.diag),
                            (0, 1, 1, W + sE.diag), (0, 1, 0, 0.0 - s * D.diag.swapaxes(1, 2)),
                            (1, 0, 1, D.sub[1:]), (-1, 1, 0, 0.0 - s * D.sub[1:].swapaxes(1, 2))):
        top, cells = u + d * per + (a - b) * kk, slice(max(0, -d), N - max(0, d))
        for q in range(kk):
            band[top - q:top - q + kk, cells, b * kk + q] = blocks[:, :, q].T
    matrix = BandedMatrix(N * per, u, u, band.reshape(2 * u + 1, N * per))

    rhs, e = np.zeros((N, per)), np.zeros((N, per))
    rhs[:, kk:] = halfh[:, None] * ((rule.weights * fvals) @ V)
    e[J - 1:J + 1, :kk] = v.reshape(2, kk)
    return AssembledSystem(matrix=matrix, rhs=rhs.ravel(), q_scale=s, interface=e.ravel())


def solve_ldg_1d(problem, mesh, k):
    """Assemble, equilibrate and solve; returns the mixed solution (U, Q).

    Raises SolverError (carrying the achieved residual) when the relative
    residual of the equilibrated system exceeds ``_RESIDUAL_TOL``.
    """
    system = assemble_1d(problem, mesh, k)
    scaled, r, c, e = *equilibrate(system.matrix), system.interface
    result = lu_banded_solve(scaled, r * system.rhs, update=(r * e, c * e))
    x = c * result.x
    if result.residual > _RESIDUAL_TOL:
        raise SolverError(
            f"banded solve reached residual {result.residual:.3e} > {_RESIDUAL_TOL:.3e}",
            residual=result.residual,
        )
    kk = k + 1
    blocks = x.reshape(mesh.N, 2 * kk)
    Q = DGFunction1D(mesh, k, system.q_scale * blocks[:, :kk].copy())
    U = DGFunction1D(mesh, k, blocks[:, kk:].copy())
    return MixedSolution1D(U=U, Q=Q, residual=result.residual)


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
    vv = X.U.values_at(V)
    return float(np.sum(halfh[:, None] * rule.weights * fvals * vv))
