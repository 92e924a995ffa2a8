"""Mixed LDG discretization of -eps u'' + b u = f on a 1D Shishkin mesh.

The numerical fluxes of the first-order system (q = eps u') upwind U from
the left and Q from the right, penalize the boundary traces of U with
weight sqrt(eps) and the jump of Q at the right transition node 3N/4 with
weight 1/sqrt(eps).  In the scaled unknown Qtilde = Q / s, s = sqrt(eps),
the scheme is (A0 + e e^T) x = (0, F) on the fields x = (Qtilde, U), with
A0 = [[M/s, D], [-s D^T, C]], C = W_b + s E, block-tridiagonal over cells,
and e = v on the Qtilde dofs of the two cells at node 3N/4.  D is applied
matrix-free by the reference element; M, s E and v are the pieces
(``piece_blocks_1d``) from which the 2D scheme builds its operator.
M is diagonal, so Qtilde = s M^-1 (r_Q - D U) is eliminated: the U-system
S0 = C + eps D^T M^-1 D is SPD and block-tridiagonal, and its blocks,
closed-form products of the reference blocks (``eliminated_blocks_1d``,
which the 2D scheme shares), are written straight into LAPACK lower band
storage (half-bandwidth 2k+1).  The solve factors S0 once
by banded Cholesky, adds e e^T by Sherman-Morrison and makes one step of
iterative refinement against the residual of A0 + e e^T.  It loads
scipy.linalg.lapack (dpbtrf, dpbtrs), and never scipy.sparse.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# gauss_rule and legendre_table stay bound: bench/spans.py counts their calls here
from .basis import gauss_rule, legendre_table, reference_blocks_1d
from .dgfunction import DGFunction1D
from .errors import ConfigurationError, SolverError
# equilibrate and lu_banded_solve stay bound: bench/spans.py times them here
from .linalg import (BandedMatrix, _relative_residual, banded_cholesky, equilibrate,
                     lu_banded_solve, sherman_morrison)

# largest relative residual of the unscaled A0 + e e^T that solve_ldg_1d accepts
_RESIDUAL_TOL = 1e-10


@dataclass
class MixedSolution1D:
    """The discrete pair (U, Q); ``residual`` is the relative residual of
    the unscaled system A0 + e e^T at the solution that was returned."""

    U: DGFunction1D
    Q: DGFunction1D
    residual: float = 0.0

    def __post_init__(self):
        if self.U.mesh is not self.Q.mesh or self.U.degree != self.Q.degree:
            raise ConfigurationError("U and Q must share mesh and degree")


class MixedOperator1D:
    """A = A0 + e e^T, A0 = [[M/s, D], [-s D^T, C]], on fields (Qtilde, U),
    arrays of shape (..., 2, N, k+1) (field, cell, mode), applied from its
    cell pieces: ``mass`` is the diagonal of M, ``reaction`` the
    (N, k+1, k+1) blocks of C, and D (see ``OperatorPieces1D``) is applied
    by the reference blocks ``ref``.  ``interface`` is e, flattened and
    nonzero on Qtilde dofs only.  ``apply`` and ``solve_a0`` act with A0;
    ``matvec`` and ``frobenius_norm`` are those of A on the flattened
    fields, as the residual reads them."""

    def __init__(self, mass, reaction, interface, s):
        self.mass, self.reaction, self.interface, self.s = mass, reaction, interface, s
        self.ref = reference_blocks_1d(mass.shape[1] - 1)

    def apply(self, X):
        Q, U = X[..., 0, :, :], X[..., 1, :, :]
        AX = np.empty_like(X)
        AX[..., 0, :, :] = self.mass * (1.0 / self.s) * Q + self.ref.derivative(U)
        AX[..., 1, :, :] = (np.einsum("cpq,...cq->...cp", self.reaction, U)
                            - self.s * self.ref.derivative_t(Q))
        return AX

    def solve_a0(self, cholesky, R):
        """A0^-1 R for the flattened fields in the rows of R, (m, 2n), through
        S0 factored by ``cholesky`` (a ``banded_cholesky`` solve): U solves
        S0 U = R_U + s D^T (s M^-1 R_Q), then Qtilde = s M^-1 (R_Q - D U)."""
        m, (N, kk) = R.shape[0], self.mass.shape
        RQ, RU = R.reshape(m, 2, N, kk).swapaxes(0, 1)
        minv = self.s / self.mass
        rhs = RU + self.s * self.ref.derivative_t(minv * RQ)
        X = np.empty((m, 2, N, kk))
        X[:, 1] = cholesky(rhs.reshape(m, N * kk).T).T.reshape(m, N, kk)
        X[:, 0] = minv * (RQ - self.ref.derivative(X[:, 1]))
        return X.reshape(R.shape)

    def matvec(self, x):
        e = self.interface
        Ax = self.apply(x.reshape(2, *self.mass.shape)).ravel()
        Ax += e * (e @ x)
        return Ax

    def frobenius_norm(self):
        N, (R, G), s = self.mass.shape[0], (self.ref.R, self.ref.G), self.s
        # D: N-1 diagonal blocks R, the last G, N-1 blocks alt 1^T below
        D2 = (N - 1) * (np.vdot(R, R) + R.size) + np.vdot(G, G)
        A0 = np.vdot(self.mass, self.mass) / s**2 + (1.0 + s**2) * D2 + np.vdot(
            self.reaction, self.reaction)
        # ||A0 + e e^T||^2 = ||A0||^2 + 2 e^T A0 e + ||e||^4, where
        # e^T A0 e = e^T (M/s) e since e lives on Qtilde
        eQ = self.interface[:self.mass.size]
        return float(np.sqrt(A0 + 2.0 * (eQ * self.mass.ravel()) @ eQ / s + (eQ @ eQ)**2))


@dataclass
class AssembledSystem:
    """The scheme A x = ``rhs``, A = ``operator`` = A0 + e e^T, on the
    flattened fields x = (Qtilde, U) of ``MixedOperator1D``, and the
    U-system it is solved through: ``matrix`` is S0 = C + eps D^T M^-1 D by
    its lower band (``lower`` = 2k+1, ``upper`` = 0).  Q = s Qtilde, s = ``operator.s``."""

    matrix: BandedMatrix
    operator: MixedOperator1D
    rhs: np.ndarray


def eliminated_blocks_1d(base, halfh, eps):
    """base + eps D^T M^-1 D by cell blocks, for symmetric (N, kk, kk)
    diagonal blocks ``base`` and M^-1 = diag(1/m) / halfh on each cell:
    returns (diag, sub), the blocks (c, c) and the (N-1, kk) vectors of the
    rank-one blocks (c+1, c) = sub[c] 1^T.  D has R (G on the last cell) on
    the diagonal and alt 1^T below it, and alt^T diag(1/m) alt = sum(1/m),
    so block (c, c) adds eps/halfh_c R^T diag(1/m) R, and on all cells but
    the last eps/halfh_{c+1} sum(1/m) 1 1^T, and sub[c] is
    eps/halfh_{c+1} R^T diag(1/m) alt (G^T for the last cell).  R and G
    hold integers and 1/m half-integers, so the blocks are exactly symmetric.
    """
    N, kk = base.shape[:2]
    ref = reference_blocks_1d(kk - 1)
    R, G, minv, scale = ref.R, ref.G, 1.0 / ref.mass, eps / halfh
    S = base + scale[:, None, None] * (R.T @ (minv[:, None] * R))
    S[-1] = base[-1] + scale[-1] * (G.T @ (minv[:, None] * G))
    S[:-1] += (scale[1:] * minv.sum())[:, None, None]
    sub = np.empty((N - 1, kk))
    sub[:], sub[-1] = R.T @ (minv * ref.alt), G.T @ (minv * ref.alt)
    sub *= scale[1:, None]
    return S, sub


@dataclass(frozen=True)
class OperatorPieces1D:
    """1D operator pieces over (cell, mode), s = sqrt(eps).

    ``m`` (N, k+1) is the diagonal of the modal mass M = diag(h/2 * 2/(2n+1)),
    ``penalty`` the (N, k+1, k+1) diagonal blocks of the boundary term s E,
    E = e_N e_N^T(x)11^T + e_1 e_1^T(x)alt alt^T, and ``interface`` (J, v)
    the rank-one interface penalty of the flux mass F = M/s + v v^T, v = 1
    on cell J and -alt on cell J+1 (J = 3N/4, 1-based).  The h-independent
    block D = I(x)G - (I - e_N e_N^T)(x)11^T + L(x)alt 1^T of (U, r') with
    the upwinded flux -Uhat [[r]] (L the sub-diagonal shift, 1 and alt the
    right and left endpoint values of the modes) is applied by
    ``reference_blocks_1d(k).derivative``; since G + G^T = 11^T - alt alt^T,
    the (test v, Qtilde) block of the scheme is exactly -s D^T.
    ``eliminated`` holds the blocks of K0 = s E + eps D^T M^-1 D
    (``eliminated_blocks_1d``).  Eliminating Qtilde = -F^-1 D U leaves
    K = s E + s D^T F^-1 D in the U rows, with F^-1 = s M^-1 - w w^T / (1 + v^T w),
    w = s M^-1 v (Sherman-Morrison): ``flux_gradient`` applies G = F^-1 D
    and ``flux_eliminated`` forms K.
    """

    m: np.ndarray
    penalty: np.ndarray
    s: float
    interface: tuple
    eliminated: tuple

    @cached_property
    def _flux_mass_inverse(self):
        """(minv, w, c): F^-1 = diag(minv) - c w w^T, w on cells J and J+1."""
        (J, v), kk = self.interface, self.m.shape[1]
        minv = self.s / self.m
        w = minv[J - 1:J + 1] * v.reshape(2, kk)
        return minv, w, 1.0 / (1.0 + v @ w.ravel())

    def flux_gradient(self, X):
        """G X = F^-1 D X along the last two axes (cell, mode) of X."""
        (J, _), (minv, w, c) = self.interface, self._flux_mass_inverse
        DX = reference_blocks_1d(minv.shape[1] - 1).derivative(X)
        Y, pair = minv * DX, DX[..., J - 1:J + 1, :]
        Y[..., J - 1:J + 1, :] -= w * (c * np.einsum("...ij,ij->...", pair, w))[..., None, None]
        return Y

    def flux_eliminated(self):
        """K as a dense, exactly symmetric N(k+1)-square matrix: K0 less
        s c g g^T, g = D^T w, which lives on cells J-1, J and J+1."""
        (J, _), (diag, sub), (_, w, c) = self.interface, self.eliminated, self._flux_mass_inverse
        N, kk, _ = diag.shape
        # blocks (c, c) = diag[c], (c+1, c) = sub[c] 1^T and (c, c+1) its transpose
        cells, K4 = np.arange(N), np.zeros((N, kk, N, kk))
        K4[cells, :, cells] = diag
        K4[cells[1:], :, cells[:-1]] = sub[:, :, None]
        K4[cells[:-1], :, cells[1:]] = sub[:, None, :]
        K, W = K4.reshape(N * kk, N * kk), np.zeros((N, kk))
        W[J - 1:J + 1] = w
        g = reference_blocks_1d(kk - 1).derivative_t(W)[J - 2:J + 1].ravel()
        near = slice((J - 2) * kk, (J + 1) * kk)
        K[near, near] -= np.outer(g, g) * (self.s * c)
        return K


def piece_blocks_1d(mesh, k, eps):
    """The ``OperatorPieces1D`` of ``mesh``: the mass diagonal, the penalty
    blocks on the first and last cells and the interface vector."""
    ref, s = reference_blocks_1d(k), float(np.sqrt(eps))
    sE = np.zeros((mesh.N, k + 1, k + 1))
    sE[-1], sE[0] = s * np.outer(ref.ones, ref.ones), s * np.outer(ref.alt, ref.alt)
    return OperatorPieces1D(m=0.5 * mesh.widths[:, None] * ref.mass, penalty=sE, s=s,
                            interface=(mesh.interface_index, np.concatenate([ref.ones, -ref.alt])),
                            eliminated=eliminated_blocks_1d(sE, 0.5 * mesh.widths, eps))


def assemble_1d(problem, mesh, k):
    """Assemble the LDG system for ``problem`` on ``mesh`` and its U-system S0.

    Volume terms of b and f use (k+3)-point Gauss rules per cell (b and f
    are smooth); mass and derivative couplings are exact in the modal basis.
    """
    if k < 1:
        raise ConfigurationError(f"polynomial degree must be >= 1, got {k}")
    N, J, kk, ref = mesh.N, mesh.interface_index, k + 1, reference_blocks_1d(k)
    s = float(np.sqrt(problem.eps))
    halfh = 0.5 * mesh.widths
    X = mesh.quadrature_points(ref.points)
    bvals = np.asarray(problem.b(X), dtype=float)
    fvals = np.asarray(problem.f(X), dtype=float)
    C = ((halfh[:, None] * ref.weights * bvals) @ ref.VV).reshape(N, kk, kk)
    C[0] += s * np.outer(ref.alt, ref.alt)
    C[-1] += s * np.outer(ref.ones, ref.ones)

    S, sub = eliminated_blocks_1d(C, halfh, problem.eps)

    # lower band storage, S0[i, j] at band[i - j, j]: column q of cell c
    # holds block (c, c) from its diagonal down, then block (c + 1, c)
    band = np.zeros((2 * kk, N, kk))
    for q in range(kk):
        band[:kk - q, :, q] = S[:, q:, q].T
        band[kk - q:2 * kk - q, :-1, q] = sub.T
    matrix = BandedMatrix(N * kk, 2 * kk - 1, 0, band.reshape(2 * kk, N * kk))

    rhs, e = np.zeros((2, 2, N, kk))
    rhs[1] = halfh[:, None] * ((ref.weights * fvals) @ ref.V)
    e[0, J - 1], e[0, J] = ref.ones, -ref.alt
    operator = MixedOperator1D(halfh[:, None] * ref.mass, C, e.ravel(), s)
    return AssembledSystem(matrix=matrix, operator=operator, rhs=rhs.ravel())


def solve_ldg_1d(problem, mesh, k):
    """Assemble and solve; returns the mixed solution (U, Q).

    S0 is factored once; one two-column solve gives A0^-1 rhs and A0^-1 e,
    and Sherman-Morrison adds e e^T.  One step of iterative refinement
    against the residual of A0 + e e^T always follows: S0's condition grows
    like N^2, and without the step U can be off by about 1e-11 relative.
    Raises SolverError (carrying the achieved residual) when the relative
    residual of the unscaled A0 + e e^T exceeds ``_RESIDUAL_TOL``, and
    SingularMatrixError when S0 is not positive definite or the solve gives
    non-finite values.
    """
    system = assemble_1d(problem, mesh, k)
    A, b = system.operator, system.rhs
    e, cholesky = A.interface, banded_cholesky(system.matrix)
    y, z = A.solve_a0(cholesky, np.array((b, e)))
    x = sherman_morrison(y, z, e)
    x += sherman_morrison(A.solve_a0(cholesky, (b - A.matvec(x))[None])[0], z, e)
    residual = _relative_residual(A, x, b)
    if residual > _RESIDUAL_TOL:
        raise SolverError(
            f"1D solve reached residual {residual:.3e} > {_RESIDUAL_TOL:.3e}",
            residual=residual,
        )
    Qt, U = x.reshape(2, mesh.N, k + 1)
    return MixedSolution1D(U=DGFunction1D(mesh, k, U), Q=DGFunction1D(mesh, k, A.s * Qt),
                           residual=residual)

