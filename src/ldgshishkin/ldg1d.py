"""Mixed LDG discretization of -eps u'' + b u = f on a 1D Shishkin mesh.

The numerical fluxes of the first-order system (q = eps u') upwind U from
the left and Q from the right, penalize the boundary traces of U with
weight sqrt(eps) and the jump of Q at the right transition node 3N/4 with
weight 1/sqrt(eps).  In the scaled unknown Qtilde = Q / s, s = sqrt(eps),
the scheme is A x = (0, F) on the fields x = (Qtilde, U),
A = [[F, D], [-s D^T, C]], with the flux mass F = M/s + v v^T (v on the
two cells at node 3N/4) and C = W_b + s E, block-diagonal over cells.  D
is applied matrix-free by the reference element; M, s E, v and the blocks
of K0 = s E + eps D^T M^-1 D are the pieces (``piece_blocks_1d``) from
which both dimensions build their operators.  Eliminating
Qtilde = F^-1 (r_Q - D U) leaves the SPD U-system S = K + W_b, where
K = s E + s D^T F^-1 D = K0 - a g g^T and g spans the three cells around
node 3N/4, so S has half-bandwidth 3k+2.  Both dimensions read K from its
one writer, ``OperatorPieces1D.flux_band``, into LAPACK lower band
storage.  The 1D solve factors S once by banded Cholesky (dpbtrf, dpbtrs;
never scipy.sparse) and refines once against the residual of A.  It
reports, as 2D does, the backward error of S (``AssembledSystem``).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# gauss_rule and legendre_table stay bound: bench/spans.py counts their calls here
from .basis import gauss_rule, legendre_table, reference_blocks_1d
from .dgfunction import DGFunction1D
from .errors import ConfigurationError, SingularMatrixError
# equilibrate and lu_banded_solve stay bound: bench/spans.py times them here
from .linalg import (BandedMatrix, _relative_residual, accept_residual, banded_cholesky,
                     equilibrate, lu_banded_solve)


@dataclass
class MixedSolution1D:
    """The discrete pair (U, Q); ``residual`` is the relative residual of
    the unscaled U-system S at the U that was returned (see ``solve_ldg_1d``)."""

    U: DGFunction1D
    Q: DGFunction1D
    residual: float = 0.0

    def __post_init__(self):
        if self.U.mesh is not self.Q.mesh or self.U.degree != self.Q.degree:
            raise ConfigurationError("U and Q must share mesh and degree")


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
    right and left endpoint values of the modes) is applied by the reference
    element ``ref`` (``reference_blocks_1d(k)``); since G + G^T = 11^T - alt alt^T,
    the (test v, Qtilde) block of the scheme is exactly -s D^T.
    ``eliminated`` holds the blocks of K0 = s E + eps D^T M^-1 D (see
    ``piece_blocks_1d``).  Eliminating Qtilde = -F^-1 D U leaves
    K = s E + s D^T F^-1 D in the U rows of both dimensions, with
    F^-1 = s M^-1 - w w^T / (1 + v^T w), w = s M^-1 v (Sherman-Morrison):
    ``flux_solve`` applies F^-1, ``flux_gradient`` G = F^-1 D,
    ``flux_band`` writes the lower band of K = K0 - a g g^T (a rank-one term
    on three cells) and ``flux_eliminated`` expands it to the dense K.
    """

    m: np.ndarray
    penalty: np.ndarray
    s: float
    interface: tuple
    eliminated: tuple

    @property
    def ref(self):  # the cached reference element of the degree
        return reference_blocks_1d(self.m.shape[1] - 1)

    @cached_property
    def _flux_mass_inverse(self):
        """(minv, w, c): F^-1 = diag(minv) - c w w^T, w on cells J and J+1.
        Raises SingularMatrixError when 1 + v^T w is not finite."""
        (J, v), kk = self.interface, self.m.shape[1]
        minv = self.s / self.m
        w = minv[J - 1:J + 1] * v.reshape(2, kk)
        if not np.isfinite(denom := 1.0 + v @ w.ravel()):
            raise SingularMatrixError(f"flux mass rank-one denominator {denom:.3e}")
        return minv, w, 1.0 / denom

    def flux_solve(self, X):
        """F^-1 X along the last two axes (cell, mode) of X."""
        (J, _), (minv, w, c) = self.interface, self._flux_mass_inverse
        Y, pair = minv * X, X[..., J - 1:J + 1, :]
        Y[..., J - 1:J + 1, :] -= w * (c * np.einsum("...ij,ij->...", pair, w))[..., None, None]
        return Y

    def flux_gradient(self, X):
        """G X = F^-1 D X along the last two axes (cell, mode) of X."""
        return self.flux_solve(self.ref.derivative(X))

    def flux_band(self):
        """A fresh lower band (3k+3, N(k+1)) of K = K0 - a g g^T, K[i, j] at
        band[i - j, j]: column q of cell c holds block (c, c) of K0 from its
        diagonal down, then block (c + 1, c).  s D^T F^-1 D = eps D^T M^-1 D
        - a g g^T with a = s c and g = D^T w on cells J-1..J+1 (w padded with
        cell J+2, if any, so J+1 keeps R).  The slots outside the matrix hold
        zeros."""
        (J, _), (diag, sub), (_, w, c) = self.interface, self.eliminated, self._flux_mass_inverse
        N, kk, _ = diag.shape
        W = np.zeros((min(N, J + 2) - J + 2, kk))
        W[1:3] = w
        g, a = self.ref.derivative_t(W)[:3].ravel(), self.s * c
        band = np.zeros((3 * kk, N, kk))
        for q in range(kk):
            band[:kk - q, :, q] = diag[:, q:, q].T
            band[kk - q:2 * kk - q, :-1, q] = sub.T
        band = band.reshape(3 * kk, N * kk)
        near = band[:, (J - 2) * kk:]  # J+1 <= N: no slot outside the matrix is written
        for d in range(g.size):
            near[d, :g.size - d] -= g[d:] * g[:g.size - d] * a
        return band

    def flux_eliminated(self):
        """K as a dense, exactly symmetric N(k+1)-square matrix, expanded
        from ``flux_band`` diagonal by diagonal."""
        band = self.flux_band()
        n = band.shape[1]
        K = np.zeros((n, n))
        flat = K.ravel()
        for d, diagonal in enumerate(band):  # K[j + d, j] and K[j, j + d]
            flat[d * n::n + 1][:n - d] = diagonal[:n - d]
            flat[d::n + 1][:n - d] = diagonal[:n - d]
        return K


@dataclass
class AssembledSystem:
    """The scheme A x = ``rhs`` and the U-system it is solved through.
    A = [[F, D], [-s D^T, C]], F = M/s + v v^T, acts on the fields
    x = (Qtilde, U), Q = s Qtilde, arrays (..., 2, N, k+1) (field, cell,
    mode), from its cell pieces: M, s, v and the reference element applying
    D from ``pieces``, and ``reaction``, the (N, k+1, k+1) blocks of C.
    ``apply`` and ``solve`` act with A, ``matvec`` and ``frobenius_norm``
    with its Schur complement S = C + s D^T F^-1 D on flattened U.
    ``matrix``, the lower band of S (``lower`` = 3k+2, ``upper`` = 0), gives
    ||S||_F when the system is built; ``solve_ldg_1d`` drops it once
    factored, so the solves reuse its pages."""

    matrix: BandedMatrix
    rhs: np.ndarray
    pieces: OperatorPieces1D
    reaction: np.ndarray

    def __post_init__(self):  # S = L + L^T - diag(L), L the lower triangle in the band
        band = self.matrix.band
        self._frobenius = float(np.sqrt(2.0 * np.vdot(band, band) - np.vdot(band[0], band[0])))

    def apply(self, X):
        p, Q, U = self.pieces, X[..., 0, :, :], X[..., 1, :, :]
        (J, v), AX = p.interface, np.empty_like(X)
        AX[..., 0, :, :] = p.m * (1.0 / p.s) * Q + p.ref.derivative(U)
        v = v.reshape(2, -1)  # v v^T on cells J and J+1
        AX[..., 0, J - 1:J + 1, :] += v * np.einsum("...ij,ij->...", Q[..., J - 1:J + 1, :],
                                                     v)[..., None, None]
        AX[..., 1, :, :] = (np.einsum("cpq,...cq->...cp", self.reaction, U)
                            - p.s * p.ref.derivative_t(Q))
        return AX

    def solve(self, cholesky, R):
        """A^-1 R for the fields R (2, N, k+1), through S factored by
        ``cholesky`` (a ``banded_cholesky`` solve): U solves
        S U = R_U + s D^T F^-1 R_Q, then Qtilde = F^-1 (R_Q - D U)."""
        p, (RQ, RU), X = self.pieces, R, np.empty_like(R)
        X[1] = cholesky((RU + p.s * p.ref.derivative_t(p.flux_solve(RQ))).ravel()).reshape(RU.shape)
        X[0] = p.flux_solve(RQ - p.ref.derivative(X[1]))
        return X

    def matvec(self, u):
        p, U = self.pieces, u.reshape(self.pieces.m.shape)
        SU = np.einsum("cpq,cq->cp", self.reaction, U)
        SU += p.s * p.ref.derivative_t(p.flux_gradient(U))
        return SU.ravel()

    def frobenius_norm(self):
        return self._frobenius


def piece_blocks_1d(mesh, k, eps):
    """The ``OperatorPieces1D`` of ``mesh``: the mass diagonal, the penalty
    blocks on the first and last cells, the interface vector, and K0 by
    cell blocks (diag, sub): the blocks (c, c) and the (N-1, k+1) vectors
    of the rank-one blocks (c+1, c) = sub[c] 1^T.  With M^-1 = diag(1/m)
    / halfh on each cell, D has R (G on the last cell) on the diagonal and
    alt 1^T below it, and alt^T diag(1/m) alt = sum(1/m), so block (c, c)
    is s E_c + eps/halfh_c R^T diag(1/m) R, plus eps/halfh_{c+1} sum(1/m)
    1 1^T on all cells but the last, and sub[c] is eps/halfh_{c+1} R^T
    diag(1/m) alt (G^T for the last cell).  R and G hold integers and 1/m
    half-integers, so the blocks are exactly symmetric.  Both dimensions
    check their degree k >= 1 here.
    """
    if k < 1:
        raise ConfigurationError(f"polynomial degree must be >= 1, got {k}")
    ref, s, halfh = reference_blocks_1d(k), float(np.sqrt(eps)), 0.5 * mesh.widths
    scale = eps / halfh
    sE = np.zeros((mesh.N, k + 1, k + 1))
    sE[-1], sE[0] = s * ref.E_last, s * ref.E_first
    K0 = scale[:, None, None] * ref.RMR
    K0 += sE
    K0[-1] = sE[-1] + scale[-1] * ref.GMG
    K0[:-1] += (scale[1:] * ref.minv_sum)[:, None, None]
    sub = scale[1:, None] * ref.RMalt
    sub[-1] = scale[-1] * ref.GMalt
    return OperatorPieces1D(m=halfh[:, None] * ref.mass, penalty=sE, s=s,
                            interface=(mesh.interface_index, np.concatenate([ref.ones, -ref.alt])),
                            eliminated=(K0, sub))


def assemble_1d(problem, mesh, k):
    """Assemble the LDG system for ``problem`` on ``mesh`` and its U-system S.

    Volume terms of b and f use (k+3)-point Gauss rules per cell (b and f
    are smooth); mass and derivative couplings are exact in the modal basis.
    """
    pieces = piece_blocks_1d(mesh, k, problem.eps)
    N, kk, ref, halfh = mesh.N, k + 1, pieces.ref, 0.5 * mesh.widths
    X = mesh.quadrature_points(ref.points)
    bvals = np.asarray(problem.b(X), dtype=float)
    fvals = np.asarray(problem.f(X), dtype=float)
    W = ((halfh[:, None] * ref.weights * bvals) @ ref.VV).reshape(N, kk, kk)

    band = pieces.flux_band()  # S = K + W_b: W_b's blocks (c, c) in place
    cells = band.reshape(3 * kk, N, kk)
    for q in range(kk):
        cells[:kk - q, :, q] += W[:, q:, q].T
    matrix = BandedMatrix(N * kk, 3 * kk - 1, 0, band)

    W[::N - 1] += pieces.penalty[::N - 1]  # C = W_b + s E in place: cells 1 and N
    rhs = np.zeros((2, N, kk))
    rhs[1] = halfh[:, None] * ((ref.weights * fvals) @ ref.V)
    return AssembledSystem(matrix=matrix, rhs=rhs.ravel(), pieces=pieces, reaction=W)


def solve_ldg_1d(problem, mesh, k):
    """Assemble and solve; returns the mixed solution (U, Q).

    S is factored once and solves A once; one step of iterative refinement
    against the residual of A always follows: S's condition grows like N^2,
    and without the step U can be off by about 1e-11 relative.  The
    reported residual is that of the unscaled U-system S at U, gated by
    ``linalg.accept_residual`` (SolverError, carrying it);
    SingularMatrixError is raised when S is not positive definite, the
    flux mass has no finite inverse, or the solve gives non-finite values.
    """
    A = assemble_1d(problem, mesh, k)
    cholesky, A.matrix = banded_cholesky(A.matrix), None  # the band goes once factored
    b = A.rhs.reshape(2, mesh.N, k + 1)
    x = A.solve(cholesky, b)
    x += A.solve(cholesky, b - A.apply(x))
    Qt, U = x
    residual = accept_residual(_relative_residual(A, U.ravel(), b[1].ravel()), "1D solve")
    return MixedSolution1D(U=DGFunction1D(mesh, k, U), Q=DGFunction1D(mesh, k, A.pieces.s * Qt),
                           residual=residual)
