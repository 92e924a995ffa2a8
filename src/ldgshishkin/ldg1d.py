"""Mixed LDG discretization of -eps u'' + b u = f on a 1D Shishkin mesh.

The numerical fluxes of the first-order system (q = eps u') upwind U from
the left and Q from the right, penalize the boundary traces of U with
weight sqrt(eps) and the jump of Q at the right transition node 3N/4 with
weight 1/sqrt(eps).  In the scaled unknown Qtilde = Q / s, s = sqrt(eps),
the scheme is (A0 + e e^T) x = (0, F) on the fields x = (Qtilde, U), with
A0 = [[M/s, D], [-s D^T, C]], C = W_b + s E, block-tridiagonal over cells,
and e = v on the Qtilde dofs of the two cells at node 3N/4.  D is applied
matrix-free by the reference element; M, s E, v and the blocks of
K0 = s E + eps D^T M^-1 D are the pieces (``piece_blocks_1d``) from which
both dimensions build their operators.  M is diagonal, so
Qtilde = s M^-1 (r_Q - D U) is eliminated: S0 = K0 + W_b is SPD and
block-tridiagonal, and its blocks are written straight into LAPACK lower
band storage (half-bandwidth 2k+1).  The solve factors S0 once by banded
Cholesky (dpbtrf, dpbtrs; never scipy.sparse), adds e e^T by
Sherman-Morrison and refines once against the residual of A0 + e e^T.  It
reports, as 2D does, the backward error of the U-system S = S0 - s c g g^T,
the Schur complement of A0 + e e^T (``AssembledSystem``).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# gauss_rule and legendre_table stay bound: bench/spans.py counts their calls here
from .basis import gauss_rule, legendre_table, reference_blocks_1d
from .dgfunction import DGFunction1D
from .errors import ConfigurationError
# equilibrate and lu_banded_solve stay bound: bench/spans.py times them here
from .linalg import (BandedMatrix, _relative_residual, accept_residual, banded_cholesky,
                     equilibrate, lu_banded_solve, sherman_morrison)


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
    ``piece_blocks_1d``); the 1D U-system is S0 = K0 + W_b.  In 2D,
    eliminating Qtilde = -F^-1 D U leaves K = s E + s D^T F^-1 D in the U
    rows, with F^-1 = s M^-1 - w w^T / (1 + v^T w), w = s M^-1 v
    (Sherman-Morrison): ``flux_gradient`` applies G = F^-1 D, ``interface_gradient``
    gives the rank-one term and ``flux_eliminated`` forms K.
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
        """(minv, w, c): F^-1 = diag(minv) - c w w^T, w on cells J and J+1."""
        (J, v), kk = self.interface, self.m.shape[1]
        minv = self.s / self.m
        w = minv[J - 1:J + 1] * v.reshape(2, kk)
        return minv, w, 1.0 / (1.0 + v @ w.ravel())

    def flux_gradient(self, X):
        """G X = F^-1 D X along the last two axes (cell, mode) of X."""
        (J, _), (minv, w, c) = self.interface, self._flux_mass_inverse
        DX = self.ref.derivative(X)
        Y, pair = minv * DX, DX[..., J - 1:J + 1, :]
        Y[..., J - 1:J + 1, :] -= w * (c * np.einsum("...ij,ij->...", pair, w))[..., None, None]
        return Y

    @cached_property
    def interface_gradient(self):
        """(g, a): s D^T F^-1 D = eps D^T M^-1 D - a g g^T, a = s c, and g = D^T w on
        cells J-1..J+1, flattened; w is padded with cell J+2, if any, so J+1 keeps R."""
        (J, _), (_, w, c), N = self.interface, self._flux_mass_inverse, self.m.shape[0]
        W = np.zeros((min(N, J + 2) - J + 2, w.shape[1]))
        W[1:3] = w
        return self.ref.derivative_t(W)[:3].ravel(), self.s * c

    def flux_eliminated(self):
        """K as a dense, exactly symmetric N(k+1)-square matrix: K0 less
        a g g^T (``interface_gradient``)."""
        (J, _), (diag, sub), (g, a) = self.interface, self.eliminated, self.interface_gradient
        N, kk, _ = diag.shape
        # blocks (c, c) = diag[c], (c+1, c) = sub[c] 1^T and (c, c+1) its transpose
        cells, K4 = np.arange(N), np.zeros((N, kk, N, kk))
        K4[cells, :, cells] = diag
        K4[cells[1:], :, cells[:-1]] = sub[:, :, None]
        K4[cells[:-1], :, cells[1:]] = sub[:, None, :]
        K, near = K4.reshape(N * kk, N * kk), slice((J - 2) * kk, (J + 1) * kk)
        K[near, near] -= np.outer(g, g) * a
        return K


@dataclass
class AssembledSystem:
    """The scheme A x = ``rhs`` and the U-system it is solved through.
    A = A0 + e e^T, A0 = [[M/s, D], [-s D^T, C]], acts on the flattened
    fields x = (Qtilde, U), Q = s Qtilde, arrays (..., 2, N, k+1) (field,
    cell, mode), from its cell pieces: M, s, v and the reference element
    applying D from ``pieces``, and ``reaction``, the (N, k+1, k+1) blocks
    of C.  ``interface`` is e, v on the Qtilde dofs of cells J and J+1.
    ``apply`` and ``solve_a0`` act with A0, ``matvec`` and ``frobenius_norm``
    with S = C + s D^T F^-1 D = S0 - a g g^T (``pieces.interface_gradient``)
    on flattened U.  ``matrix``, the lower band of S0 = C + eps D^T M^-1 D
    (``lower`` = 2k+1, ``upper`` = 0), gives ||S||_F when the system is built;
    ``solve_ldg_1d`` drops it once factored, so the solves reuse its pages."""

    matrix: BandedMatrix
    rhs: np.ndarray
    pieces: OperatorPieces1D
    reaction: np.ndarray

    def __post_init__(self):  # built with the system: a lazily built e took fresh pages
        (J, v), (N, kk) = self.pieces.interface, self.pieces.m.shape
        e = np.zeros((2, N, kk))
        e[0, J - 1:J + 1] = v.reshape(2, kk)
        self.interface = e.ravel()
        # ||S||_F^2 = ||S0||_F^2 - 2a g^T S0 g + a^2 ||g||^4, S0 = L + L^T - diag:
        # window[d, j] = S0[j + d, j] and shifted[d, j] = g[j + d] about g give L^T g
        band, (g, a) = self.matrix.band, self.pieces.interface_gradient
        window, nb = band[:, (J - 2) * kk:(J + 1) * kk], len(band)
        shifted = np.concatenate([g, np.zeros(nb - 1)])[np.arange(nb)[:, None] + np.arange(g.size)]
        gS0g = (2.0 * (window * shifted).sum(axis=0) - window[0] * g) @ g
        S0 = 2.0 * np.vdot(band, band) - np.vdot(band[0], band[0])
        self._frobenius = float(np.sqrt(S0 - 2.0 * a * gS0g + (a * (g @ g)) ** 2))

    def apply(self, X):
        p, Q, U = self.pieces, X[..., 0, :, :], X[..., 1, :, :]
        AX = np.empty_like(X)
        AX[..., 0, :, :] = p.m * (1.0 / p.s) * Q + p.ref.derivative(U)
        AX[..., 1, :, :] = (np.einsum("cpq,...cq->...cp", self.reaction, U)
                            - p.s * p.ref.derivative_t(Q))
        return AX

    def solve_a0(self, cholesky, R):
        """A0^-1 R for the flattened fields in the rows of R, (m, 2n), through
        S0 factored by ``cholesky`` (a ``banded_cholesky`` solve): U solves
        S0 U = R_U + s D^T (s M^-1 R_Q), then Qtilde = s M^-1 (R_Q - D U)."""
        p, m, (N, kk) = self.pieces, R.shape[0], self.pieces.m.shape
        RQ, RU = R.reshape(m, 2, N, kk).swapaxes(0, 1)
        minv = p._flux_mass_inverse[0]
        rhs = RU + p.s * p.ref.derivative_t(minv * RQ)
        X = np.empty((m, 2, N, kk))
        X[:, 1] = cholesky(rhs.reshape(m, N * kk).T).T.reshape(m, N, kk)
        X[:, 0] = minv * (RQ - p.ref.derivative(X[:, 1]))
        return X.reshape(R.shape)

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
    half-integers, so the blocks are exactly symmetric.
    """
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
    """Assemble the LDG system for ``problem`` on ``mesh`` and its U-system S0.

    Volume terms of b and f use (k+3)-point Gauss rules per cell (b and f
    are smooth); mass and derivative couplings are exact in the modal basis.
    """
    if k < 1:
        raise ConfigurationError(f"polynomial degree must be >= 1, got {k}")
    N, kk, ref = mesh.N, k + 1, reference_blocks_1d(k)
    pieces, halfh = piece_blocks_1d(mesh, k, problem.eps), 0.5 * mesh.widths
    X = mesh.quadrature_points(ref.points)
    bvals = np.asarray(problem.b(X), dtype=float)
    fvals = np.asarray(problem.f(X), dtype=float)
    W = ((halfh[:, None] * ref.weights * bvals) @ ref.VV).reshape(N, kk, kk)

    # lower band storage, S0[i, j] at band[i - j, j]: column q of cell c
    # holds block (c, c) from its diagonal down, then block (c + 1, c)
    (K0, sub), band = pieces.eliminated, np.zeros((2 * kk, N, kk))
    for q in range(kk):
        np.add(K0[:, q:, q].T, W[:, q:, q].T, out=band[:kk - q, :, q])
        band[kk - q:2 * kk - q, :-1, q] = sub.T
    matrix = BandedMatrix(N * kk, 2 * kk - 1, 0, band.reshape(2 * kk, N * kk))

    W[::N - 1] += pieces.penalty[::N - 1]  # C = W_b + s E in place: cells 1 and N
    rhs = np.zeros((2, N, kk))
    rhs[1] = halfh[:, None] * ((ref.weights * fvals) @ ref.V)
    return AssembledSystem(matrix=matrix, rhs=rhs.ravel(), pieces=pieces, reaction=W)


def solve_ldg_1d(problem, mesh, k):
    """Assemble and solve; returns the mixed solution (U, Q).

    S0 is factored once; one two-column solve gives A0^-1 rhs and A0^-1 e,
    and Sherman-Morrison adds e e^T.  One step of iterative refinement
    against the residual of A0 + e e^T always follows: S0's condition grows
    like N^2, and without the step U can be off by about 1e-11 relative.
    The reported residual is that of the unscaled U-system S at U, gated
    by ``linalg.accept_residual`` (SolverError, carrying it);
    SingularMatrixError is raised when S0 is not positive definite or the
    solve gives non-finite values.
    """
    A = assemble_1d(problem, mesh, k)
    cholesky, A.matrix = banded_cholesky(A.matrix), None  # the band goes once factored
    b, e, fields = A.rhs, A.interface, (2, mesh.N, k + 1)
    y, z = A.solve_a0(cholesky, np.array((b, e)))
    x = sherman_morrison(y, z, e)
    r = b - (A.apply(x.reshape(fields)).ravel() + e * (e @ x))
    x += sherman_morrison(A.solve_a0(cholesky, r[None])[0], z, e)
    Qt, U = x.reshape(fields)
    residual = accept_residual(_relative_residual(A, U.ravel(), b.reshape(2, -1)[1]), "1D solve")
    return MixedSolution1D(U=DGFunction1D(mesh, k, U), Q=DGFunction1D(mesh, k, A.pieces.s * Qt),
                           residual=residual)

