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
Qtilde = s M^-1 (r_Q - D U) is eliminated: the U-system S0 = K0 + W_b is
SPD and block-tridiagonal, and its blocks are written straight into
LAPACK lower band storage (half-bandwidth 2k+1), held by the operator the
solve applies (``AssembledSystem``).  The solve factors S0 once by banded
Cholesky, adds e e^T by Sherman-Morrison and makes one step of iterative
refinement against the residual of A0 + e e^T.  It loads
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
    (Sherman-Morrison): ``flux_gradient`` applies G = F^-1 D and
    ``flux_eliminated`` forms K.
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
        g = self.ref.derivative_t(W)[J - 2:J + 1].ravel()
        near = slice((J - 2) * kk, (J + 1) * kk)
        K[near, near] -= np.outer(g, g) * (self.s * c)
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
    with A, as the residual reads them.  ``matrix`` is the lower band of
    S0 = K0 + W_b = C + eps D^T M^-1 D (``lower`` = 2k+1, ``upper`` = 0);
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

    def matvec(self, x):
        e = self.interface
        Ax = self.apply(x.reshape(2, *self.pieces.m.shape)).ravel()
        Ax += e * (e @ x)
        return Ax

    def frobenius_norm(self):
        p = self.pieces
        N, (R, G), s = p.m.shape[0], (p.ref.R, p.ref.G), p.s
        # D: N-1 diagonal blocks R, the last G, N-1 blocks alt 1^T below
        D2 = (N - 1) * (np.vdot(R, R) + R.size) + np.vdot(G, G)
        A0 = np.vdot(p.m, p.m) / s**2 + (1.0 + s**2) * D2 + np.vdot(
            self.reaction, self.reaction)
        # ||A0 + e e^T||^2 = ||A0||^2 + 2 e^T A0 e + ||e||^4, where
        # e^T A0 e = e^T (M/s) e since e lives on Qtilde
        eQ = self.interface[:p.m.size]
        return float(np.sqrt(A0 + 2.0 * (eQ * p.m.ravel()) @ eQ / s + (eQ @ eQ)**2))


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
    R, G, minv, scale = ref.R, ref.G, 1.0 / ref.mass, eps / halfh
    sE = np.zeros((mesh.N, k + 1, k + 1))
    sE[-1], sE[0] = s * np.outer(ref.ones, ref.ones), s * np.outer(ref.alt, ref.alt)
    K0 = scale[:, None, None] * (R.T @ (minv[:, None] * R))
    K0 += sE
    K0[-1] = sE[-1] + scale[-1] * (G.T @ (minv[:, None] * G))
    K0[:-1] += (scale[1:] * minv.sum())[:, None, None]
    sub = scale[1:, None] * (R.T @ (minv * ref.alt))
    sub[-1] = scale[-1] * (G.T @ (minv * ref.alt))
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
    Raises SolverError (carrying the achieved residual) when the relative
    residual of the unscaled A0 + e e^T exceeds ``_RESIDUAL_TOL``, and
    SingularMatrixError when S0 is not positive definite or the solve gives
    non-finite values.
    """
    A = assemble_1d(problem, mesh, k)
    cholesky, A.matrix = banded_cholesky(A.matrix), None  # the band goes once factored
    b, e = A.rhs, A.interface
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
    return MixedSolution1D(U=DGFunction1D(mesh, k, U), Q=DGFunction1D(mesh, k, A.pieces.s * Qt),
                           residual=residual)

