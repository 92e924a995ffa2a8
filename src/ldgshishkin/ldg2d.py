"""Mixed LDG discretization of -eps lap(u) + b u = f on a 2D Shishkin mesh.

The first-order system introduces p = eps u_x and q = eps u_y.  Fluxes
mirror the 1D construction direction by direction: U is upwinded from the
left/bottom, P and Q from the right/top, boundary traces of U are
penalized with sqrt(eps) and the jumps of P (resp. Q) across the vertical
line x = x_{3N/4} (resp. horizontal line y = y_{3N/4}) with 1/sqrt(eps).
Both axes carry the same 1D Shishkin mesh (``Mesh2D.axis``), so the
coupled (U, P, Q) matrix is a block-diagonal b-weighted mass plus Kronecker
products of one set of 1D operator pieces (``ldg1d.piece_blocks_1d``), in
the scaled unknowns P/sqrt(eps), Q/sqrt(eps).  The solver never forms it,
nor W_b.  P and Q are eliminated in closed form on every cell, the
interface cells included, as in 1D: K = s E + s D^T F^-1 D is written from
the 1D blocks of s E + eps D^T M^-1 D and a rank-one term on three cells,
since the 1D flux mass F = M/s + v v^T has a Sherman-Morrison inverse.
``assemble_2d`` returns the one object the solve applies
(``AssembledSystem2D``: the 1D pieces, b on the tensor quadrature grid
(beta) and the load), the SPD U-only system S = W_b + K(x)M + M(x)K,
unformed, on the kron-order view of U.  Conjugate gradients, preconditioned
by fast diagonalization (one 1D eigenproblem; exact for constant b, where two
steps solve and refine), solve it with no scipy.sparse call, and report and
gate on its backward error, as 1D does; P and Q follow from the 1D cell blocks
of D and F^-1, applied along x and along y.  The coupled matrix is built on
request (``AssembledSystem2D.matrix``): the tests check the solver against it,
and the benchmark's tracer (``bench/spans.py``) reads its size and nnz.
"""

import functools
from dataclasses import dataclass

import numpy as np

# gauss_rule and legendre_table stay bound: bench/spans.py counts their calls here
from .basis import gauss_rule, grid_product, legendre_table, reference_blocks_1d
from .dgfunction import DGFunction2D
from .errors import ConfigurationError
from .ldg1d import OperatorPieces1D, piece_blocks_1d
# equilibrate and sparse_solve stay bound: bench/spans.py times them here
from .linalg import SparseMatrix, accept_residual, equilibrate, pcg, sparse_solve


@dataclass
class MixedSolution2D:
    """Discrete triple (U, P, Q); ``residual`` is the relative residual of
    the unscaled U-only system S that produced it (see ``solve_ldg_2d``)."""

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
    """The 2D scheme and the U-only operator S its solve applies: the
    ``OperatorPieces1D`` of the mesh axis (shared by x and y), the Legendre
    table V (q, k+1) of the q = k+3 point assembly rule, beta and the load.
    With x the quadrature points of the axis and c = h(x)w their weights,
    beta = c c^T o b(x, x^T) is b on the tensor grid, W_b = B^T diag(beta) B
    with B = I_N (x) V, and the load B^T (c c^T o f(x, x^T)) B is in kron
    order (see ``grid_product``).

    The P and Q rows give Ptilde = -(G(x)I) U, Qtilde = -(I(x)G) U with
    G = F^-1 D (``pieces.flux_gradient``), so the Schur complement is the
    SPD S = W_b + K(x)M + M(x)K: ``K`` = s E + s D^T F^-1 D is the dense
    ``pieces.flux_eliminated()`` and ``m`` = diag(M).  ``matvec`` applies S
    unformed on kron-order U vectors (i, m, j, n), on their square view X as
    B^T (beta o B X B^T) B + K X M + M X K.

    ``matrix`` is the coupled (U, Ptilde, Qtilde) matrix in the field-major
    layout (all U dofs, then P, then Q; within a field kron order (i, m, j, n),
    the layout of ``DGFunction2D.coeffs``), built on first access, W_b blocks
    included.  The solve never reads it; it stays because the tests and
    ``bench/spans.py`` do.
    """

    pieces: OperatorPieces1D
    V: np.ndarray
    beta: np.ndarray
    load: np.ndarray

    @functools.cached_property
    def K(self):
        return self.pieces.flux_eliminated()

    @functools.cached_property
    def m(self):
        return self.pieces.m.ravel()

    def matvec(self, x):
        X = x.reshape(self.m.size, -1)
        Y = (self.K @ X) * self.m + self.m[:, None] * (X @ self.K)
        G = grid_product(self.V, X)
        G *= self.beta
        Y += grid_product(self.V.T, G)
        return Y.ravel()

    def frobenius_norm(self):
        """||W + T||^2 = ||W||^2 + 2<W, T> + 2 ||K||^2 ||m||^2 + 2 (diag(K).m)^2,
        T = K(x)M + M(x)K, all terms nonnegative, W read through beta:
        ||W||^2 = <beta, (I(x)C) beta (I(x)C)>, C = (V V^T) o (V V^T), and
        <W, T> = kappa^T beta mu + mu^T beta kappa with kappa_ig = V_g K_i V_g^T
        (K_i the diagonal blocks of K) and mu_ig = sum_n m_in V_gn^2."""
        V, (q, k1), N = self.V, self.V.shape, self.beta.shape[0] // self.V.shape[0]
        C = (V @ V.T) ** 2
        right = (self.beta.reshape(-1, q) @ C).reshape(N, q, -1)  # beta (I(x)C)
        W2 = np.vdot(C, (self.beta.reshape(N, q, -1) @ right.transpose(0, 2, 1)).sum(axis=0))
        Kd = np.einsum("iaib->iab", self.K.reshape(N, k1, N, k1))
        kappa = ((V @ Kd) * V).sum(axis=2).ravel()
        mu = (self.m.reshape(N, k1) @ (V * V).T).ravel()
        WT = kappa @ (self.beta @ mu) + (mu @ self.beta) @ kappa
        T2 = np.vdot(self.K, self.K) * (self.m @ self.m) + (np.diagonal(self.K) @ self.m) ** 2
        return np.sqrt(W2 + 2.0 * (WT + T2))

    def mean_b(self):
        """The mass-weighted mean of b, sum_ij trace(W_ij) / (sum m)^2."""
        v = np.tile((self.V * self.V).sum(axis=1), self.beta.shape[0] // self.V.shape[0])
        return v @ self.beta @ v / self.m.sum() ** 2

    @functools.cached_property
    def matrix(self):
        """The coupled matrix; in kron order (i, m, j, n) its block rows are

            U: [blockdiag(W_b) + s E(x)M + s M(x)E, -s D^T(x)M, -s M(x)D^T]
            P: [D(x)M, F(x)M, 0]
            Q: [M(x)D, 0, M(x)F]

        with the 1D matrices of the axis built from its pieces: the mass M,
        D applied by the reference element to the identity, the flux mass
        F = diag(m/s) + e e^T (e = v on the two interface cells) and the
        boundary penalty s E from its diagonal blocks, and the W_b block of
        every cell (i, j), formed from beta, added at its kron-order dofs.
        """
        import scipy.sparse as sp
        p, (N, k1), q, field = self.pieces, self.pieces.m.shape, self.V.shape[0], self.load.size
        s, kron, n, (J, v) = p.s, sp.kron, N * k1, p.interface
        e = np.zeros((N, k1))
        e[J - 1:J + 1] = v.reshape(2, k1)
        M = sp.diags(self.m, format="csr")
        D = sp.csr_matrix(p.ref.derivative(
            np.eye(n).reshape(n, N, k1)).reshape(n, n).T)
        F = sp.csr_matrix(np.diag((p.m * (1.0 / s)).ravel()) + np.outer(e, e))
        sE = sp.block_diag(p.penalty, format="csr")
        A = sp.bmat([
            [kron(sE, M) + kron(M, sE), -s * kron(D.T, M), -s * kron(M, D.T)],
            [kron(D, M), kron(F, M), None],
            [kron(M, D), None, kron(M, F)],
        ], format="coo")
        dof = np.arange(field).reshape(N, k1, N, k1).transpose(0, 2, 1, 3)  # dofs by (i, j, m, n)
        rows, cols = np.broadcast_arrays(dof[..., None, None], dof[:, :, None, None])
        W = (self.beta.reshape(N, q, N, q).transpose(0, 2, 1, 3).reshape(N * N, q * q)
             @ np.einsum("ga,hb,gc,hd->ghabcd", *(self.V,) * 4).reshape(q * q, -1))
        return SparseMatrix.from_coo(3 * field, np.concatenate([A.row, rows.ravel()]),
                                     np.concatenate([A.col, cols.ravel()]),
                                     np.concatenate([A.data, W.ravel()]))


def assemble_2d(problem, mesh2d, k):
    """The pieces of the 2D scheme: the 1D operator pieces of the mesh
    axis, the Legendre table V, beta and the load, with b and f read once
    on the tensor Gauss grid of all cells."""
    if k < 1:
        raise ConfigurationError(f"polynomial degree must be >= 1, got {k}")
    pieces, ref = piece_blocks_1d(mesh2d.axis, k, problem.eps), reference_blocks_1d(k)
    V, x = ref.V, mesh2d.axis.quadrature_points(ref.points).ravel()
    hw = np.outer(0.5 * mesh2d.axis.widths, ref.weights).ravel()

    def on_grid(g):  # (h(x)w)(h(x)w)^T o g(x, x^T)
        values = hw[:, None] * np.asarray(g(x[:, None], x[None, :]), dtype=float)
        values *= hw
        return values

    return AssembledSystem2D(pieces=pieces, V=V, beta=on_grid(problem.b),
                             load=grid_product(V.T, on_grid(problem.f)))


def _fast_diagonalization(system):
    """P^-1 on kron-order U vectors, P = K(x)M + M(x)K + bbar M(x)M with K
    and m = diag(M) those of the ``AssembledSystem2D`` S = ``system`` and
    bbar = ``system.mean_b()`` (P = S for constant b).

    Z = M^-1/2 V, with M^-1/2 K M^-1/2 = V diag(lam) V^T, gives
    Z^T K Z = diag(lam) and Z^T M Z = I, so (Lynch, Rice & Thomas 1964)
    P^-1 = (Z(x)Z) diag(lam_i + lam_j + bbar)^-1 (Z(x)Z)^T: four dense
    products on the kron-order matrix view.
    """
    r = system.m ** -0.5
    lam, V = np.linalg.eigh(r[:, None] * system.K * r)
    Z = r[:, None] * V
    inv = 1.0 / (lam[:, None] + lam[None, :] + system.mean_b())

    def apply(values):
        return (Z @ ((Z.T @ values.reshape(inv.shape) @ Z) * inv) @ Z.T).ravel()

    return apply


def solve_ldg_2d(problem, mesh2d, k):
    """Solve the 2D scheme through its U-only SPD system.

    The U-only operator S (``AssembledSystem2D``) is solved by ``pcg``
    preconditioned by ``_fast_diagonalization``: 2 steps for constant b
    (two applications of it, three of S with the residual's), 17-18 for
    variable b.  All of it works on kron-order vectors: the load is
    integrated in that order and U, P and Q are stored in it.  The
    reported residual is that of the unscaled U-system S, gated by
    ``linalg.accept_residual`` (SolverError, carrying it), as in 1D;
    SingularMatrixError is raised when an iterate is not finite.
    """
    system, N, k1 = assemble_2d(problem, mesh2d, k), mesh2d.N, k + 1
    result = pcg(system, system.load.ravel(), _fast_diagonalization(system))
    accept_residual(result.residual, "2D solve")
    # U is (i, m, j, n): G acts on (i, m) for P, on (j, n) for Q
    u, s, G = result.x.reshape(N, k1, N, k1), system.pieces.s, system.pieces.flux_gradient
    P = np.multiply(-s, G(u.transpose(2, 3, 0, 1)).transpose(2, 3, 0, 1), order="C")
    return MixedSolution2D(U=DGFunction2D(mesh2d, k, u), P=DGFunction2D(mesh2d, k, P),
                           Q=DGFunction2D(mesh2d, k, -s * G(u)), residual=result.residual)

