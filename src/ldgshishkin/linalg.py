"""Linear-solver backend: banded Cholesky and LU, sparse LU, preconditioned
CG, scaling, and ``accept_residual``, the one residual gate of both solves.

The banded paths read LAPACK band storage: ``banded_cholesky`` factors an
SPD matrix held by its lower band (dpbtrf, dpbtrs), and ``lu_banded_solve``
a general one with dgbsv (partial pivoting with band-growth rows); the
sparse path wraps SuperLU with its fill-reducing column ordering.
``equilibrate`` (rows, then columns of the row-scaled matrix) scales by
exact powers of two, so it introduces no rounding, and lands every row and
column maximum in [0.5, 1]; no solver scales its system, and it serves the
tests' references and acceptance criterion 9.  Only numpy loads with this
module; scipy.linalg.lapack and scipy.sparse (csr copies, SuperLU) are
imported where they are called.
"""

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SingularMatrixError, SolverError

_PIVOT_RTOL = 1e-14
_CG_STEP_RTOL, _CG_MAX_STEPS = 1e-14, 200
_RESIDUAL_TOL = 1e-10  # the largest relative residual of its U-system a 1D or 2D solve accepts


@dataclass
class SolveResult:
    """Solution vector plus the relative residual achieved on the system
    that was factorized."""

    x: np.ndarray
    residual: float


@dataclass
class BandedMatrix:
    """General band matrix: entry A[i, j] lives at band[u + i - j, j]; the
    slots outside the matrix hold zeros.  With ``upper == 0`` this is
    LAPACK's lower band storage, which ``banded_cholesky`` reads as the
    lower triangle of a symmetric matrix."""

    n: int
    lower: int
    upper: int
    band: np.ndarray  # shape (lower + upper + 1, n)

    def __post_init__(self):
        if self.band.shape != (self.lower + self.upper + 1, self.n):
            raise ValueError("band storage inconsistent with bandwidths")
        if self.lower >= self.n or self.upper >= self.n:
            raise ValueError("bandwidths must be smaller than the dimension")

    def _by_row(self, ufunc, *args):
        """``ufunc(band, *args)`` written into rows one slot longer than the
        band's and re-read with rows one slot shorter: band row r moves r
        columns right, so column i of the second view holds the slots of row
        i of A (the zero padding takes the wrap-around and the slots outside
        A).  Returns both views."""
        nb, n = self.band.shape
        skew = np.empty((nb, n + nb))
        skew[:, n:] = 0.0
        ufunc(self.band, *args, out=skew[:, :n])
        by_row = skew.ravel()[:nb * (n + nb - 1)].reshape(nb, n + nb - 1)
        return skew[:, :n], by_row[:, self.upper:self.upper + n]

    def matvec(self, x):
        return self._by_row(np.multiply, x)[1].sum(axis=0)

    def frobenius_norm(self):
        # summed in row order, so a Fortran-ordered band gives the same bits
        return np.sqrt(np.square(self.band, order="C").sum())

    def row_scales_col_max(self, row_scales):
        """r = ``row_scales(row maxima of |A|)`` and the column maxima of diag(r) |A|."""
        absband, by_row = self._by_row(np.abs)
        r = row_scales(by_row.max(axis=0))
        by_row *= r
        return r, absband.max(axis=0)

    def scaled(self, row_scales, col_scales):
        """Return a copy with rows and columns scaled (band layout is kept);
        slot (r, j) holds row j + r - upper, so the row scales are read
        through a sliding window over them padded by upper zeros in front
        and lower behind."""
        rows = sliding_window_view(np.pad(row_scales, (self.upper, self.lower)), self.n)
        band = self.band * rows
        band *= col_scales
        return replace(self, band=band)


@dataclass
class SparseMatrix:
    """CSR matrix with canonical (sorted, duplicate-free) structure."""

    csr: "scipy.sparse.csr_matrix"

    def __post_init__(self):
        self.csr = self.csr.tocsr()
        self.csr.sum_duplicates()
        self.csr.sort_indices()

    @classmethod
    def from_coo(cls, n, rows, cols, vals):
        import scipy.sparse as sp
        return cls(sp.csr_matrix((vals, (rows, cols)), shape=(n, n)))

    @property
    def n(self):
        return self.csr.shape[0]

    def matvec(self, x):
        return self.csr @ x

    def frobenius_norm(self):
        return np.sqrt((self.csr.data**2).sum())


def _pow2_scale(maxima, what):
    """Exact power-of-two scales putting each maximum into [0.5, 1)."""
    if np.any(maxima == 0.0):
        idx = int(np.argmax(maxima == 0.0))
        raise SingularMatrixError(f"structurally zero {what} {idx}", pivot_index=idx)
    _, exponents = np.frexp(maxima)
    return np.ldexp(1.0, -exponents)


def equilibrate(matrix):
    """Scale rows then columns by powers of two, for an A with
    ``row_scales_col_max`` and ``scaled(rows, cols)`` (a ``BandedMatrix``).

    After the row pass every row maximum is in [0.5, 1); the column pass
    can only scale up (all entries are then <= 1), so both row and column
    maxima end in [0.5, 1].  Returns (scaled matrix, row_scales, col_scales)
    so that scaled = diag(r) A diag(c); the original matrix is untouched.
    """
    r, col_max = matrix.row_scales_col_max(lambda row_max: _pow2_scale(row_max, "row"))
    c = _pow2_scale(col_max, "column")
    return matrix.scaled(r, c), r, c


def _relative_residual(matrix, x, b):
    """||A x - b|| / (||A||_F ||x|| + ||b||), the residual every solver
    reports, for an A with ``matvec`` and ``frobenius_norm``."""
    denom = matrix.frobenius_norm() * np.linalg.norm(x) + np.linalg.norm(b)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(matrix.matvec(x) - b) / denom)


def accept_residual(residual, solve):
    """``residual``, or SolverError carrying it above ``_RESIDUAL_TOL``: both solves' gate."""
    if residual > _RESIDUAL_TOL:
        raise SolverError(f"{solve} residual {residual:.3e} > {_RESIDUAL_TOL}", residual=residual)
    return residual


def lu_banded_solve(matrix, rhs):
    """Solve A x = b by banded LU with partial pivoting (dgbsv).

    Raises SingularMatrixError with the pivot index on exact breakdown and
    on pivots below 1e-14 times the largest entry magnitude of A, and
    without an index on a non-finite solution (a NaN in the data).  Returns
    x and the relative residual it leaves.
    """
    from scipy.linalg.lapack import dgbsv
    rhs = np.asarray(rhs, dtype=float)
    kl, ku, n = matrix.lower, matrix.upper, matrix.n
    # the work arrays in LAPACK's column order, so dgbsv overwrites them in place
    ab = np.zeros((2 * kl + ku + 1, n), order="F")
    ab[kl:, :] = matrix.band
    lub, piv, x, info = dgbsv(kl, ku, ab, rhs, overwrite_ab=1)
    if info > 0:
        raise SingularMatrixError(
            f"zero pivot at index {info - 1} during banded LU", pivot_index=info - 1
        )
    if info < 0:
        raise SolverError(f"dgbsv rejected argument {-info}")
    pivots = np.abs(lub[kl + ku, :])
    del ab, lub  # freed before the residual: a lower peak keeps the heap from trimming
    tol = _PIVOT_RTOL * max(matrix.band.max(), -matrix.band.min())
    small = pivots < tol
    if np.any(small):
        idx = int(np.argmax(small))
        raise SingularMatrixError(
            f"pivot {pivots[idx]:.3e} below tolerance {tol:.3e} at index {idx}",
            pivot_index=idx,
        )
    if not np.isfinite(x).all():
        raise SingularMatrixError("banded solve produced non-finite values")
    return SolveResult(x=x, residual=_relative_residual(matrix, x, rhs))


def banded_cholesky(matrix):
    """Factor an SPD matrix given by its lower band (a ``BandedMatrix`` with
    ``upper == 0``) with dpbtrf; returns ``solve(B)``, which solves for the
    m columns of B, shape (n, m), with dpbtrs (a Fortran-ordered B is not
    copied).

    Raises SingularMatrixError with the pivot index when a leading minor is
    not positive definite, and without one when a solve gives non-finite
    values (a NaN in the data need not stop dpbtrf).
    """
    from scipy.linalg.lapack import dpbtrf, dpbtrs
    if matrix.upper != 0:
        raise ValueError("banded_cholesky reads a lower band (upper == 0)")
    factor, info = dpbtrf(matrix.band, lower=1)
    if info > 0:
        raise SingularMatrixError(
            f"leading minor {info} not positive definite in banded Cholesky",
            pivot_index=info - 1,
        )
    if info < 0:
        raise SolverError(f"dpbtrf rejected argument {-info}")

    def solve(B):
        X, info = dpbtrs(factor, B, lower=1)
        if info < 0:
            raise SolverError(f"dpbtrs rejected argument {-info}")
        if not np.isfinite(X).all():
            raise SingularMatrixError("banded Cholesky solve produced non-finite values")
        return X

    return solve


def sparse_solve(matrix, rhs):
    """Solve through SuperLU with fill-reducing column ordering.

    The residual achieved on the given system is always reported alongside
    the solution.
    """
    from scipy.sparse.linalg import splu
    rhs = np.asarray(rhs, dtype=float)
    try:
        lu = splu(matrix.csr.tocsc())
        x = lu.solve(rhs)
    except RuntimeError as exc:
        raise SingularMatrixError(f"sparse factorization failed: {exc}") from exc
    if not np.isfinite(x).all():
        raise SingularMatrixError("sparse solve produced non-finite values")
    return SolveResult(x=x, residual=_relative_residual(matrix, x, rhs))


def pcg(matrix, rhs, precondition):
    """Conjugate gradients on an SPD A (see ``_relative_residual``),
    preconditioned by the SPD map ``precondition``.  Stops once a step moves
    no entry of x by more than 1e-14 max|x|, or before applying
    ``precondition`` to a residual that predicts the next step to be that
    small: max|alpha p| rho <= 1e-14 max|x|, rho the larger of the last two
    contractions ||r_new|| / ||r_old||, so one sharp drop of the residual
    alone never stops it.  The first step is all of x and never stops, so
    even an exact preconditioner's rounding is refined once (two
    applications); raises SingularMatrixError on a non-finite iterate,
    SolverError after 200 steps."""
    x, r = np.zeros_like(rhs), rhs.copy()
    z = precondition(r)
    p, rz, rr, rho = z, r @ z, r @ r, np.inf
    for step in range(_CG_MAX_STEPS):
        if rz == 0.0:  # r = 0: x is exact
            break
        Ap = matrix.matvec(p)
        alpha = rz / (p @ Ap)
        x += alpha * p
        if not np.isfinite(x).all():
            raise SingularMatrixError(f"non-finite iterate at CG step {step + 1}")
        move, negligible = np.abs(alpha * p).max(), _CG_STEP_RTOL * np.abs(x).max()
        if move <= negligible:
            break
        r -= alpha * Ap
        rr, rr_old = r @ r, rr
        rho, rho_old = np.sqrt(rr / rr_old), rho
        if move * max(rho, rho_old) <= negligible:  # so is the next step
            break
        z = precondition(r)
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    else:
        residual = _relative_residual(matrix, x, rhs)
        raise SolverError(f"CG did not settle: residual {residual:.3e}", residual=residual)
    return SolveResult(x=x, residual=_relative_residual(matrix, x, rhs))
