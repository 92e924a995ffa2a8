"""Linear-solver backend: banded LU, sparse LU, preconditioned CG, scaling.

The banded path packs the matrix in LAPACK general-band storage and
factorizes with dgbsv (partial pivoting with band-growth rows); the sparse
path wraps SuperLU with its fill-reducing column ordering.  The scalings
use exact powers of two so they introduce no rounding: ``equilibrate`` (a
row pass, then a column pass) lands every row and column maximum in
[0.5, 1], and ``symmetric_scale`` keeps a symmetric matrix exactly symmetric.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack as lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularMatrixError, SolverError

_PIVOT_RTOL = 1e-14
_CG_STEP_RTOL, _CG_MAX_STEPS = 1e-14, 200


@dataclass
class SolveResult:
    """Solution vector plus the relative residual achieved on the system
    that was factorized."""

    x: np.ndarray
    residual: float


@dataclass
class BandedMatrix:
    """General band matrix: entry A[i, j] lives at band[u + i - j, j]; the
    slots outside the matrix hold zeros."""

    n: int
    lower: int
    upper: int
    band: np.ndarray  # shape (lower + upper + 1, n)

    def __post_init__(self):
        if self.band.shape != (self.lower + self.upper + 1, self.n):
            raise ValueError("band storage inconsistent with bandwidths")
        if self.lower >= self.n or self.upper >= self.n:
            raise ValueError("bandwidths must be smaller than the dimension")

    @classmethod
    def from_coo(cls, n, rows, cols, vals):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        lower = int(max(0, (rows - cols).max()))
        upper = int(max(0, (cols - rows).max()))
        band = np.zeros((lower + upper + 1, n))
        np.add.at(band.reshape(-1), (upper + rows - cols) * n + cols, vals)
        return cls(n=n, lower=lower, upper=upper, band=band)

    def to_dense(self):
        return self.to_csr().toarray()

    def _slot_rows(self):
        """Row of A held by each band slot (outside A when < 0 or >= n)."""
        return np.arange(self.n)[None, :] + np.arange(self.band.shape[0])[:, None] - self.upper

    def to_csr(self):
        rows = self._slot_rows()
        inside = (rows >= 0) & (rows < self.n)
        cols = np.broadcast_to(np.arange(self.n), rows.shape)
        return sp.csr_matrix((self.band[inside], (rows[inside], cols[inside])),
                             shape=(self.n, self.n))

    def _by_row(self, values):
        """Band-shaped ``values`` re-read with rows one slot shorter: band row
        r moves r columns right, so column i holds the slots of row i of A
        (the zero padding takes the wrap-around and the slots outside A)."""
        nb, n = self.band.shape
        skew = np.zeros((nb, n + nb))
        skew[:, :n] = values
        by_row = skew.ravel()[:nb * (n + nb - 1)].reshape(nb, n + nb - 1)
        return by_row[:, self.upper:self.upper + n]

    def matvec(self, x):
        return self._by_row(self.band * x[None, :]).sum(axis=0)

    def frobenius_norm(self):
        return np.sqrt((self.band**2).sum())

    def abs_row_col_max(self):
        """Row and column maxima of |A|, read off the band."""
        absband = np.abs(self.band)
        return self._by_row(absband).max(axis=0), absband.max(axis=0)

    def scaled(self, row_scales, col_scales):
        """Return a copy with rows and columns scaled (band layout is kept)."""
        # index the row scales padded by upper zeros in front, lower behind
        rows = np.pad(row_scales, (self.upper, self.lower))[self._slot_rows() + self.upper]
        return BandedMatrix(self.n, self.lower, self.upper,
                            self.band * rows * col_scales[None, :])


@dataclass
class SparseMatrix:
    """CSR matrix with canonical (sorted, duplicate-free) structure."""

    csr: sp.csr_matrix

    def __post_init__(self):
        self.csr = self.csr.tocsr()
        self.csr.sum_duplicates()
        self.csr.sort_indices()

    @classmethod
    def from_coo(cls, n, rows, cols, vals):
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
    return np.ldexp(1.0, -exponents.astype(np.int64))


def equilibrate(matrix):
    """Scale rows then columns by powers of two, for an A with
    ``abs_row_col_max()`` and ``scaled(rows, cols)`` (a ``BandedMatrix``).

    After the row pass every row maximum is in [0.5, 1); the column pass
    can only scale up (all entries are then <= 1), so both row and column
    maxima end in [0.5, 1].  Returns (scaled matrix, row_scales, col_scales)
    so that scaled = diag(r) A diag(c); the original matrix is untouched.
    """
    row_max, _ = matrix.abs_row_col_max()
    r = _pow2_scale(row_max, "row")
    half = matrix.scaled(r, np.ones(matrix.n))
    _, col_max = half.abs_row_col_max()
    c = _pow2_scale(col_max, "column")
    return half.scaled(np.ones(matrix.n), c), r, c


def symmetric_scale(matrix):
    """D A D for an A with positive ``diagonal()`` and ``scaled(rows, cols)``,
    D = diag(d) the powers of two that put d^2 diag(A) into [0.25, 1).  Rows
    and columns are scaled alike, so a symmetric A stays exactly symmetric.
    Returns (scaled A, d); the original is untouched."""
    d = _pow2_scale(np.sqrt(matrix.diagonal()), "diagonal entry")
    return matrix.scaled(d, d), d


def _relative_residual(matrix, x, b):
    """||A x - b|| / (||A||_F ||x|| + ||b||), the residual every solver
    reports, for an A with ``matvec`` and ``frobenius_norm``."""
    denom = matrix.frobenius_norm() * np.linalg.norm(x) + np.linalg.norm(b)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(matrix.matvec(x) - b) / denom)


def lu_banded_solve(matrix, rhs):
    """Solve a banded system by LU with partial pivoting (LAPACK dgbsv).

    Raises SingularMatrixError with the pivot index on exact breakdown and
    on pivots below 1e-14 times the largest entry magnitude, and without an
    index on a non-finite solution (a NaN in the data).  Returns the
    solution together with the relative residual on this system.
    """
    rhs = np.asarray(rhs, dtype=float)
    kl, ku, n = matrix.lower, matrix.upper, matrix.n
    ab = np.zeros((2 * kl + ku + 1, n))
    ab[kl:, :] = matrix.band
    lub, piv, x, info = lapack.dgbsv(kl, ku, ab, rhs)
    if info > 0:
        raise SingularMatrixError(
            f"zero pivot at index {info - 1} during banded LU", pivot_index=info - 1
        )
    if info < 0:
        raise SolverError(f"dgbsv rejected argument {-info}")
    pivots = np.abs(lub[kl + ku, :])
    tol = _PIVOT_RTOL * np.abs(matrix.band).max()
    small = pivots < tol
    if np.any(small):
        idx = int(np.argmax(small))
        raise SingularMatrixError(
            f"pivot {pivots[idx]:.3e} below tolerance {tol:.3e} at index {idx}",
            pivot_index=idx,
        )
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("banded solve produced non-finite values")
    return SolveResult(x=x, residual=_relative_residual(matrix, x, rhs))


def sparse_solve(matrix, rhs):
    """Solve through SuperLU with fill-reducing column ordering.

    The residual achieved on the given system is always reported alongside
    the solution.
    """
    rhs = np.asarray(rhs, dtype=float)
    try:
        lu = spla.splu(matrix.csr.tocsc())
        x = lu.solve(rhs)
    except RuntimeError as exc:
        raise SingularMatrixError(f"sparse factorization failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("sparse solve produced non-finite values")
    return SolveResult(x=x, residual=_relative_residual(matrix, x, rhs))


def pcg(matrix, rhs, precondition):
    """Conjugate gradients on an SPD A (see ``_relative_residual``),
    preconditioned by the SPD map ``precondition``.  Stops once a step moves
    no entry of x by more than 1e-14 max|x| (never the first step, which is
    all of x, so even an exact preconditioner's rounding is refined once);
    raises SingularMatrixError on a non-finite iterate, SolverError after 200 steps."""
    x, r = np.zeros_like(rhs), rhs.copy()
    z = precondition(r)
    p, rz = z, r @ z
    for step in range(_CG_MAX_STEPS):
        if rz == 0.0:  # r = 0: x is exact
            break
        Ap = matrix.matvec(p)
        alpha = rz / (p @ Ap)
        x += alpha * p
        if not np.all(np.isfinite(x)):
            raise SingularMatrixError(f"non-finite iterate at CG step {step + 1}")
        if np.abs(alpha * p).max() <= _CG_STEP_RTOL * np.abs(x).max():
            break
        r -= alpha * Ap
        z = precondition(r)
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    else:
        residual = _relative_residual(matrix, x, rhs)
        raise SolverError(f"CG did not settle: residual {residual:.3e}", residual=residual)
    return SolveResult(x=x, residual=_relative_residual(matrix, x, rhs))
