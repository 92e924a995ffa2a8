"""Direct linear-solver backend: banded LU and sparse LU with equilibration.

The banded path packs the matrix in LAPACK general-band storage and
factorizes with dgbsv (partial pivoting with band-growth rows); the sparse
path wraps SuperLU with its fill-reducing column ordering.  Equilibration
uses exact power-of-two scales so it introduces no rounding: one row pass
followed by one column pass provably lands every row and column maximum in
[0.5, 1].
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack as lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularMatrixError, SolverError

_PIVOT_RTOL = 1e-14


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
        np.add.at(band, (upper + rows - cols, cols), vals)
        return cls(n=n, lower=lower, upper=upper, band=band)

    def to_dense(self):
        A = np.zeros((self.n, self.n))
        for d in range(-self.lower, self.upper + 1):
            js = np.arange(max(0, d), min(self.n, self.n + d))
            A[js - d, js] = self.band[self.upper - d, js]
        return A

    def to_csr(self):
        rows, cols, vals = [], [], []
        for d in range(-self.lower, self.upper + 1):
            js = np.arange(max(0, d), min(self.n, self.n + d))
            rows.append(js - d)
            cols.append(js)
            vals.append(self.band[self.upper - d, js])
        return sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n, self.n),
        )

    def matvec(self, x):
        return self.to_csr() @ x

    def abs_row_col_max(self):
        """Row and column maxima of |A|, read off the band."""
        nb, n = self.band.shape
        # re-read with rows one slot shorter, band row r moves r columns to
        # the right, so column upper + i holds row i of A (the zero padding
        # takes the wrap-around and the slots outside the matrix)
        skew = np.zeros((nb, n + nb))
        skew[:, :n] = np.abs(self.band)
        by_row = skew.ravel()[:nb * (n + nb - 1)].reshape(nb, n + nb - 1)
        return by_row.max(axis=0)[self.upper:self.upper + n], skew[:, :n].max(axis=0)

    def scaled(self, row_scales, col_scales):
        """Return a copy with rows and columns scaled (band layout is kept)."""
        # slot (r, j) holds row j + r - upper: index the row scales padded
        # by upper zeros in front and lower behind
        slots = np.arange(self.n)[None, :] + np.arange(self.band.shape[0])[:, None]
        rows = np.pad(row_scales, (self.upper, self.lower))[slots]
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

    def to_dense(self):
        return self.csr.toarray()

    def matvec(self, x):
        return self.csr @ x

    def scaled(self, row_scales, col_scales):
        R = sp.diags(row_scales)
        C = sp.diags(col_scales)
        return SparseMatrix((R @ self.csr @ C).tocsr())


def _pow2_scale(maxima, what):
    """Exact power-of-two scales putting each maximum into [0.5, 1)."""
    if np.any(maxima == 0.0):
        idx = int(np.argmax(maxima == 0.0))
        raise SingularMatrixError(f"structurally zero {what} {idx}", pivot_index=idx)
    _, exponents = np.frexp(maxima)
    return np.ldexp(1.0, -exponents.astype(np.int64))


def _abs_row_col_max(matrix):
    if isinstance(matrix, BandedMatrix):
        return matrix.abs_row_col_max()
    if isinstance(matrix, SparseMatrix):
        A = matrix.csr
    else:
        A = sp.csr_matrix(np.asarray(matrix, dtype=float))
    absA = abs(A)
    row_max = np.asarray(absA.max(axis=1).todense()).ravel()
    col_max = np.asarray(absA.max(axis=0).todense()).ravel()
    return row_max, col_max


def equilibrate(matrix):
    """Scale rows then columns by powers of two.

    After the row pass every row maximum is in [0.5, 1); the column pass
    can only scale up (all entries are then <= 1), so both row and column
    maxima end in [0.5, 1].  Returns (scaled matrix, row_scales, col_scales)
    so that scaled = diag(r) A diag(c); the original matrix is untouched.
    """
    row_max, _ = _abs_row_col_max(matrix)
    r = _pow2_scale(row_max, "row")
    if isinstance(matrix, np.ndarray):
        half = np.asarray(matrix, dtype=float) * r[:, None]
        col_max = np.abs(half).max(axis=0)
        c = _pow2_scale(col_max, "column")
        return half * c[None, :], r, c
    half = matrix.scaled(r, np.ones(matrix.n))
    _, col_max = _abs_row_col_max(half)
    c = _pow2_scale(col_max, "column")
    return half.scaled(np.ones(matrix.n), c), r, c


def _relative_residual(csr, x, b):
    """||A x - b|| / (||A||_F ||x|| + ||b||), the residual both solvers report."""
    denom = np.sqrt((csr.data**2).sum()) * np.linalg.norm(x) + np.linalg.norm(b)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(csr @ x - b) / denom)


def lu_banded_solve(matrix, rhs):
    """Solve a banded system by LU with partial pivoting (LAPACK dgbsv).

    Raises SingularMatrixError with the pivot index on exact breakdown and
    on pivots below 1e-14 times the largest entry magnitude.  Returns the
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
    csr = matrix.to_csr()
    pivots = np.abs(lub[kl + ku, :])
    tol = _PIVOT_RTOL * abs(csr).max()
    small = pivots < tol
    if np.any(small):
        idx = int(np.argmax(small))
        raise SingularMatrixError(
            f"pivot {pivots[idx]:.3e} below tolerance {tol:.3e} at index {idx}",
            pivot_index=idx,
        )
    return SolveResult(x=x, residual=_relative_residual(csr, x, rhs))


def sparse_solve(matrix, rhs):
    """Solve through SuperLU with fill-reducing column ordering.

    The residual achieved on the given system is always reported alongside
    the solution.
    """
    rhs = np.asarray(rhs, dtype=float)
    csr = matrix.csr if isinstance(matrix, SparseMatrix) else sp.csr_matrix(matrix)
    try:
        lu = spla.splu(csr.tocsc())
        x = lu.solve(rhs)
    except RuntimeError as exc:
        raise SingularMatrixError(f"sparse factorization failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("sparse solve produced non-finite values")
    return SolveResult(x=x, residual=_relative_residual(csr, x, rhs))
