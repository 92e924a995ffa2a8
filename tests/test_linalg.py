import numpy as np
import pytest
import scipy.sparse as sp

from ldgshishkin import (
    BandedMatrix,
    SingularMatrixError,
    SparseMatrix,
    equilibrate,
    lu_banded_solve,
    sparse_solve,
)


def random_banded(rng, n, kl, ku):
    rows, cols, vals = [], [], []
    for d in range(-kl, ku + 1):
        js = np.arange(max(0, d), min(n, n + d))
        rows.append(js - d)
        cols.append(js)
        vals.append(rng.standard_normal(js.size))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    # boost the diagonal so the condition number stays moderate
    vals[rows == cols] += 3.0 * np.sign(vals[rows == cols]) + 1.0
    return BandedMatrix.from_coo(n, rows, cols, vals)


class TestBandedMatrix:
    def test_from_coo_roundtrip(self):
        rows = [0, 0, 1, 2, 2]
        cols = [0, 1, 1, 1, 2]
        vals = [1.0, 2.0, 3.0, 4.0, 5.0]
        m = BandedMatrix.from_coo(3, rows, cols, vals)
        dense = np.array([[1, 2, 0], [0, 3, 0], [0, 4, 5]], dtype=float)
        assert np.array_equal(m.to_dense(), dense)
        x = np.array([1.0, -1.0, 2.0])
        assert np.allclose(m.matvec(x), dense @ x, atol=0)

    def test_duplicate_entries_accumulate(self):
        m = BandedMatrix.from_coo(2, [0, 0], [0, 0], [1.0, 2.0])
        assert m.to_dense()[0, 0] == 3.0


class TestEquilibrate:
    def test_identity_unchanged(self):
        A = np.eye(4)
        scaled, r, c = equilibrate(A)
        assert np.array_equal(r, np.ones(4) / 2) or np.array_equal(r, np.ones(4))
        # powers of two only, and the scaled matrix stays diagonal
        assert np.allclose(scaled, np.diag(np.diag(scaled)), atol=0)
        assert np.all(np.diag(scaled) >= 0.5) and np.all(np.diag(scaled) <= 1.0)

    def test_extreme_diagonal(self):
        A = np.diag([1e12, 1e-12])
        scaled, r, c = equilibrate(A)
        d = np.diag(scaled)
        assert np.all(d >= 0.5) and np.all(d <= 1.0)

    def test_row_col_ranges_random(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            A = rng.standard_normal((n, n)) * np.exp(rng.uniform(-20, 20, (n, 1)))
            A += np.eye(n)  # no zero rows/cols
            scaled, r, c = equilibrate(A)
            row_max = np.abs(scaled).max(axis=1)
            col_max = np.abs(scaled).max(axis=0)
            assert np.all(row_max >= 0.5) and np.all(row_max <= 2.0)
            assert np.all(col_max >= 0.5) and np.all(col_max <= 2.0)
            # scales are exact powers of two
            assert np.all(np.ldexp(np.ones_like(r), np.frexp(r)[1]) == 2 * np.abs(r))

    def test_solution_unchanged_by_equilibration(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((10, 10)) + 5 * np.eye(10)
        b = rng.standard_normal(10)
        x_direct = np.linalg.solve(A, b)
        scaled, r, c = equilibrate(A)
        y = np.linalg.solve(scaled, r * b)
        assert np.max(np.abs(c * y - x_direct)) < 1e-12 * np.max(np.abs(x_direct))

    def test_zero_row_rejected(self):
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(SingularMatrixError):
            equilibrate(A)

    def test_banded_and_sparse_variants(self):
        rng = np.random.default_rng(2)
        bm = random_banded(rng, 12, 2, 1)
        scaled, r, c = equilibrate(bm)
        dense = scaled.to_dense()
        nz = dense != 0.0
        row_max = np.abs(dense).max(axis=1)
        assert np.all(row_max >= 0.5) and np.all(row_max <= 2.0)
        sm = SparseMatrix(sp.csr_matrix(bm.to_dense()))
        scaled2, r2, c2 = equilibrate(sm)
        assert np.allclose(scaled2.to_dense(), dense, atol=0)


class TestBandedSolve:
    def test_identity(self):
        m = BandedMatrix.from_coo(5, range(5), range(5), np.ones(5))
        rhs = np.arange(5.0)
        res = lu_banded_solve(m, rhs)
        assert np.array_equal(res.x, rhs)
        assert res.residual <= 1e-15

    def test_poisson_tridiagonal_vs_dense(self):
        n = 10
        rows = list(range(n)) + list(range(n - 1)) + list(range(1, n))
        cols = list(range(n)) + list(range(1, n)) + list(range(n - 1))
        vals = [2.0] * n + [-1.0] * (2 * (n - 1))
        m = BandedMatrix.from_coo(n, rows, cols, vals)
        rhs = np.ones(n)
        res = lu_banded_solve(m, rhs)
        expected = np.linalg.solve(m.to_dense(), rhs)
        assert np.max(np.abs(res.x - expected)) < 1e-12

    def test_duplicate_rows_flagged_singular(self):
        # two identical rows: a pivot collapses below tolerance
        rows = [0, 0, 1, 1, 2, 2]
        cols = [0, 1, 0, 1, 1, 2]
        vals = [1.0, 2.0, 1.0, 2.0, 1.0, 1.0]
        m = BandedMatrix.from_coo(3, rows, cols, vals)
        with pytest.raises(SingularMatrixError) as info:
            lu_banded_solve(m, np.ones(3))
        assert info.value.pivot_index is not None

    def test_random_banded_residuals(self):
        # 200 random systems, n <= 200, condition <= 1e8
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 200:
            n = int(rng.integers(5, 201))
            kl = int(rng.integers(1, min(6, n)))
            ku = int(rng.integers(1, min(6, n)))
            m = random_banded(rng, n, kl, ku)
            if np.linalg.cond(m.to_dense()) > 1e8:
                continue
            rhs = rng.standard_normal(n)
            res = lu_banded_solve(m, rhs)
            assert res.residual <= 1e-10
            checked += 1


class TestSparseSolve:
    def test_identity(self):
        m = SparseMatrix(sp.eye(6, format="csr"))
        rhs = np.arange(6.0)
        res = sparse_solve(m, rhs)
        assert np.allclose(res.x, rhs, atol=0)

    def test_five_point_laplacian_vs_dense(self):
        n = 8
        main = 4.0 * np.ones(n * n)
        A = sp.diags(
            [main, -np.ones(n * n - 1), -np.ones(n * n - 1),
             -np.ones(n * n - n), -np.ones(n * n - n)],
            [0, 1, -1, n, -n],
            format="csr",
        )
        # remove the wrap-around couplings of the 1D offsets
        A = A.tolil()
        for r in range(1, n):
            A[r * n, r * n - 1] = 0.0
            A[r * n - 1, r * n] = 0.0
        m = SparseMatrix(A.tocsr())
        rhs = np.ones(n * n)
        res = sparse_solve(m, rhs)
        expected = np.linalg.solve(m.to_dense(), rhs)
        assert np.max(np.abs(res.x - expected)) < 1e-11
        assert res.residual <= 1e-12

    def test_residual_always_reported(self):
        m = SparseMatrix(sp.eye(3, format="csr") * 2.0)
        res = sparse_solve(m, np.zeros(3))
        assert res.residual == 0.0

    def test_singular_rejected(self):
        A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularMatrixError):
            sparse_solve(SparseMatrix(A), np.ones(2))

    def test_csr_contract_fields(self):
        m = SparseMatrix.from_coo(3, [0, 1, 2, 0], [0, 1, 2, 2], [1.0, 2.0, 3.0, 4.0])
        assert m.n == 3
        assert m.csr.indptr.tolist() == [0, 2, 3, 4]
        assert m.csr.indices.tolist() == [0, 2, 1, 2]
        assert np.allclose(m.csr.data, [1.0, 4.0, 2.0, 3.0], atol=0)
