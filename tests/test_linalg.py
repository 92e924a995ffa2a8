import numpy as np
import pytest
import scipy.linalg.lapack as lapack
import scipy.sparse as sp

from ldgshishkin import BandedMatrix, SingularMatrixError
from ldgshishkin.errors import SolverError
from ldgshishkin.linalg import (SparseMatrix, banded_cholesky, equilibrate, lu_banded_solve, pcg,
                                sparse_solve)
from reference import ReferenceBanded, ReferenceSparse, equilibrate_dense


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
    return ReferenceBanded.from_coo(n, rows, cols, vals)


class TestBandedMatrix:
    def test_from_coo_roundtrip(self):
        rows = [0, 0, 1, 2, 2]
        cols = [0, 1, 1, 1, 2]
        vals = [1.0, 2.0, 3.0, 4.0, 5.0]
        m = ReferenceBanded.from_coo(3, rows, cols, vals)
        dense = np.array([[1, 2, 0], [0, 3, 0], [0, 4, 5]], dtype=float)
        assert np.array_equal(m.to_dense(), dense)
        x = np.array([1.0, -1.0, 2.0])
        assert np.allclose(m.matvec(x), dense @ x, atol=0)

    def test_duplicate_entries_accumulate(self):
        m = ReferenceBanded.from_coo(2, [0, 0], [0, 0], [1.0, 2.0])
        assert m.to_dense()[0, 0] == 3.0

    def test_matvec_random_vs_dense(self):
        rng = np.random.default_rng(3)
        for n, kl, ku in ((5, 1, 3), (17, 4, 2), (40, 3, 3)):
            m = random_banded(rng, n, kl, ku)
            x = rng.standard_normal(n)
            dense = m.to_dense() @ x
            assert np.max(np.abs(m.matvec(x) - dense)) <= 1e-14 * np.max(np.abs(dense))


class TestEquilibrate:
    def test_identity_unchanged(self):
        A = np.eye(4)
        scaled, r, c = equilibrate_dense(A)
        assert np.array_equal(r, np.ones(4) / 2) or np.array_equal(r, np.ones(4))
        # powers of two only, and the scaled matrix stays diagonal
        assert np.allclose(scaled, np.diag(np.diag(scaled)), atol=0)
        assert np.all(np.diag(scaled) >= 0.5) and np.all(np.diag(scaled) <= 1.0)

    def test_extreme_diagonal(self):
        A = np.diag([1e12, 1e-12])
        scaled, r, c = equilibrate_dense(A)
        d = np.diag(scaled)
        assert np.all(d >= 0.5) and np.all(d <= 1.0)

    def test_row_col_ranges_random(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            A = rng.standard_normal((n, n)) * np.exp(rng.uniform(-20, 20, (n, 1)))
            A += np.eye(n)  # no zero rows/cols
            scaled, r, c = equilibrate_dense(A)
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
        scaled, r, c = equilibrate_dense(A)
        y = np.linalg.solve(scaled, r * b)
        assert np.max(np.abs(c * y - x_direct)) < 1e-12 * np.max(np.abs(x_direct))

    def test_zero_row_rejected(self):
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(SingularMatrixError):
            equilibrate_dense(A)

    def test_banded_and_sparse_variants(self):
        rng = np.random.default_rng(2)
        bm = random_banded(rng, 12, 2, 1)
        scaled, r, c = equilibrate(bm)
        dense = scaled.to_dense()
        nz = dense != 0.0
        row_max = np.abs(dense).max(axis=1)
        assert np.all(row_max >= 0.5) and np.all(row_max <= 2.0)
        sm = ReferenceSparse(sp.csr_matrix(bm.to_dense()))
        scaled2, r2, c2 = equilibrate(sm)
        assert np.allclose(scaled2.to_dense(), dense, atol=0)

    @pytest.mark.parametrize("n, kl, ku", [(12, 2, 1), (15, 1, 4), (9, 0, 3), (9, 3, 0),
                                           (4, 3, 1), (4, 0, 3), (5, 4, 2), (6, 2, 5)])
    def test_band_scaling_matches_dense(self, n, kl, ku):
        # asymmetric, one-sided and barely-fitting bands: a row-scale window
        # one slot off would scale in-matrix slots by a neighbour's scale
        rng = np.random.default_rng(100 * n + 10 * kl + ku)
        m = random_banded(rng, n, kl, ku)
        assert (m.lower, m.upper) == (kl, ku)
        A = m.to_dense()
        r, c = np.ldexp(1.0, rng.integers(-20, 20, n)), np.ldexp(1.0, rng.integers(-20, 20, n))
        scaled = m.scaled(r, c)
        expected = r[:, None] * A * c
        rows, cols = np.nonzero(expected)
        # slots outside the matrix stay zero as well
        assert np.array_equal(scaled.band,
                              ReferenceBanded.from_coo(n, rows, cols, expected[rows, cols]).band)
        # the row maxima of |A| reach row_scales, the column maxima are those
        # of diag(r) |A|, and the band stays as it was
        band, seen = m.band.copy(), []

        def row_scales(row_max):
            seen.append(row_max)
            return r

        r_out, col_max = m.row_scales_col_max(row_scales)
        assert np.array_equal(seen[0], np.abs(A).max(axis=1)) and r_out is r
        assert np.array_equal(col_max, np.abs(r[:, None] * A).max(axis=0))
        assert np.array_equal(m.band, band)
        eq, r1, c1 = equilibrate(m)
        eq2, r2, c2 = equilibrate(ReferenceSparse(sp.csr_matrix(A)))
        assert np.array_equal(r1, r2) and np.array_equal(c1, c2)
        assert np.array_equal(eq.to_dense(), eq2.to_dense())


class TestBandedSolve:
    def test_identity(self):
        m = ReferenceBanded.from_coo(5, range(5), range(5), np.ones(5))
        rhs = np.arange(5.0)
        res = lu_banded_solve(m, rhs)
        assert np.array_equal(res.x, rhs)
        assert res.residual <= 1e-15

    def test_poisson_tridiagonal_vs_dense(self):
        n = 10
        rows = list(range(n)) + list(range(n - 1)) + list(range(1, n))
        cols = list(range(n)) + list(range(1, n)) + list(range(n - 1))
        vals = [2.0] * n + [-1.0] * (2 * (n - 1))
        m = ReferenceBanded.from_coo(n, rows, cols, vals)
        rhs = np.ones(n)
        res = lu_banded_solve(m, rhs)
        expected = np.linalg.solve(m.to_dense(), rhs)
        assert np.max(np.abs(res.x - expected)) < 1e-12

    def test_duplicate_rows_flagged_singular(self):
        # two identical rows: a pivot collapses below tolerance
        rows = [0, 0, 1, 1, 2, 2]
        cols = [0, 1, 0, 1, 1, 2]
        vals = [1.0, 2.0, 1.0, 2.0, 1.0, 1.0]
        m = ReferenceBanded.from_coo(3, rows, cols, vals)
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

    def test_leaves_its_input_alone(self):
        # dgbsv factorizes a work array in place; the band, which the pivot
        # test and the residual read, and the right-hand side stay as they
        # were, and a Fortran-ordered band gives the same bits (with this
        # band's squares summed in column order the residual would differ)
        rng = np.random.default_rng(7)
        m = random_banded(rng, 200, 3, 2)
        rhs = rng.standard_normal(200)
        band, b = m.band.copy(), rhs.copy()
        res = lu_banded_solve(m, rhs)
        assert np.array_equal(m.band, band) and np.array_equal(rhs, b)
        f = BandedMatrix(m.n, m.lower, m.upper, np.asfortranarray(band))
        res_f = lu_banded_solve(f, rhs)
        assert np.array_equal(f.band, band) and np.array_equal(rhs, b)
        assert np.array_equal(res.x, res_f.x) and res.residual == res_f.residual

    def test_stays_on_the_band(self, monkeypatch):
        # pivot tolerance and residual are read off the band storage
        m = random_banded(np.random.default_rng(8), 30, 2, 3)
        rhs = np.ones(30)
        expected = lu_banded_solve(m, rhs)

        def refuse(self):
            raise AssertionError("lu_banded_solve converted the band to CSR")

        monkeypatch.setattr(type(m), "to_csr", refuse)
        res = lu_banded_solve(m, rhs)
        assert np.array_equal(res.x, expected.x) and res.residual == expected.residual

    def test_without_update_is_plain_dgbsv(self):
        # x is dgbsv's on the band, the residual that of A
        rng = np.random.default_rng(22)
        m = random_banded(rng, 150, 4, 3)
        rhs = rng.standard_normal(150)
        ab = np.zeros((2 * m.lower + m.upper + 1, m.n))
        ab[m.lower:] = m.band
        _, _, x, info = lapack.dgbsv(m.lower, m.upper, ab, rhs)
        res = lu_banded_solve(m, rhs)
        assert info == 0 and np.array_equal(res.x, x)
        assert res.residual == np.linalg.norm(m.matvec(x) - rhs) / (
            m.frobenius_norm() * np.linalg.norm(x) + np.linalg.norm(rhs))


def random_spd_lower_band(rng, n, kd):
    """An SPD matrix (diagonally dominant) by its lower band, and its dense copy."""
    band = rng.standard_normal((kd + 1, n))
    band[np.arange(n) >= n - np.arange(kd + 1)[:, None]] = 0.0  # slots outside A
    band[0] = np.abs(band[0]) + 2.0 * kd + 1.0
    A = sum(np.diag(band[d, :n - d], -d) for d in range(kd + 1))
    return BandedMatrix(n, kd, 0, band), A + np.tril(A, -1).T


class TestBandedCholesky:
    @pytest.mark.parametrize("n, kd", [(1, 0), (12, 3), (40, 7), (200, 5)])
    def test_matches_dense_solve(self, n, kd):
        rng = np.random.default_rng(n + kd)
        m, A = random_spd_lower_band(rng, n, kd)
        B = rng.standard_normal((n, 2))
        X = banded_cholesky(m)(B)
        expected = np.linalg.solve(A, B)
        assert np.abs(X - expected).max() <= 1e-13 * np.abs(expected).max()
        assert np.array_equal(banded_cholesky(m)(np.asfortranarray(B)), X)

    def test_indefinite_raises_with_pivot(self):
        m, _ = random_spd_lower_band(np.random.default_rng(5), 20, 2)
        m.band[0, 7] = -1.0
        with pytest.raises(SingularMatrixError) as info:
            banded_cholesky(m)
        assert info.value.pivot_index == 7

    def test_non_finite_solution_raises(self):
        m, _ = random_spd_lower_band(np.random.default_rng(6), 20, 2)
        B = np.ones((20, 1))
        B[3] = np.nan
        with pytest.raises(SingularMatrixError):
            banded_cholesky(m)(B)

    def test_upper_band_rejected(self):
        with pytest.raises(ValueError):
            banded_cholesky(BandedMatrix(3, 0, 1, np.ones((2, 3))))


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
        m = ReferenceSparse(A.tocsr())
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


def random_spd(rng, n, spread):
    """Exactly symmetric sparse SPD matrix with diagonal entries spread over
    10^+-spread."""
    B = sp.random(n, n, density=0.2, random_state=rng)
    scale = sp.diags(10.0 ** rng.uniform(-spread, spread, n))
    A = scale @ (B @ B.T + sp.identity(n)) @ scale
    return ReferenceSparse((A + A.T).tocsr())


class TestPCG:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(12)
        A = random_spd(rng, 60, 1)
        rhs = rng.standard_normal(60)
        jacobi = 1.0 / A.csr.diagonal()
        res = pcg(A, rhs, lambda r: jacobi * r)
        expected = np.linalg.solve(A.to_dense(), rhs)
        assert np.max(np.abs(res.x - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert res.residual <= 1e-15

    def test_exact_preconditioner_still_refines_once(self):
        # the inverse as preconditioner solves in one step; a second step
        # must still follow, so the preconditioner is applied twice
        rng = np.random.default_rng(13)
        A = random_spd(rng, 30, 1)
        inverse = np.linalg.inv(A.to_dense())
        calls = []

        def precondition(r):
            calls.append(1)
            return inverse @ r

        pcg(A, rng.standard_normal(30), precondition)
        assert len(calls) == 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_sharp_residual_drop_does_not_stop_it(self, seed):
        # P A has eigenvalues 1 and 3 on the bulk of the right-hand side and
        # ten in [0.01, 1] on a 1e-15 part, where A's eigenvalue is 0.1: the
        # residual drops by 1e-15 in the second step and then stalls, while
        # the error stays near 1e-13 max|x|.  Stopping on that one drop
        # leaves 1.2e-13 to 2e-13; the solve must go on through the stall to
        # the accuracy of the plain step rule (5e-15 to 1.3e-14 here)
        rng = np.random.default_rng(seed)
        n = 12
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = np.r_[10.0, 10.0, np.full(n - 2, 0.1)]
        theta = np.r_[1.0, 3.0, np.geomspace(0.01, 1.0, n - 2)]
        A, P = ((Q * d) @ Q.T for d in (lam, theta / lam))
        A, P = 0.5 * (A + A.T), 0.5 * (P + P.T)
        rhs = Q @ np.r_[1.0, 1.0, np.full(n - 2, 1e-15)]
        norms = []

        def precondition(r):
            norms.append(np.linalg.norm(r))
            return P @ r

        res = pcg(ReferenceSparse(sp.csr_matrix(A)), rhs, precondition)
        expected = np.linalg.solve(A, rhs)
        assert np.max(np.abs(res.x - expected)) <= 5e-14 * np.max(np.abs(expected))
        assert len(norms) > 3 and norms[2] < 1e-13 * norms[1]

    def test_zero_rhs_gives_zero(self):
        A = random_spd(np.random.default_rng(14), 10, 1)
        res = pcg(A, np.zeros(10), lambda r: r)
        assert np.array_equal(res.x, np.zeros(10)) and res.residual == 0.0

    def test_step_cap_raises_with_residual(self):
        # condition 1e8 and no preconditioning: far more steps than the cap
        A = SparseMatrix(sp.diags(np.geomspace(1.0, 1e8, 1000), format="csr"))
        with pytest.raises(SolverError) as info:
            pcg(A, np.ones(1000), lambda r: r)
        assert info.value.residual > 1e-12

    def test_non_finite_iterate_raises(self):
        A = random_spd(np.random.default_rng(15), 10, 1)
        rhs = np.ones(10)
        rhs[3] = np.nan
        with pytest.raises(SingularMatrixError):
            pcg(A, rhs, lambda r: r)
