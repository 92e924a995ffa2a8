import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from ldgshishkin import (
    ConfigurationError,
    DGFunction1D,
    MeshConfig,
    MixedSolution1D,
    SingularMatrixError,
    SolverError,
    SweepConfig,
    assemble_1d,
    build_shishkin_1d,
    build_shishkin_2d,
    discrete_norms_1d,
    error_norms_1d,
    manufactured_2d_problem,
    paper_1d_problem,
    polynomial_problem_1d,
    rate_shishkin,
    run_sweep,
    solve_ldg_1d,
    solve_ldg_2d,
)
from ldgshishkin import ldg1d, linalg, problems
from ldgshishkin.basis import reference_blocks_1d
from ldgshishkin.ldg1d import piece_blocks_1d
from ldgshishkin.ldg2d import assemble_2d
from ldgshishkin.linalg import _relative_residual
from ldgshishkin.problems import Problem1D
from reference import (banded_system_1d, bilinear_form_1d, interpolate_1d, load_functional_1d,
                       refined_solve_1d, run_fresh, sherman_morrison)


def unit_b(x):
    return np.ones_like(np.asarray(x, dtype=float))


def zero_f(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def make_mesh(N, eps, sigma=2.0):
    return build_shishkin_1d(MeshConfig(N=N, eps=eps, sigma=sigma))


def q_dofs(cells, k):
    """Qtilde dofs of ``cells`` in the field-major layout (Qtilde of every
    cell, then U of every cell) of the assembled system."""
    return (k + 1) * np.asarray(cells)[..., None] + np.arange(k + 1)


def u_dofs(cells, k, N):
    return q_dofs(cells, k) + N * (k + 1)


def field_major(N, k):
    """The cell-major dof of each field-major dof: x_field = x_cell[perm]."""
    cell = 2 * (k + 1) * np.arange(N)[:, None] + np.arange(k + 1)
    return np.concatenate([cell.ravel(), (cell + k + 1).ravel()])


def dense_a(system):
    """A as a dense array, column by column."""
    units = np.eye(system.rhs.size).reshape(-1, 2, *system.pieces.m.shape)
    return system.apply(units).reshape(system.rhs.size, -1).T


def apply_a(system, x):
    """A x for the flattened fields x, from ``apply``."""
    return system.apply(x.reshape(2, *system.pieces.m.shape)).ravel()


def u_schur(A0, e, n):
    """The Schur complement A_UU - A_UQ A_QQ^-1 A_QU of the field-major 2-field
    A = A0 + e e^T, e on the Qtilde dofs, whose A0 block F0 = M/s is diagonal:
    A_QQ^-1 = (F0 + e e^T)^-1 is applied by Sherman-Morrison.  A formed
    F0 + e e^T rounds its interface diagonal, and a dense solve with it
    moves S by up to 3e-15 relative (eps = 1e-1)."""
    F0, B, eQ = np.diagonal(A0)[:n], A0[:n, n:], e[:n]
    assert np.array_equal(A0[:n, :n], np.diag(F0)) and not e[n:].any()
    y, z = B / F0[:, None], eQ / F0
    return A0[n:, n:] - A0[n:, :n] @ (y - np.outer(z, eQ @ y) / (1.0 + eQ @ z))


def s_dense(matrix):
    """The symmetric S from its lower band."""
    L = sum(np.diag(matrix.band[d, :matrix.n - d], -d) for d in range(matrix.lower + 1))
    return L + np.tril(L, -1).T


def poison_layer_cell(problem, mesh, name, value=np.nan):
    """``problem`` with b or f set to ``value`` (NaN) inside the right-layer
    cell N-1 (row N-2); that open cell holds none of the points Problem1D
    checks b on."""
    x0, x1 = mesh.cell(mesh.N - 1)
    g = getattr(problem, name)

    def poisoned(x):
        x = np.asarray(x)
        return np.where((x0 < x) & (x < x1), value, g(x))

    return replace(problem, **{name: poisoned})


def random_pair(mesh, k, rng):
    N = mesh.N
    return MixedSolution1D(
        U=DGFunction1D(mesh, k, rng.standard_normal((N, k + 1))),
        Q=DGFunction1D(mesh, k, rng.standard_normal((N, k + 1))),
    )


def test_solution_fields_share_mesh_and_degree():
    mesh, other = make_mesh(8, 1e-4), make_mesh(8, 1e-4)
    U = DGFunction1D(mesh, 1, np.zeros((8, 2)))
    for Q in (DGFunction1D(other, 1, np.zeros((8, 2))), DGFunction1D(mesh, 2, np.zeros((8, 3)))):
        with pytest.raises(ConfigurationError, match="share mesh and degree"):
            MixedSolution1D(U=U, Q=Q)


@pytest.mark.parametrize("k", [0, -1])
def test_degree_below_one_rejected_by_the_pieces(k):
    # piece_blocks_1d holds the one degree check of both dimensions, and it
    # runs before anything reads the reference element of degree k
    mesh, mesh2 = make_mesh(8, 1e-4), build_shishkin_2d(MeshConfig(N=8, eps=1e-4, sigma=2.0))
    for build in (lambda: piece_blocks_1d(mesh, k, 1e-4),
                  lambda: assemble_1d(paper_1d_problem(1e-4), mesh, k),
                  lambda: assemble_2d(manufactured_2d_problem(1e-4), mesh2, k)):
        with pytest.raises(ConfigurationError, match=f"polynomial degree must be >= 1, got {k}"):
            build()


class TestAssembly:
    def test_matrix_dimension_and_bandwidth(self):
        mesh = make_mesh(8, 1e-3)
        p = paper_1d_problem(1e-3)
        for k in (1, 2, 3):
            system = assemble_1d(p, mesh, k)
            # the U-system: one field, coupling at most three cells, lower band only
            assert system.matrix.n == 8 * (k + 1)
            assert system.matrix.lower <= 3 * (k + 1) - 1 and system.matrix.upper == 0
            assert system.rhs.size == 2 * 8 * (k + 1)

    @pytest.mark.parametrize("eps", [1e-3, 1e-12])
    @pytest.mark.parametrize("N", [8, 64])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bandwidths_pinned(self, k, N, eps):
        # the interface term a g g^T couples cells J-1 and J+1, 3k+2 below
        # the diagonal; a band padded with zero diagonals would only slow dpbtrf
        system = assemble_1d(paper_1d_problem(eps), make_mesh(N, eps), k)
        assert system.matrix.lower == 3 * k + 2 and system.matrix.upper == 0

    @pytest.mark.parametrize("eps", [1e-1, 1e-8, 1e-12])  # 1e-1: clamped mesh
    @pytest.mark.parametrize("N", [4, 8, 16, 64])  # N=4: g's last cell J+1 is the last
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_band_matches_triplet_reference(self, k, N, eps):
        # the band of S, written in closed form, is the lower triangle of
        # the Schur complement A_UU - A_UQ A_QQ^-1 A_QU of the triplet-built
        # 2-field A0 + e e^T, with zeros in the band slots outside the
        # matrix; apply gives A0 + e e^T, the operator applies S and has
        # its Frobenius norm, and rhs is the reference's, in the
        # field-major layout
        p, mesh = paper_1d_problem(eps), make_mesh(N, eps, sigma=k + 1)
        system = assemble_1d(p, mesh, k)
        ref, e, b = banded_system_1d(p, mesh, k)
        perm, n = field_major(N, k), N * (k + 1)
        A0, e = ref.to_dense()[np.ix_(perm, perm)], e[perm]
        S_ref, A = u_schur(A0, e, n), A0 + np.outer(e, e)
        S = s_dense(system.matrix)
        assert np.abs(S - S_ref).max() <= 1e-15 * np.abs(S_ref).max()
        outside = np.arange(n) >= n - np.arange(system.matrix.lower + 1)[:, None]
        assert np.all(system.matrix.band[outside] == 0.0)
        assert np.array_equal(system.rhs, b[perm])
        x = np.random.default_rng(k * N).standard_normal(2 * n)
        error = np.abs(apply_a(system, x) - A @ x).max()
        assert error <= 1e-15 * np.abs(A).max() * np.abs(x).sum()
        u = x[n:]
        error = np.abs(system.matvec(u) - S_ref @ u).max()
        assert error <= 1e-15 * np.abs(S_ref).max() * np.abs(u).sum()
        assert system.frobenius_norm() == pytest.approx(np.linalg.norm(S_ref), rel=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_1d_path_uses_no_scipy_sparse(self, k, tmp_path):
        # in a new interpreter the 1D solve loads LAPACK but not scipy.sparse
        loaded, saved = run_fresh(f"""
            import numpy as np
            from ldgshishkin import MeshConfig, build_shishkin_1d, paper_1d_problem, solve_ldg_1d
            mesh = build_shishkin_1d(MeshConfig(N=32, eps=1e-8, sigma={k + 1}))
            sol = solve_ldg_1d(paper_1d_problem(1e-8), mesh, {k})
            np.savez(out, U=sol.U.coeffs, Q=sol.Q.coeffs)
        """, tmp_path)
        assert "scipy.sparse" not in loaded
        expected = solve_ldg_1d(paper_1d_problem(1e-8), make_mesh(32, 1e-8, sigma=k + 1), k)
        assert np.array_equal(saved["U"], expected.U.coeffs)
        assert np.array_equal(saved["Q"], expected.Q.coeffs)

    def test_interface_coupling_structure(self):
        # the penalized flux couples the Q blocks of the two cells sharing
        # node 3N/4; that coupling precludes local elimination of Q there.
        # It sits only in v v^T of the flux mass F = M/s + v v^T: F, the Q-Q
        # block of A, is diagonal but for the 2(k+1) block of cells J and
        # J+1, which v v^T fills
        N = 16
        mesh = make_mesh(N, 1e-3)
        J = mesh.interface_index  # node index; cells J and J+1 touch it
        for k in (1, 2, 3):
            system = assemble_1d(paper_1d_problem(1e-3), mesh, k)
            A, pair = dense_a(system), q_dofs([J - 1, J], k).ravel()
            n = N * (k + 1)
            F = A[:n, :n].copy()
            block = F[np.ix_(pair, pair)].copy()
            F[np.ix_(pair, pair)] = np.diag(np.diagonal(block))
            assert np.array_equal(F, np.diag(np.diagonal(F)))
            assert np.all(block[~np.eye(pair.size, dtype=bool)] != 0.0)
            assert np.any(A[np.ix_(q_dofs(J, k), u_dofs(J - 1, k, N))] != 0.0)

    @pytest.mark.parametrize("eps", [1e-4, 1e-12])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matrix_matches_quadrature_oracle(self, k, eps):
        # x^T A w = B(W; X), A = A0 + e e^T applied by apply, block by
        # block (Q/U parts of W against r/v parts of X), with the Q entries
        # unscaled from Qtilde = Q / sqrt(eps)
        rng = np.random.default_rng(41)
        N = 16
        mesh = make_mesh(N, eps, sigma=k + 1)
        p = Problem1D(eps=eps, b=lambda x: 1.5 + 0.5 * np.sin(3.0 * np.asarray(x)),
                      f=zero_f, beta=1.0)
        A = assemble_1d(p, mesh, k)

        def vector(pair, q_factor):
            return np.concatenate([q_factor * pair.Q.coeffs.ravel(), pair.U.coeffs.ravel()])

        def part(pair, field):
            zero = DGFunction1D(mesh, k, np.zeros((N, k + 1)))
            if field == "Q":
                return MixedSolution1D(U=zero, Q=pair.Q)
            return MixedSolution1D(U=pair.U, Q=zero)

        for _ in range(3):
            W, X = random_pair(mesh, k, rng), random_pair(mesh, k, rng)
            for wf in ("Q", "U"):
                for xf in ("Q", "U"):
                    Wp, Xp = part(W, wf), part(X, xf)
                    x, w = vector(Xp, 1.0), vector(Wp, 1.0 / A.pieces.s)
                    lhs = x @ apply_a(A, w)
                    oracle = bilinear_form_1d(Wp, Xp, p, mesh)
                    assert lhs == pytest.approx(oracle, rel=1e-12, abs=0.0), (wf, xf)

    @pytest.mark.parametrize("eps", [1e-4, 1e-12])
    @pytest.mark.parametrize("N", [8, 64])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_solution_matches_dense_solve(self, k, N, eps):
        # the U-system and the refinement step solve the triplet-built
        # 2-field A0 + e e^T: to rounding of a dense solve,
        # and with relative residuals of that system and of the U-system
        # (the one the solver reports) at rounding level
        p, mesh = paper_1d_problem(eps), make_mesh(N, eps, sigma=k + 1)
        ref, e, b = banded_system_1d(p, mesh, k)
        A = ref.to_dense() + np.outer(e, e)
        blocks = np.linalg.solve(A, b).reshape(N, 2 * (k + 1))
        s = np.sqrt(eps)
        U, Q = blocks[:, k + 1:], s * blocks[:, :k + 1]
        sol = solve_ldg_1d(p, mesh, k)
        assert np.abs(sol.U.coeffs - U).max() <= 1e-13 * np.abs(U).max()
        assert np.abs(sol.Q.coeffs - Q).max() <= 1e-13 * np.abs(Q).max()
        x = np.concatenate([sol.Q.coeffs / s, sol.U.coeffs], axis=1).ravel()
        residual = np.linalg.norm(A @ x - b) / (np.linalg.norm(A) * np.linalg.norm(x)
                                                 + np.linalg.norm(b))
        assert residual <= 1e-15 and sol.residual <= 1e-15

    def test_zero_data_gives_zero_solution(self):
        mesh = make_mesh(4, 1.0)
        p = Problem1D(eps=1.0, b=unit_b, f=zero_f, beta=1.0)
        sol = solve_ldg_1d(p, mesh, 1)
        assert np.max(np.abs(sol.U.coeffs)) == 0.0
        assert np.max(np.abs(sol.Q.coeffs)) == 0.0


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64 here")
class TestExtendedPrecisionReference:
    @pytest.mark.parametrize("N", [64, 512, 4096])
    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_solve_matches_refined_reference(self, k, eps, N):
        # against the equilibrated 2-field LU solve refined with long double
        # residuals, U and Q are within 1e-14 relative and no farther than
        # that LU solve (the 1D solve before the U-system), which they
        # match to 1e-13
        p, mesh = paper_1d_problem(eps), make_mesh(N, eps, sigma=k + 1)
        lu, refined = refined_solve_1d(p, mesh, k)
        sol = solve_ldg_1d(p, mesh, k)
        for got, lu_field, ref in zip((sol.U.coeffs, sol.Q.coeffs), lu, refined):
            scale = np.abs(ref).max()
            err = np.abs(got - ref).max() / scale
            assert err <= 1e-14
            assert err <= np.abs(lu_field - ref).max() / scale
            assert np.abs(got - lu_field).max() <= 1e-13 * np.abs(lu_field).max()
        assert sol.residual <= 1e-15


def general_first_solve_1d(problem, mesh, k):
    """U, Q and the residual of the 1D solve whose first step is the general
    ``AssembledSystem.solve`` of A x = (0, F), then one refinement step."""
    A = assemble_1d(problem, mesh, k)
    cholesky, b = linalg.banded_cholesky(A.matrix), A.rhs.reshape(2, mesh.N, k + 1)
    x = A.solve(cholesky, b)
    x += A.solve(cholesky, b - A.apply(x))
    Qt, U = x
    return U, A.pieces.s * Qt, _relative_residual(A, U.ravel(), b[1].ravel())


@pytest.mark.parametrize("N", [4, 64, 512])
@pytest.mark.parametrize("eps", [1e-1, 1e-8, 1e-12])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_first_solve_skips_the_zero_flux_load(k, eps, N):
    # U = S^-1 F, Qtilde = -F^-1 D U is the general solve of (0, F) to the last bit
    p, mesh = paper_1d_problem(eps), make_mesh(N, eps, sigma=k + 1)
    U, Q, residual = general_first_solve_1d(p, mesh, k)
    sol = solve_ldg_1d(p, mesh, k)
    assert np.array_equal(sol.U.coeffs, U) and np.array_equal(sol.Q.coeffs, Q)
    assert sol.residual == residual


class TestShermanMorrison:
    """The rank-one step of ``refined_solve_1d`` (``reference.sherman_morrison``)."""

    def test_solves_the_updated_system(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
        b, u, w = rng.standard_normal((3, 6))
        x = sherman_morrison(np.linalg.solve(A, b), np.linalg.solve(A, u), w)
        expected = np.linalg.solve(A + np.outer(u, w), b)
        assert np.abs(x - expected).max() <= 1e-14 * np.abs(expected).max()

    @pytest.mark.parametrize("wz", [-1.0, np.inf, np.nan])
    def test_singular_denominator_rejected(self, wz):
        with pytest.raises(SingularMatrixError):
            sherman_morrison(np.ones(2), np.array([wz, 0.0]), np.array([1.0, 0.0]))


class TestOperatorPieces:
    @pytest.mark.parametrize("N", [8, 16, 64])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pieces_match_kronecker_formulas(self, k, N):
        # the formulas of the OperatorPieces1D docstring, evaluated densely
        eps = 1e-6
        mesh = make_mesh(N, eps)
        pieces = piece_blocks_1d(mesh, k, eps)
        ref = reference_blocks_1d(k)
        ones, alt = ref.ones[:, None], ref.alt[:, None]
        s, J, I, n = np.sqrt(eps), mesh.interface_index, np.eye(N), N * (k + 1)
        first, last = np.outer(I[0], I[0]), np.outer(I[-1], I[-1])
        M = np.diag((0.5 * mesh.widths[:, None] * ref.mass).ravel())
        D = (np.kron(I, ref.G) - np.kron(I - last, ones @ ones.T)
             + np.kron(np.eye(N, k=-1), alt @ ones.T))
        v = np.kron(I[:, [J - 1]], ones) - np.kron(I[:, [J]], alt)
        # M/s taken as M times 1/s, as piece_blocks_1d forms it (true
        # division can differ in the last bit)
        F = M * (1.0 / s) + v @ v.T
        sE = s * (np.kron(last, ones @ ones.T) + np.kron(first, alt @ alt.T))
        inv = np.diag(s / np.diag(M))
        w = inv @ v
        F_inv = inv - (w @ w.T) / (1.0 + (v.T @ w).item())
        assert np.array_equal(pieces.m.ravel(), np.diag(M))
        identity = np.eye(n).reshape(n, N, k + 1)
        assert np.array_equal(ref.derivative(identity).reshape(n, n).T, D)
        F_solve = pieces.flux_solve(identity).reshape(n, n).T
        assert np.max(np.abs(F_solve - F_inv)) <= 1e-15 * np.max(np.abs(F_inv))
        G = pieces.flux_gradient(identity).reshape(n, n).T
        assert np.max(np.abs(F @ G - D)) <= 1e-14 * np.max(np.abs(D))
        K, expected = pieces.flux_eliminated(), sE + s * D.T @ F_inv @ D
        assert np.max(np.abs(K - expected)) <= 1e-15 * np.max(np.abs(expected))
        assert np.array_equal(K, K.T)

    def test_pieces_hold_what_the_solves_read(self):
        # D, F and s E have one form in the package, the matrix-free one
        assert not hasattr(ldg1d, "CellBlocks")
        assert [f.name for f in fields(ldg1d.OperatorPieces1D)] == [
            "m", "s", "interface", "eliminated"]

    def test_one_elimination(self):
        # K0 has one constructor, piece_blocks_1d, for both dimensions
        assert not hasattr(ldg1d, "eliminated_blocks_1d")

    def test_solve_builds_pieces_once(self, monkeypatch):
        calls, build = [], ldg1d.piece_blocks_1d

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(ldg1d, "piece_blocks_1d", counted)
        solve_ldg_1d(paper_1d_problem(1e-8), make_mesh(8, 1e-8), 1)
        assert len(calls) == 1

    def test_band_released_before_the_solves(self, monkeypatch):
        # nothing holds the band of S once it is factored: the solves reuse its pages
        factor, solve, bands = ldg1d.banded_cholesky, ldg1d.AssembledSystem.solve, []

        def factored(matrix):
            bands.append(weakref.ref(matrix))
            return factor(matrix)

        def released(self, *args):
            assert bands[0]() is None
            return solve(self, *args)

        monkeypatch.setattr(ldg1d, "banded_cholesky", factored)
        monkeypatch.setattr(ldg1d.AssembledSystem, "solve", released)
        solve_ldg_1d(paper_1d_problem(1e-8), make_mesh(8, 1e-8), 1)
        assert len(bands) == 1

    @pytest.mark.parametrize("dim", [1, 2])
    def test_flux_band_written_once_per_solve(self, dim, monkeypatch):
        # K's band has one writer; the 1D band of S and the dense 2D K read it
        calls, write = [], ldg1d.OperatorPieces1D.flux_band

        def counted(self):
            calls.append(self)
            return write(self)

        monkeypatch.setattr(ldg1d.OperatorPieces1D, "flux_band", counted)
        config = MeshConfig(N=8, eps=1e-8, sigma=2.0)
        if dim == 1:
            solve_ldg_1d(paper_1d_problem(1e-8), build_shishkin_1d(config), 1)
        else:
            solve_ldg_2d(manufactured_2d_problem(1e-8), build_shishkin_2d(config), 1)
        assert len(calls) == 1

    @pytest.mark.parametrize("eps", [1e-1, 1e-8])  # 1e-1: clamped mesh
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_1d_and_2d_read_the_same_pieces(self, k, eps):
        config = MeshConfig(N=16, eps=eps, sigma=k + 1)
        one = assemble_1d(paper_1d_problem(eps), build_shishkin_1d(config), k).pieces
        two = assemble_2d(manufactured_2d_problem(eps), build_shishkin_2d(config), k).pieces
        for f in fields(ldg1d.OperatorPieces1D):
            a, b = getattr(one, f.name), getattr(two, f.name)
            if isinstance(a, tuple):
                assert len(a) == len(b) and all(map(np.array_equal, a, b)), f.name
            else:
                assert np.array_equal(a, b), f.name


class TestEnergyIdentity:
    @pytest.mark.parametrize("eps", [1.0, 1e-4, 1e-8])
    def test_b_of_v_v_equals_energy_sq(self, eps):
        rng = np.random.default_rng(17)
        p = paper_1d_problem(eps)
        mesh = make_mesh(16, eps)
        for _ in range(20):
            V = random_pair(mesh, 2, rng)
            BV = bilinear_form_1d(V, V, p, mesh)
            E2 = discrete_norms_1d(V, p, mesh)[0].total ** 2
            assert abs(BV - E2) <= 1e-12 * (1.0 + E2)

    def test_bilinearity_and_zero(self):
        rng = np.random.default_rng(18)
        p = paper_1d_problem(1e-4)
        mesh = make_mesh(8, 1e-4)
        W = random_pair(mesh, 1, rng)
        X = random_pair(mesh, 1, rng)
        Z = MixedSolution1D(
            U=DGFunction1D.zeros(mesh, 1), Q=DGFunction1D.zeros(mesh, 1)
        )
        assert bilinear_form_1d(Z, X, p, mesh) == 0.0
        a = 3.5
        Wa = MixedSolution1D(
            U=DGFunction1D(mesh, 1, a * W.U.coeffs), Q=DGFunction1D(mesh, 1, a * W.Q.coeffs)
        )
        assert bilinear_form_1d(Wa, X, p, mesh) == pytest.approx(
            a * bilinear_form_1d(W, X, p, mesh), rel=1e-12
        )


class TestGalerkinResidual:
    @pytest.mark.parametrize("eps", [1e-2, 1e-6])
    def test_solution_satisfies_weak_form(self, eps):
        k, N = 1, 16
        p = paper_1d_problem(eps)
        mesh = make_mesh(N, eps)
        W = solve_ldg_1d(p, mesh, k)
        scale_W = 1.0 + discrete_norms_1d(W, p, mesh)[0].total
        # sweep the full modal test basis
        for cell in range(N):
            for mode in range(k + 1):
                for field in ("q", "u"):
                    X = MixedSolution1D(
                        U=DGFunction1D.zeros(mesh, k), Q=DGFunction1D.zeros(mesh, k)
                    )
                    (X.Q if field == "q" else X.U).coeffs[cell, mode] = 1.0
                    lhs = bilinear_form_1d(W, X, p, mesh)
                    rhs = load_functional_1d(p.f, X, mesh)
                    scale = scale_W * (1.0 + discrete_norms_1d(X, p, mesh)[0].total)
                    assert abs(lhs - rhs) <= 1e-9 * scale


class TestSchemeExactness:
    @pytest.mark.parametrize("eps", [1.0, 1e-4, 1e-8])
    @pytest.mark.parametrize("N", [4, 16])
    def test_polynomial_solution_reproduced(self, eps, N):
        p = polynomial_problem_1d(eps, 2)
        mesh = make_mesh(N, eps, sigma=3.0)
        sol = solve_ldg_1d(p, mesh, 2)
        energy, balanced = error_norms_1d(sol, p, mesh)
        assert energy.total <= 1e-9
        assert balanced.total <= 1e-9


class TestFluxConsistency:
    def test_continuous_interpolant_has_no_penalty(self):
        # globally continuous traces with vanishing boundary values kill
        # every jump penalty identically
        eps = 1e-4
        p = paper_1d_problem(eps)
        mesh = make_mesh(16, eps)
        k = 2
        V = MixedSolution1D(
            U=interpolate_1d(lambda x: np.sin(np.pi * np.asarray(x)), mesh, k),
            Q=interpolate_1d(lambda x: np.cos(np.pi * np.asarray(x)), mesh, k),
        )
        nb = discrete_norms_1d(V, p, mesh)[0]
        assert nb.boundary_jump_term <= 1e-12
        assert nb.interface_jump_term <= 1e-12


def _without_interface_penalty(mesh, k, eps):
    pieces = piece_blocks_1d(mesh, k, eps)
    J, v = pieces.interface
    return replace(pieces, interface=(J, 0 * v))


@pytest.fixture(scope="module")
def paper_table_with_and_without_penalty():
    """(eps, k, N) -> [(Q jump at node 3N/4, energy error, balanced error) of the
    scheme, the same with the interface penalty dropped] on the paper's 1D table."""
    rows = {}
    for eps in (1e-4, 1e-8, 1e-12):
        p = paper_1d_problem(eps)
        for k in (1, 2, 3):
            for N in (64, 128, 256, 512, 1024):
                mesh, pair = make_mesh(N, eps, sigma=k + 1), []
                J = mesh.interface_index
                for pieces in (piece_blocks_1d, _without_interface_penalty):
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(ldg1d, "piece_blocks_1d", pieces)
                        sol = solve_ldg_1d(p, mesh, k)
                    energy, balanced = error_norms_1d(sol, p, mesh)
                    jump = sol.Q.left_traces()[J] - sol.Q.right_traces()[J - 1]
                    pair.append((jump, energy.total, balanced.total))
                rows[eps, k, N] = pair
    return rows


class TestInterfacePenalty:
    """The penalty on the Q jump at node 3N/4 is the paper's flux; on paper1d it
    halves that jump but leaves the errors and their rates all but unchanged."""

    def test_penalty_halves_the_q_jump(self, paper_table_with_and_without_penalty):
        # measured 0.500-0.518 at eps <= 1e-8; a dropped or misweighted term leaves 1
        ratios = {key: with_[0] / without[0]
                  for key, (with_, without) in paper_table_with_and_without_penalty.items()
                  if key[0] <= 1e-8}
        assert all(0.49 <= r <= 0.53 for r in ratios.values()), ratios

    def test_penalty_moves_no_error_or_rate(self, paper_table_with_and_without_penalty):
        # measured at most 3.7e-4 relative (k=1, N=64) and 4e-4 in a balanced rate
        rows = paper_table_with_and_without_penalty
        for (eps, k, N), (with_, without) in rows.items():
            assert with_[1:] == pytest.approx(without[1:], rel=5e-4), (eps, k, N)
            if (eps, k, 2 * N) in rows:
                after = rows[eps, k, 2 * N]
                assert abs(rate_shishkin(with_[2], after[0][2], N)
                           - rate_shishkin(without[2], after[1][2], N)) <= 0.01, (eps, k, N)


class TestReferenceValues:
    def test_balanced_error_magnitude(self):
        # reference anchor 0.25 at k=1, N=32; measured offset is a constant
        # factor ~2.25 below the reference values, so
        # the bracket allows factor 2.5
        p = paper_1d_problem(1e-8)
        mesh = make_mesh(32, 1e-8)
        sol = solve_ldg_1d(p, mesh, 1)
        _, balanced = error_norms_1d(sol, p, mesh)
        assert 0.25 / 2.5 <= balanced.total <= 0.25 * 2.5

    def test_energy_error_magnitude(self):
        p = paper_1d_problem(1e-4)
        mesh = make_mesh(32, 1e-4)
        sol = solve_ldg_1d(p, mesh, 1)
        energy, _ = error_norms_1d(sol, p, mesh)
        assert 0.026 / 2.5 <= energy.total <= 0.026 * 2.5

    def test_energy_rate_32_to_64(self):
        # reference rate 1.59 at eps = 1e-4, k = 1
        p = paper_1d_problem(1e-4)
        errs = {}
        for N in (32, 64):
            mesh = make_mesh(N, 1e-4)
            sol = solve_ldg_1d(p, mesh, 1)
            energy, _ = error_norms_1d(sol, p, mesh)
            errs[N] = energy.total
        rate = rate_shishkin(errs[32], errs[64], 32)
        assert rate == pytest.approx(1.59, abs=0.1)


class TestSolverContract:
    def test_residual_reported_and_small(self):
        p = paper_1d_problem(1e-12)
        mesh = make_mesh(64, 1e-12, sigma=4.0)
        sol = solve_ldg_1d(p, mesh, 3)
        assert sol.residual <= 1e-10

    def test_unreachable_tolerance_raises_with_residual(self, monkeypatch):
        # the one tolerance of both solves lives in linalg
        monkeypatch.setattr(linalg, "_RESIDUAL_TOL", 0.0)
        p = paper_1d_problem(1e-4)
        mesh = make_mesh(8, 1e-4)
        with pytest.raises(SolverError) as info:
            solve_ldg_1d(p, mesh, 1)
        assert info.value.residual is not None and info.value.residual > 0.0

    def test_perturbed_solution_reads_the_same_residual_at_every_eps(self):
        # the reported residual is ||f - S U|| / (||S||_F ||U|| + ||f||) of the
        # assembled S at the returned U; at U scaled by 1 + 1e-8 xi (Q kept) it
        # reads the same within a factor 2 as eps falls, and above the
        # tolerance, where the residual of A fell below it
        k, N, seen = 1, 64, []
        xi = np.random.default_rng(61).standard_normal((N, k + 1))
        for eps in (1e-4, 1e-8, 1e-12):
            p, mesh = paper_1d_problem(eps), make_mesh(N, eps, sigma=k + 1)
            A, sol = assemble_1d(p, mesh, k), solve_ldg_1d(p, mesh, k)
            f = A.rhs.reshape(2, -1)[1]
            assert sol.residual == _relative_residual(A, sol.U.coeffs.ravel(), f)
            U = sol.U.coeffs * (1.0 + 1e-8 * xi)
            seen.append(_relative_residual(A, U.ravel(), f))
        assert min(seen) > linalg._RESIDUAL_TOL and max(seen) <= 2.0 * min(seen), seen

    @pytest.mark.parametrize("name", ["b", "f"])
    def test_nan_data_raises_typed_error(self, name):
        eps = 1e-8
        mesh = make_mesh(8, eps)
        p = poison_layer_cell(paper_1d_problem(eps), mesh, name)
        with pytest.raises(SingularMatrixError):
            solve_ldg_1d(p, mesh, 1)

    def test_indefinite_u_system_raises_with_pivot(self):
        # b = -1e6 inside cell row N-2 makes S indefinite there: the
        # banded Cholesky stops at a pivot of that cell
        eps, N, k = 1e-8, 8, 1
        mesh = make_mesh(N, eps)
        p = poison_layer_cell(paper_1d_problem(eps), mesh, "b", value=-1e6)
        with pytest.raises(SingularMatrixError) as info:
            solve_ldg_1d(p, mesh, k)
        assert (N - 2) * (k + 1) <= info.value.pivot_index < (N - 1) * (k + 1)

    @pytest.mark.parametrize("scale, match", [(1e200, "denominator"), (np.nan, None)])
    def test_interface_update_failure_raises_typed_error(self, scale, match, monkeypatch):
        # with v scaled by 1e200, 1 + v^T s M^-1 v overflows, and a NaN in v
        # makes it NaN: the flux mass F = M/s + v v^T has no finite inverse
        build = ldg1d.piece_blocks_1d

        def scaled_interface(*args):
            pieces = build(*args)
            J, v = pieces.interface
            return replace(pieces, interface=(J, v * scale))

        monkeypatch.setattr(ldg1d, "piece_blocks_1d", scaled_interface)
        mesh = make_mesh(8, 1e-4)
        with pytest.raises(SingularMatrixError, match=match), np.errstate(over="ignore"):
            solve_ldg_1d(paper_1d_problem(1e-4), mesh, 1)

    @pytest.mark.parametrize("name", ["b", "f"])
    def test_nan_data_row_recorded_failed(self, name, monkeypatch):
        def factory(eps, k):
            mesh = build_shishkin_1d(MeshConfig(N=8, eps=eps, sigma=k + 1))
            return poison_layer_cell(paper_1d_problem(eps), mesh, name)

        monkeypatch.setitem(problems.PROBLEMS_1D, "nancell1d", factory)
        table = run_sweep(SweepConfig(problem="nancell1d", k_list=(1,),
                                      n_list=(8,), eps_list=(1e-8,)))
        (row,) = table.rows
        assert row.failed and row.message.startswith("SingularMatrixError")
