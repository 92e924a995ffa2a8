import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from ldgshishkin import (
    AssembledSystem2D,
    ConfigurationError,
    DGFunction2D,
    MeshConfig,
    MixedSolution2D,
    SingularMatrixError,
    SolverError,
    SweepConfig,
    assemble_2d,
    balanced_norm_2d,
    build_shishkin_2d,
    energy_norm_2d,
    error_norms_2d,
    manufactured_2d_problem,
    run_sweep,
    solve_ldg_2d,
)
from ldgshishkin import ldg2d, linalg, problems
from ldgshishkin.basis import assembly_quad_order, gauss_rule, grid_product, reference_blocks_1d
from ldgshishkin.ldg2d import _fast_diagonalization
from ldgshishkin.linalg import _relative_residual, equilibrate, pcg, sparse_solve
from ldgshishkin.problems import Problem2D
from reference import (bilinear_form_2d, coupled_matrix, coupled_rhs, load_functional_2d,
                       reaction_blocks, refined_solve_2d, run_fresh)


def const_b(value):
    def b(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.full(np.broadcast_shapes(x.shape, y.shape), value)
    return b


def make_mesh(N, eps, sigma=2.0):
    return build_shishkin_2d(MeshConfig(N=N, eps=eps, sigma=sigma))


def poly_problem_2d(eps):
    u = lambda x, y: np.asarray(x) * (1 - np.asarray(x)) * np.asarray(y) * (1 - np.asarray(y))
    ux = lambda x, y: (1 - 2 * np.asarray(x)) * np.asarray(y) * (1 - np.asarray(y))
    uy = lambda x, y: np.asarray(x) * (1 - np.asarray(x)) * (1 - 2 * np.asarray(y))
    lap = lambda x, y: -2 * np.asarray(y) * (1 - np.asarray(y)) - 2 * np.asarray(x) * (1 - np.asarray(x))
    f = lambda x, y: -eps * lap(x, y) + 2.0 * u(x, y)
    return Problem2D(eps=eps, b=const_b(2.0), f=f, beta=1.0, u_exact=u,
                     du_dx_exact=ux, du_dy_exact=uy, lap_u_exact=lap)


def variable_b_problem(eps):
    # the manufactured load with b = 2 + 1.5 sin(pi x y) >= 2 beta^2
    b = lambda x, y: 2.0 + 1.5 * np.sin(np.pi * np.asarray(x) * np.asarray(y))
    return Problem2D(eps=eps, b=b, f=manufactured_2d_problem(eps).f, beta=1.0)


def problem_with_b(b, eps):
    return manufactured_2d_problem(eps) if b == "constant" else variable_b_problem(eps)


def nan_on_one_cell(problem, mesh, name):
    """``problem`` with b or f NaN inside one corner-layer cell; the open
    cell holds none of the points Problem2D checks b on."""
    (x0, x1), (y0, y1) = mesh.cell(mesh.N - 1, mesh.N - 1)
    g = getattr(problem, name)

    def poisoned(x, y):
        x, y = np.asarray(x), np.asarray(y)
        return np.where((x0 < x) & (x < x1) & (y0 < y) & (y < y1), np.nan, g(x, y))

    return replace(problem, **{name: poisoned})


def kron_order(N, k):
    """Cell-major position (i, j, m, n) of each kron-order (i, m, j, n) dof
    of one field: the order of the W_b blocks of ``reaction_blocks``."""
    k1 = k + 1
    return np.arange(N * N * k1 * k1).reshape(N, N, k1, k1).transpose(0, 2, 1, 3).ravel()


def dense(operator, n):
    """The matrix of a matrix-free operator, one column per unit vector."""
    return np.column_stack([operator.matvec(e) for e in np.eye(n)])


def schur_complement(system):
    """The dense Schur complement of the coupled matrix onto U (kron order)."""
    A = coupled_matrix(system).to_dense()
    M = system.load.size
    u, p, q = slice(0, M), slice(M, 2 * M), slice(2 * M, 3 * M)
    return (A[u, u]
            - A[u, p] @ np.linalg.solve(A[p, p], A[p, u])
            - A[u, q] @ np.linalg.solve(A[q, q], A[q, u]))


def random_triple(mesh, k, rng):
    N = mesh.N
    shape = (N, k + 1, N, k + 1)
    return MixedSolution2D(
        U=DGFunction2D(mesh, k, rng.standard_normal(shape)),
        P=DGFunction2D(mesh, k, rng.standard_normal(shape)),
        Q=DGFunction2D(mesh, k, rng.standard_normal(shape)),
    )


def test_solution_fields_share_mesh_and_degree():
    mesh, other, rng = make_mesh(8, 1e-4), make_mesh(8, 1e-4), np.random.default_rng(3)
    good = random_triple(mesh, 1, rng)
    for field in (random_triple(other, 1, rng).P, random_triple(mesh, 2, rng).P):
        for name in ("U", "P", "Q"):
            with pytest.raises(ConfigurationError, match="share mesh and degree"):
                replace(good, **{name: field})


class TestAssembly2D:
    def test_matrix_dimension(self):
        mesh = make_mesh(4, 1e-2)
        p = manufactured_2d_problem(1e-2)
        for k in (1, 2):
            system = assemble_2d(p, mesh, k)
            assert system.matrix.n == 3 * 16 * (k + 1) ** 2

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matrix_stores_no_zeros(self, k):
        # the tracer's ldg2d.nnz counts the nonzero entries
        csr = assemble_2d(manufactured_2d_problem(1e-4), make_mesh(8, 1e-4), k).matrix.csr
        assert csr.nnz == np.count_nonzero(csr.data)

    @pytest.mark.parametrize("eps", [1e-4, 1e-12])
    @pytest.mark.parametrize("k", [1, 2])
    def test_matrix_matches_quadrature_oracle(self, k, eps):
        # x^T A w = B(T; Z) block by block over the (U, P, Q) parts of T and
        # Z, with the P and Q columns unscaled by pieces.s = sqrt(eps)
        rng = np.random.default_rng(43)
        N = 8
        mesh = make_mesh(N, eps, sigma=k + 1)
        b = lambda x, y: 2.5 + 0.5 * np.sin(3.0 * np.asarray(x) + 2.0 * np.asarray(y))
        p = Problem2D(eps=eps, b=b, f=lambda x, y: 0.0 * b(x, y), beta=1.0)
        system = assemble_2d(p, mesh, k)
        A = system.matrix.csr
        zero = DGFunction2D.zeros(mesh, k)
        fields = ("U", "P", "Q")

        def vector(triple, pq_factor):
            return np.concatenate([triple.U.coeffs.ravel(),
                                   pq_factor * triple.P.coeffs.ravel(),
                                   pq_factor * triple.Q.coeffs.ravel()])

        def part(triple, field):
            return MixedSolution2D(**{f: getattr(triple, f) if f == field else zero
                                      for f in fields})

        for _ in range(2):
            T, Z = random_triple(mesh, k, rng), random_triple(mesh, k, rng)
            for tf in fields:
                for zf in fields:
                    Tp, Zp = part(T, tf), part(Z, zf)
                    lhs = vector(Zp, 1.0) @ (A @ vector(Tp, 1.0 / system.pieces.s))
                    oracle = bilinear_form_2d(Tp, Zp, p, mesh)
                    assert lhs == pytest.approx(oracle, rel=1e-12, abs=0.0), (tf, zf)

    def test_zero_data_zero_solution(self):
        mesh = make_mesh(4, 1e-2)
        p = Problem2D(eps=1e-2, b=const_b(2.0),
                      f=lambda x, y: 0.0 * (np.asarray(x) + np.asarray(y)), beta=1.0)
        sol = solve_ldg_2d(p, mesh, 1)
        assert np.max(np.abs(sol.U.coeffs)) == 0.0
        assert np.max(np.abs(sol.P.coeffs)) == 0.0
        assert np.max(np.abs(sol.Q.coeffs)) == 0.0

    def test_interface_coupling_structure(self):
        # P rows of cells in mesh column 3N/4 couple to column 3N/4+1 and
        # vice versa; mirrored for Q across the horizontal interface line
        N, k = 8, 1
        mesh = make_mesh(N, 1e-3)
        p = manufactured_2d_problem(1e-3)
        system = assemble_2d(p, mesh, k)
        A = system.matrix.csr
        field = system.load.size
        # dofs of cell (ci, cj) in the P and Q blocks of the field-major layout
        cell_dofs = np.arange(field).reshape(N, k + 1, N, k + 1)
        p_slice = lambda ci, cj: field + cell_dofs[ci, :, cj].ravel()
        q_slice = lambda ci, cj: field + p_slice(ci, cj)
        J = mesh.axis.interface_index
        cj = 2  # arbitrary row of cells
        pL = p_slice(J - 1, cj)
        pR = p_slice(J, cj)
        sub = A[pL, :][:, pR].toarray()
        assert np.any(sub != 0.0)
        sub = A[pR, :][:, pL].toarray()
        assert np.any(sub != 0.0)
        qB = q_slice(cj, J - 1)
        qT = q_slice(cj, J)
        assert np.any(A[qB, :][:, qT].toarray() != 0.0)
        # no P-P cross coupling away from the interface
        pa = p_slice(0, cj)
        pb = p_slice(1, cj)
        assert np.all(A[pa, :][:, pb].toarray() == 0.0)


def solve_full_system(p, mesh, k):
    """Solve the assembled (U, P, Q) system directly, without eliminating
    the fluxes: an independent path to the same discrete solution."""
    system = assemble_2d(p, mesh, k)
    scaled, r, c = equilibrate(coupled_matrix(system))
    x = c * sparse_solve(scaled, r * coupled_rhs(system)).x
    M = system.load.size
    shape = (mesh.N, k + 1, mesh.N, k + 1)

    def field(values, scale=1.0):
        return DGFunction2D(mesh, k, scale * values.reshape(shape))

    return MixedSolution2D(U=field(x[:M]),
                           P=field(x[M:2 * M], system.pieces.s),
                           Q=field(x[2 * M:], system.pieces.s))


class TestExactness2D:
    # "condensed": the flux-eliminated U-system of solve_ldg_2d;
    # "full": a direct solve of the assembled 3-field system
    @pytest.mark.parametrize("eps", [1.0, 1e-4, 1e-8])
    @pytest.mark.parametrize("path", ["condensed", "full"])
    def test_tensor_quadratic_reproduced(self, eps, path):
        p = poly_problem_2d(eps)
        mesh = make_mesh(8, eps, sigma=3.0)
        solve = solve_ldg_2d if path == "condensed" else solve_full_system
        sol = solve(p, mesh, 2)
        energy, balanced = error_norms_2d(sol, p, mesh)
        assert energy.total <= 1e-8
        assert balanced.total <= 1e-8


class TestEnergyIdentity2D:
    @pytest.mark.parametrize("eps", [1.0, 1e-4, 1e-8])
    @pytest.mark.parametrize("N", [4, 8])
    def test_b_t_t_equals_energy_sq(self, eps, N):
        rng = np.random.default_rng(23)
        p = manufactured_2d_problem(eps)
        mesh = make_mesh(N, eps)
        for _ in range(20):
            T = random_triple(mesh, 1, rng)
            BT = bilinear_form_2d(T, T, p, mesh)
            E2 = energy_norm_2d(T, p, mesh).total ** 2
            assert abs(BT - E2) <= 1e-11 * (1.0 + E2)

    def test_bilinearity(self):
        rng = np.random.default_rng(29)
        p = manufactured_2d_problem(1e-4)
        mesh = make_mesh(4, 1e-4)
        T = random_triple(mesh, 1, rng)
        Z = random_triple(mesh, 1, rng)
        a = -2.5
        Ta = MixedSolution2D(
            U=DGFunction2D(mesh, 1, a * T.U.coeffs),
            P=DGFunction2D(mesh, 1, a * T.P.coeffs),
            Q=DGFunction2D(mesh, 1, a * T.Q.coeffs),
        )
        assert bilinear_form_2d(Ta, Z, p, mesh) == pytest.approx(
            a * bilinear_form_2d(T, Z, p, mesh), rel=1e-11
        )


class TestGalerkinResidual2D:
    def test_solution_satisfies_weak_form(self):
        rng = np.random.default_rng(31)
        eps = 1e-4
        p = manufactured_2d_problem(eps)
        mesh = make_mesh(8, eps)
        T = solve_ldg_2d(p, mesh, 1)
        scale_T = 1.0 + energy_norm_2d(T, p, mesh).total
        for _ in range(10):
            Z = random_triple(mesh, 1, rng)
            lhs = bilinear_form_2d(T, Z, p, mesh)
            rhs = load_functional_2d(p.f, Z, mesh)
            scale = scale_T * (1.0 + energy_norm_2d(Z, p, mesh).total)
            assert abs(lhs - rhs) <= 1e-8 * scale


class TestNormInequality2D:
    @pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-10])
    def test_balanced_below_scaled_energy(self, eps):
        rng = np.random.default_rng(37)
        p = manufactured_2d_problem(eps)
        mesh = make_mesh(4, eps)
        for _ in range(10):
            T = random_triple(mesh, 1, rng)
            B = balanced_norm_2d(T, p, mesh).total
            E = energy_norm_2d(T, p, mesh).total
            assert B <= eps**-0.25 * E * (1.0 + 1e-12)


class TestSymmetry:
    def test_solution_symmetric_under_axis_swap(self):
        # u(x, y) = u(y, x) for the manufactured problem; the discrete
        # solution inherits the symmetry through the mirrored fluxes
        eps = 1e-4
        p = manufactured_2d_problem(eps)
        mesh = make_mesh(8, eps)
        sol = solve_ldg_2d(p, mesh, 1)
        U = sol.U.coeffs  # (i, m, j, n): the reflection swaps (i, m) and (j, n)
        swapped = np.transpose(U, (2, 3, 0, 1))
        scale = np.max(np.abs(U))
        assert np.max(np.abs(U - swapped)) <= 1e-10 * scale
        # P and Q swap roles under the reflection
        P = sol.P.coeffs
        Q = sol.Q.coeffs
        assert np.max(np.abs(P - np.transpose(Q, (2, 3, 0, 1)))) <= 1e-10 * np.max(np.abs(P))


class TestCondensation:
    @pytest.mark.parametrize("eps", [1e-2, 1e-8, 1e-12])
    def test_condensed_matches_full(self, eps):
        # the U-only solve against a dense solve of the full (U, P, Q) system
        p = manufactured_2d_problem(eps)
        mesh = make_mesh(8, eps, sigma=1.0)
        for k in (1, 2):
            sol = solve_ldg_2d(p, mesh, k)
            system = assemble_2d(p, mesh, k)
            x = np.linalg.solve(coupled_matrix(system).to_dense(), coupled_rhs(system))
            M = system.load.size
            fields = (
                (sol.U, x[:M]),
                (sol.P, system.pieces.s * x[M:2 * M]),
                (sol.Q, system.pieces.s * x[2 * M:]),
            )
            for f, dense in fields:
                dense = dense.reshape(f.coeffs.shape)
                scale = np.max(np.abs(dense))
                assert np.max(np.abs(f.coeffs - dense)) <= 1e-12 * scale, (k, eps)

    @pytest.mark.parametrize("eps", [1e-2, 1e-8, 1e-12])
    @pytest.mark.parametrize("k", [1, 2])
    def test_u_operator_is_schur_complement(self, k, eps):
        system = assemble_2d(manufactured_2d_problem(eps), make_mesh(8, eps, sigma=1.0), k)
        schur = schur_complement(system)
        S = dense(system, system.load.size)
        assert np.max(np.abs(S - schur)) <= 1e-13 * np.max(np.abs(schur))

    @pytest.mark.parametrize("eps", [1e-2, 1e-8, 1e-12])
    @pytest.mark.parametrize("k", [1, 2])
    def test_u_operator_symmetric_positive_definite(self, k, eps):
        system = assemble_2d(manufactured_2d_problem(eps), make_mesh(8, eps, sigma=1.0), k)
        S = dense(system, system.load.size)
        assert np.max(np.abs(S - S.T)) <= 1e-15 * np.max(np.abs(S))
        np.linalg.cholesky(S)

    @pytest.mark.parametrize("eps", [1e-2, 1e-8, 1e-12])
    @pytest.mark.parametrize("k", [1, 2])
    def test_flux_mass_inverse(self, k, eps):
        # G = F^-1 D, applied along the last two axes (cell, mode): F G = D
        N = 8
        system = assemble_2d(manufactured_2d_problem(eps), make_mesh(N, eps, sigma=1.0), k)
        pieces, n, (J, v) = system.pieces, N * (k + 1), system.pieces.interface
        identity = np.eye(n).reshape(n, N, k + 1)
        G = pieces.flux_gradient(identity).reshape(n, n).T
        D = reference_blocks_1d(k).derivative(identity).reshape(n, n).T
        e = np.zeros((N, k + 1))
        e[J - 1:J + 1] = v.reshape(2, k + 1)
        F = np.diag((pieces.m * (1.0 / pieces.s)).ravel()) + np.outer(e, e)
        assert np.max(np.abs(F @ G - D)) <= 1e-14 * np.max(np.abs(D))

    @pytest.mark.parametrize("k", [1, 2])
    def test_solve_never_builds_coupled_matrix(self, k, monkeypatch):
        p = manufactured_2d_problem(1e-8)
        mesh = make_mesh(8, 1e-8)
        expected = solve_ldg_2d(p, mesh, k).U.coeffs

        def refuse(system):
            raise AssertionError("the solve built the coupled (U, P, Q) matrix")

        monkeypatch.setattr(AssembledSystem2D, "matrix", property(refuse))
        assert np.array_equal(solve_ldg_2d(p, mesh, k).U.coeffs, expected)

    def test_one_axis_built_once(self, monkeypatch):
        # x and y share one 1D mesh: one set of 1D pieces, one eigenproblem
        calls = {"piece_blocks_1d": 0, "eigh": 0}

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ldg2d, "piece_blocks_1d",
                            counted("piece_blocks_1d", ldg2d.piece_blocks_1d))
        monkeypatch.setattr(ldg2d.np.linalg, "eigh", counted("eigh", ldg2d.np.linalg.eigh))
        solve_ldg_2d(manufactured_2d_problem(1e-8), make_mesh(8, 1e-8), 1)
        assert calls == {"piece_blocks_1d": 1, "eigh": 1}

    def test_residual_reported(self):
        p = manufactured_2d_problem(1e-8)
        mesh = make_mesh(8, 1e-8)
        sol = solve_ldg_2d(p, mesh, 1)
        assert sol.residual <= 1e-9

    def test_extreme_eps_stays_solvable(self):
        # the scaled flux unknowns P/sqrt(eps), Q/sqrt(eps) keep eps = 1e-12
        # benign; the U-system itself is solved unscaled
        p = manufactured_2d_problem(1e-12)
        mesh = make_mesh(8, 1e-12)
        sol = solve_ldg_2d(p, mesh, 1)
        assert sol.residual <= 1e-9
        _, balanced = error_norms_2d(sol, p, mesh)
        assert 0.1 < balanced.total < 1.0


class TestMatrixFreeOperator:
    # the U-only operator that solve_ldg_2d applies without forming it
    @pytest.mark.parametrize("b", ["constant", "variable"])
    @pytest.mark.parametrize("eps", [1e-2, 1e-8, 1e-12])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_application_is_schur_complement(self, k, eps, b):
        N = 16
        system = assemble_2d(problem_with_b(b, eps), make_mesh(N, eps, sigma=k + 1), k)
        A, M = system.matrix.csr, system.load.size
        u, p, q = slice(0, M), slice(M, 2 * M), slice(2 * M, 3 * M)
        lu_p, lu_q = splu(A[p, p].tocsc()), splu(A[q, q].tocsc())
        for x in np.random.default_rng(47).standard_normal((3, M)):
            expected = (A[u, u] @ x - A[u, p] @ lu_p.solve(A[p, u] @ x)
                        - A[u, q] @ lu_q.solve(A[q, u] @ x))
            got = system.matvec(x)
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("b", ["constant", "variable"])
    @pytest.mark.parametrize("eps", [1e-2, 1e-8, 1e-12])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_diagonal_and_norm_match_formed(self, k, eps, b):
        # S = blockdiag(W_b) + K(x)M + M(x)K formed densely in kron order
        N = 8
        S = assemble_2d(problem_with_b(b, eps), make_mesh(N, eps, sigma=k + 1), k)
        n, kk = S.load.size, (k + 1) ** 2
        W = np.zeros((n, n))
        for c, block in enumerate(reaction_blocks(S).reshape(-1, kk, kk)):
            W[c * kk:(c + 1) * kk, c * kk:(c + 1) * kk] = block
        order = kron_order(N, k)
        M = np.diag(S.m)
        formed = W[np.ix_(order, order)] + np.kron(S.K, M) + np.kron(M, S.K)
        diag = np.diag(formed)
        assert np.max(np.abs(np.diag(dense(S, n)) - diag)) <= 1e-15 * np.max(diag)
        expected = np.linalg.norm(formed)
        assert S.frobenius_norm() == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_reaction_held_once(self):
        # b is held once, as beta on the quadrature grid: neither assembly,
        # the elimination, a product, the norm nor the preconditioner setup
        # allocates as much as the W_b blocks, N^2 (k+1)^4 doubles, would take
        eps, k, N = 1e-8, 3, 32
        mesh = make_mesh(N, eps, sigma=k + 1)
        x = np.random.default_rng(53).standard_normal(N * N * (k + 1) ** 2)
        tracemalloc.start()
        try:
            system = assemble_2d(manufactured_2d_problem(eps), mesh, k)
            system.matvec(x)
            system.frobenius_norm()
            _fast_diagonalization(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < N * N * (k + 1) ** 4 * 8

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_2d_path_uses_no_scipy_sparse(self, k, tmp_path):
        # in a new interpreter the 2D solve (variable b) loads no scipy at all
        loaded, saved = run_fresh(f"""
            import numpy as np
            from ldgshishkin import (MeshConfig, Problem2D, build_shishkin_2d,
                                     manufactured_2d_problem, solve_ldg_2d)
            b = lambda x, y: 2.0 + 1.5 * np.sin(np.pi * np.asarray(x) * np.asarray(y))
            p = Problem2D(eps=1e-8, b=b, f=manufactured_2d_problem(1e-8).f, beta=1.0)
            sol = solve_ldg_2d(p, build_shishkin_2d(MeshConfig(N=16, eps=1e-8, sigma={k + 1})), {k})
            np.savez(out, U=sol.U.coeffs, P=sol.P.coeffs, Q=sol.Q.coeffs)
        """, tmp_path)
        assert loaded == set()
        expected = solve_ldg_2d(variable_b_problem(1e-8), make_mesh(16, 1e-8, sigma=k + 1), k)
        for name in ("U", "P", "Q"):
            assert np.array_equal(saved[name], getattr(expected, name).coeffs)


class TestGridKernels:
    # the products with V that take U to the quadrature grid and back
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_to_grid_gives_values_at_the_tensor_points(self, k):
        # eps = 1e-2 keeps the cells wide enough that evaluate, which maps
        # each point back to its cell, loses no digits doing so
        N, eps = 8, 1e-2
        mesh = make_mesh(N, eps, sigma=k + 1)
        coeffs = np.random.default_rng(59).standard_normal((N, k + 1, N, k + 1))
        U = DGFunction2D(mesh, k, coeffs)
        system = assemble_2d(manufactured_2d_problem(eps), mesh, k)
        x = mesh.axis.quadrature_points(gauss_rule(assembly_quad_order(k)).points).ravel()
        expected = U.evaluate(x[:, None], x[None, :])
        got = grid_product(system.V, coeffs.reshape(N * (k + 1), -1))
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_from_grid_is_adjoint(self, k):
        N, q, rng = 8, k + 3, np.random.default_rng(61)
        V = assemble_2d(manufactured_2d_problem(1e-8), make_mesh(N, 1e-8), k).V
        X, G = rng.standard_normal((N * (k + 1),) * 2), rng.standard_normal((N * q,) * 2)
        lhs = np.vdot(grid_product(V.T, G), X)
        assert lhs == pytest.approx(np.vdot(G, grid_product(V, X)), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("b", ["constant", "variable"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_mean_b_is_mass_weighted_trace(self, k, b):
        # the shift bbar of the fast-diagonalization preconditioner
        eps = 1e-8
        system = assemble_2d(problem_with_b(b, eps), make_mesh(8, eps, sigma=k + 1), k)
        expected = np.einsum("ijaa->", reaction_blocks(system)) / system.m.sum() ** 2
        assert system.mean_b() == pytest.approx(expected, rel=1e-14, abs=0.0)


class TestExtendedPrecisionReference:
    # reference: the 3-field system solved by equilibrated SuperLU and
    # refined three times with long-double residuals (refined_solve_2d)
    @pytest.mark.parametrize("b", ["constant", "variable"])
    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12])
    @pytest.mark.parametrize("k, N", [(1, 16), (1, 64), (2, 16), (2, 32), (3, 16)])
    def test_solve_matches_refined_reference(self, k, N, eps, b):
        p, mesh = problem_with_b(b, eps), make_mesh(N, eps, sigma=k + 1)
        sol = solve_ldg_2d(p, mesh, k)
        for name, want in zip("UPQ", refined_solve_2d(p, mesh, k)):
            got = getattr(sol, name).coeffs
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name


class TestEpsVariation2D:
    def test_balanced_error_eps_uniform_at_fixed_N(self):
        errs = []
        for eps in (1e-4, 1e-8):
            p = manufactured_2d_problem(eps)
            mesh = make_mesh(32, eps)
            sol = solve_ldg_2d(p, mesh, 1)
            _, balanced = error_norms_2d(sol, p, mesh)
            errs.append(balanced.total)
        assert max(errs) / min(errs) <= 1.2


class TestFastDiagonalizationSolve:
    @pytest.mark.parametrize("b", ["constant", "variable"])
    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12])
    @pytest.mark.parametrize("N", [8, 16])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_superlu(self, k, N, eps, b):
        # reference: SuperLU on the equilibrated 3-field (U, P, Q) system
        p = problem_with_b(b, eps)
        mesh = make_mesh(N, eps, sigma=k + 1)
        expected = solve_full_system(p, mesh, k)
        sol = solve_ldg_2d(p, mesh, k)
        for name in ("U", "P", "Q"):
            want = getattr(expected, name).coeffs
            got = getattr(sol, name).coeffs
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name

    @pytest.mark.parametrize("b, most", [("constant", 2), ("variable", 18)])
    def test_preconditioner_applications(self, b, most):
        # with constant b the preconditioner inverts S up to rounding: one
        # step solves, one refines, and the predicted third step is dropped,
        # so S is applied twice in CG and once for the reported residual;
        # with variable b at most 18 steps meet the 1e-14 rules
        k = 2
        for eps in (1e-4, 1e-8, 1e-12):
            S = assemble_2d(problem_with_b(b, eps), make_mesh(16, eps, sigma=1.0), k)
            fd = _fast_diagonalization(S)
            calls, products = [], []

            def precondition(r):
                calls.append(1)
                return fd(r)

            class Counted:
                def matvec(self, x):
                    products.append(1)
                    return S.matvec(x)

                def frobenius_norm(self):
                    return S.frobenius_norm()

            pcg(Counted(), S.load.ravel(), precondition)
            assert len(calls) <= most and len(products) == len(calls) + 1, eps
            if b == "constant":
                assert len(calls) == 2, eps

    @pytest.mark.parametrize("b", ["constant", "variable"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_operator_symmetric_to_rounding(self, k, b):
        # the U-system exactly as the solve applies it: K(x)M + M(x)K is
        # exactly symmetric; W_b, applied by products with V that round its
        # entries (r, c) and (c, r) in different orders, to within one ulp
        # of the largest entry of S
        eps = 1e-8
        system = assemble_2d(problem_with_b(b, eps), make_mesh(8, eps, sigma=1.0), k)
        T = dense(replace(system, beta=np.zeros_like(system.beta)), system.load.size)
        assert np.array_equal(T, T.T)
        S = dense(system, system.load.size)
        assert np.max(np.abs(S - S.T)) <= np.finfo(float).eps * np.max(np.abs(S))

    @pytest.mark.parametrize("eps", [1e-4, 1e-12])
    @pytest.mark.parametrize("N", [8, 32])
    @pytest.mark.parametrize("k", [1, 2])
    def test_residual_gate_trips_on_perturbed_solution(self, k, N, eps):
        p = manufactured_2d_problem(eps)
        mesh = make_mesh(N, eps, sigma=k + 1)
        system = assemble_2d(p, mesh, k)

        def residual(u):  # the reported residual: that of the unscaled U-system
            return _relative_residual(system, u.ravel(), system.load.ravel())

        sol = solve_ldg_2d(p, mesh, k)
        U = sol.U.coeffs
        assert residual(U) == sol.residual <= 1e-9
        noise = np.random.default_rng(41).standard_normal(U.shape)
        assert residual(U * (1.0 + 1e-6 * noise)) > 1e-9

    def test_perturbed_solution_reads_the_same_residual_at_every_eps(self):
        # U scaled by 1 + 1e-8 xi: the U-system residual reads the same
        # within a factor 2 at every eps, and above the tolerance
        k, N, seen = 2, 32, []
        xi = np.random.default_rng(61).standard_normal((N, k + 1, N, k + 1))
        for eps in (1e-4, 1e-8, 1e-12):
            p, mesh = manufactured_2d_problem(eps), make_mesh(N, eps, sigma=k + 1)
            system, sol = assemble_2d(p, mesh, k), solve_ldg_2d(p, mesh, k)
            U = sol.U.coeffs * (1.0 + 1e-8 * xi)
            seen.append(_relative_residual(system, U.ravel(), system.load.ravel()))
        assert min(seen) > linalg._RESIDUAL_TOL and max(seen) <= 2.0 * min(seen), seen

    def test_unreachable_tolerance_raises_with_residual(self, monkeypatch):
        # the one tolerance of both solves lives in linalg
        monkeypatch.setattr(linalg, "_RESIDUAL_TOL", 0.0)
        with pytest.raises(SolverError) as info:
            solve_ldg_2d(manufactured_2d_problem(1e-4), make_mesh(8, 1e-4), 1)
        assert info.value.residual is not None and info.value.residual > 0.0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_solution_stored_in_operator_order(self, k):
        # U.coeffs.ravel() is the vector S acts on, with no permutation in
        # between: S U matches the load to the residual the solve reports
        eps, N = 1e-8, 8
        p, mesh = manufactured_2d_problem(eps), make_mesh(N, eps, sigma=k + 1)
        S, sol = assemble_2d(p, mesh, k), solve_ldg_2d(p, mesh, k)
        u, load = sol.U.coeffs.ravel(), S.load.ravel()
        scale = S.frobenius_norm() * np.linalg.norm(u) + np.linalg.norm(load)
        assert np.linalg.norm(S.matvec(u) - load) <= sol.residual * scale * (1.0 + 1e-12)
        assert sol.residual <= 1e-9
        # C-contiguous, so the matrix view that the norms read is no copy
        assert all(f.coeffs.flags.c_contiguous for f in (sol.U, sol.P, sol.Q))

    @pytest.mark.parametrize("name", ["b", "f"])
    def test_nan_data_raises_typed_error(self, name):
        eps = 1e-8
        mesh = make_mesh(8, eps)
        p = nan_on_one_cell(manufactured_2d_problem(eps), mesh, name)
        with pytest.raises(SingularMatrixError):
            solve_ldg_2d(p, mesh, 1)

    @pytest.mark.parametrize("name", ["b", "f"])
    def test_nan_data_row_recorded_failed(self, name, monkeypatch):
        def factory(eps, k):
            mesh = build_shishkin_2d(MeshConfig(N=8, eps=eps, sigma=k + 1))
            return nan_on_one_cell(manufactured_2d_problem(eps), mesh, name)

        monkeypatch.setitem(problems.PROBLEMS_2D, "nancell2d", factory)
        table = run_sweep(SweepConfig(dim=2, problem="nancell2d", k_list=(1,),
                                      n_list=(8,), eps_list=(1e-8,)))
        (row,) = table.rows
        assert row.failed and row.message.startswith("SingularMatrixError")
