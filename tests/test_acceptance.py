"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criteria 3 (k=1 part), 4 (k=1 at extreme eps) and 8
(rate threshold at N = 64) are expected to fail for reasons intrinsic to
the benchmark problem; see notes in the assertion messages: the energy
error of the k=1 discrete solution is bounded below by the
eps-independent best-approximation error of the smooth cosine component
(about 1.0e-3 at N=32), which caps the eps^{1/4} decay, and the 2D
balanced rate reaches 1.7 only one doubling beyond the prescribed grid.
"""

import time

import numpy as np
import pytest

from ldgshishkin import (
    DGFunction1D,
    DGFunction2D,
    MeshConfig,
    MixedSolution1D,
    MixedSolution2D,
    SweepConfig,
    build_shishkin_1d,
    build_shishkin_2d,
    cell_project_1d,
    composite_project_minus_1d,
    discrete_norms_1d,
    discrete_norms_2d,
    error_norms_1d,
    error_norms_2d,
    l2_error_region_1d,
    legendre_table,
    manufactured_2d_problem,
    paper_1d_problem,
    polynomial_problem_1d,
    rate_shishkin,
    run_sweep,
    solve_ldg_1d,
    solve_ldg_2d,
)
from ldgshishkin.basis import error_quad_order
from ldgshishkin.linalg import _RESIDUAL_TOL, SparseMatrix, lu_banded_solve, sparse_solve
from ldgshishkin.projections import GR_MINUS, GR_PLUS, L2, WEIGHTED
from reference import ReferenceBanded, bilinear_form_1d, bilinear_form_2d

EPS_LIST = (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)


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
    vals[rows == cols] += 3.0 * np.sign(vals[rows == cols]) + 1.0
    return ReferenceBanded.from_coo(n, rows, cols, vals)


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion} [{'PASS' if passed else 'FAIL'}]: {detail}")


@pytest.fixture(scope="module")
def grid_k1():
    """Criterion-1 grid: k=1, N in {32..512}, all eps, sigma = 2."""
    t0 = time.time()
    table = run_sweep(SweepConfig(
        dim=1, problem="paper1d", k_list=(1,),
        n_list=(32, 64, 128, 256, 512), eps_list=EPS_LIST,
    ))
    print(f"[grid_k1: 25 solves in {time.time() - t0:.1f}s]")
    return table


@pytest.fixture(scope="module")
def ladders():
    """Balanced-rate ladders at eps = 1e-8, sigma = k+1."""
    t0 = time.time()
    tables = {
        1: run_sweep(SweepConfig(k_list=(1,), n_list=(32, 64, 128, 256, 512, 1024),
                                 eps_list=(1e-8,))),
        2: run_sweep(SweepConfig(k_list=(2,), n_list=(32, 64, 128, 256, 512, 1024),
                                 eps_list=(1e-8,))),
        3: run_sweep(SweepConfig(k_list=(3,), n_list=(32, 64, 128, 256, 512),
                                 eps_list=(1e-8,))),
    }
    print(f"[rate ladders in {time.time() - t0:.1f}s]")
    return tables


@pytest.fixture(scope="module")
def eps_scan_k23():
    """Criterion-3 companion grid: k in {2,3} at N = 32 across all eps."""
    return run_sweep(SweepConfig(k_list=(2, 3), n_list=(32,), eps_list=EPS_LIST))


@pytest.fixture(scope="module")
def twod_runs():
    """Criterion-8 grid: 2D manufactured problem."""
    t0 = time.time()
    table = run_sweep(SweepConfig(
        dim=2, problem="manufactured2d",
        k_list=(1,), n_list=(8, 16, 32, 64), eps_list=(1e-4, 1e-8),
    ))
    print(f"[2D runs in {time.time() - t0:.1f}s]")
    return table


def test_criterion_1_balanced_eps_uniformity(grid_k1):
    t0 = time.time()
    worst = 0.0
    for N in (32, 64, 128, 256, 512):
        errs = [grid_k1.row(1, N, eps).err_balanced for eps in EPS_LIST]
        assert all(e is not None for e in errs)
        worst = max(worst, max(errs) / min(errs))
    passed = worst <= 1.25
    report(1, passed,
           f"balanced-norm max/min over eps <= {worst:.4f} (allowed 1.25), "
           f"checked in {time.time() - t0:.1f}s")
    assert passed


def test_criterion_2_balanced_rates(ladders):
    expected = {
        1: [1.56, 1.72, 1.83, 1.90, 1.95],
        2: [2.42, 2.64, 2.79, 2.88, 2.92],
        3: [3.27, 3.55, 3.73, 3.84],
    }
    worst = 0.0
    details = []
    for k, targets in expected.items():
        (_, group), = ladders[k].groups()
        rates = [r.rate_balanced for r in group[: len(targets)]]
        assert all(r is not None for r in rates)
        devs = [abs(r - t) for r, t in zip(rates, targets)]
        worst = max(worst, max(devs))
        details.append(f"k={k}: " + ",".join(f"{r:.2f}" for r in rates))
    passed = worst <= 0.10
    report(2, passed, f"max deviation from reference rates {worst:.3f} (allowed 0.10); "
           + "; ".join(details))
    assert passed


def _successive_ratios(errors):
    return [b / a for a, b in zip(errors, errors[1:])]


def test_criterion_3_energy_scaling_k2_k3(eps_scan_k23):
    all_ok = True
    details = []
    for k in (2, 3):
        errs = [eps_scan_k23.row(k, 32, eps).err_energy for eps in EPS_LIST]
        ratios = _successive_ratios(errs)
        ok = all(0.25 <= r <= 0.40 for r in ratios)
        all_ok = all_ok and ok
        details.append(f"k={k}: " + ",".join(f"{r:.3f}" for r in ratios))
    report(3, all_ok, "energy-error eps ratios (ideal 0.316): " + "; ".join(details))
    assert all_ok


def test_criterion_3_energy_scaling_k1_excluding_typo_cell(grid_k1):
    # Ratios not involving the excluded (k=1, N=32, eps=1e-6) cell.  The
    # remaining pairs lie in the regime where the eps-independent
    # best-approximation floor of the smooth component (about 1.0e-3 at
    # N=32 for k=1) dominates, so the eps^{1/4} pattern cannot continue:
    # |||e|||_E >= dist(u, V_N) >= 1.0e-3 for every eps, while the band
    # demands a drop below 0.40 * |||e(1e-8)|||_E ~ 6e-4.  Expected red.
    e_energy = {eps: grid_k1.row(1, 32, eps).err_energy for eps in EPS_LIST}
    ratios = {
        "1e-8->1e-10": e_energy[1e-10] / e_energy[1e-8],
        "1e-10->1e-12": e_energy[1e-12] / e_energy[1e-10],
    }
    ok = all(0.25 <= r <= 0.40 for r in ratios.values())
    report(3, ok,
           "k=1 ratios excluding the 1e-6 cell: "
           + ", ".join(f"{name}={r:.3f}" for name, r in ratios.items())
           + f"; floor: |||e|||_E(1e-12) = {e_energy[1e-12]:.3e} >= best-approximation "
             "bound ~1.0e-3 of the cosine component")
    assert ok, (
        "k=1 energy ratios leave [0.25, 0.40] because the energy error is "
        "bounded below by the eps-independent L2 best-approximation error "
        "of the smooth solution component; unattainable for this benchmark"
    )


def test_criterion_4_balanced_energy_ratio(grid_k1, eps_scan_k23):
    violations = []
    checked = 0
    for table in (grid_k1, eps_scan_k23):
        for row in table.rows:
            if row.clamped or row.failed:
                continue
            checked += 1
            ratio = row.err_balanced / row.err_energy
            ideal = row.eps**-0.25
            if not 0.5 * ideal <= ratio <= 2.0 * ideal:
                violations.append(
                    f"(k={row.k}, N={row.N}, eps={row.eps:g}): ratio {ratio:.1f} "
                    f"vs ideal {ideal:.1f}"
                )
    passed = not violations
    report(4, passed,
           f"balanced/energy ratio within factor 2 of eps^-1/4 on "
           f"{checked - len(violations)}/{checked} unclamped runs"
           + ("; violations: " + "; ".join(violations) if violations else ""))
    assert passed, (
        "the k=1 cells at extreme eps are floor-dominated: |||e|||_E "
        "stagnates at the eps-independent best-approximation error while "
        "|||e|||_B stays O((N^-1 ln N)^2), so the ratio cannot track "
        "eps^-1/4; unattainable for this benchmark"
    )


@pytest.mark.parametrize("eps", [1e-8, 1e-10, 1e-12])
def test_k1_energy_floor_behind_criteria_3_and_4(eps):
    # The cause that criteria 3 (k=1) and 4 name, checked directly: with
    # b = 1 the U part of the energy error is an L2 error, so it cannot
    # fall below the L2 best-approximation error of u, and that of the
    # cosine component alone is about 1.01e-3 at N = 32 for every eps.
    # Projection moments and both errors use one quadrature rule, which
    # makes the first check an exact inequality.
    quad = error_quad_order(1)
    problem = paper_1d_problem(eps)
    mesh = build_shishkin_1d(MeshConfig(N=32, eps=eps, sigma=2.0))

    def best_approximation_error(w):
        coeffs = np.array([cell_project_1d(L2, w, mesh.cell(i), 1, quad=quad)
                           for i in range(1, mesh.N + 1)])
        return l2_error_region_1d(DGFunction1D(mesh, 1, coeffs), w, mesh, quad=quad)

    energy, _ = error_norms_1d(solve_ldg_1d(problem, mesh, 1), problem, mesh, quad=quad)
    assert np.sqrt(energy.u_term) >= best_approximation_error(problem.u_exact)
    cosine = best_approximation_error(lambda x: np.cos(np.pi * np.asarray(x)))
    assert cosine == pytest.approx(1.01e-3, rel=0.01)


def test_criterion_5_scheme_exactness():
    t0 = time.time()
    worst = 0.0
    for eps in (1.0, 1e-4, 1e-8):
        for N in (4, 16):
            problem = polynomial_problem_1d(eps, 2)
            mesh = build_shishkin_1d(MeshConfig(N=N, eps=eps, sigma=3.0))
            sol = solve_ldg_1d(problem, mesh, 2)
            energy, balanced = error_norms_1d(sol, problem, mesh)
            worst = max(worst, energy.total, balanced.total)
    passed = worst <= 1e-9
    report(5, passed, f"polynomial-solution errors <= {worst:.2e} "
           f"(allowed 1e-9) in {time.time() - t0:.1f}s")
    assert passed


def test_criterion_6_energy_identity_suite():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for eps in (1.0, 1e-4, 1e-8):
        problem = paper_1d_problem(eps)
        mesh = build_shishkin_1d(MeshConfig(N=16, eps=eps, sigma=2.0))
        for _ in range(20):
            V = MixedSolution1D(
                U=DGFunction1D(mesh, 2, rng.standard_normal((16, 3))),
                Q=DGFunction1D(mesh, 2, rng.standard_normal((16, 3))),
            )
            E2 = discrete_norms_1d(V, problem, mesh)[0].total ** 2
            gap = abs(bilinear_form_1d(V, V, problem, mesh) - E2) / (1.0 + E2)
            worst = max(worst, gap)
    for eps in (1.0, 1e-4, 1e-8):
        problem2 = manufactured_2d_problem(eps)
        for N in (4, 8):
            mesh2 = build_shishkin_2d(MeshConfig(N=N, eps=eps, sigma=2.0))
            for _ in range(20):
                T = MixedSolution2D(
                    U=DGFunction2D(mesh2, 1, rng.standard_normal((N, 2, N, 2))),
                    P=DGFunction2D(mesh2, 1, rng.standard_normal((N, 2, N, 2))),
                    Q=DGFunction2D(mesh2, 1, rng.standard_normal((N, 2, N, 2))),
                )
                E2 = discrete_norms_2d(T, problem2, mesh2)[0].total ** 2
                gap = abs(bilinear_form_2d(T, T, problem2, mesh2) - E2) / (1.0 + E2)
                worst = max(worst, gap)
    passed = worst <= 1e-12
    report(6, passed, f"|B(V;V) - |||V|||_E^2| <= {worst:.2e} * (1 + |||V|||^2) "
           "over 20 random draws per configuration, 1D and 2D")
    assert passed


def test_criterion_7_projection_suite():
    t0 = time.time()
    # reproduction of the polynomial space, relative 1e-12
    rng = np.random.default_rng(7)
    worst_rep = 0.0
    b = lambda x: 1.0 + np.asarray(x, dtype=float)
    for k in (1, 2, 3):
        for cell in ((0.0, 0.5), (0.25, 0.3), (0.9, 1.0)):
            coeffs = rng.standard_normal(k + 1)
            w = lambda x: sum(c * np.asarray(x) ** n for n, c in enumerate(coeffs))
            xs = np.linspace(cell[0], cell[1], 13)
            t = 2 * (xs - cell[0]) / (cell[1] - cell[0]) - 1
            scale = np.max(np.abs(w(xs))) + 1.0
            V = legendre_table(k, t)
            for kind in (L2, WEIGHTED, GR_MINUS, GR_PLUS):
                vals = V @ cell_project_1d(kind, w, cell, k, b=b)
                worst_rep = max(worst_rep, np.max(np.abs(vals - w(xs))) / scale)

    # Radau endpoint interpolation, absolute 1e-12
    worst_end = 0.0
    w = lambda x: np.sin(2.0 * np.asarray(x)) + np.exp(-np.asarray(x))
    for k in (1, 2, 3):
        for cell in ((0.0, 0.25), (0.4, 0.45)):
            right, left = legendre_table(k, [1.0, -1.0])
            vm = right @ cell_project_1d(GR_MINUS, w, cell, k)
            worst_end = max(worst_end, abs(vm - float(w(cell[1]))))
            vp = left @ cell_project_1d(GR_PLUS, w, cell, k)
            worst_end = max(worst_end, abs(vp - float(w(cell[0]))))

    # layer-region Shishkin rates of the scaled composite projection error
    eps = 1e-6
    problem = paper_1d_problem(eps)
    rates = {}
    for k in (1, 2):
        errs = {}
        for N in (256, 512, 1024):
            mesh = build_shishkin_1d(MeshConfig(N=N, eps=eps, sigma=k + 1.0))
            proj = composite_project_minus_1d(problem.u_exact, mesh, k, b=problem.b)
            errs[N] = eps**-0.25 * l2_error_region_1d(
                proj, problem.u_exact, mesh, mesh.layer
            )
        rates[k] = rate_shishkin(errs[512], errs[1024], 512)
    passed = (worst_rep <= 1e-12 and worst_end <= 1e-12
              and rates[1] >= 1.9 and rates[2] >= 2.9)
    report(7, passed,
           f"reproduction <= {worst_rep:.2e}, endpoint match <= {worst_end:.2e}, "
           f"layer rates k=1: {rates[1]:.3f} (>=1.9), k=2: {rates[2]:.3f} (>=2.9) "
           f"in {time.time() - t0:.1f}s")
    assert passed


def test_criterion_8_2d_property_acceptance(twod_runs):
    # eps-variation of the balanced error at fixed N
    worst_var = 0.0
    for N in (8, 16, 32, 64):
        errs = [twod_runs.row(1, N, eps).err_balanced for eps in (1e-4, 1e-8)]
        worst_var = max(worst_var, max(errs) / min(errs))
    var_ok = worst_var <= 1.25

    # balanced rate at the last doubling of the prescribed grid
    rates = {}
    for eps in (1e-4, 1e-8):
        e32 = twod_runs.row(1, 32, eps).err_balanced
        e64 = twod_runs.row(1, 64, eps).err_balanced
        rates[eps] = rate_shishkin(e32, e64, 32)
    rate_ok = all(r >= 1.7 for r in rates.values())

    # trend diagnostic one doubling further (not part of the criterion)
    t0 = time.time()
    problem = manufactured_2d_problem(1e-8)
    mesh = build_shishkin_2d(MeshConfig(N=128, eps=1e-8, sigma=2.0))
    sol = solve_ldg_2d(problem, mesh, 1)
    _, balanced128 = error_norms_2d(sol, problem, mesh)
    rate_ext = rate_shishkin(twod_runs.row(1, 64, 1e-8).err_balanced,
                             balanced128.total, 64)

    passed = var_ok and rate_ok
    report(8, passed,
           f"eps-variation max/min {worst_var:.3f} (allowed 1.25); "
           f"balanced rate at 32->64: "
           + ", ".join(f"eps={e:g}: {r:.3f}" for e, r in rates.items())
           + f" (required >= 1.7); diagnostic 64->128 rate {rate_ext:.3f} "
             f"({time.time() - t0:.0f}s)")
    assert passed, (
        "the 32->64 balanced rate is preasymptotic (1.62, matching the 1D "
        "value 1.63 at the same resolution); it crosses 1.7 one "
        "doubling later (64->128 measured above); unattainable on the "
        "prescribed N grid"
    )


def test_criterion_9_solver_residuals(grid_k1, ladders, eps_scan_k23, twod_runs):
    worst_1d = 0.0
    for table in (grid_k1, eps_scan_k23, ladders[1], ladders[2], ladders[3]):
        for row in table.rows:
            assert not row.failed
            worst_1d = max(worst_1d, row.residual)
    worst_2d = 0.0
    for row in twod_runs.rows:
        assert not row.failed
        worst_2d = max(worst_2d, row.residual)

    rng = np.random.default_rng(99)
    worst_rand = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 121))
        m = random_banded(rng, n, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        if np.linalg.cond(m.to_dense()) > 1e8:
            continue
        rhs = rng.standard_normal(n)
        res = lu_banded_solve(m, rhs)
        exact = np.linalg.solve(m.to_dense(), rhs)
        worst_rand = max(worst_rand,
                         np.max(np.abs(res.x - exact)) / (1 + np.max(np.abs(exact))))
        sm = SparseMatrix.from_coo(n, *_coo_of(m))
        res2 = sparse_solve(sm, rhs)
        worst_rand = max(worst_rand,
                         np.max(np.abs(res2.x - exact)) / (1 + np.max(np.abs(exact))))
    passed = worst_1d <= 1e-10 and worst_2d <= _RESIDUAL_TOL and worst_rand <= 1e-10
    report(9, passed,
           f"residuals: 1D <= {worst_1d:.2e} (allowed 1e-10), "
           f"2D <= {worst_2d:.2e} (allowed {_RESIDUAL_TOL:g}), "
           f"random systems vs dense oracle <= {worst_rand:.2e} (allowed 1e-10)")
    assert passed


def _coo_of(banded):
    rows, cols, vals = [], [], []
    dense = banded.to_dense()
    r, c = np.nonzero(dense)
    return r, c, dense[r, c]
