import dataclasses
import multiprocessing
import random
import warnings

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from ldgshishkin import (
    ConfigurationError,
    MeshError,
    ProjectionError,
    SingularMatrixError,
    SolverError,
    SweepConfig,
    emit_table,
    paper_1d_problem,
    problem_by_key,
    run_projection_study,
    run_sweep,
)
from ldgshishkin import harness
from ldgshishkin.harness import CSV_HEADER, ConvergenceTable, RateRow
from reference import run_fresh


class TestSweepConfig:
    def test_non_doubling_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepConfig(n_list=(32, 48))

    def test_bad_N_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepConfig(n_list=(30, 60))

    @pytest.mark.parametrize("values", [
        {"n_list": (8.0, 16.0)}, {"k_list": (1.0,)}, {"k_list": (1, 2.5)},
        {"n_list": (True,)}, {"k_list": (True,)},
    ], ids=["float-N", "float-k", "fractional-k", "bool-N", "bool-k"])
    def test_non_integer_N_and_k_rejected(self, values):
        with pytest.raises(ConfigurationError, match="integer"):
            SweepConfig(dim=1, eps_list=(1e-4,), **{"n_list": (8, 16), **values})

    @pytest.mark.parametrize("values", [
        {"eps_list": ("1e-4",)}, {"eps_list": (None,)}, {"sigma": "2"},
        {"workers": 1.5}, {"workers": 2.0},
        {"eps_list": (True,)}, {"sigma": True}, {"workers": True},
    ], ids=["str-eps", "none-eps", "str-sigma", "fractional-workers", "float-workers",
            "bool-eps", "bool-sigma", "bool-workers"])
    def test_wrong_typed_values_rejected(self, values):
        with pytest.raises(ConfigurationError, match="integer|real number"):
            SweepConfig(dim=1, n_list=(8, 16), **values)

    def test_numpy_integer_N_and_k_accepted(self):
        cfg = SweepConfig(dim=1, k_list=(np.int64(1),), n_list=tuple(np.array([8, 16])),
                          eps_list=(1e-4,))
        table = run_sweep(cfg)
        assert not table.any_failed and len(table.rows) == 2

    def test_sigma_default_tracks_k(self):
        cfg = SweepConfig()
        assert cfg.sigma_for(1) == 2.0
        assert cfg.sigma_for(3) == 4.0
        assert SweepConfig(sigma=2.5).sigma_for(3) == 2.5

    def test_problem_default_follows_dim(self):
        assert SweepConfig().problem == "paper1d"
        assert SweepConfig(dim=2).problem == "manufactured2d"
        assert SweepConfig(problem="poly1d").problem == "poly1d"

    @pytest.mark.parametrize("values", [
        {"problem": "nonsense"}, {"dim": 2, "problem": "poly1d"}, {"sigma": -1.0},
        {"sigma": 0.0}, {"eps_list": (1e-4, 2.0)}, {"eps_list": (0.0,)},
        {"eps_list": ()}, {"k_list": (1, 1)}, {"eps_list": (1e-4, 1e-4)},
        {"sigma": float("nan")},
    ], ids=["problem", "problem-for-dim", "sigma", "sigma-zero", "eps", "eps-zero",
            "empty-eps", "repeated-k", "repeated-eps", "sigma-nan"])
    def test_invalid_values_rejected(self, values):
        with pytest.raises(ConfigurationError):
            SweepConfig(**values)

    def test_dim2_defaults_solve(self):
        table = run_sweep(SweepConfig(dim=2, n_list=(4, 8), eps_list=(1e-4,)))
        assert not table.any_failed
        assert all(r.err_energy is not None for r in table.rows)


class TestRunSweep:
    def test_row_count_paper_defaults(self):
        cfg = SweepConfig(k_list=(1,), n_list=(32, 64, 128),
                          eps_list=(1e-4, 1e-6, 1e-8, 1e-10, 1e-12))
        table = run_sweep(cfg)
        assert len(table.rows) == 15
        assert not table.any_failed

    def test_row_lookup(self):
        table = run_sweep(SweepConfig(k_list=(1,), n_list=(8, 16), eps_list=(1e-4,)))
        assert table.row(1, 16, 1e-4) is table.rows[1]
        for key in ((2, 16, 1e-4), (1, 32, 1e-4), (1, 16, 1e-8)):
            with pytest.raises(KeyError):
                table.row(*key)

    def test_rates_attached_except_last(self):
        cfg = SweepConfig(k_list=(1,), n_list=(32, 64, 128), eps_list=(1e-6,))
        table = run_sweep(cfg)
        (key, group), = table.groups()
        assert [r.N for r in group] == [32, 64, 128]
        assert group[0].rate_balanced is not None
        assert group[1].rate_balanced is not None
        assert group[2].rate_balanced is None

    def test_clamped_runs_flagged_and_excluded_from_rates(self):
        cfg = SweepConfig(k_list=(1,), n_list=(4, 8), eps_list=(0.25,))
        table = run_sweep(cfg)
        for row in table.rows:
            assert row.clamped
            assert row.rate_balanced is None and row.rate_energy is None

    def test_monotone_balanced_errors(self):
        cfg = SweepConfig(k_list=(1,), n_list=(32, 64, 128), eps_list=(1e-8,))
        table = run_sweep(cfg)
        (_, group), = table.groups()
        errs = [r.err_balanced for r in group]
        assert errs[0] > errs[1] > errs[2]

    def test_failures_recorded_without_aborting(self):
        # poly1d requires k >= 2; with k = 1 every row fails but is recorded
        cfg = SweepConfig(problem="poly1d", k_list=(1,), n_list=(8,), eps_list=(1e-4,))
        table = run_sweep(cfg)
        assert table.any_failed
        assert table.rows[0].message
        assert table.rows[0].err_energy is None

    def test_defects_propagate_while_solver_failures_become_rows(self, monkeypatch):
        cfg = SweepConfig(k_list=(1,), n_list=(8,), eps_list=(1e-4,))

        def failing_solve(exc):
            def solve(*args, **kwargs):
                raise exc
            return solve

        monkeypatch.setattr(harness, "solve_ldg_1d", failing_solve(TypeError("defect")))
        with pytest.raises(TypeError, match="defect"):
            run_sweep(cfg)
        monkeypatch.setattr(harness, "solve_ldg_1d",
                            failing_solve(SolverError("residual too large", residual=1.0)))
        table = run_sweep(cfg)
        assert table.any_failed
        assert table.rows[0].message.startswith("SolverError")

    def test_failed_solve_keeps_clamped(self, monkeypatch):
        # N = 8, eps = 1e-2: tau = 2 * 0.1 * ln 8 > 1/4, so the mesh is clamped
        cfg = SweepConfig(k_list=(1,), n_list=(8,), eps_list=(1e-2,))
        assert run_sweep(cfg).rows[0].clamped

        def solve(*args, **kwargs):
            raise SolverError("residual too large", residual=1.0)

        monkeypatch.setattr(harness, "solve_ldg_1d", solve)
        (row,) = run_sweep(cfg).rows
        assert row.failed and row.clamped

    @pytest.mark.parametrize("workers", [
        1,
        pytest.param(2, marks=pytest.mark.skipif(
            multiprocessing.get_start_method() != "fork",
            reason="the patched factory reaches pool workers only by fork")),
    ])
    def test_one_problem_per_k_eps_group(self, workers, monkeypatch, tmp_path):
        # the problem depends on (k, eps) alone: 4 groups of 3 rows build 4 problems, not 12
        log, build = tmp_path / "builds", harness.problem_by_key

        def counted(key, dim, eps, k):
            with open(log, "a", encoding="utf-8") as fh:  # pool workers append to it too
                fh.write(f"{k} {eps!r}\n")
            return build(key, dim, eps, k)

        monkeypatch.setattr(harness, "problem_by_key", counted)
        cfg = SweepConfig(k_list=(1, 2), n_list=(8, 16, 32), eps_list=(1e-4, 1e-8),
                          workers=workers)
        table = run_sweep(cfg)
        assert len(table.rows) == 12 and not table.any_failed
        assert sorted(log.read_text().splitlines()) == ["1 0.0001", "1 1e-08",
                                                        "2 0.0001", "2 1e-08"]

    def test_a_failed_problem_fails_its_group_alone(self):
        # poly1d needs k >= 2: every k = 1 row records the build's failure, k = 2 solves
        cfg = SweepConfig(problem="poly1d", k_list=(1, 2), n_list=(8, 16),
                          eps_list=(1e-4, 1e-8))
        rows = run_sweep(cfg).rows
        assert [(row.k, row.failed) for row in rows] == [(1, True)] * 4 + [(2, False)] * 4
        for row in rows[:4]:
            assert row.message == "ConfigurationError: polynomial problem needs k >= 2, got k = 1"
            assert row.err_energy is None and row.residual is None and not row.clamped
        assert all(row.err_energy is not None and row.message == "" for row in rows[4:])

    def test_defects_of_the_problem_factory_propagate(self, monkeypatch):
        assert harness._ROW_ERRORS == (ConfigurationError, MeshError, ProjectionError,
                                       SingularMatrixError, SolverError, LinAlgError)

        def defect(*args):
            raise TypeError("defect")

        monkeypatch.setattr(harness, "problem_by_key", defect)
        with pytest.raises(TypeError, match="defect"):
            run_sweep(SweepConfig(k_list=(1,), n_list=(8, 16), eps_list=(1e-4,)))

    @pytest.mark.parametrize("study", ["solve", "projection"])
    def test_a_problem_without_exact_handles_fails_every_row(self, study, monkeypatch):
        problem = dataclasses.replace(paper_1d_problem(1e-4), u_exact=None)
        monkeypatch.setattr(harness, "problem_by_key", lambda *args: problem)
        cfg = SweepConfig(k_list=(1,), n_list=(8, 16), eps_list=(1e-4,), study=study)
        assert [row.message for row in run_sweep(cfg).rows] == [
            f"ConfigurationError: the {study} study needs exact solution handles"] * 2

    @pytest.mark.parametrize("dim, k, n_list, eps, zero", [(1, 2, (512, 1024), 1e-30, 68),
                                                           (2, 1, (16,), 1e-40, 4)])
    def test_a_degenerate_mesh_fails_its_row_whatever_the_warning_filter(self, dim, k, n_list,
                                                                         eps, zero):
        # the mesh is refused before any solve can warn; 1D's N = 512 row still solves
        cfg = SweepConfig(dim=dim, k_list=(k,), n_list=n_list, eps_list=(eps,))
        outcomes = []
        for action in ("default", "error"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                rows = run_sweep(cfg).rows
            assert caught == []
            outcomes.append([(row.failed, row.message) for row in rows])
        assert outcomes[1] == outcomes[0]
        *solved, last = outcomes[0]
        assert solved == [(False, "")] * (len(n_list) - 1)
        assert last == (True, f"MeshError: Shishkin mesh N={n_list[-1]}, eps={eps:g} has {zero} "
                              "cells of zero (or negative) width; its nodes are not strictly "
                              "increasing")

    def test_workers_agree_with_serial(self):
        cfg = SweepConfig(k_list=(1,), n_list=(16, 32), eps_list=(1e-4, 1e-8))
        serial = emit_table(run_sweep(cfg), fmt="csv")
        import dataclasses
        parallel = emit_table(run_sweep(dataclasses.replace(cfg, workers=2)), fmt="csv")
        assert serial == parallel

    def test_determinism_byte_identical(self):
        cfg = SweepConfig(k_list=(1, 2), n_list=(16, 32), eps_list=(1e-4, 1e-8))
        a = emit_table(run_sweep(cfg), fmt="csv")
        b = emit_table(run_sweep(cfg), fmt="csv")
        assert a == b

    def test_energy_balanced_ratio_pattern(self):
        # at eps = 1e-4 the ratio sits within a factor 2 of eps^(-1/4)
        cfg = SweepConfig(k_list=(1,), n_list=(32, 64), eps_list=(1e-4,))
        table = run_sweep(cfg)
        for row in table.rows:
            ratio = row.err_balanced / row.err_energy
            ideal = row.eps**-0.25
            assert 0.5 * ideal <= ratio <= 2.0 * ideal


class TestProjectionStudy:
    def test_polynomial_reproduction_rows(self):
        cfg = SweepConfig(problem="poly1d", k_list=(2,), n_list=(8, 16),
                          eps_list=(1e-4,), study="projection")
        table = run_projection_study(cfg)
        for row in table.rows:
            assert row.err_energy <= 1e-11
            assert row.err_balanced <= 1e-11

    def test_layer_projection_rate(self):
        cfg = SweepConfig(problem="paper1d", k_list=(1,), n_list=(128, 256, 512),
                          eps_list=(1e-6,), study="projection")
        table = run_projection_study(cfg)
        (_, group), = table.groups()
        assert group[1].rate_energy >= 1.9

    def test_2d_study_rows(self):
        cfg = SweepConfig(dim=2, problem="manufactured2d", k_list=(1,),
                          n_list=(16, 32), eps_list=(1e-6,), study="projection")
        table = run_projection_study(cfg)
        (_, group), = table.groups()
        assert all(r.err_energy is not None and r.err_balanced is not None
                   for r in group)
        assert group[0].rate_energy is not None

    def test_import_and_2d_study_load_no_scipy(self, tmp_path):
        # a new interpreter: neither the import nor the 2D study loads scipy, and the
        # import leaves numpy.polynomial (3-5 ms of import time) to the first Gauss rule
        assert run_fresh("import ldgshishkin", tmp_path)[0] == set()
        cfg = SweepConfig(dim=2, problem="manufactured2d", k_list=(1,), n_list=(16, 32),
                          eps_list=(1e-6,), study="projection")
        loaded, saved = run_fresh(f"""
            import numpy as np
            from ldgshishkin import SweepConfig, run_projection_study
            rows = run_projection_study({cfg!r}).rows
            np.savez(out, err=[(r.err_energy, r.err_balanced) for r in rows])
        """, tmp_path)
        assert loaded == {"numpy.polynomial"}
        rows = run_projection_study(cfg).rows
        assert np.array_equal(saved["err"], [(r.err_energy, r.err_balanced) for r in rows])

    def test_balanced_column_eps_uniform(self):
        # solve-study balanced errors vary by well under 20% across eps
        cfg = SweepConfig(k_list=(1,), n_list=(32, 64), eps_list=(1e-4, 1e-8, 1e-12))
        table = run_sweep(cfg)
        for N in (32, 64):
            errs = [r.err_balanced for r in table.rows if r.N == N]
            assert max(errs) / min(errs) <= 1.2

    def test_sup_norm_extras_present_with_bound(self):
        # coarse-region sup error of the composite projection at k=1,
        # N=256, eps=1e-4 sits below 2 N^-2 (measured 0.95 of the bound)
        cfg = SweepConfig(problem="paper1d", k_list=(1,), n_list=(256,),
                          eps_list=(1e-4,), study="projection")
        table = run_projection_study(cfg)
        row = table.rows[0]
        assert row.extras["linf_u_coarse"] <= 2.0 / 256**2
        assert "linf_q_layer" in row.extras


class TestEmitTable:
    def one_row_table(self):
        return ConvergenceTable(rows=[RateRow(
            k=1, N=32, eps=1e-8, sigma=2.0, err_energy=0.0123456789,
            err_balanced=0.25, rate_energy=None, rate_balanced=None,
            clamped=False, residual=1.5e-13,
        )])

    def test_csv_single_row(self):
        text = emit_table(self.one_row_table(), fmt="csv")
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "1" and cells[1] == "32"
        assert cells[2] == "1e-08"
        assert cells[4] == "0.0123457"  # 6 significant digits
        assert cells[5] == "" and cells[7] == ""  # absent rates
        assert cells[8] == "false"

    def test_csv_header_pinned(self):
        # the fixed CSV columns, written out rather than read from the schema
        assert CSV_HEADER == ("k,N,eps,sigma,err_energy,rate_energy,err_balanced,"
                              "rate_balanced,clamped,residual")

    def test_markdown_golden_with_extras(self):
        rows = [
            RateRow(k=1, N=16, eps=1e-4, sigma=2.0, err_energy=0.0123456789,
                    rate_energy=1.987654, err_balanced=0.25, rate_balanced=None,
                    residual=1.5e-13, extras={"x": 3.14159265, "rate_x": 2.005}),
            RateRow(k=1, N=32, eps=1e-4, sigma=2.0, err_energy=0.003, err_balanced=0.0625,
                    clamped=True, extras={"x": 0.785}),
        ]
        lines = emit_table(ConvergenceTable(rows=rows), fmt="markdown").split("\n")
        assert lines == [
            "### k = 1, eps = 0.0001",
            "",
            "| N | err_energy | rate_energy | err_balanced | rate_balanced | x | rate_x "
            "| clamped | residual |",
            "|---|---|---|---|---|---|---|---|---|",
            "| 16 | 0.0123457 | 1.99 | 0.25 |  | 3.14159 | 2.00 | false | 1.5e-13 |",
            "| 32 | 0.003 |  | 0.0625 |  | 0.785 |  | true |  |",
            "",
            "",
        ]

    def test_groups_independent_of_row_order(self):
        rows = [RateRow(k=k, N=N, eps=eps, sigma=2.0)
                for k in (1, 2) for eps in (1e-4, 1e-8) for N in (16, 32, 64)]
        shuffled = rows[:]
        random.Random(7).shuffle(shuffled)

        def layout(table):
            return [(key, [(r.k, r.eps, r.N) for r in group]) for key, group in table.groups()]

        expected = [((k, eps), [(k, eps, N) for N in (16, 32, 64)])
                    for k in (1, 2) for eps in (1e-4, 1e-8)]
        assert layout(ConvergenceTable(rows=shuffled)) == expected
        assert layout(ConvergenceTable(rows=rows)) == expected

    def test_rates_blank_on_largest_N(self):
        cfg = SweepConfig(k_list=(1,), n_list=(16, 32), eps_list=(1e-4,))
        text = emit_table(run_sweep(cfg), fmt="csv")
        last = text.strip().split("\n")[-1]
        cells = last.split(",")
        assert cells[1] == "32" and cells[5] == "" and cells[7] == ""

    def test_markdown_groups(self):
        cfg = SweepConfig(k_list=(1, 2), n_list=(16, 32), eps_list=(1e-4, 1e-8))
        text = emit_table(run_sweep(cfg), fmt="markdown")
        assert text.count("### k = 1") == 2
        assert text.count("### k = 2") == 2
        # paper ordering: larger eps first within each k
        assert text.index("eps = 0.0001") < text.index("eps = 1e-08")

    def test_empty_table_rejected(self):
        with pytest.raises(ConfigurationError):
            emit_table(ConvergenceTable(rows=[]), fmt="csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown format"):
            emit_table(self.one_row_table(), fmt="json")

    def test_file_output(self, tmp_path):
        out = tmp_path / "table.csv"
        text = emit_table(self.one_row_table(), fmt="csv", out=str(out))
        assert out.read_text(encoding="utf-8") == text
