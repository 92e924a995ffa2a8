"""The benchmark's tracer (``bench/spans.py``) binds names in the package by
``getattr``; a change that renames or deletes one of them breaks every
traced benchmark run.  These tests load the tracer as it is and check that
it installs, observes a small sweep in each dimension and uninstalls."""

import importlib.util
from pathlib import Path

import pytest

from ldgshishkin import SweepConfig, harness

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(spans):
    points = [point[:2] for point in spans.SPAN_POINTS + spans.COUNT_POINTS]
    return [spans.resolve(module, attr) for module, attr in points]


def test_every_bound_name_resolves_and_is_restored(spans):
    bound = bindings(spans)
    originals = [getattr(owner, leaf) for owner, leaf in bound]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, leaf) is not original
                   for (owner, leaf), original in zip(bound, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(owner, leaf) is original
               for (owner, leaf), original in zip(bound, originals))


# Every call site that a traced one-row sweep records, by (study, dim), besides
# harness.run_sweep and harness.problem_by_key.  Names alone are not enough: the two
# composite projections of a study share one span name, so a measure that bound one of
# them at definition time would still record the name through the other.
SITES = {
    ("solve", 1): {"harness.build_shishkin_1d", "harness.solve_ldg_1d", "ldg1d.assemble_1d",
                   "harness.error_norms_1d"},
    ("solve", 2): {"harness.build_shishkin_2d", "harness.solve_ldg_2d", "ldg2d.assemble_2d",
                   "harness.error_norms_2d"},
    ("projection", 1): {"harness.build_shishkin_1d", "harness.composite_project_minus_1d",
                        "harness.composite_project_plus_1d", "harness.l2_error_region_1d",
                        "harness.linf_error_1d"},
    ("projection", 2): {"harness.build_shishkin_2d", "harness.composite_project_minus_2d",
                        "harness.composite_project_plus_x_2d", "harness.l2_error_region_2d"},
}


@pytest.mark.parametrize("dim, counters", [
    (1, ("ldg1d.dofs", "ldg1d.bandwidth")),
    (2, ("ldg2d.dofs", "ldg2d.nnz")),
])
def test_observers_read_a_traced_sweep(spans, dim, counters):
    # every study's measure must call the package through the names the tracer rebinds
    tracer = spans.Tracer()
    tracer.install()
    seen = {}
    try:
        for study in harness.STUDIES:
            tracer.reset()
            table = harness.run_sweep(SweepConfig(dim=dim, n_list=(8,), eps_list=(1e-4,),
                                                  study=study))
            assert [row.failed for row in table.rows] == [False]
            assert tracer.counters["harness.rows"] == 1
            seen[study] = {span[2] for span in tracer.spans}, dict(tracer.counters)
            sites = {span[3] for span in tracer.spans}
            assert sites == SITES[study, dim] | {"harness.run_sweep", "harness.problem_by_key"}
    finally:
        tracer.uninstall()
    solve_spans, solve_counters = seen["solve"]
    assert all(solve_counters[name] > 0 for name in counters)
    assert {f"ldg{dim}d.solve_ldg_{dim}d", "norms.error_norms"} <= solve_spans
    projection_spans, _ = seen["projection"]
    assert {"projections.composite", "norms.region"} <= projection_spans
    assert not {f"ldg{dim}d.solve_ldg_{dim}d", "norms.error_norms"} & projection_spans
