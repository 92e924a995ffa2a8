"""Smoke test of the benchmark on shrunken grids of every workload.

    python3 -m pytest bench/test_smoke.py -q

Each workload runs on its first k, first two N and first eps, with the
tracer, and every metric BENCHMARK.json names must come out with its unit.
"""

import json
import math
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced(request):
    workload = workloads.WORKLOADS[request.param].shrunk()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measure, "MIN_PASSES", 1)
        mp.setattr(measure, "SAMPLE_EVERY_S", 0.002)  # shrunken passes are short
        return workload, measure.run(workload, seed=1, seconds=0.0, trace=1)


def test_every_metric_appears_with_its_unit(traced):
    _, record = traced
    assert record["attempted"] > 0 and record["failed"] == 0
    for trace, values, declared in (
        (0, measure.end_to_end_values(dict(record, setup_s=[0.5])), SPEC["end_to_end"]),
        (1, measure.per_layer_values(record), SPEC["per_layer"]),
    ):
        metrics = measure.report(SPEC, values, trace)
        assert list(metrics) == [m["name"] for m in declared]
        for m in declared:
            assert metrics[m["name"]]["unit"] == m["unit"]
            assert math.isfinite(metrics[m["name"]]["value"])


def test_trace_accounts_for_the_pass(traced):
    workload, record = traced
    layers = measure.per_layer_values(record)
    assert abs(layers["trace.span_coverage"] - 1.0) < 0.05
    rows = sum(len(p.keys(1.5)) for p in workload.parts)
    assert layers["harness.rows"] == rows
    assert layers["harness.rows_failed"] == 0
    assert record["last_spans"]


def test_sampler_times_calibration_loops_and_restores_the_signal():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = measure.Sampler()
    with sampler:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.times) >= 5
    assert all(0.0 < t < measure.SAMPLE_EVERY_S for t in sampler.times)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_untraced_package_is_unwrapped(traced):
    points = [p[:2] for p in spans.SPAN_POINTS] + [p[:2] for p in spans.COUNT_POINTS]
    for module_name, attr in points:
        owner, leaf = spans.resolve(module_name, attr)
        code = getattr(getattr(owner, leaf), "__code__", None)
        assert getattr(code, "co_filename", "") != spans.__file__, (module_name, attr)


@pytest.mark.parametrize("name", ["sweep1d", "solve2d"])
def test_check_rejects_a_perturbed_reference(name):
    workload = workloads.WORKLOADS[name].shrunk()
    scale = workloads.eps_scale(0)
    refs = workloads.load_references(workload, scale)
    output = workloads.run_pass(workload, scale)
    attempted, failed = workloads.check_pass(workload, scale, output, refs)
    assert failed == 0
    assert attempted == sum(len(p.keys(scale)) for p in workload.parts)
    key = workload.parts[0].keys(scale)[0]
    refs[key] = dict(refs[key], err_balanced=refs[key]["err_balanced"] * (1 + 1e-6))
    assert workloads.check_pass(workload, scale, output, refs) == (attempted, 1)


def test_setup_probe_imports_the_package():
    assert 0.0 < measure.import_seconds() < 60.0
