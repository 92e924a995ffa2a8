"""The measuring loop of one run and the reduction of its passes to metrics."""

import contextlib
import gc
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import spans
import workloads

MIN_PASSES = 3
# Untraced passes time calibration_loop this often, in seconds of wall time.
SAMPLE_EVERY_S = 0.025
# About the mean time of calibration_loop on the machine this benchmark was
# built on (2 cores of a shared x86-64 host): wall_s is given in seconds on
# a host that runs the loop this fast on average.
CALIBRATION_S = 2.0e-4
ROOT = Path(__file__).resolve().parent.parent
IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import ldgshishkin\n"
    "sys.stdout.write(repr(time.perf_counter() - t0))\n"
)
_CALIBRATION_ARRAY = numpy.arange(1024.0)
_CALIBRATION_MATRIX = numpy.eye(8) + 0.1
_CALIBRATION_VECTOR = numpy.arange(8.0)


def import_seconds():
    """Seconds until ``import ldgshishkin`` returns in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout)


def calibration_loop():
    """A fixed bit of numpy work, about 0.2 ms: calls on a 1024-element
    array and on 8-element ones, the mix of the package's own passes.  Its
    time tracks the speed the host gives the process at that moment."""
    a = _CALIBRATION_ARRAY
    for _ in range(10):
        a = numpy.sqrt(a * a + 1.0)
    for _ in range(30):
        numpy.sqrt(numpy.dot(_CALIBRATION_MATRIX, _CALIBRATION_VECTOR) + 1.0)
    return a


class Sampler:
    """Within ``with sampler:``, runs calibration_loop every SAMPLE_EVERY_S
    seconds of wall time from a SIGALRM handler and keeps the loops' times.

    The handler runs between two bytecodes of the main thread, so the host's
    speed is sampled all through a pass, whatever the pass is doing.
    """

    def __init__(self):
        self.times = []
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        calibration_loop()
        self.times.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def _timed_pass(workload, scale, references, sampler=None):
    """Run and check one pass; return its wall time and its row counts.

    With a ``sampler`` the calibration loops it runs during the pass are
    taken out of the pass's time.
    """
    gc.collect()
    loops = [] if sampler is None else sampler.times
    before = len(loops)
    t0 = time.perf_counter()
    with sampler or contextlib.nullcontext():
        output = workloads.run_pass(workload, scale)
    wall = time.perf_counter() - t0 - sum(loops[before:])
    attempted, failed = workloads.check_pass(workload, scale, output, references)
    return wall, attempted, failed


def run(workload, seed, seconds, trace):
    """One untimed warm-up pass, then timed passes until ``seconds`` is used up.

    Untraced passes run with a Sampler, and each is followed by one
    fresh-interpreter import of the package (``setup_s``).  With ``trace``
    the timed passes alternate between those and traced ones, at least
    MIN_PASSES of each.  Passes (pairs of passes with ``trace``) take turns
    on the cores the process may use, one core at a time: on a shared host
    each core's speed drifts on its own.  Every pass, the warm-up too, is
    checked against the references.
    """
    scale = workloads.eps_scale(seed)
    references = workloads.load_references(workload, scale)
    tracer = spans.Tracer()
    sampler = Sampler()
    cpus = sorted(os.sched_getaffinity(0))
    record = {"scale": scale, "plain_s": [], "calibration_s": sampler.times,
              "setup_s": [], "traced_s": [], "layers": [], "last_spans": []}
    import_seconds()  # warms the file cache; not counted
    _, attempted, failed = _timed_pass(workload, scale, references)
    start = time.perf_counter()
    last = 0.0
    try:
        while True:
            done = len(record["plain_s"]) + len(record["traced_s"])
            if (done >= MIN_PASSES * (1 + trace)
                    and time.perf_counter() - start + last > seconds):
                break
            os.sched_setaffinity(0, {cpus[done // (1 + trace) % len(cpus)]})
            if trace and done % 2 == 1:
                tracer.reset()
                tracer.install()
                try:
                    last, a, f = _timed_pass(workload, scale, references)
                finally:
                    tracer.uninstall()
                record["traced_s"].append(last)
                record["layers"].append(tracer.pass_metrics(last))
                record["last_spans"] = tracer.spans
            else:
                last, a, f = _timed_pass(workload, scale, references, sampler)
                record["plain_s"].append(last)
                if not trace:
                    record["setup_s"].append(import_seconds())
            attempted += a
            failed += f
    finally:
        os.sched_setaffinity(0, cpus)
    record.update(attempted=attempted, failed=failed)
    return record


def host_speed(record):
    """How fast the host ran the untraced passes, relative to a host on
    which calibration_loop takes CALIBRATION_S on average.

    The speed the host gives a process drifts by up to 1.6x over seconds
    to minutes; the calibration loops sample it all through the passes, so
    their mean time over the run tracks the mean speed the passes met.
    """
    return CALIBRATION_S / statistics.mean(record["calibration_s"])


def end_to_end_values(record):
    """The end-to-end metrics of the untraced passes; times are scaled by
    host_speed.  The imports run between the passes, all through the run,
    so the passes' mean speed stands for theirs too."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    speed = host_speed(record)
    return {
        "wall_s": statistics.mean(record["plain_s"]) * speed,
        "setup_s": statistics.median(record["setup_s"]) * speed,
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_frac": 1.0 - record["failed"] / record["attempted"],
    }


def per_layer_values(record):
    """Median over the traced passes of every per-layer value."""
    layers = record["layers"]
    values = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
    values["trace.overhead_frac"] = (
        statistics.median(record["traced_s"]) / statistics.median(record["plain_s"]) - 1.0
    )
    return values


def report(spec, values, trace):
    """The ``metrics`` object of the result line: every metric BENCHMARK.json
    declares for this mode, by name, with its unit."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
