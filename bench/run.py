"""Benchmark of ldgshishkin: one workload per run, closed loop, one caller.

Run from the repository root:

    python3 bench/run.py --workload sweep1d --seed 0 --seconds 20 --trace 0

Each run is one fresh process with BLAS/OpenMP threads pinned to 1 and
``workers=1``.  It runs one untimed warm-up pass, then timed passes until
``--seconds`` is used up, and checks every pass against the stored
reference tables.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, and times the import of the package in a fresh
interpreter after every pass (``setup_s``); ``--trace 1`` alternates
untraced and traced passes and reports its per-layer metrics.  The last
line of stdout is one JSON object; the lines before it are a readable
summary.  Machine info, the per-pass values and the spans of the last
traced pass go to ``.bench_out/<workload>-seed<seed>-trace<trace>.json``.
"""

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_threads():
    """Pin BLAS/OpenMP to one thread; must run before numpy is imported."""
    for var in PIN_VARS:
        os.environ[var] = "1"


def machine_info():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "threads": {var: os.environ.get(var) for var in PIN_VARS},
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ldgshishkin" / "__init__.py").is_file():
        print(f"error: no ldgshishkin package under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    import measure
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = workloads.WORKLOADS[args.workload]

    record = measure.run(workload, args.seed, args.seconds, args.trace)
    values = (measure.per_layer_values(record) if args.trace
              else measure.end_to_end_values(record))
    metrics = measure.report(spec, values, args.trace)
    info = machine_info()

    fail_frac = record["failed"] / record["attempted"]
    summary = (f"# {workload.name} seed={args.seed} eps scale={record['scale']:g} "
               f"trace={args.trace}: {len(record['plain_s'])} untraced passes, "
               f"mean {statistics.mean(record['plain_s']):.4f} s, "
               f"median {statistics.median(record['plain_s']):.4f} s")
    if not args.trace:
        summary += (f", host speed {measure.host_speed(record):.4f} "
                    f"({len(record['calibration_s'])} calibration loops)"
                    f", wall_s={values['wall_s']:.4f}"
                    f", setup_s={values['setup_s']:.4f} (median of "
                    f"{len(record['setup_s'])} imports)"
                    f", peak_rss_mb={values['peak_rss_mb']:.1f}")
    print(f"# machine {json.dumps(info)}")
    print(f"{summary}, fail_frac={fail_frac:g} "
          f"({record['failed']} of {record['attempted']} rows)")
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"machine": info, "workload": workload.name, "seed": args.seed,
                   "eps_scale": record["scale"], "metrics": metrics,
                   "fail_frac": fail_frac, **record}, fh)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
