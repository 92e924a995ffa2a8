"""Write ``references.json``: the reference tables the benchmark checks against.

Run from the repository root, on the commit whose numbers are the
reference:

    python3 bench/make_references.py

It runs every workload for every eps scale a seed can select, through
``harness.run_sweep`` / ``harness.run_projection_study`` (the CLI path of
``sweep1d`` builds the same SweepConfig), and refuses to write a table
with a failed row or a residual above the solver tolerance.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ldgshishkin import harness  # noqa: E402
from workloads import (  # noqa: E402
    COMPARED, EPS_SCALES, REFERENCES, RESIDUAL_TOL, WORKLOADS, table_rows,
)


def reference_rows(workload, scale):
    study = (harness.run_projection_study if workload.entry == "projection"
             else harness.run_sweep)
    rows = []
    for part in workload.parts:
        tol = None if workload.entry == "projection" else RESIDUAL_TOL[part.dim]
        for (dim, k, N, eps), row in table_rows(study(part.config(scale)), part.dim).items():
            if row["failed"] or (tol is not None and not row["residual"] <= tol):
                raise SystemExit(f"{workload.name} scale {scale:g}: row "
                                 f"k={k} N={N} eps={eps} is not a valid reference")
            rows.append({"dim": dim, "k": k, "N": N, "eps": eps,
                         "clamped": row["clamped"],
                         **{name: row[name] for name in COMPARED}})
    return rows


def main():
    refs = {}
    for name, workload in WORKLOADS.items():
        refs[name] = {}
        for scale in EPS_SCALES:
            refs[name][f"{scale:g}"] = reference_rows(workload, scale)
            print(f"{name} scale {scale:g}: {len(refs[name][f'{scale:g}'])} rows",
                  file=sys.stderr)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
