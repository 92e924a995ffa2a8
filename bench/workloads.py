"""The benchmark's workloads, how a seed varies them, and the output check.

Each workload is a fixed (k, N, eps) grid run through one public entry
point of ``ldgshishkin``:

* ``sweep1d`` runs ``cli.main`` on the paper's 1D table (45 rows): the
  user path cli -> harness -> ldg1d -> banded LU -> norms.  It never
  reaches sparse LU or the projections.
* ``solve2d`` runs ``harness.run_sweep`` on ``manufactured2d`` (5 rows):
  2D assembly, condensation and SuperLU, down to eps = 1e-12.
* ``project2d`` runs ``harness.run_projection_study`` in 2D and 1D
  (8 rows): composite projections and region errors only, no assembly or
  solve, so solver changes should leave it unchanged.

A seed scales every eps of a workload by one factor within its decade
(seed 0 keeps the paper's values).  The cost of a pass does not depend on
eps, so every seed costs the same.  Reference tables for every factor are
stored in ``references.json`` (see ``make_references.py``), and each pass
is compared with them.
"""

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

from ldgshishkin import cli, harness

EPS_SCALES = (1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0)
REL_TOL = 1e-8
# the residual tolerances harness passes to solve_ldg_1d / solve_ldg_2d
RESIDUAL_TOL = {1: 1e-10, 2: 1e-9}
REFERENCES = Path(__file__).with_name("references.json")
COMPARED = ("err_energy", "rate_energy", "err_balanced", "rate_balanced")


@dataclass(frozen=True)
class Part:
    """One sweep: the cross product of k, N and eps = scale * 10**-exponent."""

    dim: int
    problem: str
    k: tuple
    n: tuple
    eps_exponents: tuple

    def eps_texts(self, scale):
        return tuple(f"{scale:g}e-{e}" for e in self.eps_exponents)

    def keys(self, scale):
        return [(self.dim, k, N, f"{float(eps):.6g}")
                for k in self.k for N in self.n for eps in self.eps_texts(scale)]

    def config(self, scale):
        return harness.SweepConfig(
            dim=self.dim, problem=self.problem, k_list=self.k, n_list=self.n,
            eps_list=tuple(float(t) for t in self.eps_texts(scale)), workers=1,
        )

    def shrunk(self):
        """The first k, the first two N and the first eps: a smoke-test grid."""
        return Part(self.dim, self.problem, self.k[:1], self.n[:2],
                    self.eps_exponents[:1])


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "cli", "sweep" or "projection"
    parts: tuple

    def shrunk(self):
        return Workload(self.name, self.entry, tuple(p.shrunk() for p in self.parts))


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep1d", "cli", (
            Part(1, "paper1d", (1, 2, 3), (64, 128, 256, 512, 1024), (4, 8, 12)),
        )),
        Workload("solve2d", "sweep", (
            Part(2, "manufactured2d", (1,), (16, 32, 64), (8,)),
            Part(2, "manufactured2d", (2,), (16, 32), (12,)),
        )),
        Workload("project2d", "projection", (
            Part(2, "manufactured2d", (1,), (32, 64), (8,)),
            Part(1, "paper1d", (1, 2), (256, 512, 1024), (8,)),
        )),
    )
}


def eps_scale(seed):
    return EPS_SCALES[seed % len(EPS_SCALES)]


def run_pass(workload, scale):
    """Run one pass through the workload's entry point; returns its raw output.

    The entry points are looked up on their modules at call time, so a
    tracer bound into those modules sees the call.
    """
    if workload.entry == "cli":
        out = []
        for part in workload.parts:
            argv = [
                "--dim", str(part.dim), "--problem", part.problem,
                "--k", ",".join(map(str, part.k)),
                "--n", ",".join(map(str, part.n)),
                "--eps", ",".join(part.eps_texts(scale)),
                "--workers", "1", "--format", "csv",
            ]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                cli.main(argv)
            out.append((part, buf.getvalue()))
        return out
    study = harness.run_sweep if workload.entry == "sweep" else harness.run_projection_study
    return [(part, study(part.config(scale))) for part in workload.parts]


def table_rows(table, dim):
    """Rows of a ConvergenceTable as plain dicts keyed like the references."""
    return {
        (dim, r.k, r.N, f"{r.eps:.6g}"): {
            "clamped": r.clamped, "residual": r.residual, "failed": r.failed,
            **{name: getattr(r, name) for name in COMPARED},
        }
        for r in table.rows
    }


def _close(value, ref):
    if ref is None or value is None:
        return value is ref
    return abs(value - ref) <= REL_TOL * abs(ref)


def _renders(text, ref, spec):
    """True when ``text`` is the CSV rendering of a value within REL_TOL of ref."""
    if ref is None:
        return text == ""
    return text in {format(ref * (1.0 + s * REL_TOL), spec) for s in (-1, 0, 1)}


def _csv_ok(fields, ref, tol):
    if fields["clamped"] != ("true" if ref["clamped"] else "false"):
        return False
    for name in COMPARED:
        spec = ".2f" if name.startswith("rate") else ".6g"
        if not _renders(fields[name], ref[name], spec):
            return False
    return fields["residual"] != "" and float(fields["residual"]) <= tol


def _row_ok(row, ref, tol):
    if row["failed"] or row["clamped"] != ref["clamped"]:
        return False
    if not all(_close(row[name], ref[name]) for name in COMPARED):
        return False
    if tol is None:  # projection rows carry no residual
        return row["residual"] is None
    return row["residual"] is not None and row["residual"] <= tol


def load_references(workload, scale):
    with open(REFERENCES, "r", encoding="utf-8") as fh:
        rows = json.load(fh)[workload.name][f"{scale:g}"]
    return {(r["dim"], r["k"], r["N"], r["eps"]): r for r in rows}


def check_pass(workload, scale, output, references):
    """Return (rows attempted, rows failed or disagreeing with the references).

    Errors, rates and the clamped flag must agree with the reference to
    REL_TOL relative (CSV output: be the rendering of such a value); the
    residual must be within the solver tolerance.  A rate is expected only
    where the grid also holds the 2N row.
    """
    attempted = failed = 0
    for part, result in output:
        keys = part.keys(scale)
        present = set(keys)
        tol = None if workload.entry == "projection" else RESIDUAL_TOL[part.dim]
        if workload.entry == "cli":
            got = {(part.dim, int(f["k"]), int(f["N"]), f["eps"]): f
                   for f in csv.DictReader(io.StringIO(result))}
        else:
            got = table_rows(result, part.dim)
        for key in keys:
            dim, k, N, eps = key
            ref = dict(references[key])
            if (dim, k, 2 * N, eps) not in present:
                ref.update(rate_energy=None, rate_balanced=None)
            attempted += 1
            row = got.get(key)
            ok = row is not None and (
                _csv_ok(row, ref, tol) if workload.entry == "cli" else _row_ok(row, ref, tol)
            )
            failed += not ok
        extra = len(set(got) - present)
        attempted += extra
        failed += extra
    return attempted, failed
