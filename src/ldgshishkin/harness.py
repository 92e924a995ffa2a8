"""Sweep driver: run (k, N, eps) grids, compute rates, emit tables.

A sweep solves the selected problem on every grid point, measures the
energy- and balanced-norm errors and attaches to each row the Shishkin
rate computed from the (N, 2N) pair.  Rows from clamped meshes (transition
point capped at 1/4) and failed solves are flagged and excluded from rate
fits.  The projection study measures the composite projection errors
instead of solving; its rows reuse the same table schema with the scaled
layer-region error in the energy column and the scaled flux projection
error in the balanced column (sup-norm extras ride along for markdown
output and programmatic use).
"""

import concurrent.futures
import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

from numpy.linalg import LinAlgError

from .basis import gauss_rule
from .errors import (ConfigurationError, MeshError, ProjectionError,
                     SingularMatrixError, SolverError)
from .mesh import MeshConfig, build_shishkin_1d, build_shishkin_2d
from .norms import (
    error_norms_1d,
    error_norms_2d,
    l2_error_region_1d,
    l2_error_region_2d,
    linf_error_1d,
    rate_shishkin,
)
from .problems import problem_by_key, problem_factory
from .projections import (
    composite_project_minus_1d,
    composite_project_minus_2d,
    composite_project_plus_1d,
    composite_project_plus_x_2d,
)
from .ldg1d import solve_ldg_1d
from .ldg2d import solve_ldg_2d

# Failures a row records before the sweep moves on; any other exception is
# a defect and propagates.
_ROW_ERRORS = (ConfigurationError, MeshError, ProjectionError, SingularMatrixError,
               SolverError, LinAlgError)

CSV_HEADER = "k,N,eps,sigma,err_energy,rate_energy,err_balanced,rate_balanced,clamped,residual"


@dataclass
class SweepConfig:
    """Grid and options of one sweep (or projection study)."""

    dim: int = 1
    problem: Optional[str] = None    # None -> paper1d in 1D, manufactured2d in 2D
    k_list: tuple = (1,)
    n_list: tuple = (32, 64, 128)
    eps_list: tuple = (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
    sigma: Optional[float] = None    # None -> k + 1 per k
    quad_order: Optional[int] = None
    norm: str = "both"
    study: str = "solve"
    out: Optional[str] = None
    fmt: str = "csv"
    workers: int = 1

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigurationError(f"dim must be 1 or 2, got {self.dim}")
        if self.problem is None:
            self.problem = "paper1d" if self.dim == 1 else "manufactured2d"
        problem_factory(self.problem, self.dim)
        if self.norm not in ("energy", "balanced", "both"):
            raise ConfigurationError(f"unknown norm selection {self.norm!r}")
        if self.study not in ("solve", "projection"):
            raise ConfigurationError(f"unknown study {self.study!r}")
        if self.fmt not in ("csv", "markdown"):
            raise ConfigurationError(f"unknown format {self.fmt!r}")
        ns = list(self.n_list)
        if not (self.k_list and ns and self.eps_list):
            raise ConfigurationError("the k, N and eps lists must not be empty")
        for a, b in zip(ns, ns[1:]):
            if b != 2 * a:
                raise ConfigurationError(
                    f"N list must double strictly for rate fits, got {a} -> {b}"
                )
        if any(k < 1 for k in self.k_list):
            raise ConfigurationError("polynomial degrees must be >= 1")
        for k, n, eps in itertools.product(self.k_list, ns, self.eps_list):
            MeshConfig(N=n, eps=eps, sigma=self.sigma_for(k))  # owns the N, eps, sigma rules
        if self.quad_order is not None:
            gauss_rule(self.quad_order)  # owns the range of rule sizes
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")

    def sigma_for(self, k):
        return float(self.sigma) if self.sigma is not None else float(k + 1)


@dataclass
class RateRow:
    """One (k, N, eps) result; rates appear only when the 2N row exists."""

    k: int
    N: int
    eps: float
    sigma: float
    err_energy: Optional[float] = None
    err_balanced: Optional[float] = None
    rate_energy: Optional[float] = None
    rate_balanced: Optional[float] = None
    clamped: bool = False
    residual: Optional[float] = None
    failed: bool = False
    message: str = ""
    extras: dict = field(default_factory=dict)


@dataclass
class ConvergenceTable:
    rows: list

    def groups(self):
        """Rows grouped by (k, eps), larger eps first within each k."""
        keys = sorted({(r.k, r.eps) for r in self.rows}, key=lambda t: (t[0], -t[1]))
        for k, eps in keys:
            group = sorted(
                (r for r in self.rows if r.k == k and r.eps == eps), key=lambda r: r.N
            )
            yield (k, eps), group

    @property
    def any_failed(self):
        return any(r.failed for r in self.rows)

    def row(self, k, N, eps):
        for r in self.rows:
            if r.k == k and r.N == N and r.eps == eps:
                return r
        raise KeyError((k, N, eps))


def _solve_row(cfg, k, N, eps):
    sigma = cfg.sigma_for(k)
    row = RateRow(k=k, N=N, eps=eps, sigma=sigma)
    try:
        problem = problem_by_key(cfg.problem, cfg.dim, eps, k)
        mcfg = MeshConfig(N=N, eps=eps, sigma=sigma, beta=problem.beta)
        if cfg.dim == 1:
            mesh = build_shishkin_1d(mcfg)
            sol = solve_ldg_1d(problem, mesh, k)
            energy, balanced = error_norms_1d(sol, problem, mesh, quad=cfg.quad_order)
            row.clamped = mesh.clamped
        else:
            mesh = build_shishkin_2d(mcfg)
            sol = solve_ldg_2d(problem, mesh, k)
            energy, balanced = error_norms_2d(sol, problem, mesh, quad=cfg.quad_order)
            row.clamped = mesh.clamped
        row.residual = sol.residual
        if cfg.norm in ("energy", "both"):
            row.err_energy = energy.total
        if cfg.norm in ("balanced", "both"):
            row.err_balanced = balanced.total
    except _ROW_ERRORS as exc:  # recorded per row; the sweep continues
        row.failed = True
        row.message = f"{type(exc).__name__}: {exc}"
    return row


def _layer_cells(N):
    return list(range(1, N // 4 + 1)) + list(range(3 * N // 4 + 1, N + 1))


def _coarse_cells(N):
    return list(range(N // 4 + 1, 3 * N // 4 + 1))


def _projection_row(cfg, k, N, eps):
    sigma = cfg.sigma_for(k)
    row = RateRow(k=k, N=N, eps=eps, sigma=sigma)
    try:
        problem = problem_by_key(cfg.problem, cfg.dim, eps, k)
        if not problem.has_exact:
            raise ConfigurationError("projection study needs exact solution handles")
        mcfg = MeshConfig(N=N, eps=eps, sigma=sigma, beta=problem.beta)
        if cfg.dim == 1:
            mesh = build_shishkin_1d(mcfg)
            row.clamped = mesh.clamped
            proj_u = composite_project_minus_1d(
                problem.u_exact, mesh, k, quad=cfg.quad_order, b=problem.b
            )
            proj_q = composite_project_plus_1d(problem.q_exact, mesh, k,
                                               quad=cfg.quad_order)
            layer = _layer_cells(N)
            coarse = _coarse_cells(N)
            err_u_layer = l2_error_region_1d(proj_u, problem.u_exact, mesh, layer)
            err_q = l2_error_region_1d(proj_q, problem.q_exact, mesh,
                                       range(1, N + 1))
            row.err_energy = eps ** -0.25 * err_u_layer
            row.err_balanced = eps ** -0.75 * err_q
            row.extras = {
                "linf_u_coarse": linf_error_1d(proj_u, problem.u_exact, mesh, coarse),
                "linf_q_layer": linf_error_1d(proj_q, problem.q_exact, mesh, layer),
            }
        else:
            mesh = build_shishkin_2d(mcfg)
            row.clamped = mesh.clamped
            proj_u = composite_project_minus_2d(
                problem.u_exact, mesh, k, quad=cfg.quad_order, b=problem.b
            )
            proj_p = composite_project_plus_x_2d(problem.p_exact, mesh, k,
                                                 quad=cfg.quad_order)
            q1, q3 = N // 4, 3 * N // 4
            outside_centre = lambda i, j: not (q1 + 1 <= i <= q3 and q1 + 1 <= j <= q3)
            err_u = l2_error_region_2d(proj_u, problem.u_exact, mesh, outside_centre)
            err_p = l2_error_region_2d(proj_p, problem.p_exact, mesh,
                                       lambda i, j: True)
            row.err_energy = eps ** -0.25 * err_u
            row.err_balanced = eps ** -0.75 * err_p
    except _ROW_ERRORS as exc:
        row.failed = True
        row.message = f"{type(exc).__name__}: {exc}"
    return row


def _execute_job(args):
    cfg, k, N, eps = args
    if cfg.study == "solve":
        return _solve_row(cfg, k, N, eps)
    return _projection_row(cfg, k, N, eps)


def _attach_rates(rows):
    by_key = {(r.k, r.N, r.eps): r for r in rows}
    for r in rows:
        nxt = by_key.get((r.k, 2 * r.N, r.eps))
        usable = (
            nxt is not None and not r.failed and not nxt.failed
            and not r.clamped and not nxt.clamped
        )
        if not usable:
            continue
        if r.err_energy is not None and nxt.err_energy is not None:
            r.rate_energy = rate_shishkin(r.err_energy, nxt.err_energy, r.N)
        if r.err_balanced is not None and nxt.err_balanced is not None:
            r.rate_balanced = rate_shishkin(r.err_balanced, nxt.err_balanced, r.N)
        for name in list(r.extras):
            e0, e1 = r.extras.get(name), nxt.extras.get(name)
            if e0 and e1:
                r.extras[f"rate_{name}"] = rate_shishkin(e0, e1, r.N)


def run_sweep(cfg):
    """Run the configured sweep and return the rate table."""
    jobs = [(cfg, k, N, eps) for k in cfg.k_list for eps in cfg.eps_list for N in cfg.n_list]
    if cfg.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(_execute_job, jobs))
    else:
        rows = [_execute_job(j) for j in jobs]
    _attach_rates(rows)
    rows.sort(key=lambda r: (r.k, -r.eps, r.N))
    return ConvergenceTable(rows=rows)


def run_projection_study(cfg):
    """Run the composite-projection error study on the same grid."""
    return run_sweep(replace(cfg, study="projection"))


def _fmt_float(v):
    return "" if v is None else f"{v:.6g}"


def _fmt_rate(v):
    return "" if v is None else f"{v:.2f}"


def _csv_lines(table):
    lines = [CSV_HEADER]
    for r in table.rows:
        lines.append(
            ",".join(
                [
                    str(r.k),
                    str(r.N),
                    f"{r.eps:.6g}",
                    f"{r.sigma:.6g}",
                    _fmt_float(r.err_energy),
                    _fmt_rate(r.rate_energy),
                    _fmt_float(r.err_balanced),
                    _fmt_rate(r.rate_balanced),
                    "true" if r.clamped else "false",
                    _fmt_float(r.residual),
                ]
            )
        )
    return lines


def _markdown_lines(table):
    lines = []
    for (k, eps), group in table.groups():
        extra_names = sorted(
            {name for r in group for name in r.extras if not name.startswith("rate_")}
        )
        lines.append(f"### k = {k}, eps = {eps:.6g}")
        lines.append("")
        header = ["N", "err_energy", "rate_energy", "err_balanced", "rate_balanced"]
        for name in extra_names:
            header += [name, f"rate_{name}"]
        header += ["clamped", "residual"]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for r in group:
            cells = [
                str(r.N),
                _fmt_float(r.err_energy),
                _fmt_rate(r.rate_energy),
                _fmt_float(r.err_balanced),
                _fmt_rate(r.rate_balanced),
            ]
            for name in extra_names:
                cells.append(_fmt_float(r.extras.get(name)))
                cells.append(_fmt_rate(r.extras.get(f"rate_{name}")))
            cells.append("true" if r.clamped else "false")
            cells.append(_fmt_float(r.residual))
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
    return lines


def emit_table(table, fmt="csv", out=None):
    """Serialize the table as CSV or markdown; write to ``out`` when given.

    Returns the rendered text.  CSV columns are fixed (see CSV_HEADER);
    markdown groups rows by (k, eps) with one sub-table each.
    """
    if not table.rows:
        raise ConfigurationError("cannot emit an empty table")
    if fmt == "csv":
        text = "\n".join(_csv_lines(table)) + "\n"
    elif fmt == "markdown":
        text = "\n".join(_markdown_lines(table)) + "\n"
    else:
        raise ConfigurationError(f"unknown format {fmt!r}")
    if out is not None and out != "-":
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
