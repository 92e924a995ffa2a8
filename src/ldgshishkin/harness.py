"""Sweep driver: run (k, N, eps) grids, compute rates, emit tables.

A sweep solves the selected problem on every grid point, measures the
energy- and balanced-norm errors and attaches to each row the Shishkin
rate computed from the (N, 2N) pair.  Rows from clamped meshes (transition
point capped at 1/4) and failed solves are flagged and excluded from rate
fits.  ``STUDIES`` holds what a row measures in each study and dimension.
"""

import itertools
from dataclasses import dataclass, field, replace
from numbers import Integral, Real
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

NORMS = ("energy", "balanced", "both")


def _fmt(spec):
    """A cell format: ``spec`` applied to the value, blank for None."""
    return lambda v: "" if v is None else format(v, spec)


_fmt_float, _fmt_rate = _fmt(".6g"), _fmt(".2f")

# The table schema, (RateRow field, cell format) per column.  CSV rows lead with
# the key columns, markdown rows with N (k and eps head each sub-table); then the
# measured columns, with a projection study's extras placed before ``clamped``.
_KEY_COLUMNS = (("k", str), ("N", str), ("eps", _fmt_float), ("sigma", _fmt_float))
_COLUMNS = (
    ("err_energy", _fmt_float), ("rate_energy", _fmt_rate),
    ("err_balanced", _fmt_float), ("rate_balanced", _fmt_rate),
    ("clamped", lambda v: "true" if v else "false"), ("residual", _fmt_float),
)
_EXTRAS_AT = 4
CSV_HEADER = ",".join(name for name, _ in _KEY_COLUMNS + _COLUMNS)


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
        for what, value, allowed in (("norm selection", self.norm, NORMS),
                                     ("study", self.study, STUDIES),
                                     ("format", self.fmt, FORMATS)):
            if value not in allowed:
                raise ConfigurationError(f"unknown {what} {value!r}")
        ns = list(self.n_list)
        if not (self.k_list and ns and self.eps_list):
            raise ConfigurationError("the k, N and eps lists must not be empty")
        if any(len(set(v)) < len(v) for v in (self.k_list, self.eps_list)):
            raise ConfigurationError("the k and eps lists must not repeat a value")
        for a, b in zip(ns, ns[1:]):
            if b != 2 * a:
                raise ConfigurationError(
                    f"N list must double strictly for rate fits, got {a} -> {b}"
                )
        if any(isinstance(k, bool) or not isinstance(k, Integral) or k < 1 for k in self.k_list):
            raise ConfigurationError(f"degrees must be integers >= 1, got {self.k_list}")
        if self.sigma is not None and (isinstance(self.sigma, bool)
                                       or not isinstance(self.sigma, Real)):
            raise ConfigurationError(f"sigma must be a real number, got {self.sigma!r}")
        for k, n, eps in itertools.product(self.k_list, ns, self.eps_list):
            MeshConfig(N=n, eps=eps, sigma=self.sigma_for(k))  # owns the N, eps, sigma rules
        if self.quad_order is not None:
            gauss_rule(self.quad_order)  # owns the range of rule sizes
            if self.study == "projection" and self.quad_order <= max(self.k_list):
                raise ConfigurationError(f"projections of degree {max(self.k_list)} need "
                                         f"quad_order >= {max(self.k_list) + 1}")
        if (isinstance(self.workers, bool) or not isinstance(self.workers, Integral)
                or self.workers < 1):
            raise ConfigurationError(f"workers must be an integer >= 1, got {self.workers!r}")

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
        """Rows grouped by (k, eps), larger eps first within each k, N ascending."""
        rows = sorted(self.rows, key=lambda r: (r.k, -r.eps, r.N))
        for key, group in itertools.groupby(rows, key=lambda r: (r.k, r.eps)):
            yield key, list(group)

    @property
    def any_failed(self):
        return any(r.failed for r in self.rows)

    def row(self, k, N, eps):
        for r in self.rows:
            if r.k == k and r.N == N and r.eps == eps:
                return r
        raise KeyError((k, N, eps))


def _group(job):
    """The rows of one (k, eps) group, N ascending, on its one problem."""
    cfg, k, eps = job
    try:
        problem = problem_by_key(cfg.problem, cfg.dim, eps, k)
    except _ROW_ERRORS as exc:  # every row of the group records it
        problem = exc
    return [_row(cfg, problem, k, N, eps) for N in cfg.n_list]


def _solve_1d(problem, mesh, k, quad):
    sol = solve_ldg_1d(problem, mesh, k)
    energy, balanced = error_norms_1d(sol, problem, mesh, quad=quad)
    return energy.total, balanced.total, sol.residual, {}


def _solve_2d(problem, mesh, k, quad):
    sol = solve_ldg_2d(problem, mesh, k)
    energy, balanced = error_norms_2d(sol, problem, mesh, quad=quad)
    return energy.total, balanced.total, sol.residual, {}


def _project_1d(problem, mesh, k, quad):
    eps, layer = mesh.config.eps, mesh.layer
    proj_u = composite_project_minus_1d(problem.u_exact, mesh, k, quad=quad, b=problem.b)
    proj_q = composite_project_plus_1d(problem.q_exact, mesh, k, quad=quad)
    err_u = eps ** -0.25 * l2_error_region_1d(proj_u, problem.u_exact, mesh, layer, quad=quad)
    err_q = eps ** -0.75 * l2_error_region_1d(proj_q, problem.q_exact, mesh, quad=quad)
    return err_u, err_q, None, {
        "linf_u_coarse": linf_error_1d(proj_u, problem.u_exact, mesh, ~layer),
        "linf_q_layer": linf_error_1d(proj_q, problem.q_exact, mesh, layer)}


def _project_2d(problem, mesh, k, quad):
    eps, layer = mesh.axis.config.eps, mesh.axis.layer
    proj_u = composite_project_minus_2d(problem.u_exact, mesh, k, quad=quad, b=problem.b)
    proj_p = composite_project_plus_x_2d(problem.p_exact, mesh, k, quad=quad)
    off_centre = layer[:, None] | layer[None, :]
    err_u = eps ** -0.25 * l2_error_region_2d(proj_u, problem.u_exact, mesh, off_centre, quad=quad)
    err_p = eps ** -0.75 * l2_error_region_2d(proj_p, problem.p_exact, mesh, quad=quad)
    return err_u, err_p, None, {}


# Study name -> (1D measure, 2D measure); the CLI's --study choices.  A measure maps
# (problem, mesh, k, quad) to (err_energy, err_balanced, residual, extras) and calls
# the package through this module's globals, which a tracer or a test may rebind.
STUDIES = {"solve": (_solve_1d, _solve_2d), "projection": (_project_1d, _project_2d)}


def _row(cfg, problem, k, N, eps):
    """One grid point of ``problem`` (or of the failure building it), measured by
    ``STUDIES``; ``cfg.norm`` picks the error columns kept, and failures set ``failed``."""
    sigma = cfg.sigma_for(k)
    row = RateRow(k=k, N=N, eps=eps, sigma=sigma)
    try:
        if isinstance(problem, Exception):
            raise problem
        if not problem.has_exact:
            raise ConfigurationError(f"the {cfg.study} study needs exact solution handles")
        mcfg = MeshConfig(N=N, eps=eps, sigma=sigma, beta=problem.beta)
        mesh = build_shishkin_1d(mcfg) if cfg.dim == 1 else build_shishkin_2d(mcfg)
        row.clamped = mesh.clamped
        measure = STUDIES[cfg.study][cfg.dim - 1]
        energy, balanced, row.residual, row.extras = measure(problem, mesh, k, cfg.quad_order)
        row.err_energy = None if cfg.norm == "balanced" else energy
        row.err_balanced = None if cfg.norm == "energy" else balanced
    except _ROW_ERRORS as exc:  # recorded per row; the sweep continues
        row.failed = True
        row.message = f"{type(exc).__name__}: {exc}"
    return row


def _attach_rates(rows):
    by_key = {(r.k, r.N, r.eps): r for r in rows}
    for r in rows:
        nxt = by_key.get((r.k, 2 * r.N, r.eps))
        if nxt is None or any(x.failed or x.clamped for x in (r, nxt)):
            continue
        if r.err_energy is not None and nxt.err_energy is not None:
            r.rate_energy = rate_shishkin(r.err_energy, nxt.err_energy, r.N)
        if r.err_balanced is not None and nxt.err_balanced is not None:
            r.rate_balanced = rate_shishkin(r.err_balanced, nxt.err_balanced, r.N)
        for name, e0 in list(r.extras.items()):
            if e0 and nxt.extras.get(name):
                r.extras[f"rate_{name}"] = rate_shishkin(e0, nxt.extras[name], r.N)


def run_sweep(cfg):
    """Run the configured sweep and return the rate table."""
    jobs = [(cfg, k, eps) for k in cfg.k_list for eps in cfg.eps_list]
    if cfg.workers > 1:  # a group is sent whole: problems hold closures and do not pickle
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            groups = list(pool.map(_group, jobs))
    else:
        groups = [_group(j) for j in jobs]
    rows = sorted(itertools.chain.from_iterable(groups), key=lambda r: (r.k, -r.eps, r.N))
    _attach_rates(rows)
    return ConvergenceTable(rows=rows)


def run_projection_study(cfg):
    """Run the composite-projection error study on the same grid."""
    return run_sweep(replace(cfg, study="projection"))


def _cells(row, columns):
    """The formatted cells of ``row``; a name that is no RateRow field is an extra."""
    return [fmt(getattr(row, name) if hasattr(row, name) else row.extras.get(name))
            for name, fmt in columns]


def _csv_lines(table):
    columns = _KEY_COLUMNS + _COLUMNS
    return [CSV_HEADER] + [",".join(_cells(r, columns)) for r in table.rows]


def _markdown_lines(table):
    lines = []
    for (k, eps), group in table.groups():
        names = sorted({name for r in group for name in r.extras if not name.startswith("rate_")})
        extras = tuple(column for name in names
                       for column in ((name, _fmt_float), (f"rate_{name}", _fmt_rate)))
        columns = (("N", str),) + _COLUMNS[:_EXTRAS_AT] + extras + _COLUMNS[_EXTRAS_AT:]
        lines += [f"### k = {k}, eps = {eps:.6g}", "",
                  "| " + " | ".join(name for name, _ in columns) + " |",
                  "|" + "---|" * len(columns)]
        lines += ["| " + " | ".join(_cells(r, columns)) + " |" for r in group] + [""]
    return lines


# Output format name -> line writer; the CLI's --format choices.
FORMATS = {"csv": _csv_lines, "markdown": _markdown_lines}


def emit_table(table, fmt="csv", out=None):
    """Serialize the table in the format ``fmt`` (a key of FORMATS); write to
    ``out`` when given.  Returns the rendered text.

    Every format reads the one column schema: CSV has the fixed CSV_HEADER
    columns, markdown one sub-table per (k, eps) with the extras columns.
    """
    if not table.rows:
        raise ConfigurationError("cannot emit an empty table")
    if fmt not in FORMATS:
        raise ConfigurationError(f"unknown format {fmt!r}")
    text = "\n".join(FORMATS[fmt](table)) + "\n"
    if out is not None and out != "-":
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
