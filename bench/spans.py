"""Span tracer that times ldgshishkin's layers from outside the package.

Nothing under ``src/`` is edited.  Each wrapper is bound into the module
namespace (or class) where the caller looks the function up, so for
example ``ldg1d.assemble_1d`` is timed as ``solve_ldg_1d`` calls it.
``Tracer.install`` binds the wrappers and ``Tracer.uninstall`` puts the
original functions back, so an untraced pass runs the package unwrapped.

Spans are kept in memory as ``[id, parent, name, site, start, end]`` and
written out by the caller when the run ends.  A span's self time is its
duration minus the durations of its child spans (calls are nested and
single-threaded, so children never overlap).
"""

import functools
import importlib
import time

# (module, attribute where the caller looks it up, span name, observer).
# Several call sites may share one span name; their times add up.
SPAN_POINTS = (
    ("cli", "main", "cli.main", None),
    ("cli", "run_sweep", "harness.run_sweep", "table"),
    ("cli", "emit_table", "harness.emit_table", None),
    ("harness", "run_sweep", "harness.run_sweep", "table"),
    ("harness", "run_projection_study", "harness.run_projection_study", None),
    ("harness", "problem_by_key", "problems.problem_by_key", None),
    ("harness", "build_shishkin_1d", "mesh.build", None),
    ("harness", "build_shishkin_2d", "mesh.build", None),
    ("harness", "solve_ldg_1d", "ldg1d.solve_ldg_1d", None),
    ("harness", "solve_ldg_2d", "ldg2d.solve_ldg_2d", None),
    ("harness", "error_norms_1d", "norms.error_norms", None),
    ("harness", "error_norms_2d", "norms.error_norms", None),
    ("harness", "composite_project_minus_1d", "projections.composite", None),
    ("harness", "composite_project_plus_1d", "projections.composite", None),
    ("harness", "composite_project_minus_2d", "projections.composite", None),
    ("harness", "composite_project_plus_x_2d", "projections.composite", None),
    ("harness", "l2_error_region_1d", "norms.region", None),
    ("harness", "l2_error_region_2d", "norms.region", None),
    ("harness", "linf_error_1d", "norms.region", None),
    ("ldg1d", "assemble_1d", "ldg1d.assemble_1d", "assemble_1d"),
    ("ldg1d", "equilibrate", "linalg.equilibrate", None),
    ("ldg1d", "lu_banded_solve", "linalg.lu_banded_solve", "banded"),
    ("ldg2d", "assemble_2d", "ldg2d.assemble_2d", "assemble_2d"),
    ("ldg2d", "equilibrate", "linalg.equilibrate", None),
    ("ldg2d", "sparse_solve", "linalg.sparse_solve", "sparse"),
    ("projections", "tensor_project_2d", "projections.tensor_project_2d", None),
    ("dgfunction", "DGFunction1D.evaluate", "dgfunction.evaluate", None),
    ("dgfunction", "DGFunction2D.evaluate", "dgfunction.evaluate", None),
)

# Small, frequent helpers get a call counter instead of a span.
COUNT_POINTS = tuple(
    (module, attr, f"basis.{attr}.calls")
    for attr, modules in (
        ("gauss_rule", ("ldg1d", "ldg2d", "norms", "projections")),
        ("legendre_table", ("basis", "dgfunction", "ldg1d", "ldg2d", "norms",
                            "projections")),
    )
    for module in modules
)

SPAN_NAMES = tuple(dict.fromkeys(point[2] for point in SPAN_POINTS))
COUNTER_NAMES = (
    "basis.gauss_rule.calls", "basis.legendre_table.calls",
    "ldg1d.dofs", "ldg1d.bandwidth", "ldg2d.dofs", "ldg2d.nnz",
    "linalg.sparse_solve.n", "linalg.sparse_solve.nnz", "linalg.residual_max",
    "harness.rows", "harness.rows_failed",
)


def _observe_table(tracer, args, table):
    tracer.add("harness.rows", len(table.rows))
    tracer.add("harness.rows_failed", sum(1 for row in table.rows if row.failed))


def _observe_assemble_1d(tracer, args, system):
    matrix = system.matrix
    tracer.add("ldg1d.dofs", matrix.n)
    tracer.peak("ldg1d.bandwidth", matrix.lower + matrix.upper + 1)


def _observe_assemble_2d(tracer, args, system):
    tracer.add("ldg2d.dofs", system.matrix.n)
    tracer.add("ldg2d.nnz", system.matrix.csr.nnz)


def _observe_banded(tracer, args, result):
    tracer.peak("linalg.residual_max", result.residual)


def _observe_sparse(tracer, args, result):
    matrix = args[0]
    csr = getattr(matrix, "csr", matrix)
    tracer.add("linalg.sparse_solve.n", csr.shape[0])
    tracer.add("linalg.sparse_solve.nnz", csr.nnz)
    tracer.peak("linalg.residual_max", result.residual)


_OBSERVERS = {
    "table": _observe_table,
    "assemble_1d": _observe_assemble_1d,
    "assemble_2d": _observe_assemble_2d,
    "banded": _observe_banded,
    "sparse": _observe_sparse,
}


def resolve(module_name, attr):
    """The object holding ``attr`` (a module or a class) and the attribute name."""
    owner = importlib.import_module(f"ldgshishkin.{module_name}")
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """In-memory spans and counters for the passes of one run."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []
        self._saved = []

    def reset(self):
        self.spans = []
        self.counters = {}
        self._stack = []

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name, value):
        self.counters[name] = max(self.counters.get(name, value), value)

    def _span_wrapper(self, fn, name, site, observer):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self._stack
            record = [len(spans), stack[-1] if stack else None, name, site,
                      clock(), None]
            spans.append(record)
            stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = clock()
                stack.pop()
            if observer is not None:
                observer(self, args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name, 1)
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Bind every wrapper where its callers look the function up."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, observer in SPAN_POINTS:
            owner, leaf = resolve(module_name, attr)
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._span_wrapper(
                original, name, f"{module_name}.{attr}", _OBSERVERS.get(observer)))
        for module_name, attr, name in COUNT_POINTS:
            owner, leaf = resolve(module_name, attr)
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._count_wrapper(original, name))

    def uninstall(self):
        """Restore the original functions."""
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def pass_metrics(self, wall_s):
        """Per-layer values of the pass recorded since the last reset.

        Every span name gets ``calls``, ``total_s`` and ``self_s`` (zero when
        the pass never reached that layer); every counter is present too.
        ``trace.span_coverage`` is the summed self time of all spans over
        the traced wall time of the pass.
        """
        duration = [end - start for _, _, _, _, start, end in self.spans]
        child = [0.0] * len(self.spans)
        for (_, parent, *_), d in zip(self.spans, duration):
            if parent is not None:
                child[parent] += d
        values = {}
        for name in SPAN_NAMES:
            values[f"{name}.calls"] = 0
            values[f"{name}.total_s"] = 0.0
            values[f"{name}.self_s"] = 0.0
        for (_, _, name, *_), d, c in zip(self.spans, duration, child):
            values[f"{name}.calls"] += 1
            values[f"{name}.total_s"] += d
            values[f"{name}.self_s"] += d - c
        for name in COUNTER_NAMES:
            values[name] = self.counters.get(name, 0)
        values["trace.span_coverage"] = sum(
            d - c for d, c in zip(duration, child)) / wall_s
        return values
