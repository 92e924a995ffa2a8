"""Mixed LDG solver for singularly perturbed reaction-diffusion problems
on Shishkin meshes, with energy- and balanced-norm convergence studies."""

from .basis import (
    QuadratureRule,
    gauss_rule,
    legendre_eval,
)
from .dgfunction import DGFunction1D, DGFunction2D
from .errors import (
    ConfigurationError,
    MeshError,
    ProjectionError,
    SingularMatrixError,
    SolverError,
)
from .harness import (
    ConvergenceTable,
    RateRow,
    SweepConfig,
    emit_table,
    run_projection_study,
    run_sweep,
)
from .ldg1d import (
    AssembledSystem,
    MixedSolution1D,
    assemble_1d,
    solve_ldg_1d,
)
from .ldg2d import (
    AssembledSystem2D,
    MixedSolution2D,
    assemble_2d,
    solve_ldg_2d,
)
from .linalg import (
    BandedMatrix,
    SolveResult,
    SparseMatrix,
    equilibrate,
    lu_banded_solve,
    sparse_solve,
)
from .mesh import Mesh1D, Mesh2D, MeshConfig, build_shishkin_1d, build_shishkin_2d
from .norms import (
    NormBreakdown,
    balanced_norm_1d,
    balanced_norm_2d,
    energy_norm_1d,
    energy_norm_2d,
    error_norms_1d,
    error_norms_2d,
    l2_error_region_1d,
    l2_error_region_2d,
    linf_error_1d,
    rate_shishkin,
)
from .problems import (
    Problem1D,
    Problem2D,
    manufactured_2d_problem,
    paper_1d_problem,
    polynomial_problem_1d,
    problem_by_key,
)
from .projections import (
    composite_project_minus_1d,
    composite_project_minus_2d,
    composite_project_plus_1d,
    composite_project_plus_x_2d,
    project_gr_minus,
    project_gr_plus,
    project_l2,
    project_weighted,
    tensor_project_2d,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
