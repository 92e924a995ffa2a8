"""Energy and balanced norms, error norms and the Shishkin rate formula.

The energy norm weights the flux term by 1/eps, the boundary jumps of U by
sqrt(eps) and the interface jump(s) of the flux at the transition node by
1/sqrt(eps); the balanced norm strengthens these to 1/eps^{3/2}, 1 and
1/eps.  Every volume term is one Gauss-rule integral of the squared
error, weighted by b for U: ``_sq_error_1d`` and ``_sq_error_2d``.  The
norms of a discrete argument are its error norms against zero on the
assembly rule (k+3 points), which integrates the degree-2k flux term
exactly; the jump terms come from exact modal algebra.

Error norms against exact solutions use the continuity of the exact pair
analytically: interior jumps of the error reduce to discrete jumps and the
boundary jumps to boundary traces of U, which avoids cancellation at
extreme eps.  Region errors take a boolean mask over the cells (shape (N,)
in 1D, (N, N) in 2D; ``Mesh1D.layer`` gives the layer regions).  The 2D
integrals, on whole cell rows of the solver's kron-order tensor grid, and the
1D sampled sup-norm run over strips that sample the exact solution once each.
"""

from dataclasses import dataclass

import numpy as np

# gauss_rule stays bound: bench/spans.py counts its calls here
from .basis import (_rule_table, assembly_quad_order, cell_blocks, error_quad_order, gauss_rule,
                    grid_product, legendre_table, reference_blocks_1d)
from .errors import ConfigurationError


@dataclass(frozen=True)
class NormBreakdown:
    """Squared contributions per group; ``total`` is the root of their sum."""

    q_term: float
    u_term: float
    boundary_jump_term: float
    interface_jump_term: float

    @property
    def total(self):
        return float(np.sqrt(
            self.q_term + self.u_term + self.boundary_jump_term + self.interface_jump_term
        ))


def _norm_parts(eps, flux_sq, u_sq, boundary_sq, interface_sq):
    """Energy and balanced breakdowns from the unweighted squared parts: the
    energy norm weights flux, boundary and interface parts by 1/eps,
    sqrt(eps) and 1/sqrt(eps), the balanced norm by eps^{-3/2}, 1 and 1/eps."""
    root = float(np.sqrt(eps))
    energy = NormBreakdown(flux_sq / eps, u_sq, root * boundary_sq, interface_sq / root)
    balanced = NormBreakdown(flux_sq / eps**1.5, u_sq, boundary_sq, interface_sq / eps)
    return energy, balanced


def _zero(*points):
    return 0.0


def _error_rule(k, mesh, quad=None):
    """(rule, V, X): the quad-point rule (``error_quad_order(k)`` when None), its degree-k
    table and its points on the cells of ``mesh`` (1D, or a 2D mesh's axis)."""
    rule, V = _rule_table(k, error_quad_order(k) if quad is None else quad)
    return rule, V, mesh.quadrature_points(rule.points)


def _sq_error_1d(dgf, exact, mesh, error_rule, cells=slice(None), weight=None):
    """Integral of weight * (exact - dgf)^2 (weight 1 when None) on the
    ``_error_rule`` over the cells that ``cells`` selects: an (N,) boolean
    mask, or by default a slice of every cell."""
    rule, V, X = error_rule
    X = X[cells]
    sq = (np.asarray(exact(X), dtype=float) - dgf.coeffs[cells] @ V.T) ** 2
    if weight is not None:
        sq *= np.asarray(weight(X), dtype=float)
    halfh = 0.5 * mesh.widths[cells]
    return float(np.sum(halfh[:, None] * rule.weights * sq))


def _jumps_1d(V, mesh):
    """Squared boundary jumps of U and squared interface jump of Q."""
    J = mesh.interface_index
    ju0 = -V.U.left_traces()[0]
    juN = V.U.right_traces()[-1]
    jq = V.Q.right_traces()[J - 1] - V.Q.left_traces()[J]
    return float(ju0**2 + juN**2), float(jq**2)


def _norms_1d(W, problem, mesh, quad, u, q):
    """Energy and balanced norms of (u - W.U, q - W.Q) from the discrete
    jumps of W alone (the exact pair is continuous and vanishes on the
    boundary)."""
    error_rule = _error_rule(W.U.degree, mesh, quad)
    return _norm_parts(problem.eps, _sq_error_1d(W.Q, q, mesh, error_rule),
                       _sq_error_1d(W.U, u, mesh, error_rule, weight=problem.b),
                       *_jumps_1d(W, mesh))


def discrete_norms_1d(V, problem, mesh):
    """Energy and balanced norms of a discrete pair; the energy total^2
    equals B(V; V) (``tests/reference.py::bilinear_form_1d``)."""
    return _norms_1d(V, problem, mesh, assembly_quad_order(V.U.degree), _zero, _zero)


def error_norms_1d(W, problem, mesh, quad=None):
    """Energy- and balanced-norm errors of W against the exact solution.

    Interior exact jumps vanish, boundary exact values vanish, so the jump
    contributions are discrete traces only (no exact/discrete cancellation).
    """
    if not problem.has_exact:
        raise ConfigurationError("error norms need exact solution handles")
    return _norms_1d(W, problem, mesh, quad, problem.u_exact, problem.q_exact)


def _sq_error_2d(dgf, exact, mesh2d, error_rule, cells=slice(None), weight=None):
    """``_sq_error_1d`` over the cells that ``cells`` selects: an (N, N)
    boolean mask, or by default a slice of every cell.

    It runs over strips of whole cell rows (``cell_blocks``): ``grid_product``
    takes the kron-order coefficients of a strip to the tensor grid, rows
    (i, g), columns (j, h), where ``exact`` and ``weight`` are sampled as
    f(x[:, None], y[None, :]).  It sums per cell before ``cells`` selects:
    cells outside the mask add nothing even where ``exact`` is NaN."""
    rule, V, x = error_rule
    w, N, quad = rule.weights, mesh2d.N, rule.weights.size
    y = x.reshape(1, -1)
    per_cell = np.empty((N, N))
    for rows in cell_blocks(N, N * quad**2):
        sq = grid_product(V, dgf.coeffs[rows].reshape(-1, N * (dgf.degree + 1)))
        xs = x[rows].reshape(-1, 1)
        np.subtract(np.asarray(exact(xs, y), dtype=float), sq, out=sq)
        sq *= sq
        if weight is not None:
            sq *= np.asarray(weight(xs, y), dtype=float)
        per_cell[rows] = w @ (sq.reshape(-1, quad) @ w).reshape(-1, quad, N)
    h = 0.5 * mesh2d.axis.widths
    per_cell *= h[:, None] * h
    return float(np.sum(per_cell[cells]))


def _jump_terms_2d(T, mesh2d):
    """Squared boundary U-jump integrals and squared interface P/Q jump
    integrals, each summed over both axes.  Only the cell lines on the
    boundary and at the interface are traced: c[i] (m, j, n) and c[:, :, j]
    (i, m, n) of the kron-order coefficients, P_m(-1) = (-1)^m, P_m(1) = 1."""
    ref = reference_blocks_1d(T.U.degree)
    left, wbar = ref.alt, ref.mass
    h = 0.5 * mesh2d.axis.widths
    J = mesh2d.axis.interface_index
    U, P, Q = T.U.coeffs, T.P.coeffs, T.Q.coeffs

    def edge_sq(*lines):  # sum of integral(trace^2) over edge lines of modal traces
        return float(np.sum(h * (np.stack(lines) ** 2 @ wbar)))

    # [[U]]_{0,y} = -U^+ on x=0; [[U]]_{N,y} = U^- on x=1 (squares drop sign)
    return (edge_sq(np.tensordot(left, U[0], 1), U[-1].sum(axis=0), U[:, :, 0] @ left,
                    U[:, :, -1].sum(axis=2)),
            edge_sq(P[J - 1].sum(axis=0) - np.tensordot(left, P[J], 1),
                    Q[:, :, J - 1].sum(axis=2) - Q[:, :, J] @ left))


def _norms_2d(T, problem, mesh2d, quad, u, p, q):
    """The 2D ``_norms_1d`` of (u - T.U, p - T.P, q - T.Q)."""
    error_rule = _error_rule(T.U.degree, mesh2d.axis, quad)
    flux_sq = sum(_sq_error_2d(F, f, mesh2d, error_rule) for F, f in ((T.P, p), (T.Q, q)))
    return _norm_parts(problem.eps, flux_sq,
                       _sq_error_2d(T.U, u, mesh2d, error_rule, weight=problem.b),
                       *_jump_terms_2d(T, mesh2d))


def discrete_norms_2d(T, problem, mesh2d):
    """Energy and balanced norms of a discrete triple; the energy total^2
    equals B(T; T) (``tests/reference.py::bilinear_form_2d``)."""
    return _norms_2d(T, problem, mesh2d, assembly_quad_order(T.U.degree), _zero, _zero, _zero)


def error_norms_2d(T, problem, mesh2d, quad=None):
    """Energy- and balanced-norm errors of the discrete triple (U, P, Q)."""
    if not problem.has_exact:
        raise ConfigurationError("error norms need exact solution handles")
    return _norms_2d(T, problem, mesh2d, quad, problem.u_exact, problem.p_exact,
                     problem.q_exact)


def rate_shishkin(e_N, e_2N, N):
    """Convergence order in the Shishkin metric N^{-1} ln N.

    r = (log e_N - log e_2N) / log(2 ln N / ln 2N) for N >= 3 (at N = 2 the
    denominator is 0); returns None when either error is nonpositive.
    """
    if N < 3:
        raise ConfigurationError(f"rate needs N >= 3, got {N}")
    if e_N <= 0.0 or e_2N <= 0.0:
        return None
    return float((np.log(e_N) - np.log(e_2N)) / np.log(2.0 * np.log(N) / np.log(2.0 * N)))


def _cell_mask(cells, shape):
    """The selector of the cells ``cells``: a slice of every cell when None,
    else ``cells`` checked to be a boolean mask of the given shape."""
    if cells is None:
        return slice(None)
    mask = np.asarray(cells)
    if mask.dtype != bool or mask.shape != shape:
        raise ConfigurationError(
            f"cells must be a boolean mask of shape {shape}, got {mask.dtype} {mask.shape}"
        )
    return mask


_LINF_SAMPLES = 40  # points per cell sampled by linf_error_1d


def linf_error_1d(dgf, exact, mesh, cells=None):
    """Sampled sup-norm of (exact - dgf) over the cells of the (N,) mask
    ``cells`` (every cell when None).

    Debug aid for projection studies; sampling uses a uniform grid of
    ``_LINF_SAMPLES`` points per cell, both endpoints included, and runs
    over strips of the selected cells (``cell_blocks``), one call a strip.
    """
    mask = _cell_mask(cells, (mesh.N,))
    ts = np.linspace(-1.0, 1.0, _LINF_SAMPLES)
    Vt = legendre_table(dgf.degree, ts)
    a, b = mesh.nodes[:-1][mask, None], mesh.nodes[1:][mask, None]
    coeffs, worst = dgf.coeffs[mask], 0.0
    for s in cell_blocks(len(a), _LINF_SAMPLES):
        xs = np.multiply(b[s] - a[s], ts + 1.0)
        np.add(a[s], np.divide(xs, 2.0, out=xs), out=xs)
        ex = np.asarray(exact(xs), dtype=float)  # before the traces: 3 strip arrays live, not 4
        diff = coeffs[s] @ Vt.T
        diff -= ex  # |dgf - exact| = |exact - dgf| bit for bit
        worst = np.maximum(worst, np.max(np.abs(diff, out=diff)))
        del xs, ex, diff  # the next strip reuses their memory
    return float(worst)


def l2_error_region_1d(dgf, exact, mesh, cells=None, quad=None):
    """L2 error of a DG function against ``exact`` over the cells of the
    (N,) boolean mask ``cells`` (every cell when None)."""
    return float(np.sqrt(_sq_error_1d(dgf, exact, mesh, _error_rule(dgf.degree, mesh, quad),
                                      _cell_mask(cells, (mesh.N,)))))


def l2_error_region_2d(dgf, exact, mesh2d, cells=None, quad=None):
    """L2 error over the cells (i, j) of the (N, N) boolean mask ``cells``
    (every cell when None)."""
    error_rule = _error_rule(dgf.degree, mesh2d.axis, quad)
    return float(np.sqrt(_sq_error_2d(dgf, exact, mesh2d, error_rule,
                                      _cell_mask(cells, (mesh2d.N, mesh2d.N)))))
