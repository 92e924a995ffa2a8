"""Energy and balanced norms, error norms and the Shishkin rate formula.

The energy norm weights the flux term by 1/eps, the boundary jumps of U by
sqrt(eps) and the interface jump(s) of the flux at the transition node by
1/sqrt(eps); the balanced norm strengthens these to 1/eps^{3/2}, 1 and
1/eps.  For discrete arguments the flux L2 terms and all jump terms come
from exact modal algebra; only the b-weighted U term needs quadrature.

Error norms against exact solutions use the continuity of the exact pair
analytically: interior jumps of the error reduce to discrete jumps and the
boundary jumps to boundary traces of U, which avoids cancellation at
extreme eps.  Region errors take a boolean mask over the cells (shape (N,)
in 1D, (N, N) in 2D; ``Mesh1D.layer`` gives the layer regions) and sum
the weighted squared error over the quadrature grid of the chosen cells;
in 2D both they and the error norms work in blocks of ``cell_blocks``
cells.
"""

from dataclasses import dataclass

import numpy as np

from .basis import (
    assembly_quad_order,
    cell_blocks,
    error_quad_order,
    gauss_rule,
    legendre_table,
)
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


def _l2_sq_modal_1d(dgf, mesh):
    """Exact squared L2 norm of a 1D DG function (diagonal modal mass)."""
    halfh = 0.5 * np.diff(mesh.nodes)
    wbar = 2.0 / (2.0 * np.arange(dgf.degree + 1) + 1.0)
    return float(np.sum(halfh[:, None] * dgf.coeffs**2 * wbar[None, :]))


def _b_weighted_sq_1d(U, b, mesh):
    rule = gauss_rule(assembly_quad_order(U.degree))
    V, _ = legendre_table(U.degree, rule.points)
    halfh = 0.5 * np.diff(mesh.nodes)
    X = mesh.quadrature_points(rule.points)
    bvals = np.asarray(b(X), dtype=float)
    Uv = U.values_at(V)
    return float(np.sum(halfh[:, None] * rule.weights * bvals * Uv**2))


def _jumps_1d(V, mesh):
    """Squared boundary jumps of U and squared interface jump of Q."""
    J = mesh.interface_index
    ju0 = -V.U.left_traces()[0]
    juN = V.U.right_traces()[-1]
    jq = V.Q.right_traces()[J - 1] - V.Q.left_traces()[J]
    return float(ju0**2 + juN**2), float(jq**2)


def _discrete_norms_1d(V, problem, mesh):
    return _norm_parts(problem.eps, _l2_sq_modal_1d(V.Q, mesh),
                       _b_weighted_sq_1d(V.U, problem.b, mesh), *_jumps_1d(V, mesh))


def energy_norm_1d(V, problem, mesh):
    """Energy norm of a discrete pair; total^2 equals B(V; V)."""
    return _discrete_norms_1d(V, problem, mesh)[0]


def balanced_norm_1d(V, problem, mesh):
    """Balanced norm of a discrete pair (flux weighted by eps^{-3/2})."""
    return _discrete_norms_1d(V, problem, mesh)[1]


def error_norms_1d(W, problem, mesh, quad=None):
    """Energy- and balanced-norm errors of W against the exact solution.

    Interior exact jumps vanish, boundary exact values vanish, so the jump
    contributions are discrete traces only (no exact/discrete cancellation).
    """
    if not problem.has_exact:
        raise ConfigurationError("error norms need exact solution handles")
    k = W.U.degree
    quad = error_quad_order(k) if quad is None else quad
    rule = gauss_rule(quad)
    V, _ = legendre_table(k, rule.points)
    halfh = 0.5 * np.diff(mesh.nodes)
    X = mesh.quadrature_points(rule.points)
    bvals = np.asarray(problem.b(X), dtype=float)
    du = np.asarray(problem.u_exact(X), dtype=float) - W.U.values_at(V)
    dq = np.asarray(problem.q_exact(X), dtype=float) - W.Q.values_at(V)
    u_int = float(np.sum(halfh[:, None] * rule.weights * bvals * du**2))
    q_int = float(np.sum(halfh[:, None] * rule.weights * dq**2))
    return _norm_parts(problem.eps, q_int, u_int, *_jumps_1d(W, mesh))


def _l2_sq_modal_2d(dgf, mesh2d):
    h = 0.5 * np.diff(mesh2d.axis.nodes)
    wbar = 2.0 / (2.0 * np.arange(dgf.degree + 1) + 1.0)
    sq = np.einsum("ijmn,m,n->ij", dgf.coeffs**2, wbar, wbar)
    return float(np.sum(h[:, None] * h[None, :] * sq))


def _edge_sq(coef_lines, half_widths, wbar):
    """Sum of integral(trace^2) over a stack of edges given modal coeffs."""
    return float(np.sum(half_widths * (coef_lines**2 @ wbar)))


def _jump_terms_2d(T, mesh2d):
    """Squared boundary U-jump integrals and squared interface P/Q jump
    integrals, each summed over both axes."""
    k = T.U.degree
    wbar = 2.0 / (2.0 * np.arange(k + 1) + 1.0)
    h = 0.5 * np.diff(mesh2d.axis.nodes)
    J = mesh2d.axis.interface_index

    Ul = T.U.x_edge_trace("left")
    Ur = T.U.x_edge_trace("right")
    Ub = T.U.y_edge_trace("bottom")
    Ut = T.U.y_edge_trace("top")
    # [[U]]_{0,y} = -U^+ on x=0; [[U]]_{N,y} = U^- on x=1 (squares drop sign)
    bnd_x = _edge_sq(Ul[0], h, wbar) + _edge_sq(Ur[-1], h, wbar)
    bnd_y = _edge_sq(Ub[:, 0], h, wbar) + _edge_sq(Ut[:, -1], h, wbar)

    Pjump = T.P.x_edge_trace("right")[J - 1] - T.P.x_edge_trace("left")[J]
    Qjump = T.Q.y_edge_trace("top")[:, J - 1] - T.Q.y_edge_trace("bottom")[:, J]
    int_p = _edge_sq(Pjump, h, wbar)
    int_q = _edge_sq(Qjump, h, wbar)
    return bnd_x + bnd_y, int_p + int_q


def _b_weighted_sq_2d(U, b, mesh2d):
    rule = gauss_rule(assembly_quad_order(U.degree))
    V, _ = legendre_table(U.degree, rule.points)
    h = 0.5 * np.diff(mesh2d.axis.nodes)
    X = mesh2d.axis.quadrature_points(rule.points)
    bvals = np.asarray(b(X[:, None, :, None], X[None, :, None, :]), dtype=float)  # (N, N, nq, nq)
    Uv = np.einsum("ijmn,gm,hn->ijgh", U.coeffs, V, V, optimize=True)
    w2 = rule.weights[:, None] * rule.weights[None, :]
    scale = h[:, None] * h[None, :]
    return float(np.einsum("ij,gh,ijgh->", scale, w2, bvals * Uv**2, optimize=True))


def _discrete_norms_2d(T, problem, mesh2d):
    flux_sq = _l2_sq_modal_2d(T.P, mesh2d) + _l2_sq_modal_2d(T.Q, mesh2d)
    return _norm_parts(problem.eps, flux_sq, _b_weighted_sq_2d(T.U, problem.b, mesh2d),
                       *_jump_terms_2d(T, mesh2d))


def energy_norm_2d(T, problem, mesh2d):
    """2D energy norm; total^2 equals B(T; T)."""
    return _discrete_norms_2d(T, problem, mesh2d)[0]


def balanced_norm_2d(T, problem, mesh2d):
    return _discrete_norms_2d(T, problem, mesh2d)[1]


def error_norms_2d(T, problem, mesh2d, quad=None):
    """Energy- and balanced-norm errors of the discrete triple (U, P, Q);
    the volume integrals run over blocks of whole rows of cells (see
    ``cell_blocks``), so the exact solution is still sampled on a tensor
    grid."""
    if not problem.has_exact:
        raise ConfigurationError("error norms need exact solution handles")
    k = T.U.degree
    quad = error_quad_order(k) if quad is None else quad
    rule = gauss_rule(quad)
    V, _ = legendre_table(k, rule.points)
    N = mesh2d.N
    h = 0.5 * np.diff(mesh2d.axis.nodes)
    X = mesh2d.axis.quadrature_points(rule.points)
    X, Y = X[:, None, :, None], X[None, :, None, :]
    w2 = rule.weights[:, None] * rule.weights[None, :]

    def sq_error(exact, F, rows):
        coeffs = F.coeffs[rows]  # y modes first: one matmul over all cells and x modes
        diff = V @ (coeffs.reshape(-1, k + 1) @ V.T).reshape(coeffs.shape[:3] + (quad,))
        np.subtract(np.asarray(exact(X[rows], Y), dtype=float), diff, out=diff)
        return diff**2

    def integral(rows, Z):
        return np.einsum("ij,gh,ijgh->", h[rows, None] * h[None, :], w2, Z)

    u_sq = flux_sq = 0.0
    for rows in cell_blocks(N, N * quad**2):
        bvals = np.asarray(problem.b(X[rows], Y), dtype=float)
        u_sq += integral(rows, bvals * sq_error(problem.u_exact, T.U, rows))
        flux_sq += integral(rows, sq_error(problem.p_exact, T.P, rows)
                            + sq_error(problem.q_exact, T.Q, rows))
    return _norm_parts(problem.eps, float(flux_sq), float(u_sq), *_jump_terms_2d(T, mesh2d))


def rate_shishkin(e_N, e_2N, N):
    """Convergence order in the Shishkin metric N^{-1} ln N.

    r = (log e_N - log e_2N) / log(2 ln N / ln 2N); returns None when either
    error is nonpositive.
    """
    if N < 2:
        raise ConfigurationError(f"rate needs N >= 2, got {N}")
    if e_N <= 0.0 or e_2N <= 0.0:
        return None
    return float((np.log(e_N) - np.log(e_2N)) / np.log(2.0 * np.log(N) / np.log(2.0 * N)))


def _cell_mask(cells, shape):
    """The boolean cell mask ``cells`` of the given shape; None selects every
    cell."""
    if cells is None:
        return np.ones(shape, dtype=bool)
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
    ``_LINF_SAMPLES`` points per cell, both endpoints included.
    """
    mask = _cell_mask(cells, (mesh.N,))
    ts = np.linspace(-1.0, 1.0, _LINF_SAMPLES)
    Vt, _ = legendre_table(dgf.degree, ts)
    a, b = mesh.nodes[:-1][mask, None], mesh.nodes[1:][mask, None]
    xs = a + (b - a) * (ts + 1.0) / 2.0
    diff = np.asarray(exact(xs), dtype=float) - dgf.coeffs[mask] @ Vt.T
    return float(np.max(np.abs(diff), initial=0.0))


def l2_error_region_1d(dgf, exact, mesh, cells=None, quad=None):
    """L2 error of a DG function against ``exact`` over the cells of the
    (N,) boolean mask ``cells`` (every cell when None)."""
    k = dgf.degree
    quad = error_quad_order(k) if quad is None else quad
    rule = gauss_rule(quad)
    V, _ = legendre_table(k, rule.points)
    mask = _cell_mask(cells, (mesh.N,))
    halfh = 0.5 * np.diff(mesh.nodes)[mask]
    X = mesh.quadrature_points(rule.points)[mask]
    diff = np.asarray(exact(X), dtype=float) - dgf.coeffs[mask] @ V.T
    return float(np.sqrt(np.sum(halfh[:, None] * rule.weights * diff**2)))


def l2_error_region_2d(dgf, exact, mesh2d, cells=None, quad=None):
    """L2 error over the cells (i, j) of the (N, N) boolean mask ``cells``
    (every cell when None)."""
    k = dgf.degree
    quad = error_quad_order(k) if quad is None else quad
    rule = gauss_rule(quad)
    V, _ = legendre_table(k, rule.points)
    N = mesh2d.N
    ii, jj = np.nonzero(_cell_mask(cells, (N, N)))
    points = mesh2d.axis.quadrature_points(rule.points)
    X, Y = points[ii][:, :, None], points[jj][:, None, :]
    widths = np.diff(mesh2d.axis.nodes)
    area = 0.25 * widths[ii] * widths[jj]
    w2 = rule.weights[:, None] * rule.weights[None, :]
    total = 0.0
    for s in cell_blocks(ii.size, quad**2):
        ex = np.asarray(exact(X[s], Y[s]), dtype=float)
        diff = V @ dgf.coeffs[ii[s], jj[s]] @ V.T
        np.subtract(ex, diff, out=diff)
        total += np.einsum("s,gh,sgh,sgh->", area[s], w2, diff, diff)
    return float(np.sqrt(total))
