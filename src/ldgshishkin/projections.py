"""Cell-local polynomial projections and their composite region-wise forms.

Three local operators are provided on each cell:

* plain L2 projection (diagonal in the modal basis),
* weighted L2 projection with a positive weight b (small Gram solve),
* Gauss-Radau projections: k moment conditions against degree k-1 plus an
  endpoint interpolation condition; the "minus" variant matches the right
  endpoint value, the "plus" variant the left one.

The L2 and Radau projections share one form: a (k+1) x (k+2) operator R
maps the data [moments m_0..m_k; matched endpoint value] of a cell to its
modes.  Every projection is batched over cells: the target is sampled on
the quadrature grid of all cells and at the matched endpoints, and one
contraction gives the moments.  In 2D a cell's data is a (k+2) x (k+2)
block D (moments, matched-edge moments, corner value) and its modes are
Rx D Ry^T (sum factorization).  Weighted cells share one batched Gram
solve.  The per-cell functions are one-cell calls of the same kernels.

The composite operators dispatch per mesh region: the one tailored to the
primal variable uses the Radau-minus projection on the two fine (layer)
regions and the weighted projection on the coarse interior; the one for
the flux variable uses plain L2 on the first cell and Radau-plus elsewhere.
2D versions act tensorially, one direction at a time.
"""

from functools import lru_cache

import numpy as np

from .basis import assembly_quad_order, cell_blocks, gauss_rule, legendre_table
from .dgfunction import DGFunction1D, DGFunction2D
from .errors import ConfigurationError, MeshError, ProjectionError
from .mesh import quadrature_points

L2 = "l2"
WEIGHTED = "weighted"
GR_MINUS = "gr_minus"
GR_PLUS = "gr_plus"


@lru_cache(maxsize=None)
def _operator(kind, k):
    """(k+1) x (k+2) map from [moments m_0..m_k; endpoint value] to modes.

    L2 (and WEIGHTED, whose unit-weight case it is) is c_n = (2n+1)/2 m_n.
    The Radau kinds keep that for n < k and replace the last moment by the
    endpoint row sum_n P_n(+-1) c_n = value.
    """
    n = np.arange(k + 1)
    R = np.zeros((k + 1, k + 2))
    R[n, n] = (2.0 * n + 1.0) / 2.0
    if kind in (GR_MINUS, GR_PLUS):
        trace = np.ones(k + 1) if kind == GR_MINUS else (-1.0) ** n
        R[k, :k] = -trace[:k] * R[n[:k], n[:k]] / trace[k]
        R[k, k] = 0.0
        R[k, k + 1] = 1.0 / trace[k]
    elif kind not in (L2, WEIGHTED):
        raise ConfigurationError(f"unknown projection kind {kind!r}")
    R.setflags(write=False)
    return R


def _operators(kinds, k):
    """Per-cell operator stack of shape kinds.shape + (k+1, k+2)."""
    R = np.empty(kinds.shape + (k + 1, k + 2))
    for kind in np.unique(kinds):
        R[kinds == kind] = _operator(str(kind), k)
    return R


def _sample(f, *coords):
    """f at the broadcast points, as a float array of their full shape."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
    return np.broadcast_to(np.asarray(f(*coords), dtype=float), shape)


def _solve_gram(gram, rhs):
    """Batched weighted Gram solve; singular or non-finite systems raise."""
    try:
        sol = np.linalg.solve(gram, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise ProjectionError(
            f"weighted Gram system singular on at least one of {len(gram)} cells"
        ) from exc
    if not np.all(np.isfinite(sol)):
        raise ProjectionError("weighted projection produced non-finite values")
    return sol


def _project_1d(w, nodes, kinds, k, quad=None, b=None, ends=None):
    """Project w on every cell [nodes[i], nodes[i+1]] by its kind kinds[i].

    Radau cells match w at their right ('gr_minus') or left ('gr_plus')
    node, or the values ``ends`` when given.  'weighted' cells solve their
    b-weighted Gram systems (plain L2 when b is None).  Returns the
    (cells, k+1) modal coefficients.
    """
    quad = assembly_quad_order(k) if quad is None else quad
    rule = gauss_rule(quad)
    V, _ = legendre_table(k, rule.points)
    X = quadrature_points(nodes, rule.points)
    W = _sample(w, X)
    if ends is None:
        ends = _sample(w, np.where(kinds == GR_PLUS, nodes[:-1], nodes[1:]))
    data = np.concatenate([W @ (V * rule.weights[:, None]), ends[:, None]], axis=1)
    coeffs = np.einsum("iam,im->ia", _operators(kinds, k), data)
    weighted = kinds == WEIGHTED
    if b is not None and weighted.any():
        B = _sample(b, X[weighted]) * rule.weights
        gram = np.einsum("sq,qm,qa->sma", B, V, V)
        coeffs[weighted] = _solve_gram(gram, (B * W[weighted]) @ V)
    return coeffs


def _project_2d(z, xnodes, ynodes, kx, ky, k, quad=None, b=None):
    """Tensor projection of z on every cell of the grid xnodes x ynodes.

    kx, ky (shape (Nx, Ny)) give each cell's kind per axis; 'weighted' must
    fill both slots and solves the 2D Gram system with weight b (plain L2
    when b is None).  Returns c[i, j, x-mode, y-mode].  Runs in blocks of
    x rows (``cell_blocks``) so that the temporaries stay small.
    """
    if np.any((kx == WEIGHTED) != (ky == WEIGHTED)):
        raise ConfigurationError("the weighted 2D projection applies in both directions at once")
    quad = assembly_quad_order(k) if quad is None else quad
    return np.concatenate([
        _project_rows_2d(z, xnodes[s.start:s.stop + 1], ynodes, kx[s], ky[s], k, quad, b)
        for s in cell_blocks(len(kx), kx.shape[1] * quad**2)
    ])


def _project_rows_2d(z, xnodes, ynodes, kx, ky, k, quad, b):
    """``_project_2d`` on one block of x rows."""
    rule = gauss_rule(quad)
    V, _ = legendre_table(k, rule.points)
    Vw = V * rule.weights[:, None]
    X = quadrature_points(xnodes, rule.points)[:, None, :, None]
    Y = quadrature_points(ynodes, rule.points)[None, :, None, :]
    xe = np.where(kx == GR_PLUS, xnodes[:-1, None], xnodes[1:, None])
    ye = np.where(ky == GR_PLUS, ynodes[None, :-1], ynodes[None, 1:])
    Z = _sample(z, X, Y)
    D = np.empty(kx.shape + (k + 2, k + 2))
    D[..., :-1, :-1] = Vw.T @ Z @ Vw
    D[..., :-1, -1] = _sample(z, X[..., 0], ye[..., None]) @ Vw
    D[..., -1, :-1] = _sample(z, xe[..., None], Y[..., 0, :]) @ Vw
    D[..., -1, -1] = _sample(z, xe, ye)
    coeffs = _operators(kx, k) @ D @ np.swapaxes(_operators(ky, k), -1, -2)
    weighted = kx == WEIGHTED
    if b is not None and weighted.any():
        ii, jj = np.nonzero(weighted)
        WB = _sample(b, X[ii, 0], Y[0, jj]) * (rule.weights[:, None] * rule.weights)
        # Gram[(m, n), (a, c)] = sum_gh WB[g, h] P_m P_a(t_g) P_n P_c(s_h)
        VV = (V[:, :, None] * V[:, None, :]).reshape(quad, -1)
        gram = (VV.T @ WB @ VV).reshape((-1,) + (k + 1,) * 4).transpose(0, 1, 3, 2, 4)
        kk = (k + 1) ** 2
        sol = _solve_gram(gram.reshape(-1, kk, kk), (V.T @ (WB * Z[ii, jj]) @ V).reshape(-1, kk))
        coeffs[ii, jj] = sol.reshape(-1, k + 1, k + 1)
    return coeffs


def _cell_nodes(cell):
    a, b = cell
    if not a < b:
        raise MeshError(f"degenerate cell [{a}, {b}]")
    return np.array([a, b], dtype=float)


def project_l2(w, cell, k, quad=None):
    """L2 projection onto degree k on ``cell``; returns modal coefficients.

    Diagonal in the modal basis: c_n = (2n+1)/2 * integral(w P_n) dt.
    """
    return _project_1d(w, _cell_nodes(cell), np.array([L2]), k, quad)[0]


def project_weighted(w, b, cell, k, quad=None):
    """Weighted L2 projection: <b(pw - w), v> = 0 for all v of degree <= k.

    Solves the (k+1)x(k+1) weighted Gram system.  Raises ProjectionError
    when the weight makes the system singular.
    """
    return _project_1d(w, _cell_nodes(cell), np.array([WEIGHTED]), k, quad, b=b)[0]


def project_gr_minus(w, cell, k, quad=None, value_right=None):
    """Radau projection matching w at the right endpoint of ``cell``.

    ``value_right`` overrides the endpoint sample for functions given only
    through one-sided limits.
    """
    ends = None if value_right is None else np.array([float(value_right)])
    return _project_1d(w, _cell_nodes(cell), np.array([GR_MINUS]), k, quad, ends=ends)[0]


def project_gr_plus(w, cell, k, quad=None, value_left=None):
    """Radau projection matching w at the left endpoint of ``cell``."""
    ends = None if value_left is None else np.array([float(value_left)])
    return _project_1d(w, _cell_nodes(cell), np.array([GR_PLUS]), k, quad, ends=ends)[0]


def composite_project_minus_1d(u, mesh, k, quad=None, b=None):
    """Region-wise projection for the primal variable.

    Radau-minus on cells 1..N/4 and 3N/4+1..N (layer regions), weighted L2
    on the coarse cells N/4+1..3N/4.  ``b`` defaults to weight 1 (plain L2).
    """
    N = mesh.N
    i = np.arange(1, N + 1)
    kinds = np.where((i <= N // 4) | (i > 3 * N // 4), GR_MINUS, WEIGHTED)
    return DGFunction1D(mesh, k, _project_1d(u, mesh.nodes, kinds, k, quad, b=b))


def composite_project_plus_1d(q, mesh, k, quad=None):
    """Region-wise projection for the flux: plain L2 on cell 1, Radau-plus
    on cells 2..N."""
    kinds = np.where(np.arange(1, mesh.N + 1) == 1, L2, GR_PLUS)
    return DGFunction1D(mesh, k, _project_1d(q, mesh.nodes, kinds, k, quad))


def tensor_project_2d(kind_x, kind_y, z, cell2d, k, quad=None, b=None):
    """Tensor projection on one rectangular cell; returns (k+1)x(k+1) modes.

    kind_x, kind_y in {'l2', 'gr_minus', 'gr_plus'} act separably: moments
    against the full degree in the other direction plus edge-moment
    conditions on the matched edge.  The weighted projection ('weighted' in
    both slots) solves the full 2D Gram system with weight b(x, y).
    """
    kx, ky = np.array([[kind_x]]), np.array([[kind_y]])
    if WEIGHTED in (kind_x, kind_y) and b is None:
        raise ConfigurationError("weighted 2D projection needs the weight handle b")
    xnodes, ynodes = (_cell_nodes(c) for c in cell2d)
    return _project_2d(z, xnodes, ynodes, kx, ky, k, quad, b=b)[0, 0]


def composite_project_minus_2d(u, mesh2d, k, quad=None, b=None):
    """Region-wise 2D projection for the primal variable.

    Radau-minus in x on the left/right layer strips crossed with the coarse
    y band, Radau-minus in y on the mirrored strips, weighted L2 elsewhere
    (corners, the centre block and the i = N / j = N strips).
    """
    N = mesh2d.N
    i = np.arange(1, N + 1)
    strip = (i <= N // 4) | ((i > 3 * N // 4) & (i < N))
    band = (i > N // 4) & (i <= 3 * N // 4)
    x_radau = strip[:, None] & band[None, :]
    y_radau = band[:, None] & strip[None, :]
    kx = np.where(x_radau, GR_MINUS, np.where(y_radau, L2, WEIGHTED))
    ky = np.where(y_radau, GR_MINUS, np.where(x_radau, L2, WEIGHTED))
    nodes = mesh2d.axis.nodes
    coeffs = _project_2d(u, nodes, nodes, kx, ky, k, quad, b=b)
    return DGFunction2D(mesh2d, k, coeffs)


def composite_project_plus_x_2d(p, mesh2d, k, quad=None):
    """2D flux projection in x: plain L2 on column i = 1, Radau-plus in x
    elsewhere."""
    N = mesh2d.N
    kx = np.repeat(np.where(np.arange(1, N + 1) == 1, L2, GR_PLUS)[:, None], N, axis=1)
    nodes = mesh2d.axis.nodes
    coeffs = _project_2d(p, nodes, nodes, kx, np.full((N, N), L2), k, quad)
    return DGFunction2D(mesh2d, k, coeffs)
