"""Cell-local polynomial projections and their composite region-wise forms.

Per cell: plain L2 projection (diagonal in the modal basis), weighted L2
projection with a positive weight b (small Gram solve), and Gauss-Radau
projections (k moment conditions against degree k-1 plus an endpoint
condition: "minus" matches the right endpoint value, "plus" the left one).

The L2 and Radau projections share one form: a (k+1) x (k+2) operator R,
diag((2n+1)/2) on its first k rows, maps the data [moments m_0..m_k;
matched endpoint value] of a cell to its modes.  The kinds L2, WEIGHTED,
GR_MINUS and GR_PLUS are integer codes into one cached table of R.  Every
projection is batched over cells, with one batched Gram solve for the
weighted ones; ``cell_project_1d`` and ``tensor_project_2d`` are its
one-cell calls, which take the kind codes.  In 2D a cell's data is a
(k+2) x (k+2) block D (moments, matched-edge moments, corner value) and
its modes are Rx D Ry^T, computed on strips of whole cell rows of the
kron-order tensor grid that the 2D solve and norms share.

The composite operators dispatch per mesh region (``Mesh1D.layer``): the
primal one uses Radau-minus on the two fine (layer) regions and the
weighted projection on the coarse interior, the flux one plain L2 on the
first cell and Radau-plus elsewhere; the 2D ones act tensorially.
"""

from functools import lru_cache
from numbers import Integral

import numpy as np

from .basis import (assembly_quad_order, cell_blocks, gauss_rule, grid_product, legendre_table,
                    reference_blocks_1d)
from .dgfunction import DGFunction1D, DGFunction2D
from .errors import ConfigurationError, MeshError, ProjectionError
from .mesh import quadrature_points

L2, WEIGHTED, GR_MINUS, GR_PLUS = KINDS = range(4)


@lru_cache(maxsize=None)
def _operators(k):
    """(4, k+1, k+2) table: per kind, the map from [moments m_0..m_k;
    endpoint value] to modes.  L2 (and WEIGHTED, whose unit-weight case it
    is) is c_n = (2n+1)/2 m_n; the Radau kinds replace its last row by the
    endpoint row sum_n P_n(+-1) c_n = value.
    """
    n, ref = np.arange(k + 1), reference_blocks_1d(k)
    R = np.zeros((len(KINDS), k + 1, k + 2))
    R[:, n, n] = (2.0 * n + 1.0) / 2.0
    for kind, trace in ((GR_MINUS, ref.ones), (GR_PLUS, ref.alt)):
        R[kind, k, :k] = -trace[:k] * R[kind, n[:k], n[:k]] / trace[k]
        R[kind, k, k] = 0.0
        R[kind, k, k + 1] = 1.0 / trace[k]
    R.setflags(write=False)
    return R


@lru_cache(maxsize=None)
def _tables(k, quad):
    """The quad-point rule, its Legendre table V, Vw = diag(w) V and, for
    weighted 2D cells, VV = Vw (x) Vw and C4[(g, h), (m, n), (a, c)] =
    VV[(g, h), (m, n)] P_a(t_g) P_c(t_h): b z @ VV and b @ C4 on a cell's
    points (g, h) give its Gram right-hand side and matrix."""
    rule = gauss_rule(quad)
    if quad < k + 1:  # fewer points do not integrate the degree-2k mode products
        raise ConfigurationError(
            f"degree-{k} projections need >= {k + 1} quadrature points, got {quad}")
    V, _ = legendre_table(k, rule.points)
    Vw = V * rule.weights[:, None]
    VV = np.kron(Vw, Vw)
    tables = V, Vw, VV, VV[:, :, None] * np.kron(V, V)[:, None, :]
    for table in tables:
        table.setflags(write=False)
    return (rule,) + tables


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
    if not np.isfinite(sol).all():
        raise ProjectionError("weighted projection produced non-finite values")
    return sol


def _project_1d(w, nodes, kinds, k, quad=None, b=None):
    """Project w on every cell [nodes[i], nodes[i+1]] by its kind kinds[i].

    Radau cells match w at their right (GR_MINUS) or left (GR_PLUS) node.
    WEIGHTED cells solve their
    b-weighted Gram systems (plain L2 when b is None).  Returns the
    (cells, k+1) modal coefficients.
    """
    quad = assembly_quad_order(k) if quad is None else quad
    rule, V, Vw, _, _ = _tables(k, quad)
    X = quadrature_points(nodes, rule.points)
    W = _sample(w, X)
    ends = _sample(w, np.where(kinds == GR_PLUS, nodes[:-1], nodes[1:]))
    data = np.concatenate([W @ Vw, ends[:, None]], axis=1)
    coeffs = np.einsum("iam,im->ia", _operators(k)[kinds], data)
    weighted = kinds == WEIGHTED
    if b is not None and weighted.any():
        B = _sample(b, X[weighted]) * rule.weights
        gram = np.einsum("sq,qm,qa->sma", B, V, V)
        coeffs[weighted] = _solve_gram(gram, (B * W[weighted]) @ V)
    return coeffs


def _project_2d(z, xnodes, ynodes, kx, ky, k, quad=None, b=None):
    """Tensor projection of z on every cell of the grid xnodes x ynodes.

    kx, ky (shape (Nx, Ny)) give each cell's kind per axis; WEIGHTED must
    fill both slots and solves the 2D Gram system with weight b (plain L2
    when b is None).  Returns c[i, x-mode, j, y-mode].  Per strip of cell
    rows z is sampled once, at (x[:, None], y[None, :]) with x and y the
    quadrature points then the nodes; each cell reads its edge moments and
    corner at its matched node (left/bottom for GR_PLUS, else right/top).
    """
    if np.any((kx == WEIGHTED) != (ky == WEIGHTED)):
        raise ConfigurationError("the weighted 2D projection applies in both directions at once")
    quad = assembly_quad_order(k) if quad is None else quad
    rule, _, Vw, VV, C4 = _tables(k, quad)
    (Nx, Ny), n, nq = kx.shape, k + 1, ky.shape[1] * quad
    xq = quadrature_points(xnodes, rule.points)
    yq = quadrature_points(ynodes, rule.points).reshape(1, -1)
    y = np.concatenate([yq[0], ynodes])[None, :]
    scale, last = _operators(k)[L2].diagonal(), _operators(k)[:, k].T
    coeffs = np.empty((Nx, n, Ny, n))
    for s in cell_blocks(Nx, (quad + 1) * y.size):
        x = xq[s].reshape(-1, 1)
        r, rq, px, py = len(xq[s]), len(x), kx[s] == GR_PLUS, ky[s] == GR_PLUS
        F = _sample(z, np.concatenate([x[:, 0], xnodes[s.start:s.stop + 1]])[:, None], y)
        D = np.empty((n + 1, n + 1, r, Ny))  # [moments, matched edge; edge, corner]
        D[:n, :n] = grid_product(Vw.T, F[:rq, :nq]).reshape(r, n, Ny, n).transpose(1, 3, 0, 2)
        ey = (Vw.T @ F[:rq, nq:].reshape(r, quad, -1)).transpose(1, 0, 2)
        D[:n, n] = np.where(py, ey[..., :-1], ey[..., 1:])
        ex = (F[rq:, :nq].reshape(r + 1, Ny, quad) @ Vw).transpose(2, 0, 1)
        D[n, :n] = np.where(px, ex[:, :-1], ex[:, 1:])
        D[n, n] = F[rq:, nq:][np.arange(r)[:, None] + ~px, np.arange(Ny) + ~py]
        E = D[:n] * scale[:, None, None, None]  # Rx D: diag(scale) but for the last row
        E[k] = (last[:, kx[s]][:, None] * D).sum(axis=0)
        C = E[:, :n] * scale[:, None, None]  # then (Rx D) Ry^T alike
        C[:, k] = (E * last[:, ky[s]]).sum(axis=1)
        coeffs[s] = C.transpose(2, 0, 3, 1)
        ii, jj = np.nonzero((kx[s] == WEIGHTED) & (b is not None))
        if len(ii):
            B, Zc = (G.reshape(r, quad, Ny, quad)[ii, :, jj].reshape(len(ii), -1)
                     for G in (_sample(b, x, yq), F[:rq, :nq]))  # q x q blocks, (g, h)
            coeffs[s][ii, :, jj] = _solve_gram(np.tensordot(B, C4, 1),
                                               (B * Zc) @ VV).reshape(-1, n, n)
        del F, D, E, C, ey, ex  # before the next strip's sample
    return coeffs


def _cell_nodes(cell):
    a, b = cell
    if not a < b:
        raise MeshError(f"degenerate cell [{a}, {b}]")
    return np.array([a, b], dtype=float)


def _check_kinds(kinds, b):
    """Reject a kind that is not an integer code in KINDS (1.0 and True
    would index the operator table wrongly), and WEIGHTED without the
    weight handle b."""
    if not all(isinstance(kind, Integral) and not isinstance(kind, bool) and kind in KINDS
               for kind in kinds):
        raise ConfigurationError(f"unknown projection kind in {kinds!r}")
    if WEIGHTED in kinds and b is None:
        raise ConfigurationError("the weighted projection needs the weight handle b")


def cell_project_1d(kind, w, cell, k, quad=None, b=None):
    """Projection of kind ``kind`` onto degree k on ``cell``; returns modal
    coefficients.

    L2 is diagonal in the modal basis: c_n = (2n+1)/2 * integral(w P_n) dt.
    WEIGHTED solves <b(pw - w), v> = 0 for all v of degree <= k, a
    (k+1)x(k+1) Gram system; ProjectionError when b makes it singular.
    GR_MINUS and GR_PLUS are the Radau projections matching w at the right
    and at the left endpoint of ``cell``.
    """
    _check_kinds((kind,), b)
    return _project_1d(w, _cell_nodes(cell), np.array([kind]), k, quad, b=b)[0]


def composite_project_minus_1d(u, mesh, k, quad=None, b=None):
    """Region-wise projection for the primal variable.

    Radau-minus on cells 1..N/4 and 3N/4+1..N (layer regions), weighted L2
    on the coarse cells N/4+1..3N/4.  ``b`` defaults to weight 1 (plain L2).
    """
    kinds = np.where(mesh.layer, GR_MINUS, WEIGHTED)
    return DGFunction1D(mesh, k, _project_1d(u, mesh.nodes, kinds, k, quad, b=b))


def composite_project_plus_1d(q, mesh, k, quad=None):
    """Region-wise projection for the flux: plain L2 on cell 1, Radau-plus
    on cells 2..N."""
    kinds = np.where(np.arange(1, mesh.N + 1) == 1, L2, GR_PLUS)
    return DGFunction1D(mesh, k, _project_1d(q, mesh.nodes, kinds, k, quad))


def tensor_project_2d(kind_x, kind_y, z, cell2d, k, quad=None, b=None):
    """Tensor projection on one rectangular cell; returns (k+1)x(k+1) modes.

    kind_x, kind_y in {L2, GR_MINUS, GR_PLUS} (the module's kind codes)
    act separably: moments against the full degree in the other direction
    plus edge-moment conditions on the matched edge.  The weighted
    projection (WEIGHTED in both slots) solves the full 2D Gram system with
    weight b(x, y).
    """
    _check_kinds((kind_x, kind_y), b)
    kx, ky = np.array([[kind_x]]), np.array([[kind_y]])
    xnodes, ynodes = (_cell_nodes(c) for c in cell2d)
    return _project_2d(z, xnodes, ynodes, kx, ky, k, quad, b=b)[0, :, 0]


def composite_project_minus_2d(u, mesh2d, k, quad=None, b=None):
    """Region-wise 2D projection for the primal variable.

    Radau-minus in x on the left/right layer strips crossed with the coarse
    y band, Radau-minus in y on the mirrored strips, weighted L2 elsewhere
    (corners, the centre block and the i = N / j = N strips).
    """
    layer = mesh2d.axis.layer
    strip = np.append(layer[:-1], False)
    x_radau = strip[:, None] & ~layer[None, :]
    y_radau = ~layer[:, None] & strip[None, :]
    kx = np.where(x_radau, GR_MINUS, np.where(y_radau, L2, WEIGHTED))
    ky = np.where(y_radau, GR_MINUS, np.where(x_radau, L2, WEIGHTED))
    nodes = mesh2d.axis.nodes
    return DGFunction2D(mesh2d, k, _project_2d(u, nodes, nodes, kx, ky, k, quad, b=b))


def composite_project_plus_x_2d(p, mesh2d, k, quad=None):
    """2D flux projection in x: plain L2 on column i = 1, Radau-plus in x
    elsewhere."""
    N, nodes = mesh2d.N, mesh2d.axis.nodes
    kx = np.repeat(np.where(np.arange(1, N + 1) == 1, L2, GR_PLUS)[:, None], N, axis=1)
    return DGFunction2D(mesh2d, k, _project_2d(p, nodes, nodes, kx, np.full((N, N), L2), k, quad))
