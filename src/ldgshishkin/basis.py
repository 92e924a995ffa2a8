"""Legendre basis, Gauss-Legendre quadrature and the reference element.

Everything here lives on the reference interval [-1, 1].  The per-cell
polynomial spaces used by the DG discretization are spanned by the
(unnormalized) Legendre polynomials P_0 .. P_k, so that local mass matrices
are diagonal with entries (h/2) * 2/(2n+1).  ``gauss_rule`` wraps numpy's
``leggauss``, ``legendre_table`` holds the one three-term recurrence (values
only), and ``reference_blocks_1d`` the one cached reference element of degree
k: the endpoint values P_n(+-1), the mass diagonal, the stiffness and the
assembly rule's table, which the scheme, the DG functions, the norms and the
projections all read.
"""

from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError

_MAX_QUADRATURE_POINTS = 64


def legendre_table(k, x):
    """P_0..P_k at the points ``x`` by the three-term recurrence: the array V of
    shape ``(len(x), k+1)`` with V[p, n] = P_n(x_p)."""
    if k < 0:
        raise ConfigurationError(f"Legendre degree must be >= 0, got {k}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    V = np.empty((x.size, k + 1))
    V[:, 0] = 1.0
    if k >= 1:
        V[:, 1] = x
    for m in range(2, k + 1):
        V[:, m] = ((2 * m - 1) * x * V[:, m - 1] - (m - 1) * V[:, m - 2]) / m
    return V


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre rule on [-1, 1].

    Invariants: points strictly increasing and symmetric about 0, weights
    positive and summing to 2.
    """

    points: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None, typed=True)  # typed: a cached gauss_rule(4) must not answer 4.0
def gauss_rule(n):
    """n-point Gauss-Legendre rule, exact for polynomials of degree <= 2n-1,
    from ``numpy.polynomial.legendre.leggauss`` (symmetric to the last bit,
    weights normalized to sum 2)."""
    if isinstance(n, bool) or not isinstance(n, Integral) or not 1 <= n <= _MAX_QUADRATURE_POINTS:
        raise ConfigurationError(
            f"Gauss rule size must be an integer in [1, {_MAX_QUADRATURE_POINTS}], got {n!r}"
        )
    from numpy.polynomial.legendre import leggauss  # deferred: import ldgshishkin stays lean

    points, weights = leggauss(n)
    # rules are cached and shared; freeze the arrays against mutation
    points.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(points=points, weights=weights)


class ReferenceBlocks1D(NamedTuple):
    """The degree-k reference element of the 1D scheme, shared by all meshes.

    ``ones`` and ``alt`` are the right and left endpoint values P_n(1) = 1
    and P_n(-1) = (-1)^n of the modes, ``mass`` the reference mass diagonal
    2/(2n+1), G the stiffness G[m, a] = integral of P_a P_m' (2 when a < m
    with a+m odd, else 0) and R = G - 1 1^T, the diagonal block of the
    scheme's derivative D (``ldg1d.OperatorPieces1D``) on every cell but the last.  ``points``, ``weights`` and ``V`` are the
    assembly rule and its Legendre table, and ``VV[g]`` the flattened outer
    product V[g] V[g]^T.  The rest are the k-only products of the U-system
    blocks (``ldg1d.piece_blocks_1d``), with Minv = diag(1/mass): ``E_last``
    = 1 1^T and ``E_first`` = alt alt^T, ``RMR`` = R^T Minv R, ``GMG`` =
    G^T Minv G, ``RMalt`` = R^T Minv alt, ``GMalt`` = G^T Minv alt and
    ``minv_sum`` = sum(1/mass) (a 0-d array).
    """

    ones: np.ndarray
    alt: np.ndarray
    mass: np.ndarray
    G: np.ndarray
    R: np.ndarray
    points: np.ndarray
    weights: np.ndarray
    V: np.ndarray
    VV: np.ndarray
    E_last: np.ndarray
    E_first: np.ndarray
    RMR: np.ndarray
    GMG: np.ndarray
    RMalt: np.ndarray
    GMalt: np.ndarray
    minv_sum: np.ndarray

    def derivative(self, U):
        """D U along the last two axes (cell, mode) of U."""
        DU, sums = U @ self.R.T, U @ self.ones
        DU[..., 1:, :] += sums[..., :-1, None] * self.alt
        DU[..., -1, :] += sums[..., -1, None]
        return DU

    def derivative_t(self, Q):
        """D^T Q along the last two axes (cell, mode) of Q."""
        DtQ = Q @ self.R
        DtQ[..., :-1, :] += (Q[..., 1:, :] @ self.alt)[..., None]
        DtQ[..., -1, :] += (Q[..., -1, :] @ self.ones)[..., None]
        return DtQ


@lru_cache(maxsize=None, typed=True)  # typed, as gauss_rule: quad 4.0 must still be rejected
def _rule_table(k, quad):
    """The quad-point Gauss rule and its degree-k Legendre table, built once, read-only."""
    rule = gauss_rule(quad)
    V = legendre_table(k, rule.points)
    V.setflags(write=False)
    return rule, V


@lru_cache(maxsize=None)
def reference_blocks_1d(k):
    """The ``ReferenceBlocks1D`` of degree k >= 0, built once; its arrays are read-only."""
    n = np.arange(k + 1)
    m, a = np.indices((k + 1, k + 1))
    G = np.where((a < m) & ((m + a) % 2 == 1), 2.0, 0.0)
    R, ones, alt, mass = G - 1.0, np.ones(k + 1), (-1.0) ** n, 2.0 / (2.0 * n + 1.0)
    (rule, V), minv = _rule_table(k, assembly_quad_order(k)), 1.0 / mass
    blocks = ReferenceBlocks1D(
        ones=ones, alt=alt, mass=mass, G=G, R=R,
        points=rule.points, weights=rule.weights, V=V,
        VV=(V[:, :, None] * V[:, None, :]).reshape(V.shape[0], -1),
        E_last=np.outer(ones, ones), E_first=np.outer(alt, alt),
        RMR=R.T @ (minv[:, None] * R), GMG=G.T @ (minv[:, None] * G),
        RMalt=R.T @ (minv * alt), GMalt=G.T @ (minv * alt), minv_sum=np.array(minv.sum()))
    for array in blocks:
        array.setflags(write=False)
    return blocks


# 1 << 14 points (128 KiB a float64 temporary) per strip of the 2D norms and projections and of
# the 1D sup-norm; 1 << 13 costs the 2D error norms twice the blocks, 1 << 15 raises peak RSS.
BLOCK_POINTS = 1 << 14


def cell_blocks(n_cells, points_per_cell):
    """Slices splitting n_cells cells into blocks of at most BLOCK_POINTS
    quadrature points (at least one cell each); batched kernels run block
    by block so that their temporaries stay small whatever the mesh size."""
    step = max(1, BLOCK_POINTS // points_per_cell)
    return [slice(i, i + step) for i in range(0, n_cells, step)]


def grid_product(A, X):
    """(I (x) A) X (I_N (x) A)^T by two reshaped products.  A = V, the
    Legendre table of a rule, takes kron-order coefficients, rows (i, m),
    columns (j, n), to the tensor quadrature grid, rows (i, g), columns
    (j, h) (2D solve and norms); A = (diag(w) V)^T takes grid samples to
    moments (2D projections).  X may be any strip of whole cell rows i."""
    (p, n), rows = A.shape, X.shape[0] // A.shape[1]
    return ((A @ X.reshape(rows, n, -1)).reshape(-1, n) @ A.T).reshape(rows * p, -1)


def assembly_quad_order(k):
    """Default quadrature size for assembly integrals (smooth b and f)."""
    return k + 3


def error_quad_order(k):
    """Default quadrature size for error integrals against layer solutions."""
    return 2 * (k + 2)
