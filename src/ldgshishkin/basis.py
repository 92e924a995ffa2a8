"""Legendre basis and Gauss-Legendre quadrature.

Everything here lives on the reference interval [-1, 1].  The per-cell
polynomial spaces used by the DG discretization are spanned by the
(unnormalized) Legendre polynomials P_0 .. P_k, so that local mass matrices
are diagonal with entries (h/2) * 2/(2n+1).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError

_MAX_QUADRATURE_POINTS = 64


def legendre_eval(n, x):
    """Evaluate P_n(x) and P_n'(x) by the three-term recurrence.

    Works for scalar or ndarray ``x``.  The derivative is accumulated with
    the recurrence P_n' = P_{n-2}' + (2n-1) P_{n-1}, which stays finite at
    the endpoints (unlike the (1-x^2) form).

    Args:
        n: Polynomial degree, >= 0.
        x: Evaluation point(s) in [-1, 1].

    Returns:
        Tuple ``(value, derivative)`` with the shape of ``x``.
    """
    if n < 0:
        raise ConfigurationError(f"Legendre degree must be >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    d_prev = np.zeros_like(x)
    if n == 0:
        return p_prev, d_prev
    p_cur = x.copy()
    d_cur = np.ones_like(x)
    for m in range(2, n + 1):
        p_next = ((2 * m - 1) * x * p_cur - (m - 1) * p_prev) / m
        d_next = d_prev + (2 * m - 1) * p_cur
        p_prev, p_cur = p_cur, p_next
        d_prev, d_cur = d_cur, d_next
    return p_cur, d_cur


def legendre_table(k, x):
    """Tabulate P_0..P_k and derivatives at the points ``x``.

    Returns:
        Arrays ``(V, D)`` of shape ``(len(x), k+1)`` with V[p, n] = P_n(x_p).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    V = np.empty((x.size, k + 1))
    D = np.empty((x.size, k + 1))
    V[:, 0] = 1.0
    D[:, 0] = 0.0
    if k >= 1:
        V[:, 1] = x
        D[:, 1] = 1.0
    for m in range(2, k + 1):
        V[:, m] = ((2 * m - 1) * x * V[:, m - 1] - (m - 1) * V[:, m - 2]) / m
        D[:, m] = D[:, m - 2] + (2 * m - 1) * V[:, m - 1]
    return V, D


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre rule on [-1, 1].

    Invariants: points strictly increasing and symmetric about 0, weights
    positive and summing to 2.
    """

    points: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def gauss_rule(n):
    """n-point Gauss-Legendre rule, exact for polynomials of degree <= 2n-1.

    Nodes are the roots of P_n, found by Newton iteration from Chebyshev
    initial guesses (tolerance 1e-15); weights are 2 / ((1-x^2) P_n'(x)^2).
    The rule is mirrored about 0 so symmetry holds to the last bit.
    """
    if not 1 <= n <= _MAX_QUADRATURE_POINTS:
        raise ConfigurationError(
            f"Gauss rule size must be in [1, {_MAX_QUADRATURE_POINTS}], got {n}"
        )
    points = np.zeros(n)
    weights = np.zeros(n)
    for j in range(n // 2):
        x = -np.cos(np.pi * (j + 0.75) / (n + 0.5))
        for _ in range(100):
            p, dp = legendre_eval(n, x)
            dx = p / dp
            x -= dx
            if abs(dx) < 1e-15:
                break
        _, dp = legendre_eval(n, x)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        points[j], weights[j] = x, w
        points[n - 1 - j], weights[n - 1 - j] = -x, w
    if n % 2 == 1:
        _, dp = legendre_eval(n, 0.0)
        points[n // 2] = 0.0
        weights[n // 2] = 2.0 / float(dp * dp)
    # rules are cached and shared; freeze the arrays against mutation
    points.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(points=points, weights=weights)


@dataclass(frozen=True)
class ReferenceBasis:
    """Modal Legendre basis P_0..P_k on [-1, 1].

    ``mass_diag`` are the reference-mass entries 2/(2n+1); the left/right
    endpoint value vectors are (-1)^n and 1, used for one-sided traces.
    """

    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise ConfigurationError(f"basis degree must be >= 1, got {self.degree}")

    @property
    def mass_diag(self):
        n = np.arange(self.degree + 1)
        return 2.0 / (2.0 * n + 1.0)

    @property
    def left_values(self):
        """P_n(-1) = (-1)^n."""
        n = np.arange(self.degree + 1)
        return (-1.0) ** n

    @property
    def right_values(self):
        """P_n(+1) = 1."""
        return np.ones(self.degree + 1)

    def stiffness(self):
        """Matrix G with G[m, a] = integral over [-1,1] of P_a * P_m'.

        Exact (2 when a < m with a+m odd, else 0); evaluated in closed form.
        """
        m, a = np.indices((self.degree + 1, self.degree + 1))
        return np.where((a < m) & ((m + a) % 2 == 1), 2.0, 0.0)


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
