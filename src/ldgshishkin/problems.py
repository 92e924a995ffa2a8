"""Reaction-diffusion test problems with exact solution handles.

1D problems solve  -eps u'' + b(x) u = f(x)  on (0,1) with u(0)=u(1)=0,
2D problems solve  -eps (u_xx + u_yy) + b(x,y) u = f(x,y)  on (0,1)^2 with
u = 0 on the boundary.  The auxiliary flux variables are q = eps u' in 1D
and (p, q) = (eps u_x, eps u_y) in 2D.

All handles are numpy-vectorized and pure: a call never writes into its
arguments and, besides arrays of an argument's shape, allocates only its
output and at most one scratch array.  Layer factors are evaluated through
the antisymmetric two-sided profile

    layer(s) = (exp(-s/sqrt(eps)) - exp(-(1-s)/sqrt(eps))) / (1 - exp(-1/sqrt(eps)))

which runs from +1 at s=0 to -1 at s=1 (both values exact in floating
point) and is annihilated by -eps v'' + v; its exponentials underflow
harmlessly to zero away from the boundary.
"""

from dataclasses import dataclass
from numbers import Real
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError


def _check_eps(eps):
    """The one rule on the perturbation parameter: a real number (not a bool)
    in (0, 1] (nan and inf fail)."""
    if isinstance(eps, bool) or not isinstance(eps, Real):
        raise ConfigurationError(f"eps must be a real number, got {eps!r}")
    if not 0.0 < eps <= 1.0:
        raise ConfigurationError(f"eps must lie in (0, 1], got {eps}")


@dataclass(frozen=True)
class Problem1D:
    """Coefficients and (optional) exact-solution handles of a 1D problem.

    ``beta`` is a constant with b(x) >= beta^2 > 0; it feeds the mesh
    transition-point formula.  ``q_exact`` is eps * u'.
    """

    eps: float
    b: Callable
    f: Callable
    beta: float
    u_exact: Optional[Callable] = None
    du_exact: Optional[Callable] = None
    name: str = ""

    def __post_init__(self):
        _check_eps(self.eps)
        xs = np.linspace(0.0, 1.0, 1001)
        bvals = np.asarray(self.b(xs), dtype=float)
        if not np.all(bvals >= self.beta**2 - 1e-12):
            raise ConfigurationError(
                f"b(x) drops below beta^2 = {self.beta ** 2} on [0, 1]"
            )
        if self.u_exact is not None:
            if abs(float(self.u_exact(0.0))) > 1e-12 or abs(float(self.u_exact(1.0))) > 1e-12:
                raise ConfigurationError("u_exact must vanish at x = 0 and x = 1")

    @property
    def has_exact(self):
        return self.u_exact is not None and self.du_exact is not None

    def q_exact(self, x):
        """Exact flux q = eps * u'."""
        return self.eps * self.du_exact(x)


@dataclass(frozen=True)
class Problem2D:
    """Coefficients and exact handles of a 2D problem; b(x,y) >= 2*beta^2."""

    eps: float
    b: Callable
    f: Callable
    beta: float
    u_exact: Optional[Callable] = None
    du_dx_exact: Optional[Callable] = None
    du_dy_exact: Optional[Callable] = None
    name: str = ""

    def __post_init__(self):
        _check_eps(self.eps)
        s = np.linspace(0.0, 1.0, 101)
        bvals = np.asarray(self.b(s[:, None], s[None, :]), dtype=float)
        if not np.all(bvals >= 2.0 * self.beta**2 - 1e-12):
            raise ConfigurationError(
                f"b(x,y) drops below 2*beta^2 = {2 * self.beta ** 2} on the unit square"
            )
        if self.u_exact is not None:
            for edge in (
                self.u_exact(np.zeros_like(s), s),
                self.u_exact(np.ones_like(s), s),
                self.u_exact(s, np.zeros_like(s)),
                self.u_exact(s, np.ones_like(s)),
            ):
                if np.max(np.abs(np.asarray(edge, dtype=float))) > 1e-12:
                    raise ConfigurationError("u_exact must vanish on the boundary")

    @property
    def has_exact(self):
        return (
            self.u_exact is not None
            and self.du_dx_exact is not None
            and self.du_dy_exact is not None
        )

    def p_exact(self, x, y):
        """Exact x-flux p = eps * u_x."""
        return self.eps * self.du_dx_exact(x, y)

    def q_exact(self, x, y):
        """Exact y-flux q = eps * u_y."""
        return self.eps * self.du_dy_exact(x, y)


def _layer_profile(eps):
    """The antisymmetric two-sided boundary-layer profile and g = layer - cos(pi .).

    Returns handles (ell, g, dg): ell'' = ell / eps, ell(0) = 1 and
    ell(1) = -1 exactly, so g vanishes at both ends; dg is g'.  Each
    finishes in place on ``layer``'s arrays, rounding as the closed forms do.
    Rejects eps outside (0, 1] before anything divides by it.
    """
    _check_eps(eps)
    r = 1.0 / np.sqrt(eps)
    denom = 1.0 - np.exp(-r)

    def layer(s, combine, scale):  # scale combine(exp(s (-r)), exp((s - 1) r)) / denom, scratch, s
        s = np.asarray(s, dtype=float)
        out = np.multiply(s, -r, out=np.empty(s.shape))
        tmp = np.subtract(s, 1.0, out=np.empty(s.shape))
        tmp *= r
        combine(np.exp(out, out=out), np.exp(tmp, out=tmp), out=out)
        out *= scale
        out /= denom
        return out, tmp, s

    def plus_trig(out, tmp, s, c, fn):  # out + c fn(pi s), in out; c = -1 subtracts
        fn(np.multiply(np.pi, s, out=tmp), out=tmp)
        tmp *= c
        out += tmp
        return out[()]

    def ell(s):
        return layer(s, np.subtract, 1.0)[0][()]

    def g(s):
        return plus_trig(*layer(s, np.subtract, 1.0), -1.0, np.cos)

    def dg(s):
        return plus_trig(*layer(s, np.add, -r), np.pi, np.sin)

    return ell, g, dg


def paper_1d_problem(eps):
    """Two-layer benchmark with b = 1 and a cosine smooth component.

    The exact solution is layer(x) - cos(pi x), which vanishes at both
    endpoints; the layer part is annihilated by -eps v'' + v, so
    f(x) = -(1 + eps pi^2) cos(pi x).
    """
    _, u, du = _layer_profile(eps)

    def b(x):
        return np.ones_like(np.asarray(x, dtype=float))

    def f(x):
        x = np.asarray(x, dtype=float)
        return -(1.0 + eps * np.pi**2) * np.cos(np.pi * x)

    return Problem1D(
        eps=eps, b=b, f=f, beta=1.0,
        u_exact=u, du_exact=du, name="paper1d",
    )


def polynomial_problem_1d(eps, k):
    """Scheme-exactness oracle: u = x(1-x), b = 1, f = 2 eps + x(1-x).

    Requires k >= 2 so that u and q = eps(1-2x) lie in the discrete space.
    """
    if k < 2:
        raise ConfigurationError(f"polynomial problem needs k >= 2, got k = {k}")

    def u(x):
        x = np.asarray(x, dtype=float)
        return x * (1.0 - x)

    def du(x):
        x = np.asarray(x, dtype=float)
        return 1.0 - 2.0 * x

    def b(x):
        return np.ones_like(np.asarray(x, dtype=float))

    def f(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * eps + x * (1.0 - x)

    return Problem1D(
        eps=eps, b=b, f=f, beta=1.0,
        u_exact=u, du_exact=du, name="poly1d",
    )


def manufactured_2d_problem(eps):
    """Product-layer benchmark u = g(x) g(y) with g(s) = layer(s) - cos(pi s).

    The product structure produces smooth, edge-layer and corner-layer
    components; b = 2 and f follows from -eps lap(u) + 2u in closed form:

        f = (1 + eps pi^2) * (2 cos(pi x) cos(pi y)
                              - layer(x) cos(pi y) - layer(y) cos(pi x)).
    """
    ell, g, dg = _layer_profile(eps)

    def u(x, y):
        return g(np.asarray(x, dtype=float)) * g(np.asarray(y, dtype=float))

    def du_dx(x, y):
        return dg(np.asarray(x, dtype=float)) * g(np.asarray(y, dtype=float))

    def du_dy(x, y):
        return g(np.asarray(x, dtype=float)) * dg(np.asarray(y, dtype=float))

    def b(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.full(np.broadcast_shapes(x.shape, y.shape), 2.0)

    def f(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        cx, cy = np.cos(np.pi * x), np.cos(np.pi * y)
        out, tmp = (np.empty(np.broadcast_shapes(x.shape, y.shape)) for _ in range(2))
        np.multiply(2.0 * cx, cy, out=out)
        out -= np.multiply(ell(x), cy, out=tmp)
        out -= np.multiply(ell(y), cx, out=tmp)
        out *= 1.0 + eps * np.pi**2
        return out[()]

    return Problem2D(
        eps=eps, b=b, f=f, beta=1.0,
        u_exact=u, du_dx_exact=du_dx, du_dy_exact=du_dy, name="manufactured2d",
    )


PROBLEMS_1D = {
    "paper1d": lambda eps, k: paper_1d_problem(eps),
    "poly1d": lambda eps, k: polynomial_problem_1d(eps, k),
}

PROBLEMS_2D = {
    "manufactured2d": lambda eps, k: manufactured_2d_problem(eps),
}


def problem_factory(key, dim):
    """The factory (eps, k) -> problem of a CLI problem key."""
    table = PROBLEMS_1D if dim == 1 else PROBLEMS_2D
    if key not in table:
        raise ConfigurationError(
            f"unknown {dim}D problem {key!r}; choose from {sorted(table)}"
        )
    return table[key]


def problem_by_key(key, dim, eps, k):
    """Build the problem of a CLI problem key."""
    return problem_factory(key, dim)(eps, k)
