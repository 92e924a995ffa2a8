import numpy as np
import pytest

from ldgshishkin import (
    ConfigurationError,
    manufactured_2d_problem,
    paper_1d_problem,
    polynomial_problem_1d,
    problem_by_key,
)
from ldgshishkin.problems import Problem1D, Problem2D, _layer_profile
from reference import traced_peak


class TestPaperProblem:
    @pytest.mark.parametrize("eps", [1.0, 1e-4, 1e-8, 1e-12])
    def test_boundary_values_vanish(self, eps):
        p = paper_1d_problem(eps)
        assert abs(p.u_exact(0.0)) <= 1e-13
        assert abs(p.u_exact(1.0)) <= 1e-13

    def test_midpoint_value_tiny(self):
        # layers cancel at the centre; cos(pi/2) contributes only roundoff
        p = paper_1d_problem(1e-4)
        assert abs(p.u_exact(0.5)) < 1e-12

    @pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-10])
    def test_manufactured_residual(self, eps):
        p, d2u = paper_1d_problem(eps), closed_forms(eps)[3]
        xs = np.linspace(0.0, 1.0, 101)
        res = -eps * d2u(xs) + p.b(xs) * p.u_exact(xs) - p.f(xs)
        assert np.max(np.abs(res)) < 1e-10

    def test_residual_at_random_interior_points(self):
        rng = np.random.default_rng(12345)
        for eps in (1e-4, 1e-8):
            p, d2u = paper_1d_problem(eps), closed_forms(eps)[3]
            xs = rng.uniform(0.0, 1.0, 1001)
            res = -eps * d2u(xs) + p.b(xs) * p.u_exact(xs) - p.f(xs)
            scale = np.max(np.abs(p.f(xs)))
            assert np.max(np.abs(res)) < 1e-9 * scale

    def test_flux_handle_matches_finite_differences(self):
        # away from the layers the derivative handle is benign
        p = paper_1d_problem(1e-4)
        xs = np.linspace(0.3, 0.7, 11)
        h = 1e-6
        fd = (p.u_exact(xs + h) - p.u_exact(xs - h)) / (2 * h)
        q_fd = p.eps * fd
        assert np.max(np.abs(q_fd - p.q_exact(xs))) < 1e-5 * np.max(np.abs(p.q_exact(xs)))

    def test_eps_validation(self):
        for eps in (0.0, -1.0, 2.0):
            with pytest.raises(ConfigurationError):
                paper_1d_problem(eps)


class TestPolynomialProblem:
    def test_values(self):
        eps = 1e-3
        p = polynomial_problem_1d(eps, 2)
        assert p.u_exact(0.0) == 0.0 and p.u_exact(1.0) == 0.0
        assert p.q_exact(0.5) == 0.0
        assert p.f(0.0) == pytest.approx(2 * eps, rel=1e-15)

    def test_degree_requirement(self):
        with pytest.raises(ConfigurationError):
            polynomial_problem_1d(1e-3, 1)

    def test_residual(self):
        p = polynomial_problem_1d(1e-6, 3)
        xs = np.linspace(0, 1, 101)
        res = -p.eps * -2.0 + p.b(xs) * p.u_exact(xs) - p.f(xs)  # u'' = -2
        assert np.max(np.abs(res)) < 1e-14


class TestManufactured2D:
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-8])
    def test_boundary_vanishes(self, eps):
        p = manufactured_2d_problem(eps)
        s = np.linspace(0.0, 1.0, 41)
        for edge in (
            p.u_exact(0.0, s), p.u_exact(1.0, s),
            p.u_exact(s, 0.0), p.u_exact(s, 1.0),
        ):
            assert np.max(np.abs(edge)) <= 1e-12

    def test_residual_on_grid(self):
        for eps in (1e-4, 1e-8):
            p, lap = manufactured_2d_problem(eps), laplacian(eps)
            s = np.linspace(0.02, 0.98, 21)
            X, Y = np.meshgrid(s, s, indexing="ij")
            res = -eps * lap(X, Y) + p.b(X, Y) * p.u_exact(X, Y) - p.f(X, Y)
            assert np.max(np.abs(res)) < 1e-9

    def test_residual_at_random_points(self):
        rng = np.random.default_rng(99)
        p, lap = manufactured_2d_problem(1e-6), laplacian(1e-6)
        xs = rng.uniform(0, 1, 1001)
        ys = rng.uniform(0, 1, 1001)
        res = -p.eps * lap(xs, ys) + p.b(xs, ys) * p.u_exact(xs, ys) - p.f(xs, ys)
        scale = np.max(np.abs(p.f(xs, ys)))
        assert np.max(np.abs(res)) < 1e-9 * scale

    def test_flux_handles_product_structure(self):
        # p = eps u_x must match finite differences away from the layers
        p = manufactured_2d_problem(1e-4)
        xs = np.linspace(0.3, 0.7, 7)
        ys = np.linspace(0.35, 0.65, 7)
        h = 1e-6
        fd = (p.u_exact(xs[:, None] + h, ys[None, :]) - p.u_exact(xs[:, None] - h, ys[None, :])) / (2 * h)
        assert np.max(np.abs(p.eps * fd - p.p_exact(xs[:, None], ys[None, :]))) < 1e-5 * np.max(
            np.abs(p.p_exact(xs[:, None], ys[None, :]))
        )


class TestRegistry:
    def test_lookup(self):
        assert problem_by_key("paper1d", 1, 1e-4, 1).name == "paper1d"
        assert problem_by_key("poly1d", 1, 1e-4, 2).name == "poly1d"
        assert problem_by_key("manufactured2d", 2, 1e-4, 1).name == "manufactured2d"

    def test_unknown_key(self):
        with pytest.raises(ConfigurationError):
            problem_by_key("nope", 1, 1e-4, 1)
        with pytest.raises(ConfigurationError):
            problem_by_key("paper1d", 2, 1e-4, 1)


class TestValidation:
    def test_reaction_coefficient_lower_bound_enforced(self):
        def bad_b(x):
            return 0.5 + 0.0 * np.asarray(x, dtype=float)

        with pytest.raises(ConfigurationError):
            Problem1D(eps=1e-3, b=bad_b, f=lambda x: 0.0 * np.asarray(x), beta=1.0)

    def test_nonvanishing_exact_rejected(self):
        def b(x):
            return np.ones_like(np.asarray(x, dtype=float))

        with pytest.raises(ConfigurationError):
            Problem1D(
                eps=1e-3, b=b, f=lambda x: 0.0 * np.asarray(x), beta=1.0,
                u_exact=lambda x: np.asarray(x, dtype=float) + 1.0,
                du_exact=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            )

    def test_2d_reaction_coefficient_is_sampled_on_broadcast_arguments(self):
        shapes = []

        def b(x, y):
            shapes.append((np.shape(x), np.shape(y)))
            return 2.0 + 0.0 * (np.asarray(x, dtype=float) + np.asarray(y, dtype=float))

        Problem2D(eps=1e-3, b=b, f=b, beta=1.0)
        assert shapes == [((101, 1), (1, 101))]
        with pytest.raises(ConfigurationError, match="drops below"):
            Problem2D(eps=1e-3, b=lambda x, y: b(x, y) - 0.5 * np.asarray(x), f=b, beta=1.0)
        with pytest.raises(ConfigurationError, match="vanish on the boundary"):
            Problem2D(eps=1e-3, b=b, f=b, beta=1.0,
                      u_exact=lambda x, y: np.asarray(x, dtype=float) * (1.0 - np.asarray(y)))

    @pytest.mark.parametrize("cls", [Problem1D, Problem2D])
    @pytest.mark.parametrize("eps", [0.0, -1.0, 2.0, np.nan, np.inf,
                                     True, "1e-4", None, np.array(1e-4)])
    def test_eps_outside_unit_interval_rejected_before_b_is_sampled(self, eps, cls):
        # one rule for both classes, their factories and MeshConfig (test_mesh); a
        # solve never sees such a problem
        def b(*args):
            raise AssertionError("b sampled before eps was checked")

        match = (r"eps must lie in \(0, 1\]" if type(eps) is float
                 else "eps must be a real number")
        with pytest.raises(ConfigurationError, match=match):
            cls(eps=eps, b=b, f=b, beta=1.0)
        factories = ((paper_1d_problem, lambda eps: polynomial_problem_1d(eps, 2))
                     if cls is Problem1D else (manufactured_2d_problem,))
        for factory in factories:
            with pytest.raises(ConfigurationError, match=match):
                factory(eps)


def closed_forms(eps):
    """The exact handles of the layer profile, paper1d and manufactured2d as
    single closed-form expressions: the handles must equal them bit for bit.
    The fourth item, g'', is for the PDE residuals of the tests alone."""
    r = 1.0 / np.sqrt(eps)
    denom = 1.0 - np.exp(-r)

    def floats(s):  # every handle reads its arguments as float arrays
        return np.asarray(s, dtype=float)

    def ell(s):
        s = floats(s)
        return (np.exp(-s * r) - np.exp(-(1.0 - s) * r)) / denom

    def dell(s):
        s = floats(s)
        return -r * (np.exp(-s * r) + np.exp(-(1.0 - s) * r)) / denom

    def g(s):
        return ell(s) - np.cos(np.pi * floats(s))

    def dg(s):
        return dell(s) + np.pi * np.sin(np.pi * floats(s))

    def d2g(s):
        return ell(s) / eps + np.pi**2 * np.cos(np.pi * floats(s))

    def f2(x, y):
        cx, cy = np.cos(np.pi * floats(x)), np.cos(np.pi * floats(y))
        return (1.0 + eps * np.pi**2) * (2.0 * cx * cy - ell(x) * cy - ell(y) * cx)

    profile = {"ell": ell, "g": g, "dg": dg}
    paper1d = {
        "u_exact": g, "du_exact": dg, "q_exact": lambda x: eps * dg(x),
        "f": lambda x: -(1.0 + eps * np.pi**2) * np.cos(np.pi * floats(x)),
        "b": lambda x: np.ones_like(floats(x)),
    }
    manufactured2d = {
        "u_exact": lambda x, y: g(x) * g(y),
        "du_dx_exact": lambda x, y: dg(x) * g(y),
        "du_dy_exact": lambda x, y: g(x) * dg(y),
        "p_exact": lambda x, y: eps * (dg(x) * g(y)),
        "q_exact": lambda x, y: eps * (g(x) * dg(y)),
        "f": f2,
        "b": lambda x, y: np.full(np.broadcast_shapes(np.shape(x), np.shape(y)), 2.0),
    }
    return profile, paper1d, manufactured2d, d2g


def laplacian(eps):
    """The closed-form Laplacian of manufactured2d, g''(x) g(y) + g(x) g''(y)."""
    profile, _, _, d2g = closed_forms(eps)
    g = profile["g"]
    return lambda x, y: d2g(x) * g(y) + g(x) * d2g(y)


def read_only(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


# 0 and 1 exactly, the layers, points where exp(-s r) and exp(-(1 - s) r)
# underflow (s r > 745 for eps <= 1e-8), and the ends of the unit interval
HANDLE_POINTS = np.concatenate([
    [0.0, 1.0, 0.5, 1e-300, 2.0**-53, 1.0 - 2.0**-53, 0.0745, 0.9255],
    np.linspace(0.0, 1.0, 49), np.linspace(0.0, 2e-5, 20), np.linspace(1.0 - 1e-3, 1.0, 7),
    np.random.default_rng(5).uniform(0.0, 1.0, 20),
]).reshape(8, 13)


class TestHandlesMatchClosedForms:
    """The handles finish in place on preallocated arrays; every rounding
    step must stay that of the closed forms, and no argument is written."""

    EPS = [1.0, 1e-2, 1e-4, 1e-8, 1e-12]
    ARGS_1D = {
        "2-d": HANDLE_POINTS, "column": HANDLE_POINTS[:, :1], "row": HANDLE_POINTS[:1],
        "float": 0.3, "zero": 0.0, "one": 1.0, "0-d": np.array(0.9),
    }
    ARGS_2D = {
        "2-d": (HANDLE_POINTS, HANDLE_POINTS[::-1]),
        "broadcast": (HANDLE_POINTS[:, :1], HANDLE_POINTS.reshape(1, -1)),
        "floats": (0.3, 0.0), "0-d": (np.array(1.0), np.array(0.2)),
        "float by row": (0.75, HANDLE_POINTS[:1]),
    }

    @staticmethod
    def check(got, want):
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want) and np.array_equal(got, want)

    @pytest.mark.parametrize("eps", EPS)
    def test_layer_profile_and_paper1d_handles(self, eps):
        profile, paper1d, _, _ = closed_forms(eps)
        handles = dict(zip(profile, _layer_profile(eps), strict=True))
        p = paper_1d_problem(eps)
        handles.update({f"paper1d.{name}": getattr(p, name) for name in paper1d})
        want = {**profile, **{f"paper1d.{name}": h for name, h in paper1d.items()}}
        for name, handle in handles.items():
            for label, s in self.ARGS_1D.items():
                before = np.copy(s)
                self.check(handle(s), want[name](s))
                assert np.array_equal(s, before), f"{name} wrote into its {label} argument"
                self.check(handle(read_only(s)), want[name](s))

    @pytest.mark.parametrize("eps", EPS)
    def test_manufactured2d_handles(self, eps):
        _, _, manufactured2d, _ = closed_forms(eps)
        p = manufactured_2d_problem(eps)
        for name, closed in manufactured2d.items():
            for label, (x, y) in self.ARGS_2D.items():
                before = np.copy(x), np.copy(y)
                self.check(getattr(p, name)(x, y), closed(x, y))
                assert np.array_equal(x, before[0]) and np.array_equal(y, before[1]), (
                    f"{name} wrote into its {label} arguments")
                self.check(getattr(p, name)(read_only(x), read_only(y)), closed(x, y))

    def test_one_dimensional_handle_allocates_its_output_and_one_scratch_array(self):
        u = paper_1d_problem(1e-8).u_exact
        x = np.linspace(0.0, 1.0, 40960)
        assert traced_peak(lambda: u(x)) <= 2 * x.nbytes + 4096
