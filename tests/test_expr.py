"""Expression graphs: values, exact derivatives, purity, domain errors."""

import numpy as np
import pytest

from aladin import expr as ex
from aladin.expr import VectorFunction, var, param

import oracles


def scalar(e, n_x, n_p=0):
    return VectorFunction([e], n_x, n_p)


class TestEvaluate:
    def test_square_at_minimizer(self):
        f = scalar(2 * ex.square(var(0) - 1), 1)
        assert ex.evaluate(f, [1.0]) == pytest.approx(0.0, abs=0)

    def test_square_away_from_minimizer(self):
        # first objective term of the bundled tutorial problem
        f = scalar(2 * ex.square(var(0) - 1), 1)
        assert ex.evaluate(f, [0.0])[0] == pytest.approx(2.0)

    def test_bilinear(self):
        h = scalar(-1 - var(0) * var(1), 2)
        assert ex.evaluate(h, [2.0, 0.5])[0] == pytest.approx(-2.0)

    def test_parameters_are_inputs(self):
        f = scalar(ex.square(var(0) - param(0)), 1, n_p=1)
        assert ex.evaluate(f, [3.0], [1.0])[0] == pytest.approx(4.0)
        assert ex.evaluate(f, [3.0], [3.0])[0] == pytest.approx(0.0)

    def test_repeated_calls_bit_identical(self):
        e = ex.sin(var(0)) * ex.exp(var(1) / 3) + ex.sqrt(ex.square(var(0)) + 1)
        f = scalar(e, 2)
        x = np.array([0.7, -1.3])
        v1 = ex.evaluate(f, x)[0]
        v2 = ex.evaluate(f, x)[0]
        assert v1 == v2

    def test_dimension_checks(self):
        f = scalar(var(0), 2)
        with pytest.raises(ValueError):
            ex.evaluate(f, [1.0])
        with pytest.raises(ValueError):
            VectorFunction([var(3)], 2)

    def test_domain_error_log(self):
        f = scalar(ex.log(var(0)), 1)
        with pytest.raises(ex.DomainEvalError) as ei:
            ex.evaluate(f, [-1.0])
        assert ei.value.node is not None

    def test_domain_error_sqrt_and_div(self):
        with pytest.raises(ex.DomainEvalError):
            ex.evaluate(scalar(ex.sqrt(var(0)), 1), [-2.0])
        with pytest.raises(ex.DomainEvalError):
            ex.evaluate(scalar(1 / var(0), 1), [0.0])

    def test_domain_error_prints_a_plain_float(self):
        for e in (ex.log(var(0)), ex.log(param(0) + var(0))):
            with pytest.raises(ex.DomainEvalError, match=r"value -1\.0$"):
                ex.evaluate(scalar(e, 1, 1), [-1.0], [0.0])

    @pytest.mark.parametrize(
        "e", [ex.square(var(0)), var(0) * var(0), var(0) * param(0),
              var(0) + var(0), var(0) - param(0), ex.exp(var(0))],
        ids=["square", "mul", "mul-param", "add", "sub", "exp"],
    )
    def test_overflow_is_inf_without_a_warning(self, e):
        # the tests turn every RuntimeWarning into an error
        x, p = [1.7e308], [-1.7e308]
        assert np.isinf(ex.evaluate(scalar(e, 1, 1), x, p)[0])


class TestGradient:
    def test_chain_rule(self):
        f = scalar(2 * ex.square(var(0) - 1), 1)
        assert ex.gradient(f, [0.0])[0] == pytest.approx(-4.0)

    def test_product_rule(self):
        f = scalar(var(0) * var(1), 2)
        np.testing.assert_allclose(ex.gradient(f, [2.0, 0.5]), [0.5, 2.0])

    def test_requires_scalar(self):
        f = VectorFunction([var(0), var(1)], 2)
        with pytest.raises(ValueError):
            ex.gradient(f, [1.0, 2.0])

    def test_polynomial_matches_fd_on_random_points(self):
        rng = np.random.default_rng(7)
        e = (
            var(0) ** 3 * var(1)
            - 2 * var(1) ** 2
            + var(2) * var(0)
            + 5 * var(2) ** 4
        )
        f = scalar(e, 3)
        for _ in range(100):
            x = rng.standard_normal(3)
            g = ex.gradient(f, x)
            g_fd = oracles.fd_gradient(lambda y: ex.evaluate(f, y)[0], x)
            assert oracles.rel_err(g, g_fd) < 1e-6


class TestJacobian:
    def test_sum_and_product_rows(self):
        g = VectorFunction([var(0) + var(1), var(0) * var(1)], 2)
        np.testing.assert_allclose(
            ex.jacobian(g, [1.0, 1.0]), [[1.0, 1.0], [1.0, 1.0]]
        )

    def test_empty_function(self):
        g = VectorFunction([], 3)
        assert ex.jacobian(g, [1.0, 2.0, 3.0]).shape == (0, 3)
        assert ex.evaluate(g, [1.0, 2.0, 3.0]).shape == (0,)

    def test_cubic_system_matches_fd(self):
        rng = np.random.default_rng(11)
        g = VectorFunction(
            [
                var(0) ** 3 - var(1) * var(2),
                var(1) ** 3 + var(0),
                var(2) ** 3 * var(0) - 2 * var(1),
            ],
            3,
        )
        for _ in range(20):
            x = rng.standard_normal(3)
            J = ex.jacobian(g, x)
            J_fd = oracles.fd_jacobian(lambda y: ex.evaluate(g, y), x, 3)
            assert oracles.rel_err(J, J_fd) < 1e-6


class TestLagrangianHessian:
    def test_pure_quadratic(self):
        f = scalar(ex.square(var(0)) + ex.square(var(1)), 2)
        empty = VectorFunction([], 2)
        H = ex.lagrangian_hessian(f, empty, empty, [0.3, -0.2], None, [], [])
        np.testing.assert_allclose(H, 2 * np.eye(2))

    def test_bilinear_constraint_term(self):
        f = scalar(ex.const(0.0), 2)
        g = VectorFunction([var(0) * var(1)], 2)
        empty = VectorFunction([], 2)
        H = ex.lagrangian_hessian(f, g, empty, [1.0, 1.0], None, [3.0], [])
        np.testing.assert_allclose(H, [[0, 3], [3, 0]])

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        e = ex.sin(var(0) * var(1)) * ex.exp(var(2)) + var(0) ** 3 * var(2)
        f = scalar(e, 3)
        empty = VectorFunction([], 3)
        for _ in range(10):
            x = rng.standard_normal(3)
            H = ex.lagrangian_hessian(f, empty, empty, x, None, [], [])
            assert np.array_equal(H, H.T)

    def test_tutorial_subproblem_vs_fd(self):
        # second tutorial block: f=(y2-2)^2, h=(-1-y1 y2, -1.5+y1 y2)
        f = scalar(ex.square(var(1) - 2), 2)
        h = VectorFunction([-1 - var(0) * var(1), -1.5 + var(0) * var(1)], 2)
        empty = VectorFunction([], 2)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(2)
        mult = np.array([0.7, 1.3])
        H = ex.lagrangian_hessian(f, empty, h, x, None, [], mult)

        def lagr(y):
            return float(ex.evaluate(f, y)[0] + mult @ ex.evaluate(h, y))

        H_fd = oracles.fd_hessian_of_scalar(lagr, x)
        assert oracles.rel_err(H, H_fd) < 1e-5

    def test_multiplier_dimension_check(self):
        f = scalar(var(0), 1)
        g = VectorFunction([var(0)], 1)
        empty = VectorFunction([], 1)
        with pytest.raises(ValueError):
            ex.lagrangian_hessian(f, g, empty, [1.0], None, [1.0, 2.0], [])


def random_smooth_graph(rng, n_x, depth):
    """Random expression of bounded depth, smooth everywhere.

    log/sqrt arguments and divisors are kept strictly positive by composing
    with square(.)+1, so central differences are valid at any sample point.
    """
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.6:
            return var(int(rng.integers(n_x)))
        return ex.const(round(float(rng.uniform(-2, 2)), 3))
    op = rng.choice(
        ["add", "sub", "mul", "div", "neg", "sin", "cos", "exp", "log", "sqrt",
         "square", "pow"]
    )
    a = random_smooth_graph(rng, n_x, depth - 1)
    if op in ("add", "sub", "mul"):
        b = random_smooth_graph(rng, n_x, depth - 1)
        return {"add": a + b, "sub": a - b, "mul": a * b}[op]
    if op == "div":
        b = random_smooth_graph(rng, n_x, depth - 1)
        return a / (ex.square(b) + 1)
    if op == "neg":
        return -a
    if op in ("sin", "cos"):
        return getattr(ex, op)(a)
    if op == "exp":
        return ex.exp(ex.sin(a))  # bounded argument, no overflow
    if op == "log":
        return ex.log(ex.square(a) + 1)
    if op == "sqrt":
        return ex.sqrt(ex.square(a) + 1)
    if op == "square":
        return ex.square(a)
    return a ** float(rng.integers(2, 4))


class TestDerivativeProperty:
    def test_random_graphs_match_fd(self):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 60:
            n_x = int(rng.integers(1, 4))
            f = scalar(random_smooth_graph(rng, n_x, int(rng.integers(1, 7))), n_x)
            x = rng.standard_normal(n_x)
            try:
                v = ex.evaluate(f, x)[0]
            except ex.DomainEvalError:
                continue
            if not np.isfinite(v) or abs(v) > 1e6:
                continue
            g = ex.gradient(f, x)
            if np.max(np.abs(g)) > 1e6:
                continue
            g_fd = oracles.fd_gradient(lambda y: ex.evaluate(f, y)[0], x)
            assert oracles.rel_err(g, g_fd) < 1e-6
            checked += 1


class TestSexpr:
    def test_round_trip(self):
        e = ex.expr_from_sexpr(["mul", ["var", 0], ["var", 1]])
        f = scalar(e, 2)
        assert ex.evaluate(f, [2.0, 0.5])[0] == pytest.approx(1.0)
        assert e.to_sexpr() == ["mul", ["var", 0], ["var", 1]]

    def test_numbers_and_params(self):
        e = ex.expr_from_sexpr(["add", ["square", ["sub", ["var", 0], ["param", 0]]], 1.5])
        f = scalar(e, 1, n_p=1)
        assert ex.evaluate(f, [4.0], [1.0])[0] == pytest.approx(10.5)

    def test_malformed(self):
        with pytest.raises(ValueError):
            ex.expr_from_sexpr(["frobnicate", 1, 2])
        with pytest.raises(ValueError):
            ex.expr_from_sexpr(["add", 1])
        with pytest.raises(ValueError):
            ex.expr_from_sexpr([])

    @pytest.mark.parametrize(
        "obj",
        [True, False, ["add", ["var", 0], False], ["mul", 2.0, True],
         ["var", 1.5], ["var", True], ["var", "1"], ["param", "0"], ["param", 0.0],
         ["param", None], ["var", 0, 1], ["var"]],
        ids=repr,
    )
    def test_rejects_bools_and_non_integer_indices(self, obj):
        with pytest.raises(ValueError):
            ex.expr_from_sexpr(obj)

    def test_json_integers_are_constants(self):
        e = ex.expr_from_sexpr(["add", ["mul", 3, ["var", 0]], ["param", 1]])
        assert e.to_sexpr() == ["add", ["mul", 3.0, ["var", 0]], ["param", 1]]
        assert ex.expr_from_sexpr(0).to_sexpr() == 0.0
