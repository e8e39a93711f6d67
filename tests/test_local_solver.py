"""Interior-point local solver: closed forms, oracles, KKT invariants."""

import numpy as np
import pytest

from aladin import expr as ex
from aladin import local
from aladin.examples_lib import coupled_qp, ocp_chain, tutorial
from aladin.expr import VectorFunction, var
from aladin.local import solve_local
from aladin.problem import Subproblem

import oracles
from test_local_group import boxed_log_block
from test_local_reference import random_boxed_block, random_sigma


def make_sub(f, g=None, h=None, A=None, lb=None, ub=None):
    return Subproblem(f, g=g, h=h, A=A, lb=lb, ub=ub)


def kkt_residual(sub, sol, z, lam, Sigma, p=None):
    """Stationarity residual assembled independently of the solver."""
    p = sub.p0 if p is None else np.asarray(p, float)
    r = ex.gradient(sub.f, sol.x, p) + 2 * Sigma @ (sol.x - z)
    if lam.size:
        r = r + sub.A.T @ lam
    if sub.n_g:
        r = r + ex.jacobian(sub.g, sol.x, p).T @ sol.kappa
    if sub.n_h:
        r = r + ex.jacobian(sub.h, sol.x, p).T @ sol.gamma
    n = sub.n_x
    r = r - sol.eta[:n] + sol.eta[n:]
    return np.abs(r).max()


class TestClosedForms:
    def test_pure_proximal(self):
        # f = 0: minimizer of ||x - z||^2 is z
        f = VectorFunction([ex.const(0.0)], 3)
        sub = make_sub(f, A=np.zeros((0, 3)))
        z = np.array([1.0, -2.0, 0.5])
        sol = solve_local(sub, z, np.zeros(0), np.eye(3), tol=1e-10)
        assert sol.status == "converged"
        np.testing.assert_allclose(sol.x, z, atol=1e-10)

    def test_linear_objective_shifted(self):
        # f = q'x, A = I, Sigma = s I  =>  x = z - (q + lam) / (2 s)
        q = np.array([1.0, -3.0])
        f = VectorFunction([q[0] * var(0) + q[1] * var(1)], 2)
        sub = make_sub(f, A=np.eye(2))
        z = np.array([0.2, 0.7])
        lam = np.array([0.5, -1.0])
        sigma = 2.0
        sol = solve_local(sub, z, lam, sigma * np.eye(2), tol=1e-12)
        np.testing.assert_allclose(sol.x, z - (q + lam) / (2 * sigma), atol=1e-10)

    def test_equality_constrained_quadratic_vs_kkt_oracle(self):
        # strictly convex quadratic with one linear equality
        f = VectorFunction(
            [2 * ex.square(var(0) - 1) + ex.square(var(1) + 0.5) + var(0) * var(1)], 2
        )
        g = VectorFunction([var(0) + 2 * var(1) - 1], 2)
        sub = make_sub(f, g=g, A=np.zeros((0, 2)))
        z = np.array([0.3, 0.1])
        Sigma = np.diag([1.0, 2.0])
        sol = solve_local(sub, z, np.zeros(0), Sigma, tol=1e-12)
        # oracle: dense KKT of the quadratic (H includes the proximal metric)
        H = np.array([[4.0, 1.0], [1.0, 2.0]]) + 2 * Sigma
        gvec = np.array([-4.0, 1.0]) - 2 * Sigma @ z
        xs, kap = oracles.solve_equality_qp(H, gvec, [[1.0, 2.0]], [1.0])
        np.testing.assert_allclose(sol.x, xs, atol=1e-8)
        np.testing.assert_allclose(sol.kappa, kap, atol=1e-8)
        assert sol.status == "converged"


class TestTutorialSubproblem:
    def setup_method(self):
        f2 = VectorFunction([ex.square(var(1) - 2)], 2)
        h2 = VectorFunction([-1 - var(0) * var(1), -1.5 + var(0) * var(1)], 2)
        self.sub = make_sub(f2, h=h2, A=[[-1.0, 0.0]])
        self.z = np.array([1.2, 1.25])

    def test_matches_grid_refinement_oracle(self):
        def fval(y):
            return (y[1] - 2) ** 2 + (y[0] - 1.2) ** 2 + (y[1] - 1.25) ** 2

        def feas(y):
            prod = y[0] * y[1]
            return -1 - prod <= 0 and -1.5 + prod <= 0

        coarse, _ = oracles.grid_refine_minimize(
            fval, feas, np.array([-3.0, -3.0]), np.array([3.0, 3.0]), levels=8
        )
        # the coarse stage lands on the upper product constraint; refine by
        # sliding along that curve (y1 = 1.5 / y2), still value-comparison only
        assert abs(coarse[0] * coarse[1] - 1.5) < 1e-2
        lo, hi = coarse[1] - 0.1, coarse[1] + 0.1
        for _ in range(30):
            ys = np.linspace(lo, hi, 81)
            vals = [fval([1.5 / y, y]) for y in ys]
            yb = ys[int(np.argmin(vals))]
            step = (hi - lo) / 80
            lo, hi = yb - 3 * step, yb + 3 * step
        ref = np.array([1.5 / yb, yb])

        sol = solve_local(self.sub, self.z, np.zeros(1), np.eye(2), tol=1e-10)
        assert sol.status == "converged"
        np.testing.assert_allclose(sol.x, ref, atol=1e-6)
        # the product constraint binds at this proximal center
        assert abs(sol.x[0] * sol.x[1] - 1.5) < 1e-7

    def test_kkt_invariants(self):
        tol = 1e-10
        sol = solve_local(self.sub, self.z, np.zeros(1), np.eye(2), tol=tol)
        assert kkt_residual(self.sub, sol, self.z, np.zeros(1), np.eye(2)) <= 1e-9
        assert np.all(sol.gamma >= 0)
        h = ex.evaluate(self.sub.h, sol.x)
        assert np.all(sol.gamma * h >= -1e-9)
        assert np.all(h <= 1e-9)

    def test_warm_start_immediate(self):
        sol = solve_local(self.sub, self.z, np.zeros(1), np.eye(2), tol=1e-10)
        again = solve_local(
            self.sub, self.z, np.zeros(1), np.eye(2), warm=sol, tol=1e-9
        )
        assert again.iterations <= 2
        np.testing.assert_allclose(again.x, sol.x, atol=1e-9)


class TestBoxHandling:
    def test_active_upper_bound(self):
        # min (x-3)^2 + (x-z)^2 with x <= 1: solution pinned at 1
        f = VectorFunction([ex.square(var(0) - 3)], 1)
        sub = make_sub(f, A=np.zeros((0, 1)), lb=[-5.0], ub=[1.0])
        sol = solve_local(sub, np.array([0.9]), np.zeros(0), np.eye(1), tol=1e-10)
        assert sol.status == "converged"
        assert sol.x[0] == pytest.approx(1.0, abs=1e-8)
        assert sub.lb[0] <= sol.x[0] <= sub.ub[0]
        # upper-bound multiplier carries the stationarity defect
        assert sol.eta[1] == pytest.approx(2 * (3 - 1.0) - 2 * (1.0 - 0.9), rel=1e-6)

    def test_interior_when_inactive(self):
        f = VectorFunction([ex.square(var(0) - 0.3)], 1)
        sub = make_sub(f, A=np.zeros((0, 1)), lb=[-1.0], ub=[1.0])
        sol = solve_local(sub, np.array([0.3]), np.zeros(0), np.eye(1), tol=1e-10)
        assert sol.x[0] == pytest.approx(0.3, abs=1e-9)
        assert np.abs(sol.eta).max() < 1e-8


class TestRandomConvexQps:
    def test_matches_dense_kkt(self):
        rng = np.random.default_rng(123)
        for trial in range(10):
            n = int(rng.integers(2, 5))
            M = rng.standard_normal((n, n))
            Q = M @ M.T + n * np.eye(n)
            q = rng.standard_normal(n)
            Aeq = rng.standard_normal((1, n))
            beq = rng.standard_normal(1)
            terms = []
            for i in range(n):
                terms.append(0.5 * Q[i, i] * ex.square(var(i)) + q[i] * var(i))
                for j in range(i + 1, n):
                    terms.append(Q[i, j] * var(i) * var(j))
            e = terms[0]
            for t in terms[1:]:
                e = e + t
            f = VectorFunction([e], n)
            grow = [Aeq[0, k] * var(k) for k in range(n)]
            ge = grow[0]
            for t in grow[1:]:
                ge = ge + t
            g = VectorFunction([ge - beq[0]], n)
            sub = make_sub(f, g=g, A=np.zeros((0, n)))
            z = rng.standard_normal(n)
            Sigma = np.eye(n)
            sol = solve_local(sub, z, np.zeros(0), Sigma, tol=1e-12)
            xs, _ = oracles.solve_equality_qp(Q + 2 * Sigma, q - 2 * Sigma @ z, Aeq, beq)
            np.testing.assert_allclose(sol.x, xs, atol=1e-8)


class TestNewtonCount:
    """``iterations`` is the number of Newton steps taken, no more."""

    @pytest.mark.parametrize(
        "make, block",
        [(ocp_chain, 0), (tutorial, 1), (coupled_qp, 0)],
        ids=["bounded", "inequality", "unconstrained"],
    )
    def test_iterations_equal_newton_calls(self, monkeypatch, make, block):
        problem = make()
        sub = problem.subproblems[block]
        p = problem.parameters[block]
        lam = np.zeros(problem.n_c)
        calls = [0]
        newton_step = local._newton_step

        def counted(W, Jg, rhs_x, rhs_g, failed):
            # the lanes this step solves, on the Cholesky or the LDL^T path
            calls[0] += len(rhs_x) - len(failed)
            return newton_step(W, Jg, rhs_x, rhs_g, failed)

        monkeypatch.setattr(local, "_newton_step", counted)
        sol = solve_local(sub, sub.z0, lam, np.eye(sub.n_x), p=p, tol=1e-10)
        assert sol.status == "converged"
        assert sol.iterations == calls[0] > 0
        calls[0] = 0
        again = solve_local(sub, sub.z0, lam, np.eye(sub.n_x), p=p, warm=sol,
                            tol=1e-10)
        assert again.iterations == calls[0] == 0


class TestKnownFailures:
    """Blocks the local solver fails on today; each test flips once mended."""

    @pytest.mark.xfail(
        raises=RuntimeWarning, strict=True,
        reason="gamma / s overflows in the W update (RuntimeWarning: overflow "
               "encountered in divide); without the warning as an error the "
               "block ends in SingularKktError",
    )
    def test_far_center_with_a_weak_proximal_term(self):
        rng = np.random.default_rng(277)
        sub = random_boxed_block(rng)
        z = 10 * rng.uniform(-1.5, 1.5, sub.n_x)
        Sigma = 1e-3 * random_sigma(rng, sub.n_x)
        # any status passes, once the solve returns one without overflowing
        solve_local(sub, z, np.zeros(0), Sigma, tol=1e-10)

    @pytest.mark.xfail(
        raises=AssertionError, strict=True,
        reason="an infeasible block whose violation creeps down never stalls: "
               "it ends max-iter after 100 steps with gamma 2.5e94 and KKT "
               "residual 6.5e91",
    )
    def test_infeasible_block_with_a_creeping_violation_stops_early(self):
        # x1^2 + 2 <= 0 has no feasible point
        sub = boxed_log_block(2.0, 1e-3, 10.0, [0.4, 2.0])
        sol = solve_local(sub, np.array([0.6, 0.3]), np.zeros(0), np.eye(2),
                          p=np.array([0.4, 2.0]), tol=1e-10)
        assert sol.status != "max-iter"

    @pytest.mark.xfail(
        raises=AssertionError, strict=True,
        reason="the inertia correction restarts from zeta = 1e-8 (1 + max|W|) "
               "on every Newton step and shifts all of W's diagonal: the solve "
               "sits on the saddle x0 = 0, its x1 residual shrinks by about "
               "8.8/11 per step, and it ends max-iter after 100 steps at KKT "
               "residual 2.55e-10, x = (0, 0.9545)",
    )
    def test_a_double_well_started_on_its_saddle_converges(self):
        # f = x0^4 - 4 x0^2 + (x1 - p0)^2, whose W is indefinite at x0 = 0
        x0, x1 = var(0), var(1)
        f = VectorFunction(
            [x0 ** 4.0 - 4.0 * ex.square(x0) + ex.square(x1 - ex.param(0))], 2, 1
        )
        sub = Subproblem(f, A=np.zeros((1, 2)))
        sol = solve_local(sub, np.array([0.0, 0.5]), np.zeros(1), 0.1 * np.eye(2),
                          p=np.array([1.0]), tol=1e-10)
        assert sol.status != "max-iter"
