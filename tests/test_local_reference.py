"""solve_local against a copy of the solver that recomputed every residual.

The reference below is the interior-point loop as it stood before each
point's residual parts were kept: it re-runs the residual blocks for every
test and evaluates the start point again after the warm check, and it
solves each KKT step on its own with the one-lane inertia-correction loop,
kept verbatim, which a step without equality rows enters only when its W
fails the Cholesky route.  The solver must return arrays equal to it bit
for bit (signs of zeros included), the same status and KKT residual, and
count Newton steps where the reference counted loop passes.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from aladin import expr as ex
from aladin import local
from aladin.errors import SingularKktError
from aladin.examples_lib import coupled_qp, ocp_chain, tutorial
from aladin.expr import VectorFunction, var
from aladin.linalg import LdlFactor
from aladin.local import BARRIER_FACTOR, FTB, MAX_NEWTON, LocalSolution
from aladin.problem import Subproblem

BENCH = Path(__file__).resolve().parent.parent / "bench"

REFERENCE_NEWTON = [0]


def _cholesky_route(K, rhs):
    """K^-1 rhs by np.linalg.solve plus one refinement step by the same
    route, when K passes a Cholesky factorization and the result is finite;
    else None."""
    try:
        np.linalg.cholesky(K)
        sol = np.linalg.solve(K, rhs)
        with np.errstate(invalid="ignore", over="ignore"):
            res = rhs - K @ sol
        sol = sol + np.linalg.solve(K, res)
    except np.linalg.LinAlgError:
        return None
    return sol if np.isfinite(sol).all() else None


def _solve_newton(W, Jg, rhs_x, rhs_g):
    """Condensed KKT solve with primal (and, late, dual) inertia correction.

    Without equality rows the uncorrected K = W + 0.0 takes the Cholesky
    route first; a K it rejects goes on to the LDL^T attempts.
    """
    REFERENCE_NEWTON[0] += 1
    n, m = W.shape[0], Jg.shape[0]
    rhs = np.concatenate([rhs_x, rhs_g])
    if m == 0:
        sol = _cholesky_route(W + 0.0, rhs)
        if sol is not None:
            return sol[:n], sol[n:]
    zeta = 0.0
    zeta_d = 0.0
    for attempt in range(12):
        K = np.zeros((n + m, n + m))
        # W + zeta I, bit for bit (W + 0.0 turns -0.0 into 0.0 as well)
        np.add(W, 0.0, out=K[:n, :n])
        if zeta:
            K[:n, :n].flat[:: n + 1] += zeta
        if m:
            K[:n, n:] = Jg.T
            K[n:, :n] = Jg
            if zeta_d:
                K[n:, n:] = -zeta_d * np.eye(m)
        try:
            fac = LdlFactor(K)
            npos, nneg, nzero = fac.inertia()
            if npos == n and nneg == m and nzero == 0:
                sol = fac.solve(rhs)
                if np.isfinite(sol).all():
                    return sol[:n], sol[n:]
        except SingularKktError:
            pass
        zeta = zeta * 100.0 if zeta else 1e-8 * (1.0 + np.abs(W).max(initial=0.0))
        if attempt >= 6:
            zeta_d = zeta_d * 100.0 if zeta_d else 1e-10
    raise SingularKktError("local KKT system could not be corrected to solvable form")


# -- reference ---------------------------------------------------------------

class _Work:
    """Evaluation bundle for one block at fixed (z, lam, Sigma, p)."""

    def __init__(self, sub, z, lam, Sigma, p):
        self.sub = sub
        self.z = z
        self.lam = lam
        self.Sigma = Sigma
        self.p = p
        self.Alam = sub.A.T @ lam if lam.size else np.zeros(sub.n_x)
        self.mL = np.isfinite(sub.lb)
        self.mU = np.isfinite(sub.ub)

    def eval_point(self, x):
        sub, p = self.sub, self.p
        return {
            "g": ex.evaluate(sub.g, x, p),
            "h": ex.evaluate(sub.h, x, p),
            "grad_f": ex.gradient(sub.f, x, p),
            "Jg": ex.jacobian(sub.g, x, p),
            "Jh": ex.jacobian(sub.h, x, p),
        }

    def obj_grad(self, x, ev):
        return ev["grad_f"] + self.Alam + 2.0 * (self.Sigma @ (x - self.z))

    def hess(self, x, kappa, gamma):
        H = ex.lagrangian_hessian(
            self.sub.f, self.sub.g, self.sub.h, x, self.p, kappa, gamma
        )
        return H + 2.0 * self.Sigma


def _residuals(w, x, s, kappa, gamma, etaL, etaU, mu, ev):
    """KKT residual blocks at barrier parameter mu; also their max norm."""
    sub = w.sub
    n = sub.n_x
    r_x = w.obj_grad(x, ev)
    if sub.n_g:
        r_x = r_x + ev["Jg"].T @ kappa
    if sub.n_h:
        r_x = r_x + ev["Jh"].T @ gamma
    r_x = r_x - etaL + etaU
    r_g = ev["g"]
    r_h = ev["h"] + s
    r_cs = s * gamma - mu
    r_L = np.zeros(n)
    r_U = np.zeros(n)
    mL, mU = w.mL, w.mU
    r_L[mL] = (x[mL] - sub.lb[mL]) * etaL[mL] - mu
    r_U[mU] = (sub.ub[mU] - x[mU]) * etaU[mU] - mu
    parts = [r_x, r_g, r_cs, r_L, r_U, r_h]
    err = max((np.abs(v).max() for v in parts if v.size), default=0.0)
    return err, (r_x, r_g, r_h, r_cs, r_L, r_U)


def _max_step(v, dv, mask=None):
    """Largest alpha <= 1 with v + alpha dv >= (1 - FTB) v on masked entries."""
    if v.size == 0:
        return 1.0
    neg = dv < 0
    if mask is not None:
        neg = neg & mask
    if not np.any(neg):
        return 1.0
    return min(1.0, float(np.min(-FTB * v[neg] / dv[neg])))


def reference_solve_local(sub, z, lam, Sigma, p=None, warm=None, tol=1e-10):
    """Solve one block's proximal NLP to the given KKT tolerance.

    Parameters
    ----------
    sub : Subproblem
    z : array_like
        Proximal center (the coordination primal for this block).
    lam : array_like
        Consensus dual; enters through the linear term lam' A x.
    Sigma : array_like
        Symmetric positive (semi)definite proximal weight matrix.
    p : array_like or None
        Parameter vector; defaults to the block's stored values.
    warm : LocalSolution or None
        Previous solution; checked first and reused as the start point.
    tol : float
        Target for the maximum KKT residual (stationarity, feasibility,
        complementarity), measured in the infinity norm.

    Returns
    -------
    LocalSolution
        Primal point within bounds, multipliers kappa / gamma / eta, status.
    """
    z = np.asarray(z, dtype=float)
    lam = np.asarray(lam, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    p = sub.p0 if p is None else np.asarray(p, dtype=float)
    n, n_g, n_h = sub.n_x, sub.n_g, sub.n_h
    w = _Work(sub, z, lam, Sigma, p)
    mL, mU = w.mL, w.mU

    # shortcut: a warm start already at KKT quality is returned unchanged
    if warm is not None:
        ev = w.eval_point(warm.x)
        s_exact = np.maximum(-ev["h"], 0.0)
        err, _ = _residuals(
            w, warm.x, s_exact, warm.kappa, warm.gamma,
            warm.eta[:n], warm.eta[n:], 0.0, ev,
        )
        if err <= tol and np.all(warm.x >= sub.lb) and np.all(warm.x <= sub.ub):
            return LocalSolution(
                warm.x.copy(), warm.kappa.copy(), warm.gamma.copy(),
                warm.eta.copy(), "converged", 0, err,
            )

    # strictly interior start
    x = warm.x.copy() if warm is not None else z.copy()
    span = sub.ub - sub.lb
    margin = np.where(
        np.isfinite(span), np.minimum(1e-2 * (1.0 + np.abs(x)), 0.25 * span), 1e-2
    )
    x = np.where(mL, np.maximum(x, sub.lb + margin), x)
    x = np.where(mU, np.minimum(x, sub.ub - margin), x)

    ev = w.eval_point(x)
    etaL = np.zeros(n)
    etaU = np.zeros(n)
    if warm is not None:
        s = np.maximum(-ev["h"], 1e-8)
        gamma = np.maximum(warm.gamma, 1e-8)
        kappa = warm.kappa.copy()
        comp = float(np.mean(s * gamma)) if n_h else 1e-3
        mu = max(tol / 10.0, min(1e-3, comp))
        etaL[mL] = np.maximum(warm.eta[:n][mL], 1e-8)
        etaU[mU] = np.maximum(warm.eta[n:][mU], 1e-8)
    else:
        mu = 1e-1
        s = np.maximum(-ev["h"], 1e-2)
        gamma = mu / s
        kappa = np.zeros(n_g)
        etaL[mL] = mu / (x[mL] - sub.lb[mL])
        etaU[mU] = mu / (sub.ub[mU] - x[mU])

    mu_min = tol / 10.0
    status = "max-iter"
    err0 = np.inf
    best_pri = np.inf
    stall = 0
    it = 0
    for it in range(1, MAX_NEWTON + 1):
        err0, _ = _residuals(w, x, s, kappa, gamma, etaL, etaU, 0.0, ev)
        if err0 <= tol:
            status = "converged"
            break

        # infeasibility watch: true violation failing to decrease
        pri = max(
            np.abs(ev["g"]).max(initial=0.0),
            np.maximum(ev["h"], 0.0).max(initial=0.0),
        )
        if pri >= best_pri - 1e-16 and pri > tol:
            stall += 1
            if stall >= 10:
                status = "stalled"
                break
        else:
            stall = 0
        best_pri = min(best_pri, pri)

        err_mu, res = _residuals(w, x, s, kappa, gamma, etaL, etaU, mu, ev)
        if err_mu <= 10.0 * mu and mu > mu_min:
            mu = max(mu_min, BARRIER_FACTOR * mu)
            err_mu, res = _residuals(w, x, s, kappa, gamma, etaL, etaU, mu, ev)
        r_x, r_g, r_h, r_cs, r_L, r_U = res

        dL = x - sub.lb
        dU = sub.ub - x
        DL = np.zeros(n)
        DU = np.zeros(n)
        DL[mL] = etaL[mL] / dL[mL]
        DU[mU] = etaU[mU] / dU[mU]
        W = w.hess(x, kappa, gamma) + np.diag(DL + DU)
        rhs_x = -r_x
        rhs_x[mL] -= r_L[mL] / dL[mL]
        rhs_x[mU] += r_U[mU] / dU[mU]
        if n_h:
            Jh = ev["Jh"]
            W = W + Jh.T @ ((gamma / s)[:, None] * Jh)
            rhs_x = rhs_x - Jh.T @ ((gamma * r_h - r_cs) / s)
        dx, dkappa = _solve_newton(W, ev["Jg"], rhs_x, -r_g)

        if n_h:
            ds = -r_h - Jh @ dx
            dgamma = (-r_cs - gamma * ds) / s
        else:
            ds = np.zeros(0)
            dgamma = np.zeros(0)
        detaL = np.zeros(n)
        detaU = np.zeros(n)
        detaL[mL] = (-r_L[mL] - etaL[mL] * dx[mL]) / dL[mL]
        detaU[mU] = (-r_U[mU] + etaU[mU] * dx[mU]) / dU[mU]

        a_pri = min(
            _max_step(s, ds),
            _max_step(dL, dx, mL),
            _max_step(dU, -dx, mU),
        )
        a_dual = min(
            _max_step(gamma, dgamma),
            _max_step(etaL, detaL, mL),
            _max_step(etaU, detaU, mU),
        )

        # backtrack on the barrier KKT residual; the last trial is forced
        theta = 1.0
        moved = False
        for bt in range(9):
            xt = x + theta * a_pri * dx
            st = s + theta * a_pri * ds
            kt = kappa + theta * a_dual * dkappa
            gt = gamma + theta * a_dual * dgamma
            eLt = etaL + theta * a_dual * detaL
            eUt = etaU + theta * a_dual * detaU
            try:
                evt = w.eval_point(xt)
                errt, _ = _residuals(w, xt, st, kt, gt, eLt, eUt, mu, evt)
            except ex.DomainEvalError:
                theta *= 0.5
                continue
            if np.isfinite(errt) and (
                errt <= (1.0 - 1e-4 * theta * a_pri) * err_mu or bt == 8
            ):
                x, s, kappa, gamma, etaL, etaU, ev = xt, st, kt, gt, eLt, eUt, evt
                moved = True
                break
            theta *= 0.5
        if not moved:
            # every trial left the evaluation domain; give up on this center
            status = "stalled"
            break

    eta = np.concatenate([etaL, etaU])
    return LocalSolution(x, kappa, gamma, eta, status, it, err0)


# -- comparison --------------------------------------------------------------

def run_both(monkeypatch, sub, z, lam, Sigma, p=None, warm=None, tol=1e-10):
    """Both solvers on one input; asserts agreement, returns the solution."""
    REFERENCE_NEWTON[0] = 0
    ref = reference_solve_local(sub, z, lam, Sigma, p=p, warm=warm, tol=tol)
    calls = [0]
    newton_step = local._newton_step

    def counted(W, Jg, rhs_x, rhs_g, failed):
        # the lanes this step solves, on the Cholesky or the LDL^T path
        calls[0] += len(rhs_x) - len(failed)
        return newton_step(W, Jg, rhs_x, rhs_g, failed)

    monkeypatch.setattr(local, "_newton_step", counted)
    new = local.solve_local(sub, z, lam, Sigma, p=p, warm=warm, tol=tol)
    monkeypatch.setattr(local, "_newton_step", newton_step)

    for name in ("x", "kappa", "gamma", "eta"):
        a, b = getattr(new, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name
        assert np.array_equal(np.signbit(a), np.signbit(b)), name
    assert new.status == ref.status
    assert np.array_equal(new.kkt_residual, ref.kkt_residual, equal_nan=True)
    assert new.iterations == calls[0] == REFERENCE_NEWTON[0]
    # the reference also counted the pass that only found convergence
    assert ref.iterations - new.iterations in (0, 1)
    if new.status == "max-iter":
        assert new.iterations == ref.iterations == MAX_NEWTON
    return new


def random_sigma(rng, n):
    M = rng.standard_normal((n, n))
    return 0.1 * M @ M.T + np.diag(rng.uniform(0.2, 3.0, n))


def sensor_problem():
    spec = importlib.util.spec_from_file_location(
        "sensor_net_for_local_reference", BENCH / "sensor_net.py"
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolve their module by name
    spec.loader.exec_module(mod)
    return mod.build_problem(mod.sensor_data(11))


PROBLEMS = {
    "tutorial": tutorial,
    "coupled_qp": lambda: coupled_qp(block_size=3),
    "ocp_chain": ocp_chain,
    "sensor_net": sensor_problem,
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_example_blocks_cold_and_warm(monkeypatch, name, seed):
    problem = PROBLEMS[name]()
    rng = np.random.default_rng(seed)
    for i, sub in enumerate(problem.subproblems):
        n = sub.n_x
        p = problem.parameters[i]
        z = sub.z0 + 0.3 * rng.standard_normal(n)
        lam = rng.standard_normal(problem.n_c)
        Sigma = random_sigma(rng, n)
        tol = float(rng.choice([1e-6, 1e-9, 1e-12]))
        cold = run_both(monkeypatch, sub, z, lam, Sigma, p=p, tol=tol)
        # same data, looser tolerance: the warm shortcut takes it
        again = run_both(monkeypatch, sub, z, lam, Sigma, p=p, warm=cold,
                         tol=10 * tol)
        if cold.status == "converged":
            assert again.iterations == 0
        # moved center and dual: the warm start has to iterate
        z2 = z + 0.05 * rng.standard_normal(n)
        lam2 = lam + 0.05 * rng.standard_normal(problem.n_c)
        moved = run_both(monkeypatch, sub, z2, lam2, Sigma, p=p, warm=cold,
                         tol=tol)
        assert moved.iterations > 0


def random_boxed_block(rng):
    """Convex quadratic plus sin terms, a ball and a bilinear inequality,
    sometimes a linear equality, and a box that mixes every bound kind."""
    n = int(rng.integers(2, 6))
    M = rng.standard_normal((n, n))
    Q = M @ M.T + n * np.eye(n)
    q = rng.standard_normal(n)
    f = None
    for i in range(n):
        t = 0.5 * Q[i, i] * ex.square(var(i)) + q[i] * var(i) + 0.1 * ex.sin(var(i))
        for j in range(i + 1, n):
            t = t + Q[i, j] * var(i) * var(j)
        f = t if f is None else f + t
    c = 0.3 * rng.standard_normal(n)
    ball = ex.square(var(0) - c[0])
    for i in range(1, n):
        ball = ball + ex.square(var(i) - c[i])
    h = VectorFunction([ball - 1.0, var(0) * var(1) - 0.2], n)
    g = None
    if rng.random() < 0.5:
        a = rng.standard_normal(n)
        row = a[0] * var(0)
        for i in range(1, n):
            row = row + a[i] * var(i)
        g = VectorFunction([row - float(a @ c)], n)
    lb = np.full(n, -np.inf)
    ub = np.full(n, np.inf)
    for i in range(n):
        kind = rng.integers(4)  # none, lower, upper, both
        if kind in (1, 3):
            lb[i] = c[i] - rng.uniform(0.05, 0.8)
        if kind in (2, 3):
            ub[i] = c[i] + rng.uniform(0.05, 0.8)
    return Subproblem(VectorFunction([f], n), g=g, h=h, lb=lb, ub=ub)


@pytest.mark.parametrize("seed", range(20))
def test_random_boxed_blocks(monkeypatch, seed):
    rng = np.random.default_rng(1000 + seed)
    sub = random_boxed_block(rng)
    n = sub.n_x
    z = rng.uniform(-1.5, 1.5, n)
    Sigma = random_sigma(rng, n)
    cold = run_both(monkeypatch, sub, z, np.zeros(0), Sigma, tol=1e-10)
    run_both(monkeypatch, sub, z, np.zeros(0), Sigma, warm=cold, tol=1e-9)
    run_both(monkeypatch, sub, z + 0.1, np.zeros(0), Sigma, warm=cold,
             tol=1e-10)


def test_warm_start_outside_the_box(monkeypatch):
    # a warm point the interior projection moves is evaluated afresh
    f = VectorFunction([ex.square(var(0) - 3.0) + ex.square(var(1))], 2)
    sub = Subproblem(f, lb=[-1.0, -np.inf], ub=[1.0, np.inf])
    cold = run_both(monkeypatch, sub, np.array([0.9, 0.2]), np.zeros(0),
                    np.eye(2), tol=1e-10)
    assert cold.x[0] > 1.0 - 1e-2  # within the projection's margin
    run_both(monkeypatch, sub, np.array([0.5, 0.2]), np.zeros(0), np.eye(2),
             warm=cold, tol=1e-10)


def test_roundoff_tolerance_runs_out_of_newton_steps(monkeypatch):
    sub = tutorial().subproblems[1]
    sol = run_both(monkeypatch, sub, np.array([1.2, 1.25]), np.zeros(1),
                   np.eye(2), tol=1e-300)
    assert sol.status == "max-iter"


def test_infeasible_block_stalls(monkeypatch):
    f = VectorFunction([ex.square(var(0))], 1)
    g = VectorFunction([ex.square(var(0)) + 1.0], 1)
    sol = run_both(monkeypatch, Subproblem(f, g=g), np.array([0.5]),
                   np.zeros(0), np.eye(1), tol=1e-10)
    assert sol.status == "stalled"


def test_log_objective_backtracks_out_of_the_domain(monkeypatch):
    # a weak proximal term lets the full Newton step leave x0 > 0, where
    # the gradient's log raises DomainEvalError and the step is halved
    f = VectorFunction([var(0) * ex.log(var(0)) + ex.square(var(1) - 1.0)], 2)
    sub = Subproblem(f)
    raised = [0]
    gradient = ex.gradient

    def watched(*args):
        try:
            return gradient(*args)
        except ex.DomainEvalError:
            raised[0] += 1
            raise

    monkeypatch.setattr(ex, "gradient", watched)
    sol = run_both(monkeypatch, sub, np.array([3.0, 0.0]), np.zeros(0),
                   1e-6 * np.eye(2), tol=1e-10)
    assert raised[0] > 0
    assert sol.status == "converged"
    np.testing.assert_allclose(sol.x, [np.exp(-1.0), 1.0], atol=1e-5)


@pytest.mark.parametrize("seed", range(10))
def test_error_norm_keeps_the_nan_order(seed):
    # a NaN counts only where the max over (r_x, r_g, r_cs, r_L, r_U, r_h)
    # meets it first; the backtracking test np.isfinite(errt) relies on it
    rng = np.random.default_rng(2000 + seed)
    sub = random_boxed_block(rng)
    n = sub.n_x
    z = rng.uniform(-1.0, 1.0, n)
    Sigma = random_sigma(rng, n)
    lam = np.zeros(0)
    w_ref = _Work(sub, z, lam, Sigma, sub.p0)
    # the solver's work on a group of this one block; lane 0 is compared
    w_new = local._Work(local.BlockGroup([sub]), z[None], lam, Sigma[None],
                        sub.p0[None])
    x = rng.uniform(-1.0, 1.0, n)
    s = rng.uniform(0.1, 1.0, sub.n_h)
    kappa = rng.standard_normal(sub.n_g)
    gamma = rng.uniform(0.1, 1.0, sub.n_h)
    etaL = np.where(np.isfinite(sub.lb), rng.uniform(0.1, 1.0, n), 0.0)
    etaU = np.where(np.isfinite(sub.ub), rng.uniform(0.1, 1.0, n), 0.0)
    names = ("g", "h", "grad_f", "Jg", "Jh")
    for poison in [None, *names, "s", "etaL", "etaU"]:
        ev = dict(zip(names, (v[0] for v in w_new.eval_point(x[None], {}))))
        args = {"s": s.copy(), "etaL": etaL.copy(), "etaU": etaU.copy()}
        target = ev.get(poison, args.get(poison))
        if target is not None and target.size:
            target.flat[rng.integers(target.size)] = np.nan
        for mu in (0.0, 1e-3):
            ref, _ = _residuals(w_ref, x, args["s"], kappa, gamma,
                                args["etaL"], args["etaU"], mu, ev)
            new = local._Point(
                w_new, *(v[None] for v in (x, args["s"], kappa, gamma,
                                           args["etaL"], args["etaU"])),
                tuple(ev[k][None] for k in names),
            ).err(mu)[0]
            assert np.array_equal(new, ref, equal_nan=True), (poison, mu)
