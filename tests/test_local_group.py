"""Lockstep group solves against the one-block solver they replaced.

The reference below is the interior-point loop as it stood when every block
was solved on its own, kept verbatim.  Every lane of ``solve_group`` must
return arrays equal to it bit for bit (signs of zeros included), the same
status, Newton count and KKT residual, or the same error; the group takes
exactly as many Newton steps as its lanes do alone.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from aladin import expr as ex
from aladin import local
from aladin.driver import run_admm, run_aladin
from aladin.errors import SolverError
from aladin.examples_lib import coupled_qp, ocp_chain, tutorial
from aladin.expr import VectorFunction, var
from aladin.linalg import LdlFactor
from aladin.errors import SingularKktError
from aladin.local import (
    BARRIER_FACTOR, FTB, MAX_NEWTON, LocalSolution, group_blocks, solve_group,
)
from aladin.problem import SeparableProblem, SolverOptions, Subproblem

BENCH = Path(__file__).resolve().parent.parent / "bench"


# -- reference: the one-block solver ----------------------------------------

class _Work:
    """One block at fixed (z, lam, Sigma, p), and its structure.

    ``mL``/``mU`` mark the finite lower/upper bounds, ``iL``/``iU`` index
    them and ``lbL``/``ubU`` hold them; absent g/h are stood in for by
    empty arrays and never evaluated.
    """

    def __init__(self, sub, z, lam, Sigma, p):
        n = sub.n_x
        self.sub = sub
        self.z = z
        self.Sigma = Sigma
        self.p = p
        self.n_g = sub.n_g
        self.n_h = sub.n_h
        self.Alam = sub.A.T @ lam if lam.size else np.zeros(n)
        self.mL = np.isfinite(sub.lb)
        self.mU = np.isfinite(sub.ub)
        self.iL = np.flatnonzero(self.mL)
        self.iU = np.flatnonzero(self.mU)
        self.lbL = sub.lb[self.iL]
        self.ubU = sub.ub[self.iU]
        self.bounded = bool(self.iL.size or self.iU.size)
        self.empty = np.zeros(0)
        self.empty_jac = np.zeros((0, n))

    def eval_point(self, x):
        """(g, h, grad f, Jg, Jh) at x."""
        sub, p = self.sub, self.p
        g = ex.evaluate(sub.g, x, p) if self.n_g else self.empty
        h = ex.evaluate(sub.h, x, p) if self.n_h else self.empty
        grad_f = ex.gradient(sub.f, x, p)
        Jg = ex.jacobian(sub.g, x, p) if self.n_g else self.empty_jac
        Jh = ex.jacobian(sub.h, x, p) if self.n_h else self.empty_jac
        return g, h, grad_f, Jg, Jh

    def hess(self, x, kappa, gamma):
        H = ex.lagrangian_hessian(
            self.sub.f, self.sub.g, self.sub.h, x, self.p, kappa, gamma
        )
        return H + 2.0 * self.Sigma


class _Point:
    """A primal-dual point with its evaluation and mu-free residual parts.

    ``dL``/``dU`` are the distances to the finite bounds, ``cs``/``pL``/``pU``
    the complementarity products; ``r_g`` is g itself.
    """

    __slots__ = ("x", "s", "kappa", "gamma", "etaL", "etaU", "r_g", "h", "Jg",
                 "Jh", "r_x", "r_h", "cs", "dL", "dU", "pL", "pU", "head",
                 "tail")

    def __init__(self, w, x, s, kappa, gamma, etaL, etaU, ev):
        g, h, grad_f, Jg, Jh = ev
        self.x, self.s, self.kappa, self.gamma = x, s, kappa, gamma
        self.etaL, self.etaU = etaL, etaU
        self.r_g, self.h, self.Jg, self.Jh = g, h, Jg, Jh
        r_x = grad_f + w.Alam + 2.0 * (w.Sigma @ (x - w.z))
        if w.n_g:
            r_x = r_x + Jg.T @ kappa
        if w.n_h:
            r_x = r_x + Jh.T @ gamma
        self.r_x = r_x - etaL + etaU
        self.r_h = h + s
        self.cs = s * gamma
        self.dL = x[w.iL] - w.lbL
        self.dU = w.ubU - x[w.iU]
        self.pL = self.dL * etaL[w.iL]
        self.pU = self.dU * etaU[w.iU]
        # max norms of the mu-free parts, in the order err() visits them
        self.head = [np.abs(v).max() for v in (self.r_x, g) if v.size]
        self.tail = [np.abs(self.r_h).max()] if self.r_h.size else []

    def err(self, mu):
        """Max norm of the KKT residual at barrier parameter mu.

        The parts are visited as r_x, r_g, s*gamma - mu, the bound products
        less mu, r_h, so a NaN counts only where it comes first.  Bound
        products exist only on finite bounds; the zeros the other entries
        would add cannot change a maximum that r_x opens.
        """
        parts = list(self.head)
        for prod in (self.cs, self.pL, self.pU):
            if prod.size:
                parts.append(np.abs(prod - mu).max())
        return max(parts + self.tail, default=0.0)


def _max_step(v, dv):
    """Largest alpha <= 1 with v + alpha dv >= (1 - FTB) v."""
    neg = dv < 0
    if not np.any(neg):
        return 1.0
    return min(1.0, float(np.min(-FTB * v[neg] / dv[neg])))


def _solve_newton(W, Jg, rhs_x, rhs_g):
    """Condensed KKT solve with primal (and, late, dual) inertia correction."""
    n, m = W.shape[0], Jg.shape[0]
    scale = 1.0 + np.abs(W).max(initial=0.0)
    zeta = 0.0
    zeta_d = 0.0
    for attempt in range(12):
        K = np.zeros((n + m, n + m))
        K[:n, :n] = W + zeta * np.eye(n)
        if m:
            K[:n, n:] = Jg.T
            K[n:, :n] = Jg
            if zeta_d:
                K[n:, n:] = -zeta_d * np.eye(m)
        try:
            fac = LdlFactor(K)
            npos, nneg, nzero = fac.inertia()
            if npos == n and nneg == m and nzero == 0:
                sol = fac.solve(np.concatenate([rhs_x, rhs_g]))
                if np.all(np.isfinite(sol)):
                    return sol[:n], sol[n:]
        except SingularKktError:
            pass
        zeta = zeta * 100.0 if zeta else 1e-8 * scale
        if attempt >= 6:
            zeta_d = zeta_d * 100.0 if zeta_d else 1e-10
    raise SingularKktError("local KKT system could not be corrected to solvable form")


def reference_solve_local(sub, z, lam, Sigma, p=None, warm=None, tol=1e-10):
    """Solve one block's proximal NLP to the given KKT tolerance."""
    z = np.asarray(z, dtype=float)
    lam = np.asarray(lam, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    p = sub.p0 if p is None else np.asarray(p, dtype=float)
    n, n_g, n_h = sub.n_x, sub.n_g, sub.n_h
    w = _Work(sub, z, lam, Sigma, p)
    iL, iU = w.iL, w.iU

    # shortcut: a warm start already at KKT quality is returned unchanged
    if warm is not None:
        ev = w.eval_point(warm.x)
        s_exact = np.maximum(-ev[1], 0.0)
        err = _Point(
            w, warm.x, s_exact, warm.kappa, warm.gamma,
            warm.eta[:n], warm.eta[n:], ev,
        ).err(0.0)
        if err <= tol and np.all(warm.x >= sub.lb) and np.all(warm.x <= sub.ub):
            return LocalSolution(
                warm.x.copy(), warm.kappa.copy(), warm.gamma.copy(),
                warm.eta.copy(), "converged", 0, err,
            )

    # strictly interior start
    x = warm.x.copy() if warm is not None else z.copy()
    if w.bounded:
        span = sub.ub - sub.lb
        margin = np.where(
            np.isfinite(span), np.minimum(1e-2 * (1.0 + np.abs(x)), 0.25 * span), 1e-2
        )
        x = np.where(w.mL, np.maximum(x, sub.lb + margin), x)
        x = np.where(w.mU, np.minimum(x, sub.ub - margin), x)

    # the warm check's evaluation stands when the projection kept x
    if warm is None or not np.array_equal(x, warm.x):
        ev = w.eval_point(x)
    h = ev[1]
    etaL = np.zeros(n)
    etaU = np.zeros(n)
    if warm is not None:
        s = np.maximum(-h, 1e-8)
        gamma = np.maximum(warm.gamma, 1e-8)
        kappa = warm.kappa.copy()
        comp = float(np.mean(s * gamma)) if n_h else 1e-3
        mu = max(tol / 10.0, min(1e-3, comp))
        etaL[iL] = np.maximum(warm.eta[:n][iL], 1e-8)
        etaU[iU] = np.maximum(warm.eta[n:][iU], 1e-8)
    else:
        mu = 1e-1
        s = np.maximum(-h, 1e-2)
        gamma = mu / s
        kappa = np.zeros(n_g)
        etaL[iL] = mu / (x[iL] - w.lbL)
        etaU[iU] = mu / (w.ubU - x[iU])
    pt = _Point(w, x, s, kappa, gamma, etaL, etaU, ev)

    mu_min = tol / 10.0
    status = "max-iter"
    err0 = np.inf
    best_pri = np.inf
    stall = 0
    newton = 0
    for _ in range(MAX_NEWTON):
        err0 = pt.err(0.0)
        if err0 <= tol:
            status = "converged"
            break

        # infeasibility watch: true violation failing to decrease
        pri = max(
            np.abs(pt.r_g).max(initial=0.0),
            np.maximum(pt.h, 0.0).max(initial=0.0),
        )
        if pri >= best_pri - 1e-16 and pri > tol:
            stall += 1
            if stall >= 10:
                status = "stalled"
                break
        else:
            stall = 0
        best_pri = min(best_pri, pri)

        err_mu = pt.err(mu)
        if err_mu <= 10.0 * mu and mu > mu_min:
            mu = max(mu_min, BARRIER_FACTOR * mu)
            err_mu = pt.err(mu)

        x, s, kappa, gamma = pt.x, pt.s, pt.kappa, pt.gamma
        etaL, etaU = pt.etaL, pt.etaU
        W = w.hess(x, kappa, gamma)
        rhs_x = -pt.r_x
        if w.bounded:
            r_L = pt.pL - mu
            r_U = pt.pU - mu
            D = np.zeros(n)
            D[iL] = etaL[iL] / pt.dL
            D[iU] += etaU[iU] / pt.dU
            W.flat[:: n + 1] += D
            rhs_x[iL] -= r_L / pt.dL
            rhs_x[iU] += r_U / pt.dU
        if n_h:
            Jh = pt.Jh
            r_cs = pt.cs - mu
            W = W + Jh.T @ ((gamma / s)[:, None] * Jh)
            rhs_x = rhs_x - Jh.T @ ((gamma * pt.r_h - r_cs) / s)
        dx, dkappa = _solve_newton(W, pt.Jg, rhs_x, -pt.r_g)
        newton += 1

        a_pri = a_dual = 1.0
        if n_h:
            ds = -pt.r_h - Jh @ dx
            dgamma = (-r_cs - gamma * ds) / s
            a_pri = _max_step(s, ds)
            a_dual = _max_step(gamma, dgamma)
        if iL.size:
            detaL = np.zeros(n)
            detaL[iL] = (-r_L - etaL[iL] * dx[iL]) / pt.dL
            a_pri = min(a_pri, _max_step(pt.dL, dx[iL]))
            a_dual = min(a_dual, _max_step(etaL[iL], detaL[iL]))
        if iU.size:
            detaU = np.zeros(n)
            detaU[iU] = (-r_U + etaU[iU] * dx[iU]) / pt.dU
            a_pri = min(a_pri, _max_step(pt.dU, -dx[iU]))
            a_dual = min(a_dual, _max_step(etaU[iU], detaU[iU]))

        # backtrack on the barrier KKT residual; the last trial is forced
        theta = 1.0
        moved = False
        for bt in range(9):
            t_pri = theta * a_pri
            t_dual = theta * a_dual
            xt = x + t_pri * dx
            try:
                evt = w.eval_point(xt)
            except ex.DomainEvalError:
                theta *= 0.5
                continue
            trial = _Point(
                w, xt,
                s + t_pri * ds if n_h else s,
                kappa + t_dual * dkappa if n_g else kappa,
                gamma + t_dual * dgamma if n_h else gamma,
                etaL + t_dual * detaL if iL.size else etaL,
                etaU + t_dual * detaU if iU.size else etaU,
                evt,
            )
            errt = trial.err(mu)
            if np.isfinite(errt) and (
                errt <= (1.0 - 1e-4 * theta * a_pri) * err_mu or bt == 8
            ):
                pt = trial
                moved = True
                break
            theta *= 0.5
        if not moved:
            # every trial left the evaluation domain; give up on this center
            status = "stalled"
            break

    eta = np.concatenate([pt.etaL, pt.etaU])
    return LocalSolution(pt.x, pt.kappa, pt.gamma, eta, status, newton, err0)


# -- comparison --------------------------------------------------------------

def reference_lane(sub, z, lam, Sigma, p, warm, tol):
    try:
        return reference_solve_local(sub, z, lam, Sigma, p=p, warm=warm, tol=tol)
    except (ex.DomainEvalError, SolverError) as err:
        return err


def run_group(monkeypatch, group, z, lam, Sigma, p, warm=None, tol=1e-10):
    """The group solve against the reference lane by lane; returns its results."""
    refs = [
        reference_lane(sub, z[k], lam, Sigma[k], p[k],
                       None if warm is None else warm[k], tol)
        for k, sub in enumerate(group.subs)
    ]
    calls = [0]
    newton = local._solve_newton

    def counted(*args):
        calls[0] += 1
        return newton(*args)

    monkeypatch.setattr(local, "_solve_newton", counted)
    outs = solve_group(group, z, lam, Sigma, p, warm=warm, tol=tol)
    monkeypatch.setattr(local, "_solve_newton", newton)

    assert len(outs) == len(refs)
    for k, (new, ref) in enumerate(zip(outs, refs)):
        if isinstance(ref, Exception):
            assert type(new) is type(ref), k
            if isinstance(ref, ex.DomainEvalError):
                assert new.node is ref.node, k
            continue
        assert isinstance(new, LocalSolution), (k, new)
        for name in ("x", "kappa", "gamma", "eta"):
            a, b = getattr(new, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.shape == b.shape, (k, name)
            assert np.array_equal(a, b), (k, name)
            assert np.array_equal(np.signbit(a), np.signbit(b)), (k, name)
        assert new.status == ref.status, k
        assert new.iterations == ref.iterations, k
        assert np.array_equal(new.kkt_residual, ref.kkt_residual, equal_nan=True), k
    # no lane takes a Newton step it would not take alone
    if all(isinstance(r, LocalSolution) for r in refs):
        assert calls[0] == sum(r.iterations for r in refs)
    return outs


def random_sigma(rng, n):
    M = rng.standard_normal((n, n))
    return 0.1 * M @ M.T + np.diag(rng.uniform(0.2, 3.0, n))


def sensor_problem():
    spec = importlib.util.spec_from_file_location(
        "sensor_net_for_local_group", BENCH / "sensor_net.py"
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolve their module by name
    spec.loader.exec_module(mod)
    return mod.build_problem(mod.sensor_data(11))


def lane_data(problem, group, rng, scale=0.3):
    z = [problem.subproblems[i].z0 + scale * rng.standard_normal(len(group.subs[0].z0))
         for i in group.blocks]
    Sigma = [random_sigma(rng, group.n) for _ in group.blocks]
    p = [problem.parameters[i] for i in group.blocks]
    return z, Sigma, p


# -- cases ---------------------------------------------------------------------

PROBLEMS = {
    "coupled_qp": lambda: coupled_qp(n_blocks=8, block_size=3),
    "sensor_net": sensor_problem,
    "tutorial": tutorial,
    "ocp_chain": ocp_chain,
}
GROUP_SIZES = {
    "coupled_qp": [8], "sensor_net": [20, 9, 1], "tutorial": [1, 1],
    "ocp_chain": [1, 1, 1],
}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_groups_are_formed_once_in_block_order(name):
    problem = PROBLEMS[name]()
    groups = group_blocks(problem.subproblems)
    assert [len(g) for g in groups] == GROUP_SIZES[name]
    blocks = [i for g in groups for i in g.blocks]
    assert sorted(blocks) == list(range(problem.n_s))
    assert [g.blocks[0] for g in groups] == sorted(g.blocks[0] for g in groups)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_groups_cold_warm_and_moved(monkeypatch, name, seed):
    problem = PROBLEMS[name]()
    rng = np.random.default_rng(seed)
    for group in group_blocks(problem.subproblems):
        z, Sigma, p = lane_data(problem, group, rng)
        lam = rng.standard_normal(problem.n_c)
        tol = float(rng.choice([1e-6, 1e-9, 1e-12]))
        cold = run_group(monkeypatch, group, z, lam, Sigma, p, tol=tol)
        # same data, looser tolerance: every converged lane's warm start holds
        again = run_group(monkeypatch, group, z, lam, Sigma, p, warm=cold,
                          tol=10 * tol)
        for c, a in zip(cold, again):
            if c.status == "converged":
                assert a.iterations == 0
        # moved center and dual: the warm starts have to iterate
        z2 = [v + 0.05 * rng.standard_normal(v.size) for v in z]
        lam2 = lam + 0.05 * rng.standard_normal(problem.n_c)
        run_group(monkeypatch, group, z2, lam2, Sigma, p, warm=cold, tol=tol)


def test_lanes_leave_at_different_newton_steps(monkeypatch):
    problem = sensor_problem()
    rng = np.random.default_rng(7)
    group = group_blocks(problem.subproblems)[0]
    z, Sigma, p = lane_data(problem, group, rng, scale=0.5)
    sols = run_group(monkeypatch, group, z, rng.standard_normal(problem.n_c),
                     Sigma, p, tol=1e-10)
    assert len({s.iterations for s in sols}) > 2


def test_partial_warm_hits(monkeypatch):
    problem = coupled_qp(n_blocks=6, block_size=3)
    (group,) = group_blocks(problem.subproblems)
    rng = np.random.default_rng(3)
    z, Sigma, p = lane_data(problem, group, rng)
    lam = rng.standard_normal(problem.n_c)
    cold = run_group(monkeypatch, group, z, lam, Sigma, p, tol=1e-10)
    # half the centers move: those lanes iterate, the others keep their start
    z2 = [v + (0.1 if k % 2 else 0.0) for k, v in enumerate(z)]
    sols = run_group(monkeypatch, group, z2, lam, Sigma, p, warm=cold, tol=1e-10)
    assert [s.iterations == 0 for s in sols] == [k % 2 == 0 for k in range(6)]


def test_a_group_of_one_runs_only_its_scalar_tapes(monkeypatch):
    # ocp_chain's blocks are groups of one: every evaluation is one of the
    # block's own _Tape.run calls, and the lane tapes' ufunc loop is never
    # entered, cold or warm
    problem = ocp_chain()
    rng = np.random.default_rng(4)
    group = group_blocks(problem.subproblems)[1]
    own = {id(t) for t in group.tapes[0] if t is not None}
    z, Sigma, p = lane_data(problem, group, rng)
    lam = rng.standard_normal(problem.n_c)
    refs = run_group(monkeypatch, group, z, lam, Sigma, p, tol=1e-9)
    z2 = [v + 0.05 * rng.standard_normal(v.size) for v in z]
    runs = []
    scalar_run = ex._Tape.run

    def counted(tape, x, p):
        runs.append(id(tape))
        return scalar_run(tape, x, p)

    def refuse(*args):
        raise AssertionError("a group of one entered the ufunc loop")

    monkeypatch.setattr(ex._Tape, "run", counted)
    monkeypatch.setattr(ex._LaneTape, "_run_lanes", refuse)
    for warm in (None, refs):
        del runs[:]
        (sol,) = solve_group(group, z2, lam, Sigma, p, warm=warm, tol=1e-9)
        assert isinstance(sol, LocalSolution) and sol.iterations > 0
        assert len(runs) > sol.iterations and set(runs) <= own


def x_log_x_block(c, d):
    """c x0 log x0 + (x1 - d)^2: equal structure for every c, d not 0 or 1."""
    f = VectorFunction([c * (var(0) * ex.log(var(0))) + ex.square(var(1) - d)], 2)
    return Subproblem(f)


def test_one_lane_leaves_the_log_domain_while_its_neighbours_accept(monkeypatch):
    subs = [x_log_x_block(c, d) for c, d in ((1.5, 2.0), (0.7, -0.5), (2.5, 3.0))]
    (group,) = group_blocks(subs)
    # a weak proximal term lets lane 0's full step leave x0 > 0
    z = [np.array([3.0, 0.0]), np.array([1.0, 0.2]), np.array([0.8, 1.0])]
    Sigma = [1e-6 * np.eye(2), np.eye(2), np.eye(2)]
    p = [np.zeros(0)] * 3
    raised = []
    gradient = ex.gradient

    def watched(fun, *args):
        try:
            return gradient(fun, *args)
        except ex.DomainEvalError:
            raised.append(fun)
            raise

    monkeypatch.setattr(ex, "gradient", watched)
    sols = run_group(monkeypatch, group, z, np.zeros(0), Sigma, p, tol=1e-10)
    # only lane 0 left the domain when solved alone
    assert raised and all(fun is subs[0].f for fun in raised)
    assert all(s.status == "converged" for s in sols)


def test_a_stalled_lane_leaves_the_others_running(monkeypatch):
    # g = x0^2 + c has no root for c > 0
    subs = [
        Subproblem(VectorFunction([ex.square(var(0) - d)], 1),
                   g=VectorFunction([ex.square(var(0)) + c], 1))
        for c, d in ((-0.5, 0.3), (2.0, 0.5), (-0.25, -0.2))
    ]
    (group,) = group_blocks(subs)
    z = [np.array([0.5])] * 3
    sols = run_group(monkeypatch, group, z, np.zeros(0), [np.eye(1)] * 3,
                     [np.zeros(0)] * 3, tol=1e-10)
    assert [s.status for s in sols] == ["converged", "stalled", "converged"]


def test_domain_error_at_the_start_is_kept_per_lane(monkeypatch):
    subs = [x_log_x_block(c, d) for c, d in ((1.5, 2.0), (0.7, -0.5), (2.5, 3.0))]
    (group,) = group_blocks(subs)
    z = [np.array([0.5, 0.0]), np.array([-1.0, 0.2]), np.array([-2.0, 1.0])]
    outs = run_group(monkeypatch, group, z, np.zeros(0), [np.eye(2)] * 3,
                     [np.zeros(0)] * 3, tol=1e-10)
    assert isinstance(outs[0], LocalSolution)
    for k in (1, 2):
        assert isinstance(outs[k], ex.DomainEvalError)
        with pytest.raises(ex.DomainEvalError) as alone:
            local.solve_local(subs[k], z[k], np.zeros(0), np.eye(2))
        assert outs[k].node is alone.value.node
        assert str(outs[k]) == str(alone.value)


@pytest.mark.parametrize("solver", [run_aladin, run_admm])
def test_driver_raises_the_lowest_failing_block(solver):
    # blocks 0 and 2 form one group and block 1 another; blocks 1 and 2
    # start outside the log domain, and block 1's error is the one raised
    b0, b2 = x_log_x_block(1.5, 2.0), x_log_x_block(0.7, -0.5)
    f1 = VectorFunction([var(0) * ex.log(var(0))], 1)
    subs = [
        Subproblem(b0.f, A=[[1.0, 0.0]], z0=[0.5, 0.0]),
        Subproblem(f1, A=[[1.0]], z0=[-1.0]),
        Subproblem(b2.f, A=[[1.0, 0.0]], z0=[-1.0, 0.0]),
    ]
    problem = SeparableProblem(subs, b=[1.0])
    assert [g.blocks for g in group_blocks(subs)] == [(0, 2), (1,)]
    with pytest.raises(ex.DomainEvalError, match=r"^outer iteration 1: ") as info:
        solver(problem, SolverOptions())
    with pytest.raises(ex.DomainEvalError) as alone:
        local.solve_local(subs[1], subs[1].z0, np.zeros(1), np.eye(1))
    assert info.value.node is alone.value.node
    assert str(info.value) == f"outer iteration 1: {alone.value}"


def test_a_lane_whose_every_trial_leaves_the_domain_stalls(monkeypatch):
    # warm at x0 = 1e-3 with the center far below zero: every one of the
    # nine trials of lane 0 has x0 < 0, while lane 1 steps as usual
    subs = [x_log_x_block(c, d) for c, d in ((1.5, 2.0), (0.7, -0.5))]
    (group,) = group_blocks(subs)
    z = [np.array([-1e6, 0.0]), np.array([1.0, 0.2])]
    warm = [
        LocalSolution(np.array([1e-3, 0.0]), np.zeros(0), np.zeros(0),
                      np.zeros(4), "converged", 1, 1.0),
        LocalSolution(np.array([0.9, 0.1]), np.zeros(0), np.zeros(0),
                      np.zeros(4), "converged", 1, 1.0),
    ]
    sols = run_group(monkeypatch, group, z, np.zeros(0), [np.eye(2)] * 2,
                     [np.zeros(0)] * 2, warm=warm, tol=1e-10)
    assert sols[0].status == "stalled" and sols[0].iterations == 1
    assert sols[1].status == "converged" and sols[1].iterations > 1


def test_solve_local_checks_the_lengths_of_z_and_p():
    f = VectorFunction([ex.square(var(0) - ex.param(0)) + ex.square(var(1))], 2, 1)
    sub = Subproblem(f, p=[0.5])
    eye = np.eye(2)
    sol = local.solve_local(sub, np.zeros(2), np.zeros(0), eye, p=[1.0])
    assert sol.status == "converged"
    with pytest.raises(ValueError, match=r"^expected p of length 1, got shape \(2,\)$"):
        local.solve_local(sub, np.zeros(2), np.zeros(0), eye, p=[1.0, 2.0])
    with pytest.raises(ValueError, match=r"^expected p of length 1, got shape \(0,\)$"):
        local.solve_local(sub, np.zeros(2), np.zeros(0), eye, p=[])
    with pytest.raises(ValueError, match=r"^expected z of length 2, got shape \(3,\)$"):
        local.solve_local(sub, np.zeros(3), np.zeros(0), eye)
    (group,) = group_blocks([sub, sub])
    with pytest.raises(ValueError, match=r"^expected 2 p vectors, got shape \(1, 1\)$"):
        solve_group(group, [np.zeros(2)] * 2, np.zeros(0), [eye] * 2, [[1.0]])
