"""Local solver: primal-dual interior point for the per-block proximal NLP.

Each outer iteration solves, independently per block,

    min_x  f(x, p) + lam' A x + (x - z)' Sigma (x - z)
    s.t.   g(x, p) = 0,   h(x, p) <= 0,   lb <= x <= ub.

Slack variables handle h; the box rows are kept in the barrier directly.
Newton steps act on the condensed symmetric KKT system with inertia
correction, a 0.995 fraction-to-boundary rule, and monotone barrier reduction
by a factor of 0.2.

Each point is evaluated and reduced to its residual parts once: the
stationarity, equality and slacked-inequality residuals r_x, r_g, r_h and the
complementarity products s*gamma, (x - lb)*etaL, (ub - x)*etaU, none of which
depend on the barrier parameter.  The KKT error at any mu subtracts mu from
the products only, so an accepted trial point carries its parts into the
next iteration's convergence test, barrier update and Newton right-hand
side.  The block's structure (bounded index sets, absent g/h) is fixed per
solve; empty constraint blocks cost no evaluation and no step arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import SingularKktError
from .linalg import LdlFactor

__all__ = ["LocalSolution", "solve_local"]

FTB = 0.995           # fraction-to-boundary
BARRIER_FACTOR = 0.2  # monotone mu reduction
MAX_NEWTON = 100


@dataclass
class LocalSolution:
    """KKT point of the proximal block NLP.

    ``eta`` stacks the box multipliers, lower bounds first (length 2 n_x,
    zeros for infinite bounds).  ``status`` is "converged", "max-iter", or
    "stalled"; ``iterations`` counts Newton steps (0 for an accepted warm
    start).
    """

    x: np.ndarray
    kappa: np.ndarray
    gamma: np.ndarray
    eta: np.ndarray
    status: str
    iterations: int
    kkt_residual: float


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


def solve_local(sub, z, lam, Sigma, p=None, warm=None, tol=1e-10):
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
