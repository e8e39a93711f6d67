"""Independent oracles used across the test suite.

Everything here is deliberately decoupled from the solver internals: finite
differences, dense KKT solves, grid refinement, per-block active sets and
their Jacobians, and scipy-based centralized solves.  Expected values in the
tests are computed (or were frozen) from these routines, never from the code
paths they check.
"""

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from aladin import expr as ex


def rel_err(approx, exact):
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    if approx.size == 0:
        return 0.0
    return np.max(np.abs(approx - exact)) / (1.0 + np.max(np.abs(exact)))


# -- finite differences ------------------------------------------------------

def fd_gradient(f, x, h=1e-6):
    """Central differences of a scalar callable."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_jacobian(f, x, m, h=1e-6):
    x = np.asarray(x, dtype=float)
    J = np.zeros((m, x.size))
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        J[:, i] = (np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * h)
    return J


def fd_hessian_of_scalar(f, x, h=1e-4):
    """Second-order central differences of a scalar callable."""
    x = np.asarray(x, dtype=float)
    n = x.size
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            v = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4 * h * h)
            H[i, j] = v
            H[j, i] = v
    return H


# -- dense QP / KKT oracles --------------------------------------------------

def solve_equality_qp(H, g, A, b):
    """min 1/2 x'Hx + g'x  s.t.  Ax = b  by one dense KKT solve."""
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float)
    A = np.asarray(A, dtype=float).reshape(-1, H.shape[0])
    b = np.asarray(b, dtype=float).reshape(-1)
    n, m = H.shape[0], A.shape[0]
    K = np.zeros((n + m, n + m))
    K[:n, :n] = H
    K[:n, n:] = A.T
    K[n:, :n] = A
    rhs = np.concatenate([-g, b])
    sol = np.linalg.solve(K, rhs)
    return sol[:n], sol[n:]


def grid_refine_minimize(f, feasible, lo, hi, levels=20, pts=41):
    """Brute-force grid search with successive window shrinking.

    ``f`` maps a point to a scalar, ``feasible`` to a bool.  The window
    [lo, hi] (vectors) is re-centered on the incumbent and shrunk each level;
    the six-cell margin keeps boundary optima inside the next window even
    when the feasible set cuts the grid.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    n = lo.size
    best = None
    best_val = np.inf
    for _ in range(levels):
        axes = [np.linspace(lo[i], hi[i], pts) for i in range(n)]
        grids = np.meshgrid(*axes, indexing="ij")
        flat = np.stack([gg.ravel() for gg in grids], axis=1)
        for pt in flat:
            if not feasible(pt):
                continue
            v = f(pt)
            if v < best_val:
                best_val = v
                best = pt.copy()
        span = (hi - lo) * (6.0 / (pts - 1))
        lo = best - span
        hi = best + span
    return best, best_val


# -- per-block active sets ---------------------------------------------------

@dataclass(frozen=True)
class ActiveSet:
    """Indices into h~ = (h, lb - x, x - ub) whose value exceeds -margin."""

    indices: tuple[int, ...]
    n_h: int
    n_x: int

    @property
    def nonbox(self):
        """Active indices that belong to h itself (curvature carriers)."""
        return tuple(j for j in self.indices if j < self.n_h)


def combined_inequalities(sub, x, p=None):
    """Values of h~ = (h, lb - x, x - ub); infinite bounds give -inf rows."""
    p = sub.p0 if p is None else p
    hv = ex.evaluate(sub.h, x, p)
    return np.concatenate([hv, sub.lb - x, x - sub.ub])


def detect_active(sub, x, p, tau):
    """Active set at x: every j with h~_j(x) > -tau.

    A block without inequalities and finite bounds has nothing that could be
    active, so it gets the empty set without evaluating anything.
    """
    if tau <= 0:
        raise ValueError("active-set margin must be positive")
    if sub.n_h == 0 and not (np.isfinite(sub.lb).any() or np.isfinite(sub.ub).any()):
        return ActiveSet((), 0, sub.n_x)
    vals = combined_inequalities(sub, x, p)
    idx = tuple(int(j) for j in np.flatnonzero(vals > -tau))
    return ActiveSet(idx, sub.n_h, sub.n_x)


def active_jacobian(sub, x, p, act):
    """Rows: grad g_i stacked over grad h~_j for j active, in index order.

    Box rows are unit vectors: -e_k for an active lower bound on x_k,
    +e_k for an active upper bound.
    """
    p = sub.p0 if p is None else p
    n = sub.n_x
    rows = [ex.jacobian(sub.g, x, p)]
    if act.indices:
        Jh = ex.jacobian(sub.h, x, p)
        for j in act.indices:
            if j < act.n_h:
                rows.append(Jh[j: j + 1])
            elif j < act.n_h + n:
                e = np.zeros((1, n))
                e[0, j - act.n_h] = -1.0
                rows.append(e)
            else:
                e = np.zeros((1, n))
                e[0, j - act.n_h - n] = 1.0
                rows.append(e)
    return np.vstack(rows) if rows else np.zeros((0, n))


# -- centralized solves of SeparableProblem instances -------------------------

def merge_to_arrays(problem):
    """Offsets and stacked coupling matrix of a SeparableProblem."""
    sizes = [s.n_x for s in problem.subproblems]
    offs = np.concatenate([[0], np.cumsum(sizes)])
    return sizes, offs


def solve_centralized(problem, x0=None, tol=1e-12):
    """Solve the full coupled NLP monolithically with scipy trust-constr.

    The consensus rows are handed over as linear equality constraints; local
    g/h become nonlinear constraints.  Independent of every solver module.
    """
    subs = problem.subproblems
    sizes, offs = merge_to_arrays(problem)
    n = offs[-1]
    n_c = problem.n_c

    def split(xx):
        return [xx[offs[i]: offs[i + 1]] for i in range(len(subs))]

    def obj(xx):
        return sum(
            float(ex.evaluate(s.f, xi, problem.parameters[i])[0])
            for i, (s, xi) in enumerate(zip(subs, split(xx)))
        )

    def grad(xx):
        return np.concatenate(
            [
                ex.gradient(s.f, xi, problem.parameters[i])
                for i, (s, xi) in enumerate(zip(subs, split(xx)))
            ]
        )

    constraints = []
    if n_c:
        Afull = np.zeros((n_c, n))
        for i, s in enumerate(subs):
            Afull[:, offs[i]: offs[i + 1]] = s.A
        constraints.append(
            scipy.optimize.LinearConstraint(Afull, problem.b, problem.b)
        )
    for i, s in enumerate(subs):
        if s.n_g:
            def gfun(xx, i=i, s=s):
                return ex.evaluate(s.g, split(xx)[i], problem.parameters[i])

            def gjac(xx, i=i, s=s):
                J = np.zeros((s.n_g, n))
                J[:, offs[i]: offs[i + 1]] = ex.jacobian(
                    s.g, split(xx)[i], problem.parameters[i]
                )
                return J

            constraints.append(
                scipy.optimize.NonlinearConstraint(gfun, 0.0, 0.0, jac=gjac)
            )
        if s.n_h:
            def hfun(xx, i=i, s=s):
                return ex.evaluate(s.h, split(xx)[i], problem.parameters[i])

            def hjac(xx, i=i, s=s):
                J = np.zeros((s.n_h, n))
                J[:, offs[i]: offs[i + 1]] = ex.jacobian(
                    s.h, split(xx)[i], problem.parameters[i]
                )
                return J

            constraints.append(
                scipy.optimize.NonlinearConstraint(hfun, -np.inf, 0.0, jac=hjac)
            )
    lb = np.concatenate([s.lb for s in subs])
    ub = np.concatenate([s.ub for s in subs])
    bounds = scipy.optimize.Bounds(lb, ub)
    if x0 is None:
        x0 = np.concatenate([s.z0 for s in subs])
    res = scipy.optimize.minimize(
        obj,
        x0,
        jac=grad,
        method="trust-constr",
        constraints=constraints,
        bounds=bounds,
        options={"gtol": tol, "xtol": tol, "maxiter": 3000},
    )
    return split(res.x), res


# -- tutorial elimination oracle ----------------------------------------------

def tutorial_solution():
    """KKT point of min 2(x1-1)^2 + (x2-2)^2 s.t. -1 <= x1 x2 <= 1.5.

    The unconstrained optimum (1, 2) has product 2 > 1.5, so the upper
    branch is active; eliminate x1 = 1.5/x2 and find the stationary x2 by
    bracketed root finding.
    """
    def dphi(c):
        a = 1.5 / c
        return -6.0 * (a - 1.0) / c**2 + 2.0 * (c - 2.0)

    c = scipy.optimize.brentq(dphi, 1.0, 2.0, xtol=1e-15)
    a = 1.5 / c
    lam = -4.0 * (a - 1.0)
    gam = lam / c
    return np.array([a, c]), lam, gam
