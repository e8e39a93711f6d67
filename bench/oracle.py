"""Independent references and the pass/fail check of one solve.

Nothing here calls the solver modules.  QP instances are assembled
centrally from gradient and function probes of each block (exact for a
quadratic objective and affine equalities) and solved by dense KKT solves
over an active-set iteration on the box bounds.  The sensor network is
solved from its raw measurements, over the sensor positions alone, with
scipy's SLSQP and then polished by Newton's method on its KKT system.
"""

from __future__ import annotations

import numpy as np

from aladin import expr as ex


def rel_err(xs, ref):
    """max |x - ref| / (1 + max |ref|) over all blocks."""
    a = np.concatenate(xs)
    b = np.concatenate(ref)
    return float(np.abs(a - b).max() / (1.0 + np.abs(b).max()))


def consensus_violation(problem, xs):
    """||sum_i A_i x_i - b||_inf."""
    r = -problem.b.copy()
    for sub, x in zip(problem.subproblems, xs):
        r += sub.A @ x
    return float(np.abs(r).max()) if r.size else 0.0


def check(problem, sol, ref, term_eps, tol):
    """Why a solve failed, or None when it passes.

    ``sol`` is a Solution or the exception the solve raised.  The
    termination string is deliberately not judged.
    """
    if isinstance(sol, BaseException):
        return f"raised {type(sol).__name__}: {sol}"
    viol = consensus_violation(problem, sol.xs)
    if not viol <= 10.0 * term_eps:
        return f"consensus violation {viol:.3e} > 10 * term_eps"
    err = rel_err(sol.xs, ref)
    if not err <= tol:
        return f"off the reference by {err:.3e} > {tol:.0e}"
    return None


# -- QP reference --------------------------------------------------------------

def _block_qp(sub, p):
    """(H, q, J, g0) with f = 1/2 x'Hx + q'x + const and g = Jx + g0."""
    if sub.n_h:
        raise ValueError("the QP reference takes no nonlinear inequalities")
    n = sub.n_x
    zero = np.zeros(n)
    q = ex.gradient(sub.f, zero, p)
    g0 = ex.evaluate(sub.g, zero, p)
    H = np.empty((n, n))
    J = np.empty((sub.n_g, n))
    for j in range(n):
        e = zero.copy()
        e[j] = 1.0
        H[:, j] = ex.gradient(sub.f, e, p) - q
        J[:, j] = ex.evaluate(sub.g, e, p) - g0
    return 0.5 * (H + H.T), q, J, g0


def box_qp(H, q, E, e, lb, ub, max_iter=200):
    """min 1/2 x'Hx + q'x  s.t.  Ex = e, lb <= x <= ub, for H PD on null(E).

    Each pass holds the guessed active bounds, solves the equality QP by one
    dense KKT solve, then holds the most violated bound or, when none is
    violated, releases the held bound whose multiplier has the worst sign,
    until neither exists.
    """
    n = q.size
    lower = np.zeros(n, dtype=bool)
    upper = np.zeros(n, dtype=bool)
    for _ in range(max_iter):
        held = np.flatnonzero(lower | upper)
        F = np.zeros((held.size, n))
        F[np.arange(held.size), held] = 1.0
        C = np.vstack([E, F])
        d = np.concatenate([e, np.where(lower, lb, ub)[held]])
        m = C.shape[0]
        K = np.block([[H, C.T], [C, np.zeros((m, m))]])
        sol = np.linalg.solve(K, np.concatenate([-q, d]))
        x, y = sol[:n], sol[n + E.shape[0]:]
        viol = np.maximum(lb - x, x - ub)
        viol[held] = 0.0
        j = int(np.argmax(viol)) if n else 0
        if n and viol[j] > 1e-12 * (1.0 + np.abs(x).max()):
            (lower if x[j] < lb[j] else upper)[j] = True
            continue
        # stationarity H x + q + E'nu + y = 0: a held lower bound needs
        # y <= 0, a held upper bound y >= 0
        wrong = np.where(lower[held], y, -y)
        if held.size and wrong.max() > 0.0:
            k = held[int(np.argmax(wrong))]
            lower[k] = upper[k] = False
            continue
        return x
    raise RuntimeError("active-set iteration of the QP reference did not settle")


def qp_reference(problem):
    """Per-block solution of a QP-structured SeparableProblem at its parameters."""
    subs = problem.subproblems
    offs = np.concatenate([[0], np.cumsum([s.n_x for s in subs])])
    n = offs[-1]
    H = np.zeros((n, n))
    q = np.zeros(n)
    eq_rows, eq_rhs = [], []
    for i, sub in enumerate(subs):
        Hi, qi, Ji, g0 = _block_qp(sub, problem.parameters[i])
        a, b = offs[i], offs[i + 1]
        H[a:b, a:b] = Hi
        q[a:b] = qi
        row = np.zeros((sub.n_g, n))
        row[:, a:b] = Ji
        eq_rows.append(row)
        eq_rhs.append(-g0)
    eq_rows.append(np.hstack([s.A for s in subs]))
    eq_rhs.append(problem.b)
    lb = np.concatenate([s.lb for s in subs])
    ub = np.concatenate([s.ub for s in subs])
    x = box_qp(H, q, np.vstack(eq_rows), np.concatenate(eq_rhs), lb, ub)
    return [x[offs[i]: offs[i + 1]] for i in range(len(subs))]


# -- sensor-network reference ------------------------------------------------------

class _Localization:
    """Centralized objective and constraints over the n x 2 sensor positions."""

    def __init__(self, data):
        self.xi = data.xi
        self.ends = np.array(data.edges)
        self.eta2 = data.eta ** 2
        self.r2 = data.r ** 2
        self.n = len(data.xi)

    def _edges(self, X):
        u = X[self.ends[:, 0]] - X[self.ends[:, 1]]
        return u, (u * u).sum(axis=1) - self.eta2

    def objective(self, v):
        X = v.reshape(self.n, 2)
        _, s = self._edges(X)
        return 0.25 * float(s @ s) + 0.5 * float(((X - self.xi) ** 2).sum())

    def gradient(self, v):
        X = v.reshape(self.n, 2)
        u, s = self._edges(X)
        g = X - self.xi
        np.add.at(g, self.ends[:, 0], s[:, None] * u)
        np.add.at(g, self.ends[:, 1], -s[:, None] * u)
        return g.ravel()

    def hessian(self, v, mult):
        """Hessian of the objective plus sum_k mult_k c_k."""
        X = v.reshape(self.n, 2)
        u, s = self._edges(X)
        H = np.diag(np.repeat(1.0 + 2.0 * mult, 2))
        for (i, j), uk, sk in zip(self.ends, u, s):
            M = sk * np.eye(2) + 2.0 * np.outer(uk, uk)
            for a, b, sign in ((i, i, 1), (j, j, 1), (i, j, -1), (j, i, -1)):
                H[2 * a:2 * a + 2, 2 * b:2 * b + 2] += sign * M
        return H

    def constraints(self, v):
        """c_k = ||chi_k - xi_k||^2 - r^2 <= 0."""
        X = v.reshape(self.n, 2)
        return ((X - self.xi) ** 2).sum(axis=1) - self.r2

    def constraint_jacobian(self, v):
        X = v.reshape(self.n, 2)
        J = np.zeros((self.n, 2 * self.n))
        for k in range(self.n):
            J[k, 2 * k:2 * k + 2] = 2.0 * (X[k] - self.xi[k])
        return J


def sensor_reference(data, newton_iters=30):
    """Sensor positions (n x 2) at a KKT point of the centralized problem."""
    import scipy.optimize

    prob = _Localization(data)
    res = scipy.optimize.minimize(
        prob.objective,
        data.xi.ravel(),
        jac=prob.gradient,
        method="SLSQP",
        constraints=[{
            "type": "ineq",
            "fun": lambda v: -prob.constraints(v),
            "jac": lambda v: -prob.constraint_jacobian(v),
        }],
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    v = res.x
    active = prob.constraints(v) > -1e-6 * prob.r2
    G = prob.constraint_jacobian(v)[active]
    mu = np.linalg.lstsq(G.T, -prob.gradient(v), rcond=None)[0]
    for _ in range(newton_iters):
        mult = np.zeros(prob.n)
        mult[active] = mu
        G = prob.constraint_jacobian(v)[active]
        r_x = prob.gradient(v) + G.T @ mu
        r_c = prob.constraints(v)[active]
        if max(np.abs(r_x).max(), np.abs(r_c).max(initial=0.0)) < 1e-13:
            break
        m = G.shape[0]
        K = np.block([[prob.hessian(v, mult), G.T], [G, np.zeros((m, m))]])
        step = np.linalg.solve(K, -np.concatenate([r_x, r_c]))
        v = v + step[:v.size]
        mu = mu + step[v.size:]
    else:
        raise RuntimeError("Newton polish of the sensor reference did not converge")
    if np.any(mu < -1e-10) or np.any(prob.constraints(v) > 1e-12):
        raise RuntimeError("sensor reference is not a KKT point")
    return v.reshape(prob.n, 2)
