"""Consensus coordination QP and the scaling-matrix heuristics.

The full-space QP couples the per-block quadratic models through the
consensus rows with a penalized slack,

    min  sum_i 1/2 dx_i' B_i dx_i + g_i' dx_i  +  lam' s + s' Delta s
    s.t. sum_i A_i (x_i + dx_i) - b = s,    C_i dx_i = 0,

whose slack is eliminated analytically (s = (lamQP - lam) / (2 Delta)); the
remaining symmetric indefinite KKT system is solved by one dense Bunch-Kaufman
factorization.  The reduced path solves the same QP after nullspace
projection, through the dual (Schur) system assembled from each block's
compact term on its own coupling rows; with Delta = (mu/2) I the two paths
produce identical steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sensitivity
from .errors import SingularKktError
from .linalg import sym_solve

__all__ = [
    "CoordinationResult",
    "ScalingState",
    "solve_coordination_full",
    "solve_coordination_reduced",
    "reduced_result",
    "update_sigma",
    "update_delta_by_violation",
]


@dataclass
class CoordinationResult:
    """Primal steps, slack, QP dual, and the verified KKT residual."""

    dx: list[np.ndarray]
    s: np.ndarray
    lam_qp: np.ndarray
    kkt_residual: float
    dv: list[np.ndarray] | None = None


@dataclass
class ScalingState:
    """Proximal weights Sigma_i, slack weight diagonal Delta, and mu.

    Without rowwise updates Delta stays (mu/2) * ones, which keeps the
    full-space and reduced formulations interchangeable.
    """

    sigmas: list[np.ndarray]
    delta: np.ndarray
    mu: float

    @classmethod
    def initial(cls, problem, opts):
        return cls(
            sigmas=[opts.sigma_init * np.eye(s.n_x) for s in problem.subproblems],
            delta=np.full(problem.n_c, opts.mu_init / 2.0),
            mu=opts.mu_init,
        )


def solve_coordination_full(packs, xs, lam, delta, A_list, b):
    """Solve the full-space coordination QP via its KKT system.

    Unknown layout: per-block primal steps, per-block multipliers for the
    active rows C_i dx_i = 0, then the consensus dual lamQP.  Coupling rows
    carry the -1/(2 Delta) slack block.
    """
    n_s = len(packs)
    n_c = b.size
    sizes = [p.grad.size for p in packs]
    c_rows = [p.jac_active.shape[0] for p in packs]
    off_x = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    off_c = (np.concatenate([[0], np.cumsum(c_rows)]) + off_x[-1]).astype(int)
    dim = off_c[-1] + n_c
    K = np.zeros((dim, dim))
    rhs = np.zeros(dim)
    for i, p in enumerate(packs):
        a, bnd = off_x[i], off_x[i + 1]
        K[a:bnd, a:bnd] = p.hess
        rhs[a:bnd] = -p.grad
        if c_rows[i]:
            ca, cb = off_c[i], off_c[i + 1]
            K[a:bnd, ca:cb] = p.jac_active.T
            K[ca:cb, a:bnd] = p.jac_active
        if n_c:
            K[a:bnd, off_c[-1]:] = A_list[i].T
            K[off_c[-1]:, a:bnd] = A_list[i]
    if n_c:
        K[off_c[-1]:, off_c[-1]:] = -np.diag(1.0 / (2.0 * delta))
        coupling = sum(A_list[i] @ xs[i] for i in range(n_s))
        rhs[off_c[-1]:] = b - coupling - lam / (2.0 * delta)
    try:
        sol = sym_solve(K, rhs)
    except SingularKktError as err:
        raise SingularKktError(
            f"coordination KKT system failed ({err}); check active-set ranks"
        ) from err
    res = np.abs(rhs - K @ sol).max() if dim else 0.0
    dx = [sol[off_x[i]: off_x[i + 1]] for i in range(n_s)]
    lam_qp = sol[off_c[-1]:].copy()
    s = (lam_qp - lam) / (2.0 * delta) if n_c else np.zeros(0)
    return CoordinationResult(dx=dx, s=s, lam_qp=lam_qp, kkt_residual=float(res))


def solve_coordination_reduced(reduced, couplings, lam, mu, b, Zs=None):
    """Solve the reduced QP through the Schur dual system.

    Parameters
    ----------
    reduced : list of ReducedBlock
    couplings : list of vectors
        Each block's current consensus contribution A_i x_i on its coupling
        rows ``reduced[i].rows``.
    lam, mu, b : dual iterate, slack penalty, coupling right-hand side.
    Zs : optional list of nullspace bases; when given, the lifted steps
        Z_i dv_i are returned in ``dx``.

    The dual solve is (sum_i S_i + I/mu) lamQP = sum_i s_i + lam/mu - b.
    Each block's compact term (S_i, s_i) is scatter-added onto its rows
    C(i), so no block forms an n_c-sized array; ``reduced_result`` then
    recovers every block's step.
    """
    n_c = b.size
    if n_c:
        S_sum = np.zeros((n_c, n_c))
        s_sum = np.zeros(n_c)
        for red, cpl in zip(reduced, couplings):
            # looked up at call time, so a wrapper installed on the
            # sensitivity module sees the nullspace path's calls too
            S, s = sensitivity.schur_contribution(red, coupling=cpl)
            S_sum[np.ix_(red.rows, red.rows)] += S
            s_sum[red.rows] += s
        M = S_sum + np.eye(n_c) / mu
        rhs = s_sum + lam / mu - b
        lam_qp = sym_solve(M, rhs)
        res = float(np.abs(rhs - M @ lam_qp).max())
    else:
        lam_qp = np.zeros(0)
        res = 0.0
    return reduced_result(reduced, lam_qp, lam, mu, res, Zs)


def reduced_result(reduced, lam_qp, lam, mu, kkt_residual, Zs=None):
    """Coordination result of a dual solution lamQP of the Schur system.

    Every block recovers its reduced step dv_i = -(B_i^-1 g_i + B_i^-1 A_i'
    lamQP[C(i)]), with A_i = red.A its compact coupling matrix and both
    solves taken from ``red.solved``, lifted to Z_i dv_i when the bases are
    given; the slack is s = (lamQP - lam) / mu.  The nullspace and bilevel
    paths share this recovery.
    """
    dvs = [-(red.solved[1] + red.solved[0] @ lam_qp[red.rows]) for red in reduced]
    dxs = [Z @ dv for Z, dv in zip(Zs, dvs)] if Zs is not None else dvs
    return CoordinationResult(
        dx=dxs, s=(lam_qp - lam) / mu, lam_qp=lam_qp,
        kkt_residual=kkt_residual, dv=dvs,
    )


def update_sigma(state, opts):
    """Geometric growth of Sigma_i and Delta, gated by pre-update norms."""
    sigmas = []
    for S in state.sigmas:
        if np.linalg.norm(S, np.inf) < opts.sigma_max:
            sigmas.append(opts.r_sigma * S)
        else:
            sigmas.append(S.copy())
    delta = state.delta
    mu = state.mu
    if delta.size and np.abs(delta).max() < opts.delta_max:
        delta = opts.r_delta * delta
        mu = opts.r_delta * mu
    else:
        delta = delta.copy()
    return ScalingState(sigmas=sigmas, delta=delta, mu=mu)


def update_delta_by_violation(state, violation, prev_violation, opts):
    """Rowwise Delta growth wherever the consensus violation stopped falling.

    Row c is scaled by beta when |viol_c| > gamma |prev_viol_c|, capped at
    delta_max.  Requires the fullspace variant (Delta loses its scalar tie
    to mu).
    """
    violation = np.asarray(violation, dtype=float)
    prev_violation = np.asarray(prev_violation, dtype=float)
    if violation.size != state.delta.size or prev_violation.size != state.delta.size:
        raise ValueError("violation vectors must have one entry per consensus row")
    grow = np.abs(violation) > opts.gamma * np.abs(prev_violation)
    delta = np.where(grow, np.minimum(opts.beta * state.delta, opts.delta_max),
                     state.delta)
    return ScalingState(
        sigmas=[S.copy() for S in state.sigmas],
        delta=delta,
        mu=state.mu,
    )
