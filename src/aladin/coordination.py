"""Consensus coordination QP and the scaling-matrix heuristics.

Every variant solves the consensus QP with a penalized slack,

    min  sum_i 1/2 dx_i' B_i dx_i + g_i' dx_i  +  lam' s + s' Delta s
    s.t. sum_i A_i (x_i + dx_i) - b = s,    C_i dx_i = 0,

in one way: each block's step is restricted to the nullspace of its active
rows, dx_i = Z_i dv_i, the slack is eliminated analytically
(s = (lamQP - lam) / (2 Delta)), and the remaining dual (Schur) system is
assembled from each block's compact term on its own coupling rows.  The
variants differ only in the reduced Hessian Z_i' H_i Z_i they hand in: the
full-space one projects the regularized H_i, the nullspace and bilevel ones
regularize the projection of the raw H_i; bilevel solves the dual system
with a decentralized inner algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sensitivity
from .linalg import sym_solve

__all__ = [
    "CoordinationResult",
    "ScalingState",
    "solve_coordination_reduced",
    "reduced_result",
    "update_sigma",
    "update_delta_by_violation",
]


@dataclass
class CoordinationResult:
    """Primal steps, slack, QP dual, and the reduced steps."""

    dx: list[np.ndarray]
    s: np.ndarray
    lam_qp: np.ndarray
    dv: list[np.ndarray] | None = None


@dataclass
class ScalingState:
    """Proximal weights Sigma_i and the slack weight diagonal Delta.

    Delta starts at (mu_init/2) * ones; every variant's coordination QP,
    and the bilevel inner solvers with it, weighs its slack with it.
    """

    sigmas: list[np.ndarray]
    delta: np.ndarray

    @classmethod
    def initial(cls, problem, opts):
        return cls(
            sigmas=[opts.sigma_init * np.eye(s.n_x) for s in problem.subproblems],
            delta=np.full(problem.n_c, opts.mu_init / 2.0),
        )


def solve_coordination_reduced(reduced, couplings, lam, delta, b, Zs=None):
    """Solve the reduced QP through the Schur dual system.

    Parameters
    ----------
    reduced : list of ReducedBlock
    couplings : list of vectors
        Each block's current consensus contribution A_i x_i on its coupling
        rows ``reduced[i].rows``.
    lam, delta, b : dual iterate, slack weight diagonal Delta, coupling
        right-hand side.
    Zs : optional list of nullspace bases; when given, the lifted steps
        Z_i dv_i are returned in ``dx``.

    The dual solve is (sum_i S_i + diag(1/(2 Delta))) lamQP
    = sum_i s_i + lam/(2 Delta) - b.  Each block's compact term (S_i, s_i)
    is scatter-added onto its rows C(i), so no block forms an n_c-sized
    array; ``reduced_result`` then recovers every block's step.
    """
    n_c = b.size
    if n_c:
        S_sum = np.zeros((n_c, n_c))
        s_sum = np.zeros(n_c)
        for red, cpl in zip(reduced, couplings):
            # looked up at call time, so a wrapper installed on the
            # sensitivity module sees these calls too
            S, s = sensitivity.schur_contribution(red, coupling=cpl)
            S_sum[np.ix_(red.rows, red.rows)] += S
            s_sum[red.rows] += s
        M = S_sum + np.diag(1.0 / (2.0 * delta))
        rhs = s_sum + lam / (2.0 * delta) - b
        lam_qp = sym_solve(M, rhs)
    else:
        lam_qp = np.zeros(0)
    return reduced_result(reduced, lam_qp, lam, delta, Zs)


def reduced_result(reduced, lam_qp, lam, delta, Zs=None):
    """Coordination result of a dual solution lamQP of the Schur system.

    Every block recovers its reduced step dv_i = -(B_i^-1 g_i + B_i^-1 A_i'
    lamQP[C(i)]), with A_i = red.A its compact coupling matrix and both
    solves taken from ``red.solved``, lifted to Z_i dv_i when the bases are
    given; the slack is s = (lamQP - lam) / (2 Delta).  Every variant
    shares this recovery.
    """
    dvs = [-(red.solved[1] + red.solved[0] @ lam_qp[red.rows]) for red in reduced]
    dxs = [Z @ dv for Z, dv in zip(Zs, dvs)] if Zs is not None else dvs
    return CoordinationResult(
        dx=dxs, s=(lam_qp - lam) / (2.0 * delta), lam_qp=lam_qp, dv=dvs,
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
    if delta.size and np.abs(delta).max() < opts.delta_max:
        delta = opts.r_delta * delta
    else:
        delta = delta.copy()
    return ScalingState(sigmas=sigmas, delta=delta)


def update_delta_by_violation(state, violation, prev_violation, opts):
    """Rowwise Delta growth wherever the consensus violation stopped falling.

    Row c is scaled by beta when |viol_c| > gamma |prev_viol_c|, capped at
    delta_max.  Every variant takes the rowwise diagonal.
    """
    violation = np.asarray(violation, dtype=float)
    prev_violation = np.asarray(prev_violation, dtype=float)
    if violation.size != state.delta.size or prev_violation.size != state.delta.size:
        raise ValueError("violation vectors must have one entry per consensus row")
    grow = np.abs(violation) > opts.gamma * np.abs(prev_violation)
    delta = np.where(grow, np.minimum(opts.beta * state.delta, opts.delta_max),
                     state.delta)
    return ScalingState(sigmas=[S.copy() for S in state.sigmas], delta=delta)
