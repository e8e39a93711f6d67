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

The reduced blocks may come as lanes-first stacks (see ``sensitivity``),
each lane labelled with its block: a stack's Schur terms and steps take one
call each, the terms are added onto the consensus rows in block order, and
the steps are listed per block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sensitivity
from .linalg import mv, sym_solve

__all__ = [
    "CoordinationResult",
    "ScalingState",
    "per_block",
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

    ``sigmas`` holds one stack of Sigma_i per lockstep group, lanes first,
    (L, n, n); a 2-D entry is a stack without lane axes.  Delta starts at
    (mu_init/2) * ones; every variant's coordination QP, and the bilevel
    inner solvers with it, weighs its slack with it.  The updates build new
    states and never write into an array, so states share the arrays that
    an update leaves unchanged.
    """

    sigmas: list[np.ndarray]
    delta: np.ndarray

    @classmethod
    def initial(cls, problem, opts, groups):
        """sigma_init * I for every block of the lockstep ``groups``."""
        return cls(
            sigmas=[
                opts.sigma_init * np.broadcast_to(np.eye(g.n), (len(g), g.n, g.n))
                for g in groups
            ],
            delta=np.full(problem.n_c, opts.mu_init / 2.0),
        )


def per_block(stacks, blocks):
    """The lanes of lanes-first ``stacks`` as one list in block order.

    ``blocks[k]`` labels the lanes of ``stacks[k]`` with their blocks and
    has the shape of its lane axes; the list holds views.
    """
    out = {}
    for a, bl in zip(stacks, blocks):
        out.update(zip(bl.ravel().tolist(), a.reshape((bl.size,) + a.shape[bl.ndim:])))
    return [out[i] for i in range(len(out))]


def _scatter_add(size, cells, values, blocks):
    """sum_i of the values onto flat positions ``cells`` of zeros(size).

    Terms meet in block order, as one block after the other would add
    them: a sum of three or more terms depends on its order.
    """
    # the block of every entry: each lane's entries are contiguous
    key = np.concatenate(
        [np.repeat(bl.ravel(), c.size // bl.size) for c, bl in zip(cells, blocks)]
    )
    order = np.argsort(key, kind="stable")
    out = np.zeros(size)
    np.add.at(
        out.reshape(-1),
        np.concatenate([c.ravel() for c in cells])[order],
        np.concatenate([v.ravel() for v in values])[order],
    )
    return out


def solve_coordination_reduced(reduced, couplings, lam, delta, b, Zs=None,
                               blocks=None):
    """Solve the reduced QP through the Schur dual system.

    Parameters
    ----------
    reduced : list of ReducedBlock
        One block's or a lanes-first stack of blocks' each.
    couplings : list of arrays
        Per entry, the current consensus contributions A_i x_i on the
        coupling rows ``rows``.
    lam, delta, b : dual iterate, slack weight diagonal Delta, coupling
        right-hand side.
    Zs : optional list of nullspace bases, per entry; when given, the
        lifted steps Z_i dv_i are returned in ``dx``.
    blocks : optional list, per entry, of each lane's block, shaped like
        its lane axes; by default entry k is block k.

    The dual solve is (sum_i S_i + diag(1/(2 Delta))) lamQP
    = sum_i s_i + lam/(2 Delta) - b.  Each block's compact term (S_i, s_i)
    is scatter-added onto its rows C(i), so no block forms an n_c-sized
    array; ``reduced_result`` then recovers every block's step.
    """
    if blocks is None:
        blocks = [np.asarray(k) for k in range(len(reduced))]
    n_c = b.size
    if n_c:
        # looked up at call time, so a wrapper installed on the sensitivity
        # module sees these calls too
        terms = [
            sensitivity.schur_contribution(red, coupling=cpl)
            for red, cpl in zip(reduced, couplings)
        ]
        rows = [red.rows for red in reduced]
        S_sum = _scatter_add(
            (n_c, n_c), [r[..., :, None] * n_c + r[..., None, :] for r in rows],
            [S for S, _ in terms], blocks,
        )
        s_sum = _scatter_add(n_c, rows, [s for _, s in terms], blocks)
        M = S_sum + np.diag(1.0 / (2.0 * delta))
        rhs = s_sum + lam / (2.0 * delta) - b
        lam_qp = sym_solve(M, rhs)
    else:
        lam_qp = np.zeros(0)
    return reduced_result(reduced, lam_qp, lam, delta, Zs, blocks)


def reduced_result(reduced, lam_qp, lam, delta, Zs=None, blocks=None):
    """Coordination result of a dual solution lamQP of the Schur system.

    Every block recovers its reduced step dv_i = -(B_i^-1 g_i + B_i^-1 A_i'
    lamQP[C(i)]), with A_i = red.A its compact coupling matrix and both
    solves taken from ``red.solved``, lifted to Z_i dv_i when the bases are
    given; the slack is s = (lamQP - lam) / (2 Delta).  Every variant
    shares this recovery.  The arguments are as in
    ``solve_coordination_reduced``; ``dx`` and ``dv`` list the steps per
    block.
    """
    if blocks is None:
        blocks = [np.asarray(k) for k in range(len(reduced))]
    dvs = [
        -(red.solved[1] + mv(red.solved[0], lam_qp[red.rows])) for red in reduced
    ]
    dxs = [mv(Z, dv) for Z, dv in zip(Zs, dvs)] if Zs is not None else dvs
    return CoordinationResult(
        dx=per_block(dxs, blocks), s=(lam_qp - lam) / (2.0 * delta),
        lam_qp=lam_qp, dv=per_block(dvs, blocks),
    )


def update_sigma(state, opts):
    """Geometric growth of Sigma_i and Delta, gated by pre-update norms.

    Each Sigma_i grows while its infinity norm (the largest absolute row
    sum, as ``np.linalg.norm(S, np.inf)`` takes it) is below sigma_max,
    lane by lane over any leading axes.
    """
    sigmas = []
    for S in state.sigmas:
        grow = np.abs(S).sum(axis=-1).max(axis=-1) < opts.sigma_max
        if grow.all():
            S = opts.r_sigma * S
        elif grow.any():
            S = np.where(grow[..., None, None], opts.r_sigma * S, S)
        sigmas.append(S)
    delta = state.delta
    if delta.size and np.abs(delta).max() < opts.delta_max:
        delta = opts.r_delta * delta
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
    return ScalingState(sigmas=state.sigmas, delta=delta)
