"""Decentralized solution of the coordination dual (Schur) system.

The assembled dual system  (sum_i S_i + I/mu) lam = sum_i s_i + lam_k/mu - b
is block-sparse: agent i only touches the consensus rows C(i) where its
original coupling matrix A_i has nonzero rows, and its term (S_i, s_i)
arrives in that compact form (|C(i)| x |C(i)| and |C(i)|, ordered like
C(i)).  C(i) comes from A_i, not from the projected A_i Z_i: a row that an
active constraint removes from A_i Z_i still carries the agent's coupling
value, so the agent keeps it (with zero curvature).  Two inner algorithms
solve the system with neighbor-to-neighbor messages over a simulated
synchronous network:

* decentralized ADMM: local (S_i + rho I) solves plus overlap averaging;
* decentralized CG: textbook conjugate-gradient recurrences on the
  partitioned system, with multiplicity-weighted inner products so overlap
  copies are counted once; two scalar global sums per iteration.

Every exchanged float is counted per directed edge; scalar reductions are
counted as one global-sum round each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InnerBreakdownError
from .sensitivity import coupling_rows

__all__ = [
    "Topology",
    "MessageLog",
    "build_topology",
    "topology_from_rows",
    "run_dadmm",
    "run_dcg",
    "warm_start",
]


@dataclass
class Topology:
    """Consensus-row ownership and neighbor structure.

    rows[i] is the sorted array of consensus rows C(i) agent i participates
    in (the nonzero rows of its A_i, see ``build_topology``); its compact
    Schur term is indexed by these rows.  neighbors[i] lists, in ascending
    order, the agents sharing at least one row; overlap[(i, j)] holds the
    positions (into rows[i]) of the rows shared with j, in ascending row
    order; multiplicity[c] is the number of agents containing row c.
    """

    n_c: int
    rows: list[np.ndarray]
    neighbors: list[list[int]]
    overlap: dict[tuple[int, int], np.ndarray]
    multiplicity: np.ndarray

    @property
    def n_agents(self):
        return len(self.rows)

    @cached_property
    def links(self):
        """Per agent i, the (j, overlap[(i, j)], overlap[(j, i)]) of each neighbor j."""
        return [
            [(j, self.overlap[(i, j)], self.overlap[(j, i)]) for j in nbrs]
            for i, nbrs in enumerate(self.neighbors)
        ]

    def split(self, lam):
        """Restrict a global dual vector onto every agent."""
        return [lam[r] for r in self.rows]

    def local_multiplicity(self, i):
        return self.multiplicity[self.rows[i]]


def topology_from_rows(n_c, row_sets):
    """Build a Topology from each agent's set of participating rows.

    Neighbors and overlaps come from a row -> owning-agents index, so the
    cost is the sum over rows of (number of owners)^2 rather than a
    comparison of every pair of agents.
    """
    rows = [np.unique(np.asarray(rs, dtype=int)) for rs in row_sets]
    for r in rows:
        if r.size and (r.min() < 0 or r.max() >= n_c):
            raise ValueError("row index out of range")
    # owners[c]: (agent, position of c in that agent's rows), agents ascending
    owners = [[] for _ in range(n_c)]
    for i, r in enumerate(rows):
        for k, c in enumerate(r.tolist()):
            owners[c].append((i, k))
    multiplicity = np.array([len(own) for own in owners], dtype=int)
    uncovered = np.flatnonzero(multiplicity == 0)
    if uncovered.size:
        raise ValueError(
            f"consensus rows {uncovered.tolist()} are covered by no subproblem"
        )
    # rows are visited in ascending order, so every shared list is sorted
    shared = {}
    for own in owners:
        if len(own) < 2:
            continue
        for i, k in own:
            for j, _ in own:
                if j != i:
                    shared.setdefault((i, j), []).append(k)
    n = len(rows)
    neighbors = [[] for _ in range(n)]
    for i, j in shared:
        neighbors[i].append(j)
    for nbrs in neighbors:
        nbrs.sort()
    overlap = {
        (i, j): np.array(shared[(i, j)], dtype=int)
        for i in range(n) for j in neighbors[i]
    }
    return Topology(
        n_c=n_c, rows=rows, neighbors=neighbors, overlap=overlap,
        multiplicity=multiplicity,
    )


def build_topology(problem):
    """Topology of a validated problem: C(i) = nonzero rows of A_i."""
    return topology_from_rows(
        problem.n_c, [coupling_rows(s.A) for s in problem.subproblems]
    )


@dataclass
class MessageLog:
    """Communication accounting for one inner solve.

    ``edge_floats[(i, j)]`` counts floats sent i -> j; each neighbor round
    moves exactly |C(i) & C(j)| floats per directed edge.  Scalar reductions
    (D-CG only) are counted as global-sum rounds of one float per agent.
    """

    n_agents: int
    edge_floats: dict[tuple[int, int], int] = field(default_factory=dict)
    neighbor_rounds: int = 0
    global_sum_rounds: int = 0
    iterations: int = 0
    residual: float = float("nan")

    def total_floats(self):
        return sum(self.edge_floats.values()) + self.global_sum_rounds * self.n_agents

    def to_dict(self):
        return {
            "edges": {f"{i}->{j}": n for (i, j), n in sorted(self.edge_floats.items())},
            "neighbor_rounds": self.neighbor_rounds,
            "global_sum_rounds": self.global_sum_rounds,
            "iterations": self.iterations,
            "residual": self.residual,
            "total_floats": self.total_floats(),
        }


def _fold_blocks(top, S_blocks, s_blocks, mu, lam_outer, b):
    """Absorb the I/mu term and the (lam/mu - b) shift into the local blocks.

    Each consensus row's share is split evenly over the agents containing it,
    so the sum of the folded blocks equals the full dual system.  mu=None
    leaves the blocks untouched (plain  sum S_i lam = sum s_i  systems).
    """
    S_hat, s_hat = [], []
    for i in range(top.n_agents):
        rows = top.rows[i]
        S = np.array(S_blocks[i], dtype=float, copy=True)
        s = np.array(s_blocks[i], dtype=float, copy=True)
        if S.shape != (rows.size, rows.size) or s.shape != (rows.size,):
            raise ValueError(f"agent {i}: Schur block shape mismatch")
        if mu is not None:
            share = 1.0 / top.multiplicity[rows]
            S[np.arange(rows.size), np.arange(rows.size)] += share / mu
            s += share * (lam_outer[rows] / mu - b[rows])
        S_hat.append(S)
        s_hat.append(s)
    return S_hat, s_hat


def _exchange(top, values, log):
    """One synchronous neighbor round: every agent sends its overlap entries.

    Returns, per agent, the sum of all copies (own + received) per local row.
    The floats moved are counted once per solve by ``_count_edges``.
    """
    out = []
    for i, links in enumerate(top.links):
        acc = values[i].copy()
        for j, idx_i, idx_j in links:
            acc[idx_i] += values[j][idx_j]
        out.append(acc)
    log.neighbor_rounds += 1
    return out


def _count_edges(top, log):
    """Floats per directed edge j -> i: |C(i) & C(j)| in each neighbor round."""
    if log.neighbor_rounds:
        log.edge_floats = {
            (j, i): log.neighbor_rounds * idx_j.size
            for i, links in enumerate(top.links)
            for j, _, idx_j in links
        }


def _global_sum(contributions, log):
    log.global_sum_rounds += 1
    return float(np.sum(contributions))


def _assemble(top, locals_):
    """Place per-agent values into a global vector (overlap copies agree)."""
    lam = np.zeros(top.n_c)
    for i in range(top.n_agents):
        lam[top.rows[i]] = locals_[i]
    return lam


def _global_residual(top, S_hat, s_hat, lam):
    r = np.zeros(top.n_c)
    for i in range(top.n_agents):
        rows = top.rows[i]
        r[rows] += s_hat[i] - S_hat[i] @ lam[rows]
    return float(np.abs(r).max()) if r.size else 0.0


def run_dadmm(top, S_blocks, s_blocks, mu, lam_outer, b, lam0=None, rho=1.0,
              n_iter=20):
    """Decentralized ADMM on the folded dual system.

    Per inner iteration: (1) local solve lam_i = (S_i + rho I)^-1
    (s_i - gamma_i + rho lbar_i); (2) neighbor averaging of the copies with
    multiplicity weights (self term included); (3) local dual update
    gamma_i += rho (lam_i - lbar_i).  Fixed iteration count; the final
    residual of the assembled system is reported.
    """
    lam_outer = np.zeros(top.n_c) if lam_outer is None else np.asarray(lam_outer, float)
    b = np.zeros(top.n_c) if b is None else np.asarray(b, float)
    S_hat, s_hat = _fold_blocks(top, S_blocks, s_blocks, mu, lam_outer, b)
    log = MessageLog(n_agents=top.n_agents)
    lam0 = np.zeros(top.n_c) if lam0 is None else np.asarray(lam0, float)
    lbar = top.split(lam0)
    gamma = [np.zeros(r.size) for r in top.rows]
    solvers = [
        np.linalg.inv(S_hat[i] + rho * np.eye(top.rows[i].size))
        for i in range(top.n_agents)
    ]
    mult = [top.local_multiplicity(i).astype(float) for i in range(top.n_agents)]
    lam_i = lbar
    for _ in range(n_iter):
        lam_i = [
            solvers[i] @ (s_hat[i] - gamma[i] + rho * lbar[i])
            for i in range(top.n_agents)
        ]
        sums = _exchange(top, lam_i, log)
        lbar = [sums[i] / mult[i] for i in range(top.n_agents)]
        gamma = [
            gamma[i] + rho * (lam_i[i] - lbar[i]) for i in range(top.n_agents)
        ]
        log.iterations += 1
    lam = _assemble(top, lbar)
    log.residual = _global_residual(top, S_hat, s_hat, lam)
    _count_edges(top, log)
    overlap_gap = max(
        (np.abs(lam_i[i] - lbar[i]).max() for i in range(top.n_agents)
         if lam_i[i].size),
        default=0.0,
    )
    return lam, log, overlap_gap


def run_dcg(top, S_blocks, s_blocks, mu, lam_outer, b, lam0=None, n_iter=20,
            rtol=1e-8):
    """Decentralized conjugate gradients on the folded dual system.

    The initial residual is assembled with one extra neighbor round (the
    right-hand side is itself split additively over agents) plus two scalar
    reductions (||r0||^2 and the scale reference ||s~||^2); afterwards each
    iteration costs one neighbor round plus two scalar global sums.  Stops
    early once ||r|| <= max(rtol ||r0||, 1e-14 ||s~||).
    """
    lam_outer = np.zeros(top.n_c) if lam_outer is None else np.asarray(lam_outer, float)
    b = np.zeros(top.n_c) if b is None else np.asarray(b, float)
    S_hat, s_hat = _fold_blocks(top, S_blocks, s_blocks, mu, lam_outer, b)
    log = MessageLog(n_agents=top.n_agents)
    lam0 = np.zeros(top.n_c) if lam0 is None else np.asarray(lam0, float)
    lam_i = top.split(lam0)
    inv_mult = [1.0 / top.local_multiplicity(i) for i in range(top.n_agents)]

    # consistent initialization round: r0 = p0 = s~ - S~ lam0, restricted
    t = [s_hat[i] - S_hat[i] @ lam_i[i] for i in range(top.n_agents)]
    r = _exchange(top, t, log)
    p = [ri.copy() for ri in r]
    eta = _global_sum([ri @ (wi * ri) for ri, wi in zip(r, inv_mult)], log)
    eta0 = eta
    # scale reference ||s~||^2: exits warm starts that already sit at the
    # solution (residual at roundoff) without loosening the relative target
    snorm2 = _global_sum(
        [s_hat[i] @ (inv_mult[i] * s_hat[i]) for i in range(top.n_agents)], log
    )
    thresh = max((rtol * rtol) * eta0, 1e-28 * snorm2)
    if eta0 <= thresh:
        lam = _assemble(top, lam_i)
        log.residual = _global_residual(top, S_hat, s_hat, lam)
        _count_edges(top, log)
        return lam, log

    for _ in range(n_iter):
        u = [S_hat[i] @ p[i] for i in range(top.n_agents)]
        w = _exchange(top, u, log)
        sigma = _global_sum([p[i] @ u[i] for i in range(top.n_agents)], log)
        if sigma <= 0.0:
            raise InnerBreakdownError(
                f"conjugate-gradient curvature sigma={sigma:.3e} is not positive"
            )
        alpha = eta / sigma
        lam_i = [lam_i[i] + alpha * p[i] for i in range(top.n_agents)]
        r = [r[i] - alpha * w[i] for i in range(top.n_agents)]
        eta_new = _global_sum(
            [r[i] @ (inv_mult[i] * r[i]) for i in range(top.n_agents)], log
        )
        log.iterations += 1
        if eta_new <= thresh:
            eta = eta_new
            break
        beta = eta_new / eta
        p = [r[i] + beta * p[i] for i in range(top.n_agents)]
        eta = eta_new

    lam = _assemble(top, lam_i)
    log.residual = _global_residual(top, S_hat, s_hat, lam)
    _count_edges(top, log)
    return lam, log


def warm_start(previous, n_c):
    """Inner-solver start dual: the stored previous solution, else zeros."""
    if previous is None:
        return np.zeros(n_c)
    previous = np.asarray(previous, dtype=float)
    if previous.shape != (n_c,):
        raise ValueError(f"stored dual has length {previous.size}, expected {n_c}")
    return previous.copy()
