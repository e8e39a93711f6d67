"""Decentralized solution of the coordination dual (Schur) system.

The assembled dual system  (sum_i S_i + diag(1/mu)) lam = sum_i s_i +
lam_k/mu - b,  where mu = 2 Delta holds one slack weight per consensus row, is
block-sparse: agent i only touches the consensus rows C(i) where its
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

Both run on one flat copy vector that concatenates every agent's local rows
C(0), C(1), ... (``Topology.copies``), so all agents take each step at once:
a neighbor round, in which every agent adds the copies its neighbors send of
their shared rows to its own, is one scatter-add over the consensus rows and
one gather, and gives every copy of a row the same sum; the local block
products and solves run batched over the agents with equal |C(i)|; a global
sum is one dot product.  The message accounting still counts what the
simulated network sends: every exchanged float per directed edge, and each
scalar reduction as one global-sum round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InnerBreakdownError
from .problem import coupling_rows

__all__ = [
    "CopyLayout",
    "Topology",
    "MessageLog",
    "build_topology",
    "topology_from_rows",
    "run_dadmm",
    "run_dcg",
    "warm_start",
]


@dataclass(frozen=True)
class CopyLayout:
    """The copy vector: every agent's rows C(i), concatenated in agent order.

    cat_rows[e] is the consensus row of entry e and inv_mult[e] its weight
    1/multiplicity, which counts each row once in a global sum.  groups holds
    one (agents, positions) pair per row-set size k > 0: the agents with
    |C(i)| = k, ascending, and the (n_agents_k, k) indices of their entries.
    """

    cat_rows: np.ndarray
    inv_mult: np.ndarray
    groups: list[tuple[np.ndarray, np.ndarray]]


@dataclass
class Topology:
    """Consensus-row ownership and neighbor structure.

    rows[i] is the sorted array of consensus rows C(i) agent i participates
    in (the nonzero rows of its A_i, see ``build_topology``); its compact
    Schur term is indexed by these rows.  neighbors[i] lists, in ascending
    order, the agents sharing at least one row; overlap[(i, j)] holds the
    positions (into rows[i]) of the rows shared with j, in ascending row
    order; multiplicity[c] is the number of agents containing row c.
    ``copies`` is the copy-vector layout the inner solvers run on; it is
    built on first use and kept on this object, so it lives exactly as long
    as the topology.
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
    def copies(self):
        sizes = np.array([r.size for r in self.rows], dtype=int)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        cat_rows = np.concatenate([np.zeros(0, dtype=int), *self.rows])
        groups = []
        for k in np.unique(sizes[sizes > 0]):
            agents = np.flatnonzero(sizes == k)
            groups.append((agents, offsets[agents, None] + np.arange(k)))
        return CopyLayout(cat_rows, 1.0 / self.multiplicity[cat_rows], groups)


def topology_from_rows(n_c, row_sets):
    """Build a Topology from each agent's set of participating rows.

    The sets, in any order and with repeats, become sorted (agent, row)
    pairs by one ``np.unique`` of agent * n_c + row; ``bincount`` gives each
    agent's rows, each pair's place among them and each row's multiplicity.
    Ordered by row, a row's owners are consecutive, so every ordered pair of
    owners (i, j) of a row is found by one ``repeat``; one ``lexsort`` by
    (i, j) then lays out the neighbors and the overlaps.  The cost is
    a sort of the pairs plus the sum over rows of (number of owners)^2,
    with Python work only per agent and per directed edge.
    """
    n = len(row_sets)
    agent = np.repeat(np.arange(n), np.fromiter(map(len, row_sets), int, n))
    row = np.concatenate([np.zeros(0, dtype=int), *row_sets]).astype(int)
    if row.size and (row.min() < 0 or row.max() >= n_c):
        raise ValueError("row index out of range")
    width = max(n_c, 1)
    agent, row = np.divmod(np.unique(agent * width + row), width)
    multiplicity = np.bincount(row, minlength=n_c)
    uncovered = np.flatnonzero(multiplicity == 0)
    if uncovered.size:
        raise ValueError(
            f"consensus rows {uncovered.tolist()} are covered by no subproblem"
        )
    starts = np.concatenate([[0], np.cumsum(np.bincount(agent, minlength=n))])
    cut = starts.tolist()
    rows = [row[a:b] for a, b in zip(cut, cut[1:])]
    place = np.arange(row.size) - starts[agent]
    # the pairs by row, owners ascending: pair q meets the m[q] owners of
    # its row, which sit at first[q], first[q] + 1, ... in this order; the
    # meetings come out by row, and a stable sort by (i, j) keeps that
    by_row = np.argsort(row, kind="stable")
    m = multiplicity[row[by_row]]
    first = (np.cumsum(multiplicity) - multiplicity)[row[by_row]]
    q = np.repeat(np.arange(row.size), m)
    r = np.repeat(first - np.cumsum(m) + m, m) + np.arange(q.size)
    e, f = by_row[q[q != r]], by_row[r[q != r]]
    i, j = agent[e], agent[f]
    order = np.lexsort((j, i))
    i, j, k = i[order], j[order], place[e[order]]
    head = np.flatnonzero(np.diff(i * n + j, prepend=-1))  # one per edge
    cut = [*head.tolist(), k.size]
    overlap = {
        edge: k[a:b]
        for edge, a, b in zip(zip(i[head].tolist(), j[head].tolist()), cut, cut[1:])
    }
    neighbors = [[] for _ in range(n)]
    for a, b in overlap:
        neighbors[a].append(b)
    return Topology(
        n_c=n_c, rows=rows, neighbors=neighbors, overlap=overlap,
        multiplicity=multiplicity,
    )


def build_topology(problem):
    """Topology of a validated problem: C(i) = nonzero rows of A_i."""
    return topology_from_rows(
        problem.n_c, coupling_rows([s.A for s in problem.subproblems])
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


def _fold(top, S_blocks, s_blocks, mu, lam_outer, b):
    """Stack the agents' terms and absorb the diag(1/mu) and (lam/mu - b) shares.

    Returns one (n_agents_k, k, k) block stack per size group of
    ``top.copies`` and the right-hand side as a copy vector.  mu is one
    weight per consensus row, or one scalar for all.  Each consensus row's
    share is split evenly over the agents containing it, so the folded
    terms still sum to the full dual system.  mu=None leaves the terms
    untouched (plain  sum S_i lam = sum s_i  systems).
    """
    lay = top.copies
    for i, r in enumerate(top.rows):
        if np.shape(S_blocks[i]) != (r.size, r.size) or np.shape(s_blocks[i]) != (r.size,):
            raise ValueError(f"agent {i}: Schur block shape mismatch")
    S_hat = [np.array([S_blocks[i] for i in agents], dtype=float) for agents, _ in lay.groups]
    s_hat = np.concatenate([np.zeros(0), *s_blocks])
    if mu is not None:
        rows = lay.cat_rows
        mu = np.broadcast_to(mu, (top.n_c,))[rows]  # one weight per copy
        for S, (_, pos) in zip(S_hat, lay.groups):
            diag = np.arange(pos.shape[1])
            S[:, diag, diag] += lay.inv_mult[pos] / mu[pos]
        s_hat += lay.inv_mult * (lam_outer[rows] / mu - b[rows])
    return S_hat, s_hat


def _block_apply(top, blocks, v):
    """Every agent's local matrix times its own entries of the copy vector v."""
    out = np.empty_like(v)
    for M, (_, pos) in zip(blocks, top.copies.groups):
        out[pos] = np.matmul(M, v[pos][..., None])[..., 0]
    return out


def _neighbor_round(top, v, log):
    """One synchronous neighbor round: every agent sends its overlap entries.

    Returns every copy replaced by the sum of all copies of its row (own +
    received).  The floats moved are counted once per solve by
    ``_count_edges``.
    """
    log.neighbor_rounds += 1
    rows = top.copies.cat_rows
    return np.bincount(rows, v, minlength=top.n_c)[rows]


def _count_edges(top, log):
    """Floats per directed edge i -> j: |C(i) & C(j)| in each neighbor round."""
    if log.neighbor_rounds:
        log.edge_floats = {
            edge: log.neighbor_rounds * idx.size for edge, idx in top.overlap.items()
        }


def _global_sum(value, log):
    log.global_sum_rounds += 1
    return float(value)


def _finish(top, S_hat, s_hat, v, log):
    """The global dual of a copy vector whose copies agree; completes the log."""
    rows = top.copies.cat_rows
    lam = np.zeros(top.n_c)
    lam[rows] = v
    r = np.bincount(rows, s_hat - _block_apply(top, S_hat, lam[rows]), minlength=top.n_c)
    log.residual = float(np.abs(r).max()) if r.size else 0.0
    _count_edges(top, log)
    return lam


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
    S_hat, s_hat = _fold(top, S_blocks, s_blocks, mu, lam_outer, b)
    log = MessageLog(n_agents=top.n_agents)
    lam0 = np.zeros(top.n_c) if lam0 is None else np.asarray(lam0, float)
    lay = top.copies
    lbar = lam_c = lam0[lay.cat_rows]
    gamma = np.zeros_like(lbar)
    solvers = [np.linalg.inv(S + rho * np.eye(S.shape[1])) for S in S_hat]
    for _ in range(n_iter):
        lam_c = _block_apply(top, solvers, s_hat - gamma + rho * lbar)
        lbar = _neighbor_round(top, lam_c, log) * lay.inv_mult
        gamma = gamma + rho * (lam_c - lbar)
        log.iterations += 1
    lam = _finish(top, S_hat, s_hat, lbar, log)
    overlap_gap = float(np.abs(lam_c - lbar).max()) if lam_c.size else 0.0
    return lam, log, overlap_gap


def run_dcg(top, S_blocks, s_blocks, mu, lam_outer, b, lam0=None, n_iter=20,
            rtol=1e-8):
    """Decentralized conjugate gradients on the folded dual system.

    The initial residual is assembled with one extra neighbor round (the
    right-hand side is itself split additively over agents) plus two scalar
    reductions (||r0||^2 and the scale reference ||s~||^2); afterwards each
    iteration costs one neighbor round plus two scalar global sums.  Stops
    early once ||r|| <= max(rtol ||r0||, 1e-14 ||s~||).  A curvature
    p'S~p <= 0 or NaN raises InnerBreakdownError naming the inner iteration.
    """
    lam_outer = np.zeros(top.n_c) if lam_outer is None else np.asarray(lam_outer, float)
    b = np.zeros(top.n_c) if b is None else np.asarray(b, float)
    S_hat, s_hat = _fold(top, S_blocks, s_blocks, mu, lam_outer, b)
    log = MessageLog(n_agents=top.n_agents)
    lam0 = np.zeros(top.n_c) if lam0 is None else np.asarray(lam0, float)
    w = top.copies.inv_mult
    lam_c = lam0[top.copies.cat_rows]

    # consistent initialization round: r0 = p0 = s~ - S~ lam0, restricted
    r = p = _neighbor_round(top, s_hat - _block_apply(top, S_hat, lam_c), log)
    eta = eta0 = _global_sum(r @ (w * r), log)
    # scale reference ||s~||^2: exits warm starts that already sit at the
    # solution (residual at roundoff) without loosening the relative target
    snorm2 = _global_sum(s_hat @ (w * s_hat), log)
    thresh = max((rtol * rtol) * eta0, 1e-28 * snorm2)
    if eta0 <= thresh:
        return _finish(top, S_hat, s_hat, lam_c, log), log

    for _ in range(n_iter):
        u = _block_apply(top, S_hat, p)
        q = _neighbor_round(top, u, log)
        sigma = _global_sum(p @ u, log)
        if not sigma > 0.0:
            raise InnerBreakdownError(
                f"inner iteration {log.iterations + 1}: conjugate-gradient "
                f"curvature sigma={sigma:.3e} is not positive"
            )
        alpha = eta / sigma
        lam_c = lam_c + alpha * p
        r = r - alpha * q
        eta_new = _global_sum(r @ (w * r), log)
        log.iterations += 1
        if eta_new <= thresh:
            break
        p = r + (eta_new / eta) * p
        eta = eta_new

    return _finish(top, S_hat, s_hat, lam_c, log), log


def warm_start(previous, n_c):
    """Inner-solver start dual: the stored previous solution, else zeros."""
    if previous is None:
        return np.zeros(n_c)
    previous = np.asarray(previous, dtype=float)
    if previous.shape != (n_c,):
        raise ValueError(f"stored dual has length {previous.size}, expected {n_c}")
    return previous.copy()
