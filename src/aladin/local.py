"""Local solver: primal-dual interior point for the per-block proximal NLPs.

Each outer iteration solves, independently per block,

    min_x  f(x, p) + lam' A x + (x - z)' Sigma (x - z)
    s.t.   g(x, p) = 0,   h(x, p) <= 0,   lb <= x <= ub.

Slack variables handle h; the box rows are kept in the barrier directly.
Newton steps act on the condensed symmetric KKT system with inertia
correction, a 0.995 fraction-to-boundary rule, and monotone barrier reduction
by a factor of 0.2.

Blocks are solved in groups.  ``group_blocks`` forms them once per run: a
``BlockGroup`` holds blocks whose compiled tapes are structurally identical
(``expr._Tape.key``: the same instructions, loads and output positions, only
the constants may differ) and whose dimensions and finite-bound masks are
equal.  ``solve_group`` runs one interior-point loop over a group in
lockstep.  Every block is a lane: each iterate is an array with the lanes
first, and each tape runs once for all lanes through the group's
``expr._LaneTape``, which picks the interpreter: a single lane runs its
block's own scalar tape, several run one ufunc per instruction.  Every lane
keeps its own decisions (warm check, interior projection, barrier
parameter, stall watch, step lengths, backtracking, domain errors) and
leaves the loop when it converges, stalls, fails or runs out of Newton
steps; the lanes still iterating are then compacted, so a lane costs nothing
once it has left.  The KKT step is solved lane by lane.  A lane's result is
bit for bit that of solving its block alone, and ``solve_local`` is that: a
group of one.

Each point is evaluated and reduced to its residual parts once: the
stationarity, equality and slacked-inequality residuals r_x, r_g, r_h and the
complementarity products s*gamma, (x - lb)*etaL, (ub - x)*etaU, none of which
depend on the barrier parameter.  The KKT error at any mu subtracts mu from
the products only, so an accepted trial point carries its parts into the
next iteration's convergence test, barrier update and Newton right-hand
side.  A warm start's check point is the start point itself when the interior
projection and the start's floors leave it unchanged; when the projection
moves any lane, every lane is evaluated again at its start point.  Empty
constraint blocks cost no evaluation and no step arithmetic.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import SingularKktError, SolverError
from .linalg import LdlFactor

__all__ = ["BlockGroup", "LocalSolution", "group_blocks", "solve_group", "solve_local"]

_FLOAT_MAX = np.finfo(float).max
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


# positions in a block's root sets (_root_sets); row Hessians follow
_GRAD_F, _G, _JG, _H, _JH, _HESS_F, _ROWS = range(7)


def _root_sets(sub):
    """Every tape the local solver runs for a block, in a fixed order:
    grad f, g, Jg, h, Jh, the Hessian of f, then those of each g and h row
    (None for an affine row)."""
    f, g, h = sub.f, sub.g, sub.h
    return (
        [f._compiled_jacobian(), g._compiled_outputs(), g._compiled_jacobian(),
         h._compiled_outputs(), h._compiled_jacobian(), f._compiled_hessian(0)]
        + [g._compiled_hessian(j) for j in range(g.n_out)]
        + [h._compiled_hessian(j) for j in range(h.n_out)]
    )


class BlockGroup:
    """Blocks solved in lockstep: equal tapes up to constants, equal shapes.

    ``blocks`` are the blocks' indices in their problem, ``subs`` the blocks
    and ``tapes`` their root sets.  Shared by all: ``n`` = n_x, ``n_g``,
    ``n_h``, the finite-bound masks ``mL``/``mU`` and their indices
    ``iL``/``iU``, and ``rows``, the (0 for g or 1 for h, row, root-set
    position) of every constraint row whose Hessian is not zero; ``lb`` and
    ``ub`` stack the bounds, lanes first, and ``lane`` holds one
    ``_LaneTape`` per root set (None where the blocks have no such tape).
    """

    def __init__(self, subs, blocks=None):
        self.subs = list(subs)
        self.blocks = tuple(range(len(self.subs)) if blocks is None else blocks)
        first = self.subs[0]
        self.n, self.n_g, self.n_h = first.n_x, first.n_g, first.n_h
        self.mL = np.isfinite(first.lb)
        self.mU = np.isfinite(first.ub)
        self.iL = np.flatnonzero(self.mL)
        self.iU = np.flatnonzero(self.mU)
        self.bounded = bool(self.iL.size or self.iU.size)
        self.lb = np.array([s.lb for s in self.subs])
        self.ub = np.array([s.ub for s in self.subs])
        self.tapes = [_root_sets(s) for s in self.subs]
        self.rows = [
            (int(k >= self.n_g), k if k < self.n_g else k - self.n_g, _ROWS + k)
            for k in range(self.n_g + self.n_h)
            if self.tapes[0][_ROWS + k] is not None
        ]
        self.lane = [
            None if ts[0] is None else ex._LaneTape(list(ts))
            for ts in zip(*self.tapes)
        ]

    def __len__(self):
        return len(self.subs)

    @property
    def may_act(self):
        """Whether any inequality or bound row of these blocks exists."""
        return bool(self.n_h) or self.bounded


def group_blocks(subs):
    """Partition blocks into lockstep groups, ordered by their first block."""
    groups = {}
    for i, sub in enumerate(subs):
        key = (
            sub.n_x, sub.n_p, sub.n_g, sub.n_h,
            np.isfinite(sub.lb).tobytes(), np.isfinite(sub.ub).tobytes(),
            tuple(None if t is None else t.key for t in _root_sets(sub)),
        )
        groups.setdefault(key, []).append(i)
    return [BlockGroup([subs[i] for i in idx], idx) for idx in groups.values()]


class _Work:
    """The lanes of one group at fixed (z, lam, Sigma, p).

    Per lane, lanes first: ``z``, ``Sigma``, ``p``, ``Alam`` = A' lam, the
    bounds ``lb``/``ub`` and the finite ones ``lbL``/``ubU``; ``lanes``
    indexes the group's blocks, and ``w[rows]`` is the work of some of the
    lanes.  Every evaluation runs the group's lane tapes.  Absent g/h are
    stood in for by empty arrays and never evaluated.
    """

    _PER_LANE = ("lanes", "z", "Sigma", "Sigma2", "p", "Alam", "lb", "ub", "lbL",
                 "ubU")

    def __init__(self, group, z, lam, Sigma, p):
        self.group = group
        self.lanes = np.arange(len(group))
        self.Alam = np.array([
            s.A.T @ lam if lam.size else np.zeros(group.n) for s in group.subs
        ])
        self.lb, self.ub = group.lb, group.ub
        self.z, self.Sigma, self.p = z, Sigma, p
        self.Sigma2 = 2.0 * Sigma  # the proximal term's Hessian
        self.n, self.n_g, self.n_h = group.n, group.n_g, group.n_h
        self.mL, self.mU, self.iL, self.iU = group.mL, group.mU, group.iL, group.iU
        self.bounded = group.bounded
        self.lbL = self.lb[..., self.iL]
        self.ubU = self.ub[..., self.iU]

    def __getitem__(self, rows):
        new = copy.copy(self)
        for name in self._PER_LANE:
            setattr(new, name, getattr(self, name)[rows])
        return new

    def _runner(self, x, errors):
        """run(position, rows=None): one root set's results at x, lanes first,
        or at the given rows only; each lane's DomainEvalError goes into
        ``errors`` under its row, an earlier error of the row being kept."""
        tapes, lanes, p = self.group.lane, self.lanes, self.p

        def run(i, rows=None):
            if rows is None:
                return tapes[i].run(x, p, lanes, errors)
            errs = {}
            out = tapes[i].run(x[rows], p[rows], lanes[rows], errs)
            for r, err in errs.items():
                errors.setdefault(rows[r], err)
            return out

        return run

    def eval_point(self, x, errors):
        """(g, h, grad f, Jg, Jh) at x, lanes first.

        A lane whose evaluation leaves the domain has its first
        DomainEvalError put in ``errors`` under its row, and its row of the
        results is not meaningful.
        """
        run = self._runner(x, errors)
        k, n, n_g, n_h = len(x), self.n, self.n_g, self.n_h
        g = run(_G) if n_g else np.zeros((k, 0))
        h = run(_H) if n_h else np.zeros((k, 0))
        grad_f = run(_GRAD_F)
        Jg = run(_JG).reshape(k, n_g, n) if n_g else np.zeros((k, 0, n))
        Jh = run(_JH).reshape(k, n_h, n) if n_h else np.zeros((k, 0, n))
        return g, h, grad_f, Jg, Jh

    def hess(self, x, kappa, gamma, errors):
        """Hessian of the proximal Lagrangian per lane; errors as eval_point.

        As ``lagrangian_hessian``: the rows' terms follow f's in row order,
        and a term is added only on the lanes whose multiplier is nonzero (a
        masked add, never a multiply by 0).
        """
        k, n = self.lanes.size, self.n
        run = self._runner(x, errors)
        H = (
            run(_HESS_F).reshape(k, n, n)
            if self.group.lane[_HESS_F] is not None else np.zeros((k, n, n))
        )
        for which, j, i in self.group.rows:
            mult = (kappa, gamma)[which][:, j]
            on = mult != 0.0
            if on.all():
                H += mult[:, None, None] * run(i).reshape(k, n, n)
            elif on.any():
                rows = np.flatnonzero(on)
                H[rows] += mult[rows, None, None] * run(i, rows).reshape(-1, n, n)
        return H + self.Sigma2


def _mv(M, v):
    """M @ v over any leading lane axes, one BLAS call per lane."""
    return (M @ v[..., None])[..., 0]


def _first_max(parts):
    """Python's max over non-negative (or NaN) parts, per lane: a NaN counts
    only in the first part, where no later part can replace it."""
    out = parts[0]
    for q in parts[1:]:
        out = np.fmax(out, q)
    nan = np.isnan(parts[0])
    return np.where(nan, parts[0], out) if nan.any() else out


class _Point:
    """A primal-dual point with its evaluation and mu-free residual parts.

    Every array has the lanes first.
    ``dL``/``dU`` are the distances to the finite bounds, ``eL``/``eU`` the
    multipliers on them and ``cs``/``pL``/``pU`` the complementarity
    products; ``r_g`` is g itself.  ``fixed`` is the max norm of the mu-free
    parts r_x, r_g, r_h (NaN ignored), ``gmax`` that of r_g, and ``lead``
    that of the part the KKT error opens with when it is one of them
    (``nan``: a lane's lead is NaN).  ``pt[rows]`` is the point of some
    lanes.
    """

    _ARRAYS = ("x", "s", "kappa", "gamma", "etaL", "etaU", "r_g", "h", "Jg",
               "Jh", "r_x", "r_h", "cs", "dL", "dU", "eL", "eU", "pL", "pU")
    _OPTIONAL = ("gmax", "fixed", "lead")  # per lane, or None
    __slots__ = _ARRAYS + _OPTIONAL + ("nan",)

    def __init__(self, w, x, s, kappa, gamma, etaL, etaU, ev):
        g, h, grad_f, Jg, Jh = ev
        self.x, self.s, self.kappa, self.gamma = x, s, kappa, gamma
        self.etaL, self.etaU = etaL, etaU
        self.r_g, self.h, self.Jg, self.Jh = g, h, Jg, Jh
        r_x = grad_f + w.Alam + 2.0 * _mv(w.Sigma, x - w.z)
        if w.n_g:
            r_x = r_x + _mv(Jg.swapaxes(-1, -2), kappa)
        if w.n_h:
            r_x = r_x + _mv(Jh.swapaxes(-1, -2), gamma)
        self.r_x = r_x - etaL + etaU
        # without h or bounds the empty parts are the empty inputs
        self.r_h = h + s if w.n_h else h
        self.cs = s * gamma if w.n_h else s
        if w.bounded:
            self.dL = x.take(w.iL, axis=-1) - w.lbL
            self.dU = w.ubU - x.take(w.iU, axis=-1)
            self.eL = etaL.take(w.iL, axis=-1)
            self.eU = etaU.take(w.iU, axis=-1)
            self.pL = self.dL * self.eL
            self.pU = self.dU * self.eU
        else:
            self.dL = self.dU = self.eL = self.eU = self.pL = self.pU = x[..., :0]
        # max norms of the mu-free parts; err() adds the products
        self.gmax = np.abs(g).max(axis=-1) if w.n_g else None
        head = [np.abs(self.r_x).max(axis=-1)] if x.shape[-1] else []
        head += [] if self.gmax is None else [self.gmax]
        fixed = head + ([np.abs(self.r_h).max(axis=-1)] if w.n_h else [])
        self.fixed = fixed[0] if fixed else None
        for v in fixed[1:]:
            self.fixed = np.fmax(self.fixed, v)
        self.lead = head[0] if head else None
        self._mark()

    def _mark(self):
        # a NaN in any lane makes the max NaN
        self.nan = self.lead is not None and math.isnan(self.lead.max())

    def __getitem__(self, rows):
        new = _Point.__new__(_Point)
        for name in self._ARRAYS + self._OPTIONAL:
            v = getattr(self, name)
            setattr(new, name, None if v is None else v[rows])
        new._mark()
        return new

    @staticmethod
    def merge(n, pieces):
        """The point of n lanes, from (lanes, point, its rows) pieces."""
        new = _Point.__new__(_Point)
        for name in _Point._ARRAYS + _Point._OPTIONAL:
            first = getattr(pieces[0][1], name)
            if first is None:
                setattr(new, name, None)
                continue
            out = np.empty((n,) + first.shape[1:])
            for lanes, pt, rows in pieces:
                out[lanes] = getattr(pt, name)[rows]
            setattr(new, name, out)
        new._mark()
        return new

    def err(self, mu):
        """Max norm of the KKT residual at barrier parameter mu, per lane.

        ``mu`` is a scalar or a column with one row per lane.  The parts are
        visited as r_x, r_g, s*gamma - mu, the bound products less mu, r_h,
        so a NaN counts only where it comes first.  Bound products exist
        only on finite bounds; the zeros the other entries would add cannot
        change a maximum that r_x opens.
        """
        prods = [v for v in (self.cs, self.pL, self.pU) if v.shape[-1]]
        if not isinstance(mu, np.ndarray) and mu == 0.0:
            parts = [np.abs(v).max(axis=-1) for v in prods]  # v - 0.0 is v
        else:
            parts = [np.abs(v - mu).max(axis=-1) for v in prods]
        if self.lead is None:  # the error opens with a product, or is empty
            parts += [] if self.fixed is None else [self.fixed]
            return _first_max(parts) if parts else np.zeros(self.x.shape[:-1])
        out = self.fixed
        for q in parts:
            out = np.fmax(out, q)
        return np.where(np.isnan(self.lead), self.lead, out) if self.nan else out


def _max_steps(parts):
    """Per lane and part, the largest alpha <= 1 with v + alpha dv >= (1 - FTB) v.

    ``parts`` are nonempty (v, dv) pairs, lanes first; the result has one
    column per part, all parts being reduced in one pass.
    """
    v = np.concatenate([v for v, _ in parts], axis=-1)
    dv = np.concatenate([dv for _, dv in parts], axis=-1)
    ratio = np.divide(-FTB * v, dv, out=np.full(v.shape, np.inf), where=dv < 0)
    starts = [0]
    for v_part, _ in parts[:-1]:
        starts.append(starts[-1] + v_part.shape[-1])
    # min(1.0, step), as Python takes it: a NaN step gives 1.0
    return np.fmin(np.minimum.reduceat(ratio, starts, axis=-1), 1.0)


def _solve_newton(W, Jg, rhs_x, rhs_g):
    """Condensed KKT solve with primal (and, late, dual) inertia correction."""
    n, m = W.shape[0], Jg.shape[0]
    rhs = np.concatenate([rhs_x, rhs_g])
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


def _settle(out, ids, pt, rows, status, newton, err0):
    """Put the LocalSolutions of the given rows, after ``newton`` steps, into
    ``out``."""
    eta = np.concatenate([pt.etaL[rows], pt.etaU[rows]], axis=-1)
    for k, x, kappa, gamma, e, err in zip(
        ids[rows], pt.x[rows], pt.kappa[rows], pt.gamma[rows], eta, err0[rows],
    ):
        out[k] = LocalSolution(x, kappa, gamma, e, status, newton, err)


def solve_group(group, z, lam, Sigma, p, warm=None, tol=1e-10):
    """Solve every block of a group to the given KKT tolerance, in lockstep.

    Parameters
    ----------
    group : BlockGroup
    z, Sigma, p : sequences, one entry per block of the group
        Proximal centers, proximal weight matrices and parameter vectors.
    lam : array_like
        Consensus dual, shared by all blocks.
    warm : sequence of LocalSolution, or None
        One previous solution per block (all or none); each is checked
        first and reused as its block's start point.
    tol : float
        Target for every block's maximum KKT residual.

    Returns
    -------
    list
        Per block, its LocalSolution, or the DomainEvalError or SolverError
        that solving it alone would have raised; the other blocks are
        unaffected by it.

    Raises
    ------
    ValueError
        If a z or p has the wrong length, or their number is not the
        group's.
    """
    lam = np.asarray(lam, dtype=float)
    z = _stack("z", z, len(group), group.n)
    p = _stack("p", p, len(group), group.subs[0].n_p)
    w = _Work(group, z, lam, np.array(Sigma, dtype=float), p)
    return _lockstep(w, warm, tol)


def _stack(name, rows, N, size):
    """The N vectors of length ``size`` in ``rows`` as an (N, size) array."""
    a = np.array(rows, dtype=float)
    if a.shape[:1] != (N,):
        raise ValueError(f"expected {N} {name} vectors, got shape {a.shape}")
    if a.shape[1:] != (size,):
        raise ValueError(f"expected {name} of length {size}, got shape {a.shape[1:]}")
    return a


def _lockstep(w, warm, tol):
    N, n, n_g, n_h = len(w.lanes), w.n, w.n_g, w.n_h
    iL, iU = w.iL, w.iU
    out = [None] * N
    ids = np.arange(N)  # the block (row of the group) of each lane still running
    errors = {}

    # shortcut: a warm start already at KKT quality is returned unchanged
    if warm is not None:
        wx = np.array([s.x for s in warm])
        kap = np.array([s.kappa for s in warm])
        gam = np.array([s.gamma for s in warm])
        eta = np.array([s.eta for s in warm])
        ev = w.eval_point(wx, errors)
        chk = _Point(
            w, wx, np.maximum(-ev[1], 0.0), kap, gam, eta[:, :n], eta[:, n:], ev
        )
        err = chk.err(0.0)
        done = err <= tol
        if w.bounded:
            done &= (wx >= w.lb).all(axis=-1) & (wx <= w.ub).all(axis=-1)
        for r in np.flatnonzero(done):
            s = warm[r]
            out[r] = LocalSolution(
                s.x.copy(), s.kappa.copy(), s.gamma.copy(), s.eta.copy(),
                "converged", 0, err[r],
            )
        for r, e in errors.items():
            out[r], done[r] = e, True
        if done.any():
            keep = ~done
            if not keep.any():
                return out
            w, ids, wx, kap, gam, eta, chk = (
                v[keep] for v in (w, ids, wx, kap, gam, eta, chk)
            )
            ev = tuple(v[keep] for v in ev)
        errors = {}

    # strictly interior start
    x = (wx if warm is not None else w.z).copy()
    if w.bounded:
        span = w.ub - w.lb
        margin = np.where(
            np.isfinite(span), np.minimum(1e-2 * (1.0 + np.abs(x)), 0.25 * span), 1e-2
        )
        x = np.where(w.mL, np.maximum(x, w.lb + margin), x)
        x = np.where(w.mU, np.minimum(x, w.ub - margin), x)

    # the warm check's evaluation stands unless the projection moved a lane
    moved = warm is not None and w.bounded and not (x == wx).all()
    if warm is None or moved:
        ev = w.eval_point(x, errors)
    if errors:
        keep = np.ones(len(ids), dtype=bool)
        for r, e in errors.items():
            out[ids[r]], keep[r] = e, False
        if not keep.any():
            return out
        w, ids, x = w[keep], ids[keep], x[keep]
        ev = tuple(v[keep] for v in ev)
        if warm is not None:
            wx, kap, gam, eta, chk = (v[keep] for v in (wx, kap, gam, eta, chk))
    M = len(ids)
    h = ev[1]
    etaL = np.zeros((M, n))
    etaU = np.zeros((M, n))
    if warm is not None:
        s = np.maximum(-h, 1e-8)
        gamma = np.maximum(gam, 1e-8)
        kappa = kap.copy()
        comp = np.mean(s * gamma, axis=-1) if n_h else np.full(M, 1e-3)
        comp = np.where(comp < 1e-3, comp, 1e-3)
        mu = np.where(comp > tol / 10.0, comp, tol / 10.0)
        etaL[:, iL] = np.maximum(eta[:, iL], 1e-8)
        etaU[:, iU] = np.maximum(eta[:, n + iU], 1e-8)
        # the check point is the start point unless a floor or the
        # projection changed it
        same = not moved and all(
            a.tobytes() == b.tobytes()
            for a, b in ((x, chk.x), (s, chk.s), (gamma, chk.gamma),
                         (etaL, chk.etaL), (etaU, chk.etaU))
        )
        pt = chk if same else _Point(w, x, s, kappa, gamma, etaL, etaU, ev)
    else:
        mu = np.full(M, 1e-1)
        s = np.maximum(-h, 1e-2)
        gamma = 1e-1 / s
        kappa = np.zeros((M, n_g))
        etaL[:, iL] = 1e-1 / (x[:, iL] - w.lbL)
        etaU[:, iU] = 1e-1 / (w.ubU - x[:, iU])
        pt = _Point(w, x, s, kappa, gamma, etaL, etaU, ev)

    mu_min = tol / 10.0
    # the error at the current mu; an accepted trial brings its own along
    err_mu = pt.err(mu[:, None])
    best_pri = np.full(M, np.inf)
    stall = None  # consecutive steps without less infeasibility; None: 0
    # every lane still running has taken ``newton`` Newton steps
    for newton in range(MAX_NEWTON):
        err0 = pt.err(0.0)
        conv = err0 <= tol

        # infeasibility watch: true violation failing to decrease
        pri = pt.gmax if n_g else np.zeros(M)
        if n_h:
            viol = np.maximum(pt.h, 0.0).max(axis=-1)
            pri = np.where(viol > pri, viol, pri)
        high = pri > tol
        stop = conv
        if high.any():
            more = 1 if stall is None else stall + 1
            stall = np.where((pri >= best_pri - 1e-16) & high, more, 0)
            stop = conv | (stall >= 10)
        else:
            stall = None
        best_pri = np.fmin(best_pri, pri)
        if stop.any():
            if conv.any():
                _settle(out, ids, pt, conv, "converged", newton, err0)
            if stop is not conv:
                _settle(out, ids, pt, stop & ~conv, "stalled", newton, err0)
            keep = ~stop
            if not keep.any():
                return out
            pt, w, ids, mu, best_pri, stall, err0, err_mu = (
                None if v is None else v[keep]
                for v in (pt, w, ids, mu, best_pri, stall, err0, err_mu)
            )
            M = len(ids)

        mu_c = mu[:, None]
        cut = (err_mu <= 10.0 * mu) & (mu > mu_min)
        if cut.any():
            # max(mu_min, BARRIER_FACTOR * mu) on the lanes that cut
            lower = np.fmax(BARRIER_FACTOR * mu, mu_min)
            mu = lower if cut.all() else np.where(cut, lower, mu)
            mu_c = mu[:, None]
            err_mu = pt.err(mu_c)

        # the condensed Newton system, solved lane by lane
        failed = {}
        W = w.hess(pt.x, pt.kappa, pt.gamma, failed)
        rhs_x = -pt.r_x
        r_L = r_U = r_cs = None
        if w.bounded:
            r_L = pt.pL - mu_c
            r_U = pt.pU - mu_c
            D = np.zeros((M, n))
            D[:, iL] = pt.eL / pt.dL
            D[:, iU] += pt.eU / pt.dU
            W.reshape(M, n * n)[:, :: n + 1] += D
            rhs_x[:, iL] -= r_L / pt.dL
            rhs_x[:, iU] += r_U / pt.dU
        if n_h:
            r_cs = pt.cs - mu_c
            JhT = pt.Jh.swapaxes(-1, -2)
            W = W + JhT @ ((pt.gamma / pt.s)[..., None] * pt.Jh)
            rhs_x = rhs_x - _mv(JhT, (pt.gamma * pt.r_h - r_cs) / pt.s)
        rhs_g = -pt.r_g
        dx = np.empty((M, n))
        dkappa = np.empty((M, n_g))
        for r in range(M):
            if r not in failed:
                try:
                    dx[r], dkappa[r] = _solve_newton(W[r], pt.Jg[r], rhs_x[r], rhs_g[r])
                except SolverError as e:
                    failed[r] = e
        if failed:
            keep = np.ones(M, dtype=bool)
            for r, e in failed.items():
                out[ids[r]], keep[r] = e, False
            if not keep.any():
                return out
            (pt, w, ids, mu, mu_c, best_pri, stall, err0, err_mu, dx, dkappa,
             r_L, r_U, r_cs) = (
                None if v is None else v[keep]
                for v in (pt, w, ids, mu, mu_c, best_pri, stall, err0, err_mu,
                          dx, dkappa, r_L, r_U, r_cs)
            )
            M = len(ids)

        # multiplier steps and the step lengths to the boundary, per lane
        x, s, kappa, gamma, etaL, etaU = pt.x, pt.s, pt.kappa, pt.gamma, pt.etaL, pt.etaU
        primal, dual = [], []
        if n_h:
            ds = -pt.r_h - _mv(pt.Jh, dx)
            dgamma = (-r_cs - gamma * ds) / s
            primal.append((s, ds))
            dual.append((gamma, dgamma))
        if iL.size:
            dxL = dx.take(iL, axis=-1)
            deL = (-r_L - pt.eL * dxL) / pt.dL
            detaL = np.zeros((M, n))
            detaL[:, iL] = deL
            primal.append((pt.dL, dxL))
            dual.append((pt.eL, deL))
        if iU.size:
            dxU = dx.take(iU, axis=-1)
            deU = (-r_U + pt.eU * dxU) / pt.dU
            detaU = np.zeros((M, n))
            detaU[:, iU] = deU
            primal.append((pt.dU, -dxU))
            dual.append((pt.eU, deU))
        if primal:
            steps = _max_steps(primal + dual)
            a_pri = steps[:, :len(primal)].min(axis=-1)
            a_dual = steps[:, len(primal):].min(axis=-1)
        else:
            a_pri = a_dual = np.ones(M)

        # backtrack on the barrier KKT residual; the last trial is forced.
        # ``search`` holds the rows still backtracking (None: every row);
        # each has failed every earlier trial, so theta is theirs alike
        search = None
        pieces = []  # (rows or None, trial point, its accepted rows, its error)
        for bt in range(9):
            theta = 0.5 ** bt
            if search is None:
                sel, ws, ap, ad = slice(None), w, a_pri, a_dual
            else:
                sel, ws, ap, ad = search, w[search], a_pri[search], a_dual[search]
            tp = (theta * ap)[:, None]
            td = (theta * ad)[:, None]
            xt = x[sel] + tp * dx[sel]
            bad = {}
            evt = ws.eval_point(xt, bad)
            trial = _Point(
                ws, xt,
                s[sel] + tp * ds[sel] if n_h else s[sel],
                kappa[sel] + td * dkappa[sel] if n_g else kappa[sel],
                gamma[sel] + td * dgamma[sel] if n_h else gamma[sel],
                etaL[sel] + td * detaL[sel] if iL.size else etaL[sel],
                etaU[sel] + td * detaU[sel] if iU.size else etaU[sel],
                evt,
            )
            errt = trial.err(mu_c[sel])
            if bt < 8:
                # a finite error below the decrease target (the clamp makes
                # an infinite one fail, as an infinite target would not)
                target = (1.0 - 1e-4 * theta * ap) * err_mu[sel]
                ok = errt <= np.minimum(target, _FLOAT_MAX)
            else:
                ok = np.isfinite(errt)
            if bad:
                ok[list(bad)] = False
            if ok.all():
                pieces.append((search, trial, slice(None), errt))
                break
            rows = np.arange(M) if search is None else search
            if ok.any():
                pieces.append((rows[ok], trial, ok, errt))
            search = rows[~ok]
        else:
            # every trial left the evaluation domain; give up on these centers
            gave_up = np.zeros(M, dtype=bool)
            gave_up[search] = True
            _settle(out, ids, pt, gave_up, "stalled", newton + 1, err0)
            keep = ~gave_up
            if not keep.any():
                return out
            w, ids, mu, best_pri, stall, err0 = (
                None if v is None else v[keep]
                for v in (w, ids, mu, best_pri, stall, err0)
            )
            slot = np.cumsum(keep) - 1  # a kept row's new position
            pieces = [(slot[rows], *rest) for rows, *rest in pieces]
            M = len(ids)
        if pieces[0][0] is None:  # every lane accepted its first trial
            pt, err_mu = pieces[0][1], pieces[0][3]
        else:
            pt = _Point.merge(M, [piece[:3] for piece in pieces])
            err_mu = np.empty(M)
            for rows, _, acc, errt in pieces:
                err_mu[rows] = errt[acc]
    else:
        newton = MAX_NEWTON

    _settle(out, ids, pt, slice(None), "max-iter", newton, err0)
    return out


def solve_local(sub, z, lam, Sigma, p=None, warm=None, tol=1e-10):
    """Solve one block's proximal NLP to the given KKT tolerance.

    The block runs as a group of one through ``solve_group``, and a lane of
    any group it belongs to gets this same result.

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
    p = sub.p0 if p is None else p
    (sol,) = solve_group(
        BlockGroup([sub]), [z], lam, [Sigma], [p],
        warm=None if warm is None else [warm], tol=tol,
    )
    if isinstance(sol, Exception):
        raise sol
    return sol
