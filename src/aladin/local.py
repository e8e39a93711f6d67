"""Local solver: primal-dual interior point for the per-block proximal NLPs.

Each outer iteration solves, independently per block,

    min_x  f(x, p) + lam' A x + (x - z)' Sigma (x - z)
    s.t.   g(x, p) = 0,   h(x, p) <= 0,   lb <= x <= ub.

Slack variables handle h; the box rows are kept in the barrier directly.
Newton steps act on the condensed symmetric KKT system with inertia
correction, a 0.995 fraction-to-boundary rule, and monotone barrier reduction
by a factor of 0.2.

Blocks are solved in groups.  ``group_blocks`` forms them once per run: a
``BlockGroup`` holds blocks of equal shapes (n_x, n_p, n_g, n_h), equal
finite-bound masks and the same absent root sets (an affine row's zero
Hessian, say); their compiled tapes may differ in structure, as a constant
folded to 0 or 1 changes a tape.  ``solve_group`` runs one interior-point
loop over a group in lockstep.  Every block is a lane: each iterate is an
array with the lanes first, and each root set runs once for all lanes
through the group's ``expr._LaneTape``, which splits the lanes by tape key
(``expr._Tape.key``: the same instructions, loads and output positions,
only the constants may differ) and picks each part's interpreter: a single
lane runs its block's own scalar tape, several run in wavefronts, one ufunc
call per batch of instructions of one dependency level and one operator.
The group owns evaluation: only its ``eval_point`` and ``hessian`` know the
root sets' positions and run the lane tapes, for this loop and the driver's
sensitivities alike.  Every lane keeps its own decisions (warm check,
interior projection, barrier parameter, stall watch, step lengths,
backtracking, domain errors) and leaves the loop when it converges, stalls,
fails or runs out of Newton steps.  The state of the lanes still iterating
is one lanes-first container, compacted by one row selection wherever lanes
leave, so a lane costs nothing once it has left.
Each Newton step's condensed KKT system and its right-hand side are stacked
over the lanes.  Without equality rows the system is W, and the step needs W
positive definite: one stacked Cholesky factorization tests that, and two
stacked solves with a refinement residual between them give the step.  The
lanes it rejects, and every lane of a group with equality rows, take the
LDL^T path: the factorization, its inertia test and the two back-solves run
lane by lane, the refinement residual and the finite test stacked, and the
inertia-correction attempts rerun only the lanes that failed.  A lane's
route depends only on its own system, so its result is bit for bit that of
solving its block alone, and ``solve_local`` is that: a group of one.  A
group's results come back lanes first, as one ``GroupSolution`` that also
keeps each lane's evaluation at its solution, the last one the loop made.

Each point is evaluated and reduced to its residual parts once: the
stationarity, equality and slacked-inequality residuals r_x, r_g, r_h and the
complementarity products s*gamma, (x - lb)*etaL, (ub - x)*etaU, none of which
depend on the barrier parameter.  The KKT error at any mu subtracts mu from
the products only, so an accepted trial point carries its parts into the
next iteration's convergence test, barrier update and Newton right-hand
side.  A warm start's check point is the start point itself when the interior
projection and the start's floors leave it unchanged; when the projection
moves any lane, every lane is evaluated again at its start point.  Empty
constraint blocks cost no evaluation and no step arithmetic; a block has at
least one variable, so r_x is never empty.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import SingularKktError
from .linalg import LdlFactor, mv
from .problem import stack_chunks

__all__ = [
    "BlockGroup", "GroupSolution", "LocalSolution", "group_blocks", "solve_group",
    "solve_local",
]

_FLOAT_MAX = np.finfo(float).max
FTB = 0.995           # fraction-to-boundary
BARRIER_FACTOR = 0.2  # monotone mu reduction
MAX_NEWTON = 100
_NO_ROWS = np.zeros(0, dtype=np.intp)


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


class GroupSolution:
    """The local solutions of a group's blocks, lanes first.

    ``x``, ``kappa``, ``gamma``, ``eta`` (as in LocalSolution), ``status``
    (an object array of str), ``iterations`` and ``kkt_residual`` hold one
    row per lane; ``grad_f``, ``h``, ``Jg`` and ``Jh`` are each lane's
    evaluation at its x, which the solver made for its last point.
    ``errors`` maps a lane to the DomainEvalError or SolverError that
    solving its block alone would have raised; that lane's rows are not
    meaningful.  As a sequence, lane k is its LocalSolution (row views) or
    its error.
    """

    __slots__ = ("x", "kappa", "gamma", "eta", "status", "iterations",
                 "kkt_residual", "grad_f", "h", "Jg", "Jh", "errors")

    def __init__(self, N, n, n_g, n_h):
        self.x = np.zeros((N, n))
        self.kappa = np.zeros((N, n_g))
        self.gamma = np.zeros((N, n_h))
        self.eta = np.zeros((N, 2 * n))
        self.status = np.full(N, None, dtype=object)
        self.iterations = np.zeros(N, dtype=np.intp)
        self.kkt_residual = np.full(N, np.nan)
        self.grad_f = np.zeros((N, n))
        self.h = np.zeros((N, n_h))
        self.Jg = np.zeros((N, n_g, n))
        self.Jh = np.zeros((N, n_h, n))
        self.errors = {}

    def put(self, lanes, pt, rows, status, iterations, err):
        """Write rows ``rows`` of the point ``pt`` (its x, kappa, gamma, etaL,
        etaU, h, grad_f, Jg, Jh) at ``lanes``, with status, steps, residuals."""
        n = self.x.shape[-1]
        for name in ("x", "kappa", "gamma", "h", "grad_f", "Jg", "Jh"):
            getattr(self, name)[lanes] = getattr(pt, name)[rows]
        self.eta[lanes, :n] = pt.etaL[rows]
        self.eta[lanes, n:] = pt.etaU[rows]
        self.status[lanes] = status
        self.iterations[lanes] = iterations
        self.kkt_residual[lanes] = err

    def __len__(self):
        return len(self.status)

    def __getitem__(self, k):
        if k in self.errors:
            return self.errors[k]
        return LocalSolution(
            self.x[k], self.kappa[k], self.gamma[k], self.eta[k], self.status[k],
            int(self.iterations[k]), self.kkt_residual[k],
        )

    def __iter__(self):
        return (self[k] for k in range(len(self)))


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
    """Blocks solved in lockstep: equal shapes, bound masks and absent tapes.

    ``blocks`` are the blocks' indices in their problem (``index``: the
    same as an array), ``subs`` the blocks, ``A`` their coupling matrices
    and ``tapes`` their root sets (``_root_sets``; given as ``tapes`` when
    the caller has them already).  Shared by all: ``n`` = n_x, ``n_g``,
    ``n_h``, the finite-bound masks ``mL``/``mU`` and their indices
    ``iL``/``iU``, and ``rows``, the (0 for g or 1 for h, row, root-set
    position) of every constraint row whose Hessian is not zero; ``lb`` and
    ``ub`` stack the bounds, lanes first, and ``lane`` holds one
    ``_LaneTape`` per root set (None where the blocks have no such tape),
    which splits the lanes by tape key where the blocks' tapes differ.  The
    group owns its blocks' evaluation: only its ``eval_point`` and
    ``hessian`` run the lane tapes.  Every block has at least one variable.
    """

    def __init__(self, subs, blocks=None, tapes=None):
        self.subs = list(subs)
        self.blocks = tuple(range(len(self.subs)) if blocks is None else blocks)
        self.index = np.array(self.blocks, dtype=np.intp)
        first = self.subs[0]
        self.n, self.n_g, self.n_h = first.n_x, first.n_g, first.n_h
        self.mL = np.isfinite(first.lb)
        self.mU = np.isfinite(first.ub)
        self.iL = np.flatnonzero(self.mL)
        self.iU = np.flatnonzero(self.mU)
        self.bounded = bool(self.iL.size or self.iU.size)
        self.lb = np.array([s.lb for s in self.subs])
        self.ub = np.array([s.ub for s in self.subs])
        self.A = [s.A for s in self.subs]
        self.tapes = [_root_sets(s) for s in self.subs] if tapes is None else tapes
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

    def coupling(self, start=0, stop=None):
        """The coupling matrices A_i of lanes start..stop, stacked a chunk
        of lanes at a time (``problem.stack_chunks``), as (first lane, stack)
        pairs.

        Their stacked products stay those of the dense 2-D A_i (a product
        with the compact rows A_i[C(i)] does not round alike).
        """
        return stack_chunks(self.A, start, stop)

    def _runner(self, x, p, lanes, errors):
        """run(position, rows=None): one root set's results, lanes first.

        The lanes are the group's blocks ``lanes`` at the rows of ``x`` and
        ``p``; given ``rows``, only those rows run.  Each lane's
        DomainEvalError goes into ``errors`` under its row, an earlier error
        of the row being kept.
        """
        tapes = self.lane

        def run(i, rows=None):
            if rows is None:
                return tapes[i].run(x, p, lanes, errors)
            return tapes[i].run_rows(x, p, lanes, rows, errors)

        return run

    def eval_point(self, x, p, lanes, errors):
        """(g, h, grad f, Jg, Jh) of the blocks ``lanes`` at the rows of x
        and p, lanes first.

        A lane whose evaluation leaves the domain has its first
        DomainEvalError put in ``errors`` under its row, and its row of the
        results is not meaningful.  Absent g/h are stood in for by empty
        arrays and never evaluated.
        """
        run = self._runner(x, p, lanes, errors)
        k, n, n_g, n_h = len(x), self.n, self.n_g, self.n_h
        g = run(_G) if n_g else np.zeros((k, 0))
        h = run(_H) if n_h else np.zeros((k, 0))
        grad_f = run(_GRAD_F)
        Jg = run(_JG).reshape(k, n_g, n) if n_g else np.zeros((k, 0, n))
        Jh = run(_JH).reshape(k, n_h, n) if n_h else np.zeros((k, 0, n))
        return g, h, grad_f, Jg, Jh

    def hessian(self, x, p, lanes, kappa, gamma, errors):
        """Hessian of the Lagrangian f + kappa.g + gamma.h per lane; the
        lanes and errors as in ``eval_point``.

        As ``lagrangian_hessian``: the rows' terms follow f's in row order,
        and a term is added only on the lanes whose multiplier is nonzero (a
        masked add, never a multiply by 0).
        """
        run = self._runner(x, p, lanes, errors)
        k, n = len(kappa), self.n
        H = (
            run(_HESS_F).reshape(k, n, n)
            if self.lane[_HESS_F] is not None else np.zeros((k, n, n))
        )
        for which, j, i in self.rows:
            mult = (kappa, gamma)[which][:, j]
            on = mult != 0.0
            if on.all():
                H += mult[:, None, None] * run(i).reshape(k, n, n)
            elif on.any():
                rows = np.flatnonzero(on)
                H[rows] += mult[rows, None, None] * run(i, rows).reshape(-1, n, n)
        return H

    @property
    def may_act(self):
        """Whether any inequality or bound row of these blocks exists."""
        return bool(self.n_h) or self.bounded


def group_blocks(subs):
    """Partition blocks into lockstep groups, ordered by their first block.

    A group's blocks agree in n_x, n_p, n_g, n_h, their finite-bound masks
    and which of their root sets are None; their tape keys may differ, and
    the group's lane tapes split by them.  Each block's root sets are
    compiled once, and its group keeps them.
    """
    groups = {}
    for i, sub in enumerate(subs):
        tapes = _root_sets(sub)
        key = (
            sub.n_x, sub.n_p, sub.n_g, sub.n_h,
            np.isfinite(sub.lb).tobytes(), np.isfinite(sub.ub).tobytes(),
            tuple(t is None for t in tapes),
        )
        idx, sets = groups.setdefault(key, ([], []))
        idx.append(i)
        sets.append(tapes)
    return [
        BlockGroup([subs[i] for i in idx], idx, tapes)
        for idx, tapes in groups.values()
    ]


def _take(v, rows):
    """The rows of a lanes-first array or object, None, or a tuple of them."""
    if type(v) is tuple:
        return tuple(_take(u, rows) for u in v)
    return None if v is None else v[rows]


def _select(obj, rows, names):
    """A shallow copy of ``obj`` whose fields ``names`` keep only ``rows``:
    the one row selection of the work, points and lanes' state."""
    new = copy.copy(obj)
    for name in names:
        setattr(new, name, _take(getattr(obj, name), rows))
    return new


class _Work:
    """The lanes of one group at fixed (z, lam, Sigma, p).

    Per lane, lanes first: ``z``, ``Sigma``, ``p``, ``Alam`` = A' lam, the
    bounds ``lb``/``ub`` and the finite ones ``lbL``/``ubU``; ``lanes``
    indexes the group's blocks, and ``w[rows]`` is the work of some of the
    lanes.  Every evaluation is the group's (``BlockGroup.eval_point`` and
    ``BlockGroup.hessian``) on these lanes.
    """

    _PER_LANE = ("lanes", "z", "Sigma", "Sigma2", "p", "Alam", "lb", "ub", "lbL",
                 "ubU")

    def __init__(self, group, z, lam, Sigma, p):
        self.group = group
        self.lanes = np.arange(len(group))
        self.Alam = (
            np.concatenate([mv(A.swapaxes(-1, -2), lam) for _, A in group.coupling()])
            if lam.size else np.zeros((len(group), group.n))
        )
        self.lb, self.ub = group.lb, group.ub
        self.z, self.Sigma, self.p = z, Sigma, p
        self.Sigma2 = 2.0 * Sigma  # the proximal term's Hessian
        self.n, self.n_g, self.n_h = group.n, group.n_g, group.n_h
        self.mL, self.mU, self.iL, self.iU = group.mL, group.mU, group.iL, group.iU
        self.bounded = group.bounded
        self.lbL = self.lb[..., self.iL]
        self.ubU = self.ub[..., self.iU]

    def __getitem__(self, rows):
        return _select(self, rows, self._PER_LANE)

    def eval_point(self, x, errors):
        """The group's ``BlockGroup.eval_point`` on these lanes at x."""
        return self.group.eval_point(x, self.p, self.lanes, errors)

    def hess(self, x, kappa, gamma, errors):
        """Hessian of the proximal Lagrangian per lane; errors as eval_point."""
        return self.group.hessian(x, self.p, self.lanes, kappa, gamma, errors) + self.Sigma2


class _Point:
    """A primal-dual point with its evaluation and mu-free residual parts.

    Every array has the lanes first.
    ``dL``/``dU`` are the distances to the finite bounds, ``eL``/``eU`` the
    multipliers on them and ``cs``/``pL``/``pU`` the complementarity
    products; ``r_g`` is g itself, and ``h``, ``grad_f``, ``Jg`` and ``Jh``
    are the evaluation.  ``fixed`` is the max norm of the mu-free
    parts r_x, r_g, r_h (NaN ignored), ``gmax`` that of r_g, and ``lead``
    that of r_x, the part the KKT error opens with (``nan``: some lane's
    lead is NaN).  ``pt[rows]`` is the point of some lanes.
    """

    _ARRAYS = ("x", "s", "kappa", "gamma", "etaL", "etaU", "r_g", "h", "grad_f",
               "Jg", "Jh", "r_x", "r_h", "cs", "dL", "dU", "eL", "eU", "pL", "pU",
               "fixed", "lead")
    _OPTIONAL = ("gmax",)  # per lane, or None
    __slots__ = _ARRAYS + _OPTIONAL + ("nan",)

    def __init__(self, w, x, s, kappa, gamma, etaL, etaU, ev):
        g, h, grad_f, Jg, Jh = ev
        self.x, self.s, self.kappa, self.gamma = x, s, kappa, gamma
        self.etaL, self.etaU = etaL, etaU
        self.r_g, self.h, self.grad_f, self.Jg, self.Jh = g, h, grad_f, Jg, Jh
        r_x = grad_f + w.Alam + 2.0 * mv(w.Sigma, x - w.z)
        if w.n_g:
            r_x = r_x + mv(Jg.swapaxes(-1, -2), kappa)
        if w.n_h:
            r_x = r_x + mv(Jh.swapaxes(-1, -2), gamma)
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
        self.lead = self.fixed = np.abs(self.r_x).max(axis=-1)
        self.gmax = np.abs(g).max(axis=-1) if w.n_g else None
        if w.n_g:
            self.fixed = np.fmax(self.fixed, self.gmax)
        if w.n_h:
            self.fixed = np.fmax(self.fixed, np.abs(self.r_h).max(axis=-1))
        self._mark()

    def _mark(self):
        # a NaN in any lane makes the max NaN
        self.nan = math.isnan(self.lead.max())

    def __getitem__(self, rows):
        new = _select(self, rows, self._ARRAYS + self._OPTIONAL)
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


def _attempt(K, x, n):
    """One try at a lane's KKT matrix K: its LDL^T factor, with x, which
    holds the right-hand side, overwritten by the first back-solve; or None
    when K fails to factor with inertia (n, m, 0)."""
    try:
        fac = LdlFactor(K)
        if fac.inertia() == (n, len(K) - n, 0):
            fac.back_solve(x)
            return fac
    except SingularKktError:
        pass
    return None


def _solve_newton(K, x, n):
    """A lane's Newton step on the LDL^T path: the ``_attempt`` on its
    uncorrected K.

    Runs once per lane and step whose K has equality rows or failed the
    Cholesky route (``_cholesky_step``); the correction rounds call
    ``_attempt``.
    """
    return _attempt(K, x, n)


def _attempts(attempt, K, rhs, n):
    """``attempt`` on every lane of the stacks K, rhs, finished by
    ``_refine``: the solutions, and the positions of the lanes not
    accepted."""
    X = rhs.copy()
    return X, _refine([attempt(k, x, n) for k, x in zip(K, X)], K, rhs, X)


def _cholesky_step(K, rhs):
    """Solve K x = rhs on the lanes whose K is positive definite.

    A lane is accepted when its K passes ``np.linalg.cholesky`` and its
    solution, by ``np.linalg.solve`` and one refinement step by the same
    route, is finite.  Returns the solutions and the positions of the lanes
    not accepted, whose rows are not meaningful.  Each stacked call gives
    every lane what the call on that lane alone gives, but a stacked
    factorization that fails raises for the whole stack; every lane is then
    taken alone, so a lane's route depends only on its own K.
    """
    try:
        np.linalg.cholesky(K)
        b = rhs[..., None]
        X = np.linalg.solve(K, b)
        # a lane with an infinite entry may pass the factorization; its
        # non-finite solution is rejected below, and must not warn here
        with np.errstate(invalid="ignore", over="ignore"):
            R = b - K @ X
        X += np.linalg.solve(K, R)
    except np.linalg.LinAlgError:
        if len(K) == 1:
            return rhs.copy(), np.zeros(1, dtype=np.intp)
        alone = [_cholesky_step(K[j:j + 1], rhs[j:j + 1]) for j in range(len(K))]
        X = np.concatenate([x for x, _ in alone])
        return X, np.flatnonzero([bad.size for _, bad in alone])
    X = X[..., 0]
    fin = np.isfinite(X)
    return X, _NO_ROWS if fin.all() else np.flatnonzero(~fin.all(axis=-1))


def _refine(facs, K, rhs, X):
    """Finish per-lane attempts on the lanes of the stacks K, rhs.

    ``facs`` holds each lane's factor, or None where its attempt failed, and
    X its first back-solve.  Every lane with a factor takes one step of
    iterative refinement in X, its residual formed for all of them at once,
    and is accepted when its refined solution is finite.  Returns the
    positions of the lanes not accepted, whose rows of X are not meaningful.
    """
    have = [fac for fac in facs if fac is not None]
    rows, Xr = None, X
    if len(have) < len(facs):  # the lanes with a factor, on a copy of their rows
        rows = np.flatnonzero([fac is not None for fac in facs])
        K, rhs, Xr = K[rows], rhs[rows], X[rows]
    R = rhs - mv(K, Xr)
    for fac, r in zip(have, R):
        fac.back_solve(r)
    Xr += R
    fin = np.isfinite(Xr).all(axis=-1)
    if rows is None:
        return _NO_ROWS if fin.all() else np.flatnonzero(~fin)
    X[rows] = Xr
    return np.setdiff1d(np.arange(len(facs)), rows[fin])


def _newton_step(W, Jg, rhs_x, rhs_g, failed):
    """(dx, dkappa) of the condensed KKT system of every lane not in ``failed``,
    one row per such lane.

    K = [W, Jg'; Jg, 0] and its right-hand side are built for all lanes at
    once.  Without equality rows K = W, and the inertia the step needs,
    (n, 0, 0), means W is positive definite: the lanes first take the
    stacked Cholesky route (``_cholesky_step``), and only those it rejects
    go on to the LDL^T path.  There the factorization, its inertia test and
    the two back-solves run lane by lane, and the refinement residual and
    the finite test are stacked (``_refine``).  A lane that fails is
    corrected as in IPOPT: W + zeta I, zeta growing 100-fold per attempt,
    and from the eighth attempt on a -zeta_d I block as well.  Only the
    failing lanes rerun, each with its own zeta; a lane left without an
    acceptable one of 12 attempts gets a SingularKktError in ``failed``.
    """
    M, n = rhs_x.shape
    N = n + rhs_g.shape[-1]
    K = np.zeros((M, N, N))
    # W + 0.0 turns -0.0 into 0.0, as W + zeta I does
    np.add(W, 0.0, out=K[:, :n, :n])
    if N > n:
        K[:, :n, n:] = Jg.swapaxes(-1, -2)
        K[:, n:, :n] = Jg
    rhs = np.concatenate([rhs_x, rhs_g], axis=-1)
    # the lanes not failed yet; X, K and rhs hold their rows
    if failed:
        rows = np.array([r for r in range(M) if r not in failed], dtype=np.intp)
        K, rhs = K[rows], rhs[rows]
    else:
        rows = np.arange(M)
    if N > n:
        X, bad = _attempts(_solve_newton, K, rhs, n)
    else:
        X, bad = _cholesky_step(K, rhs)
        if bad.size:
            X[bad], worse = _attempts(_solve_newton, K[bad], rhs[bad], n)
            bad = bad[worse]
    if not bad.size:
        return X[:, :n], X[:, n:]
    zeta = 1e-8 * (1.0 + np.abs(W[rows[bad]]).max(axis=(-2, -1), initial=0.0))
    zeta_d = 0.0
    for attempt in range(1, 12):
        if not bad.size:
            break
        Kc = K[bad]
        # W + zeta I: zeta on the first n entries of K's diagonal
        Kc.reshape(bad.size, N * N)[:, : n * (N + 1) : N + 1] += zeta[:, None]
        if zeta_d:
            Kc[:, n:, n:] = -zeta_d * np.eye(N - n)
        X[bad], worse = _attempts(_attempt, Kc, rhs[bad], n)
        bad, zeta = bad[worse], zeta[worse] * 100.0
        if attempt >= 6:
            zeta_d = zeta_d * 100.0 if zeta_d else 1e-10
    for r in rows[bad]:
        failed[r] = SingularKktError(
            "local KKT system could not be corrected to solvable form"
        )
    X = np.delete(X, bad, axis=0)
    return X[:, :n], X[:, n:]


class _Lanes:
    """Per-lane state as fields, each lanes first; ``st[rows]`` selects those
    rows of every field.  The running lanes keep their work ``w``, point
    ``pt``, barrier parameter ``mu``, KKT errors ``err_mu`` at mu and ``err0``
    at 0, least violation ``best_pri`` and ``stall``, steps since it fell."""

    def __init__(self, **fields):
        self.__dict__.update(fields)

    def __getitem__(self, rows):
        return _select(self, rows, vars(self))

    def leave(self, out, newton=0, errors=None, **settled):
        """Record in ``out`` the rows that leave, each row of ``errors`` with
        its error and the rows (mask or indices) of each ``settled`` at their
        point, with its keyword as status, after ``newton`` steps; the
        others' state, or None when none is left."""
        keep = np.ones(len(self.w.lanes), dtype=bool)
        for status, rows in settled.items():
            lanes = self.w.lanes[rows]
            if lanes.size:
                out.put(lanes, self.pt, rows, status, newton, self.err0[rows])
                keep[rows] = False
        for r, err in (errors or {}).items():
            out.errors[int(self.w.lanes[r])], keep[r] = err, False
        return self[keep] if keep.any() else None


def solve_group(group, z, lam, Sigma, p, warm=None, tol=1e-10):
    """Solve every block of a group to the given KKT tolerance, in lockstep.

    Parameters
    ----------
    group : BlockGroup
    z, Sigma, p : stacks, lanes first, or sequences with one entry per block
        Proximal centers (L, n), proximal weight matrices (L, n, n) and
        parameter vectors (L, n_p); a float array is used as it is.
    lam : array_like
        Consensus dual, shared by all blocks.
    warm : GroupSolution, sequence of LocalSolution, or None
        One previous solution per block (all or none); each is checked
        first and reused as its block's start point.
    tol : float
        Target for every block's maximum KKT residual.

    Returns
    -------
    GroupSolution
        Per block, its LocalSolution, or in ``errors`` the DomainEvalError
        or SolverError that solving it alone would have raised; the other
        blocks are unaffected by it.

    Raises
    ------
    ValueError
        If a z or p has the wrong length, or their number is not the
        group's.
    """
    lam = np.asarray(lam, dtype=float)
    z = _stack("z", z, len(group), group.n)
    p = _stack("p", p, len(group), group.subs[0].n_p)
    w = _Work(group, z, lam, np.asarray(Sigma, dtype=float), p)
    return _lockstep(w, warm, tol)


def _stack(name, rows, N, size):
    """The N vectors of length ``size`` in ``rows`` as an (N, size) array."""
    a = np.asarray(rows, dtype=float)
    if a.shape[:1] != (N,):
        raise ValueError(f"expected {N} {name} vectors, got shape {a.shape}")
    if a.shape[1:] != (size,):
        raise ValueError(f"expected {name} of length {size}, got shape {a.shape[1:]}")
    return a


def _warm_stacks(warm):
    """(x, kappa, gamma, eta) of a warm start, lanes first."""
    if isinstance(warm, GroupSolution):
        return warm.x, warm.kappa, warm.gamma, warm.eta
    return tuple(np.array([getattr(s, k) for s in warm])
                 for k in ("x", "kappa", "gamma", "eta"))


def _lockstep(w, warm, tol):
    """The interior-point loop over the lanes of ``w``, as a GroupSolution.

    The running lanes keep their state in one ``_Lanes`` container.  A lane
    leaves by one of five exits, each a ``_Lanes.leave`` that records it and
    compacts the others: (1) its warm start meets tol, or the warm check's
    evaluation fails; (2) its start point's evaluation fails; (3) it
    converges or stalls; (4) its Hessian or KKT system fails; (5) every
    backtracking trial leaves the domain.  Lanes left after MAX_NEWTON
    steps end "max-iter"."""
    n, n_g, n_h = w.n, w.n_g, w.n_h
    iL, iU = w.iL, w.iU
    # by lane; st.w.lanes holds the lane of each row still running
    out = GroupSolution(len(w.lanes), n, n_g, n_h)

    # exit 1: a warm start already at KKT quality is returned unchanged
    chk = None
    if warm is not None:
        x, kappa, gamma, eta = _warm_stacks(warm)
        errors = {}
        ev = w.eval_point(x, errors)
        chk = _Point(
            w, x, np.maximum(-ev[1], 0.0), kappa, gamma, eta[:, :n], eta[:, n:], ev
        )
        err0 = chk.err(0.0)
        done = err0 <= tol
        if w.bounded:
            done &= (x >= w.lb).all(axis=-1) & (x <= w.ub).all(axis=-1)
        if errors or done.any():
            st = _Lanes(w=w, pt=chk, err0=err0).leave(out, 0, errors, converged=done)
            if st is None:
                return out
            w, chk = st.w, st.pt

    # strictly interior start
    x = (w.z if chk is None else chk.x).copy()
    if w.bounded:
        span = w.ub - w.lb
        margin = np.where(
            np.isfinite(span), np.minimum(1e-2 * (1.0 + np.abs(x)), 0.25 * span), 1e-2
        )
        x = np.where(w.mL, np.maximum(x, w.lb + margin), x)
        x = np.where(w.mU, np.minimum(x, w.ub - margin), x)

    # the warm check's evaluation stands unless the projection moved a lane
    moved = chk is not None and w.bounded and not (x == chk.x).all()
    if chk is None or moved:
        errors = {}
        ev = w.eval_point(x, errors)
        if errors:  # exit 2: the evaluation fails at the start point
            st = _Lanes(w=w, pt=chk, x=x, ev=ev).leave(out, errors=errors)
            if st is None:
                return out
            w, chk, x, ev = st.w, st.pt, st.x, st.ev
    else:
        ev = chk.r_g, chk.h, chk.grad_f, chk.Jg, chk.Jh
    M = len(w.lanes)
    h = ev[1]
    etaL = np.zeros((M, n))
    etaU = np.zeros((M, n))
    if chk is not None:
        s = np.maximum(-h, 1e-8)
        gamma = np.maximum(chk.gamma, 1e-8)
        kappa = chk.kappa.copy()
        comp = np.mean(s * gamma, axis=-1) if n_h else np.full(M, 1e-3)
        comp = np.where(comp < 1e-3, comp, 1e-3)
        mu = np.where(comp > tol / 10.0, comp, tol / 10.0)
        etaL[:, iL] = np.maximum(chk.etaL[:, iL], 1e-8)
        etaU[:, iU] = np.maximum(chk.etaU[:, iU], 1e-8)
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
    # err_mu is the error at the current mu; an accepted trial brings its own
    st = _Lanes(w=w, pt=pt, mu=mu, err_mu=pt.err(mu[:, None]),
                best_pri=np.full(M, np.inf), stall=np.zeros(M, dtype=np.intp))
    # every lane still running has taken ``newton`` Newton steps
    for newton in range(MAX_NEWTON):
        st.err0 = st.pt.err(0.0)
        conv = st.err0 <= tol

        # infeasibility watch: true violation failing to decrease; a lane
        # at or below tol restarts its count
        pri = st.pt.gmax if n_g else np.zeros(len(conv))
        if n_h:
            viol = np.maximum(st.pt.h, 0.0).max(axis=-1)
            pri = np.where(viol > pri, viol, pri)
        high = pri > tol
        stop = conv
        if high.any():
            st.stall = np.where((pri >= st.best_pri - 1e-16) & high, st.stall + 1, 0)
            stop = conv | (st.stall >= 10)
        else:
            st.stall = np.zeros(len(conv), dtype=np.intp)
        st.best_pri = np.fmin(st.best_pri, pri)
        if stop.any():
            # exit 3: converged or stalled
            st = st.leave(out, newton, converged=conv, stalled=stop & ~conv)
            if st is None:
                return out
        w, pt, mu, M = st.w, st.pt, st.mu, len(st.mu)

        cut = (st.err_mu <= 10.0 * mu) & (mu > mu_min)
        if cut.any():
            # max(mu_min, BARRIER_FACTOR * mu) on the lanes that cut
            lower = np.fmax(BARRIER_FACTOR * mu, mu_min)
            st.mu = mu = lower if cut.all() else np.where(cut, lower, mu)
            st.err_mu = pt.err(mu[:, None])
        mu_c = mu[:, None]

        # the condensed Newton system
        failed = {}
        W = w.hess(pt.x, pt.kappa, pt.gamma, failed)
        rhs_x = -pt.r_x
        r_L = r_U = r_cs = None
        if w.bounded:
            r_L, r_U = pt.pL - mu_c, pt.pU - mu_c
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
            rhs_x = rhs_x - mv(JhT, (pt.gamma * pt.r_h - r_cs) / pt.s)
        dx, dkappa = _newton_step(W, pt.Jg, rhs_x, -pt.r_g, failed)
        if failed:
            # exit 4; the products less mu are taken again on the rows kept
            st = st.leave(out, errors=failed)
            if st is None:
                return out
            w, pt, M, mu_c = st.w, st.pt, len(st.mu), st.mu[:, None]
            r_L, r_U = (pt.pL - mu_c, pt.pU - mu_c) if w.bounded else (None, None)
            r_cs = pt.cs - mu_c if n_h else None

        # multiplier steps and the step lengths to the boundary, per lane
        x, s, kappa, gamma, etaL, etaU = pt.x, pt.s, pt.kappa, pt.gamma, pt.etaL, pt.etaU
        ds = dgamma = detaL = detaU = None
        primal, dual = [], []
        if n_h:
            ds = -pt.r_h - mv(pt.Jh, dx)
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
        # each has failed every earlier trial, so theta is theirs alike.
        # ``cur`` is their work, step lengths, mu, error, values and steps,
        # x and s moving by a_pri and the multipliers by a_dual; it is
        # selected anew only when some row accepts
        search = gave_up = None
        full = cur = (w, a_pri, a_dual, mu_c, st.err_mu, (x, s, kappa, gamma, etaL, etaU),
                      (dx, ds, dkappa if n_g else None, dgamma, detaL, detaU))
        pieces = []  # (rows or None, point, its rows taken, their errors)
        for bt in range(9):
            theta = 0.5 ** bt
            ws, ap, ad, mus, errs, values, moves = cur
            tp = (theta * ap)[:, None]
            td = (theta * ad)[:, None]
            vals = [v if dv is None else v + (td if k > 1 else tp) * dv
                    for k, (v, dv) in enumerate(zip(values, moves))]
            bad = {}
            trial = _Point(ws, *vals, ws.eval_point(vals[0], bad))
            errt = trial.err(mus)
            if bt < 8:
                # a finite error below the decrease target (the clamp makes
                # an infinite one fail, as an infinite target would not)
                target = (1.0 - 1e-4 * theta * ap) * errs
                ok = errt <= np.minimum(target, _FLOAT_MAX)
            else:
                ok = np.isfinite(errt)
            if bad:
                ok[list(bad)] = False
            if ok.all():
                pieces.append((search, trial, slice(None), errt))
                break
            if ok.any():
                rows = np.arange(M) if search is None else search
                pieces.append((rows[ok], trial, ok, errt))
                search = rows[~ok]
                cur = _take(full, search)
        else:
            # exit 5: every trial left the evaluation domain; the rows give
            # up on these centers at their current point
            gave_up = np.arange(M) if search is None else search
            pieces.append((gave_up, pt, gave_up, st.err_mu))
        if pieces[0][0] is None:  # every lane accepted the same trial
            st.pt, st.err_mu = pieces[0][1], pieces[0][3]
        else:
            st.pt = _Point.merge(M, [piece[:3] for piece in pieces])
            st.err_mu = np.empty(M)
            for rows, _, acc, errt in pieces:
                st.err_mu[rows] = errt[acc]
        if gave_up is not None:
            st = st.leave(out, newton + 1, stalled=gave_up)
            if st is None:
                return out

    out.put(st.w.lanes, st.pt, slice(None), "max-iter", MAX_NEWTON, st.err0)
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
