"""Problem data model: subproblem blocks, coupling, options, JSON IO.

A :class:`SeparableProblem` is a list of blocks, each with its own objective
``f_i``, equality/inequality constraints ``g_i``/``h_i``, box bounds, and a
coupling matrix ``A_i``; the blocks interact only through the affine consensus
rows ``sum_i A_i x_i = b``.  Block i takes part in the consensus rows C(i),
the nonzero rows of A_i (``coupling_rows``).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .expr import VectorFunction

__all__ = [
    "Subproblem",
    "SeparableProblem",
    "SolverOptions",
    "validate",
    "set_parameters",
    "load_problem_json",
    "problem_from_dict",
    "problem_to_dict",
]


_NO_ROWS = np.zeros(0, dtype=np.intp)
_CHUNK_FLOATS = 1 << 15  # floats per stacked copy of coupling matrices


def _as_vec(v, n, name, fill=0.0):
    if v is None:
        return np.full(n, fill, dtype=float)
    a = np.asarray(v, dtype=float).reshape(-1)
    if a.size != n:
        raise ValueError(f"{name} must have length {n}, got {a.size}")
    return a


def empty_function(n_x, n_p=0):
    """The 0-output function; stands in for absent g_i / h_i."""
    return VectorFunction([], n_x, n_p)


class Subproblem:
    """One block of the partially separable problem.

    Parameters
    ----------
    f : VectorFunction
        Scalar objective over (x_i, p_i).
    g, h : VectorFunction or None
        Equality and inequality constraint functions; None means 0 outputs.
    A : array_like
        Coupling matrix with one row per consensus constraint.
    lb, ub : array_like or None
        Box bounds; None means unbounded (+-inf allowed entrywise).
    p : array_like or None
        Default parameter values (length f.n_p).
    z0 : array_like or None
        Initial guess for the block's variables (defaults to zeros).
    """

    def __init__(self, f, g=None, h=None, A=None, lb=None, ub=None, p=None, z0=None):
        if f.n_out != 1:
            raise ValueError("objective must have exactly one output")
        if f.n_x < 1:
            raise ValueError("a subproblem needs at least one variable")
        self.f = f
        self.n_x = f.n_x
        self.n_p = f.n_p
        self.g = g if g is not None else empty_function(self.n_x, self.n_p)
        self.h = h if h is not None else empty_function(self.n_x, self.n_p)
        if A is None:
            A = np.zeros((0, self.n_x))
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.lb = _as_vec(lb, self.n_x, "lb", -np.inf)
        self.ub = _as_vec(ub, self.n_x, "ub", np.inf)
        self.p0 = _as_vec(p, self.n_p, "p")
        self.z0 = _as_vec(z0, self.n_x, "z0")

    @property
    def n_g(self):
        return self.g.n_out

    @property
    def n_h(self):
        return self.h.n_out

    def __repr__(self):
        return (
            f"Subproblem(n_x={self.n_x}, n_p={self.n_p}, n_g={self.n_g}, "
            f"n_h={self.n_h}, rows={self.A.shape[0]})"
        )


class SeparableProblem:
    """Blocks plus the consensus right-hand side b.

    ``parameters`` holds the active parameter vector per block; it is the only
    mutable state and is what :func:`set_parameters` updates, so repeated
    solves reuse every expression graph and cached derivative.

    The blocks' functions f, g and h are linked by structure
    (``expr.share_structure``): of the functions that differ only in their
    constants' values, one is differentiated and compiled, and the others
    take its tapes (bit for bit their own) with their own constants.
    Nothing is shared with another problem's functions, and an evaluation
    error still names the failing block's own node.
    """

    def __init__(self, subproblems, b=None, name=""):
        self.subproblems = list(subproblems)
        if not self.subproblems:
            raise ValueError("need at least one subproblem")
        n_c = self.subproblems[0].A.shape[0]
        self.b = _as_vec(b, n_c, "b")
        self.name = name
        self.parameters = [s.p0.copy() for s in self.subproblems]
        ex.share_structure([fun for s in self.subproblems for fun in (s.f, s.g, s.h)])

    @property
    def n_s(self):
        return len(self.subproblems)

    @property
    def n_c(self):
        return self.b.size

    def __repr__(self):
        return f"SeparableProblem(n_s={self.n_s}, n_c={self.n_c}, name={self.name!r})"


def stack_chunks(mats, start=0, stop=None):
    """Matrices start..stop of ``mats``, all of one shape, stacked a chunk
    at a time, as (first index, stack) pairs.

    A chunk copies at most about 256 kB (one matrix, if it alone is
    larger): the dense coupling matrices A_i are mostly zero, and no
    n_s x n_c x n_x copy of them is made.
    """
    stop = len(mats) if stop is None else stop
    step = max(1, _CHUNK_FLOATS // max(1, mats[start].size))
    for c in range(start, stop, step):
        yield c, np.array(mats[c:min(c + step, stop)])


def coupling_rows(As):
    """C(i) of every coupling matrix A_i in the list ``As``: the sorted
    indices of its nonzero rows, the rows with an entry != 0.0 (NaN is
    nonzero, -0.0 is zero).

    Consecutive matrices of one shape are stacked a chunk at a time
    (``stack_chunks``), and each chunk takes one ``np.flatnonzero`` scan;
    the index of a nonzero entry gives its lane and row by ``divmod``, and
    the rows are split by lane.
    """
    out = []
    for _, run in itertools.groupby(As, key=np.shape):
        run = list(run)
        for _, A in stack_chunks(run):
            k, n_c, n_x = A.shape
            # lane * n_c + row of each nonzero entry, ascending; each once
            cell = np.flatnonzero(A != 0.0) // max(n_x, 1)
            cell = cell[np.diff(cell, prepend=-1) != 0]
            lane, row = np.divmod(cell, max(n_c, 1))
            cut = np.searchsorted(lane, np.arange(k + 1)).tolist()
            out += [row[a:b] for a, b in zip(cut, cut[1:])]
    return out


def validate(problem):
    """Consistency check; returns the full list of violations (empty == ok).

    Every block's shapes, bounds, functions and parameters are checked, and
    every consensus row must be a coupling row C(i) of some block whose A_i
    has n_c rows; C(i) is ``coupling_rows``, one scan over all the coupling
    matrices.  The solvers call it on every problem they are given, before
    anything else reads it.
    """
    out = []
    subs = problem.subproblems
    n_c = problem.n_c
    for i, s in enumerate(subs):
        tag = f"subproblem {i}"
        if s.A.shape[0] != n_c:
            out.append(
                f"{tag}: coupling row mismatch (A has {s.A.shape[0]} rows, expected {n_c})"
            )
        if s.A.shape[1] != s.n_x:
            out.append(f"{tag}: A has {s.A.shape[1]} columns, expected {s.n_x}")
        if (s.lb > s.ub).any():
            out.append(f"{tag}: bound ordering violated (lb > ub componentwise)")
        if s.z0.size != s.n_x:
            out.append(f"{tag}: initial guess has length {s.z0.size}, expected {s.n_x}")
        for fun, nm in ((s.f, "f"), (s.g, "g"), (s.h, "h")):
            if fun.n_x != s.n_x or fun.n_p != s.n_p:
                out.append(
                    f"{tag}: {nm} declared over ({fun.n_x}, {fun.n_p}) inputs, "
                    f"expected ({s.n_x}, {s.n_p})"
                )
        if problem.parameters[i].size != s.n_p:
            out.append(f"{tag}: active parameter vector has wrong length")
    if n_c:
        covered = np.zeros(n_c, dtype=bool)
        rows = coupling_rows([s.A for s in subs if s.A.shape[0] == n_c])
        covered[np.concatenate([_NO_ROWS, *rows])] = True
        for c in np.flatnonzero(~covered):
            out.append(f"consensus row {c} is referenced by no subproblem")
    return out


def set_parameters(problem, i, p):
    """Point block i at a new parameter vector; no graphs are rebuilt."""
    s = problem.subproblems[i]
    p = np.asarray(p, dtype=float).reshape(-1)
    if p.size != s.n_p:
        raise ValueError(f"parameter vector must have length {s.n_p}, got {p.size}")
    problem.parameters[i] = p.copy()
    return problem


# ---------------------------------------------------------------------------
# solver options
# ---------------------------------------------------------------------------

HESSIAN_MODES = ("exact", "bfgs", "dbfgs")
VARIANTS = ("fullspace", "nullspace", "bilevel")
INNER_ALGS = ("dcg", "dadmm")


@dataclass
class SolverOptions:
    """Algorithm parameters; defaults are this library's choices.

    max_iter : outer iteration cap (default 100).
    term_eps : termination tolerance on both stopping norms; 0 disables the
        check and the solver always runs max_iter iterations.
    step_size : primal/dual step length in (0, 1]; 1 is the full step.
    sigma_init : initial proximal weight, Sigma_i = sigma_init * I.
    mu_init : initial slack penalty; the coordination QP weighs its slack
        with the diagonal Delta, which starts at (mu_init/2) * I.
    r_sigma, r_delta : per-iteration growth factors for Sigma_i and Delta.
    sigma_max, delta_max : growth stops once the pre-update inf-norm reaches
        these caps.
    act_margin : inequality rows with value > -act_margin count as active.
    hessian : "exact" (with optional regularization), "bfgs", or "dbfgs".
    reg, reg_param : eigenvalue-flip regularization switch and its floor.
    variant : how the coordination QP, always solved through its Schur dual
        system on the active-constraint nullspaces, gets its Hessians:
        "fullspace" projects the regularized Hessian, "nullspace"
        regularizes the projected one, and "bilevel" does as nullspace but
        solves the dual system with a decentralized inner algorithm.
    inner_alg, inner_iter : decentralized inner solver and its iteration cap.
    rho_admm : penalty parameter shared by the ADMM baseline and the
        decentralized inner ADMM.
    warm_start : reuse the previous dual to initialize the inner solver.
    del_up : rowwise Delta growth driven by per-row consensus violation
        (beta, gamma).
    log_every : print one progress line every N outer iterations (0 = quiet).
    local_tol_floor : tightest tolerance handed to the local solver.
    """

    max_iter: int = 100
    term_eps: float = 1e-8
    step_size: float = 1.0
    sigma_init: float = 1.0
    mu_init: float = 1e3
    r_sigma: float = 2.0
    r_delta: float = 2.0
    sigma_max: float = 1e6
    delta_max: float = 1e6
    act_margin: float = 1e-6
    hessian: str = "exact"
    reg: bool = True
    reg_param: float = 1e-4
    variant: str = "fullspace"
    inner_alg: str = "dcg"
    inner_iter: int = 20
    rho_admm: float = 1e2
    warm_start: bool = True
    del_up: bool = False
    beta: float = 10.0
    gamma: float = 0.25
    log_every: int = 0
    local_tol_floor: float = 1e-12

    def check(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.term_eps < 0:
            raise ValueError("term_eps must be nonnegative")
        if not 0.0 < self.step_size <= 1.0:
            raise ValueError("step_size must lie in (0, 1]")
        for nm in ("sigma_init", "mu_init", "sigma_max", "delta_max",
                   "act_margin", "reg_param", "rho_admm", "local_tol_floor"):
            if getattr(self, nm) <= 0:
                raise ValueError(f"{nm} must be positive")
        if self.r_sigma <= 1 or self.r_delta <= 1:
            raise ValueError("growth factors must exceed 1")
        if self.beta <= 1:
            raise ValueError("beta must exceed 1")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.inner_iter < 1:
            raise ValueError("inner_iter must be positive")
        if self.log_every < 0:
            raise ValueError("log_every must be nonnegative")
        if self.hessian not in HESSIAN_MODES:
            raise ValueError(f"hessian must be one of {HESSIAN_MODES}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.inner_alg not in INNER_ALGS:
            raise ValueError(f"inner_alg must be one of {INNER_ALGS}")
        return self


# ---------------------------------------------------------------------------
# JSON problem files
# ---------------------------------------------------------------------------

def _bound_from_json(v, n, fill):
    if v is None:
        return np.full(n, fill)
    return _as_vec([fill if item is None else float(item) for item in v], n, "bound")


def problem_from_dict(data):
    """Build a SeparableProblem from the documented JSON structure.

    A field that is missing where it is required, or whose value is
    malformed, raises a ValueError naming its subproblem and the field:
    ``subproblem k: 'field': ...``.
    """
    if "subproblems" not in data:
        raise ValueError("problem file must contain a 'subproblems' list")
    subs = []
    for k, sd in enumerate(data["subproblems"]):
        def read(name, build, *default):
            """``build`` of field ``name`` (or of ``default``, if given and
            the field is absent), its errors naming the field."""
            if name not in sd and not default:
                raise ValueError(f"subproblem {k}: missing {name!r}")
            try:
                return build(sd.get(name, *default))
            except (ValueError, TypeError) as err:
                raise ValueError(f"subproblem {k}: {name!r}: {err}") from None

        def functions(exprs):
            return VectorFunction([ex.expr_from_sexpr(e) for e in exprs], n_x, n_p)

        n_x = read("n_x", int)
        n_p = read("n_p", int, 0)
        f = read("f", lambda e: functions([e]))
        g = read("g", functions, [])
        h = read("h", functions, [])
        A = read("A", lambda a: a if a is None else np.asarray(a, dtype=float), None)
        lb = read("lb", lambda v: _bound_from_json(v, n_x, -np.inf), None)
        ub = read("ub", lambda v: _bound_from_json(v, n_x, np.inf), None)
        p = read("p", lambda v: _as_vec(v, n_p, "p"), None)
        z0 = read("z0", lambda v: _as_vec(v, n_x, "z0"), None)
        try:
            subs.append(Subproblem(f, g=g, h=h, A=A, lb=lb, ub=ub, p=p, z0=z0))
        except ValueError as err:  # with every field read, only n_x < 1 is left
            raise ValueError(f"subproblem {k}: 'n_x': {err}") from None
    n_c = subs[0].A.shape[0] if subs else 0
    b = data.get("b")
    if b is None:
        b = np.zeros(n_c)
    return SeparableProblem(subs, b=b, name=data.get("name", ""))


def _bound_to_json(vec, fill):
    return [None if (not np.isfinite(v) and v == fill) else float(v) for v in vec]


def problem_to_dict(problem):
    data = {"name": problem.name, "b": [float(v) for v in problem.b], "subproblems": []}
    for s in problem.subproblems:
        data["subproblems"].append(
            {
                "n_x": s.n_x,
                "n_p": s.n_p,
                "f": s.f.outputs[0].to_sexpr(),
                "g": [o.to_sexpr() for o in s.g.outputs],
                "h": [o.to_sexpr() for o in s.h.outputs],
                "A": [[float(v) for v in row] for row in s.A],
                "lb": _bound_to_json(s.lb, -np.inf),
                "ub": _bound_to_json(s.ub, np.inf),
                "p": [float(v) for v in s.p0],
                "z0": [float(v) for v in s.z0],
            }
        )
    return data


def load_problem_json(path):
    """Load a problem description from a JSON file (schema in the README)."""
    with open(path) as fh:
        data = json.load(fh)
    return problem_from_dict(data)
