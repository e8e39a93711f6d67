"""The outer loop of the augmented-Lagrangian SQP method and the ADMM baseline.

Both solvers run one loop (``_outer_loop``) and differ only in its
coordination step.  The blocks are grouped once per run into lockstep groups
of structurally identical blocks (``local.group_blocks``).  Per outer
iteration: (1) every block solves its proximal NLP around the current
(z, lam) with its weight Sigma_i, one lockstep solve per group, the groups in
block order, each block's result that of solving it alone; a block that
fails raises its error, the lowest such block's; (2) a block beyond the
divergence guard ends the run with
termination="error"; (3) the stopping norms ||sum A_i x_i - b||_inf and
||x - z||_inf are checked; (4) the step moves z and lam; (5) the iteration
is logged and, every ``log_every`` iterations, printed.  Failures of a layer
are re-raised with the outer iteration index.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .coordination import (
    ScalingState,
    reduced_result,
    solve_coordination_reduced,
    update_delta_by_violation,
    update_sigma,
)
from .decentral import run_dadmm, run_dcg, topology_from_rows, warm_start
from .errors import SolverError
# solve_local stays bound here, where the benchmark's tracer looks for it,
# though the loop solves whole groups through solve_group; it can go once
# the tracer's local span wraps solve_group
from .local import LocalSolution, group_blocks, solve_group, solve_local  # noqa: F401
from .problem import SolverOptions, validate
from .sensitivity import (
    SensitivityPack,
    detect_active,
    active_jacobian,
    bfgs_update,
    coupling_rows,
    lagrangian_like_gradient,
    nullspace_basis,
    reduce_block,
    regularize,
    schur_contribution,
)

__all__ = [
    "IterateState",
    "IterationLog",
    "IterationRecord",
    "Solution",
    "run_aladin",
    "run_admm",
]

DIVERGENCE_GUARD = 1e10
# the per-layer timers each outer iteration fills
LAYERS = ("local", "sensitivity", "qp", "inner")
CSV_HEADER = [
    "iter",
    "consensus_viol",
    "local_step",
    "qp_step",
    "active_changes",
    "comms_floats",
]


class IterationRecord:
    """One outer iteration's diagnostics.

    ``timings``, the seconds the iteration spent per layer, is given as a
    mapping over LAYERS and kept as the tuple ``layer_s`` in LAYERS order: a
    run keeps one record per iteration, and a tuple of floats is smaller
    than a dict and not tracked by the garbage collector.  Reading
    ``timings`` builds a new dict from ``layer_s``.  ``z``, ``x`` and
    ``lam`` are the post-update iterate snapshots (primal blocks, local
    solutions, dual); ``bfgs_min_eig`` is the smallest eigenvalue of each
    block's quasi-Newton matrix (bfgs modes).
    """

    __slots__ = ("iter", "consensus_viol", "local_step", "qp_step", "active_changes",
                 "comms_floats", "layer_s", "inner_residual", "z", "x", "lam",
                 "bfgs_min_eig")

    def __init__(self, iter, consensus_viol, local_step, qp_step, active_changes,
                 comms_floats, timings=None, inner_residual=None, z=None, x=None,
                 lam=None, bfgs_min_eig=None):
        self.iter, self.consensus_viol = iter, consensus_viol
        self.local_step, self.qp_step = local_step, qp_step
        self.active_changes, self.comms_floats = active_changes, comms_floats
        self.layer_s = tuple(
            0.0 if timings is None else timings[key] for key in LAYERS
        )
        self.inner_residual = inner_residual
        self.z, self.x, self.lam = z, x, lam
        self.bfgs_min_eig = bfgs_min_eig

    @property
    def timings(self):
        return dict(zip(LAYERS, self.layer_s))


class IterationLog:
    """Per-iteration diagnostics with CSV / JSON export."""

    def __init__(self):
        self.records: list[IterationRecord] = []

    def append(self, rec):
        self.records.append(rec)

    def __len__(self):
        return len(self.records)

    def rows(self):
        return [
            [r.iter, r.consensus_viol, r.local_step, r.qp_step,
             r.active_changes, r.comms_floats]
            for r in self.records
        ]

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            writer.writerows(self.rows())

    def to_json(self, path=None):
        data = [
            {
                **dict(zip(CSV_HEADER, row)),
                "timings": rec.timings,
                "inner_residual": rec.inner_residual,
                "bfgs_min_eig": rec.bfgs_min_eig,
            }
            for row, rec in zip(self.rows(), self.records)
        ]
        if path is None:
            return data
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1)
        return data


@dataclass
class IterateState:
    """Mutable outer-loop state: coordination primals, duals, scaling, memory."""

    z: list[np.ndarray]
    lam: np.ndarray
    locals: list[LocalSolution | None]
    scaling: ScalingState
    bfgs: list[np.ndarray | None]
    prev_x: list[np.ndarray] | None = None
    prev_active: list[tuple[int, ...]] | None = None
    prev_lam_qp: np.ndarray | None = None


@dataclass
class Solution:
    """Final iterate plus the run's diagnostics.

    ``termination`` is "tolerance-met", "max-iterations", or "error";
    ``local_kkt`` holds the last per-block KKT residuals of the local solver.
    """

    xs: list[np.ndarray]
    lam: np.ndarray
    termination: str
    message: str
    iterations: int
    consensus_violation: float
    objective: float
    log: IterationLog
    timers: dict
    local_status: list[str]
    local_kkt: list[float]


def _start(problem, opts, z0, lam0):
    """Checked options, the initial state, and the run's start time."""
    opts = (opts or SolverOptions()).check()
    issues = validate(problem)
    if issues:
        raise ValueError("invalid problem: " + "; ".join(issues))
    t_start = time.perf_counter()
    z = (
        [np.asarray(v, dtype=float).copy() for v in z0]
        if z0 is not None
        else [s.z0.copy() for s in problem.subproblems]
    )
    lam = (
        np.asarray(lam0, dtype=float).copy()
        if lam0 is not None
        else np.zeros(problem.n_c)
    )
    if lam.shape != (problem.n_c,):
        raise ValueError(f"lam0 must have length {problem.n_c}")
    for v, s in zip(z, problem.subproblems):
        if v.shape != (s.n_x,):
            raise ValueError("z0 block dimensions do not match the problem")
    state = IterateState(
        z=z,
        lam=lam,
        locals=[None] * problem.n_s,
        scaling=ScalingState.initial(problem, opts),
        bfgs=[None] * problem.n_s,
    )
    return opts, state, t_start


def _consensus(problem, xs):
    viol = -problem.b.copy()
    for s, x in zip(problem.subproblems, xs):
        if problem.n_c:
            viol += s.A @ x
    return viol


def _objective(problem, xs):
    return float(sum(
        ex.evaluate(s.f, x, p)[0]
        for s, x, p in zip(problem.subproblems, xs, problem.parameters)
    ))


def _local_tolerance(opts, err_prev):
    # tightens proportionally to the outer error, but never looser than a
    # hundredth of the activity margin: the local solver's slacks on active
    # rows (about tol / multiplier) must fall inside the detection margin,
    # otherwise the active set flips between iterations
    cap = 1e-2 * opts.act_margin
    if err_prev is None:
        return max(opts.local_tol_floor, cap)
    return max(opts.local_tol_floor, min(cap, 1e-2 * err_prev))


def _sensitivity_pack(problem, opts, state, i, x_prev):
    """Gradient, active set, Jacobian, and processed Hessian for block i."""
    sub = problem.subproblems[i]
    p = problem.parameters[i]
    sol = state.locals[i]
    x = sol.x
    grad = ex.gradient(sub.f, x, p)
    act = detect_active(sub, x, p, opts.act_margin)
    C = active_jacobian(sub, x, p, act)
    if opts.hessian == "exact":
        # inactive rows get a zero multiplier, which lagrangian_hessian skips
        act_h = list(act.nonbox)
        mult = np.zeros(sub.n_h)
        mult[act_h] = sol.gamma[act_h]
        H_raw = ex.lagrangian_hessian(sub.f, sub.g, sub.h, x, p, sol.kappa, mult)
        if opts.variant != "fullspace":
            H = None  # reduce_block regularizes the projected Hessian instead
        else:
            H = regularize(H_raw, opts.reg_param) if opts.reg else H_raw
    else:
        B = state.bfgs[i]
        if B is None:
            B = np.eye(sub.n_x)
        if x_prev is not None:
            y_new = lagrangian_like_gradient(sub, x, p, sol.kappa, sol.gamma)
            y_old = lagrangian_like_gradient(sub, x_prev[i], p, sol.kappa, sol.gamma)
            B = bfgs_update(
                B, x - x_prev[i], y_new - y_old, damped=(opts.hessian == "dbfgs")
            )
        state.bfgs[i] = B
        H_raw = B
        H = B
    return SensitivityPack(
        grad=grad, hess_raw=H_raw, hess=H, active=act, jac_active=C
    )


def _coordinate(problem, opts, state, packs, xs, rows, topology):
    """Run the configured coordination path.

    Every variant reduces each block onto the nullspace of its active rows
    and solves the Schur dual system on the coupling rows ``rows[i]`` =
    C(i): fullspace projects the regularized Hessian and leaves the
    projection as it is, nullspace and bilevel regularize the projected raw
    Hessian; bilevel solves the dual system on the agents' ``topology``.
    A block's LICQ or singular-Hessian failure names the block.  Returns
    (result, inner message log or None, inner wall time).
    """
    A_list = [s.A for s in problem.subproblems]
    b = problem.b
    full = opts.variant == "fullspace"
    Zs, reduced = [], []
    for i, pk in enumerate(packs):
        try:
            Z = nullspace_basis(pk.jac_active)
            red = reduce_block(
                pk.hess if full else pk.hess_raw, pk.grad, A_list[i], Z,
                opts.reg_param, reg=opts.reg and not full, rows=rows[i],
            )
            red.solved  # factor B_i here, so a singular one names its block
        except SolverError as err:
            raise type(err)(f"block {i}: {err}") from err
        Zs.append(Z)
        reduced.append(red)
    couplings = [A_list[i][rows[i]] @ xs[i] for i in range(problem.n_s)]
    delta = state.scaling.delta
    if opts.variant != "bilevel":
        res = solve_coordination_reduced(reduced, couplings, state.lam, delta, b, Zs=Zs)
        return res, None, 0.0
    # bilevel: decentralized solve of the Schur dual system
    S_blocks, s_blocks = zip(*(
        schur_contribution(red, coupling=cpl)
        for red, cpl in zip(reduced, couplings)
    ))
    lam0 = warm_start(
        state.prev_lam_qp if opts.warm_start else None, problem.n_c
    )
    mu = state.scaling.mu
    t0 = time.perf_counter()
    if opts.inner_alg == "dcg":
        lam_qp, mlog = run_dcg(
            topology, S_blocks, s_blocks, mu, state.lam, b, lam0=lam0,
            n_iter=opts.inner_iter,
        )
    else:
        lam_qp, mlog, _ = run_dadmm(
            topology, S_blocks, s_blocks, mu, state.lam, b, lam0=lam0,
            rho=opts.rho_admm, n_iter=opts.inner_iter,
        )
    t_inner = time.perf_counter() - t0
    res = reduced_result(reduced, lam_qp, state.lam, delta, Zs)
    return res, mlog, t_inner


def _active_changes(prev, current):
    if prev is None:
        return 0
    return sum(len(set(a) ^ set(bb)) for a, bb in zip(prev, current))


def _active_sets(problem, opts, xs, groups):
    """Each block's active set; a group without inequalities or bounds has
    none, and its blocks are not asked."""
    acts = [()] * problem.n_s
    for grp in groups:
        if grp.may_act:
            for i in grp.blocks:
                acts[i] = detect_active(
                    problem.subproblems[i], xs[i], problem.parameters[i],
                    opts.act_margin,
                ).indices
    return acts


def _solve_locals(problem, groups, state, tol):
    """Every block's local solution, one lockstep solve per group.

    The error of the lowest failing block is raised, as if the blocks had
    been solved one after the other.
    """
    sols = [None] * problem.n_s
    for grp in groups:
        idx = grp.blocks
        warm = None if state.locals[idx[0]] is None else [state.locals[i] for i in idx]
        out = solve_group(
            grp, [state.z[i] for i in idx], state.lam,
            [state.scaling.sigmas[i] for i in idx],
            [problem.parameters[i] for i in idx], warm=warm, tol=tol,
        )
        for i, sol in zip(idx, out):
            sols[i] = sol
    for sol in sols:
        if isinstance(sol, Exception):
            raise sol
    return sols


def _outer_loop(problem, opts, state, step, label, t_start):
    """Run the shared loop and return its Solution.

    ``step(xs, viol, prev_viol, timings)`` is the coordination: it updates
    ``state`` (z, lam, and whatever else the solver keeps there), fills its
    layer timings, and returns the blocks' active sets plus its
    IterationRecord fields (``qp_step`` and ``comms_floats`` at least).
    ``prev_viol`` is None on the first iteration.  A step may return None
    for the active sets; the loop then detects them for the log.  Progress
    lines print ``qp_step`` under ``label``.
    """
    groups = group_blocks(problem.subproblems)
    timers = {
        "setup": time.perf_counter() - t_start,
        **dict.fromkeys(LAYERS, 0.0),
        "total": 0.0,
    }
    log = IterationLog()
    termination = "max-iterations"
    message = "maximum number of iterations reached"
    err_prev = None
    viol_vec = None
    viol_inf = np.inf

    for k in range(1, opts.max_iter + 1):
        timings = dict.fromkeys(LAYERS, 0.0)
        try:
            tol_k = _local_tolerance(opts, err_prev)
            t0 = time.perf_counter()
            state.locals = _solve_locals(problem, groups, state, tol_k)
            timings["local"] = time.perf_counter() - t0
            xs = [sol.x for sol in state.locals]

            if max(np.abs(x).max() for x in xs) > DIVERGENCE_GUARD:
                termination = "error"
                message = f"divergence guard tripped at iteration {k}"
                break

            prev_viol_vec, viol_vec = viol_vec, _consensus(problem, xs)
            viol_inf = float(np.abs(viol_vec).max()) if problem.n_c else 0.0
            local_step = max(
                float(np.abs(x - zz).max()) if x.size else 0.0
                for x, zz in zip(xs, state.z)
            )
            err_prev = max(viol_inf, local_step)

            done = (
                opts.term_eps > 0
                and viol_inf <= opts.term_eps
                and local_step <= opts.term_eps
            )
            if done:
                acts, fields = None, {"qp_step": 0.0, "comms_floats": 0}
            else:
                acts, fields = step(xs, viol_vec, prev_viol_vec, timings)
            if acts is None:
                acts = _active_sets(problem, opts, xs, groups)
            log.append(IterationRecord(
                iter=k, consensus_viol=viol_inf, local_step=local_step,
                active_changes=_active_changes(state.prev_active, acts),
                timings=timings, z=[zz.copy() for zz in state.z],
                x=[x.copy() for x in xs], lam=state.lam.copy(), **fields,
            ))
            if done:
                termination = "tolerance-met"
                message = "both stopping norms within tolerance"
                break
            state.prev_active = acts

            if opts.log_every and k % opts.log_every == 0:
                print(
                    f"iter {k:4d}  consensus {viol_inf:10.3e}  "
                    f"local {local_step:10.3e}  {label} {fields['qp_step']:10.3e}"
                )
        except SolverError as err:
            raise type(err)(f"outer iteration {k}: {err}") from err
        except ex.DomainEvalError as err:
            raise ex.DomainEvalError(
                f"outer iteration {k}: {err}", err.node
            ) from err
        finally:
            for key in LAYERS:
                timers[key] += timings[key]

    # the run's Solution; a "tolerance-met" message names unconverged locals
    timers["total"] = time.perf_counter() - t_start
    sols = state.locals
    xs = [sol.x for sol in sols] if sols[0] is not None else state.z
    status = [s.status if s else "not-run" for s in sols]
    failed = [(i, st) for i, st in enumerate(status) if st != "converged"]
    if termination == "tolerance-met" and failed:
        message += (
            f"; {len(failed)} of {len(status)} final local solves not converged ("
            + ", ".join(f"block {i}: {st}" for i, st in failed) + ")"
        )
    return Solution(
        xs=xs,
        lam=state.lam.copy(),
        termination=termination,
        message=message,
        iterations=len(log),
        consensus_violation=viol_inf if np.isfinite(viol_inf) else float("nan"),
        objective=_objective(problem, xs),
        log=log,
        timers=timers,
        local_status=status,
        local_kkt=[s.kkt_residual if s else float("nan") for s in sols],
    )


def run_aladin(problem, opts=None, z0=None, lam0=None):
    """Solve a separable problem by alternating local NLPs with a consensus QP.

    The step of the shared outer loop: gradients, active sets, and positive
    definite Hessian models are assembled per block; the coordination QP
    runs in the configured variant; z and lam take the (damped) full step;
    the scaling heuristics update.
    """
    opts, state, t_start = _start(problem, opts, z0, lam0)
    # each block's coupling rows C(i), fixed for the run
    rows = [coupling_rows(s.A) for s in problem.subproblems]
    topology = (
        topology_from_rows(problem.n_c, rows) if opts.variant == "bilevel" else None
    )

    def step(xs, viol_vec, prev_viol_vec, timings):
        t0 = time.perf_counter()
        packs = [
            _sensitivity_pack(problem, opts, state, i, state.prev_x)
            for i in range(problem.n_s)
        ]
        timings["sensitivity"] = time.perf_counter() - t0
        bfgs_min_eig = (
            [float(np.linalg.eigvalsh(pk.hess).min()) for pk in packs]
            if opts.hessian != "exact"
            else None
        )

        t0 = time.perf_counter()
        result, mlog, t_inner = _coordinate(
            problem, opts, state, packs, xs, rows, topology
        )
        timings["qp"] = time.perf_counter() - t0
        timings["inner"] = t_inner

        qp_step = max(
            (float(np.abs(d).max()) for d in result.dx if d.size), default=0.0
        )
        alpha = opts.step_size
        state.z = [
            zz + alpha * (x - zz + d)
            for zz, x, d in zip(state.z, xs, result.dx)
        ]
        state.lam = state.lam + alpha * (result.lam_qp - state.lam)
        state.prev_lam_qp = result.lam_qp.copy()
        state.prev_x = xs

        state.scaling = update_sigma(state.scaling, opts)
        if opts.del_up and prev_viol_vec is not None:
            state.scaling = update_delta_by_violation(
                state.scaling, viol_vec, prev_viol_vec, opts
            )
        return [pk.active.indices for pk in packs], {
            "qp_step": qp_step,
            "comms_floats": mlog.total_floats() if mlog is not None else 0,
            "inner_residual": mlog.residual if mlog is not None else None,
            "bfgs_min_eig": bfgs_min_eig,
        }

    return _outer_loop(problem, opts, state, step, "qp", t_start)


def run_admm(problem, opts=None, z0=None, lam0=None):
    """Consensus ADMM baseline with the same interface and log shape.

    The shared outer loop's local solves, with the fixed weights
    Sigma_i = (rho/2) A_i'A_i, minimize f_i + lam' A_i x_i
    + (rho/2) ||A_i (x_i - z_i)||^2 under the local constraints; the
    coordination step is the projection {z_i} = argmin sum ||A_i (x_i -
    z_i)||^2 subject to sum A_i z_i = b, then the dual ascent
    lam += rho (sum A_i x_i - b).
    """
    opts, state, t_start = _start(problem, opts, z0, lam0)
    rho = opts.rho_admm
    subs = problem.subproblems
    state.scaling.sigmas = [0.5 * rho * (s.A.T @ s.A) for s in subs]
    # range-space projectors and pseudoinverses of each A_i for the z step
    projs, pinvs = [], []
    for s in subs:
        if problem.n_c and np.any(s.A != 0.0):
            U, sv, Vt = np.linalg.svd(s.A, full_matrices=False)
            r = int(np.sum(sv > max(s.A.shape) * np.finfo(float).eps * sv[0]))
            U = U[:, :r]
            projs.append(U @ U.T)
            pinvs.append(Vt[:r].T @ np.diag(1.0 / sv[:r]) @ U.T)
        else:
            projs.append(np.zeros((problem.n_c, problem.n_c)))
            pinvs.append(np.zeros((s.n_x, problem.n_c)))
    G = sum(projs)

    def step(xs, viol_vec, prev_viol_vec, timings):
        t0 = time.perf_counter()
        if problem.n_c:
            nu = np.linalg.lstsq(G, rho * viol_vec, rcond=None)[0]
            znew = [x - pinv @ nu / rho for x, pinv in zip(xs, pinvs)]
        else:
            znew = [x.copy() for x in xs]
        qp_step = max(
            float(np.abs(zn - x).max()) if x.size else 0.0
            for zn, x in zip(znew, xs)
        )
        state.z = znew
        state.lam = state.lam + rho * viol_vec
        timings["qp"] = time.perf_counter() - t0
        return None, {"qp_step": qp_step, "comms_floats": 0}

    return _outer_loop(problem, opts, state, step, "z-step", t_start)
