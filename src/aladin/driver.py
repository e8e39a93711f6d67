"""Outer loops: the augmented-Lagrangian SQP method and the ADMM baseline.

Both solvers share the problem interface, the iteration log shape, and the
local proximal NLP machinery; they differ in how the coordination step
recombines the block solutions.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .coordination import (
    ScalingState,
    solve_coordination_full,
    solve_coordination_reduced,
    update_delta_by_violation,
    update_sigma,
)
from .decentral import build_topology, run_dadmm, run_dcg, warm_start
from .errors import SolverError
from .local import LocalSolution, solve_local
from .problem import SolverOptions, validate
from .sensitivity import (
    SensitivityPack,
    detect_active,
    active_jacobian,
    bfgs_update,
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
CSV_HEADER = [
    "iter",
    "consensus_viol",
    "local_step",
    "qp_step",
    "active_changes",
    "comms_floats",
]


@dataclass
class IterationRecord:
    iter: int
    consensus_viol: float
    local_step: float
    qp_step: float
    active_changes: int
    comms_floats: int
    timings: dict = field(default_factory=dict)
    inner_residual: float | None = None
    # post-update iterate snapshots (primal blocks, local solutions, dual)
    z: list | None = None
    x: list | None = None
    lam: np.ndarray | None = None
    # smallest eigenvalue of each block's quasi-Newton matrix (bfgs modes)
    bfgs_min_eig: list | None = None


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
    k: int = 0
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


def _init_state(problem, opts, z0, lam0):
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
    return IterateState(
        z=z,
        lam=lam,
        locals=[None] * problem.n_s,
        scaling=ScalingState.initial(problem, opts),
        bfgs=[None] * problem.n_s,
    )


def _map_blocks(fn, n, parallel):
    if parallel and n > 1:
        with ThreadPoolExecutor(max_workers=n) as pool:
            return list(pool.map(fn, range(n)))
    return [fn(i) for i in range(n)]


def _check_problem(problem):
    issues = validate(problem)
    if issues:
        raise ValueError("invalid problem: " + "; ".join(issues))


def _consensus(problem, xs):
    viol = -problem.b.copy()
    for s, x in zip(problem.subproblems, xs):
        if problem.n_c:
            viol += s.A @ x
    return viol


def _objective(problem, xs):
    return float(
        sum(
            ex.evaluate(s.f, x, problem.parameters[i])[0]
            for i, (s, x) in enumerate(zip(problem.subproblems, xs))
        )
    )


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


def _coordinate(problem, opts, state, packs, xs, topology):
    """Run the configured coordination path.

    Returns (result, inner message log or None, inner wall time).
    """
    A_list = [s.A for s in problem.subproblems]
    b = problem.b
    if opts.variant == "fullspace":
        for i, pk in enumerate(packs):
            C = pk.jac_active
            if C.shape[0] and np.linalg.matrix_rank(C) < C.shape[0]:
                from .errors import LicqError

                raise LicqError(
                    f"block {i}: active constraint Jacobian is rank deficient"
                )
        res = solve_coordination_full(
            packs, xs, state.lam, state.scaling.delta, A_list, b
        )
        return res, None, 0.0
    Zs = [nullspace_basis(pk.jac_active) for pk in packs]
    reduced = [
        reduce_block(pk.hess_raw, pk.grad, A_list[i], Zs[i], opts.reg_param,
                     reg=opts.reg)
        for i, pk in enumerate(packs)
    ]
    couplings = [A_list[i] @ xs[i] for i in range(problem.n_s)]
    for pk, red, Z in zip(packs, reduced, Zs):
        pk.Z = Z
        pk.reduced = red
    mu = state.scaling.mu
    if opts.variant == "nullspace":
        res = solve_coordination_reduced(reduced, couplings, state.lam, mu, b, Zs=Zs)
        return res, None, 0.0
    # bilevel: decentralized solve of the Schur dual system
    S_blocks, s_blocks = [], []
    for i, red in enumerate(reduced):
        S_full, s_full = schur_contribution(red, coupling=couplings[i])
        rows = topology.rows[i]
        S_blocks.append(S_full[np.ix_(rows, rows)])
        s_blocks.append(s_full[rows])
        packs[i].schur = (S_blocks[-1], s_blocks[-1])
    lam0 = warm_start(
        state.prev_lam_qp if opts.warm_start else None, problem.n_c
    )
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
    dxs, dvs = [], []
    for i, red in enumerate(reduced):
        if red.B.size:
            dv = -np.linalg.solve(red.B, red.g + red.A.T @ lam_qp)
        else:
            dv = np.zeros(0)
        dvs.append(dv)
        dxs.append(Zs[i] @ dv)
    from .coordination import CoordinationResult

    res = CoordinationResult(
        dx=dxs,
        s=(lam_qp - state.lam) / mu if problem.n_c else np.zeros(0),
        lam_qp=lam_qp,
        kkt_residual=mlog.residual,
        dv=dvs,
    )
    return res, mlog, t_inner


def _active_changes(prev, current):
    if prev is None:
        return 0
    return sum(
        len(set(a) ^ set(bb)) for a, bb in zip(prev, current)
    )


def run_aladin(problem, opts=None, z0=None, lam0=None):
    """Solve a separable problem by alternating local NLPs with a consensus QP.

    Per outer iteration: (1) all blocks solve their proximal NLP around the
    current (z, lam), concurrently when requested; (2) the stopping norms
    ||sum A_i x_i - b||_inf and ||x - z||_inf are checked; (3) gradients,
    active sets, and positive definite Hessian models are assembled;
    (4) the coordination QP runs in the configured variant; (5) z and lam
    take the (damped) full step; (6) the scaling heuristics update.

    Returns a Solution; module failures are annotated with the iteration
    index and re-raised, divergence ends the run with termination="error".
    """
    opts = (opts or SolverOptions()).check()
    _check_problem(problem)
    t_start = time.perf_counter()
    timers = {"setup": 0.0, "local": 0.0, "sensitivity": 0.0, "qp": 0.0,
              "inner": 0.0, "total": 0.0}
    state = _init_state(problem, opts, z0, lam0)
    topology = build_topology(problem) if opts.variant == "bilevel" else None
    timers["setup"] = time.perf_counter() - t_start
    n_s = problem.n_s
    log = IterationLog()
    termination = "max-iterations"
    message = "maximum number of iterations reached"
    err_prev = None
    viol_vec = np.zeros(problem.n_c)
    viol_inf = np.inf

    for k in range(1, opts.max_iter + 1):
        state.k = k
        try:
            tol_k = _local_tolerance(opts, err_prev)
            t0 = time.perf_counter()
            state.locals = _map_blocks(
                lambda i: solve_local(
                    problem.subproblems[i],
                    state.z[i],
                    state.lam,
                    state.scaling.sigmas[i],
                    p=problem.parameters[i],
                    warm=state.locals[i],
                    tol=tol_k,
                ),
                n_s,
                opts.parallel,
            )
            timers["local"] += time.perf_counter() - t0
            xs = [sol.x for sol in state.locals]

            if max(np.abs(x).max() for x in xs) > DIVERGENCE_GUARD:
                termination = "error"
                message = f"divergence guard tripped at iteration {k}"
                break

            prev_viol_vec = viol_vec
            viol_vec = _consensus(problem, xs)
            viol_inf = float(np.abs(viol_vec).max()) if problem.n_c else 0.0
            local_step = max(
                float(np.abs(x - zz).max()) if x.size else 0.0
                for x, zz in zip(xs, state.z)
            )
            err_prev = max(viol_inf, local_step)

            if opts.term_eps > 0 and viol_inf <= opts.term_eps and local_step <= opts.term_eps:
                acts = [
                    detect_active(
                        problem.subproblems[i], xs[i], problem.parameters[i],
                        opts.act_margin,
                    ).indices
                    for i in range(n_s)
                ]
                log.append(
                    IterationRecord(
                        iter=k, consensus_viol=viol_inf, local_step=local_step,
                        qp_step=0.0,
                        active_changes=_active_changes(state.prev_active, acts),
                        comms_floats=0,
                        z=[zz.copy() for zz in state.z],
                        x=[x.copy() for x in xs],
                        lam=state.lam.copy(),
                    )
                )
                termination = "tolerance-met"
                message = "both stopping norms within tolerance"
                break

            t0 = time.perf_counter()
            packs = _map_blocks(
                lambda i: _sensitivity_pack(problem, opts, state, i, state.prev_x),
                n_s,
                opts.parallel,
            )
            timers["sensitivity"] += time.perf_counter() - t0
            bfgs_min_eig = (
                [float(np.linalg.eigvalsh(pk.hess).min()) for pk in packs]
                if opts.hessian != "exact"
                else None
            )

            t0 = time.perf_counter()
            result, mlog, t_inner = _coordinate(
                problem, opts, state, packs, xs, topology
            )
            timers["qp"] += time.perf_counter() - t0
            timers["inner"] += t_inner

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

            acts = [pk.active.indices for pk in packs]
            log.append(
                IterationRecord(
                    iter=k,
                    consensus_viol=viol_inf,
                    local_step=local_step,
                    qp_step=qp_step,
                    active_changes=_active_changes(state.prev_active, acts),
                    comms_floats=mlog.total_floats() if mlog is not None else 0,
                    inner_residual=mlog.residual if mlog is not None else None,
                    z=[zz.copy() for zz in state.z],
                    x=[x.copy() for x in xs],
                    lam=state.lam.copy(),
                    bfgs_min_eig=bfgs_min_eig,
                )
            )
            state.prev_active = acts
            state.prev_x = xs

            state.scaling = update_sigma(state.scaling, opts)
            if opts.del_up and k >= 2:
                state.scaling = update_delta_by_violation(
                    state.scaling, viol_vec, prev_viol_vec, opts
                )

            if opts.log_every and k % opts.log_every == 0:
                print(
                    f"iter {k:4d}  consensus {viol_inf:10.3e}  "
                    f"local {local_step:10.3e}  qp {qp_step:10.3e}"
                )
        except SolverError as err:
            raise type(err)(f"outer iteration {k}: {err}") from err
        except ex.DomainEvalError as err:
            raise ex.DomainEvalError(
                f"outer iteration {k}: {err}", err.node
            ) from err

    timers["total"] = time.perf_counter() - t_start
    xs = [sol.x for sol in state.locals] if state.locals[0] is not None else state.z
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
        local_status=[s.status if s else "not-run" for s in state.locals],
        local_kkt=[s.kkt_residual if s else float("nan") for s in state.locals],
    )


def run_admm(problem, opts=None, z0=None, lam0=None):
    """Consensus ADMM baseline with the same interface and log shape.

    Per iteration: (a) block solves of f_i + lam' A_i x_i
    + (rho/2) ||A_i (x_i - z_i)||^2 under the local constraints; (b) the
    coordination projection {z_i} = argmin sum ||A_i (x_i - z_i)||^2 subject
    to sum A_i z_i = b; (c) the dual ascent lam += rho (sum A_i x_i - b).
    """
    opts = (opts or SolverOptions()).check()
    _check_problem(problem)
    t_start = time.perf_counter()
    timers = {"setup": 0.0, "local": 0.0, "sensitivity": 0.0, "qp": 0.0,
              "inner": 0.0, "total": 0.0}
    state = _init_state(problem, opts, z0, lam0)
    rho = opts.rho_admm
    n_s = problem.n_s
    subs = problem.subproblems
    sigmas = [0.5 * rho * (s.A.T @ s.A) for s in subs]
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
    timers["setup"] = time.perf_counter() - t_start

    log = IterationLog()
    termination = "max-iterations"
    message = "maximum number of iterations reached"
    err_prev = None
    viol_inf = np.inf
    prev_active = None

    for k in range(1, opts.max_iter + 1):
        try:
            tol_k = _local_tolerance(opts, err_prev)
            t0 = time.perf_counter()
            state.locals = _map_blocks(
                lambda i: solve_local(
                    subs[i], state.z[i], state.lam, sigmas[i],
                    p=problem.parameters[i], warm=state.locals[i], tol=tol_k,
                ),
                n_s,
                opts.parallel,
            )
            timers["local"] += time.perf_counter() - t0
            xs = [sol.x for sol in state.locals]
            if max(np.abs(x).max() for x in xs) > DIVERGENCE_GUARD:
                termination = "error"
                message = f"divergence guard tripped at iteration {k}"
                break

            viol_vec = _consensus(problem, xs)
            viol_inf = float(np.abs(viol_vec).max()) if problem.n_c else 0.0
            local_step = max(
                float(np.abs(x - zz).max()) if x.size else 0.0
                for x, zz in zip(xs, state.z)
            )
            err_prev = max(viol_inf, local_step)
            acts = [
                detect_active(subs[i], xs[i], problem.parameters[i], opts.act_margin).indices
                for i in range(n_s)
            ]

            if opts.term_eps > 0 and viol_inf <= opts.term_eps and local_step <= opts.term_eps:
                log.append(
                    IterationRecord(
                        iter=k, consensus_viol=viol_inf, local_step=local_step,
                        qp_step=0.0,
                        active_changes=_active_changes(prev_active, acts),
                        comms_floats=0,
                        z=[zz.copy() for zz in state.z],
                        x=[x.copy() for x in xs],
                        lam=state.lam.copy(),
                    )
                )
                termination = "tolerance-met"
                message = "both stopping norms within tolerance"
                break

            t0 = time.perf_counter()
            if problem.n_c:
                nu = np.linalg.lstsq(G, rho * viol_vec, rcond=None)[0]
                znew = [xs[i] - pinvs[i] @ nu / rho for i in range(n_s)]
            else:
                znew = [x.copy() for x in xs]
            qp_step = max(
                float(np.abs(zn - x).max()) if x.size else 0.0
                for zn, x in zip(znew, xs)
            )
            state.z = znew
            state.lam = state.lam + rho * viol_vec
            timers["qp"] += time.perf_counter() - t0

            log.append(
                IterationRecord(
                    iter=k, consensus_viol=viol_inf, local_step=local_step,
                    qp_step=qp_step,
                    active_changes=_active_changes(prev_active, acts),
                    comms_floats=0,
                    z=[zz.copy() for zz in state.z],
                    x=[x.copy() for x in xs],
                    lam=state.lam.copy(),
                )
            )
            prev_active = acts
            if opts.log_every and k % opts.log_every == 0:
                print(
                    f"iter {k:4d}  consensus {viol_inf:10.3e}  "
                    f"local {local_step:10.3e}  z-step {qp_step:10.3e}"
                )
        except SolverError as err:
            raise type(err)(f"outer iteration {k}: {err}") from err
        except ex.DomainEvalError as err:
            raise ex.DomainEvalError(
                f"outer iteration {k}: {err}", err.node
            ) from err

    timers["total"] = time.perf_counter() - t_start
    xs = [sol.x for sol in state.locals] if state.locals[0] is not None else state.z
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
        local_status=[s.status if s else "not-run" for s in state.locals],
        local_kkt=[s.kkt_residual if s else float("nan") for s in state.locals],
    )
