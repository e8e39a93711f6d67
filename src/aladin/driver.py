"""The outer loop of the augmented-Lagrangian SQP method and the ADMM baseline.

Both solvers run one loop (``_outer_loop``) and differ only in its
coordination step.  The blocks are grouped once per run into lockstep groups
of blocks of equal shapes (``local.group_blocks``), and the loop's
state is kept lanes first, one stack per group (``IterateState``).  Per outer
iteration, once per group: (1) the group's blocks solve their proximal NLPs
around the current (z, lam) with their weights Sigma_i in one lockstep solve,
each block's result that of solving it alone; a block that fails raises its
error, the lowest such block's; (2) a block beyond the divergence guard ends
the run with termination="error"; (3) the stopping norms ||sum A_i x_i -
b||_inf and ||x - z||_inf are checked, the sum taken in block order, and the
active masks of h~ read off the local solutions; (4) the step moves z and
lam; (5) the iteration is logged and, every ``log_every`` iterations,
printed.  Per-block lists appear only at the interface: ``z0``,
``Solution.xs`` and the record snapshots, which are row views of one copy
per group.  Failures of a layer are re-raised with the outer iteration
index.

ALADIN's step is group-major too: each group's sensitivities come from its
local solution's evaluation and its lane tapes, its lanes are split into
packs of equal shapes, and each pack takes one call of every sensitivity
and Schur kernel, with the results and errors of the blocks taken one by
one.  ADMM's z-step is one stacked product per group with the blocks'
pseudoinverses.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .coordination import (
    ScalingState,
    per_block,
    reduced_result,
    solve_coordination_reduced,
    update_delta_by_violation,
    update_sigma,
)
from .decentral import run_dadmm, run_dcg, topology_from_rows, warm_start
from .errors import SolverError
from .linalg import mv
# solve_local stays bound here, where the benchmark's tracer looks for it,
# though the loop solves whole groups through solve_group; it can go once
# the tracer's local span wraps solve_group
from .local import (  # noqa: F401
    BlockGroup, GroupSolution, group_blocks, solve_group, solve_local,
)
from .problem import SolverOptions, validate_rows
from .sensitivity import (
    SensitivityPack,
    active_mask,
    active_rows,
    bfgs_update,
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
    solutions, dual); the blocks' z and x are row views of one copy per
    lockstep group.  ``bfgs_min_eig`` is the smallest eigenvalue of each
    block's quasi-Newton matrix (bfgs modes).  ``newton_steps`` is the
    number of Newton steps the iteration's local solves took, over all
    blocks (the sum of their ``iterations``), whichever way each step was
    factored.
    """

    __slots__ = ("iter", "consensus_viol", "local_step", "qp_step", "active_changes",
                 "comms_floats", "layer_s", "inner_residual", "z", "x", "lam",
                 "bfgs_min_eig", "newton_steps")

    def __init__(self, iter, consensus_viol, local_step, qp_step, active_changes,
                 comms_floats, timings=None, inner_residual=None, z=None, x=None,
                 lam=None, bfgs_min_eig=None, newton_steps=None):
        self.iter, self.consensus_viol = iter, consensus_viol
        self.local_step, self.qp_step = local_step, qp_step
        self.active_changes, self.comms_floats = active_changes, comms_floats
        self.layer_s = tuple(
            0.0 if timings is None else timings[key] for key in LAYERS
        )
        self.inner_residual = inner_residual
        self.z, self.x, self.lam = z, x, lam
        self.bfgs_min_eig = bfgs_min_eig
        self.newton_steps = newton_steps

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
                "newton_steps": rec.newton_steps,
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
    """Mutable outer-loop state, lanes first: one stack per lockstep group.

    Entry g of every list belongs to ``groups[g]``, and row j of a stack to
    that group's block ``groups[g].blocks[j]``.  ``z`` holds the
    coordination primals (L, n), ``p`` the parameter vectors (L, n_p),
    ``locals`` the last ``GroupSolution`` (None before the first solve),
    ``bfgs`` the quasi-Newton matrices (L, n, n) or None, ``prev_x`` the
    local solutions of the previous step, and ``active`` the masks of the
    active rows of h~ at the local solutions (None for a group without
    inequality or bound rows); ``scaling.sigmas`` stacks Sigma_i the same
    way.  ``lam`` is the consensus dual and ``prev_lam_qp`` the last QP
    dual.
    """

    groups: list[BlockGroup]
    z: list[np.ndarray]
    lam: np.ndarray
    p: list[np.ndarray]
    scaling: ScalingState
    locals: list[GroupSolution | None]
    bfgs: list[np.ndarray | None]
    prev_x: list[np.ndarray] | None = None
    active: list[np.ndarray | None] | None = None
    prev_lam_qp: np.ndarray | None = None
    # the (group, start, stop) lane ranges of consecutive blocks, in block
    # order, along which the consensus is summed
    runs: list[tuple] = field(init=False, repr=False)

    def __post_init__(self):
        runs = []
        for g, grp in enumerate(self.groups):
            cut = (np.flatnonzero(np.diff(grp.index) != 1) + 1).tolist()
            runs += [(g, a, b) for a, b in zip([0, *cut], [*cut, len(grp)])]
        self.runs = sorted(runs, key=lambda run: self.groups[run[0]].blocks[run[1]])

    def per_block(self, stacks):
        """The rows of per-group ``stacks`` as one list in block order (views)."""
        return per_block(stacks, [g.index for g in self.groups])


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
    """Checked options, initial state, start time and the blocks' C(i)."""
    opts = (opts or SolverOptions()).check()
    issues, rows = validate_rows(problem)
    if issues:
        raise ValueError("invalid problem: " + "; ".join(issues))
    t_start = time.perf_counter()
    z = (
        [np.asarray(v, dtype=float) for v in z0]
        if z0 is not None
        else [s.z0 for s in problem.subproblems]
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
    groups = group_blocks(problem.subproblems)

    def stacked(rows):
        return [np.array([rows[i] for i in g.blocks], dtype=float) for g in groups]

    state = IterateState(
        groups=groups,
        z=stacked(z),
        lam=lam,
        p=stacked(problem.parameters),
        scaling=ScalingState.initial(problem, opts, groups),
        locals=[None] * len(groups),
        bfgs=[None] * len(groups),
    )
    return opts, state, t_start, rows


def _consensus(problem, state, X):
    """sum_i A_i x_i - b, added in block order: ((-b + t_0) + t_1) + ...

    Each run of consecutive blocks of a group takes one stacked product per
    chunk of its coupling matrices.  An axis-0 reduce of [sum so far; the
    chunk's terms] adds the rows one after the other; started from -0.0,
    which leaves the sum so far as it is, every entry is bit for bit the
    sum of a loop over the blocks.
    """
    viol = -problem.b
    for g, start, stop in state.runs:
        for c, A in state.groups[g].coupling(start, stop):
            terms = np.concatenate([viol[None], mv(A, X[g][c:c + len(A)])])
            viol = np.add.reduce(terms, axis=0, initial=-0.0)
    return viol


def _objective(state, X):
    """sum_i f_i(x_i) at the groups' stacks X, a Python float.

    Each block runs its own f tape on its row of X, and the values are
    added in block order, starting from 0.0.  The blocks are evaluated one
    after the other, so the lowest block whose f fails raises its
    DomainEvalError.
    """
    subs = {i: sub for grp in state.groups for i, sub in zip(grp.blocks, grp.subs)}
    total = 0.0
    for i, (x, p) in enumerate(zip(state.per_block(X), state.per_block(state.p))):
        total += subs[i].f._compiled_outputs().run(x, p).item()
    return total


def _local_tolerance(opts, err_prev):
    # tightens proportionally to the outer error, but never looser than a
    # hundredth of the activity margin: the local solver's slacks on active
    # rows (about tol / multiplier) must fall inside the detection margin,
    # otherwise the active set flips between iterations
    cap = 1e-2 * opts.act_margin
    if err_prev is None:
        return max(opts.local_tol_floor, cap)
    return max(opts.local_tol_floor, min(cap, 1e-2 * err_prev))


def _lagrangian_gradient(grad_f, Jg, Jh, kappa, gamma):
    """Gradient of f + kappa.g + gamma.h per lane (the BFGS curvature probe).

    Box terms drop out of curvature differences (their gradient is constant)
    and are omitted.
    """
    r = grad_f
    if Jg.shape[-2]:
        r = r + mv(Jg.swapaxes(-1, -2), kappa)
    if Jh.shape[-2]:
        r = r + mv(Jh.swapaxes(-1, -2), gamma)
    return r


def _sensitivity_pack(problem, opts, state, coupling):
    """Every block's gradient, active-row Jacobian and Hessian to project.

    Each group's gradient, Jacobians and active mask are those of its local
    solution; only the Lagrangian Hessian (``BlockGroup.hessian``), or the
    BFGS curvature probe at the previous x (``BlockGroup.eval_point``),
    evaluates the blocks again.  Each variant's Hessian is chosen here
    alone (``SensitivityPack.hess``).  The group is split into packs whose
    lanes agree in the numbers of active and of coupling rows; ``coupling``
    holds each block's C(i) and A_i[C(i)].  The lowest failing block's
    DomainEvalError is raised.
    """
    rows, compact = coupling
    exact = opts.hessian == "exact"
    packs, errors = [], {}
    for g, grp in enumerate(state.groups):
        k, n, n_h, idx = len(grp), grp.n, grp.n_h, grp.index
        res, p, on = state.locals[g], state.p[g], state.active[g]
        x, kappa, gamma = res.x, res.kappa, res.gamma
        grad, Jg, Jh = res.grad_f, res.Jg, res.Jh
        if on is None:
            on = np.zeros((k, n_h + 2 * n), dtype=bool)
        lanes = np.arange(k)
        errs = {}
        if exact:
            # inactive rows get a zero multiplier, which the Hessian skips
            H = grp.hessian(x, p, lanes, kappa,
                            np.where(on[:, :n_h], gamma, 0.0), errs)
        elif state.prev_x is not None:
            xp = state.prev_x[g]
            y_new = _lagrangian_gradient(grad, Jg, Jh, kappa, gamma)
            prev = grp.eval_point(xp, p, lanes, errs)
            y = y_new - _lagrangian_gradient(*prev[2:], kappa, gamma)
        if errs:
            for r, err in errs.items():
                errors[grp.blocks[r]] = err
            continue
        if exact:
            if opts.variant == "fullspace" and opts.reg:
                H = regularize(H, opts.reg_param)
        else:
            B = state.bfgs[g]
            if B is None:
                B = np.repeat(np.eye(n)[None], k, axis=0)
            if state.prev_x is not None:
                B = bfgs_update(B, x - xp, y, damped=(opts.hessian == "dbfgs"))
            state.bfgs[g] = H = B
        # lanes agreeing in the numbers of active and coupling rows share a
        # pack; its key v holds both, v = n_act * width + |C(i)|
        width = problem.n_c + 1
        key = on.sum(axis=-1) * width + [rows[i].size for i in grp.blocks]
        for v in sorted(set(key.tolist())):
            sel = np.flatnonzero(key == v)
            if sel.size == k:
                sel = slice(None)  # the whole group: views, not copies
            blocks = idx[sel]
            act = np.nonzero(on[sel])[1].reshape(blocks.size, v // width)
            A = np.array([compact[i] for i in blocks])
            packs.append(SensitivityPack(
                grad=grad[sel], hess=H[sel],
                jac_active=active_rows(Jg[sel], Jh[sel], act), blocks=blocks,
                rows=np.array([rows[i] for i in blocks]), A=A,
                coupling=mv(A, x[sel]),
            ))
    if errors:
        raise errors[min(errors)]
    return packs


def _reduce(opts, H, grad, C, A, rows):
    """Nullspace basis and reduced block of some lanes, B factored."""
    Z = nullspace_basis(C)
    reg = opts.reg and opts.variant != "fullspace"
    red = reduce_block(H, grad, A, Z, opts.reg_param, rows, reg=reg)
    red.solved  # factor B here, so a singular one names its block
    return Z, red


def _coordinate(problem, opts, state, packs, topology):
    """Run the configured coordination path.

    Every variant reduces each block onto the nullspace of its active rows
    and solves the Schur dual system on its coupling rows C(i), one call per
    pack, from the pack's one Hessian ``pk.hess``: fullspace leaves the
    projection as it is, nullspace and bilevel regularize it; bilevel
    solves the dual system on the agents' ``topology``.
    The lowest block with a LICQ or singular-Hessian failure is named.
    Returns (result, inner message log or None, inner wall time).
    """
    b = problem.b
    Zs, reduced, failed = [], [], []
    for pk in packs:
        args = (pk.hess, pk.grad, pk.jac_active, pk.A, pk.rows)
        try:
            Z, red = _reduce(opts, *args)
        except (SolverError, np.linalg.LinAlgError):
            # find the pack's lowest failing block, lane by lane
            for j, i in enumerate(pk.blocks.tolist()):
                try:
                    _reduce(opts, *(a[j] for a in args))
                except (SolverError, np.linalg.LinAlgError) as err:
                    failed.append((i, err))
                    break
            else:
                raise
            continue
        Zs.append(Z)
        reduced.append(red)
    if failed:
        i, err = min(failed, key=lambda f: f[0])
        if isinstance(err, SolverError):
            raise type(err)(f"block {i}: {err}") from err
        raise err
    blocks = [pk.blocks for pk in packs]
    couplings = [pk.coupling for pk in packs]
    delta = state.scaling.delta
    if opts.variant != "bilevel":
        res = solve_coordination_reduced(
            reduced, couplings, state.lam, delta, b, Zs=Zs, blocks=blocks
        )
        return res, None, 0.0
    # bilevel: decentralized solve of the Schur dual system
    terms = [
        schur_contribution(red, coupling=cpl) for red, cpl in zip(reduced, couplings)
    ]
    S_blocks = per_block([S for S, _ in terms], blocks)
    s_blocks = per_block([s for _, s in terms], blocks)
    lam0 = warm_start(
        state.prev_lam_qp if opts.warm_start else None, problem.n_c
    )
    mu = 2.0 * delta
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
    res = reduced_result(reduced, lam_qp, state.lam, delta, Zs, blocks)
    return res, mlog, t_inner


def _active_masks(opts, state):
    """Per group, which rows of h~ = (h, lb - x, x - ub) are active at the
    local solutions; None for a group without inequalities or bounds."""
    return [
        active_mask(res.h, res.x, grp.lb, grp.ub, opts.act_margin)
        if grp.may_act else None
        for grp, res in zip(state.groups, state.locals)
    ]


def _active_changes(prev, current):
    """Rows that entered or left the active sets since ``prev`` (None: 0)."""
    if prev is None:
        return 0
    return sum(
        int(np.count_nonzero(a != b)) for a, b in zip(prev, current) if a is not None
    )


def _solve_locals(state, tol):
    """Every group's local solutions, one lockstep solve per group.

    The error of the lowest failing block is raised, as if the blocks had
    been solved one after the other.
    """
    results, errors = [], {}
    for grp, z, Sigma, p, warm in zip(
        state.groups, state.z, state.scaling.sigmas, state.p, state.locals
    ):
        res = solve_group(grp, z, state.lam, Sigma, p, warm=warm, tol=tol)
        errors.update((grp.blocks[r], err) for r, err in res.errors.items())
        results.append(res)
    if errors:
        raise errors[min(errors)]
    return results


def _outer_loop(problem, opts, state, step, label, t_start):
    """Run the shared loop and return its Solution.

    ``step(X, viol, prev_viol, timings)`` is the coordination: it updates
    ``state`` (z, lam, and whatever else the solver keeps there) from the
    groups' local solutions X, fills its layer timings, and returns its
    IterationRecord fields (``qp_step`` and ``comms_floats`` at least).
    ``prev_viol`` is None on the first iteration.  Progress lines print
    ``qp_step`` under ``label``.
    """
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
            state.locals = _solve_locals(state, tol_k)
            timings["local"] = time.perf_counter() - t0
            X = [res.x for res in state.locals]

            if max(np.abs(x).max() for x in X) > DIVERGENCE_GUARD:
                termination = "error"
                message = f"divergence guard tripped at iteration {k}"
                break

            prev_viol_vec, viol_vec = viol_vec, _consensus(problem, state, X)
            viol_inf = float(np.abs(viol_vec).max()) if problem.n_c else 0.0
            local_step = max(float(np.abs(x - zz).max()) for x, zz in zip(X, state.z))
            err_prev = max(viol_inf, local_step)
            prev_active, state.active = state.active, _active_masks(opts, state)

            done = (
                opts.term_eps > 0
                and viol_inf <= opts.term_eps
                and local_step <= opts.term_eps
            )
            if done:
                fields = {"qp_step": 0.0, "comms_floats": 0}
            else:
                fields = step(X, viol_vec, prev_viol_vec, timings)
            log.append(IterationRecord(
                iter=k, consensus_viol=viol_inf, local_step=local_step,
                active_changes=_active_changes(prev_active, state.active),
                timings=timings, z=state.per_block([zz.copy() for zz in state.z]),
                x=state.per_block([x.copy() for x in X]), lam=state.lam.copy(),
                newton_steps=int(sum(res.iterations.sum() for res in state.locals)),
                **fields,
            ))
            if done:
                termination = "tolerance-met"
                message = "both stopping norms within tolerance"
                break

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
    # (max_iter >= 1, so every group has been solved)
    timers["total"] = time.perf_counter() - t_start
    xs = state.per_block([res.x for res in state.locals])
    status = state.per_block([res.status for res in state.locals])
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
        objective=_objective(state, [res.x for res in state.locals]),
        log=log,
        timers=timers,
        local_status=status,
        local_kkt=state.per_block([res.kkt_residual for res in state.locals]),
    )


def run_aladin(problem, opts=None, z0=None, lam0=None):
    """Solve a separable problem by alternating local NLPs with a consensus QP.

    The step of the shared outer loop: gradients, active sets, and positive
    definite Hessian models are assembled per lockstep group; the coordination QP
    runs in the configured variant; z and lam take the (damped) full step;
    the scaling heuristics update.
    """
    opts, state, t_start, rows = _start(problem, opts, z0, lam0)
    # each block's C(i) and compact A_i[C(i)]
    coupling = (rows, [s.A[r] for s, r in zip(problem.subproblems, rows)])
    topology = (
        topology_from_rows(problem.n_c, rows) if opts.variant == "bilevel" else None
    )

    def step(X, viol_vec, prev_viol_vec, timings):
        t0 = time.perf_counter()
        packs = _sensitivity_pack(problem, opts, state, coupling)
        timings["sensitivity"] = time.perf_counter() - t0
        bfgs_min_eig = (
            [float(v) for v in per_block(
                [np.linalg.eigvalsh(pk.hess).min(axis=-1) for pk in packs],
                [pk.blocks for pk in packs],
            )]
            if opts.hessian != "exact"
            else None
        )

        t0 = time.perf_counter()
        result, mlog, t_inner = _coordinate(problem, opts, state, packs, topology)
        timings["qp"] = time.perf_counter() - t0
        timings["inner"] = t_inner

        D = [np.array([result.dx[i] for i in grp.blocks]) for grp in state.groups]
        qp_step = max(float(np.abs(d).max()) for d in D)
        alpha = opts.step_size
        state.z = [zz + alpha * (x - zz + d) for zz, x, d in zip(state.z, X, D)]
        state.lam = state.lam + alpha * (result.lam_qp - state.lam)
        state.prev_lam_qp = result.lam_qp.copy()
        state.prev_x = X

        state.scaling = update_sigma(state.scaling, opts)
        if opts.del_up and prev_viol_vec is not None:
            state.scaling = update_delta_by_violation(
                state.scaling, viol_vec, prev_viol_vec, opts
            )
        return {
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
    lam += rho (sum A_i x_i - b).  With G = sum_i of the range-space
    projectors of the A_i and nu the minimum-norm solution of G nu =
    rho (sum A_i x_i - b), it is z_i = x_i - A_i^+ nu / rho (Boyd et al.,
    FnT ML 3, 2011, section 7), one stacked product per group.
    """
    opts, state, t_start, rows = _start(problem, opts, z0, lam0)
    rho = opts.rho_admm
    subs = problem.subproblems
    n_c = problem.n_c
    state.scaling.sigmas = [
        np.array([0.5 * rho * (subs[i].A.T @ subs[i].A) for i in grp.blocks])
        for grp in state.groups
    ]
    # each A_i's pseudoinverse, and its projector added into G in block
    # order as sum() would add them, so only one n_c x n_c projector lives
    G = np.zeros((n_c, n_c))
    pinvs = []
    for s, c in zip(subs, rows):
        if c.size:
            U, sv, Vt = np.linalg.svd(s.A, full_matrices=False)
            r = int(np.sum(sv > max(s.A.shape) * np.finfo(float).eps * sv[0]))
            U = U[:, :r]
            G += U @ U.T
            pinvs.append(Vt[:r].T @ np.diag(1.0 / sv[:r]) @ U.T)
        else:
            pinvs.append(np.zeros((s.n_x, n_c)))
    P = [np.array([pinvs[i] for i in grp.blocks]) for grp in state.groups]
    del pinvs

    def step(X, viol_vec, prev_viol_vec, timings):
        t0 = time.perf_counter()
        if n_c:
            nu = np.linalg.lstsq(G, rho * viol_vec, rcond=None)[0]
            znew = [x - mv(P_g, nu) / rho for x, P_g in zip(X, P)]
        else:
            znew = X
        qp_step = max(float(np.abs(zn - x).max()) for zn, x in zip(znew, X))
        state.z = znew
        state.lam = state.lam + rho * viol_vec
        timings["qp"] = time.perf_counter() - t0
        return {"qp_step": qp_step, "comms_floats": 0}

    return _outer_loop(problem, opts, state, step, "z-step", t_start)
