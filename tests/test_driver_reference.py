"""run_aladin and run_admm against the two separate outer loops they replaced.

The reference below is each solver's loop as it stood before both shared one
``_outer_loop``, run block after block (its thread-pool option is gone) and
without the write-only iteration counter it kept on the state.  Its loop
helpers are spelled out in place; the ALADIN step's library parts
(``driver._sensitivity_pack``, ``driver._coordinate``) are shared, so the
two sides differ only in the loop.  The reference keeps its state block by
block; ``group_state`` hands it to the shared parts in the driver's
group-major layout, the local solutions with their evaluation at x and
active masks, and ``keep_bfgs`` takes the BFGS matrices back.  Every
Solution field, every
IterationRecord (timings by key only) and the captured progress lines must
agree bit for bit.  The solve-once tests pin one factored reduced Hessian
per block and outer iteration, however the ``np.linalg.solve`` calls stack
them.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from aladin import driver
from aladin import expr as ex
from aladin.coordination import ScalingState, update_delta_by_violation, update_sigma
from aladin.decentral import topology_from_rows
from aladin.driver import (
    LAYERS,
    IterateState,
    IterationLog,
    IterationRecord,
    Solution,
    run_admm,
    run_aladin,
)
from aladin.errors import SolverError
from aladin.examples_lib import coupled_qp, ocp_chain, tutorial
from aladin.local import GroupSolution, group_blocks, solve_local
from aladin.problem import SeparableProblem, SolverOptions, Subproblem, validate

from oracles import detect_active

DIVERGENCE_GUARD = 1e10


# -- reference ---------------------------------------------------------------

def coupling_rows(A):
    """C(i): the sorted indices of the nonzero rows of a coupling matrix A_i."""
    return np.flatnonzero(np.any(np.asarray(A) != 0.0, axis=1))


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
    return SimpleNamespace(
        z=z,
        lam=lam,
        locals=[None] * problem.n_s,
        scaling=ScalingState(
            sigmas=[opts.sigma_init * np.eye(s.n_x) for s in problem.subproblems],
            delta=np.full(problem.n_c, opts.mu_init / 2.0),
        ),
        bfgs=[None] * problem.n_s,
        prev_x=None,
        prev_active=None,
        prev_lam_qp=None,
    )


def group_state(problem, opts, groups, state):
    """The per-block ``state`` in the driver's group-major layout."""

    def stacked(rows):
        return [np.array([rows[i] for i in g.blocks], dtype=float) for g in groups]

    sols = []
    for g in groups:
        res = GroupSolution(len(g), g.n, g.n_g, g.n_h)
        for j, i in enumerate(g.blocks):
            sol, sub, p = state.locals[i], problem.subproblems[i], problem.parameters[i]
            pt = SimpleNamespace(
                x=sol.x, kappa=sol.kappa, gamma=sol.gamma, etaL=sol.eta[:g.n],
                etaU=sol.eta[g.n:], h=ex.evaluate(sub.h, sol.x, p),
                grad_f=ex.gradient(sub.f, sol.x, p), Jg=ex.jacobian(sub.g, sol.x, p),
                Jh=ex.jacobian(sub.h, sol.x, p),
            )
            res.put([j], pt, ..., sol.status, sol.iterations, sol.kkt_residual)
        sols.append(res)
    out = IterateState(
        groups=groups, z=stacked(state.z), lam=state.lam,
        p=stacked(problem.parameters), scaling=state.scaling, locals=sols,
        bfgs=[None if state.bfgs[g.blocks[0]] is None
              else np.array([state.bfgs[i] for i in g.blocks]) for g in groups],
        prev_x=None if state.prev_x is None else stacked(state.prev_x),
        prev_lam_qp=state.prev_lam_qp,
    )
    out.active = driver._active_masks(opts, out)
    return out


def keep_bfgs(groups, shared, state):
    """Take the BFGS matrices the shared step left, block by block."""
    for g, B in zip(groups, shared.bfgs):
        for i, B_i in zip(g.blocks, [None] * len(g) if B is None else B):
            state.bfgs[i] = B_i


def _map_blocks(fn, n):
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
    cap = 1e-2 * opts.act_margin
    if err_prev is None:
        return max(opts.local_tol_floor, cap)
    return max(opts.local_tol_floor, min(cap, 1e-2 * err_prev))


def _finish(problem, state, termination, message, viol_inf, log, timers, t_start):
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


def _unstack(packs, name):
    """Field ``name`` of every block's lane of the packs, in block order."""
    out = {}
    for pk in packs:
        out.update(zip(pk.blocks.tolist(), getattr(pk, name)))
    return [out[i] for i in sorted(out)]


def _active_changes(prev, current):
    if prev is None:
        return 0
    return sum(
        len(set(a) ^ set(bb)) for a, bb in zip(prev, current)
    )


def reference_aladin(problem, opts=None, z0=None, lam0=None):
    opts = (opts or SolverOptions()).check()
    _check_problem(problem)
    t_start = time.perf_counter()
    timers = {"setup": 0.0, **dict.fromkeys(LAYERS, 0.0), "total": 0.0}
    state = _init_state(problem, opts, z0, lam0)
    # every variant's coordination reads the coupling rows
    rows = [coupling_rows(s.A) for s in problem.subproblems]
    coupling = (rows, [s.A[r] for s, r in zip(problem.subproblems, rows)])
    groups = group_blocks(problem.subproblems)
    topology = (
        topology_from_rows(problem.n_c, rows) if opts.variant == "bilevel" else None
    )
    timers["setup"] = time.perf_counter() - t_start
    n_s = problem.n_s
    log = IterationLog()
    termination = "max-iterations"
    message = "maximum number of iterations reached"
    err_prev = None
    viol_vec = np.zeros(problem.n_c)
    viol_inf = np.inf

    for k in range(1, opts.max_iter + 1):
        timings = dict.fromkeys(LAYERS, 0.0)
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
            )
            timings["local"] = time.perf_counter() - t0
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

            acts = [
                detect_active(
                    problem.subproblems[i], xs[i], problem.parameters[i],
                    opts.act_margin,
                ).indices
                for i in range(n_s)
            ]
            if opts.term_eps > 0 and viol_inf <= opts.term_eps and local_step <= opts.term_eps:
                log.append(
                    IterationRecord(
                        iter=k, consensus_viol=viol_inf, local_step=local_step,
                        qp_step=0.0,
                        active_changes=_active_changes(state.prev_active, acts),
                        comms_floats=0,
                        timings=timings,
                        z=[zz.copy() for zz in state.z],
                        x=[x.copy() for x in xs],
                        lam=state.lam.copy(),
                    )
                )
                termination = "tolerance-met"
                message = "both stopping norms within tolerance"
                break

            t0 = time.perf_counter()
            shared = group_state(problem, opts, groups, state)
            packs = driver._sensitivity_pack(problem, opts, shared, coupling)
            keep_bfgs(groups, shared, state)
            timings["sensitivity"] = time.perf_counter() - t0
            bfgs_min_eig = (
                [float(np.linalg.eigvalsh(H).min()) for H in _unstack(packs, "hess")]
                if opts.hessian != "exact"
                else None
            )

            t0 = time.perf_counter()
            result, mlog, t_inner = driver._coordinate(
                problem, opts, shared, packs, topology
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

            log.append(
                IterationRecord(
                    iter=k,
                    consensus_viol=viol_inf,
                    local_step=local_step,
                    qp_step=qp_step,
                    active_changes=_active_changes(state.prev_active, acts),
                    comms_floats=mlog.total_floats() if mlog is not None else 0,
                    inner_residual=mlog.residual if mlog is not None else None,
                    timings=timings,
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
        finally:
            for key in LAYERS:
                timers[key] += timings[key]

    return _finish(
        problem, state, termination, message, viol_inf, log, timers, t_start
    )


def reference_admm(problem, opts=None, z0=None, lam0=None):
    opts = (opts or SolverOptions()).check()
    _check_problem(problem)
    t_start = time.perf_counter()
    timers = {"setup": 0.0, **dict.fromkeys(LAYERS, 0.0), "total": 0.0}
    state = _init_state(problem, opts, z0, lam0)
    rho = opts.rho_admm
    n_s = problem.n_s
    subs = problem.subproblems
    sigmas = [0.5 * rho * (s.A.T @ s.A) for s in subs]
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
        timings = dict.fromkeys(LAYERS, 0.0)
        try:
            tol_k = _local_tolerance(opts, err_prev)
            t0 = time.perf_counter()
            state.locals = _map_blocks(
                lambda i: solve_local(
                    subs[i], state.z[i], state.lam, sigmas[i],
                    p=problem.parameters[i], warm=state.locals[i], tol=tol_k,
                ),
                n_s,
            )
            timings["local"] = time.perf_counter() - t0
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
                        timings=timings,
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
            timings["qp"] = time.perf_counter() - t0

            log.append(
                IterationRecord(
                    iter=k, consensus_viol=viol_inf, local_step=local_step,
                    qp_step=qp_step,
                    active_changes=_active_changes(prev_active, acts),
                    comms_floats=0,
                    timings=timings,
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
        finally:
            for key in LAYERS:
                timers[key] += timings[key]

    return _finish(
        problem, state, termination, message, viol_inf, log, timers, t_start
    )


# -- comparison --------------------------------------------------------------

def _bits(v):
    """A value's exact bit pattern (arrays with shape and dtype)."""
    if v is None or isinstance(v, (str, int, tuple)):
        return v
    if isinstance(v, list):
        return [_bits(u) for u in v]
    a = np.asarray(v)
    return (a.shape, a.dtype.str, a.tobytes())


SOLUTION_FIELDS = (
    "xs", "lam", "termination", "message", "iterations",
    "consensus_violation", "objective", "local_status", "local_kkt",
)
RECORD_FIELDS = (
    "iter", "consensus_viol", "local_step", "qp_step", "active_changes",
    "comms_floats", "inner_residual", "z", "x", "lam", "bfgs_min_eig",
)


def assert_same_run(ref, new):
    for name in SOLUTION_FIELDS:
        assert _bits(getattr(new, name)) == _bits(getattr(ref, name)), name
    assert list(new.timers) == list(ref.timers)
    assert len(new.log) == len(ref.log)
    for r, n in zip(ref.log.records, new.log.records):
        for name in RECORD_FIELDS:
            assert _bits(getattr(n, name)) == _bits(getattr(r, name)), (r.iter, name)
        assert list(n.timings) == list(r.timings)


def _coupled_qp_50():
    return coupled_qp(n_blocks=50)


def _coupled_qp_20x3():
    return coupled_qp(n_blocks=20, block_size=3)


def interleaved_chain(n_blocks=8):
    """Two lockstep groups that interleave in block order.

    Even blocks: min ||x - c_i||^2 over the disc x0^2 + x1^2 <= 1; odd
    blocks: min (x0 - c_0)^2 + 2 (x1 - c_1)^2 + x0 x2 / 2 + (x2 - c_2)^2 on
    the plane x0 - x1 + x2 / 4 = c_0.  They are chained as in ``_chain``,
    and one more row sums x2 over all blocks, so its consensus entry adds
    terms of both groups in block order.
    """
    from test_sensitivity_reference import _chain

    centers = np.random.default_rng(11).uniform(-1.5, 1.5, (n_blocks, 3))

    def make(i, A):
        x0, x1, x2 = ex.var(0), ex.var(1), ex.var(2)
        c = centers[i]
        if i % 2 == 0:
            f = ex.VectorFunction([ex.square(x0 - c[0]) + ex.square(x1 - c[1])
                                   + ex.square(x2 - c[2])], 3)
            h = ex.VectorFunction([ex.square(x0) + ex.square(x1) - 1.0], 3)
            return Subproblem(f, h=h, A=A)
        f = ex.VectorFunction([ex.square(x0 - c[0]) + 2.0 * ex.square(x1 - c[1])
                               + 0.5 * x0 * x2 + ex.square(x2 - c[2])], 3)
        g = ex.VectorFunction([x0 - x1 + 0.25 * x2 - c[0]], 3)
        return Subproblem(f, g=g, A=A)

    return _chain(n_blocks, 3, make, shared=True)


def offset_problem(offsets=(0.0, 1.5, 0.0, -2.0)):
    """Blocks (x0 - c)^2 + x1^2 + e in one lockstep group whose f tapes
    differ: e = 0 folds away, and every other e keeps an add, so the final
    objective runs two lane tapes for the group."""
    centers = np.linspace(-1.0, 1.0, len(offsets))
    subs = []
    for i, (c, e) in enumerate(zip(centers, offsets)):
        f = ex.square(ex.var(0) - c) + ex.square(ex.var(1)) + e
        A = np.zeros((1, 2))
        A[0, 0] = 1.0 if i % 2 else -1.0
        subs.append(Subproblem(ex.VectorFunction([f], 2), A=A))
    return SeparableProblem(subs, b=[0.0])


def test_offset_problem_splits_its_group_by_f():
    (group,) = group_blocks(offset_problem().subproblems)
    keys = [s.f._compiled_outputs().key for s in group.subs]
    assert keys[0] == keys[2] != keys[1] == keys[3]


TUTORIAL_CASES = [
    (f"tutorial-{variant}-{hessian}", tutorial,
     dict(variant=variant, hessian=hessian, max_iter=40))
    for variant in ("fullspace", "nullspace", "bilevel")
    for hessian in ("exact", "bfgs", "dbfgs")
]
ALADIN_CASES = TUTORIAL_CASES + [
    ("tutorial-bilevel-dadmm", tutorial, dict(variant="bilevel", inner_alg="dadmm")),
    ("ocp-fullspace", ocp_chain, dict()),
    ("ocp-del-up", ocp_chain, dict(del_up=True, log_every=2)),
    ("ocp-nullspace-damped", ocp_chain, dict(variant="nullspace", step_size=0.7)),
    ("ocp-bilevel-cold-inner", ocp_chain, dict(variant="bilevel", warm_start=False)),
    ("qp50-nullspace", _coupled_qp_50, dict(variant="nullspace")),
    ("interleaved-fullspace", interleaved_chain, dict()),
    ("interleaved-nullspace-bfgs", interleaved_chain,
     dict(variant="nullspace", hessian="bfgs")),
    ("interleaved-dbfgs-del-up", interleaved_chain, dict(hessian="dbfgs", del_up=True)),
    ("offsets-fullspace", offset_problem, dict()),
]
# the 20x3 QP is the benchmark's admm-chain instance, unshifted
ADMM_CASES = [
    ("admm-tutorial", tutorial, dict(term_eps=0.0, max_iter=30), 30),
    ("admm-qp20x3", _coupled_qp_20x3, dict(term_eps=1e-6, max_iter=1000, log_every=7), 244),
    ("admm-ocp", ocp_chain, dict(), 100),
    # the default rho = 100 diverges here, as it does block by block
    ("admm-interleaved", interleaved_chain,
     dict(rho_admm=0.3, term_eps=1e-6, max_iter=400), 333),
]


def _run_both(capsys, reference, solver, build, kwargs):
    opts = {"log_every": 1, **kwargs}
    ref = reference(build(), SolverOptions(**opts))
    ref_out = capsys.readouterr().out
    new = solver(build(), SolverOptions(**opts))
    new_out = capsys.readouterr().out
    assert ref_out, "the case prints no progress lines"
    assert new_out == ref_out
    assert_same_run(ref, new)
    return new


@pytest.mark.parametrize(
    "build, kwargs", [c[1:] for c in ALADIN_CASES], ids=[c[0] for c in ALADIN_CASES]
)
def test_aladin_matches_reference(capsys, build, kwargs):
    _run_both(capsys, reference_aladin, run_aladin, build, kwargs)


@pytest.mark.parametrize(
    "build, kwargs, iterations", [c[1:] for c in ADMM_CASES],
    ids=[c[0] for c in ADMM_CASES],
)
def test_admm_matches_reference(capsys, build, kwargs, iterations):
    sol = _run_both(capsys, reference_admm, run_admm, build, kwargs)
    assert sol.iterations == iterations


def test_z0_and_lam0_taken_alike(capsys):
    prob = tutorial()
    z0 = [np.full(s.n_x, 0.3) for s in prob.subproblems]
    lam0 = np.full(prob.n_c, 0.1)
    for reference, solver in ((reference_aladin, run_aladin), (reference_admm, run_admm)):
        opts = SolverOptions(max_iter=6, log_every=1)
        ref = reference(tutorial(), opts, z0=z0, lam0=lam0)
        ref_out = capsys.readouterr().out
        new = solver(tutorial(), opts, z0=z0, lam0=lam0)
        assert capsys.readouterr().out == ref_out
        assert_same_run(ref, new)


# -- one factored reduced Hessian per block and outer iteration --------------

@pytest.mark.parametrize(
    "build, kwargs",
    [
        (_coupled_qp_50, dict(variant="nullspace")),
        (ocp_chain, dict(variant="nullspace", step_size=0.7)),
        (ocp_chain, dict(variant="bilevel")),
        (tutorial, dict(variant="bilevel", inner_alg="dadmm", max_iter=12)),
        (_coupled_qp_50, dict()),
        (ocp_chain, dict(del_up=True)),
        (tutorial, dict(hessian="dbfgs")),
    ],
    ids=["qp50-nullspace", "ocp-nullspace", "ocp-bilevel", "tutorial-dadmm",
         "qp50-fullspace", "ocp-fullspace-del-up", "tutorial-fullspace-dbfgs"],
)
def test_one_solve_per_reduced_block(monkeypatch, build, kwargs):
    real = np.linalg.solve
    calls = [0]  # factored systems: a stacked call factors one per lane
    # counted inside the coordination only: the local solver's Cholesky
    # route solves with np.linalg.solve too
    coordinating = [False]
    coordinate = driver._coordinate

    def counting(*args, **kw):
        if coordinating[0]:
            calls[0] += int(np.prod(np.shape(args[0])[:-2]))
        return real(*args, **kw)

    def scoped(*args, **kw):
        coordinating[0] = True
        try:
            return coordinate(*args, **kw)
        finally:
            coordinating[0] = False

    monkeypatch.setattr(np.linalg, "solve", counting)
    monkeypatch.setattr(driver, "_coordinate", scoped)
    problem = build()
    sol = run_aladin(problem, SolverOptions(**kwargs))
    steps = sol.iterations - (sol.termination == "tolerance-met")
    assert steps > 0
    assert calls[0] == problem.n_s * steps
