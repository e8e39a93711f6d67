"""The stacked sensitivity and coordination layers against the per-block code.

The reference below is the per-block sensitivity and Schur code as it stood
before the layers became group-major, copied verbatim: ``_sensitivity_pack``
and ``_coordinate`` of the driver, the per-block kernels of ``sensitivity``
(active sets and Jacobians, which ``oracles`` keeps, ``regularize``,
``bfgs_update``, ``nullspace_basis``, ``reduce_block``,
``ReducedBlock.solved``, ``schur_contribution``) and
``solve_coordination_reduced`` and ``reduced_result`` of ``coordination``;
the one edit is that the copied ``solve_coordination_reduced`` calls the
copied ``schur_contribution``.  It
shares no code with the stacked layers: the adapters swap it in for
``driver._sensitivity_pack`` and ``driver._coordinate`` with
``monkeypatch``, block after block, reading the driver's group-major state
block by block and handing the BFGS matrices back to it per group.  Every
Solution field, every
IterationRecord and the printed lines must agree bit for bit, and a failing
block must raise the same error with the same message.
"""

import time
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest

from aladin import driver
from aladin import expr as ex
from aladin.coordination import CoordinationResult
from aladin.decentral import run_dadmm, run_dcg, warm_start
from aladin.driver import run_aladin
from aladin.errors import LicqError, SingularKktError, SolverError
from aladin.examples_lib import coupled_qp
from aladin.expr import VectorFunction, param, var
from aladin.linalg import sym_solve
from aladin.problem import SeparableProblem, SolverOptions, Subproblem

from oracles import ActiveSet, active_jacobian, detect_active
from test_driver_reference import ALADIN_CASES, assert_same_run


# -- reference ---------------------------------------------------------------

@dataclass(frozen=True)
class ReducedBlock:
    """Projected quantities for one block, on its own coupling rows.

    ``B = Z'HZ`` (regularized) and ``g = Z'g`` live in the block's reduced
    coordinates; ``A = A_i[rows] Z`` is the coupling matrix restricted to
    ``rows``, the consensus rows C(i) on which the original A_i is nonzero.
    The rows come from A_i, not from A_i Z: an active constraint that fixes
    a coupled variable zeroes its row of A_i Z, yet the block's coupling
    value A_i x_i on that row still enters the dual system.
    """

    B: np.ndarray
    g: np.ndarray
    A: np.ndarray
    rows: np.ndarray

    @cached_property
    def solved(self):
        """(B^-1 A', B^-1 g), from one solve of B against [A', g].

        The Schur term and the step recovery both use them, so B is
        factored once per block and outer iteration.  Raises
        SingularKktError when B is singular.
        """
        m = self.A.shape[0]
        if not self.B.size:
            return np.zeros((0, m)), np.zeros(0)
        try:
            X = np.linalg.solve(self.B, np.column_stack([self.A.T, self.g]))
        except np.linalg.LinAlgError as err:
            raise SingularKktError(
                f"reduced Hessian ({self.B.shape[0]}x{self.B.shape[0]}) is singular"
            ) from err
        return X[:, :m], X[:, m]


@dataclass
class SensitivityPack:
    """Everything one block contributes to the coordination QP.

    ``hess_raw`` is the (possibly indefinite) Lagrangian Hessian or BFGS
    matrix before processing; ``hess`` is the matrix the full-space variant
    projects, regularized unless ``reg`` is off.  With the exact Hessian
    only the full-space variant fills ``hess``; the nullspace and bilevel
    variants leave it None, since ``reduce_block`` regularizes their
    projected Hessian instead.  BFGS modes always set it to the BFGS matrix.
    """

    grad: np.ndarray
    hess_raw: np.ndarray
    hess: np.ndarray | None
    active: ActiveSet
    jac_active: np.ndarray


def regularize(H, delta):
    """Flip negative eigenvalues, floor small ones at delta.

    Eigenvalue rule: |w| if w < -delta, delta if |w| < delta, else w.
    The result is symmetric with minimum eigenvalue >= delta.
    """
    if delta <= 0:
        raise ValueError("regularization floor must be positive")
    H = np.asarray(H, dtype=float)
    if H.size == 0:
        return H.copy()
    w, V = np.linalg.eigh(0.5 * (H + H.T))
    w_mod = np.where(w < -delta, np.abs(w), np.where(np.abs(w) < delta, delta, w))
    out = (V * w_mod) @ V.T
    return 0.5 * (out + out.T)


def bfgs_update(B, s, y, damped=False):
    """BFGS curvature update of an SPD matrix.

    Plain mode skips the update when s'y <= 1e-12 ||s|| ||y|| (result may
    otherwise lose definiteness); damped mode applies Powell's correction
    with threshold 0.2 and mixing weight theta = 0.8 s'Bs / (s'Bs - s'y),
    which keeps the result SPD unconditionally.
    """
    B = np.asarray(B, dtype=float)
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    if s.size != y.size:
        raise ValueError("step and gradient difference must have equal length")
    sn = np.linalg.norm(s)
    if sn == 0.0:
        return B.copy()
    Bs = B @ s
    sBs = float(s @ Bs)
    sy = float(s @ y)
    if damped:
        if sy < 0.2 * sBs:
            theta = 0.8 * sBs / (sBs - sy)
            y = theta * y + (1.0 - theta) * Bs
            sy = float(s @ y)
    elif sy <= 1e-12 * sn * np.linalg.norm(y):
        return B.copy()
    out = B - np.outer(Bs, Bs) / sBs + np.outer(y, y) / sy
    return 0.5 * (out + out.T)


def nullspace_basis(C):
    """Orthonormal basis of null(C) via SVD; identity for a 0-row C.

    Raises LicqError when C is rank deficient (the active constraint
    gradients are linearly dependent).
    """
    C = np.asarray(C, dtype=float)
    m, n = C.shape
    if m == 0:
        return np.eye(n)
    U, sv, Vt = np.linalg.svd(C)
    tol = max(m, n) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    rank = int(np.sum(sv > tol))
    if rank < m:
        raise LicqError(
            f"active constraint Jacobian is rank deficient (rank {rank} of {m} rows)"
        )
    return Vt[m:].T


def coupling_rows(A):
    """C(i): the sorted indices of the nonzero rows of a coupling matrix A_i."""
    return np.flatnonzero(np.any(np.asarray(A) != 0.0, axis=1))


def reduce_block(hess_raw, grad, A, Z, delta, reg=True, rows=None):
    """Project onto the active-constraint nullspace and re-regularize.

    ``A`` is the block's full coupling matrix (one row per consensus row)
    and ``rows`` its coupling rows C(i) = ``coupling_rows(A)``, computed
    here when not given (the outer loop computes them once per run).
    Returns ReducedBlock(Z' H Z, Z' g, A[rows] Z, rows), with Z' H Z
    regularized when ``reg`` is set.  The nullspace and bilevel variants
    pass the raw Hessian with ``reg`` from the options; the full-space
    variant passes its already regularized Hessian with ``reg=False``.
    """
    A = np.asarray(A, dtype=float)
    if rows is None:
        rows = coupling_rows(A)
    B = Z.T @ hess_raw @ Z
    if reg:
        B = regularize(B, delta)
    return ReducedBlock(B=B, g=Z.T @ grad, A=A[rows] @ Z, rows=rows)


def lagrangian_like_gradient(sub, x, p, kappa, gamma):
    """Gradient of f + kappa.g + gamma.h at x (curvature probe for BFGS).

    Box terms drop out of curvature differences (their gradient is constant)
    and are omitted.
    """
    r = ex.gradient(sub.f, x, p)
    if sub.n_g:
        r = r + ex.jacobian(sub.g, x, p).T @ kappa
    if sub.n_h:
        r = r + ex.jacobian(sub.h, x, p).T @ gamma
    return r


def schur_contribution(red, coupling):
    """One block's dual-system term on its rows: S = A B^-1 A', s = c - A B^-1 g.

    Both are compact: S is |C(i)| x |C(i)| and s has |C(i)| entries, indexed
    like ``red.rows``, since the block's term is zero outside its coupling
    rows.  ``coupling`` is the coupling value c = A_i x_i on those rows,
    taken from the local iterate, which need not lie in the span of Z.
    Rows of red.A that vanish (a coupled variable fixed by an active
    constraint) yield exactly zero rows and columns of S; their entries of s
    still carry the coupling value.
    """
    A = red.A
    m = A.shape[0]
    base = np.asarray(coupling, dtype=float)
    if base.shape != (m,):
        raise ValueError(f"coupling value must have length {m}")
    BinvA, Binvg = red.solved
    S = A @ BinvA
    S = 0.5 * (S + S.T)
    s_vec = base - A @ Binvg
    # enforce the structural sparsity exactly: rows of A that are zero give
    # zero rows/columns regardless of roundoff
    zero_rows = ~np.any(A != 0.0, axis=1)
    S[zero_rows, :] = 0.0
    S[:, zero_rows] = 0.0
    return S, s_vec


def solve_coordination_reduced(reduced, couplings, lam, delta, b, Zs=None):
    """Solve the reduced QP through the Schur dual system.

    Parameters
    ----------
    reduced : list of ReducedBlock
    couplings : list of vectors
        Each block's current consensus contribution A_i x_i on its coupling
        rows ``reduced[i].rows``.
    lam, delta, b : dual iterate, slack weight diagonal Delta, coupling
        right-hand side.
    Zs : optional list of nullspace bases; when given, the lifted steps
        Z_i dv_i are returned in ``dx``.

    The dual solve is (sum_i S_i + diag(1/(2 Delta))) lamQP
    = sum_i s_i + lam/(2 Delta) - b.  Each block's compact term (S_i, s_i)
    is scatter-added onto its rows C(i), so no block forms an n_c-sized
    array; ``reduced_result`` then recovers every block's step.
    """
    n_c = b.size
    if n_c:
        S_sum = np.zeros((n_c, n_c))
        s_sum = np.zeros(n_c)
        for red, cpl in zip(reduced, couplings):
            S, s = schur_contribution(red, coupling=cpl)
            S_sum[np.ix_(red.rows, red.rows)] += S
            s_sum[red.rows] += s
        M = S_sum + np.diag(1.0 / (2.0 * delta))
        rhs = s_sum + lam / (2.0 * delta) - b
        lam_qp = sym_solve(M, rhs)
    else:
        lam_qp = np.zeros(0)
    return reduced_result(reduced, lam_qp, lam, delta, Zs)


def reduced_result(reduced, lam_qp, lam, delta, Zs=None):
    """Coordination result of a dual solution lamQP of the Schur system.

    Every block recovers its reduced step dv_i = -(B_i^-1 g_i + B_i^-1 A_i'
    lamQP[C(i)]), with A_i = red.A its compact coupling matrix and both
    solves taken from ``red.solved``, lifted to Z_i dv_i when the bases are
    given; the slack is s = (lamQP - lam) / (2 Delta).  Every variant
    shares this recovery.
    """
    dvs = [-(red.solved[1] + red.solved[0] @ lam_qp[red.rows]) for red in reduced]
    dxs = [Z @ dv for Z, dv in zip(Zs, dvs)] if Zs is not None else dvs
    return CoordinationResult(
        dx=dxs, s=(lam_qp - lam) / (2.0 * delta), lam_qp=lam_qp, dv=dvs,
    )


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
    res = reduced_result(reduced, lam_qp, state.lam, delta, Zs)
    return res, mlog, t_inner


# -- adapters ----------------------------------------------------------------

def reference_pack(record):
    """The reference packs, one block each, shaped as single-lane stacks.

    The loop's step reads ``blocks``, ``hess`` and ``active`` of a pack; the
    block's own pack rides along for ``reference_coordinate``.  Every
    block's active set is appended to ``record``, one list per call.
    """

    def pack(problem, opts, state, coupling):
        blocks = block_state(state)
        x_prev = None if state.prev_x is None else state.per_block(state.prev_x)
        lanes = []
        for i in range(problem.n_s):
            pk = _sensitivity_pack(problem, opts, blocks, i, x_prev)
            lanes.append(SimpleNamespace(
                blocks=np.array([i]),
                hess=None if pk.hess is None else pk.hess[None],
                active=np.array([pk.active.indices], dtype=np.intp),
                pack=pk,
            ))
        if opts.hessian != "exact":
            state.bfgs = [np.array([blocks.bfgs[i] for i in g.blocks])
                          for g in state.groups]
        record.append([lane.pack.active.indices for lane in lanes])
        return lanes

    return pack


def block_state(state):
    """The local solutions and BFGS matrices of the driver's group-major
    ``state``, block by block."""
    sols = {}
    for g, res in zip(state.groups, state.locals):
        sols.update(zip(g.blocks, res))
    bfgs = [None] * len(sols)
    if state.bfgs[0] is not None:
        bfgs = state.per_block(state.bfgs)
    return SimpleNamespace(locals=[sols[i] for i in range(len(sols))], bfgs=bfgs)


def reference_coordinate(problem, opts, state, packs, topology):
    xs = state.per_block([res.x for res in state.locals])
    rows = [coupling_rows(s.A) for s in problem.subproblems]
    return _coordinate(
        problem, opts, state, [lane.pack for lane in packs], xs, rows, topology
    )


def _outcome(build, opts):
    try:
        return run_aladin(build(), opts)
    except (SolverError, ex.DomainEvalError) as err:
        return type(err), str(err)


def run_pair(monkeypatch, capsys, build, kwargs):
    """(reference outcome, stacked outcome, active sets per iteration)."""
    opts = SolverOptions(**{"log_every": 1, **kwargs})
    record = []
    with monkeypatch.context() as m:
        m.setattr(driver, "_sensitivity_pack", reference_pack(record))
        m.setattr(driver, "_coordinate", reference_coordinate)
        ref = _outcome(build, opts)
    ref_out = capsys.readouterr().out
    new = _outcome(build, opts)
    assert capsys.readouterr().out == ref_out
    if isinstance(ref, tuple):
        assert new == ref
    else:
        assert_same_run(ref, new)
    return ref, new, record


# -- problems ----------------------------------------------------------------

def _chain(n_blocks, n_x, make, shared=False):
    """Blocks make(i, A_i) chained like coupled_qp: row j pins x0 of block j
    to x1 of block j + 1, so the end blocks have one coupling row, the
    others two.  With ``shared``, one more row sums x2 over all blocks, so
    its Schur entry adds a term of every block."""
    n_c = n_blocks - 1 + shared
    subs = []
    for i in range(n_blocks):
        A = np.zeros((n_c, n_x))
        if i < n_blocks - 1:
            A[i, 0] = 1.0
        if i > 0:
            A[i - 1, 1] = -1.0
        if shared:
            A[-1, 2] = 1.0
        subs.append(make(i, A))
    return SeparableProblem(subs, b=np.zeros(n_c))


def disc_chain(n_blocks=12, seed=3, shared=False):
    """One group whose lanes differ in their active sets.

    Block i: min ||x - c_i||^2 + x0 x2 / 2 over the disc x0^2 + x1^2 <= 1
    and the bounds -1 <= x2 <= 1, with centers c_i drawn from [-2, 2]^3:
    some blocks end on the disc, some on a bound, some on both, some on
    neither.  Seeds 0 and 1 of this construction stop in the local solver
    instead (a divide by zero when a trial x rounds onto a bound, a known
    defect of that layer); seed 3 runs every case to its end.
    """
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-2.0, 2.0, (n_blocks, 3))

    def make(i, A):
        c = centers[i]
        f = VectorFunction(
            [ex.square(var(0) - c[0]) + ex.square(var(1) - c[1])
             + ex.square(var(2) - c[2]) + 0.5 * var(0) * var(2)],
            3,
        )
        h = VectorFunction([ex.square(var(0)) + ex.square(var(1)) - 1.0], 3)
        inf = np.inf
        return Subproblem(f, h=h, A=A, lb=[-inf, -inf, -1.0], ub=[inf, inf, 1.0],
                          z0=[0.0, 0.0, 0.0])

    return _chain(n_blocks, 3, make, shared)


def shared_row_disc_chain():
    """disc_chain with a row all blocks share, whose Schur entry sums terms
    from packs whose blocks interleave: only block order reproduces it."""
    return disc_chain(shared=True)


def loose_disc_chain():
    """disc_chain with two blocks of its group coupled to nothing, placed
    among the coupled ones: their pack has no coupling rows."""
    base = disc_chain(n_blocks=8)
    loose = [
        Subproblem(s.f, h=s.h, A=np.zeros((base.n_c, 3)), lb=s.lb, ub=s.ub, z0=s.z0)
        for s in disc_chain(n_blocks=2, seed=4).subproblems
    ]
    subs = list(base.subproblems)
    subs[3:3] = loose
    return SeparableProblem(subs, b=base.b)


def duplicated_row_chain():
    """Blocks 2, 3 and 5 of one group are pushed onto x2 <= 2, stated twice.

    The failing blocks fall into two packs, as block 5 has one coupling row.
    """

    def make(i, A):
        f = VectorFunction(
            [ex.square(var(0)) + ex.square(var(1)) + ex.square(var(2) - param(0))], 3, 1
        )
        h = VectorFunction([var(2) - 2, var(2) - 2], 3, 1)
        return Subproblem(f, h=h, A=A, p=[3.0 if i in (2, 3, 5) else 0.0],
                          z0=[0.0, 0.0, 0.0])

    return _chain(6, 3, make)


def flat_block_chain():
    """Blocks 2 and 3 of one group have a zero Hessian inside a wide box."""

    def make(i, A):
        f = VectorFunction(
            [param(0) * (ex.square(var(0)) + ex.square(var(1))) + var(0) + var(1)], 2, 1
        )
        return Subproblem(f, A=A, lb=[-10.0, -10.0], ub=[10.0, 10.0],
                          p=[0.0 if i in (2, 3) else 1.0], z0=[0.0, 0.0])

    return _chain(6, 2, make)


def _qp_wide():
    return coupled_qp(n_blocks=400, block_size=2)


# -- comparison --------------------------------------------------------------

@pytest.mark.parametrize(
    "build, kwargs", [c[1:] for c in ALADIN_CASES], ids=[c[0] for c in ALADIN_CASES]
)
def test_reference_cases(monkeypatch, capsys, build, kwargs):
    run_pair(monkeypatch, capsys, build, kwargs)


def test_qp_wide_bilevel_dcg(monkeypatch, capsys):
    # one group of 400 blocks, whose end blocks have one coupling row
    ref, _, _ = run_pair(
        monkeypatch, capsys, _qp_wide, dict(variant="bilevel", inner_alg="dcg")
    )
    assert ref.iterations > 1


@pytest.mark.parametrize(
    "kwargs",
    [dict(), dict(variant="nullspace"), dict(variant="bilevel"),
     dict(variant="nullspace", hessian="bfgs"), dict(hessian="dbfgs"),
     dict(variant="bilevel", hessian="dbfgs", inner_alg="dadmm")],
    ids=["fullspace", "nullspace", "bilevel", "nullspace-bfgs", "fullspace-dbfgs",
         "bilevel-dbfgs-dadmm"],
)
@pytest.mark.parametrize("build", [disc_chain, shared_row_disc_chain])
def test_lanes_with_different_active_sets(monkeypatch, capsys, kwargs, build):
    ref, _, record = run_pair(monkeypatch, capsys, build, dict(max_iter=30, **kwargs))
    assert ref.iterations > 2
    # one iteration splits the group by active set and by number of rows
    assert any(
        len(set(acts)) > 2 and len({len(a) for a in acts}) > 2 for acts in record
    )


@pytest.mark.parametrize(
    "kwargs", [dict(), dict(variant="bilevel", hessian="dbfgs")],
    ids=["fullspace", "bilevel-dbfgs"],
)
def test_blocks_without_coupling_rows(monkeypatch, capsys, kwargs):
    ref, _, _ = run_pair(monkeypatch, capsys, loose_disc_chain, kwargs)
    assert ref.iterations > 2


@pytest.mark.parametrize(
    "build, kwargs, error",
    [
        (duplicated_row_chain, dict(), LicqError),
        (duplicated_row_chain, dict(variant="bilevel"), LicqError),
        (flat_block_chain, dict(variant="nullspace", reg=False), SingularKktError),
        (flat_block_chain, dict(reg=False, hessian="bfgs"), None),
    ],
    ids=["licq-fullspace", "licq-bilevel", "singular-nullspace", "flat-bfgs"],
)
def test_lowest_failing_block_named(monkeypatch, capsys, build, kwargs, error):
    ref, _, _ = run_pair(monkeypatch, capsys, build, kwargs)
    if error is None:
        assert not isinstance(ref, tuple)
    else:
        assert ref[0] is error and ": block 2: " in ref[1]
