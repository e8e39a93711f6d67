"""variant="fullspace" on the Schur path against the dense KKT solve it replaced.

The reference below is the full-space coordination as it stood before the
variant moved onto the reduced path: the dense solver
``solve_coordination_full`` and the full-space branch of
``driver._coordinate``, both verbatim except that the result no longer
carries the KKT residual (the field is gone) and that the branch unstacks
the per-group sensitivity packs and local solutions it is now handed.  It is swapped in for
``driver._coordinate`` with ``monkeypatch``; everything else in the run is
shared.  Per outer iteration, z, x and lam must agree to 1e-12 relative,
and both runs must take the same iterations, termination, message and
active-set changes.
"""

import numpy as np
import pytest

from aladin import driver
from aladin.coordination import CoordinationResult
from aladin.driver import run_aladin
from aladin.errors import LicqError, SingularKktError
from aladin.examples_lib import coupled_qp, ocp_chain, tutorial
from aladin.linalg import sym_solve
from aladin.problem import SolverOptions
from aladin.sensitivity import SensitivityPack

RTOL = 1e-12


# -- reference ---------------------------------------------------------------

def solve_coordination_full(packs, xs, lam, delta, A_list, b):
    """Solve the full-space coordination QP via its KKT system.

    Unknown layout: per-block primal steps, per-block multipliers for the
    active rows C_i dx_i = 0, then the consensus dual lamQP.  Coupling rows
    carry the -1/(2 Delta) slack block.
    """
    n_s = len(packs)
    n_c = b.size
    sizes = [p.grad.size for p in packs]
    c_rows = [p.jac_active.shape[0] for p in packs]
    off_x = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    off_c = (np.concatenate([[0], np.cumsum(c_rows)]) + off_x[-1]).astype(int)
    dim = off_c[-1] + n_c
    K = np.zeros((dim, dim))
    rhs = np.zeros(dim)
    for i, p in enumerate(packs):
        a, bnd = off_x[i], off_x[i + 1]
        K[a:bnd, a:bnd] = p.hess
        rhs[a:bnd] = -p.grad
        if c_rows[i]:
            ca, cb = off_c[i], off_c[i + 1]
            K[a:bnd, ca:cb] = p.jac_active.T
            K[ca:cb, a:bnd] = p.jac_active
        if n_c:
            K[a:bnd, off_c[-1]:] = A_list[i].T
            K[off_c[-1]:, a:bnd] = A_list[i]
    if n_c:
        K[off_c[-1]:, off_c[-1]:] = -np.diag(1.0 / (2.0 * delta))
        coupling = sum(A_list[i] @ xs[i] for i in range(n_s))
        rhs[off_c[-1]:] = b - coupling - lam / (2.0 * delta)
    try:
        sol = sym_solve(K, rhs)
    except SingularKktError as err:
        raise SingularKktError(
            f"coordination KKT system failed ({err}); check active-set ranks"
        ) from err
    dx = [sol[off_x[i]: off_x[i + 1]] for i in range(n_s)]
    lam_qp = sol[off_c[-1]:].copy()
    s = (lam_qp - lam) / (2.0 * delta) if n_c else np.zeros(0)
    return CoordinationResult(dx=dx, s=s, lam_qp=lam_qp)


def unstack(packs):
    """One single-block pack per block, in block order, from stacked packs."""
    out = {}
    for pk in packs:
        for j, i in enumerate(pk.blocks.tolist()):
            out[i] = SensitivityPack(
                grad=pk.grad[j], hess=pk.hess[j], jac_active=pk.jac_active[j],
            )
    return [out[i] for i in sorted(out)]


def reference_coordinate(problem, opts, state, packs, topology):
    """The full-space branch of the old ``driver._coordinate``."""
    packs = unstack(packs)
    xs = state.per_block([res.x for res in state.locals])
    A_list = [s.A for s in problem.subproblems]
    b = problem.b
    assert opts.variant == "fullspace"
    for i, pk in enumerate(packs):
        C = pk.jac_active
        if C.shape[0] and np.linalg.matrix_rank(C) < C.shape[0]:
            raise LicqError(
                f"block {i}: active constraint Jacobian is rank deficient"
            )
    res = solve_coordination_full(
        packs, xs, state.lam, state.scaling.delta, A_list, b
    )
    return res, None, 0.0


# -- comparison --------------------------------------------------------------

def _coupled_qp_200():
    return coupled_qp(n_blocks=200)


CASES = [
    ("tutorial-exact", tutorial, dict()),
    ("tutorial-bfgs", tutorial, dict(hessian="bfgs")),
    ("tutorial-dbfgs", tutorial, dict(hessian="dbfgs")),
    ("tutorial-del-up", tutorial, dict(del_up=True)),
    ("ocp-exact", ocp_chain, dict()),
    ("ocp-dbfgs", ocp_chain, dict(hessian="dbfgs")),
    ("ocp-del-up", ocp_chain, dict(del_up=True)),
    ("ocp-no-reg", ocp_chain, dict(reg=False)),
    ("qp200", _coupled_qp_200, dict()),
]


def _close(new, ref):
    new, ref = np.concatenate([np.ravel(v) for v in new]), np.concatenate(
        [np.ravel(v) for v in ref]
    )
    return np.abs(new - ref).max(initial=0.0) <= RTOL * np.abs(ref).max(initial=0.0)


@pytest.mark.parametrize(
    "build, kwargs", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_fullspace_matches_dense_kkt(monkeypatch, build, kwargs):
    opts = SolverOptions(variant="fullspace", **kwargs)
    new = run_aladin(build(), opts)
    monkeypatch.setattr(driver, "_coordinate", reference_coordinate)
    ref = run_aladin(build(), opts)
    assert new.termination == ref.termination
    assert new.message == ref.message
    assert new.iterations == ref.iterations
    assert ref.iterations > 1
    for r, n in zip(ref.log.records, new.log.records):
        assert n.active_changes == r.active_changes, r.iter
        for name in ("z", "x"):
            assert _close(getattr(n, name), getattr(r, name)), (r.iter, name)
        assert _close([n.lam], [r.lam]), (r.iter, "lam")
    assert _close(new.xs, ref.xs) and _close([new.lam], [ref.lam])
