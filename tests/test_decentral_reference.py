"""D-CG and D-ADMM on the copy vector against the per-agent solvers they replaced.

The reference below is the inner solve as it stood when every agent kept its
own list entry: per-agent folds, products and inner products, and a neighbor
round that adds each neighbor's overlap entries in a Python loop.  Only the
three Topology helpers it called (``split``, ``local_multiplicity`` and
``links``), which the topology no longer has, are spelled out in place.  The
copy-vector solvers must return the same dual to 1e-12 (relative), the same
message accounting, and close residuals; they also keep every copy of a row
bitwise equal, and nothing of a run outlives it.
"""

import gc
import importlib.util
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from aladin import decentral, driver
from aladin.decentral import MessageLog, build_topology, run_dadmm, run_dcg, topology_from_rows
from aladin.driver import run_aladin
from aladin.errors import InnerBreakdownError
from aladin.examples_lib import coupled_qp, ocp_chain
from aladin.problem import SolverOptions

BENCH = Path(__file__).resolve().parent.parent / "bench"


# -- reference ---------------------------------------------------------------

def _links(top):
    return [
        [(j, top.overlap[(i, j)], top.overlap[(j, i)]) for j in nbrs]
        for i, nbrs in enumerate(top.neighbors)
    ]


def _fold_blocks(top, S_blocks, s_blocks, mu, lam_outer, b):
    S_hat, s_hat = [], []
    for i in range(top.n_agents):
        rows = top.rows[i]
        S = np.array(S_blocks[i], dtype=float, copy=True)
        s = np.array(s_blocks[i], dtype=float, copy=True)
        if S.shape != (rows.size, rows.size) or s.shape != (rows.size,):
            raise ValueError(f"agent {i}: Schur block shape mismatch")
        if mu is not None:
            share = 1.0 / top.multiplicity[rows]
            S[np.arange(rows.size), np.arange(rows.size)] += share / mu
            s += share * (lam_outer[rows] / mu - b[rows])
        S_hat.append(S)
        s_hat.append(s)
    return S_hat, s_hat


def _exchange(top, values, log):
    out = []
    for i, links in enumerate(_links(top)):
        acc = values[i].copy()
        for j, idx_i, idx_j in links:
            acc[idx_i] += values[j][idx_j]
        out.append(acc)
    log.neighbor_rounds += 1
    return out


def _count_edges(top, log):
    if log.neighbor_rounds:
        log.edge_floats = {
            (j, i): log.neighbor_rounds * idx_j.size
            for i, links in enumerate(_links(top))
            for j, _, idx_j in links
        }


def _global_sum(contributions, log):
    log.global_sum_rounds += 1
    return float(np.sum(contributions))


def _assemble(top, locals_):
    lam = np.zeros(top.n_c)
    for i in range(top.n_agents):
        lam[top.rows[i]] = locals_[i]
    return lam


def _global_residual(top, S_hat, s_hat, lam):
    r = np.zeros(top.n_c)
    for i in range(top.n_agents):
        rows = top.rows[i]
        r[rows] += s_hat[i] - S_hat[i] @ lam[rows]
    return float(np.abs(r).max()) if r.size else 0.0


def ref_dadmm(top, S_blocks, s_blocks, mu, lam_outer, b, lam0=None, rho=1.0,
              n_iter=20):
    lam_outer = np.zeros(top.n_c) if lam_outer is None else np.asarray(lam_outer, float)
    b = np.zeros(top.n_c) if b is None else np.asarray(b, float)
    S_hat, s_hat = _fold_blocks(top, S_blocks, s_blocks, mu, lam_outer, b)
    log = MessageLog(n_agents=top.n_agents)
    lam0 = np.zeros(top.n_c) if lam0 is None else np.asarray(lam0, float)
    lbar = [lam0[r] for r in top.rows]
    gamma = [np.zeros(r.size) for r in top.rows]
    solvers = [
        np.linalg.inv(S_hat[i] + rho * np.eye(top.rows[i].size))
        for i in range(top.n_agents)
    ]
    mult = [top.multiplicity[top.rows[i]].astype(float) for i in range(top.n_agents)]
    lam_i = lbar
    for _ in range(n_iter):
        lam_i = [
            solvers[i] @ (s_hat[i] - gamma[i] + rho * lbar[i])
            for i in range(top.n_agents)
        ]
        sums = _exchange(top, lam_i, log)
        lbar = [sums[i] / mult[i] for i in range(top.n_agents)]
        gamma = [
            gamma[i] + rho * (lam_i[i] - lbar[i]) for i in range(top.n_agents)
        ]
        log.iterations += 1
    lam = _assemble(top, lbar)
    log.residual = _global_residual(top, S_hat, s_hat, lam)
    _count_edges(top, log)
    overlap_gap = max(
        (np.abs(lam_i[i] - lbar[i]).max() for i in range(top.n_agents)
         if lam_i[i].size),
        default=0.0,
    )
    return lam, log, overlap_gap


def ref_dcg(top, S_blocks, s_blocks, mu, lam_outer, b, lam0=None, n_iter=20,
            rtol=1e-8):
    lam_outer = np.zeros(top.n_c) if lam_outer is None else np.asarray(lam_outer, float)
    b = np.zeros(top.n_c) if b is None else np.asarray(b, float)
    S_hat, s_hat = _fold_blocks(top, S_blocks, s_blocks, mu, lam_outer, b)
    log = MessageLog(n_agents=top.n_agents)
    lam0 = np.zeros(top.n_c) if lam0 is None else np.asarray(lam0, float)
    lam_i = [lam0[r] for r in top.rows]
    inv_mult = [1.0 / top.multiplicity[top.rows[i]] for i in range(top.n_agents)]

    t = [s_hat[i] - S_hat[i] @ lam_i[i] for i in range(top.n_agents)]
    r = _exchange(top, t, log)
    p = [ri.copy() for ri in r]
    eta = _global_sum([ri @ (wi * ri) for ri, wi in zip(r, inv_mult)], log)
    eta0 = eta
    snorm2 = _global_sum(
        [s_hat[i] @ (inv_mult[i] * s_hat[i]) for i in range(top.n_agents)], log
    )
    thresh = max((rtol * rtol) * eta0, 1e-28 * snorm2)
    if eta0 <= thresh:
        lam = _assemble(top, lam_i)
        log.residual = _global_residual(top, S_hat, s_hat, lam)
        _count_edges(top, log)
        return lam, log

    for _ in range(n_iter):
        u = [S_hat[i] @ p[i] for i in range(top.n_agents)]
        w = _exchange(top, u, log)
        sigma = _global_sum([p[i] @ u[i] for i in range(top.n_agents)], log)
        if sigma <= 0.0:
            raise InnerBreakdownError(
                f"conjugate-gradient curvature sigma={sigma:.3e} is not positive"
            )
        alpha = eta / sigma
        lam_i = [lam_i[i] + alpha * p[i] for i in range(top.n_agents)]
        r = [r[i] - alpha * w[i] for i in range(top.n_agents)]
        eta_new = _global_sum(
            [r[i] @ (inv_mult[i] * r[i]) for i in range(top.n_agents)], log
        )
        log.iterations += 1
        if eta_new <= thresh:
            eta = eta_new
            break
        beta = eta_new / eta
        p = [r[i] + beta * p[i] for i in range(top.n_agents)]
        eta = eta_new

    lam = _assemble(top, lam_i)
    log.residual = _global_residual(top, S_hat, s_hat, lam)
    _count_edges(top, log)
    return lam, log


# -- systems -----------------------------------------------------------------

def sensor_problem():
    spec = importlib.util.spec_from_file_location(
        "sensor_net_for_decentral", BENCH / "sensor_net.py"
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolve their module by name
    spec.loader.exec_module(mod)
    return mod.build_problem(mod.sensor_data(11))


def random_rows(rng, n_agents, n_c):
    """Row sets with at least one empty agent and one row of 3+ owners."""
    while True:
        row_sets = [
            rng.choice(n_c, size=int(rng.integers(0, min(n_c, 4) + 1)), replace=False)
            for _ in range(n_agents)
        ]
        counts = np.bincount(np.concatenate(row_sets).astype(int), minlength=n_c)
        if counts.min() > 0 and counts.max() >= 3 and min(map(len, row_sets)) == 0:
            return topology_from_rows(n_c, row_sets)


def blocks(rng, top):
    """Random SPD Schur terms on every agent's rows."""
    S_blocks, s_blocks = [], []
    for r in top.rows:
        M = rng.standard_normal((r.size, r.size))
        S_blocks.append(M @ M.T / max(r.size, 1) + 0.5 * np.eye(r.size))
        s_blocks.append(rng.standard_normal(r.size))
    return S_blocks, s_blocks


TOPOLOGIES = {
    "random-8x6": lambda rng: random_rows(rng, 8, 6),
    "random-20x12": lambda rng: random_rows(rng, 20, 12),
    "coupled-qp": lambda rng: build_topology(coupled_qp()),
    "coupled-qp-12x3": lambda rng: build_topology(coupled_qp(n_blocks=12, block_size=3)),
    "sensor-net": lambda rng: build_topology(sensor_problem()),
}
# (mu, lam_outer and b given?)
FOLDS = {"plain": (None, False), "mu": (25.0, True), "mu-zero-shift": (25.0, False)}


def case(name, seed, fold):
    rng = np.random.default_rng(seed)
    top = TOPOLOGIES[name](rng)
    S_blocks, s_blocks = blocks(rng, top)
    mu, shifted = FOLDS[fold]
    lam_outer = rng.standard_normal(top.n_c) if shifted else None
    b = rng.standard_normal(top.n_c) if shifted else None
    lam0 = rng.standard_normal(top.n_c) if seed % 2 else None
    return top, (S_blocks, s_blocks, mu, lam_outer, b), lam0


def assert_close(lam, ref):
    assert np.abs(lam - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())


def assert_same_log(log, ref):
    assert log.n_agents == ref.n_agents
    assert log.iterations == ref.iterations
    assert log.neighbor_rounds == ref.neighbor_rounds
    assert log.global_sum_rounds == ref.global_sum_rounds
    assert log.edge_floats == ref.edge_floats
    # a converged residual sits at the roundoff floor of the O(1) data,
    # where summation order alone moves it by ~1e-12
    assert log.residual == pytest.approx(ref.residual, rel=1e-6, abs=1e-10)


@pytest.fixture
def exits(monkeypatch):
    """Record the copy vector each solve hands to the final assembly."""
    seen = []
    real = decentral._finish

    def recording(top, S_hat, s_hat, v, log):
        seen.append((top, v.copy()))
        return real(top, S_hat, s_hat, v, log)

    monkeypatch.setattr(decentral, "_finish", recording)
    return seen


def assert_copies_agree(exits, lam):
    top, v = exits[-1]
    assert v.tobytes() == lam[top.copies.cat_rows].tobytes()


# -- tests -------------------------------------------------------------------

@pytest.mark.parametrize("fold", FOLDS)
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", TOPOLOGIES)
def test_dcg_matches_reference(name, seed, fold, exits):
    top, system, lam0 = case(name, seed, fold)
    for n_iter, rtol in ((top.n_c, 1e-8), (5, 0.0)):
        ref, ref_log = ref_dcg(top, *system, lam0=lam0, n_iter=n_iter, rtol=rtol)
        lam, log = run_dcg(top, *system, lam0=lam0, n_iter=n_iter, rtol=rtol)
        assert_close(lam, ref)
        assert_same_log(log, ref_log)
        assert_copies_agree(exits, lam)


@pytest.mark.parametrize("fold", FOLDS)
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", TOPOLOGIES)
def test_dadmm_matches_reference(name, seed, fold, exits):
    top, system, lam0 = case(name, seed, fold)
    ref, ref_log, ref_gap = ref_dadmm(top, *system, lam0=lam0, rho=2.0, n_iter=30)
    lam, log, gap = run_dadmm(top, *system, lam0=lam0, rho=2.0, n_iter=30)
    assert_close(lam, ref)
    assert_same_log(log, ref_log)
    assert gap == pytest.approx(ref_gap, rel=1e-6, abs=1e-12)
    assert_copies_agree(exits, lam)


@pytest.mark.parametrize("name", TOPOLOGIES)
def test_warm_start_at_the_solution_exits_early(name, exits):
    # integer data: s_i = S_i lam* holds exactly, so r0 = 0 on every copy
    rng = np.random.default_rng(7)
    top = TOPOLOGIES[name](rng)
    lam_star = rng.integers(-3, 4, top.n_c).astype(float)
    S_blocks = [np.diag(rng.integers(1, 4, r.size).astype(float)) for r in top.rows]
    s_blocks = [S @ lam_star[r] for S, r in zip(S_blocks, top.rows)]
    system = (S_blocks, s_blocks, None, None, None)
    ref, ref_log = ref_dcg(top, *system, lam0=lam_star)
    lam, log = run_dcg(top, *system, lam0=lam_star)
    assert log.iterations == ref_log.iterations == 0
    assert log.residual == ref_log.residual == 0.0
    assert np.array_equal(lam, ref) and np.array_equal(lam, lam_star)
    assert_same_log(log, ref_log)
    assert_copies_agree(exits, lam)


def test_shape_mismatch_names_the_agent():
    top = topology_from_rows(3, [[0, 1], [1, 2]])
    S = [np.eye(2), np.eye(3)]
    s = [np.ones(2), np.ones(2)]
    for solve in (run_dcg, run_dadmm, ref_dcg):
        with pytest.raises(ValueError, match="agent 1: Schur block shape mismatch"):
            solve(top, S, s, None, None, None)


@pytest.mark.parametrize("inner_alg", ["dcg", "dadmm"])
@pytest.mark.parametrize("make", [coupled_qp, ocp_chain], ids=["coupled-qp", "ocp-chain"])
def test_run_keeps_no_topology_alive(monkeypatch, make, inner_alg):
    # the copy layout lives on the run's Topology, so it must die with it
    refs = []
    real = driver.topology_from_rows

    def tracked(n_c, row_sets):
        top = real(n_c, row_sets)
        refs.append(weakref.ref(top))
        return top

    monkeypatch.setattr(driver, "topology_from_rows", tracked)
    sol = run_aladin(make(), SolverOptions(variant="bilevel", inner_alg=inner_alg, max_iter=5))
    assert sol.log.records[0].comms_floats > 0
    assert len(refs) == 1 and refs[0]() is None
    gc.collect()
    assert refs[0]() is None
