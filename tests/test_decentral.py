"""Topology, D-ADMM, D-CG, warm starts, and message accounting."""

import numpy as np
import pytest

from aladin import expr as ex
from aladin.expr import VectorFunction, var
from aladin.decentral import (
    build_topology,
    run_dadmm,
    run_dcg,
    topology_from_rows,
    warm_start,
)
from aladin.driver import run_aladin
from aladin.errors import InnerBreakdownError
from aladin.problem import SeparableProblem, SolverOptions, Subproblem


def dense_solve(n_c, top, S_blocks, s_blocks):
    """Assembled-system oracle: solve sum S_i lam = sum s_i densely."""
    S = np.zeros((n_c, n_c))
    s = np.zeros(n_c)
    for i in range(top.n_agents):
        rows = top.rows[i]
        S[np.ix_(rows, rows)] += S_blocks[i]
        s[rows] += s_blocks[i]
    return np.linalg.solve(S, s)


def random_system(rng, n_agents=4, n_c=6):
    """Random partitioned SPD system with overlapping row sets."""
    while True:
        row_sets = []
        for _ in range(n_agents):
            k = int(rng.integers(1, n_c + 1))
            row_sets.append(sorted(rng.choice(n_c, size=k, replace=False).tolist()))
        if len(set(c for rs in row_sets for c in rs)) == n_c:
            break
    top = topology_from_rows(n_c, row_sets)
    S_blocks, s_blocks = [], []
    for rs in row_sets:
        k = len(rs)
        M = rng.standard_normal((k, k))
        S_blocks.append(M @ M.T + 0.5 * np.eye(k))
        s_blocks.append(rng.standard_normal(k))
    return top, S_blocks, s_blocks


class TestTopology:
    def test_tutorial(self):
        f1 = VectorFunction([ex.square(var(0) - 1)], 1)
        f2 = VectorFunction([ex.square(var(1) - 2)], 2)
        prob = SeparableProblem(
            [Subproblem(f1, A=[[1.0]]), Subproblem(f2, A=[[-1.0, 0.0]])], b=[0.0]
        )
        top = build_topology(prob)
        np.testing.assert_array_equal(top.rows[0], [0])
        np.testing.assert_array_equal(top.rows[1], [0])
        assert top.neighbors[0] == [1] and top.neighbors[1] == [0]
        assert top.multiplicity[0] == 2

    def test_block_diagonal_no_neighbors(self):
        top = topology_from_rows(4, [[0, 1], [2, 3]])
        assert top.neighbors == [[], []]

    def test_chain(self):
        top = topology_from_rows(2, [[0], [0, 1], [1]])
        assert top.neighbors[1] == [0, 2]
        assert top.neighbors[0] == [1]
        np.testing.assert_array_equal(top.multiplicity, [2, 2])

    def test_uncovered_row_rejected(self):
        with pytest.raises(ValueError, match="covered by no subproblem"):
            topology_from_rows(3, [[0], [1]])


class TestDadmm:
    def test_single_agent_fixed_point(self):
        top = topology_from_rows(2, [[0, 1]])
        S = [np.array([[2.0, 0.3], [0.3, 1.0]])]
        s = [np.array([1.0, -2.0])]
        lam, log, gap = run_dadmm(top, S, s, None, None, None, rho=1.0, n_iter=300)
        np.testing.assert_allclose(lam, np.linalg.solve(S[0], s[0]), atol=1e-8)
        assert log.total_floats() == 0  # no neighbors, nothing sent
        assert gap < 1e-8

    def test_two_identical_scalar_agents(self):
        top = topology_from_rows(1, [[0], [0]])
        S = [np.array([[1.0]]), np.array([[1.0]])]
        s = [np.array([2.0]), np.array([2.0])]
        lam, log, gap = run_dadmm(top, S, s, None, None, None, rho=1.0, n_iter=200)
        assert abs(lam[0] - 2.0) <= 1e-6
        # one float per direction per iteration on the single shared row
        assert log.edge_floats[(0, 1)] == 200
        assert log.edge_floats[(1, 0)] == 200

    def test_random_system_matches_dense(self):
        rng = np.random.default_rng(31)
        top, S_blocks, s_blocks = random_system(rng, n_agents=4, n_c=5)
        ref = dense_solve(5, top, S_blocks, s_blocks)
        lam, log, gap = run_dadmm(
            top, S_blocks, s_blocks, None, None, None, rho=1.0, n_iter=2500
        )
        assert np.abs(lam - ref).max() <= 1e-6
        assert gap <= 1e-6

    def test_mu_fold_matches_regularized_dense(self):
        rng = np.random.default_rng(32)
        n_c = 4
        top, S_blocks, s_blocks = random_system(rng, n_agents=3, n_c=n_c)
        mu = 10.0
        lam_outer = rng.standard_normal(n_c)
        b = rng.standard_normal(n_c)
        S = np.zeros((n_c, n_c))
        s = np.zeros(n_c)
        for i in range(top.n_agents):
            rows = top.rows[i]
            S[np.ix_(rows, rows)] += S_blocks[i]
            s[rows] += s_blocks[i]
        ref = np.linalg.solve(S + np.eye(n_c) / mu, s + lam_outer / mu - b)
        lam, _, _ = run_dadmm(
            top, S_blocks, s_blocks, mu, lam_outer, b, rho=1.0, n_iter=4000
        )
        assert np.abs(lam - ref).max() <= 1e-6


class TestDcg:
    def test_exact_start_terminates_immediately(self):
        top = topology_from_rows(2, [[0, 1]])
        S = [np.array([[2.0, 0.0], [0.0, 3.0]])]
        s = [np.array([2.0, 3.0])]
        lam0 = np.array([1.0, 1.0])
        lam, log = run_dcg(top, S, s, None, None, None, lam0=lam0, n_iter=10)
        np.testing.assert_allclose(lam, lam0)
        assert log.iterations == 0
        assert log.residual == 0.0

    def test_scalar_system_one_iteration(self):
        top = topology_from_rows(1, [[0]])
        lam, log = run_dcg(
            top, [np.array([[2.0]])], [np.array([6.0])], None, None, None, n_iter=5
        )
        assert abs(lam[0] - 3.0) < 1e-12
        assert log.iterations == 1

    def test_finite_termination_random(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            n_c = 8
            top, S_blocks, s_blocks = random_system(rng, n_agents=5, n_c=n_c)
            ref = dense_solve(n_c, top, S_blocks, s_blocks)
            lam, log = run_dcg(
                top, S_blocks, s_blocks, None, None, None, n_iter=n_c
            )
            assert log.iterations <= n_c
            assert np.abs(lam - ref).max() <= 1e-6

    def test_message_accounting(self):
        rng = np.random.default_rng(34)
        n_c = 6
        top, S_blocks, s_blocks = random_system(rng, n_agents=4, n_c=n_c)
        lam, log = run_dcg(top, S_blocks, s_blocks, None, None, None, n_iter=n_c,
                           rtol=0.0)
        rounds = log.iterations + 1  # one extra round assembles r0
        assert log.neighbor_rounds == rounds
        for (i, j), n in log.edge_floats.items():
            assert n == rounds * top.overlap[(i, j)].size
        # two scalar sums per iteration plus the two init reductions
        assert log.global_sum_rounds == 2 * log.iterations + 2

    def test_locality_zero_floats_for_non_neighbors(self):
        top = topology_from_rows(4, [[0, 1], [1, 2], [3], [2, 3]])
        S = [np.eye(2), np.eye(2), np.eye(1) * 2, np.eye(2)]
        s = [np.ones(2), np.ones(2), np.ones(1), np.ones(2)]
        lam, log = run_dcg(top, S, s, None, None, None, n_iter=4)
        assert (0, 2) not in log.edge_floats and (2, 0) not in log.edge_floats
        assert (0, 3) not in log.edge_floats and (3, 0) not in log.edge_floats
        lam2, log2, _ = run_dadmm(top, S, s, None, None, None, n_iter=4)
        assert (0, 2) not in log2.edge_floats and (2, 0) not in log2.edge_floats

    def test_deterministic(self):
        rng = np.random.default_rng(35)
        top, S_blocks, s_blocks = random_system(rng)
        lam1, _ = run_dcg(top, S_blocks, s_blocks, None, None, None, n_iter=6)
        lam2, _ = run_dcg(top, S_blocks, s_blocks, None, None, None, n_iter=6)
        assert np.array_equal(lam1, lam2)

    def test_matches_full_dual_system_with_mu(self):
        rng = np.random.default_rng(36)
        n_c = 5
        top, S_blocks, s_blocks = random_system(rng, n_agents=3, n_c=n_c)
        mu = 25.0
        lam_outer = rng.standard_normal(n_c)
        b = rng.standard_normal(n_c)
        S = np.zeros((n_c, n_c))
        s = np.zeros(n_c)
        for i in range(top.n_agents):
            rows = top.rows[i]
            S[np.ix_(rows, rows)] += S_blocks[i]
            s[rows] += s_blocks[i]
        ref = np.linalg.solve(S + np.eye(n_c) / mu, s + lam_outer / mu - b)
        lam, log = run_dcg(top, S_blocks, s_blocks, mu, lam_outer, b, n_iter=n_c)
        assert np.abs(lam - ref).max() <= 1e-6


class TestBreakdown:
    """Indefinite Schur blocks: D-CG stops with the inner iteration named."""

    def test_run_dcg_names_the_inner_iteration(self):
        # two positive-curvature steps, then p'S~p < 0 on the third
        top = topology_from_rows(3, [[0, 1], [1, 2]])
        S = [np.diag([1.0, 0.25]), np.diag([0.25, -0.1])]
        s = [np.array([1.0, 0.5]), np.array([0.5, 0.1])]
        with pytest.raises(
            InnerBreakdownError,
            match=r"^inner iteration 3: conjugate-gradient curvature sigma=-",
        ):
            run_dcg(top, S, s, None, None, None, n_iter=10)

    def test_nan_curvature_is_no_curvature(self):
        # a NaN entry in one agent's block makes p'S~p NaN, which is not
        # positive either
        top = topology_from_rows(3, [[0, 1], [1, 2]])
        S = [np.diag([1.0, np.nan]), np.diag([0.25, 2.0])]
        s = [np.array([1.0, 0.5]), np.array([0.5, 0.1])]
        with pytest.raises(
            InnerBreakdownError,
            match=r"^inner iteration 1: conjugate-gradient curvature sigma=nan ",
        ):
            run_dcg(top, S, s, None, None, None, n_iter=10)

    def test_run_aladin_names_outer_and_inner_iteration(self):
        # unregularized exact Hessians -2 and 4 give Schur terms -1/2 and 1/4
        f1 = VectorFunction([-ex.square(var(0))], 1)
        f2 = VectorFunction([2.0 * ex.square(var(0))], 1)
        prob = SeparableProblem(
            [Subproblem(f1, A=[[1.0]]), Subproblem(f2, A=[[1.0]])], b=[1.0]
        )
        opts = SolverOptions(variant="bilevel", reg=False, sigma_init=10.0)
        with pytest.raises(
            InnerBreakdownError,
            match=r"^outer iteration 1: inner iteration 1: conjugate-gradient curvature",
        ):
            run_aladin(prob, opts)


class TestWarmStart:
    def test_first_iteration_zero(self):
        np.testing.assert_allclose(warm_start(None, 3), np.zeros(3))

    def test_pass_through(self):
        lam = np.array([1.0, -2.0])
        out = warm_start(lam, 2)
        np.testing.assert_allclose(out, lam)
        assert out is not lam

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            warm_start(np.ones(2), 3)

    def test_warm_start_converges_fast(self):
        rng = np.random.default_rng(37)
        n_c = 6
        top, S_blocks, s_blocks = random_system(rng, n_agents=4, n_c=n_c)
        ref = dense_solve(n_c, top, S_blocks, s_blocks)
        lam, log = run_dcg(
            top, S_blocks, s_blocks, None, None, None,
            lam0=warm_start(ref, n_c), n_iter=n_c,
        )
        assert log.iterations <= 2
