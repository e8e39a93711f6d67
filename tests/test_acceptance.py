"""Acceptance suite: one test per criterion, one PASS line each (run -s).

Every tolerance is pinned here; expected values come from the independent
oracles in oracles.py, never from the code paths under test.
"""

import time

import numpy as np
import pytest

from aladin import expr as ex
from aladin.expr import VectorFunction, var
from aladin.decentral import run_dadmm, run_dcg, topology_from_rows
from aladin.driver import run_admm, run_aladin
from aladin.examples_lib import coupled_qp, tutorial
from aladin.problem import SolverOptions
from aladin.sensitivity import bfgs_update, nullspace_basis, reduce_block, regularize
from aladin.coordination import solve_coordination_reduced

import oracles
from test_coordination import fullspace_step, monolithic_oracle, random_instance
from test_expr import random_smooth_graph


def _ok(n, text):
    print(f"PASS criterion {n}: {text}")


class TestAcceptance:
    def test_criterion_01_tutorial_end_to_end(self):
        t0 = time.perf_counter()
        sol = run_aladin(tutorial(), SolverOptions(term_eps=1e-11))
        elapsed = time.perf_counter() - t0
        xy, lam_star, _ = oracles.tutorial_solution()
        assert sol.termination == "tolerance-met"
        assert sol.consensus_violation <= 1e-10
        assert np.abs(sol.xs[0] - xy[:1]).max() <= 1e-6
        assert np.abs(sol.xs[1] - xy).max() <= 1e-6
        assert abs(sol.xs[1][0] * sol.xs[1][1] - 1.5) <= 1e-6  # branch active
        assert elapsed < 5.0
        _ok(1, f"tutorial violation {sol.consensus_violation:.1e}, "
               f"oracle match, {elapsed:.2f}s")

    def test_criterion_02_derivative_correctness(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(20240)
        checked = 0
        while checked < 100:
            n_x = int(rng.integers(1, 4))
            f = VectorFunction(
                [random_smooth_graph(rng, n_x, int(rng.integers(1, 7)))], n_x
            )
            x = rng.standard_normal(n_x)
            try:
                v = float(ex.evaluate(f, x)[0])
                g = ex.gradient(f, x)
            except ex.DomainEvalError:
                continue
            if not np.isfinite(v) or abs(v) > 1e6 or np.abs(g).max() > 1e6:
                continue
            g_fd = oracles.fd_gradient(lambda y: ex.evaluate(f, y)[0], x)
            assert oracles.rel_err(g, g_fd) <= 1e-6
            J = ex.jacobian(f, x)
            J_fd = oracles.fd_jacobian(lambda y: ex.evaluate(f, y), x, 1)
            assert oracles.rel_err(J, J_fd) <= 1e-6
            empty = VectorFunction([], n_x)
            H = ex.lagrangian_hessian(f, empty, empty, x, None, [], [])
            if np.abs(H).max() > 1e6:
                continue
            H_fd = oracles.fd_jacobian(lambda y: ex.gradient(f, y), x, n_x)
            assert oracles.rel_err(H, 0.5 * (H_fd + H_fd.T)) <= 1e-6
            checked += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        _ok(2, f"100 random graphs, grad/jac/hess vs central FD, {elapsed:.2f}s")

    def test_criterion_03_regularization_suite(self):
        rng = np.random.default_rng(3)
        delta = 1e-4
        for _ in range(200):
            n = int(rng.integers(1, 8))
            M = rng.standard_normal((n, n)) * 10.0 ** float(rng.integers(-2, 3))
            H = 0.5 * (M + M.T)
            out = regularize(H, delta)
            w_in = np.linalg.eigvalsh(H)
            w_out = np.linalg.eigvalsh(out)
            assert w_out.min() >= delta - 1e-10
            expect = np.where(
                w_in < -delta, np.abs(w_in),
                np.where(np.abs(w_in) < delta, delta, w_in),
            )
            assert np.abs(np.sort(w_out) - np.sort(expect)).max() <= 1e-10 * max(
                1.0, np.abs(w_in).max()
            )
            again = regularize(out, delta)
            assert np.abs(again - out).max() <= 1e-12 * max(1.0, np.abs(out).max())
        _ok(3, "200 random symmetric matrices follow the eigenvalue rule")

    def test_criterion_04_nullspace_fullspace_equivalence(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            packs, A_list, xs, lam, b = random_instance(
                rng, n_s=int(rng.integers(2, 4)), n_c=int(rng.integers(1, 4))
            )
            mu = float(rng.uniform(0.5, 50.0))
            delta = np.full(b.size, mu / 2.0)
            dx, s, lam_qp = monolithic_oracle(packs, A_list, xs, lam, delta, b)
            full = fullspace_step(packs, xs, lam, delta, A_list, b)
            Zs = [nullspace_basis(p.jac_active) for p in packs]
            reduced = [
                reduce_block(p.hess_raw, p.grad, A_list[i], Zs[i], 1e-10)
                for i, p in enumerate(packs)
            ]
            couplings = [A_list[i][r.rows] @ xs[i] for i, r in enumerate(reduced)]
            red = solve_coordination_reduced(
                reduced, couplings, lam, delta, b, Zs=Zs
            )
            for out in (full, red):
                assert np.abs(out.lam_qp - lam_qp).max() <= 1e-8
                assert np.abs(out.s - s).max() <= 1e-8
                for d1, d2 in zip(out.dx, dx):
                    assert np.abs(d1 - d2).max() <= 1e-8
        _ok(4, "50 seeded instances: full-space and nullspace steps equal "
               "the monolithic KKT's")

    @staticmethod
    def _schur_system(seed):
        rng = np.random.default_rng(seed)
        n_c = int(rng.integers(3, 13))
        n_agents = int(rng.integers(2, 6))
        while True:
            row_sets = []
            for _ in range(n_agents):
                k = int(rng.integers(1, n_c + 1))
                row_sets.append(
                    sorted(rng.choice(n_c, size=k, replace=False).tolist())
                )
            if len(set(c for rs in row_sets for c in rs)) == n_c:
                break
        top = topology_from_rows(n_c, row_sets)
        S_blocks, s_blocks = [], []
        for rs in row_sets:
            k = len(rs)
            M = rng.standard_normal((k, k))
            S_blocks.append(M @ M.T + np.eye(k))
            s_blocks.append(rng.standard_normal(k))
        return n_c, top, S_blocks, s_blocks

    @staticmethod
    def _dense_ref(n_c, top, S_blocks, s_blocks):
        S = np.zeros((n_c, n_c))
        s = np.zeros(n_c)
        for i in range(top.n_agents):
            r = top.rows[i]
            S[np.ix_(r, r)] += S_blocks[i]
            s[r] += s_blocks[i]
        return np.linalg.solve(S, s), float(np.abs(s).max())

    def test_criterion_05_dcg_finite_termination(self):
        for seed in range(50):
            n_c, top, S_blocks, s_blocks = self._schur_system(seed)
            ref, r0 = self._dense_ref(n_c, top, S_blocks, s_blocks)
            lam, log = run_dcg(
                top, S_blocks, s_blocks, None, None, None, n_iter=n_c, rtol=0.0
            )
            assert log.iterations <= n_c
            assert log.residual <= 1e-8 * r0
            assert np.abs(lam - ref).max() <= 1e-6
            # exact message accounting: one neighbor round per iteration plus
            # the initialization round; overlap floats per directed edge;
            # two scalar sums per agent per iteration plus the two at init
            rounds = log.iterations + 1
            assert log.neighbor_rounds == rounds
            for (i, j), n in log.edge_floats.items():
                assert n == rounds * top.overlap[(i, j)].size
            for i in range(top.n_agents):
                for j in top.neighbors[i]:
                    assert (j, i) in log.edge_floats
            assert log.global_sum_rounds == 2 * log.iterations + 2
        _ok(5, "50 Schur systems: D-CG exact in n_c iterations, counts exact")

    def test_criterion_06_dadmm_consistency(self):
        for seed in range(50):
            n_c, top, S_blocks, s_blocks = self._schur_system(seed)
            ref, _ = self._dense_ref(n_c, top, S_blocks, s_blocks)
            lam, log, gap = run_dadmm(
                top, S_blocks, s_blocks, None, None, None, rho=1.0, n_iter=500
            )
            assert log.residual <= 1e-6
            assert gap <= 1e-6
        _ok(6, "50 Schur systems: D-ADMM residual and overlap gap below 1e-6")

    def test_criterion_07_bilevel_equals_standard(self):
        # tutorial runs with quasi-Newton blocks: the damped update keeps the
        # Hessian data identical across variants, isolating the inner solver
        def trajectories(problem_fn, hessian, n_iter):
            out = []
            for variant in ("fullspace", "bilevel"):
                prob = problem_fn()
                opts = SolverOptions(
                    term_eps=0, max_iter=n_iter, variant=variant,
                    hessian=hessian, inner_iter=prob.n_c, inner_alg="dcg",
                )
                sol = run_aladin(prob, opts)
                out.append(sol.log.records)
            return out

        recs_full, recs_bil = trajectories(tutorial, "dbfgs", 10)
        for ra, rb in zip(recs_full, recs_bil):
            for za, zb in zip(ra.z, rb.z):
                assert np.abs(za - zb).max() <= 1e-6
            assert np.abs(ra.lam - rb.lam).max() <= 1e-6
        for seed in range(10):
            recs_full, recs_bil = trajectories(
                lambda s=seed: coupled_qp(seed=s, n_blocks=3, block_size=2),
                "exact", 10,
            )
            for ra, rb in zip(recs_full, recs_bil):
                for za, zb in zip(ra.z, rb.z):
                    assert np.abs(za - zb).max() <= 1e-6
                assert np.abs(ra.lam - rb.lam).max() <= 1e-6
        _ok(7, "bilevel with exact D-CG matches fullspace for 10 iterations")

    def test_criterion_08_superlinear_contraction(self):
        xy, lam_star, _ = oracles.tutorial_solution()
        wstar = np.array([xy[0], xy[0], xy[1], lam_star])
        rng = np.random.default_rng(0)
        pert = 1e-2 * rng.standard_normal(4)
        sol = run_aladin(
            tutorial(),
            SolverOptions(
                term_eps=0, max_iter=14, variant="nullspace",
                act_margin=1e-10, local_tol_floor=1e-13,
            ),
            z0=[wstar[:1] + pert[:1], wstar[1:3] + pert[1:3]],
            lam0=wstar[3:] + pert[3:],
        )
        errs = [float(np.abs(pert).max())]
        for r in sol.log.records:
            w = np.concatenate([np.concatenate(r.z), r.lam])
            errs.append(float(np.abs(w - wstar).max()))
        m = next(i for i, e in enumerate(errs) if e <= 1e-11)
        assert m >= 4, "need three recorded contractions before the floor"
        ratios = [errs[i + 1] / errs[i] for i in range(len(errs) - 1)]
        window = ratios[m - 4: m - 1]  # the final 3 before reaching 1e-11
        assert window[0] > window[1] > window[2]
        _ok(8, f"error ratios {window[0]:.2e} > {window[1]:.2e} > "
               f"{window[2]:.2e} before reaching 1e-11")

    def test_criterion_09_aladin_beats_admm(self):
        opts = SolverOptions(term_eps=0, max_iter=400)
        sol_al = run_aladin(tutorial(), opts)
        it_al = next(
            r.iter for r in sol_al.log.records if r.consensus_viol <= 1e-8
        )
        sol_ad = run_admm(tutorial(), opts)
        it_ad = next(
            r.iter for r in sol_ad.log.records if r.consensus_viol <= 1e-4
        )
        assert it_al < it_ad
        _ok(9, f"iterations to tolerance: {it_al} (1e-8) vs admm {it_ad} (1e-4)")

    def test_criterion_11_bfgs_suite(self):
        sol = run_aladin(
            tutorial(), SolverOptions(term_eps=1e-10, hessian="dbfgs")
        )
        assert sol.termination == "tolerance-met"
        eigs = [e for r in sol.log.records if r.bfgs_min_eig for e in r.bfgs_min_eig]
        assert eigs and min(eigs) > 0.0
        # plain updates with exact curvature along conjugate directions
        rng = np.random.default_rng(11)
        n = 6
        M = rng.standard_normal((n, n))
        Q = M @ M.T + n * np.eye(n)
        dirs = []
        for v in rng.standard_normal((n, n)):
            for d in dirs:
                v = v - (d @ Q @ v) / (d @ Q @ d) * d
            dirs.append(v)
        B = np.eye(n)
        for s in dirs:
            B = bfgs_update(B, s, Q @ s)
        assert np.abs(B - Q).max() <= 1e-8
        _ok(11, f"damped blocks stay SPD (min eig {min(eigs):.2e}); "
                "plain updates recover the quadratic Hessian")
