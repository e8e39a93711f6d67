"""Coordination QP (full-space and nullspace reductions) and scaling heuristics."""

import numpy as np
import pytest

from aladin.coordination import (
    ScalingState,
    solve_coordination_reduced,
    update_delta_by_violation,
    update_sigma,
)
from aladin.errors import SingularKktError
from aladin.problem import SolverOptions, coupling_rows
from aladin.sensitivity import SensitivityPack, nullspace_basis, reduce_block


def make_pack(B, g, C):
    B = np.asarray(B, dtype=float)
    g = np.asarray(g, dtype=float)
    C = np.asarray(C, dtype=float)
    return SensitivityPack(
        grad=g, hess=B, jac_active=C,
    )


def random_instance(rng, n_s=2, n_c=3):
    """Random SPD blocks with full-row-rank active constraints and coupling."""
    packs, A_list, xs = [], [], []
    for _ in range(n_s):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(0, max(1, n - 1)))
        M = rng.standard_normal((n, n))
        B = M @ M.T + n * np.eye(n)
        C = rng.standard_normal((m, n))
        packs.append(make_pack(B, rng.standard_normal(n), C))
        A_list.append(rng.standard_normal((n_c, n)))
        xs.append(rng.standard_normal(n))
    lam = rng.standard_normal(n_c)
    b = rng.standard_normal(n_c)
    return packs, A_list, xs, lam, b


def monolithic_oracle(packs, A_list, xs, lam, delta, b):
    """Direct KKT assembly without slack elimination (explicit s block)."""
    n_c = b.size
    sizes = [p.grad.size for p in packs]
    c_rows = [p.jac_active.shape[0] for p in packs]
    N = sum(sizes)
    M = sum(c_rows)
    # unknowns: dx (N), s (n_c), nu (M), lamQP (n_c)
    dim = N + n_c + M + n_c
    K = np.zeros((dim, dim))
    rhs = np.zeros(dim)
    off = 0
    offs = []
    for sz in sizes:
        offs.append(off)
        off += sz
    s_off = N
    nu_off = N + n_c
    lam_off = N + n_c + M
    coff = 0
    for i, p in enumerate(packs):
        a = offs[i]
        n = sizes[i]
        K[a:a + n, a:a + n] = p.hess
        rhs[a:a + n] = -p.grad
        if c_rows[i]:
            K[a:a + n, nu_off + coff: nu_off + coff + c_rows[i]] = p.jac_active.T
            K[nu_off + coff: nu_off + coff + c_rows[i], a:a + n] = p.jac_active
            coff += c_rows[i]
        K[a:a + n, lam_off:] = A_list[i].T
        K[lam_off:, a:a + n] = A_list[i]
    K[s_off:s_off + n_c, s_off:s_off + n_c] = 2.0 * np.diag(delta)
    K[s_off:s_off + n_c, lam_off:] = -np.eye(n_c)
    K[lam_off:, s_off:s_off + n_c] = -np.eye(n_c)
    rhs[s_off:s_off + n_c] = -lam
    rhs[lam_off:] = b - sum(A_list[i] @ xs[i] for i in range(len(packs)))
    sol = np.linalg.solve(K, rhs)
    dx = [sol[offs[i]: offs[i] + sizes[i]] for i in range(len(packs))]
    return dx, sol[s_off:s_off + n_c], sol[lam_off:]


def fullspace_step(packs, xs, lam, delta, A_list, b):
    """The full-space variant's coordination: Z'HZ of the processed H, unregularized."""
    Zs = [nullspace_basis(p.jac_active) for p in packs]
    rows = coupling_rows(A_list)
    reduced = [
        reduce_block(p.hess, p.grad, A_list[i][rows[i]], Zs[i], 1e-4, rows[i], reg=False)
        for i, p in enumerate(packs)
    ]
    couplings = [A_list[i][r.rows] @ xs[i] for i, r in enumerate(reduced)]
    return solve_coordination_reduced(reduced, couplings, lam, delta, b, Zs=Zs)


class TestFullSpace:
    def test_unconstrained_newton_step(self):
        packs = [make_pack(2 * np.eye(2), [-2.0, 0.0], np.zeros((0, 2)))]
        out = fullspace_step(
            packs, [np.zeros(2)], np.zeros(0), np.zeros(0),
            [np.zeros((0, 2))], np.zeros(0),
        )
        np.testing.assert_allclose(out.dx[0], [1.0, 0.0], atol=1e-12)
        assert out.lam_qp.size == 0 and out.s.size == 0

    def test_full_rank_active_rows_pin_step(self):
        packs = [make_pack(np.eye(2), [0.3, -0.7], np.eye(2))]
        A = [np.array([[1.0, 0.0]])]
        out = fullspace_step(
            packs, [np.ones(2)], np.zeros(1), np.array([5.0]), A, np.zeros(1)
        )
        np.testing.assert_allclose(out.dx[0], np.zeros(2), atol=1e-12)

    def test_matches_monolithic_oracle(self):
        # a random non-uniform Delta, as the rowwise update leaves it
        rng = np.random.default_rng(21)
        for _ in range(5):
            packs, A_list, xs, lam, b = random_instance(rng)
            delta = rng.uniform(0.5, 3.0, b.size)
            got = fullspace_step(packs, xs, lam, delta, A_list, b)
            dx, s, lam_qp = monolithic_oracle(packs, A_list, xs, lam, delta, b)
            for d1, d2 in zip(got.dx, dx):
                np.testing.assert_allclose(d1, d2, atol=1e-8)
            np.testing.assert_allclose(got.s, s, atol=1e-8)
            np.testing.assert_allclose(got.lam_qp, lam_qp, atol=1e-8)

    def test_slack_stationarity(self):
        rng = np.random.default_rng(22)
        packs, A_list, xs, lam, b = random_instance(rng)
        delta = np.full(b.size, 2.0)
        out = fullspace_step(packs, xs, lam, delta, A_list, b)
        np.testing.assert_allclose(out.s, (out.lam_qp - lam) / (2 * delta), atol=1e-12)
        # the slack equals the post-step consensus violation
        viol = sum(A_list[i] @ (xs[i] + out.dx[i]) for i in range(len(xs))) - b
        np.testing.assert_allclose(viol, out.s, atol=1e-8)

    def test_singular_kkt_raises(self):
        # no curvature along x_1 and nothing active: Z'HZ = H is singular
        packs = [make_pack(np.diag([1.0, 0.0]), [1.0, 1.0], np.zeros((0, 2)))]
        A = [np.array([[1.0, 0.0]])]
        with pytest.raises(SingularKktError, match="reduced Hessian"):
            fullspace_step(packs, [np.zeros(2)], np.zeros(1), np.ones(1), A,
                           np.zeros(1))


class TestReduced:
    def test_decoupled_closed_form(self):
        rng = np.random.default_rng(23)
        mu = 7.0
        n_c = 2
        reduced, couplings = [], []
        for _ in range(3):
            n = 3
            M = rng.standard_normal((n, n))
            A = np.zeros((n_c, n))
            (rows,) = coupling_rows([A])
            red = reduce_block(M @ M.T + n * np.eye(n), rng.standard_normal(n),
                               A[rows], np.eye(n), 1e-4, rows)
            reduced.append(red)
            couplings.append(np.zeros(red.rows.size))
        lam = rng.standard_normal(n_c)
        b = rng.standard_normal(n_c)
        out = solve_coordination_reduced(
            reduced, couplings, lam, np.full(n_c, mu / 2.0), b
        )
        np.testing.assert_allclose(out.lam_qp, lam - mu * b, atol=1e-10)
        for red, dv in zip(reduced, out.dv):
            np.testing.assert_allclose(dv, -np.linalg.solve(red.B, red.g), atol=1e-10)

    def test_large_mu_approaches_hard_constraint(self):
        rng = np.random.default_rng(24)
        n = 4
        n_c = 2
        M = rng.standard_normal((n, n))
        B = M @ M.T + n * np.eye(n)
        g = rng.standard_normal(n)
        A = rng.standard_normal((n_c, n))
        x = rng.standard_normal(n)
        b = rng.standard_normal(n_c)
        (rows,) = coupling_rows([A])
        red = reduce_block(B, g, A[rows], np.eye(n), 1e-6, rows)
        out = solve_coordination_reduced([red], [A[red.rows] @ x], np.zeros(n_c),
                                         np.full(n_c, 5e7), b)
        # oracle: equality-constrained QP  A(x + dx) = b
        K = np.zeros((n + n_c, n + n_c))
        K[:n, :n] = red.B
        K[:n, n:] = A.T
        K[n:, :n] = A
        rhs = np.concatenate([-red.g, b - A @ x])
        sol = np.linalg.solve(K, rhs)
        np.testing.assert_allclose(out.lam_qp, sol[n:], atol=1e-4)
        np.testing.assert_allclose(out.dv[0], sol[:n], atol=1e-4)

    def test_matches_full_space_with_matched_delta(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            packs, A_list, xs, lam, b = random_instance(rng)
            mu = float(rng.uniform(1.0, 100.0))
            delta = np.full(b.size, mu / 2.0)
            dx, _, lam_qp = monolithic_oracle(packs, A_list, xs, lam, delta, b)
            Zs = [nullspace_basis(p.jac_active) for p in packs]
            rows = coupling_rows(A_list)
            reduced = [
                reduce_block(p.hess, p.grad, A_list[i][rows[i]], Zs[i], 1e-8, rows[i])
                for i, p in enumerate(packs)
            ]
            couplings = [A_list[i][r.rows] @ xs[i] for i, r in enumerate(reduced)]
            red = solve_coordination_reduced(reduced, couplings, lam, delta, b, Zs=Zs)
            np.testing.assert_allclose(red.lam_qp, lam_qp, atol=1e-8)
            for d1, d2 in zip(red.dx, dx):
                np.testing.assert_allclose(d1, d2, atol=1e-8)


    def test_coupled_variable_fixed_by_active_row(self):
        # block 0's variable 1 is coupled on row 2 and fixed by its active
        # constraint: row 2 of A_0 Z_0 vanishes, its coupling value does not
        rng = np.random.default_rng(26)
        n_c = 4
        A0 = np.zeros((n_c, 3))
        A0[0] = [1.0, 0.0, 0.5]
        A0[2] = [0.0, -2.0, 0.0]
        A1 = np.zeros((n_c, 2))
        A1[[0, 1, 2, 3]] = rng.standard_normal((4, 2))
        C0 = np.array([[0.0, 1.0, 0.0]])
        packs = [
            make_pack(np.diag([2.0, 3.0, 4.0]), rng.standard_normal(3), C0),
            make_pack(np.eye(2) * 5.0, rng.standard_normal(2), np.zeros((0, 2))),
        ]
        A_list = [A0, A1]
        xs = [np.array([0.3, 1.7, -0.2]), rng.standard_normal(2)]
        lam = rng.standard_normal(n_c)
        b = rng.standard_normal(n_c)
        delta = np.full(n_c, 10.0)
        dx, _, lam_qp = monolithic_oracle(packs, A_list, xs, lam, delta, b)
        Zs = [nullspace_basis(p.jac_active) for p in packs]
        rows = coupling_rows(A_list)
        reduced = [
            reduce_block(p.hess, p.grad, A_list[i][rows[i]], Zs[i], 1e-8, rows[i])
            for i, p in enumerate(packs)
        ]
        np.testing.assert_array_equal(reduced[0].rows, [0, 2])
        assert np.all(reduced[0].A[1] == 0.0)
        couplings = [A_list[i][r.rows] @ xs[i] for i, r in enumerate(reduced)]
        red = solve_coordination_reduced(reduced, couplings, lam, delta, b, Zs=Zs)
        np.testing.assert_allclose(red.lam_qp, lam_qp, atol=1e-10)
        for d1, d2 in zip(red.dx, dx):
            np.testing.assert_allclose(d1, d2, atol=1e-10)


def options(**kw):
    return SolverOptions(**kw).check()


class TestScalingUpdates:
    def test_sigma_doubles(self):
        opts = options(r_sigma=2.0, sigma_max=1e4)
        st = ScalingState(sigmas=[np.eye(2)], delta=np.array([1.0]))
        out = update_sigma(st, opts)
        np.testing.assert_allclose(out.sigmas[0], 2 * np.eye(2))

    def test_cap_freezes(self):
        opts = options(sigma_max=1e4, delta_max=1e4)
        st = ScalingState(sigmas=[1e4 * np.eye(2)], delta=np.array([1e4]))
        out = update_sigma(st, opts)
        np.testing.assert_allclose(out.sigmas[0], 1e4 * np.eye(2))
        np.testing.assert_allclose(out.delta, [1e4])

    def test_growth_sequence_overshoots_then_freezes(self):
        # pre-update norm gates the growth: from I with cap 100 the last
        # applied update happens at norm 64, landing at 128 and freezing
        opts = options(r_sigma=2.0, sigma_max=100.0)
        st = ScalingState(sigmas=[np.eye(3)], delta=np.array([1.0]))
        for _ in range(10):
            st = update_sigma(st, opts)
        np.testing.assert_allclose(st.sigmas[0], 128 * np.eye(3))

    def test_stack_grows_lane_by_lane(self):
        # a lockstep group's Sigma stack: each lane is gated by its own norm,
        # bit for bit as alone, and a stack that does not grow is not copied
        opts = options(r_sigma=3.0, sigma_max=50.0)
        rng = np.random.default_rng(0)
        S = rng.uniform(-1.0, 1.0, (4, 3, 3))
        S[2] *= 40.0
        out = update_sigma(ScalingState(sigmas=[S], delta=np.array([1.0])), opts)
        for j in range(4):
            alone = ScalingState(sigmas=[S[j]], delta=np.array([1.0]))
            alone = update_sigma(alone, opts)
            assert out.sigmas[0][j].tobytes() == alone.sigmas[0].tobytes()
        assert np.array_equal(out.sigmas[0][2], S[2])
        capped = ScalingState(sigmas=[100.0 * S], delta=np.array([1e9]))
        assert update_sigma(capped, opts).sigmas[0] is capped.sigmas[0]

    def test_delta_grows_by_r_delta(self):
        opts = options(r_delta=3.0)
        st = ScalingState(sigmas=[np.eye(1)], delta=np.array([2.0, 2.0]))
        out = update_sigma(st, opts)
        np.testing.assert_allclose(out.delta, [6.0, 6.0])


class TestDeltaByViolation:
    def test_stagnant_row_scaled(self):
        opts = options(del_up=True, beta=10.0, gamma=0.25)
        st = ScalingState(sigmas=[], delta=np.array([1.0, 1.0]))
        out = update_delta_by_violation(st, [0.5, 0.01], [0.5, 0.5], opts)
        np.testing.assert_allclose(out.delta, [10.0, 1.0])

    def test_zero_over_zero_unchanged(self):
        opts = options(del_up=True)
        st = ScalingState(sigmas=[], delta=np.array([3.0]))
        out = update_delta_by_violation(st, [0.0], [0.0], opts)
        np.testing.assert_allclose(out.delta, [3.0])

    def test_capped(self):
        opts = options(del_up=True, beta=10.0, delta_max=5.0)
        st = ScalingState(sigmas=[], delta=np.array([1.0]))
        out = update_delta_by_violation(st, [1.0], [1.0], opts)
        np.testing.assert_allclose(out.delta, [5.0])

    def test_dimension_check(self):
        opts = options(del_up=True)
        st = ScalingState(sigmas=[], delta=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            update_delta_by_violation(st, [1.0], [1.0, 2.0], opts)
