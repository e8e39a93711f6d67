"""Active sets, regularization, BFGS, nullspace bases, Schur contributions."""

import numpy as np
import pytest

from aladin import expr as ex
from aladin.expr import VectorFunction, var
from aladin.errors import LicqError
from aladin.problem import Subproblem, coupling_rows, stack_chunks
from aladin.sensitivity import (
    ReducedBlock,
    bfgs_update,
    nullspace_basis,
    reduce_block,
    regularize,
    schur_contribution,
)

from oracles import ActiveSet, active_jacobian, detect_active

TAU = 1e-6


def tutorial_sub2():
    f2 = VectorFunction([ex.square(var(1) - 2)], 2)
    h2 = VectorFunction([-1 - var(0) * var(1), -1.5 + var(0) * var(1)], 2)
    return Subproblem(f2, h=h2, A=[[-1.0, 0.0]])


class TestDetectActive:
    def test_margin_inside(self):
        # value -0.5 tau counts as active, -2 tau does not
        f = VectorFunction([ex.const(0.0)], 1)
        h = VectorFunction([var(0)], 1)
        sub = Subproblem(f, h=h, A=np.zeros((0, 1)))
        assert detect_active(sub, np.array([-0.5 * TAU]), None, TAU).indices == (0,)
        assert detect_active(sub, np.array([-2.0 * TAU]), None, TAU).indices == ()

    def test_box_rows_and_layout(self):
        f = VectorFunction([ex.const(0.0)], 2)
        sub = Subproblem(f, A=np.zeros((0, 2)), lb=[0.0, -1.0], ub=[np.inf, 1.0])
        # x sits on its lower bound in coordinate 0 and upper bound in 1
        act = detect_active(sub, np.array([0.0, 1.0]), None, TAU)
        # h~ layout: (h, lb - x, x - ub) -> indices 0..1 lower, 2..3 upper
        assert act.indices == (0, 3)

    def test_tutorial_optimizer(self):
        sub = tutorial_sub2()
        # grid-refined local solution of the prox problem has y1*y2 = 1.5
        x = np.array([0.9663288360169789, 1.5522666240435405])
        act = detect_active(sub, x, None, TAU)
        assert 1 in act.indices and 0 not in act.indices
        assert act.nonbox == (1,)

    def test_requires_positive_margin(self):
        sub = tutorial_sub2()
        with pytest.raises(ValueError):
            detect_active(sub, np.zeros(2), None, 0.0)

    def test_nothing_to_detect_skips_evaluation(self, monkeypatch):
        # no h and no finite bound: the empty set, without evaluating
        f = VectorFunction([ex.square(var(0))], 2)
        free = Subproblem(f, A=[[1.0, 0.0]])
        boxed = Subproblem(f, A=[[1.0, 0.0]], ub=[np.inf, 5.0])

        def no_evaluation(*args):
            raise AssertionError("h evaluated")

        monkeypatch.setattr(ex, "evaluate", no_evaluation)
        assert detect_active(free, np.array([1e300, -np.inf]), None, TAU) == ActiveSet(
            (), 0, 2
        )
        with pytest.raises(AssertionError, match="h evaluated"):
            detect_active(boxed, np.zeros(2), None, TAU)


class TestActiveJacobian:
    def test_lower_bound_unit_row(self):
        f = VectorFunction([ex.const(0.0)], 3)
        sub = Subproblem(f, A=np.zeros((0, 3)), lb=[-np.inf, 0.0, -np.inf])
        act = ActiveSet((1,), 0, 3)  # h~ index 1 = lower bound on coordinate 1
        C = active_jacobian(sub, np.array([1.0, 0.0, 2.0]), None, act)
        np.testing.assert_allclose(C, [[0.0, -1.0, 0.0]])

    def test_equalities_always_present(self):
        f = VectorFunction([ex.const(0.0)], 2)
        g = VectorFunction([var(0) + var(1)], 2)
        sub = Subproblem(f, g=g, A=np.zeros((0, 2)))
        C = active_jacobian(sub, np.zeros(2), None, ActiveSet((), 0, 2))
        np.testing.assert_allclose(C, [[1.0, 1.0]])

    def test_tutorial_active_row(self):
        sub = tutorial_sub2()
        x = np.array([0.7, 1.9])
        act = ActiveSet((1,), 2, 2)
        C = active_jacobian(sub, x, None, act)
        np.testing.assert_allclose(C, [[1.9, 0.7]])

    def test_upper_bound_unit_row(self):
        f = VectorFunction([ex.const(0.0)], 2)
        sub = Subproblem(f, A=np.zeros((0, 2)), ub=[1.0, np.inf])
        act = ActiveSet((2 + 0,), 0, 2)
        C = active_jacobian(sub, np.array([1.0, 0.0]), None, act)
        np.testing.assert_allclose(C, [[1.0, 0.0]])


class TestRegularize:
    def test_rule_on_diagonal(self):
        H = np.diag([-2.0, 0.0, 3.0])
        out = regularize(H, 1e-4)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(out)), [1e-4, 2.0, 3.0], atol=1e-12
        )

    def test_spd_passthrough(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((4, 4))
        H = M @ M.T + 4 * np.eye(4)
        np.testing.assert_allclose(regularize(H, 1e-4), H, atol=1e-12)

    def test_eigenvalue_multiset_matches_rule(self):
        rng = np.random.default_rng(2)
        delta = 1e-4
        for _ in range(20):
            M = rng.standard_normal((5, 5))
            H = 0.5 * (M + M.T)
            w = np.linalg.eigvalsh(H)
            expect = np.where(w < -delta, np.abs(w), np.where(np.abs(w) < delta, delta, w))
            got = np.linalg.eigvalsh(regularize(H, delta))
            np.testing.assert_allclose(np.sort(got), np.sort(expect), atol=1e-10)
            assert got.min() >= delta - 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((6, 6))
        H = 0.5 * (M + M.T)
        once = regularize(H, 1e-4)
        twice = regularize(once, 1e-4)
        np.testing.assert_allclose(twice, once, atol=1e-12)


class TestBfgs:
    def test_identity_fixed_point(self):
        B = np.eye(3)
        e1 = np.eye(3)[0]
        np.testing.assert_allclose(bfgs_update(B, e1, e1), np.eye(3), atol=1e-14)

    def test_aligned_curvature(self):
        B = np.eye(3)
        e1 = np.eye(3)[0]
        out = bfgs_update(B, e1, 2 * e1)
        np.testing.assert_allclose(out, np.diag([2.0, 1.0, 1.0]), atol=1e-14)

    def test_zero_step_returns_input(self):
        B = np.diag([2.0, 3.0])
        np.testing.assert_allclose(bfgs_update(B, np.zeros(2), np.ones(2)), B)

    def test_skip_on_nonpositive_curvature(self):
        B = np.eye(2)
        out = bfgs_update(B, np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        np.testing.assert_allclose(out, B)

    def test_quadratic_hessian_recovery(self):
        # classical finite termination: n exact-curvature updates along
        # linearly independent Q-conjugate steps reproduce Q
        rng = np.random.default_rng(11)
        n = 5
        M = rng.standard_normal((n, n))
        Q = M @ M.T + n * np.eye(n)
        dirs = []
        for v in rng.standard_normal((n, n)):
            for d in dirs:
                v = v - (d @ Q @ v) / (d @ Q @ d) * d
            dirs.append(v)
        assert np.linalg.matrix_rank(np.array(dirs)) == n
        B = np.eye(n)
        for s in dirs:
            B = bfgs_update(B, s, Q @ s)
        np.testing.assert_allclose(B, Q, atol=1e-8)

    def test_damped_stays_spd_under_negative_curvature(self):
        rng = np.random.default_rng(12)
        B = np.eye(4)
        for _ in range(25):
            s = rng.standard_normal(4)
            y = rng.standard_normal(4)  # arbitrary sign of s'y
            B = bfgs_update(B, s, y, damped=True)
            assert np.linalg.eigvalsh(B).min() > 0
        # long adversarial sequences may grind the smallest eigenvalue down
        # to roundoff scale, but never materially below zero
        for _ in range(25):
            B = bfgs_update(B, rng.standard_normal(4), rng.standard_normal(4), damped=True)
            assert np.linalg.eigvalsh(B).min() > -1e-12 * np.abs(B).max()


class TestNullspace:
    def test_single_row(self):
        Z = nullspace_basis(np.array([[1.0, 0.0]]))
        assert Z.shape == (2, 1)
        np.testing.assert_allclose(np.abs(Z[:, 0]), [0.0, 1.0], atol=1e-14)

    def test_zero_rows_identity(self):
        np.testing.assert_allclose(nullspace_basis(np.zeros((0, 3))), np.eye(3))

    def test_random_full_rank_properties(self):
        rng = np.random.default_rng(4)
        C = rng.standard_normal((3, 7))
        Z = nullspace_basis(C)
        assert Z.shape == (7, 4)
        assert np.abs(C @ Z).max() <= 1e-10
        np.testing.assert_allclose(Z.T @ Z, np.eye(4), atol=1e-10)

    def test_rank_deficient_raises(self):
        C = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(LicqError):
            nullspace_basis(C)


def random_coupling(rng, n_c, n_x):
    """A sparse coupling matrix with -0.0 (zero) and NaN (nonzero) entries;
    one in five is all zero, of either sign."""
    A = np.where(rng.random((n_c, n_x)) < 0.2, rng.standard_normal((n_c, n_x)), 0.0)
    kind = rng.random((n_c, n_x))
    A[kind < 0.2] = -0.0
    A[kind > 0.97] = np.nan
    return np.copysign(0.0, A) if rng.random() < 0.2 else A


def assert_rows_of_each_matrix(As):
    rows = coupling_rows(As)
    assert len(rows) == len(As)
    for r, A in zip(rows, As):
        want = np.flatnonzero(np.any(A != 0.0, axis=1))
        assert r.dtype == want.dtype
        np.testing.assert_array_equal(r, want)


class TestCouplingRows:
    @pytest.mark.parametrize("seed", range(16))
    def test_random_lists_match_a_scan_per_matrix(self, seed):
        # mixed widths, in runs of equal shape and alone
        rng = np.random.default_rng(seed)
        n_c = int(rng.integers(0, 9))
        As = []
        for _ in range(int(rng.integers(1, 8))):
            n_x = int(rng.integers(0, 4))
            As += [random_coupling(rng, n_c, n_x)
                   for _ in range(int(rng.integers(1, 4)))]
        assert_rows_of_each_matrix(As)

    def test_signed_zeros_and_nans(self):
        A = np.array([[0.0, -0.0], [-0.0, np.nan], [0.0, 0.0], [np.nan, 1.0]])
        (rows,) = coupling_rows([A])
        np.testing.assert_array_equal(rows, [1, 3])
        assert [r.tolist() for r in coupling_rows([-A, 0.0 * A])] == [[1, 3], [1, 3]]

    def test_no_consensus_rows_and_no_matrices(self):
        assert_rows_of_each_matrix(
            [np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 1))]
        )
        assert coupling_rows([]) == []

    def test_group_spanning_several_chunks(self):
        rng = np.random.default_rng(7)
        As = [random_coupling(rng, 300, 3) for _ in range(100)]
        As[40] = random_coupling(rng, 300, 2)  # breaks the run of equal shapes
        assert len(list(stack_chunks(As, 0, 40))) > 1
        assert_rows_of_each_matrix(As)


class TestReduce:
    def test_identity_basis(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((3, 3))
        H = 0.5 * (M + M.T)
        g = rng.standard_normal(3)
        A = rng.standard_normal((2, 3))
        red = reduce_block(H, g, A, np.eye(3), 1e-4)
        np.testing.assert_allclose(red.B, regularize(H, 1e-4), atol=1e-12)
        np.testing.assert_allclose(red.g, g)
        np.testing.assert_allclose(red.A, A)
        np.testing.assert_array_equal(red.rows, [0, 1])

    def test_compact_rows_from_a_not_from_projection(self):
        # the projected row vanishes, but the row stays a coupling row
        rng = np.random.default_rng(8)
        A = np.zeros((5, 3))
        A[1] = [0.0, 2.0, 0.0]
        A[3] = rng.standard_normal(3)
        Z = nullspace_basis(np.array([[0.0, 1.0, 0.0]]))
        red = reduce_block(np.eye(3), np.zeros(3), A, Z, 1e-4)
        np.testing.assert_array_equal(red.rows, [1, 3])
        np.testing.assert_allclose(red.A, A[[1, 3]] @ Z, atol=0.0)
        assert np.all(red.A[0] == 0.0)
        given = reduce_block(np.eye(3), np.zeros(3), A, Z, 1e-4,
                             rows=np.array([1, 3]))
        np.testing.assert_array_equal(given.A, red.A)

    def test_direct_projection(self):
        Z = np.array([[0.0], [1.0]])
        red = reduce_block(np.diag([4.0, 6.0]), np.array([1.0, 2.0]),
                           np.array([[-1.0, 0.0]]), Z, 1e-4)
        np.testing.assert_allclose(red.B, [[6.0]])
        np.testing.assert_allclose(red.g, [2.0])
        np.testing.assert_allclose(red.A, [[0.0]])
        np.testing.assert_array_equal(red.rows, [0])


class TestSchurContribution:
    def test_zero_coupling(self):
        red = ReducedBlock(B=np.eye(2), g=np.zeros(2), A=np.zeros((3, 2)),
                           rows=np.arange(3))
        S, s = schur_contribution(red, coupling=red.A @ np.array([1.0, 2.0]))
        np.testing.assert_allclose(S, np.zeros((3, 3)))
        np.testing.assert_allclose(s, np.zeros(3))

    def test_direct_formula(self):
        red = ReducedBlock(B=np.eye(2), g=np.zeros(2), A=np.array([[1.0, 0.0]]),
                           rows=np.array([0]))
        S, s = schur_contribution(red, coupling=red.A @ np.array([3.0, 5.0]))
        np.testing.assert_allclose(S, [[1.0]])
        np.testing.assert_allclose(s, [3.0])

    def test_zero_rows_exactly_zero(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((4, 3))
        A[2, :] = 0.0
        red = ReducedBlock(B=np.eye(3) + 0.1, g=rng.standard_normal(3), A=A,
                           rows=np.arange(4))
        S, _ = schur_contribution(red, coupling=A @ rng.standard_normal(3))
        assert np.all(S[2, :] == 0.0) and np.all(S[:, 2] == 0.0)

    def test_vanished_row_keeps_its_coupling_value(self):
        red = ReducedBlock(B=np.eye(2), g=np.array([1.0, -1.0]),
                           A=np.array([[0.0, 0.0], [1.0, 2.0]]),
                           rows=np.array([4, 7]))
        S, s = schur_contribution(red, coupling=np.array([3.0, 5.0]))
        assert S.shape == (2, 2) and s.shape == (2,)
        assert np.all(S[0] == 0.0) and np.all(S[:, 0] == 0.0)
        np.testing.assert_allclose(S[1, 1], 5.0)
        np.testing.assert_allclose(s, [3.0, 5.0 - (1.0 - 2.0)])

    def test_assembled_schur_reproduces_monolithic_kkt(self):
        # compact contributions scattered onto their rows, plus I/mu, must
        # give the same dual as the monolithic reduced KKT system solved
        # densely with the blocks' full coupling matrices
        rng = np.random.default_rng(7)
        mu = 50.0
        n_c = 3
        blocks = []
        A_full = []
        vs = []
        for rows in ([0, 1], [1, 2], [0, 2]):
            n = int(rng.integers(2, 5))
            M = rng.standard_normal((n, n))
            A = rng.standard_normal((n_c, n))
            A[[c for c in range(n_c) if c not in rows]] = 0.0
            A_full.append(A)
            blocks.append(
                ReducedBlock(
                    B=M @ M.T + n * np.eye(n),
                    g=rng.standard_normal(n),
                    A=A[rows],
                    rows=np.array(rows),
                )
            )
            vs.append(rng.standard_normal(n))
        lam = rng.standard_normal(n_c)
        b = rng.standard_normal(n_c)
        S_sum = np.zeros((n_c, n_c))
        s_sum = np.zeros(n_c)
        for red, v in zip(blocks, vs):
            S, s = schur_contribution(red, coupling=red.A @ v)
            S_sum[np.ix_(red.rows, red.rows)] += S
            s_sum[red.rows] += s
        lam_schur = np.linalg.solve(S_sum + np.eye(n_c) / mu, s_sum + lam / mu - b)
        # monolithic KKT in (dv_1, dv_2, dv_3, lamQP)
        sizes = [blk.B.shape[0] for blk in blocks]
        N = sum(sizes)
        K = np.zeros((N + n_c, N + n_c))
        rhs = np.zeros(N + n_c)
        off = 0
        for red, A, v in zip(blocks, A_full, vs):
            n = red.B.shape[0]
            K[off: off + n, off: off + n] = red.B
            K[off: off + n, N:] = A.T
            K[N:, off: off + n] = A
            rhs[off: off + n] = -red.g
            rhs[N:] += -A @ v
            off += n
        K[N:, N:] = -np.eye(n_c) / mu
        rhs[N:] += b - lam / mu
        sol = np.linalg.solve(K, rhs)
        np.testing.assert_allclose(lam_schur, sol[N:], atol=1e-8)
