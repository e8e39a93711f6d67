"""Outer-loop behavior: both solvers, all variants, logging, reuse."""

import numpy as np
import pytest

from aladin import driver
from aladin import expr as ex
from aladin import local
from aladin.coordination import update_delta_by_violation
from aladin.expr import VectorFunction, var, param
from aladin.driver import CSV_HEADER, run_admm, run_aladin
from aladin.errors import LicqError, SingularKktError
from aladin.examples_lib import coupled_qp, ocp_chain, tutorial
from aladin.local import group_blocks, solve_local
from aladin.problem import (
    SeparableProblem,
    SolverOptions,
    Subproblem,
    set_parameters,
    validate,
)

import oracles
from oracles import detect_active


def convex_coupled_instance(seed, n_blocks=3, block_size=2):
    """Random strictly convex QP blocks with chain coupling (no g/h/bounds)."""
    return coupled_qp(seed=seed, n_blocks=n_blocks, block_size=block_size)


def stack_solution(sol):
    return np.concatenate([np.concatenate(sol.xs), sol.lam])


def linear_block_problem():
    """Block 0 has the linear objective x0 + x1 in a box it does not reach.

    Nothing is active, so its reduced Hessian is its zero Lagrangian
    Hessian: singular unless it is regularized.
    """
    f0 = VectorFunction([var(0) + var(1)], 2)
    s0 = Subproblem(f0, A=[[1.0, 0.0]], lb=[-10.0, -10.0], ub=[10.0, 10.0],
                    z0=[0.0, 0.0])
    f1 = VectorFunction([ex.square(var(0) - 1)], 1)
    s1 = Subproblem(f1, A=[[-1.0]], z0=[0.0])
    return SeparableProblem([s0, s1], b=[0.0])


def duplicated_row_problem():
    """Block 1 states x0 <= 2 twice and is pushed onto it: LICQ fails."""
    f0 = VectorFunction([ex.square(var(0) - 1)], 1)
    s0 = Subproblem(f0, A=[[1.0]], z0=[0.0])
    f1 = VectorFunction([ex.square(var(0) - 3) + ex.square(var(1))], 2)
    h1 = VectorFunction([var(0) - 2, var(0) - 2], 2)
    s1 = Subproblem(f1, h=h1, A=[[-1.0, 0.0]], z0=[0.0, 0.0])
    return SeparableProblem([s0, s1], b=[0.0])


class TestTutorial:
    def test_converges_to_elimination_oracle(self):
        xy, lam_star, _ = oracles.tutorial_solution()
        sol = run_aladin(tutorial(), SolverOptions(term_eps=1e-11))
        assert sol.termination == "tolerance-met"
        assert sol.consensus_violation <= 1e-10
        np.testing.assert_allclose(sol.xs[0], xy[:1], atol=1e-6)
        np.testing.assert_allclose(sol.xs[1], xy, atol=1e-6)
        np.testing.assert_allclose(sol.lam, [lam_star], atol=1e-6)

    def test_termination_honesty(self):
        eps = 1e-9
        sol = run_aladin(tutorial(), SolverOptions(term_eps=eps))
        assert sol.termination == "tolerance-met"
        last = sol.log.records[-1]
        assert last.consensus_viol <= eps and last.local_step <= eps

    def test_eps_zero_disables_termination(self):
        sol = run_aladin(tutorial(), SolverOptions(term_eps=0.0, max_iter=12))
        assert sol.termination == "max-iterations"
        assert sol.iterations == 12

    def test_all_variants_agree_on_solution(self):
        xy, lam_star, _ = oracles.tutorial_solution()
        for variant in ("fullspace", "nullspace", "bilevel"):
            sol = run_aladin(
                tutorial(),
                SolverOptions(term_eps=1e-11, variant=variant, inner_iter=5),
            )
            assert sol.termination == "tolerance-met", variant
            np.testing.assert_allclose(sol.xs[1], xy, atol=1e-6)


class TestDecoupled:
    def decoupled_problem(self):
        f1 = VectorFunction([ex.square(var(0) - 3)], 1)
        f2 = VectorFunction(
            [ex.square(var(0) + 1) + ex.square(var(1) - 0.5)], 2
        )
        return SeparableProblem(
            [Subproblem(f1, A=np.zeros((0, 1))), Subproblem(f2, A=np.zeros((0, 2)))]
        )

    def test_aladin_matches_standalone_locals(self):
        prob = self.decoupled_problem()
        sol = run_aladin(prob, SolverOptions(term_eps=1e-10))
        for i, sub in enumerate(prob.subproblems):
            ref = solve_local(
                sub, sub.z0, np.zeros(0), 1e-8 * np.eye(sub.n_x), tol=1e-12
            )
            np.testing.assert_allclose(sol.xs[i], ref.x, atol=1e-8)

    def test_admm_matches_standalone_locals(self):
        prob = self.decoupled_problem()
        sol = run_admm(prob, SolverOptions(term_eps=1e-10))
        np.testing.assert_allclose(sol.xs[0], [3.0], atol=1e-8)
        np.testing.assert_allclose(sol.xs[1], [-1.0, 0.5], atol=1e-8)


class TestVariantConsistency:
    def test_full_vs_nullspace_trajectories_convex(self):
        for seed in range(5):
            prob = convex_coupled_instance(seed)
            opts_a = SolverOptions(term_eps=0, max_iter=8, variant="fullspace")
            opts_b = SolverOptions(term_eps=0, max_iter=8, variant="nullspace")
            sa = run_aladin(prob, opts_a)
            sb = run_aladin(convex_coupled_instance(seed), opts_b)
            for ra, rb in zip(sa.log.records, sb.log.records):
                for za, zb in zip(ra.z, rb.z):
                    np.testing.assert_allclose(za, zb, atol=1e-8)
                np.testing.assert_allclose(ra.lam, rb.lam, atol=1e-8)

    def test_bilevel_equals_nullspace_exact_inner(self):
        prob = tutorial()
        n_c = prob.n_c
        sa = run_aladin(
            tutorial(), SolverOptions(term_eps=0, max_iter=10, variant="nullspace")
        )
        sb = run_aladin(
            tutorial(),
            SolverOptions(
                term_eps=0, max_iter=10, variant="bilevel", inner_iter=n_c
            ),
        )
        for ra, rb in zip(sa.log.records, sb.log.records):
            for za, zb in zip(ra.z, rb.z):
                np.testing.assert_allclose(za, zb, atol=1e-6)
            np.testing.assert_allclose(ra.lam, rb.lam, atol=1e-6)


    def test_bilevel_del_up_equals_nullspace_del_up(self, monkeypatch):
        # the bilevel inner solvers weigh each consensus row's slack with
        # its own Delta, so with an inner solve run to convergence they
        # follow the nullspace trajectory once rowwise updates split Delta
        deltas = []

        def record(*args):
            out = update_delta_by_violation(*args)
            deltas.append(out.delta)
            return out

        monkeypatch.setattr(driver, "update_delta_by_violation", record)
        null = run_aladin(ocp_chain(), SolverOptions(variant="nullspace", del_up=True))
        assert any(np.ptp(d) > 0 for d in deltas)
        bil = run_aladin(
            ocp_chain(), SolverOptions(variant="bilevel", inner_iter=200, del_up=True)
        )
        assert bil.iterations == null.iterations
        for ra, rb in zip(bil.log.records, null.log.records):
            for za, zb in zip(ra.z, rb.z):
                assert np.linalg.norm(za - zb) <= 1e-8 * np.linalg.norm(zb)
            assert np.linalg.norm(ra.lam - rb.lam) <= 1e-8 * np.linalg.norm(rb.lam)

    @pytest.mark.parametrize(
        "reduced",
        [{"variant": "nullspace"},
         {"variant": "bilevel", "inner_alg": "dcg", "inner_iter": 20}],
        ids=["nullspace", "bilevel-dcg"],
    )
    def test_fixed_coupled_state_matches_fullspace(self, reduced):
        # the chain's first coupled knot pos(1) = pos(0) + dt vel(0) is fixed
        # by the initial-condition equalities, so its row of A_i Z_i
        # vanishes while A_i x_i on that row does not: the reduced paths
        # must keep that row as a coupling row of the block
        prob = ocp_chain()
        assert reduced.get("inner_iter", prob.n_c) == prob.n_c
        full = run_aladin(ocp_chain(), SolverOptions(variant="fullspace"))
        red = run_aladin(prob, SolverOptions(**reduced))
        assert red.termination == full.termination == "tolerance-met"
        assert red.iterations == full.iterations
        for ra, rb in zip(red.log.records, full.log.records):
            for za, zb in zip(ra.z, rb.z):
                np.testing.assert_allclose(za, zb, rtol=0, atol=1e-8)
            for xa, xb in zip(ra.x, rb.x):
                np.testing.assert_allclose(xa, xb, rtol=0, atol=1e-8)
            np.testing.assert_allclose(ra.lam, rb.lam, rtol=0, atol=1e-8)
        for xa, xb in zip(red.xs, full.xs):
            np.testing.assert_allclose(xa, xb, rtol=0, atol=1e-8)
        np.testing.assert_allclose(red.lam, full.lam, rtol=0, atol=1e-8)


class TestAdmm:
    def test_convex_qp_reaches_centralized_solution(self):
        prob = convex_coupled_instance(7)
        xs_ref, _ = oracles.solve_centralized(prob, tol=1e-12)
        sol = run_admm(prob, SolverOptions(term_eps=0, max_iter=500, rho_admm=100.0))
        diff = max(np.abs(a - b).max() for a, b in zip(sol.xs, xs_ref))
        assert diff <= 1e-4
        assert sol.consensus_violation <= 1e-6

    def test_same_log_shape_as_aladin(self):
        sol = run_admm(tutorial(), SolverOptions(term_eps=0, max_iter=5))
        rows = sol.log.rows()
        assert len(rows) == 5 and len(rows[0]) == len(CSV_HEADER)

    def test_active_sets_come_from_the_local_solutions(self, monkeypatch):
        # the active sets are read off the local solver's evaluation at its
        # solutions: nothing is evaluated for the log (the final objective
        # runs the groups' lane tapes, not evaluate), and it counts the
        # changes of detecting them block by block
        evaluated = []
        evaluate = ex.evaluate

        def counted(fun, *args):
            evaluated.append(fun)
            return evaluate(fun, *args)

        monkeypatch.setattr(ex, "evaluate", counted)
        prob = tutorial()
        opts = SolverOptions(term_eps=0, max_iter=5).check()
        sol = run_admm(prob, opts)
        assert evaluated == []
        monkeypatch.undo()
        acts = [
            [detect_active(s, x, p, opts.act_margin).indices
             for s, x, p in zip(prob.subproblems, rec.x, prob.parameters)]
            for rec in sol.log.records
        ]
        changes = [0] + [
            sum(len(set(a) ^ set(b)) for a, b in zip(prev, cur))
            for prev, cur in zip(acts, acts[1:])
        ]
        assert any(acts[0]) and [r.active_changes for r in sol.log.records] == changes

    def test_local_failure_names_outer_iteration(self):
        # the local solver evaluates x log x through its gradient log x + 1,
        # which has no value at the start point x = -1
        f = VectorFunction([var(0) * ex.log(var(0))], 1)
        prob = SeparableProblem(
            [Subproblem(f, A=[[1.0]], z0=[-1.0]),
             Subproblem(VectorFunction([ex.square(var(0))], 1), A=[[1.0]])],
            b=[1.0],
        )
        with pytest.raises(
            ex.DomainEvalError, match=r"^outer iteration 1: log of non-positive"
        ) as info:
            run_admm(prob, SolverOptions())
        assert isinstance(info.value.__cause__, ex.DomainEvalError)
        assert info.value.node is info.value.__cause__.node


class TestParametricReuse:
    def test_minimizer_follows_parameter(self):
        f = VectorFunction([ex.square(var(0) - param(0))], 1, n_p=1)
        prob = SeparableProblem([Subproblem(f, A=np.zeros((0, 1)), p=[1.0])])
        graph = prob.subproblems[0].f.outputs[0]
        sol1 = run_aladin(prob, SolverOptions(term_eps=1e-10))
        np.testing.assert_allclose(sol1.xs[0], [1.0], atol=1e-8)
        set_parameters(prob, 0, [3.0])
        sol2 = run_aladin(prob, SolverOptions(term_eps=1e-10))
        np.testing.assert_allclose(sol2.xs[0], [3.0], atol=1e-8)
        assert prob.subproblems[0].f.outputs[0] is graph

    def test_receding_horizon_loop_matches_one_shot(self):
        # drive the control example through 5 initial conditions, reusing the
        # problem object; each solve must match a fresh instance's solution
        prob = ocp_chain()
        opts = SolverOptions(term_eps=1e-9)
        rng = np.random.default_rng(3)
        inits = [
            [(-1.0 + 0.2 * t + rng.uniform(-0.05, 0.05), 0.1 * t),
             (0.5, 0.05 * t),
             (2.5 - 0.2 * t, -0.05 * t)]
            for t in range(5)
        ]
        for states in inits:
            for i, st in enumerate(states):
                set_parameters(prob, i, list(st))
            sol = run_aladin(prob, opts)
            fresh = ocp_chain()
            for i, st in enumerate(states):
                set_parameters(fresh, i, list(st))
            ref = run_aladin(fresh, opts)
            for a, b in zip(sol.xs, ref.xs):
                np.testing.assert_allclose(a, b, atol=1e-7)


class TestExampleLibrary:
    def test_tutorial_dimensions(self):
        prob = tutorial()
        assert prob.n_s == 2 and prob.n_c == 1
        assert prob.subproblems[0].n_x == 1
        assert prob.subproblems[1].n_x == 2

    def test_coupled_qp_seeded_determinism(self):
        a = coupled_qp(seed=42)
        b = coupled_qp(seed=42)
        for sa, sb in zip(a.subproblems, b.subproblems):
            np.testing.assert_array_equal(sa.A, sb.A)
            np.testing.assert_array_equal(sa.z0, sb.z0)
            x = np.array([0.3, -0.4, 1.1])
            assert ex.evaluate(sa.f, x)[0] == ex.evaluate(sb.f, x)[0]

    def test_ocp_chain_validates_and_solves(self):
        prob = ocp_chain()
        assert validate(prob) == []
        sol = run_aladin(prob, SolverOptions(term_eps=1e-9))
        assert sol.termination == "tolerance-met"
        # input bounds must be respected at every knot
        for x, sub in zip(sol.xs, prob.subproblems):
            assert np.all(x >= sub.lb - 1e-12) and np.all(x <= sub.ub + 1e-12)

    def test_unknown_name(self):
        from aladin.examples_lib import example_library

        with pytest.raises(KeyError):
            example_library("does-not-exist")


class TestLogsAndGuards:
    def test_csv_header_and_rows(self, tmp_path):
        sol = run_aladin(tutorial(), SolverOptions(term_eps=1e-10))
        path = tmp_path / "log.csv"
        sol.log.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,consensus_viol,local_step,qp_step,active_changes,comms_floats"
        assert len(lines) == sol.iterations + 1

    def test_json_log(self, tmp_path):
        sol = run_aladin(
            tutorial(), SolverOptions(term_eps=1e-10, variant="bilevel", inner_iter=3)
        )
        data = sol.log.to_json(tmp_path / "log.json")
        assert (tmp_path / "log.json").exists()
        assert data[0]["comms_floats"] > 0  # bilevel exchanges floats

    def test_invalid_problem_rejected(self):
        f = VectorFunction([ex.square(var(0))], 1)
        bad = SeparableProblem([Subproblem(f, A=[[0.0]])], b=[0.0])
        with pytest.raises(ValueError, match="invalid problem"):
            run_aladin(bad)

    def test_divergence_guard(self):
        # unbounded linear objective: with a tiny curvature floor the QP
        # step explodes immediately
        f = VectorFunction([100.0 * var(0)], 1)
        prob = SeparableProblem([Subproblem(f, A=np.zeros((0, 1)))])
        sol = run_aladin(
            prob, SolverOptions(term_eps=1e-8, max_iter=50, reg_param=1e-9)
        )
        assert sol.termination == "error"
        assert "divergence" in sol.message


class TestHonestTermination:
    """A met tolerance with unconverged final local solves says so."""

    @staticmethod
    def assert_reports_failed_locals(sol):
        assert sol.termination == "tolerance-met"
        failed = [
            (i, st) for i, st in enumerate(sol.local_status) if st != "converged"
        ]
        assert failed
        assert sol.message.startswith("both stopping norms within tolerance; ")
        assert (
            f"{len(failed)} of {len(sol.local_status)} final local solves "
            "not converged" in sol.message
        )
        for i, st in failed:
            assert f"block {i}: {st}" in sol.message

    def test_aladin_roundoff_floor(self):
        # outer errors near 1e-13 ask the locals for ~1e-15, below roundoff
        sol = run_aladin(
            tutorial(), SolverOptions(term_eps=1e-13, local_tol_floor=1e-300)
        )
        self.assert_reports_failed_locals(sol)

    def test_admm_roundoff_floor(self):
        sol = run_admm(
            convex_coupled_instance(42, n_blocks=2),
            SolverOptions(term_eps=1e-13, local_tol_floor=1e-300, max_iter=2000),
        )
        self.assert_reports_failed_locals(sol)

    def test_converged_locals_keep_the_message(self):
        sol = run_aladin(tutorial(), SolverOptions(term_eps=1e-10))
        assert sol.local_status == ["converged", "converged"]
        assert sol.message == "both stopping norms within tolerance"


class TestIterationTimings:
    @pytest.mark.parametrize(
        "run, opts",
        [(run_aladin, SolverOptions(term_eps=1e-10, variant="bilevel", inner_iter=3)),
         (run_aladin, SolverOptions(term_eps=1e-10)),
         (run_admm, SolverOptions(term_eps=1e-6, max_iter=500))],
        ids=["aladin-bilevel", "aladin-fullspace", "admm"],
    )
    def test_records_sum_to_the_run_timers(self, run, opts):
        sol = run(tutorial(), opts)
        assert sol.termination == "tolerance-met"
        layers = ("local", "sensitivity", "qp", "inner")
        for rec in sol.log.records:
            assert set(rec.timings) == set(layers)
            assert all(v >= 0.0 for v in rec.timings.values())
            assert rec.timings["local"] > 0.0
        for key in layers:
            assert sum(r.timings[key] for r in sol.log.records) == sol.timers[key]
        # the last record only ran the local solves
        last = sol.log.records[-1].timings
        assert last["sensitivity"] == last["qp"] == last["inner"] == 0.0
        body = sol.log.records[:-1]
        assert all(r.timings["qp"] > 0.0 for r in body)
        if run is run_admm:
            assert all(r.timings["sensitivity"] == r.timings["inner"] == 0.0
                       for r in body)
        else:
            assert all(r.timings["sensitivity"] > 0.0 for r in body)
        if opts.variant == "bilevel":
            assert all(r.timings["inner"] > 0.0 for r in body)

    def test_json_carries_timings_and_bfgs_eigenvalues(self):
        sol = run_aladin(tutorial(), SolverOptions(term_eps=1e-10, hessian="dbfgs"))
        data = sol.log.to_json()
        for row, rec in zip(data, sol.log.records):
            assert row["timings"] == rec.timings
            assert row["bfgs_min_eig"] == rec.bfgs_min_eig
        assert all(len(row["bfgs_min_eig"]) == 2 for row in data[:-1])
        assert all(v > 0.0 for row in data[:-1] for v in row["bfgs_min_eig"])
        exact = run_aladin(tutorial(), SolverOptions(term_eps=1e-10)).log.to_json()
        assert all(row["bfgs_min_eig"] is None for row in exact)


class TestSensitivityPacks:
    @pytest.mark.parametrize("variant", ["nullspace", "bilevel"])
    def test_reduced_variants_skip_the_fullspace_hessian(self, monkeypatch, variant):
        # reduce_block regularizes the projected Hessian; the full one would
        # be thrown away
        from aladin import driver

        calls = []
        real = driver.regularize
        monkeypatch.setattr(
            driver, "regularize", lambda H, d: calls.append(H.shape) or real(H, d)
        )
        sol = run_aladin(ocp_chain(), SolverOptions(variant=variant))
        assert sol.termination == "tolerance-met" and calls == []
        # the full-space variant regularizes once per lockstep group and
        # iteration: ocp_chain's group of two and group of one, coupled_qp's
        # one group of eight
        for problem in (ocp_chain(), coupled_qp(n_blocks=8, block_size=3)):
            del calls[:]
            sol = run_aladin(problem, SolverOptions(variant="fullspace", max_iter=2))
            assert sol.iterations == 2
            assert len(calls) == 2 * len(group_blocks(problem.subproblems))
        assert calls == [(8, 3, 3)] * 2


class TestBlockErrors:
    @pytest.mark.parametrize("variant", ["fullspace", "nullspace", "bilevel"])
    def test_singular_reduced_hessian_names_block(self, variant):
        opts = SolverOptions(variant=variant, reg=False)
        with pytest.raises(SingularKktError) as exc:
            run_aladin(linear_block_problem(), opts)
        assert str(exc.value).startswith(
            "outer iteration 1: block 0: reduced Hessian (2x2) is singular"
        )
        # the regularized default floors the same Hessian and converges
        sol = run_aladin(linear_block_problem(), SolverOptions(variant=variant))
        assert sol.termination == "tolerance-met"

    @pytest.mark.parametrize("variant", ["fullspace", "nullspace", "bilevel"])
    def test_licq_failure_names_block(self, variant):
        with pytest.raises(LicqError) as exc:
            run_aladin(duplicated_row_problem(), SolverOptions(variant=variant))
        assert str(exc.value).startswith(
            "outer iteration 2: block 1: active constraint Jacobian is rank deficient"
        )


class TestObjective:
    def test_lowest_failing_block_raises(self):
        # blocks 1 and 3 leave the log's domain; block 1's error is raised
        subs = [
            Subproblem(VectorFunction(
                [c * (var(0) * ex.log(var(0))) + ex.square(var(1))], 2), A=[[1.0, 0.0]])
            for c in (1.5, 0.7, 2.5, 3.0)
        ]
        problem = SeparableProblem(subs, b=[1.0])
        _, state, _ = driver._start(problem, SolverOptions(), None, None)
        assert len(state.groups) == 1
        X = [np.array([[0.5, 0.0], [-1.0, 0.0], [2.0, 0.0], [-2.0, 0.0]])]
        with pytest.raises(ex.DomainEvalError) as got:
            driver._objective(state, X)
        with pytest.raises(ex.DomainEvalError) as alone:
            ex.evaluate(subs[1].f, X[0][1])
        assert got.value.node is alone.value.node
        assert str(got.value) == str(alone.value)

    def test_solution_objective_is_the_block_order_sum_of_solo_values(self):
        from test_driver_reference import interleaved_chain

        problem = interleaved_chain()
        groups = [g.blocks for g in group_blocks(problem.subproblems)]
        assert groups == [(0, 2, 4, 6), (1, 3, 5, 7)]
        sol = run_aladin(problem, SolverOptions(max_iter=5, log_every=0))
        # a float, not an np.float64 that prints and pickles otherwise
        assert type(sol.objective) is float
        want = 0.0
        for sub, x, p in zip(problem.subproblems, sol.xs, problem.parameters):
            want += ex.evaluate(sub.f, x, p)[0]
        assert np.float64(sol.objective).tobytes() == np.float64(want).tobytes()


class TestNewtonSteps:
    @pytest.mark.parametrize(
        "run, make, opts",
        [(run_aladin, tutorial, SolverOptions(term_eps=1e-10)),
         (run_aladin, ocp_chain, SolverOptions()),
         (run_admm, lambda: coupled_qp(n_blocks=6, block_size=3),
          SolverOptions(max_iter=30))],
        ids=["tutorial", "ocp_chain", "admm-coupled_qp"],
    )
    def test_records_count_every_lanes_steps(self, monkeypatch, run, make, opts):
        # per iteration, the lanes entering a Newton step, whether it is
        # factored by Cholesky or by LDL^T (tutorial's blocks have no
        # equality rows, ocp_chain's do)
        counted = []
        newton_step, solve_locals = local._newton_step, driver._solve_locals

        def step(W, Jg, rhs_x, rhs_g, failed):
            counted[-1] += len(rhs_x) - len(failed)
            return newton_step(W, Jg, rhs_x, rhs_g, failed)

        def per_iteration(*args):
            counted.append(0)
            return solve_locals(*args)

        monkeypatch.setattr(local, "_newton_step", step)
        monkeypatch.setattr(driver, "_solve_locals", per_iteration)
        sol = run(make(), opts)
        steps = [rec.newton_steps for rec in sol.log.records]
        assert steps == counted and sum(steps) > 0
        assert all(type(v) is int for v in steps)
        assert [row["newton_steps"] for row in sol.log.to_json()] == steps
