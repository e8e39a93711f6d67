"""Problem construction, validation, parameters, JSON round trips."""

import json

import numpy as np
import pytest

from aladin import expr as ex
from aladin.expr import VectorFunction, var, param
from aladin.problem import (
    SeparableProblem,
    SolverOptions,
    Subproblem,
    load_problem_json,
    problem_from_dict,
    problem_to_dict,
    set_parameters,
    validate,
)


def tutorial_problem():
    f1 = VectorFunction([2 * ex.square(var(0) - 1)], 1)
    s1 = Subproblem(f1, A=[[1.0]], z0=[1.0])
    f2 = VectorFunction([ex.square(var(1) - 2)], 2)
    h2 = VectorFunction([-1 - var(0) * var(1), -1.5 + var(0) * var(1)], 2)
    s2 = Subproblem(f2, h=h2, A=[[-1.0, 0.0]], z0=[1.0, 1.0])
    return SeparableProblem([s1, s2], b=[0.0], name="tutorial")


class TestValidate:
    def test_tutorial_ok(self):
        assert validate(tutorial_problem()) == []

    def test_coupling_row_mismatch(self):
        f1 = VectorFunction([ex.square(var(0))], 1)
        s1 = Subproblem(f1, A=[[1.0]])
        f2 = VectorFunction([ex.square(var(0))], 2)
        s2 = Subproblem(f2, A=[[1.0, 0.0], [0.0, 1.0]])
        msgs = validate(SeparableProblem([s1, s2], b=[0.0]))
        assert any("coupling row mismatch" in m for m in msgs)

    def test_bound_ordering(self):
        f = VectorFunction([ex.square(var(0))], 1)
        s = Subproblem(f, lb=[1.0], ub=[0.0])
        msgs = validate(SeparableProblem([s]))
        assert any("bound ordering" in m for m in msgs)

    def test_uncovered_consensus_row(self):
        f = VectorFunction([ex.square(var(0))], 1)
        s = Subproblem(f, A=[[0.0]])
        msgs = validate(SeparableProblem([s], b=[0.0]))
        assert any("referenced by no subproblem" in m for m in msgs)

    @pytest.mark.parametrize("seed", range(8))
    def test_uncovered_rows_as_a_scan_per_block_finds_them(self, seed):
        # sparse couplings with -0.0 (zero) and NaN (nonzero) entries, and
        # a block with a wrong number of rows, whose rows cover nothing
        rng = np.random.default_rng(seed)
        n_c = int(rng.integers(1, 10))
        subs = []
        for k in range(int(rng.integers(1, 6))):
            n_x = int(rng.integers(1, 4))
            m = n_c + 1 if k and rng.random() < 0.3 else n_c
            A = np.where(rng.random((m, n_x)) < 0.15, 1.0, 0.0)
            kind = rng.random((m, n_x))
            A[kind < 0.2] = -0.0
            A[kind > 0.95] = np.nan
            subs.append(Subproblem(VectorFunction([ex.square(var(0))], n_x), A=A))
        covered = np.zeros(n_c, dtype=bool)
        for sub in subs:
            if sub.A.shape[0] == n_c:
                covered |= np.any(sub.A != 0.0, axis=1)
        want = [f"consensus row {c} is referenced by no subproblem"
                for c in np.flatnonzero(~covered)]
        msgs = validate(SeparableProblem(subs, b=np.zeros(n_c)))
        assert [m for m in msgs if m.startswith("consensus row")] == want

    def test_all_violations_reported(self):
        f = VectorFunction([ex.square(var(0))], 1)
        s1 = Subproblem(f, A=[[1.0]], lb=[2.0], ub=[-2.0])
        f2 = VectorFunction([ex.square(var(0))], 1)
        s2 = Subproblem(f2, A=[[1.0], [1.0]])
        msgs = validate(SeparableProblem([s1, s2], b=[0.0]))
        assert len(msgs) >= 2


class TestSubproblem:
    def test_block_with_no_variables_rejected(self):
        # a block without variables would pass validate and crash the
        # driver's reductions over its empty iterate
        with pytest.raises(ValueError, match="at least one variable"):
            Subproblem(VectorFunction([ex.const(2.0)], 0), A=np.zeros((1, 0)))


class TestSetParameters:
    def test_graphs_are_reused(self):
        f = VectorFunction([ex.square(var(0) - param(0))], 1, n_p=1)
        s = Subproblem(f, p=[1.0])
        prob = SeparableProblem([s])
        graph_before = prob.subproblems[0].f.outputs[0]
        set_parameters(prob, 0, [3.0])
        assert prob.subproblems[0].f.outputs[0] is graph_before
        np.testing.assert_allclose(prob.parameters[0], [3.0])

    def test_wrong_length(self):
        f = VectorFunction([ex.square(var(0) - param(0))], 1, n_p=1)
        prob = SeparableProblem([Subproblem(f, p=[1.0])])
        with pytest.raises(ValueError):
            set_parameters(prob, 0, [1.0, 2.0])


class TestSolverOptions:
    def test_defaults_pass(self):
        SolverOptions().check()

    @pytest.mark.parametrize(
        "kw",
        [
            {"step_size": 0.0},
            {"step_size": 1.5},
            {"gamma": 1.0},
            {"beta": 1.0},
            {"r_sigma": 1.0},
            {"term_eps": -1.0},
            {"hessian": "newton"},
            {"variant": "other"},
            {"inner_alg": "cg"},
            {"log_every": -1},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            SolverOptions(**kw).check()

    def test_del_up_fullspace_allowed(self):
        SolverOptions(del_up=True, variant="fullspace").check()

    @pytest.mark.parametrize("variant", ["nullspace", "bilevel"])
    def test_del_up_reduced_variants_allowed(self, variant):
        SolverOptions(del_up=True, variant=variant).check()


class TestJson:
    def test_round_trip(self, tmp_path):
        prob = tutorial_problem()
        d = problem_to_dict(prob)
        path = tmp_path / "tut.json"
        path.write_text(json.dumps(d))
        loaded = load_problem_json(path)
        assert loaded.n_s == 2 and loaded.n_c == 1
        assert validate(loaded) == []
        x = np.array([0.7, 1.9])
        np.testing.assert_allclose(
            ex.evaluate(loaded.subproblems[1].h, x),
            ex.evaluate(prob.subproblems[1].h, x),
        )

    def test_infinite_bounds_as_null(self):
        data = {
            "subproblems": [
                {
                    "n_x": 2,
                    "f": ["square", ["var", 0]],
                    "lb": [None, 0.0],
                    "ub": [1.0, None],
                }
            ]
        }
        prob = problem_from_dict(data)
        s = prob.subproblems[0]
        assert s.lb[0] == -np.inf and s.lb[1] == 0.0
        assert s.ub[0] == 1.0 and s.ub[1] == np.inf

    def test_block_with_no_variables_rejected(self):
        # block 0 covers the consensus row, so only block 1 is at fault
        data = {"subproblems": [{"n_x": 1, "f": ["square", ["var", 0]], "A": [[1.0]]},
                                {"n_x": 0, "f": 2.0, "A": [[]]}], "b": [1.0]}
        with pytest.raises(ValueError, match="at least one variable"):
            problem_from_dict(data)

    def test_missing_fields(self):
        with pytest.raises(ValueError):
            problem_from_dict({})
        with pytest.raises(ValueError, match=r"^subproblem 0: missing 'n_x'$"):
            problem_from_dict({"subproblems": [{"f": ["var", 0]}]})

    @staticmethod
    def two_blocks(**second):
        """A valid two-block problem whose second block takes ``second``."""
        block = {"n_x": 2, "f": ["square", ["var", 1]], "A": [[-1.0, 0.0]]}
        block.update(second)
        return {"subproblems": [{"n_x": 1, "f": ["square", ["var", 0]], "A": [[1.0]]},
                                block], "b": [0.0]}

    def test_two_blocks_load(self):
        assert validate(problem_from_dict(self.two_blocks())) == []

    def test_missing_objective_names_its_subproblem(self):
        data = self.two_blocks()
        del data["subproblems"][1]["f"]
        with pytest.raises(ValueError, match=r"^subproblem 1: missing 'f'$"):
            problem_from_dict(data)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("lb", [0.0], "bound must have length 2, got 1"),
            ("ub", [1.0, "x"], "could not convert string to float"),
            ("ub", 3.0, "not iterable"),
            ("p", [1.0], "p must have length 0, got 1"),
            ("z0", [0.0, 0.0, 0.0], "z0 must have length 2, got 3"),
            ("A", [[1.0, 0.0], [2.0]], "inhomogeneous"),
            ("n_x", "two", "invalid literal"),
            ("n_p", None, "int"),
            ("f", ["frobnicate", ["var", 0]], "unknown operator 'frobnicate'"),
            ("f", ["var", 2], "variable index 2 out of range for n_x=2"),
            ("g", [["var", 0], ["param", 0]], "parameter index 0 out of range"),
            ("h", [["var", True]], "malformed var node"),
            ("h", 7, "not iterable"),
        ],
    )
    def test_field_errors_name_the_subproblem_and_field(self, field, value, message):
        with pytest.raises(ValueError) as err:
            problem_from_dict(self.two_blocks(**{field: value}))
        assert str(err.value).startswith(f"subproblem 1: {field!r}: ")
        assert message in str(err.value)

    def test_block_without_variables_names_n_x(self):
        data = self.two_blocks(n_x=0, f=2.0, A=[[]])
        with pytest.raises(ValueError, match=r"^subproblem 1: 'n_x': .*at least one variable"):
            problem_from_dict(data)
