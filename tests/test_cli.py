"""Command-line interface: exit codes, logs, reports, flag plumbing."""

import argparse
import json
from dataclasses import fields

import numpy as np
import pytest

from aladin.cli import _FLAG_TO_OPTION, _build_parser, _options_from_args, main
from aladin.examples_lib import tutorial
from aladin.problem import (
    HESSIAN_MODES, INNER_ALGS, VARIANTS, SolverOptions, problem_to_dict,
)

from test_driver import linear_block_problem


class TestExitCodes:
    def test_example_tutorial_ok(self, capsys, tmp_path):
        log = tmp_path / "t.csv"
        code = main(["example", "tutorial", "--term-eps", "1e-11", "--log", str(log)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Termination: tolerance-met" in out
        assert "Consensus violation" in out
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "iter,consensus_viol,local_step,qp_step,active_changes,comms_floats"
        viol = [float(line.split(",")[1]) for line in lines[1:]]
        assert viol[-1] <= 1e-10

    def test_missing_file_exit_1(self, capsys):
        assert main(["solve", "missing.json"]) == 1
        assert "cannot load problem" in capsys.readouterr().err

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == 1

    def test_invalid_problem_exit_1(self, tmp_path, capsys):
        data = problem_to_dict(tutorial())
        data["subproblems"][0]["A"] = [[1.0], [2.0]]  # row-count mismatch
        data["b"] = [0.0, 0.0]
        path = tmp_path / "inconsistent.json"
        path.write_text(json.dumps(data))
        assert main(["solve", str(path)]) == 1
        assert "invalid problem" in capsys.readouterr().err

    def test_strict_max_iter_exit_3(self, capsys):
        assert main(["example", "tutorial", "--max-iter", "1", "--strict"]) == 3

    def test_unknown_example_exit_1(self, capsys):
        assert main(["example", "nope"]) == 1

    def test_bad_flag_combination_exit_1(self, capsys):
        assert main(["example", "tutorial", "--del-up", "--variant", "bilevel"]) == 1

    @pytest.mark.parametrize("variant", ["fullspace", "nullspace"])
    def test_singular_reduced_hessian_exit_2(self, tmp_path, capsys, variant):
        path = tmp_path / "linear.json"
        path.write_text(json.dumps(problem_to_dict(linear_block_problem())))
        assert main(["solve", str(path), "--no-reg", "--variant", variant]) == 2
        err = capsys.readouterr().err
        assert "solver error: outer iteration 1: block 0: reduced Hessian" in err

    def test_unknown_flag_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["example", "tutorial", "--frobnicate"])
        assert exc.value.code == 1


class TestSolveFromJson:
    def test_round_trip_solve(self, tmp_path, capsys):
        path = tmp_path / "tut.json"
        path.write_text(json.dumps(problem_to_dict(tutorial())))
        code = main(["solve", str(path), "--term-eps", "1e-10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tolerance-met" in out

    def test_algorithm_admm(self, tmp_path, capsys):
        path = tmp_path / "tut.json"
        path.write_text(json.dumps(problem_to_dict(tutorial())))
        code = main(
            ["solve", str(path), "--algorithm", "admm", "--max-iter", "60",
             "--term-eps", "1e-3"]
        )
        assert code == 0
        assert "admm" in capsys.readouterr().out

    def test_variant_and_inner_flags(self, capsys, tmp_path):
        log = tmp_path / "b.json"
        code = main(
            ["example", "tutorial", "--variant", "bilevel", "--inner-alg", "dcg",
             "--inner-iter", "4", "--term-eps", "1e-10", "--log-json", str(log)]
        )
        assert code == 0
        data = json.loads(log.read_text())
        assert any(rec["comms_floats"] > 0 for rec in data)

    def test_hessian_flag(self, capsys):
        code = main(["example", "tutorial", "--hess", "dbfgs", "--term-eps", "1e-9"])
        assert code == 0

    def test_report_shows_timings(self, capsys):
        main(["example", "tutorial", "--term-eps", "1e-9"])
        out = capsys.readouterr().out
        for label in ("local NLPs", "coordination", "setup", "total"):
            assert label in out


def _example_flag_actions():
    """dest -> the flag actions of the ``example`` subcommand."""
    parser = _build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    by_dest = {}
    for action in sub.choices["example"]._actions:
        if action.option_strings:
            by_dest.setdefault(action.dest, []).append(action)
    return parser, by_dest


def _non_default_argvs(actions, default):
    """Command-line fragments that ask for a value other than ``default``."""
    for action in actions:
        flag = action.option_strings[0]
        if action.nargs == 0:
            if action.const != default:
                yield [flag], action.const
        elif action.choices:
            value = next(c for c in action.choices if c != default)
            yield [flag, value], value
        elif action.type is int:
            yield [flag, str(default + 1)], default + 1
        else:
            for value in (1.5 * default, 0.75 * default):
                yield [flag, repr(value)], value


class TestFlagMap:
    def test_every_option_but_the_floor_has_a_flag(self):
        names = {f.name for f in fields(SolverOptions)}
        assert set(_FLAG_TO_OPTION.values()) == names - {"local_tol_floor"}
        assert _FLAG_TO_OPTION["hess"] == "hessian"
        assert _FLAG_TO_OPTION["rho_adm"] == "rho_admm"

    @pytest.mark.parametrize(
        "option",
        [f.name for f in fields(SolverOptions) if f.name != "local_tol_floor"],
    )
    def test_option_settable_from_its_flag(self, option):
        parser, by_dest = _example_flag_actions()
        flag = next(k for k, v in _FLAG_TO_OPTION.items() if v == option)
        default = getattr(SolverOptions(), option)
        for argv, value in _non_default_argvs(by_dest[flag], default):
            args = parser.parse_args(["example", "tutorial", *argv])
            try:
                opts = _options_from_args(args)
            except ValueError:
                continue  # out of the option's range; try the next value
            assert getattr(opts, option) == value != default
            return
        pytest.fail(f"no flag sets {option} to a valid non-default value")

    @pytest.mark.parametrize(
        "flag, option, values",
        [("hess", "hessian", HESSIAN_MODES), ("variant", "variant", VARIANTS),
         ("inner_alg", "inner_alg", INNER_ALGS)],
    )
    def test_every_listed_choice_parses_into_the_options(self, flag, option, values):
        parser, by_dest = _example_flag_actions()
        (action,) = by_dest[flag]
        assert tuple(action.choices) == values
        for value in values:
            argv = ["example", "tutorial", action.option_strings[0], value]
            args = parser.parse_args(argv)
            assert getattr(_options_from_args(args), option) == value
