"""Command-line front end.

Two subcommands share one option surface:

    aladin solve <problem.json> [flags]
    aladin example <name> [flags]          # tutorial | coupled-qp | ocp-chain

Exit codes: 0 success, 1 malformed input, 2 solver failure, 3 stopped at the
iteration cap while --strict is set.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .driver import run_admm, run_aladin
from .errors import SolverError
from .examples_lib import EXAMPLE_NAMES, example_library
from .expr import DomainEvalError
from .problem import (
    HESSIAN_MODES, INNER_ALGS, VARIANTS, SolverOptions, load_problem_json, validate,
)


class _Parser(argparse.ArgumentParser):
    # malformed command lines are malformed input, not an internal error
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_solver_flags(p):
    p.add_argument("--algorithm", choices=("aladin", "admm"), default="aladin")
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--term-eps", type=float, default=None)
    p.add_argument("--step-size", type=float, default=None)
    p.add_argument("--sigma-init", type=float, default=None)
    p.add_argument("--mu-init", type=float, default=None)
    p.add_argument("--r-sigma", type=float, default=None)
    p.add_argument("--r-delta", type=float, default=None)
    p.add_argument("--sigma-max", type=float, default=None)
    p.add_argument("--delta-max", type=float, default=None)
    p.add_argument("--act-margin", type=float, default=None)
    p.add_argument("--hess", choices=HESSIAN_MODES, default=None)
    p.add_argument("--reg", dest="reg", action="store_true", default=None)
    p.add_argument("--no-reg", dest="reg", action="store_false")
    p.add_argument("--reg-param", type=float, default=None)
    p.add_argument("--variant", choices=VARIANTS, default=None)
    p.add_argument("--inner-alg", choices=INNER_ALGS, default=None)
    p.add_argument("--inner-iter", type=int, default=None)
    p.add_argument("--rho-adm", type=float, default=None)
    p.add_argument(
        "--warm-start", dest="warm_start", action="store_true", default=None
    )
    p.add_argument("--no-warm-start", dest="warm_start", action="store_false")
    p.add_argument("--del-up", action="store_true", default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--log-every", type=int, default=None)
    p.add_argument("--log", metavar="OUT.CSV", default=None,
                   help="write the iteration log as CSV")
    p.add_argument("--log-json", metavar="OUT.JSON", default=None,
                   help="write the iteration log as JSON")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when the iteration cap is hit")


# flags spelled differently from their option, and options left without a
# flag on purpose (the local tolerance floor is a library-level setting)
_RENAMED = {"hess": "hessian", "rho_adm": "rho_admm"}
_FLAGLESS = {"local_tol_floor"}
_FLAG_TO_OPTION = {
    **{
        f.name: f.name
        for f in fields(SolverOptions)
        if f.name not in _FLAGLESS and f.name not in _RENAMED.values()
    },
    **_RENAMED,
}


def _options_from_args(args):
    opts = SolverOptions()
    for flag, opt in _FLAG_TO_OPTION.items():
        val = getattr(args, flag, None)
        if val is not None:
            setattr(opts, opt, val)
    opts.check()
    return opts


def _report(title, algorithm, opts, sol):
    inner = opts.inner_alg if opts.variant == "bilevel" else "none"
    lines = [
        "=" * 56,
        f"  {title}",
        "=" * 56,
        f"algorithm:        {algorithm} ({opts.variant})"
        if algorithm == "aladin"
        else "algorithm:        admm",
        "local solver:     interior-point",
        f"inner algorithm:  {inner}",
        "",
        f"Termination: {sol.termination} ({sol.message})",
        f"Consensus violation: {sol.consensus_violation:.4e}",
        f"Objective: {sol.objective:.8g}",
        f"Iterations: {sol.iterations}",
        "",
        "----------------------  timing  -----------------------",
        "                      t[s]        %",
    ]
    total = max(sol.timers["total"], 1e-12)

    def row(label, key):
        t = sol.timers[key]
        return f"{label:<14s}:{t:10.3f} {100 * t / total:8.1f}"

    lines.append(row("total", "total"))
    lines.append(row("setup", "setup"))
    lines.append("---------")
    lines.append(row("local NLPs", "local"))
    lines.append(row("sensitivities", "sensitivity"))
    lines.append(row("coordination", "qp"))
    lines.append(row("inner (decent)", "inner"))
    lines.append("=" * 56)
    return "\n".join(lines)


def _build_parser():
    parser = _Parser(prog="aladin", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="solve a problem given as JSON")
    p_solve.add_argument("problem", help="path to the problem JSON file")
    _add_solver_flags(p_solve)
    p_ex = sub.add_parser("example", help="run a bundled example")
    p_ex.add_argument("name", help=f"one of: {', '.join(EXAMPLE_NAMES)}")
    _add_solver_flags(p_ex)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)

    try:
        if args.command == "solve":
            try:
                problem = load_problem_json(args.problem)
            except (OSError, ValueError, KeyError, TypeError) as err:
                print(f"error: cannot load problem: {err}", file=sys.stderr)
                return 1
            title = f"solve {args.problem}"
        else:
            try:
                problem = example_library(args.name)
            except KeyError as err:
                print(f"error: {err.args[0]}", file=sys.stderr)
                return 1
            title = f"example {args.name}"
        issues = validate(problem)
        if issues:
            print("error: invalid problem:", file=sys.stderr)
            for msg in issues:
                print(f"  - {msg}", file=sys.stderr)
            return 1
        opts = _options_from_args(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    try:
        runner = run_aladin if args.algorithm == "aladin" else run_admm
        sol = runner(problem, opts)
    except (SolverError, DomainEvalError) as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 2

    print(_report(title, args.algorithm, opts, sol))
    if args.log:
        sol.log.to_csv(args.log)
        print(f"iteration log written to {args.log}")
    if args.log_json:
        sol.log.to_json(args.log_json)
        print(f"iteration log written to {args.log_json}")
    if sol.termination == "error":
        print(f"solver error: {sol.message}", file=sys.stderr)
        return 2
    if args.strict and sol.termination == "max-iterations":
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
