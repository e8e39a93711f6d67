"""The benchmark workloads' solve counts at seed 1, pinned.

One repetition of each workload of ``bench/workloads.py`` (read through
``sys.path``) at seed 1 must keep, for a change that claims bit-identical
trajectories:

- its outer iterations, summed over the repetition's solves;
- its Newton steps, the sum of the ``newton_steps`` of every solve's
  iteration records, whichever way each step was factored;
- the sizes of the lockstep groups of every solve's blocks;
- the distinct instruction lists (``code``) of all its blocks' root sets
  once compiled: functions of one structure share their representative's,
  so qp-wide and admm-chain hold one per tape key;
- its generated programs, counted in their process-wide tables, emptied
  before the workload: a scalar and a wavefront program per key that runs
  on one lane and on several.  They differ from the instruction lists
  because a constant tape (the QPs' Hessians, the empty tape of an absent g
  or h) runs no program, lists of one key share theirs, and programs also
  run the objective's output tapes, which are no root sets, and the fold
  replays that give each function of a structure its constants: a
  wavefront program for each fold tape with instructions, whatever the
  number of functions it serves (mpc-chain's structure of one other
  function included), and none for a fold tape without;
- no tape's instructions run one at a time (``_Tape._interpret``), which
  happens only where a program raised a DomainEvalError.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from aladin import expr as ex
from aladin import set_parameters
from aladin.local import _root_sets, group_blocks

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import WORKLOADS  # noqa: E402

# outer iterations, Newton steps, lockstep group sizes, instruction lists,
# (scalar, wavefront) programs
PINS = {
    "mpc-chain": (17, 504, [2, 1], 11, (7, 2)),
    "qp-wide": (4, 1600, [400], 3, (2, 2)),
    "sensor-net": (12, 1218, [20, 9, 1], 16, (12, 9)),
    "admm-chain": (244, 4880, [20], 3, (2, 2)),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(PINS))
def test_workload_counts_at_seed_1(name, monkeypatch):
    iters, steps, sizes, codes, programs = PINS[name]
    loops = []
    interpret = ex._Tape._interpret

    def counted(tape, xs, ps):
        loops.append(tape)
        return interpret(tape, xs, ps)

    monkeypatch.setattr(ex._Tape, "_interpret", counted)
    ex._scalar_program.cache_clear()
    ex._wavefronts.cache_clear()
    w, outer, newton = WORKLOADS[name], 0, 0
    for step in w.build(1).steps:
        for i, p in enumerate(step.params or ()):
            set_parameters(step.problem, i, p)
        assert [len(g) for g in group_blocks(step.problem.subproblems)] == sizes
        tapes = [t for s in step.problem.subproblems for t in _root_sets(s)]
        assert len({id(t.code) for t in tapes if t is not None}) == codes
        with contextlib.redirect_stdout(io.StringIO()):
            sol = w.solve(step.problem)
        outer += sol.iterations
        newton += sum(rec.newton_steps for rec in sol.log.records)
    assert (outer, newton) == (iters, steps)
    made = (ex._scalar_program.cache_info().currsize,
            ex._wavefronts.cache_info().currsize)
    assert made == programs
    assert not loops, f"{len(loops)} tapes ran their instructions one at a time"
