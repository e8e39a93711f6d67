"""The benchmark's workloads.

Each workload builds its inputs from a seed, fixes the sequence of solves one
repetition runs, and supplies an independent reference for every solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from aladin import (
    SeparableProblem,
    SolverOptions,
    Subproblem,
    VectorFunction,
    coupled_qp,
    ocp_chain,
    run_admm,
    run_aladin,
    set_parameters,
    square,
    var,
)
from aladin import expr as ex
from oracle import qp_reference, sensor_reference
from sensor_net import block_vectors, build_problem, moved, sensor_data

# generator seed of the network every sensor-net seed moves rigidly
SENSOR_NETWORK = 11


@dataclass
class Step:
    """One solve of the sequence: the problem, and parameters to set first."""

    problem: object
    params: list | None = None  # per-block parameter vectors


@dataclass
class Instance:
    """A workload's solve sequence and the maker of its references."""

    steps: list
    reference: Callable[[], list]  # () -> per-step reference block vectors

    def problems(self):
        """The distinct problems of the sequence, in order."""
        return list({id(s.problem): s.problem for s in self.steps}.values())


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], Instance]
    opts: SolverOptions  # never parallel: that starts one thread per block;
    # log_every=1, whose progress lines mark the outer iterations run.py times
    tol: float  # allowed rel_err against the reference
    admm: bool = False

    def solve(self, problem):
        return (run_admm if self.admm else run_aladin)(problem, self.opts)


def _receding_horizon_states():
    # the initial states of test_receding_horizon_loop_matches_one_shot; the
    # loop's solves are chaotic in the state (a 1e-5 shift changes which
    # local solves of its cold first step hit max-iter, a seeded +-0.05
    # perturbation sends a quarter of the steps into 5-10 s tails), so the
    # states are fixed rather than drawn from the seed
    rng = np.random.default_rng(3)
    return [
        [(-1.0 + 0.2 * t + rng.uniform(-0.05, 0.05), 0.1 * t),
         (0.5, 0.05 * t),
         (2.5 - 0.2 * t, -0.05 * t)]
        for t in range(5)
    ]


def _mpc_chain(seed):
    # the loop's four later steps on one problem object, re-pointed at each
    # initial state by set_parameters.  The cold first step is left out: its
    # Sigma-growth tail is one 4-9 s solve, which leaves a 30-second run two
    # or three samples of each outer iteration, too few for a steady best
    # time on a shared host (its ten-run spread reached 0.45)
    problem = ocp_chain()
    steps = [Step(problem, params) for params in _receding_horizon_states()[1:]]

    def reference():
        out = []
        for step in steps:
            for i, p in enumerate(step.params):
                set_parameters(problem, i, p)
            out.append(qp_reference(problem))
        return out

    return Instance(steps, reference)


def _quadratic(Q, q):
    """1/2 y'Qy + q'y as an expression, term by term."""
    e = None
    for i in range(len(q)):
        terms = [0.5 * Q[i, i] * square(var(i)), q[i] * var(i)]
        terms += [Q[i, j] * var(i) * var(j) for j in range(i + 1, len(q))]
        for t in terms:
            e = t if e is None else e + t
    return e


def shifted_qp(problem, shifts):
    """An unconstrained-block QP rewritten in the variables y_i = x_i - d_i.

    Each block's quadratic 1/2 x'Qx + q'x becomes 1/2 y'Qy + (Q d_i + q)'y,
    the consensus right-hand side becomes b - sum A_i d_i and the start
    z0_i - d_i.  The solution moves by -d, and so do the iterates of
    run_admm and run_aladin, whose stopping norms are differences: the data
    change, the solvers' work does not.
    """
    subs, b = [], problem.b.copy()
    for sub, p, d in zip(problem.subproblems, problem.parameters, shifts):
        zero = np.zeros(len(sub.z0))
        Q = ex.lagrangian_hessian(
            sub.f, sub.g, sub.h, zero, p, np.zeros(sub.n_g), np.zeros(sub.n_h)
        )
        q = np.ravel(ex.gradient(sub.f, zero, p))
        subs.append(Subproblem(
            VectorFunction([_quadratic(Q, q + Q @ d)], len(q)),
            A=sub.A,
            z0=sub.z0 - d,
        ))
        b = b - sub.A @ d
    return SeparableProblem(subs, b=b, name=f"{problem.name}, shifted")


def _shifted_coupled_qp(n_blocks, block_size):
    # one fixed instance, moved by the seed: the work of a coupled_qp solve
    # varies between instances (ADMM's iteration count by a quarter,
    # 233-313; bilevel D-CG's time by a fifth), a shift keeps it
    def build(seed):
        base = coupled_qp(seed=42, n_blocks=n_blocks, block_size=block_size)
        rng = np.random.default_rng(seed)
        shifts = [rng.uniform(-1.0, 1.0, block_size) for _ in base.subproblems]
        step = Step(shifted_qp(base, shifts))
        return Instance([step], lambda: [qp_reference(step.problem)])

    return build


def _sensor_net(seed):
    # one fixed network, moved by the seed: drawing a new network per seed
    # changes the outer iterations by up to a half (8-17), which would
    # swamp the timing of the code
    data = moved(sensor_data(SENSOR_NETWORK), seed)
    return Instance(
        [Step(build_problem(data))],
        lambda: [block_vectors(data, sensor_reference(data))],
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mpc-chain",
            _mpc_chain,
            SolverOptions(term_eps=3e-9, log_every=1),
            tol=1e-6,
        ),
        Workload(
            "qp-wide",
            _shifted_coupled_qp(400, 2),
            SolverOptions(variant="bilevel", inner_alg="dcg", log_every=1),
            tol=1e-6,
        ),
        Workload(
            "sensor-net",
            _sensor_net,
            SolverOptions(variant="nullspace", log_every=1),
            tol=1e-6,
        ),
        Workload(
            "admm-chain",
            _shifted_coupled_qp(20, 3),
            SolverOptions(term_eps=1e-6, max_iter=1000, log_every=1),
            tol=1e-4,
            admm=True,
        ),
    )
}
