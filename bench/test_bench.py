"""Tests of the benchmark's inputs, references and correctness check.

    python3 -m pytest bench/test_bench.py -q
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from aladin import SolverOptions, run_aladin  # noqa: E402
from aladin import expr as ex  # noqa: E402
from oracle import box_qp, check, qp_reference, sensor_reference  # noqa: E402
from sensor_net import block_vectors, build_problem, moved, sensor_data  # noqa: E402
from workloads import WORKLOADS, shifted_qp  # noqa: E402


def _fingerprint(inst):
    """Everything the solves see: data, start, bounds, the functions near z0."""
    out = []
    for step in inst.steps:
        out += [step.params, step.problem.b]
        for sub, p in zip(step.problem.subproblems, step.problem.parameters):
            x = sub.z0 + 0.1
            out += [sub.A, sub.z0, sub.lb, sub.ub, p,
                    ex.evaluate(sub.f, x, p), ex.evaluate(sub.g, x, p),
                    ex.evaluate(sub.h, x, p)]
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generators_are_deterministic_under_a_seed(name):
    a = _fingerprint(WORKLOADS[name].build(7))
    b = _fingerprint(WORKLOADS[name].build(7))
    assert len(a) == len(b)
    for u, v in zip(a, b):
        if isinstance(u, np.ndarray):
            np.testing.assert_array_equal(u, v)
        else:
            assert u == v


def test_seeds_change_the_instances():
    assert not np.array_equal(sensor_data(1).xi, sensor_data(2).xi)
    assert not np.array_equal(sensor_data(1).eta, sensor_data(2).eta)
    a = _fingerprint(WORKLOADS["sensor-net"].build(1))
    b = _fingerprint(WORKLOADS["sensor-net"].build(2))
    assert not np.array_equal(a[3], b[3])  # the first block's z0


def test_moved_network_keeps_its_distances():
    data = sensor_data(0)
    for seed in range(4):
        m = moved(data, seed)
        np.testing.assert_array_equal(m.eta, data.eta)
        gap = np.linalg.norm(m.xi[:, None] - m.xi[None], axis=-1)
        np.testing.assert_allclose(
            gap, np.linalg.norm(data.xi[:, None] - data.xi[None], axis=-1),
            atol=1e-12,
        )


def test_sensor_net_shape():
    problem = build_problem(sensor_data(0))
    assert (problem.n_s, problem.n_c) == (30, 98)
    assert all(sub.n_h == 1 for sub in problem.subproblems)


def test_check_accepts_the_reference_and_rejects_perturbed_solutions():
    # coupled_qp blocks of size 3: variable 2 of a block is in no consensus row
    problem = WORKLOADS["admm-chain"].build(0).steps[0].problem
    ref = qp_reference(problem)

    def sol(xs):
        return SimpleNamespace(xs=xs)

    assert check(problem, sol([x.copy() for x in ref]), ref, 1e-6, 1e-4) is None

    off = [x.copy() for x in ref]
    off[3][2] += 1e-3
    assert "off the reference" in check(problem, sol(off), ref, 1e-6, 1e-4)

    split = [x.copy() for x in ref]
    split[3][0] += 1e-4
    assert "consensus violation" in check(problem, sol(split), ref, 1e-6, 1e-3)

    assert "raised" in check(problem, ValueError("boom"), ref, 1e-6, 1e-4)


def test_shifted_qp_moves_the_solution_by_the_shift():
    from aladin import coupled_qp

    base = coupled_qp(seed=3, n_blocks=5, block_size=3)
    rng = np.random.default_rng(0)
    shifts = [rng.uniform(-1.0, 1.0, 3) for _ in base.subproblems]
    moved_ref = qp_reference(shifted_qp(base, shifts))
    for y, x, d in zip(moved_ref, qp_reference(base), shifts):
        np.testing.assert_allclose(y + d, x, atol=1e-12)


def test_box_qp_holds_the_active_bound():
    # min 1/2 |x|^2 - 2 x1 + 0.5 x2  s.t.  x1 + x2 = 1, 0 <= x <= 1: the
    # equality-only optimum has x2 = -0.75, so x2 sits at its lower bound
    x = box_qp(np.eye(2), np.array([-2.0, 0.5]), np.array([[1.0, 1.0]]),
               np.array([1.0]), np.zeros(2), np.ones(2))
    np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-14)


def test_sensor_reference_matches_aladin_on_a_small_grid():
    data = sensor_data(0, nx=3, ny=3)
    problem = build_problem(data)
    sol = run_aladin(problem, SolverOptions(variant="nullspace"))
    ref = block_vectors(data, sensor_reference(data))
    assert check(problem, sol, ref, 1e-8, 1e-6) is None
