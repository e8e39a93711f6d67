"""The row-index topology against the all-pairs construction it replaced."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from aladin.decentral import Topology, build_topology, topology_from_rows
from aladin.examples_lib import coupled_qp, ocp_chain

BENCH = Path(__file__).resolve().parent.parent / "bench"


def all_pairs_topology(n_c, row_sets):
    """Reference: compare every pair of agents (O(n_agents^2) set work)."""
    rows = [np.array(sorted(set(int(c) for c in rs)), dtype=int) for rs in row_sets]
    for r in rows:
        if r.size and (r.min() < 0 or r.max() >= n_c):
            raise ValueError("row index out of range")
    multiplicity = np.zeros(n_c, dtype=int)
    for r in rows:
        multiplicity[r] += 1
    uncovered = np.flatnonzero(multiplicity == 0)
    if uncovered.size:
        raise ValueError(
            f"consensus rows {uncovered.tolist()} are covered by no subproblem"
        )
    n = len(rows)
    neighbors = [[] for _ in range(n)]
    overlap = {}
    for i in range(n):
        set_i = set(rows[i].tolist())
        pos_i = {c: k for k, c in enumerate(rows[i].tolist())}
        for j in range(n):
            if i == j:
                continue
            shared = sorted(set_i & set(rows[j].tolist()))
            if shared:
                neighbors[i].append(j)
                overlap[(i, j)] = np.array([pos_i[c] for c in shared], dtype=int)
    return Topology(
        n_c=n_c, rows=rows, neighbors=neighbors, overlap=overlap,
        multiplicity=multiplicity,
    )


def assert_same_topology(top, ref):
    assert top.n_c == ref.n_c
    assert len(top.rows) == len(ref.rows)
    for r, r_ref in zip(top.rows, ref.rows):
        assert r.dtype == r_ref.dtype
        np.testing.assert_array_equal(r, r_ref)
    assert top.neighbors == ref.neighbors
    assert list(top.overlap) == list(ref.overlap)
    for key, idx in ref.overlap.items():
        assert top.overlap[key].dtype == idx.dtype
        np.testing.assert_array_equal(top.overlap[key], idx)
    assert top.multiplicity.dtype == ref.multiplicity.dtype
    np.testing.assert_array_equal(top.multiplicity, ref.multiplicity)


def sensor_problem():
    spec = importlib.util.spec_from_file_location(
        "sensor_net_for_topology", BENCH / "sensor_net.py"
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolve their module by name
    spec.loader.exec_module(mod)
    return mod.build_problem(mod.sensor_data(11))


@pytest.mark.parametrize("seed", range(40))
def test_random_row_sets_match_all_pairs(seed):
    rng = np.random.default_rng(seed)
    n_c = int(rng.integers(1, 16))
    n_agents = int(rng.integers(1, 9))
    while True:
        row_sets = []
        for _ in range(n_agents):
            k = int(rng.integers(0, n_c + 1))
            rs = rng.choice(n_c, size=k, replace=False).tolist()
            # unsorted, with repeats: both constructions normalize the sets
            row_sets.append(rs + rs[: int(rng.integers(0, k + 1))])
        if len(set(c for rs in row_sets for c in rs)) == n_c:
            break
    # agents with no rows, anywhere in the order
    for _ in range(int(rng.integers(0, 3))):
        row_sets.insert(int(rng.integers(0, len(row_sets) + 1)), [])
    assert_same_topology(
        topology_from_rows(n_c, row_sets), all_pairs_topology(n_c, row_sets)
    )


@pytest.mark.parametrize("seed", range(12))
def test_out_of_range_rows_fail_before_the_coverage_check(seed):
    rng = np.random.default_rng(100 + seed)
    n_c = int(rng.integers(2, 12))
    # rows 0 and n_c - 1 stay uncovered, so both checks would fail
    row_sets = [
        rng.choice(np.arange(1, n_c - 1), size=int(rng.integers(0, n_c - 1)),
                   replace=True).tolist()
        for _ in range(int(rng.integers(1, 6)))
    ]
    bad = -int(rng.integers(1, 4)) if seed % 2 else n_c + int(rng.integers(0, 3))
    row_sets[int(rng.integers(0, len(row_sets)))].append(bad)
    with pytest.raises(ValueError) as ref_err:
        all_pairs_topology(n_c, row_sets)
    with pytest.raises(ValueError) as err:
        topology_from_rows(n_c, row_sets)
    assert str(err.value) == str(ref_err.value) == "row index out of range"


@pytest.mark.parametrize(
    "problem",
    [coupled_qp(), coupled_qp(n_blocks=12, block_size=3), ocp_chain(),
     sensor_problem()],
    ids=["coupled-qp", "coupled-qp-12x3", "ocp-chain", "sensor-net"],
)
def test_problem_topologies_match_all_pairs(problem):
    row_sets = [
        np.flatnonzero(np.any(s.A != 0.0, axis=1)).tolist()
        for s in problem.subproblems
    ]
    top = build_topology(problem)
    assert_same_topology(top, all_pairs_topology(problem.n_c, row_sets))
    assert len(top.overlap) > 0


def test_errors_match_all_pairs():
    for n_c, row_sets in ((3, [[0], [1]]), (2, [[0, 2]]), (2, [[-1, 0, 1]])):
        with pytest.raises(ValueError) as ref_err:
            all_pairs_topology(n_c, row_sets)
        with pytest.raises(ValueError) as err:
            topology_from_rows(n_c, row_sets)
        assert str(err.value) == str(ref_err.value)


def test_copies_follow_rows_and_multiplicity():
    top = topology_from_rows(5, [[0, 1], [1, 2], [], [3], [2, 3, 4], [0, 4]])
    lay = top.copies
    assert lay is top.copies  # built once, kept on the topology
    np.testing.assert_array_equal(lay.cat_rows, [0, 1, 1, 2, 3, 2, 3, 4, 0, 4])
    np.testing.assert_array_equal(lay.inv_mult, 1.0 / top.multiplicity[lay.cat_rows])
    assert [pos.shape[1] for _, pos in lay.groups] == [1, 2, 3]
    for agents, pos in lay.groups:
        for a, idx in zip(agents, pos):
            np.testing.assert_array_equal(lay.cat_rows[idx], top.rows[a])
    assert sorted(a for agents, _ in lay.groups for a in agents) == [0, 1, 3, 4, 5]
