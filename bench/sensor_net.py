"""Seeded nonconvex sensor-network localization (Houska, Frasch & Diehl 2016, §6).

Sensors sit on a perturbed nx-by-ny grid.  Sensor i owns its 2-D position
chi_i; for every grid edge (i, j) with i < j it also keeps a copy c_ij of
sensor j's position, and two consensus rows pin that copy to chi_j.  Block i
minimizes

    1/4 sum_j (||chi_i - c_ij||^2 - eta_ij^2)^2 + 1/2 ||chi_i - xi_i||^2

subject to ||chi_i - xi_i||^2 <= r^2, where eta_ij is a noisy distance
measurement and xi_i a noisy position measurement.  Only the public aladin
API is used.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from aladin import SeparableProblem, Subproblem, VectorFunction, square, var


@dataclass(frozen=True)
class SensorData:
    """Measurements of one instance: positions xi (n x 2), edge lengths eta."""

    xi: np.ndarray
    eta: np.ndarray
    edges: tuple[tuple[int, int], ...]
    r: float


def grid_edges(nx, ny):
    """Edges (i, j), i < j, between horizontal and vertical grid neighbors."""
    edges = []
    for row in range(ny):
        for col in range(nx):
            i = row * nx + col
            if col + 1 < nx:
                edges.append((i, i + 1))
            if row + 1 < ny:
                edges.append((i, i + nx))
    return tuple(edges)


def sensor_data(seed, nx=6, ny=5, r=0.1, jitter=0.25, pos_noise=0.1,
                dist_noise=0.01):
    """Draw true positions on a jittered unit grid, then noisy measurements."""
    rng = np.random.default_rng(seed)
    n = nx * ny
    grid = np.array([(k % nx, k // nx) for k in range(n)], dtype=float)
    truth = grid + rng.uniform(-jitter, jitter, size=(n, 2))
    xi = truth + rng.normal(0.0, pos_noise, size=(n, 2))
    edges = grid_edges(nx, ny)
    eta = np.array([np.linalg.norm(truth[i] - truth[j]) for i, j in edges])
    eta = eta + rng.normal(0.0, dist_noise, size=len(edges))
    return SensorData(xi=xi, eta=eta, edges=edges, r=r)


def moved(data, seed):
    """The same network under a symmetry of the square and a shift drawn from seed.

    Distances, and with them the solver's work, are unchanged.  The symmetry
    is a signed permutation of the axes: a general rotation would change the
    infinity norms of the stopping tests and so the iteration count.
    """
    rng = np.random.default_rng(seed)
    R = np.eye(2)[rng.permutation(2)] * rng.choice([-1.0, 1.0], size=2)
    return replace(data, xi=data.xi @ R.T + rng.uniform(-1.0, 1.0, size=2))


def out_edges(data, k):
    """(edge index, far end) of every edge whose lower-index end is sensor k."""
    return [(e, j) for e, (i, j) in enumerate(data.edges) if i == k]


def build_problem(data):
    """One block per sensor; two consensus rows per edge."""
    xi, eta, r = data.xi, data.eta, data.r
    n_c = 2 * len(data.edges)
    subs = []
    for k in range(len(xi)):
        mine = out_edges(data, k)
        n_x = 2 + 2 * len(mine)
        anchor = square(var(0) - xi[k, 0]) + square(var(1) - xi[k, 1])
        f = 0.5 * anchor
        A = np.zeros((n_c, n_x))
        z0 = np.zeros(n_x)
        z0[:2] = xi[k]
        for m, (e, j) in enumerate(mine):
            cx, cy = 2 + 2 * m, 3 + 2 * m
            d2 = square(var(0) - var(cx)) + square(var(1) - var(cy))
            f = f + 0.25 * square(d2 - eta[e] ** 2)
            A[2 * e, cx] = 1.0
            A[2 * e + 1, cy] = 1.0
            z0[cx:cy + 1] = xi[j]
        for e, (_, j) in enumerate(data.edges):
            if j == k:
                A[2 * e, 0] = -1.0
                A[2 * e + 1, 1] = -1.0
        subs.append(
            Subproblem(
                VectorFunction([f], n_x),
                h=VectorFunction([anchor - r * r], n_x),
                A=A,
                z0=z0,
            )
        )
    return SeparableProblem(subs, b=np.zeros(n_c), name="sensor-net")


def block_vectors(data, X):
    """Per-block variables (own position, then copies) for positions X (n x 2)."""
    return [
        np.concatenate([X[k]] + [X[j] for _, j in out_edges(data, k)])
        for k in range(len(X))
    ]
