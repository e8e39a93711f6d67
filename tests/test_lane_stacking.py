"""Stacked numpy linear algebra equals the 2-D call on every lane, bit for bit.

The lockstep layers run one call over a lanes-first stack of blocks and
promise each block the result it would get alone.  That holds because the
stacked ``matmul`` (matrix @ matrix, matrix @ column, row @ column),
``linalg.solve``, ``cholesky``, ``eigh``, ``eigvalsh`` and ``svd`` run the
same LAPACK or BLAS kernel on each lane.  ``einsum`` does not, and is not
used.  The shapes below are those the sensitivity layer produces: active
Jacobians from empty (k, 0, n) through 1x2 to 13x27 and 27x14, reduced
Hessians up to 27x27, and compact coupling matrices.  The local solver's
steps without equality rows add the Cholesky route: the factorization, which
must also raise for a stack with one indefinite lane, and two solves with a
refinement residual between them, on 2x2 to 10x10 stacks of 1 to 33 lanes.
The outer loop adds three forms: a stack of matrices against one shared
vector, the axis-0 add-reduce that sums the consensus in block order (from
``initial=-0.0``: by default the reduce starts at +0.0, which turns a column
of -0.0 into +0.0), and the per-lane infinity norm.  The lane tapes add the
elementwise form: each operator's ufunc applied once to a gathered (k, L)
stack of register rows, written through ``out=`` into a block of rows, must
give every row what a call on that row alone gives.  A numpy or BLAS build
where this fails breaks the bit-identity of every lockstep trajectory.
"""

import numpy as np
import pytest

from aladin import expr as ex

LANES = 7
MATRIX_SHAPES = [(0, 4), (1, 2), (2, 2), (3, 3), (5, 5), (13, 27), (27, 14), (27, 27)]
SQUARE = [1, 2, 3, 5, 14, 27]


def same(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def lanes_equal(stacked, one_lane, *stacks):
    """stacked(*stacks) against one_lane on each lane's 2-D slices."""
    out = stacked(*stacks)
    outs = out if isinstance(out, tuple) else (out,)
    for j in range(LANES):
        want = one_lane(*(a[j] for a in stacks))
        wants = want if isinstance(want, tuple) else (want,)
        for o, w in zip(outs, wants):
            assert same(o[j], np.asarray(w)), j


def spd(rng, n):
    M = rng.standard_normal((LANES, n, n))
    return M @ M.swapaxes(-1, -2) + n * np.eye(n)


@pytest.mark.parametrize("m, n", MATRIX_SHAPES, ids=lambda v: str(v))
def test_matmul(m, n):
    rng = np.random.default_rng(m * 100 + n)
    A = rng.standard_normal((LANES, m, n))
    B = rng.standard_normal((LANES, n, 3))
    v = rng.standard_normal((LANES, n))
    w = rng.standard_normal((LANES, m))
    lanes_equal(lambda X, Y: X @ Y, lambda X, Y: X @ Y, A, B)
    # transposed views on either side, as Z'HZ and A'lam take them
    lanes_equal(lambda X, Y: X.swapaxes(-1, -2) @ Y, lambda X, Y: X.T @ Y, A, A)
    lanes_equal(lambda X, Y: X @ Y.swapaxes(-1, -2), lambda X, Y: X @ Y.T, A, A)
    lanes_equal(lambda X, y: (X @ y[..., None])[..., 0], lambda X, y: X @ y, A, v)
    lanes_equal(
        lambda X, y: (X.swapaxes(-1, -2) @ y[..., None])[..., 0], lambda X, y: X.T @ y,
        A, w,
    )
    # u . v and the 2-norm, as bfgs_update takes them
    lanes_equal(
        lambda u, y: (u[..., None, :] @ y[..., :, None])[..., 0, 0],
        lambda u, y: np.float64(u @ y), v, v[::-1],
    )
    lanes_equal(
        lambda u: np.sqrt((u[..., None, :] @ u[..., :, None])[..., 0, 0]),
        np.linalg.norm, v,
    )


@pytest.mark.parametrize("n", SQUARE)
def test_solve_eigh_eigvalsh(n):
    rng = np.random.default_rng(n)
    H = spd(rng, n)
    S = rng.standard_normal((LANES, n, n))
    S = S + S.swapaxes(-1, -2)
    rhs = rng.standard_normal((LANES, n, 4))
    lanes_equal(np.linalg.solve, np.linalg.solve, H, rhs)
    lanes_equal(np.linalg.eigh, np.linalg.eigh, S)
    lanes_equal(np.linalg.eigvalsh, np.linalg.eigvalsh, S)


@pytest.mark.parametrize(
    "m, n", [s for s in MATRIX_SHAPES if s[0]], ids=lambda v: str(v)
)
def test_svd(m, n):
    rng = np.random.default_rng(7 * m + n)
    C = rng.standard_normal((LANES, m, n))
    lanes_equal(np.linalg.svd, np.linalg.svd, C)


# -- the local solver's Cholesky route -------------------------------------------

# admm-chain's 3x3 and qp-wide's 2x2 systems, and a wider one
CHOLESKY_SIZES = [2, 3, 10]


def pd_stack(rng, L, n):
    """L positive definite matrices, some with the barrier's spread of
    diagonal magnitudes."""
    M = rng.standard_normal((L, n, n))
    K = M @ M.swapaxes(-1, -2) + 0.1 * np.eye(n)
    d = 10.0 ** rng.integers(-2, 9, (L, n))
    d[::2] = 1.0
    return K * np.sqrt(d[:, :, None] * d[:, None, :])


@pytest.mark.parametrize("n", CHOLESKY_SIZES)
def test_cholesky_route_per_lane(n):
    # the stacked route of a step without equality rows against the 2-D
    # calls on each lane: the factorization, the solve, the refinement
    # residual on a column and the refined solve
    for L in range(1, 34):  # through the SIMD widths and their tails
        rng = np.random.default_rng(100 * L + n)
        K = pd_stack(rng, L, n)
        b = rng.standard_normal((L, n))
        C = np.linalg.cholesky(K)
        X = np.linalg.solve(K, b[..., None])
        R = b[..., None] - K @ X
        X2 = X + np.linalg.solve(K, R)
        for j in range(L):
            assert same(C[j], np.linalg.cholesky(K[j])), (L, j)
            x = np.linalg.solve(K[j], b[j])
            assert same(X[j, :, 0], x), (L, j)
            r = b[j] - K[j] @ x
            assert same(R[j, :, 0], r), (L, j)
            assert same(X2[j, :, 0], x + np.linalg.solve(K[j], r)), (L, j)


@pytest.mark.parametrize("n", CHOLESKY_SIZES)
def test_stacked_cholesky_raises_for_one_indefinite_lane(n):
    # the local solver takes every lane alone after this error, so it must
    # come whichever lane is indefinite, and not come without one
    for L in range(1, 34):
        rng = np.random.default_rng(200 * L + n)
        K = pd_stack(rng, L, n)
        np.linalg.cholesky(K)
        j = int(rng.integers(L))
        K[j, n - 1, n - 1] = -1.0 - np.abs(K[j]).max()
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(K)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(K[j])


# -- the outer loop's forms ----------------------------------------------------

# (lanes, n_x, n_c) of the ADMM z-step and the coupling products: admm-chain,
# qp-wide, and a wider block
OUTER_SHAPES = [(20, 3, 19), (400, 2, 399), (7, 27, 13)]


@pytest.mark.parametrize("L, n, n_c", OUTER_SHAPES, ids=lambda v: str(v))
def test_mv_against_a_shared_vector(L, n, n_c):
    # the z-step's A_i^+ nu and the local solver's A_i' lam: one vector for
    # every lane, against each slice's 2-D product
    rng = np.random.default_rng(L + n + n_c)
    P = rng.standard_normal((L, n, n_c))
    A = rng.standard_normal((L, n_c, n))
    A[:, ::3] = 0.0
    nu = rng.standard_normal(n_c)
    for M in (P, A.swapaxes(-1, -2)):
        out = (M @ nu[..., None])[..., 0]
        for j in range(L):
            assert same(out[j], M[j] @ nu), j


@pytest.mark.parametrize("L, n, n_c", OUTER_SHAPES, ids=lambda v: str(v))
def test_axis0_reduce_is_the_sequential_sum(L, n, n_c):
    # the consensus sum ((-b + t_0) + t_1) + ...: rows of mixed sign and
    # magnitude, exact zeros of both signs, some columns all zero
    rng = np.random.default_rng(3 * L + n_c)
    T = rng.standard_normal((L + 1, n_c)) * 10.0 ** rng.integers(-8, 8, (L + 1, n_c))
    T[rng.random(T.shape) < 0.3] = 0.0
    T[rng.random(T.shape) < 0.5] *= -1.0
    T[:, ::5] = np.where(rng.random((L + 1, 1)) < 0.5, 0.0, -0.0)
    T[:, 1] = -0.0
    want = T[0].copy()
    for t in T[1:]:
        want += t
    assert same(np.add.reduce(T, axis=0, initial=-0.0), want)
    # and in pieces: the sum so far heads the next piece
    part = np.add.reduce(T[: L // 2 + 1], axis=0, initial=-0.0)
    rest = np.concatenate([part[None], T[L // 2 + 1:]])
    assert same(np.add.reduce(rest, axis=0, initial=-0.0), want)


@pytest.mark.parametrize("n", SQUARE)
def test_inf_norm_per_lane(n):
    # update_sigma's gate: the largest absolute row sum of each lane
    S = spd(np.random.default_rng(n), n) - 0.5 * n
    lanes_equal(
        lambda M: np.abs(M).sum(axis=-1).max(axis=-1),
        lambda M: np.float64(np.linalg.norm(M, np.inf)), S,
    )


# -- the lane tapes' batches -----------------------------------------------------

UFUNC_OPS = [op for op, entry in ex._OPS.items() if entry.ufunc is not None]
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308, np.inf, -np.inf, np.nan,
           -np.nan, 1e300, -1e300, 1e-300, 1.0, -1.0, 0.5, 2.0, 3.0]


def registers(rng, L):
    """Rows of special and random values over L lanes, every special value
    in every lane position of some row."""
    special = np.array(SPECIAL)
    rows = [np.roll(special, j)[np.arange(L) % special.size] for j in range(special.size)]
    rows += list(rng.standard_normal((12, L)) * 10.0 ** rng.integers(-300, 300, (12, L)))
    return np.array(rows)


def same_or_nan(got, want):
    """Bit for bit, except that a NaN matches any NaN: IEEE 754 leaves the
    sign of a NaN result open, and numpy's loops differ in the sign of
    nan + -nan.  A NaN fails a lane's evaluation whatever its sign."""
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("op", UFUNC_OPS)
def test_batched_ufunc_equals_each_rows_call(op):
    entry = ex._OPS[op]
    unary = op in ex.UNARY_OPS
    for L in range(1, 34):  # through the SIMD widths and their tails
        rng = np.random.default_rng(1000 * L + len(op))
        R = registers(rng, L)
        k = 9
        a = rng.integers(len(R), size=k)
        b = rng.integers(len(R), size=k)
        # gathered operands, and contiguous runs taken as views
        for A, B in ((R.take(a, axis=0), R.take(b, axis=0)), (R[3:3 + k], R[5:5 + k])):
            args = (A,) if unary else (A, B)
            out = np.zeros((len(R) + k, L))
            with np.errstate(all="ignore"):
                if entry.outside is None:
                    entry.ufunc(*args, out=out[len(R):])
                    skip = np.zeros((k, L), dtype=bool)
                else:
                    skip = entry.outside(*args)
                    entry.ufunc(*args, out=out[len(R):], where=~skip)
                for i in range(k):
                    want = entry.ufunc(*(u[i] for u in args))
                    got = out[len(R) + i]
                    assert same_or_nan(got[~skip[i]], want[~skip[i]]), (L, i)
                    # a skipped entry keeps what the row held
                    assert not got[skip[i]].any()
