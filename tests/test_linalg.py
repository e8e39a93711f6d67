"""LDL^T inertia against the signs of the eigenvalues."""

import numpy as np

from aladin.linalg import LdlFactor


def test_inertia_counts_eigenvalue_signs_with_1x1_and_2x2_pivots():
    rng = np.random.default_rng(0)
    two_by_two = 0
    for _ in range(200):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(0, n + 1))  # B of full row rank: K is nonsingular
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((m, n))
        # saddle-point matrices with a zero block make Bunch-Kaufman pivot 2x2
        K = np.block([[A + A.T, B.T], [B, np.zeros((m, m))]])
        fac = LdlFactor(K)
        two_by_two += int((fac._piv < 0).any())
        ev = np.linalg.eigvalsh(K)
        tol = 1e-9 * np.abs(ev).max()
        want = (int((ev > tol).sum()), int((ev < -tol).sum()),
                int((np.abs(ev) <= tol).sum()))
        assert fac.inertia() == want
    assert two_by_two > 20
    assert LdlFactor(np.zeros((0, 0))).inertia() == (0, 0, 0)


def test_inertia_of_random_nonsingular_symmetric_matrices():
    # a 2x2 pivot block of Bunch-Kaufman has a negative determinant, so it
    # holds one eigenvalue of each sign; the counts match eigvalsh's signs
    rng = np.random.default_rng(1)
    two_by_two = 0
    for _ in range(2000):
        n = int(rng.integers(2, 9))
        M = rng.standard_normal((n, n))
        K = M + M.T
        # a small diagonal makes the off-diagonal entries dominate
        K[np.diag_indices(n)] *= rng.choice([1.0, 1e-2, 0.0])
        ev = np.linalg.eigvalsh(K)
        if np.abs(ev).min() <= 1e-8 * np.abs(ev).max():
            continue  # numerically singular: no sign to compare with
        fac = LdlFactor(K)
        diag, sub, piv = fac._ld.diagonal(), fac._ld.diagonal(-1), fac._piv
        k = 0
        while k < n:
            if piv[k] < 0:
                two_by_two += 1
                block = np.array([[diag[k], sub[k]], [sub[k], diag[k + 1]]])
                assert np.sign(np.linalg.eigvalsh(block)).tolist() == [-1.0, 1.0]
                k += 2
            else:
                k += 1
        assert fac.inertia() == (int((ev > 0).sum()), int((ev < 0).sum()), 0)
    assert two_by_two > 1000


def test_a_nan_2x2_pivot_block_counts_as_singular():
    fac = LdlFactor(np.array([[0.0, np.nan], [np.nan, 0.0]]))
    assert fac._piv.tolist() == [-2, -2]
    assert fac.inertia() == (0, 0, 2)
