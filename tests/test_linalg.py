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
