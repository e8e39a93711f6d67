"""Dense symmetric-indefinite linear algebra (Bunch-Kaufman LDL^T).

One internal routine backs every KKT solve in the library.  The factorization
is LAPACK's sytrf; solves get a single step of iterative refinement and a
residual check.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import SingularKktError

__all__ = ["LdlFactor", "sym_solve"]


class LdlFactor:
    """Bunch-Kaufman LDL^T factorization of a dense symmetric matrix."""

    def __init__(self, K):
        K = np.asarray(K, dtype=float)
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise ValueError("matrix must be square")
        self.n = K.shape[0]
        self.K = K
        if self.n == 0:
            self._ld, self._piv = None, None
            return
        ld, piv, info = lapack.dsytrf(K, lower=1)
        if info > 0:
            raise SingularKktError(
                f"symmetric factorization found an exactly singular block (k={info})"
            )
        if info < 0:
            raise SingularKktError(f"illegal argument to sytrf ({info})")
        self._ld, self._piv = ld, piv

    def solve(self, rhs):
        """Solve K x = rhs with one refinement step."""
        rhs = np.asarray(rhs, dtype=float)
        if self.n == 0:
            return np.zeros_like(rhs)
        x, info = lapack.dsytrs(self._ld, self._piv, rhs, lower=1)
        if info != 0:
            raise SingularKktError(f"sytrs failed ({info})")
        x = np.asarray(x).reshape(rhs.shape)
        r = rhs - self.K @ x
        dx, info = lapack.dsytrs(self._ld, self._piv, r, lower=1)
        if info == 0:
            x = x + np.asarray(dx).reshape(rhs.shape)
        return x

    def inertia(self):
        """(n_pos, n_neg, n_zero) eigenvalue counts from the block-diagonal D."""
        npos = nneg = nzero = 0
        k = 0
        if self.n == 0:
            return npos, nneg, nzero
        # Python floats: the loop reads every pivot
        diag = np.diagonal(self._ld).tolist()
        sub = np.diagonal(self._ld, -1).tolist()
        piv = self._piv.tolist()
        while k < self.n:
            if piv[k] > 0:
                d = diag[k]
                if d > 0:
                    npos += 1
                elif d < 0:
                    nneg += 1
                else:
                    nzero += 1
                k += 1
            else:
                # 2x2 pivot block; Bunch-Kaufman picks these indefinite, but
                # derive the signs from trace/determinant to be safe
                a, b_, c = diag[k], sub[k], diag[k + 1]
                det = a * c - b_ * b_
                tr = a + c
                if det < 0:
                    npos += 1
                    nneg += 1
                elif det > 0:
                    if tr > 0:
                        npos += 2
                    else:
                        nneg += 2
                else:
                    nzero += 1
                    if tr > 0:
                        npos += 1
                    elif tr < 0:
                        nneg += 1
                    else:
                        nzero += 1
                k += 2
        return npos, nneg, nzero


def sym_solve(K, rhs):
    """Solve a dense symmetric indefinite system and verify the residual.

    Raises SingularKktError when the factorization breaks down or the
    refined residual exceeds 1e-8 * (1 + ||rhs||_inf).
    """
    rhs = np.asarray(rhs, dtype=float)
    x = LdlFactor(K).solve(rhs)
    scale = 1.0 + (np.abs(rhs).max() if rhs.size else 0.0)
    res = np.abs(rhs - K @ x).max() if rhs.size else 0.0
    if not np.isfinite(res) or res > 1e-8 * scale:
        raise SingularKktError(
            f"KKT solve residual {res:.3e} exceeds 1e-8 * (1 + ||rhs||)"
        )
    return x
