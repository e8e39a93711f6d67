"""Dense symmetric-indefinite linear algebra (Bunch-Kaufman LDL^T).

``LdlFactor`` is LAPACK's sytrf.  ``LdlFactor.back_solve`` is one sytrs
call, in place; ``LdlFactor.solve`` adds a single step of iterative
refinement, and ``sym_solve``, which the coordination's dual system takes,
also checks the refined residual.  The local solver factors a lane's KKT
matrix here when it has equality rows, or when the positive definite test
of the steps without them (a Cholesky factorization) fails, and refines its
lanes' back-solves itself, with one stacked residual.  ``mv`` is the
matrix-vector product over leading lane axes that the lockstep layers share.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import SingularKktError

__all__ = ["LdlFactor", "mv", "sym_solve"]


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

    def back_solve(self, b):
        """Overwrite the float array b with the solution of K x = b, by one
        sytrs call and without refinement."""
        if self.n == 0:
            return
        x, info = lapack.dsytrs(self._ld, self._piv, b, lower=1, overwrite_b=1)
        if info != 0:  # only an illegal argument sets it
            raise SingularKktError(f"sytrs failed ({info})")
        if x is not b:  # sytrs worked on a copy (b not Fortran-contiguous)
            b[...] = x

    def solve(self, rhs):
        """Solve K x = rhs with one refinement step."""
        rhs = np.asarray(rhs, dtype=float)
        x = rhs.copy()
        self.back_solve(x)
        r = rhs - self.K @ x
        self.back_solve(r)
        return x + r

    def inertia(self):
        """(n_pos, n_neg, n_zero) eigenvalue counts from the block-diagonal D.

        A 1x1 pivot counts by its sign.  Bunch-Kaufman takes a 2x2 pivot
        block only where |a11| |a22| < alpha^2 b^2 < b^2, so a finite block
        has a negative determinant and one eigenvalue of each sign; a block
        whose determinant is not negative (a NaN entry) counts as two zeros.
        """
        npos = nneg = nzero = 0
        k = 0
        if self.n == 0:
            return npos, nneg, nzero
        # Python floats: the loop reads every pivot
        diag = self._ld.diagonal().tolist()
        sub = self._ld.diagonal(-1).tolist()
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
                if diag[k] * diag[k + 1] - sub[k] * sub[k] < 0:
                    npos += 1
                    nneg += 1
                else:
                    nzero += 2
                k += 2
        return npos, nneg, nzero


def mv(M, v):
    """M @ v over any leading lane axes, one BLAS call per lane.

    Each lane's product is bit for bit the 2-D ``M[i] @ v[i]``.
    """
    return (M @ v[..., None])[..., 0]


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
