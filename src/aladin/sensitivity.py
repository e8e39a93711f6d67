"""Per-block sensitivities for the coordination step.

Covers active-set detection over the combined inequality vector
``h~ = (h, lb - x, x - ub)``, active-constraint Jacobians, eigenvalue-flip
regularization, (damped) BFGS updates, nullspace bases, and the reduced /
Schur-complement quantities the coordination's dual system is built from.
All operations are pure per-block computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as ex
from .errors import LicqError, SingularKktError

__all__ = [
    "ActiveSet",
    "SensitivityPack",
    "ReducedBlock",
    "detect_active",
    "active_jacobian",
    "regularize",
    "bfgs_update",
    "nullspace_basis",
    "coupling_rows",
    "reduce_block",
    "schur_contribution",
    "lagrangian_like_gradient",
]


@dataclass(frozen=True)
class ActiveSet:
    """Indices into h~ = (h, lb - x, x - ub) whose value exceeds -margin."""

    indices: tuple[int, ...]
    n_h: int
    n_x: int

    @property
    def nonbox(self):
        """Active indices that belong to h itself (curvature carriers)."""
        return tuple(j for j in self.indices if j < self.n_h)


@dataclass(frozen=True)
class ReducedBlock:
    """Projected quantities for one block, on its own coupling rows.

    ``B = Z'HZ`` (regularized) and ``g = Z'g`` live in the block's reduced
    coordinates; ``A = A_i[rows] Z`` is the coupling matrix restricted to
    ``rows``, the consensus rows C(i) on which the original A_i is nonzero.
    The rows come from A_i, not from A_i Z: an active constraint that fixes
    a coupled variable zeroes its row of A_i Z, yet the block's coupling
    value A_i x_i on that row still enters the dual system.
    """

    B: np.ndarray
    g: np.ndarray
    A: np.ndarray
    rows: np.ndarray

    @cached_property
    def solved(self):
        """(B^-1 A', B^-1 g), from one solve of B against [A', g].

        The Schur term and the step recovery both use them, so B is
        factored once per block and outer iteration.  Raises
        SingularKktError when B is singular.
        """
        m = self.A.shape[0]
        if not self.B.size:
            return np.zeros((0, m)), np.zeros(0)
        try:
            X = np.linalg.solve(self.B, np.column_stack([self.A.T, self.g]))
        except np.linalg.LinAlgError as err:
            raise SingularKktError(
                f"reduced Hessian ({self.B.shape[0]}x{self.B.shape[0]}) is singular"
            ) from err
        return X[:, :m], X[:, m]


@dataclass
class SensitivityPack:
    """Everything one block contributes to the coordination QP.

    ``hess_raw`` is the (possibly indefinite) Lagrangian Hessian or BFGS
    matrix before processing; ``hess`` is the matrix the full-space variant
    projects, regularized unless ``reg`` is off.  With the exact Hessian
    only the full-space variant fills ``hess``; the nullspace and bilevel
    variants leave it None, since ``reduce_block`` regularizes their
    projected Hessian instead.  BFGS modes always set it to the BFGS matrix.
    """

    grad: np.ndarray
    hess_raw: np.ndarray
    hess: np.ndarray | None
    active: ActiveSet
    jac_active: np.ndarray


def combined_inequalities(sub, x, p=None):
    """Values of h~ = (h, lb - x, x - ub); infinite bounds give -inf rows."""
    p = sub.p0 if p is None else p
    hv = ex.evaluate(sub.h, x, p)
    return np.concatenate([hv, sub.lb - x, x - sub.ub])


def detect_active(sub, x, p, tau):
    """Active set at x: every j with h~_j(x) > -tau.

    A block without inequalities and finite bounds has nothing that could be
    active, so it gets the empty set without evaluating anything.
    """
    if tau <= 0:
        raise ValueError("active-set margin must be positive")
    if sub.n_h == 0 and not (np.isfinite(sub.lb).any() or np.isfinite(sub.ub).any()):
        return ActiveSet((), 0, sub.n_x)
    vals = combined_inequalities(sub, x, p)
    idx = tuple(int(j) for j in np.flatnonzero(vals > -tau))
    return ActiveSet(idx, sub.n_h, sub.n_x)


def active_jacobian(sub, x, p, act):
    """Rows: grad g_i stacked over grad h~_j for j active, in index order.

    Box rows are unit vectors: -e_k for an active lower bound on x_k,
    +e_k for an active upper bound.
    """
    p = sub.p0 if p is None else p
    n = sub.n_x
    rows = [ex.jacobian(sub.g, x, p)]
    if act.indices:
        Jh = ex.jacobian(sub.h, x, p)
        for j in act.indices:
            if j < act.n_h:
                rows.append(Jh[j: j + 1])
            elif j < act.n_h + n:
                e = np.zeros((1, n))
                e[0, j - act.n_h] = -1.0
                rows.append(e)
            else:
                e = np.zeros((1, n))
                e[0, j - act.n_h - n] = 1.0
                rows.append(e)
    return np.vstack(rows) if rows else np.zeros((0, n))


def regularize(H, delta):
    """Flip negative eigenvalues, floor small ones at delta.

    Eigenvalue rule: |w| if w < -delta, delta if |w| < delta, else w.
    The result is symmetric with minimum eigenvalue >= delta.
    """
    if delta <= 0:
        raise ValueError("regularization floor must be positive")
    H = np.asarray(H, dtype=float)
    if H.size == 0:
        return H.copy()
    w, V = np.linalg.eigh(0.5 * (H + H.T))
    w_mod = np.where(w < -delta, np.abs(w), np.where(np.abs(w) < delta, delta, w))
    out = (V * w_mod) @ V.T
    return 0.5 * (out + out.T)


def bfgs_update(B, s, y, damped=False):
    """BFGS curvature update of an SPD matrix.

    Plain mode skips the update when s'y <= 1e-12 ||s|| ||y|| (result may
    otherwise lose definiteness); damped mode applies Powell's correction
    with threshold 0.2 and mixing weight theta = 0.8 s'Bs / (s'Bs - s'y),
    which keeps the result SPD unconditionally.
    """
    B = np.asarray(B, dtype=float)
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    if s.size != y.size:
        raise ValueError("step and gradient difference must have equal length")
    sn = np.linalg.norm(s)
    if sn == 0.0:
        return B.copy()
    Bs = B @ s
    sBs = float(s @ Bs)
    sy = float(s @ y)
    if damped:
        if sy < 0.2 * sBs:
            theta = 0.8 * sBs / (sBs - sy)
            y = theta * y + (1.0 - theta) * Bs
            sy = float(s @ y)
    elif sy <= 1e-12 * sn * np.linalg.norm(y):
        return B.copy()
    out = B - np.outer(Bs, Bs) / sBs + np.outer(y, y) / sy
    return 0.5 * (out + out.T)


def nullspace_basis(C):
    """Orthonormal basis of null(C) via SVD; identity for a 0-row C.

    Raises LicqError when C is rank deficient (the active constraint
    gradients are linearly dependent).
    """
    C = np.asarray(C, dtype=float)
    m, n = C.shape
    if m == 0:
        return np.eye(n)
    U, sv, Vt = np.linalg.svd(C)
    tol = max(m, n) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    rank = int(np.sum(sv > tol))
    if rank < m:
        raise LicqError(
            f"active constraint Jacobian is rank deficient (rank {rank} of {m} rows)"
        )
    return Vt[m:].T


def coupling_rows(A):
    """C(i): the sorted indices of the nonzero rows of a coupling matrix A_i."""
    return np.flatnonzero(np.any(np.asarray(A) != 0.0, axis=1))


def reduce_block(hess_raw, grad, A, Z, delta, reg=True, rows=None):
    """Project onto the active-constraint nullspace and re-regularize.

    ``A`` is the block's full coupling matrix (one row per consensus row)
    and ``rows`` its coupling rows C(i) = ``coupling_rows(A)``, computed
    here when not given (the outer loop computes them once per run).
    Returns ReducedBlock(Z' H Z, Z' g, A[rows] Z, rows), with Z' H Z
    regularized when ``reg`` is set.  The nullspace and bilevel variants
    pass the raw Hessian with ``reg`` from the options; the full-space
    variant passes its already regularized Hessian with ``reg=False``.
    """
    A = np.asarray(A, dtype=float)
    if rows is None:
        rows = coupling_rows(A)
    B = Z.T @ hess_raw @ Z
    if reg:
        B = regularize(B, delta)
    return ReducedBlock(B=B, g=Z.T @ grad, A=A[rows] @ Z, rows=rows)


def lagrangian_like_gradient(sub, x, p, kappa, gamma):
    """Gradient of f + kappa.g + gamma.h at x (curvature probe for BFGS).

    Box terms drop out of curvature differences (their gradient is constant)
    and are omitted.
    """
    r = ex.gradient(sub.f, x, p)
    if sub.n_g:
        r = r + ex.jacobian(sub.g, x, p).T @ kappa
    if sub.n_h:
        r = r + ex.jacobian(sub.h, x, p).T @ gamma
    return r


def schur_contribution(red, coupling):
    """One block's dual-system term on its rows: S = A B^-1 A', s = c - A B^-1 g.

    Both are compact: S is |C(i)| x |C(i)| and s has |C(i)| entries, indexed
    like ``red.rows``, since the block's term is zero outside its coupling
    rows.  ``coupling`` is the coupling value c = A_i x_i on those rows,
    taken from the local iterate, which need not lie in the span of Z.
    Rows of red.A that vanish (a coupled variable fixed by an active
    constraint) yield exactly zero rows and columns of S; their entries of s
    still carry the coupling value.
    """
    A = red.A
    m = A.shape[0]
    base = np.asarray(coupling, dtype=float)
    if base.shape != (m,):
        raise ValueError(f"coupling value must have length {m}")
    BinvA, Binvg = red.solved
    S = A @ BinvA
    S = 0.5 * (S + S.T)
    s_vec = base - A @ Binvg
    # enforce the structural sparsity exactly: rows of A that are zero give
    # zero rows/columns regardless of roundoff
    zero_rows = ~np.any(A != 0.0, axis=1)
    S[zero_rows, :] = 0.0
    S[:, zero_rows] = 0.0
    return S, s_vec
