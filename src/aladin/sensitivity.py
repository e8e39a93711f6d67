"""Sensitivities for the coordination step, on lanes-first stacks of blocks.

Covers active-set detection over the combined inequality vector
``h~ = (h, lb - x, x - ub)``, active-constraint Jacobians, eigenvalue-flip
regularization, (damped) BFGS updates, nullspace bases, and the reduced /
Schur-complement quantities the coordination's dual system is built from.

The matrix functions take any leading lane axes, so blocks whose arrays
agree in shape run through one call; a 2-D argument is the same code on zero
lane axes.  They use only stacked ``matmul``, ``linalg.solve``, ``eigh`` and
``svd``, which give each lane bit for bit its 2-D result.  A failing stacked
call raises one failing lane's error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import LicqError, SingularKktError
from .linalg import mv
from .problem import coupling_rows

__all__ = [
    "SensitivityPack",
    "ReducedBlock",
    "active_mask",
    "active_rows",
    "regularize",
    "bfgs_update",
    "nullspace_basis",
    "reduce_block",
    "schur_contribution",
]


@dataclass(frozen=True)
class ReducedBlock:
    """Projected quantities for one block or a stack of them, lanes first.

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
        factored once per block and outer iteration, a stack in one call.
        Raises SingularKktError when a B is singular.
        """
        *lead, m, nz = self.A.shape
        if not nz:
            return np.zeros((*lead, 0, m)), np.zeros((*lead, 0))
        rhs = np.concatenate([self.A.swapaxes(-1, -2), self.g[..., None]], axis=-1)
        try:
            X = np.linalg.solve(self.B, rhs)
        except np.linalg.LinAlgError as err:
            raise SingularKktError(f"reduced Hessian ({nz}x{nz}) is singular") from err
        return X[..., :m], X[..., m]


@dataclass
class SensitivityPack:
    """Everything some blocks contribute to the coordination QP, lanes first.

    ``blocks`` holds each lane's block.  ``hess_raw`` is the (possibly
    indefinite) Lagrangian Hessian or BFGS matrix before processing;
    ``hess`` is the matrix the full-space variant projects, regularized
    unless ``reg`` is off.  With the exact Hessian only the full-space
    variant fills ``hess``; the nullspace and bilevel variants leave it
    None, since ``reduce_block`` regularizes their projected Hessian
    instead.  BFGS modes always set it to the BFGS matrix.  ``active``
    indexes the active rows of h~; ``rows`` are the coupling rows C(i),
    ``A`` is A_i[C(i)] and ``coupling`` is A_i x_i on them.
    """

    grad: np.ndarray
    hess_raw: np.ndarray
    hess: np.ndarray | None
    active: np.ndarray
    jac_active: np.ndarray
    blocks: np.ndarray | None = None
    rows: np.ndarray | None = None
    A: np.ndarray | None = None
    coupling: np.ndarray | None = None


def active_mask(h, x, lb, ub, tau):
    """Which rows of h~ = (h, lb - x, x - ub) exceed -tau, over any lane axes.

    Infinite bounds give -inf rows, which are never active.
    """
    return np.concatenate([h, lb - x, x - ub], axis=-1) > -tau


def active_rows(Jg, Jh, active):
    """[Jg; the rows ``active`` of (Jh; -I; I)], over any leading lane axes.

    ``active`` indexes h~ in ascending order (Jh is not read without it);
    -e_k is an active lower bound on x_k, +e_k an active upper bound.
    """
    if not active.shape[-1]:
        return Jg
    eye = np.eye(Jg.shape[-1])
    # 0.0 - I rather than -I: the zeros of a box row stay +0.0
    unit = np.concatenate([0.0 - eye, eye])
    ineq = np.concatenate(
        [Jh, np.broadcast_to(unit, Jh.shape[:-2] + unit.shape)], axis=-2
    )
    lanes = np.indices(active.shape, sparse=True)[:-1]
    return np.concatenate([Jg, ineq[(*lanes, active)]], axis=-2)


def regularize(H, delta):
    """Flip negative eigenvalues, floor small ones at delta.

    Eigenvalue rule: |w| if w < -delta, delta if |w| < delta, else w.
    The result is symmetric with minimum eigenvalue >= delta.  Any leading
    axes are lanes.
    """
    if delta <= 0:
        raise ValueError("regularization floor must be positive")
    H = np.asarray(H, dtype=float)
    if H.size == 0:
        return H.copy()
    w, V = np.linalg.eigh(0.5 * (H + H.swapaxes(-1, -2)))
    w_mod = np.where(w < -delta, np.abs(w), np.where(np.abs(w) < delta, delta, w))
    out = (V * w_mod[..., None, :]) @ V.swapaxes(-1, -2)
    return 0.5 * (out + out.swapaxes(-1, -2))


def bfgs_update(B, s, y, damped=False):
    """BFGS curvature update of an SPD matrix.

    Plain mode skips the update when s'y <= 1e-12 ||s|| ||y|| (result may
    otherwise lose definiteness); damped mode applies Powell's correction
    with threshold 0.2 and mixing weight theta = 0.8 s'Bs / (s'Bs - s'y),
    which keeps the result SPD unconditionally.  Any leading axes are lanes.
    """
    B = np.asarray(B, dtype=float)
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    if s.shape != y.shape:
        raise ValueError("step and gradient difference must have equal length")
    sn = np.sqrt(_dot(s, s))
    Bs = mv(B, s)
    sBs = _dot(s, Bs)
    sy = _dot(s, y)
    if damped:
        mix = (sn != 0.0) & (sy < 0.2 * sBs)
        theta = (0.8 * sBs[mix] / (sBs[mix] - sy[mix]))[:, None]
        y = y.copy()
        y[mix] = theta * y[mix] + (1.0 - theta) * Bs[mix]
        sy = _dot(s, y)
        keep = sn == 0.0
    else:
        keep = (sn == 0.0) | (sy <= 1e-12 * sn * np.sqrt(_dot(y, y)))
    out = B.copy()
    up = ~keep
    Bs, y = Bs[up], y[up]
    new = (
        B[up] - Bs[:, :, None] * Bs[:, None, :] / sBs[up][:, None, None]
        + y[:, :, None] * y[:, None, :] / sy[up][:, None, None]
    )
    out[up] = 0.5 * (new + new.swapaxes(-1, -2))
    return out


def _dot(u, v):
    """u . v per lane, as the BLAS dot of each lane's 1-D vectors."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def nullspace_basis(C):
    """Orthonormal basis of null(C) via SVD; identity for a 0-row C.

    Any leading axes of C are lanes, one basis each.  Raises LicqError when
    a C is rank deficient (the active constraint gradients are linearly
    dependent).
    """
    C = np.asarray(C, dtype=float)
    *lead, m, n = C.shape
    if m == 0:
        return np.broadcast_to(np.eye(n), (*lead, n, n))
    U, sv, Vt = np.linalg.svd(C)
    rank = np.sum(sv > max(m, n) * np.finfo(float).eps * sv[..., :1], axis=-1)
    short = rank < m
    if short.any():
        raise LicqError(
            "active constraint Jacobian is rank deficient "
            f"(rank {rank[short].flat[0]} of {m} rows)"
        )
    return Vt[..., m:, :].swapaxes(-1, -2)


def reduce_block(hess_raw, grad, A, Z, delta, reg=True, rows=None):
    """Project onto the active-constraint nullspace and re-regularize.

    ``A`` is the block's full coupling matrix A_i or, on any leading lane
    axes, the compact A_i[rows]; ``rows`` are its coupling rows C(i) =
    ``coupling_rows([A])[0]``, computed here when not given.  Returns
    ReducedBlock(Z' H Z, Z' g, A[rows] Z, rows), with Z' H Z regularized
    when ``reg`` is set.  The nullspace and bilevel variants pass the raw
    Hessian with ``reg`` from the options; the full-space variant passes its
    already regularized Hessian with ``reg=False``.
    """
    A = np.asarray(A, dtype=float)
    if rows is None:
        (rows,) = coupling_rows([A])
    if A.shape[-2] != rows.shape[-1]:
        A = A[rows]
    Zt = Z.swapaxes(-1, -2)
    B = Zt @ hess_raw @ Z
    if reg:
        B = regularize(B, delta)
    return ReducedBlock(B=B, g=mv(Zt, grad), A=A @ Z, rows=rows)


def schur_contribution(red, coupling):
    """One block's dual-system term on its rows: S = A B^-1 A', s = c - A B^-1 g.

    Both are compact: S is |C(i)| x |C(i)| and s has |C(i)| entries, indexed
    like ``red.rows``, since the block's term is zero outside its coupling
    rows.  ``coupling`` is the coupling value c = A_i x_i on those rows,
    taken from the local iterate, which need not lie in the span of Z.
    Rows of red.A that vanish (a coupled variable fixed by an active
    constraint) yield exactly zero rows and columns of S; their entries of s
    still carry the coupling value.  Any leading axes are lanes.
    """
    A = red.A
    m = A.shape[-2]
    base = np.asarray(coupling, dtype=float)
    if base.shape != A.shape[:-1]:
        raise ValueError(f"coupling value must have length {m}")
    BinvA, Binvg = red.solved
    S = A @ BinvA
    S = 0.5 * (S + S.swapaxes(-1, -2))
    s_vec = base - mv(A, Binvg)
    # enforce the structural sparsity exactly: rows of A that are zero give
    # zero rows/columns regardless of roundoff
    zero = ~np.any(A != 0.0, axis=-1)
    if zero.any():
        S[zero[..., :, None] | zero[..., None, :]] = 0.0
    return S, s_vec
