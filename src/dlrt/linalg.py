"""Dense float64 kernels: QR, basis augmentation and thin SVD.

Every factorization here carries an explicit result contract (orthonormal
factors, sign conventions, dimension checks) so the integrator steps built
on top are deterministic for identical input on the same build. The
``abc-psi`` truncation and the low-rank layer init take their SVDs from
``lowrank._gram_svd``, which calls ``svd_thin`` only where its guard trips.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "LinalgError",
    "DimensionError",
    "NumericError",
    "Matrix",
    "QrResult",
    "SvdResult",
    "as_matrix",
    "read_only",
    "householder_qr",
    "ortho_augment",
    "svd_thin",
]

# Dense real matrix carrier: 2-D C-contiguous float64 ndarray.
Matrix = np.ndarray

# ortho_augment's relative threshold for dependent residual columns
DROP_TOL = 1e-12


class LinalgError(Exception):
    """Base class for numeric-kernel failures."""


class DimensionError(LinalgError):
    """Operand shapes violate the operation's contract."""


class NumericError(LinalgError):
    """Non-finite values or a factorization that failed to converge."""


def as_matrix(a, name: str = "matrix") -> Matrix:
    """Coerce input to a C-contiguous float64 2-D array with finite entries.

    Raises
    ------
    DimensionError
        If the input is not 2-D.
    NumericError
        If any entry is NaN or infinite.
    """
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={out.ndim}")
    if not np.isfinite(out).all():
        raise NumericError(f"{name} contains non-finite entries")
    return out


def read_only(*arrays: np.ndarray) -> None:
    """Mark each array read-only: the values that hold arrays call this on
    the arrays they are given, and so take ownership of them."""
    for a in arrays:
        a.setflags(write=False)


class QrResult(NamedTuple):
    q: Matrix  # (m, k), orthonormal columns
    r: Matrix  # (k, k), upper triangular, diagonal >= 0


class SvdResult(NamedTuple):
    p: Matrix        # (n, k), orthonormal columns, k = min(n, q)
    sigma: np.ndarray  # (k,), descending, >= 0
    qmat: Matrix     # (q, k), orthonormal columns


def _signed_qr(a: Matrix) -> tuple[Matrix, Matrix]:
    """Reduced QR with every diagonal entry of R flipped to be >= 0."""
    q, r = np.linalg.qr(a, mode="reduced")
    signs = np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    return q * signs, r * signs[:, None]


def householder_qr(a) -> QrResult:
    """Reduced QR factorization a = q @ r with a fixed sign convention.

    Householder reflections (LAPACK geqrf under the hood) followed by a
    column sign flip so that every diagonal entry of ``r`` is non-negative.
    The flip pins down the otherwise arbitrary sign freedom, making the
    factors deterministic for identical input.

    Parameters
    ----------
    a : array_like, shape (m, k) with m >= k

    Returns
    -------
    QrResult
        ``q`` (m, k) with orthonormal columns and ``r`` (k, k) upper
        triangular with diag(r) >= 0, satisfying a = q @ r.
    """
    a = as_matrix(a, "a")
    m, k = a.shape
    if m < k:
        raise DimensionError(f"householder_qr needs rows >= cols, got {m}x{k}")
    q, r = _signed_qr(a)
    return QrResult(q, r)


def ortho_augment(u0, k1) -> Matrix:
    """Orthonormal basis [u0 | q] for the joint column span of ``u0`` and ``k1``.

    ``u0`` (m, r) must have orthonormal columns; it is returned unchanged as
    the leading block. ``q`` is an orthonormal basis of the part of ``k1``
    orthogonal to ``u0``: ``k1`` is projected against ``u0`` twice and the
    residual factored by one Householder QR, which costs O(m c^2) for c
    columns of ``k1`` instead of O(m (r + c)^2) for a QR of [u0 | k1].

    A residual column whose R diagonal is at most ``DROP_TOL`` times the
    norm of ``k1`` depends on the columns before it and is dropped, so
    ``q`` may have fewer columns than ``k1``, or none. When m = r, ``u0``
    already spans R^m and is returned itself, with no projection or QR.
    Dropping a column that is not trailing takes a second QR without it,
    since the Householder column it leaves behind is arbitrary and may
    reach into span(u0). When rounding leaves ``q`` with a component along
    ``u0`` above ``DROP_TOL`` (an ill-conditioned residual, such as two
    nearly parallel columns of ``k1``), ``q`` is projected once more and
    re-orthonormalized, so the result is orthonormal for every ``k1``.

    Unlike ``householder_qr`` and ``svd_thin``, it checks shapes only: it
    trusts the float64 arrays ``abc_psi_step`` builds, whose truncation
    raises ``NumericError`` on a non-finite entry.
    """
    if u0.shape[0] != k1.shape[0]:
        raise DimensionError(
            f"row counts differ: {u0.shape[0]} vs {k1.shape[0]}"
        )
    if u0.shape[0] == u0.shape[1]:  # u0 spans every column of k1 already
        return u0
    tol = DROP_TOL * np.linalg.norm(k1)
    res = k1 - u0 @ (u0.T @ k1)
    res -= u0 @ (u0.T @ res)
    while True:
        q, r = _signed_qr(res)
        dependent = np.abs(np.diagonal(r)) <= tol
        keep = dependent.size
        while keep and dependent[keep - 1]:
            keep -= 1
        if not dependent[:keep].any():
            break
        res = np.delete(res, np.flatnonzero(dependent), axis=1)
    q = q[:, :keep]
    leak = u0.T @ q
    if np.linalg.norm(leak) > DROP_TOL:
        q = _signed_qr(q - u0 @ leak)[0]
    return np.hstack([u0, q])


def svd_thin(l) -> SvdResult:
    """Thin SVD l = p @ diag(sigma) @ qmat.T of a tall or wide matrix.

    Parameters
    ----------
    l : array_like, shape (n, q)

    Returns
    -------
    SvdResult
        With k = min(n, q): ``p`` (n, k) orthonormal columns, ``sigma``
        (k,) descending and non-negative, ``qmat`` (q, k) orthonormal
        columns.
    """
    l = as_matrix(l, "l")
    try:
        p, sigma, qt = np.linalg.svd(l, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed to converge: {exc}") from exc
    return SvdResult(p, sigma, np.ascontiguousarray(qt.T))
