"""Low-rank factored states, tangent-space projection, rank truncation,
and compression accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .linalg import (
    DimensionError,
    Matrix,
    NumericError,
    as_matrix,
    read_only,
    svd_thin,
)

__all__ = [
    "LowRankState",
    "TruncationPolicy",
    "tangent_project",
    "truncation_rank",
    "truncate_state",
    "compression_rate",
    "param_count",
]

# _gram_svd's Gram route needs the smallest kept sigma_r / sigma_1 at least
# GRAM_MIN_RATIO; truncate_state's also needs the policy's tail threshold at
# least GRAM_TAIL_MARGIN times the eigenvalues' rounding level k*eps*sigma_1^2,
# k the Gram matrix's size
GRAM_MIN_RATIO = 1e-2
GRAM_TAIL_MARGIN = 1e4
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True, eq=False)
class LowRankState:
    """Factored representation y = u @ s @ v.T with orthonormal u, v.

    A state takes ownership of the three arrays it is given and marks them
    read-only, so no write can change it after construction.
    """

    u: Matrix  # (m, r), orthonormal columns
    s: Matrix  # (r, r)
    v: Matrix  # (n, r), orthonormal columns

    def __post_init__(self):
        read_only(self.u, self.s, self.v)

    @property
    def rank(self) -> int:
        return self.u.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u.shape[0], self.v.shape[0])

    def densify(self) -> Matrix:
        """Materialize the full m x n matrix (use only at small scale)."""
        return self.u @ self.s @ self.v.T

    def validate(self, tol: float = 1e-10) -> "LowRankState":
        """Check shape and orthonormality contracts; returns self."""
        m, r = self.u.shape
        n, rv = self.v.shape
        if self.s.shape != (r, r) or rv != r:
            raise DimensionError(
                f"factor shapes inconsistent: u{self.u.shape} s{self.s.shape} v{self.v.shape}"
            )
        if not (1 <= r <= min(m, n)):
            raise DimensionError(f"rank {r} outside [1, min({m},{n})]")
        for name, f in (("u", self.u), ("v", self.v)):
            if not np.isfinite(f).all():
                raise NumericError(f"{name} contains non-finite entries")
            gram_err = np.linalg.norm(f.T @ f - np.eye(r))
            if gram_err > tol * math.sqrt(r):
                raise NumericError(f"{name} columns not orthonormal: residual {gram_err:.3e}")
        if not np.isfinite(self.s).all():
            raise NumericError("s contains non-finite entries")
        return self


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls how many singular values survive a truncation.

    ``tau`` is the relative tail tolerance, finite and >= 0: the smallest
    rank r with ||sigma[r:]|| <= tau * ||sigma|| is kept, clamped into
    [r_min, r_max].
    """

    tau: float
    r_max: int
    r_min: int = 2

    def __post_init__(self):
        if not 0 <= self.tau < math.inf:
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")
        if self.r_min < 1:
            raise ValueError(f"r_min must be >= 1, got {self.r_min}")
        if self.r_max < self.r_min:
            raise ValueError(f"r_max must be >= r_min, got {self.r_max} < {self.r_min}")


def tangent_project(state: LowRankState, g) -> Matrix:
    """Project g onto the tangent space of the rank-r manifold at the state.

    Returns u u^T g + g v v^T - u u^T g v v^T without forming the
    projector itself.
    """
    g = as_matrix(g, "g")
    if g.shape != state.shape:
        raise DimensionError(f"gradient shape {g.shape} != state shape {state.shape}")
    u, v = state.u, state.v
    ug = u.T @ g          # (r, n)
    gv = g @ v            # (m, r)
    return u @ ug + gv @ v.T - u @ (ug @ v) @ v.T


def truncation_rank(sigma, policy: TruncationPolicy) -> int:
    """Smallest rank r with ||sigma[r:]|| <= tau * ||sigma||, clamped into
    [r_min, min(r_max, len(sigma))]."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.ndim != 1 or sigma.size == 0:
        raise DimensionError("sigma must be a non-empty 1-D vector")
    q = sigma.size
    sq = sigma * sigma
    # tail_sq[r] = sum of squares of sigma[r:], computed back to front
    tail_sq = np.zeros(q + 1)
    tail_sq[:q] = np.cumsum(sq[::-1])[::-1]
    if not math.isfinite(tail_sq[0]):  # a NaN or inf entry, or squares past float range
        raise NumericError(f"sigma's sum of squares is {tail_sq[0]}")
    # smallest r in [1, q]; the empty tail at r = q passes a finite threshold
    r = 1 + int(np.argmax(np.sqrt(tail_sq[1:]) <= policy.tau * math.sqrt(tail_sq[0])))
    hi = min(policy.r_max, q)
    lo = min(policy.r_min, hi)
    return min(max(r, lo), hi)


def _gram_svd(
    l: Matrix,
    rank: Callable[[np.ndarray], int],
    trust: Optional[Callable[[np.ndarray], bool]] = None,
) -> tuple[Matrix, np.ndarray, Matrix]:
    """Leading factors (P_r, sigma_r, Q_r) of the thin SVD l = P diag(sigma) Q^T,
    with r = rank(sigma).

    sigma and one side's vectors come from the Gram matrix of l's smaller
    side by a symmetric eigensolver: l^T l = Q diag(sigma^2) Q^T for a tall l
    (n x q, n > q), l l^T = P diag(sigma^2) P^T otherwise, so a square l
    takes l l^T. Only the other side's kept columns are formed, as
    P_r = l Q_r / sigma_r or Q_r = l^T P_r / sigma_r. But the Gram matrix
    squares the conditioning: the errors of sigma_r and of the formed
    columns' orthonormality grow as (sigma_1 / sigma_r)^2. Measured
    ||P_r^T P_r - I|| for 784 x 100 l with log-spaced sigma (largest of 20
    draws):

        sigma_r / sigma_1    1e-1   1e-2   1e-3     1e-4    1e-5
        ||P^T P - I||        7e-14  2e-12  1.1e-10  7.8e-9  5.7e-7

    ``LowRankState.validate`` allows 1e-10 * sqrt(r), so this route is taken
    only while the smallest kept sigma_r / sigma_1 is at least
    ``GRAM_MIN_RATIO`` (1e-2, a margin of over 70x) and ``trust`` (given the
    eigenvalues sigma^2, descending, one per row of the Gram matrix) holds.
    Otherwise the factors are those of ``svd_thin(l)`` (LAPACK gesdd), bit
    for bit. The returned arrays may be non-contiguous views.
    """
    n, q = l.shape
    g = l.T if n > q else l  # the Gram matrix g g^T is the smaller one
    gram = g @ g.T
    try:
        lam, w = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        if not np.isfinite(gram).all():  # scanned on failure only: a diverged factor
            raise NumericError(
                f"factor diverged: entries up to {np.abs(l).max():.3e}, Gram matrix not finite"
            ) from exc
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    lam, w = np.maximum(lam[::-1], 0.0), w[:, ::-1]  # descending
    sigma = np.sqrt(lam)
    r = rank(sigma)
    if sigma[r - 1] >= GRAM_MIN_RATIO * sigma[0] and (trust is None or trust(lam)):
        kept, formed = w[:, :r], (g.T @ w[:, :r]) / sigma[:r]
        return (formed, sigma[:r], kept) if n > q else (kept, sigma[:r], formed)
    p, sigma, qmat = svd_thin(l)
    r = rank(sigma)
    return p[:, :r], sigma[:r], qmat[:, :r]


def truncate_state(u_hat, l1, policy: TruncationPolicy) -> tuple[Matrix, Matrix, Matrix]:
    """Rank truncation of the product u_hat @ l1.T via an SVD of l1.

    With l1 = P diag(sigma) Q^T and r picked by ``truncation_rank``,
    returns the factors (u_hat Q_r, diag(sigma_r), P_r) of the truncated
    state. When u_hat has orthonormal columns so does u_hat Q_r, and the
    product of the factors differs from u_hat @ l1.T by the discarded
    singular-value tail.

    The SVD takes the Gram route of ``_gram_svd``, the one ``build_network``
    shares, for a tall and a wide l1 alike, under ``_gram_svd``'s accuracy
    guard on sigma_r / sigma_1. On top of that shared guard, the truncation
    requires the policy's tail threshold to be ``GRAM_TAIL_MARGIN`` times
    above the eigenvalues' rounding level k * eps * sigma_1^2, with k the
    Gram matrix's size (q for a tall l1, n x q with n > q), so the rank is
    chosen from eigenvalues that rounding cannot move across it (tau = 0 and
    tiny tau never pass). Otherwise the result is that of ``svd_thin``
    (LAPACK gesdd), bit for bit.

    The inputs are taken as float64 arrays and not scanned: a non-finite
    entry of l1 makes the eigensolver fail or reaches sigma, which
    ``truncation_rank`` rejects.

    Raises
    ------
    DimensionError
        If u_hat's column count differs from l1's.
    NumericError
        If l1 holds non-finite entries or a factorization fails.
    """
    if u_hat.shape[1] != l1.shape[1]:
        raise DimensionError(f"u_hat cols {u_hat.shape[1]} != l1 cols {l1.shape[1]}")

    def tail_clear_of_rounding(lam):
        total = lam.sum()
        # tau**2 * total bounds the tail's sum of squares in truncation_rank;
        # every tau >= 1 passes the guard for a nonzero l1, so tau is clamped
        # at 1, where tau**2 cannot overflow
        tau = min(policy.tau, 1.0)
        return tau**2 * total > GRAM_TAIL_MARGIN * lam.size * _EPS * lam[0]

    p_r, sigma_r, q_r = _gram_svd(
        l1, partial(truncation_rank, policy=policy), tail_clear_of_rounding
    )
    return u_hat @ q_r, np.diag(sigma_r), np.ascontiguousarray(p_r)


def param_count(layers: Sequence[tuple[int, int, int | None]]) -> int:
    """Weight count of a network, biases excluded.

    Each layer is (in_dim, out_dim, rank). A low-rank layer counts
    (in + out) * rank, since it is applied as the out x rank factor u @ s
    and the in x rank factor v; a dense layer, given rank None, counts
    in * out.
    """
    total = 0
    for i_l, o_l, r_l in layers:
        if i_l <= 0 or o_l <= 0 or (r_l is not None and r_l < 0):
            raise ValueError(f"bad layer dims ({i_l}, {o_l}, {r_l})")
        total += i_l * o_l if r_l is None else (i_l + o_l) * r_l
    return total


def compression_rate(layers: Sequence[tuple[int, int, int | None]]) -> float:
    """Percent of the dense weights that the same triples save:
    (1 - param_count / sum(in*out)) * 100, which is 0 for a dense net and
    negative when the factors outweigh the dense matrices."""
    if not layers:
        raise ValueError("need at least one layer")
    return (1.0 - param_count(layers) / sum(i_l * o_l for i_l, o_l, _ in layers)) * 100.0
