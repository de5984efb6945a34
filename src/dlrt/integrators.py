"""One training step per integrator, driven by a gradient function.

Every stepper takes ``grads``, the one function it calls: a list of factor
pairs in, one gradient handle per pair out. It advances a list of factored
states together: between two evaluations of ``grads`` it loops over the
states, and each evaluation sees all of them at once (for a network, one
forward/backward pass over all its low-rank layers). A single matrix is the
one-state case. Five steppers share the factored-state conventions of the
lowrank module:

* ``euler_full_step``: dense explicit-Euler baseline, on the synthetic
  problem's ``GradientOracle``.
* ``psi_step``: fixed-rank projector splitting over K, S, L subflows; the
  S subflow runs against the descent direction.
* ``bc_psi_step``: splitting with the S subflow replaced by a projection
  of the previous core onto the new left basis, so no subflow moves
  against the descent direction.
* ``bug_fixed_step``: K and L subflows advanced in parallel from the same
  initial state, then a Galerkin core step in the fresh bases.
* ``abc_psi_step``: the rank-adaptive method. The left basis is augmented
  with the swept K factor, the core is carried into the enlarged basis,
  the right factor is evolved there, and the result is truncated back by a
  relative singular-value criterion. Its only factorizations per state are
  one QR of an m x r residual (the augmentation, skipped when u0 is
  square) and the truncation's, see ``lowrank.truncate_state``.

A splitting stepper is a first phase that returns values, one per state,
and a finish: ``psi_mid`` and ``bc_psi_mid`` return ``SplitMid`` records
for the shared L sweep, ``abc_psi_flow`` returns ``AbcFlow`` records for
the truncation. The descent audit and the S-step probe read these values.

Every subflow is one explicit-Euler step. A step reuses the gradient at the
current point wherever a subflow starts there, so it costs 3 (psi), 2
(bc-psi, bug) or 1 (abc-psi) evaluations.

After its one evaluation, an abc-psi step has no data passing between
states: each state's K contraction, augmentation, L contraction and
truncation form one task, and ``threads.map_tasks`` spreads the tasks over
the CPUs that BLAS leaves idle (none under an unpinned BLAS, where they run
in a plain loop). A task's arithmetic does not depend on the thread it runs
on, so the bytes of a step do not depend on the pool's width. The other
steppers run inline: per-state pool tasks in psi, bc-psi and bug gave the
same bytes, but the benchmark's split-paper step time read -3.5% and
+0.4% in two sets of 4 paired runs (2-CPU host, one BLAS thread), which
is no resolved gain.

Steppers trust their states and their gradients: no array is scanned for
non-finite entries inside a step. A non-finite value reaches a QR
(``psi``, ``bc-psi``, ``bug``) or the truncation (``abc-psi``), which raise
``NumericError``; ``ode_error_study`` checks the endpoints of its flows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .linalg import Matrix, NumericError, as_matrix, householder_qr, ortho_augment, read_only
from .lowrank import LowRankState, TruncationPolicy, truncate_state
from .threads import map_tasks

__all__ = [
    "Gradient",
    "GradientOracle",
    "StepConfig",
    "SplitMid",
    "AbcFlow",
    "OdeProblem",
    "quadratic_oracle",
    "synthetic_quadratic_problem",
    "robbins_monro_step",
    "euler_full_step",
    "psi_mid",
    "psi_step",
    "bc_psi_mid",
    "bc_psi_step",
    "bug_fixed_step",
    "abc_psi_flow",
    "abc_psi_step",
    "s_step_loss_delta_psi",
    "ode_error_study",
    "INTEGRATOR_NAMES",
    "STEPPERS",
]

class Gradient(NamedTuple):
    """Lazy contractions of one loss gradient G (m, n) at an evaluated point."""

    right: Callable[[Matrix], Matrix]  # basis (n, c) -> G @ basis, (m, c)
    left: Callable[[Matrix], Matrix]  # basis (m, c) -> G.T @ basis, (n, c)


@dataclass(frozen=True)
class GradientOracle:
    """The synthetic problem's loss in three forms.

    Parameters
    ----------
    grads : callable
        The form a stepper takes: a list of factor pairs
        [(a_i (m_i, c_i), b_i (n_i, c_i)), ...] -> list of gradient handles,
        one per pair, of the loss at the points a_i @ b_i.T taken together:
        objects with ``right`` and ``left`` contractions as a ``Gradient``
        has. One call is one evaluation of the loss.
    full : callable
        y (m, n) -> gradient (m, n), for the dense Euler step and the
        descent audit.
    loss : callable
        y (m, n) -> scalar loss, for the descent audit and the S-step probe.
    """

    grads: Callable[[list], list]
    full: Callable[[Matrix], Matrix]
    loss: Callable[[Matrix], float]


@dataclass(frozen=True)
class StepConfig:
    """Step size and the truncation policy (the policy is consumed by
    abc_psi_step only). No stepper reads ``substeps``, as each subflow is
    one gradient step; the field accepts only 1 and stays so that callers
    passing ``substeps=1`` keep constructing their configs."""

    h: float
    substeps: int = 1
    policy: Optional[TruncationPolicy] = None

    def __post_init__(self):
        if not 0 < self.h < math.inf:
            raise ValueError(f"step size h must be finite and positive, got {self.h}")
        if type(self.substeps) is not int or self.substeps != 1:
            raise ValueError(f"substeps must be 1, got {self.substeps!r}")


class SplitMid(NamedTuple):
    """One state of a psi or bc-psi step after its first phase: the fresh
    left basis u1 and its core s_start from the K sweep (k1 = u1 @ s_start),
    and the core s_mid that the L sweep starts from."""

    u1: Matrix
    s_start: Matrix
    s_mid: Matrix


class AbcFlow(NamedTuple):
    """One state of an abc-psi step before truncation: the swept K factor
    k1, the augmented left basis u_hat (which contains u0 and k1), and the
    swept right factor l1, so the flow ends at u_hat @ l1.T."""

    k1: Matrix
    u_hat: Matrix
    l1: Matrix

    def truncate(self, policy: TruncationPolicy) -> LowRankState:
        """The new state: u_hat @ l1.T truncated by ``policy``, see
        ``lowrank.truncate_state``."""
        return LowRankState(*truncate_state(self.u_hat, self.l1, policy))


def euler_full_step(w: Matrix, oracle: GradientOracle, h: float) -> Matrix:
    """Dense explicit-Euler descent step w - h * grad(w).

    Neither ``w`` nor the oracle's gradient is checked, as the factored
    steppers do not check their states: a non-finite iterate carries on to
    the end of the flow, where ``ode_error_study`` rejects it.
    """
    return w - h * oracle.full(w)


def _k_start(states: Sequence[LowRankState], grads: Callable) -> tuple:
    """k0 = u0 @ s0 of every state, and the gradient handles there from one
    evaluation of ``grads``."""
    k0 = [st.u @ st.s for st in states]
    return k0, grads([(k, st.v) for k, st in zip(k0, states)])


def _k_sweep(states: Sequence[LowRankState], grads: Callable, h: float) -> tuple:
    """K subflow of every state from k0 = u0 @ s0 with the right bases frozen.

    Returns (k0, handles, k1): the start, the gradient handles there, and
    the swept factors k1 = k0 - h * G @ v0.
    """
    k0, handles = _k_start(states, grads)
    return k0, handles, [k - h * g.right(st.v) for k, st, g in zip(k0, states, handles)]


def _l_sweep(l: list, u: list, handles: list, h: float) -> list:
    """L subflow l - h * G.T @ u with the left bases u frozen, from the
    gradient handles taken at u @ l.T."""
    return [l_i - h * g.left(u_i) for l_i, u_i, g in zip(l, u, handles)]


def _core_step(u, s, v, grads: Callable, h: float) -> list:
    """Explicit-Euler core step s - h * u.T @ G(u @ s @ v.T) @ v of every
    state (u, s, v), from one evaluation at the states taken together."""
    handles = grads([(u_i @ s_i, v_i) for u_i, s_i, v_i in zip(u, s, v)])
    return [s_i - h * (u_i.T @ g.right(v_i)) for u_i, s_i, v_i, g in zip(u, s, v, handles)]


def _split_finish(
    states: Sequence[LowRankState], mids: list, grads: Callable, cfg: StepConfig
) -> list:
    """The last phase of psi and bc-psi: the L sweep from v0 @ s_mid.T in the
    fresh left bases u1, with the gradient evaluated at its start, then the
    right factor orthonormalized by QR."""
    u1 = [mid.u1 for mid in mids]
    l0 = [st.v @ mid.s_mid.T for st, mid in zip(states, mids)]
    l1 = _l_sweep(l0, u1, grads(list(zip(u1, l0))), cfg.h)
    qrs = [householder_qr(l) for l in l1]
    return [LowRankState(u, np.ascontiguousarray(r.T), v) for u, (v, r) in zip(u1, qrs)]


def psi_mid(states: Sequence[LowRankState], grads: Callable, cfg: StepConfig) -> list:
    """The K sweep, its QR and the S sweep of ``psi_step``, one ``SplitMid``
    per state.

    The S sweep is the core step with step size -h: it moves along the
    positive gradient direction; that is the splitting's backward-in-time
    subflow, not a bug.
    """
    _, _, k1 = _k_sweep(states, grads, cfg.h)
    u1, s_start = zip(*map(householder_qr, k1))
    s_mid = _core_step(u1, s_start, [st.v for st in states], grads, -cfg.h)
    return [SplitMid(*mid) for mid in zip(u1, s_start, s_mid)]


def psi_step(states: Sequence[LowRankState], grads: Callable, cfg: StepConfig) -> list:
    """One fixed-rank projector-splitting step (K, S, L sweeps)."""
    return _split_finish(states, psi_mid(states, grads, cfg), grads, cfg)


def bc_psi_mid(states: Sequence[LowRankState], grads: Callable, cfg: StepConfig) -> list:
    """The K sweep and its QR of ``bc_psi_step``, one ``SplitMid`` per
    state, with s_mid = u1.T @ k0: the previous iterate expressed in the
    fresh left basis, in place of psi's backward core sweep."""
    k0, _, k1 = _k_sweep(states, grads, cfg.h)
    qrs = [householder_qr(k) for k in k1]
    return [SplitMid(u1, r, u1.T @ k) for (u1, r), k in zip(qrs, k0)]


def bc_psi_step(states: Sequence[LowRankState], grads: Callable, cfg: StepConfig) -> list:
    """Fixed-rank splitting step with the S sweep replaced by a projection,
    so no subflow moves against the descent direction."""
    return _split_finish(states, bc_psi_mid(states, grads, cfg), grads, cfg)


def bug_fixed_step(states: Sequence[LowRankState], grads: Callable, cfg: StepConfig) -> list:
    """Fixed-rank basis-update and Galerkin step.

    K and L sweeps both start from the current state (they are
    independent and could run in parallel, and they share one
    evaluation); the core is then rebuilt in the two fresh bases and
    advanced by one explicit-Euler step.
    """
    _, handles, k1 = _k_sweep(states, grads, cfg.h)
    u0 = [st.u for st in states]
    l1 = _l_sweep([st.v @ st.s.T for st in states], u0, handles, cfg.h)
    u1 = [householder_qr(k).q for k in k1]
    v1 = [householder_qr(l).q for l in l1]
    s_init = [
        (u1_i.T @ st.u) @ st.s @ (st.v.T @ v1_i)
        for u1_i, v1_i, st in zip(u1, v1, states)
    ]
    s1 = _core_step(u1, s_init, v1, grads, cfg.h)
    return [LowRankState(u, s, v) for u, s, v in zip(u1, s1, v1)]


def _abc_flow(state: LowRankState, k0: Matrix, g, h: float) -> AbcFlow:
    """Steps 1-4 of ``abc_psi_step`` for one state, from k0 = u0 @ s0 and
    the gradient handle there."""
    k1 = k0 - h * g.right(state.v)
    u_hat = ortho_augment(state.u, k1)
    # l0 = [v0 @ s0.T | 0] is built in the L sweep's buffer. The zero block
    # is not folded in as -h * G.T @ u_hat: -(+0) is -0 where 0 - (+0) is
    # +0, and an all-zero input pixel gives exact zeros there
    l1 = np.zeros((state.v.shape[0], u_hat.shape[1]))
    l1[:, : state.rank] = state.v @ state.s.T
    l1 -= h * g.left(u_hat)
    return AbcFlow(k1, u_hat, l1)


def abc_psi_flow(states: Sequence[LowRankState], grads: Callable, cfg: StepConfig) -> list:
    """Steps 1-4 of ``abc_psi_step``, one ``AbcFlow`` per state, the states
    spread over ``threads.map_tasks`` after the one evaluation."""
    k0, handles = _k_start(states, grads)
    return map_tasks(lambda st, k, g: _abc_flow(st, k, g, cfg.h), states, k0, handles)


def abc_psi_step(states: Sequence[LowRankState], grads: Callable, cfg: StepConfig) -> list:
    """Rank-adaptive step: augment the left basis, correct, evolve, truncate.

    Order of operations (1-4 are ``abc_psi_flow``, 5 is ``AbcFlow.truncate``):

    1. K sweep from k0 = u0 @ s0.
    2. Enlarged left basis u_hat = [u0 | b], with b an orthonormal basis of
       k1's part orthogonal to u0 (one QR of an m x r residual, none when
       u0 is square and spans R^m already). Dependent columns are dropped,
       so its width q is at most 2r.
    3. Core correction folded into the right factor: l0 = v0 @ k0.T @ u_hat
       (the current iterate expressed against u_hat), which is
       [v0 @ s0.T | 0] because k0.T @ u_hat = [s0.T | 0].
    4. L sweep in the enlarged basis. It starts at the current point,
       u_hat @ l0.T = k0 @ v0.T, so it reuses the K sweep's gradient and
       the whole step costs one evaluation of ``grads``.
    5. Truncation of u_hat @ l1.T by the policy's singular-value
       criterion. With l1 = P diag(sigma) Q^T the new state is
       (u_hat Q_r, diag(sigma_r), P_r), already in orthonormal-times-core
       form. ``truncate_state`` reads sigma off the Gram matrix of l1's
       smaller side (l1.T @ l1, q x q, for the usual tall l1), or takes
       gesdd of l1 where its guard says so.

    The cost profile per step is one QR of the m x r residual (none for a
    square u0) and the truncation's eigendecomposition, at most q x q, per
    state. A state's work after the evaluation (step 1's contraction, then
    steps 2-5) is one task of ``threads.map_tasks``, so the states update
    in parallel where BLAS leaves CPUs idle. A non-finite value in a state
    or a gradient contraction reaches l1, and the truncation raises
    ``NumericError``: the first failing state's, in state order, at any
    pool width.
    """
    if cfg.policy is None:
        raise ValueError("abc_psi_step requires cfg.policy")
    k0, handles = _k_start(states, grads)
    return map_tasks(
        lambda st, k, g: _abc_flow(st, k, g, cfg.h).truncate(cfg.policy), states, k0, handles
    )


def s_step_loss_delta_psi(
    state: LowRankState, oracle: GradientOracle, cfg: StepConfig
) -> tuple[float, float]:
    """Loss before and after the core sweep of a projector-splitting step.

    Runs ``psi_mid`` and evaluates the loss at u1 @ s @ v0.T for s_start
    and s_mid.  The S sweep integrates against the descent direction, so
    the returned delta is non-negative to leading order (about h times the
    square of the projected gradient's norm).
    """
    ((u1, s_start, s_mid),) = psi_mid([state], oracle.grads, cfg)
    return oracle.loss(u1 @ (s_start @ state.v.T)), oracle.loss(u1 @ (s_mid @ state.v.T))


def quadratic_oracle(a: Matrix) -> GradientOracle:
    """Oracle for the quadratic loss 0.5 * ||y - a||_F^2.

    The gradient is y - a; the factored evaluation contracts it without
    materializing it, treating a list of points as independent copies of
    the loss. The oracle takes ownership of the target it keeps (``a``
    itself if already C-contiguous float64) and marks it read-only.
    """
    a = as_matrix(a, "a")
    read_only(a)

    def grads(pairs):
        return [_quadratic_gradient(a, *pair) for pair in pairs]

    def full(y):
        return y - a

    def loss(y):
        d = y - a
        return 0.5 * float(np.sum(d * d))

    return GradientOracle(grads, full, loss)


def _quadratic_gradient(target: Matrix, a: Matrix, b: Matrix) -> Gradient:
    # contractions of a @ b.T - target without the m x n intermediate
    return Gradient(
        lambda basis: a @ (b.T @ basis) - target @ basis,
        lambda basis: b @ (a.T @ basis) - target.T @ basis,
    )


def synthetic_quadratic_problem(
    m: int,
    n: int,
    rank: int,
    eps: float,
    seed: int,
    start_offset: float = 0.02,
) -> OdeProblem:
    """Quadratic flow toward a low-rank target plus a full-rank perturbation.

    The target is a = a_r + eps * e with a_r a seeded random rank-``rank``
    matrix (singular values 2, 1, 0.5, ...) and e a unit-norm dense draw.
    The initial state shares the target's singular bases but carries a
    perturbed core of size ``start_offset``, so for eps = 0 the flow stays
    exactly rank-``rank`` and the dense reference starts on the manifold.
    """
    rng = np.random.default_rng(seed)
    u_a = householder_qr(rng.standard_normal((m, rank))).q
    v_a = householder_qr(rng.standard_normal((n, rank))).q
    sigma_a = 2.0 * 0.5 ** np.arange(rank)
    a = (u_a * sigma_a) @ v_a.T
    if eps != 0.0:
        e = rng.standard_normal((m, n))
        a = a + eps * (e / np.linalg.norm(e))
    s0 = np.diag(sigma_a) + start_offset * rng.standard_normal((rank, rank)) / np.sqrt(rank)
    y0 = LowRankState(u_a, s0, v_a)
    return OdeProblem(oracle=quadratic_oracle(a), y0=y0)


def robbins_monro_step(h0: float, t: int) -> float:
    """Decaying step size h0 / t (t counted from 1) for the convergence
    harness; the sequence sums to infinity while its squares stay summable."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return h0 / t


STEPPERS: dict[str, Callable] = {
    "psi": psi_step,
    "bc-psi": bc_psi_step,
    "bug": bug_fixed_step,
    "abc-psi": abc_psi_step,
}
INTEGRATOR_NAMES = ("full", *STEPPERS)  # dense SGD, then the steppers in order


@dataclass(frozen=True)
class OdeProblem:
    """A deterministic matrix gradient flow for the robustness study.

    ``y0`` is the initial point of every flow, the dense ones starting
    from ``y0.densify()``.
    """

    oracle: GradientOracle
    y0: LowRankState


def _integrate_dense(problem: OdeProblem, h: float, steps: int) -> Matrix:
    w = problem.y0.densify()
    for _ in range(steps):
        w = euler_full_step(w, problem.oracle, h)
    return w


def _steps_for(h: float, t_end: float) -> int:
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")
    ratio = t_end / h
    if not math.isfinite(ratio):
        raise ValueError(f"step size {h} gives a step count {ratio} for t_end {t_end}")
    steps = int(round(ratio))
    if steps < 1 or abs(steps * h - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError(f"step size {h} does not divide t_end {t_end}")
    return steps


def ode_error_study(
    problem: OdeProblem,
    integrator: str,
    h_list: Sequence[float],
    t_end: float,
    ref_h: float,
    policy: Optional[TruncationPolicy],
) -> list[tuple[float, float]]:
    """Terminal-time error of an integrator against a fine dense reference.

    The reference trajectory is the dense explicit-Euler flow from
    problem.y0 with step ref_h.  For each h the chosen integrator runs
    from problem.y0 to t_end, and the Frobenius distance to the reference
    endpoint is recorded.

    Returns a list of (h, error) rows in the order of ``h_list``.
    ``policy`` is the truncation policy of the rank-adaptive stepper, which
    the other integrators ignore. ``abc-psi`` without a policy is refused
    before the reference is integrated.

    Raises
    ------
    NumericError
        If an error is not finite: the reference or the integrator's flow
        diverged.
    """
    if integrator not in INTEGRATOR_NAMES:
        raise ValueError(f"unknown integrator {integrator!r}")
    if integrator == "abc-psi" and policy is None:
        raise ValueError("abc_psi_step requires cfg.policy")
    w_ref = _integrate_dense(problem, ref_h, _steps_for(ref_h, t_end))
    rows: list[tuple[float, float]] = []
    for h in h_list:
        steps = _steps_for(h, t_end)
        if integrator == "full":
            w = _integrate_dense(problem, h, steps)
        else:
            cfg = StepConfig(h=h, policy=policy)
            states = [problem.y0]
            for _ in range(steps):
                states = STEPPERS[integrator](states, problem.oracle.grads, cfg)
            w = states[0].densify()
        err = float(np.linalg.norm(w - w_ref))
        if not np.isfinite(err):
            raise NumericError(f"non-finite error at h={h}: a flow diverged")
        rows.append((float(h), err))
    return rows
