"""One training step per integrator, driven by a gradient oracle.

Every stepper advances a list of factored states together: between two
oracle evaluations it loops over the states, and each evaluation sees all
of them at once (for a network, one forward/backward pass over all its
low-rank layers). A single matrix is the one-state case. Five steppers
share the factored-state conventions of the lowrank module:

* ``euler_full_step``: dense explicit-Euler baseline.
* ``psi_step``: fixed-rank projector splitting over K, S, L subflows; the
  S subflow runs against the descent direction.
* ``bc_psi_step``: splitting with the S subflow replaced by a projection
  of the previous core onto the new left basis, so no substep moves
  against the descent direction.
* ``bug_fixed_step``: K and L subflows advanced in parallel from the same
  initial state, then a Galerkin core step in the fresh bases.
* ``abc_psi_step``: the rank-adaptive method. The left basis is augmented
  with the swept K factor, the core is carried into the enlarged basis,
  the right factor is evolved there, and the result is truncated back by a
  relative singular-value criterion. Its only factorizations per state are
  one QR of an m x r residual (the augmentation) and the truncation's, see
  ``lowrank.truncate_state``.

All subflows are discretized by explicit Euler; ``StepConfig.substeps``
repeats the gradient step inside the K and L subflows. A step reuses the
gradient at the current point wherever a substep starts there, so with s
substeps it costs 2s+1 (psi), 2s (bc-psi, bug) or 2s-1 (abc-psi) oracle
evaluations.

Steppers trust their states and their oracle: no array is scanned for
non-finite entries inside a step. A non-finite value reaches a QR
(``psi``, ``bc-psi``, ``bug``) or the truncation (``abc-psi``), which raise
``NumericError``; ``ode_error_study`` checks the endpoints of its flows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .linalg import Matrix, NumericError, as_matrix, householder_qr, ortho_augment
from .lowrank import LowRankState, TruncationPolicy, truncate_state

__all__ = [
    "Gradient",
    "GradientOracle",
    "StepConfig",
    "StepAudit",
    "OdeProblem",
    "quadratic_oracle",
    "synthetic_quadratic_problem",
    "robbins_monro_step",
    "euler_full_step",
    "psi_step",
    "bc_psi_step",
    "bug_fixed_step",
    "abc_psi_step",
    "s_step_loss_delta_psi",
    "ode_error_study",
    "INTEGRATOR_NAMES",
    "STEPPERS",
]

INTEGRATOR_NAMES = ("full", "psi", "bc-psi", "bug", "abc-psi")


class Gradient(NamedTuple):
    """Lazy contractions of one loss gradient G (m, n) at an evaluated point."""

    right: Callable[[Matrix], Matrix]  # basis (n, c) -> G @ basis, (m, c)
    left: Callable[[Matrix], Matrix]  # basis (m, c) -> G.T @ basis, (n, c)


def _dense_gradient(g: Matrix) -> Gradient:
    return Gradient(lambda basis: g @ basis, lambda basis: g.T @ basis)


class GradientOracle:
    """Supplies loss gradients at factored points.

    Parameters
    ----------
    eval_full : callable, optional
        y (m, n) -> gradient (m, n).
    eval_grads : callable, optional
        list of factor pairs [(a_i (m_i, c_i), b_i (n_i, c_i)), ...] ->
        list of gradient handles, one per pair, of the loss at the points
        a_i @ b_i.T taken together: objects with ``right`` and ``left``
        contractions as a ``Gradient`` has. One call is one evaluation of
        the loss (for a network, one forward/backward pass).
    loss : callable, optional
        y (m, n) -> scalar loss, needed only by audits and loss probes.

    At least one gradient form must be given; without eval_grads each
    pair is evaluated by materializing its full gradient.
    """

    def __init__(self, eval_full=None, eval_grads=None, loss=None):
        if eval_full is None and eval_grads is None:
            raise ValueError("need eval_full or eval_grads")
        self.eval_full = eval_full
        self.eval_grads = eval_grads
        self.loss = loss

    def full(self, y: Matrix) -> Matrix:
        if self.eval_full is None:
            raise ValueError("oracle has no full-gradient form")
        return self.eval_full(y)

    def grads(self, pairs) -> list:
        """Gradient handles at the points a_i @ b_i.T, in pair order."""
        if self.eval_grads is not None:
            return self.eval_grads(pairs)
        return [_dense_gradient(self.full(a @ b.T)) for a, b in pairs]

    def loss_at(self, y: Matrix) -> float:
        if self.loss is None:
            raise ValueError("oracle has no loss form")
        return float(self.loss(y))


@dataclass(frozen=True)
class StepConfig:
    """Step size, inner gradient-step count, and the truncation policy
    (the policy is consumed by abc_psi_step only)."""

    h: float
    substeps: int = 1
    policy: Optional[TruncationPolicy] = None

    def __post_init__(self):
        if not (self.h > 0):
            raise ValueError(f"step size must be positive, got {self.h}")
        if self.substeps < 1:
            raise ValueError(f"substeps must be >= 1, got {self.substeps}")


@dataclass
class StepAudit:
    """Optional sink for intermediate step quantities.

    Pass an instance to a stepper advancing a single state to have it
    filled in place. Which fields are populated depends on the stepper;
    audits that need losses or the basis-projected gradient require the
    oracle's loss and full forms (the oracle raises ``ValueError`` without
    them) and densify the iterate, so use them at small scale only.
    """

    k1: Optional[Matrix] = None
    u_hat: Optional[Matrix] = None
    s_mid: Optional[Matrix] = None
    loss_before: Optional[float] = None
    loss_flow: Optional[float] = None
    proj_grad_sq: Optional[float] = None


def euler_full_step(w: Matrix, oracle: GradientOracle, h: float) -> Matrix:
    """Dense explicit-Euler descent step w - h * grad(w).

    Neither ``w`` nor the oracle's gradient is checked, as the factored
    steppers do not check their states: a non-finite iterate carries on to
    the end of the flow, where ``ode_error_study`` rejects it.
    """
    return w - h * oracle.full(w)


def _k_sweep(
    states: Sequence[LowRankState], oracle: GradientOracle, cfg: StepConfig, audit=None
) -> tuple:
    """K subflow of every state from k0 = u0 @ s0 with the right bases frozen.

    Returns (k0, grads0, k1): the start, the gradient handles at the
    current point (the first substep's evaluation), and the swept factors.
    """
    if audit is not None and len(states) != 1:
        raise ValueError("a StepAudit records single-state steps only")
    k = k0 = [st.u @ st.s for st in states]
    v = [st.v for st in states]
    grads = grads0 = oracle.grads(list(zip(k0, v)))
    for step in range(cfg.substeps):
        if step:
            grads = oracle.grads(list(zip(k, v)))
        k = [k_i - cfg.h * g.right(v_i) for k_i, v_i, g in zip(k, v, grads)]
    return k0, grads0, k


def _l_sweep(
    l: list, u: list, oracle: GradientOracle, cfg: StepConfig, grads: Optional[list] = None
) -> list:
    """L subflow with the left bases u frozen; grads, when given, are
    taken at u @ l.T and spare the first evaluation."""
    for step in range(cfg.substeps):
        if step or grads is None:
            grads = oracle.grads(list(zip(u, l)))
        l = [l_i - cfg.h * g.left(u_i) for l_i, u_i, g in zip(l, u, grads)]
    return l


def _core_step(u, s, v, oracle: GradientOracle, h: float) -> list:
    """Explicit-Euler core step s - h * u.T @ G(u @ s @ v.T) @ v of every
    state (u, s, v), from one evaluation at the states taken together."""
    grads = oracle.grads([(u_i @ s_i, v_i) for u_i, s_i, v_i in zip(u, s, v)])
    return [s_i - h * (u_i.T @ g.right(v_i)) for u_i, s_i, v_i, g in zip(u, s, v, grads)]


def _split_finish(
    states: Sequence[LowRankState], u1, s_mid, oracle: GradientOracle, cfg: StepConfig, audit
) -> list:
    """The last phase of psi and bc-psi: the L sweep from v0 @ s_mid.T in the
    fresh left bases u1, then the right factor orthonormalized by QR."""
    if audit is not None:
        audit.s_mid = s_mid[0]
    l1 = _l_sweep([st.v @ s.T for st, s in zip(states, s_mid)], u1, oracle, cfg)
    qrs = [householder_qr(l) for l in l1]
    return [LowRankState(u, np.ascontiguousarray(r.T), v) for u, (v, r) in zip(u1, qrs)]


def psi_step(
    states: Sequence[LowRankState],
    oracle: GradientOracle,
    cfg: StepConfig,
    audit: Optional[StepAudit] = None,
) -> list:
    """One fixed-rank projector-splitting step (K, S, L sweeps).

    The S sweep is the core step with step size -h: it moves along the
    positive gradient direction; that is the splitting's backward-in-time
    substep, not a bug.
    """
    _, _, k1 = _k_sweep(states, oracle, cfg, audit)
    u1, s_tilde = zip(*map(householder_qr, k1))
    s1 = _core_step(u1, s_tilde, [st.v for st in states], oracle, -cfg.h)
    return _split_finish(states, u1, s1, oracle, cfg, audit)


def bc_psi_step(
    states: Sequence[LowRankState],
    oracle: GradientOracle,
    cfg: StepConfig,
    audit: Optional[StepAudit] = None,
) -> list:
    """Fixed-rank splitting step with the S sweep replaced by a projection.

    After the K sweep, the new core is taken as u1.T @ k0 (the previous
    iterate expressed in the fresh left basis) instead of integrating the
    core backward.
    """
    k0, _, k1 = _k_sweep(states, oracle, cfg, audit)
    u1 = [householder_qr(k).q for k in k1]
    s_bar = [u.T @ k for u, k in zip(u1, k0)]
    return _split_finish(states, u1, s_bar, oracle, cfg, audit)


def bug_fixed_step(
    states: Sequence[LowRankState],
    oracle: GradientOracle,
    cfg: StepConfig,
) -> list:
    """Fixed-rank basis-update and Galerkin step.

    K and L sweeps both start from the current state (they are
    independent and could run in parallel, and their first substeps share
    one evaluation); the core is then rebuilt in the two fresh bases and
    advanced by one explicit-Euler step.
    """
    _, grads, k1 = _k_sweep(states, oracle, cfg)
    u0 = [st.u for st in states]
    l1 = _l_sweep([st.v @ st.s.T for st in states], u0, oracle, cfg, grads)
    u1 = [householder_qr(k).q for k in k1]
    v1 = [householder_qr(l).q for l in l1]
    s_init = [
        (u1_i.T @ st.u) @ st.s @ (st.v.T @ v1_i)
        for u1_i, v1_i, st in zip(u1, v1, states)
    ]
    s1 = _core_step(u1, s_init, v1, oracle, cfg.h)
    return [LowRankState(u, s, v) for u, s, v in zip(u1, s1, v1)]


def abc_psi_step(
    states: Sequence[LowRankState],
    oracle: GradientOracle,
    cfg: StepConfig,
    audit: Optional[StepAudit] = None,
) -> list:
    """Rank-adaptive step: augment the left basis, correct, evolve, truncate.

    Order of operations:

    1. K sweep from k0 = u0 @ s0.
    2. Enlarged left basis u_hat = [u0 | b], with b an orthonormal basis of
       k1's part orthogonal to u0 (one QR of an m x r residual). Dependent
       columns are dropped, so its width q is at most 2r.
    3. Core correction folded into the right factor: l0 = v0 @ k0.T @ u_hat
       (the current iterate expressed against u_hat), which is
       [v0 @ s0.T | 0] because k0.T @ u_hat = [s0.T | 0].
    4. L sweep in the enlarged basis. Its first substep starts at the
       current point, u_hat @ l0.T = k0 @ v0.T, so with one substep the
       whole step costs one oracle evaluation.
    5. Truncation of u_hat @ l1.T by the policy's singular-value
       criterion. With l1 = P diag(sigma) Q^T the new state is
       (u_hat Q_r, diag(sigma_r), P_r), already in orthonormal-times-core
       form. ``truncate_state`` reads sigma off the Gram matrix of l1's
       smaller side (l1.T @ l1, q x q, for the usual tall l1), or takes
       gesdd of l1 where its guard says so.

    The cost profile per step is one QR of the m x r residual and the
    truncation's eigendecomposition, at most q x q, per state. A non-finite
    value in a state or an oracle contraction reaches l1, and the truncation
    raises ``NumericError``.
    """
    if cfg.policy is None:
        raise ValueError("abc_psi_step requires cfg.policy")
    _, grads, k1 = _k_sweep(states, oracle, cfg, audit)
    u_hat = [ortho_augment(st.u, k) for st, k in zip(states, k1)]
    l0 = [
        np.hstack([st.v @ st.s.T, np.zeros((st.v.shape[0], u.shape[1] - st.rank))])
        for st, u in zip(states, u_hat)
    ]
    if audit is not None:
        # audit quantities at the pre-step point; the oracle's loss_at and
        # full raise when it lacks those forms
        (state,) = states
        audit.k1, audit.u_hat = k1[0], u_hat[0]
        y0 = state.u @ (state.s @ state.v.T)
        audit.loss_before = oracle.loss_at(y0)
        g0 = oracle.full(y0)
        audit.proj_grad_sq = float(np.sum((u_hat[0].T @ g0) ** 2))
    l1 = _l_sweep(l0, u_hat, oracle, cfg, grads)
    if audit is not None:
        audit.loss_flow = oracle.loss_at(u_hat[0] @ l1[0].T)
    return [LowRankState(*truncate_state(u, l, cfg.policy)) for u, l in zip(u_hat, l1)]


def s_step_loss_delta_psi(
    state: LowRankState, oracle: GradientOracle, cfg: StepConfig
) -> tuple[float, float]:
    """Loss before and after the core sweep of a projector-splitting step.

    Runs only the K sweep and the single-step S sweep of ``psi_step``,
    evaluating the loss at u1 @ s @ v0.T on both sides.  The S sweep
    integrates against the descent direction, so the returned delta is
    non-negative to leading order (about h times the square of the
    projected gradient's norm).
    """
    if oracle.loss is None:
        raise ValueError("s_step_loss_delta_psi requires the oracle's loss form")
    _, _, (k1,) = _k_sweep([state], oracle, cfg)
    u1, s_tilde = householder_qr(k1)
    (s1,) = _core_step([u1], [s_tilde], [state.v], oracle, -cfg.h)
    loss_before = oracle.loss_at(u1 @ (s_tilde @ state.v.T))
    loss_after = oracle.loss_at(u1 @ (s1 @ state.v.T))
    return loss_before, loss_after


def quadratic_oracle(a: Matrix) -> GradientOracle:
    """Oracle for the quadratic loss 0.5 * ||y - a||_F^2.

    The gradient is y - a; the factored evaluation contracts it without
    materializing it, treating a list of points as independent copies of
    the loss.
    """
    a = as_matrix(a, "a")

    def eval_full(y):
        return y - a

    def eval_grads(pairs):
        return [_quadratic_gradient(a, *pair) for pair in pairs]

    def loss(y):
        d = y - a
        return 0.5 * float(np.sum(d * d))

    return GradientOracle(eval_full=eval_full, eval_grads=eval_grads, loss=loss)


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


@dataclass(frozen=True)
class OdeProblem:
    """A deterministic matrix gradient flow for the robustness study.

    ``oracle`` must expose the full gradient; ``y0`` is the initial point
    of every flow, the dense ones starting from ``y0.densify()``.
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
    cfg_template: Optional[StepConfig] = None,
) -> list[tuple[float, float]]:
    """Terminal-time error of an integrator against a fine dense reference.

    The reference trajectory is the dense explicit-Euler flow from
    problem.y0 with step ref_h.  For each h the chosen integrator runs
    from problem.y0 to t_end, and the Frobenius distance to the reference
    endpoint is recorded.

    Returns a list of (h, error) rows in the order of ``h_list``.
    ``cfg_template`` carries substeps and the truncation policy for the
    rank-adaptive stepper.

    Raises
    ------
    NumericError
        If an error is not finite: the reference or the integrator's flow
        diverged.
    """
    if integrator not in INTEGRATOR_NAMES:
        raise ValueError(f"unknown integrator {integrator!r}")
    w_ref = _integrate_dense(problem, ref_h, _steps_for(ref_h, t_end))
    rows: list[tuple[float, float]] = []
    for h in h_list:
        steps = _steps_for(h, t_end)
        if integrator == "full":
            w = _integrate_dense(problem, h, steps)
        else:
            cfg = replace(cfg_template, h=h) if cfg_template else StepConfig(h=h)
            states = [problem.y0]
            for _ in range(steps):
                states = STEPPERS[integrator](states, problem.oracle, cfg)
            w = states[0].densify()
        err = float(np.linalg.norm(w - w_ref))
        if not np.isfinite(err):
            raise NumericError(f"non-finite error at h={h}: a flow diverged")
        rows.append((float(h), err))
    return rows
