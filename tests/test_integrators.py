import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dlrt.lowrank
from dlrt.integrators import (
    INTEGRATOR_NAMES,
    STEPPERS,
    Gradient,
    GradientOracle,
    StepConfig,
    abc_psi_flow,
    abc_psi_step,
    bc_psi_mid,
    bc_psi_step,
    bug_fixed_step,
    euler_full_step,
    ode_error_study,
    psi_mid,
    psi_step,
    quadratic_oracle,
    robbins_monro_step,
    s_step_loss_delta_psi,
    synthetic_quadratic_problem,
)
from dlrt.linalg import NumericError, svd_thin
from dlrt.lowrank import LowRankState, TruncationPolicy

from helpers import force_width, init_lowrank


def zero_oracle():
    def grads(pairs):
        return [
            Gradient(lambda basis, m=a.shape[0]: np.zeros((m, basis.shape[1])),
                     lambda basis, n=b.shape[0]: np.zeros((n, basis.shape[1])))
            for a, b in pairs
        ]

    return GradientOracle(grads, full=lambda y: np.zeros_like(y), loss=lambda y: 0.0)


def signed_qr(a):
    # inline sign-normalized QR, kept independent of the library kernels
    q, r = np.linalg.qr(a, mode="reduced")
    signs = np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    return q * signs, r * signs[:, None]


class TestGradientOracle:
    def test_quadratic_contraction_consistency(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((9, 7))
        oracle = quadratic_oracle(a)
        k = rng.standard_normal((9, 3))
        v = np.linalg.qr(rng.standard_normal((7, 3)))[0]
        u = np.linalg.qr(rng.standard_normal((9, 4)))[0]
        l = rng.standard_normal((7, 4))
        # one evaluation at two points gives one handle per point
        g_k, g_l = oracle.grads([(k, v), (u, l)])
        full_k = oracle.full(k @ v.T)
        full_l = oracle.full(u @ l.T)
        assert np.linalg.norm(g_k.right(v) - full_k @ v) <= 1e-10
        assert np.linalg.norm(g_k.left(u) - full_k.T @ u) <= 1e-10
        assert np.linalg.norm(g_l.left(u) - full_l.T @ u) <= 1e-10
        assert np.linalg.norm(g_l.right(v) - full_l @ v) <= 1e-10

    def test_requires_some_gradient_form(self):
        # the gradient-handle form is a required field
        with pytest.raises(TypeError):
            GradientOracle(loss=lambda y: 0.0)

    def test_quadratic_oracle_owns_its_target(self):
        # the oracle marks the array it keeps read-only, so a write by the
        # caller cannot change its gradients
        a = np.eye(2)
        oracle = quadratic_oracle(a)
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 7.0
        assert oracle.full(np.zeros((2, 2)))[0, 0] == -1.0


class TestEulerFullStep:
    def test_stationary_point(self):
        w = np.random.default_rng(2).standard_normal((4, 4))
        assert np.array_equal(euler_full_step(w, zero_oracle(), 0.3), w)

    def test_quadratic_analytic(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((5, 4))
        a = rng.standard_normal((5, 4))
        h = 0.25
        out = euler_full_step(w, quadratic_oracle(a), h)
        np.testing.assert_allclose(out, (1 - h) * w + h * a, atol=1e-14)

    def test_zero_step(self):
        w = np.random.default_rng(4).standard_normal((3, 3))
        np.testing.assert_allclose(euler_full_step(w, quadratic_oracle(w * 0), 0.0), w)


class TestPsiStep:
    def test_zero_gradient_reproduces_state(self):
        state = init_lowrank(8, 6, 3, seed=5)
        [out] = psi_step([state], zero_oracle().grads, StepConfig(h=0.1))
        assert np.linalg.norm(out.densify() - state.densify()) <= 1e-10
        out.validate()

    def test_on_manifold_target_is_fixed_point(self):
        state = init_lowrank(7, 5, 2, seed=6)
        oracle = quadratic_oracle(state.densify())
        [out] = psi_step([state], oracle.grads, StepConfig(h=0.1))
        assert np.linalg.norm(out.densify() - state.densify()) <= 1e-10

    def test_matches_straight_line_reimplementation(self):
        # independent sweep-by-sweep execution of the same discrete scheme
        rng = np.random.default_rng(7)
        state = init_lowrank(6, 5, 2, seed=7)
        a = rng.standard_normal((6, 5))
        h = 0.1
        u0, s0, v0 = state.u, state.s, state.v

        k1 = (u0 @ s0) - h * (((u0 @ s0) @ v0.T - a) @ v0)
        u1, s_tilde = signed_qr(k1)
        s1 = s_tilde + h * (u1.T @ ((u1 @ s_tilde @ v0.T - a) @ v0))
        l0 = v0 @ s1.T
        l1 = l0 - h * ((u1 @ l0.T - a).T @ u1)
        v1, r_l = signed_qr(l1)
        expected = LowRankState(u1, r_l.T, v1)

        [out] = psi_step([state], quadratic_oracle(a).grads, StepConfig(h=h))
        np.testing.assert_allclose(out.u, expected.u, atol=1e-12)
        np.testing.assert_allclose(out.s, expected.s, atol=1e-12)
        np.testing.assert_allclose(out.v, expected.v, atol=1e-12)


class TestBcPsiStep:
    def test_zero_gradient_reproduces_state(self):
        state = init_lowrank(9, 6, 3, seed=8)
        [out] = bc_psi_step([state], zero_oracle().grads, StepConfig(h=0.2))
        assert np.linalg.norm(out.densify() - state.densify()) <= 1e-10

    def test_core_gap_vs_psi_is_second_order(self):
        state = init_lowrank(10, 8, 3, seed=9)
        a = np.random.default_rng(9).standard_normal((10, 8))
        oracle = quadratic_oracle(a)

        def gap(h):
            [psi] = psi_mid([state], oracle.grads, StepConfig(h=h))
            [bc] = bc_psi_mid([state], oracle.grads, StepConfig(h=h))
            return np.linalg.norm(psi.s_mid - bc.s_mid)

        ratio = gap(0.01) / gap(0.005)
        assert 3.2 <= ratio <= 4.8

    def test_same_k_sweep_as_psi(self):
        state = init_lowrank(6, 5, 2, seed=10)
        a = np.random.default_rng(10).standard_normal((6, 5))
        oracle = quadratic_oracle(a)
        cfg = StepConfig(h=0.1)
        [out_psi] = psi_step([state], oracle.grads, cfg)
        [out_bc] = bc_psi_step([state], oracle.grads, cfg)
        # identical K sweep implies the same left basis; the cores differ
        np.testing.assert_allclose(out_psi.u, out_bc.u, atol=1e-12)
        assert np.linalg.norm(out_psi.s - out_bc.s) > 1e-8


class TestBugFixedStep:
    def test_zero_gradient_reproduces_state(self):
        state = init_lowrank(7, 6, 2, seed=11)
        [out] = bug_fixed_step([state], zero_oracle().grads, StepConfig(h=0.15))
        assert np.linalg.norm(out.densify() - state.densify()) <= 1e-10

    def test_full_rank_degenerates_to_euler(self):
        state = init_lowrank(6, 4, 4, seed=12)
        a = np.random.default_rng(12).standard_normal((6, 4))
        oracle = quadratic_oracle(a)
        h = 0.2
        [out] = bug_fixed_step([state], oracle.grads, StepConfig(h=h))
        euler = euler_full_step(state.densify(), oracle, h)
        assert np.linalg.norm(out.densify() - euler) <= 1e-8

    def test_matches_straight_line_reimplementation(self):
        state = init_lowrank(6, 5, 2, seed=13)
        a = np.random.default_rng(13).standard_normal((6, 5))
        h = 0.1
        u0, s0, v0 = state.u, state.s, state.v

        k1 = (u0 @ s0) - h * (((u0 @ s0) @ v0.T - a) @ v0)
        l1 = (v0 @ s0.T) - h * ((u0 @ (v0 @ s0.T).T - a).T @ u0)
        u1, _ = signed_qr(k1)
        v1, _ = signed_qr(l1)
        s_init = (u1.T @ u0) @ s0 @ (v0.T @ v1)
        s1 = s_init - h * (u1.T @ ((u1 @ s_init @ v1.T - a) @ v1))
        expected = u1 @ s1 @ v1.T

        [out] = bug_fixed_step([state], quadratic_oracle(a).grads, StepConfig(h=h))
        assert np.linalg.norm(out.densify() - expected) <= 1e-12


class TestAbcPsiStep:
    def test_zero_gradient_reproduces_state(self):
        state = init_lowrank(8, 7, 3, seed=14)
        policy = TruncationPolicy(tau=0.0, r_max=6, r_min=1)
        [out] = abc_psi_step([state], zero_oracle().grads, StepConfig(h=0.1, policy=policy))
        assert out.rank == 3
        assert np.linalg.norm(out.densify() - state.densify()) <= 1e-10

    def test_requires_policy(self):
        state = init_lowrank(4, 4, 2, seed=15)
        with pytest.raises(ValueError):
            abc_psi_step([state], zero_oracle().grads, StepConfig(h=0.1))

    def test_rank_grows_to_target_and_loss_descends(self):
        rng = np.random.default_rng(16)
        u_a = np.linalg.qr(rng.standard_normal((12, 4)))[0]
        v_a = np.linalg.qr(rng.standard_normal((10, 4)))[0]
        a = (u_a * np.array([2.0, 1.0, 0.5, 0.25])) @ v_a.T
        oracle = quadratic_oracle(a)
        state = init_lowrank(12, 10, 2, seed=16)
        cfg = StepConfig(h=0.2, policy=TruncationPolicy(tau=1e-3, r_max=4, r_min=2))
        losses = [oracle.loss(state.densify())]
        for _ in range(30):
            [state] = abc_psi_step([state], oracle.grads, cfg)
            losses.append(oracle.loss(state.densify()))
        assert state.rank == 4
        diffs = np.diff(losses)
        assert (diffs <= 1e-12).all()

    def test_descent_inequality_single_step(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((6, 5))
        oracle = quadratic_oracle(a)
        state = init_lowrank(6, 5, 2, seed=17)
        h = 0.3
        cfg = StepConfig(h=h, policy=TruncationPolicy(tau=0.1, r_max=4, r_min=1))
        [flow] = abc_psi_flow([state], oracle.grads, cfg)
        y0 = state.densify()
        proj_grad_sq = float(np.sum((flow.u_hat.T @ oracle.full(y0)) ** 2))
        # quadratic loss has unit curvature bound
        rhs = oracle.loss(y0) - (1.0 - h / 2.0) * h * proj_grad_sq
        assert oracle.loss(flow.u_hat @ flow.l1.T) <= rhs + 1e-9

    def test_augmented_basis_contains_start_and_k1(self):
        rng = np.random.default_rng(18)
        a = rng.standard_normal((9, 8))
        state = init_lowrank(9, 8, 3, seed=18)
        cfg = StepConfig(h=0.1, policy=TruncationPolicy(tau=0.1, r_max=6, r_min=1))
        [flow] = abc_psi_flow([state], quadratic_oracle(a).grads, cfg)
        u_hat = flow.u_hat
        assert np.linalg.norm(state.u - u_hat @ (u_hat.T @ state.u)) <= 1e-10
        assert np.linalg.norm(flow.k1 - u_hat @ (u_hat.T @ flow.k1)) <= 1e-10


class TestOrthonormalityInvariant:
    def test_factors_stay_orthonormal_over_random_steps(self):
        rng = np.random.default_rng(20)
        steppers = {
            "psi": psi_step,
            "bc-psi": bc_psi_step,
            "bug": bug_fixed_step,
            "abc-psi": abc_psi_step,
        }
        for name, stepper in steppers.items():
            for trial in range(125):
                m = int(rng.integers(4, 16))
                n = int(rng.integers(4, 16))
                # rank augmentation doubles the basis, so stay below half size
                r = int(rng.integers(1, min(m, n) // 2 + 1))
                state = init_lowrank(m, n, r, seed=int(rng.integers(0, 2**31)))
                a = rng.standard_normal((m, n))
                h = float(rng.uniform(1e-3, 0.5))
                policy = TruncationPolicy(tau=0.05, r_max=2 * r, r_min=1)
                cfg = StepConfig(h=h, policy=policy)
                [out] = stepper([state], quadratic_oracle(a).grads, cfg)
                r_out = out.rank
                err_u = np.linalg.norm(out.u.T @ out.u - np.eye(r_out))
                err_v = np.linalg.norm(out.v.T @ out.v - np.eye(r_out))
                assert err_u <= 1e-10 * np.sqrt(r_out), f"{name} trial {trial}"
                assert err_v <= 1e-10 * np.sqrt(r_out), f"{name} trial {trial}"

    def test_abc_psi_gram_truncation_stays_orthonormal(self, monkeypatch):
        # thousands of steps whose truncations all take the Gram route:
        # u_hat @ W_r compounds the eigensolver's rounding step after step
        fallbacks = []

        def counting(l):
            fallbacks.append(l.shape)
            return svd_thin(l)

        monkeypatch.setattr(dlrt.lowrank, "svd_thin", counting)
        problem = synthetic_quadratic_problem(60, 40, 4, eps=1e-2, seed=3)
        cfg = StepConfig(h=0.1, policy=TruncationPolicy(tau=0.1, r_max=8, r_min=2))
        states = [problem.y0]
        for step in range(1, 3001):
            states = abc_psi_step(states, problem.oracle.grads, cfg)
            if step % 100 == 0:
                states[0].validate()
        assert not fallbacks and states[0].rank == 4

    def test_abc_psi_wide_gram_truncation_stays_orthonormal(self, monkeypatch):
        # n = 6 columns of v against an augmented width q up to 8: the
        # truncated factor l1 (6 x q) turns wide and takes the Gram route of
        # l1 @ l1.T
        shapes, fallbacks = [], []
        gram_svd, svd = dlrt.lowrank._gram_svd, dlrt.lowrank.svd_thin

        def recording(l, *args):
            shapes.append(l.shape)
            return gram_svd(l, *args)

        def counting(l):
            fallbacks.append(l.shape)
            return svd(l)

        monkeypatch.setattr(dlrt.lowrank, "_gram_svd", recording)
        monkeypatch.setattr(dlrt.lowrank, "svd_thin", counting)
        problem = synthetic_quadratic_problem(60, 6, 4, eps=1e-2, seed=3)
        cfg = StepConfig(h=0.1, policy=TruncationPolicy(tau=0.1, r_max=8, r_min=2))
        states = [problem.y0]
        for step in range(1, 3001):
            states = abc_psi_step(states, problem.oracle.grads, cfg)
            if step % 100 == 0:
                states[0].validate()
        assert (6, 8) in shapes
        assert not fallbacks and states[0].rank == 4


class TestStateLists:
    def test_separable_oracle_steps_states_independently(self):
        # the quadratic oracle treats each point on its own, so stepping a
        # list of states must equal stepping each state alone, bit for bit
        rng = np.random.default_rng(28)
        a = rng.standard_normal((9, 7))
        oracle = quadratic_oracle(a)
        states = [init_lowrank(9, 7, 2, seed=28), init_lowrank(9, 7, 3, seed=29)]
        policy = TruncationPolicy(tau=0.05, r_max=4, r_min=1)
        cfg = StepConfig(h=0.1, policy=policy)
        for stepper in (psi_step, bc_psi_step, bug_fixed_step, abc_psi_step):
            together = stepper(states, oracle.grads, cfg)
            alone = [stepper([st], oracle.grads, cfg)[0] for st in states]
            for got, want in zip(together, alone):
                for name in ("u", "s", "v"):
                    assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_abc_psi_flows_of_two_states(self, monkeypatch):
        # every state's flow augments its own basis, and the step keeps the
        # flows' truncated states, bit for bit, at pool width 1 and 2
        rng = np.random.default_rng(30)
        oracle = quadratic_oracle(rng.standard_normal((9, 7)))
        states = [init_lowrank(9, 7, 2, seed=30), init_lowrank(9, 7, 3, seed=31)]
        policy = TruncationPolicy(tau=0.05, r_max=5, r_min=1)
        cfg = StepConfig(h=0.1, policy=policy)
        for width in (1, 2):
            force_width(monkeypatch, width)
            flows = abc_psi_flow(states, oracle.grads, cfg)
            assert len(flows) == 2
            for state, flow in zip(states, flows):
                u_hat = flow.u_hat
                assert u_hat.shape[1] > state.rank
                assert np.linalg.norm(state.u - u_hat @ (u_hat.T @ state.u)) <= 1e-10
                assert np.linalg.norm(flow.k1 - u_hat @ (u_hat.T @ flow.k1)) <= 1e-10
            stepped = abc_psi_step(states, oracle.grads, cfg)
            for got, flow in zip(stepped, flows):
                for name in ("u", "s", "v"):
                    assert np.array_equal(getattr(got, name), getattr(flow.state, name))

    def test_abc_psi_flow_without_policy_refused_before_evaluation(self):
        calls = []

        def grads(pairs):
            calls.append(pairs)
            return quadratic_oracle(np.ones((6, 5))).grads(pairs)

        with pytest.raises(ValueError, match="requires cfg.policy"):
            abc_psi_flow([init_lowrank(6, 5, 2, seed=33)], grads, StepConfig(h=0.1))
        assert calls == []

    @pytest.mark.parametrize("stepper", [psi_step, bc_psi_step, bug_fixed_step, abc_psi_step])
    def test_stepped_factors_read_only(self, stepper):
        oracle = quadratic_oracle(np.random.default_rng(32).standard_normal((6, 5)))
        cfg = StepConfig(h=0.1, policy=TruncationPolicy(tau=0.05, r_max=4, r_min=1))
        [state] = stepper([init_lowrank(6, 5, 2, seed=32)], oracle.grads, cfg)
        for a in (state.u, state.s, state.v):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0


class TestFactorizationCounts:
    """The README's table of dense factorizations per state per step."""

    @staticmethod
    def readme_table():
        # integrator -> (QR, QR with a square u0, eigh, SVD)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `([\w-]+)` \| (\d+) \| (\d+) \| (\d+) \| (\d+) \|$", readme, re.M)
        return {name: tuple(map(int, counts)) for name, *counts in rows}

    @pytest.mark.parametrize("shape, square", [((50, 40, 4), False), ((6, 9, 6), True)],
                             ids=["tall", "square-u0"])
    def test_counts_match_readme(self, shape, square, monkeypatch):
        table = self.readme_table()
        assert set(table) == set(INTEGRATOR_NAMES)
        m, n, r = shape
        states = [init_lowrank(m, n, r, seed=seed) for seed in (33, 34)]
        oracle = quadratic_oracle(np.random.default_rng(33).standard_normal((m, n)))
        policy = TruncationPolicy(tau=0.1, r_max=2 * r, r_min=1)
        cfg = StepConfig(h=0.1, policy=policy)
        calls = Counter()
        for name in ("qr", "eigh", "svd"):
            def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        for integrator, (qr, qr_square, eigh, svd) in table.items():
            calls.clear()
            if integrator == "full":
                for st in states:
                    euler_full_step(st.densify(), oracle, cfg.h)
            else:
                STEPPERS[integrator](states, oracle.grads, cfg)
            per_state = {name: calls[name] / len(states) for name in ("qr", "eigh", "svd")}
            expected = {"qr": qr_square if square else qr, "eigh": eigh, "svd": svd}
            assert per_state == expected, integrator


class TestSStepLossDelta:
    def test_zero_gradient_zero_delta(self):
        state = init_lowrank(6, 5, 2, seed=21)
        before, after = s_step_loss_delta_psi(state, zero_oracle(), StepConfig(h=0.1))
        assert before == after == 0.0

    def test_delta_positive_off_manifold(self):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((8, 6))
        state = init_lowrank(8, 6, 2, seed=22)
        before, after = s_step_loss_delta_psi(state, quadratic_oracle(a), StepConfig(h=0.05))
        assert after > before

    def test_delta_scales_linearly_in_h(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((8, 6))
        state = init_lowrank(8, 6, 2, seed=23)
        oracle = quadratic_oracle(a)

        def delta(h):
            before, after = s_step_loss_delta_psi(state, oracle, StepConfig(h=h))
            return after - before

        ratio = delta(0.01) / delta(0.005)
        assert 1.7 <= ratio <= 2.3


class TestOdeErrorStudy:
    def test_self_comparison_is_exact(self):
        problem = synthetic_quadratic_problem(8, 6, 2, eps=0.0, seed=24)
        rows = ode_error_study(problem, "full", [0.1], t_end=1.0, ref_h=0.1,
                               policy=None)
        assert rows == [(0.1, 0.0)]

    def test_first_order_convergence_quick(self):
        problem = synthetic_quadratic_problem(10, 8, 3, eps=0.0, seed=25)
        policy = TruncationPolicy(tau=0.0, r_max=6, r_min=1)
        rows = ode_error_study(problem, "abc-psi", [0.1, 0.05], t_end=1.0,
                               ref_h=1e-4, policy=policy)
        ratio = rows[0][1] / rows[1][1]
        assert 1.6 <= ratio <= 2.4

    def test_rejects_unknown_integrator(self):
        problem = synthetic_quadratic_problem(6, 5, 2, eps=0.0, seed=26)
        with pytest.raises(ValueError):
            ode_error_study(problem, "rk4", [0.1], t_end=1.0, ref_h=0.01,
                            policy=None)

    def test_rejects_non_dividing_step(self):
        problem = synthetic_quadratic_problem(6, 5, 2, eps=0.0, seed=27)
        with pytest.raises(ValueError):
            ode_error_study(problem, "full", [0.3], t_end=1.0, ref_h=0.01,
                            policy=None)

    def test_rejects_infinite_step_count(self):
        problem = synthetic_quadratic_problem(6, 5, 2, eps=0.0, seed=27)
        with pytest.raises(ValueError, match="step count inf"):
            ode_error_study(problem, "full", [0.1], t_end=1e300, ref_h=1e-300,
                            policy=None)

    @pytest.mark.parametrize("h_list, ref_h", [
        ([0.0], 0.1), ([-0.1], 0.1), ([float("nan")], 0.1), ([0.1], 0.0),
    ])
    def test_rejects_non_positive_step(self, h_list, ref_h):
        # a zero step divided t_end by zero
        problem = synthetic_quadratic_problem(6, 5, 2, eps=0.0, seed=27)
        with pytest.raises(ValueError, match="step size must be positive"):
            ode_error_study(problem, "psi", h_list, t_end=1.0, ref_h=ref_h,
                            policy=None)

    def test_abc_psi_without_policy_refused_before_reference(self):
        # the dense reference is the study's long part: 10000 steps here
        problem = synthetic_quadratic_problem(20, 16, 4, eps=1e-6, seed=0)
        dense, calls = problem.oracle.full, []

        def full(y):
            calls.append(1)
            return dense(y)

        problem = replace(problem, oracle=replace(problem.oracle, full=full))
        with pytest.raises(ValueError, match="requires cfg.policy"):
            ode_error_study(problem, "abc-psi", [0.1], t_end=1.0, ref_h=1e-4,
                            policy=None)
        assert calls == []


class TestNonFiniteValues:
    """Steppers do not scan their arrays; a non-finite value still raises
    NumericError within the step or the study."""

    CFG = StepConfig(h=0.1, policy=TruncationPolicy(tau=0.1, r_max=6, r_min=1))

    @staticmethod
    def poisoned(side, value):
        # quadratic gradients whose right or left contraction holds one bad entry
        rich = quadratic_oracle(np.random.default_rng(40).standard_normal((12, 10)))

        def bad(contract):
            def out(basis):
                g = contract(basis)
                g[0, 0] = value
                return g
            return out

        def grads(pairs):
            return [
                Gradient(bad(g.right), g.left) if side == "right" else Gradient(g.right, bad(g.left))
                for g in rich.grads(pairs)
            ]

        return grads

    @pytest.mark.parametrize("side, value", [("right", np.nan), ("left", np.inf)])
    def test_abc_psi_bad_contraction(self, side, value):
        with pytest.raises(NumericError):
            abc_psi_step([init_lowrank(12, 10, 3, seed=40)], self.poisoned(side, value), self.CFG)

    def test_abc_psi_nan_in_state(self):
        state = init_lowrank(12, 10, 3, seed=41)
        u = state.u.copy()
        u[4, 1] = np.nan
        oracle = quadratic_oracle(np.random.default_rng(41).standard_normal((12, 10)))
        with pytest.raises(NumericError):
            abc_psi_step([LowRankState(u, state.s, state.v)], oracle.grads, self.CFG)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_dense_flow(self):
        # at h = 3 the dense iterate grows as 2^n and overflows after ~1024 steps
        problem = synthetic_quadratic_problem(8, 6, 2, eps=0.0, seed=42)
        with pytest.raises(NumericError, match="diverged"):
            ode_error_study(problem, "full", [3.0], t_end=3.0 * 1100, ref_h=3.0,
                            policy=None)

    def test_study_scans_no_array(self, as_matrix_calls):
        # the README's ode-bench problem: 10000 dense reference steps and 150
        # abc-psi steps, none of which re-checks its own arrays
        problem = synthetic_quadratic_problem(20, 16, 4, eps=1e-6, seed=0)
        policy = TruncationPolicy(tau=0.1, r_max=8, r_min=2)
        as_matrix_calls.clear()
        rows = ode_error_study(problem, "abc-psi", [0.1, 0.05, 0.025, 0.0125],
                               t_end=1.0, ref_h=1e-4, policy=policy)
        assert len(rows) == 4
        assert as_matrix_calls == []


def test_robbins_monro_step():
    assert robbins_monro_step(0.5, 1) == 0.5
    assert robbins_monro_step(0.5, 10) == 0.05
    with pytest.raises(ValueError):
        robbins_monro_step(0.5, 0)


def test_step_config_validation():
    # each refusal names the field it refuses
    cases = [
        (0.0, 1, "h"), (-0.1, 1, "h"), (float("nan"), 1, "h"), (float("inf"), 1, "h"),
        (0.1, 0, "substeps"), (0.1, 1.5, "substeps"), (0.1, 2.0, "substeps"),
        (0.1, True, "substeps"), (0.1, 2, "substeps"),
    ]
    for h, substeps, field in cases:
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            StepConfig(h=h, substeps=substeps)
