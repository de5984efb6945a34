import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dlrt.lowrank
from dlrt.linalg import DimensionError, NumericError, svd_thin
from dlrt.lowrank import (
    GRAM_MIN_RATIO,
    GRAM_TAIL_MARGIN,
    LowRankState,
    TruncationPolicy,
    compression_rate,
    param_count,
    tangent_project,
    truncate_state,
    truncation_rank,
)

from helpers import init_lowrank


EPS = np.finfo(np.float64).eps


def brute_force_rank(sigma, policy):
    # Independent oracle: try every r in [1, q], take the first admissible,
    # then apply the same clamps.
    sigma = np.asarray(sigma, dtype=np.float64)
    q = sigma.size
    total = np.sqrt(np.sum(sigma**2))
    chosen = q
    for r in range(1, q + 1):
        tail = sigma[r:]
        if float(np.sqrt(np.sum(tail**2))) <= policy.tau * total:
            chosen = r
            break
    hi = min(policy.r_max, q)
    lo = min(policy.r_min, hi)
    return min(max(chosen, lo), hi)


class TestInitLowrank:
    def test_invariants_hold(self):
        state = init_lowrank(4, 4, 4, seed=0).validate()
        assert np.isfinite(state.densify()).all()

    def test_same_seed_bitwise_identical(self):
        a = init_lowrank(7, 5, 3, seed=42)
        b = init_lowrank(7, 5, 3, seed=42)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.s, b.s)
        assert np.array_equal(a.v, b.v)

    def test_orthonormal_residual(self):
        state = init_lowrank(10, 8, 3, seed=1)
        assert np.linalg.norm(state.u.T @ state.u - np.eye(3)) <= 1e-12

    def test_sigma_scaling(self):
        state = init_lowrank(6, 6, 4, seed=2)
        np.testing.assert_allclose(state.s, np.eye(4) / 2.0, atol=1e-15)

    def test_invalid_rank(self):
        with pytest.raises(DimensionError):
            init_lowrank(4, 3, 5, seed=0)

    def test_factors_read_only(self):
        state = init_lowrank(5, 4, 2, seed=3)
        for a in (state.u, state.s, state.v):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0


class TestTangentProject:
    def test_tangent_vector_unchanged(self):
        state = init_lowrank(8, 6, 3, seed=3)
        a = np.random.default_rng(0).standard_normal((3, 3))
        g = state.u @ a @ state.v.T
        np.testing.assert_allclose(tangent_project(state, g), g, atol=1e-12)

    def test_normal_vector_killed(self):
        rng = np.random.default_rng(4)
        state = init_lowrank(9, 7, 2, seed=4)
        # build g with columns orthogonal to span(u) and rows orthogonal to span(v)
        g = rng.standard_normal((9, 7))
        g = g - state.u @ (state.u.T @ g)
        g = g - (g @ state.v) @ state.v.T
        assert np.linalg.norm(tangent_project(state, g)) <= 1e-12

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        state = init_lowrank(10, 6, 3, seed=5)
        g = rng.standard_normal((10, 6))
        u, v = state.u, state.v
        uut = u @ u.T
        vvt = v @ v.T
        oracle = uut @ g + g @ vvt - uut @ g @ vvt
        np.testing.assert_allclose(tangent_project(state, g), oracle, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        state = init_lowrank(12, 9, 4, seed=6)
        g = rng.standard_normal((12, 9))
        once = tangent_project(state, g)
        twice = tangent_project(state, once)
        assert np.linalg.norm(once - twice) <= 1e-10

    def test_linear(self):
        rng = np.random.default_rng(7)
        state = init_lowrank(8, 8, 3, seed=7)
        g1 = rng.standard_normal((8, 8))
        g2 = rng.standard_normal((8, 8))
        lhs = tangent_project(state, 2.0 * g1 - 3.0 * g2)
        rhs = 2.0 * tangent_project(state, g1) - 3.0 * tangent_project(state, g2)
        assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_dimension_mismatch(self):
        state = init_lowrank(5, 4, 2, seed=8)
        with pytest.raises(DimensionError):
            tangent_project(state, np.zeros((4, 5)))


class TestTruncationRank:
    def test_exact_rank_one(self):
        policy = TruncationPolicy(tau=0.1, r_max=4, r_min=1)
        assert truncation_rank([1.0, 0.0, 0.0, 0.0], policy) == 1

    def test_zero_tolerance_keeps_all_nonzero(self):
        policy = TruncationPolicy(tau=0.0, r_max=2, r_min=1)
        assert truncation_rank([2.0, 1.0], policy) == 2

    def test_hand_case(self):
        # total norm sqrt(21.25); tail after 2 is sqrt(1.25) <= 0.3 * total
        policy = TruncationPolicy(tau=0.3, r_max=4, r_min=1)
        assert truncation_rank([4.0, 2.0, 1.0, 0.5], policy) == 2

    def test_clamps(self):
        sigma = [5.0, 1e-14, 1e-15, 1e-16]
        assert truncation_rank(sigma, TruncationPolicy(tau=0.1, r_max=4, r_min=3)) == 3
        assert truncation_rank(sigma, TruncationPolicy(tau=0.0, r_max=2, r_min=1)) == 2
        # r_min above the number of available values collapses to q
        assert truncation_rank([1.0], TruncationPolicy(tau=0.5, r_max=8, r_min=4)) == 1

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            truncation_rank([], TruncationPolicy(tau=0.1, r_max=2, r_min=1))

    def test_oracle_equivalence_1000_random(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            q = int(rng.integers(1, 13))
            scales = 10.0 ** rng.uniform(-8, 2, size=q)
            sigma = np.sort(np.abs(rng.standard_normal(q)) * scales)[::-1]
            tau = float(rng.choice([0.0, 1e-6, 0.01, 0.1, 0.3, 0.9, 1.0]))
            r_min = int(rng.integers(1, q + 2))
            r_max = int(rng.integers(r_min, q + 3))
            policy = TruncationPolicy(tau=tau, r_max=r_max, r_min=r_min)
            assert truncation_rank(sigma, policy) == brute_force_rank(sigma, policy)


class TestTruncateState:
    def test_rank_one_exact(self):
        rng = np.random.default_rng(9)
        u_hat = np.linalg.qr(rng.standard_normal((10, 4)))[0]
        p = np.linalg.qr(rng.standard_normal((8, 1)))[0]
        q = np.linalg.qr(rng.standard_normal((4, 1)))[0]
        l1 = (p * 5.0) @ q.T  # exactly rank 1, sigma = (5, 0, 0, 0)
        policy = TruncationPolicy(tau=0.1, r_max=4, r_min=1)
        u, s, v = truncate_state(u_hat, l1, policy)
        assert u.shape == (10, 1) and s.shape == (1, 1) and v.shape == (8, 1)
        assert np.linalg.norm(u_hat @ l1.T - u @ s @ v.T) <= 1e-10

    def test_no_truncation_when_tau_zero(self):
        rng = np.random.default_rng(10)
        u_hat = np.linalg.qr(rng.standard_normal((12, 6)))[0]
        l1 = rng.standard_normal((9, 6))
        policy = TruncationPolicy(tau=0.0, r_max=6, r_min=1)
        u, s, v = truncate_state(u_hat, l1, policy)
        err = np.linalg.norm(u_hat @ l1.T - u @ s @ v.T)
        assert err <= 1e-10 * np.linalg.norm(l1)

    def test_reconstruction_error_equals_tail(self):
        rng = np.random.default_rng(11)
        u_hat = np.linalg.qr(rng.standard_normal((20, 6)))[0]
        l1 = rng.standard_normal((20, 6))
        policy = TruncationPolicy(tau=0.2, r_max=6, r_min=1)
        sigma = np.linalg.svd(l1, compute_uv=False)
        r1 = truncation_rank(sigma, policy)
        u, s, v = truncate_state(u_hat, l1, policy)
        err = np.linalg.norm(u_hat @ l1.T - u @ s @ v.T)
        tail = np.sqrt(np.sum(sigma[r1:] ** 2))
        assert abs(err - tail) <= 1e-9

    def test_v_star_orthonormal(self):
        rng = np.random.default_rng(12)
        u_hat = np.linalg.qr(rng.standard_normal((15, 5)))[0]
        l1 = rng.standard_normal((11, 5))
        u, s, v = truncate_state(u_hat, l1, TruncationPolicy(tau=0.3, r_max=5, r_min=1))
        r1 = v.shape[1]
        assert np.linalg.norm(v.T @ v - np.eye(r1)) <= 1e-12
        assert np.linalg.norm(u.T @ u - np.eye(r1)) <= 1e-12
        assert np.array_equal(s, np.diag(np.diagonal(s)))

    @pytest.mark.parametrize("tau", [1e150, 1e300])
    def test_huge_tau_keeps_r_min(self, tau):
        # tau**2 overflows a float from about 1.3e154 on; every value is tail
        u_hat, l1 = conditioned(30, 8, np.linspace(1.0, 0.5, 8), seed=19)
        policy = TruncationPolicy(tau=tau, r_max=8, r_min=3)
        u, s, v = truncate_state(u_hat, l1, policy)
        assert s.shape == (3, 3)
        LowRankState(u, s, v).validate()


def gesdd_truncation(u_hat, l1, policy):
    """truncate_state's gesdd route: the reference for its Gram route."""
    p, sigma, qmat = svd_thin(l1)
    r1 = truncation_rank(sigma, policy)
    return u_hat @ qmat[:, :r1], np.diag(sigma[:r1]), np.ascontiguousarray(p[:, :r1])


def conditioned(n, q, sigma, seed):
    """u_hat (max(n, q) + 5, q) with orthonormal columns and l1 (n, q) with
    singular values ``sigma`` (length <= min(n, q), the rest exactly zero)."""
    rng = np.random.default_rng(seed)
    u_hat = np.linalg.qr(rng.standard_normal((max(n, q) + 5, q)))[0]
    k = len(sigma)
    p = np.linalg.qr(rng.standard_normal((n, k)))[0]
    qmat = np.linalg.qr(rng.standard_normal((q, k)))[0]
    return u_hat, (p * np.asarray(sigma)) @ qmat.T


@pytest.fixture
def gesdd_calls(monkeypatch):
    """Counts truncate_state's calls of svd_thin, its gesdd fallback."""
    calls = []

    def counting(l):
        calls.append(l.shape)
        return svd_thin(l)

    monkeypatch.setattr(dlrt.lowrank, "svd_thin", counting)
    return calls


def assert_same_bytes(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestTruncateStateRoutes:
    """The Gram route (q x q eigh) against the gesdd route it replaces."""

    @pytest.mark.parametrize("cond", [1e-1, 1e-2, 1e-4, 1e-8])
    @pytest.mark.parametrize("tau", [0.0, 1e-6, 1e-3, 0.05, 0.3])
    def test_matches_gesdd(self, cond, tau):
        u_hat, l1 = conditioned(120, 30, np.logspace(0, np.log10(cond), 30), seed=13)
        policy = TruncationPolicy(tau=tau, r_max=30, r_min=1)
        u, s, v = truncate_state(u_hat, l1, policy)
        u_ref, s_ref, v_ref = gesdd_truncation(u_hat, l1, policy)
        assert s.shape == s_ref.shape
        np.testing.assert_allclose(np.diagonal(s), np.diagonal(s_ref), rtol=1e-12, atol=0)
        assert np.linalg.norm(u @ s @ v.T - u_ref @ s_ref @ v_ref.T) <= 1e-13 * s_ref[0, 0]
        LowRankState(u, s, v).validate()

    @pytest.mark.parametrize("cond", [1e-1, 1e-2, 1e-4, 1e-8])
    @pytest.mark.parametrize("tau", [0.0, 1e-6, 1e-3, 0.05, 0.3])
    def test_wide_matches_gesdd(self, cond, tau, gesdd_calls):
        # a wide l1 (n < q) takes the Gram route of l1 @ l1.T, n x n, under
        # the same two guards as a tall one
        n = 24
        u_hat, l1 = conditioned(n, 30, np.logspace(0, np.log10(cond), n), seed=13)
        policy = TruncationPolicy(tau=tau, r_max=30, r_min=1)
        u_ref, s_ref, v_ref = gesdd_truncation(u_hat, l1, policy)
        sigma = svd_thin(l1).sigma
        u, s, v = truncate_state(u_hat, l1, policy)
        gram = (s_ref[-1, -1] >= GRAM_MIN_RATIO * s_ref[0, 0]
                and tau**2 * np.sum(sigma**2) > GRAM_TAIL_MARGIN * n * EPS * sigma[0] ** 2)
        assert gesdd_calls == ([] if gram else [(n, 30)])
        assert s.shape == s_ref.shape
        np.testing.assert_allclose(np.diagonal(s), np.diagonal(s_ref), rtol=1e-12, atol=0)
        assert np.linalg.norm(u @ s @ v.T - u_ref @ s_ref @ v_ref.T) <= 1e-13 * s_ref[0, 0]
        LowRankState(u, s, v).validate()
        if not gram:
            assert_same_bytes((u, s, v), (u_ref, s_ref, v_ref))

    def test_tiny_tau_takes_gesdd(self, gesdd_calls):
        for tau in (0.0, 1e-6):
            u_hat, l1 = conditioned(60, 12, np.linspace(1.0, 0.5, 12), seed=14)
            policy = TruncationPolicy(tau=tau, r_max=12, r_min=1)
            out = truncate_state(u_hat, l1, policy)
            assert_same_bytes(out, gesdd_truncation(u_hat, l1, policy))
        assert gesdd_calls == [(60, 12), (60, 12)]

    @pytest.mark.parametrize("step, gram", [(1.01, True), (0.99, False)])
    def test_min_ratio_boundary(self, step, gram, gesdd_calls):
        # keep 8 values down to step * GRAM_MIN_RATIO, the rest far below
        # the tail threshold
        sigma = np.concatenate([np.logspace(0, np.log10(step * GRAM_MIN_RATIO), 8),
                                np.full(8, 1e-6)])
        u_hat, l1 = conditioned(200, 16, sigma, seed=15)
        policy = TruncationPolicy(tau=1e-3, r_max=16, r_min=1)
        out = truncate_state(u_hat, l1, policy)
        assert out[1].shape == (8, 8)
        assert bool(gesdd_calls) != gram
        LowRankState(*out).validate()
        if not gram:
            assert_same_bytes(out, gesdd_truncation(u_hat, l1, policy))

    @pytest.mark.parametrize("tau", [0.0, 0.1])
    @pytest.mark.parametrize("sigma", [[3.0, 1.0], [0.0]])
    def test_exact_rank_clamped_by_r_min_takes_gesdd(self, tau, sigma, gesdd_calls):
        # rank 2 (or l1 = 0) with r_min 4: the kept sigma_3, sigma_4 are
        # rounding noise (or zero)
        u_hat, l1 = conditioned(40, 8, sigma, seed=16)
        policy = TruncationPolicy(tau=tau, r_max=8, r_min=4)
        out = truncate_state(u_hat, l1, policy)
        assert out[1].shape[0] >= 4 and gesdd_calls
        assert_same_bytes(out, gesdd_truncation(u_hat, l1, policy))

    def test_ill_conditioned_wide_takes_gesdd(self, gesdd_calls):
        # all 5 values kept, sigma_5 / sigma_1 = 1e-3 < GRAM_MIN_RATIO
        u_hat, l1 = conditioned(5, 9, np.logspace(0, -3, 5), seed=17)
        policy = TruncationPolicy(tau=1e-4, r_max=9, r_min=1)
        out = truncate_state(u_hat, l1, policy)
        assert out[1].shape == (5, 5)
        assert_same_bytes(out, gesdd_truncation(u_hat, l1, policy))
        assert gesdd_calls == [(5, 9)]

    def test_gram_route_reruns_identical(self, gesdd_calls):
        u_hat, l1 = conditioned(80, 20, np.logspace(0, -1, 20), seed=18)
        policy = TruncationPolicy(tau=0.2, r_max=20, r_min=1)
        assert_same_bytes(truncate_state(u_hat, l1, policy), truncate_state(u_hat, l1, policy))
        assert not gesdd_calls

    def test_eigh_failure_is_numeric_error(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        u_hat, l1 = conditioned(30, 6, np.linspace(1.0, 0.5, 6), seed=19)
        with pytest.raises(NumericError, match="eigendecomposition"):
            truncate_state(u_hat, l1, TruncationPolicy(tau=0.1, r_max=6, r_min=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_eigh_failure_names_a_diverged_factor(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        u_hat, l1 = conditioned(30, 6, np.linspace(1.0, 0.5, 6), seed=19)
        l1[3, 2] = np.inf
        policy = TruncationPolicy(tau=0.1, r_max=6, r_min=1)
        with pytest.raises(NumericError, match="factor diverged: entries up to inf"):
            truncate_state(u_hat, l1, policy)
        l1[3, 2] = 1e200  # finite, but its Gram matrix overflows
        with pytest.raises(NumericError, match="factor diverged: entries up to 1.000e"):
            truncate_state(u_hat, l1, policy)

    def test_column_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            truncate_state(np.eye(6)[:, :3], np.ones((5, 4)), TruncationPolicy(tau=0.1, r_max=4))


class TestCompressionAccounting:
    def test_single_layer_negative(self):
        assert compression_rate([(10, 10, 10)]) == pytest.approx(-100.0)

    def test_reference_architecture(self):
        layers = [(784, 500, 25), (500, 500, 25), (500, 500, 25), (500, 500, 25), (500, 10, 25)]
        dense = 784 * 500 + 3 * 500 * 500 + 500 * 10
        assert dense == 1_147_000
        factored = (1284 + 1000 * 3 + 510) * 25
        expected = (1.0 - factored / dense) * 100.0
        assert compression_rate(layers) == pytest.approx(expected)

    def test_zero_rank_full_compression(self):
        assert compression_rate([(30, 20, 0)]) == pytest.approx(100.0)

    def test_param_count_hand_case(self):
        assert param_count([(784, 500, 25)]) == (784 + 500) * 25 == 32100

    def test_dense_layer(self):
        assert param_count([(784, 500, None)]) == 784 * 500
        assert compression_rate([(784, 500, None)]) == 0.0
        assert compression_rate([(784, 500, None), (500, 10, None)]) == 0.0

    def test_mixed_dense_and_lowrank(self):
        layers = [(784, 500, 25), (500, 10, None)]
        count = (784 + 500) * 25 + 500 * 10
        assert param_count(layers) == count
        dense = 784 * 500 + 500 * 10
        assert compression_rate(layers) == (1.0 - count / dense) * 100.0

    def test_param_count_zero_rank(self):
        assert param_count([(12, 7, 0)]) == 0

    def test_param_count_additive(self):
        single = param_count([(40, 30, 5)])
        assert param_count([(40, 30, 5), (40, 30, 5)]) == 2 * single


class TestPolicy:
    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            TruncationPolicy(tau=-0.1, r_max=4)
        with pytest.raises(ValueError):
            TruncationPolicy(tau=0.1, r_max=2, r_min=3)

    def test_nan_tau_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            TruncationPolicy(tau=float("nan"), r_max=4)

    def test_infinite_tau_rejected(self):
        # inf * 0 is NaN: an infinite tau kept all of a zero spectrum but
        # one value of a nonzero one
        with pytest.raises(ValueError, match="tau must be finite"):
            TruncationPolicy(tau=float("inf"), r_max=4, r_min=1)

    @pytest.mark.parametrize("r_min, r_max, match", [
        (0, 4, "r_min must be >= 1"), (-1, 4, "r_min must be >= 1"), (3, 2, "r_max must be >= r_min"),
    ])
    def test_rank_bounds_named(self, r_min, r_max, match):
        with pytest.raises(ValueError, match=match):
            TruncationPolicy(tau=0.1, r_max=r_max, r_min=r_min)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("sigma", [[1.0, np.nan], [np.inf, 1.0], [1e200, 1e200]])
    def test_non_finite_sum_of_squares_rejected(self, sigma):
        # squares past float range made every tail pass: (1e200, 1e200) kept rank 1
        with pytest.raises(NumericError, match="sum of squares"):
            truncation_rank(sigma, TruncationPolicy(tau=0.1, r_max=2, r_min=1))


class TestValidate:
    """Each contract ``LowRankState.validate`` checks, broken one at a time."""

    @staticmethod
    def factors():
        return np.eye(5)[:, :2], np.diag([2.0, 1.0]), np.eye(4)[:, :2]

    def test_inconsistent_shapes(self):
        u, _, v = self.factors()
        with pytest.raises(DimensionError, match="factor shapes inconsistent"):
            LowRankState(u, np.eye(3), v).validate()

    def test_rank_zero(self):
        with pytest.raises(DimensionError, match=r"rank 0 outside \[1, min\(5,4\)\]"):
            LowRankState(np.zeros((5, 0)), np.zeros((0, 0)), np.zeros((4, 0))).validate()

    @pytest.mark.parametrize("name", ["u", "v"])
    def test_non_finite_basis(self, name):
        u, s, v = self.factors()
        (u if name == "u" else v)[1, 1] = np.nan
        with pytest.raises(NumericError, match=f"{name} contains non-finite entries"):
            LowRankState(u, s, v).validate()

    @pytest.mark.parametrize("name", ["u", "v"])
    def test_basis_not_orthonormal(self, name):
        u, s, v = self.factors()
        (u if name == "u" else v)[0, 0] = 1.0 + 1e-8
        with pytest.raises(NumericError, match=f"{name} columns not orthonormal"):
            LowRankState(u, s, v).validate()

    def test_non_finite_core(self):
        u, s, v = self.factors()
        s[0, 1] = np.inf
        with pytest.raises(NumericError, match="s contains non-finite entries"):
            LowRankState(u, s, v).validate()


@settings(max_examples=40, deadline=None)
@given(
    q=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    tau=st.floats(min_value=0.0, max_value=1.0),
)
def test_truncation_rank_property(q, seed, tau):
    rng = np.random.default_rng(seed)
    sigma = np.sort(np.abs(rng.standard_normal(q)))[::-1]
    policy = TruncationPolicy(tau=tau, r_max=q, r_min=1)
    assert truncation_rank(sigma, policy) == brute_force_rank(sigma, policy)
