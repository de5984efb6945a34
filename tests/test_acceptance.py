"""Acceptance suite: ten gate checks, one pass/fail line each.

Each test prints "[criterion NN] PASS/FAIL - detail" and asserts. Criterion 8
trains on MNIST and is skipped (loudly) when no IDX files are available;
point DLRT_DATA_DIR at a directory holding the four standard files to run
it. Set DLRT_FULL_MNIST=1 for the full-dataset variant; the default reduced
variant uses 10k training samples and 10 epochs.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from dlrt.data import Dataset, batches, load_dataset
from dlrt.integrators import (
    StepConfig,
    abc_psi_flow,
    abc_psi_step,
    bc_psi_mid,
    ode_error_study,
    psi_mid,
    quadratic_oracle,
    robbins_monro_step,
    s_step_loss_delta_psi,
    synthetic_quadratic_problem,
)
from dlrt.lowrank import (
    TruncationPolicy,
    compression_rate,
    tangent_project,
    truncation_rank,
)
from dlrt.nn import (
    DenseLayer,
    LayerSpec,
    Network,
    backward,
    build_network,
    evaluate,
    forward,
    mlp_specs,
    softmax_cross_entropy,
    train_step,
)

from helpers import dense_weight, init_lowrank


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_loss_descent_inequality():
    # quadratic loss (curvature constant 1), 50x40 rank 4, h=0.5,
    # 200 steps x 5 seeds: loss after the pre-truncation flow must obey
    # loss(Y1) <= loss(Y0) - (1 - h/2) h |projected grad|^2 within 1e-9
    h = 0.5
    worst = -np.inf
    for seed in range(5):
        problem = synthetic_quadratic_problem(50, 40, 4, eps=1e-2, seed=seed)
        oracle, state = problem.oracle, problem.y0
        cfg = StepConfig(h=h, policy=TruncationPolicy(tau=0.1, r_max=8, r_min=2))
        for _ in range(200):
            [flow] = abc_psi_flow([state], oracle.grads, cfg)
            y0 = state.u @ (state.s @ state.v.T)
            proj_grad_sq = float(np.sum((flow.u_hat.T @ oracle.full(y0)) ** 2))
            bound = oracle.loss(y0) - (1 - h / 2) * h * proj_grad_sq
            worst = max(worst, oracle.loss(flow.u_hat @ flow.l1.T) - bound)
            state = flow.truncate(cfg.policy)
    report(1, worst <= 1e-9, f"worst slack {worst:.3e} over 1000 steps (limit 1e-9)")


def test_criterion_02_core_update_loss_increase():
    # the original splitting's core update moves along the positive gradient:
    # it must increase the loss, and the increase must scale linearly in h
    problem = synthetic_quadratic_problem(12, 10, 3, eps=1e-2, seed=7)

    def delta(h):
        before, after = s_step_loss_delta_psi(problem.y0, problem.oracle, StepConfig(h=h))
        return after - before

    d_h, d_half = delta(0.01), delta(0.005)
    ratio = d_h / d_half
    ok = d_h > 0 and 1.7 <= ratio <= 2.3
    report(2, ok, f"delta(0.01)={d_h:.3e} > 0, halving ratio {ratio:.3f} in [1.7, 2.3]")


def test_criterion_03_step_size_robustness():
    # first-order convergence to the dense reference flow without a step-size
    # restriction tied to the smallest kept singular value
    policy = TruncationPolicy(tau=0.0, r_max=8, r_min=2)
    h_list = [0.1, 0.05, 0.025, 0.0125]

    clean = synthetic_quadratic_problem(20, 16, 4, eps=0.0, seed=11, start_offset=0.01)
    rows = ode_error_study(clean, "abc-psi", h_list, t_end=1.0, ref_h=1e-4,
                           policy=policy)
    errs = [e for _, e in rows]
    ratios = [errs[i] / errs[i + 1] for i in range(3)]

    perturbed = synthetic_quadratic_problem(20, 16, 4, eps=1e-6, seed=11,
                                            start_offset=0.01)
    rows_p = ode_error_study(perturbed, "abc-psi", h_list, t_end=1.0, ref_h=1e-4,
                             policy=policy)
    floor = rows_p[-1][1]

    ok = all(1.6 <= r <= 2.4 for r in ratios) and floor <= 1e-4
    report(
        3, ok,
        f"ratios {[round(r, 3) for r in ratios]} in [1.6, 2.4]; "
        f"perturbed error at h=0.0125 is {floor:.3e} (limit 1e-4)",
    )


def test_criterion_04_backward_correction_gap():
    # the backward-corrected core differs from the original splitting's core
    # by O(h^2): halving h shrinks the gap by about 4
    problem = synthetic_quadratic_problem(14, 11, 3, eps=1e-2, seed=13)

    def gap(h):
        [psi] = psi_mid([problem.y0], problem.oracle.grads, StepConfig(h=h))
        [bc] = bc_psi_mid([problem.y0], problem.oracle.grads, StepConfig(h=h))
        return np.linalg.norm(psi.s_mid - bc.s_mid)

    ratio = gap(0.01) / gap(0.005)
    report(4, 3.2 <= ratio <= 4.8, f"halving ratio {ratio:.3f} in [3.2, 4.8]")


def test_criterion_05_augmentation_and_orthonormality():
    # over 500 random steps: the augmented basis must contain both the old
    # left basis and the updated K factor, and output factors must stay
    # orthonormal
    rng = np.random.default_rng(5)
    worst_contain = 0.0
    worst_ortho = 0.0
    for _ in range(500):
        m = int(rng.integers(4, 17))
        n = int(rng.integers(4, 17))
        r = int(rng.integers(1, min(m, n) // 2 + 1))
        state = init_lowrank(m, n, r, seed=int(rng.integers(0, 2**31)))
        a = rng.standard_normal((m, n))
        h = float(rng.uniform(1e-3, 0.5))
        cfg = StepConfig(h=h, policy=TruncationPolicy(tau=0.05, r_max=2 * r, r_min=1))
        [flow] = abc_psi_flow([state], quadratic_oracle(a).grads, cfg)
        out = flow.truncate(cfg.policy)
        u_hat = flow.u_hat
        res_u0 = np.linalg.norm(state.u - u_hat @ (u_hat.T @ state.u))
        res_k1 = np.linalg.norm(flow.k1 - u_hat @ (u_hat.T @ flow.k1))
        worst_contain = max(worst_contain, res_u0, res_k1)
        r_out = out.rank
        scale = 1e-10 * np.sqrt(r_out)
        err_u = np.linalg.norm(out.u.T @ out.u - np.eye(r_out)) / scale
        err_v = np.linalg.norm(out.v.T @ out.v - np.eye(r_out)) / scale
        worst_ortho = max(worst_ortho, err_u * 1e-10 * np.sqrt(r_out),
                          err_v * 1e-10 * np.sqrt(r_out))
        assert res_u0 <= 1e-10 and res_k1 <= 1e-10
        assert err_u <= 1.0 and err_v <= 1.0
    report(
        5, True,
        f"500 steps: worst containment residual {worst_contain:.2e} (limit 1e-10), "
        f"worst orthonormality {worst_ortho:.2e} (limit 1e-10*sqrt(r))",
    )


def brute_force_rank(sigma, policy):
    q = sigma.size
    total = float(np.linalg.norm(sigma))
    chosen = q
    for r in range(1, q + 1):
        if float(np.linalg.norm(sigma[r:])) <= policy.tau * total:
            chosen = r
            break
    hi = min(policy.r_max, q)
    lo = min(policy.r_min, hi)
    return min(max(chosen, lo), hi)


def test_criterion_06_truncation_rank_oracle():
    rng = np.random.default_rng(6)
    mismatches = 0
    for _ in range(1000):
        q = int(rng.integers(1, 30))
        decades = rng.uniform(-12, 1, size=q)
        sigma = np.sort(10.0 ** decades)[::-1].copy()
        r_max = int(rng.integers(1, 35))
        policy = TruncationPolicy(
            tau=float(rng.choice([0.0, 1e-6, 1e-3, 0.05, 0.3])),
            r_max=r_max,
            r_min=int(rng.integers(1, min(5, r_max + 1))),
        )
        if truncation_rank(sigma, policy) != brute_force_rank(sigma, policy):
            mismatches += 1
    report(6, mismatches == 0, f"{mismatches} mismatches in 1000 random draws (exact)")


def test_criterion_07_gradient_finite_differences():
    rng = np.random.default_rng(7)
    eps = 1e-6
    worst = 0.0
    for trial in range(20):
        dims = [int(rng.integers(2, 6)) for _ in range(3)]
        specs = []
        for i, (n_in, n_out) in enumerate(zip(dims, dims[1:])):
            act = "identity" if i == 1 else "relu"
            if rng.integers(0, 2):
                r = int(rng.integers(1, min(n_in, n_out) + 1))
                specs.append(LayerSpec("lowrank", n_in, n_out, act, initial_rank=r))
            else:
                specs.append(LayerSpec("dense", n_in, n_out, act))
        net = build_network(specs, seed=trial)
        b = int(rng.integers(2, 6))
        x = rng.standard_normal((b, dims[0]))
        labels = rng.integers(0, dims[-1], size=b)

        def loss_with(layers):
            logits, _ = forward(Network(layers), x)
            return softmax_cross_entropy(logits, labels)[0]

        logits, cache = forward(net, x)
        _, dlogits = softmax_cross_entropy(logits, labels)
        tapes = backward(net, cache, dlogits)
        for li, layer in enumerate(net.layers):
            w0 = dense_weight(layer)
            fd = np.zeros_like(w0)
            for idx in np.ndindex(w0.shape):
                vals = []
                for sign in (1.0, -1.0):
                    w = w0.copy()
                    w[idx] += sign * eps
                    layers = list(net.layers)
                    layers[li] = DenseLayer(w, layer.bias, layer.activation)
                    vals.append(loss_with(layers))
                fd[idx] = (vals[0] - vals[1]) / (2 * eps)
            if isinstance(layer, DenseLayer):
                pairs = [(tapes[li].full(), fd)]
            else:
                st = layer.state
                pairs = [
                    (tapes[li].right(st.v), fd @ st.v),
                    (tapes[li].left(st.u), fd.T @ st.u),
                ]
            for got, want in pairs:
                err = np.abs(got - want) / np.maximum(np.abs(want), 1e-2)
                worst = max(worst, float(err.max()))
                np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)
    report(7, worst <= 1e-5, f"20 nets: worst relative gradient error {worst:.2e}")


def _find_mnist():
    candidates = []
    env = os.environ.get("DLRT_DATA_DIR")
    if env:
        candidates.append(Path(env))
    candidates += [Path("data"), Path("mnist"), Path.home() / "mnist"]
    names = [
        "train-images-idx3-ubyte", "train-labels-idx1-ubyte",
        "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte",
    ]
    for root in candidates:
        if all((root / n).exists() or (root / (n + ".gz")).exists() for n in names):
            return root
    return None


def test_criterion_08_mnist_reproduction():
    root = _find_mnist()
    if root is None:
        pytest.skip(
            "MNIST IDX files not found: set DLRT_DATA_DIR to a directory with "
            "train-images-idx3-ubyte, train-labels-idx1-ubyte, "
            "t10k-images-idx3-ubyte, t10k-labels-idx1-ubyte (optionally .gz)"
        )
    full = os.environ.get("DLRT_FULL_MNIST") == "1"
    train = load_dataset(root, "train")
    test = load_dataset(root, "test")
    if full:
        epochs, floor = 20, 0.94
    else:
        train = Dataset(train.images[:10000], train.labels[:10000])
        epochs, floor = 10, 0.91

    specs = mlp_specs([784, 500, 500, 500, 500, 10], initial_rank=50)
    net = build_network(specs, seed=0)
    cfg = StepConfig(h=0.01, policy=TruncationPolicy(tau=0.1, r_max=100, r_min=2))
    best = evaluate(net, test)
    for epoch in range(1, epochs + 1):
        for batch in batches(train, 64, seed=0, epoch=epoch):
            net, _ = train_step(net, batch, "abc-psi", cfg)
        best = max(best, evaluate(net, test))
        if best >= floor and not full:
            break
    triples = [(l.in_dim, l.out_dim, l.rank) for l in net.layers]
    compression = compression_rate(triples)
    ok = best >= floor and (compression >= 85.0 or not full)
    report(
        8, ok,
        f"{'full' if full else 'reduced'} mode: best accuracy {best:.4f} "
        f"(floor {floor}), compression {compression:.1f}%"
        + (" (floor 85%)" if full else ""),
    )


def test_criterion_09_rank_adaptation():
    rng = np.random.default_rng(17)
    left = np.linalg.qr(rng.standard_normal((12, 4)))[0]
    right = np.linalg.qr(rng.standard_normal((10, 4)))[0]
    target = (left * np.array([2.0, 1.0, 0.5, 0.25])) @ right.T
    oracle = quadratic_oracle(target)
    state = init_lowrank(12, 10, 2, seed=17)
    cfg = StepConfig(h=0.2, policy=TruncationPolicy(tau=1e-3, r_max=4, r_min=2))
    rank_hit = None
    loss_hit = None
    for step in range(1, 51):
        [state] = abc_psi_step([state], oracle.grads, cfg)
        if rank_hit is None and state.rank == 4:
            rank_hit = step
        if loss_hit is None and oracle.loss(state.densify()) < 1e-6:
            loss_hit = step
    ok = rank_hit is not None and loss_hit is not None
    report(
        9, ok,
        f"rank 4 detected at step {rank_hit}, loss < 1e-6 at step {loss_hit} "
        f"(both within 50)",
    )


def test_criterion_10_convergence_harness():
    problem = synthetic_quadratic_problem(30, 24, 4, eps=0.0, seed=19)
    policy = TruncationPolicy(tau=1e-6, r_max=8, r_min=2)

    def projected_grad_norm(state):
        grad = problem.oracle.full(state.densify())
        return float(np.linalg.norm(tangent_project(state, grad)))

    state = problem.y0
    initial = projected_grad_norm(state)
    best = initial
    for t in range(1, 2001):
        cfg = StepConfig(h=robbins_monro_step(1.5, t), policy=policy)
        [state] = abc_psi_step([state], problem.oracle.grads, cfg)
        best = min(best, projected_grad_norm(state))
    ratio = best / initial
    report(10, ratio <= 1e-3, f"min projected-gradient ratio {ratio:.3e} (limit 1e-3)")
