from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from dlrt.checkpoint import load_network, save_network
import dlrt.integrators as integrators_module
import dlrt.lowrank as lowrank_module
import dlrt.nn as nn_module
from dlrt.integrators import STEPPERS, Gradient, StepConfig
from dlrt.linalg import DimensionError, NumericError
from dlrt.lowrank import LowRankState, TruncationPolicy
from dlrt.nn import (
    DenseLayer,
    LayerSpec,
    LowRankLayer,
    Network,
    backward,
    build_network,
    evaluate,
    forward,
    mlp_specs,
    softmax_cross_entropy,
    train_step,
)
from helpers import dense_weight, net_bytes


def loss_of(net, x, labels):
    logits, _ = forward(net, x)
    return softmax_cross_entropy(logits, labels)[0]


def tiny_mixed_net(seed=0):
    # lowrank 4->3 with relu, dense 3->2 identity output
    specs = [
        LayerSpec("lowrank", 4, 3, "relu", initial_rank=2),
        LayerSpec("dense", 3, 2, "identity"),
    ]
    return build_network(specs, seed=seed)


def random_batch(net, b, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((b, net.in_dim))
    labels = rng.integers(0, net.layers[-1].out_dim, size=b)
    return x, labels


def assert_arrays_read_only(net):
    # every array a network's layers hold refuses a write
    for layer in net.layers:
        if isinstance(layer, DenseLayer):
            arrays = {"w": layer.w}
        else:
            arrays = {"u": layer.state.u, "s": layer.state.s, "v": layer.state.v}
        arrays["bias"] = layer.bias
        for name, a in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0


class TestLayerSpec:
    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            LayerSpec("conv", 4, 4)

    def test_rejects_oversized_rank(self):
        with pytest.raises(ValueError):
            LayerSpec("lowrank", 4, 3, initial_rank=4)

    def test_dense_takes_no_rank(self):
        with pytest.raises(ValueError):
            LayerSpec("dense", 4, 3, initial_rank=2)

    @pytest.mark.parametrize("args, match", [
        (("dense", 0, 3), "dims must be positive"),
        (("lowrank", 4, -1), "dims must be positive"),
        (("lowrank", 4, 3), "needs initial_rank"),
    ])
    def test_rejects_bad_dims_or_missing_rank(self, args, match):
        with pytest.raises(ValueError, match=match):
            LayerSpec(*args)

    def test_mlp_specs_needs_two_widths(self):
        with pytest.raises(ValueError, match="at least input and output"):
            mlp_specs([5])

    def test_mlp_specs_caps_rank_at_narrow_layers(self):
        specs = mlp_specs([784, 500, 10], initial_rank=20)
        assert specs[0].initial_rank == 20
        assert specs[1].initial_rank == 10
        assert specs[-1].activation == "identity"
        assert all(s.activation == "relu" for s in specs[:-1])

    def test_mlp_specs_dense(self):
        specs = mlp_specs([5, 4, 3])
        assert all(s.kind == "dense" for s in specs)


class TestLayerActivation:
    """A layer refuses an activation it cannot apply; an unknown name ran as
    the identity."""

    @pytest.mark.parametrize("name", ["tanh", "Relu", ""])
    def test_dense_rejects_unknown(self, name):
        with pytest.raises(ValueError, match="unknown activation"):
            DenseLayer(np.eye(2), np.zeros(2), name)

    @pytest.mark.parametrize("name", ["tanh", "Relu", ""])
    def test_lowrank_rejects_unknown(self, name):
        state = LowRankState(np.eye(3)[:, :1], np.eye(1), np.eye(2)[:, :1])
        with pytest.raises(ValueError, match="unknown activation"):
            LowRankLayer(state, np.zeros(3), name)


class TestLayerBias:
    """A layer refuses a bias that is not one value per output; a dense
    layer broadcast a single value and saved a file it could not load."""

    def test_dense_rejects_short_bias(self):
        with pytest.raises(DimensionError, match="bias shape"):
            DenseLayer(np.ones((2, 5)), np.ones(1))

    def test_lowrank_rejects_short_bias(self):
        state = LowRankState(np.eye(5)[:, :2], np.eye(2), np.eye(4)[:, :2])
        with pytest.raises(DimensionError, match="bias shape"):
            LowRankLayer(state, np.zeros(3))


class TestImmutableValues:
    """Layers and networks are values: a step builds new ones, and an
    assignment cannot skip their construction checks."""

    @pytest.mark.parametrize("index", [0, 1])
    def test_layer_fields_frozen(self, index):
        layer = tiny_mixed_net().layers[index]
        for f in fields(layer):
            with pytest.raises(FrozenInstanceError):
                setattr(layer, f.name, getattr(layer, f.name))

    def test_network_frozen_with_tuple_layers(self):
        layers = list(tiny_mixed_net().layers)
        net = Network(layers)
        assert isinstance(net.layers, tuple)
        assert net.layers == tuple(layers)
        with pytest.raises(FrozenInstanceError):
            net.layers = layers

    def test_dense_rank_is_none(self):
        net = tiny_mixed_net()
        assert net.layers[1].rank is None
        assert net.ranks() == [2]

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError, match="at least one layer"):
            Network([])

    def test_built_arrays_read_only(self):
        # a write into a layer's bias changed what forward returned
        assert_arrays_read_only(tiny_mixed_net())
        assert_arrays_read_only(build_network(mlp_specs([4, 3, 2]), seed=0))

    @pytest.mark.parametrize("integrator", ["psi", "bc-psi", "bug", "abc-psi", "full"])
    def test_stepped_arrays_read_only(self, integrator):
        dense = integrator == "full"
        net = build_network(mlp_specs([4, 3, 2]), seed=1) if dense else tiny_mixed_net(seed=1)
        x, labels = random_batch(net, 4, seed=1)
        cfg = StepConfig(h=0.1, policy=TruncationPolicy(tau=0.1, r_max=3, r_min=1))
        new_net, _ = train_step(net, (x, labels), integrator, cfg)
        assert_arrays_read_only(new_net)

    def test_loaded_arrays_read_only(self, tmp_path):
        save_network(tmp_path / "net.ckpt", tiny_mixed_net(seed=2))
        assert_arrays_read_only(load_network(tmp_path / "net.ckpt"))

    def test_layer_owns_its_arrays(self):
        # the caller's own reference to a given array is read-only too
        w, bias = np.eye(2), np.zeros(2)
        net = Network([DenseLayer(w, bias, "identity")])
        with pytest.raises(ValueError, match="read-only"):
            bias[:] = 5.0
        assert np.array_equal(forward(net, np.ones((1, 2)))[0], [[1.0, 1.0]])

    def test_tape_is_a_frozen_record_without_z(self):
        # backward returns the tapes; the pre-activation does not outlive
        # the pass
        net = tiny_mixed_net(seed=4)
        x, labels = random_batch(net, 4, seed=4)
        st = net.layers[0].state
        (tape,) = nn_module._network_oracle(net, x, labels, [])([(st.u @ st.s, st.v)])
        assert tape._fields == ("x", "b", "xb", "delta")
        assert not hasattr(tape, "z")
        with pytest.raises(AttributeError):
            tape.delta = None


class TestBuildNetwork:
    def test_deterministic(self):
        a = build_network(mlp_specs([6, 5, 3], initial_rank=2), seed=1)
        nn_module._built.clear()
        b = build_network(mlp_specs([6, 5, 3], initial_rank=2), seed=1)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(dense_weight(la), dense_weight(lb))

    def test_lowrank_factors_orthonormal(self):
        net = build_network(mlp_specs([8, 6, 4], initial_rank=3), seed=2)
        for layer in net.layers:
            st = layer.state
            r = st.rank
            assert np.linalg.norm(st.u.T @ st.u - np.eye(r)) <= 1e-12
            assert np.linalg.norm(st.v.T @ st.v - np.eye(r)) <= 1e-12

    def test_lowrank_keeps_dominant_part_of_dense_draw(self):
        # same seed: the full-rank lowrank layer reproduces the dense draw
        dense = build_network([LayerSpec("dense", 5, 4, "identity")], seed=3)
        lowrank = build_network(
            [LayerSpec("lowrank", 5, 4, "identity", initial_rank=4)], seed=3
        )
        diff = np.linalg.norm(dense.layers[0].w - dense_weight(lowrank.layers[0]))
        assert diff <= 1e-12

    @staticmethod
    def gram_route_calls(monkeypatch):
        """Records the Gram matrices eigh sees and counts svd_thin calls."""
        calls = {"eigh": [], "svd_thin": 0}
        eigh, svd_thin = np.linalg.eigh, lowrank_module.svd_thin

        def counting_eigh(a):
            calls["eigh"].append(a.shape)
            return eigh(a)

        def counting_svd(l):
            calls["svd_thin"] += 1
            return svd_thin(l)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(lowrank_module, "svd_thin", counting_svd)
        return calls

    @pytest.mark.parametrize("widths, rank", [
        ([784, 500, 500, 500, 500, 10], 50),  # the paper net: out <= in
        ([40, 90], 10),  # an expanding layer: out > in
    ])
    def test_gram_route_matches_gesdd(self, widths, rank, monkeypatch):
        calls = self.gram_route_calls(monkeypatch)
        net = build_network(mlp_specs(widths, initial_rank=rank), seed=0)
        draws = build_network(mlp_specs(widths), seed=0)  # the same dense draws
        assert calls["svd_thin"] == 0
        assert calls["eigh"] == [(min(l.in_dim, l.out_dim),) * 2 for l in net.layers]
        for layer, dense in zip(net.layers, draws.layers):
            st = layer.state.validate(tol=1e-12)
            r = st.rank
            left, sigma, right_t = np.linalg.svd(dense.w, full_matrices=False)
            w_r = (left[:, :r] * sigma[:r]) @ right_t[:r]
            assert np.linalg.norm(st.densify() - w_r) <= 1e-13 * np.linalg.norm(w_r)
            assert np.max(np.abs(np.diag(st.s) - sigma[:r]) / sigma[:r]) <= 1e-13

    @pytest.mark.parametrize("in_dim, out_dim, seed", [(100, 100, 0), (100, 99, 0), (99, 100, 2)])
    def test_ill_conditioned_draw_keeps_gesdd_bytes(self, in_dim, out_dim, seed, monkeypatch):
        r = min(in_dim, out_dim)
        w = np.sqrt(2.0 / in_dim) * np.random.default_rng(seed).standard_normal((out_dim, in_dim))
        left, sig, right_t = np.linalg.svd(w, full_matrices=False)
        assert sig[r - 1] / sig[0] < lowrank_module.GRAM_MIN_RATIO
        calls = self.gram_route_calls(monkeypatch)
        spec = LayerSpec("lowrank", in_dim, out_dim, "identity", initial_rank=r)
        st = build_network([spec], seed=seed).layers[0].state
        assert calls["svd_thin"] == 1
        assert np.array_equal(st.u, np.ascontiguousarray(left[:, :r]))
        assert np.array_equal(st.s, np.diag(sig[:r]))
        assert np.array_equal(st.v, np.ascontiguousarray(right_t[:r].T))
        assert st.u.flags.c_contiguous and st.v.flags.c_contiguous

    def test_eigh_failure_is_numeric_error(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(NumericError):
            build_network(mlp_specs([8, 6, 4], initial_rank=3), seed=2)

    def test_chain_mismatch_rejected(self):
        good = build_network(mlp_specs([4, 3, 2]), seed=0)
        with pytest.raises(DimensionError):
            Network([good.layers[1], good.layers[0]])


class TestKeptNetworks:
    """build_network returns the network it built for (specs, seed) while
    anyone holds it, and keeps nothing after that."""

    SPECS = mlp_specs([8, 6, 4], initial_rank=3)

    @pytest.fixture
    def factored(self, monkeypatch):
        """Shapes of the draws build_network factors, in call order."""
        shapes = []
        gram_svd = nn_module._gram_svd

        def counted(*args):
            shapes.append(args[0].shape)
            return gram_svd(*args)

        monkeypatch.setattr(nn_module, "_gram_svd", counted)
        return shapes

    def test_repeat_returns_the_same_network(self, factored):
        net = build_network(self.SPECS, seed=1)
        assert build_network(self.SPECS, seed=1) is net
        assert len(factored) == 2
        nn_module._built.clear()
        fresh = build_network(self.SPECS, seed=1)
        assert fresh is not net and len(factored) == 4
        assert net_bytes(fresh) == net_bytes(net)
        assert_arrays_read_only(net)

    def test_list_and_tuple_and_integer_types_share_an_entry(self, factored):
        net = build_network(list(self.SPECS), seed=3)
        assert build_network(tuple(self.SPECS), seed=np.int64(3)) is net
        assert len(factored) == 2

    @pytest.mark.parametrize("specs, seed", [
        (mlp_specs([8, 6, 4], initial_rank=3), 2),  # another seed
        (mlp_specs([8, 6, 4], initial_rank=2), 1),  # another rank
        (mlp_specs([8, 5, 4], initial_rank=3), 1),  # another width
        ([LayerSpec("lowrank", 8, 6, "identity", initial_rank=3),
          LayerSpec("lowrank", 6, 4, "identity", initial_rank=3)], 1),  # another activation
    ])
    def test_another_key_misses(self, specs, seed, factored):
        net = build_network(self.SPECS, seed=1)
        other = build_network(specs, seed=seed)
        assert other is not net and len(factored) == 4

    def test_held_dense_network_returned_again(self):
        specs = mlp_specs([8, 6, 4])
        net = build_network(specs, seed=1)
        assert build_network(specs, seed=1) is net

    def test_dropped_network_is_factored_again(self, factored):
        net = build_network(self.SPECS, seed=1)
        held = net_bytes(net)
        del net
        assert len(nn_module._built) == 0
        assert net_bytes(build_network(self.SPECS, seed=1)) == held
        assert len(factored) == 4

    def test_generator_seed_raises_type_error(self):
        for specs in (self.SPECS, mlp_specs([8, 6, 4])):
            with pytest.raises(TypeError):
                build_network(specs, seed=np.random.default_rng(1))

    def test_failed_build_not_kept(self, monkeypatch):
        attempts = []

        def failing(a):
            attempts.append(a.shape)
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        for tries in (1, 2):
            with pytest.raises(NumericError):
                build_network(self.SPECS, seed=2)
            assert len(attempts) == tries
            assert len(nn_module._built) == 0


class TestForward:
    def test_zero_weights_zero_logits(self):
        net = Network(
            [
                DenseLayer(np.zeros((3, 4)), np.zeros(3), "identity"),
                DenseLayer(np.zeros((2, 3)), np.zeros(2), "identity"),
            ]
        )
        logits, _ = forward(net, np.ones((5, 4)))
        assert np.array_equal(logits, np.zeros((5, 2)))

    def test_identity_layer_passes_input(self):
        net = Network([DenseLayer(np.eye(4), np.zeros(4), "identity")])
        x = np.random.default_rng(4).standard_normal((3, 4))
        logits, _ = forward(net, x)
        np.testing.assert_allclose(logits, x)

    def test_matches_densified_evaluation(self):
        net = tiny_mixed_net(seed=5)
        x = np.random.default_rng(5).standard_normal((3, 4))
        logits, _ = forward(net, x)
        # naive dense replay
        h1 = x @ dense_weight(net.layers[0]).T + net.layers[0].bias
        h1 = np.maximum(h1, 0.0)
        expected = h1 @ net.layers[1].w.T + net.layers[1].bias
        assert np.linalg.norm(logits - expected) <= 1e-10

    def test_rejects_wrong_width(self):
        net = tiny_mixed_net()
        with pytest.raises(DimensionError):
            forward(net, np.zeros((2, 5)))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_log_classes(self):
        loss, _ = softmax_cross_entropy(np.zeros((4, 10)), np.arange(4))
        assert abs(loss - np.log(10)) <= 1e-14

    def test_saturated_correct_class(self):
        logits = np.zeros((2, 3))
        logits[:, 1] = 50.0
        loss, _ = softmax_cross_entropy(logits, np.array([1, 1]))
        assert loss <= 1e-20

    def test_dlogits_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal((3, 4))
        labels = np.array([2, 0, 3])
        _, dlogits = softmax_cross_entropy(logits, labels)
        eps = 1e-6
        for i in range(3):
            for j in range(4):
                lp = logits.copy()
                lp[i, j] += eps
                lm = logits.copy()
                lm[i, j] -= eps
                fd = (
                    softmax_cross_entropy(lp, labels)[0]
                    - softmax_cross_entropy(lm, labels)[0]
                ) / (2 * eps)
                assert abs(fd - dlogits[i, j]) <= 1e-6 * max(1.0, abs(fd))

    def test_rejects_out_of_range_label(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    def test_rejects_labels_not_one_per_row(self):
        with pytest.raises(DimensionError, match="one integer per row"):
            softmax_cross_entropy(np.zeros((2, 3)), np.zeros((2, 1), dtype=int))

    def test_rejects_empty_batch(self):
        # the mean over no rows was NaN, so train_step returned a NaN loss
        # and an unchanged net
        with pytest.raises(ValueError, match="empty batch"):
            softmax_cross_entropy(np.zeros((0, 3)), np.zeros(0, dtype=int))
        net = tiny_mixed_net()
        with pytest.raises(ValueError, match="empty batch"):
            train_step(net, (np.zeros((0, 4)), np.zeros(0, dtype=int)), "psi", StepConfig(h=0.1))


def fd_dense_gradient(net, layer_idx, x, labels, eps=1e-6):
    """Central differences on the densified weight of one layer."""
    layer = net.layers[layer_idx]
    w0 = dense_weight(layer)
    grad = np.zeros_like(w0)
    for idx in np.ndindex(w0.shape):
        vals = []
        for sign in (1.0, -1.0):
            w = w0.copy()
            w[idx] += sign * eps
            layers = list(net.layers)
            layers[layer_idx] = DenseLayer(w, layer.bias, layer.activation)
            vals.append(loss_of(Network(layers), x, labels))
        grad[idx] = (vals[0] - vals[1]) / (2 * eps)
    return grad


def fd_bias_gradient(net, layer_idx, x, labels, eps=1e-6):
    layer = net.layers[layer_idx]
    grad = np.zeros_like(layer.bias)
    for j in range(layer.bias.size):
        vals = []
        for sign in (1.0, -1.0):
            bias = layer.bias.copy()
            bias[j] += sign * eps
            layers = list(net.layers)
            if isinstance(layer, DenseLayer):
                layers[layer_idx] = DenseLayer(layer.w, bias, layer.activation)
            else:
                layers[layer_idx] = LowRankLayer(layer.state, bias, layer.activation)
            vals.append(loss_of(Network(layers), x, labels))
        grad[j] = (vals[0] - vals[1]) / (2 * eps)
    return grad


class TestBackward:
    def test_zero_dlogits_zero_grads(self):
        net = tiny_mixed_net(seed=7)
        x, _ = random_batch(net, 3, seed=7)
        _, cache = forward(net, x)
        tapes = backward(net, cache, np.zeros((3, 2)))
        assert [type(t) for t in tapes] == [nn_module._Tape] * 2
        assert np.array_equal(tapes[0].right(net.layers[0].state.v), np.zeros((3, 2)))
        assert np.array_equal(tapes[1].full(), np.zeros((2, 3)))
        biases = [t.bias_grad() for t in tapes]
        assert all(np.array_equal(b, np.zeros_like(b)) for b in biases)

    def test_gradients_match_finite_differences(self):
        net = tiny_mixed_net(seed=8)
        x, labels = random_batch(net, 5, seed=8)
        logits, cache = forward(net, x)
        _, dlogits = softmax_cross_entropy(logits, labels)
        tapes = backward(net, cache, dlogits)

        fd0 = fd_dense_gradient(net, 0, x, labels)
        st = net.layers[0].state
        np.testing.assert_allclose(tapes[0].right(st.v), fd0 @ st.v, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(tapes[0].left(st.u), fd0.T @ st.u, rtol=1e-5, atol=1e-7)
        fd1 = fd_dense_gradient(net, 1, x, labels)
        np.testing.assert_allclose(tapes[1].full(), fd1, rtol=1e-5, atol=1e-7)
        for idx in (0, 1):
            fdb = fd_bias_gradient(net, idx, x, labels)
            np.testing.assert_allclose(tapes[idx].bias_grad(), fdb, rtol=1e-5, atol=1e-7)

    def test_contracted_equals_densified_route(self):
        net = tiny_mixed_net(seed=9)
        x, labels = random_batch(net, 4, seed=9)
        logits, cache = forward(net, x)
        _, dlogits = softmax_cross_entropy(logits, labels)
        tapes = backward(net, cache, dlogits)

        # dense replica of the lowrank layer gives the full gradient
        layers = list(net.layers)
        layers[0] = DenseLayer(
            dense_weight(net.layers[0]), net.layers[0].bias, net.layers[0].activation
        )
        replica = Network(layers)
        logits_r, cache_r = forward(replica, x)
        _, dlogits_r = softmax_cross_entropy(logits_r, labels)
        full = backward(replica, cache_r, dlogits_r)[0].full()
        st = net.layers[0].state
        assert np.linalg.norm(tapes[0].right(st.v) - full @ st.v) <= 1e-10
        assert np.linalg.norm(tapes[0].left(st.u) - full.T @ st.u) <= 1e-10

    def test_right_contraction_reuses_forward_product(self):
        # at the evaluated right factor, g.right reads the forward pass's
        # x @ b; it must equal delta.T @ (x @ b) recomputed, byte for byte
        net = build_network(mlp_specs([6, 5, 4, 3], initial_rank=2), seed=12)
        x, labels = random_batch(net, 8, seed=12)
        pairs = [(l.state.u @ l.state.s, l.state.v) for l in net.layers]
        grads = nn_module._network_oracle(net, x, labels, [])(pairs)
        for g, (_, b) in zip(grads, pairs):
            tape = g
            assert tape.b is b and np.array_equal(tape.xb, tape.x @ b)
            assert np.array_equal(g.right(b), tape.delta.T @ (tape.x @ b))
            assert np.array_equal(g.right(b.copy()), g.right(b))

    @pytest.mark.parametrize("integrator", ["psi", "bc-psi", "bug", "abc-psi"])
    def test_handles_match_train_step_first_pass(self, monkeypatch, integrator):
        # backward's handles and the handles train_step's first pass gives
        # the stepper come from one definition: the same bytes, for the
        # contractions, the dense gradient and the bias gradient
        specs = [
            LayerSpec("lowrank", 6, 5, "relu", initial_rank=2),
            LayerSpec("dense", 5, 4, "relu"),
            LayerSpec("lowrank", 4, 3, "identity", initial_rank=2),
        ]
        net = build_network(specs, seed=13)
        x, labels = random_batch(net, 8, seed=13)
        logits, cache = forward(net, x)
        tapes = backward(net, cache, softmax_cross_entropy(logits, labels)[1])

        seen = []
        stepper = STEPPERS[integrator]

        def recording(states, grads, cfg):
            def spy(pairs):
                handles = grads(pairs)
                seen.append(handles)
                return handles

            return stepper(states, spy, cfg)

        monkeypatch.setitem(STEPPERS, integrator, recording)
        cfg = StepConfig(h=0.1, policy=TruncationPolicy(tau=0.1, r_max=4, r_min=1))
        new_net, _ = train_step(net, (x, labels), integrator, cfg)

        lowrank = [i for i, layer in enumerate(net.layers) if layer.rank is not None]
        assert len(seen[0]) == len(lowrank)
        for i, handle in zip(lowrank, seen[0]):
            st, tape = net.layers[i].state, tapes[i]
            assert np.array_equal(handle.right(st.v), tape.right(st.v))
            assert np.array_equal(handle.left(st.u), tape.left(st.u))
            assert np.array_equal(handle.full(), tape.full())
            assert np.array_equal(handle.bias_grad(), tape.bias_grad())
        # the dense layer and every bias step along the same first pass
        dense = net.layers[1]
        assert np.array_equal(new_net.layers[1].w, dense.w - 0.1 * tapes[1].full())
        for layer, new, tape in zip(net.layers, new_net.layers, tapes):
            assert np.array_equal(new.bias, layer.bias - 0.1 * tape.bias_grad())

    def test_stale_cache_rejected(self):
        net = tiny_mixed_net(seed=10)
        other = tiny_mixed_net(seed=11)
        x, _ = random_batch(net, 2, seed=10)
        _, cache = forward(net, x)
        with pytest.raises(ValueError):
            backward(other, cache, np.zeros((2, 2)))


def saturated_batch():
    """A batch the net already classifies with margin 50: gradients ~ 1e-22."""
    state = LowRankState(np.array([[1.0], [0.0]]), np.array([[5.0]]),
                         np.array([[1.0], [0.0]]))
    net = Network([LowRankLayer(state, np.zeros(2), "identity")])
    x = np.array([[10.0, 0.0]])
    labels = np.array([0])
    return net, x, labels


class TestTrainStep:
    def test_near_zero_gradient_leaves_net_unchanged(self):
        policy = TruncationPolicy(tau=0.0, r_max=2, r_min=1)
        for integrator in ("psi", "bc-psi", "bug", "abc-psi"):
            net, x, labels = saturated_batch()
            cfg = StepConfig(h=0.1, policy=policy)
            new_net, loss = train_step(net, (x, labels), integrator, cfg)
            assert loss <= 1e-20
            diff = np.linalg.norm(dense_weight(new_net.layers[0]) - dense_weight(net.layers[0]))
            assert diff <= 1e-10, integrator

    def test_one_step_reduces_loss(self):
        policy = TruncationPolicy(tau=1e-8, r_max=4, r_min=1)
        for integrator in ("psi", "bc-psi", "bug", "abc-psi"):
            net = tiny_mixed_net(seed=12)
            x, labels = random_batch(net, 16, seed=12)
            cfg = StepConfig(h=0.05, policy=policy)
            new_net, loss0 = train_step(net, (x, labels), integrator, cfg)
            assert loss_of(new_net, x, labels) < loss0, integrator

    @pytest.mark.parametrize("integrator, rank", [("full", None), ("abc-psi", 3)])
    def test_batch_width_mismatch_rejected(self, integrator, rank):
        # a 7-wide batch for an 8-input net, dense and low-rank
        net = build_network(mlp_specs([8, 6, 3], initial_rank=rank), seed=4)
        x, labels = random_batch(net, 5, seed=4)
        cfg = StepConfig(h=0.1, policy=TruncationPolicy(tau=0.1, r_max=6))
        with pytest.raises(DimensionError, match="input width 7"):
            train_step(net, (x[:, :7], labels), integrator, cfg)

    def test_full_integrator_is_plain_sgd(self):
        net = build_network(mlp_specs([5, 4, 3]), seed=13)
        x, labels = random_batch(net, 8, seed=13)
        h = 0.1
        logits, cache = forward(net, x)
        _, dlogits = softmax_cross_entropy(logits, labels)
        tapes = backward(net, cache, dlogits)
        new_net, _ = train_step(net, (x, labels), "full", StepConfig(h=h))
        for i, layer in enumerate(net.layers):
            np.testing.assert_allclose(
                new_net.layers[i].w, layer.w - h * tapes[i].full(), atol=1e-14
            )
            np.testing.assert_allclose(
                new_net.layers[i].bias, layer.bias - h * tapes[i].bias_grad(), atol=1e-14
            )

    def test_rejects_unknown_integrator(self):
        net = tiny_mixed_net(seed=14)
        with pytest.raises(ValueError, match="unknown integrator 'euler'"):
            train_step(net, random_batch(net, 2, seed=14), "euler", StepConfig(h=0.1))

    def test_full_integrator_rejects_lowrank_layers(self):
        net = tiny_mixed_net(seed=14)
        x, labels = random_batch(net, 2, seed=14)
        with pytest.raises(ValueError):
            train_step(net, (x, labels), "full", StepConfig(h=0.1))

    def test_abc_needs_policy(self):
        net = tiny_mixed_net(seed=15)
        x, labels = random_batch(net, 2, seed=15)
        with pytest.raises(ValueError):
            train_step(net, (x, labels), "abc-psi", StepConfig(h=0.1))

    def test_single_layer_abc_matches_reference_stepper(self):
        # one lowrank layer, identity activation, zero bias: train_step must
        # agree with each standalone stepper driven by closed-form gradients
        # that know nothing of the network code
        spec = [LayerSpec("lowrank", 6, 5, "identity", initial_rank=2)]
        net = build_network(spec, seed=16)
        x, labels = random_batch(net, 8, seed=16)
        policy = TruncationPolicy(tau=1e-6, r_max=4, r_min=1)

        def eval_full(y):
            _, dz = softmax_cross_entropy(x @ y.T, labels)
            return dz.T @ x

        def grads(pairs):
            return [
                Gradient(lambda basis, g=g: g @ basis, lambda basis, g=g: g.T @ basis)
                for g in (eval_full(a @ b.T) for a, b in pairs)
            ]

        cfg = StepConfig(h=0.1, policy=policy)
        for integrator, stepper in STEPPERS.items():
            [expected] = stepper([net.layers[0].state], grads, cfg)
            new_net, _ = train_step(net, (x, labels), integrator, cfg)
            got = new_net.layers[0].state
            assert got.rank == expected.rank, integrator
            gap = np.linalg.norm(got.densify() - expected.densify())
            assert gap <= 1e-10, integrator

    @pytest.mark.parametrize("integrator", ["psi", "bc-psi", "bug", "abc-psi", "full"])
    def test_passes_per_step(self, integrator, monkeypatch):
        # one network pass is one softmax_cross_entropy call
        passes = {"psi": 3, "bc-psi": 2, "bug": 2, "abc-psi": 1, "full": 1}[integrator]
        calls = []

        def counted(logits, labels):
            calls.append(1)
            return softmax_cross_entropy(logits, labels)

        monkeypatch.setattr(nn_module, "softmax_cross_entropy", counted)
        rank = None if integrator == "full" else 2
        net = build_network(mlp_specs([6, 5, 4, 3], initial_rank=rank), seed=23)
        x, labels = random_batch(net, 8, seed=23)
        policy = TruncationPolicy(tau=1e-6, r_max=4, r_min=1)
        train_step(net, (x, labels), integrator, StepConfig(h=0.05, policy=policy))
        assert len(calls) == passes

    def test_abc_psi_factorizations_per_layer(self, monkeypatch):
        # one augmentation QR and one truncation SVD per low-rank layer,
        # and no other QR
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for module, name in ((integrators_module, "householder_qr"),
                             (integrators_module, "ortho_augment"),
                             (lowrank_module, "svd_thin")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        net = build_network(mlp_specs([6, 5, 4, 3], initial_rank=2), seed=23)
        x, labels = random_batch(net, 8, seed=23)
        policy = TruncationPolicy(tau=1e-6, r_max=4, r_min=1)
        train_step(net, (x, labels), "abc-psi", StepConfig(h=0.05, policy=policy))
        assert sorted(calls) == ["ortho_augment"] * 3 + ["svd_thin"] * 3

    def test_nan_in_layer_factor(self):
        net = build_network(mlp_specs([6, 5, 4, 3], initial_rank=2), seed=24)
        st = net.layers[1].state
        u = st.u.copy()
        u[2, 0] = np.nan
        bad = LowRankLayer(LowRankState(u, st.s, st.v), net.layers[1].bias)
        net = Network([net.layers[0], bad, *net.layers[2:]])
        x, labels = random_batch(net, 8, seed=24)
        policy = TruncationPolicy(tau=0.1, r_max=4, r_min=1)
        with pytest.raises(NumericError):
            train_step(net, (x, labels), "abc-psi", StepConfig(h=0.05, policy=policy))

    def test_paper_net_abc_psi_checks_only_the_batch(self, as_matrix_calls):
        # 784-500x4-10 at rank 50, batch 64: the one scan is train_step's
        # check of the batch; the step's kernels trust what it builds
        net = build_network(mlp_specs([784, 500, 500, 500, 500, 10], initial_rank=50), seed=0)
        x, labels = random_batch(net, 64, seed=0)
        cfg = StepConfig(h=0.01, policy=TruncationPolicy(tau=0.1, r_max=100, r_min=2))
        as_matrix_calls.clear()
        train_step(net, (x, labels), "abc-psi", cfg)
        assert as_matrix_calls == ["x"]

    def test_deterministic_trajectory(self):
        def run():
            net = build_network(mlp_specs([6, 5, 3], initial_rank=2), seed=17)
            policy = TruncationPolicy(tau=1e-4, r_max=4, r_min=1)
            cfg = StepConfig(h=0.05, policy=policy)
            losses = []
            for step in range(5):
                x, labels = random_batch(net, 8, seed=100 + step)
                net, loss = train_step(net, (x, labels), "abc-psi", cfg)
                losses.append(loss)
            return losses, net

        losses_a, net_a = run()
        losses_b, net_b = run()
        assert losses_a == losses_b
        for la, lb in zip(net_a.layers, net_b.layers):
            assert np.array_equal(dense_weight(la), dense_weight(lb))

    def test_frozen_batch_descent(self):
        net = build_network(mlp_specs([8, 6, 4], initial_rank=3), seed=18)
        x, labels = random_batch(net, 32, seed=18)
        policy = TruncationPolicy(tau=1e-6, r_max=6, r_min=1)
        cfg = StepConfig(h=0.05, policy=policy)
        prev = loss_of(net, x, labels)
        for _ in range(30):
            net, loss = train_step(net, (x, labels), "abc-psi", cfg)
            assert loss <= prev + 1e-8
            prev = loss

    def test_long_run_keeps_bases_orthonormal(self):
        # the augmented basis keeps u0 as it is, so the rounding of every
        # step stays in u; over 3000 steps its Gram error grows to ~3e-13
        # here (about 1e-16 per step), far inside the validate() bound
        rng = np.random.default_rng(24)
        centers = rng.standard_normal((10, 40))
        net = build_network(mlp_specs([40, 30, 30, 10], initial_rank=6), seed=24)
        cfg = StepConfig(h=0.05, policy=TruncationPolicy(tau=0.05, r_max=12, r_min=2))
        for step in range(1, 3001):
            labels = rng.integers(0, 10, size=32)
            x = centers[labels] + 0.5 * rng.standard_normal((32, 40))
            net, _ = train_step(net, (x, labels), "abc-psi", cfg)
            if step % 500 == 0:
                for layer in net.layers:
                    layer.state.validate()
        for layer in net.layers:
            layer.state.validate(tol=1e-12)

    @pytest.mark.parametrize("tau, settled", [(0.1, [16, 16, 10]), (0.5, [3, 3, 3])])
    def test_rank_settles_near_one_over_tau_squared(self, tau, settled):
        # the initial spectrum is nearly flat, so the truncation drops the
        # smallest singular value while the rank is above about 1/tau^2, and
        # the augmented directions enter far below tau * ||sigma||: above
        # 1/tau^2 (4 at tau 0.5) the rank falls within a few steps, then
        # holds; below it (100 at tau 0.1) it holds from the start
        net = build_network(mlp_specs([64, 48, 48, 10], initial_rank=16), seed=0)
        rng = np.random.default_rng(0)
        cfg = StepConfig(h=0.05, policy=TruncationPolicy(tau, r_max=32))
        ranks = [net.ranks()]
        for _ in range(60):
            batch = rng.random((32, 64)), rng.integers(0, 10, 32)
            net, _ = train_step(net, batch, "abc-psi", cfg)
            ranks.append(net.ranks())
        assert ranks[0] == [16, 16, 10]
        assert np.all(np.diff(ranks, axis=0) <= 0)  # no rank rises
        assert ranks[10:] == [settled] * 51
        assert max(settled) <= 1 / tau**2


class TestEvaluate:
    def test_perfect_and_inverted(self):
        net = Network([DenseLayer(np.eye(3), np.zeros(3), "identity")])
        images = np.eye(3)
        labels = np.array([0, 1, 2])
        assert evaluate(net, (images, labels)) == 1.0
        assert evaluate(net, (images, np.array([1, 2, 0]))) == 0.0

    def test_hand_counted_fixture(self):
        net = Network([DenseLayer(np.eye(2), np.zeros(2), "identity")])
        rng = np.random.default_rng(20)
        images = rng.standard_normal((10, 2))
        truth = np.argmax(images, axis=1)
        labels = truth.copy()
        labels[:3] = 1 - labels[:3]  # corrupt three labels
        assert evaluate(net, (images, labels)) == 0.7

    def test_tie_goes_to_lowest_index(self):
        net = Network([DenseLayer(np.zeros((3, 2)), np.zeros(3), "identity")])
        images = np.ones((4, 2))
        assert evaluate(net, (images, np.zeros(4, dtype=int))) == 1.0
        assert evaluate(net, (images, np.full(4, 2))) == 0.0

    def test_chunks_agree_with_forward(self):
        # evaluate's cache-free chunked pass predicts what forward's logits do
        net = build_network(mlp_specs([6, 5, 4, 3], initial_rank=2), seed=24)
        x, labels = random_batch(net, 11, seed=24)
        logits, _ = forward(net, x)
        expected = np.mean(np.argmax(logits, axis=1) == labels)
        assert evaluate(net, (x, labels), chunk=4) == expected
        with pytest.raises(DimensionError):
            evaluate(net, (np.zeros((2, 5)), np.zeros(2, dtype=int)))

    @pytest.mark.parametrize("labels", [np.zeros((4, 1), dtype=int), np.array([0])])
    def test_rejects_labels_not_one_per_image(self, labels):
        # broadcast against the predictions, a column counted 4 hits per
        # row and a single label was compared with every row
        net = Network([DenseLayer(np.zeros((3, 2)), np.zeros(3), "identity")])
        with pytest.raises(DimensionError, match="one integer per image"):
            evaluate(net, (np.ones((4, 2)), labels))

    def test_rejects_empty_dataset(self):
        net = Network([DenseLayer(np.eye(2), np.zeros(2), "identity")])
        with pytest.raises(ValueError, match="empty dataset"):
            evaluate(net, (np.zeros((0, 2)), np.zeros(0, dtype=int)))

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_rejects_chunk_below_one(self, chunk):
        # chunk -1 returned accuracy 0.0 and chunk 0 failed inside range
        net = Network([DenseLayer(np.eye(2), np.zeros(2), "identity")])
        with pytest.raises(ValueError, match="chunk must be >= 1"):
            evaluate(net, (np.eye(2), np.array([0, 1])), chunk=chunk)


class TestNetworkCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = tiny_mixed_net(seed=21)
        path = tmp_path / "net.ckpt"
        save_network(path, net)
        loaded = load_network(path)
        path2 = tmp_path / "net2.ckpt"
        save_network(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()
        for la, lb in zip(net.layers, loaded.layers):
            assert np.array_equal(dense_weight(la), dense_weight(lb))
            assert np.array_equal(la.bias, lb.bias)
            assert la.activation == lb.activation

    def test_loaded_net_forward_identical(self, tmp_path):
        net = build_network(mlp_specs([6, 5, 3], initial_rank=2), seed=22)
        x = np.random.default_rng(22).standard_normal((4, 6))
        path = tmp_path / "net.ckpt"
        save_network(path, net)
        loaded = load_network(path)
        a, _ = forward(net, x)
        b, _ = forward(loaded, x)
        assert np.array_equal(a, b)
