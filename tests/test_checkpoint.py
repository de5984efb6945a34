import numpy as np
import pytest

from dlrt import checkpoint
from dlrt.checkpoint import MAGIC, CheckpointError, load_network, save_network
from dlrt.nn import DenseLayer, LowRankLayer, Network

from helpers import init_lowrank


def lowrank_net(*shapes, seed):
    """A chain of low-rank identity layers, one per (m, n, r) triple."""
    rng = np.random.default_rng(seed)
    return Network([
        LowRankLayer(init_lowrank(m, n, r, seed=seed + i), rng.standard_normal(m), "identity")
        for i, (m, n, r) in enumerate(shapes)
    ])


def test_round_trip_bit_exact(tmp_path):
    dense = DenseLayer(np.arange(10.0).reshape(2, 5), np.ones(2), "relu")
    net = Network([*lowrank_net((9, 7, 3), (5, 9, 2), seed=0).layers, dense])
    path = tmp_path / "net.dlrt"
    save_network(path, net)
    loaded = load_network(path)
    assert len(loaded.layers) == 3
    for before, after in zip(net.layers[:2], loaded.layers[:2]):
        assert np.array_equal(before.state.u, after.state.u)
        assert np.array_equal(before.state.s, after.state.s)
        assert np.array_equal(before.state.v, after.state.v)
        assert np.array_equal(before.bias, after.bias)
    assert np.array_equal(net.layers[2].w, loaded.layers[2].w)
    assert np.array_equal(net.layers[2].bias, loaded.layers[2].bias)
    assert [l.activation for l in loaded.layers] == ["identity", "identity", "relu"]


def test_double_round_trip_same_bytes(tmp_path):
    net = lowrank_net((6, 6, 4), seed=3)
    p1 = tmp_path / "a.dlrt"
    p2 = tmp_path / "b.dlrt"
    save_network(p1, net)
    save_network(p2, load_network(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_header_layout(tmp_path):
    path = tmp_path / "one.dlrt"
    save_network(path, lowrank_net((4, 3, 2), seed=5))
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert int.from_bytes(raw[4:8], "little") == 2  # version
    assert int.from_bytes(raw[8:12], "little") == 1  # layer count
    assert int.from_bytes(raw[12:16], "little") == 1  # kind: lowrank
    assert int.from_bytes(raw[16:20], "little") == 1  # activation: identity
    assert int.from_bytes(raw[20:24], "little") == 4  # m
    assert int.from_bytes(raw[24:28], "little") == 3  # n
    assert int.from_bytes(raw[28:32], "little") == 2  # r
    payload = (4 * 2 + 2 * 2 + 3 * 2 + 4) * 8  # u, s, v, bias
    assert len(raw) == 32 + payload


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.dlrt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        load_network(path)


def test_truncated_rejected(tmp_path):
    path = tmp_path / "trunc.dlrt"
    save_network(path, lowrank_net((5, 5, 2), seed=6))
    path.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(CheckpointError):
        load_network(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "extra.dlrt"
    save_network(path, lowrank_net((5, 5, 2), seed=7))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError):
        load_network(path)


def test_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "net.dlrt"
    net = lowrank_net((6, 5, 2), (4, 6, 2), seed=5)
    save_network(path, net)
    good = path.read_bytes()
    # layer 0's activation has no code: the save fails after the file header
    monkeypatch.delitem(checkpoint._ACT_CODES, "identity")
    with pytest.raises(KeyError):
        save_network(path, net)
    assert path.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == ["net.dlrt"]


def header_file(path, words, payload=b""):
    """MAGIC, then the given u32 words, then ``payload``."""
    path.write_bytes(MAGIC + b"".join(w.to_bytes(4, "little") for w in words) + payload)
    return path


def layer_file(path, kind, dims, payload=b""):
    """A one-layer checkpoint with the given header dims (identity activation)."""
    return header_file(path, [2, 1, kind, 1, *dims], payload)


@pytest.mark.parametrize("kind, dims", [
    (0, (0, 0)), (0, (3, 0)), (1, (0, 4, 1)), (1, (4, 3, 0)),
])
def test_zero_dim_or_rank_rejected(tmp_path, kind, dims):
    # a dense 0 x 0 layer loaded as an empty layer
    with pytest.raises(CheckpointError, match="zero dim"):
        load_network(layer_file(tmp_path / "zero.dlrt", kind, dims))


@pytest.mark.parametrize("kind, dims", [
    (0, (0xFFFFFFFF, 0xFFFFFFFF)), (1, (0xFFFFFFFF,) * 3),
])
def test_payload_larger_than_file_rejected(tmp_path, kind, dims):
    # 0xFFFFFFFF dims raised OverflowError; the check reads no payload
    path = layer_file(tmp_path / "big.dlrt", kind, dims, payload=b"\x00" * 64)
    with pytest.raises(CheckpointError, match="payload"):
        load_network(path)


@pytest.mark.parametrize("words, match", [
    ([1, 1], "unsupported version 1"),
    ([3, 1], "unsupported version 3"),
    ([2, 1, 0, 2, 1, 1], "unknown activation code 2"),
    ([2, 1, 2, 1, 1, 1], "unknown layer kind 2"),
    ([2, 1, 1, 1, 4, 3, 4], r"rank 4 exceeds min\(4,3\)"),
    ([2, 0], "no layers"),
    # a low-rank layer header cut after m
    ([2, 1, 1, 1, 4], "expected u32"),
    # dense 2 x 3 then dense 2 x 4, zero payloads (two u32 words per f64)
    ([2, 2, 0, 1, 2, 3, *[0] * 16, 0, 1, 2, 4, *[0] * 20], "do not chain: 2 -> 4"),
], ids=["version-1", "version-3", "activation", "kind", "rank", "count", "header-cut",
         "chain"])
def test_bad_header_is_checkpoint_error(tmp_path, words, match):
    # a rank above min(m, n) and widths that do not chain raised
    # DimensionError; a file of no layers loaded as an empty network,
    # which no layer check could catch
    with pytest.raises(CheckpointError, match=match):
        load_network(header_file(tmp_path / "bad.dlrt", words))
