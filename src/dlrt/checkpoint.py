"""Binary checkpoint format for networks.

Layout (all integers u32 little-endian, all floats f64 little-endian,
matrices row-major):

    magic   4 bytes, b"DLRT"
    version u32  (2; version-1 files, bare lists of low-rank states, are rejected)
    count   u32  number of layers

Per layer:
    kind     u32  (0 = dense, 1 = lowrank)
    act      u32  (0 = relu, 1 = identity)
    dense:   m, n u32; w m*n f64; bias m f64
    lowrank: m, n, r u32; u m*r f64; s r*r f64; v n*r f64; bias m f64

Round-trips are bit-exact: the float payload is written verbatim.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .lowrank import LowRankState

__all__ = [
    "CheckpointError",
    "MAGIC",
    "atomic_write",
    "save_network",
    "load_network",
]

MAGIC = b"DLRT"
VERSION = 2


class CheckpointError(Exception):
    """Malformed or truncated checkpoint file."""


def _write_u32(fh: BinaryIO, value: int) -> None:
    fh.write(struct.pack("<I", value))


def _read_u32(fh: BinaryIO) -> int:
    raw = fh.read(4)
    if len(raw) != 4:
        raise CheckpointError("truncated checkpoint: expected u32")
    return struct.unpack("<I", raw)[0]


def _write_matrix(fh: BinaryIO, a: np.ndarray) -> None:
    fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _read_matrix(fh: BinaryIO, rows: int, cols: int) -> np.ndarray:
    nbytes = rows * cols * 8
    raw = fh.read(nbytes)
    if len(raw) != nbytes:
        raise CheckpointError(f"truncated checkpoint: expected {nbytes} matrix bytes")
    return np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy()


def _read_dims(fh: BinaryIO, count: int) -> tuple:
    dims = tuple(_read_u32(fh) for _ in range(count))
    if 0 in dims:
        raise CheckpointError(f"zero dim or rank in layer header {dims}")
    return dims


def _check_payload(fh: BinaryIO, floats: int) -> None:
    """Refuse a layer whose payload of ``floats`` f64 values is larger than
    the rest of the file, before any of it is read."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if 8 * floats > left:
        raise CheckpointError(f"layer payload of {8 * floats} bytes, only {left} left in the file")


def _read_header(fh: BinaryIO) -> int:
    """Check magic and version; returns the layer count."""
    magic = fh.read(4)
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version = _read_u32(fh)
    if version != VERSION:
        raise CheckpointError(f"unsupported version {version}, expected {VERSION}")
    return _read_u32(fh)


@contextmanager
def atomic_write(path, mode: str, **open_kwargs):
    """Open a temporary file in ``path``'s directory for writing; when the
    block finishes it replaces ``path``, and when the block raises it is
    deleted, so ``path`` never holds a partial write."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_KIND_DENSE = 0
_KIND_LOWRANK = 1
_ACT_CODES = {"relu": 0, "identity": 1}
_ACT_NAMES = {code: name for name, code in _ACT_CODES.items()}


def save_network(path, net) -> None:
    """Write a whole network, weights plus biases, through ``atomic_write``."""
    from .nn import DenseLayer

    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        _write_u32(fh, VERSION)
        _write_u32(fh, len(net.layers))
        for layer in net.layers:
            if isinstance(layer, DenseLayer):
                _write_u32(fh, _KIND_DENSE)
                _write_u32(fh, _ACT_CODES[layer.activation])
                _write_u32(fh, layer.out_dim)
                _write_u32(fh, layer.in_dim)
                _write_matrix(fh, layer.w)
            else:
                state = layer.state
                _write_u32(fh, _KIND_LOWRANK)
                _write_u32(fh, _ACT_CODES[layer.activation])
                _write_u32(fh, layer.out_dim)
                _write_u32(fh, layer.in_dim)
                _write_u32(fh, state.rank)
                _write_matrix(fh, state.u)
                _write_matrix(fh, state.s)
                _write_matrix(fh, state.v)
            _write_matrix(fh, layer.bias.reshape(1, -1))


def load_network(path):
    """Read a checkpoint back into a Network."""
    from .nn import DenseLayer, LowRankLayer, Network

    with open(path, "rb") as fh:
        count = _read_header(fh)
        layers = []
        for _ in range(count):
            kind = _read_u32(fh)
            act_code = _read_u32(fh)
            if act_code not in _ACT_NAMES:
                raise CheckpointError(f"unknown activation code {act_code}")
            act = _ACT_NAMES[act_code]
            if kind == _KIND_DENSE:
                m, n = _read_dims(fh, 2)
                _check_payload(fh, m * n + m)
                w = _read_matrix(fh, m, n)
                bias = _read_matrix(fh, 1, m).ravel()
                layers.append(DenseLayer(w, bias, act))
            elif kind == _KIND_LOWRANK:
                m, n, r = _read_dims(fh, 3)
                if r > min(m, n):
                    raise CheckpointError(f"checkpoint rank {r} exceeds min({m},{n})")
                _check_payload(fh, (m + n + r) * r + m)
                u = _read_matrix(fh, m, r)
                s = _read_matrix(fh, r, r)
                v = _read_matrix(fh, n, r)
                bias = _read_matrix(fh, 1, m).ravel()
                layers.append(LowRankLayer(LowRankState(u, s, v), bias, act))
            else:
                raise CheckpointError(f"unknown layer kind {kind}")
        if fh.read(1):
            raise CheckpointError("trailing bytes after last layer")
        return Network(layers)
