"""Seeded test inputs, and readers of their results, shared by several test
files."""

import math

import numpy as np

from dlrt.linalg import DimensionError, householder_qr
from dlrt.lowrank import LowRankState


def init_lowrank(m: int, n: int, r: int, seed: int) -> LowRankState:
    """Seeded random state: orthonormalized Gaussian bases, s = I/sqrt(r).

    The u factor is drawn first, then v, from one generator stream, so the
    same seed reproduces the state bitwise.
    """
    if not (1 <= r <= min(m, n)):
        raise DimensionError(f"rank {r} outside [1, min({m},{n})]")
    rng = np.random.default_rng(seed)
    u = householder_qr(rng.standard_normal((m, r))).q
    v = householder_qr(rng.standard_normal((n, r))).q
    s = np.eye(r) / math.sqrt(r)
    return LowRankState(u, s, v)


def net_bytes(net) -> list:
    """The bytes of every array a network's layers hold, in layer order."""
    arrays = []
    for layer in net.layers:
        weights = [layer.w] if layer.rank is None else [layer.state.u, layer.state.s,
                                                        layer.state.v]
        arrays += [a.tobytes() for a in weights] + [layer.bias.tobytes()]
    return arrays
