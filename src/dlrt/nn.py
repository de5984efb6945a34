"""Feed-forward networks with dense and low-rank factored layers.

A layer with weight ``w`` (out_dim x in_dim) maps a batch ``x`` (b x in_dim)
to ``x @ w.T + bias``. Low-rank layers never materialize ``w``: forward runs
as ``((x @ v) @ s.T) @ u.T`` at cost O(b (m+n) r), and backward returns
gradient handles that contract against a basis, never the m x n matrix.

train_step hands the low-rank layers' states to the chosen stepper of
``dlrt.integrators`` together with the network's gradient function, so every
integrator is written once for single matrices and networks alike. One
evaluation of that function is one forward/backward pass with all low-rank
layers at the stepper's current phase, so each gradient evaluation sees a
consistent network. A step costs 3 (psi), 2 (bc-psi, bug) or 1 (abc-psi,
full) passes. Dense layers and biases take a plain gradient-descent step
from the first pass.

Evaluation runs the cache-free pass over fixed-size row chunks, which
share no data, so ``threads.map_tasks`` spreads them over the CPUs that
BLAS leaves idle. Each chunk's result is reduced in chunk order, so the
bytes do not depend on the pool's width. ``build_network`` does the same
with its low-rank layers' initial factorizations, after drawing every
layer's weights in order on the calling thread.

``build_network`` keeps its last ``_KEPT_NETWORKS`` networks that hold a
low-rank layer, keyed by (specs, seed), for a caller that builds one
network again, as a benchmark does that starts several integrators from
it: factoring costs a Gram eigendecomposition per layer. A dense-only
network costs only its draw and is built anew. Sharing a network is safe:
networks, layers and states are frozen values over read-only arrays,
which a step replaces and never writes. (``compare`` does not lean on
this: it builds each seed's network once and hands it to its runs.)
"""

import functools
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .integrators import INTEGRATOR_NAMES, STEPPERS, StepConfig
from .linalg import DimensionError, Matrix, NumericError, as_matrix, read_only
from .lowrank import LowRankState, _gram_svd
from .threads import map_tasks

__all__ = [
    "LayerSpec",
    "DenseLayer",
    "LowRankLayer",
    "Network",
    "build_network",
    "mlp_specs",
    "forward",
    "softmax_cross_entropy",
    "backward",
    "train_step",
    "evaluate",
]

_ACTIVATIONS = ("relu", "identity")


@dataclass(frozen=True)
class LayerSpec:
    """Declarative description of one layer, consumed by build_network."""

    kind: str  # "dense" | "lowrank"
    in_dim: int
    out_dim: int
    activation: str = "relu"
    initial_rank: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("dense", "lowrank"):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("layer dims must be positive")
        _check_activation(self.activation)
        if self.kind == "lowrank":
            if self.initial_rank is None:
                raise ValueError("lowrank layer needs initial_rank")
            if not 1 <= self.initial_rank <= min(self.in_dim, self.out_dim):
                raise ValueError("initial_rank must be in [1, min(dims)]")
        elif self.initial_rank is not None:
            raise ValueError("dense layer takes no initial_rank")


def _check_activation(name: str) -> None:
    if name not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {name!r}")


def _check_bias(layer) -> None:
    # a bias of another shape would broadcast in forward, and its
    # checkpoint could not be read back
    if np.shape(layer.bias) != (layer.out_dim,):
        raise DimensionError(f"bias shape {np.shape(layer.bias)}, expected ({layer.out_dim},)")


@dataclass(frozen=True, eq=False)
class DenseLayer:
    """A layer with a full weight matrix. It takes ownership of ``w`` and
    ``bias`` and marks them read-only."""

    w: Matrix  # out_dim x in_dim
    bias: np.ndarray
    activation: str = "relu"
    rank = None  # not a field: a dense layer is not factored

    def __post_init__(self):
        _check_activation(self.activation)
        _check_bias(self)
        read_only(self.w, self.bias)

    @property
    def in_dim(self) -> int:
        return self.w.shape[1]

    @property
    def out_dim(self) -> int:
        return self.w.shape[0]

    def densify(self) -> Matrix:
        return self.w


@dataclass(frozen=True, eq=False)
class LowRankLayer:
    """A layer whose weight stays factored as a ``LowRankState``. It takes
    ownership of ``bias`` and marks it read-only, as the state does its
    factors."""

    state: LowRankState  # u: out_dim x r, v: in_dim x r
    bias: np.ndarray
    activation: str = "relu"

    def __post_init__(self):
        _check_activation(self.activation)
        _check_bias(self)
        read_only(self.bias)

    @property
    def in_dim(self) -> int:
        return self.state.v.shape[0]

    @property
    def out_dim(self) -> int:
        return self.state.u.shape[0]

    @property
    def rank(self) -> int:
        return self.state.rank

    def densify(self) -> Matrix:
        return self.state.densify()


@dataclass(frozen=True, eq=False)
class Network:
    layers: tuple  # any sequence of layers is stored as a tuple

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ValueError("a network needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise DimensionError(
                    f"layer widths do not chain: {prev.out_dim} -> {nxt.in_dim}"
                )

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    def ranks(self) -> list:
        return [l.rank for l in self.layers if l.rank is not None]


def mlp_specs(widths: Sequence[int], initial_rank: Optional[int] = None) -> list:
    """Layer specs for an MLP: relu hidden layers, identity output.

    With initial_rank given, every layer is low-rank (rank capped at the
    layer's smaller dimension); otherwise all layers are dense.
    """
    if len(widths) < 2:
        raise ValueError("need at least input and output widths")
    specs = []
    for i, (n_in, n_out) in enumerate(zip(widths, widths[1:])):
        act = "identity" if i == len(widths) - 2 else "relu"
        if initial_rank is None:
            specs.append(LayerSpec("dense", n_in, n_out, act))
        else:
            r = min(initial_rank, n_in, n_out)
            specs.append(LayerSpec("lowrank", n_in, n_out, act, initial_rank=r))
    return specs


def build_network(specs: Sequence[LayerSpec], seed: int) -> Network:
    """Seeded network init.

    Dense weights draw from the standard fan-in-scaled Gaussian. A low-rank
    layer keeps the dominant rank-r part of the same dense draw, so its
    factors start orthonormal and the layer's output scale tracks the dense
    baseline instead of collapsing when the net is deep.

    The rank-r part w = u_r diag(sigma_r) v_r^T is read off the Gram matrix
    of the draw's smaller side by ``lowrank._gram_svd``, the route
    ``truncate_state`` takes, or off ``svd_thin(w)``, bit for bit, where
    that route's accuracy guard trips. On the paper net sigma_r / sigma_1 is
    at least 0.78 on every layer, and the factors match gesdd's to rounding
    level, up to a shared sign of each column pair of u and v.

    Every layer's weights are drawn on the calling thread in layer order,
    from the one seeded stream; then each low-rank draw's factorization is
    one ``threads.map_tasks`` task, so the bytes do not depend on the pool's
    width. Dense layers are built inline.

    When the specs hold a low-rank layer, the network is kept under
    (tuple(specs), seed) among the last ``_KEPT_NETWORKS`` such builds, and
    a repeated call returns that same network. A kept network is shared
    safely: it, its layers and its states are frozen, their arrays are
    read-only, and ``train_step`` returns a new network. It stays in memory
    until newer builds evict it, whether or not a caller still holds it; a
    paper net is about 2 MB, and the cost grows with the layers' sizes and
    ranks. A dense-only network is drawn anew on every call: it costs no
    factorization, and at paper size it is 9 MB to keep. ``seed`` must be
    an integer (``operator.index``); anything else, a
    ``np.random.Generator`` among them, raises ``TypeError``.
    """
    specs, seed = tuple(specs), operator.index(seed)
    if any(spec.kind == "lowrank" for spec in specs):
        return _kept_network(specs, seed)
    return _new_network(specs, seed)


def _new_network(specs: tuple, seed: int) -> Network:
    rng = np.random.default_rng(seed)
    draws = [np.sqrt(2.0 / spec.in_dim) * rng.standard_normal((spec.out_dim, spec.in_dim))
             for spec in specs]
    lowrank = [(w, spec.initial_rank) for spec, w in zip(specs, draws) if spec.kind == "lowrank"]
    states = iter(map_tasks(_leading_state, *zip(*lowrank)))
    layers = []
    for spec, w in zip(specs, draws):
        bias = np.zeros(spec.out_dim)
        if spec.kind == "dense":
            layers.append(DenseLayer(w, bias, spec.activation))
        else:
            layers.append(LowRankLayer(next(states), bias, spec.activation))
    return Network(layers)


# a benchmark's set-up builds one network per integrator, which needs one
# entry; 8 also serves a script that loops over up to 8 seeds per
# integrator. A failed build is not kept
_KEPT_NETWORKS = 8
_kept_network = functools.lru_cache(maxsize=_KEPT_NETWORKS)(_new_network)


def _leading_state(w: Matrix, rank: int) -> LowRankState:
    # the rank-r part of one layer's draw, by the Gram route
    u, sigma, v = _gram_svd(w, lambda _: rank)
    return LowRankState(np.ascontiguousarray(u), np.diag(sigma), np.ascontiguousarray(v))


# -- forward / backward tape ------------------------------------------------
#
# A pass views every layer's weight as w = a @ b.T, one factor pair per
# layer: a dense layer is a = w with no right factor (b = None), so its pass
# skips the x @ b product; bias and activation come from the layer itself.
# The forward pass records each layer's input, x @ b and pre-activation as a
# plain (x, xb, z) tuple. Backward reads the records and returns one tape
# per layer (the input, the right factor, x @ b and the pre-activation's
# gradient): the layer's gradient handle, contracted against whatever factor
# the active integrator phase needs. Only a dense layer's update forms
# delta.T @ x in full. The pre-activation does not outlive the pass.


class _Tape(NamedTuple):
    """One layer's record of one forward/backward pass: the gradient handle
    of the layer's weight (``right``, ``left``, ``full``) and bias."""

    x: Matrix  # layer input, batch x in_dim
    b: Optional[Matrix]  # the pass's right factor (None for dense)
    xb: Matrix  # x @ b, formed by the forward pass (x itself for dense)
    delta: Matrix  # grad wrt pre-activation, batch x out_dim

    def right(self, basis: Matrix) -> Matrix:
        # (delta.T @ x) @ basis without forming the full gradient; at the
        # pass's own right factor, x @ basis is the forward pass's product
        xb = self.xb if basis is self.b else self.x @ basis
        return self.delta.T @ xb

    def left(self, basis: Matrix) -> Matrix:
        return self.x.T @ (self.delta @ basis)

    def full(self) -> Matrix:  # the dense gradient, out_dim x in_dim
        return self.delta.T @ self.x

    def bias_grad(self) -> np.ndarray:
        return self.delta.sum(axis=0)


def _pair(layer) -> tuple:
    """The layer's weight as its pass's factor pair (a, b)."""
    if isinstance(layer, DenseLayer):
        return layer.w, None
    st = layer.state
    return st.u @ st.s, st.v


def _run_forward(layers, pairs, x, records=None):
    # returns the logits; with a list given as records, appends each
    # layer's (x, xb, z) for backward. Evaluation passes none, so no
    # layer's arrays outlive the next layer: holding them made the
    # allocator fault fresh pages for every 512-row chunk, about 30% of a
    # paper-net evaluation's time. Without records the bias and the ReLU
    # also go into z in place, one array per layer: after a threaded
    # abc-psi step, each extra temporary faulted fresh pages again
    cur = x
    for layer, (a, b) in zip(layers, pairs):
        xb = cur if b is None else cur @ b
        z = xb @ a.T
        z += layer.bias
        if records is not None:
            records.append((cur, xb, z))
        if layer.activation == "relu":
            cur = np.maximum(z, 0.0, out=None if records is not None else z)
        else:
            cur = z
    if not np.isfinite(cur).all():
        raise NumericError("non-finite activation in forward pass")
    return cur


def _run_backward(layers, pairs, records, dlogits) -> list:
    # the pass's tapes in layer order, from its forward records
    tapes = []
    d = dlogits
    for idx in range(len(layers) - 1, -1, -1):
        (a, b), (x, xb, z) = pairs[idx], records[idx]
        delta = d * (z > 0.0) if layers[idx].activation == "relu" else d
        tapes.append(_Tape(x, b, xb, delta))
        if idx > 0:
            d = delta @ a
            if b is not None:
                d = d @ b.T
    return tapes[::-1]


class _Cache(NamedTuple):
    net: "Network"
    pairs: list
    records: list


def _net_input(net: Network, x) -> Matrix:
    x = as_matrix(x, "x")
    if x.shape[1] != net.in_dim:
        raise DimensionError(
            f"input width {x.shape[1]} does not match layer 0 ({net.in_dim})"
        )
    return x


def forward(net: Network, x_batch) -> tuple:
    """Batch forward pass. Returns (logits, cache) with cache for backward."""
    x = _net_input(net, x_batch)
    pairs = [_pair(layer) for layer in net.layers]
    records = []
    logits = _run_forward(net.layers, pairs, x, records)
    return logits, _Cache(net, pairs, records)


def softmax_cross_entropy(logits, labels) -> tuple:
    """Mean softmax cross-entropy and its gradient wrt the logits.

    Stabilized by max subtraction; dlogits = (softmax - onehot) / batch.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    b, classes = logits.shape
    if labels.shape != (b,):
        raise DimensionError("labels must be one integer per row of logits")
    if b == 0:
        raise ValueError("empty batch")
    if labels.min() < 0 or labels.max() >= classes:
        raise ValueError(f"labels must lie in [0, {classes})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_prob = shifted - log_z
    rows = np.arange(b)
    loss = float(-log_prob[rows, labels].mean())
    dlogits = np.exp(log_prob)
    dlogits[rows, labels] -= 1.0
    dlogits /= b
    return loss, dlogits


def backward(net: Network, cache: _Cache, dlogits) -> list:
    """The pass's gradient handles, one ``_Tape`` per layer in layer order:
    the records ``train_step``'s passes hand the steppers. ``right(v)`` and
    ``left(u)`` give G @ v and G.T @ u as delta.T @ (x @ v) and
    x.T @ (delta @ u); ``full()`` gives G and ``bias_grad()`` the bias's."""
    if cache.net is not net:
        raise ValueError("stale cache: forward ran on a different network")
    dlogits = as_matrix(dlogits, "dlogits")
    return _run_backward(net.layers, cache.pairs, cache.records, dlogits)


# -- training ----------------------------------------------------------------


def _network_oracle(net: Network, x: Matrix, labels, first: list) -> Callable[[list], list]:
    """Gradient function of the batch loss over the network's low-rank
    layers, the ``grads`` a stepper takes.

    One evaluation sets every low-rank layer to its factor pair (a, b),
    holds dense layers at their weights, and runs one forward/backward
    pass; it returns the low-rank layers' tapes as their gradient handles.
    The first evaluation's (loss, tapes) is appended to ``first``.
    """

    def grads(pairs):
        given = iter(pairs)
        pairs = [
            next(given) if isinstance(layer, LowRankLayer) else _pair(layer)
            for layer in net.layers
        ]
        records = []
        logits = _run_forward(net.layers, pairs, x, records)
        loss, dlogits = softmax_cross_entropy(logits, labels)
        tapes = _run_backward(net.layers, pairs, records, dlogits)
        if not first:
            first.append((loss, tapes))
        return [tape for layer, tape in zip(net.layers, tapes) if isinstance(layer, LowRankLayer)]

    return grads


def train_step(net: Network, batch, integrator: str, cfg: StepConfig) -> tuple:
    """One mini-batch update. Returns (new_net, pre-step batch loss).

    Low-rank layers advance together by one step of the named integrator
    from ``dlrt.integrators``; dense layers and all biases take a plain
    gradient step of the same size, from the first pass, which every
    integrator makes at the current weights.
    """
    if integrator not in INTEGRATOR_NAMES:
        raise ValueError(f"unknown integrator {integrator!r}")
    x, labels = batch
    x = _net_input(net, x)
    states = [layer.state for layer in net.layers if isinstance(layer, LowRankLayer)]
    if integrator == "full" and states:
        raise ValueError("full integrator requires an all-dense network")

    first = []
    grads = _network_oracle(net, x, labels, first)
    if states:
        states = STEPPERS[integrator](states, grads, cfg)
    else:
        grads([])
    [(loss, tapes)] = first

    h = cfg.h
    states = iter(states)
    new_layers = []
    for layer, tape in zip(net.layers, tapes):
        bias = layer.bias - h * tape.bias_grad()
        if isinstance(layer, DenseLayer):
            w = layer.w - h * tape.full()
            new_layers.append(DenseLayer(w, bias, layer.activation))
        else:
            new_layers.append(LowRankLayer(next(states), bias, layer.activation))
    return Network(new_layers), loss


def evaluate(net: Network, dataset, chunk: int = 512) -> float:
    """Argmax accuracy over a dataset, ``chunk`` rows (>= 1) per pass; ties
    resolve to the lowest class. The chunks run on ``threads.map_tasks``."""
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    if hasattr(dataset, "images"):
        images, labels = dataset.images, dataset.labels
    else:
        images, labels = dataset
    labels = np.asarray(labels)
    n = images.shape[0]
    if labels.shape != (n,):
        raise DimensionError("labels must be one integer per image")
    if n == 0:
        raise ValueError("empty dataset")

    def hits(start, logits):
        return int((np.argmax(logits, axis=1) == labels[start : start + chunk]).sum())

    return sum(_map_chunks(net, images, chunk, hits)) / n


def _map_chunks(net: Network, images, chunk: int, reduce: Callable) -> list:
    """``reduce(start, logits)`` for each ``chunk``-row slice of ``images``,
    by the cache-free pass, in chunk order; the chunks run on
    ``threads.map_tasks``."""
    pairs = [_pair(layer) for layer in net.layers]

    def run(start):
        x = _net_input(net, images[start : start + chunk])
        return reduce(start, _run_forward(net.layers, pairs, x))

    return map_tasks(run, range(0, images.shape[0], chunk))
