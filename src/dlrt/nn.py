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

``build_network`` returns the network it built for a (specs, seed) pair
again for as long as anyone holds that network, so a benchmark that
starts several integrators from one network, or ``compare``, which holds
each seed's network while its runs build theirs, factors it once: a Gram
eigendecomposition per low-rank layer. Sharing a network is safe:
networks, layers and states are frozen values over read-only arrays,
which a step replaces and never writes.
"""

import operator
import weakref
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
_EVAL_CHUNK = 512  # rows per pass of evaluate


@dataclass(frozen=True)
class LayerSpec:
    """Declarative description of one layer, consumed by build_network: a
    low-rank one exactly when ``initial_rank`` is set. Raises ``ValueError``
    for a dim below 1, an ``initial_rank`` outside [1, min(dims)] and an
    activation other than relu or identity, as the two layers do."""

    in_dim: int
    out_dim: int
    activation: str = "relu"
    initial_rank: Optional[int] = None

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("layer dims must be positive")
        _check_activation(self.activation)
        rank = self.initial_rank
        if rank is not None and not 1 <= rank <= min(self.in_dim, self.out_dim):
            raise ValueError("initial_rank must be in [1, min(dims)]")


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
    ``bias`` and marks them read-only, so a write into either raises
    ``ValueError``; pass a copy to keep a writable one. A bias whose shape
    is not (out_dim,) raises ``DimensionError``. Its ``rank`` is None."""

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


@dataclass(frozen=True, eq=False)
class LowRankLayer:
    """A layer whose weight stays factored as a ``LowRankState``. It takes
    ownership of ``bias`` and marks it read-only, as the state does its
    factors. A bias whose shape is not (out_dim,) raises ``DimensionError``."""

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


@dataclass(frozen=True, eq=False)
class Network:
    """Layers in order, held as a tuple. An empty list of layers raises
    ``ValueError``, and widths that do not chain ``DimensionError``.
    ``ranks()`` lists the low-rank layers' ranks."""

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
    last = len(widths) - 2
    return [LayerSpec(n_in, n_out, "identity" if i == last else "relu",
                      None if initial_rank is None else min(initial_rank, n_in, n_out))
            for i, (n_in, n_out) in enumerate(zip(widths, widths[1:]))]


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

    While a network built for (tuple(specs), seed) is held anywhere, a call
    with an equal pair returns that same network; once nothing holds it, it
    is freed and the next call builds it anew. A shared network is safe: it,
    its layers and its states are frozen, their arrays are read-only, and
    ``train_step`` returns a new network. ``seed`` must be an integer
    (``operator.index``); anything else, a ``np.random.Generator`` among
    them, raises ``TypeError``.
    """
    key = tuple(specs), operator.index(seed)
    net = _built.get(key)
    if net is None:  # a failed build raises here and is not kept
        net = _built[key] = _new_network(*key)
    return net


# the networks build_network made that someone still holds, by (specs,
# seed). Two threads that build one pair at once may each factor it; both
# get the same bytes
_built = weakref.WeakValueDictionary()


def _new_network(specs: tuple, seed: int) -> Network:
    rng = np.random.default_rng(seed)
    draws = [np.sqrt(2.0 / spec.in_dim) * rng.standard_normal((spec.out_dim, spec.in_dim))
             for spec in specs]
    lowrank = [(w, spec.initial_rank) for spec, w in zip(specs, draws)
               if spec.initial_rank is not None]
    states = iter(map_tasks(_leading_state, *zip(*lowrank)))
    return Network([
        DenseLayer(w, np.zeros(spec.out_dim), spec.activation) if spec.initial_rank is None
        else LowRankLayer(next(states), np.zeros(spec.out_dim), spec.activation)
        for spec, w in zip(specs, draws)
    ])


def _leading_state(w: Matrix, rank: int) -> LowRankState:
    # the rank-r part of one layer's draw, by the Gram route
    u, sigma, v = _gram_svd(w, lambda _: rank)
    return LowRankState(np.ascontiguousarray(u), np.diag(sigma), np.ascontiguousarray(v))


# -- forward / backward tape ------------------------------------------------
#
# A pass views every layer's weight as w = a @ b.T, one factor pair per
# layer: a dense layer is a = w with no right factor (b = None), so its pass
# skips the x @ b product; bias and activation come from the layer itself.
# The forward pass records each layer's input, x @ b and ReLU mask z > 0
# (None for an identity layer) as a plain (x, xb, mask) tuple. Backward
# reads the records and returns one tape per layer (the input, the right
# factor, x @ b and the pre-activation's gradient): the layer's gradient
# handle, contracted against whatever factor the active integrator phase
# needs. Only a dense layer's update forms delta.T @ x in full.


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
    """The layer's weight as its pass's factor pair (a, b): a dense layer
    runs the same pass as a factored one, with its weight as a and no b."""
    if isinstance(layer, DenseLayer):
        return layer.w, None
    st = layer.state
    return st.u @ st.s, st.v


def _run_forward(layers, pairs, x, records=None):
    # returns the logits; with a list given as records, appends each
    # layer's (x, xb, mask) for backward. The bias and the ReLU go into z in
    # place, and a pass without records keeps no layer's arrays past the
    # next layer: holding them made the allocator fault fresh pages for
    # every 512-row chunk, about 30% of a paper-net evaluation's time
    cur = x
    for layer, (a, b) in zip(layers, pairs):
        xb = cur if b is None else cur @ b
        z = xb @ a.T
        z += layer.bias
        relu = layer.activation == "relu"
        if records is not None:
            records.append((cur, xb, z > 0.0 if relu else None))
        if relu:
            np.maximum(z, 0.0, out=z)
        cur = z
    if not np.isfinite(cur).all():
        raise NumericError("non-finite activation in forward pass")
    return cur


def _run_backward(pairs, records, dlogits) -> list:
    # the pass's tapes in layer order, from its forward records
    tapes = []
    d = dlogits
    for idx in range(len(pairs) - 1, -1, -1):
        (a, b), (x, xb, mask) = pairs[idx], records[idx]
        delta = d if mask is None else d * mask
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
    A batch of no rows raises ``ValueError``, and so does ``train_step``,
    as do labels without an integer dtype or outside [0, classes).
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    b, classes = logits.shape
    if labels.shape != (b,):
        raise DimensionError("labels must be one integer per row of logits")
    if b == 0:
        raise ValueError("empty batch")
    _check_labels(labels, classes)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_prob = shifted - log_z
    rows = np.arange(b)
    loss = float(-log_prob[rows, labels].mean())
    dlogits = np.exp(log_prob)
    dlogits[rows, labels] -= 1.0
    dlogits /= b
    return loss, dlogits


def _check_labels(labels: np.ndarray, classes: int) -> None:
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must have an integer dtype, got {labels.dtype}")
    if labels.min() < 0 or labels.max() >= classes:
        raise ValueError(f"labels must lie in [0, {classes})")


def backward(net: Network, cache: _Cache, dlogits) -> list:
    """The pass's gradient handles, one ``_Tape`` per layer in layer order:
    the records ``train_step``'s passes hand the steppers. ``right(v)`` and
    ``left(u)`` give G @ v and G.T @ u as delta.T @ (x @ v) and
    x.T @ (delta @ u); ``full()`` gives G and ``bias_grad()`` the bias's."""
    if cache.net is not net:
        raise ValueError("stale cache: forward ran on a different network")
    dlogits = as_matrix(dlogits, "dlogits")
    return _run_backward(cache.pairs, cache.records, dlogits)


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
        tapes = _run_backward(pairs, records, dlogits)
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


def evaluate(net: Network, dataset) -> float:
    """Argmax accuracy over a dataset, ``_EVAL_CHUNK`` rows per pass; ties
    resolve to the lowest class. The chunks run on ``threads.map_tasks``,
    and the result does not depend on the pool's width. An empty dataset or
    labels as ``softmax_cross_entropy`` refuses them, classes being the last
    layer's outputs, raise ``ValueError``; a label count other than one per
    image ``DimensionError``."""
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
    _check_labels(labels, net.layers[-1].out_dim)

    def hits(start, logits):
        return int((np.argmax(logits, axis=1) == labels[start : start + _EVAL_CHUNK]).sum())

    return sum(_map_chunks(net, images, _EVAL_CHUNK, hits)) / n


def _map_chunks(net: Network, images, chunk: int, reduce: Callable) -> list:
    """``reduce(start, logits)`` for each ``chunk``-row slice of ``images``,
    by the cache-free pass, in chunk order; the chunks run on
    ``threads.map_tasks``."""
    pairs = [_pair(layer) for layer in net.layers]

    def run(start):
        x = _net_input(net, images[start : start + chunk])
        return reduce(start, _run_forward(net.layers, pairs, x))

    return map_tasks(run, range(0, images.shape[0], chunk))
