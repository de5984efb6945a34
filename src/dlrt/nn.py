"""Feed-forward networks with dense and low-rank factored layers.

A layer with weight ``w`` (out_dim x in_dim) maps a batch ``x`` (b x in_dim)
to ``x @ w.T + bias``. Low-rank layers never materialize ``w``: forward runs
as ``((x @ v) @ s.T) @ u.T`` at cost O(b (m+n) r), and backward returns
contracted gradients instead of the full m x n matrix.

train_step hands the low-rank layers' states to the chosen stepper of
``dlrt.integrators`` together with the network's gradient function, so every
integrator is written once for single matrices and networks alike. One
evaluation of that function is one forward/backward pass with all low-rank
layers at the stepper's current phase, so each gradient evaluation sees a
consistent network. With s substeps a step costs 2s+1 (psi), 2s (bc-psi,
bug), 2s-1 (abc-psi) or 1 (full) passes. Dense layers and biases take a
plain gradient-descent step from the first pass.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .integrators import INTEGRATOR_NAMES, STEPPERS, StepConfig
from .linalg import DimensionError, Matrix, NumericError, as_matrix, read_only
from .lowrank import LowRankState, _gram_svd

__all__ = [
    "LayerSpec",
    "DenseLayer",
    "LowRankLayer",
    "Network",
    "BatchGrad",
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


class DenseGrad(NamedTuple):
    g: Matrix  # full out_dim x in_dim gradient


class LowRankGrad(NamedTuple):
    g_v: Matrix  # gradient contracted on the right basis, out_dim x r
    g_u: Matrix  # gradient contracted on the left basis, in_dim x r


@dataclass(frozen=True, eq=False)
class BatchGrad:
    """Per-layer loss gradients for one mini-batch, contracted where low-rank."""

    weights: tuple  # DenseGrad | LowRankGrad per layer
    biases: tuple


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
    """
    rng = np.random.default_rng(seed)
    layers = []
    for spec in specs:
        std = np.sqrt(2.0 / spec.in_dim)
        w = std * rng.standard_normal((spec.out_dim, spec.in_dim))
        bias = np.zeros(spec.out_dim)
        if spec.kind == "dense":
            layers.append(DenseLayer(w, bias, spec.activation))
        else:
            u, sigma, v = _gram_svd(w, lambda _: spec.initial_rank)
            u, v = np.ascontiguousarray(u), np.ascontiguousarray(v)
            layers.append(LowRankLayer(LowRankState(u, np.diag(sigma), v), bias, spec.activation))
    return Network(layers)


# -- forward / backward tape ------------------------------------------------
#
# Internally every layer is viewed as w = a @ b.T; a dense layer is a = w
# with no right factor (b = None), so its pass skips the x @ b product. The
# forward pass records each layer's input, x @ b and pre-activation as a
# plain (x, b, xb, z) tuple. Backward reads the records and returns one
# tape per layer: the input, the right factor, x @ b and the
# pre-activation's gradient, so that gradients can be contracted against
# whatever factor the active integrator phase needs, without ever forming
# delta.T @ x in full. The pre-activation does not outlive the pass.


class _Repr(NamedTuple):
    a: Matrix  # left factor, out_dim x r (the weight, out_dim x in_dim, for dense)
    b: Optional[Matrix]  # right factor, in_dim x r (None for dense)
    bias: np.ndarray
    activation: str


class _Tape(NamedTuple):
    """One layer's record of one forward/backward pass; its ``right`` and
    ``left`` make it the gradient handle of the layer's weight."""

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

    def bias_grad(self) -> np.ndarray:
        return self.delta.sum(axis=0)


def _base_repr(layer) -> _Repr:
    if isinstance(layer, DenseLayer):
        return _Repr(layer.w, None, layer.bias, layer.activation)
    st = layer.state
    return _Repr(st.u @ st.s, st.v, layer.bias, layer.activation)


def _run_forward(reprs, x, records=None):
    # returns the logits; with a list given as records, appends each
    # layer's (x, b, xb, z) for backward. Evaluation passes none, so no
    # layer's arrays outlive the next layer: holding them made the
    # allocator fault fresh pages for every 512-row chunk, about 30% of a
    # paper-net evaluation's time
    cur = x
    for rep in reprs:
        xb = cur if rep.b is None else cur @ rep.b
        z = xb @ rep.a.T + rep.bias
        if records is not None:
            records.append((cur, rep.b, xb, z))
        cur = np.maximum(z, 0.0) if rep.activation == "relu" else z
    if not np.isfinite(cur).all():
        raise NumericError("non-finite activation in forward pass")
    return cur


def _run_backward(reprs, records, dlogits) -> list:
    # the pass's tapes in layer order, from its forward records
    tapes = []
    d = dlogits
    for idx in range(len(reprs) - 1, -1, -1):
        rep, (x, b, xb, z) = reprs[idx], records[idx]
        delta = d * (z > 0.0) if rep.activation == "relu" else d
        tapes.append(_Tape(x, b, xb, delta))
        if idx > 0:
            d = delta @ rep.a
            if rep.b is not None:
                d = d @ rep.b.T
    return tapes[::-1]


class _Cache(NamedTuple):
    net: "Network"
    reprs: list
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
    reprs = [_base_repr(layer) for layer in net.layers]
    records = []
    logits = _run_forward(reprs, x, records)
    return logits, _Cache(net, reprs, records)


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


def backward(net: Network, cache: _Cache, dlogits) -> BatchGrad:
    """Exact batch-loss gradients; low-rank layers come back contracted.

    For a low-rank layer the pair is (G @ v, G.T @ u) against the layer's
    current factors, computed as delta.T @ (x @ v) and x.T @ (delta @ u).
    """
    if cache.net is not net:
        raise ValueError("stale cache: forward ran on a different network")
    dlogits = as_matrix(dlogits, "dlogits")
    tapes = _run_backward(cache.reprs, cache.records, dlogits)
    weights = []
    for layer, tape in zip(net.layers, tapes):
        if isinstance(layer, DenseLayer):
            entry = DenseGrad(tape.delta.T @ tape.x)
            finite = np.isfinite(entry.g).all()
        else:
            st = layer.state
            entry = LowRankGrad(tape.right(st.v), tape.left(st.u))
            finite = np.isfinite(entry.g_v).all() and np.isfinite(entry.g_u).all()
        if not finite:
            raise NumericError("non-finite gradient")
        weights.append(entry)
    return BatchGrad(tuple(weights), tuple(tape.bias_grad() for tape in tapes))


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
        pairs = iter(pairs)
        reprs = [
            _Repr(*next(pairs), layer.bias, layer.activation)
            if isinstance(layer, LowRankLayer)
            else _base_repr(layer)
            for layer in net.layers
        ]
        records = []
        logits = _run_forward(reprs, x, records)
        loss, dlogits = softmax_cross_entropy(logits, labels)
        tapes = _run_backward(reprs, records, dlogits)
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
            w = layer.w - h * (tape.delta.T @ tape.x)
            new_layers.append(DenseLayer(w, bias, layer.activation))
        else:
            new_layers.append(LowRankLayer(next(states), bias, layer.activation))
    return Network(new_layers), loss


def evaluate(net: Network, dataset, chunk: int = 512) -> float:
    """Argmax accuracy over a dataset, ``chunk`` rows (>= 1) per pass; ties
    resolve to the lowest class."""
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
    hits = 0
    for start, logits in _chunk_logits(net, images, chunk):
        hits += int((np.argmax(logits, axis=1) == labels[start : start + chunk]).sum())
    return hits / n


def _chunk_logits(net: Network, images, chunk: int):
    """(start, logits) for each ``chunk``-row slice of ``images``, by the
    cache-free pass."""
    reprs = [_base_repr(layer) for layer in net.layers]
    for start in range(0, images.shape[0], chunk):
        yield start, _run_forward(reprs, _net_input(net, images[start : start + chunk]))
