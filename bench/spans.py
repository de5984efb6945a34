"""In-memory span tracer for ``dlrt``'s public functions, and the per-layer
figures computed from its spans.

``Tracer`` rebinds every traced function in each ``dlrt.*`` module that
binds it, not only in the module that defines it: ``nn`` imports
``householder_qr``, ``ortho_augment`` and ``truncate_state`` by name and
``cli`` imports ``evaluate`` as ``net_accuracy``, so wrapping the defining
module alone would miss those calls. Leaving the ``with`` block restores
every original binding.

A span records its name, start, end, parent span and a few attributes
taken from the call's arguments and result (matrix shapes, kept rank,
bytes written). Attributes are computed after the end time is taken.
"""

import importlib
import os
import sys
import time
from contextlib import contextmanager

TRACED = {
    "dlrt.linalg": ("householder_qr", "ortho_augment", "svd_thin"),
    "dlrt.lowrank": ("truncate_state", "truncation_rank"),
    "dlrt.nn": ("train_step", "forward", "softmax_cross_entropy", "backward", "evaluate"),
    "dlrt.data": ("load_dataset", "batches"),
    "dlrt.checkpoint": ("save_network", "load_network"),
    "dlrt.integrators": ("ode_error_study", "abc_psi_step"),
}


def _shape_attrs(args, result):
    rows, cols = args[0].shape
    return {"rows": rows, "cols": cols}


def _augment_attrs(args, result):
    u0, k1 = args[0], args[1]
    return {"rows": u0.shape[0], "cols_in": u0.shape[1] + k1.shape[1],
            "cols_out": result.shape[1]}


def _truncate_attrs(args, result):
    return {"q": args[0].shape[1], "kept": result[1].shape[1]}


def _step_attrs(args, result):
    ranks = result[0].ranks()
    return {"integrator": args[2], "rank_sum": sum(ranks), "lowrank_layers": len(ranks)}


def _batches_attrs(args, result):
    return {"bytes": sum(x.nbytes + y.nbytes for x, y in result)}


def _save_attrs(args, result):
    return {"bytes": os.path.getsize(args[0])}


_ATTRS = {
    "linalg.householder_qr": _shape_attrs,
    "linalg.ortho_augment": _augment_attrs,
    "linalg.svd_thin": _shape_attrs,
    "lowrank.truncate_state": _truncate_attrs,
    "nn.train_step": _step_attrs,
    "data.batches": _batches_attrs,
    "checkpoint.save_network": _save_attrs,
}


def _dlrt_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "dlrt" or name.startswith("dlrt.")]


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "child_s")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = {}
        self.child_s = {}  # layer prefix -> seconds spent in direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    def ancestor(self, name):
        """The nearest enclosing span called ``name``, or None."""
        span = self.parent
        while span is not None and span.name != name:
            span = span.parent
        return span


class Tracer:
    """Context manager that records a span for every traced call."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._bindings = []  # (module, attribute, original)

    def __enter__(self):
        for module_name, names in TRACED.items():
            module = importlib.import_module(module_name)
            layer = module_name.split(".", 1)[1]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for bound in _dlrt_modules():
                    for attr, value in list(vars(bound).items()):
                        if value is original:
                            self._bindings.append((bound, attr, original))
                            setattr(bound, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()
        return False

    @contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)
        if span.parent is not None:
            layer = span.name.split(".", 1)[0]
            span.parent.child_s[layer] = span.parent.child_s.get(layer, 0.0) + span.duration

    def _wrap(self, name, fn):
        attrs = _ATTRS.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced


def restored() -> bool:
    """True when no ``dlrt`` module binds a tracing wrapper."""
    return not any(getattr(value, "__qualname__", "").startswith("Tracer._wrap.")
                   for module in _dlrt_modules() for value in vars(module).values())


INTEGRATORS = ("abc-psi", "psi", "bc-psi", "bug", "full")


def qr_flop(rows: int, cols: int) -> float:
    """Householder QR with an explicit thin Q (geqrf + orgqr)."""
    return 4.0 * rows * cols * cols - 4.0 * cols ** 3 / 3.0


def svd_flop(rows: int, cols: int) -> float:
    """Thin SVD computing U, sigma and V (Golub and Van Loan's R-SVD count)."""
    return 6.0 * rows * cols * cols + 20.0 * cols ** 3


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def summarize(spans, steps: int, passes: int, load_passes: int) -> dict:
    """Per-layer figures from the spans of ``passes`` traced passes.

    ``steps`` is the number of loop steps those passes ran; the per-step
    linalg, lowrank and nn figures count only work done inside
    ``nn.train_step``. ``load_passes`` is how many passes the dataset
    loads are spread over (1 when a workload loads its data once, in
    set-up).
    """
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name, in_step=False):
        found = by_name.get(name, [])
        if in_step:
            found = [s for s in found if s.ancestor("nn.train_step") is not None]
        return found

    def total_ms(found):
        return 1e3 * sum(s.duration for s in found)

    per_step = 1.0 / max(steps, 1)
    out = {}
    svd = named("linalg.svd_thin", True)
    aug = named("linalg.ortho_augment", True)
    qr = named("linalg.householder_qr", True)
    out["linalg.svd_thin.calls_per_step"] = len(svd) * per_step
    out["linalg.svd_thin.ms_per_step"] = total_ms(svd) * per_step
    out["linalg.svd_thin.cols_mean"] = _mean([s.attrs["cols"] for s in svd])
    out["linalg.ortho_augment.calls_per_step"] = len(aug) * per_step
    out["linalg.ortho_augment.ms_per_step"] = total_ms(aug) * per_step
    out["linalg.ortho_augment.cols_in_mean"] = _mean([s.attrs["cols_in"] for s in aug])
    out["linalg.ortho_augment.cols_out_mean"] = _mean([s.attrs["cols_out"] for s in aug])
    out["linalg.householder_qr.calls_per_step"] = len(qr) * per_step
    out["linalg.householder_qr.ms_per_step"] = total_ms(qr) * per_step
    flop = sum(qr_flop(s.attrs["rows"], s.attrs["cols"]) for s in qr)
    flop += sum(qr_flop(s.attrs["rows"], s.attrs["cols_in"]) for s in aug)
    flop += sum(svd_flop(s.attrs["rows"], s.attrs["cols"]) for s in svd)
    linalg_ms = total_ms(svd) + total_ms(aug) + total_ms(qr)
    out["linalg.gflop_per_step"] = flop * per_step / 1e9
    out["linalg.gflops"] = flop / (linalg_ms * 1e6) if linalg_ms else 0.0

    step_spans = named("nn.train_step")
    step_ms = total_ms(step_spans)
    out["linalg.share"] = linalg_ms / step_ms if step_ms else 0.0

    trunc = named("lowrank.truncate_state", True)
    out["lowrank.truncate_state.self_ms_per_step"] = 1e3 * per_step * sum(
        s.duration - sum(s.child_s.values()) for s in trunc)
    out["lowrank.truncation_rank.ms_per_step"] = total_ms(
        named("lowrank.truncation_rank", True)) * per_step
    q_total = sum(s.attrs["q"] for s in trunc)
    out["lowrank.kept_ratio"] = sum(s.attrs["kept"] for s in trunc) / q_total if q_total else 0.0
    layers = sum(s.attrs["lowrank_layers"] for s in step_spans)
    out["lowrank.rank_mean"] = (
        sum(s.attrs["rank_sum"] for s in step_spans) / layers if layers else 0.0)

    out["nn.train_step.self_ms"] = 1e3 * per_step * sum(
        s.duration - s.child_s.get("linalg", 0.0) - s.child_s.get("lowrank", 0.0)
        for s in step_spans)
    losses = named("nn.softmax_cross_entropy", True)
    out["nn.passes_per_step"] = len(losses) * per_step
    for integrator in INTEGRATORS:
        calls = {s for s in step_spans if s.attrs["integrator"] == integrator}
        count = sum(1 for s in losses if s.ancestor("nn.train_step") in calls)
        out[f"nn.passes_per_step.{integrator}"] = count / len(calls) if calls else 0.0
    out["nn.evaluate.ms"] = _mean([1e3 * s.duration for s in named("nn.evaluate")])

    loads = named("data.load_dataset")
    out["data.load_dataset.calls"] = len(loads) / max(load_passes, 1)
    out["data.load_dataset.ms"] = _mean([1e3 * s.duration for s in loads])
    epochs = named("data.batches")
    out["data.batches.ms_per_epoch"] = _mean([1e3 * s.duration for s in epochs])
    out["data.batches.mb"] = _mean([s.attrs["bytes"] / 1e6 for s in epochs])

    saves = named("checkpoint.save_network")
    out["checkpoint.save_network.ms"] = _mean([1e3 * s.duration for s in saves])
    out["checkpoint.save_network.bytes"] = _mean([s.attrs["bytes"] for s in saves])
    out["checkpoint.load_network.ms"] = _mean(
        [1e3 * s.duration for s in named("checkpoint.load_network")])

    out["integrators.ode_error_study.ms"] = _mean(
        [1e3 * s.duration for s in named("integrators.ode_error_study")])
    abc = named("integrators.abc_psi_step")
    out["integrators.abc_psi_step.calls"] = len(abc) / max(passes, 1)
    out["integrators.abc_psi_step.ms_per_call"] = _mean([1e3 * s.duration for s in abc])
    for command in ("compare", "ode-bench", "descent-audit"):
        out[f"cli.{command}.s"] = sum(
            s.duration for s in named(f"cli.{command}")) / max(passes, 1)
    return out
