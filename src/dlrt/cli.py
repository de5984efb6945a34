"""Experiment driver: training runs, integrator comparisons, step-size
robustness studies, and descent audits.

Subcommands: train, compare, ode-bench, descent-audit. Settings come from
an optional JSON config file plus flags; flags win. Metrics go to CSV
(deterministic: identical config + seed gives identical bytes), run
summaries to JSON (which also carries the wallclock), weights to binary
checkpoints.
"""

import argparse
import csv
import hashlib
import json
import logging
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Optional, Union, get_args, get_origin

import numpy as np

from . import __version__
from .checkpoint import atomic_write, save_network
from .data import DataError, batches, load_dataset
from .integrators import (
    INTEGRATOR_NAMES,
    StepConfig,
    _steps_for,
    abc_psi_flow,
    ode_error_study,
    s_step_loss_delta_psi,
    synthetic_quadratic_problem,
)
from .linalg import NumericError
from .lowrank import TruncationPolicy, compression_rate, param_count
from .nn import build_network, mlp_specs, softmax_cross_entropy, train_step
from .nn import _chunk_logits, evaluate as net_accuracy

__all__ = ["RunConfig", "ConfigError", "main"]

log = logging.getLogger("dlrt")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGED = 4
EXIT_VIOLATION = 5

DATA_DIR_ENV = "DLRT_DATA_DIR"
DIVERGENCE_NORM = 1e12
MAX_STEPS = 10**6  # the most steps any one count a run's settings imply may reach


class ConfigError(Exception):
    """Invalid or unknown run settings."""


def _fits(value, kind) -> bool:
    """Whether a value fits a ``RunConfig`` annotation: a list or a tuple
    for a tuple, a bool for no number, an int or a finite float for a float."""
    if get_origin(kind) is Union:
        return any(_fits(value, arg) for arg in get_args(kind))
    if get_origin(kind) is tuple:
        return isinstance(value, (list, tuple)) and all(
            _fits(item, get_args(kind)[0]) for item in value
        )
    if isinstance(value, bool):
        return kind is bool
    if kind is float:  # NaN, the infinities and ints past float range fail
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def _type_name(kind) -> str:
    """A ``RunConfig`` annotation in JSON words, e.g. "a list of int"."""
    if get_origin(kind) is tuple:
        return f"a list of {_type_name(get_args(kind)[0])}"
    if get_origin(kind) is Union:  # Optional[X]
        return f"{_type_name(get_args(kind)[0])} or null"
    return "finite float" if kind is float else kind.__name__


@dataclass(frozen=True)
class RunConfig:
    """Settings for all subcommands. Each command reads the slice its parser
    declares; the other fields keep their defaults."""

    integrator: str = "abc-psi"
    integrators: tuple[str, ...] = ()  # compare: defaults to (integrator,)
    arch: tuple[int, ...] = (784, 500, 500, 500, 500, 10)
    lr: float = 0.01
    tau: float = 0.1
    rank: int = 50
    r_min: int = 2
    r_max: Optional[int] = None  # None: twice the initial rank
    batch_size: int = 64
    epochs: int = 20
    seed: int = 0
    seeds: tuple[int, ...] = ()  # compare: defaults to (seed,)
    data_dir: Optional[str] = None
    out_dir: str = "runs"
    substeps: int = 1
    # synthetic-problem settings (ode-bench, descent-audit)
    dims: tuple[int, ...] = (50, 40)
    target_rank: int = 4
    eps: float = 0.0
    h_list: tuple[float, ...] = (0.1, 0.05, 0.025)
    t_end: float = 1.0
    ref_h: float = 1e-4
    steps: int = 200

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _fits(value, f.type):
                raise ConfigError(f"{f.name} must be {_type_name(f.type)}, got {value!r}")

    def validate(self, keys=None) -> "RunConfig":
        """Check ranges and relations; the types were checked at construction.
        A step count is checked against MAX_STEPS when ``keys``, the settings
        a command reads (default: all), hold every setting it multiplies."""
        keys = {f.name for f in fields(self)} if keys is None else set(keys)
        for name in (self.integrator, *self.integrators):
            if name not in INTEGRATOR_NAMES:
                raise ConfigError(f"unknown integrator {name!r}")
        if len(self.arch) < 2 or any(w < 1 for w in self.arch):
            raise ConfigError("arch needs >= 2 positive layer widths")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.rank < 1:
            raise ConfigError("rank must be >= 1")
        try:  # tau, r_min and r_max follow the policy's own rules
            self.policy(self.rank)
        except ValueError as exc:
            raise ConfigError(str(exc))
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.seed < 0 or any(seed < 0 for seed in self.seeds):
            raise ConfigError("seeds must be >= 0")
        if self.substeps < 1:
            raise ConfigError("substeps must be >= 1")
        if len(self.dims) != 2 or any(d < 1 for d in self.dims):
            raise ConfigError("dims must be two positive integers")
        if self.target_rank < 1 or self.target_rank > min(self.dims):
            raise ConfigError("target_rank must be in [1, min(dims)]")
        if not self.h_list or any(h <= 0 for h in self.h_list):
            raise ConfigError("h_list must hold positive step sizes")
        if self.t_end <= 0 or self.ref_h <= 0:
            raise ConfigError("t_end and ref_h must be positive")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        counts = []
        try:
            if {"h_list", "t_end", "substeps"} <= keys:
                counts += [(f"t_end/h * substeps (h {h}, substeps {self.substeps})",
                            _steps_for(h, self.t_end) * self.substeps) for h in self.h_list]
            if {"ref_h", "t_end"} <= keys:
                counts.append(("t_end/ref_h", _steps_for(self.ref_h, self.t_end)))
        except ValueError as exc:
            raise ConfigError(str(exc))
        counts += [(f"{name} * substeps ({n} * {self.substeps})", n * self.substeps)
                   for name, n in (("steps", self.steps), ("epochs", self.epochs))
                   if {name, "substeps"} <= keys]
        for what, count in counts:
            if count > MAX_STEPS:
                raise ConfigError(f"{what} asks for {count} steps, above MAX_STEPS {MAX_STEPS}")
        return self

    def hash(self) -> str:
        # identifies the experiment: filesystem locations don't contribute
        settings = asdict(self)
        settings.pop("data_dir")
        settings.pop("out_dir")
        canonical = json.dumps(settings, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]

    def policy(self, initial_rank: int) -> TruncationPolicy:
        r_max = self.r_max if self.r_max is not None else max(2 * initial_rank, self.r_min)
        return TruncationPolicy(tau=self.tau, r_max=r_max, r_min=self.r_min)


_DEFAULTS = RunConfig()
# settings only some integrators read: the truncation policy (abc-psi) and
# the factored layers' initial rank and substeps (every low-rank integrator)
_POLICY_FIELDS = tuple(f.name for f in fields(TruncationPolicy))
_LOWRANK_FIELDS = ("rank", "substeps")


def _unread_at_defaults(config: RunConfig, keys) -> RunConfig:
    """``config`` with the settings its run does not read at their defaults,
    so that they neither fail validation nor change the hash.

    Compare (the command that reads ``integrators``) takes ``integrator``
    and ``seed`` only as fallbacks for its lists, so the lists are resolved
    from them and they are reset. Integrator-specific settings are reset
    when none of the run's integrators reads them.
    """
    if "integrators" in keys:
        config = replace(
            config,
            integrators=config.integrators or (config.integrator,),
            seeds=config.seeds or (config.seed,),
            integrator=_DEFAULTS.integrator,
            seed=_DEFAULTS.seed,
        )
    names = set(config.integrators or (config.integrator,))
    unread = [] if "abc-psi" in names else list(_POLICY_FIELDS)
    if names == {"full"}:
        unread += _LOWRANK_FIELDS
    return replace(config, **{key: getattr(_DEFAULTS, key) for key in unread})


def load_config(path=None, overrides=None, keys=None) -> RunConfig:
    """Defaults, then ``$DLRT_DATA_DIR``, then JSON file settings, then flag
    overrides. File settings outside ``keys``, the settings a command reads
    (default: all), keep their defaults, and so do the settings that none of
    the run's integrators reads; keys that are no field fail, and so do
    values that do not fit their field's annotation."""
    valid = {f.name for f in fields(RunConfig)}
    keys = valid if keys is None else set(keys)
    merged = {}
    if "data_dir" in keys and os.environ.get(DATA_DIR_ENV):
        merged["data_dir"] = os.environ[DATA_DIR_ENV]
    if path is not None:
        try:
            with open(path) as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_cfg) - valid
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update((k, v) for k, v in file_cfg.items() if k in keys)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    config = RunConfig(**merged)  # a list fits only a tuple field
    tuples = {key: tuple(value) for key, value in merged.items() if isinstance(value, list)}
    return _unread_at_defaults(replace(config, **tuples), keys).validate(keys)


def write_csv(path, config_hash, columns, rows) -> None:
    """CSV with a comment line naming the tool version and config hash."""
    with atomic_write(path, "w", newline="") as fh:
        fh.write(f"# dlrt {__version__} config {config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    with atomic_write(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class _Outputs:
    """A command's output files, named ``<command>-<hash>...``."""

    command: str
    config: RunConfig
    dir: Path
    tag: str  # config.hash()

    def path(self, suffix: str) -> Path:
        return self.dir / f"{self.command}-{self.tag}{suffix}"

    def write_csv(self, suffix: str, columns, rows) -> None:
        write_csv(self.path(suffix), self.tag, columns, rows)

    def write_summary(self, **fields) -> None:
        """The JSON summary: the command, its config and hash, then ``fields``."""
        header = {"command": self.command, "config": asdict(self.config), "config_hash": self.tag}
        write_json(self.path(".json"), {**header, **fields})


def _layer_triples(net) -> list:
    """(in_dim, out_dim, rank) per layer, rank None for a dense layer: the
    input of ``param_count`` and ``compression_rate``."""
    return [(l.in_dim, l.out_dim, l.rank) for l in net.layers]


def _dataset_loss(net, dataset, chunk=1024) -> float:
    total = 0.0
    for start, logits in _chunk_logits(net, dataset.images, chunk):
        loss, _ = softmax_cross_entropy(logits, dataset.labels[start : start + chunk])
        total += loss * logits.shape[0]
    return total / len(dataset)


def _divergence(loss, net) -> Optional[str]:
    """Why a step's loss and net count as diverged, or None if they do not."""
    if not np.isfinite(loss):
        return f"loss {loss}"
    for idx, layer in enumerate(net.layers):
        weight = layer.w if layer.rank is None else layer.state.s
        norm = np.linalg.norm(weight)
        if norm > DIVERGENCE_NORM:
            return f"layer {idx} weight norm {norm:.3e} exceeds {DIVERGENCE_NORM:g}"
    return None


def _metric_row(epoch, train_loss, test_acc, net):
    triples = _layer_triples(net)
    return (
        [epoch, repr(float(train_loss)), repr(float(test_acc))]
        + net.ranks()
        + [param_count(triples), repr(round(compression_rate(triples), 6))]
    )


def _load_splits(config: RunConfig) -> tuple:
    """The train and test splits, checked to be non-empty and against the
    arch's input and output widths."""
    if config.data_dir is None:
        raise ConfigError(f"no data directory: pass --data-dir or set {DATA_DIR_ENV}")
    train = load_dataset(config.data_dir, "train")
    test = load_dataset(config.data_dir, "test")
    for name, split in (("train", train), ("test", test)):
        if not len(split):
            raise DataError(f"the {name} split holds no samples")
    if train.images.shape[1] != config.arch[0]:
        raise ConfigError(
            f"arch expects {config.arch[0]} inputs, data has {train.images.shape[1]}"
        )
    classes = config.arch[-1]
    for split in (train, test):
        if split.labels.size and split.labels.max() >= classes:
            raise ConfigError(
                f"arch has {classes} outputs, data has label {split.labels.max()}"
            )
    return train, test


def _run_training(config: RunConfig, integrator: str, seed: int, train, test) -> dict:
    """One training run; returns rows, final net, status and divergence.

    It logs nothing: ``_log_run`` logs its epochs and divergence from what
    it returns, so a caller logs runs in its own order."""
    rank = None if integrator == "full" else config.rank
    net = build_network(mlp_specs(config.arch, rank), seed=seed)
    # only abc-psi reads the policy
    cfg = StepConfig(h=config.lr, substeps=config.substeps, policy=config.policy(config.rank))

    n_lowrank = len(net.ranks())
    columns = (
        ["epoch", "train_loss", "test_accuracy"]
        + [f"rank_{i}" for i in range(n_lowrank)]
        + ["param_count", "compression_rate"]
    )
    start = time.monotonic()
    rows = [_metric_row(0, _dataset_loss(net, train), net_accuracy(net, test), net)]
    divergence = None
    for epoch in range(1, config.epochs + 1):
        losses = []
        for batch in batches(train, config.batch_size, seed, epoch):
            try:
                net, loss = train_step(net, batch, integrator, cfg)
                reason = _divergence(loss, net)
            except NumericError as exc:
                loss, reason = float("nan"), str(exc)
            losses.append(loss)
            if reason is not None:
                divergence = f"diverged in epoch {epoch}: {reason}"
                break
        if divergence is not None:
            break
        rows.append(
            _metric_row(epoch, np.mean(losses), net_accuracy(net, test), net)
        )
    triples = _layer_triples(net)
    return {
        "status": "ok" if divergence is None else "diverged",
        "divergence": divergence,
        "rows": rows,
        "columns": columns,
        "net": net,
        "runtime_s": time.monotonic() - start,
        "integrator": integrator,
        "seed": seed,
        "final_accuracy": float(rows[-1][2]),
        "param_count": param_count(triples),
        "compression_rate": compression_rate(triples),
    }


def _log_run(result: dict) -> None:
    """Log a run's epoch summaries, read back from its rows, and its
    divergence."""
    for row in result["rows"][1:]:
        log.info(
            "epoch %d: train_loss %.4f test_acc %.4f ranks %s",
            row[0], float(row[1]), float(row[2]), row[3:-2],
        )
    if result["divergence"] is not None:
        log.error("%s", result["divergence"])


def cmd_train(config: RunConfig, out: _Outputs) -> int:
    train, test = _load_splits(config)
    result = _run_training(config, config.integrator, config.seed, train, test)
    _log_run(result)
    out.write_csv(".csv", result["columns"], result["rows"])
    save_network(out.path(".ckpt"), result["net"])
    out.write_summary(
        status=result["status"],
        epochs_completed=len(result["rows"]) - 1,
        final_accuracy=result["final_accuracy"],
        param_count=result["param_count"],
        compression_rate=result["compression_rate"],
        runtime_s=result["runtime_s"],
    )
    print(
        f"train {config.integrator} seed {config.seed}: {result['status']}, "
        f"accuracy {result['final_accuracy']:.4f}, "
        f"params {result['param_count']}, "
        f"compression {result['compression_rate']:.2f}%"
    )
    return EXIT_OK if result["status"] == "ok" else EXIT_DIVERGED


# the settings and splits of the compare in progress: its forked workers
# inherit them, so a run's job pickles only its integrator and seed
_compare_inputs: tuple = ()


def _compare_run(job: tuple) -> dict:
    """One compare run, ``job`` = (integrator, seed), on ``_compare_inputs``:
    its result without the final net, which compare does not read."""
    config, train, test = _compare_inputs
    result = _run_training(config, *job, train, test)
    del result["net"]
    return result


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask, or all of the
    host's where the platform has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_compare(config: RunConfig, out: _Outputs) -> int:
    """Train every integrator x seed run and tabulate their accuracies.

    The runs are independent, so they are spread over min(runs, CPUs in the
    affinity mask) worker processes, forked after the splits are loaded so
    that they inherit them. With one worker, or where ``fork`` does not
    exist, the runs go in process. Either way the CSVs, stdout and the
    logged lines follow run order, so their bytes do not depend on the
    worker count. Each run's JSON ``runtime_s`` is measured inside its
    worker, and the JSON's ``workers`` field records the count. A run that
    raises, or a worker that is killed, fails the command once the runs in
    flight end, and no worker outlives it.
    """
    global _compare_inputs
    integrators, seeds = config.integrators, config.seeds  # resolved by load_config
    train, test = _load_splits(config)
    jobs = [(integrator, seed) for integrator in integrators for seed in seeds]
    workers = min(len(jobs), _cpu_count())
    if "fork" not in multiprocessing.get_all_start_methods():
        workers = 1
    _compare_inputs = (config, train, test)
    pool = None
    runs = []
    try:
        if workers > 1:
            # an executor, unlike multiprocessing.Pool, raises BrokenProcessPool
            # when a worker is killed mid-run instead of waiting for it forever
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            results = pool.map(_compare_run, jobs)
        else:
            results = map(_compare_run, jobs)
        for r in results:  # in run order
            _log_run(r)
            out.write_csv(f"-{r['integrator']}-s{r['seed']}.csv", r["columns"], r["rows"])
            runs.append(r)
    finally:
        _compare_inputs = ()
        if pool is not None:  # no worker outlives the command
            pool.shutdown(wait=True, cancel_futures=True)
    rows = []
    for r in runs:
        rows.append(
            ["run", r["integrator"], r["seed"], r["status"],
             repr(r["final_accuracy"]), r["param_count"]]
        )
    print(f"{'integrator':>10} {'mean_acc':>9} {'std':>7} {'params':>8} {'runs':>5}")
    for integrator in integrators:
        ok = [r for r in runs if r["integrator"] == integrator and r["status"] == "ok"]
        accs = [r["final_accuracy"] for r in ok]
        mean = float(np.mean(accs)) if accs else float("nan")
        std = float(np.std(accs)) if accs else float("nan")
        params = int(np.mean([r["param_count"] for r in ok])) if ok else 0
        rows.append(
            ["summary", integrator, "", f"{len(ok)}/{len(seeds)} ok",
             repr(mean), params]
        )
        print(f"{integrator:>10} {mean:9.4f} {std:7.4f} {params:8d} {len(ok):2d}/{len(seeds)}")
    out.write_csv(
        ".csv", ["row", "integrator", "seed", "status", "accuracy", "param_count"], rows
    )
    out.write_summary(
        workers=workers,
        runs=[
            {k: r[k] for k in
             ("integrator", "seed", "status", "final_accuracy", "param_count",
              "runtime_s")}
            for r in runs
        ],
    )
    return EXIT_OK


def _synthetic_problem(config: RunConfig) -> tuple:
    """The synthetic problem of ode-bench and descent-audit, and its
    truncation policy."""
    m, n = config.dims
    problem = synthetic_quadratic_problem(
        m, n, config.target_rank, eps=config.eps, seed=config.seed
    )
    return problem, config.policy(config.target_rank)


def cmd_ode_bench(config: RunConfig, out: _Outputs) -> int:
    problem, policy = _synthetic_problem(config)
    template = StepConfig(h=1.0, substeps=config.substeps, policy=policy)
    h_list = sorted(config.h_list, reverse=True)
    results = ode_error_study(
        problem, config.integrator, h_list, config.t_end, config.ref_h,
        cfg_template=template,
    )
    rows = []
    orders = []
    prev = None
    for h, err in results:
        h, err = float(h), float(err)
        order = ""
        if prev is not None and err > 0 and prev[1] > 0 and h != prev[0]:
            value = float(np.log(prev[1] / err) / np.log(prev[0] / h))
            orders.append(value)
            order = repr(value)
        rows.append([repr(h), repr(err), order])
        prev = (h, err)
    out.write_csv(".csv", ["h", "error", "observed_order"], rows)
    plateau = bool(orders) and orders[-1] < 0.5
    out.write_summary(
        integrator=config.integrator,
        errors=[[float(h), float(e)] for h, e in results],
        observed_orders=orders,
        plateau=plateau,
    )
    for (h, err), row in zip(results, rows):
        print(f"h={h:<10g} error={err:.6e} order={row[2] or '-'}")
    if plateau:
        print("note: error has plateaued (perturbation floor reached)")
    return EXIT_OK


def cmd_descent_audit(config: RunConfig, out: _Outputs) -> int:
    problem, policy = _synthetic_problem(config)
    # quadratic loss has curvature constant 1
    curvature = 1.0
    h = config.lr
    guaranteed = h <= 2.0 / curvature
    if not guaranteed:
        log.warning(
            "h=%g exceeds 2/c_l=%g: the descent inequality is no longer "
            "guaranteed; violations below are reported, not fatal", h, 2.0 / curvature,
        )
    cfg = StepConfig(h=h, substeps=config.substeps, policy=policy)
    oracle = problem.oracle
    state = problem.y0
    rows = []
    violations = 0
    worst = 0.0
    for step in range(1, config.steps + 1):
        # one abc-psi step, audited between its flow and its truncation
        (flow,) = abc_psi_flow([state], oracle.grads, cfg)
        y0 = state.u @ (state.s @ state.v.T)
        loss_before = oracle.loss(y0)
        proj_grad_sq = float(np.sum((flow.u_hat.T @ oracle.full(y0)) ** 2))
        loss_flow = oracle.loss(flow.u_hat @ flow.l1.T)
        state = flow.truncate(policy)
        bound = loss_before - (1.0 - h * curvature / 2.0) * h * proj_grad_sq
        margin = bound - loss_flow
        violated = margin < -1e-9
        if violated:
            violations += 1
            worst = min(worst, margin)
            log.error(
                "step %d: descent inequality violated (lhs %.12e > bound %.12e)",
                step, loss_flow, bound,
            )
        rows.append(
            [step, repr(loss_before), repr(loss_flow), repr(bound),
             repr(margin), int(violated)]
        )
    s_before, s_after = s_step_loss_delta_psi(problem.y0, oracle, cfg)
    out.write_csv(
        ".csv",
        ["step", "loss_before", "loss_after_flow", "descent_bound", "margin",
         "violated"],
        rows,
    )
    out.write_summary(
        steps=config.steps,
        violations=violations,
        worst_margin=worst,
        h_within_guarantee=guaranteed,
        s_step_loss_before=s_before,
        s_step_loss_after=s_after,
        s_step_delta=s_after - s_before,
    )
    print(
        f"descent audit: {config.steps} steps, {violations} violations; "
        f"core-update loss delta {s_after - s_before:+.6e}"
    )
    if violations and guaranteed:
        return EXIT_VIOLATION
    return EXIT_OK


def _list(cast):
    """argparse type: a comma-separated list of ``cast`` values."""
    def parse(text):
        return tuple(cast(x.strip()) for x in text.split(",") if x.strip())
    parse.__name__ = f"{cast.__name__} list"  # named in argparse's error message
    return parse


def build_parser() -> argparse.ArgumentParser:
    """The ``dlrt`` parser: each subcommand takes exactly the settings it
    reads, and each flag is declared once, in a parent group."""
    parser = argparse.ArgumentParser(
        prog="dlrt",
        description="Low-rank training experiments with splitting integrators",
    )
    parser.add_argument("--version", action="version", version=f"dlrt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)  # every command
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--out-dir", dest="out_dir")
    common.add_argument("--seed", type=int)
    common.add_argument("--tau", type=float, help="truncation tolerance")
    common.add_argument("--r-min", dest="r_min", type=int)
    common.add_argument("--r-max", dest="r_max", type=int)
    common.add_argument("--substeps", type=int)
    integrator = argparse.ArgumentParser(add_help=False)  # train, compare, ode-bench
    integrator.add_argument("--integrator", choices=INTEGRATOR_NAMES)
    lr = argparse.ArgumentParser(add_help=False)  # train, compare, descent-audit
    lr.add_argument("--lr", type=float, help="step size / learning rate")
    training = argparse.ArgumentParser(add_help=False)  # train, compare
    training.add_argument("--rank", type=int, help="initial rank per layer")
    training.add_argument("--epochs", type=int)
    training.add_argument("--batch-size", dest="batch_size", type=int)
    training.add_argument("--data-dir", dest="data_dir",
                          help=f"directory of IDX files (default ${DATA_DIR_ENV})")
    training.add_argument("--arch", type=_list(int), help="comma-separated layer widths")
    problem = argparse.ArgumentParser(add_help=False)  # ode-bench, descent-audit
    problem.add_argument("--dims", type=_list(int), help="problem size m,n")
    problem.add_argument("--target-rank", dest="target_rank", type=int)
    problem.add_argument("--eps", type=float, help="full-rank perturbation size")

    p_train = sub.add_parser("train", parents=[common, integrator, lr, training],
                             help="one training run")
    p_train.set_defaults(func=cmd_train)

    p_cmp = sub.add_parser("compare", parents=[common, integrator, lr, training],
                           help="train across integrators and seeds")
    p_cmp.add_argument("--integrators", type=_list(str),
                       help="comma-separated integrator names")
    p_cmp.add_argument("--seeds", type=_list(int), help="comma-separated seeds")
    p_cmp.set_defaults(func=cmd_compare)

    p_ode = sub.add_parser("ode-bench", parents=[common, integrator, problem],
                           help="step-size robustness study on a synthetic problem")
    p_ode.add_argument("--h-list", dest="h_list", type=_list(float))
    p_ode.add_argument("--t-end", dest="t_end", type=float)
    p_ode.add_argument("--ref-h", dest="ref_h", type=float)
    p_ode.set_defaults(func=cmd_ode_bench)

    p_aud = sub.add_parser("descent-audit", parents=[common, lr, problem],
                           help="check the per-step loss descent inequality")
    p_aud.add_argument("--steps", type=int)
    p_aud.set_defaults(func=cmd_descent_audit)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    settings = vars(build_parser().parse_args(argv))
    command, func, path = settings.pop("command"), settings.pop("func"), settings.pop("config")
    try:
        # the parser's destinations are exactly the settings the command reads
        config = load_config(path, settings, keys=settings)
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        return func(config, _Outputs(command, config, out_dir, config.hash()))
    except (ConfigError, DataError, OSError, NumericError) as exc:
        log.error("%s", exc)
        if isinstance(exc, NumericError):
            return EXIT_DIVERGED
        return EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
