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
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Union, get_args, get_origin

import numpy as np

from . import __version__
from .checkpoint import atomic_write, save_network
from .data import DataError, batches, load_dataset
from .integrators import (
    INTEGRATOR_NAMES,
    STEPPERS,
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
from .nn import _map_chunks, evaluate as net_accuracy
from .threads import cpu_count, set_share, width

__all__ = ["RunConfig", "ConfigError", "main"]

log = logging.getLogger("dlrt")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGED = 4
EXIT_VIOLATION = 5
EXIT_WORKER_LOST = 6

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


def _set(default, commands: str, help=None, integrators=None):
    """A ``RunConfig`` setting: its default, the commands that read it
    (space-separated), its flag's help and, for a setting that only some
    integrators read, those integrators."""
    return field(default=default, metadata={
        "commands": tuple(commands.split()), "help": help, "integrators": integrators,
    })


@dataclass(frozen=True)
class RunConfig:
    """The settings of one command's run. A field names the commands that
    read it; every other command takes it at its default, and so does a
    command none of whose integrators reads it."""

    command: str = "train"
    integrator: str = _set("abc-psi", "train ode-bench", f"one of {', '.join(INTEGRATOR_NAMES)}")
    integrators: tuple[str, ...] = _set(("abc-psi",), "compare",
                                        "comma-separated integrator names")
    arch: tuple[int, ...] = _set((784, 500, 500, 500, 500, 10), "train compare",
                                 "comma-separated layer widths")
    lr: float = _set(0.01, "train compare descent-audit", "step size / learning rate")
    tau: float = _set(0.1, "train compare ode-bench descent-audit", "truncation tolerance",
                      integrators=("abc-psi",))
    rank: int = _set(50, "train compare", "initial rank per layer",
                     integrators=tuple(STEPPERS))  # the low-rank integrators
    r_min: int = _set(2, "train compare ode-bench descent-audit", integrators=("abc-psi",))
    r_max: Optional[int] = _set(None, "train compare ode-bench descent-audit",
                                "default: twice the initial rank", integrators=("abc-psi",))
    batch_size: int = _set(64, "train compare")
    epochs: int = _set(20, "train compare")
    seed: int = _set(0, "train ode-bench descent-audit")
    seeds: tuple[int, ...] = _set((0,), "compare", "comma-separated seeds")
    data_dir: Optional[str] = _set(None, "train compare",
                                   f"directory of IDX files (default ${DATA_DIR_ENV})")
    out_dir: str = _set("runs", "train compare ode-bench descent-audit")
    dims: tuple[int, ...] = _set((50, 40), "ode-bench descent-audit", "problem size m,n")
    target_rank: int = _set(4, "ode-bench descent-audit")
    eps: float = _set(0.0, "ode-bench descent-audit", "full-rank perturbation size")
    h_list: tuple[float, ...] = _set((0.1, 0.05, 0.025), "ode-bench")
    t_end: float = _set(1.0, "ode-bench")
    ref_h: float = _set(1e-4, "ode-bench")
    steps: int = _set(200, "descent-audit")

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _fits(value, f.type):
                raise ConfigError(f"{f.name} must be {_type_name(f.type)}, got {value!r}")
            if isinstance(value, list):  # a list fits only a tuple field
                object.__setattr__(self, f.name, tuple(value))
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        # descent-audit reads no integrator: it audits abc-psi, the default
        ran = self.integrators if self.command == "compare" else (self.integrator,)
        for f in _settings():
            if self.command not in f.metadata["commands"]:
                if getattr(self, f.name) != f.default:
                    raise ConfigError(f"{self.command} does not read {f.name}")
            elif f.metadata["integrators"] and not set(ran) & set(f.metadata["integrators"]):
                object.__setattr__(self, f.name, f.default)

    def validate(self) -> "RunConfig":
        """Check ranges and relations; the types were checked at construction.
        Every step count the settings imply is checked against MAX_STEPS."""
        for name in (self.integrator, *self.integrators):
            if name not in INTEGRATOR_NAMES:
                raise ConfigError(f"unknown integrator {name!r}")
        for key in ("integrators", "seeds", "h_list"):
            values = getattr(self, key)
            if not values:
                raise ConfigError(f"{key} is empty")
            repeats = [v for i, v in enumerate(values) if v in values[:i]]
            if repeats:
                raise ConfigError(f"{key} repeats {repeats[0]!r}")
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
        if len(self.dims) != 2 or any(d < 1 for d in self.dims):
            raise ConfigError("dims must be two positive integers")
        if self.target_rank < 1 or self.target_rank > min(self.dims):
            raise ConfigError("target_rank must be in [1, min(dims)]")
        if any(h <= 0 for h in self.h_list):
            raise ConfigError("h_list must hold positive step sizes")
        if self.t_end <= 0 or self.ref_h <= 0:
            raise ConfigError("t_end and ref_h must be positive")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        try:
            counts = [(f"t_end/h (h {h})", _steps_for(h, self.t_end)) for h in self.h_list]
            counts.append(("t_end/ref_h", _steps_for(self.ref_h, self.t_end)))
        except ValueError as exc:
            raise ConfigError(str(exc))
        counts += [("steps", self.steps), ("epochs", self.epochs)]
        for what, count in counts:
            if count > MAX_STEPS:
                raise ConfigError(f"{what} asks for {count} steps, above MAX_STEPS {MAX_STEPS}")
        return self

    def settings(self) -> dict:
        """The settings the command reads, by name: the JSON summary's config."""
        return {f.name: getattr(self, f.name) for f in _settings(self.command)}

    def hash(self) -> str:
        # identifies the experiment: filesystem locations don't contribute
        settings = self.settings()
        settings.pop("data_dir", None)
        settings.pop("out_dir")
        canonical = json.dumps(settings, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]

    def policy(self, initial_rank: int) -> TruncationPolicy:
        r_max = self.r_max if self.r_max is not None else max(2 * initial_rank, self.r_min)
        return TruncationPolicy(tau=self.tau, r_max=r_max, r_min=self.r_min)


def _settings(command=None) -> list:
    """The ``RunConfig`` fields that are settings, in table order: all of
    them, or those ``command`` reads."""
    return [f for f in fields(RunConfig)
            if f.metadata and (command is None or command in f.metadata["commands"])]


def load_config(command: str, path=None, overrides=None) -> RunConfig:
    """``command``'s settings: defaults, then ``$DLRT_DATA_DIR``, then JSON
    file settings, then flag overrides. A file key that only other commands
    read is ignored, so one file serves every command; a key that is no
    setting fails, and so does a value that does not fit its field's
    annotation."""
    read = {f.name for f in _settings(command)}
    merged = {}
    if "data_dir" in read and os.environ.get(DATA_DIR_ENV):
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
        unknown = set(file_cfg) - {f.name for f in _settings()}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update((k, v) for k, v in file_cfg.items() if k in read)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    return RunConfig(command, **merged).validate()


@dataclass(frozen=True)
class _Outputs:
    """A command's output files, named ``<command>-<hash>...`` and written
    atomically: the one writer of every CSV and JSON a command leaves."""

    config: RunConfig
    dir: Path

    def path(self, suffix: str) -> Path:
        return self.dir / f"{self.config.command}-{self.config.hash()}{suffix}"

    def write_csv(self, suffix: str, columns, rows) -> None:
        """CSV with a comment line naming the tool version and config hash.
        A float cell is written as ``repr(float(v))``, which reads back as
        the same float (numpy 2's own repr of a float64 would not)."""
        with atomic_write(self.path(suffix), "w", newline="") as fh:
            fh.write(f"# dlrt {__version__} config {self.config.hash()}\n")
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])

    def write_summary(self, **fields) -> None:
        """The JSON summary: the command, its settings and hash, then ``fields``."""
        summary = {"command": self.config.command, "config": self.config.settings(),
                   "config_hash": self.config.hash(), **fields}
        with atomic_write(self.path(".json"), "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _layer_triples(net) -> list:
    """(in_dim, out_dim, rank) per layer, rank None for a dense layer: the
    input of ``param_count`` and ``compression_rate``."""
    return [(l.in_dim, l.out_dim, l.rank) for l in net.layers]


def _dataset_loss(net, dataset, chunk=1024) -> float:
    def summed(start, logits):
        loss, _ = softmax_cross_entropy(logits, dataset.labels[start : start + chunk])
        return loss * logits.shape[0]

    # added in chunk order by a plain loop: sum() compensates its rounding
    # from Python 3.12 on, which would change the bytes
    total = 0.0
    for part in _map_chunks(net, dataset.images, chunk, summed):
        total += part
    return total / len(dataset)


def _divergence(loss, net) -> Optional[str]:
    """Why a step's loss and net count as diverged, or None if they do not."""
    if not np.isfinite(loss):
        return f"loss {loss}"
    for idx, layer in enumerate(net.layers):
        weight = layer.w if layer.rank is None else layer.state.s
        norm = np.linalg.norm(weight)
        if not np.isfinite(norm):
            return f"layer {idx} weight norm {norm:.3e} is not finite"
        if norm > DIVERGENCE_NORM:
            return f"layer {idx} weight norm {norm:.3e} exceeds {DIVERGENCE_NORM:g}"
    return None


def _metric_row(epoch, train_loss, test_acc, net):
    triples = _layer_triples(net)
    return (
        [epoch, train_loss, test_acc]
        + net.ranks()
        + [param_count(triples), round(compression_rate(triples), 6)]
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
    cfg = StepConfig(h=config.lr, policy=config.policy(config.rank))

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
    return {
        "status": "ok" if divergence is None else "diverged",
        "divergence": divergence,
        "rows": rows,
        "columns": columns,
        "net": net,
        "runtime_s": time.monotonic() - start,
        "integrator": integrator,
        "seed": seed,
        "final_accuracy": rows[-1][2],
        "param_count": rows[-1][-2],
        "compression_rate": rows[-1][-1],
    }


def _log_run(result: dict) -> None:
    """Log a run's epoch summaries, read from its rows, and its divergence."""
    for row in result["rows"][1:]:
        log.info("epoch %d: train_loss %.4f test_acc %.4f ranks %s", *row[:3], row[3:-2])
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


# the settings and splits of the compare in progress, and the initial
# factored networks it holds so that its runs' builds return them: its
# forked workers inherit them, so a run's job pickles only its integrator
# and seed
_compare_inputs: tuple = ()


def _compare_run(job: tuple) -> dict:
    """One compare run, ``job`` = (integrator, seed), on ``_compare_inputs``:
    its result without the final net, which compare does not read."""
    config, train, test, _ = _compare_inputs
    result = _run_training(config, *job, train, test)
    del result["net"]
    return result


def cmd_compare(config: RunConfig, out: _Outputs) -> int:
    """Train every integrator x seed run and tabulate their accuracies.

    The runs are independent, so they are spread over ``threads.width``
    worker processes, min(runs, CPUs // BLAS threads), forked after the
    splits are loaded and each seed's factored network is built, so that
    they inherit them. With BLAS unpinned (a thread per CPU) or its thread
    count unreadable, that is one. With one worker, or where ``fork`` does
    not exist, the runs go in process. The command holds each seed's
    network until it returns, so every factored run's ``build_network``
    returns it: a compare factors one network per seed, at any seed or
    worker count, and keeps none after it returns.
    Either way the CSVs, stdout and the logged lines follow run order, so
    their bytes do not depend on the worker count. Each worker may fill
    CPUs // workers CPUs with ``threads.map_tasks``, so on a host with no
    more CPUs than workers every worker runs its states on one thread.
    Each run's JSON ``runtime_s`` is measured inside its worker, and the
    JSON's ``workers`` field records the count. A run that raises fails the
    command once the runs in flight end. A worker that is killed gives
    EXIT_WORKER_LOST, and the log names the first run without a result; the
    runs before it keep their CSVs, and no summary is written. No worker
    outlives the command.
    """
    global _compare_inputs
    integrators, seeds = config.integrators, config.seeds
    train, test = _load_splits(config)
    jobs = [(integrator, seed) for integrator in integrators for seed in seeds]
    workers = width(len(jobs))
    if "fork" not in multiprocessing.get_all_start_methods():
        workers = 1
    nets = []
    if any(integrator != "full" for integrator in integrators):
        specs = mlp_specs(config.arch, config.rank)
        nets = [build_network(specs, seed) for seed in seeds]
    _compare_inputs = (config, train, test, nets)
    pool = None
    runs = []
    try:
        if workers > 1:
            # an executor, unlike multiprocessing.Pool, raises BrokenProcessPool
            # when a worker is killed mid-run instead of waiting for it
            # forever. Each worker's state threads fill only its share of
            # the CPUs
            pool = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=set_share, initargs=(cpu_count() // workers,),
            )
            results = pool.map(_compare_run, jobs)
        else:
            results = map(_compare_run, jobs)
        for r in results:  # in run order
            _log_run(r)
            out.write_csv(f"-{r['integrator']}-s{r['seed']}.csv", r["columns"], r["rows"])
            runs.append(r)
    except BrokenProcessPool:
        integrator, seed = jobs[len(runs)]
        log.error("a compare worker was lost: run %s seed %d has no result; "
                  "%d of %d runs written", integrator, seed, len(runs), len(jobs))
        return EXIT_WORKER_LOST
    finally:
        _compare_inputs = ()
        if pool is not None:  # no worker outlives the command
            pool.shutdown(wait=True, cancel_futures=True)
    rows = []
    for r in runs:
        rows.append(
            ["run", r["integrator"], r["seed"], r["status"], r["final_accuracy"],
             r["param_count"]]
        )
    print(f"{'integrator':>10} {'mean_acc':>9} {'std':>7} {'params':>8} {'runs':>5}")
    for integrator in integrators:
        ok = [r for r in runs if r["integrator"] == integrator and r["status"] == "ok"]
        accs = [r["final_accuracy"] for r in ok]
        mean = float(np.mean(accs)) if accs else float("nan")
        std = float(np.std(accs)) if accs else float("nan")
        params = int(np.mean([r["param_count"] for r in ok])) if ok else 0
        rows.append(
            ["summary", integrator, "", f"{len(ok)}/{len(seeds)} ok", mean, params]
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
    h_list = sorted(config.h_list, reverse=True)
    results = ode_error_study(
        problem, config.integrator, h_list, config.t_end, config.ref_h, policy=policy
    )
    rows = []
    orders = []
    prev = None
    for h, err in results:
        order = None  # written as an empty cell
        if prev is not None and err > 0 and prev[1] > 0:
            order = float(np.log(prev[1] / err) / np.log(prev[0] / h))
            orders.append(order)
        rows.append([h, err, order])
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
        print(f"h={h:<10g} error={err:.6e} order={'-' if row[2] is None else row[2]}")
    if plateau:
        print("note: error has plateaued (error floor reached)")
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
    cfg = StepConfig(h=h, policy=policy)
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
            [step, loss_before, loss_flow, bound, margin, int(violated)]
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


_COMMANDS = {  # each subcommand's function and help
    "train": (cmd_train, "one training run"),
    "compare": (cmd_compare, "train across integrators and seeds"),
    "ode-bench": (cmd_ode_bench, "step-size robustness study on a synthetic problem"),
    "descent-audit": (cmd_descent_audit, "check the per-step loss descent inequality"),
}


def _flag_type(kind):
    """argparse type of a ``RunConfig`` annotation: a comma-separated list
    of values for a tuple."""
    if get_origin(kind) is Union:  # Optional[X]
        kind = get_args(kind)[0]
    if get_origin(kind) is not tuple:
        return kind
    cast = get_args(kind)[0]

    def parse(text):
        return tuple(cast(x.strip()) for x in text.split(",") if x.strip())
    parse.__name__ = f"{cast.__name__} list"  # named in argparse's error message
    return parse


def build_parser() -> argparse.ArgumentParser:
    """The ``dlrt`` parser: each subcommand has a flag for each setting it
    reads, by ``RunConfig``'s field table, and ``--config``."""
    parser = argparse.ArgumentParser(
        prog="dlrt",
        description="Low-rank training experiments with splitting integrators",
    )
    parser.add_argument("--version", action="version", version=f"dlrt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary) in _COMMANDS.items():
        # no abbreviated flags: compare would take --seed for --seeds
        p = sub.add_parser(command, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override it")
        for f in _settings(command):
            p.add_argument(f"--{f.name.replace('_', '-')}", type=_flag_type(f.type),
                           help=f.metadata["help"])
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    settings = vars(build_parser().parse_args(argv))
    command, path = settings.pop("command"), settings.pop("config")
    try:
        config = load_config(command, path, settings)
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        # numpy's overflow and invalid-value warnings precede a non-finite
        # value, which the command reports as a NumericError or a divergence
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[command][0](config, _Outputs(config, out_dir))
    except (ConfigError, DataError, OSError, NumericError) as exc:
        log.error("%s", exc)
        if isinstance(exc, NumericError):
            return EXIT_DIVERGED
        return EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
